#!/usr/bin/env python3
"""fractalkin benchmark: end-to-end CLI timings and a traced per-layer breakdown.

    python3 perfbench/run.py --workload koch-ladder --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Run from a checkout of the repository; the library is imported from
``src`` as is, nothing is installed.  One runner process runs one job at
a time in a closed loop, at least two jobs and then as many as end within
``--seconds``.  A job runs its stages one after another, each as a child
process with FK_THREADS pinned to the usable core count.

``--trace 0`` prints the end-to-end metrics, measured on the child
processes.  ``--trace 1`` runs one untraced CLI job, then replays the job
in this process once untraced and once with a span around every call
into the library's public functions, then counts every measured scale
serially; it prints the per-layer metrics.  Every mode runs the output
checks, and bounds-exact runs the known-defect probes, which are reported
apart from the workload's operations.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
Details and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import check
from tracer import Tracer, instrumented

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: end-to-end metrics reported under --trace 0, with their units
END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
STAGE_UNITS = {"generate_s": "s", "measure_grid_s": "s", "measure_divider_s": "s",
               "verify_s": "s", "analyze_s": "s", "fail_frac": "ratio",
               "known_defects_open": "count",
               "ds_abs_err.grid": "1", "ds_abs_err.divider": "1"}
#: `python -m fractalkin --help` launches per run, at least; set-up time is
#: their median.  Three come before the first job and one after every job,
#: so that they sample the same stretch of time as the jobs do.
SETUP_REPS = 5
#: jobs per untraced run at least, so that a median has two samples to
#: work with even when one job outlasts --seconds
MIN_JOBS = 2
#: no job starts that would end past this, and a child still running at
#: CHILD_DEADLINE_S is killed, so that a run ends within 180 s
RUN_BUDGET_S = 150.0
CHILD_DEADLINE_S = 175.0


@dataclass
class Child:
    wall: float
    rss_kb: int
    code: int
    err: str


@dataclass
class Job:
    wall: float = 0.0
    stages: list[tuple[str, float]] = field(default_factory=list)
    rss_kb: int = 0
    checks: list = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["FK_THREADS"] = str(nproc())
    return env


def run_child(argv: list[str], env: dict, timeout: float, err_path: Path) -> Child:
    """Run one child to completion; its wall time, peak RSS and exit code.

    The child is killed if it outlives `timeout` seconds."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = err_path.read_text(errors="replace").strip().splitlines()
    return Child(wall, usage.ru_maxrss, proc.returncode, lines[-1] if lines else "")


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def command(stage) -> list[str]:
    if stage.lib:
        return [sys.executable, str(HERE / "bounds_job.py"), *stage.argv]
    return [sys.executable, "-m", "fractalkin", *stage.argv]


class Runner:
    """Runs workloads; modules that import the library are imported where
    used, after `main` has checked that the library is there."""

    def __init__(self, args) -> None:
        self.args = args
        self.env = child_env()
        self.t0 = time.perf_counter()  # start of the workload being run

    def remaining(self) -> float:
        return CHILD_DEADLINE_S - (time.perf_counter() - self.t0)

    def run_job(self, wl, work: Path) -> Job:
        job = Job()
        start = time.perf_counter()
        for i, stage in enumerate(wl.stages(work)):
            child = run_child(command(stage), self.env, self.remaining(), work / f"stage{i}.err")
            job.stages.append((stage.metric, child.wall))
            job.rss_kb = max(job.rss_kb, child.rss_kb)
            job.checks.append(check.Check(f"exit[{stage.metric}:{stage.argv[0]}]",
                                          child.code == 0, child.err))
        job.wall = time.perf_counter() - start
        return job

    def output_checks(self, wl, work: Path, first: dict | None) -> tuple[list, dict | None]:
        """The workload's checks on `work`, plus byte-identity against `first`,
        run in a child process (see workloads.py)."""
        argv = [sys.executable, str(HERE / "workloads.py"), wl.name, str(work),
                "1" if self.args.smoke else "0", str(self.args.walk_seed)]
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(self.remaining(), 1.0))
        if proc.returncode != 0:
            return [check.Check("outputs_checked", False, proc.stderr.strip()[-300:])], first
        out = json.loads(proc.stdout)
        checks = [check.Check(**c) for c in out["checks"]]
        digest = out["digests"]
        if first is not None and digest is not None:
            checks.append(check.same_bytes(first, digest))
        return checks, first or digest

    def probes(self, wl, work: Path) -> list:
        """Known-defect probes: checks that fail while a defect is open.  They
        are not operations of the workload, so they stay out of its checks."""
        if not hasattr(wl, "probe_stages"):
            return []
        codes, errors = {}, {}
        for name, stage in wl.probe_stages(work):
            child = run_child(command(stage), self.env, self.remaining(), work / f"{name}.err")
            codes[name], errors[name] = child.code, child.err
        return wl.probe_checks(work, codes, errors)

    def another_job(self, start: float, jobs: list[Job]) -> bool:
        """Whether one more job, taking as long as the median so far, ends
        within --seconds of `start` and within the run's budget."""
        expect = statistics.median(j.wall for j in jobs)
        now = time.perf_counter()
        return (now - start + expect <= self.args.seconds
                and now - self.t0 + expect <= RUN_BUDGET_S)

    # -- untraced -------------------------------------------------------

    def untraced(self, wl) -> dict:
        self.t0 = time.perf_counter()
        work = fresh(OUT / f"work-{wl.name}")

        def launch() -> Child:
            return run_child([sys.executable, "-m", "fractalkin", "--help"], self.env,
                             self.remaining(), work / "setup.err")

        setup = [launch() for _ in range(3)]
        jobs: list[Job] = []
        checks = []
        first = None
        start = time.perf_counter()
        while len(jobs) < MIN_JOBS or self.another_job(start, jobs):
            job = self.run_job(wl, work)
            out_checks, first = self.output_checks(wl, work, first)
            checks += job.checks + out_checks
            jobs.append(job)
            setup.append(launch())
        setup += [launch() for _ in range(SETUP_REPS - len(setup))]
        checks += [check.Check("exit[setup]", c.code == 0, c.err) for c in setup]
        probes = self.probes(wl, work)

        med = statistics.median
        metrics = {"setup_s": med(c.wall for c in setup),
                   "job_s": med(j.wall for j in jobs),
                   "peak_rss_mb": med(j.rss_kb for j in jobs) / 1024.0}
        for name in dict.fromkeys(m for m, _ in jobs[0].stages):
            metrics[f"{name}_s"] = med(sum(w for m, w in j.stages if m == name) for j in jobs)
        attempted, failed = check.summary(checks)
        metrics["fail_frac"] = failed / attempted
        if probes:
            metrics["known_defects_open"] = sum(1 for c in probes if not c.ok)
        for meas in wl.measures:
            try:
                doc = json.loads((work / meas.out).read_text())
                metrics[f"ds_abs_err.{meas.method}"] = check.ds_abs_err(doc, wl.ds_truth)
            except (OSError, ValueError, KeyError):
                metrics[f"ds_abs_err.{meas.method}"] = float("inf")
        return {"workload": wl.name, "trace": 0, "jobs": len(jobs),
                "job_walls": [j.wall for j in jobs], "setup_walls": [c.wall for c in setup],
                "stage_walls": [j.stages for j in jobs],
                "metrics": metrics, "checks": checks, "probes": probes}

    # -- traced ---------------------------------------------------------

    def replay(self, wl, work: Path, tracer) -> tuple[list[float], list]:
        """Run every stage of one job in this process; per-stage wall times."""
        import bounds_job
        from fractalkin import cli

        walls, checks = [], []
        for stage in wl.stages(work):
            span = tracer.stage_span(f"stage.{stage.metric}") if tracer else nullcontext()
            start = time.perf_counter()
            with span:
                try:
                    if stage.lib:
                        code = bounds_job.main(list(stage.argv))
                    else:
                        code = cli.main(list(stage.argv), standalone_mode=False)
                    ok, detail = code in (0, None), f"returned {code}"
                except Exception as exc:  # a failing stage is reported, the run goes on
                    ok, detail = False, "".join(traceback.format_exception_only(exc)).strip()
            walls.append(time.perf_counter() - start)
            checks.append(check.Check(f"inprocess[{stage.metric}:{stage.argv[0]}]", ok,
                                      "" if ok else detail))
        return walls, checks

    def traced(self, wl) -> dict:
        import bounds_job
        import layers
        from fractalkin import estimator, serialize

        self.t0 = time.perf_counter()
        os.environ["FK_THREADS"] = str(nproc())
        base = fresh(OUT / f"work-{wl.name}")
        dirs = {k: fresh(base / k) for k in ("cli", "plain", "traced")}

        job = self.run_job(wl, dirs["cli"])
        checks = list(job.checks)
        first = None
        out_checks, first = self.output_checks(wl, dirs["cli"], first)
        checks += out_checks
        plain_walls, c = self.replay(wl, dirs["plain"], None)
        checks += c
        tracer = Tracer()
        with instrumented(tracer, [bounds_job]):
            traced_walls, c = self.replay(wl, dirs["traced"], tracer)
        checks += c
        for key in ("plain", "traced"):
            out_checks, first = self.output_checks(wl, dirs[key], first)
            checks += out_checks
        serial = Tracer()
        with instrumented(serial):
            for meas in wl.measures:
                poly = serialize.polyline_from_dict(
                    json.loads((dirs["traced"] / wl.polyline).read_text()))
                estimator.measure_polyline(poly, meas.scales, rho=meas.rho,
                                           method=meas.method, fit=False, workers=1)
        probes = self.probes(wl, base)

        spans = tracer.spans
        stages = wl.stages(dirs["traced"])
        for (i, gap), stage in zip(layers.stage_accounting(spans).items(), stages):
            ok = abs(gap) <= 1e-6 * max(spans[i].duration, 1.0)
            checks.append(check.Check(f"trace_accounts[{stage.metric}:{stage.argv[0]}]", ok,
                                      "" if ok else f"{gap:.3g} s of the stage outside every layer"))
        metrics = layers.per_layer(wl, spans, serial.spans, [s.lib for s in stages],
                                   [w for _, w in job.stages], traced_walls, plain_walls,
                                   dirs["traced"])
        spans_file = OUT / f"spans-{wl.name}-seed{self.args.seed}.jsonl"
        with open(spans_file, "w") as f:
            for run, recs in (("replay", spans), ("serial", serial.spans)):
                for s in recs:
                    f.write(json.dumps({"run": run, **s._asdict()}) + "\n")
        return {"workload": wl.name, "trace": 1, "jobs": 1, "job_walls": [job.wall],
                "cli_stage_walls": job.stages, "plain_stage_walls": plain_walls,
                "traced_stage_walls": traced_walls, "spans_file": str(spans_file.relative_to(ROOT)),
                "metrics": metrics, "checks": checks, "probes": probes}


def provenance(args, wls) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": nproc(), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "click": importlib.metadata.version("click"),
            "commit": commit, "FK_THREADS": nproc(), "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke,
            "sizes": {wl.name: wl.sizes() for wl in wls}}


def units(trace: int) -> dict[str, str]:
    if not trace:
        return {**END_TO_END, **STAGE_UNITS}
    import layers

    return layers.PER_LAYER


def print_result(res: dict) -> None:
    mode = "traced" if res["trace"] else "untraced"
    print(f"== {res['workload']} ({mode}, {res['jobs']} job(s)) ==")
    for name, value in res["metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {units(res['trace'])[name]}")
    failed = [c for c in res["checks"] if not c.ok]
    print(f"  checks: {len(res['checks']) - len(failed)}/{len(res['checks'])} passed")
    for c in failed:
        print(f"    FAILED {c.name}: {c.detail}")
    for c in res["probes"]:
        state = "fixed" if c.ok else "open"
        print(f"  known defect {state}: {c.name}" + (f": {c.detail}" if c.detail else ""))


def result_line(results: list[dict], qualify: bool) -> dict:
    checks = [c for r in results for c in r["checks"]]
    attempted = len(checks)
    failed = sum(1 for c in checks if not c.ok)
    correct = failed == 0
    metrics = {}
    for r in results:
        wanted = units(r["trace"]) if r["trace"] else END_TO_END
        for name, unit in wanted.items():
            key = f"{r['workload']}.{name}" if qualify else name
            metrics[key] = {"value": r["metrics"][name], "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1,
                   help="recorded; every workload's input is fixed by its definition")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--walk-seed", type=int, default=workloads.DEFAULT_WALK_SEED,
                   help="PRNG seed of the brownian-walk input")
    p.add_argument("--smoke", action="store_true", help="tiny inputs; finishes in seconds")
    p.add_argument("--out", type=Path, default=None, help="results file (JSON)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "fractalkin" / "__init__.py").is_file():
        print(f"error: no fractalkin package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    wls = [workloads.make(n, args.smoke, args.walk_seed) for n in names]
    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    results = []
    for trace in modes:
        for wl in wls:
            res = runner.traced(wl) if trace else runner.untraced(wl)
            print_result(res)
            results.append(res)
    out = args.out or OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"provenance": provenance(args, wls),
              "results": [{**r, "checks": [c._asdict() for c in r["checks"]],
                            "probes": [c._asdict() for c in r["probes"]]} for r in results]}
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result_line(results, qualify=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
