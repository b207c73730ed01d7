"""The three benchmark workloads: their stages, outputs and checks.

A job is a list of stages run one after another, as a user's shell
pipeline would run them.  A CLI stage is a ``fractalkin`` command line; a
library stage is a ``bounds_job.py`` command line that calls the library
directly.  Stage output paths live in the job's work directory.

The checks of one job's outputs run in a child process of their own:

    python3 perfbench/workloads.py WORKLOAD WORK_DIR SMOKE WALK_SEED

It prints the checks and the outputs' digests as JSON.  Parsing the
outputs would otherwise grow the runner process, and a child launched
from a large process reports that process's peak RSS as its own.  For the same
reason this module does not import the library.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import check
from check import Check

#: walk seed of brownian-walk; fixed so that every benchmark seed measures
#: the same walk (the walk's diameter, and with it the divider's work,
#: varies by a factor of about 3 between PRNG seeds)
DEFAULT_WALK_SEED = 7

#: bounds-exact: one generator per regime plus one on the float route, each
#: checked in two particle contexts (see bounds_job.py)
BOUND_LABELS = ("classical", "sub", "critical", "super", "float")
CONTEXT_NAMES = ("unit", "c06")


def report_path(out_dir: Path, label: str, ctx_name: str) -> Path:
    return Path(out_dir) / f"bounds-{label}-{ctx_name}.json"


@dataclass(frozen=True)
class Stage:
    metric: str  # the end-to-end stage metric this stage's wall time adds to
    argv: tuple[str, ...]  # fractalkin CLI arguments, or bounds_job.py arguments
    lib: bool = False


@dataclass(frozen=True)
class Measure:
    """One `measure` stage: method, ladder and output file name."""

    method: str
    ks: tuple[int, int]  # inclusive k range
    rho: float
    out: str

    def argv(self, work: Path, input_name: str) -> tuple[str, ...]:
        return ("measure", "--input", str(work / input_name),
                "--scales", f"{self.ks[0]}..{self.ks[1]}", "--rho", f"{self.rho:g}",
                "--method", self.method, "--fit", "--out", str(work / self.out))

    @property
    def scales(self) -> list[int]:
        return list(range(self.ks[0], self.ks[1] + 1))


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


class KochLadder:
    name = "koch-ladder"
    why = ("self-similar input whose vertices sit on the ladder's gridlines; "
           "generate is mostly JSON writing, the divider scans ~1,000 segments per step")
    polyline = "koch.json"
    ds_truth = check.KOCH_DS

    def __init__(self, smoke: bool = False) -> None:
        self.level = 5 if smoke else 9
        self.measures = (Measure("grid", (1, self.level), 3.0, "grid.json"),
                         Measure("divider", (1, 3 if smoke else 4), 3.0, "divider.json"))

    def stages(self, work: Path) -> list[Stage]:
        gen = ("generate", "--generator", "koch", "--level", str(self.level), "--out")
        return [Stage("generate", gen + (str(work / self.polyline),)),
                Stage("generate", gen + (str(work / "koch.svg"),)),
                *(Stage(f"measure_{m.method}", m.argv(work, self.polyline)) for m in self.measures)]

    def outputs(self, work: Path) -> list[Path]:
        return [work / self.polyline, work / "koch.svg", *(work / m.out for m in self.measures)]

    def checks(self, work: Path) -> list[Check]:
        grid, divider = (_load(work / m.out) for m in self.measures)
        return [check.polyline_shape(_load(work / self.polyline), 4**self.level + 1, self.level),
                check.svg_document((work / "koch.svg").read_text()),
                check.koch_grid(grid, self.level),
                *check.koch_divider(divider)]

    def sizes(self) -> dict:
        return {"segments": 4**self.level, "level": self.level,
                **{f"{m.method}_k": list(m.ks) for m in self.measures}, "rho": 3}


class BrownianWalk:
    name = "brownian-walk"
    why = ("random off-lattice walk: ~93% of segments cross gridlines at k=10 and the "
           "divider takes ~2 segments per step, so segment scans are cheap here")
    polyline = "walk.json"
    ds_truth = check.BROWNIAN_DS

    def __init__(self, smoke: bool = False, walk_seed: int = DEFAULT_WALK_SEED) -> None:
        self.n = 3000 if smoke else 100_000
        self.walk_seed = walk_seed
        self.measures = (Measure("grid", (2, 6) if smoke else (2, 10), 2.0, "grid.json"),
                         Measure("divider", (3, 5) if smoke else (4, 9), 2.0, "divider.json"))

    def stages(self, work: Path) -> list[Stage]:
        walk = ("brownian", "--n", str(self.n), "--seed", str(self.walk_seed),
                "--out", str(work / self.polyline))
        return [Stage("generate", walk),
                *(Stage(f"measure_{m.method}", m.argv(work, self.polyline)) for m in self.measures)]

    def outputs(self, work: Path) -> list[Path]:
        return [work / self.polyline, *(work / m.out for m in self.measures)]

    def checks(self, work: Path) -> list[Check]:
        grid, divider = (_load(work / m.out) for m in self.measures)
        return [check.brownian_walk(_load(work / self.polyline), self.n, self.walk_seed),
                *check.brownian_measures(grid, divider)]

    def sizes(self) -> dict:
        return {"segments": self.n - 1, "walk_seed": self.walk_seed,
                **{f"{m.method}_k": list(m.ks) for m in self.measures}, "rho": 2}


class BoundsExact:
    name = "bounds-exact"
    why = ("closed-form side: exact Fraction bound checks over k=1..3000 for all four "
           "regimes plus the float route, and analyze --k-max 640")
    measures = ()
    #: known defects, each probed once per run outside the timed jobs
    cli_probe_k_max = 2000

    def __init__(self, smoke: bool = False) -> None:
        self.k_max = 60 if smoke else 3000
        self.analyze_k_max = 20 if smoke else 640

    def stages(self, work: Path) -> list[Stage]:
        return [Stage("verify", ("verify", str(work), str(self.k_max)), lib=True),
                *(Stage("analyze", self._analyze(work, g, self.analyze_k_max))
                  for g in ("koch", "peano"))]

    @staticmethod
    def _analyze(work: Path, generator: str, k_max: int) -> tuple[str, ...]:
        return ("analyze", "--generator", generator, "--k-max", str(k_max),
                "--out", str(work / f"analyze-{generator}-{k_max}.json"))

    def outputs(self, work: Path) -> list[Path]:
        return [report_path(work, label, ctx) for label in BOUND_LABELS for ctx in CONTEXT_NAMES] + [
            work / f"analyze-{g}-{self.analyze_k_max}.json" for g in ("koch", "peano")]

    def checks(self, work: Path) -> list[Check]:
        out = []
        for path in self.outputs(work):
            doc = _load(path)
            if path.name.startswith("analyze-"):
                out.append(check.analyze_bundle(path.stem, doc, self.analyze_k_max))
            else:
                out.append(check.bounds_report(path.stem, doc, self.k_max))
        return out

    def probe_stages(self, work: Path) -> list[tuple[str, Stage]]:
        return [("analyze_koch_k2000",
                 Stage("probe", self._analyze(work, "koch", self.cli_probe_k_max))),
                ("library_probes", Stage("probe", ("probes", str(work / "probes.json")), lib=True))]

    def probe_checks(self, work: Path, exit_codes: dict[str, int], errors: dict[str, str]) -> list[Check]:
        """One check per known-defect probe; a probe passes only when the
        defect is gone."""
        out = []
        code = exit_codes["analyze_koch_k2000"]
        if code == 0:
            doc = _load(work / f"analyze-koch-{self.cli_probe_k_max}.json")
            out.append(check.analyze_bundle("probe:analyze_koch_k2000", doc, self.cli_probe_k_max))
        else:
            out.append(Check("all_passed[probe:analyze_koch_k2000]", False,
                             f"exit {code}: {errors['analyze_koch_k2000']}"))
        if exit_codes["library_probes"] != 0:
            err = errors["library_probes"]
            return out + [Check(f"all_passed[probe:{n}]", False, err)
                          for n in ("super_exact_k3180", "cesaro30_float_k590")]
        for name, res in _load(work / "probes.json").items():
            out.append(Check(f"all_passed[probe:{name}]", res["ok"], res["detail"]))
        return out

    def sizes(self) -> dict:
        return {"verify_k": [1, self.k_max], "generators": 5, "contexts": 2,
                "analyze_k_max": self.analyze_k_max, "probe_analyze_k_max": self.cli_probe_k_max}


WORKLOADS = {w.name: w for w in (KochLadder, BrownianWalk, BoundsExact)}


def make(name: str, smoke: bool, walk_seed: int):
    cls = WORKLOADS[name]
    return cls(smoke, walk_seed) if cls is BrownianWalk else cls(smoke)


def crossing_segments(vertices, ks: list[int], rho: float) -> int:
    """Segments whose endpoints fall in different grid cells, summed over
    the ladder dx_k = L0 / rho^k (L0 the largest axis extent, as `measure`
    takes it)."""
    import numpy as np

    v = np.asarray(vertices, dtype=float)
    l0 = float(max(v[:, 0].max() - v[:, 0].min(), v[:, 1].max() - v[:, 1].min()))
    total = 0
    for k in ks:
        cells = np.floor(v / (l0 / rho**k))
        total += int(np.any(cells[1:] != cells[:-1], axis=1).sum())
    return total


def divider_steps(doc: dict) -> list[int]:
    """Whole divider steps per scale (the count less its fractional tail)."""
    return [math.floor(c) for c in check.counts(doc)]


def main(argv: list[str]) -> int:
    name, work, smoke, walk_seed = argv
    wl = make(name, smoke == "1", int(walk_seed))
    try:
        checks = wl.checks(Path(work))
        digests = check.digests(wl.outputs(Path(work)))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks, digests = [Check("outputs_readable", False, f"{type(exc).__name__}: {exc}")], None
    print(json.dumps({"checks": [c._asdict() for c in checks], "digests": digests}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
