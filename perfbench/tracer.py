"""In-memory spans around calls into the library's public functions.

The spans are recorded from the benchmark's side: `instrumented` swaps
each public function of the library modules for a wrapper, in every
module namespace that holds it, and restores the originals on exit.
Nothing inside the library changes.

A span carries its name (``<module>.<function>``), start and end
(``time.perf_counter`` seconds), the span that caused it, the stage span
it belongs to, a job id, whether it ran on the main thread, and an
optional tag (the cell or step of a count, the generator of a bounds
check, or the kind of JSON document).  Spans opened on a worker thread
(the library's thread pool) take the innermost open main-thread span as
their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

#: library modules whose public functions get spans
LAYERS = ("geometry", "serialize", "render", "estimator", "measures", "kinematics")
#: called once per coordinate by the SVG writer; a span per call would cost
#: more than the call itself and swamp the render layer's time
UNTRACED = frozenset({"serialize.fnum"})
#: stdlib json calls made by the library are JSON encoding, the serialize layer's job
LAYER_OF_PREFIX = {"json": "serialize"}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    stage: int | None
    job: int
    main: bool
    tag: object

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        prefix = self.name.split(".", 1)[0]
        return LAYER_OF_PREFIX.get(prefix, prefix)


def _json_kind(doc) -> str:
    return "polyline" if isinstance(doc, dict) and "vertices" in doc else "report"


#: span tags, computed from a call's positional arguments and result
TAGGERS: dict[str, Callable] = {
    "estimator.grid_count": lambda args, result: args[1],
    "estimator.divider_count": lambda args, result: args[1],
    "kinematics.verify_bounds": lambda args, result: args[0].name,
    "json.dumps": lambda args, result: _json_kind(args[0]),
    "json.loads": lambda args, result: _json_kind(result),
}


class Tracer:
    """Collects spans in memory; `spans` is final once every span closed."""

    def __init__(self) -> None:
        self._open: list[list] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self.job = 0
        self.stage: int | None = None

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        main = stack is self._main_stack
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            idx = len(self._open)
            self._open.append([name, time.perf_counter(), None, parent, self.stage, self.job, main, None])
        stack.append(idx)
        return idx

    def end(self, idx: int, tag=None) -> None:
        rec = self._open[idx]
        rec[2] = time.perf_counter()
        rec[7] = tag
        self._stack().pop()

    @contextmanager
    def stage_span(self, name: str):
        """A root span for one stage; spans opened inside it belong to it."""
        idx = self.begin(name)
        self.stage = idx
        try:
            yield idx
        finally:
            self.end(idx)
            self.stage = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, tagger(args, result) if tagger and result is not None else None)

        return traced

    @property
    def spans(self) -> list[Span]:
        return [Span(*rec) for rec in self._open]


class _TracedJson:
    """Stands in for the json module inside the library's namespaces."""

    def __init__(self, tracer: Tracer) -> None:
        self.dumps = tracer.wrap("json.dumps", json.dumps)
        self.loads = tracer.wrap("json.loads", json.loads)

    def __getattr__(self, name):
        return getattr(json, name)


@contextmanager
def instrumented(tracer: Tracer, extra_modules=()):
    """Route every public library function (and the library's json calls)
    through `tracer` while the block runs."""
    for layer in LAYERS:
        importlib.import_module(f"fractalkin.{layer}")
    importlib.import_module("fractalkin.cli")
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "fractalkin" or n.startswith("fractalkin.")] + list(extra_modules)
    originals = {}
    for layer in LAYERS:
        mod = sys.modules[f"fractalkin.{layer}"]
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            originals[id(fn)] = (fn, tracer.wrap(name, fn))
    patches = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if id(value) in originals and originals[id(value)][0] is value:
                patches.append((ns, attr, value))
                setattr(ns, attr, originals[id(value)][1])
            elif value is json:
                patches.append((ns, attr, value))
                setattr(ns, attr, _TracedJson(tracer))
    try:
        yield
    finally:
        for ns, attr, value in reversed(patches):
            setattr(ns, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each main-thread span's duration less its main-thread children.

    Worker-thread spans get 0: their time already lies inside the
    main-thread span that waited for them, so summing self times over a
    stage gives the stage's wall time exactly.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.main and s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - child[i] if s.main else 0.0 for i, s in enumerate(spans)]
