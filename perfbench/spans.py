"""Span recording around the rtpol layer functions the report reaches.

The tracer rebinds module attributes: every function that
`rtpol.pipeline` imports from a layer module, plus a few functions that
layer code calls through its own module globals, so that nested calls
(the Louvain runs of the resolution sweep, the permutation null inside
the assortativity suite) get spans of their own. Spans stay in memory
and are written as JSON lines when the report ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

LAYERS = ("io", "graph", "pca", "centrality", "community", "polarization",
          "text")
# Called from inside layer code rather than from the pipeline.
NESTED = (("community", "louvain"), ("polarization", "permutation_test"),
          ("polarization", "dyad_correlation"), ("polarization", "mixing_matrix"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    stage: str | None = None
    count: int | None = None


def _work_count(result) -> int | None:
    """Items a call produced: records parsed, or tokens counted."""
    if isinstance(result, list):
        return len(result)
    if hasattr(result, "total_left") and hasattr(result, "total_right"):
        return int(result.total_left + result.total_right)
    return None


def _pipeline_stage() -> str | None:
    """Name of the `run_report` stage closure on the current call stack."""
    frame = sys._getframe(1)
    while frame is not None:
        if (frame.f_code.co_name.startswith("stage_")
                and frame.f_globals.get("__name__") == "rtpol.pipeline"):
            return frame.f_code.co_name[len("stage_"):]
        frame = frame.f_back
    return None


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name=name, start=0.0, end=0.0, parent=parent,
                        run=self.run,
                        stage=_pipeline_stage() if parent is None else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.count = _work_count(result)
            return result
        return traced

    def install(self) -> None:
        """Rebind the layer functions in `rtpol.pipeline` and NESTED."""
        pipeline = importlib.import_module("rtpol.pipeline")
        modules = {f"rtpol.{layer}": layer for layer in LAYERS}
        for attr, obj in list(vars(pipeline).items()):
            if inspect.isfunction(obj) and obj.__module__ in modules:
                layer = modules[obj.__module__]
                setattr(pipeline, attr, self.wrap(obj, f"{layer}.{obj.__name__}"))
        for layer, attr in NESTED:
            module = importlib.import_module(f"rtpol.{layer}")
            setattr(module, attr, self.wrap(getattr(module, attr),
                                            f"{layer}.{attr}"))

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(asdict(s)) + "\n" for s in self.spans)


def read_spans(path: Path) -> list[Span]:
    with path.open(encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
