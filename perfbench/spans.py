"""In-memory spans around calls into fibertpa's public functions.

Tracing works from outside the package: while a :class:`Tracer` is
installed, every traced function is replaced, in each ``fibertpa``
module namespace that holds it, by a wrapper that records a span.  The
benchmark, the CLI and ``report`` all look those names up at call time,
so calls made by one module into another become child spans.  With no
tracer installed the package runs unmodified.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from dataclasses import dataclass

# (module, attribute) of every traced public function; a dotted
# attribute names a classmethod.  The layer of a span is its module.
TRACED = (
    ("config", "load_config"),
    ("c2pa", "invert_sigma_c"),
    ("c2pa", "forward_c2pef"),
    ("e2pa", "sigma_e_upper_bound"),
    ("e2pa", "forward_e2pef"),
    ("jsa", "JointSpectrum.from_csv"),
    ("jsa", "entanglement_time_profile"),
    ("jsa", "fit_te_model"),
    ("frames", "synthesize_series"),
    ("frames", "write_series"),
    ("frames", "read_series"),
    ("frames", "analyze_series"),
    ("report", "build_report"),
)
FUNCTIONS = tuple(f"{mod}.{attr}" for mod, attr in TRACED)
LAYERS = ("config", "c2pa", "e2pa", "jsa", "frames", "report", "cli")
BENCH = "bench"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str


class Tracer:
    """Records nested spans; spans of one job share its ``job`` id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = ""
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None):
        self._open(name, job)
        try:
            yield
        finally:
            self._close()

    def _open(self, name, job):
        if job is not None:
            self._job = job
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._job))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def install(self):
        """Replace every traced function in every loaded fibertpa module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fibertpa" or n.startswith("fibertpa.")]
        for mod_name, attr in TRACED:
            home = sys.modules[f"fibertpa.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                bound = getattr(cls, meth)
                self._restore.append((cls, meth, original))
                setattr(cls, meth, staticmethod(self._wrap(name, bound)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def _roots(self) -> list[int]:
        roots = []
        for s in self.spans:   # a parent is always recorded before its children
            roots.append(len(roots) if s.parent is None else roots[s.parent])
        return roots

    def layer_self(self, under: str | None = None) -> dict[str, float]:
        """Self time per layer, over all spans or those under root spans
        named ``under``."""
        out = {layer: 0.0 for layer in LAYERS + (BENCH,)}
        roots = self._roots()
        for s, o, r in zip(self.spans, self.self_times(), roots):
            if under is None or self.spans[r].name == under:
                out[s.name.split(".", 1)[0]] += o
        return out

    def root_total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.parent is None and s.name == name)

    def summary(self) -> dict:
        """calls / busy_s / p50_ms per traced function, self_s per layer."""
        by_fn: dict[str, list[tuple[float, float]]] = {f: [] for f in FUNCTIONS}
        for s, o in zip(self.spans, self.self_times()):
            if s.name in by_fn:
                by_fn[s.name].append((s.end - s.start, o))
        out = {}
        for fn, rows in by_fn.items():
            out[f"{fn}.calls"] = len(rows)
            out[f"{fn}.busy_s"] = sum((o for _, o in rows), 0.0)
            out[f"{fn}.p50_ms"] = statistics.median(d for d, _ in rows) * 1e3 \
                if rows else 0.0
        for layer, t in self.layer_self().items():
            out[f"{layer}.self_s"] = t
        return out

    def dump(self, path) -> None:
        own = self.self_times()
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "job": s.job, "self_s": o}
                for s, o in zip(self.spans, own)]
        with open(path, "w") as fh:
            json.dump(rows, fh)
            fh.write("\n")

