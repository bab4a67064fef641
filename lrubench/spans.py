"""Span tracing around lrusim's layers, from outside the package.

A `Tracer` wraps three groups of functions while it is installed and
restores them afterwards:

- the names `lrusim.trajectory` looks up for the lattice and channel
  builders and for `solve_ivp`;
- `numpy.linalg.eig`, `eigh` and `inv`, recorded only while a
  `run_ensemble` span is open;
- the benchmark's own calls to `run_ensemble`, `solve_master_dense` and
  `fit_exponential` (see `Tracer.api`).

Each call becomes a `Span` with a name, start, end, parent, thread id and
cell id. Calls made from `run_ensemble`'s worker threads have no open span
in their own thread; their parent is the benchmark-level span open at the
time. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

ENSEMBLE = "trajectory.run_ensemble"
ORACLE = "trajectory.solve_master_dense"
FIT = "observables.fit_exponential"

#: Names looked up by lrusim.trajectory, and their span names.
TRAJECTORY_NAMES = {
    "build_bose_hubbard": "lattice.build_bose_hubbard",
    "realize_disorder": "lattice.realize_disorder",
    "build_site_operator": "lattice.build_site_operator",
    "noise_jump_operators": "channels.noise_jump_operators",
    "sample_thermal_initial": "channels.sample_thermal_initial",
    "solve_ivp": "trajectory.solve_ivp",
}

#: numpy.linalg functions, recorded inside run_ensemble only.
LINALG_NAMES = {
    "eig": "trajectory.eig",
    "eigh": "trajectory.eigh",
    "inv": "trajectory.inv",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    cell: str | None
    start: float = 0.0
    end: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrix_counts(args, _result) -> dict:
    shape = np.shape(args[0])
    return {"matrices": math.prod(shape[:-2]), "dim": shape[-1]}


def _nfev(_args, result) -> dict:
    return {"nfev": int(result.nfev)}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.cell: str | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None

    def wrap(self, fn, name: str, *, root: bool = False, only_in: str | None = None,
             annotate=None):
        """Return `fn` recording one span per call.

        `root` marks the benchmark's own calls, whose span becomes the
        parent of spans opened in other threads; with `only_in`, calls are
        recorded only while a root span of that name is open.
        """

        def traced(*args, **kwargs):
            outer = self._root
            if only_in is not None and (outer is None or outer.name != only_in):
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1].id if stack else (outer.id if outer else None)
            span = Span(next(self._ids), name, parent, threading.get_ident(), self.cell)
            stack.append(span)
            if root:
                self._root = span
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if root:
                    self._root = outer
                with self._lock:
                    self.spans.append(span)
            if annotate is not None:
                span.extra.update(annotate(args, result))
            return result

        return traced

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def api(self) -> dict:
        """The benchmark's entry points into lrusim, traced."""
        import lrusim

        return {
            "run_ensemble": self.wrap(lrusim.run_ensemble, ENSEMBLE, root=True),
            "solve_master_dense": self.wrap(lrusim.solve_master_dense, ORACLE, root=True),
            "fit_exponential": self.wrap(lrusim.fit_exponential, FIT, root=True),
        }

    @contextmanager
    def installed(self):
        """Wrap lrusim.trajectory's lookups and numpy.linalg; restore on exit."""
        import lrusim.trajectory as trajectory

        patches = [
            (trajectory, attr, self.wrap(getattr(trajectory, attr), name,
                                         annotate=_nfev if attr == "solve_ivp" else None))
            for attr, name in TRAJECTORY_NAMES.items()
        ] + [
            (np.linalg, attr, self.wrap(getattr(np.linalg, attr), name, only_in=ENSEMBLE,
                                        annotate=_matrix_counts))
            for attr, name in LINALG_NAMES.items()
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapped in patches:
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def records(self) -> list[dict]:
        return [asdict(span) for span in sorted(self.spans, key=lambda s: s.start)]


# ---------------------------------------------------------------------------
# per-layer metrics

#: Per-layer metric name -> unit. Counts must repeat exactly for one seed.
PER_LAYER_UNITS = {
    "lattice.build_bose_hubbard.calls": "count",
    "lattice.build_bose_hubbard.s": "s",
    "lattice.realize_disorder.s": "s",
    "lattice.build_site_operator.s": "s",
    "channels.sample_thermal_initial.s": "s",
    "channels.noise_jump_operators.s": "s",
    "trajectory.eig.calls": "count",
    "trajectory.eig.s": "s",
    "trajectory.eig.matrices": "count",
    "trajectory.eig.dim": "states",
    "trajectory.eigh.s": "s",
    "trajectory.inv.s": "s",
    "trajectory.run_ensemble.s": "s",
    "trajectory.run_ensemble.self_s": "s",
    "trajectory.solve_master_dense.s": "s",
    "trajectory.solve_ivp.s": "s",
    "trajectory.solve_ivp.nfev": "count",
    "observables.fit_exponential.calls": "count",
    "observables.fit_exponential.s": "s",
}

REPEATABLE = tuple(
    name for name in PER_LAYER_UNITS
    if name.endswith(".calls") or name in (
        "trajectory.eig.matrices", "trajectory.eig.dim", "trajectory.solve_ivp.nfev")
)


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(spans: list[Span], name: str) -> float:
    """Time inside `name` spans that no child span covers, in any thread."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in children.get(span.id, [])]
        total += span.duration - _union_length([(s, e) for s, e in clipped if e > s])
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric of PER_LAYER_UNITS from one traced round."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    out = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        group = by_name.get(layer, [])
        if kind == "calls":
            out[metric] = len(group)
        elif kind == "s":
            out[metric] = sum(s.duration for s in group)
        elif kind == "self_s":
            out[metric] = self_time(spans, layer)
        elif kind == "dim":
            out[metric] = max((s.extra[kind] for s in group), default=0)
        else:
            out[metric] = sum(s.extra[kind] for s in group)
    return out
