"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

The tracer replaces public functions at their module attributes with
wrappers that record a span (name, start, end, parent) in memory.  Because
the program looks these functions up through module attributes, nested
calls are caught as well: ``verify_epsilon_net`` calling
``solve_bichromatic_halfspace``, or the half-space solver calling
``feasible_point``.  Counts are read from each span's arguments and result
after the pass, outside every timed interval.
"""

from __future__ import annotations

from bisect import bisect_right
from math import prod
from time import perf_counter

from discrepancy import gadgets, instances, oracles, solvers
from discrepancy.geometry import BLUE, RED, PointSet, critical_grid

# Box solvers whose candidate space is a critical grid.
GRID_SOLVERS = (
    "solvers.solve_star_discrepancy",
    "solvers.solve_max_empty_star",
    "solvers.solve_box_discrepancy",
    "solvers.solve_max_empty_box",
    "solvers.solve_bichromatic_box",
    "solvers.solve_redblue_box_discrepancy",
)

# (metric, unit): every per-layer metric, in report order.
LAYER_METRICS = (
    ("solvers.solve_s", "s"),
    ("solvers.candidates", "count"),
    ("solvers.grid_cells", "count"),
    ("solvers.candidate_share", "ratio"),
    ("solvers.pool_startup_s", "s"),
    ("separation.lp_solves", "count"),
    ("separation.lp_s", "s"),
    ("separation.lp_rows", "count"),
    ("separation.feasible_share", "ratio"),
    ("gadgets.build_s", "s"),
    ("gadgets.points", "count"),
    ("oracles.clique_s", "s"),
    ("instances.read_s", "s"),
    ("cli.self_s", "s"),
)

# Counters that must repeat exactly for the same seed and worker count.
EXACT_COUNTERS = (
    "solvers.candidates",
    "solvers.grid_cells",
    "separation.lp_solves",
    "separation.lp_rows",
    "gadgets.points",
)

# Which end-to-end metric each per-layer metric should move, on which
# workload, and where it should not move.  Later changes cite these rows.
MOVES = (
    ("solvers.solve_s, solvers.candidates, solvers.grid_cells, solvers.candidate_share",
     "ops_per_s, op_s.tail", "gadget-box, random-solve", "gadget-halfspace"),
    ("separation.lp_solves, separation.lp_s, separation.lp_rows, separation.feasible_share",
     "ops_per_s, op_s.p50", "gadget-halfspace", "gadget-box, random-solve (lp_solves is 0)"),
    ("solvers.pool_startup_s",
     "op_s.p50", "random-solve", "gadget-box, gadget-halfspace (1 worker)"),
    ("gadgets.build_s, gadgets.points, oracles.clique_s, instances.read_s, cli.self_s",
     "op_s.p50", "gadget-box (small cases)", "random-solve"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "args", "result")

    def __init__(self, name, parent, args):
        self.name = name
        self.parent = parent
        self.args = args
        self.result = None
        self.start = perf_counter()
        self.end = None


class Tracer:
    """Records spans of wrapped calls while installed; one per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list = []

    def call(self, name, fn, *args, **kwargs):
        span = Span(name, self._open[-1] if self._open else None, args)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            span.result = fn(*args, **kwargs)
            return span.result
        finally:
            span.end = perf_counter()
            self._open.pop()

    def install(self) -> None:
        targets = [(gadgets, a, "gadgets") for a in dir(gadgets) if a.startswith("build_")]
        targets += [(oracles, "has_clique", "oracles"), (instances, "read_graph", "instances")]
        targets += [
            (solvers, a, "solvers")
            for a in dir(solvers)
            if a.startswith("solve_") or a == "verify_epsilon_net"
        ]
        targets.append((solvers, "feasible_point", "separation"))
        for module, attr, layer in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _pairs(ps: PointSet, color) -> int:
    """Closed boxes with both faces on coordinates of `color`, per dimension."""
    sub = ps.colored(color)
    if not sub:
        return 0
    return prod(s * (s + 1) // 2 for s in critical_grid(PointSet(ps.dim, sub)).sizes())


def grid_cells(name: str, ps: PointSet) -> int:
    """Size of the definitional candidate grid of one box solve."""
    if name in ("solvers.solve_star_discrepancy", "solvers.solve_max_empty_star"):
        return prod(critical_grid(ps, with_one=True).sizes())
    if name in ("solvers.solve_box_discrepancy", "solvers.solve_max_empty_box"):
        # Lower faces on coordinates or 0, upper faces on coordinates or 1.
        lo = critical_grid(ps, with_zero=True).values
        hi = critical_grid(ps, with_one=True).values
        return prod(sum(bisect_right(ls, b) for b in hs) for ls, hs in zip(lo, hi))
    if name == "solvers.solve_bichromatic_box":
        return _pairs(ps, BLUE)
    return _pairs(ps, BLUE) + _pairs(ps, RED)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals over the spans of one pass (pool start-up excluded)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    m = {name: 0 for name, _ in LAYER_METRICS if name != "solvers.pool_startup_s"}
    for s, children in zip(spans, child_time):
        self_s = s.end - s.start - children
        done = s.result is not None  # None: the call raised
        layer = s.name.split(".", 1)[0]
        if s.name == "cli.main":
            m["cli.self_s"] += self_s
        elif layer == "solvers":
            m["solvers.solve_s"] += self_s
            if done and s.name in GRID_SOLVERS:
                m["solvers.candidates"] += s.result.candidates_evaluated
                m["solvers.grid_cells"] += grid_cells(s.name, s.args[0])
        elif layer == "separation":
            m["separation.lp_solves"] += 1
            m["separation.lp_s"] += self_s
            m["separation.lp_rows"] += len(s.args[0])
            m["separation.feasible_share"] += s.result is not None
        elif layer == "gadgets":
            m["gadgets.build_s"] += self_s
            if done and (s.parent is None or not spans[s.parent].name.startswith("gadgets.")):
                m["gadgets.points"] += len(s.result.points)
        elif layer == "oracles":
            m["oracles.clique_s"] += self_s
        elif layer == "instances":
            m["instances.read_s"] += self_s
    if m["solvers.grid_cells"]:
        m["solvers.candidate_share"] = m["solvers.candidates"] / m["solvers.grid_cells"]
    if m["separation.lp_solves"]:
        m["separation.feasible_share"] /= m["separation.lp_solves"]
    return m
