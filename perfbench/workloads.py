"""The benchmark's workloads: inputs made from the seed, one operation per
case, and correctness checks that share no code with the path they check.

A workload is a fixed list of operations, called a pass.  Runs execute
whole passes, so every run weighs cheap and expensive cases identically.

* gadget-box / gadget-halfspace: one operation is one in-process
  ``cli.main(["verify", ...])`` call with stdout captured, on graph files
  written at set-up.  The case list is fixed; the seed orders the pass.
* random-solve: one operation is one public ``solvers.solve_*`` call on a
  random point set with coordinates j/64, drawn from the seed.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

from discrepancy import cli, solvers
from discrepancy.geometry import (
    BLUE,
    RED,
    PointSet,
    WeightedPoint,
    box_volume,
    count_in_box,
)

# The graph classes of tests/conftest.py: all 11 on four vertices, all 4 on
# three.  Copied so that the benchmark does not import the test suite.
GRAPHS_N4 = {
    "empty": [],
    "one-edge": [(1, 2)],
    "matching": [(1, 2), (3, 4)],
    "path3+iso": [(1, 2), (1, 3)],
    "star": [(1, 2), (1, 3), (1, 4)],
    "path4": [(1, 2), (2, 3), (3, 4)],
    "triangle+iso": [(1, 2), (1, 3), (2, 3)],
    "C4": [(1, 2), (2, 3), (3, 4), (1, 4)],
    "paw": [(1, 2), (1, 3), (2, 3), (1, 4)],
    "diamond": [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)],
    "K4": [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
}
GRAPHS_N3 = {
    "empty": [],
    "one-edge": [(1, 2)],
    "path": [(1, 2), (2, 3)],
    "triangle": [(1, 2), (2, 3), (1, 3)],
}

# Acceptance check 03 states a value that is geometrically unattainable on
# these two cases, so verify reports MISMATCH on them by design.  They stay
# in the workload and are reported by name as known mismatches.
KNOWN_MISMATCHES = frozenset(
    {"empty-star n4-empty k=3", "empty-box n4-empty k=3"}
)

# (problem, d, n): sizes at which one solve takes 10 ms to 0.5 s.
RANDOM_CONFIGS = (
    ("star-disc", 3, 24),
    ("star-disc", 4, 12),
    ("box-disc", 2, 16),
    ("box-disc", 3, 6),
    ("empty-star", 4, 24),
    ("empty-box", 3, 16),
    ("bichromatic-box", 3, 24),
    ("redblue-disc", 4, 12),
)
SETS_PER_CONFIG = 16

SOLVER_OF = {
    "star-disc": "solve_star_discrepancy",
    "box-disc": "solve_box_discrepancy",
    "empty-star": "solve_max_empty_star",
    "empty-box": "solve_max_empty_box",
    "bichromatic-box": "solve_bichromatic_box",
    "redblue-disc": "solve_redblue_box_discrepancy",
}

OK = "ok"
KNOWN = "known-mismatch"


@dataclass
class Op:
    """One operation: `run` does the timed work, `check` returns OK, KNOWN
    or a failure reason for its result.  `root` names the op's root span."""

    name: str
    root: str
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    build: Callable[[int, Path, int], list]  # (seed, workdir, workers) -> ops


# ---------------------------------------------------------------------------
# Gadget workloads.


def has_k_clique(n: int, edges, k: int) -> bool:
    """Brute-force reference, independent of ``oracles.has_clique``."""
    adj = {frozenset(e) for e in edges}
    return any(
        all(frozenset(pair) in adj for pair in combinations(sub, 2))
        for sub in combinations(range(1, n + 1), k)
    )


_VERIFY_LINE = re.compile(
    r"^(match|MISMATCH): type=(\S+) k=(\d+) clique=(True|False) "
    r"expected=\((\w+), (.*)\) got=(\S+)$"
)


def _run_verify(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _verify_checker(clique: bool, known: bool):
    def check(result) -> str:
        rc, out, err = result
        m = _VERIFY_LINE.match(out.strip())
        if m is None:
            return f"exit {rc}, unparsable output {out.strip()!r} {err.strip()!r}"
        status, _, _, printed_clique, kind, expected, got = m.groups()
        if printed_clique != str(clique):
            return f"clique={printed_clique}, brute force says {clique}"
        if rc == 0 and status == "match":
            return OK
        # The acceptance-03 cases: the solver's volume lies strictly below
        # the stated C^k/mu, which is an upper bound there, not the optimum.
        if known and rc == 1 and status == "MISMATCH" and kind == "eq":
            if 0 < Fraction(got) < Fraction(expected):
                return KNOWN
        return f"exit {rc}: {out.strip()}"

    return check


def _gadget_builder(cases):
    """cases: (type, n, class name, edges, k) tuples."""

    def build(seed: int, workdir: Path, workers: int) -> list:
        order = list(cases)
        random.Random(seed).shuffle(order)
        ops = []
        for kind, n, cls, edges, k in order:
            path = workdir / f"n{n}-{cls}.txt"
            path.write_text(
                f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges),
                encoding="utf-8",
            )
            name = f"{kind} n{n}-{cls} k={k}"
            argv = ["verify", "--type", kind, "--graph", str(path),
                    "-k", str(k), "--threads", str(workers)]
            ops.append(Op(
                name,
                "cli.main",
                lambda argv=argv: _run_verify(argv),
                _verify_checker(has_k_clique(n, edges, k), name in KNOWN_MISMATCHES),
            ))
        return ops

    return build


def gadget_box_cases():
    cases = []
    for kind in ("bichromatic", "redblue", "empty-star", "star-disc", "empty-box", "net-box"):
        for k in (2, 3):
            cases += [(kind, 4, cls, e, k) for cls, e in GRAPHS_N4.items()]
    cases += [("box-disc", 3, cls, e, 2) for cls, e in GRAPHS_N3.items()]
    return cases


def gadget_halfspace_cases():
    # Edgeless n=4 is left out: its two cases took two thirds of the pass
    # time, as only two samples.  Edgeless n=3 still exhausts every subset.
    # The others run 3 times a pass, the two slowest classes twice: 32
    # samples, whose median and tail rank fall inside one class, not
    # between two classes of very different cost.
    classes = [(3, cls, e) for cls, e in GRAPHS_N3.items()]
    classes += [(4, cls, GRAPHS_N4[cls]) for cls in ("C4", "K4")]
    cases = []
    for kind in ("halfspace", "net-halfspace"):
        for n, cls, e in classes:
            cases += [(kind, n, cls, e, 2)] * (2 if cls in ("empty", "C4") else 3)
    return cases


# ---------------------------------------------------------------------------
# Random point sets solved directly.


def random_point_set(rng: random.Random, d: int, n: int, colored: bool) -> PointSet:
    """n points with coordinates j/64, 0 < j < 64, distinct in every
    dimension, so that grid sizes, and with them the work of the complete
    scans, do not depend on the seed."""
    columns = [rng.sample(range(1, 64), n) for _ in range(d)]
    pts = []
    for idx in range(n):
        coords = tuple(Fraction(col[idx], 64) for col in columns)
        color = (BLUE if idx == 0 else rng.choice((RED, BLUE))) if colored else None
        pts.append(WeightedPoint(coords, color, 1))
    return PointSet(d, tuple(pts))


def recount(problem: str, ps: PointSet, rep) -> str:
    """Re-derive the reported value and side from the witness alone."""
    if problem in ("empty-star", "empty-box"):
        if rep.witness.closed:
            return "empty-range witness is closed"
        if count_in_box(ps, rep.witness).total != 0:
            return "witness is not empty"
        if box_volume(rep.witness) != rep.volume:
            return f"witness volume {box_volume(rep.witness)} != {rep.volume}"
        return OK
    tally = count_in_box(ps, rep.witness)
    if problem == "bichromatic-box":
        if tally.red != 0 or tally.blue != rep.value:
            return f"witness holds red {tally.red}, blue {tally.blue}; value {rep.value}"
        return OK
    if problem == "redblue-disc":
        diff = tally.blue - tally.red if rep.side == "excess" else tally.red - tally.blue
        return OK if diff == rep.value else f"witness difference {diff} != {rep.value}"
    closed = rep.side == "excess"
    if rep.witness.closed != closed:
        return f"witness closure does not match side {rep.side}"
    share = Fraction(tally.total, ps.total_weight)
    vol = box_volume(rep.witness)
    got = share - vol if closed else vol - share
    return OK if got == rep.value else f"witness recount {got} != {rep.value}"


def _solve_checker(problem: str, ps: PointSet):
    first = []

    def check(rep) -> str:
        verdict = recount(problem, ps, rep)
        if verdict != OK:
            return verdict
        summary = {k: v for k, v in vars(rep).items() if k != "elapsed"}
        if not first:
            first.append(summary)
        elif summary != first[0]:
            return "report differs from the previous pass on the same input"
        return OK

    return check


def _random_solve(problem: str, ps: PointSet, workers: int):
    # Looked up at call time so that the tracer's wrappers are seen.
    return getattr(solvers, SOLVER_OF[problem])(ps, workers=workers)


def build_random_solve(seed: int, workdir: Path, workers: int) -> list:
    rng = random.Random(seed)
    ops = []
    for problem, d, n in RANDOM_CONFIGS:
        colored = problem in ("bichromatic-box", "redblue-disc")
        for i in range(SETS_PER_CONFIG):
            ps = random_point_set(rng, d, n, colored)
            ops.append(Op(
                f"{problem} d={d} n={n} #{i}",
                "bench.op",
                lambda problem=problem, ps=ps: _random_solve(problem, ps, workers),
                _solve_checker(problem, ps),
            ))
    rng.shuffle(ops)  # spreads each configuration over the whole pass
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gadget-box", 1, _gadget_builder(gadget_box_cases())),
        Workload("gadget-halfspace", 1, _gadget_builder(gadget_halfspace_cases())),
        Workload("random-solve", 2, build_random_solve),
    )
}
