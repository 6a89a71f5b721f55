"""Brute-force reference implementations used by the test and acceptance
suites.

Everything in this module is intentionally naive and shares no enumeration
code with the production solvers: these are the independent values the
solvers are judged against.  Box problems are settled by enumerating every
candidate grid box, both closures, both sides, counting by scanning every
point per box.  Half-space separability is settled by Fourier-Motzkin
elimination over exact rationals (the solver route uses a simplex instead,
so the two never share a code path).

None of this is meant to be fast.  The enumerations refuse instances above
a soft size limit so a mistyped test cannot stall CI.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .geometry import BLUE, RED, ZERO, Point, PointSet, critical_grid

# Soft guard rails (points, dimension) for the grid enumerations.
ANCHORED_LIMIT = (20, 4)
FREE_LIMIT = (12, 3)


def has_clique(graph, k: int) -> bool:
    """True iff some k vertices are pairwise adjacent; exhaustive subsets."""
    if not 1 <= k <= graph.n:
        raise ValueError(f"k out of range: {k} (graph has {graph.n} vertices)")
    for subset in combinations(range(1, graph.n + 1), k):
        if all(graph.has_edge(u, v) for u, v in combinations(subset, 2)):
            return True
    return False


# ---------------------------------------------------------------------------
# Half-space separability by Fourier-Motzkin elimination.


def _normalize_row(coeffs: tuple[Fraction, ...], rhs: Fraction):
    scale = max((abs(c) for c in coeffs if c != 0), default=ZERO)
    if scale == 0:
        return coeffs, rhs
    return tuple(c / scale for c in coeffs), rhs / scale


def _fm_feasible(rows: list[tuple[tuple[Fraction, ...], Fraction]], nvars: int) -> bool:
    """Feasibility of {x : coeffs . x <= rhs for every row}, rationals, exact."""
    rows = list({_normalize_row(c, r) for c, r in rows})
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs in rows:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new = set(rest)
        for pc, pr in pos:
            for nc, nr in neg:
                # scale to cancel the variable: row_p / pc[var] + row_n / -nc[var]
                a = pc[var]
                b = -nc[var]
                coeffs = tuple(p / a + n / b for p, n in zip(pc, nc))
                new.add(_normalize_row(coeffs, pr / a + nr / b))
        rows = []
        for coeffs, rhs in new:
            if all(c == 0 for c in coeffs):
                if rhs < 0:
                    return False
            else:
                rows.append((coeffs, rhs))
    return True


def separable_subset(blues: Sequence[Point], reds: Sequence[Point]) -> bool:
    """True iff a closed half-space contains every blue and no red.

    Decided as exact linear feasibility of a . b <= c for all blues and
    a . r >= c + 1 for all reds; scaling makes strict separation equivalent
    to the margin-1 form.
    """
    if not reds:
        return True
    dims = {len(p) for p in list(blues) + list(reds)}
    if len(dims) != 1:
        raise ValueError("dimension mismatch")
    d = dims.pop()
    rows = []
    for b in blues:
        rows.append((tuple(b) + (Fraction(-1),), ZERO))
    for r in reds:
        rows.append((tuple(-x for x in r) + (Fraction(1),), Fraction(-1)))
    return _fm_feasible(rows, d + 1)


# ---------------------------------------------------------------------------
# Unpruned grid enumerations.


def _guard(ps: PointSet, anchored: bool) -> None:
    limit_pts, limit_dim = ANCHORED_LIMIT if anchored else FREE_LIMIT
    if len(ps.points) > limit_pts or ps.dim > limit_dim:
        raise ValueError(
            f"instance above the oracle soft limit "
            f"({len(ps.points)} points, dim {ps.dim})"
        )


def _prepared(ps: PointSet):
    """Points as (coords, weight, color) tuples."""
    return [(p.coords, p.weight, p.color) for p in ps.points]


def naive_range_enumerate(ps: PointSet, problem: str):
    """Exact optimum of `problem` on `ps` by complete unpruned enumeration.

    Supported problems: star-disc, box-disc, empty-star, empty-box,
    bichromatic-box, redblue-disc.  Values are Fractions for the continuous
    and volume problems, ints for the combinatorial ones.
    """
    anchored = problem in ("star-disc", "empty-star")
    _guard(ps, anchored)
    pts = _prepared(ps)
    # Free boxes take faces on the 0 and 1 walls too, anchored ones on the 1
    # wall, and the majority-color problems on neither.
    with_zero = problem in ("box-disc", "empty-box")
    grid = critical_grid(ps, with_zero, with_zero or anchored).values
    if problem == "star-disc":
        return _naive_star_disc(pts, grid, ps.total_weight)
    if problem == "box-disc":
        return _naive_box_disc(pts, grid, ps.total_weight)
    if problem == "empty-star":
        return _naive_empty_star(pts, grid)
    if problem == "empty-box":
        return _naive_empty_box(pts, grid)
    if problem == "bichromatic-box":
        return _naive_bichromatic(pts, grid)
    if problem == "redblue-disc":
        return _naive_redblue(pts, grid)
    raise ValueError(f"unknown problem: {problem}")


def _naive_star_disc(pts, grid, weight):
    best = None
    for corner in product(*grid):
        vol = Fraction(1)
        for x in corner:
            vol *= x
        closed = sum(w for c, w, _ in pts if all(ci <= xi for ci, xi in zip(c, corner)))
        opened = sum(w for c, w, _ in pts if all(ci < xi for ci, xi in zip(c, corner)))
        for val in (Fraction(closed, weight) - vol, vol - Fraction(opened, weight)):
            if best is None or val > best:
                best = val
    return best


def _iter_boxes(grid):
    per_dim = []
    for vals in grid:
        per_dim.append([(a, b) for ai, a in enumerate(vals) for b in vals[ai:]])
    return product(*per_dim)


def _naive_box_disc(pts, grid, weight):
    best = None
    for sides in _iter_boxes(grid):
        vol = Fraction(1)
        for a, b in sides:
            vol *= b - a
        closed = sum(
            w for c, w, _ in pts if all(a <= ci <= b for ci, (a, b) in zip(c, sides))
        )
        opened = sum(
            w for c, w, _ in pts if all(a < ci < b for ci, (a, b) in zip(c, sides))
        )
        for val in (Fraction(closed, weight) - vol, vol - Fraction(opened, weight)):
            if best is None or val > best:
                best = val
    return best


def _naive_empty_star(pts, grid):
    if not pts:
        return Fraction(1)
    best = Fraction(0)
    for corner in product(*grid):
        if any(all(ci < xi for ci, xi in zip(c, corner)) for c, _, _ in pts):
            continue
        vol = Fraction(1)
        for x in corner:
            vol *= x
        if vol > best:
            best = vol
    return best


def _naive_empty_box(pts, grid):
    if not pts:
        return Fraction(1)
    best = Fraction(0)
    for sides in _iter_boxes(grid):
        if any(all(a < ci < b for ci, (a, b) in zip(c, sides)) for c, _, _ in pts):
            continue
        vol = Fraction(1)
        for a, b in sides:
            vol *= b - a
        if vol > best:
            best = vol
    return best


def _naive_bichromatic(pts, grid):
    best = 0
    for sides in _iter_boxes(grid):
        blue = red = 0
        for c, w, color in pts:
            if all(a <= ci <= b for ci, (a, b) in zip(c, sides)):
                if color == RED:
                    red += w
                elif color == BLUE:
                    blue += w
        if red == 0 and blue > best:
            best = blue
    return best


def _naive_redblue(pts, grid):
    best = 0
    for sides in _iter_boxes(grid):
        blue = red = 0
        for c, w, color in pts:
            if all(a <= ci <= b for ci, (a, b) in zip(c, sides)):
                if color == RED:
                    red += w
                elif color == BLUE:
                    blue += w
        if abs(red - blue) > best:
            best = abs(red - blue)
    return best
