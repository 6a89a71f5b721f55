"""Complete exact solvers for the discrepancy family of problems.

Each solver enumerates a finite candidate space that provably contains an
optimum, in exact rational arithmetic, and returns the optimum value with
a witness range.  The completeness arguments, recorded here once:

* Anchored (star) problems: grow each face of a box until it hits a point
  coordinate or the cube wall at 1, so the per-dimension critical grid
  (point coordinates plus the 1 sentinel) is a complete corner set.  The
  supremum of |vol - count/W| is attained only in closed/open limits, so
  every corner is scored twice: closed excess (count/W - vol) and open
  deficit (vol - count/W).
* Free-box problems: lower faces come from point coordinates plus 0, upper
  faces from point coordinates plus 1, by the same growing argument; both
  closures are scored as above.  Emptiness is an open-box notion
  throughout (a point on the boundary does not spoil a box).
* Bichromatic / red-blue: any box shrinks onto the bounding box of its
  majority-color content without losing majority points or gaining
  minority points, so closed boxes with faces on majority coordinates are
  a complete candidate set.
* Half-spaces: a closed half-space with blue weight >= m and no reds
  exists iff some subset of at most m distinct blue points of total weight
  >= m is strongly separable from the reds, which is decided by exact
  linear feasibility of a margin-1 system (scaling makes strict
  separation equivalent).  `separation.feasible_point` pivots on its
  Farkas alternative, i.e. it tests whether conv(subset) meets conv(reds)
  on d + 2 rows, and reads the separating (normal, offset) off the
  phase-1 multipliers.  No hyperplane-enumeration shortcut is trusted.
  A search projecting more than MAX_HALFSPACE_SUBSETS subsets is refused.

Candidate enumeration walks the per-dimension grids in odometer order,
filtering the point list one dimension at a time down to the last one,
which is swept (Dobkin, Eppstein & Mitchell 1996): running weight totals
by rank of the surviving points, built once per node in O(n + R) for R
ranks, score each last-dimension interval in O(1).  Coordinates are
replaced by per-dimension ranks (integers) up front.  The star, box,
empty-star and empty-box problems share one scan over per-dimension rank
intervals whose hot loop is integer-only: dimension j is scaled by the
lcm D_j of its denominators, so volumes are integers over P = prod(D_j)
and discrepancy values integers over W * P; `Fraction`s are built only
for the report.  The bichromatic and red-blue problems share a second
scan on the same rank conventions.  Pruning is used where a sound bound
exists (residual volume for empty-range search; for the two-sided
discrepancy objective, an excess bound from the closed count and the
smallest remaining volume together with a deficit bound from the largest
remaining volume; surviving majority weight for the combinatorial
problems) and always with a strict inequality, so ties at the optimum
are never discarded and the reported witness is independent of traversal
order.  A discrepancy scan still reports the size of its definitional
grid as `candidates_evaluated`, counted in closed form.

Determinism: among all optimal candidates the solver reports the one with
the lexicographically smallest witness key (corner tuple for anchored
boxes, lower corner then upper corner for free boxes; excess before
deficit on a full tie).  Parallel runs partition the first dimension's
candidates, solve partitions independently, and merge with the same
comparison, so value, witness and side are identical for any worker
count.  `candidates_evaluated` is too for star and box discrepancy, where
it is the grid size in closed form; for the empty and majority scans it
counts scored leaves, which depend on the partition.  Partitions never
outnumber the CPUs, nor, for the continuous box scan, the first-dimension
intervals.  They run in a forked pool only above a measured crossover in
`grid_cells`, and in-process below it, with the same report either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import os
from itertools import accumulate, combinations
from math import ceil, comb, lcm, prod
from time import perf_counter
from typing import Sequence, Union

from .geometry import (
    BLUE,
    ONE,
    RED,
    ZERO,
    AnchoredBox,
    Box,
    HalfSpace,
    PointSet,
    critical_grid,
)
from .separation import feasible_point

Witness = Union[AnchoredBox, Box, HalfSpace, None]

# Most blue subsets one half-space search may decide; the largest gadget
# search (k = 3, m = 4, 13 distinct blues) projects 1,092.
MAX_HALFSPACE_SUBSETS = 100_000

# Per scan mode, the `grid_cells` above which partitions run faster in a
# forked pool than in-process; measured on a 2-vCPU VM (ROADMAP item 3).
_FORK_CELLS = {"disc": 2_000_000, "empty": 30_000_000, "majority": 150_000_000}


@dataclass(frozen=True)
class DiscrepancyReport:
    value: Fraction
    witness: Union[AnchoredBox, Box]
    side: str  # "excess": count side dominates; "deficit": volume side
    candidates_evaluated: int
    elapsed: float


@dataclass(frozen=True)
class EmptyBoxReport:
    volume: Fraction
    witness: Union[AnchoredBox, Box]
    candidates_evaluated: int
    elapsed: float


@dataclass(frozen=True)
class BichromaticReport:
    value: int
    witness: Witness
    feasible: bool
    candidates_evaluated: int
    elapsed: float


@dataclass(frozen=True)
class NetReport:
    is_net: bool
    violator: Witness
    candidates_evaluated: int
    elapsed: float


# ---------------------------------------------------------------------------
# Preparation: integer ranks into the critical grid.


def _rank_points(ps: PointSet, values):
    """Each point's coordinates as ranks into the sorted `values`."""
    rank = [{v: i for i, v in enumerate(vs)} for vs in values]
    return [tuple(r[c] for r, c in zip(rank, p.coords)) for p in ps.points]


def _faces(values, key):
    """(lower, upper) face coordinates of a rank key lo ranks + hi ranks."""
    d = len(values)
    lower = tuple(vs[i] for vs, i in zip(values, key[:d]))
    upper = tuple(vs[i] for vs, i in zip(values, key[d : 2 * d]))
    return lower, upper


def _require_nonempty(ps: PointSet) -> None:
    if not ps.points:
        raise ValueError("empty point set")


def _require_unit_cube(ps: PointSet) -> None:
    if not ps.in_unit_cube():
        raise ValueError("coordinates outside [0,1]")


def _merge(results):
    best = None
    cands = 0
    for b, c in results:
        cands += c
        if b is None:
            continue
        if best is None or b[0] > best[0] or (b[0] == best[0] and b[1] < best[1]):
            best = b
    return best, cands


def grid_cells(ps: PointSet, anchored: bool, colors=()) -> int:
    """Closed-form size of a scan's definitional grid, a product over the
    dimensions: of the upper-face choices for an anchored box, else of the
    lower-upper pairs less the c(c-1)/2 pairs of its c coordinates in the
    wrong order.  The box scan's faces are the coordinates plus 0 (lower) and
    1 (upper); with `colors`, the majority scan's are that color's
    coordinates, and the sizes are summed over the colors."""

    def choices(coords):
        c = len(coords)
        lows = c + (not colors and ZERO not in coords)
        highs = c + (not colors and ONE not in coords)
        return highs if anchored else lows * highs - c * (c - 1) // 2

    groups = [ps.colored(color) for color in colors] or [ps.points]
    return sum(prod(choices({p.coords[j] for p in g}) for j in range(ps.dim)) for g in groups)


def _run_scan(scan, args, workers: int, mode: str, *grid):
    """`scan` over `workers` partitions of its first dimension, at most the
    CPU count: in a forked pool above the crossover of `grid_cells(*grid)`
    for `mode`, else, or where no pool can be forked, in this process."""
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and grid_cells(*grid) > _FORK_CELLS[mode]:
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                futures = [pool.submit(scan, *args, p, workers) for p in range(workers)]
                return [f.result() for f in futures]
        except (OSError, ValueError):
            pass
    return [scan(*args, p, workers) for p in range(workers)]


# ---------------------------------------------------------------------------
# Box scan for the star, box, empty-star and empty-box problems: one
# odometer over per-dimension rank intervals, in scaled integers, with
# strict bounds.


def _intervals(values, ps: PointSet, anchored: bool, empty: bool):
    """Per-dimension face choices as rank intervals (lo, hi, length).

    Dimension j is scaled by D_j, the lcm of its values' denominators, so
    every length is an integer and a volume is an integer over
    P = prod(D_j), which is returned alongside.  An anchored interval has
    lo = -1, so its lower face is inclusive under both closures.  A free
    interval takes lo from the coordinates or 0 and hi from the coordinates
    or 1.  Empty mode drops degenerate free intervals (an open box with a
    zero side is empty at volume 0, below any open grid cell) and orders
    each list by descending length, ties in (lo, hi) order.
    """
    dims, scale = [], 1
    for j, vals in enumerate(values):
        den = lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (den // v.denominator) for v in vals]
        scale *= den
        if anchored:
            ivs = [(-1, i, x) for i, x in enumerate(ints)]
        else:
            coords = {p.coords[j] for p in ps.points}
            los = [i for i, v in enumerate(vals) if v == ZERO or v in coords]
            his = [i for i, v in enumerate(vals) if v == ONE or v in coords]
            ivs = [
                (a, b, ints[b] - ints[a])
                for a in los
                for b in his
                if a < b or (a == b and not empty)
            ]
        if empty:
            ivs.sort(key=lambda iv: -iv[2])
        dims.append(ivs)
    return dims, scale


def _prefix(pts, j, col, size):
    """Running totals of p[col] by rank in dimension j, ranks below `size`:
    acc[r] sums the points of rank < r, and acc[-1] = 0.  So the closed rank
    interval [a, b] holds acc[b + 1] - acc[a], also for the anchored a = -1,
    and the open interval (a, b) holds acc[b] - acc[a + 1] when a < b.
    Built in O(n + size), read in O(1) per interval."""
    acc = [0] * (size + 1)
    for p in pts:
        acc[p[j] + 1] += p[col]
    return list(accumulate(acc)) + [0]


def _scan_boxes(dims, pts, weight, scale, part, nparts):
    """Best box over the product of `dims`, first dimension partitioned.

    `pts` holds (rank_0, ..., rank_{d-1}, weight) tuples.  A point lies in
    the closed box when lo <= rank <= hi in every dimension and in the open
    box when lo < rank < hi.  Returns (best, candidates) with best =
    (numerator, key) and key = lo ranks + hi ranks (+ side rank 0 for
    excess, 1 for deficit); ties go to the smallest key.  The point lists
    are filtered down to the last dimension, which is swept with `_prefix`.

    Discrepancy mode (`weight` = W): values are integers over W * P,
    excess cw * P - W * vol and deficit W * vol - ow * P.  A subtree at
    depth j is skipped only when both its excess bound
    cw * P - W * vol * prod(minlen[j:]) and its deficit bound
    W * vol * prod(maxlen[j:]) are strictly below the incumbent.  At the
    last dimension every interval is scored exactly, its closed total
    giving the excess and its open total the deficit.  The candidate count
    is this partition's share of the definitional grid.

    Empty mode (`weight` None): values are volumes over P, open boxes
    only.  Intervals come longest first, so a residual volume below the
    incumbent ends the loop; once no point can lie strictly inside, the
    only completion scored is the longest one, or the smallest key when
    the volume is already 0.  At the last dimension an interval is scored
    when its open total is 0: weights are at least 1, so no point lies
    strictly inside.  Each scored completion is one candidate.
    """
    d = len(dims)
    first = dims[0][part::nparts]
    size = 1 + max(iv[1] for iv in dims[-1])
    mintail, maxtail = [1] * (d + 1), [1] * (d + 1)
    for j in range(d - 1, -1, -1):
        mintail[j] = mintail[j + 1] * min(iv[2] for iv in dims[j])
        maxtail[j] = maxtail[j + 1] * max(iv[2] for iv in dims[j])
    lo: list = [None] * d
    hi: list = [None] * d
    best = None

    def empty(j, vol, opened):
        nonlocal best, cands
        if not opened:
            cands += 1
            if vol:
                rest = [ivs[0] for ivs in dims[j:]]
                vol *= maxtail[j]
            else:
                rest = [min(ivs) for ivs in dims[j:]]
            key = (
                tuple(lo[:j]) + tuple(iv[0] for iv in rest)
                + tuple(hi[:j]) + tuple(iv[1] for iv in rest)
            )
            if best is None or vol > best[0] or (vol == best[0] and key < best[1]):
                best = (vol, key)
            return
        if j == d - 1:
            inside = _prefix(opened, j, -1, size)
            for a, b, length in first if j == 0 else dims[j]:
                nvol = vol * length
                if best is not None and nvol < best[0]:
                    break
                if inside[b] == inside[a + 1]:
                    lo[j], hi[j] = a, b
                    empty(d, nvol, ())
            return
        for a, b, length in first if j == 0 else dims[j]:
            nvol = vol * length
            if best is not None and nvol * maxtail[j + 1] < best[0]:
                break
            lo[j], hi[j] = a, b
            empty(j + 1, nvol, [p for p in opened if a < p[j] < b])

    def disc(j, vol, closed, opened):
        nonlocal best
        if j == d - 1:
            cacc, oacc = _prefix(closed, j, -1, size), _prefix(opened, j, -1, size)
            wvol = weight * vol
            for a, b, length in first if j == 0 else dims[j]:
                nvol = wvol * length
                val, side = (cacc[b + 1] - cacc[a]) * scale - nvol, 0
                # At a == b this "deficit" is the open weight at rank a
                # times P, at most the excess, so the excess side stands.
                deficit = nvol - (oacc[b] - oacc[a + 1]) * scale
                if deficit > val:
                    val, side = deficit, 1
                if best is None or val >= best[0]:
                    lo[j], hi[j] = a, b
                    key = tuple(lo) + tuple(hi) + (side,)
                    if best is None or val > best[0] or key < best[1]:
                        best = (val, key)
            return
        for a, b, length in first if j == 0 else dims[j]:
            nvol = vol * length
            nc = [p for p in closed if a <= p[j] <= b]
            ncw = sum([p[-1] for p in nc])
            if (
                best is not None
                and weight * nvol * maxtail[j + 1] < best[0]
                and ncw * scale - weight * nvol * mintail[j + 1] < best[0]
            ):
                continue
            lo[j], hi[j] = a, b
            disc(j + 1, nvol, nc, [p for p in opened if a < p[j] < b])

    if weight is None:
        cands = 0
        empty(0, 1, pts)
    else:
        cands = len(first) * prod(len(ivs) for ivs in dims[1:])
        disc(0, 1, pts, pts)
    return best, cands


# ---------------------------------------------------------------------------
# Majority-color box scan (bichromatic and red-blue discrepancy) on the box
# scan's conventions.  A point is the flat integer tuple ranks + (majority
# weight, value): a majority point scores +w, a minority point -w, or more
# than all majority weight together when the box must be minority-free, so
# that a box holding one scores below 0.  Faces lie on majority ranks of the
# points surviving the earlier dimensions, so pairs are made per node.


def _scan_majority_box(pts, zero, init_best, part, nparts):
    """Best closed box as (value, lo ranks + hi ranks), from `init_best`
    (None, or the blue optimum seeding red-blue's red pass).  Anchored boxes
    have lower faces at the `zero` ranks.  Each scored leaf is a candidate.
    Running totals by rank give every pair's majority weight before the
    point list is filtered, and a pair strictly below the incumbent is
    skipped; at the last dimension the value totals score each pair."""
    d = len(pts[0]) - 2
    size = 1 + max(max(p[:d]) for p in pts)
    best = init_best
    cands = 0
    lo: list = [None] * d
    hi: list = [None] * d

    def rec(j, cur):
        nonlocal best, cands
        ranks = sorted({p[j] for p in cur if p[d]})
        if zero is None:
            pairs = [(a, b) for i, a in enumerate(ranks) for b in ranks[i:]]
        else:
            pairs = [(zero[j], b) for b in ranks if b >= zero[j]]
        if j == 0:
            pairs = pairs[part::nparts]
        major = _prefix(cur, j, d, size)
        value = _prefix(cur, j, -1, size) if j == d - 1 else None
        for a, b in pairs:
            if best is not None and major[b + 1] - major[a] < best[0]:
                continue
            lo[j], hi[j] = a, b
            if value is None:
                rec(j + 1, [p for p in cur if a <= p[j] <= b])
                continue
            cands += 1
            val = value[b + 1] - value[a]
            if best is None or val >= best[0]:
                key = tuple(lo) + tuple(hi)
                if best is None or val > best[0] or key < best[1]:
                    best = (val, key)

    rec(0, pts)
    return best, cands


# ---------------------------------------------------------------------------
# Public solvers.


def _solve_boxes(ps: PointSet, anchored: bool, weight, workers: int):
    """Run the box scan; returns (value, lower, upper, side, candidates).

    `weight` None asks for the largest empty open box (side is None then).
    Anchored callers read only upper."""
    values = critical_grid(ps, with_zero=not anchored, with_one=True).values
    dims, scale = _intervals(values, ps, anchored, empty=weight is None)
    pts = [ranks + (p.weight,) for ranks, p in zip(_rank_points(ps, values), ps.points)]
    workers = min(workers, len(dims[0]))
    mode = "empty" if weight is None else "disc"
    runs = _run_scan(_scan_boxes, (dims, pts, weight, scale), workers, mode, ps, anchored)
    (num, key), cands = _merge(runs)
    lower, upper = _faces(values, key)
    if weight is None:
        return Fraction(num, scale), lower, upper, None, cands
    side = "deficit" if key[-1] else "excess"
    return Fraction(num, scale * weight), lower, upper, side, cands


def solve_star_discrepancy(ps: PointSet, workers: int = 1) -> DiscrepancyReport:
    """Largest |vol - count/W| over anchored boxes inside the unit cube."""
    t0 = perf_counter()
    _require_nonempty(ps)
    _require_unit_cube(ps)
    value, _, upper, side, cands = _solve_boxes(ps, True, ps.total_weight, workers)
    witness = AnchoredBox(upper, closed=(side == "excess"))
    return DiscrepancyReport(value, witness, side, cands, perf_counter() - t0)


def solve_box_discrepancy(ps: PointSet, workers: int = 1) -> DiscrepancyReport:
    """Largest |vol - count/W| over all axis-parallel boxes in the cube."""
    t0 = perf_counter()
    _require_nonempty(ps)
    _require_unit_cube(ps)
    value, lower, upper, side, cands = _solve_boxes(ps, False, ps.total_weight, workers)
    witness = Box(lower, upper, closed=(side == "excess"))
    return DiscrepancyReport(value, witness, side, cands, perf_counter() - t0)


def solve_max_empty_star(ps: PointSet, workers: int = 1) -> EmptyBoxReport:
    """Largest open anchored box containing no point; empty input gives 1."""
    t0 = perf_counter()
    _require_unit_cube(ps)
    if not ps.points:
        witness = AnchoredBox((ONE,) * ps.dim, closed=False)
        return EmptyBoxReport(Fraction(1), witness, 1, perf_counter() - t0)
    volume, _, upper, _, cands = _solve_boxes(ps, True, None, workers)
    return EmptyBoxReport(volume, AnchoredBox(upper, closed=False), cands, perf_counter() - t0)


def solve_max_empty_box(ps: PointSet, workers: int = 1) -> EmptyBoxReport:
    """Largest open box inside the unit cube containing no point."""
    t0 = perf_counter()
    _require_unit_cube(ps)
    if not ps.points:
        witness = Box((ZERO,) * ps.dim, (ONE,) * ps.dim, closed=False)
        return EmptyBoxReport(Fraction(1), witness, 1, perf_counter() - t0)
    volume, lower, upper, _, cands = _solve_boxes(ps, False, None, workers)
    return EmptyBoxReport(volume, Box(lower, upper, closed=False), cands, perf_counter() - t0)


def _solve_majority(ps, values, major, penalty, zero, init_best, workers):
    """Run the majority scan: a `major` point scores +w, a point of the
    other color -penalty * w and an uncolored point 0."""
    score = {major: 1, RED if major == BLUE else BLUE: -penalty, None: 0}
    pts = [
        ranks + (p.weight if p.color == major else 0, score[p.color] * p.weight)
        for ranks, p in zip(_rank_points(ps, values), ps.points)
    ]
    grid = (ps, zero is not None, (major,))
    return _merge(_run_scan(_scan_majority_box, (pts, zero, init_best), workers, "majority", *grid))


def solve_bichromatic_box(
    ps: PointSet, anchored: bool = False, workers: int = 1
) -> BichromaticReport:
    """Most blue weight in a closed box containing zero red weight."""
    t0 = perf_counter()
    if (blue := ps.color_weight(BLUE)) == 0:
        raise ValueError("no blue points")
    values = critical_grid(ps, with_zero=anchored).values
    zero = [vs.index(ZERO) for vs in values] if anchored else None
    # A red point outweighs all blues, so only red-free boxes score >= 0.
    (value, key), cands = _solve_majority(ps, values, BLUE, blue + 1, zero, None, workers)
    if value < 0:
        return BichromaticReport(0, None, True, cands, perf_counter() - t0)
    witness = Box(*_faces(values, key), closed=True)
    return BichromaticReport(value, witness, True, cands, perf_counter() - t0)


def solve_redblue_box_discrepancy(ps: PointSet, workers: int = 1) -> DiscrepancyReport:
    """Largest |red - blue| weight difference over closed boxes.

    The blue-majority side runs first and seeds the red-majority side, so a
    full tie reports the blue-majority ("excess") witness.
    """
    t0 = perf_counter()
    _require_nonempty(ps)
    values = critical_grid(ps).values
    blue_best, cands = _solve_majority(ps, values, BLUE, 1, None, None, workers)
    best, c = _solve_majority(ps, values, RED, 1, None, blue_best, workers)
    cands += c
    if best is None:
        # No colored points at all: every box balances at zero.
        first = min(p.coords for p in ps.points)
        witness = Box(first, first, closed=True)
        return DiscrepancyReport(Fraction(0), witness, "excess", cands, perf_counter() - t0)
    side = "excess" if best == blue_best else "deficit"
    witness = Box(*_faces(values, best[1]), closed=True)
    return DiscrepancyReport(Fraction(best[0]), witness, side, cands, perf_counter() - t0)


def solve_bichromatic_halfspace(ps: PointSet, m: int) -> BichromaticReport:
    """Decide whether a closed half-space holds blue weight >= m and no red.

    Complete by subset enumeration: some set of at most m distinct blue
    points with total weight >= m must be separable, and each candidate set
    is decided by exact linear feasibility with a margin-1 system.  The
    returned witness is the feasible (normal, offset) pair; the reported
    value is the total blue weight the witness actually contains.  Raises
    ValueError, before any LP, when the subsets of at most m distinct blues
    number more than MAX_HALFSPACE_SUBSETS.
    """
    t0 = perf_counter()
    if m < 1:
        raise ValueError(f"threshold must be >= 1, got {m}")
    blue_weight: dict = {}
    reds = set()
    for p in ps.points:
        if p.color == BLUE:
            blue_weight[p.coords] = blue_weight.get(p.coords, 0) + p.weight
        elif p.color == RED:
            reds.add(p.coords)
    blues = sorted(blue_weight)
    red_list = sorted(reds)
    total_blue = sum(blue_weight.values())
    if total_blue < m:
        return BichromaticReport(0, None, False, 0, perf_counter() - t0)
    d = ps.dim
    if not red_list:
        axis = tuple([ONE] + [ZERO] * (d - 1))
        offset = max(b[0] for b in blues)
        return BichromaticReport(
            total_blue, HalfSpace(axis, offset), True, 1, perf_counter() - t0
        )
    projected = sum(comb(len(blues), s) for s in range(1, min(m, len(blues)) + 1))
    if projected > MAX_HALFSPACE_SUBSETS:
        raise ValueError(
            f"half-space search would decide up to {projected} blue subsets, "
            f"more than the limit of {MAX_HALFSPACE_SUBSETS}"
        )
    red_rows = [(tuple(-x for x in r) + (ONE,), Fraction(-1)) for r in red_list]
    cands = 0
    for size in range(1, min(m, len(blues)) + 1):
        for combo in combinations(range(len(blues)), size):
            if sum(blue_weight[blues[i]] for i in combo) < m:
                continue
            cands += 1
            rows = [(blues[i] + (Fraction(-1),), ZERO) for i in combo] + red_rows
            x = feasible_point(rows, d + 1)
            if x is None:
                continue
            normal = tuple(x[:d])
            offset = x[d]
            value = sum(
                w
                for b, w in blue_weight.items()
                if sum(a * c for a, c in zip(normal, b)) <= offset
            )
            return BichromaticReport(
                value, HalfSpace(normal, offset), True, cands, perf_counter() - t0
            )
    return BichromaticReport(0, None, False, cands, perf_counter() - t0)


def verify_epsilon_net(
    ps: PointSet,
    s_mask: Sequence[bool],
    eps: Fraction,
    family: str,
    workers: int = 1,
) -> NetReport:
    """Check whether the masked subset hits every heavy range of the family.

    A violator is a range with total weight at least ceil(eps * W) that
    misses the subset entirely.  Recoloring the subset red and the rest
    blue turns the search for a violator into the corresponding bichromatic
    problem: a red-free range with blue weight >= ceil(eps * W).
    """
    t0 = perf_counter()
    if len(s_mask) != len(ps.points):
        raise ValueError("subset mask length must match the point list")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps > 1:
        raise ValueError("eps must be at most 1")
    if family not in ("halfspace", "box"):
        raise ValueError(f"unknown range family: {family}")
    total = ps.total_weight
    m = ceil(eps * total)
    recolored = PointSet(
        ps.dim,
        tuple(
            type(p)(p.coords, RED if in_s else BLUE, p.weight, in_s)
            for p, in_s in zip(ps.points, s_mask)
        ),
    )
    if recolored.color_weight(BLUE) < m:
        return NetReport(True, None, 0, perf_counter() - t0)
    if family == "halfspace":
        rep = solve_bichromatic_halfspace(recolored, m)
        violated = rep.feasible
    else:
        rep = solve_bichromatic_box(recolored, workers=workers)
        violated = rep.value >= m
    violator = rep.witness if violated else None
    return NetReport(not violated, violator, rep.candidates_evaluated, perf_counter() - t0)
