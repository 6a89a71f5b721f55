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

Candidate enumeration walks the per-dimension grids in odometer order,
filtering the point list one dimension at a time so membership tests are
incremental.  Coordinates are replaced by per-dimension ranks (integers)
up front; exact Fraction arithmetic reappears only for volumes and
reported values.  Pruning is used where a sound bound exists (residual
volume for empty-range search, surviving majority weight for the
combinatorial problems) and always with a strict inequality, so ties at
the optimum are never discarded and the reported witness is independent
of traversal order.

Determinism: among all optimal candidates the solver reports the one with
the lexicographically smallest witness key (corner tuple for anchored
boxes, lower corner then upper corner for free boxes; excess before
deficit on a full tie).  Parallel runs partition the first dimension's
candidates, solve partitions independently, and merge with the same
comparison, so the result is identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil
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
)
from .separation import feasible_point

Witness = Union[AnchoredBox, Box, HalfSpace, None]


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
# Preparation: per-dimension sorted values and integer ranks.


def _prep(ps: PointSet, with_zero: bool, with_one: bool):
    values = []
    for j in range(ps.dim):
        vals = {p.coords[j] for p in ps.points}
        if with_zero:
            vals.add(ZERO)
        if with_one:
            vals.add(ONE)
        values.append(sorted(vals))
    rank = [{v: i for i, v in enumerate(vs)} for vs in values]
    pts = [
        (tuple(rank[j][p.coords[j]] for j in range(ps.dim)), p.weight, p.color)
        for p in ps.points
    ]
    return values, pts


def _face_indices(values, ps: PointSet):
    """Lower-face (coords or 0) and upper-face (coords or 1) index lists."""
    a_lists, b_lists = [], []
    for j, vals in enumerate(values):
        coords = {p.coords[j] for p in ps.points}
        a_lists.append([i for i, v in enumerate(vals) if v == ZERO or v in coords])
        b_lists.append([i for i, v in enumerate(vals) if v == ONE or v in coords])
    return a_lists, b_lists


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


def _run_scan(scan, args, workers: int):
    if workers <= 1:
        return [scan(*args, 0, 1)]
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(scan, *args, p, workers) for p in range(workers)]
            return [f.result() for f in futures]
    except OSError:
        # No subprocess support in this environment; the partitioned
        # computation is identical either way.
        return [scan(*args, p, workers) for p in range(workers)]


# ---------------------------------------------------------------------------
# Continuous discrepancy scans (full enumeration; no sound prune exists for
# the two-sided objective, and the candidate count doubles as the bench's
# definitional grid size).


def _scan_star(values, pts, weight, part, nparts):
    d = len(values)
    best = None  # (value, corner+(siderank,), side)
    cands = 0
    corner: list = [None] * d
    total = sum(p[1] for p in pts)

    def rec(j, vol, closed_pts, cw, open_pts, ow):
        nonlocal best, cands
        if j == d:
            cands += 1
            corner_t = tuple(corner)
            for rank, (val, side) in enumerate(
                ((Fraction(cw, weight) - vol, "excess"), (vol - Fraction(ow, weight), "deficit"))
            ):
                key = corner_t + (rank,)
                if best is None or val > best[0] or (val == best[0] and key < best[1]):
                    best = (val, key, side)
            return
        vals = values[j]
        indices = range(part, len(vals), nparts) if j == 0 else range(len(vals))
        for idx in indices:
            nc, ncw = [], 0
            for p in closed_pts:
                if p[0][j] <= idx:
                    nc.append(p)
                    ncw += p[1]
            no, now = [], 0
            for p in open_pts:
                if p[0][j] < idx:
                    no.append(p)
                    now += p[1]
            corner[j] = vals[idx]
            rec(j + 1, vol * vals[idx], nc, ncw, no, now)

    rec(0, Fraction(1), pts, total, pts, total)
    return best, cands


def _scan_box_disc(values, a_lists, b_lists, pts, weight, part, nparts):
    d = len(values)
    best = None  # (value, lower+upper+(siderank,), side)
    cands = 0
    lower: list = [None] * d
    upper: list = [None] * d
    total = sum(p[1] for p in pts)

    pair_lists = [
        [(a, b) for a in a_lists[j] for b in b_lists[j] if a <= b] for j in range(d)
    ]

    def rec(j, vol, closed_pts, cw, open_pts, ow):
        nonlocal best, cands
        if j == d:
            cands += 1
            key_base = tuple(lower) + tuple(upper)
            for rank, (val, side) in enumerate(
                ((Fraction(cw, weight) - vol, "excess"), (vol - Fraction(ow, weight), "deficit"))
            ):
                key = key_base + (rank,)
                if best is None or val > best[0] or (val == best[0] and key < best[1]):
                    best = (val, key, side)
            return
        pairs = pair_lists[j]
        if j == 0:
            pairs = pairs[part::nparts]
        vals = values[j]
        for a, b in pairs:
            nc, ncw = [], 0
            for p in closed_pts:
                if a <= p[0][j] <= b:
                    nc.append(p)
                    ncw += p[1]
            no, now = [], 0
            for p in open_pts:
                if a < p[0][j] < b:
                    no.append(p)
                    now += p[1]
            lower[j] = vals[a]
            upper[j] = vals[b]
            rec(j + 1, vol * (vals[b] - vals[a]), nc, ncw, no, now)

    rec(0, Fraction(1), pts, total, pts, total)
    return best, cands


# ---------------------------------------------------------------------------
# Empty-range scans (residual-volume pruning, strict, plus a shortcut: once
# no point can lie strictly inside, the only completions worth scoring are
# the largest one, or the lexicographically smallest one when the volume is
# already pinned to zero).


def _scan_empty_star(values, pts, part, nparts):
    d = len(values)
    maxs = [vals[-1] for vals in values]
    mins = [vals[0] for vals in values]
    tail = [Fraction(1)] * (d + 1)
    for j in range(d - 1, -1, -1):
        tail[j] = tail[j + 1] * maxs[j]
    best = None  # (volume, corner)
    cands = 0
    corner: list = [None] * d

    def rec(j, vol, open_pts):
        nonlocal best, cands
        if not open_pts:
            cands += 1
            rest = mins[j:] if vol == 0 else maxs[j:]
            v = vol
            for t in rest:
                v *= t
            corner_t = tuple(corner[:j]) + tuple(rest)
            if best is None or v > best[0] or (v == best[0] and corner_t < best[1]):
                best = (v, corner_t)
            return
        if j == d:
            return  # some point lies strictly inside
        vals = values[j]
        indices = range(part, len(vals), nparts) if j == 0 else range(len(vals))
        for idx in sorted(indices, reverse=True):
            if best is not None and vol * vals[idx] * tail[j + 1] < best[0]:
                break
            corner[j] = vals[idx]
            rec(j + 1, vol * vals[idx], [p for p in open_pts if p[0][j] < idx])

    rec(0, Fraction(1), pts)
    return best, cands


def _scan_empty_box(values, a_lists, b_lists, pts, part, nparts):
    d = len(values)
    pair_lists = []
    for j in range(d):
        vals = values[j]
        pairs = [
            (vals[b] - vals[a], a, b) for a in a_lists[j] for b in b_lists[j] if a < b
        ]
        pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
        pair_lists.append(pairs)
    maxlen = [pl[0][0] if pl else ZERO for pl in pair_lists]
    tail = [Fraction(1)] * (d + 1)
    for j in range(d - 1, -1, -1):
        tail[j] = tail[j + 1] * maxlen[j]
    best = None  # (volume, lower+upper)
    cands = 0
    lower: list = [None] * d
    upper: list = [None] * d

    def rec(j, vol, open_pts):
        nonlocal best, cands
        if not open_pts:
            cands += 1
            if vol == 0:
                rest_lo = [values[l][0] for l in range(j, d)]
                rest_hi = [values[l][1] for l in range(j, d)]
                v = ZERO
            else:
                rest_lo = [values[l][0] for l in range(j, d)]
                rest_hi = [values[l][-1] for l in range(j, d)]
                v = vol * tail[j]
            key = tuple(lower[:j]) + tuple(rest_lo) + tuple(upper[:j]) + tuple(rest_hi)
            if best is None or v > best[0] or (v == best[0] and key < best[1]):
                best = (v, key)
            return
        if j == d:
            return
        pairs = pair_lists[j]
        if j == 0:
            pairs = pairs[part::nparts]
        vals = values[j]
        for length, a, b in pairs:
            if best is not None and vol * length * tail[j + 1] < best[0]:
                break
            lower[j] = vals[a]
            upper[j] = vals[b]
            rec(j + 1, vol * length, [p for p in open_pts if a < p[0][j] < b])

    rec(0, Fraction(1), pts)
    return best, cands


# ---------------------------------------------------------------------------
# Majority-color box scan (bichromatic and red-blue discrepancy).


def _scan_majority_box(values, pts, major, mode, anchored, init_best, part, nparts):
    d = len(values)
    best = init_best  # (value, lower+upper, lower, upper)
    cands = 0
    lower: list = [None] * d
    upper: list = [None] * d
    zero_idx = [vals.index(ZERO) if ZERO in vals else None for vals in values]

    def rec(j, cur_pts, major_w):
        nonlocal best, cands
        if best is not None and major_w < best[0]:
            return
        if j == d:
            cands += 1
            red_w = blue_w = 0
            for _, w, color in cur_pts:
                if color == RED:
                    red_w += w
                elif color == BLUE:
                    blue_w += w
            if mode == "feasible":
                minor = red_w if major == BLUE else blue_w
                if minor != 0:
                    return
                val = major_w
            else:
                val = blue_w - red_w if major == BLUE else red_w - blue_w
            key = tuple(lower) + tuple(upper)
            if best is None or val > best[0] or (val == best[0] and key < best[1]):
                best = (val, key, tuple(lower), tuple(upper))
            return
        ranks = sorted({p[0][j] for p in cur_pts if p[2] == major})
        if anchored:
            z = zero_idx[j]
            pairs = [(z, b) for b in ranks if b >= z] if z is not None else []
        else:
            pairs = [(a, b) for ai, a in enumerate(ranks) for b in ranks[ai:]]
        if j == 0:
            pairs = pairs[part::nparts]
        vals = values[j]
        for a, b in pairs:
            ncur, nmw = [], 0
            for p in cur_pts:
                if a <= p[0][j] <= b:
                    ncur.append(p)
                    if p[2] == major:
                        nmw += p[1]
            lower[j] = vals[a]
            upper[j] = vals[b]
            rec(j + 1, ncur, nmw)

    rec(0, pts, sum(p[1] for p in pts if p[2] == major))
    return best, cands


def _seed_majority(values, pts, major, mode, anchored=False):
    """Cheap incumbents: each degenerate majority box and the full majority
    bounding box (lower corners pinned to 0 when anchored).  All lie inside
    the candidate space, so seeding them only strengthens pruning without
    affecting the reported optimum."""
    d = len(values)
    majors = [p for p in pts if p[2] == major]
    if not majors:
        return None, 0
    if anchored:
        zero_idx = [vals.index(ZERO) if ZERO in vals else None for vals in values]
        if any(z is None for z in zero_idx):
            return None, 0
        boxes = [
            tuple((z, r) for z, r in zip(zero_idx, p[0]))
            for p in majors
            if all(r >= z for z, r in zip(zero_idx, p[0]))
        ]
        if not boxes:
            return None, 0
        boxes.append(
            tuple(
                (zero_idx[j], max(p[0][j] for p in majors)) for j in range(d)
            )
        )
    else:
        boxes = [tuple((r, r) for r in p[0]) for p in majors]
        boxes.append(
            tuple(
                (min(p[0][j] for p in majors), max(p[0][j] for p in majors))
                for j in range(d)
            )
        )
    best = None
    for sides in boxes:
        red_w = blue_w = major_w = 0
        for ranks, w, color in pts:
            if all(a <= r <= b for r, (a, b) in zip(ranks, sides)):
                if color == RED:
                    red_w += w
                elif color == BLUE:
                    blue_w += w
                if color == major:
                    major_w += w
        if mode == "feasible":
            minor = red_w if major == BLUE else blue_w
            if minor != 0:
                continue
            val = major_w
        else:
            val = blue_w - red_w if major == BLUE else red_w - blue_w
        lo = tuple(values[j][a] for j, (a, b) in enumerate(sides))
        hi = tuple(values[j][b] for j, (a, b) in enumerate(sides))
        key = lo + hi
        if best is None or val > best[0] or (val == best[0] and key < best[1]):
            best = (val, key, lo, hi)
    return best, len(boxes)


# ---------------------------------------------------------------------------
# Public solvers.


def solve_star_discrepancy(ps: PointSet, workers: int = 1) -> DiscrepancyReport:
    """Largest |vol - count/W| over anchored boxes inside the unit cube."""
    t0 = perf_counter()
    _require_nonempty(ps)
    _require_unit_cube(ps)
    values, pts = _prep(ps, with_zero=False, with_one=True)
    best, cands = _merge(_run_scan(_scan_star, (values, pts, ps.total_weight), workers))
    value, key, side = best
    witness = AnchoredBox(key[:-1], closed=(side == "excess"))
    return DiscrepancyReport(value, witness, side, cands, perf_counter() - t0)


def solve_box_discrepancy(ps: PointSet, workers: int = 1) -> DiscrepancyReport:
    """Largest |vol - count/W| over all axis-parallel boxes in the cube."""
    t0 = perf_counter()
    _require_nonempty(ps)
    _require_unit_cube(ps)
    values, pts = _prep(ps, with_zero=True, with_one=True)
    a_lists, b_lists = _face_indices(values, ps)
    best, cands = _merge(
        _run_scan(
            _scan_box_disc, (values, a_lists, b_lists, pts, ps.total_weight), workers
        )
    )
    value, key, side = best
    d = ps.dim
    witness = Box(key[:d], key[d : 2 * d], closed=(side == "excess"))
    return DiscrepancyReport(value, witness, side, cands, perf_counter() - t0)


def solve_max_empty_star(ps: PointSet, workers: int = 1) -> EmptyBoxReport:
    """Largest open anchored box containing no point; empty input gives 1."""
    t0 = perf_counter()
    _require_unit_cube(ps)
    if not ps.points:
        witness = AnchoredBox((ONE,) * ps.dim, closed=False)
        return EmptyBoxReport(Fraction(1), witness, 1, perf_counter() - t0)
    values, pts = _prep(ps, with_zero=False, with_one=True)
    best, cands = _merge(_run_scan(_scan_empty_star, (values, pts), workers))
    volume, corner = best
    return EmptyBoxReport(volume, AnchoredBox(corner, closed=False), cands, perf_counter() - t0)


def solve_max_empty_box(ps: PointSet, workers: int = 1) -> EmptyBoxReport:
    """Largest open box inside the unit cube containing no point."""
    t0 = perf_counter()
    _require_unit_cube(ps)
    if not ps.points:
        witness = Box((ZERO,) * ps.dim, (ONE,) * ps.dim, closed=False)
        return EmptyBoxReport(Fraction(1), witness, 1, perf_counter() - t0)
    values, pts = _prep(ps, with_zero=True, with_one=True)
    a_lists, b_lists = _face_indices(values, ps)
    best, cands = _merge(
        _run_scan(_scan_empty_box, (values, a_lists, b_lists, pts), workers)
    )
    volume, key = best
    d = ps.dim
    witness = Box(key[:d], key[d:], closed=False)
    return EmptyBoxReport(volume, witness, cands, perf_counter() - t0)


def solve_bichromatic_box(
    ps: PointSet, anchored: bool = False, workers: int = 1
) -> BichromaticReport:
    """Most blue weight in a closed box containing zero red weight."""
    t0 = perf_counter()
    if ps.color_weight(BLUE) == 0:
        raise ValueError("no blue points")
    values, pts = _prep(ps, with_zero=anchored, with_one=False)
    seed, seed_cands = _seed_majority(values, pts, BLUE, "feasible", anchored=anchored)
    best, cands = _merge(
        _run_scan(_scan_majority_box, (values, pts, BLUE, "feasible", anchored, seed), workers)
    )
    cands += seed_cands
    if best is None:
        return BichromaticReport(0, None, True, cands, perf_counter() - t0)
    value, _, lo, hi = best
    return BichromaticReport(value, Box(lo, hi, closed=True), True, cands, perf_counter() - t0)


def solve_redblue_box_discrepancy(ps: PointSet, workers: int = 1) -> DiscrepancyReport:
    """Largest |red - blue| weight difference over closed boxes.

    The blue-majority side runs first and seeds the red-majority side, so a
    full tie reports the blue-majority ("excess") witness.
    """
    t0 = perf_counter()
    _require_nonempty(ps)
    values, pts = _prep(ps, with_zero=False, with_one=False)
    cands = 0
    sides = {}
    seed_b, c = _seed_majority(values, pts, BLUE, "difference")
    cands += c
    blue_best, c = _merge(
        _run_scan(_scan_majority_box, (values, pts, BLUE, "difference", False, seed_b), workers)
    )
    cands += c
    seed_r = blue_best if blue_best is not None else _seed_majority(values, pts, RED, "difference")[0]
    red_best, c = _merge(
        _run_scan(_scan_majority_box, (values, pts, RED, "difference", False, seed_r), workers)
    )
    cands += c
    best, side = blue_best, "excess"
    if red_best is not None and (
        best is None or red_best[0] > best[0] or (red_best[0] == best[0] and red_best[1] < best[1])
    ):
        best, side = red_best, "deficit"
    if best is None:
        # No colored points at all: every box balances at zero.
        first = min(p.coords for p in ps.points)
        witness = Box(first, first, closed=True)
        return DiscrepancyReport(Fraction(0), witness, "excess", cands, perf_counter() - t0)
    value, _, lo, hi = best
    witness = Box(lo, hi, closed=True)
    return DiscrepancyReport(Fraction(value), witness, side, cands, perf_counter() - t0)


def solve_bichromatic_halfspace(ps: PointSet, m: int, workers: int = 1) -> BichromaticReport:
    """Decide whether a closed half-space holds blue weight >= m and no red.

    Complete by subset enumeration: some set of at most m distinct blue
    points with total weight >= m must be separable, and each candidate set
    is decided by exact linear feasibility with a margin-1 system.  The
    returned witness is the feasible (normal, offset) pair; the reported
    value is the total blue weight the witness actually contains.
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
        rep = solve_bichromatic_halfspace(recolored, m, workers=workers)
        violated = rep.feasible
    else:
        rep = solve_bichromatic_box(recolored, workers=workers)
        violated = rep.value >= m
    violator = rep.witness if violated else None
    return NetReport(not violated, violator, rep.candidates_evaluated, perf_counter() - t0)
