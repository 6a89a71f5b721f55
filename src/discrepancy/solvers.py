"""Complete exact solvers for the discrepancy family of problems.

Each solver enumerates a finite candidate space that provably contains an
optimum, in exact rational arithmetic, and returns the optimum value with
a witness range.  The completeness arguments, recorded here once:

* Star and box discrepancy: the supremum of |vol - count/W| is attained
  only in closed/open limits, so it is the larger of the excess
  (count/W - vol) over closed boxes and the deficit (vol - count/W) over
  open boxes.  It is positive: at a corner on a point, the closed and the
  open box differ in count, so excess plus deficit is positive.  An
  anchored box keeps its lower faces on the 0 wall, inclusive under both
  closures.
* Open boxes (deficit, empty star, empty box): grow each face until it
  hits a point coordinate or the wall, so lower faces from the coordinates
  plus 0 and upper faces from the coordinates plus 1 are complete.
  Emptiness is an open-box notion throughout (a point on the boundary does
  not spoil a box).
* Empty star: a largest empty anchored box of positive volume is a
  maximal empty orthant, since raising an unblocked face grows it.  These
  number O(n^floor(d/2)) (Boissonnat, Sharir, Tagansky & Yvinec 1998) and
  are kept point by point (Kaplan, Rubin, Sharir & Verbin 2008): p < u
  replaces box u by each cut u_j := p_j whose other faces below 1 keep a
  blocker q (on the face, below u elsewhere, q_j < p_j).  At volume 0,
  upper ranks 0 give an empty box and the smallest key.
* Closed boxes, by the smallest optimal key (below): faces on the ranks of
  the points the box holds, plus the 0 wall as a lower face, are complete.
  A positive excess needs a point inside.  An upper face on no point of
  the box moves down onto its highest point in that dimension: the count
  stays, the volume does not grow and the key falls.  A lower face on no
  point moves up onto the lowest one; at positive volume this shrinks the
  volume strictly, so an optimal box has none.  The delicate case is the
  zero-volume tie, where another side is 0 long and the value is the count
  alone: moving such a lower face down to the 0 wall loses no point, keeps
  the volume 0 and lowers the key, so the smallest key has it on the wall.
  The 1 wall is never needed.  The faces of a box at depth j are thus the
  ranks of the points surviving depths < j, plus the 0 wall.
* Bichromatic / red-blue: any box shrinks onto the bounding box of its
  majority-color content without losing majority points or gaining
  minority points, so closed boxes with faces on majority coordinates are
  complete: the closed-box argument without the walls, as volume does not
  count.
* Half-spaces: a closed half-space with blue weight >= m and no reds
  exists iff some subset of at most m distinct blue points of total weight
  >= m is strongly separable from the reds, which is decided by exact
  linear feasibility of a margin-1 system (scaling makes strict
  separation equivalent).  `separation.feasible_point` pivots on its
  Farkas alternative, i.e. it tests whether conv(subset) meets conv(reds)
  on d + 2 rows, with a revised fraction-free simplex that keeps only the
  (d + 2) x (d + 2) basis adjugate, and reads the separating (normal,
  offset) off the phase-1 multipliers, given margin rows that
  `_integer_row` scales to integers once per search.  The witness's blue
  weight is recounted in the same integers.  No hyperplane-enumeration
  shortcut is trusted.
  A search projecting more than MAX_HALFSPACE_SUBSETS subsets is refused.

Box problems run on two scan kernels, one per closure (Gnewuch, Srivastav
& Winzen 2009; Dobkin, Eppstein & Mitchell 1996).  `_scan_closed` scores
A * (weight inside) - B * vol with faces made per node: the excess side
of discrepancy with (A, B) = (P, W), bichromatic and red-blue with B = 0.
`_scan_open` scores B * vol - A * (weight inside), or finds the largest
box with no point inside, over every grid interval longest first: the
deficit side and the empty box.  A discrepancy partition runs the closed
pass, then the open pass seeded with its best.  Both kernels hold the
surviving points as an int bitmask: a child is one AND with a rank-slab
mask built once per scan, and a weight total is one popcount per distinct
weight, so no node copies or walks a point list.  The empty star uses
neither, and is never partitioned: see `_max_empty_star`.
With B = 0 (bichromatic, red-blue, the box eps-net check) a closed
subtree below depth j depends on j and its surviving mask alone, so
`_scan_closed` remembers per (depth, mask) the subtree's best (value,
tail) at or above the incumbent on entry, or None, and reuses it.  This
is exact as the incumbent only rises within a scan: a None stays None, a
found best is the subtree's optimum and joins a new prefix as a leaf
does, and keys with one prefix order like their tails.  With B > 0 the
volume is part of the state, and repeats are too rare to pay.
`_grid` is the one conversion from coordinates: it scales dimension j by
the lcm D_j of its denominators and ranks each point into the sorted
integers, so volumes are integers over P = prod(D_j), discrepancy values
integers over W * P, and `Fraction`s are built only for the report.  A
point is its ranks plus one signed integer weight, and every anchored box
has lower rank -1, the 0 wall, in both kernels.  Pruning uses sound
bounds (for closed boxes the positive weight inside, less B * vol in the
last dimension; for open ones the largest completing volume) and always
a strict inequality, so ties at the optimum are never discarded and the
reported witness is independent of traversal order.

Determinism: among all optimal candidates the solver reports the one with
the lexicographically smallest witness key (lower ranks, then upper ranks,
then the side: excess before deficit on a full tie).  `_run_scan` is the
one owner of partitions.  Below its scan's measured crossover in the grid
size, which `_cells` reads off `_grid`'s ranks, or where no pool can be
forked, a solve is one scan in this process, so its report is the 1-worker
report for any worker count.  Above it, a forked pool partitions the first
dimension's candidates, solves the partitions independently, and
`_run_scan` merges them with the same comparison, so value, witness and
side are still identical.  `candidates_evaluated` is too for star and
box discrepancy (that grid size) and the empty star (its maximal empty
orthants); for empty-box and majority scans it counts scored leaves (for
a majority scan, those outside remembered subtrees), which in a pool
depend on the partition.  Partitions never outnumber the CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import os
from itertools import accumulate, combinations
from math import ceil, comb, lcm, prod
from operator import lshift, mul, or_
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

# Most blue subsets one half-space search may decide; the largest gadget
# search (k = 3, m = 4, 13 distinct blues) projects 1,092.
MAX_HALFSPACE_SUBSETS = 100_000

# Most dimensions a box solve or half-space search takes: the box kernels
# recurse once per dimension, and the empty star and the LP grow as d^2.
MAX_SCAN_DIM = 256


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


def _grid(ps: PointSet, walls: tuple):
    """The critical grid in integers, as (ints, scales, ranks).  Dimension j
    is scaled by D_j = scales[j], the lcm of its denominators; ints[j] is
    the sorted distinct scaled coordinates together with w * D_j for each
    `walls` entry w (0 and/or 1, plain ints), then a trailing 0 so that the
    anchored lower rank -1 reads as the 0 wall; ranks[i] indexes point i's
    coordinates into ints.  A volume is then an integer over prod(D_j).
    Raises ValueError, before any work, above MAX_SCAN_DIM dimensions."""
    if ps.dim > MAX_SCAN_DIM:
        raise ValueError(f"box scans take at most {MAX_SCAN_DIM} dimensions, got {ps.dim}")
    ints, scales, ranked = [], [], []
    for col in zip(*(p.coords for p in ps.points)) if ps.points else [()] * ps.dim:
        den = lcm(*(c.denominator for c in col))
        xs = [c.numerator * (den // c.denominator) for c in col]
        vals = sorted({*xs, *(w * den for w in walls)})
        rank = {x: i for i, x in enumerate(vals)}
        ints.append(vals + [0])
        scales.append(den)
        ranked.append([rank[x] for x in xs])
    return ints, scales, list(zip(*ranked))


def _faces(ints, scales, key):
    """(lower, upper) face coordinates of a rank key lo ranks + hi ranks;
    the anchored lower rank -1 reads the trailing 0, the 0 wall."""
    d = len(ints)
    lower = tuple(Fraction(x[i], den) for x, den, i in zip(ints, scales, key[:d]))
    upper = tuple(Fraction(x[i], den) for x, den, i in zip(ints, scales, key[d : 2 * d]))
    return lower, upper


def _require_nonempty(ps: PointSet) -> None:
    if not ps.points:
        raise ValueError("empty point set")


def _cells(ints, ranks, anchored: bool, walls: bool = True) -> int:
    """Closed-form size of a scan's definitional grid on `_grid`'s output,
    a product over the dimensions of the n upper faces of an anchored box,
    else of the n(n - 1)/2 pairs lo < hi and the c pairs lo = hi on the c
    distinct `ranks`: a wall on no point's rank never pairs with itself.
    The n faces are every grid rank with `walls` (a box scan), else the c."""
    total = 1
    for j, x in enumerate(ints):
        c = len({rk[j] for rk in ranks})
        n = len(x) - 1 if walls else c
        total *= n if anchored else n * (n - 1) // 2 + c
    return total


def grid_cells(ps: PointSet, anchored: bool, colors=()) -> int:
    """`_cells` of the grid that a scan of `ps` runs on: the box scan's, or
    with `colors` the free majority scan's of each color, summed.  Coordinates
    outside [0,1] are counted by the same closed form, not refused."""
    if anchored and colors:
        raise ValueError("no solver scans an anchored majority grid")
    ints, _, ranks = _grid(ps, () if colors else (1,) if anchored else (0, 1))
    if not colors:
        return _cells(ints, ranks, anchored)
    held = [[rk for rk, p in zip(ranks, ps.points) if p.color == c] for c in colors]
    return sum(_cells(ints, rks, False, False) for rks in held)


def _run_scan(scan, args, workers: int, cells: int):
    """`scan` over `workers` partitions of its first dimension, at most the
    CPU count, in a forked pool when the grid's `cells` pass the scan's
    crossover in `_FORK_CELLS`; else, or where no pool can be forked, as one
    partition in this process.  Returns the partitions merged: the highest
    (value, key), the smallest key on a tie, or None if no partition found
    one, and the candidates summed."""
    workers = min(workers, os.cpu_count() or 1)
    runs = None
    if workers > 1 and cells > _FORK_CELLS[scan]:
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                futures = [pool.submit(scan, *args, p, workers) for p in range(workers)]
                runs = [f.result() for f in futures]
        except (OSError, ValueError):
            pass
    runs = runs or [scan(*args, 0, 1)]
    found = [b for b, _ in runs if b is not None]
    return min(found, key=lambda b: (-b[0], b[1]), default=None), sum(c for _, c in runs)


# ---------------------------------------------------------------------------
# The two box scans, one per closure.  Both walk per-dimension rank pairs in
# odometer order, hold the surviving points as a bitmask (bit i is pts[i])
# narrowed by `_below` slabs and totalled by `_groups`, prune only on a
# strict `<`, and key a box by lo ranks + hi ranks + side.


def _below(ranks, size):
    """Masks of the points of rank < r for r = 0..size, bit i for ranks[i],
    then a trailing 0 so that rank -1 reads as empty.  So the closed rank
    interval [a, b] holds below[b + 1] ^ below[a], also for the anchored
    a = -1, and the open interval (a, b) holds below[b] ^ below[a + 1]."""
    acc = [0] * (size + 1)
    for i, r in enumerate(ranks):
        acc[r + 1] |= 1 << i
    return list(accumulate(acc, or_)) + [0]


def _groups(pts, sign):
    """The weights with the sign of `sign` as a (weight, mask) per distinct
    weight, the most common first, or [(0, 0)] if none; a mask m then
    totals them as `_total(m, groups)`.  The kernels inline the first
    group, which is all there is when the points share one weight."""
    masks: dict = {}
    for i, p in enumerate(pts):
        if p[-1] * sign > 0:
            masks[p[-1]] = masks.get(p[-1], 0) | 1 << i
    return sorted(masks.items(), key=lambda vg: -vg[1].bit_count()) or [(0, 0)]


def _total(mask, groups):
    return sum(v * (mask & g).bit_count() for v, g in groups)


def _scan_closed(pts, ints, anchored, weight, seed, part, nparts):
    """Best closed box by A * inside - B * vol, from `seed` (None or a
    (value, key) to beat), first dimension partitioned.

    A point is ranks + (signed weight,) and lies inside when
    lo <= rank <= hi in every dimension; `anchored` boxes keep their lower
    faces at rank -1, the 0 wall.  With B = W (the excess side of
    discrepancy, values integers over W * P) the weight is A * weight;
    with B = `weight` = 0 (bichromatic and red-blue) it is the point's
    score, negative for the other color.  Faces are made per node from the
    ranks of the surviving points of positive weight, plus the 0 wall as a
    lower face when B > 0 (see the module docstring).  A pair is skipped
    when its positive weight, less B * vol in the last dimension, is
    strictly below the incumbent.  Each scored leaf is a candidate.
    With B = 0, `memo[j]` maps each surviving mask met at depth j to what
    `rec` returned on it, the subtree's best (value, lo tail, hi tail) at
    or above the incumbent on entry, or None; a mask met again is not
    searched or counted again, only its result joined to the new prefix
    (see the module docstring).  B > 0 scans never read or fill `memo`.
    Returns ((value, key), candidates), key = lo + hi, + (0,) when B > 0.
    """
    d = len(ints)
    side = (0,) if weight else ()
    below = [_below([p[j] for p in pts], len(x) - 1) for j, x in enumerate(ints)]
    # Per dimension and rank, the points there of positive weight.
    pos = sum(1 << i for i, p in enumerate(pts) if p[d] > 0)
    at = [[(bel[r + 1] ^ bel[r]) & pos for r in range(len(bel) - 2)] for bel in below]
    (v, g), *more = _groups(pts, 1)
    (nv, ng), *nmore = _groups(pts, -1)
    lo: list = [None] * d
    hi: list = [None] * d
    best, cands = seed, 0
    memo = None if weight else [{} for _ in range(d)]

    def rec(j, vol, cur):
        nonlocal best, cands
        ranks = [r for r, m in enumerate(at[j]) if m & cur]
        if anchored:
            pairs = [(-1, b) for b in ranks]
        else:
            pairs = [(a, b) for i, a in enumerate(ranks) for b in ranks[i:]]
            if weight and ranks[0]:
                pairs[:0] = [(0, b) for b in ranks]
        if j == 0:
            pairs = pairs[part::nparts]
        x, bel = ints[j], below[j]
        last = j == d - 1
        seen = None if memo is None or last else memo[j + 1]
        nvol, top = vol, None
        for a, b in pairs:
            inner = cur & (bel[b + 1] ^ bel[a])
            held = v * (inner & g).bit_count()
            if more:
                held += _total(inner, more)
            if weight:
                nvol = vol * (x[b] - x[a])
                if last:
                    held -= weight * nvol
            if best is not None and held < best[0]:
                continue
            if not last:
                lo[j], hi[j] = a, b
                if seen is None:
                    rec(j + 1, nvol, inner)
                    continue
                if inner not in seen:
                    seen[inner] = rec(j + 1, nvol, inner)
                # A found subtree implies an incumbent.
                if (sub := seen[inner]) is None or sub[0] < best[0]:
                    continue
                val, lt, ht = sub
                key = tuple(lo[: j + 1]) + lt + tuple(hi[: j + 1]) + ht
            else:
                cands += 1
                val = held + nv * (inner & ng).bit_count()
                if nmore:
                    val += _total(inner, nmore)
                if best is not None and val < best[0]:
                    continue
                lo[j], hi[j] = a, b
                key = tuple(lo) + tuple(hi) + side
            # Keys under one prefix order like their tails.
            if memo is not None and (top is None or val > top[0] or key < top[1]):
                top = (val, key)
            if best is None or val > best[0] or key < best[1]:
                best = (val, key)
        return top and (top[0], top[1][j:d], top[1][d + j :])

    rec(0, 1, (1 << len(pts)) - 1)
    return best, cands


def _scan_open(pts, ints, anchored, weight, seed, part, nparts):
    """Best open box by W * vol - inside (the deficit side of discrepancy,
    B = W = `weight`), or, with `weight` None, the largest open box with no
    point inside; from `seed`, first dimension partitioned.

    A point is ranks + (weight * P,) and lies inside when lo < rank < hi in
    every dimension; volumes carry the factor W (1 for an empty box).
    Faces are every grid interval with lo < hi (lo at rank -1, the 0 wall,
    when `anchored`), longest first, ties in (lo, hi) order, so a residual
    volume strictly below the incumbent ends the loop.  Each dimension's
    longest interval is unique (0 wall to 1 wall, or rank -1 to the 1 wall
    when anchored), so below a node where no point survives the first
    completion scores the bound its parent passed, and every later sibling
    is pruned: one leaf.  An empty box skips leaves with a point inside.
    Each scored completion is a candidate.  Returns ((value, key),
    candidates), key = lo + hi + (1,) for the deficit.
    """
    d = len(ints)
    dims = []
    for j, x in enumerate(ints):
        r = len(x) - 1
        bel = _below([p[j] for p in pts], r)
        los = [-1] if anchored else range(r)
        ivs = [(a, b, x[b] - x[a], bel[b] ^ bel[a + 1]) for a in los for b in range(a + 1, r)]
        ivs.sort(key=lambda iv: -iv[2])
        dims.append(ivs)
    (v, g), *more = _groups(pts, 1)
    side = () if weight is None else (1,)
    maxtail = [1] * (d + 1)
    for j in range(d - 1, -1, -1):
        maxtail[j] = maxtail[j + 1] * dims[j][0][2]
    dims[0] = dims[0][part::nparts]
    lo: list = [None] * d
    hi: list = [None] * d
    best, cands = seed, 0

    def rec(j, vol, cur):
        nonlocal best, cands
        if j == d - 1:
            for a, b, length, slab in dims[j]:
                nvol = vol * length
                if best is not None and nvol < best[0]:
                    break
                inner = cur & slab
                if weight is None and inner:
                    continue
                cands += 1
                val = nvol - v * (inner & g).bit_count()
                if more:
                    val -= _total(inner, more)
                if best is None or val >= best[0]:
                    lo[j], hi[j] = a, b
                    key = tuple(lo) + tuple(hi) + side
                    if best is None or val > best[0] or key < best[1]:
                        best = (val, key)
            return
        for a, b, length, slab in dims[j]:
            nvol = vol * length
            if best is not None and nvol * maxtail[j + 1] < best[0]:
                break
            lo[j], hi[j] = a, b
            rec(j + 1, nvol, cur & slab)

    rec(0, weight or 1, (1 << len(pts)) - 1)
    return best, cands


def _max_empty_star(pts, ints):
    """The largest empty star over the maximal empty orthants, as
    ((volume, (-1,) * d + u), orthants).  `boxes` maps upper ranks u to u
    packed, rank j in bits [j * w, (j + 1) * w) under a guard bit that
    x - pack(p) keeps iff p_j <= u_j, and to a blocker mask per face, in
    `_below`'s bits: bit 0 is the wall, a virtual point of rank -1 in every
    slab that blocks each face at 1, and bit i the i-th point.  Cuts never
    repeat a box (one maximal box would hold another), and a cut at j = 0
    is final, as the points go in lexicographic order."""
    d = len(ints)
    pts = sorted({p[:d] for p in pts})
    below = [_below([-1] + [p[j] for p in pts], len(x) - 1) for j, x in enumerate(ints)]
    top = tuple(len(x) - 2 for x in ints)
    w = max(top).bit_length() + 2
    shifts = range(0, d * w, w)
    guards = sum(1 << (s + w - 1) for s in shifts)
    ones = sum(1 << s for s in shifts)
    boxes = {top: (guards + sum(map(lshift, top, shifts)), [1] * d)}
    done = []
    for i, p in enumerate(pts, 1):
        bit = 1 << i
        at = sum(map(lshift, p, shifts))
        for u, (x, bl) in list(boxes.items()):
            strict = (x - at - ones) & guards
            if strict != guards:
                if (x - at) & guards == guards and not (eq := strict ^ guards) & (eq - 1):
                    bl[eq.bit_length() // w - 1] |= bit
                continue
            del boxes[u]
            for j, r in enumerate(p):
                slab = below[j][r]
                cut = [b & slab for b in bl]
                cut[j] = bit
                if j and all(cut):
                    boxes[u[:j] + (r,) + u[j + 1 :]] = (x - ((u[j] - r) << shifts[j]), cut)
                elif not j and all(cut):
                    done.append((r,) + u[1:])
    done += boxes
    u = min(done, key=lambda u: (-prod(map(list.__getitem__, ints, u)), u))
    vol = prod(map(list.__getitem__, ints, u))
    return (vol, (-1,) * d + (u if vol else (0,) * d)), len(done)


def _scan_disc(pts, ints, anchored, weight, part, nparts):
    """Discrepancy over one partition: the excess pass over closed boxes,
    then the deficit pass over open boxes, seeded with the excess best."""
    best, _ = _scan_closed(pts, ints, anchored, weight, None, part, nparts)
    return _scan_open(pts, ints, anchored, weight, best, part, nparts)


# Per scan, the grid size (`_cells`) above which partitions ran faster in a
# forked pool than in-process on a 2-vCPU VM before the majority scans kept
# a memo (the `crossover` rows of BENCH_10.json and BENCH_14.json).
# `_scan_open` alone is the empty box, `_scan_closed` alone a majority scan.
_FORK_CELLS = {_scan_disc: 2_000_000, _scan_open: 30_000_000, _scan_closed: 150_000_000}


# ---------------------------------------------------------------------------
# Public solvers.


def _solve_boxes(ps: PointSet, anchored: bool, empty: bool, workers: int):
    """Solve one continuous box problem and report it: the largest empty
    open box when `empty`, else the discrepancy; the witness is open unless
    the side is excess."""
    t0 = perf_counter()
    ints, scales, ranks = _grid(ps, (1,) if anchored else (0, 1))
    # The grid holds the walls, so its ends are the extreme coordinates.
    if any(x[0] < 0 or x[-2] > den for x, den in zip(ints, scales)):
        raise ValueError("coordinates outside [0,1]")
    scale = prod(scales)
    pts = [rk + (p.weight * scale,) for rk, p in zip(ranks, ps.points)]
    weight = 1 if empty else ps.total_weight
    cells = None if empty and anchored else _cells(ints, ranks, anchored)
    if empty and anchored:
        (num, key), cands = _max_empty_star(pts, ints)
    elif empty:
        (num, key), cands = _run_scan(_scan_open, (pts, ints, False, None, None), workers, cells)
    else:
        (num, key), cands = _run_scan(_scan_disc, (pts, ints, anchored, weight), workers, cells)
    value = Fraction(num, scale * weight)
    lower, upper = _faces(ints, scales, key)
    excess = not empty and not key[-1]
    witness = AnchoredBox(upper, excess) if anchored else Box(lower, upper, excess)
    if empty:
        return EmptyBoxReport(value, witness, cands, perf_counter() - t0)
    side = "excess" if excess else "deficit"
    return DiscrepancyReport(value, witness, side, cells, perf_counter() - t0)


def solve_star_discrepancy(ps: PointSet, workers: int = 1) -> DiscrepancyReport:
    """Largest |vol - count/W| over anchored boxes inside the unit cube."""
    _require_nonempty(ps)
    return _solve_boxes(ps, True, False, workers)


def solve_box_discrepancy(ps: PointSet, workers: int = 1) -> DiscrepancyReport:
    """Largest |vol - count/W| over all axis-parallel boxes in the cube."""
    _require_nonempty(ps)
    return _solve_boxes(ps, False, False, workers)


def solve_max_empty_star(ps: PointSet, workers: int = 1) -> EmptyBoxReport:
    """Largest open anchored box containing no point; empty input gives 1."""
    return _solve_boxes(ps, True, True, workers)


def solve_max_empty_box(ps: PointSet, workers: int = 1) -> EmptyBoxReport:
    """Largest open box inside the unit cube containing no point."""
    return _solve_boxes(ps, False, True, workers)


def _solve_majority(ps, ints, ranks, major, penalty, init_best, workers):
    """Run the majority scan, over free closed boxes with B = 0, on
    `_grid(ps, ())`: `major` scores +w, the other color -penalty * w."""
    score = {major: 1, RED if major == BLUE else BLUE: -penalty, None: 0}
    pts = [rk + (score[p.color] * p.weight,) for rk, p in zip(ranks, ps.points)]
    cells = _cells(ints, [rk for rk, p in zip(ranks, ps.points) if p.color == major], False, False)
    return _run_scan(_scan_closed, (pts, ints, False, 0, init_best), workers, cells)


def solve_bichromatic_box(ps: PointSet, workers: int = 1) -> BichromaticReport:
    """Most blue weight in a closed box containing zero red weight, any box."""
    t0 = perf_counter()
    if (blue := ps.color_weight(BLUE)) == 0:
        raise ValueError("no blue points")
    ints, scales, ranks = _grid(ps, ())
    # A red point outweighs all blues, so only red-free boxes score >= 0.
    best, cands = _solve_majority(ps, ints, ranks, BLUE, blue + 1, None, workers)
    if best is None or best[0] < 0:
        return BichromaticReport(0, None, True, cands, perf_counter() - t0)
    witness = Box(*_faces(ints, scales, best[1]), closed=True)
    return BichromaticReport(best[0], witness, True, cands, perf_counter() - t0)


def solve_redblue_box_discrepancy(ps: PointSet, workers: int = 1) -> DiscrepancyReport:
    """Largest |red - blue| weight difference over closed boxes.

    The blue-majority side runs first and seeds the red-majority side, so a
    full tie reports the blue-majority ("excess") witness.
    """
    t0 = perf_counter()
    _require_nonempty(ps)
    ints, scales, ranks = _grid(ps, ())
    blue_best, cands = _solve_majority(ps, ints, ranks, BLUE, 1, None, workers)
    best, c = _solve_majority(ps, ints, ranks, RED, 1, blue_best, workers)
    cands += c
    if best is None:
        # No colored points at all: every box balances at zero.
        first = min(p.coords for p in ps.points)
        witness = Box(first, first, closed=True)
        return DiscrepancyReport(Fraction(0), witness, "excess", cands, perf_counter() - t0)
    side = "excess" if best == blue_best else "deficit"
    witness = Box(*_faces(ints, scales, best[1]), closed=True)
    return DiscrepancyReport(Fraction(best[0]), witness, side, cands, perf_counter() - t0)


def _integer_row(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple:
    """The row coeffs . x <= rhs times the lcm L of its denominators, in the
    integers that `feasible_point` takes: each entry a / q becomes
    a * (L // q), from numerators and denominators alone.  This leaves the
    LP's choices and witness unchanged: in the Farkas alternative it
    substitutes y_i / L for the row's multiplier y_i >= 0, which scales
    column i's reduced cost and all of its ratio-test ratios by positive
    factors, so the entering and leaving choices are Bland's on the
    rational system; the artificials are not scaled, so the multipliers pi,
    and with them the witness, are the same too."""
    scale = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return (
        tuple(c.numerator * (scale // c.denominator) for c in coeffs),
        rhs.numerator * (scale // rhs.denominator),
    )


def solve_bichromatic_halfspace(ps: PointSet, m: int) -> BichromaticReport:
    """Decide whether a closed half-space holds blue weight >= m and no red.

    Complete by subset enumeration: some set of at most m distinct blue
    points with total weight >= m must be separable, and each candidate set
    is decided by exact linear feasibility with a margin-1 system.  The
    returned witness is the feasible (normal, offset) pair; the reported
    value is the total blue weight the witness actually contains.  Raises
    ValueError, before any LP, above MAX_SCAN_DIM dimensions or when the
    subsets of at most m distinct blues number more than
    MAX_HALFSPACE_SUBSETS.
    """
    t0 = perf_counter()
    if ps.dim > MAX_SCAN_DIM:
        raise ValueError(f"half-space search takes at most {MAX_SCAN_DIM} dimensions, got {ps.dim}")
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
    weights = [blue_weight[b] for b in blues]
    red_list = sorted(reds)
    total_blue = sum(weights)
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
    blue_rows = [_integer_row(b + (-ONE,), ZERO) for b in blues]
    # A red's row: -r . w + c <= -1.
    red_rows = [_integer_row(tuple(-c for c in r) + (ONE,), -ONE) for r in red_list]
    cands = 0
    for size in range(1, min(m, len(blues)) + 1):
        for combo in combinations(range(len(blues)), size):
            if sum(weights[i] for i in combo) < m:
                continue
            cands += 1
            x = feasible_point([blue_rows[i] for i in combo] + red_rows, d + 1)
            if x is None:
                continue
            # b . normal <= offset iff the blue's row, a positive multiple
            # of (b, -1), is <= 0 at a positive multiple of the witness.
            point, _ = _integer_row(x, ZERO)
            value = sum(w for (row, _), w in zip(blue_rows, weights) if sum(map(mul, row, point)) <= 0)
            return BichromaticReport(
                value, HalfSpace(tuple(x[:d]), x[d]), True, cands, perf_counter() - t0
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
    problem: a red-free range with blue weight >= ceil(eps * W).  An empty
    set is refused, as its threshold ceil(eps * 0) = 0 has no meaning.
    """
    t0 = perf_counter()
    _require_nonempty(ps)
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
