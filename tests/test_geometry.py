import random
from fractions import Fraction
from itertools import permutations

import pytest

from discrepancy import (
    AnchoredBox,
    Box,
    HalfSpace,
    PointSet,
    WeightedPoint,
    box_volume,
    build_empty_star_gadget,
    count_in_box,
    critical_grid,
    halfspace_counts,
    point_set,
)
from discrepancy.gadgets import Graph

F = Fraction


def _random_set(rng, d, n, colored=True):
    pts = []
    for _ in range(n):
        coords = tuple(F(rng.randint(0, 8), 8) for _ in range(d))
        color = rng.choice(("red", "blue", None)) if colored else None
        pts.append(WeightedPoint(coords, color, rng.choice((1, 1, 2, 3))))
    return PointSet(d, tuple(pts))


def test_weighted_point_validation():
    with pytest.raises(ValueError):
        WeightedPoint((F(0),), "green", 1)
    with pytest.raises(ValueError):
        WeightedPoint((F(0),), None, 0)
    with pytest.raises(ValueError):
        PointSet(2, (WeightedPoint((F(0),), None, 1),))


def test_critical_grid_single_point():
    ps = point_set(2, [((F(1, 2), F(1, 2)), None, 1)])
    grid = critical_grid(ps, with_one=True)
    assert grid.values == ((F(1, 2), F(1)), (F(1, 2), F(1)))


def test_critical_grid_collapses_duplicates():
    ps = point_set(2, [((F(1, 2), F(1, 4)), None, 1), ((F(1, 2), F(3, 4)), None, 1)])
    grid = critical_grid(ps)
    assert grid.values[0] == (F(1, 2),)
    assert grid.values[1] == (F(1, 4), F(3, 4))


def test_critical_grid_of_an_empty_set_is_its_walls():
    empty = PointSet(2, ())
    assert critical_grid(empty).values == ((), ())
    assert critical_grid(empty, with_zero=True).values == ((F(0),), (F(0),))
    assert critical_grid(empty, with_one=True).values == ((F(1),), (F(1),))
    assert critical_grid(empty, with_zero=True, with_one=True).values == ((F(0), F(1)),) * 2


def test_critical_grid_on_hyperbolic_scaffold():
    # plane x-coordinates for n=3, mu=2 are C*mu^(u-1) with C = 1/4
    g = build_empty_star_gadget(Graph.make(3, [(1, 2)]), 2, F(2))
    grid = critical_grid(g.points, with_one=True)
    assert {F(1, 8), F(1, 4), F(1, 2), F(1)} <= set(grid.values[0])


def test_count_boundary_conventions():
    ps = point_set(2, [((F(1, 2), F(1, 2)), None, 1)])
    corner = (F(1, 2), F(1, 2))
    assert count_in_box(ps, AnchoredBox(corner, closed=True)).total == 1
    assert count_in_box(ps, AnchoredBox(corner, closed=False)).total == 0


def test_open_anchored_box_keeps_origin():
    ps = point_set(2, [((F(0), F(0)), "blue", 1)])
    assert count_in_box(ps, AnchoredBox((F(1, 2), F(1, 2)), closed=False)).blue == 1


def test_count_dimension_mismatch():
    ps = point_set(2, [((F(1, 2), F(1, 2)), None, 1)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        count_in_box(ps, AnchoredBox((F(1, 2),), closed=True))


def test_box_volume():
    assert box_volume(AnchoredBox((F(1, 2), F(1, 2)), closed=True)) == F(1, 4)
    assert box_volume(Box((F(1, 4), F(0)), (F(3, 4), F(1)), closed=False)) == F(1, 2)


def test_hyperbolic_rectangles_all_have_area_C():
    # corner choices (C*mu^(u-1), mu^-(u-1)) each span an area-C rectangle
    mu, n = F(2), 3
    C = 1 / mu ** (n - 1)
    for u in range(1, n + 1):
        corner = (C * mu ** (u - 1), mu ** -(u - 1))
        assert box_volume(AnchoredBox(corner, closed=False)) == C


def test_halfspace_counts_examples():
    ps = point_set(2, [((F(0), F(0)), "blue", 1), ((F(1), F(1)), "red", 1)])
    hs = HalfSpace((F(1), F(0)), F(1, 2))  # x1 <= 1/2
    tally = halfspace_counts(ps, hs)
    assert tally.inside.blue == 1 and tally.outside.red == 1

    ps2 = point_set(2, [((F(1, 2), F(1, 2)), None, 1)])
    tally2 = halfspace_counts(ps2, HalfSpace((F(1), F(1)), F(1)))  # x1+x2 <= 1
    assert tally2.boundary.total == 1

    # collinear blues with a red between them: all on x1 - x2 <= 0
    ps3 = point_set(
        2,
        [
            ((F(0), F(0)), "blue", 1),
            ((F(1), F(1)), "blue", 1),
            ((F(1, 2), F(1, 2)), "red", 1),
        ],
    )
    tally3 = halfspace_counts(ps3, HalfSpace((F(1), F(-1)), F(0)))
    assert tally3.boundary.blue == 2 and tally3.boundary.red == 1


def test_halfspace_rejects_zero_normal():
    with pytest.raises(ValueError):
        HalfSpace((F(0), F(0)), F(1))


def test_count_monotone_under_enlargement():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randint(1, 3)
        ps = _random_set(rng, d, rng.randint(1, 8))
        lo = tuple(F(rng.randint(0, 4), 8) for _ in range(d))
        hi = tuple(l + F(rng.randint(0, 4), 8) for l in lo)
        big = tuple(min(F(1), h + F(1, 8)) for h in hi)
        small = count_in_box(ps, Box(lo, hi, closed=True))
        large = count_in_box(ps, Box(lo, big, closed=True))
        assert large.total >= small.total
        opened = count_in_box(ps, Box(lo, hi, closed=False))
        assert opened.total <= small.total


def test_count_invariant_under_dimension_permutation():
    rng = random.Random(5)
    for _ in range(20):
        d = 3
        ps = _random_set(rng, d, 6)
        lo = tuple(F(rng.randint(0, 3), 8) for _ in range(d))
        hi = tuple(l + F(rng.randint(0, 5), 8) for l in lo)
        base = count_in_box(ps, Box(lo, hi, closed=True))
        for perm in permutations(range(d)):
            pps = PointSet(
                d,
                tuple(
                    WeightedPoint(tuple(p.coords[i] for i in perm), p.color, p.weight)
                    for p in ps.points
                ),
            )
            box = Box(tuple(lo[i] for i in perm), tuple(hi[i] for i in perm), closed=True)
            assert count_in_box(pps, box) == base


def test_closed_all_ones_box_counts_everything():
    rng = random.Random(9)
    for _ in range(25):
        d = rng.randint(1, 4)
        ps = _random_set(rng, d, rng.randint(1, 10))
        box = AnchoredBox((F(1),) * d, closed=True)
        assert count_in_box(ps, box).total == ps.total_weight


def test_weight_behaves_as_coincident_copies():
    coords = (F(1, 2), F(1, 4))
    heavy = point_set(2, [(coords, "blue", 3)])
    copies = point_set(2, [(coords, "blue", 1)] * 3)
    for closed in (True, False):
        box = AnchoredBox((F(1, 2), F(1, 2)), closed=closed)
        assert count_in_box(heavy, box) == count_in_box(copies, box)
