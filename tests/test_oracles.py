import random
from fractions import Fraction

import pytest

from discrepancy import Graph, PointSet, WeightedPoint, point_set
from discrepancy.oracles import has_clique, naive_range_enumerate, separable_subset

F = Fraction


def test_has_clique_examples(k3):
    assert has_clique(k3, 3)
    path = Graph.make(3, [(1, 2), (2, 3)])
    assert not has_clique(path, 3)
    k4_minus_edge = Graph.make(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert has_clique(k4_minus_edge, 3)


def test_has_clique_range_errors(k3):
    with pytest.raises(ValueError):
        has_clique(k3, 0)
    with pytest.raises(ValueError):
        has_clique(k3, 4)


def test_has_clique_monotone_under_edge_addition():
    rng = random.Random(21)
    all_edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    for _ in range(30):
        rng.shuffle(all_edges)
        cut = rng.randint(0, len(all_edges))
        small = Graph.make(5, all_edges[:cut])
        bigger = Graph.make(5, all_edges[: min(len(all_edges), cut + 2)])
        for k in (2, 3, 4):
            if has_clique(small, k):
                assert has_clique(bigger, k)


def test_separable_midpoint_infeasible():
    blues = [(F(0), F(0)), (F(1), F(1))]
    reds = [(F(1, 2), F(1, 2))]
    assert not separable_subset(blues, reds)


def test_separable_trivial_and_witnessed():
    assert separable_subset([(F(0), F(0))], [])
    # half-plane below y = 1/2 separates these
    assert separable_subset([(F(0), F(0)), (F(1), F(0))], [(F(1, 2), F(1))])


def test_separable_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        separable_subset([(F(0),)], [(F(1), F(1))])


def test_separable_monotone():
    rng = random.Random(33)
    for _ in range(30):
        d = rng.randint(1, 3)
        blues = [tuple(F(rng.randint(0, 8), 8) for _ in range(d)) for _ in range(rng.randint(1, 3))]
        reds = [tuple(F(rng.randint(0, 8), 8) for _ in range(d)) for _ in range(rng.randint(0, 3))]
        if separable_subset(blues, reds):
            continue
        # adding more points can never flip infeasible to feasible
        extra_b = blues + [tuple(F(rng.randint(0, 8), 8) for _ in range(d))]
        extra_r = reds + [tuple(F(rng.randint(0, 8), 8) for _ in range(d))]
        assert not separable_subset(extra_b, reds)
        assert not separable_subset(blues, extra_r)


def test_naive_examples():
    ps = point_set(2, [((F(1, 2), F(1, 2)), None, 1)])
    assert naive_range_enumerate(ps, "star-disc") == F(3, 4)
    assert naive_range_enumerate(ps, "empty-box") == F(1, 2)
    assert naive_range_enumerate(PointSet(2, ()), "empty-box") == 1
    rb = point_set(1, [((F(1, 2),), "blue", 1), ((F(3, 4),), "red", 1)])
    assert naive_range_enumerate(rb, "redblue-disc") == 1


def test_naive_refuses_oversized_instances():
    big = point_set(4, [((F(i, 16),) * 4, None, 1) for i in range(13)])
    with pytest.raises(ValueError, match="soft limit"):
        naive_range_enumerate(big, "box-disc")
    wide = point_set(5, [((F(1, 2),) * 5, None, 1)])
    with pytest.raises(ValueError, match="soft limit"):
        naive_range_enumerate(wide, "empty-star")


def test_naive_unknown_problem():
    ps = point_set(1, [((F(1, 2),), None, 1)])
    with pytest.raises(ValueError, match="unknown problem"):
        naive_range_enumerate(ps, "nonsense")


def test_oracles_share_no_code_with_the_solvers():
    """The oracles take nothing from `solvers` or `separation`, and the
    solvers never build the naive side's `critical_grid`."""
    from types import ModuleType

    from discrepancy import oracles, solvers

    for name, value in vars(oracles).items():
        origin = value.__name__ if isinstance(value, ModuleType) else getattr(value, "__module__", None)
        assert origin not in ("discrepancy.solvers", "discrepancy.separation"), name
    assert "critical_grid" not in vars(solvers)
