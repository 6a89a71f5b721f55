import random
from dataclasses import replace
from fractions import Fraction

import pytest

from discrepancy import (
    AnchoredBox,
    Box,
    HalfSpace,
    PointSet,
    WeightedPoint,
    box_volume,
    count_in_box,
    halfspace_counts,
    point_set,
    solve_bichromatic_box,
    solve_bichromatic_halfspace,
    solve_box_discrepancy,
    solve_max_empty_box,
    solve_max_empty_star,
    solve_redblue_box_discrepancy,
    solve_star_discrepancy,
    verify_epsilon_net,
)
from discrepancy.oracles import naive_range_enumerate, separable_subset

F = Fraction


def _random_colored(rng, d, n, denom=8):
    pts = []
    for idx in range(n):
        coords = tuple(F(rng.randint(0, denom), denom) for _ in range(d))
        color = "blue" if idx == 0 else rng.choice(("red", "blue"))
        pts.append(WeightedPoint(coords, color, rng.choice((1, 1, 1, 2, 3))))
    return PointSet(d, tuple(pts))


def _excess(ps, witness):
    return F(count_in_box(ps, witness).total, ps.total_weight) - box_volume(witness)


def _deficit(ps, witness):
    return box_volume(witness) - F(count_in_box(ps, witness).total, ps.total_weight)


def _recheck_continuous(ps, rep):
    got = _excess(ps, rep.witness) if rep.side == "excess" else _deficit(ps, rep.witness)
    assert got == rep.value


# ---------------------------------------------------------------------------
# Star discrepancy


def test_star_single_midpoint():
    ps = point_set(2, [((F(1, 2), F(1, 2)), None, 1)])
    rep = solve_star_discrepancy(ps)
    assert rep.value == F(3, 4)
    assert rep.side == "excess"
    assert rep.witness == AnchoredBox((F(1, 2), F(1, 2)), closed=True)
    _recheck_continuous(ps, rep)


def test_star_point_mass_at_origin():
    ps = point_set(2, [((F(0), F(0)), None, 1)])
    rep = solve_star_discrepancy(ps)
    assert rep.value == 1
    assert rep.witness == AnchoredBox((F(0), F(0)), closed=True)


def test_star_validation():
    with pytest.raises(ValueError, match="empty point set"):
        solve_star_discrepancy(PointSet(2, ()))
    with pytest.raises(ValueError, match="outside"):
        solve_star_discrepancy(point_set(1, [((F(3, 2),), None, 1)]))


# ---------------------------------------------------------------------------
# Box discrepancy


def test_box_disc_single_point_is_one():
    ps = point_set(2, [((F(1, 3), F(2, 3)), None, 1)])
    rep = solve_box_discrepancy(ps)
    assert rep.value == 1
    assert rep.side == "excess"
    _recheck_continuous(ps, rep)


def test_box_disc_two_points_line():
    ps = point_set(1, [((F(1, 4),), None, 1), ((F(3, 4),), None, 1)])
    assert solve_box_discrepancy(ps).value == F(1, 2)


# ---------------------------------------------------------------------------
# Empty star / empty box


def test_empty_star_trivial_and_midpoint():
    assert solve_max_empty_star(PointSet(2, ())).volume == 1
    ps = point_set(2, [((F(1, 2), F(1, 2)), None, 1)])
    rep = solve_max_empty_star(ps)
    assert rep.volume == F(1, 2)
    # lexicographically smallest optimal corner
    assert rep.witness == AnchoredBox((F(1, 2), F(1)), closed=False)
    assert count_in_box(ps, rep.witness).total == 0
    assert box_volume(rep.witness) == rep.volume


def test_empty_star_blocked_by_origin_point():
    ps = point_set(2, [((F(0), F(0)), None, 1)])
    assert solve_max_empty_star(ps).volume == 0


def test_empty_box_trivial_and_midpoint():
    assert solve_max_empty_box(PointSet(3, ())).volume == 1
    ps = point_set(2, [((F(1, 2), F(1, 2)), None, 1)])
    rep = solve_max_empty_box(ps)
    assert rep.volume == F(1, 2)
    assert count_in_box(ps, rep.witness).total == 0
    assert box_volume(rep.witness) == rep.volume


def test_empty_box_origin_point_does_not_block():
    # open boxes never contain boundary points
    ps = point_set(2, [((F(0), F(0)), None, 1)])
    assert solve_max_empty_box(ps).volume == 1


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("workers", [1, 2])
def test_empty_ranges_of_an_empty_set_are_the_whole_cube(d, workers):
    star = solve_max_empty_star(PointSet(d, ()), workers=workers)
    assert star.volume == 1
    assert star.witness == AnchoredBox((F(1),) * d, closed=False)
    assert star.candidates_evaluated == 1
    box = solve_max_empty_box(PointSet(d, ()), workers=workers)
    assert box.volume == 1
    assert box.witness == Box((F(0),) * d, (F(1),) * d, closed=False)
    assert box.candidates_evaluated == 1


def test_empty_star_matches_the_oracle_and_the_smallest_empty_corner(monkeypatch):
    """Random sets with duplicates, 0 and 1 coordinates and zero-volume
    optima: the volume is the oracle's, the witness is the smallest upper
    corner (coordinates plus 1) of an empty box of that volume, recounted
    as open and empty, and every field but `elapsed` is the same at 1 and
    at 2 workers, also where every grid is above the fork crossover."""
    import concurrent.futures
    import os
    from itertools import product

    from discrepancy import solvers

    def no_pool(*args, **kwargs):
        raise AssertionError("empty-star started a pool")

    monkeypatch.setattr(solvers, "_FORK_CELLS", dict.fromkeys(solvers._FORK_CELLS, 0))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rng = random.Random(83)
    zero = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        q = rng.randint(1, 6)
        pts = []
        for _ in range(rng.randint(0, 8)):
            if pts and rng.random() < 0.2:
                coords = rng.choice(pts).coords
            else:
                coords = tuple(F(rng.choice((0, q, rng.randint(0, q))), q) for _ in range(d))
            pts.append(WeightedPoint(coords, None, rng.randint(1, 3)))
        ps = PointSet(d, tuple(pts))
        rep = solve_max_empty_star(ps)
        assert rep.volume == naive_range_enumerate(ps, "empty-star")
        grid = [sorted({p.coords[j] for p in pts} | {F(1)}) for j in range(d)]
        smallest = min(
            u
            for u in product(*grid)
            if not any(all(c < x for c, x in zip(p.coords, u)) for p in pts)
            and box_volume(AnchoredBox(u, closed=False)) == rep.volume
        )
        assert rep.witness == AnchoredBox(smallest, closed=False)
        assert count_in_box(ps, rep.witness).total == 0
        assert box_volume(rep.witness) == rep.volume
        two = solve_max_empty_star(ps, workers=2)
        assert {**vars(two), "elapsed": 0} == {**vars(rep), "elapsed": 0}
        zero += rep.volume == 0
    assert zero >= 30


# ---------------------------------------------------------------------------
# Bichromatic box


def test_bichromatic_single_blue():
    ps = point_set(1, [((F(1, 2),), "blue", 1)])
    rep = solve_bichromatic_box(ps)
    assert rep.value == 1
    assert count_in_box(ps, rep.witness).red == 0
    assert count_in_box(ps, rep.witness).blue == rep.value


def test_bichromatic_requires_blue():
    with pytest.raises(ValueError, match="no blue"):
        solve_bichromatic_box(point_set(1, [((F(1, 2),), "red", 1)]))


def test_bichromatic_box_takes_workers_second_and_coordinates_below_zero():
    """Like the other five box solvers, `solve_bichromatic_box(ps, 2)` is
    the 2-worker solve, and its boxes are free: a red point at 1/4 does not
    spoil the blues at 1/2 and 3/4, and a point at -1/4 is held by a box.
    On random sets with coordinates from -1/q the report is the brute-force
    optimum, and the positional worker count gives the `workers=2` report
    in every field but `elapsed`."""
    ps = point_set(1, [((F(1, 4),), "red", 1), ((F(1, 2),), "blue", 1), ((F(3, 4),), "blue", 1)])
    assert solve_bichromatic_box(ps, 2).value == 2
    rep = solve_bichromatic_box(point_set(1, [((F(-1, 4),), "blue", 1)]), 2)
    assert (rep.value, rep.witness) == (1, Box((F(-1, 4),), (F(-1, 4),), closed=True))
    rng = random.Random(16)
    found = set()
    for _ in range(150):
        d, q = rng.randint(1, 3), rng.randint(1, 4)
        pts = [
            WeightedPoint(
                tuple(F(rng.randint(-1, q), q) for _ in range(d)),
                "blue" if idx == 0 else rng.choice(("red", "blue", None)),
                rng.choice((1, 1, 2, 3)),
            )
            for idx in range(rng.randint(1, 7))
        ]
        ps = PointSet(d, tuple(pts))
        rep = solve_bichromatic_box(ps, 2)
        assert replace(rep, elapsed=0) == replace(solve_bichromatic_box(ps, workers=2), elapsed=0), ps
        best = _majority_optimum(ps, "blue", True)
        assert (rep.value, rep.witness) == ((best[0], best[2]) if best else (0, None)), ps
        assert rep.feasible
        found.add(rep.witness is not None)
        if rep.witness is not None:
            tally = count_in_box(ps, rep.witness)
            assert (tally.red, tally.blue) == (0, rep.value), ps
    assert found == {True, False}


def test_bichromatic_coincident_points_value_zero():
    ps = point_set(1, [((F(1, 2),), "blue", 1), ((F(1, 2),), "red", 1)])
    rep = solve_bichromatic_box(ps)
    assert rep.value == 0 and rep.witness is None


# ---------------------------------------------------------------------------
# Red-blue discrepancy


def test_redblue_examples():
    coincident = point_set(1, [((F(1, 2),), "blue", 1), ((F(1, 2),), "red", 1)])
    assert solve_redblue_box_discrepancy(coincident).value == 0
    split = point_set(1, [((F(1, 2),), "blue", 1), ((F(3, 4),), "red", 1)])
    rep = solve_redblue_box_discrepancy(split)
    assert rep.value == 1
    tally = count_in_box(split, rep.witness)
    assert abs(tally.red - tally.blue) == rep.value


def test_redblue_respects_weights():
    ps = point_set(1, [((F(1, 2),), "blue", 5), ((F(3, 4),), "red", 2)])
    assert solve_redblue_box_discrepancy(ps).value == 5


def test_redblue_uncolored_only():
    ps = point_set(1, [((F(1, 2),), None, 1)])
    rep = solve_redblue_box_discrepancy(ps)
    assert rep.value == 0


# ---------------------------------------------------------------------------
# Bichromatic half-space


def test_halfspace_midpoint_threshold():
    ps = point_set(
        2,
        [
            ((F(0), F(0)), "blue", 1),
            ((F(1), F(1)), "blue", 1),
            ((F(1, 2), F(1, 2)), "red", 1),
        ],
    )
    assert not solve_bichromatic_halfspace(ps, 2).feasible
    rep = solve_bichromatic_halfspace(ps, 1)
    assert rep.feasible
    tally = halfspace_counts(ps, rep.witness).closed_side()
    assert tally.red == 0 and tally.blue == rep.value


def test_halfspace_no_reds():
    ps = point_set(2, [((F(1, 4), F(1, 4)), "blue", 2), ((F(3, 4), F(1, 4)), "blue", 1)])
    rep = solve_bichromatic_halfspace(ps, 3)
    assert rep.feasible and rep.value == 3
    tally = halfspace_counts(ps, rep.witness).closed_side()
    assert tally.blue == 3 and tally.red == 0


def test_halfspace_threshold_above_blue_weight_is_infeasible():
    ps = point_set(1, [((F(1, 2),), "blue", 1)])
    rep = solve_bichromatic_halfspace(ps, 2)
    assert not rep.feasible


def test_halfspace_weights_expand():
    # one heavy blue point alone meets the threshold
    ps = point_set(
        1, [((F(1, 4),), "blue", 3), ((F(1, 2),), "red", 1), ((F(3, 4),), "blue", 1)]
    )
    rep = solve_bichromatic_halfspace(ps, 3)
    assert rep.feasible and rep.value >= 3


# ---------------------------------------------------------------------------
# eps-net verification


def test_net_s_equals_p_is_always_net():
    ps = point_set(2, [((F(1, 4), F(1, 2)), None, 1), ((F(3, 4), F(1, 2)), None, 1)])
    for eps in (F(1, 100), F(1, 2), F(1)):
        for family in ("box", "halfspace"):
            assert verify_epsilon_net(ps, [True, True], eps, family).is_net


def test_net_empty_s_whole_space_violates():
    ps = point_set(2, [((F(1, 4), F(1, 2)), None, 1), ((F(3, 4), F(1, 2)), None, 1)])
    for family in ("box", "halfspace"):
        rep = verify_epsilon_net(ps, [False, False], F(1), family)
        assert not rep.is_net
        assert rep.violator is not None


def test_net_validation():
    ps = point_set(1, [((F(1, 2),), None, 1)])
    with pytest.raises(ValueError):
        verify_epsilon_net(ps, [True, True], F(1, 2), "box")
    with pytest.raises(ValueError):
        verify_epsilon_net(ps, [True], F(0), "box")
    with pytest.raises(ValueError):
        verify_epsilon_net(ps, [True], F(2), "box")
    with pytest.raises(ValueError):
        verify_epsilon_net(ps, [True], F(1, 2), "triangles")


def test_net_refuses_an_empty_point_set():
    """No threshold ceil(eps * 0) = 0 reaches either search."""
    for family in ("box", "halfspace"):
        with pytest.raises(ValueError, match="^empty point set$"):
            verify_epsilon_net(PointSet(2, ()), [], F(1, 2), family)


def test_net_monotone_in_eps():
    rng = random.Random(17)
    for _ in range(10):
        ps = _random_colored(rng, 2, 6)
        mask = [p.color == "red" for p in ps.points]
        results = []
        for num in (1, 2, 3, 4):
            eps = F(num, 4)
            results.append(verify_epsilon_net(ps, mask, eps, "box").is_net)
        # once a net, always a net for larger eps
        for a, b in zip(results, results[1:]):
            assert not a or b


# ---------------------------------------------------------------------------
# Cross-solver invariants


def test_invariants_on_random_sets():
    rng = random.Random(23)
    for _ in range(25):
        d = rng.randint(1, 3)
        ps = _random_colored(rng, d, rng.randint(1, 7))
        star = solve_star_discrepancy(ps)
        box = solve_box_discrepancy(ps)
        estar = solve_max_empty_star(ps)
        ebox = solve_max_empty_box(ps)
        assert 0 <= star.value <= 1
        assert 0 <= box.value <= 1
        assert estar.volume <= ebox.volume
        assert star.value >= estar.volume  # an empty star is a deficit witness
        assert box.value >= star.value
        _recheck_continuous(ps, star)
        _recheck_continuous(ps, box)
        assert count_in_box(ps, estar.witness).total == 0
        assert count_in_box(ps, ebox.witness).total == 0
        assert box_volume(estar.witness) == estar.volume
        assert box_volume(ebox.witness) == ebox.volume


def test_solvers_match_oracle_small_battery():
    rng = random.Random(29)
    for _ in range(12):
        d = rng.randint(1, 2)
        ps = _random_colored(rng, d, rng.randint(1, 6))
        assert solve_star_discrepancy(ps).value == naive_range_enumerate(ps, "star-disc")
        assert solve_box_discrepancy(ps).value == naive_range_enumerate(ps, "box-disc")
        assert solve_max_empty_star(ps).volume == naive_range_enumerate(ps, "empty-star")
        assert solve_max_empty_box(ps).volume == naive_range_enumerate(ps, "empty-box")
        assert solve_bichromatic_box(ps).value == naive_range_enumerate(ps, "bichromatic-box")
        assert (
            solve_redblue_box_discrepancy(ps).value
            == naive_range_enumerate(ps, "redblue-disc")
        )


def test_combinatorial_values_invariant_under_order_isomorphism():
    rng = random.Random(31)
    maps = [
        lambda x: x / 2,
        lambda x: (x + 1) / 3,
        lambda x: x * F(2, 3) + F(1, 4),
    ]
    for _ in range(10):
        d = rng.randint(1, 3)
        ps = _random_colored(rng, d, rng.randint(2, 7))
        chosen = [maps[rng.randrange(len(maps))] for _ in range(d)]
        mapped = PointSet(
            d,
            tuple(
                WeightedPoint(
                    tuple(chosen[j](p.coords[j]) for j in range(d)), p.color, p.weight
                )
                for p in ps.points
            ),
        )
        assert solve_bichromatic_box(ps).value == solve_bichromatic_box(mapped).value
        assert (
            solve_redblue_box_discrepancy(ps).value
            == solve_redblue_box_discrepancy(mapped).value
        )


def test_halfspace_agrees_with_subset_oracle():
    rng = random.Random(37)
    for _ in range(25):
        d = rng.randint(1, 2)
        n_blue = rng.randint(1, 5)
        n_red = rng.randint(0, 4)
        pts = [
            WeightedPoint(tuple(F(rng.randint(0, 6), 6) for _ in range(d)), "blue", 1)
            for _ in range(n_blue)
        ] + [
            WeightedPoint(tuple(F(rng.randint(0, 6), 6) for _ in range(d)), "red", 1)
            for _ in range(n_red)
        ]
        ps = PointSet(d, tuple(pts))
        m = rng.randint(1, 3)
        blues = [p.coords for p in pts if p.color == "blue"]
        reds = [p.coords for p in pts if p.color == "red"]
        from itertools import combinations

        # weights are all 1 here, so the faithful reference is: some
        # m-subset of blues is separable from every red
        oracle = (
            any(separable_subset(list(sub), reds) for sub in combinations(blues, m))
            if len(blues) >= m
            else False
        )
        assert solve_bichromatic_halfspace(ps, m).feasible == oracle


def test_weighted_halfspace_agrees_with_subset_oracle_and_recounts():
    # Weights 1-3 and blues sharing coordinates, whose weights the solver
    # merges: the reference is that some set of distinct blue coordinates
    # of total weight >= m is separable from the reds.
    from itertools import combinations

    rng = random.Random(38)
    verdicts = []
    for _ in range(60):
        d = rng.randint(1, 3)
        spots = [tuple(F(rng.randint(0, 4), 4) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        pts = [WeightedPoint(rng.choice(spots), "blue", rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        pts += [
            WeightedPoint(tuple(F(rng.randint(0, 4), 4) for _ in range(d)), "red", 1)
            for _ in range(rng.randint(0, 4))
        ]
        ps = PointSet(d, tuple(pts))
        m = rng.randint(1, 6)
        weight = {}
        for p in pts:
            if p.color == "blue":
                weight[p.coords] = weight.get(p.coords, 0) + p.weight
        reds = [p.coords for p in pts if p.color == "red"]
        oracle = any(
            sum(weight[b] for b in sub) >= m and separable_subset(list(sub), reds)
            for size in range(1, len(weight) + 1)
            for sub in combinations(sorted(weight), size)
        )
        rep = solve_bichromatic_halfspace(ps, m)
        assert rep.feasible == oracle, (pts, m)
        if rep.feasible:
            tally = halfspace_counts(ps, rep.witness).closed_side()
            assert tally.red == 0 and tally.blue == rep.value >= m, (pts, m)
        verdicts.append(rep.feasible)
    assert 10 <= sum(verdicts) <= 50



def test_halfspace_witness_is_pinned_on_clique_gadgets():
    # Bland's choices and the witness formula fix one exact witness, which
    # agreement with Fourier-Motzkin on the verdict alone does not check.
    from conftest import GRAPHS_N3, GRAPHS_N4

    from discrepancy import Graph, build_halfspace_gadget

    cases = [
        (4, GRAPHS_N4["K4"], 13, (F(-3337, 50), F(-5851, 50), F(-1517, 50), F(-656, 5)), F(-6733, 50)),
        (3, GRAPHS_N3["triangle"], 10, (F(-30255, 608), F(-18425, 304), F(-725, 32), F(-75)), F(-2507, 32)),
    ]
    for n, edges, cands, normal, offset in cases:
        inst = build_halfspace_gadget(Graph.make(n, edges), 2)
        rep = solve_bichromatic_halfspace(inst.points, 2)
        assert (rep.feasible, rep.value, rep.candidates_evaluated) == (True, 2, cands), n
        assert rep.witness == HalfSpace(normal, offset), n


def test_integer_row_matches_the_fraction_formula():
    # The reference is each entry and the rhs times the lcm of the row's
    # denominators, in Fraction arithmetic.
    from math import lcm

    from discrepancy.solvers import _integer_row

    rng = random.Random(19)
    denominators = (1, 2, 3, 7, 2**31 - 1, 2**61 - 1, 2**64)

    def entry():
        roll = rng.random()
        if roll < 0.1:
            return F(0)
        if roll < 0.2:
            return rng.randint(-5, 5)  # a plain int coordinate
        if roll < 0.3:
            return F(rng.randint(-2**64, 2**64))  # an integral Fraction
        if roll < 0.5:
            return F(rng.randint(-3, 3), rng.choice(denominators))
        return F(rng.randint(-2**64, 2**64), rng.choice((rng.randint(1, 2**64), *denominators)))

    for _ in range(1000):
        coeffs = tuple(entry() for _ in range(rng.randint(1, 6)))
        rhs = entry()
        scale = lcm(*(F(e).denominator for e in (*coeffs, rhs)))
        expected = tuple(int(c * scale) for c in coeffs), int(rhs * scale)
        got = _integer_row(coeffs, rhs)
        assert got == expected, (coeffs, rhs)
        assert {type(e) for e in (*got[0], got[1])} == {int}


def test_grid_is_the_fraction_grid_in_integers(monkeypatch):
    """`_grid` against the `Fraction` definition: on 600 seeded sets with
    negative, duplicate and large-denominator coordinates, and empty sets,
    for each wall choice, ints[j] is the sorted distinct coordinates and
    walls times D_j, the lcm of the coordinates' denominators, then a 0;
    the ranks index it, and every entry is an int, also as the six box
    solvers call it."""
    from math import lcm

    from discrepancy import solvers

    rng = random.Random(20)
    denominators = (1, 2, 3, 7, 12, 2**61 - 1, 2**64)

    def coord():
        roll = rng.random()
        if roll < 0.4:
            return F(rng.randint(0, 8), 8)
        c = F(rng.randint(0, 2**64), rng.choice((rng.randint(1, 2**64), *denominators)))
        return -c if roll > 0.85 else c

    for _ in range(600):
        d, n = rng.randint(1, 4), rng.randint(0, 8)
        pts = [WeightedPoint(tuple(coord() for _ in range(d))) for _ in range(n)]
        ps = PointSet(d, tuple(pts + pts[: rng.randint(0, n)]))
        for walls in ((), (1,), (0, 1)):
            ints, scales, ranks = solvers._grid(ps, walls)
            assert len(ints) == len(scales) == d and len(ranks) == len(ps.points)
            for j, (x, den) in enumerate(zip(ints, scales)):
                coords = {p.coords[j] for p in ps.points}
                assert den == lcm(*(c.denominator for c in coords))
                values = sorted(coords | {F(w) for w in walls})
                assert x == [v * den for v in values] + [0]
                assert {type(v) for v in (*x, den)} == {int}
                assert [values[rk[j]] for rk in ranks] == [p.coords[j] for p in ps.points]

    grid, walls_seen = solvers._grid, set()

    def checked(ps, walls):
        ints, scales, ranks = grid(ps, walls)
        assert {type(v) for x in ints for v in x} == {int}, walls
        walls_seen.add(walls)
        return ints, scales, ranks

    monkeypatch.setattr(solvers, "_grid", checked)
    ps = point_set(2, [((F(1, 3), F(1, 2)), "blue", 1), ((F(2, 3), 1), "red", 2), ((0, 0), "blue", 1)])
    for solve in (
        solve_star_discrepancy,
        solve_box_discrepancy,
        solve_max_empty_star,
        solve_max_empty_box,
        solve_bichromatic_box,
        solve_redblue_box_discrepancy,
    ):
        solve(ps)
    assert walls_seen == {(), (1,), (0, 1)}


def test_worker_counts_do_not_change_output():
    rng = random.Random(41)
    for _ in range(6):
        d = rng.randint(1, 3)
        ps = _random_colored(rng, d, rng.randint(2, 7))
        for fn, attr in (
            (solve_star_discrepancy, "value"),
            (solve_box_discrepancy, "value"),
            (solve_max_empty_star, "volume"),
            (solve_max_empty_box, "volume"),
            (solve_bichromatic_box, "value"),
            (solve_redblue_box_discrepancy, "value"),
        ):
            reps = [fn(ps, workers=w) for w in (1, 2, 8)]
            assert len({getattr(r, attr) for r in reps}) == 1
            assert len({repr(r.witness) for r in reps}) == 1


# ---------------------------------------------------------------------------
# The integer box kernel: gadget equivalences, oracle agreement on boundary
# and duplicate coordinates, closed-form candidate counts, bounded workers.


def test_disc_gadgets_reach_expected_iff_clique_on_all_four_vertex_classes():
    from conftest import GRAPHS_N3, GRAPHS_N4

    from discrepancy import Graph, build_box_discrepancy_gadget, build_star_discrepancy_gadget
    from discrepancy.oracles import has_clique

    cases = [(4, edges, 2) for edges in GRAPHS_N4.values()]
    cases += [(3, edges, 3) for edges in GRAPHS_N3.values()]
    for n, edges, k in cases:
        g = Graph.make(n, edges)
        solves = [(build_box_discrepancy_gadget, solve_box_discrepancy)]
        if k == 2:
            solves.append((build_star_discrepancy_gadget, solve_star_discrepancy))
        for build, solve in solves:
            inst = build(g, k)
            rep = solve(inst.points)
            assert (rep.value == inst.expected_positive) == has_clique(g, k), (n, edges, k)
            assert rep.value <= inst.expected_positive
            _recheck_continuous(inst.points, rep)


def _smallest_optimal(ps, problem):
    """Optimum and lexicographically smallest optimal witness, by brute force
    over the definitional grid with geometry's own counting."""
    from itertools import product

    anchored = problem in ("star-disc", "empty-star")
    per_dim = []
    for j in range(ps.dim):
        coords = {p.coords[j] for p in ps.points}
        highs = sorted(coords | {F(1)})
        lows = [None] if anchored else sorted(coords | {F(0)})
        per_dim.append([(a, b) for a in lows for b in highs if anchored or a <= b])
    best = None
    for sides in product(*per_dim):
        lower = tuple(a for a, _ in sides)
        upper = tuple(b for _, b in sides)
        for closed in (True, False):
            box = AnchoredBox(upper, closed) if anchored else Box(lower, upper, closed)
            share = F(count_in_box(ps, box).total, ps.total_weight)
            vol = box_volume(box)
            if problem.startswith("empty"):
                if closed or share:
                    continue
                val = vol
            else:
                val = share - vol if closed else vol - share
            key = (() if anchored else lower) + upper + (not closed,)
            if best is None or val > best[0] or (val == best[0] and key < best[1]):
                best = (val, key, box)
    return best[0], best[2]


def test_box_kernel_matches_oracle_on_boundary_and_duplicate_coordinates():
    rng = random.Random(43)
    grid = [F(0), F(1), F(1, 2), F(1, 3), F(2, 3)]
    solvers = {
        "star-disc": solve_star_discrepancy,
        "box-disc": solve_box_discrepancy,
        "empty-star": solve_max_empty_star,
        "empty-box": solve_max_empty_box,
    }
    paint = random.Random(44)
    # A point on the cube wall ties the closed point-box with the open full
    # box at 1; the full box has the smaller key.  In the second set a red
    # and a blue point coincide, so no red-free box holds that blue.
    sets = [
        point_set(2, [((F(2, 3), F(1)), None, 1)]),
        point_set(2, [((F(1, 2), F(1, 3)), "red", 1), ((F(1, 2), F(1, 3)), "blue", 2),
                      ((F(1), F(0)), "blue", 1), ((F(0), F(1)), None, 3)]),
    ]
    for _ in range(40):
        d = rng.randint(1, 3)
        n = rng.randint(1, 5)
        coords = [tuple(rng.choice(grid) for _ in range(d)) for _ in range(n)]
        coords += rng.sample(coords, rng.randint(0, min(2, n)))  # duplicates
        colors = [paint.choice(("red", "blue", None)) for _ in coords]
        pts = tuple(WeightedPoint(c, color, rng.randint(1, 3)) for c, color in zip(coords, colors))
        sets.append(PointSet(d, pts))
    for ps in sets:
        for problem, solve in solvers.items():
            value, witness = _smallest_optimal(ps, problem)
            assert value == naive_range_enumerate(ps, problem)
            for workers in (1, 2):
                rep = solve(ps, workers=workers)
                got = rep.volume if problem.startswith("empty") else rep.value
                assert (got, rep.witness) == (value, witness), (problem, ps, workers)
        # The majority-color scan, including uncolored and coincident points.
        majority = {"redblue-disc": solve_redblue_box_discrepancy}
        if ps.color_weight("blue"):
            majority["bichromatic-box"] = solve_bichromatic_box
        for problem, solve in majority.items():
            reps = [solve(ps, workers=workers) for workers in (1, 2)]
            seen = {(rep.value, rep.witness, getattr(rep, "side", None)) for rep in reps}
            assert len(seen) == 1, (problem, ps)
            rep = reps[0]
            if problem == "redblue-disc":
                best, side = _majority_optimum(ps, "blue", False), "excess"
                red = _majority_optimum(ps, "red", False)
                if red and (not best or red[0] > best[0] or (red[0] == best[0] and red[1] < best[1])):
                    best, side = red, "deficit"
                if best:
                    assert (rep.value, rep.witness, rep.side) == (best[0], best[2], side), ps
            else:
                best = _majority_optimum(ps, "blue", True)
                assert (rep.value, rep.witness) == ((best[0], best[2]) if best else (0, None)), ps
            assert rep.value == naive_range_enumerate(ps, problem), (problem, ps)
            if rep.witness is None:
                continue
            tally = count_in_box(ps, rep.witness)
            if problem == "redblue-disc":
                diff = tally.blue - tally.red if rep.side == "excess" else tally.red - tally.blue
                assert diff == rep.value, (ps, rep)
            else:
                assert (tally.red, tally.blue) == (0, rep.value), (problem, ps, rep)


def _majority_optimum(ps, major, feasible):
    """(value, key, box) of the best candidate of the majority scan, by brute
    force: a closed box is a candidate when its faces in each dimension j lie
    on coordinates of `major` points inside its first j sides.  A box scores
    major minus minor weight, or, when `feasible`, its major weight if it
    holds no minor point.  Ties go to the smallest lower + upper key; None
    when no box scores."""
    from itertools import product

    majors = [p.coords for p in ps.points if p.color == major]

    def on_face(sides, j, c):
        return any(
            x[j] == c and all(a <= x[i] <= b for i, (a, b) in enumerate(sides[:j])) for x in majors
        )

    per_dim = []
    for j in range(ps.dim):
        cs = sorted({x[j] for x in majors})
        per_dim.append([(a, b) for a in cs for b in cs if a <= b])
    best = None
    for sides in product(*per_dim):
        if not all(on_face(sides, j, a) and on_face(sides, j, b) for j, (a, b) in enumerate(sides)):
            continue
        box = Box(tuple(a for a, _ in sides), tuple(b for _, b in sides), closed=True)
        tally = count_in_box(ps, box)
        got, minor = (tally.blue, tally.red) if major == "blue" else (tally.red, tally.blue)
        if feasible and minor:
            continue
        val = got if feasible else got - minor
        key = box.lower + box.upper
        if best is None or val > best[0] or (val == best[0] and key < best[1]):
            best = (val, key, box)
    return best


def test_huge_and_mixed_weights_match_the_oracle_and_recount():
    """Weights from {1, 2, 3, 10**12, 7**40}: many distinct values per set,
    so weighted totals need one term per value, and exact integers far
    beyond 64 bits."""
    rng = random.Random(67)
    weights = (1, 2, 3, 10**12, 7**40)
    continuous = {
        "star-disc": solve_star_discrepancy,
        "box-disc": solve_box_discrepancy,
        "empty-star": solve_max_empty_star,
        "empty-box": solve_max_empty_box,
    }
    for _ in range(30):
        d = rng.randint(1, 3)
        pts = [
            WeightedPoint(
                tuple(F(rng.randint(0, 4), 4) for _ in range(d)),
                "blue" if idx == 0 else rng.choice(("red", "blue", None)),
                rng.choice(weights),
            )
            for idx in range(rng.randint(1, 6))
        ]
        ps = PointSet(d, tuple(pts))
        for problem, solve in continuous.items():
            rep = solve(ps)
            if problem.startswith("empty"):
                assert rep.volume == naive_range_enumerate(ps, problem), (problem, ps)
                assert count_in_box(ps, rep.witness).total == 0
                assert box_volume(rep.witness) == rep.volume
            else:
                assert rep.value == naive_range_enumerate(ps, problem), (problem, ps)
                _recheck_continuous(ps, rep)
        rep = solve_bichromatic_box(ps)
        assert rep.value == naive_range_enumerate(ps, "bichromatic-box"), ps
        if rep.witness is not None:
            tally = count_in_box(ps, rep.witness)
            assert (tally.red, tally.blue) == (0, rep.value)
        rep = solve_redblue_box_discrepancy(ps)
        assert rep.value == naive_range_enumerate(ps, "redblue-disc"), ps
        tally = count_in_box(ps, rep.witness)
        diff = tally.blue - tally.red if rep.side == "excess" else tally.red - tally.blue
        assert diff == rep.value


def test_remembered_majority_subtrees_keep_the_smallest_optimal_key(monkeypatch):
    """On the coarse grid {0, 1/2, 1} in 3 and 4 dimensions, majority scan
    states repeat under new prefixes and optimal boxes tie, so the scan
    reuses remembered subtrees: found ones, empty ones, and ones whose tail
    under a new prefix is the smaller key of a tie.  Bichromatic and red-blue
    still report the brute-force optimum with the smallest key, and its
    side, at 1 worker and in a forked 2-worker pool."""
    import os

    from discrepancy import solvers

    rng = random.Random(1)
    sets = []
    for _ in range(150):
        d = rng.randint(3, 4)
        pts = tuple(
            WeightedPoint(
                tuple(F(rng.randint(0, 2), 2) for _ in range(d)),
                rng.choice(("blue", "blue", "red", None)),
                rng.randint(1, 2),
            )
            for _ in range(rng.randint(1, 8))
        )
        sets.append(PointSet(d, pts))

    def expected(ps):
        """(problem, solve, (value, witness, side)) per majority problem."""
        out = []
        if ps.color_weight("blue"):
            best = _majority_optimum(ps, "blue", True)
            want = (best[0], best[2]) if best else (0, None)
            out.append(("bichromatic", solve_bichromatic_box, want + (None,)))
        best, side = _majority_optimum(ps, "blue", False), "excess"
        red = _majority_optimum(ps, "red", False)
        if red and (not best or red[0] > best[0] or (red[0] == best[0] and red[1] < best[1])):
            best, side = red, "deficit"
        if best:
            out.append(("redblue", solve_redblue_box_discrepancy, (best[0], best[2], side)))
        return out

    cases = [(ps, case) for ps in sets for case in expected(ps)]
    for ps, (problem, solve, want) in cases:
        rep = solve(ps, 1)
        assert (rep.value, rep.witness, getattr(rep, "side", None)) == want, (problem, ps)
    monkeypatch.setattr(solvers, "_FORK_CELLS", dict.fromkeys(solvers._FORK_CELLS, 0))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for ps, (problem, solve, want) in cases[::6]:
        rep = solve(ps, 2)
        assert (rep.value, rep.witness, getattr(rep, "side", None)) == want, (problem, ps)


def test_a_remembered_subtree_returns_its_smallest_tied_tail():
    """A subtree visits its tails in (lo3, hi3, lo4, hi4) order, but keys
    put every lower face first.  Coordinates in tenths: the points with
    first coordinates (2, 3, 5) form the mask M, where two tails tie at 20,
    the blue of weight 20 alone ([1,1] x [3,3], visited first) and the two
    blues of weight 10 ([1,2] x [2,2], with the smaller lo4).  The prefix
    (2,2 | 3,3 | 5,5) searches M first; the later prefix (2,3 | 1,3 | 5,5),
    whose larger hi0 admits the blue at (3, 1, 9) and with it the smaller
    lo1, reaches M again and wins with the remembered tail, so that tail
    must be the smaller key.  The reds block the boxes that join the tied
    blues, or join M to the blue at (3, 1, 9).  At d <= 4 no such pair of
    prefixes exists: the last prefix dimension's faces are forced by M."""
    def point(coords, color, w=1):
        return WeightedPoint(tuple(F(x) / 10 for x in coords), color, w)

    ps = PointSet(5, (
        point((2, 3, 5, 1, 3), "blue", 20),
        point((2, 3, 5, 1, 2), "blue", 10),
        point((2, 3, 5, 2, 2), "blue", 10),
        point((2, 3, 5, 1, F(5, 2)), "red"),
        point((3, 1, 9, 1, 3), "blue"),
        point((2, 3, 7, 1, 3), "red"),
    ))
    lower, upper = (tuple(F(x, 10) for x in c) for c in ((2, 1, 5, 1, 2), (3, 3, 5, 2, 2)))
    want = Box(lower, upper, closed=True)
    assert _majority_optimum(ps, "blue", True)[::2] == (20, want)
    rep = solve_bichromatic_box(ps)
    assert (rep.value, rep.witness) == (20, want)


def test_scored_leaf_counts_are_pinned_on_all_four_vertex_classes():
    """Summed `candidates_evaluated` at one worker: the empty-box and
    majority scans count scored leaves, so a scan that scores one leaf more
    or less than the filtering odometer changes these sums; empty-star
    counts the maximal empty boxes, which depend on the points alone."""
    from conftest import GRAPHS_N4

    from discrepancy import (
        Graph,
        build_bichromatic_gadget,
        build_empty_box_gadget,
        build_empty_star_gadget,
        build_redblue_gadget,
        build_star_discrepancy_gadget,
    )

    def empty_star(g, k):
        return build_empty_star_gadget(g, k, F(2))  # the CLI's default mu

    expected = {
        solve_max_empty_star: (empty_star, 324, 1_929),
        solve_max_empty_box: (build_empty_box_gadget, 184, 1_023),
        solve_bichromatic_box: (build_bichromatic_gadget, 3_053, 30_467),
        solve_redblue_box_discrepancy: (build_redblue_gadget, 1_612, 19_170),
        solve_star_discrepancy: (build_star_discrepancy_gadget, 14_256, 513_216),
    }
    for solve, (build, *sums) in expected.items():
        for k, want in zip((2, 3), sums):
            got = sum(
                solve(build(Graph.make(4, edges), k).points, workers=1).candidates_evaluated
                for edges in GRAPHS_N4.values()
            )
            assert got == want, (solve.__name__, k)


def test_box_disc_candidates_are_the_pair_grid_product():
    rng = random.Random(47)
    for _ in range(10):
        d = rng.randint(1, 3)
        ps = _random_colored(rng, d, rng.randint(1, 6), denom=4)
        expected = 1
        for j in range(d):
            coords = {p.coords[j] for p in ps.points}
            lows = sorted(coords | {F(0)})
            highs = sorted(coords | {F(1)})
            expected *= sum(1 for a in lows for b in highs if a <= b)
        for workers in (1, 2):
            assert solve_box_discrepancy(ps, workers=workers).candidates_evaluated == expected


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    sizes: list = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        result = fn(*args)
        return type("Done", (), {"result": lambda self: result})()


def test_worker_pool_is_capped(monkeypatch):
    import concurrent.futures
    import os

    from discrepancy import solvers

    # Every grid is above a crossover of 0, so every parallel solve forks.
    monkeypatch.setattr(solvers, "_FORK_CELLS", dict.fromkeys(solvers._FORK_CELLS, 0))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    rng = random.Random(53)
    ps = _random_colored(rng, 2, 6)
    reference = solve_box_discrepancy(ps)
    rep = solve_box_discrepancy(ps, workers=1000)
    assert (rep.value, rep.witness, rep.side) == (reference.value, reference.witness, reference.side)
    assert rep.candidates_evaluated == reference.candidates_evaluated
    assert solve_bichromatic_box(ps, workers=1000).value == solve_bichromatic_box(ps).value
    # one point: two first-dimension upper faces, 1/2 and 1, for four
    # partitions, so the partitions that find nothing are left out of the merge
    single = point_set(1, [((F(1, 2),), None, 1)])
    assert solve_star_discrepancy(single, workers=1000).value == F(1, 2)
    # three open intervals, (0, 1) and its halves; only the halves are empty
    empty = solve_max_empty_box(single, workers=1000)
    assert (empty.volume, empty.candidates_evaluated) == (F(1, 2), 2)
    assert _InlinePool.sizes == [4, 4, 4, 4]


def test_run_scan_merges_its_partitions(monkeypatch):
    """Through the pool, `_run_scan` keeps the highest value and, among its
    ties, the smallest key whichever partition found it; it skips a
    partition that found nothing and sums every partition's candidates."""
    import concurrent.futures
    import os

    from discrepancy import solvers

    runs = [
        ((5, (0, 0)), 1),
        ((7, (3, 0)), 10),
        (None, 100),
        ((7, (1, 4)), 1000),
        ((7, (2, 0)), 10000),
    ]

    def stub(pts, ints, part, nparts):
        return runs[part] if nparts == len(runs) else (None, nparts)

    monkeypatch.setattr(solvers, "_FORK_CELLS", {stub: 0})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: len(runs))
    monkeypatch.setattr(_InlinePool, "sizes", [])
    args = ([], [[0]])
    assert solvers._run_scan(stub, args, len(runs), 1) == ((7, (1, 4)), 11111)
    runs[1:] = [(None, 2)] * 4
    assert solvers._run_scan(stub, args, len(runs), 1) == ((5, (0, 0)), 9)
    runs[0] = (None, 3)
    assert solvers._run_scan(stub, args, len(runs), 1) == (None, 11)
    assert _InlinePool.sizes == [5, 5, 5]
    # One worker, or a grid at the crossover, is one partition in-process.
    assert solvers._run_scan(stub, args, 1, 1) == (None, 1)
    assert solvers._run_scan(stub, args, len(runs), 0) == (None, 1)
    assert _InlinePool.sizes == [5, 5, 5]


_BOX_SOLVES = (
    solve_star_discrepancy,
    solve_box_discrepancy,
    solve_max_empty_star,
    solve_max_empty_box,
    solve_bichromatic_box,
    solve_redblue_box_discrepancy,
)


def _box_reports(sets, workers):
    """Each box solver's report on each set, as a dict without `elapsed`."""
    reps = [fn(ps, workers=workers) for ps in sets for fn in _BOX_SOLVES]
    return [{k: v for k, v in vars(r).items() if k != "elapsed"} for r in reps]


def test_worker_counts_keep_the_one_worker_report(monkeypatch):
    import concurrent.futures
    import multiprocessing
    import os

    from discrepancy import solvers

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started below the crossover")

    rng = random.Random(59)
    sets = [_random_colored(rng, 2, 6), _random_colored(rng, 3, 4)]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    one = _box_reports(sets, 1)
    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        # Below the crossover a solve is one scan, whatever the worker count.
        assert _box_reports(sets, 2) == one
        assert _box_reports(sets, 8) == one
    monkeypatch.setattr(solvers, "_FORK_CELLS", dict.fromkeys(solvers._FORK_CELLS, 0))
    # Pooled partitions keep the optimum, its witness and its side; their
    # scored-leaf counts depend on the partition, except for the closed-form
    # counts of star and box discrepancy and the empty star, which is never
    # partitioned.
    kept = ("value", "volume", "witness", "side", "feasible")
    whole = (solve_star_discrepancy, solve_box_discrepancy, solve_max_empty_star)
    for workers in (2, 8):
        for i, (got, want) in enumerate(zip(_box_reports(sets, workers), one)):
            assert {k: got[k] for k in kept if k in got} == {k: want[k] for k in kept if k in want}
            if _BOX_SOLVES[i % len(_BOX_SOLVES)] in whole:
                assert got["candidates_evaluated"] == want["candidates_evaluated"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("missing", ["fork", "pool"])
def test_a_pool_that_cannot_start_leaves_one_partition_in_process(missing, monkeypatch):
    """Where fork does not exist, `get_context("fork")` raises ValueError;
    where no process can start, the pool raises OSError.  Either way, a
    solve above its crossover runs as one partition in this process and
    gives the 1-worker report in every field."""
    import concurrent.futures
    import multiprocessing
    import os

    from discrepancy import solvers

    starts = []

    def fails(error):
        def start(*args, **kwargs):
            starts.append(error)
            raise error("no pool here")

        return start

    rng = random.Random(67)
    sets = [_random_colored(rng, 2, 6), _random_colored(rng, 3, 4)]
    one = _box_reports(sets, 1)
    monkeypatch.setattr(solvers, "_FORK_CELLS", dict.fromkeys(solvers._FORK_CELLS, 0))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if missing == "fork":
        monkeypatch.setattr(multiprocessing, "get_context", fails(ValueError))
    else:
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fails(OSError))
    assert _box_reports(sets, 2) == one
    # Each scan tried to start a pool: one per solve, two for red-blue's
    # passes, none for the empty star.
    assert len(starts) == 6 * len(sets)


def test_grid_cells_counts_face_choices():
    """`grid_cells` against the face choices counted in `Fraction`s, on
    random sets, on sets whose coordinates mix the denominators 2, 3, 5 and
    64 within a dimension, and on empty sets.  Outside the unit cube it
    counts by the same closed form rather than refusing: every pair of
    distinct grid values and one pair per distinct coordinate.  No solver
    scans an anchored majority grid, so counting one raises."""
    from discrepancy.solvers import grid_cells

    rng = random.Random(61)

    def mixed(d, n):
        return PointSet(d, tuple(
            WeightedPoint(tuple(F(rng.randint(0, q), q) for q in rng.choices((2, 3, 5, 64), k=d)),
                          rng.choice(("red", "blue")))
            for _ in range(n)
        ))

    sets = [_random_colored(rng, rng.randint(1, 3), rng.randint(1, 6), denom=3) for _ in range(40)]
    sets += [mixed(rng.randint(1, 3), rng.randint(1, 8)) for _ in range(40)]
    sets += [PointSet(d, ()) for d in (1, 2, 3)]
    for ps in sets:
        d = ps.dim
        free = anchored = 1
        blue_pairs = 1
        for j in range(d):
            coords = {p.coords[j] for p in ps.points}
            anchored *= len(coords | {F(1)})
            free *= sum(a <= b for a in coords | {F(0)} for b in coords | {F(1)})
            blues = {p.coords[j] for p in ps.colored("blue")}
            blue_pairs *= sum(a <= b for a in blues for b in blues)
        assert grid_cells(ps, True) == anchored
        assert grid_cells(ps, False) == free
        assert grid_cells(ps, False, ("blue",)) == blue_pairs
        with pytest.raises(ValueError, match="anchored majority"):
            grid_cells(ps, True, ("blue",))
    # (coordinates, free, anchored) with coordinates outside the cube.
    for coords, free, anchored in (((F(-1, 2),), 4, 2), ((F(3, 2),), 4, 2), ((F(-1), F(1)), 5, 2)):
        ps = PointSet(1, tuple(WeightedPoint((c,), "blue") for c in coords))
        assert (grid_cells(ps, False), grid_cells(ps, True)) == (free, anchored), coords
        n = len(coords)
        assert grid_cells(ps, False, ("blue",)) == n * (n + 1) // 2


def test_rank_masks_select_each_slab_and_groups_total_it():
    from discrepancy.solvers import _below, _groups, _total

    rng = random.Random(71)
    for _ in range(60):
        size = rng.randint(1, 6)
        ranks = [rng.randrange(size) for _ in range(rng.randint(0, 8))]  # duplicates
        below = _below(ranks, size)
        assert len(below) == size + 2 and below[-1] == 0

        def mask(keep):
            return sum(1 << i for i, r in enumerate(ranks) if keep(r))

        for a in range(-1, size):  # a = -1: the anchored lower face
            for b in range(a, size):
                closed = mask(lambda r: a <= r <= b)
                assert below[b + 1] ^ below[a] == closed, (ranks, a, b)
                if a < b:
                    assert below[b] ^ below[a + 1] == mask(lambda r: a < r < b), (ranks, a, b)
        pts = [(r, rng.choice((0, 1, 3, -2, 7**40))) for r in ranks]
        for sign in (1, -1):
            groups = _groups(pts, sign)
            for m in range(1 << len(pts)) if len(pts) < 6 else [rng.getrandbits(len(pts))]:
                want = sum(p[-1] for i, p in enumerate(pts) if m >> i & 1 and p[-1] * sign > 0)
                assert _total(m, groups) == want
