import random
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


def test_bichromatic_anchored_variant():
    ps = point_set(
        1,
        [((F(1, 4),), "red", 1), ((F(1, 2),), "blue", 1), ((F(3, 4),), "blue", 1)],
    )
    free = solve_bichromatic_box(ps)
    anchored = solve_bichromatic_box(ps, anchored=True)
    assert free.value == 2
    assert anchored.value == 0  # every anchored box with a blue passes the red
    ps2 = point_set(1, [((F(1, 2),), "blue", 1), ((F(3, 4),), "red", 1)])
    assert solve_bichromatic_box(ps2, anchored=True).value == 1


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
            majority["anchored"] = lambda ps, workers: solve_bichromatic_box(ps, True, workers)
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
                best = _majority_optimum(ps, "blue", True, anchored=problem == "anchored")
                assert (rep.value, rep.witness) == ((best[0], best[2]) if best else (0, None)), ps
            if problem != "anchored":
                assert rep.value == naive_range_enumerate(ps, problem), (problem, ps)
            if rep.witness is None:
                continue
            tally = count_in_box(ps, rep.witness)
            if problem == "redblue-disc":
                diff = tally.blue - tally.red if rep.side == "excess" else tally.red - tally.blue
                assert diff == rep.value, (ps, rep)
            else:
                assert (tally.red, tally.blue) == (0, rep.value), (problem, ps, rep)


def _majority_optimum(ps, major, feasible, anchored=False):
    """(value, key, box) of the best candidate of the majority scan, by brute
    force: a closed box is a candidate when its faces in each dimension j lie
    on coordinates of `major` points inside its first j sides (lower faces
    at 0 when anchored).  A box scores major minus minor weight, or, when
    `feasible`, its major weight if it holds no minor point.  Ties go to the
    smallest lower + upper key; None when no box scores."""
    from itertools import product

    majors = [p.coords for p in ps.points if p.color == major]

    def on_face(sides, j, c):
        return any(
            x[j] == c and all(a <= x[i] <= b for i, (a, b) in enumerate(sides[:j])) for x in majors
        )

    per_dim = []
    for j in range(ps.dim):
        cs = sorted({x[j] for x in majors})
        per_dim.append([(a, b) for a in ([F(0)] if anchored else cs) for b in cs if a <= b])
    best = None
    for sides in product(*per_dim):
        if not all(
            (anchored or on_face(sides, j, a)) and on_face(sides, j, b)
            for j, (a, b) in enumerate(sides)
        ):
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

    def __init__(self, max_workers):
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
    # one point: its star grid has two first-dimension intervals, 1/2 and 1
    single = point_set(1, [((F(1, 2),), None, 1)])
    assert solve_star_discrepancy(single, workers=1000).value == F(1, 2)
    # three open intervals, (0, 1) and its halves; only the halves are empty
    empty = solve_max_empty_box(single, workers=1000)
    assert (empty.volume, empty.candidates_evaluated) == (F(1, 2), 2)
    assert _InlinePool.sizes == [4, 4, 2, 3]
