import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from discrepancy import (
    Graph,
    build_bichromatic_gadget,
    build_box_discrepancy_gadget,
    build_empty_box_gadget,
    build_empty_star_gadget,
    build_halfspace_gadget,
    build_net_instance,
    build_redblue_gadget,
    build_star_discrepancy_gadget,
    choose_mu,
    lift_points,
    point_set,
)
from discrepancy.gadgets import circle_point
from discrepancy.instances import dumps_instance
from conftest import GRAPHS_N4, GRAPHS_N5, _classes_on, graphs_up_to

F = Fraction


def _coords(inst):
    return {p.coords for p in inst.points.points}


def _raw(inst):
    """`inst` with every coordinate multiplied by n + 1: a box gadget's
    integer and half-integer construction coordinates."""
    scale = inst.params.n + 1
    pts = tuple(replace(p, coords=tuple(c * scale for c in p.coords)) for p in inst.points.points)
    return replace(inst, points=replace(inst.points, points=pts))


def test_graph_validation():
    with pytest.raises(ValueError, match="loops"):
        Graph.make(2, [(1, 1)])
    with pytest.raises(ValueError, match="range"):
        Graph.make(2, [(1, 3)])
    g = Graph.make(3, [(1, 2), (2, 1)])
    assert len(g.edges) == 1 and g.has_edge(2, 1)


def test_degenerate_reduction_errors(k3):
    for build in (build_bichromatic_gadget, build_redblue_gadget):
        with pytest.raises(ValueError, match="degenerate"):
            build(k3, 1)
    with pytest.raises(ValueError, match="degenerate"):
        build_bichromatic_gadget(Graph.make(1, []), 2)


# ---------------------------------------------------------------------------
# Box reduction scaffolding


def test_bichromatic_k3_counts_and_coordinates(k3):
    inst = _raw(build_bichromatic_gadget(k3, 2))
    blues = inst.points.colored("blue")
    reds = inst.points.colored("red")
    assert len(blues) == 7 and len(reds) == 7 and inst.params.N == 14
    coords = _coords(inst)
    assert (F(2), F(2), F(0), F(0)) in coords  # vertex 2 in plane 1
    assert (F(3, 2), F(5, 2), F(0), F(0)) in coords  # separator after vertex 1
    assert (F(1), F(3), F(1), F(3)) in coords  # kill point for the (1,1) pair
    assert inst.expected_positive == 3


def test_bichromatic_empty_graph_kills_every_pair(empty2):
    inst = _raw(build_bichromatic_gadget(empty2, 2))
    reds = _coords(inst) - {p.coords for p in inst.points.colored("blue")}
    for u, v in product((1, 2), repeat=2):
        assert (F(u), F(3 - u), F(v), F(3 - v)) in reds


def test_normalized_coordinates_inside_unit_cube():
    for name, g in graphs_up_to(4):
        inst = build_bichromatic_gadget(g, 2)
        assert all(0 <= c <= 1 for p in inst.points.points for c in p.coords), name
        assert inst.points.dim == 4


def test_kill_points_deduplicated(k3):
    # loop kill points coincide across the two plane orders: 3 per plane pair
    inst = _raw(build_bichromatic_gadget(k3, 2))
    reds = [p.coords for p in inst.points.colored("red")]
    assert len(reds) == len(set(reds)) == 7


def test_redblue_origin_weight_and_expected(k3):
    inst = build_redblue_gadget(k3, 2)
    origin = [p for p in inst.points.points if all(c == 0 for c in p.coords)]
    assert len(origin) == 1 and origin[0].weight == 14
    assert inst.expected_positive == 16
    assert inst.params.N == inst.points.total_weight == 27


def test_redblue_per_plane_balance(k3):
    # in any contiguous run of a plane's diagonal scaffold, blue - red is 0 or 1
    inst = _raw(build_bichromatic_gadget(k3, 2))
    n = k3.n
    for plane in (0, 1):
        row = []
        for v in range(1, n + 1):
            row.append(("blue", F(v)))
            if v < n:
                row.append(("red", F(v) + F(1, 2)))
        for i in range(len(row)):
            for j in range(i, len(row)):
                run = row[i : j + 1]
                diff = sum(1 for c, _ in run if c == "blue") - sum(
                    1 for c, _ in run if c == "red"
                )
                assert diff in (-1, 0, 1)


# ---------------------------------------------------------------------------
# Hyperbolic scaffold


def test_empty_star_scaffold_coordinates():
    g = build_empty_star_gadget(Graph.make(3, [(1, 2)]), 2, F(2))
    plane1 = {
        (p.coords[0], p.coords[1])
        for p in g.points.points
        if p.coords[2] == 0 and p.coords[3] == 0
    }
    expected = {(F(1, 8), F(1)), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (F(1), F(1, 8))}
    assert expected <= plane1
    # the u=2 corner choice for n=3, mu=2
    assert (F(2) * F(1, 4), F(1, 2)) == (F(1, 2), F(1, 2))


def test_empty_star_single_edge_constants(single_edge):
    inst = build_empty_star_gadget(single_edge, 2, F(2))
    assert inst.params.C == F(1, 2)
    assert inst.expected_positive == F(1, 4)
    assert inst.expected_negative == F(1, 8)
    assert inst.params.N == inst.points.total_weight == 8


def test_empty_star_rejects_small_mu(single_edge):
    with pytest.raises(ValueError, match="mu"):
        build_empty_star_gadget(single_edge, 2, F(1))


def test_hyperbolic_nonzero_coords_in_unit_interval():
    for name, g in graphs_up_to(4):
        inst = build_empty_star_gadget(g, 2, F(2))
        for p in inst.points.points:
            for c in p.coords:
                assert 0 <= c <= 1, name
                if c != 0:
                    assert c > 0
        assert inst.points.dim == 4
        assert inst.points.total_weight == inst.params.N


def test_plane_rectangles_avoiding_blocked_regions_have_area_C_over_mu():
    # per-plane check: every empty anchored rectangle that intersects no
    # blocked region F(u) has area at most C/mu, and the bound is attained
    for n in (2, 3, 4):
        mu = F(2)
        C = 1 / mu ** (n - 1)
        scaffold = [(C * mu ** (u - 1), mu ** (-u)) for u in range(0, n + 1)]
        f_corners = [(C * mu ** (u - 2), mu ** (-u)) for u in range(1, n + 1)]
        xs = sorted({x for x, _ in scaffold + f_corners} | {F(1)})
        ys = sorted({y for _, y in scaffold + f_corners} | {F(1)})
        best = F(0)
        for cx, cy in product(xs, ys):
            if any(px < cx and py < cy for px, py in scaffold):
                continue  # not empty
            if any(fx < cx and fy < cy for fx, fy in f_corners):
                continue  # intersects a blocked region
            best = max(best, cx * cy)
        assert best == C / mu, n


def test_choose_mu_examples():
    assert choose_mu(2, 2, 8) == (64, F(65, 64))
    assert choose_mu(2, 3, 20) == (240, F(241, 240))
    assert choose_mu(3, 4, 50) == (1200, F(1201, 1200))
    t, mu = choose_mu(2, 3, 20)
    assert mu ** 4 < F(20, 19)
    with pytest.raises(ValueError, match="parameters too small for the gap bound"):
        choose_mu(1, 3, 5)


def test_choose_mu_bound_sweep():
    rng = random.Random(2)
    for _ in range(60):
        k = rng.randint(2, 4)
        n = rng.randint(2, 5)
        N = rng.randint(4, 60)
        t, mu = choose_mu(k, n, N)
        assert t == 2 * k * n * N
        assert mu == 1 + F(1, t)
        assert mu ** (k * (n - 1)) < F(N, N - 1)


def test_star_discrepancy_gadget_single_edge(single_edge):
    inst = build_star_discrepancy_gadget(single_edge, 2)
    assert inst.params.N == 8
    assert inst.params.mu == F(65, 64)
    assert inst.params.t == 64
    assert inst.expected_positive == F(4096, 4225)
    assert inst.expected_positive > F(7, 8)  # C^k > (N-1)/N


def test_lift_examples():
    ps = point_set(4, [((F(1), F(3), F(0), F(0)), None, 1)])
    assert lift_points(ps).points[0].coords == (F(1), F(3), F(1, 2), F(1, 2))
    zeros = point_set(4, [((F(0),) * 4, None, 1)])
    assert lift_points(zeros).points[0].coords == (F(1, 2),) * 4
    untouched = point_set(4, [((F(1, 4), F(1), F(1, 8), F(1)), None, 1)])
    assert lift_points(untouched).points[0].coords == (F(1, 4), F(1), F(1, 8), F(1))


def test_empty_box_gadget_lands_in_upper_half(single_edge):
    inst = build_empty_box_gadget(single_edge, 2)
    for p in inst.points.points:
        for c in p.coords:
            assert F(1, 2) <= c <= 1
    assert inst.expected_positive > F(2, 3)


def test_box_discrepancy_gadget_constants(single_edge):
    inst = build_box_discrepancy_gadget(single_edge, 2)
    assert inst.params.N == 10
    assert inst.params.t == 2 * 2 * 2 * 10 == 80
    assert inst.params.mu == F(81, 80)
    coords = _coords(inst)
    assert (F(0),) * 4 in coords and (F(1),) * 4 in coords


def test_box_discrepancy_full_cube_balances(single_edge):
    from discrepancy import AnchoredBox, box_volume, count_in_box

    inst = build_box_discrepancy_gadget(single_edge, 2)
    full = AnchoredBox((F(1),) * 4, closed=True)
    tally = count_in_box(inst.points, full)
    assert F(tally.total, inst.points.total_weight) - box_volume(full) == 0


# ---------------------------------------------------------------------------
# Half-space gadget


def test_circle_parametrization():
    assert circle_point(F(1, 2)) == (F(3, 5), F(4, 5))
    for t in (F(0), F(1, 8), F(1, 4), F(7, 8), F(1)):
        x, y = circle_point(t)
        assert x * x + y * y == 1


def test_halfspace_gadget_blue_and_guard_parameters(k3):
    inst = build_halfspace_gadget(k3, 2)
    plane1_blue = {
        (p.coords[0], p.coords[1])
        for p in inst.points.colored("blue")
        if any(c != 0 for c in p.coords[:2])
    }
    assert plane1_blue == {circle_point(F(v, 4)) for v in (1, 2, 3)}
    plane1_red = {
        (p.coords[0], p.coords[1])
        for p in inst.points.colored("red")
        if any(c != 0 for c in p.coords[:2]) and all(c == 0 for c in p.coords[2:])
    }
    assert {circle_point(F(1, 8)), circle_point(F(7, 8))} <= plane1_red
    assert inst.expected_positive == 2  # one blue per plane; see module docs


def test_halfspace_kill_points_are_midpoints(empty2):
    inst = build_halfspace_gadget(empty2, 2)
    b1 = circle_point(F(1, 3))
    b2 = circle_point(F(2, 3))
    reds = _coords(inst)
    mid = tuple(
        (a + b) / 2
        for a, b in zip(b1 + (F(0), F(0)), (F(0), F(0)) + b2)
    )
    assert mid in reds


def test_net_instance_thresholds(k3):
    box = build_net_instance(k3, 2, "box")
    hsp = build_net_instance(k3, 2, "halfspace")
    assert box.params.eps == F(3, box.points.total_weight)
    assert hsp.params.eps == F(2, hsp.points.total_weight)
    assert all(p.in_s == (p.color == "red") for p in box.points.points)
    with pytest.raises(ValueError, match="family"):
        build_net_instance(k3, 2, "simplex")


# ---------------------------------------------------------------------------
# End-to-end clique equivalences beyond the acceptance scopes


def test_end_to_end_iff_extended():
    from discrepancy import (
        solve_bichromatic_halfspace,
        solve_box_discrepancy,
        solve_max_empty_box,
        solve_star_discrepancy,
    )
    from discrepancy.oracles import has_clique

    for name, g in graphs_up_to(4):
        if g.n != 4:
            continue
        inst = build_star_discrepancy_gadget(g, 2)
        got = solve_star_discrepancy(inst.points).value
        assert (got == inst.expected_positive) == has_clique(g, 2), name
        hsp = build_halfspace_gadget(g, 2)
        assert solve_bichromatic_halfspace(hsp.points, 2).feasible == has_clique(g, 2), name
    for name, g in graphs_up_to(3):
        if g.n != 3:
            continue
        ebox = build_empty_box_gadget(g, 2)
        rep = solve_max_empty_box(ebox.points)
        clique = has_clique(g, 2)
        assert (rep.volume == ebox.expected_positive) == clique, name
        if not clique:
            assert rep.volume == ebox.expected_negative, name
        bdisc = build_box_discrepancy_gadget(g, 2)
        got = solve_box_discrepancy(bdisc.points).value
        assert (got == bdisc.expected_positive) == clique, name


# ---------------------------------------------------------------------------
# Structural invariants across all gadgets


def test_all_gadgets_recompute_weight_and_dimension():
    builders = [
        lambda g, k: build_bichromatic_gadget(g, k),
        lambda g, k: build_redblue_gadget(g, k),
        lambda g, k: build_empty_star_gadget(g, k, F(2)),
        build_star_discrepancy_gadget,
        build_empty_box_gadget,
        build_box_discrepancy_gadget,
        build_halfspace_gadget,
        lambda g, k: build_net_instance(g, k, "box"),
        lambda g, k: build_net_instance(g, k, "halfspace"),
    ]
    for name, g in graphs_up_to(3):
        for build in builders:
            inst = build(g, 2)
            assert inst.points.total_weight == inst.params.N, (name, inst.problem)
            assert inst.points.dim == 2 * inst.params.k, (name, inst.problem)


def test_point_count_limit_is_the_built_count(monkeypatch):
    """The closed-form count that MAX_GADGET_POINTS bounds is exactly the
    number of points each gadget type builds: a limit one below refuses it,
    naming the count."""
    from discrepancy import gadgets

    for name, g in graphs_up_to(4):
        for k in (2, 3):
            for kind, build in _PINNED_BUILDS.items():
                monkeypatch.undo()
                n_points = len(build(g, k)[0].points)
                monkeypatch.setattr(gadgets, "MAX_GADGET_POINTS", n_points - 1)
                with pytest.raises(ValueError, match=f"would have {n_points} points"):
                    build(g, k)
                monkeypatch.setattr(gadgets, "MAX_GADGET_POINTS", n_points)
                assert len(build(g, k)[0].points) == n_points, (name, k, kind)


def test_graph_classes_up_to_five_vertices():
    # the generator reproduces the hand-written class counts and finds 34 on 5
    assert [len(_classes_on(n)) for n in (2, 3, 4, 5)] == [2, 4, len(GRAPHS_N4), 34]
    assert [name for name, _ in graphs_up_to(5)][-34:] == [f"n5-{name}" for name in GRAPHS_N5]


# One sha256 per gadget type over dumps_instance of its output on every graph
# class with at most five vertices at k = 2 and 3 (bichromatic and redblue
# as built, then scaled by `_raw`).  Pins every coordinate, constant and the
# point order.
_PINNED_BUILDS = {
    "bichromatic": lambda g, k: [inst := build_bichromatic_gadget(g, k), _raw(inst)],
    "redblue": lambda g, k: [inst := build_redblue_gadget(g, k), _raw(inst)],
    "empty-star": lambda g, k: [build_empty_star_gadget(g, k, F(2))],
    "star-disc": lambda g, k: [build_star_discrepancy_gadget(g, k)],
    "empty-box": lambda g, k: [build_empty_box_gadget(g, k)],
    "box-disc": lambda g, k: [build_box_discrepancy_gadget(g, k)],
    "halfspace": lambda g, k: [build_halfspace_gadget(g, k)],
    "net-halfspace": lambda g, k: [build_net_instance(g, k, "halfspace")],
    "net-box": lambda g, k: [build_net_instance(g, k, "box")],
}
GADGET_DIGESTS = {
    "bichromatic": "cc4218c5a282fa4b53f5d245514547fe50c6eac55c1dc0adf21e56e7c88d59ef",
    "redblue": "ec10761cf1afe888b1d8b0f94f8c8159a50e348a60b961e1fd341a93f0e7cdbd",
    "empty-star": "b2730bb780c247186343f6fecbb270b609759fd5faef848cea6e9c55245f6e4d",
    "star-disc": "e5cbbee9a9ff8427037cf93e92c03ec1d3fe36b27258ccfbfbedeac67b7309ba",
    "empty-box": "a6c3169ed88ebb214405454f8e7ef18627782e0a44586350609775c418a8f91e",
    "box-disc": "af6a23b6ec7ebe9fde606e8db063b6322394f754d2193d8431e4f4feab24677e",
    "halfspace": "d9d7afef653bd31f4de32db779567ce9caa5ff8b9696a56491c5cca5cba16694",
    "net-halfspace": "1dd581eada60a2963b6eae41b035c2f1ebf6125ae31ff276079f6a93ec1c7296",
    "net-box": "63323b7f379655a8fbf1900218cc238a28943f56288eeeec08c5f6c579c2b09d",
}


# The same builds at k = 4 (dimension 8).
GADGET_DIGESTS_K4 = {
    "bichromatic": "5f2cacc2bcbd0040ceed302171cd353ca1db096f154a1c9118270594bbb0bee8",
    "redblue": "9789674eea00c20a3f0509ba727f12ce29c9a192e7b858d904619f7b6bbec647",
    "empty-star": "6e3daf562402f4285ae3aa42f5cfef3f39b4f487a05cca8f89f190a40753e10e",
    "star-disc": "a6142acb603ebccd1484f900e98b4d0812e4f35482656948e68149156ed4fb57",
    "empty-box": "ed1c1acfffe4eda28c6c6f27fdfc7cc190b5b531c249fac1aae43aaf214f818d",
    "box-disc": "becc972be9224562cbce24bbcdc5f36137476f8a21efa28e12e343afff42700f",
    "halfspace": "d5b6b00a690d1c5c481145b51ba54f04aa036177dc20a59148d8ba6018969c1f",
    "net-halfspace": "7f403ddffa24aa55dee5c59ed041749d0aab4a73e4b797a3fc864d167d8096c1",
    "net-box": "25d0387820d58f6d9e979f8971544ec6d53a8b87f08be9f72e8ae22f35cde3b5",
}


def _compiler_digest(kind, ks):
    digest = hashlib.sha256()
    for _, g in graphs_up_to(5):
        for k in ks:
            for inst in _PINNED_BUILDS[kind](g, k):
                digest.update(dumps_instance(inst).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", list(GADGET_DIGESTS))
def test_compiler_output_is_pinned(kind):
    assert _compiler_digest(kind, (2, 3)) == GADGET_DIGESTS[kind]


@pytest.mark.parametrize("kind", list(GADGET_DIGESTS_K4))
def test_compiler_output_is_pinned_at_k4(kind):
    assert _compiler_digest(kind, (4,)) == GADGET_DIGESTS_K4[kind]
