"""Acceptance checklist: the clique-equivalence and exact-value contracts,
verified end to end at desk scale against the brute-force clique oracle.

Each numbered check prints one [PASS]/[FAIL] line (run with `pytest -s`)
and enforces its runtime budget.

Two checks assert the form of a contract that the gadget can attain,
which is weaker than its strongest historical wording:

* 03: the largest empty star is C^k on every k-clique instance, and on
  every other instance at most the gap bound C^k/mu, with equality iff
  the graph has a (k-1)-clique.  Attaining C^k/mu needs k-1
  pairwise-adjacent "large" per-plane rectangles, i.e. a (k-1)-clique;
  on edgeless graphs with k = 3 the optimum is C^k/mu^2.  03b checks
  the sharp value C^w (C/mu)^(k-w), w = min(omega(G), k-1).

* 08: no red-free half-space holds k+1 blues (the origin plus one circle
  blue per plane), on any instance, positive ones included; the solver
  says so and so does the Fourier-Motzkin oracle on every (k+1)-subset of
  the blues.  A closed half-plane containing the circle's center meets
  the circle in an arc of at least a semicircle, so it cannot exclude
  both red neighbors of any blue on the arc.  The gadget's threshold is
  k (one blue per plane, no origin), which is also what the eps-net
  reduction uses (eps * |P| = k); 08b verifies that equivalence.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from time import perf_counter

import pytest

from discrepancy import (
    AnchoredBox,
    Box,
    PointSet,
    WeightedPoint,
    box_volume,
    count_in_box,
    critical_grid,
    solve_bichromatic_box,
    solve_bichromatic_halfspace,
    solve_box_discrepancy,
    solve_max_empty_box,
    solve_max_empty_star,
    solve_redblue_box_discrepancy,
    solve_star_discrepancy,
    verify_epsilon_net,
)
from discrepancy.gadgets import (
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
)
from discrepancy.oracles import has_clique, naive_range_enumerate, separable_subset
from conftest import graphs_up_to

F = Fraction


def _finish(num, desc, failures, t0, budget):
    elapsed = perf_counter() - t0
    ok = not failures and elapsed <= budget
    print(f"[{'PASS' if ok else 'FAIL'}] {num}: {desc} ({elapsed:.1f}s, budget {budget}s)")
    assert not failures, f"{num}: " + "; ".join(str(f) for f in failures[:8])
    assert elapsed <= budget, f"{num}: {elapsed:.1f}s exceeded {budget}s"


def _cases(max_n, ks):
    for name, g in graphs_up_to(max_n):
        for k in ks:
            if k <= g.n:
                yield name, g, k


def test_acceptance_01_bichromatic_box_equivalence():
    t0 = perf_counter()
    failures = []
    for name, g, k in _cases(4, (2, 3)):
        if g.n != 4:
            continue  # the stated family: all 11 classes on 4 vertices
        inst = build_bichromatic_gadget(g, k)
        value = solve_bichromatic_box(inst.points).value
        clique = has_clique(g, k)
        if clique and value != k + 1:
            failures.append(f"{name} k={k}: clique but value {value} != {k + 1}")
        if not clique and value > k:
            failures.append(f"{name} k={k}: no clique but value {value} > {k}")
    _finish("01", "red-free box holds k+1 blues iff k-clique", failures, t0, 300)


def test_acceptance_02_redblue_discrepancy_equivalence():
    t0 = perf_counter()
    failures = []
    for name, g, k in _cases(4, (2, 3)):
        if g.n != 4:
            continue
        inst = build_redblue_gadget(g, k)
        value = solve_redblue_box_discrepancy(inst.points).value
        clique = has_clique(g, k)
        if (value == inst.expected_positive) != clique:
            failures.append(
                f"{name} k={k}: value {value}, expected {inst.expected_positive}, clique={clique}"
            )
    _finish("02", "red-blue discrepancy reaches N+k iff k-clique", failures, t0, 300)


def test_acceptance_03_empty_star_exact_values_as_stated():
    t0 = perf_counter()
    failures = []
    for name, g, k in _cases(4, (2, 3)):
        inst = build_empty_star_gadget(g, k, F(2))
        volume = solve_max_empty_star(inst.points).volume
        if has_clique(g, k):
            if volume != inst.expected_positive:
                failures.append(f"{name} k={k}: volume {volume} != {inst.expected_positive}")
            continue
        bound = inst.expected_negative
        if volume > bound:
            failures.append(f"{name} k={k}: volume {volume} above the gap bound {bound}")
        elif (volume == bound) != has_clique(g, k - 1):
            failures.append(
                f"{name} k={k}: volume {volume} vs bound {bound}, "
                f"(k-1)-clique={has_clique(g, k - 1)}"
            )
    _finish(
        "03",
        "largest empty star is C^k (clique), else <= C^k/mu with equality iff (k-1)-clique",
        failures,
        t0,
        120,
    )


def _clique_number(g, cap):
    best = 0
    for size in range(1, cap + 1):
        for sub in combinations(range(1, g.n + 1), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = size
                break
    return best


def test_acceptance_03b_empty_star_sharp_values():
    """Sharp form: the negative optimum is C^w (C/mu)^(k-w) with w the size
    of the largest selectable clique, min(omega(G), k-1); this equals
    C^k/mu exactly when G has a (k-1)-clique and is below it otherwise."""
    t0 = perf_counter()
    failures = []
    for name, g, k in _cases(4, (2, 3)):
        inst = build_empty_star_gadget(g, k, F(2))
        volume = solve_max_empty_star(inst.points).volume
        clique = has_clique(g, k)
        C, mu = inst.params.C, inst.params.mu
        if clique:
            want = inst.expected_positive
        else:
            w = min(_clique_number(g, k), k - 1)
            want = C ** w * (C / mu) ** (k - w)
        if volume != want:
            failures.append(f"{name} k={k}: volume {volume} != {want}")
        if not clique and volume > inst.expected_negative:
            failures.append(f"{name} k={k}: negative volume above C^k/mu")
        if (volume == inst.expected_positive) != clique:
            failures.append(f"{name} k={k}: iff broken")
    _finish("03b", "empty-star sharp negative values and iff", failures, t0, 120)


def test_acceptance_04_inapproximability_gap():
    t0 = perf_counter()
    failures = []
    mu = F(2 ** 64)
    pos = build_empty_star_gadget(Graph.make(2, [(1, 2)]), 2, mu)
    neg = build_empty_star_gadget(Graph.make(2, []), 2, mu)
    vpos = solve_max_empty_star(pos.points).volume
    vneg = solve_max_empty_star(neg.points).volume
    if vpos / vneg != mu:
        failures.append(f"ratio {vpos / vneg} != 2^64")
    _finish("04", "positive/negative empty-star ratio is exactly 2^64", failures, t0, 10)


def test_acceptance_05_gap_parameter_bound():
    t0 = perf_counter()
    failures = []
    for k in range(2, 5):
        for n in range(2, 6):
            for N in range(4, 61):
                t, mu = choose_mu(k, n, N)
                if not mu ** (k * (n - 1)) < F(N, N - 1):
                    failures.append(f"k={k} n={n} N={N}")
    _finish("05", "mu = 1 + 1/(2knN) satisfies mu^(k(n-1)) < N/(N-1)", failures, t0, 10)


def test_acceptance_06_star_discrepancy_equivalence():
    t0 = perf_counter()
    failures = []
    for name, g, k in _cases(3, (2,)):
        inst = build_star_discrepancy_gadget(g, k)
        value = solve_star_discrepancy(inst.points).value
        clique = has_clique(g, k)
        if (value == inst.expected_positive) != clique:
            failures.append(f"{name}: value {value}, V {inst.expected_positive}, clique={clique}")
    spot = build_star_discrepancy_gadget(Graph.make(2, [(1, 2)]), 2)
    spot_value = solve_star_discrepancy(spot.points).value
    if spot_value != F(4096, 4225):
        failures.append(f"single edge n=2: {spot_value} != 4096/4225")
    _finish("06", "star discrepancy equals C^k iff k-clique", failures, t0, 300)


def _lifting_containment_holds(inst):
    """Every critical-grid open box of volume >= 2/3 contains a point iff
    its projection onto each of the point's own planes contains the
    point's projection there."""
    ps = inst.points
    d = ps.dim
    grid = critical_grid(ps, with_zero=True, with_one=True)
    planes = [(2 * i, 2 * i + 1) for i in range(d // 2)]
    pairs_per_dim = []
    for j in range(d):
        vals = grid.values[j]
        pairs_per_dim.append([(a, b) for a in vals for b in vals if a < b])
    for sides in product(*pairs_per_dim):
        vol = F(1)
        for a, b in sides:
            vol *= b - a
        if vol < F(2, 3):
            continue
        for p in ps.points:
            inside = all(a < c < b for c, (a, b) in zip(p.coords, sides))
            own = [
                (x, y)
                for x, y in planes
                if not (p.coords[x] == F(1, 2) and p.coords[y] == F(1, 2))
            ]
            proj = all(
                sides[x][0] < p.coords[x] < sides[x][1]
                and sides[y][0] < p.coords[y] < sides[y][1]
                for x, y in own
            )
            if inside != proj:
                return False
    return True


def test_acceptance_07_lifted_instances():
    t0 = perf_counter()
    failures = []
    edge = Graph.make(2, [(1, 2)])
    hollow = Graph.make(2, [])
    for name, g in (("edge", edge), ("empty", hollow)):
        clique = has_clique(g, 2)
        ebox = build_empty_box_gadget(g, 2)
        got = solve_max_empty_box(ebox.points).volume
        if (got == ebox.expected_positive) != clique:
            failures.append(f"empty-box {name}: {got} vs {ebox.expected_positive}")
        if not clique and got != ebox.expected_negative:
            failures.append(f"empty-box {name}: negative {got} != {ebox.expected_negative}")
        bdisc = build_box_discrepancy_gadget(g, 2)
        val = solve_box_discrepancy(bdisc.points).value
        if (val == bdisc.expected_positive) != clique:
            failures.append(f"box-disc {name}: {val} vs {bdisc.expected_positive}")
        if not _lifting_containment_holds(ebox):
            failures.append(f"lifting containment fails on empty-box {name}")
    _finish("07", "lifted empty-box / box-discrepancy reach C^k iff clique", failures, t0, 600)


def test_acceptance_08_halfspace_threshold_as_specified():
    t0 = perf_counter()
    failures = []
    for name, g, k in _cases(3, (2,)):
        inst = build_halfspace_gadget(g, k)
        if solve_bichromatic_halfspace(inst.points, k + 1).feasible:
            failures.append(f"{name}: solver finds a red-free half-space with {k + 1} blues")
        blues = [p.coords for p in inst.points.points if p.color == "blue"]
        reds = [p.coords for p in inst.points.points if p.color == "red"]
        separable = sum(
            separable_subset(list(sub), reds) for sub in combinations(blues, k + 1)
        )
        if separable:
            failures.append(f"{name}: oracle separates {separable} {k + 1}-subsets of blues")
    _finish("08", "no red-free half-space holds k+1 blues, on any instance", failures, t0, 300)


def test_acceptance_08b_halfspace_and_net_equivalences():
    t0 = perf_counter()
    failures = []
    for name, g, k in _cases(3, (2,)):
        clique = has_clique(g, k)
        inst = build_halfspace_gadget(g, k)
        feasible = solve_bichromatic_halfspace(inst.points, k).feasible
        if feasible != clique:
            failures.append(f"halfspace {name}: m={k} feasible={feasible}, clique={clique}")
        over = solve_bichromatic_halfspace(inst.points, k + 1).feasible
        if over:
            failures.append(f"halfspace {name}: m={k + 1} unexpectedly feasible")
        for family in ("halfspace", "box"):
            net = build_net_instance(g, k, family)
            mask = [p.in_s for p in net.points.points]
            rep = verify_epsilon_net(net.points, mask, net.params.eps, family)
            if rep.is_net != (not clique):
                failures.append(f"net {name} {family}: is_net={rep.is_net}, clique={clique}")
    _finish("08b", "half-space threshold k and eps-net verdicts match clique", failures, t0, 300)


def test_acceptance_08c_halfspace_and_net_at_k3():
    t0 = perf_counter()
    failures = []
    for name, g in graphs_up_to(4):
        if g.n != 4:
            continue
        clique = has_clique(g, 3)
        feasible = solve_bichromatic_halfspace(build_halfspace_gadget(g, 3).points, 3).feasible
        if feasible != clique:
            failures.append(f"halfspace {name}: m=3 feasible={feasible}, clique={clique}")
        if name in ("n4-triangle+iso", "n4-C4"):
            net = build_net_instance(g, 3, "halfspace")
            mask = [p.in_s for p in net.points.points]
            rep = verify_epsilon_net(net.points, mask, net.params.eps, "halfspace")
            if rep.is_net != (not clique):
                failures.append(f"net {name} halfspace: is_net={rep.is_net}, clique={clique}")
    _finish("08c", "k=3 half-space threshold and eps-net verdicts match clique", failures, t0, 60)


def _random_instance(rng):
    d = rng.choice((1, 2, 3))
    cap = {1: 10, 2: 8, 3: 6}[d]
    n = rng.randint(1, cap)
    pts = []
    for idx in range(n):
        den = rng.randint(1, 8)
        coords = tuple(F(rng.randint(0, den), den) for _ in range(d))
        color = "blue" if idx == 0 else rng.choice(("red", "blue"))
        pts.append(WeightedPoint(coords, color, rng.choice((1, 1, 1, 2, 3))))
    return PointSet(d, tuple(pts))


def test_acceptance_09_oracle_equivalence():
    t0 = perf_counter()
    failures = []
    rng = random.Random(20260809)
    problems = (
        ("star-disc", lambda ps: solve_star_discrepancy(ps).value),
        ("box-disc", lambda ps: solve_box_discrepancy(ps).value),
        ("empty-star", lambda ps: solve_max_empty_star(ps).volume),
        ("empty-box", lambda ps: solve_max_empty_box(ps).volume),
        ("bichromatic-box", lambda ps: solve_bichromatic_box(ps).value),
        ("redblue-disc", lambda ps: solve_redblue_box_discrepancy(ps).value),
    )
    for case in range(200):
        ps = _random_instance(rng)
        for problem, solve in problems:
            got = solve(ps)
            want = naive_range_enumerate(ps, problem)
            if got != want:
                failures.append(f"case {case} {problem}: solver {got} != oracle {want}")
    for case in range(100):
        d = rng.choice((1, 2, 3))
        blues = [
            tuple(F(rng.randint(0, 8), 8) for _ in range(d))
            for _ in range(rng.randint(1, 8))
        ]
        reds = [
            tuple(F(rng.randint(0, 8), 8) for _ in range(d))
            for _ in range(rng.randint(0, 6))
        ]
        m = rng.randint(1, 3)
        pts = [WeightedPoint(b, "blue", 1) for b in blues]
        pts += [WeightedPoint(r, "red", 1) for r in reds]
        ps = PointSet(d, tuple(pts))
        got = solve_bichromatic_halfspace(ps, m).feasible
        # subset-by-subset reference: coincident blues aggregate, and a
        # feasible half-space always contains a separable set of at most m
        # distinct blue locations carrying total multiplicity >= m
        mult = {}
        for b in blues:
            mult[b] = mult.get(b, 0) + 1
        distinct = sorted(mult)
        want = False
        if sum(mult.values()) >= m:
            if not reds:
                want = True
            else:
                want = any(
                    separable_subset(list(sub), reds)
                    for size in range(1, min(m, len(distinct)) + 1)
                    for sub in combinations(distinct, size)
                    if sum(mult[b] for b in sub) >= m
                )
        if got != want:
            failures.append(f"halfspace case {case}: solver {got} != oracle {want}")
    _finish("09", "solvers match brute-force oracles on 300 random instances", failures, t0, 600)


def test_acceptance_10_count_excess_bound():
    t0 = perf_counter()
    failures = []
    for name, g, k in _cases(3, (2,)):
        inst = build_star_discrepancy_gadget(g, k)
        ps = inst.points
        N = ps.total_weight
        bound = F(N - 1, N)
        grid = critical_grid(ps, with_one=True)
        worst = None
        for corner in product(*grid.values):
            box = AnchoredBox(corner, closed=True)
            excess = F(count_in_box(ps, box).total, N) - box_volume(box)
            if worst is None or excess > worst:
                worst = excess
        if worst > bound:
            failures.append(f"{name}: excess {worst} > (N-1)/N = {bound}")
    _finish("10", "closed-box count excess stays within (N-1)/N", failures, t0, 60)


def test_acceptance_11_worker_determinism():
    t0 = perf_counter()
    failures = []
    edge = Graph.make(2, [(1, 2)])
    jobs = []
    for name, g, k in _cases(3, (2,)):
        jobs.append((f"bichromatic {name}", build_bichromatic_gadget(g, k).points, solve_bichromatic_box))
        jobs.append((f"redblue {name}", build_redblue_gadget(g, k).points, solve_redblue_box_discrepancy))
        jobs.append((f"empty-star {name}", build_empty_star_gadget(g, k, F(2)).points, solve_max_empty_star))
        jobs.append((f"star-disc {name}", build_star_discrepancy_gadget(g, k).points, solve_star_discrepancy))
    jobs.append(("empty-box edge", build_empty_box_gadget(edge, 2).points, solve_max_empty_box))
    jobs.append(("box-disc edge", build_box_discrepancy_gadget(edge, 2).points, solve_box_discrepancy))
    for name, ps, solve in jobs:
        reps = [solve(ps, workers=w) for w in (1, 2, 8)]
        values = {str(getattr(r, "value", None) or getattr(r, "volume", None)) for r in reps}
        witnesses = {repr(r.witness) for r in reps}
        if len(values) != 1 or len(witnesses) != 1:
            failures.append(f"{name}: outputs differ across worker counts")
    _finish("11", "value and witness identical for 1, 2, and 8 workers", failures, t0, 600)
