"""Property tests for the six box solvers on small drawn point sets.

Coordinates are quarters in [0, 1], so duplicates and the faces 0 and 1
come up often; d = 1 is drawn too, where the last (swept) dimension is also
the one the worker partition splits.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from discrepancy import (  # noqa: E402
    BLUE,
    RED,
    AnchoredBox,
    Box,
    PointSet,
    WeightedPoint,
    box_volume,
    count_in_box,
    solve_bichromatic_box,
    solve_box_discrepancy,
    solve_max_empty_box,
    solve_max_empty_star,
    solve_redblue_box_discrepancy,
    solve_star_discrepancy,
)

SOLVERS = (
    solve_star_discrepancy,
    solve_box_discrepancy,
    solve_max_empty_star,
    solve_max_empty_box,
    solve_bichromatic_box,
    solve_redblue_box_discrepancy,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def point_sets(draw):
    """1 to 5 points in d = 1..3, the first one blue so that every solver
    accepts the set."""
    d = draw(st.integers(1, 3))
    coord = st.integers(0, 4).map(lambda i: Fraction(i, 4))
    n = draw(st.integers(1, 5))
    pts = []
    for idx in range(n):
        coords = tuple(draw(coord) for _ in range(d))
        color = BLUE if idx == 0 else draw(st.sampled_from((RED, BLUE, None)))
        pts.append(WeightedPoint(coords, color, draw(st.integers(1, 3))))
    return PointSet(d, tuple(pts))


def _outcome(rep):
    value = getattr(rep, "volume", None)
    if value is None:
        value = rep.value
    return value, rep.witness, getattr(rep, "side", None)


def _recount(ps, solve, rep):
    """The value the witness alone gives, recounted point by point."""
    if solve in (solve_max_empty_star, solve_max_empty_box):
        assert not rep.witness.closed
        assert count_in_box(ps, rep.witness).total == 0
        return box_volume(rep.witness)
    if solve is solve_bichromatic_box:
        if rep.witness is None:
            return 0
        tally = count_in_box(ps, rep.witness)
        assert tally.red == 0
        return tally.blue
    tally = count_in_box(ps, rep.witness)
    if solve is solve_redblue_box_discrepancy:
        return tally.blue - tally.red if rep.side == "excess" else tally.red - tally.blue
    assert rep.witness.closed == (rep.side == "excess")
    if solve is solve_star_discrepancy:
        assert isinstance(rep.witness, AnchoredBox)
    share = Fraction(tally.total, ps.total_weight)
    vol = box_volume(rep.witness)
    return share - vol if rep.side == "excess" else vol - share


@SETTINGS
@given(point_sets())
def test_every_witness_recounts_to_the_reported_value(ps):
    for solve in SOLVERS:
        rep = solve(ps)
        assert _recount(ps, solve, rep) == _outcome(rep)[0], solve.__name__


@SETTINGS
@given(point_sets())
def test_a_weight_acts_as_coincident_unit_copies(ps):
    copies = PointSet(
        ps.dim,
        tuple(
            WeightedPoint(p.coords, p.color, 1)
            for p in ps.points
            for _ in range(p.weight)
        ),
    )
    for solve in SOLVERS:
        assert _outcome(solve(ps)) == _outcome(solve(copies)), solve.__name__


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_one_and_two_workers_agree(ps):
    for solve in SOLVERS:
        assert _outcome(solve(ps, workers=1)) == _outcome(solve(ps, workers=2)), solve.__name__


def _mapped(ps, f):
    """The set with every point's coordinate tuple replaced by f(coords)."""
    return PointSet(ps.dim, tuple(WeightedPoint(f(p.coords), p.color, p.weight) for p in ps.points))


@SETTINGS
@given(point_sets(), st.data())
def test_permuting_dimensions_keeps_the_value_and_a_recounting_witness(ps, data):
    perm = data.draw(st.permutations(range(ps.dim)))
    permuted = _mapped(ps, lambda c: tuple(c[i] for i in perm))
    for solve in SOLVERS:
        rep = solve(permuted)
        assert _outcome(rep)[0] == _outcome(solve(ps))[0], solve.__name__
        assert _recount(permuted, solve, rep) == _outcome(rep)[0], solve.__name__


@SETTINGS
@given(point_sets())
def test_majority_scans_ignore_an_order_preserving_coordinate_map(ps):
    """Squaring keeps every coordinate order, so the value stays and the
    witness faces are the squares of the old ones: the same ranks."""

    def square(c):
        return tuple(x * x for x in c)

    squared = _mapped(ps, square)
    for solve in (solve_bichromatic_box, solve_redblue_box_discrepancy):
        rep, old = solve(squared), solve(ps)
        assert rep.value == old.value, solve.__name__
        if old.witness is not None:
            assert rep.witness == Box(square(old.witness.lower), square(old.witness.upper), True)
