import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest

from discrepancy.oracles import _fm_feasible, separable_subset
from discrepancy.separation import feasible_point

F = Fraction


def _check(rows, nvars, x):
    for coeffs, rhs in rows:
        assert sum(a * b for a, b in zip(coeffs, x)) <= rhs


def _scaled_rows(rows):
    """Each row times the lcm of its denominators, as integers."""
    out = []
    for coeffs, rhs in rows:
        scale = lcm(*(e.denominator for e in (*coeffs, rhs)))
        out.append((tuple(int(c * scale) for c in coeffs), int(rhs * scale)))
    return out


def _solve(rows, nvars):
    return feasible_point(_scaled_rows(rows), nvars)


def test_simple_feasible_system():
    rows = [((F(1), F(0)), F(2)), ((F(-1), F(0)), F(0)), ((F(0), F(1)), F(1))]
    x = _solve(rows, 2)
    assert x is not None
    _check(rows, 2, x)


def test_infeasible_system():
    rows = [((F(1),), F(0)), ((F(-1),), F(-1))]  # x <= 0 and x >= 1
    assert _solve(rows, 1) is None


def test_negative_rhs_needs_artificials():
    rows = [((F(1), F(1)), F(-3)), ((F(-1), F(0)), F(5))]
    x = _solve(rows, 2)
    assert x is not None
    _check(rows, 2, x)


def test_trivial_rows():
    # With no nonzero row nothing enters, and the witness is all ones.
    assert _solve([((F(0),), F(1))], 1) == [F(1)]
    assert _solve([((F(0),), F(-1))], 1) is None
    assert _solve([], 3) == [F(1)] * 3


def test_a_zero_row_does_not_hide_a_later_bad_row():
    # An infeasible zero row decides nothing before every row is checked.
    with pytest.raises(ValueError):
        feasible_point([((0,), -1), ((F(1),), 1)], 1)
    with pytest.raises(ValueError):
        feasible_point([((0,), -1), ((1, 2), 1)], 1)


def test_separation_system_margin_form():
    # blues (0,0),(1,1); red (1/2,1/2): convexity forces infeasibility
    rows = [
        ((F(0), F(0), F(-1)), F(0)),
        ((F(1), F(1), F(-1)), F(0)),
        ((F(-1, 2), F(-1, 2), F(1)), F(-1)),
    ]
    assert _solve(rows, 3) is None


def test_agrees_with_fourier_motzkin_on_random_separations():
    rng = random.Random(99)
    for _ in range(120):
        d = rng.randint(1, 3)
        blues = [
            tuple(F(rng.randint(0, 6), 6) for _ in range(d))
            for _ in range(rng.randint(1, 3))
        ]
        reds = [
            tuple(F(rng.randint(0, 6), 6) for _ in range(d))
            for _ in range(rng.randint(0, 4))
        ]
        rows = [(b + (F(-1),), F(0)) for b in blues]
        rows += [(tuple(-c for c in r) + (F(1),), F(-1)) for r in reds]
        x = _solve(rows, d + 1)
        assert (x is not None) == separable_subset(blues, reds)
        if x is not None:
            _check(rows, d + 1, x)


def _random_general_system(rng):
    nvars = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(nvars + 1, nvars + 4)):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(rng.choice(rows))  # duplicate row
            continue
        if roll < 0.25:
            coeffs = (F(0),) * nvars  # zero row
        else:
            coeffs = tuple(
                F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.8 else F(0)
                for _ in range(nvars)
            )
        rhs = F(rng.randint(-4, 4), rng.randint(1, 2)) if rng.random() < 0.7 else F(0)
        rows.append((coeffs, rhs))
    return rows, nvars


def test_agrees_with_fourier_motzkin_on_random_general_systems():
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(300):
        rows, nvars = _random_general_system(rng)
        x = _solve(rows, nvars)
        assert (x is not None) == _fm_feasible(rows, nvars), rows
        if x is not None:
            assert len(x) == nvars
            _check(rows, nvars, x)
        verdicts.add(x is not None)
    assert verdicts == {True, False}


_DENOMINATORS = (1, 3, 2**31 - 1, 2**61 - 1, 2**64)


def _big_denominator_system(rng):
    nvars = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(2, nvars + 4)):
        roll = rng.random()
        if rows and roll < 0.3:
            coeffs, rhs = rng.choice(rows)
            if roll < 0.15:
                # the same row at another positive scale
                s = F(rng.randint(1, 2**64), rng.choice(_DENOMINATORS))
                rows.append((tuple(s * c for c in coeffs), s * rhs))
            else:
                # its opposite, a sliver past or short of its bound
                shift = F(rng.choice((-1, 1)), rng.choice(_DENOMINATORS[1:]))
                rows.append((tuple(-c for c in coeffs), -rhs + shift))
            continue
        if roll < 0.5:
            coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(nvars))  # fractional rhs only
        else:
            coeffs = tuple(
                F(rng.randint(-2**64, 2**64), rng.choice(_DENOMINATORS)) for _ in range(nvars)
            )
        rows.append((coeffs, F(rng.randint(-2**64, 2**64), rng.choice(_DENOMINATORS))))
    return rows, nvars


def test_agrees_with_fourier_motzkin_with_denominators_up_to_2_64():
    rng = random.Random(64)
    verdicts = []
    for _ in range(200):
        rows, nvars = _big_denominator_system(rng)
        x = _solve(rows, nvars)
        assert (x is not None) == _fm_feasible(rows, nvars), rows
        if x is not None:
            assert len(x) == nvars
            _check(rows, nvars, x)
        verdicts.append(x is not None)
    assert 40 <= sum(verdicts) <= 160


def _margin_rows(blues, reds):
    rows = [(b + (F(-1),), F(0)) for b in blues]
    return rows + [(tuple(-c for c in r) + (F(1),), F(-1)) for r in reds]


def _convex_combination(rng, points):
    weights = [F(rng.randint(1, 4)) for _ in points]
    total = sum(weights)
    return tuple(
        sum(w * p[j] for w, p in zip(weights, points)) / total for j in range(len(points[0]))
    )


def _planted_systems():
    # d = 4-5 with 1-3 blues and 10-20 reds, as in the half-space gadgets'
    # subset systems.  Fourier-Motzkin is too slow at this size, so each
    # verdict is planted: either a strictly separating hyperplane exists by
    # construction, or one point lies in the convex hull of the other color.
    rng = random.Random(4)
    for trial in range(60):
        d = rng.randint(4, 5)
        pts = {tuple(F(rng.randint(0, 8), 8) for _ in range(d)) for _ in range(40)}
        pts = sorted(pts)
        nblue, nred = rng.randint(1, 3), rng.randint(10, 20)
        if trial % 2 == 0:
            normal = tuple(rng.randint(-3, 3) for _ in range(d))
            if not any(normal):
                normal = (1,) + normal[1:]
            pts.sort(key=lambda p: sum(a * c for a, c in zip(normal, p)))
            blues = pts[:nblue]
            top = sum(a * c for a, c in zip(normal, blues[-1]))
            reds = [p for p in pts[nblue:] if sum(a * c for a, c in zip(normal, p)) > top][:nred]
            expected = True
        else:
            rng.shuffle(pts)
            blues, reds = pts[:nblue], pts[nblue:nblue + nred]
            if trial % 4 == 1:
                reds[rng.randrange(len(reds))] = _convex_combination(rng, blues)
            else:
                blues[0] = _convex_combination(rng, rng.sample(reds, rng.randint(2, 3)))
            expected = False
        assert len(reds) >= 10
        yield blues, reds, d, expected


def test_planted_verdicts_at_gadget_shape():
    for blues, reds, d, expected in _planted_systems():
        rows = _margin_rows(blues, reds)
        x = _solve(rows, d + 1)
        assert (x is not None) == expected, (blues, reds)
        if x is not None:
            _check(rows, d + 1, x)


def _pinned_systems(rng):
    """200 random general systems, 100 with large denominators, the planted
    gadget-shape systems and 4 with zero rows."""
    systems = [_random_general_system(rng) for _ in range(200)]
    systems += [_big_denominator_system(rng) for _ in range(100)]
    systems += [(_margin_rows(b, r), d + 1) for b, r, d, _ in _planted_systems()]
    return systems + [
        ([((F(0), F(0)), F(1, 3))], 2),
        ([((F(0), F(0)), F(-1, 3))], 2),
        ([((F(0),), F(0)), ((F(2, 3),), F(-1, 2))], 1),
        ([((F(0), F(0)), F(-2, 7)), ((F(1, 2), F(1)), F(1))], 2),
    ]


# One sha256 over (verdict, exact witness) on every pinned system.  Bland's
# choices fix one witness per system, so any change to an entering column,
# a leaving row or a multiplier shows here.
FEASIBLE_POINT_DIGEST = "1629268586c10096e8e6dc9a0c3a2c1a9ed541b133e58ea639cc7511a5cdb845"


def test_verdicts_and_witnesses_are_pinned():
    digest = hashlib.sha256()
    for rows, nvars in _pinned_systems(random.Random(15)):
        x = feasible_point(_scaled_rows(rows), nvars)
        line = "None" if x is None else " ".join(f"{v.numerator}/{v.denominator}" for v in x)
        digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == FEASIBLE_POINT_DIGEST


def test_positive_row_multiples_leave_verdict_and_witness_unchanged():
    # A positive multiple of a row scales its column of the Farkas
    # alternative, which changes none of Bland's choices and no multiplier,
    # so the verdict and the exact witness must not move.
    rng = random.Random(15)
    systems = _pinned_systems(rng)
    verdicts = set()
    for rows, nvars in systems:
        ints = _scaled_rows(rows)
        x = feasible_point(ints, nvars)
        for _ in range(3):
            multiples = [rng.choice((1, 2, 3, rng.randint(1, 2**70))) for _ in ints]
            scaled = [
                (tuple(s * c for c in coeffs), s * rhs) for s, (coeffs, rhs) in zip(multiples, ints)
            ]
            assert feasible_point(scaled, nvars) == x, (rows, multiples)
        verdicts.add(x is not None)
    assert verdicts == {True, False}


# Only int entries are accepted: a Fraction row is the caller's to scale.
@pytest.mark.parametrize("bad", [0.5, "1/2", True, None, F(1, 2), F(2)])
def test_entries_that_are_not_int_or_fraction_are_rejected(bad):
    with pytest.raises(ValueError):
        feasible_point([((1, bad), 1)], 2)
    with pytest.raises(ValueError):
        feasible_point([((1, 0), 1), ((1, 1), bad)], 2)
