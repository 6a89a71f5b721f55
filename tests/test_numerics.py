import random
from fractions import Fraction

import pytest

from discrepancy.numerics import format_rational, parse_rational, rational_pow

F = Fraction


def test_pow_examples():
    assert rational_pow(F(65, 64), 2) == F(4225, 4096)
    assert rational_pow(F(1, 2), 0) == 1
    # V = C^k for mu=2, n=3, k=2: C = 1/4, V = 1/16
    assert rational_pow(F(1, 4), 2) == F(1, 16)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        rational_pow(F(1, 2), -1)


def test_pow_is_additive_in_the_exponent():
    rng = random.Random(11)
    for _ in range(100):
        x = F(rng.randint(1, 30), rng.randint(1, 30))
        e1, e2 = rng.randint(0, 16), rng.randint(0, 16)
        assert rational_pow(x, e1 + e2) == rational_pow(x, e1) * rational_pow(x, e2)


def test_string_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        x = F(rng.randint(-500, 500), rng.randint(1, 500))
        assert parse_rational(format_rational(x)) == x
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(4, 2)) == "2"


def test_parse_rejects_decimals_and_garbage():
    for bad in ("0.5", "1e3", "1/2/3", "", "a/b", "1.0/2", "nan"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rejects_zero_denominator():
    for bad in ("1/0", "0/0", "-3/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(bad)


def test_huge_exponents_stay_exact():
    mu = F(2) ** 64
    v = rational_pow(1 / mu, 3)
    assert v == F(1, 2 ** 192)
