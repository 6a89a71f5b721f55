"""Exact rational scalars.

Every coordinate, volume, and discrepancy value in this package is a
`fractions.Fraction`; no floating point appears on any solver-critical
path.  `Fraction` already maintains the canonical form the toolkit relies
on (gcd-reduced, denominator > 0) and its integers are arbitrary
precision, which matters because the inapproximability experiment scales
the gap parameter to 2**64 and beyond.

Serialization is the exact string "p/q" ("p" when q == 1, sign on the
numerator).  Decimal notation is refused on input: instances built around
values like 65/64 are destroyed by any rounding.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def rational_pow(base: Fraction, exp: int) -> Fraction:
    """base**exp for exp >= 0; reciprocals are spelled out at call sites."""
    if exp < 0:
        raise ValueError(f"negative exponent: {exp}")
    return base ** exp


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p".  Decimal and exponent notation and a zero
    denominator are rejected with ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s:
        num, den = (int(part) for part in s.split("/"))
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form ("p" when the denominator is 1)."""
    return str(value)
