"""Points, colored weighted point sets, ranges, and exact counting.

Range conventions used throughout the toolkit:

* An anchored box has its lower corner at the origin.  The open variant is
  the set {y : 0 <= y_j < x_j}: the lower boundary at 0 stays inclusive,
  so the origin point lies in every anchored box of positive extent.  The
  closed variant is {y : 0 <= y_j <= x_j}.
* A free box is open ({y : a_j < y_j < b_j}) or closed
  ({y : a_j <= y_j <= b_j}).  Degenerate boxes (a_j == b_j somewhere) are
  legal ranges of volume zero; a degenerate closed box at a point mass is
  exactly how a single point attains discrepancy 1.
* A half-space is the closed set {x : normal . x <= offset}; counting
  classifies points three ways by the exact sign of normal . p - offset.

Counting is weight-aware everywhere: a point of weight w behaves exactly
as w coincident copies, which is how the red-blue reduction encodes many
origin copies without materializing them.

All types are immutable after construction and the counting operations are
pure, so everything here is safe to share between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

RED = "red"
BLUE = "blue"
_COLORS = (RED, BLUE, None)

Point = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class WeightedPoint:
    coords: Point
    color: Optional[str] = None
    weight: int = 1
    in_s: bool = False

    def __post_init__(self) -> None:
        if self.color not in _COLORS:
            raise ValueError(f"unknown color: {self.color!r}")
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")


@dataclass(frozen=True)
class PointSet:
    """A d-dimensional set of weighted, optionally red/blue colored points."""

    dim: int
    points: tuple[WeightedPoint, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        for p in self.points:
            if len(p.coords) != self.dim:
                raise ValueError("dimension mismatch")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def total_weight(self) -> int:
        return sum(p.weight for p in self.points)

    def color_weight(self, color: Optional[str]) -> int:
        return sum(p.weight for p in self.points if p.color == color)

    def colored(self, color: Optional[str]) -> tuple[WeightedPoint, ...]:
        return tuple(p for p in self.points if p.color == color)


def point_set(dim: int, items: Iterable[tuple]) -> PointSet:
    """Build a PointSet from (coords, color, weight[, in_s]) tuples."""
    pts = []
    for item in items:
        coords, color, weight = item[0], item[1], item[2]
        in_s = item[3] if len(item) > 3 else False
        pts.append(WeightedPoint(tuple(Fraction(c) for c in coords), color, weight, in_s))
    return PointSet(dim, tuple(pts))


@dataclass(frozen=True)
class AnchoredBox:
    """Box [0, upper] (closed) or [0, upper) (open); upper inside [0,1]^d."""

    upper: Point
    closed: bool

    def __post_init__(self) -> None:
        for u in self.upper:
            if not (ZERO <= u <= ONE):
                raise ValueError("anchored corner outside the unit cube")

    @property
    def dim(self) -> int:
        return len(self.upper)


@dataclass(frozen=True)
class Box:
    """Axis-parallel box [lower, upper] (closed) or (lower, upper) (open)."""

    lower: Point
    upper: Point
    closed: bool

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("dimension mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError("box has lower > upper")

    @property
    def dim(self) -> int:
        return len(self.upper)


@dataclass(frozen=True)
class HalfSpace:
    """The closed set {x : normal . x <= offset}."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self) -> None:
        if all(c == 0 for c in self.normal):
            raise ValueError("half-space normal must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class CriticalGrid:
    """Per-dimension sorted distinct coordinates, optionally with 0/1 sentinels.

    The grid is the complete candidate set of box face coordinates for the
    enumeration solvers: growing any box face until it hits a point (or a
    cube wall) lands on a grid value.
    """

    values: tuple[tuple[Fraction, ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.values)


def critical_grid(ps: PointSet, with_zero: bool = False, with_one: bool = False) -> CriticalGrid:
    """Distinct sorted coordinates per dimension, plus requested sentinels."""
    dims = []
    for j in range(ps.dim):
        vals = {p.coords[j] for p in ps.points}
        if with_zero:
            vals.add(ZERO)
        if with_one:
            vals.add(ONE)
        dims.append(tuple(sorted(vals)))
    return CriticalGrid(tuple(dims))


def _contains(box: Union[Box, AnchoredBox], coords: Point) -> bool:
    if isinstance(box, AnchoredBox):
        if box.closed:
            return all(ZERO <= c <= u for c, u in zip(coords, box.upper))
        return all(ZERO <= c < u for c, u in zip(coords, box.upper))
    if box.closed:
        return all(lo <= c <= hi for c, lo, hi in zip(coords, box.lower, box.upper))
    return all(lo < c < hi for c, lo, hi in zip(coords, box.lower, box.upper))


@dataclass(frozen=True)
class WeightTally:
    total: int
    red: int
    blue: int


def count_in_box(ps: PointSet, box: Union[Box, AnchoredBox]) -> WeightTally:
    """Weights of the points inside `box` under its closure convention."""
    if box.dim != ps.dim:
        raise ValueError("dimension mismatch")
    total = red = blue = 0
    for p in ps.points:
        if _contains(box, p.coords):
            total += p.weight
            if p.color == RED:
                red += p.weight
            elif p.color == BLUE:
                blue += p.weight
    return WeightTally(total, red, blue)


def box_volume(box: Union[Box, AnchoredBox]) -> Fraction:
    """Product of side lengths; the closure does not affect volume."""
    vol = Fraction(1)
    if isinstance(box, AnchoredBox):
        for u in box.upper:
            vol *= u
        return vol
    for lo, hi in zip(box.lower, box.upper):
        vol *= hi - lo
    return vol


@dataclass(frozen=True)
class HalfSpaceTally:
    inside: WeightTally
    boundary: WeightTally
    outside: WeightTally

    def closed_side(self) -> WeightTally:
        """Weights in the closed half-space (strict inside plus boundary)."""
        return WeightTally(
            self.inside.total + self.boundary.total,
            self.inside.red + self.boundary.red,
            self.inside.blue + self.boundary.blue,
        )


def halfspace_counts(ps: PointSet, hs: HalfSpace) -> HalfSpaceTally:
    """Exact three-way classification by the sign of normal . p - offset."""
    if hs.dim != ps.dim:
        raise ValueError("dimension mismatch")
    tallies = {-1: [0, 0, 0], 0: [0, 0, 0], 1: [0, 0, 0]}
    for p in ps.points:
        val = sum(a * c for a, c in zip(hs.normal, p.coords)) - hs.offset
        sign = -1 if val < 0 else (1 if val > 0 else 0)
        t = tallies[sign]
        t[0] += p.weight
        if p.color == RED:
            t[1] += p.weight
        elif p.color == BLUE:
            t[2] += p.weight
    return HalfSpaceTally(
        WeightTally(*tallies[-1]),
        WeightTally(*tallies[0]),
        WeightTally(*tallies[1]),
    )
