"""Compilers from a graph and clique size k to hard point-set instances.

Every instance lives in dimension 2k: coordinates 2i-2 and 2i-1 form the
i-th coordinate plane, and a point "in plane i" has zeros elsewhere.  The
common scheme: per-plane scaffold points encode choosing one vertex per
plane, and kill points placed in the product of two planes forbid a pair
of per-plane choices whenever the corresponding vertices are not adjacent
(including equal vertices, so no vertex can be picked twice).  A range
achieving the instance's expected value must therefore select k pairwise
adjacent vertices, and conversely any k-clique yields such a range.

One helper, `_kill_points`, builds the kill points of every gadget from a
per-vertex corner, once per unordered plane pair i < j and bad vertex pair.
`_colored_gadget` assembles the box and half-space reductions around them,
which differ only in where their points sit, and `_tuned_hyperbola` the
hyperbolic ones.  So every gadget knows its point count N before it is
built, as `choose_mu` and the MAX_GADGET_POINTS limit need: its scaffold
plus C(k,2)|bad pairs|, where |bad pairs| = n + 2(C(n,2) - |E|) counts the
ordered pairs (u, v) with u = v or uv not an edge.

Each builder packages the point set together with all derived constants
(k, n, N, mu, C, V, eps) and the expected optimum, so tests and the
verification pipeline can check the equivalences instead of trusting the
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .geometry import BLUE, ONE, RED, ZERO, Point, PointSet, WeightedPoint
from .solvers import MAX_SCAN_DIM

HALF = Fraction(1, 2)

PROBLEMS = (
    "bichromatic-box",
    "redblue-disc",
    "empty-star",
    "star-disc",
    "empty-box",
    "box-disc",
    "halfspace-bichromatic",
    "net-halfspace",
    "net-box",
)
# Problems on plain points: a colored point there is a malformed instance.
_UNCOLORED = ("empty-star", "star-disc", "empty-box", "box-disc")

# Most points one gadget may have; the k = 4 gadgets on five vertices have
# at most 195.
MAX_GADGET_POINTS = 100_000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset

    @staticmethod
    def make(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError("loops forbidden (graph is simple)")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"vertex out of range: ({u}, {v})")
            norm.add((min(u, v), max(u, v)))
        return Graph(n, frozenset(norm))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


@dataclass(frozen=True)
class GadgetParams:
    k: int
    n: int
    N: int
    mu: Optional[Fraction] = None
    t: Optional[int] = None
    C: Optional[Fraction] = None
    V: Optional[Fraction] = None
    eps: Optional[Fraction] = None


@dataclass(frozen=True)
class GadgetInstance:
    params: GadgetParams
    points: PointSet
    problem: str
    expected_positive: object  # Fraction for continuous problems, int otherwise
    # Empty-star / empty-box only: the no-instance upper bound C^k/mu,
    # attained iff G has a (k-1)-clique.
    expected_negative: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem: {self.problem}")
        if self.problem in _UNCOLORED and any(p.color for p in self.points.points):
            raise ValueError(f"{self.problem} points must be uncolored")
        if self.problem.startswith("net-") and self.params.eps is None:
            raise ValueError(f"{self.problem} instance needs params.eps")
        threshold = self.expected_positive
        if self.problem == "halfspace-bichromatic" and Fraction(threshold).denominator != 1:
            raise ValueError(f"expected_positive must be an integer threshold, got {threshold}")


def _check_reduction_size(g: Graph, k: int, scaffold: int) -> int:
    """The point count N = scaffold + C(k,2)|bad pairs| of a gadget with
    `scaffold` points besides its kill points, in closed form; raises
    ValueError on k < 2, n < 2, N > MAX_GADGET_POINTS or a dimension 2k
    that no solver takes (above MAX_SCAN_DIM)."""
    if k < 2 or g.n < 2:
        raise ValueError("degenerate reduction")
    n_points = scaffold + comb(k, 2) * (g.n + 2 * (comb(g.n, 2) - len(g.edges)))
    if n_points > MAX_GADGET_POINTS:
        raise ValueError(f"gadget would have {n_points} points, more than the limit of {MAX_GADGET_POINTS}")
    if 2 * k > MAX_SCAN_DIM:
        raise ValueError(f"gadget would have {2 * k} dimensions, more than the limit of {MAX_SCAN_DIM}")
    return n_points


def _embed(k: int, plane: int, x: Fraction, y: Fraction) -> Point:
    coords = [ZERO] * (2 * k)
    coords[2 * plane - 2] = Fraction(x)
    coords[2 * plane - 1] = Fraction(y)
    return tuple(coords)


def _bad_vertex_pairs(g: Graph):
    """Ordered vertex pairs that may not be chosen together: equal vertices
    (a vertex cannot be picked in two planes) and non-adjacent pairs."""
    return [
        (u, v)
        for u in range(1, g.n + 1)
        for v in range(1, g.n + 1)
        if u == v or not g.has_edge(u, v)
    ]


def _kill_points(g: Graph, k: int, corner: dict) -> list[Point]:
    """One kill point per plane pair i < j and bad vertex pair (u, v):
    corner[u] in plane i, corner[v] in plane j, zeros elsewhere, sorted.

    The bad pairs are symmetric, so the pair (j, i) with (u, v) would give
    the same point as (i, j) with (v, u); walking only i < j builds each
    point once."""
    bad = _bad_vertex_pairs(g)
    points = []
    for i, j in combinations(range(1, k + 1), 2):
        for u, v in bad:
            coords = [ZERO] * (2 * k)
            coords[2 * i - 2 : 2 * i] = corner[u]
            coords[2 * j - 2 : 2 * j] = corner[v]
            points.append(tuple(coords))
    return sorted(points)


def _colored_gadget(g: Graph, k: int, blue_at, red_at, kill_at, problem: str, expected) -> GadgetInstance:
    """The colored reductions' skeleton, every point of weight 1, in this
    order: the blue origin; in each plane i = 1..k a blue at blue_at[v] per
    vertex v; in each plane a red at every entry of red_at; then the red
    kill points of `kill_at`."""
    planes = range(1, k + 1)
    blues = [(ZERO,) * (2 * k)] + [_embed(k, i, *blue_at[v]) for i in planes for v in range(1, g.n + 1)]
    reds = [_embed(k, i, *xy) for i in planes for xy in red_at] + _kill_points(g, k, kill_at)
    pts = [WeightedPoint(p, BLUE, 1) for p in blues] + [WeightedPoint(p, RED, 1) for p in reds]
    points = PointSet(2 * k, tuple(pts))
    params = GadgetParams(k=k, n=g.n, N=points.total_weight)
    return GadgetInstance(params, points, problem, expected_positive=expected)


# ---------------------------------------------------------------------------
# Box reductions on the diagonal scaffold.


def build_bichromatic_gadget(g: Graph, k: int) -> GadgetInstance:
    """Points whose largest red-free box holds k+1 blues iff G has a k-clique.

    Blue origin and per-plane diagonal blues (v, n+1-v); red separators
    between consecutive blues, then the kill points, all divided by n+1: a
    per-dimension order isomorphism into the unit cube, so no box count changes.
    """
    # The blue origin, n blues and n - 1 red separators per plane.
    _check_reduction_size(g, k, 1 + k * (2 * g.n - 1))
    n = g.n
    scale = Fraction(1, n + 1)
    corner = {v: (v * scale, (n + 1 - v) * scale) for v in range(1, n + 1)}
    separators = [((v + HALF) * scale, (n + HALF - v) * scale) for v in range(1, n)]
    return _colored_gadget(g, k, corner, separators, corner, "bichromatic-box", k + 1)


def build_redblue_gadget(g: Graph, k: int) -> GadgetInstance:
    """Bichromatic instance with the blue origin fattened to N copies.

    N is the point count of the plain bichromatic construction.  In any box
    the scaffold blues and reds of one plane differ by at most one, so the
    discrepancy reaches N + k exactly when a red-free box with the origin
    and one blue per plane exists, i.e. iff G has a k-clique.
    """
    base = build_bichromatic_gadget(g, k)
    n_copies = base.params.N
    origin, *rest = base.points.points  # _colored_gadget puts the blue origin first
    points = PointSet(2 * k, (WeightedPoint(origin.coords, BLUE, n_copies), *rest))
    params = GadgetParams(k=k, n=g.n, N=points.total_weight)
    return GadgetInstance(params, points, "redblue-disc", expected_positive=n_copies + k)


# ---------------------------------------------------------------------------
# Hyperbolic scaffold for the continuous problems.


def build_empty_star_gadget(g: Graph, k: int, mu: Fraction) -> GadgetInstance:
    """Uncolored set whose largest empty star has volume C^k iff G has a
    k-clique, and at most C^k/mu otherwise.

    C = 1/mu^(n-1).  Plane scaffold points sit just below the area-C
    hyperbola at (C mu^(u-1), mu^-u) for u = 0..n, so every maximal empty
    anchored rectangle has its corner at one of the n area-C choices
    (C mu^(u-1), mu^-(u-1)).  Kill points pair the shifted per-plane corner
    (C mu^(u-2), mu^-u) across two planes for forbidden vertex pairs.

    The no-instance bound C^k/mu (``expected_negative``) is attained iff G
    has a (k-1)-clique: the sharp value is C^w (C/mu)^(k-w) with
    w = min(omega(G), k-1); w planes keep pairwise-adjacent area-C
    rectangles and every other plane shrinks to area C/mu."""
    _check_reduction_size(g, k, k * (g.n + 1))
    mu = Fraction(mu)
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    n = g.n
    C = Fraction(1) / mu ** (n - 1)
    scaffold = [
        _embed(k, i, C * mu ** (u - 1), mu ** (-u)) for i in range(1, k + 1) for u in range(n + 1)
    ]
    corner = {u: (C * mu ** (u - 2), mu ** (-u)) for u in range(1, n + 1)}
    coords = scaffold + _kill_points(g, k, corner)
    points = PointSet(2 * k, tuple(WeightedPoint(p, None, 1) for p in coords))
    V = C ** k
    params = GadgetParams(k=k, n=g.n, N=points.total_weight, mu=mu, C=C, V=V)
    return GadgetInstance(
        params, points, "empty-star", expected_positive=V, expected_negative=V / mu
    )


def choose_mu(k: int, n: int, N: int) -> tuple[int, Fraction]:
    """The canonical gap parameter t = 2knN, mu = 1 + 1/t.

    Guarantees mu^(k(n-1)) < N/(N-1), i.e. C^k > (N-1)/N, so that on the
    discrepancy gadgets the count side of any anchored box can never beat a
    volume-C^k empty star.  The bound is asserted in exact arithmetic."""
    if k < 2 or n < 2 or N < 2:
        raise ValueError("parameters too small for the gap bound")
    t = 2 * k * n * N
    mu = 1 + Fraction(1, t)
    if not mu ** (k * (n - 1)) < Fraction(N, N - 1):
        raise RuntimeError("gap bound violated; construction is inconsistent")
    return t, mu


def _tuned_hyperbola(g: Graph, k: int, extra: int):
    """Params (N, t, mu, C, V) and the empty-star base for a hyperbolic
    gadget of N points: the empty-star set plus `extra` points.  N is known
    before the build, as choose_mu needs it: k(n+1) scaffold points, C(k,2)
    kill points per bad vertex pair, plus extra."""
    n_points = _check_reduction_size(g, k, k * (g.n + 1) + extra)
    t, mu = choose_mu(k, g.n, n_points)
    base = build_empty_star_gadget(g, k, mu)
    return GadgetParams(k=k, n=g.n, N=n_points, mu=mu, t=t, C=base.params.C, V=base.params.V), base


def build_star_discrepancy_gadget(g: Graph, k: int) -> GadgetInstance:
    """Hyperbolic set with mu tuned so star discrepancy equals C^k iff G has
    a k-clique: C^k > (N-1)/N caps the excess side below the empty-star
    deficit."""
    params, base = _tuned_hyperbola(g, k, 0)
    return GadgetInstance(params, base.points, "star-disc", expected_positive=params.V)


def lift_points(ps: PointSet) -> PointSet:
    """Replace every zero coordinate by 1/2.

    Any box of volume at least 2/3 spans (1/2, 1/2) in every coordinate
    plane, so after lifting such a box contains a point iff its projection
    onto the point's own plane(s) contains the projection of the point;
    large empty boxes then reduce to products of per-plane choices exactly
    as in the anchored case.
    """
    pts = tuple(
        WeightedPoint(
            tuple(HALF if c == 0 else c for c in p.coords), p.color, p.weight, p.in_s
        )
        for p in ps.points
    )
    return PointSet(ps.dim, pts)


def build_empty_box_gadget(g: Graph, k: int) -> GadgetInstance:
    """Lifted hyperbolic set: the largest empty box has volume C^k iff G has
    a k-clique, and at most C^k/mu (``expected_negative``) otherwise, with
    equality iff G has a (k-1)-clique, as for the empty star.  The
    rational mu from choose_mu keeps C^k above both 2/3 (the lifting
    threshold) and (N-1)/N."""
    params, base = _tuned_hyperbola(g, k, 0)
    V = params.V
    if not V > Fraction(2, 3):
        raise RuntimeError("expected C^k > 2/3")
    points = lift_points(base.points)
    return GadgetInstance(
        params, points, "empty-box", expected_positive=V, expected_negative=V / params.mu
    )


def build_box_discrepancy_gadget(g: Graph, k: int) -> GadgetInstance:
    """Lifted hyperbolic set plus the two cube corners.

    The corner points pin every all-point box to volume 1, so the excess
    side stays below (N-1)/N < C^k and the optimum is the empty-box deficit
    C^k iff G has a k-clique.  N counts the two extra points before mu is
    chosen.  The origin is left unlifted; open boxes never contain either
    corner point."""
    params, base = _tuned_hyperbola(g, k, 2)
    d = 2 * k
    pts = (
        (WeightedPoint((ZERO,) * d, None, 1),)
        + lift_points(base.points).points
        + (WeightedPoint((ONE,) * d, None, 1),)
    )
    return GadgetInstance(params, PointSet(d, pts), "box-disc", expected_positive=params.V)


# ---------------------------------------------------------------------------
# Half-space reduction on the rational unit circle.


def circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """Rational parametrization of the unit circle; t in [0,1] walks the
    quarter arc from (1,0) to (0,1)."""
    t = Fraction(t)
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def build_halfspace_gadget(g: Graph, k: int) -> GadgetInstance:
    """Convex-position variant for half-space ranges.

    Per plane, the n blue points sit on the unit circle at parameters
    v/(n+1); red separators sit on the arc between consecutive blues and a
    red guard beyond each end, at parameters (2v+1)/(2(n+1)).  A closed
    half-space meets the circle in one arc, so a red-free half-space sees
    at most one blue per plane; red midpoints of forbidden cross-plane blue
    pairs enforce adjacency by convexity.  The expected red-free optimum on
    a positive instance is k (one blue per plane).

    The blue origin from the box reduction is kept in the point set, but a
    half-space containing the circle's center cuts the circle in an arc of
    at least a semicircle, so it cannot separate any blue from both of its
    red neighbors: the origin never joins an optimal selection, and the
    k+1 target of the box reduction is unattainable for half-spaces.
    """
    # The blue origin, n blues and n + 1 red separators per plane.
    _check_reduction_size(g, k, 1 + k * (2 * g.n + 1))
    n = g.n
    on_circle = {v: circle_point(Fraction(v, n + 1)) for v in range(1, n + 1)}
    separators = [circle_point(Fraction(2 * v + 1, 2 * (n + 1))) for v in range(0, n + 1)]
    # The midpoint of two blues in different planes is half of each blue.
    halves = {v: (x / 2, y / 2) for v, (x, y) in on_circle.items()}
    return _colored_gadget(g, k, on_circle, separators, halves, "halfspace-bichromatic", k)


def build_net_instance(g: Graph, k: int, family: str) -> GadgetInstance:
    """Net-verification instance: P is the full gadget point set, S its red
    points, and eps = m/|P| where m is the family's red-free blue target
    (k for half-spaces, k+1 for boxes, where the origin joins the box).
    S fails to be an eps-net exactly when G has a k-clique."""
    builders = {"halfspace": build_halfspace_gadget, "box": build_bichromatic_gadget}
    if family not in builders:
        raise ValueError(f"unknown range family: {family}")
    base = builders[family](g, k)
    m = base.expected_positive
    total = base.points.total_weight
    eps = Fraction(m, total)
    pts = tuple(
        WeightedPoint(p.coords, p.color, p.weight, in_s=(p.color == RED))
        for p in base.points.points
    )
    points = PointSet(base.points.dim, pts)
    params = GadgetParams(k=k, n=g.n, N=total, eps=eps)
    return GadgetInstance(params, points, f"net-{family}", expected_positive=m)
