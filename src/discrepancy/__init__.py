"""Exact rational toolkit for geometric discrepancy problems.

Solvers for star/box discrepancy, maximum empty star/box, bichromatic
separation by boxes and half-spaces, and eps-net verification, together
with compilers that turn a graph and clique size into the hard instances
whose optima certify a k-clique, plus brute-force oracles for
cross-validation.
"""

from .gadgets import (
    GadgetInstance,
    GadgetParams,
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
)
from .geometry import (
    BLUE,
    RED,
    AnchoredBox,
    Box,
    CriticalGrid,
    HalfSpace,
    PointSet,
    WeightedPoint,
    box_volume,
    count_in_box,
    critical_grid,
    halfspace_counts,
    point_set,
)
from .instances import format_rational, parse_rational
from .solvers import (
    BichromaticReport,
    DiscrepancyReport,
    EmptyBoxReport,
    NetReport,
    solve_bichromatic_box,
    solve_bichromatic_halfspace,
    solve_box_discrepancy,
    solve_max_empty_box,
    solve_max_empty_star,
    solve_redblue_box_discrepancy,
    solve_star_discrepancy,
    verify_epsilon_net,
)

__all__ = [name for name in dir() if not name.startswith("_")]
