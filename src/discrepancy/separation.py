"""Exact linear feasibility over the rationals.

A single entry point decides systems {x : A x <= b} with free variables
and integer entries and, when feasible, returns a rational witness point;
the caller scales rational rows to integers (the half-space search once
per search, by `solvers._integer_row`).  It pivots not on the system but
on its Farkas alternative {y >= 0 : A^T y = 0, b . y = -1}, which is
feasible exactly when the system is not: a standard-form phase-1 with
nvars + 1 equality rows (the b-row negated so every right-hand side is
nonnegative), one column per constraint and one artificial per row.  For
the half-space solver's margin system (b . w <= c for blues, r . w >= c + 1
for reds) the alternative asks for convex weights on the blues and on the
reds with a common centroid: it is the test "conv(B) meets conv(R)", on
d + 2 rows however many points there are.

A phase-1 optimum of 0 means the alternative is feasible, so the result is
None.  Otherwise the simplex multipliers pi of the final basis satisfy
pi[:nvars] . A_i <= pi[nvars] b_i for every constraint (the reduced costs
of the constraint columns are nonnegative), and pi[nvars] is the positive
optimum, so x = pi[:nvars] / pi[nvars] satisfies every row exactly.

Pivoting uses Bland's rule (smallest-index entering column, smallest basis
index on ratio ties), which terminates without cycling; artificials never
re-enter.  The simplex is revised (Dantzig & Orchard-Hays 1954) and
fraction-free (Bareiss 1968; Edmonds 1967).  With det > 0 the current
basis determinant, the fraction-free tableau is det * B^-1 [A | I] with
cost row det * (pi [A | I] - c); the state kept is its artificial block,
inv = det * B^-1 (k x k, k = nvars + 1), and dpi = det * pi, its cost
entries plus det.  Both are integers, and so are the constraint columns
A_j, so column j's tableau entries inv . A_j and its cost entry dpi . A_j
are integers, computed on demand, equal to the full tableau's: Bland's
rule compares the same integers.  The right-hand side det * B^-1 e_nvars
is the last column of inv.  A pivot on entry p = (inv . A_c)[r] leaves
row r as it is, replaces every other row v of inv, and dpi, by
(p * v - f * inv[r]) // det, where f is that row's entry in the entering
column, and sets det = p.  Each division is exact: it is the Bareiss step
of the full tableau, whose entries are minors of the bordered integer
matrix, restricted to the artificial columns (for dpi, the cost row's
step plus p * det, which det divides).  The ratio test cross-multiplies,
and the witness is x_i = dpi[i] / dpi[nvars].  There is no tolerance
anywhere.  The test suite's independent reference route is Fourier-Motzkin
elimination in `oracles`, so the two decisions never share code.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

ZERO = Fraction(0)

Constraint = tuple[Sequence[int], int]


def feasible_point(constraints: Sequence[Constraint], nvars: int) -> Optional[list[Fraction]]:
    """A point satisfying coeffs . x <= rhs for every constraint, or None.
    Entries must be int; anything else, a Fraction or a bool included,
    raises ValueError.  Pivots the k x k basis adjugate only and prices
    each constraint column on demand (see the module docstring)."""
    # Column i of the alternative is (A_i, -b_i).
    columns = []
    for coeffs, rhs in constraints:
        column = [*coeffs, rhs]
        if len(column) != nvars + 1:
            raise ValueError("dimension mismatch")
        if set(map(type, column)) != {int}:
            raise ValueError("entries must be int")
        if not any(column[:nvars]):
            if rhs < 0:
                return None
            continue
        column[nvars] = -rhs
        columns.append(column)
    if not columns:
        return [ZERO] * nvars

    # The artificials, one per row, start as the basis: inv = I, det = 1,
    # and each starts with cost 1, so dpi is all ones (phase 1 minimizes
    # their sum).  basis[i] is a constraint index, or m + i's artificial.
    m = len(columns)
    k = nvars + 1
    inv = [[int(r == j) for j in range(k)] for r in range(k)]
    dpi = [1] * k
    basis = list(range(m, m + k))
    det = 1

    while True:
        for entering, col in enumerate(columns):
            # The column's cost entry: det times minus its reduced cost.
            cost = sum(map(mul, dpi, col))
            if cost > 0:
                break
        else:
            break
        tcol = [sum(map(mul, row, col)) for row in inv]
        leaving = None
        for i, coeff in enumerate(tcol):
            # rhs_i / coeff (rhs is inv's last column) against the best
            # ratio, cross-multiplied.
            if coeff > 0 and (
                leaving is None
                or (diff := inv[i][nvars] * best_coeff - best_rhs * coeff) < 0
                or (diff == 0 and basis[i] < basis[leaving])
            ):
                leaving, best_rhs, best_coeff = i, inv[i][nvars], coeff
        if leaving is None:
            # The objective is bounded below by 0, so an improving column
            # always admits a ratio; reaching here means a corrupt state.
            raise RuntimeError("phase-1 objective unbounded")
        prow = inv[leaving]
        p = tcol[leaving]
        for i, f in enumerate(tcol):
            if i != leaving:
                inv[i] = [(p * a - f * b) // det for a, b in zip(inv[i], prow)]
        dpi = [(p * a - cost * b) // det for a, b in zip(dpi, prow)]
        det = p
        basis[leaving] = entering

    if dpi[nvars] == 0:
        return None
    return [Fraction(dpi[i], dpi[nvars]) for i in range(nvars)]
