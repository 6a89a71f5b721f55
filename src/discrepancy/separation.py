"""Exact linear feasibility over the rationals.

A single entry point decides systems {x : A x <= b} with free variables
and, when feasible, returns a witness point.  It pivots not on the system
but on its Farkas alternative {y >= 0 : A^T y = 0, b . y = -1}, which is
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
optimum, so x = pi[:nvars] / pi[nvars] satisfies every row exactly.  The
artificial columns start as the identity with cost 1, so their negated
reduced costs, kept in the cost row, are pi - 1.

Pivoting uses Bland's rule (smallest-index entering column, smallest basis
index on ratio ties), which terminates without cycling; artificials never
re-enter.  All arithmetic is `Fraction`; there is no tolerance anywhere.
The test suite's independent reference route is Fourier-Motzkin
elimination in `oracles`, so the two decisions never share code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Constraint = tuple[Sequence[Fraction], Fraction]


def feasible_point(constraints: Sequence[Constraint], nvars: int) -> Optional[list[Fraction]]:
    """A point satisfying coeffs . x <= rhs for every constraint, or None."""
    rows = []
    for coeffs, rhs in constraints:
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != nvars:
            raise ValueError("dimension mismatch")
        if all(c == 0 for c in coeffs):
            if rhs < 0:
                return None
            continue
        rows.append((coeffs, Fraction(rhs)))
    if not rows:
        return [ZERO] * nvars

    # Columns 0..m-1 are the multipliers y of the constraints; columns
    # m..m+nvars are the artificials, one per row, starting as the basis.
    m = len(rows)
    k = nvars + 1
    tableau = [[coeffs[j] for coeffs, _ in rows] for j in range(nvars)]
    tableau.append([-rhs for _, rhs in rows])
    # Phase-1 objective: minimize the sum of artificials.  The cost row
    # holds minus the reduced costs: column sums, and 1 - 1 on artificials.
    cost = [sum(col) for col in zip(*tableau)] + [ZERO] * k
    for i, row in enumerate(tableau):
        row.extend(ONE if r == i else ZERO for r in range(k))
    rhs_col = [ZERO] * nvars + [ONE]
    basis = list(range(m, m + k))

    while True:
        entering = next((j for j in range(m) if cost[j] > 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for i in range(k):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = rhs_col[i] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            # The objective is bounded below by 0, so an improving column
            # always admits a ratio; reaching here means a corrupt tableau.
            raise RuntimeError("phase-1 objective unbounded")
        _pivot(tableau, rhs_col, cost, leaving, entering)
        basis[leaving] = entering

    pi = [cost[m + i] + ONE for i in range(k)]
    if pi[nvars] == 0:
        return None
    return [p / pi[nvars] for p in pi[:nvars]]


def _pivot(tableau, rhs_col, cost, row: int, col: int) -> None:
    pivot = tableau[row][col]
    inv = ONE / pivot
    tableau[row] = [c * inv for c in tableau[row]]
    rhs_col[row] *= inv
    for i in range(len(tableau)):
        if i == row:
            continue
        factor = tableau[i][col]
        if factor != 0:
            prow = tableau[row]
            tableau[i] = [a - factor * b for a, b in zip(tableau[i], prow)]
            rhs_col[i] -= factor * rhs_col[row]
    factor = cost[col]
    if factor != 0:
        prow = tableau[row]
        for j in range(len(cost)):
            cost[j] -= factor * prow[j]
