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
optimum, so x = pi[:nvars] / pi[nvars] satisfies every row exactly.  The
artificial columns start as the identity with cost 1, so their negated
reduced costs, kept in the cost row, are pi - 1.

Pivoting uses Bland's rule (smallest-index entering column, smallest basis
index on ratio ties), which terminates without cycling; artificials never
re-enter.  The pivot loop is fraction-free (Bareiss 1968; Edmonds 1967):
each integer row is its own column, and the tableau, right-hand side and
cost row are kept as integers equal to det times their rational values,
where det > 0 is the current basis determinant.  A pivot on entry
p = T[r][c] leaves row r as it is, replaces every other entry by
(p * T[i][j] - T[i][c] * T[r][j]) // det, a division that is exact because
each entry is a minor of the bordered integer matrix, and sets det = p.
The ratio test cross-multiplies, and the witness is
x_i = (cost[m + i] + det) / (cost[m + nvars] + det).  There is no tolerance
anywhere.  The test suite's independent reference route is Fourier-Motzkin
elimination in `oracles`, so the two decisions never share code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)

Constraint = tuple[Sequence[int], int]


def feasible_point(constraints: Sequence[Constraint], nvars: int) -> Optional[list[Fraction]]:
    """A point satisfying coeffs . x <= rhs for every constraint, or None.
    Entries must be int; anything else, a Fraction or a bool included,
    raises ValueError."""
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

    # Columns 0..m-1 are the multipliers y of the constraints; columns
    # m..m+nvars are the artificials, one per row, starting as the basis.
    m = len(columns)
    k = nvars + 1
    tableau = [[col[j] for col in columns] + [int(r == j) for r in range(k)] for j in range(k)]
    # Phase-1 objective: minimize the sum of artificials.  The cost row
    # holds minus the reduced costs: column sums, and 1 - 1 on artificials.
    cost = [sum(col) for col in columns] + [0] * k
    rhs_col = [0] * nvars + [1]
    basis = list(range(m, m + k))
    det = 1

    while True:
        entering = next((j for j in range(m) if cost[j] > 0), None)
        if entering is None:
            break
        leaving = None
        for i, row in enumerate(tableau):
            coeff = row[entering]
            # rhs_col[i] / coeff against the best ratio, cross-multiplied.
            if coeff > 0 and (
                leaving is None
                or (diff := rhs_col[i] * best_coeff - best_rhs * coeff) < 0
                or (diff == 0 and basis[i] < basis[leaving])
            ):
                leaving, best_rhs, best_coeff = i, rhs_col[i], coeff
        if leaving is None:
            # The objective is bounded below by 0, so an improving column
            # always admits a ratio; reaching here means a corrupt tableau.
            raise RuntimeError("phase-1 objective unbounded")
        prow = tableau[leaving]
        p = prow[entering]
        for i, row in enumerate(tableau):
            if i != leaving:
                f = row[entering]
                tableau[i] = [(p * a - f * b) // det for a, b in zip(row, prow)]
                rhs_col[i] = (p * rhs_col[i] - f * best_rhs) // det
        f = cost[entering]
        cost = [(p * a - f * b) // det for a, b in zip(cost, prow)]
        det = p
        basis[leaving] = entering

    denom = cost[m + nvars] + det
    if denom == 0:
        return None
    return [Fraction(cost[m + i] + det, denom) for i in range(nvars)]
