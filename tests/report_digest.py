"""Digest every report of the eight public solvers on seeded random sets.

Each set has 0 to 8 points in 1 to 3 dimensions, with duplicates, 0 and 1
coordinates, weights 1 to 3 and blue, red or no color; a few coordinates
lie outside the unit cube.  Every solver runs on every set, the eps-net
check for both families.  A report is written as every field but
`elapsed`, and a refused input as its ValueError message.

Prints one sha256 over those lines at 1 worker, then a second with every
crossover in `_FORK_CELLS` at 0 and 2 workers, so each box scan that
partitions (not the empty star's) runs in a forked 2-worker pool, then a
third over the lines of both runs without `candidates_evaluated`.  None
depends on timing, so two trees can be compared by their digests, and a
change that only counts its candidates differently by the third.  It
takes about 15 s on 2 CPUs and is named so that pytest does not collect
it; run it as

    PYTHONPATH=src python tests/report_digest.py [SETS]

with SETS random sets (default 200).
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from fractions import Fraction

from discrepancy import (
    BLUE,
    RED,
    PointSet,
    WeightedPoint,
    solve_bichromatic_box,
    solve_bichromatic_halfspace,
    solve_box_discrepancy,
    solve_max_empty_box,
    solve_max_empty_star,
    solve_redblue_box_discrepancy,
    solve_star_discrepancy,
    verify_epsilon_net,
)
from discrepancy.solvers import _FORK_CELLS


def random_sets(count: int):
    """(set, threshold m, subset mask, eps) per case, from one seed."""
    rng = random.Random(2024)
    for _ in range(count):
        d = rng.randint(1, 3)
        q = rng.choice((2, 3, 4, 8))
        pts = []
        for _ in range(rng.randint(0, 8)):
            if pts and rng.random() < 0.2:
                coords = rng.choice(pts).coords
            else:
                top = q + 1 if rng.random() < 0.05 else q
                coords = tuple(Fraction(rng.choice((0, q, rng.randint(0, top))), q) for _ in range(d))
            color = rng.choice((BLUE, BLUE, RED, None))
            pts.append(WeightedPoint(coords, color, rng.randint(1, 3)))
        mask = [rng.random() < 0.4 for _ in pts]
        yield PointSet(d, tuple(pts)), rng.randint(1, 3), mask, Fraction(1, rng.randint(1, 4))


def calls(ps, m, mask, eps, workers):
    """(name, thunk) for each solver run on one case."""
    return (
        ("star", lambda: solve_star_discrepancy(ps, workers=workers)),
        ("box", lambda: solve_box_discrepancy(ps, workers=workers)),
        ("empty-star", lambda: solve_max_empty_star(ps, workers=workers)),
        ("empty-box", lambda: solve_max_empty_box(ps, workers=workers)),
        ("bichromatic", lambda: solve_bichromatic_box(ps, workers=workers)),
        ("redblue", lambda: solve_redblue_box_discrepancy(ps, workers=workers)),
        ("halfspace", lambda: solve_bichromatic_halfspace(ps, m)),
        ("net-box", lambda: verify_epsilon_net(ps, mask, eps, "box", workers)),
        ("net-halfspace", lambda: verify_epsilon_net(ps, mask, eps, "halfspace", workers)),
    )


def reports(count: int, workers: int) -> list[tuple]:
    """(case, solver, fields) per call: every report field but `elapsed`,
    or the ValueError message of a refused input."""
    rows = []
    for i, (ps, m, mask, eps) in enumerate(random_sets(count)):
        for name, run in calls(ps, m, mask, eps, workers):
            try:
                rep = run()
            except ValueError as exc:
                rows.append((i, name, f"error: {exc}"))
                continue
            rows.append((i, name, {k: v for k, v in vars(rep).items() if k != "elapsed"}))
    return rows


def digest(rows: list[tuple], skip: tuple = ()) -> str:
    """sha256 over one line per row, without the report fields in `skip`."""
    lines = []
    for i, name, fields in rows:
        if isinstance(fields, dict):
            fields = repr({k: v for k, v in fields.items() if k not in skip})
        lines.append(f"{i} {name} {fields}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(count: int) -> int:
    one = reports(count, 1)
    print(f"sha256 1-worker {digest(one)} over {len(one)} reports")
    # Every crossover at 0, and two CPUs whatever the machine has, so each
    # partitioned box scan forks a real 2-worker pool.
    _FORK_CELLS.update(dict.fromkeys(_FORK_CELLS, 0))
    os.cpu_count = lambda: 2
    pooled = reports(count, 2)
    print(f"sha256 2-worker-pool {digest(pooled)} over {len(pooled)} reports")
    both = one + pooled
    print(f"sha256 values {digest(both, ('candidates_evaluated',))} over {len(both)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 200))
