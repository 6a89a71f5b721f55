"""Check that the tests notice small, plausible bugs in the package.

Each entry of MUTANTS names one source file under `src/discrepancy`, an
exact snippet that occurs in it once, its replacement, and the tests that
are expected to fail on the result.  For each entry, the package, the tests
and `pyproject.toml` are copied into a temporary directory, the snippet is
replaced there, and only the named tests run.  A mutant is killed when one
of them fails or times out, and survives when all pass.  The named tests
first run once on the unmutated copy, where they must pass.

Prints one line per mutant (killed, with pytest's exit code, or survived),
then a sha256 over those lines.  Exits 1 if any mutant survives, a snippet
is missing, or pytest ends with another exit code, and 2 if the named tests
fail unmutated.  It takes about a minute, and is named so that pytest does
not collect it; run it as

    python tests/mutants.py [NAME ...]

with no NAME for every mutant.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, snippet, replacement, tests)
MUTANTS = [
    # Every prune is strict, so ties at the optimum are kept.
    (
        "closed-prune-le", "solvers.py",
        "if best is not None and held < best[0]:", "if best is not None and held <= best[0]:",
        ["tests/test_solvers.py::test_box_kernel_matches_oracle_on_boundary_and_duplicate_coordinates"],
    ),
    (
        "closed-leaf-le", "solvers.py",
        "if best is not None and val < best[0]:", "if best is not None and val <= best[0]:",
        ["tests/test_solvers.py::test_box_kernel_matches_oracle_on_boundary_and_duplicate_coordinates"],
    ),
    # Also a remembered value equal to the incumbent, a tie win, skipped.
    (
        "remembered-le", "solvers.py",
        "sub[0] < best[0]:", "sub[0] <= best[0]:",
        ["tests/test_solvers.py::test_remembered_majority_subtrees_keep_the_smallest_optimal_key"],
    ),
    (
        "open-leaf-le", "solvers.py",
        "if best is not None and nvol < best[0]:", "if best is not None and nvol <= best[0]:",
        ["tests/test_solvers.py::test_box_kernel_matches_oracle_on_boundary_and_duplicate_coordinates"],
    ),
    (
        "open-inner-le", "solvers.py",
        "nvol * maxtail[j + 1] < best[0]:", "nvol * maxtail[j + 1] <= best[0]:",
        ["tests/test_solvers.py::test_box_kernel_matches_oracle_on_boundary_and_duplicate_coordinates"],
    ),
    # The remembered subtrees of the majority scans.
    (
        "memo-first-found-tie", "solvers.py",
        "(top is None or val > top[0] or key < top[1])", "(top is None or val > top[0])",
        ["tests/test_solvers.py::test_a_remembered_subtree_returns_its_smallest_tied_tail"],
    ),
    (
        "memo-one-dict", "solvers.py",
        "memo = None if weight else [{} for _ in range(d)]", "memo = None if weight else [{}] * d",
        ["tests/test_solvers.py::test_remembered_majority_subtrees_keep_the_smallest_optimal_key"],
    ),
    # Bland's rule: the smallest basis index leaves on a ratio tie.
    (
        "bland-ratio-tie", "separation.py",
        "(diff == 0 and basis[i] < basis[leaving])", "(diff == 0 and basis[i] > basis[leaving])",
        ["tests/test_separation.py"],
    ),
    # The critical grid and its walls.
    (
        "grid-no-walls", "solvers.py",
        "vals = sorted({*xs, *(w * den for w in walls)})", "vals = sorted(set(xs))",
        ["tests/test_solvers.py::test_grid_is_the_fraction_grid_in_integers"],
    ),
    (
        "grid-unscaled-walls", "solvers.py",
        "vals = sorted({*xs, *(w * den for w in walls)})", "vals = sorted({*xs, *walls})",
        ["tests/test_solvers.py::test_grid_is_the_fraction_grid_in_integers"],
    ),
    (
        "anchored-zero-wall", "solvers.py",
        "_grid(ps, (1,) if anchored else (0, 1))\n    # The grid", "_grid(ps, (0, 1))\n    # The grid",
        ["tests/test_solvers.py::test_grid_is_the_fraction_grid_in_integers"],
    ),
    (
        "cells-free-pairs", "solvers.py",
        "n * (n - 1) // 2 + c", "n * (n + 1) // 2",
        ["tests/test_solvers.py::test_grid_cells_counts_face_choices"],
    ),
    # No solver scans an anchored majority grid, so none is counted.
    (
        "anchored-majority-count", "solvers.py",
        "if anchored and colors:", "if False:",
        ["tests/test_solvers.py::test_grid_cells_counts_face_choices"],
    ),
    # The two sides share no code.
    (
        "oracles-import-solvers", "oracles.py",
        "from .geometry import", "from .solvers import _grid\nfrom .geometry import",
        ["tests/test_oracles.py::test_oracles_share_no_code_with_the_solvers"],
    ),
    (
        "solvers-import-critical-grid", "solvers.py",
        "from .geometry import (\n", "from .geometry import (\n    critical_grid,\n",
        ["tests/test_oracles.py::test_oracles_share_no_code_with_the_solvers"],
    ),
    # The dimension bounds.
    (
        "grid-dim-unbounded", "solvers.py",
        'if ps.dim > MAX_SCAN_DIM:\n        raise ValueError(f"box',
        'if False:\n        raise ValueError(f"box',
        ["tests/test_cli.py::test_box_scans_above_the_dimension_bound_exit_two"],
    ),
    (
        "halfspace-dim-unbounded", "solvers.py",
        'if ps.dim > MAX_SCAN_DIM:\n        raise ValueError(f"half',
        'if False:\n        raise ValueError(f"half',
        ["tests/test_cli.py::test_box_scans_above_the_dimension_bound_exit_two"],
    ),
    (
        "gadget-dim-unbounded", "gadgets.py",
        "if 2 * k > MAX_SCAN_DIM:", "if False:",
        ["tests/test_cli.py::test_gadgets_above_the_dimension_bound_exit_two_before_building"],
    ),
    # Partitions merge to the smallest key on a value tie.
    (
        "merge-first-partition", "solvers.py",
        "key=lambda b: (-b[0], b[1])", "key=lambda b: -b[0]",
        ["tests/test_solvers.py::test_run_scan_merges_its_partitions"],
    ),
    # Where fork does not exist, a solve runs in-process instead of raising.
    (
        "no-fork-fallback", "solvers.py",
        "except (OSError, ValueError):", "except OSError:",
        ["tests/test_solvers.py::test_a_pool_that_cannot_start_leaves_one_partition_in_process"],
    ),
]

TIMEOUT_S = 600


def pytest(tmp: Path, tests: list) -> int:
    """pytest's exit code on `tests` in `tmp`, or None on a timeout."""
    # -B: no bytecode, so a restored file is never read from a stale cache.
    cmd = [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=tmp, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    lines, bad = [], False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        caches = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=caches)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=caches)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        named = sorted({t for *_, tests in chosen for t in tests})
        if pytest(tmp, named) != 0:
            print("the named tests fail on the unmutated package", file=sys.stderr)
            return 2
        for name, file, snippet, replacement, tests in chosen:
            path = tmp / "src" / "discrepancy" / file
            source = path.read_text()
            if source.count(snippet) != 1:
                lines.append(f"{name} stale: snippet found {source.count(snippet)} times")
                bad = True
            else:
                path.write_text(source.replace(snippet, replacement))
                code = pytest(tmp, tests)
                path.write_text(source)
                # 1: a test failed, 2: collection failed, None: timed out.
                if code in (1, 2, None):
                    lines.append(f"{name} killed ({'timeout' if code is None else f'exit {code}'})")
                else:
                    lines.append(f"{name} {'survived' if code == 0 else f'error (exit {code})'}")
                    bad = True
            print(lines[-1], flush=True)
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 1 if bad else 0


if __name__ == "__main__":
    unknown = [n for n in sys.argv[1:] if n not in {m[0] for m in MUTANTS}]
    if unknown:
        sys.exit(f"unknown mutant: {', '.join(unknown)}")
    sys.exit(main(sys.argv[1:]))
