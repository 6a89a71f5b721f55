"""Run `discrepancy verify` for all nine gadget types on the 34 graph
classes with five vertices at k = 4 (dimension 8).

Prints one line per case (the graph class and verify's verdict line) and
then the sha256 over those lines, which depends on no timing, so two trees
can be compared by their digests.  Per-case and total times go to stderr.
Exits 1 if any case is a MISMATCH or an error.  It takes minutes, so it is
named so that pytest does not collect it; run it as

    PYTHONPATH=src python tests/sweep_k4.py [TYPE ...]

with no TYPE for all nine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import GRAPHS_N5  # noqa: E402

from discrepancy import cli  # noqa: E402


def main(kinds) -> int:
    lines, failed = [], False
    start = perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name, edges in GRAPHS_N5.items():
            path = Path(tmp) / f"{name}.txt"
            path.write_text(f"5 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            for kind in kinds:
                out = io.StringIO()
                t0 = perf_counter()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(["verify", "--type", kind, "--graph", str(path), "-k", "4"])
                verdict = out.getvalue().strip() or f"ERROR: exit {rc}"
                failed |= rc != 0
                lines.append(f"{name} {verdict}")
                print(lines[-1], flush=True)
                print(f"{name} {kind} {perf_counter() - t0:.2f}s", file=sys.stderr, flush=True)
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    print(f"total {perf_counter() - start:.1f}s over {len(lines)} cases", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    unknown = [kind for kind in sys.argv[1:] if kind not in cli._GADGETS]
    if unknown:
        sys.exit(f"unknown gadget type: {', '.join(unknown)}")
    sys.exit(main(sys.argv[1:] or list(cli._GADGETS)))
