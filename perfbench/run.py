"""Benchmark of the discrepancy toolkit, run from the root of a checkout:

    python3 perfbench/run.py --workload gadget-box --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): gadget-box, gadget-halfspace, random-solve.
All load comes from this one process as a closed loop: the next operation
starts when the previous one ends.  A run executes whole passes over the
workload's operations, starting another pass only while it is projected to
end within --seconds, and always at least one.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from a run in which every public layer function records spans.  Every run
prints an environment record and a report before its last line, which is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 with a result; 1 when the program cannot be imported from
the checkout's src/ directory, or a run fails outside an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import ceil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 6
POOL_PROBE_REPEATS = 7
OVERHEAD_PROBE_S = 1.0

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Fresh-interpreter set-up: import the CLI from src/ and run one verify.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from discrepancy import cli; "
    "sys.exit(cli.main(sys.argv[2:]))"
)


def import_program():
    """Import discrepancy from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import discrepancy
    except ImportError as exc:
        raise SystemExit(f"error: cannot import discrepancy from {SRC}: {exc}")
    if not Path(discrepancy.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: discrepancy imported from {discrepancy.__file__}, not {SRC}")


def tail(times):
    """Highest whole percentile with at least 10 samples beyond it, by
    nearest rank: (percentile, value, samples beyond), or None."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 0, -1):
        idx = ceil(pct * n / 100) - 1
        if n - 1 - idx >= 10:
            return pct, ordered[idx], n - 1 - idx
    return None


def measure_setup(workdir: Path, repeats: int) -> list:
    """Wall times of fresh interpreters that each import the CLI from src/
    and complete the smallest verify (a one-edge graph, bichromatic, k=2)."""
    graph = workdir / "setup-edge.txt"
    graph.write_text("2 1\n1 2\n", encoding="utf-8")
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), "verify", "--type", "bichromatic",
            "--graph", str(graph), "-k", "2", "--threads", "1"]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.startswith("match:"):
            raise SystemExit(f"error: set-up verify failed: {proc.stdout} {proc.stderr}")
    return times


def pool_startup_s() -> float:
    """Median extra time of a 1-point solve at 2 workers over 1 worker."""
    from discrepancy import solvers
    from discrepancy.geometry import PointSet, WeightedPoint

    ps = PointSet(1, (WeightedPoint((Fraction(1, 2),)),))
    diffs = []
    for _ in range(POOL_PROBE_REPEATS):
        t0 = perf_counter()
        solvers.solve_star_discrepancy(ps, workers=1)
        t1 = perf_counter()
        solvers.solve_star_discrepancy(ps, workers=2)
        diffs.append(perf_counter() - t1 - (t1 - t0))
    return statistics.median(diffs)


def timed(op, tracer=None):
    """Run one operation, as the root span of `tracer` when one is given.
    An exception is returned as the result: it fails the operation."""
    t0 = perf_counter()
    try:
        result = op.run() if tracer is None else tracer.call(op.root, op.run)
    except Exception as exc:
        result = exc
    return result, perf_counter() - t0


class Run:
    """The closed loop over whole passes, with outcomes and timings."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.times = []  # per op, in execution order
        self.pass_times = []
        self.pass_layers = []  # per-layer metrics of each traced pass
        self.failures = []  # (op name, reason)
        self.known = []  # op names

    def execute(self, seconds: float) -> None:
        from tracing import layer_metrics
        from workloads import KNOWN, OK

        start = perf_counter()
        while True:
            pass_time = 0.0
            for op in self.ops:
                result, elapsed = timed(op, self.tracer)
                self.times.append(elapsed)
                pass_time += elapsed
                if isinstance(result, Exception):
                    verdict = f"raised {result!r}"
                else:
                    verdict = op.check(result)
                if verdict == KNOWN:
                    self.known.append(op.name)
                elif verdict != OK:
                    self.failures.append((op.name, verdict))
            self.pass_times.append(pass_time)
            if self.tracer is not None:
                self.pass_layers.append(layer_metrics(self.tracer.take()))
            if perf_counter() - start + statistics.mean(self.pass_times) > seconds:
                break

    def tracing_overhead(self, make_tracer) -> float:
        """Median traced-minus-untraced time of the first pass's cheapest
        operation, over pairs that alternate which way runs first; as many
        pairs as fit in about OVERHEAD_PROBE_S, at most 20."""
        first_pass = self.times[: len(self.ops)]
        i = min(range(len(first_pass)), key=first_pass.__getitem__)
        pairs = max(1, min(20, int(OVERHEAD_PROBE_S / 2 / first_pass[i])))
        diffs = []
        for n in range(pairs):
            elapsed = {}
            for traced in (False, True) if n % 2 == 0 else (True, False):
                tracer = make_tracer() if traced else None
                if tracer is not None:
                    tracer.install()
                try:
                    elapsed[traced] = timed(self.ops[i], tracer)[1]
                finally:
                    if tracer is not None:
                        tracer.uninstall()
            diffs.append(elapsed[True] - elapsed[False])
        return statistics.median(diffs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from tracing import EXACT_COUNTERS, LAYER_METRICS, MOVES, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        measure_setup(workdir, 1)  # writes the bytecode cache
        setup_times = measure_setup(workdir, SETUP_REPEATS)
        ops = workload.build(args.seed, workdir, workload.workers)
        pool_s = pool_startup_s()
        tracer = Tracer() if args.trace else None
        loop = Run(ops, tracer)
        if tracer is not None:
            tracer.install()
        try:
            loop.execute(args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        overhead_s = loop.tracing_overhead(Tracer)
        # Half the set-up samples come after the passes, so that the median
        # spans the run rather than its first seconds.
        setup_times += measure_setup(workdir, SETUP_REPEATS)

    attempted = len(loop.times)
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workers": {name: w.workers for name, w in WORKLOADS.items()},
        "solvers.pool_startup_s": pool_s,
        "tracing_overhead_s_per_op": overhead_s,
        "ops_per_pass": len(ops),
        "passes": len(loop.pass_times),
    }
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, reason in loop.failures:
        print(f"FAILED {name}: {reason}")
    known = sorted(set(loop.known))
    print(f"known_mismatch {len(loop.known)} of {attempted} ops"
          + (f" (acceptance 03, red by design): {', '.join(known)}" if known else ""))
    print(f"failed_share {len(loop.failures) / attempted:.6g} ({len(loop.failures)} of {attempted})")

    correct = not loop.failures
    if args.trace:
        # Counters repeat exactly across passes over the same inputs.
        first = loop.pass_layers[0]
        for layers in loop.pass_layers[1:]:
            for name in EXACT_COUNTERS:
                if layers[name] != first[name]:
                    correct = False
                    print(f"FAILED counter {name} differs between passes: "
                          f"{first[name]} then {layers[name]}")
        values = {
            name: statistics.median(p[name] for p in loop.pass_layers)
            for name, _ in LAYER_METRICS
            if name != "solvers.pool_startup_s"
        }
        values["solvers.pool_startup_s"] = pool_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
        print("per-layer metrics, per pass (median over passes):")
        for name, unit in LAYER_METRICS:
            print(f"  {name:28s} {values[name]:.6g} {unit}")
        print("which end-to-end metric each layer metric should move:")
        for layer, e2e, on, not_on in MOVES:
            print(f"  {layer}: moves {e2e} on {on}; not on {not_on}")
    else:
        tail_pct, tail_s, beyond = tail(loop.times) or (100, max(loop.times), 0)
        values = {
            "ops_per_s": attempted / sum(loop.times),
            "op_s.p50": statistics.median(loop.times),
            "op_s.tail": tail_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print("end-to-end metrics:")
        for name, unit in END_TO_END:
            print(f"  {name:12s} {values[name]:.6g} {unit}")
        print(f"  op_s.tail is p{tail_pct} of {attempted} samples, {beyond} beyond it")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
