"""Command-line surface: build gadget instances, solve them, verify the
clique equivalences end to end, and benchmark solver scaling.

Exit codes: 0 success (and, for verify, equivalence holds), 1 verification
mismatch, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from fractions import Fraction
from math import prod
from pathlib import Path
from time import perf_counter

from . import gadgets, instances, oracles, solvers
from .geometry import BLUE, RED, AnchoredBox, Box, HalfSpace, PointSet, WeightedPoint
from .numerics import format_rational, parse_rational

# Gadget type -> builder(graph, k, mu, raw).  Each lambda looks its
# `gadgets.build_*` function up when called, so patched attributes are seen.
_GADGETS = {
    "bichromatic": lambda g, k, mu, raw: gadgets.build_bichromatic_gadget(g, k, normalize=not raw),
    "redblue": lambda g, k, mu, raw: gadgets.build_redblue_gadget(g, k, normalize=not raw),
    "empty-star": lambda g, k, mu, raw: gadgets.build_empty_star_gadget(
        g, k, mu if mu is not None else Fraction(2)
    ),
    "star-disc": lambda g, k, mu, raw: gadgets.build_star_discrepancy_gadget(g, k),
    "empty-box": lambda g, k, mu, raw: gadgets.build_empty_box_gadget(g, k),
    "box-disc": lambda g, k, mu, raw: gadgets.build_box_discrepancy_gadget(g, k),
    "halfspace": lambda g, k, mu, raw: gadgets.build_halfspace_gadget(g, k),
    "net-halfspace": lambda g, k, mu, raw: gadgets.build_net_instance(g, k, "halfspace"),
    "net-box": lambda g, k, mu, raw: gadgets.build_net_instance(g, k, "box"),
}

# Box problem -> (solvers function name, report field that verify compares,
# report fields printed after the witness).  These are also the bench problems.
_BOXES = {
    "star-disc": ("solve_star_discrepancy", "value", ("side",)),
    "box-disc": ("solve_box_discrepancy", "value", ("side",)),
    "empty-star": ("solve_max_empty_star", "volume", ()),
    "empty-box": ("solve_max_empty_box", "volume", ()),
    "bichromatic-box": ("solve_bichromatic_box", "value", ("feasible",)),
    "redblue-disc": ("solve_redblue_box_discrepancy", "value", ("side",)),
}


def _witness_doc(witness):
    if witness is None:
        return None
    if isinstance(witness, AnchoredBox):
        return {
            "type": "anchored-box",
            "upper": [format_rational(c) for c in witness.upper],
            "closure": "closed" if witness.closed else "open",
        }
    if isinstance(witness, Box):
        return {
            "type": "box",
            "lower": [format_rational(c) for c in witness.lower],
            "upper": [format_rational(c) for c in witness.upper],
            "closure": "closed" if witness.closed else "open",
        }
    if isinstance(witness, HalfSpace):
        return {
            "type": "halfspace",
            "normal": [format_rational(c) for c in witness.normal],
            "offset": format_rational(witness.offset),
        }
    raise TypeError(f"unknown witness type: {type(witness)!r}")


def _witness_text(witness) -> str:
    doc = _witness_doc(witness)
    if doc is None:
        return "none"
    if doc["type"] == "anchored-box":
        return f"{doc['closure']} anchored box upper=({', '.join(doc['upper'])})"
    if doc["type"] == "box":
        return (
            f"{doc['closure']} box lower=({', '.join(doc['lower'])}) "
            f"upper=({', '.join(doc['upper'])})"
        )
    return f"half-space normal=({', '.join(doc['normal'])}) offset={doc['offset']}"


# A solve step maps (instance, workers, half-space threshold or None) to
# (the value verify compares, the printed value, the witness, extra fields).


def _box_step(problem: str):
    solver, field, extra = _BOXES[problem]

    def step(inst: gadgets.GadgetInstance, workers: int, m=None):
        rep = getattr(solvers, solver)(inst.points, workers=workers)
        got = getattr(rep, field)
        return got, format_rational(got), rep.witness, {key: getattr(rep, key) for key in extra}

    return step


def _halfspace_step(inst: gadgets.GadgetInstance, workers: int, m=None):
    threshold = m if m is not None else int(inst.expected_positive)
    rep = solvers.solve_bichromatic_halfspace(inst.points, threshold)
    value = "feasible" if rep.feasible else "infeasible"
    return rep.feasible, value, rep.witness, {"m": threshold, "blue_weight": rep.value}


def _net_step(family: str):
    def step(inst: gadgets.GadgetInstance, workers: int, m=None):
        mask = [p.in_s for p in inst.points.points]
        rep = solvers.verify_epsilon_net(inst.points, mask, inst.params.eps, family, workers=workers)
        value = "is-net" if rep.is_net else "not-a-net"
        return rep.is_net, value, rep.violator, {"eps": format_rational(inst.params.eps)}

    return step


_SOLVE = {problem: _box_step(problem) for problem in _BOXES}
_SOLVE["halfspace-bichromatic"] = _halfspace_step
_SOLVE["net-halfspace"] = _net_step("halfspace")
_SOLVE["net-box"] = _net_step("box")


def _expected_outcome(inst: gadgets.GadgetInstance, clique: bool):
    """The solver outcome the clique oracle implies, as (kind, payload)."""
    problem = inst.problem
    if problem == "bichromatic-box":
        return ("eq" if clique else "le", inst.expected_positive if clique else inst.expected_positive - 1)
    if problem in ("redblue-disc", "star-disc", "box-disc"):
        return ("eq" if clique else "lt", inst.expected_positive)
    if problem in ("empty-star", "empty-box"):
        # A no-instance stays at or below C^k/mu, attained iff a (k-1)-clique.
        return ("eq", inst.expected_positive) if clique else ("le", inst.expected_negative)
    if problem == "halfspace-bichromatic":
        return ("feasible", clique)
    if problem in ("net-halfspace", "net-box"):
        return ("is_net", not clique)
    raise ValueError(f"unknown problem: {problem}")


def _recompute_params(inst: gadgets.GadgetInstance) -> list[str]:
    """Cross-check the embedded params against the emitted points."""
    problems = []
    total = inst.points.total_weight
    if total != inst.params.N:
        problems.append(f"params.N={inst.params.N} but recomputed total weight {total}")
    if inst.points.dim != 2 * inst.params.k:
        problems.append(f"dim {inst.points.dim} != 2k = {2 * inst.params.k}")
    mu, C, V = inst.params.mu, inst.params.C, inst.params.V
    if mu is not None and C is not None:
        if C * mu ** (inst.params.n - 1) != 1:
            problems.append("C != 1/mu^(n-1)")
        if V is not None and V != C ** inst.params.k:
            problems.append("V != C^k")
    if inst.problem == "redblue-disc":
        origin_weight = sum(
            p.weight for p in inst.points.points if all(c == 0 for c in p.coords)
        )
        if inst.expected_positive != origin_weight + inst.params.k:
            problems.append(
                f"expected_positive {inst.expected_positive} != origin weight "
                f"{origin_weight} + k"
            )
    return problems


def _verify(kind: str, graph: gadgets.Graph, k: int, workers: int, out) -> int:
    inst = _GADGETS[kind](graph, k, None, False)
    clique = oracles.has_clique(graph, k)
    param_problems = _recompute_params(inst)
    if param_problems:
        for line in param_problems:
            print(f"param mismatch: {line}", file=out)
        return 1
    kind_, payload = _expected_outcome(inst, clique)
    got = _SOLVE[inst.problem](inst, workers)[0]
    if kind_ == "lt":
        ok = got < payload
    elif kind_ == "le":
        ok = got <= payload
        if inst.problem in ("empty-star", "empty-box"):
            ok = ok and (got == payload) == oracles.has_clique(graph, k - 1)
    else:
        ok = got == payload
    status = "match" if ok else "MISMATCH"
    print(
        f"{status}: type={kind} k={k} clique={clique} expected=({kind_}, {payload}) got={got}",
        file=out,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Benchmark harness.


def _random_point_set(rng: random.Random, d: int, n: int, colored: bool) -> PointSet:
    pts = []
    for idx in range(n):
        coords = tuple(Fraction(rng.randint(0, 64), 64) for _ in range(d))
        color = (BLUE if idx == 0 else rng.choice((RED, BLUE))) if colored else None
        pts.append(WeightedPoint(coords, color, 1))
    return PointSet(d, pts and tuple(pts) or ())


def _projected_candidates(problem: str, ps: PointSet) -> int:
    if problem in ("bichromatic-box", "redblue-disc"):
        # Closed boxes with both faces on majority coordinates: blue pairs,
        # plus red pairs for the red-majority pass of red-blue discrepancy.
        colors = (BLUE,) if problem == "bichromatic-box" else (BLUE, RED)
        total = 0
        for color in colors:
            sizes = [len({p.coords[j] for p in ps.colored(color)}) for j in range(ps.dim)]
            total += prod(s * (s + 1) // 2 for s in sizes)
        return total
    per_dim = []
    for j in range(ps.dim):
        coords = {p.coords[j] for p in ps.points}
        if problem in ("star-disc", "empty-star"):
            per_dim.append(len(coords | {Fraction(1)}))
        else:
            # Lower faces on coordinates or 0, upper faces on coordinates or 1.
            his = coords | {Fraction(1)}
            per_dim.append(sum(a <= b for a in coords | {Fraction(0)} for b in his))
    return prod(per_dim)


BENCH_HEADER = ("problem", "d", "n_points", "candidates_evaluated", "elapsed_ms", "status")


def bench_scaling(problem: str, dims, sizes, seed: int = 0, cutoff: int = 2_000_000):
    """One row per (d, n): exact candidate count and wall time after one
    warm-up run; rows whose projected candidate count exceeds the cutoff
    are marked skipped instead of burning CI time."""
    rng = random.Random(seed)
    colored = problem in ("bichromatic-box", "redblue-disc")
    rows = []
    for d in dims:
        for n in sizes:
            ps = _random_point_set(rng, d, n, colored)
            projected = _projected_candidates(problem, ps)
            if projected > cutoff:
                rows.append((problem, d, n, projected, "", "skipped"))
                continue
            solve = getattr(solvers, _BOXES[problem][0])
            solve(ps)  # warm-up
            t0 = perf_counter()
            cands = solve(ps).candidates_evaluated
            elapsed_ms = (perf_counter() - t0) * 1000.0
            rows.append((problem, d, n, cands, f"{elapsed_ms:.3f}", "ok"))
    return rows


def _append_bench_rows(path: Path, rows) -> None:
    new_file = not path.exists()
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(BENCH_HEADER)
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discrepancy",
        description="Exact toolkit for geometric discrepancy problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gadget = sub.add_parser("gadget", help="compile a graph into an instance file")
    p_gadget.add_argument("--type", required=True, choices=tuple(_GADGETS))
    p_gadget.add_argument("--graph", required=True)
    p_gadget.add_argument("-k", type=int, required=True)
    p_gadget.add_argument("--mu", help="gap parameter p/q for empty-star (default 2)")
    p_gadget.add_argument("--raw", action="store_true", help="skip 1/(n+1) normalization")
    p_gadget.add_argument("-o", "--output", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--problem", help="must match the instance's problem")
    p_solve.add_argument("--m", type=int, help="half-space blue-weight threshold")
    p_solve.add_argument("--threads", type=int, default=None)
    p_solve.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="graph -> gadget -> solver -> clique oracle")
    p_verify.add_argument("--type", required=True, choices=tuple(_GADGETS))
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("-k", type=int, required=True)
    p_verify.add_argument("--threads", type=int, default=None)

    p_bench = sub.add_parser("bench", help="random-instance scaling rows to CSV")
    p_bench.add_argument("--problem", required=True, choices=tuple(_BOXES))
    p_bench.add_argument("--dims", required=True, help="comma-separated dimensions")
    p_bench.add_argument("--sizes", required=True, help="comma-separated point counts")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--cutoff", type=int, default=2_000_000)
    p_bench.add_argument("-o", "--output", required=True)
    return parser


def _workers(args) -> int:
    threads = getattr(args, "threads", None)
    if threads is None:
        env = os.environ.get("DISCREPANCY_THREADS")
        if not env:
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"DISCREPANCY_THREADS must be an integer, got {env!r}")
    if threads < 1:
        raise ValueError(f"worker count must be at least 1, got {threads}")
    return threads


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _dispatch(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "gadget":
        if args.mu is not None and args.type != "empty-star":
            raise ValueError("--mu applies only to --type empty-star")
        if args.raw and args.type not in ("bichromatic", "redblue"):
            raise ValueError("--raw applies only to --type bichromatic and redblue")
        graph = instances.read_graph(args.graph)
        mu = parse_rational(args.mu) if args.mu else None
        inst = _GADGETS[args.type](graph, args.k, mu, args.raw)
        instances.write_instance(args.output, inst)
        print(f"wrote {args.output}: problem={inst.problem} dim={inst.points.dim} "
              f"points={len(inst.points)}")
        return 0

    if args.command == "solve":
        inst = instances.read_instance(args.instance)
        if args.problem and args.problem != inst.problem:
            raise ValueError(f"instance is {inst.problem!r}, not {args.problem!r}")
        if args.m is not None and inst.problem != "halfspace-bichromatic":
            raise ValueError(f"--m applies only to halfspace-bichromatic, not {inst.problem!r}")
        _, value, witness, extra = _SOLVE[inst.problem](inst, _workers(args), args.m)
        if args.json:
            doc = {"problem": inst.problem, "value": value, "witness": _witness_doc(witness)}
            doc.update(extra)
            print(json.dumps(doc, sort_keys=True))
        else:
            print(value)
            print(f"witness: {_witness_text(witness)}")
            for key, val in extra.items():
                print(f"{key}: {val}")
        return 0

    if args.command == "verify":
        graph = instances.read_graph(args.graph)
        return _verify(args.type, graph, args.k, _workers(args), sys.stdout)

    if args.command == "bench":
        dims = [int(x) for x in args.dims.split(",") if x]
        sizes = [int(x) for x in args.sizes.split(",") if x]
        rows = bench_scaling(args.problem, dims, sizes, args.seed, args.cutoff)
        _append_bench_rows(Path(args.output), rows)
        for row in rows:
            print(",".join(str(x) for x in row))
        return 0

    raise ValueError(f"unknown command: {args.command}")


if __name__ == "__main__":
    sys.exit(main())
