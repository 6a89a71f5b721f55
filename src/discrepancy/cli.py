"""Command-line surface: build gadget instances, solve them, verify the
clique equivalences end to end, and benchmark solver scaling.

Exit codes: 0 success (and, for verify, equivalence holds), 1 verification
mismatch, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import gadgets, instances, oracles, solvers
from .geometry import BLUE, RED, AnchoredBox, Box, HalfSpace, PointSet, WeightedPoint
from .instances import format_rational, parse_rational

# Gadget type -> builder(graph, k, mu).  Each lambda looks its
# `gadgets.build_*` function up when called, so patched attributes are seen.
_GADGETS = {
    "bichromatic": lambda g, k, mu: gadgets.build_bichromatic_gadget(g, k),
    "redblue": lambda g, k, mu: gadgets.build_redblue_gadget(g, k),
    "empty-star": lambda g, k, mu: gadgets.build_empty_star_gadget(
        g, k, mu if mu is not None else Fraction(2)
    ),
    "star-disc": lambda g, k, mu: gadgets.build_star_discrepancy_gadget(g, k),
    "empty-box": lambda g, k, mu: gadgets.build_empty_box_gadget(g, k),
    "box-disc": lambda g, k, mu: gadgets.build_box_discrepancy_gadget(g, k),
    "halfspace": lambda g, k, mu: gadgets.build_halfspace_gadget(g, k),
    "net-halfspace": lambda g, k, mu: gadgets.build_net_instance(g, k, "halfspace"),
    "net-box": lambda g, k, mu: gadgets.build_net_instance(g, k, "box"),
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


def _box_step(inst: gadgets.GadgetInstance, workers: int, m=None):
    solver, field, extra = _BOXES[inst.problem]
    rep = getattr(solvers, solver)(inst.points, workers=workers)
    got = getattr(rep, field)
    return got, format_rational(got), rep.witness, {key: getattr(rep, key) for key in extra}


def _halfspace_step(inst: gadgets.GadgetInstance, workers: int, m=None):
    threshold = m if m is not None else int(inst.expected_positive)
    rep = solvers.solve_bichromatic_halfspace(inst.points, threshold)
    value = "feasible" if rep.feasible else "infeasible"
    return rep.feasible, value, rep.witness, {"m": threshold, "blue_weight": rep.value}


def _net_step(inst: gadgets.GadgetInstance, workers: int, m=None):
    mask = [p.in_s for p in inst.points.points]
    family = inst.problem.removeprefix("net-")
    rep = solvers.verify_epsilon_net(inst.points, mask, inst.params.eps, family, workers=workers)
    value = "is-net" if rep.is_net else "not-a-net"
    return rep.is_net, value, rep.violator, {"eps": format_rational(inst.params.eps)}


_SOLVE = dict.fromkeys(_BOXES, _box_step)
_SOLVE["halfspace-bichromatic"] = _halfspace_step
_SOLVE["net-halfspace"] = _SOLVE["net-box"] = _net_step


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
    return ("is_net", not clique)


def _verify(kind: str, graph: gadgets.Graph, k: int, workers: int) -> int:
    inst = _GADGETS[kind](graph, k, None)
    clique = oracles.has_clique(graph, k)
    total = inst.points.total_weight
    if total != inst.params.N:
        print(f"param mismatch: params.N={inst.params.N} but recomputed total weight {total}")
        return 1
    kind_, payload = _expected_outcome(inst, clique)
    got, _, witness, _ = _SOLVE[inst.problem](inst, workers)
    if kind_ == "lt":
        ok = got < payload
    elif kind_ == "le":
        ok = got <= payload
        if inst.problem in ("empty-star", "empty-box"):
            ok = ok and (got == payload) == oracles.has_clique(graph, k - 1)
    else:
        ok = got == payload
    status = "match" if ok else "MISMATCH"
    print(f"{status}: type={kind} k={k} clique={clique} expected=({kind_}, {payload}) got={got}")
    if not ok:
        edges = ",".join(f"{u}-{v}" for u, v in sorted(graph.edges)) or "none"
        print(
            f"reproduce: n={graph.n} edges={edges} type={kind} k={k} workers={workers} "
            f"witness={_witness_text(witness)}",
            file=sys.stderr,
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
    return PointSet(d, tuple(pts))


def _projected_candidates(problem: str, ps: PointSet) -> int:
    colors = {"bichromatic-box": (BLUE,), "redblue-disc": (BLUE, RED)}.get(problem, ())
    return solvers.grid_cells(ps, problem in ("star-disc", "empty-star"), colors)


BENCH_HEADER = ("problem", "d", "n_points", "candidates_evaluated", "elapsed_ms", "status")


def bench_scaling(problem: str, dims, sizes, seed: int, cutoff: int):
    """One row per (d, n): exact candidate count and the solver's own wall
    time after one warm-up run; a row whose grid size (`grid_cells`, which
    bounds the count and equals it only for star and box discrepancy) passes
    the cutoff is skipped, with that size as its count.  Raises ValueError,
    before any set is built, on a dimension outside 1..MAX_SCAN_DIM, a size
    outside 1..MAX_GADGET_POINTS, or a d * n above MAX_GADGET_POINTS."""
    for name, values, top in (
        ("dimension", dims, solvers.MAX_SCAN_DIM),
        ("size", sizes, gadgets.MAX_GADGET_POINTS),
    ):
        for v in values:
            if not 1 <= v <= top:
                raise ValueError(f"bench {name} must be between 1 and {top}, got {v}")
    d, n, top = max(dims, default=0), max(sizes, default=0), gadgets.MAX_GADGET_POINTS
    if d * n > top:
        raise ValueError(f"bench dimension times size must be at most {top}, got {d} * {n}")
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
            rep = solve(ps)
            rows.append((problem, d, n, rep.candidates_evaluated, f"{rep.elapsed * 1000:.3f}", "ok"))
    return rows


def _append_bench_rows(path: Path, rows) -> None:
    new_file = not path.exists()
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(BENCH_HEADER)
        writer.writerows(rows)


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
    p_gadget.add_argument("-o", "--output", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--problem", help="must match the instance's problem")
    p_solve.add_argument("--m", type=int, help="half-space blue-weight threshold")
    p_solve.add_argument("--threads", type=int, default=1)
    p_solve.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="graph -> gadget -> solver -> clique oracle")
    p_verify.add_argument("--type", required=True, choices=tuple(_GADGETS))
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("-k", type=int, required=True)
    p_verify.add_argument("--threads", type=int, default=1)

    p_bench = sub.add_parser("bench", help="random-instance scaling rows to CSV")
    p_bench.add_argument("--problem", required=True, choices=tuple(_BOXES))
    p_bench.add_argument("--dims", required=True, help="comma-separated dimensions")
    p_bench.add_argument("--sizes", required=True, help="comma-separated point counts")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--cutoff", type=int, default=2_000_000)
    p_bench.add_argument("-o", "--output", required=True)
    return parser


# Built once per process: `_GADGETS` and `_BOXES` never change at run time.
_PARSER = _make_parser()


def _workers(args) -> int:
    if args.threads < 1:
        raise ValueError(f"worker count must be at least 1, got {args.threads}")
    return args.threads


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
        graph = instances.read_graph(args.graph)
        mu = parse_rational(args.mu) if args.mu else None
        inst = _GADGETS[args.type](graph, args.k, mu)
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
        return _verify(args.type, graph, args.k, _workers(args))

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
