"""Tests of the benchmark itself, on small slices of each workload:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

# Cheap operations per workload; together they reach every counted layer.
SLICES = {
    "gadget-box": lambda name: name.endswith("k=2") and name.split()[0] in ("bichromatic", "net-box"),
    "gadget-halfspace": lambda name: "n3-triangle" in name or "n3-path" in name,
    "random-solve": lambda name: name.startswith(("bichromatic-box", "redblue-disc")),
}


def traced_counters(workload_name, seed, tmp_path):
    workload = workloads.WORKLOADS[workload_name]
    workdir = tmp_path / f"{workload_name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    ops = {op.name: op for op in workload.build(seed, workdir, workload.workers)
           if SLICES[workload_name](op.name)}
    ops = list(ops.values())
    assert ops
    tracer = tracing.Tracer()
    loop = run.Run(ops, tracer)
    tracer.install()
    try:
        loop.execute(seconds=0)
    finally:
        tracer.uninstall()
    assert not loop.failures
    (layers,) = loop.pass_layers
    return {name: layers[name] for name in tracing.EXACT_COUNTERS}


@pytest.mark.parametrize("workload_name", sorted(SLICES))
def test_traced_counters_repeat_exactly(workload_name, tmp_path):
    first = traced_counters(workload_name, 11, tmp_path)
    second = traced_counters(workload_name, 11, tmp_path)
    assert first == second
    if workload_name == "gadget-halfspace":
        assert first["separation.lp_solves"] > 0
        assert first["solvers.candidates"] == 0
    else:
        assert first["separation.lp_solves"] == 0
        assert first["solvers.candidates"] > 0
    if workload_name == "random-solve":
        assert first["gadgets.points"] == 0
    else:
        assert first["gadgets.points"] > 0


def test_tail_needs_ten_samples_beyond():
    assert run.tail([0.1] * 10) is None
    pct, value, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (pct, value, beyond) == (90, 90.0, 10)


def test_verify_check_uses_brute_force_clique(tmp_path):
    build = workloads.WORKLOADS["gadget-box"].build
    op = next(o for o in build(3, tmp_path, 1) if o.name == "bichromatic n4-K4 k=3")
    rc, out, err = op.run()
    assert op.check((rc, out, err)) == workloads.OK
    assert op.check((rc, out.replace("clique=True", "clique=False"), err)) != workloads.OK
    assert op.check((1, out.replace("match", "MISMATCH"), err)) != workloads.OK


def test_known_mismatch_is_reported_not_hidden(tmp_path):
    build = workloads.WORKLOADS["gadget-box"].build
    ops = {o.name: o for o in build(3, tmp_path, 1)}
    assert workloads.KNOWN_MISMATCHES <= set(ops)
    op = ops["empty-star n4-empty k=3"]
    assert op.check(op.run()) == workloads.KNOWN


def test_recount_rejects_a_wrong_value(tmp_path):
    ops = workloads.WORKLOADS["random-solve"].build(5, tmp_path, 1)
    op = next(o for o in ops if o.name.startswith("star-disc"))
    rep = op.run()
    assert op.check(rep) == workloads.OK
    assert op.check(replace(rep, value=rep.value + Fraction(1, 64))) != workloads.OK
