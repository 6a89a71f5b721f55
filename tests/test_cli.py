import csv
import json
from fractions import Fraction

import pytest

from discrepancy import cli
from discrepancy.instances import read_instance

F = Fraction

K3_TEXT = "3 3\n1 2\n2 3\n1 3\n"
EDGE_TEXT = "2 1\n1 2\n"
EMPTY2_TEXT = "2 0\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text(EDGE_TEXT)
    return str(path)


def test_gadget_writes_instance(k3_file, tmp_path):
    out = tmp_path / "inst.json"
    rc = cli.main(["gadget", "--type", "bichromatic", "--graph", k3_file, "-k", "2", "-o", str(out)])
    assert rc == 0
    inst = read_instance(out)
    assert inst.points.dim == 4 and len(inst.points) == 14


def test_solve_prints_exact_value(edge_file, tmp_path, capsys):
    out = tmp_path / "es.json"
    cli.main(["gadget", "--type", "empty-star", "--graph", edge_file, "-k", "2", "--mu", "2", "-o", str(out)])
    capsys.readouterr()
    rc = cli.main(["solve", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == "1/4"


def test_solve_json_output(edge_file, tmp_path, capsys):
    out = tmp_path / "es.json"
    cli.main(["gadget", "--type", "empty-star", "--graph", edge_file, "-k", "2", "-o", str(out)])
    capsys.readouterr()
    rc = cli.main(["solve", str(out), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["value"] == "1/4"
    assert doc["witness"]["type"] == "anchored-box"


def test_solve_problem_mismatch_is_usage_error(edge_file, tmp_path, capsys):
    out = tmp_path / "es.json"
    cli.main(["gadget", "--type", "empty-star", "--graph", edge_file, "-k", "2", "-o", str(out)])
    rc = cli.main(["solve", str(out), "--problem", "star-disc"])
    assert rc == 2


def test_solve_output_independent_of_threads(edge_file, tmp_path, capsys):
    out = tmp_path / "sd.json"
    cli.main(["gadget", "--type", "star-disc", "--graph", edge_file, "-k", "2", "-o", str(out)])
    capsys.readouterr()
    outputs = []
    for threads in ("1", "2", "8"):
        rc = cli.main(["solve", str(out), "--threads", threads])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_threads_env_override(edge_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "sd.json"
    cli.main(["gadget", "--type", "star-disc", "--graph", edge_file, "-k", "2", "-o", str(out)])
    capsys.readouterr()
    assert cli.main(["solve", str(out)]) == 0
    base = capsys.readouterr().out
    monkeypatch.setenv("DISCREPANCY_THREADS", "4")
    assert cli.main(["solve", str(out)]) == 0
    assert capsys.readouterr().out == base
    monkeypatch.setenv("DISCREPANCY_THREADS", "many")
    assert cli.main(["solve", str(out)]) == 2


def test_verify_positive_and_negative(k3_file, tmp_path, capsys):
    assert cli.main(["verify", "--type", "star-disc", "--graph", k3_file, "-k", "2"]) == 0
    empty = tmp_path / "empty2.txt"
    empty.write_text(EMPTY2_TEXT)
    assert cli.main(["verify", "--type", "bichromatic", "--graph", str(empty), "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "match" in out


def test_verify_every_type_on_small_graphs(k3_file, edge_file, tmp_path):
    for kind in cli._GADGETS:
        for graph in (k3_file, edge_file):
            assert cli.main(["verify", "--type", kind, "--graph", graph, "-k", "2"]) == 0, kind


def test_verify_mismatch_exits_one(k3_file, monkeypatch, capsys):
    from discrepancy import solvers

    real = solvers.solve_bichromatic_box

    def wrong(ps, anchored=False, workers=1):
        rep = real(ps, anchored=anchored, workers=workers)
        return type(rep)(rep.value + 1, rep.witness, rep.feasible, rep.candidates_evaluated, rep.elapsed)

    monkeypatch.setattr(solvers, "solve_bichromatic_box", wrong)
    rc = cli.main(["verify", "--type", "bichromatic", "--graph", k3_file, "-k", "2"])
    assert rc == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path, capsys):
    assert cli.main(["verify", "--type", "bichromatic", "--graph", str(tmp_path / "nope.txt"), "-k", "2"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 1\n")
    assert cli.main(["gadget", "--type", "bichromatic", "--graph", str(bad), "-k", "2", "-o", str(tmp_path / "x.json")]) == 2
    assert cli.main(["solve", str(tmp_path / "missing.json")]) == 2


def test_malformed_instance_files_exit_two(edge_file, tmp_path, capsys):
    good = tmp_path / "es.json"
    cli.main(["gadget", "--type", "empty-star", "--graph", edge_file, "-k", "2", "-o", str(good)])
    doc = json.loads(good.read_text())
    bad_entry = dict(doc, points=[5] + doc["points"][1:])
    bad_weight = json.loads(good.read_text())
    bad_weight["points"][0]["weight"] = True
    capsys.readouterr()
    for content in ([], 3, "x", bad_entry, dict(doc, points=7), bad_weight):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        assert cli.main(["solve", str(path)]) == 2, content
        assert capsys.readouterr().err.startswith("error: ")


def test_bench_rows_and_skip(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main([
        "bench", "--problem", "star-disc", "--dims", "2,3", "--sizes", "6",
        "--seed", "5", "-o", str(out),
    ])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == list(cli.BENCH_HEADER)
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[5] == "ok"
        # candidate count is the full corner grid, exactly
        assert int(row[3]) >= 1
    # cutoff forces a skipped row
    rc = cli.main([
        "bench", "--problem", "box-disc", "--dims", "3", "--sizes", "12",
        "--cutoff", "10", "-o", str(out),
    ])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[-1][5] == "skipped"


def test_bench_candidates_match_grid_product(tmp_path):
    import random

    from discrepancy import solve_box_discrepancy, solve_star_discrepancy
    from discrepancy.cli import _projected_candidates, _random_point_set

    rng = random.Random(5)
    ps = _random_point_set(rng, 2, 6, colored=False)
    rep = solve_star_discrepancy(ps)
    sizes = []
    for j in range(ps.dim):
        vals = {p.coords[j] for p in ps.points} | {F(1)}
        sizes.append(len(vals))
    expected = 1
    for s in sizes:
        expected *= s
    assert rep.candidates_evaluated == expected
    assert _projected_candidates("star-disc", ps) == expected
    # Free boxes pair a lower face with an upper face at or above it.
    for d in (2, 3):
        ps = _random_point_set(random.Random(5), d, 6, colored=False)
        rep = solve_box_discrepancy(ps)
        assert _projected_candidates("box-disc", ps) == rep.candidates_evaluated
    # The majority scans prune, so the projection bounds their count; red-blue
    # scans red pairs as well as blue ones.
    from discrepancy import solve_bichromatic_box, solve_redblue_box_discrepancy

    for seed in range(3):
        rng = random.Random(seed)
        for d in (1, 2, 3):
            for n in (3, 5, 8):
                ps = _random_point_set(rng, d, n, colored=True)
                for problem, solve in (("bichromatic-box", solve_bichromatic_box),
                                       ("redblue-disc", solve_redblue_box_discrepancy)):
                    cands = solve(ps).candidates_evaluated
                    assert cands <= _projected_candidates(problem, ps), (problem, seed, d, n)


def test_verify_empty_ranges_accept_no_instance_below_the_bound(tmp_path, capsys):
    # Edgeless n=4 at k=3 has no 2-clique, so the optimum lies strictly
    # below the stated C^k/mu.
    edgeless = tmp_path / "empty4.txt"
    edgeless.write_text("4 0\n")
    for kind in ("empty-star", "empty-box"):
        assert cli.main(["verify", "--type", kind, "--graph", str(edgeless), "-k", "3"]) == 0, kind
        out = capsys.readouterr().out
        assert out.startswith("match:") and "expected=(le, " in out, out


def test_malformed_params_and_in_s_exit_two(k3_file, tmp_path, capsys):
    good = tmp_path / "net.json"
    cli.main(["gadget", "--type", "net-box", "--graph", k3_file, "-k", "2", "-o", str(good)])
    bad_k = json.loads(good.read_text())
    bad_k["params"]["k"] = "x"
    bad_in_s = json.loads(good.read_text())
    bad_in_s["points"][0]["in_S"] = "yes"
    capsys.readouterr()
    for content in (bad_k, bad_in_s):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        assert cli.main(["solve", str(path)]) == 2, content
        assert capsys.readouterr().err.startswith("error: ")


def test_every_gadget_type_has_a_solve_step(k3_file, tmp_path, capsys):
    from discrepancy import Graph, gadgets

    graph = Graph.make(3, [(1, 2), (2, 3), (1, 3)])
    for kind, build in cli._GADGETS.items():
        assert build(graph, 2, None, False).problem in cli._SOLVE, kind
    assert set(cli._SOLVE) == set(gadgets.PROBLEMS)
    out = tmp_path / "mu0.json"
    argv = ["gadget", "--type", "empty-star", "--graph", k3_file, "-k", "2", "--mu", "0", "-o", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_zero_denominators_exit_two(edge_file, tmp_path, capsys):
    out = tmp_path / "es.json"
    argv = ["gadget", "--type", "empty-star", "--graph", edge_file, "-k", "2", "-o", str(out)]
    assert cli.main(argv + ["--mu", "1/0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    doc["points"][0]["coords"][0] = "1/0"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["solve", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_worker_counts_below_one_exit_two(k3_file, monkeypatch, capsys):
    verify = ["verify", "--type", "star-disc", "--graph", k3_file, "-k", "2"]
    for threads in ("0", "-3"):
        assert cli.main(verify + ["--threads", threads]) == 2, threads
        assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.setenv("DISCREPANCY_THREADS", "0")
    assert cli.main(verify) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(verify + ["--threads", "1"]) == 0


def test_flags_that_do_not_apply_exit_two(k3_file, tmp_path, capsys):
    out = tmp_path / "x.json"
    gadget = ["gadget", "--graph", k3_file, "-k", "2", "-o", str(out)]
    for extra in (["--type", "star-disc", "--mu", "5"], ["--type", "star-disc", "--raw"],
                  ["--type", "bichromatic", "--mu", "3"], ["--type", "empty-star", "--raw"]):
        assert cli.main(gadget + extra) == 2, extra
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
    assert cli.main(gadget + ["--type", "star-disc"]) == 0
    capsys.readouterr()
    assert cli.main(["solve", str(out), "--m", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # Where the flags apply they are still read.
    assert cli.main(gadget + ["--type", "empty-star", "--mu", "3"]) == 0
    assert read_instance(str(out)).params.mu == 3
    assert cli.main(gadget + ["--type", "redblue", "--raw"]) == 0
    assert cli.main(gadget + ["--type", "halfspace"]) == 0
    capsys.readouterr()
    assert cli.main(["solve", str(out), "--m", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 3
