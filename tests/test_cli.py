import csv
import hashlib
import json
from fractions import Fraction
from time import perf_counter

import pytest

from discrepancy import cli
from discrepancy.instances import read_graph, read_instance

F = Fraction

K3_TEXT = "3 3\n1 2\n2 3\n1 3\n"
EDGE_TEXT = "2 1\n1 2\n"
EMPTY2_TEXT = "2 0\n"
K5_TEXT = "5 10\n1 2\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n3 4\n3 5\n4 5\n"
K4_FREE_TEXT = "5 8\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n3 5\n4 5\n"


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


K3_HALFSPACE = {
    "type": "halfspace",
    "normal": ["-30255/608", "-18425/304", "-725/32", "-75"],
    "offset": "-2507/32",
}
K3_NET_BOX = {"type": "box", "closure": "closed", "lower": ["0"] * 4, "upper": ["1/4", "3/4", "1/2", "1/2"]}
K3_HALFSPACE_TEXT = "half-space normal=(-30255/608, -18425/304, -725/32, -75) offset=-2507/32"

# (graph, type) -> stdout of `solve` on its k = 2 instance, and the witness of `solve --json`.
SOLVE_OUTPUTS = {
    (K3_TEXT, "halfspace"): (
        f"feasible\nwitness: {K3_HALFSPACE_TEXT}\nm: 2\nblue_weight: 2\n",
        K3_HALFSPACE,
    ),
    (K3_TEXT, "net-halfspace"): (
        f"not-a-net\nwitness: {K3_HALFSPACE_TEXT}\neps: 1/9\n",
        K3_HALFSPACE,
    ),
    (K3_TEXT, "net-box"): (
        "not-a-net\nwitness: closed box lower=(0, 0, 0, 0) upper=(1/4, 3/4, 1/2, 1/2)\neps: 3/14\n",
        K3_NET_BOX,
    ),
    ("3 0\n", "halfspace"): ("infeasible\nwitness: none\nm: 2\nblue_weight: 0\n", None),
    ("3 0\n", "net-halfspace"): ("is-net\nwitness: none\neps: 1/12\n", None),
    ("3 0\n", "net-box"): ("is-net\nwitness: none\neps: 3/20\n", None),
}


@pytest.mark.parametrize("graph, kind", list(SOLVE_OUTPUTS))
def test_solve_prints_halfspace_and_missing_witnesses(graph, kind, tmp_path, capsys):
    """`solve` and `solve --json` on K3, which has a half-space witness, and
    on the edgeless graph on three vertices, which has none."""
    text, witness = SOLVE_OUTPUTS[graph, kind]
    path, inst = tmp_path / "g.txt", tmp_path / "inst.json"
    path.write_text(graph)
    assert cli.main(["gadget", "--type", kind, "--graph", str(path), "-k", "2", "-o", str(inst)]) == 0
    capsys.readouterr()
    assert cli.main(["solve", str(inst)]) == 0
    assert capsys.readouterr().out == text
    assert cli.main(["solve", str(inst), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("witness") == witness
    value, _, *extra = text.splitlines()
    assert doc.pop("problem") == read_instance(inst).problem
    assert doc.pop("value") == value
    assert {key: str(val) for key, val in doc.items()} == dict(line.split(": ") for line in extra)


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


@pytest.mark.parametrize(
    "kind", ["star-disc", "box-disc", "empty-star", "empty-box", "bichromatic", "redblue", "net-box"]
)
def test_verify_discrepancy_at_k4_on_five_vertices(kind, tmp_path, capsys):
    """k = 4 puts the box scans at d = 8: K5 attains the gadget's stated
    value exactly, and an 8-edge K4-free graph misses it as the clique
    oracle predicts."""
    for name, text, clique in (("k5", K5_TEXT, True), ("k4-free", K4_FREE_TEXT, False)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        assert cli.main(["verify", "--type", kind, "--graph", str(path), "-k", "4"]) == 0
        line = capsys.readouterr().out.strip()
        inst = cli._GADGETS[kind](read_graph(path), 4, None)
        relation, expected = cli._expected_outcome(inst, clique)
        head = f"match: type={kind} k=4 clique={clique} expected=({relation}, {expected}) got="
        assert line.startswith(head), line
        got = line[len(head):]
        if relation == "is_net":
            assert got == str(expected)
        else:
            got = F(got)
            assert {"eq": got == expected, "lt": got < expected, "le": got <= expected}[relation]


# The six box solvers' reports at d = 8 (k = 4) on K5 and on the K4-free
# graph: value, witness, side and candidates_evaluated.
_K5_DISC = (
    "224522577073545572400872111237926748160000000000000000/"
    "226191494526852500073529496217227267971739619109666561"
)
_K5_CORNER = (
    "21767823360000/21808162146241, 1, 10077696000/10091699281, 2160/2161, "
    "4665600/4669921, 4665600/4669921, 2160/2161, 10077696000/10091699281"
)
_K5_BOX_CORNER = (
    "25176309760000/25221297570561, 1, 11239424000/11254483521, 2240/2241, "
    "5017600/5022081, 5017600/5022081, 2240/2241, 11239424000/11254483521"
)
_FREE_DISC = (
    "251552187503918775404966920297460761047859200000000000000000/"
    "252926344515109950256249393899805764242800799299222889371441"
)
_FREE_CORNER = (
    "295646655283200000/296120751810639601, 1, 94758543360000/94880087090881, 1, "
    "9734400/9740641, 9734400/9740641, 1, 94758543360000/94880087090881"
)
_FREE_BOX_CORNER = (
    "335544320000000000/336068935782416001, 1, 104857600000000/104988733452801, 1, "
    "10240000/10246401, 10240000/10246401, 1, 104857600000000/104988733452801"
)
_ORIGIN = "lower=(0, 0, 0, 0, 0, 0, 0, 0)"
_K5_CLIQUE_BOX = f"closed box {_ORIGIN} upper=(1/6, 5/6, 1/3, 2/3, 1/2, 1/2, 2/3, 1/3)"
_FREE_BEST_BOX = f"closed box {_ORIGIN} upper=(0, 0, 1/6, 5/6, 1/2, 1/2, 5/6, 1/6)"
PINNED_AT_K4 = {
    ("k5", "star-disc"): (_K5_DISC, f"open anchored box upper=({_K5_CORNER})", "deficit", 5764801),
    ("k5", "box-disc"): (
        "401761478270509541172805101174925557760000000000000000/"
        "404640831615706761108219712511112692526151529213987841",
        f"open box {_ORIGIN} upper=({_K5_BOX_CORNER})",
        "deficit",
        2821109907456,
    ),
    ("k5", "empty-star"): (
        "1/65536", "open anchored box upper=(1/16, 1, 1/8, 1/2, 1/4, 1/4, 1/2, 1/8)", None, 928
    ),
    ("k5", "empty-box"): (_K5_DISC, f"open box {_ORIGIN} upper=({_K5_CORNER})", None, 154),
    ("k5", "bichromatic"): ("5", _K5_CLIQUE_BOX, None, 94449),
    ("k5", "redblue"): ("71", _K5_CLIQUE_BOX, "excess", 83964),
    ("k4-free", "star-disc"): (
        _FREE_DISC, f"open anchored box upper=({_FREE_CORNER})", "deficit", 5764801
    ),
    ("k4-free", "box-disc"): (
        "386856262276681335905976320000000000000000000000000000000000/"
        "388916582141570377473836862274755295163349098059531632694401",
        f"open box {_ORIGIN} upper=({_FREE_BOX_CORNER})",
        "deficit",
        2821109907456,
    ),
    ("k4-free", "empty-star"): (
        "1/131072", "open anchored box upper=(1/32, 1, 1/16, 1, 1/4, 1/4, 1, 1/16)", None, 1860
    ),
    ("k4-free", "empty-box"): (_FREE_DISC, f"open box {_ORIGIN} upper=({_FREE_CORNER})", None, 590),
    ("k4-free", "bichromatic"): ("4", _FREE_BEST_BOX, None, 120503),
    ("k4-free", "redblue"): ("94", _FREE_BEST_BOX, "excess", 85401),
}


@pytest.mark.parametrize("graph, kind", list(PINNED_AT_K4))
def test_box_reports_are_pinned_at_k4(graph, kind, tmp_path):
    from discrepancy import solvers

    path = tmp_path / "g.txt"
    path.write_text({"k5": K5_TEXT, "k4-free": K4_FREE_TEXT}[graph])
    inst = cli._GADGETS[kind](read_graph(path), 4, None)
    solver, field, _ = cli._BOXES[inst.problem]
    rep = getattr(solvers, solver)(inst.points)
    got = (
        str(getattr(rep, field)),
        cli._witness_text(rep.witness),
        getattr(rep, "side", None),
        rep.candidates_evaluated,
    )
    assert got == PINNED_AT_K4[graph, kind]


def test_k5_box_reports_keep_their_pins_in_a_real_pool(tmp_path, monkeypatch):
    """The six K5 rows at 2 workers on 2 CPUs, at the real crossovers: each
    box scan above its crossover forks one real pool (red-blue one per
    color) and the merged report keeps value, witness and side, and the
    closed-form candidate counts; the empty star never forks."""
    import concurrent.futures
    import os

    from discrepancy import solvers

    pools = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kind)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = tmp_path / "k5.txt"
    path.write_text(K5_TEXT)
    graph = read_graph(path)
    for (name, kind), pinned in PINNED_AT_K4.items():
        if name != "k5":
            continue
        inst = cli._GADGETS[kind](graph, 4, None)
        solver, field, _ = cli._BOXES[inst.problem]
        rep = getattr(solvers, solver)(inst.points, workers=2)
        got = (str(getattr(rep, field)), cli._witness_text(rep.witness), getattr(rep, "side", None))
        assert got == pinned[:3], kind
        if kind in ("star-disc", "box-disc", "empty-star"):
            assert rep.candidates_evaluated == pinned[3], kind
    assert sorted(pools) == ["bichromatic", "box-disc", "empty-box", "redblue", "redblue", "star-disc"]


def test_halfspace_search_is_pinned_at_k4(tmp_path):
    """The k = 4 half-space search on K5 and on the K4-free graph, directly
    and as the eps-net check: verdict, exact witness and LP count."""
    from discrepancy import HalfSpace, solvers

    path = tmp_path / "g.txt"
    normal = "-1369/8 -933/8 -179523/1432 -29646/179 -14823/184 -4392/23 -305/8 -610/3"
    k5_witness = HalfSpace(tuple(map(F, normal.split())), F(-1655, 8))
    for text, witness, blues, lps in ((K5_TEXT, k5_witness, 4, 1801), (K4_FREE_TEXT, None, 0, 5985)):
        path.write_text(text)
        found = witness is not None
        inst = cli._GADGETS["halfspace"](read_graph(path), 4, None)
        rep = solvers.solve_bichromatic_halfspace(inst.points, 4)
        assert (rep.feasible, rep.value, rep.witness, rep.candidates_evaluated) == (found, blues, witness, lps)
        inst = cli._GADGETS["net-halfspace"](read_graph(path), 4, None)
        mask = [p.in_s for p in inst.points.points]
        rep = solvers.verify_epsilon_net(inst.points, mask, inst.params.eps, "halfspace")
        assert (rep.is_net, rep.violator, rep.candidates_evaluated) == (not found, witness, lps)


# One sha256 over the stdout of `verify` for every gadget type on the 15
# graph classes with 3 and 4 vertices at k = 2.  Pins every verdict line.
VERIFY_DIGEST = "67b75910f7ea3b41dd89b1c3d6c0622a37c9032c9973bab45af6d85aa3558715"


def test_verify_output_is_pinned(tmp_path, capsys):
    from conftest import graphs_up_to

    digest = hashlib.sha256()
    for kind in cli._GADGETS:
        for name, g in graphs_up_to(4):
            if name.startswith("n2-"):
                continue
            path = tmp_path / f"{name}.txt"
            path.write_text(f"{g.n} {len(g.edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
            assert cli.main(["verify", "--type", kind, "--graph", str(path), "-k", "2"]) == 0, (kind, name)
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == VERIFY_DIGEST


def test_verify_mismatch_exits_one(k3_file, monkeypatch, capsys):
    from discrepancy import solvers

    real = solvers.solve_bichromatic_box

    def wrong(ps, workers=1):
        rep = real(ps, workers=workers)
        return type(rep)(rep.value + 1, rep.witness, rep.feasible, rep.candidates_evaluated, rep.elapsed)

    monkeypatch.setattr(solvers, "solve_bichromatic_box", wrong)
    rc = cli.main(["verify", "--type", "bichromatic", "--graph", k3_file, "-k", "2", "--threads", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    # stdout keeps the single parsed verdict line; the reproduce line goes to stderr
    [line] = captured.out.splitlines()
    assert line.startswith("MISMATCH: type=bichromatic k=2 clique=True ")
    [repro] = captured.err.splitlines()
    assert repro.startswith(
        "reproduce: n=3 edges=1-2,1-3,2-3 type=bichromatic k=2 workers=1 witness=closed box lower=("
    )


def test_verify_param_mismatch_exits_one(k3_file, monkeypatch, capsys):
    from dataclasses import replace

    from discrepancy import gadgets

    real = gadgets.build_star_discrepancy_gadget

    def miscounted(g, k):
        inst = real(g, k)
        return replace(inst, params=replace(inst.params, N=inst.params.N + 1))

    monkeypatch.setattr(gadgets, "build_star_discrepancy_gadget", miscounted)
    assert cli.main(["verify", "--type", "star-disc", "--graph", k3_file, "-k", "2"]) == 1
    n = real(read_graph(k3_file), 2).params.N
    assert capsys.readouterr().out == f"param mismatch: params.N={n + 1} but recomputed total weight {n}\n"


def test_usage_errors_exit_two(tmp_path, capsys):
    assert cli.main(["verify", "--type", "bichromatic", "--graph", str(tmp_path / "nope.txt"), "-k", "2"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 1\n")
    assert cli.main(["gadget", "--type", "bichromatic", "--graph", str(bad), "-k", "2", "-o", str(tmp_path / "x.json")]) == 2
    assert cli.main(["solve", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "graph, error",
    [
        ("# a comment and nothing else\n\n", "empty graph file"),
        ("3 x\n", "line 1: expected 'n m' header"),
        ("3 1\n# the edge\n1\n", "line 3: expected 'u v'"),
        ("0 0\n", "graph needs at least one vertex"),
        (K3_TEXT, "threshold must be >= 1, got 0"),
    ],
)
def test_malformed_input_exits_two_with_one_error_line(graph, error, tmp_path, capsys):
    """A malformed graph file, or `solve --m 0` on the half-space instance
    the one well-formed graph compiles to, exits 2 with one `error:` line
    and no traceback."""
    path, out = tmp_path / "g.txt", tmp_path / "inst.json"
    path.write_text(graph)
    argv = ["gadget", "--type", "halfspace", "--graph", str(path), "-k", "2", "-o", str(out)]
    if graph == K3_TEXT:
        assert cli.main(argv) == 0
        capsys.readouterr()
        argv = ["solve", str(out), "--m", "0"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


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


def test_deeply_nested_instance_files_exit_two(edge_file, tmp_path, capsys):
    """json.loads raises RecursionError, not ValueError, on deep nesting;
    solve reports it as one error line instead of a traceback."""
    good = tmp_path / "es.json"
    cli.main(["gadget", "--type", "empty-star", "--graph", edge_file, "-k", "2", "-o", str(good)])
    text = good.read_text()
    assert text.startswith("{")
    deep = "[" * 100_000 + "]" * 100_000
    capsys.readouterr()
    for content in ("[" * 1_000, "[" * 100_000, '{"extra": ' + deep + "," + text[1:]):
        path = tmp_path / "deep.json"
        path.write_text(content)
        assert cli.main(["solve", str(path)]) == 2, content[:20]
        assert capsys.readouterr().err == "error: instance file nests too deeply\n"


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


def test_bench_bounds_sizes_and_dims_before_building(tmp_path, monkeypatch, capsys):
    """A dimension outside 1..MAX_SCAN_DIM, a size outside
    1..MAX_GADGET_POINTS or a d * n above MAX_GADGET_POINTS exits 2 and
    names the limit before any set is built; a row within the bounds still
    runs."""
    from discrepancy import gadgets, solvers

    out = tmp_path / "bench.csv"

    def run(dims, sizes):
        argv = ["bench", "--problem", "star-disc", "--dims", dims, "--sizes", sizes, "-o", str(out)]
        return cli.main(argv)

    def unreachable(*args):
        raise AssertionError("a refused bench set was built")

    top_d, top_n = solvers.MAX_SCAN_DIM, gadgets.MAX_GADGET_POINTS
    with monkeypatch.context() as m:
        m.setattr(cli, "_random_point_set", unreachable)
        for dims, sizes, limit in (
            ("2", "1000000000", f"size must be between 1 and {top_n}, got 1000000000"),
            ("2", f"4,{top_n + 1}", f"size must be between 1 and {top_n}, got {top_n + 1}"),
            ("2", "-5", f"size must be between 1 and {top_n}, got -5"),
            ("2", "0", f"size must be between 1 and {top_n}, got 0"),
            ("0", "4", f"dimension must be between 1 and {top_d}, got 0"),
            (f"2,{top_d + 1}", "4", f"dimension must be between 1 and {top_d}, got {top_d + 1}"),
            (f"3,{top_d}", f"5,{top_n}", f"dimension times size must be at most {top_n}, got {top_d} * {top_n}"),
        ):
            assert run(dims, sizes) == 2, (dims, sizes)
            assert capsys.readouterr().err == f"error: bench {limit}\n"
    assert not out.exists()
    assert run("1", "1") == 0
    assert list(csv.reader(out.open()))[1][:3] == ["star-disc", "1", "1"]


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


def _solve_error(tmp_path, doc, capsys):
    """stderr of `solve` on the instance `doc`, which must exit 2."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["solve", str(path)]) == 2, doc
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


def test_malformed_params_and_in_s_exit_two(k3_file, tmp_path, capsys):
    good = tmp_path / "net.json"
    cli.main(["gadget", "--type", "net-box", "--graph", k3_file, "-k", "2", "-o", str(good)])
    bad_k = json.loads(good.read_text())
    bad_k["params"]["k"] = "x"
    bad_in_s = json.loads(good.read_text())
    bad_in_s["points"][0]["in_S"] = "yes"
    for content in (bad_k, bad_in_s):
        _solve_error(tmp_path, content, capsys)
    for kind in ("net-box", "net-halfspace"):
        cli.main(["gadget", "--type", kind, "--graph", k3_file, "-k", "2", "-o", str(good)])
        no_eps = json.loads(good.read_text())
        del no_eps["params"]["eps"]
        assert "eps" in _solve_error(tmp_path, no_eps, capsys), kind


def test_empty_net_instances_exit_two(k3_file, tmp_path, capsys):
    good = tmp_path / "net.json"
    for kind in ("net-box", "net-halfspace"):
        cli.main(["gadget", "--type", kind, "--graph", k3_file, "-k", "2", "-o", str(good)])
        doc = json.loads(good.read_text())
        doc["points"] = []
        assert _solve_error(tmp_path, doc, capsys) == "error: empty point set\n", kind


def test_non_integer_halfspace_threshold_exits_two(k3_file, tmp_path, capsys):
    good = tmp_path / "hs.json"
    cli.main(["gadget", "--type", "halfspace", "--graph", k3_file, "-k", "2", "-o", str(good)])
    for threshold in ("5/2", "-3/2"):
        doc = json.loads(good.read_text())
        doc["expected_positive"] = threshold
        err = _solve_error(tmp_path, doc, capsys)
        assert "integer" in err and threshold in err, err


def test_colored_points_of_uncolored_problems_exit_two(edge_file, tmp_path, capsys):
    for kind in ("star-disc", "box-disc", "empty-star", "empty-box"):
        good = tmp_path / f"{kind}.json"
        cli.main(["gadget", "--type", kind, "--graph", edge_file, "-k", "2", "-o", str(good)])
        doc = json.loads(good.read_text())
        doc["points"][0]["color"] = "red"
        assert "uncolored" in _solve_error(tmp_path, doc, capsys), kind


def test_missing_keys_are_named(k3_file, tmp_path, capsys):
    good = tmp_path / "hs.json"
    cli.main(["gadget", "--type", "halfspace", "--graph", k3_file, "-k", "2", "-o", str(good)])
    top = ("dim", "params", "points", "problem", "expected_positive")
    cases = [((), key, key) for key in top]
    cases += [(("params",), "N", "params.N"), (("points", 0), "coords", "points[0].coords")]
    for where, key, name in cases:
        doc = json.loads(good.read_text())
        node = doc
        for step in where:
            node = node[step]
        del node[key]
        err = _solve_error(tmp_path, doc, capsys)
        assert f"missing required key '{name}'" in err, err


def test_every_gadget_type_has_a_solve_step(k3_file, tmp_path, capsys):
    from discrepancy import Graph, gadgets

    graph = Graph.make(3, [(1, 2), (2, 3), (1, 3)])
    for kind, build in cli._GADGETS.items():
        assert build(graph, 2, None).problem in cli._SOLVE, kind
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


def test_worker_counts_below_one_exit_two(k3_file, capsys):
    verify = ["verify", "--type", "star-disc", "--graph", k3_file, "-k", "2"]
    for threads in ("0", "-3"):
        assert cli.main(verify + ["--threads", threads]) == 2, threads
        assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(verify + ["--threads", "1"]) == 0


def test_flags_that_do_not_apply_exit_two(k3_file, tmp_path, capsys):
    out = tmp_path / "x.json"
    gadget = ["gadget", "--graph", k3_file, "-k", "2", "-o", str(out)]
    for extra in (["--type", "star-disc", "--mu", "5"], ["--type", "bichromatic", "--mu", "3"]):
        assert cli.main(gadget + extra) == 2, extra
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
    # No type takes --raw: every gadget is built inside the unit cube.
    for kind in cli._GADGETS:
        assert cli.main(gadget + ["--type", kind, "--raw"]) == 2, kind
        assert "unrecognized arguments: --raw" in capsys.readouterr().err
        assert not out.exists()
    assert cli.main(gadget + ["--type", "star-disc"]) == 0
    capsys.readouterr()
    assert cli.main(["solve", str(out), "--m", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # Where the flags apply they are still read.
    assert cli.main(gadget + ["--type", "empty-star", "--mu", "3"]) == 0
    assert read_instance(str(out)).params.mu == 3
    assert cli.main(gadget + ["--type", "halfspace"]) == 0
    capsys.readouterr()
    assert cli.main(["solve", str(out), "--m", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 3


def test_halfspace_subset_projection_over_the_cap_exits_two(k3_file, tmp_path, capsys):
    from math import ceil, comb

    from conftest import graphs_up_to

    from discrepancy import build_halfspace_gadget, solvers
    from discrepancy.gadgets import build_net_instance

    def projection(blues, m):
        return sum(comb(len(blues), s) for s in range(1, min(m, len(blues)) + 1))

    # Every half-space search of the tests and the benchmark (gadgets on
    # up to four vertices, k = 2 and 3, m up to k + 1) stays under the cap.
    cap = solvers.MAX_HALFSPACE_SUBSETS
    assert cap >= 10**5
    for _, g in graphs_up_to(4):
        for k in (2, 3):
            inst = build_halfspace_gadget(g, k)
            blues = {p.coords for p in inst.points.points if p.color == "blue"}
            assert projection(blues, k + 1) <= cap
            net = build_net_instance(g, k, "halfspace")
            blues = {p.coords for p in net.points.points if not p.in_s}
            assert projection(blues, ceil(net.params.eps * net.points.total_weight)) <= cap

    out = tmp_path / "hs.json"
    assert cli.main(["gadget", "--type", "halfspace", "--graph", k3_file, "-k", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    red = next(p for p in doc["points"] if p["color"] == "red")
    blue = [{"color": "blue", "coords": [f"{i}/40", "0", "0", "0"], "weight": 1} for i in range(40)]
    doc["points"] = blue + [red]
    out.write_text(json.dumps(doc))
    assert projection(blue, 5) > cap
    capsys.readouterr()
    t0 = perf_counter()
    assert cli.main(["solve", str(out), "--m", "5"]) == 2
    assert perf_counter() - t0 < 5
    assert capsys.readouterr().err.startswith("error: ")


def test_oversized_gadget_exits_two_before_building(k3_file, tmp_path, monkeypatch, capsys):
    """A gadget of more than `gadgets.MAX_GADGET_POINTS` points is refused
    from its closed-form count: no bad vertex pair or point is built."""
    from discrepancy import gadgets

    def unreachable(*args):
        raise AssertionError("a refused gadget was built")

    for name in ("_bad_vertex_pairs", "_kill_points", "_embed"):
        monkeypatch.setattr(gadgets, name, unreachable)
    big = tmp_path / "big.txt"
    big.write_text("1000000 0\n")
    out = str(tmp_path / "out.json")
    for kind in cli._GADGETS:
        for graph, k in ((str(big), "2"), (k3_file, "100000")):
            for command, rest in (("gadget", ["-o", out]), ("verify", [])):
                argv = [command, "--type", kind, "--graph", graph, "-k", k, *rest]
                assert cli.main(argv) == 2, argv
                err = capsys.readouterr().err
                assert err.startswith("error: gadget would have "), err
                assert err.endswith(" points, more than the limit of 100000\n"), err


def test_gadgets_above_the_dimension_bound_exit_two_before_building(edge_file, tmp_path, monkeypatch, capsys):
    """A gadget of 2k > MAX_SCAN_DIM dimensions, which every solver refuses,
    is refused before it is built: at k = 129 on one edge, `gadget` and
    `verify` exit 2 within a second, name the limit and write no file.  At
    k = 128 the checks pass and the build starts, which is stopped here: it
    takes seconds."""
    from discrepancy import gadgets
    from discrepancy.solvers import MAX_SCAN_DIM

    class Built(Exception):
        pass

    def started(*args):
        raise Built

    for name in ("_bad_vertex_pairs", "_kill_points", "_embed"):
        monkeypatch.setattr(gadgets, name, started)
    out = tmp_path / "out.json"
    k = MAX_SCAN_DIM // 2 + 1
    limit = f"error: gadget would have {2 * k} dimensions, more than the limit of {MAX_SCAN_DIM}\n"
    for kind in cli._GADGETS:
        for command, rest in (("gadget", ["-o", str(out)]), ("verify", [])):
            t0 = perf_counter()
            assert cli.main([command, "--type", kind, "--graph", edge_file, "-k", str(k), *rest]) == 2
            assert perf_counter() - t0 < 1, (kind, command)
            assert capsys.readouterr().err == limit, (kind, command)
            assert not out.exists(), (kind, command)
    for kind in cli._GADGETS:
        with pytest.raises(Built):
            cli.main(["gadget", "--type", kind, "--graph", edge_file, "-k", str(k - 1), "-o", str(out)])


def test_box_scans_above_the_dimension_bound_exit_two(edge_file, tmp_path, capsys):
    """One point in MAX_SCAN_DIM + 1 dimensions: the six box problems exit 2
    and name the limit, before any grid is built; so do the empty star,
    whose search does not recurse but grows as d^2, and both half-space
    searches, whose LP keeps a (d + 2) x (d + 2) basis."""
    from discrepancy.solvers import MAX_SCAN_DIM

    d = MAX_SCAN_DIM + 1

    def instance(kind, color=None):
        path = tmp_path / f"{kind}.json"
        cli.main(["gadget", "--type", kind, "--graph", edge_file, "-k", "2", "-o", str(path)])
        doc = json.loads(path.read_text())
        point = {"coords": ["1/2"] * d, "weight": 1}
        doc["dim"], doc["points"] = d, [dict(point, color=color) if color else point]
        return doc

    colored = ("bichromatic", "redblue", "halfspace", "net-halfspace")
    for kind in ("star-disc", "box-disc", "empty-box", "empty-star", *colored):
        doc = instance(kind, "blue" if kind in colored else None)
        err = _solve_error(tmp_path, doc, capsys)
        assert f"at most {MAX_SCAN_DIM} dimensions, got {d}" in err, kind


def test_empty_ranges_of_a_million_dimensions_exit_two_at_once(edge_file, tmp_path, capsys):
    """An instance with no points in 1,000,000 dimensions: the empty
    star and the empty box exit 2 with one error line within a second,
    instead of walking every dimension first."""
    path = tmp_path / "big.json"
    for kind in ("empty-star", "empty-box"):
        cli.main(["gadget", "--type", kind, "--graph", edge_file, "-k", "2", "-o", str(path)])
        doc = json.loads(path.read_text())
        doc["dim"], doc["points"] = 1_000_000, []
        t0 = perf_counter()
        err = _solve_error(tmp_path, doc, capsys)
        assert perf_counter() - t0 < 1, kind
        assert err.count("\n") == 1 and "dimensions, got 1000000" in err, (kind, err)
