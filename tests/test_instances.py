import json
import random
from fractions import Fraction

import pytest

from discrepancy import Graph, build_net_instance, build_star_discrepancy_gadget
from discrepancy.gadgets import build_bichromatic_gadget
from discrepancy.instances import (
    dumps_instance,
    format_rational,
    instance_from_doc,
    parse_graph,
    parse_rational,
    read_instance,
    write_instance,
)

F = Fraction


def test_instance_round_trip_is_byte_identical(single_edge, tmp_path):
    inst = build_star_discrepancy_gadget(single_edge, 2)
    path = tmp_path / "inst.json"
    write_instance(path, inst)
    first = path.read_bytes()
    write_instance(path, read_instance(path))
    assert path.read_bytes() == first


def test_instance_preserves_values(k3, tmp_path):
    inst = build_bichromatic_gadget(k3, 2)
    path = tmp_path / "inst.json"
    write_instance(path, inst)
    loaded = read_instance(path)
    assert loaded.problem == inst.problem
    assert loaded.expected_positive == 3
    assert loaded.params == inst.params
    assert loaded.points == inst.points


def test_net_instance_round_trip_keeps_subset_mask(k3, tmp_path):
    inst = build_net_instance(k3, 2, "box")
    path = tmp_path / "net.json"
    write_instance(path, inst)
    loaded = read_instance(path)
    assert [p.in_s for p in loaded.points.points] == [
        p.in_s for p in inst.points.points
    ]
    assert loaded.params.eps == inst.params.eps


def test_rationals_serialize_as_strings(single_edge):
    inst = build_star_discrepancy_gadget(single_edge, 2)
    doc = json.loads(dumps_instance(inst))
    assert doc["params"]["mu"] == "65/64"
    assert doc["expected_positive"] == "4096/4225"
    assert all(
        isinstance(c, str) for point in doc["points"] for c in point["coords"]
    )


def test_float_coordinates_rejected(single_edge):
    inst = build_star_discrepancy_gadget(single_edge, 2)
    doc = json.loads(dumps_instance(inst))
    doc["points"][0]["coords"][0] = 0.5
    with pytest.raises(ValueError):
        instance_from_doc(doc)
    doc["points"][0]["coords"][0] = "0.5"
    with pytest.raises(ValueError):
        instance_from_doc(doc)


def test_coords_length_must_match_dim(single_edge):
    inst = build_star_discrepancy_gadget(single_edge, 2)
    doc = json.loads(dumps_instance(inst))
    doc["points"][0]["coords"].append("1/2")
    with pytest.raises(ValueError, match="dim"):
        instance_from_doc(doc)


def test_weight_must_be_an_integer(single_edge):
    inst = build_star_discrepancy_gadget(single_edge, 2)
    doc = json.loads(dumps_instance(inst))
    for weight in (True, False, 1.0, 1.5, "2", None):
        doc["points"][0]["weight"] = weight
        with pytest.raises(ValueError, match="weight"):
            instance_from_doc(doc)
    doc["points"][0]["weight"] = 3
    assert instance_from_doc(doc).points.points[0].weight == 3


def test_parse_graph_k3():
    g = parse_graph("3 3\n1 2\n2 3\n1 3")
    assert g.n == 3 and g.has_edge(1, 3)


def test_parse_graph_comments_and_blanks():
    g = parse_graph("# a triangle\n3 3\n\n1 2\n2 3\n# middle\n1 3\n")
    assert len(g.edges) == 3


def test_parse_graph_errors():
    with pytest.raises(ValueError, match="loops forbidden"):
        parse_graph("2 1\n1 1")
    with pytest.raises(ValueError, match="out of range"):
        parse_graph("3 1\n1 4")
    with pytest.raises(ValueError, match="line 2"):
        parse_graph("2 1\none two")
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph("3 2\n1 2\n2 1")
    with pytest.raises(ValueError, match="header"):
        parse_graph("3\n1 2")
    with pytest.raises(ValueError, match="edge lines"):
        parse_graph("3 2\n1 2")


def test_params_and_in_s_are_type_checked(k3):
    doc = json.loads(dumps_instance(build_star_discrepancy_gadget(k3, 2)))
    for name in ("k", "n", "N", "t"):
        for bad in ("x", "2", True, 2.0, None if name != "t" else [2]):
            broken = json.loads(json.dumps(doc))
            broken["params"][name] = bad
            with pytest.raises(ValueError, match=f"params.{name}"):
                instance_from_doc(broken)
    assert instance_from_doc(doc).params.t == doc["params"]["t"]
    for bad in (4.0, True):
        broken = json.loads(json.dumps(doc))
        broken["dim"] = bad
        if bad is True:
            # one coordinate per point, so only the type of dim is wrong
            for entry in broken["points"]:
                entry["coords"] = entry["coords"][:1]
        with pytest.raises(ValueError, match="dim must be an integer"):
            instance_from_doc(broken)
    net = json.loads(dumps_instance(build_net_instance(k3, 2, "box")))
    for bad in ("yes", 1, 0, None):
        broken = json.loads(json.dumps(net))
        broken["points"][0]["in_S"] = bad
        with pytest.raises(ValueError, match="in_S"):
            instance_from_doc(broken)


def test_string_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        x = F(rng.randint(-500, 500), rng.randint(1, 500))
        assert parse_rational(format_rational(x)) == x
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(4, 2)) == "2"


def test_parse_rejects_decimals_and_garbage():
    for bad in ("0.5", "1e3", "1/2/3", "", "a/b", "1.0/2", "nan"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rejects_zero_denominator():
    for bad in ("1/0", "0/0", "-3/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(bad)
