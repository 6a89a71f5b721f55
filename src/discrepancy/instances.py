"""File formats: JSON instances and plain-text graphs.

Instance files carry every rational as the exact string "p/q" ("p" when
q == 1, sign on the numerator), and `gadget --mu` takes the same format.
Decimal floats are rejected: the finely tuned constants like
mu = 1 + 1/(2knN) do not survive rounding.  Writing is canonical (sorted
keys, two-space indent, trailing newline) so a canonical file round-trips
byte-identically through read + write.

Graph files are "n m" on the first line followed by m lines "u v" with
1-indexed vertices; '#' starts a comment line.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Union

from .gadgets import GadgetInstance, GadgetParams, Graph
from .geometry import PointSet, WeightedPoint

_PARAM_RATIONALS = ("mu", "C", "V", "eps")
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p".  Decimal and exponent notation and a zero
    denominator are rejected with ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form ("p" when the denominator is 1)."""
    return str(value)


def instance_to_doc(inst: GadgetInstance) -> dict:
    params = {name: format_rational(value) if name in _PARAM_RATIONALS else value
              for name, value in vars(inst.params).items() if value is not None}
    doc = {
        "dim": inst.points.dim,
        "problem": inst.problem,
        "params": params,
        "expected_positive": _value_to_json(inst.expected_positive),
        "points": [
            {
                "coords": [format_rational(c) for c in p.coords],
                "color": p.color,
                "weight": p.weight,
                **({"in_S": True} if p.in_s else {}),
            }
            for p in inst.points.points
        ],
    }
    if inst.expected_negative is not None:
        doc["expected_negative"] = format_rational(inst.expected_negative)
    return doc


def _value_to_json(value) -> Union[int, str]:
    if isinstance(value, int):
        return value
    return format_rational(value)


def _value_from_json(value):
    if isinstance(value, bool):
        raise ValueError("expected value must be an integer or 'p/q' string")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"expected value must be an integer or 'p/q' string, got {value!r}")


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'list'}, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _required(doc: dict, key: str, where: str = ""):
    if key not in doc:
        raise ValueError(f"missing required key {where + key!r}")
    return doc[key]


def instance_from_doc(doc: dict) -> GadgetInstance:
    _expect(doc, dict, "instance")
    dim = _integer(_required(doc, "dim"), "dim")
    raw_params = _expect(_required(doc, "params"), dict, "params")
    t = raw_params.get("t")
    params = GadgetParams(
        k=_integer(_required(raw_params, "k", "params."), "params.k"),
        n=_integer(_required(raw_params, "n", "params."), "params.n"),
        N=_integer(_required(raw_params, "N", "params."), "params.N"),
        t=None if t is None else _integer(t, "params.t"),
        **{
            name: parse_rational(raw_params[name]) if name in raw_params else None
            for name in _PARAM_RATIONALS
        },
    )
    pts = []
    for i, entry in enumerate(_expect(_required(doc, "points"), list, "points")):
        _expect(entry, dict, "point entry")
        coords = _expect(_required(entry, "coords", f"points[{i}]."), list, "coords")
        if len(coords) != dim:
            raise ValueError("coords length does not match dim")
        for c in coords:
            if not isinstance(c, str):
                raise ValueError(f"coordinates must be 'p/q' strings, got {c!r}")
        in_s = entry.get("in_S", False)
        if not isinstance(in_s, bool):
            raise ValueError(f"in_S must be true or false, got {in_s!r}")
        pts.append(
            WeightedPoint(
                tuple(parse_rational(c) for c in coords),
                entry.get("color"),
                _integer(entry.get("weight", 1), "weight"),
                in_s,
            )
        )
    expected_negative = doc.get("expected_negative")
    return GadgetInstance(
        params=params,
        points=PointSet(dim, tuple(pts)),
        problem=_required(doc, "problem"),
        expected_positive=_value_from_json(_required(doc, "expected_positive")),
        expected_negative=(
            parse_rational(expected_negative) if expected_negative is not None else None
        ),
    )


def dumps_instance(inst: GadgetInstance) -> str:
    return json.dumps(instance_to_doc(inst), indent=2, sort_keys=True) + "\n"


def write_instance(path: Union[str, Path], inst: GadgetInstance) -> None:
    Path(path).write_text(dumps_instance(inst), encoding="utf-8")


def read_instance(path: Union[str, Path]) -> GadgetInstance:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("instance file nests too deeply") from None
    return instance_from_doc(doc)


def parse_graph(text: str) -> Graph:
    """Parse the "n m" / "u v" plain-text graph format."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise ValueError("empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: expected 'n m' header")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"line {lineno}: expected 'n m' header") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    seen = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'u v'") from None
        if u == v:
            raise ValueError(f"line {lineno}: loops forbidden (graph is simple)")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {lineno}: vertex out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    return Graph.make(n, edges)


def read_graph(path: Union[str, Path]) -> Graph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))
