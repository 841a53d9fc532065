"""JSON input schemas.

Graph files:      {"n": int, "edges": [[u, v, w?], ...]}   (w defaults to 1.0)
Circulant files:  {"circulant": {"n": int, "S": [int, ...]}}
Family files:     {"family": "k4n_matching" | "quarter_weight" | "circulant_twin", ...}

A circulant object is accepted anywhere a graph is expected. Vertex counts,
vertices, sizes and residues must be JSON integers and weights JSON numbers;
booleans and strings are neither. Malformed input raises ParseError.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from .circulant import CirculantSpec, build_circulant
from .errors import ParseError
from .families import (
    FamilyInstance,
    circulant_twin_edge_family,
    complete_graph,
    k4n_remove_matching,
    quarter_weight_family,
)
from .graphs import WeightedGraph, build_graph


def _as_int(value: Any, field: str) -> int:
    """A JSON integer; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{field} must be an integer, got {value!r}")
    return value


def _as_pairs(raw: Any, field: str) -> list[tuple[int, int]]:
    try:
        return [(_as_int(a, field), _as_int(b, field)) for a, b in raw]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{field} must be a list of [a, b] integer pairs") from exc


def _circulant_spec(obj: Any, what: str) -> CirculantSpec:
    try:
        return CirculantSpec(_as_int(obj["n"], "n"),
                             frozenset(_as_int(s, "S entry") for s in obj["S"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def graph_from_obj(obj: Any) -> WeightedGraph:
    if not isinstance(obj, dict):
        raise ParseError("graph document must be a JSON object")
    if "circulant" in obj:
        return build_circulant(_circulant_spec(obj["circulant"], "circulant object"))
    try:
        n = _as_int(obj["n"], "n")
        edges = []
        for e in obj.get("edges", []):
            if len(e) not in (2, 3):
                raise ParseError(f"edge {e} must have 2 or 3 entries")
            w = e[2] if len(e) == 3 else 1.0
            if isinstance(w, (bool, str)):
                raise ParseError(f"edge weight must be a number, got {w!r}")
            edges.append((_as_int(e[0], "edge vertex"), _as_int(e[1], "edge vertex"),
                          float(w)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph object: {exc}") from exc
    return build_graph(n, edges)


def _base_graph_from(value: Any) -> WeightedGraph:
    """Family base: "K<n>" shorthand or a nested graph/circulant object."""
    if isinstance(value, str):
        m = re.fullmatch(r"K(\d+)", value)
        if not m:
            raise ParseError(f'unrecognized base graph name "{value}"')
        return complete_graph(int(m.group(1)))
    return graph_from_obj(value)


def family_from_obj(obj: Any) -> FamilyInstance:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParseError('family document needs a "family" key')
    kind = obj["family"]
    if kind == "k4n_matching":
        if "size" in obj:
            size = _as_int(obj["size"], "size")
        elif "n" in obj:
            size = 4 * _as_int(obj["n"], "n")
        else:
            raise ParseError('k4n_matching needs "n" (quarter count) or "size"')
        return k4n_remove_matching(size, _as_pairs(obj.get("matching", []), "matching"))
    if kind == "quarter_weight":
        if "base" not in obj:
            raise ParseError('quarter_weight needs a "base" graph')
        base = _base_graph_from(obj["base"])
        return quarter_weight_family(base, _as_pairs(obj.get("pairs", []), "pairs"))
    if kind == "circulant_twin":
        spec = _circulant_spec(obj, "circulant_twin parameters")
        return circulant_twin_edge_family(spec, _as_pairs(obj.get("pairs", []), "pairs"))
    raise ParseError(f'unknown family "{kind}"')


def load_json(path: str | Path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def load_graph(path: str | Path) -> WeightedGraph:
    return graph_from_obj(load_json(path))


def load_family(path: str | Path) -> FamilyInstance:
    return family_from_obj(load_json(path))
