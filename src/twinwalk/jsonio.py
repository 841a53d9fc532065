"""JSON input schemas.

Graph files:      {"n": int, "edges": [[u, v, w?], ...]}   (w defaults to 1.0)
Circulant files:  {"circulant": {"n": int, "S": [int, ...]}}
Family files:     {"family": "k4n_matching" | "quarter_weight" | "circulant_twin", ...}

A circulant object is accepted anywhere a graph is expected. Vertex counts,
vertices, sizes and residues must be JSON integers and weights JSON numbers;
booleans and strings are neither, and a key the schema does not define is
not allowed. Malformed input raises InputError.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from .circulant import CirculantSpec, build_circulant
from .errors import InputError
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
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def _as_pairs(raw: Any, field: str) -> list[tuple[int, int]]:
    try:
        return [(_as_int(a, field), _as_int(b, field)) for a, b in raw]
    except (TypeError, ValueError) as exc:
        raise InputError(f"{field} must be a list of [a, b] integer pairs") from exc


def _only_keys(obj: dict, allowed: set[str], what: str) -> None:
    """Reject keys the schema does not define."""
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise InputError(f"{what} has unknown keys {unknown}")


def _circulant_spec(obj: Any, what: str) -> CirculantSpec:
    try:
        return CirculantSpec(_as_int(obj["n"], "n"),
                             frozenset(_as_int(s, "S entry") for s in obj["S"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def graph_from_obj(obj: Any) -> WeightedGraph:
    if not isinstance(obj, dict):
        raise InputError("graph document must be a JSON object")
    if "circulant" in obj:
        spec = _circulant_spec(obj["circulant"], "circulant object")
        _only_keys(obj, {"circulant"}, "circulant document")
        _only_keys(obj["circulant"], {"n", "S"}, "circulant object")
        return build_circulant(spec)
    try:
        n = _as_int(obj["n"], "n")
        edges = []
        for e in obj.get("edges", []):
            if len(e) not in (2, 3):
                raise InputError(f"edge {e} must have 2 or 3 entries")
            w = e[2] if len(e) == 3 else 1.0
            if isinstance(w, (bool, str)):
                raise InputError(f"edge weight must be a number, got {w!r}")
            edges.append((_as_int(e[0], "edge vertex"), _as_int(e[1], "edge vertex"),
                          float(w)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad graph object: {exc}") from exc
    _only_keys(obj, {"n", "edges"}, "graph document")
    return build_graph(n, edges)


def _base_graph_from(value: Any) -> WeightedGraph:
    """Family base: "K<n>" shorthand or a nested graph/circulant object."""
    if isinstance(value, str):
        m = re.fullmatch(r"K(\d+)", value)
        if not m:
            raise InputError(f'unrecognized base graph name "{value}"')
        return complete_graph(int(m.group(1)))
    return graph_from_obj(value)


def family_from_obj(obj: Any) -> FamilyInstance:
    """Unknown keys are rejected once the known ones have been read."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise InputError('family document needs a "family" key')
    kind = obj["family"]
    if kind == "k4n_matching":
        if "size" in obj and "n" in obj:
            raise InputError('k4n_matching takes "n" or "size", not both')
        if "size" in obj:
            size = _as_int(obj["size"], "size")
        elif "n" in obj:
            size = 4 * _as_int(obj["n"], "n")
        else:
            raise InputError('k4n_matching needs "n" (quarter count) or "size"')
        matching = _as_pairs(obj.get("matching", []), "matching")
        _only_keys(obj, {"family", "n", "size", "matching"}, f"{kind} document")
        return k4n_remove_matching(size, matching)
    if kind == "quarter_weight":
        if "base" not in obj:
            raise InputError('quarter_weight needs a "base" graph')
        base = _base_graph_from(obj["base"])
        pairs = _as_pairs(obj.get("pairs", []), "pairs")
        _only_keys(obj, {"family", "base", "pairs"}, f"{kind} document")
        return quarter_weight_family(base, pairs)
    if kind == "circulant_twin":
        spec = _circulant_spec(obj, "circulant_twin parameters")
        pairs = _as_pairs(obj.get("pairs", []), "pairs")
        _only_keys(obj, {"family", "n", "S", "pairs"}, f"{kind} document")
        return circulant_twin_edge_family(spec, pairs)
    raise InputError(f'unknown family "{kind}"')


def load_json(path: str | Path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def load_graph(path: str | Path) -> WeightedGraph:
    return graph_from_obj(load_json(path))


def load_family(path: str | Path) -> FamilyInstance:
    return family_from_obj(load_json(path))
