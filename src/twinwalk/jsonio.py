"""JSON input schemas.

Graph files:      {"n": int, "edges": [[u, v, w?], ...]}   (w defaults to 1.0)
Circulant files:  {"circulant": {"n": int, "S": [int, ...]}}
Family files:     {"family": "k4n_matching" | "quarter_weight" | "circulant_twin", ...}

A circulant object is accepted anywhere a graph is expected. The reader checks
only shape: objects, their keys (none the schema does not define), edge arity,
the default weight and the "K<n>" name. Every value goes to the library
unchanged, and the library's rules judge it. Malformed input raises InputError.
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
from .graphs import WeightedGraph, _check_int, build_graph


def _only_keys(obj: dict, allowed: set[str], what: str) -> None:
    """Reject keys the schema does not define."""
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise InputError(f"{what} has unknown keys {unknown}")


def _circulant_spec(obj: Any, what: str) -> CirculantSpec:
    try:
        return CirculantSpec(obj["n"], obj["S"])
    except (KeyError, TypeError) as exc:  # not an object, a key missing, S not a list
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
        n = obj["n"]
        edges = []
        for e in obj.get("edges", []):
            if len(e) not in (2, 3):
                raise InputError(f"edge {e} must have 2 or 3 entries")
            edges.append((e[0], e[1], e[2] if len(e) == 3 else 1.0))
    except (KeyError, TypeError) as exc:  # "n" missing, or edges not lists
        raise InputError(f"bad graph object: {exc}") from exc
    _only_keys(obj, {"n", "edges"}, "graph document")
    return build_graph(n, edges)


def _base_graph_from(value: Any) -> WeightedGraph:
    """Family base: "K<n>" shorthand or a nested graph/circulant object."""
    if isinstance(value, str):
        m = re.fullmatch(r"K(\d+)", value)
        if not m:
            raise InputError(f'unrecognized base graph name "{value}"')
        try:
            n = int(m.group(1))
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"base graph size: {exc}") from exc
        return complete_graph(n)
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
            size = obj["size"]
        elif "n" in obj:
            size = 4 * _check_int(obj["n"], "n")  # before 4 * "2" or 4 * True
        else:
            raise InputError('k4n_matching needs "n" (quarter count) or "size"')
        _only_keys(obj, {"family", "n", "size", "matching"}, f"{kind} document")
        return k4n_remove_matching(size, obj.get("matching", []))
    if kind == "quarter_weight":
        if "base" not in obj:
            raise InputError('quarter_weight needs a "base" graph')
        base = _base_graph_from(obj["base"])
        _only_keys(obj, {"family", "base", "pairs"}, f"{kind} document")
        return quarter_weight_family(base, obj.get("pairs", []))
    if kind == "circulant_twin":
        spec = _circulant_spec(obj, "circulant_twin parameters")
        _only_keys(obj, {"family", "n", "S", "pairs"}, f"{kind} document")
        return circulant_twin_edge_family(spec, obj.get("pairs", []))
    raise InputError(f'unknown family "{kind}"')


def load_json(path: str | Path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # bad bytes or syntax, nesting past the recursion limit, or an integer
    # with more digits than int() converts
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def load_graph(path: str | Path) -> WeightedGraph:
    return graph_from_obj(load_json(path))


def load_family(path: str | Path) -> FamilyInstance:
    return family_from_obj(load_json(path))
