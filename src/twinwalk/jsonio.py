"""JSON input schemas.

Graph files:      {"n": int, "edges": [[u, v, w?], ...]}   (w defaults to 1.0)
Circulant files:  {"circulant": {"n": int, "S": [int, ...]}}
Family files:     {"family": "k4n_matching" | "quarter_weight" | "circulant_twin", ...}

A circulant object is accepted anywhere a graph is expected. Malformed input
raises ParseError.
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


def _as_pairs(raw: Any, field: str) -> list[tuple[int, int]]:
    try:
        return [(int(a), int(b)) for a, b in raw]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{field} must be a list of [a, b] pairs") from exc


def graph_from_obj(obj: Any) -> WeightedGraph:
    if not isinstance(obj, dict):
        raise ParseError("graph document must be a JSON object")
    if "circulant" in obj:
        spec = obj["circulant"]
        try:
            cspec = CirculantSpec(int(spec["n"]), frozenset(int(s) for s in spec["S"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad circulant object: {exc}") from exc
        return build_circulant(cspec)
    try:
        n = int(obj["n"])
        edges = []
        for e in obj.get("edges", []):
            if len(e) == 2:
                edges.append((int(e[0]), int(e[1]), 1.0))
            elif len(e) == 3:
                edges.append((int(e[0]), int(e[1]), float(e[2])))
            else:
                raise ParseError(f"edge {e} must have 2 or 3 entries")
    except ParseError:
        raise
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
            size = int(obj["size"])
        elif "n" in obj:
            size = 4 * int(obj["n"])
        else:
            raise ParseError('k4n_matching needs "n" (quarter count) or "size"')
        return k4n_remove_matching(size, _as_pairs(obj.get("matching", []), "matching"))
    if kind == "quarter_weight":
        if "base" not in obj:
            raise ParseError('quarter_weight needs a "base" graph')
        base = _base_graph_from(obj["base"])
        return quarter_weight_family(base, _as_pairs(obj.get("pairs", []), "pairs"))
    if kind == "circulant_twin":
        try:
            spec = CirculantSpec(int(obj["n"]), frozenset(int(s) for s in obj["S"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad circulant_twin parameters: {exc}") from exc
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
