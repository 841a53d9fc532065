"""Layer spans for the traced benchmark pass, recorded from outside the package.

`Tracer.install` wraps every public function of the twinwalk layer modules.
Modules bind names at import (`from .spectral import eigendecompose`), so each
wrapper replaces the original in every twinwalk module that holds it, not
only in the module that defines it. A function a later refactor removes is
simply never wrapped; `Tracer.has` then reports its metrics as absent.

For each function the tracer keeps calls, total span time and self time (the
span minus the part covered by child spans). For the eigensolver it also
keeps the distinct inputs (by a digest of the matrix) and the calls made
while families.verify_family is on the stack.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "twinwalk"
LAYERS = ("graphs", "spectral", "walk", "circulant", "families", "identities",
          "jsonio", "cli")
SOLVER = "spectral.eigendecompose"
VERIFY = "families.verify_family"


def _digest(x) -> str:
    data = np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.solver_inputs: set[str] = set()  # digests of the solved matrices
        self.solves_in_verify = 0
        self._stack: list[list] = []  # frames of [child_s, name]
        self._patches: list[tuple] = []

    def install(self) -> None:
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._patch_everywhere(fn, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _patch_everywhere(self, fn, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        is_solver = name == SOLVER
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_solver:
                if args:
                    self.solver_inputs.add(_digest(args[0]))
                if any(frame[1] == VERIFY for frame in stack):
                    self.solves_in_verify += 1
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                stats[0] += 1
                stats[1] += span
                stats[2] += span - frame[0]

        return traced

    # --- export, merge and read-out -------------------------------------

    def to_obj(self) -> dict:
        return {
            "stats": self.stats,
            "solver_inputs": sorted(self.solver_inputs),
            "solves_in_verify": self.solves_in_verify,
        }

    def merge(self, obj: dict) -> None:
        """Add the totals of another tracer (e.g. one in a CLI subprocess)."""
        for name, (calls, total, own) in obj["stats"].items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0])
            mine[0] += calls
            mine[1] += total
            mine[2] += own
        self.solver_inputs.update(obj["solver_inputs"])
        self.solves_in_verify += obj["solves_in_verify"]

    def has(self, name: str) -> bool:
        return name in self.stats

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def layer_self_s(self, layer: str) -> float:
        return sum(v[2] for k, v in self.stats.items() if k.startswith(layer + "."))

    def names_in(self, layer: str) -> list[str]:
        return [k for k in self.stats if k.startswith(layer + ".")]
