"""The benchmark's workloads: seeded decks of operations, the operations
themselves, and the checks of their verdicts.

A deck is a fixed, stratified multiset of operations: the strata below fix
sizes and counts, and the seed only draws matchings, pairs, residues and the
order. So a deck costs about the same under every seed, and a run that plays
whole decks measures the same mix each time.

Every workload exposes:
  deck(rng, part)    operations for part "full", "warm" or "tiny"
  prepare(ops)       write what the operations read (input files)
  run(op)            the timed call
  check(op, result)  None if the verdict is right, else a message
  counters(ops, results)  per-layer counts the package does not expose
  trace_begin() / trace_end()  bracket the traced pass; trace_end returns
                     the spans.Tracer holding the layer totals
"""

from __future__ import annotations

import inspect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import twinwalk.circulant as circulant
import twinwalk.families as families
import twinwalk.identities as identities
import twinwalk.jsonio as jsonio
import twinwalk.walk as walk

import reference as ref
import spans

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi
LPST_TOL = 1e-9
PGST_FID_TOL = 1e-6
REL_TOL = 1e-9
IDENTITY_MAX = 1e-8
Q_MAX = 1_000_000
EPSILONS = (1e-1, 1e-2, 1e-3)
CHILD = Path(__file__).resolve().parent / "cli_child.py"


@dataclass
class Op:
    kind: str
    n: int
    graph: str  # identity of the input graph, for the repeat descriptor
    data: dict


def _pairs(rng: np.random.Generator, n: int, count: int) -> list[list[int]]:
    perm = rng.permutation(n)[: 2 * count]
    return [[int(perm[2 * i]), int(perm[2 * i + 1])] for i in range(count)]


def _antipodal(rng: np.random.Generator, n: int, count: int) -> list[list[int]]:
    starts = sorted(int(x) for x in rng.choice(n // 2, size=count, replace=False))
    return [[x, x + n // 2] for x in starts]


def _witnesses(n: int, pairs, t: float) -> list[tuple]:
    touched = {v for p in pairs for v in p}
    return [("LPST", a, b, t) for a, b in pairs] + [
        ("PERIODIC", p, p, t) for p in range(n) if p not in touched
    ]


def _shuffled(rng: np.random.Generator, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


def _close(x: float, y: float, rel: float = REL_TOL) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


_WALKS: dict[str, ref.Walk] = {}


def walk_for(op: Op) -> ref.Walk:
    """The reference walk of an operation's graph, solved once per graph."""
    if op.graph not in _WALKS:
        _WALKS[op.graph] = ref.Walk(op.data["L"])
    return _WALKS[op.graph]


class _InProcess:
    """Tracing and memory for workloads that call the package in-process."""

    replays_deck = False

    def prepare(self, ops: list[Op]) -> None:
        pass

    def trace_begin(self) -> None:
        self._tracer = spans.Tracer()
        self._tracer.install()

    def trace_end(self) -> spans.Tracer:
        self._tracer.uninstall()
        return self._tracer

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class FamilyDense(_InProcess):
    """jsonio.family_from_obj then families.verify_family on fresh families.

    Each witness costs its own eigensolve at the seed and no graph repeats
    (every deck is drawn afresh), so the spectral core, a once-per-graph
    solve and twin updates show here; walk does one propagator per witness.
    """

    name = "family-dense"
    # ("k4n", size, matching pairs) | ("quarter", n, pairs) |
    # ("circulant", n, gcd-class divisors of S, antipodal pairs)
    FULL = (
        ("k4n", 12, 2), ("k4n", 12, 3), ("k4n", 12, 6), ("k4n", 16, 4),
        ("k4n", 16, 6), ("k4n", 16, 8), ("k4n", 20, 8), ("k4n", 20, 10),
        ("k4n", 24, 12),
        ("quarter", 8, 2), ("quarter", 8, 4), ("quarter", 12, 3),
        ("quarter", 12, 4), ("quarter", 12, 6), ("quarter", 16, 4),
        ("quarter", 16, 8), ("quarter", 20, 10),
        ("circulant", 8, (1,), 3), ("circulant", 8, (1,), 4),
        ("circulant", 16, (1,), 4), ("circulant", 16, (2,), 8),
        ("circulant", 16, (1, 2), 6), ("circulant", 32, (4,), 8),
        ("circulant", 32, (2,), 8), ("circulant", 32, (2, 4), 4),
    )
    WARM = (("k4n", 12, 3), ("quarter", 12, 3), ("circulant", 16, (1,), 4))
    TINY = (("k4n", 8, 2), ("quarter", 8, 2), ("circulant", 8, (1,), 2))

    def deck(self, rng: np.random.Generator, part: str) -> list[Op]:
        strata = {"full": self.FULL, "warm": self.WARM, "tiny": self.TINY}[part]
        return _shuffled(rng, [self._op(rng, s) for s in strata])

    def _op(self, rng: np.random.Generator, stratum: tuple) -> Op:
        kind, n = stratum[0], stratum[1]
        if kind == "k4n":
            pairs = _pairs(rng, n, stratum[2])
            L = ref.complete_with(n, pairs, 0.0)
            obj = {"family": "k4n_matching", "size": n, "matching": pairs}
            expected = _witnesses(n, pairs, HALF_PI)
        elif kind == "quarter":
            pairs = _pairs(rng, n, stratum[2])
            L = ref.complete_with(n, pairs, 0.25)
            obj = {"family": "quarter_weight", "base": f"K{n}", "pairs": pairs}
            expected = _witnesses(n, pairs, TWO_PI)
        else:
            S = ref.gcd_set(n, stratum[2])
            pairs = _antipodal(rng, n, stratum[3])
            L = ref.circulant_with(n, S, pairs)
            obj = {"family": "circulant_twin", "n": n, "S": list(S), "pairs": pairs}
            expected = [("LPST", a, b, HALF_PI) for a, b in pairs]
        return Op(obj["family"], n, ref.key(L),
                  {"obj": obj, "L": L, "witnesses": expected})

    def run(self, op: Op):
        return families.verify_family(jsonio.family_from_obj(op.data["obj"]))

    def check(self, op: Op, reports) -> str | None:
        expected = op.data["witnesses"]
        if len(reports) != len(expected):
            return f"{len(reports)} reports for {len(expected)} witnesses"
        ref_walk = ref.Walk(op.data["L"])
        for r, (kind, a, b, t) in zip(reports, expected):
            got = (r.kind.value, r.source, r.target)
            if got != (kind, a, b) or abs(r.time - t) > 1e-12:
                return f"report {got} at t={r.time}, expected {(kind, a, b)} at {t}"
            fid = ref_walk.fidelity(a, b, t)
            if fid < 1.0 - LPST_TOL or abs(r.fidelity - fid) > LPST_TOL:
                return f"{kind} ({a},{b}) fidelity {r.fidelity}, reference {fid}"
        return None

    def counters(self, ops: list[Op], results: list) -> dict[str, float]:
        return {"families.witnesses": sum(len(op.data["witnesses"]) for op in ops)}


class PgstSweep(_InProcess):
    """circulant_twin_edge_family on a non-gcd Cay(Z_2^k, S) with one
    antipodal edge, then walk.pgst_scan at the default q_max and epsilons.

    The sweep over up to 10^6 times x k eigenvalues dominates and each
    operation solves one small graph. The deck is drawn once per seed (each
    operation with its own antipodal pair) and replayed, so every graph
    repeats from the second deck on, and a cross-call cache would hit.
    """

    name = "pgst-sweep"
    replays_deck = True
    # (n, S, operations per deck, verdict at q_max = 10^6 and eps 1e-3).
    # Full scans (NONE) are a minority of operations but most of the time.
    # The early stops are graded in cost, so that no large gap between
    # latency levels sits at the median.
    FULL = (
        (64, (3, 29, 35, 61), 2, "NONE"),
        (16, (1, 7, 9, 15), 3, "PGST"),
        (16, (3, 5, 11, 13), 2, "PGST"),
        (32, (6, 10, 22, 26), 2, "PGST"),
        (32, (2, 14, 18, 30), 2, "PGST"),
        (64, (12, 20, 44, 52), 1, "PGST"),
        (64, (4, 28, 36, 60), 2, "PGST"),
        (32, (1, 7, 9, 15, 17, 23, 25, 31), 2, "PGST"),
        (32, (1, 3, 13, 15, 17, 19, 29, 31), 2, "PGST"),
        (32, (1, 2, 3, 13, 14, 15, 17, 18, 19, 29, 30, 31), 2, "PGST"),
        (32, (1, 2, 14, 15, 17, 18, 30, 31), 2, "PGST"),
        (32, (1, 15, 17, 31), 3, "PGST"),
    )
    WARM = ((16, (1, 7, 9, 15), 1, "PGST"), (32, (1, 3, 13, 15, 17, 19, 29, 31), 1, "PGST"))
    TINY = WARM

    def deck(self, rng: np.random.Generator, part: str) -> list[Op]:
        specs = {"full": self.FULL, "warm": self.WARM, "tiny": self.TINY}[part]
        ops = []
        for n, S, count, verdict in specs:
            label = f"Z{n}{{{','.join(map(str, S))}}}"
            for _ in range(count):
                pair = _antipodal(rng, n, 1)[0]
                L = ref.circulant_with(n, S, [pair])
                ops.append(Op(label, n, ref.key(L),
                              {"n": n, "S": S, "pair": pair, "verdict": verdict, "L": L}))
        return _shuffled(rng, ops)

    def run(self, op: Op):
        spec = circulant.CirculantSpec(op.n, frozenset(op.data["S"]))
        a, b = op.data["pair"]
        fi = families.circulant_twin_edge_family(spec, [(a, b)])
        return walk.pgst_scan(fi.graph, a, b, Q_MAX, EPSILONS)

    def check(self, op: Op, witness) -> str | None:
        verdict = "PGST" if witness.achieved(EPSILONS[-1]) is not None else "NONE"
        if verdict != op.data["verdict"]:
            return f"verdict {verdict}, expected {op.data['verdict']}"
        return check_ladder(walk_for(op), op.data["pair"],
                            [(h.epsilon, h.q, h.time, h.fidelity)
                             for h in witness.epsilon_ladder])

    def counters(self, ops: list[Op], results: list) -> dict[str, float]:
        return pgst_counts([(op, [h.q for h in w.epsilon_ladder])
                            for op, w in zip(ops, results)])


def q_evaluated(ladder_qs: list[int]) -> int:
    """Times (4q+1) pi/2 that walk.pgst_scan evaluates. It sweeps whole
    chunks (the default of its `chunk` parameter) and stops after the chunk
    holding the smallest epsilon's first hit, or sweeps the whole range when
    that epsilon is never reached. Without a chunk parameter, the range up
    to the hit is counted."""
    if len(ladder_qs) < len(EPSILONS):
        return Q_MAX + 1
    needed = ladder_qs[-1] + 1
    param = inspect.signature(walk.pgst_scan).parameters.get("chunk")
    if param is None or not isinstance(param.default, int) or param.default < 1:
        return needed
    return min(-(-needed // param.default) * param.default, Q_MAX + 1)


def pgst_counts(scans: list[tuple[Op, list[int]]]) -> dict[str, float]:
    """q values evaluated, and amplitudes (q times the number of distinct
    eigenvalues), over (operation, ladder q values) of pgst scans."""
    q_scanned = evals = 0
    for op, ladder_qs in scans:
        q = q_evaluated(ladder_qs)
        q_scanned += q
        evals += q * walk_for(op).distinct_values()
    return {"walk.pgst.q_scanned": q_scanned, "walk.pgst.amplitude_evals": evals}


def check_ladder(ref_walk: ref.Walk, pair, ladder: list[tuple]) -> str | None:
    """Each (epsilon, q, time, fidelity) hit is real, by a fresh eigh."""
    a, b = pair
    if [h[0] for h in ladder] != list(EPSILONS[: len(ladder)]):
        return f"ladder epsilons {[h[0] for h in ladder]}"
    for eps, q, t, fid in ladder:
        if not _close(t, (4 * q + 1) * HALF_PI):
            return f"hit at q={q} has time {t}"
        expected = ref_walk.fidelity(a, b, t)
        if fid < 1.0 - eps or abs(fid - expected) > PGST_FID_TOL:
            return f"hit eps={eps} q={q}: fidelity {fid}, reference {expected}"
    return None


class CliReadme:
    """The README commands, each one `python -m twinwalk.cli` subprocess.

    Interpreter start-up and `import twinwalk` count only here, and only
    here do graphs.list_twin_pairs and spectral.matrix_exp_oracle do real
    work; the solves are small. The deck is drawn once per seed and replayed.
    """

    name = "cli-readme"
    replays_deck = True
    FULL = (
        ("twins", 16), ("twins", 32), ("twins", 64), ("twins", 64),
        ("check-lpst", 8), ("check-lpst", 12), ("check-lpst", 16),
        ("check-periodic", 12), ("check-none", 12),
        ("scan-pst", 8), ("scan-pst", 12), ("scan-pst", 16),
        ("scan-pgst", 16), ("scan-pgst", 32),
        ("family-k4n", 8), ("family-k4n", 16), ("family-quarter", 12),
        ("family-circulant", 16),
        ("identities", 0), ("identities", 0),
    )
    WARM = (("twins", 16), ("check-lpst", 8))
    TINY = (("twins", 16), ("check-lpst", 8), ("scan-pst", 8), ("scan-pgst", 16),
            ("family-k4n", 8), ("identities", 0))
    PGST_S = {16: (1, 7, 9, 15), 32: (1, 3, 13, 15, 17, 19, 29, 31)}

    def __init__(self, root: Path) -> None:
        self.root = root
        self.work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=root))
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self._tracer: spans.Tracer | None = None
        self._child_times: list[tuple[float, float, float]] = []
        self._refs: dict[str, object] = {}
        self._decks = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # --- decks ------------------------------------------------------------

    def deck(self, rng: np.random.Generator, part: str) -> list[Op]:
        strata = {"full": self.FULL, "warm": self.WARM, "tiny": self.TINY}[part]
        self._decks += 1
        ops = []
        for i, (kind, n) in enumerate(strata):
            op = self._op(rng, kind, n)
            op.data["file"] = f"{part}{self._decks}-{i}.json"
            ops.append(op)
        return _shuffled(rng, ops)

    def _op(self, rng: np.random.Generator, kind: str, n: int) -> Op:
        expect = {"code": 0}
        if kind == "twins":
            half = rng.choice(np.arange(1, n // 2 + 1), size=3, replace=False)
            S = sorted({int(s) for s in half} | {int(n - s) % n for s in half})
            L = ref.circulant_with(n, S, [])
            obj = {"circulant": {"n": n, "S": S}}
            expect["pairs"] = ref.twin_pairs(L)
            return Op(kind, n, ref.key(L), {"input": obj, "args": ["twins"],
                                            "expect": expect, "L": L})
        if kind.startswith(("check", "scan-pst")):
            pairs = _pairs(rng, n, n // 4)
            L = ref.complete_with(n, pairs, 0.0)
            a, b = pairs[0]
            touched = {v for p in pairs for v in p}
            if kind == "check-periodic":
                a = b = min(set(range(n)) - touched)
            obj = {"n": n, "edges": [[u, v] for u in range(n) for v in range(u + 1, n)
                                     if L[u, v] != 0.0]}
            if kind == "scan-pst":
                args = ["scan", "--from", str(a), "--to", str(b), "--mode", "pst",
                        "--t-max-pi", "1"]
                expect.update(kind="LPST", time=HALF_PI)
            else:
                mult = 0.25 if kind == "check-none" else 0.5
                args = ["check", "--from", str(a), "--to", str(b),
                        "--pi-multiple", str(mult)]
                expect.update(time=mult * math.pi, kind={
                    "check-lpst": "LPST", "check-periodic": "PERIODIC",
                    "check-none": "NONE"}[kind])
                if kind == "check-none":
                    expect["code"] = 1
            expect["pair"] = [a, b]
            return Op(kind, n, ref.key(L), {"input": obj, "args": args,
                                            "expect": expect, "L": L})
        if kind == "scan-pgst":
            S = self.PGST_S[n]
            pair = _antipodal(rng, n, 1)[0]
            L = ref.circulant_with(n, S, [pair])
            obj = {"n": n, "edges": [[u, v] for u in range(n) for v in range(u + 1, n)
                                     if L[u, v] != 0.0]}
            args = ["scan", "--from", str(pair[0]), "--to", str(pair[1]),
                    "--mode", "pgst", "--q-max", str(Q_MAX)]
            expect.update(kind="PGST", pair=pair)
            return Op(kind, n, ref.key(L), {"input": obj, "args": args,
                                            "expect": expect, "L": L})
        if kind.startswith("family"):
            if kind == "family-k4n":
                pairs = _pairs(rng, n, n // 4)
                L = ref.complete_with(n, pairs, 0.0)
                obj = {"family": "k4n_matching", "n": n // 4, "matching": pairs}
                witnesses = _witnesses(n, pairs, HALF_PI)
            elif kind == "family-quarter":
                pairs = _pairs(rng, n, 3)
                L = ref.complete_with(n, pairs, 0.25)
                obj = {"family": "quarter_weight", "base": f"K{n}", "pairs": pairs}
                witnesses = _witnesses(n, pairs, TWO_PI)
            else:
                S = ref.gcd_set(n, (1,))
                pairs = _antipodal(rng, n, 4)
                L = ref.circulant_with(n, S, pairs)
                obj = {"family": "circulant_twin", "n": n, "S": list(S), "pairs": pairs}
                witnesses = [("LPST", a, b, HALF_PI) for a, b in pairs]
            expect["witnesses"] = witnesses
            return Op(kind, n, ref.key(L), {"input": obj, "args": ["family"],
                                            "expect": expect, "L": L})
        seed = int(rng.integers(1_000_000))
        args = ["verify-identities", "--seed", str(seed), "--trials", "10"]
        return Op(kind, 0, f"identities:{seed}", {"input": None, "args": args,
                                                  "expect": expect, "L": None})

    def prepare(self, ops: list[Op]) -> None:
        for op in ops:
            if op.data["input"] is not None:
                (self.work / op.data["file"]).write_text(json.dumps(op.data["input"]))

    # --- operations -------------------------------------------------------

    def _argv(self, op: Op) -> list[str]:
        args = list(op.data["args"])
        if op.data["input"] is not None:
            args[1:1] = ["--input", str(self.work / op.data["file"])]
        return args

    def run(self, op: Op):
        if self._tracer is None:
            cmd = [sys.executable, "-m", "twinwalk.cli", *self._argv(op)]
        else:
            dump = self.work / "trace.json"
            dump.unlink(missing_ok=True)
            cmd = [sys.executable, str(CHILD), str(dump), *self._argv(op)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - start
        if self._tracer is not None:
            obj = json.loads(dump.read_text())
            self._tracer.merge(obj["trace"])
            self._child_times.append((wall, obj["import_s"], obj["main_s"]))
        return proc.returncode, proc.stdout

    def trace_begin(self) -> None:
        self._tracer = spans.Tracer()
        self._child_times = []

    def trace_end(self) -> spans.Tracer:
        tracer, self._tracer = self._tracer, None
        return tracer

    # --- checks -----------------------------------------------------------

    def _reference(self, op: Op):
        """The same computation in-process, for the CLI's formatting path."""
        if op.data["file"] in self._refs:
            return self._refs[op.data["file"]]
        path = self.work / op.data["file"]
        exp = op.data["expect"]
        if op.kind.startswith("check"):
            a, b = exp["pair"]
            G = jsonio.load_graph(path)
            r = (walk.check_periodic(G, a, exp["time"]) if a == b
                 else walk.check_lpst(G, a, b, exp["time"]))
        elif op.kind == "scan-pst":
            r = walk.pst_time_scan(jsonio.load_graph(path), *exp["pair"], math.pi)
        elif op.kind == "scan-pgst":
            r = walk.pgst_scan(jsonio.load_graph(path), *exp["pair"], Q_MAX, EPSILONS)
        elif op.kind.startswith("family"):
            r = families.verify_family(jsonio.load_family(path), LPST_TOL, Q_MAX)
        else:
            seed = int(op.data["args"][2])
            r = identities.run_identity_checks(None, seed, int(op.data["args"][4]))
        self._refs[op.data["file"]] = r
        return r

    def check(self, op: Op, result) -> str | None:
        code, stdout = result
        exp = op.data["expect"]
        if code != exp["code"]:
            return f"exit {code}, expected {exp['code']}"
        out = json.loads(stdout)
        if op.kind == "twins":
            return None if out["twin_pairs"] == exp["pairs"] else (
                f"twin pairs {out['twin_pairs']}, expected {exp['pairs']}")
        if op.kind == "identities":
            ref_devs = self._reference(op)
            if set(out["identities"]) != set(ref_devs):
                return f"identities {sorted(out['identities'])}"
            for name, dev in out["identities"].items():
                # the CLI prints deviations with 6 significant digits
                if dev > IDENTITY_MAX or not _close(dev, ref_devs[name], 1e-5):
                    return f"{name} deviation {dev}, in-process {ref_devs[name]}"
            return None
        if op.kind == "scan-pgst":
            if out["kind"] != exp["kind"]:
                return f"kind {out['kind']}, expected {exp['kind']}"
            ladder = [(h["epsilon"], h["q"], h["time"], h["fidelity"]) for h in out["ladder"]]
            inproc = [(h.epsilon, h.q, h.time, h.fidelity)
                      for h in self._reference(op).epsilon_ladder]
            if len(ladder) != len(inproc) or any(
                    x[:2] != y[:2] or not _close(x[2], y[2]) or not _close(x[3], y[3])
                    for x, y in zip(ladder, inproc)):
                return f"ladder {ladder}, in-process {inproc}"
            return check_ladder(walk_for(op), exp["pair"], ladder)
        if op.kind.startswith("family"):
            if not out["all_passed"]:
                return f"family failed: {out.get('error')}"
            inproc = self._reference(op)
            reports = out["reports"]
            if len(reports) != len(exp["witnesses"]):
                return f"{len(reports)} reports for {len(exp['witnesses'])} witnesses"
            for r, r_in, w in zip(reports, inproc, exp["witnesses"]):
                msg = self._check_report(op, r, r_in, w[0], w[1:3], w[3])
                if msg:
                    return msg
            return None
        r_in = self._reference(op)
        return self._check_report(op, out, r_in, exp["kind"], exp["pair"], exp["time"],
                                  time_tol=1e-6 if op.kind == "scan-pst" else REL_TOL)

    def _check_report(self, op: Op, r: dict, r_in, kind: str, pair, t: float,
                      time_tol: float = REL_TOL) -> str | None:
        a, b = pair
        if (r["kind"], r["from"], r["to"]) != (kind, a, b):
            return f"report {(r['kind'], r['from'], r['to'])}, expected {(kind, a, b)}"
        if not _close(r["time"], t, time_tol) or not _close(r["time"], r_in.time):
            return f"time {r['time']}, expected {t}, in-process {r_in.time}"
        fid = walk_for(op).fidelity(a, b, r["time"])
        if not _close(r["fidelity"], r_in.fidelity) or abs(r["fidelity"] - fid) > LPST_TOL:
            return f"fidelity {r['fidelity']}, in-process {r_in.fidelity}, reference {fid}"
        if (kind != "NONE") != (fid >= 1.0 - LPST_TOL):
            return f"{kind} at fidelity {fid}"
        return None

    def counters(self, ops: list[Op], results: list) -> dict[str, float]:
        out: dict[str, float] = {"families.witnesses": sum(
            len(op.data["expect"].get("witnesses", ())) for op in ops)}
        out.update(pgst_counts([(op, [h["q"] for h in json.loads(stdout)["ladder"]])
                                for op, (_, stdout) in zip(ops, results)
                                if op.kind == "scan-pgst"]))
        if self._child_times:
            out["cli.process_s"] = statistics.median(w for w, _, _ in self._child_times)
            out["cli.import_s"] = statistics.median(i for _, i, _ in self._child_times)
            out["cli.startup_share"] = statistics.median(
                (w - m) / w for w, _, m in self._child_times)
        return out


def make(name: str, root: Path):
    if name == FamilyDense.name:
        return FamilyDense()
    if name == PgstSweep.name:
        return PgstSweep()
    if name == CliReadme.name:
        return CliReadme(root)
    raise ValueError(f"unknown workload {name!r}")
