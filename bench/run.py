"""The twinwalk benchmark: one workload per run, one closed-loop client.

    python3 bench/run.py --workload {family-dense,pgst-sweep,cli-readme}
                         --seed N --seconds S --trace {0,1}

Each operation starts when the previous one has finished. A run sets up
several times (import, deck generation, input files, warm-up) and reports
the median, then plays whole decks until about --seconds have been measured
and at least MIN_OPS operations have run (one with --tiny). Every verdict is checked after
the timed loop, against references that do not use twinwalk.spectral (walk
amplitudes from np.linalg.eigh) and, for CLI output, against the same call
made in-process.

--trace 0 prints the end-to-end metrics. --trace 1 plays untraced decks for
half of --seconds, then exactly one deck (deck 0 of the seed) with every
public function of the package wrapped, and prints per-layer totals over
that deck, a calibration of the eigensolver and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is a JSON report: environment, deck
descriptors, failure messages, sample counts and the layer predictions.
Thread counts of BLAS and OpenMP are pinned to 1, here and in every CLI
subprocess. Exits with code 2, printing no result, when the package sources
are missing.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_OPS = 100  # p90 then has ten samples beyond it
WARM_KEY = 1_000_000
CALIB_KEY = 2_000_000
CALIB = ((16, 7), (32, 5), (64, 3))  # (n, repetitions of the Jacobi solve)
EIGH_REPS = 51

FAMILY_BUILDERS = ("families.complete_graph", "families.k4n_remove_matching",
                   "families.quarter_weight_edge", "families.quarter_weight_family",
                   "families.circulant_twin_edge_family")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("family-dense", "pgst-sweep", "cli-readme"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few small operations per deck, for smoke tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def play(workload, deck):
    """Run a deck in order; each record is (op, result, error, latency_s)."""
    records = []
    for op in deck:
        start = time.perf_counter()
        try:
            result, error = workload.run(op), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append((op, result, error, time.perf_counter() - start))
    return records


class Runner:
    def __init__(self, workload, args, np):
        self.w, self.args, self.np = workload, args, np
        self.part = "tiny" if args.tiny else "full"
        self.decks = {}

    def rng(self, *key):
        return self.np.random.default_rng([self.args.seed, *key])

    def deck(self, i):
        if self.w.replays_deck:
            i = 0
        if i not in self.decks:
            self.decks[i] = self.w.deck(self.rng(i), self.part)
            self.w.prepare(self.decks[i])
        return self.decks[i]

    def setup(self):
        """Deck generation, input files and warm-up, timed SETUP_REPS times."""
        times = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            warm = self.w.deck(self.rng(WARM_KEY, rep), "warm")
            self.w.prepare(warm)
            self.decks.pop(0, None)
            self.deck(0)
            play(self.w, warm)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def measure(self, budget, first, min_ops):
        """Whole decks until the budget is (about) spent and min_ops have run."""
        records, deck_times, i = [], [], first
        while True:
            start = time.perf_counter()
            records += play(self.w, self.deck(i))
            deck_times.append(time.perf_counter() - start)
            i += 1
            spent = sum(deck_times)
            if (len(records) >= min_ops
                    and spent + statistics.mean(deck_times) / 2 >= budget):
                return records, deck_times


def verdict_error(workload, record):
    """None when the operation ran and its verdict checks, else a message."""
    op, result, error, _ = record
    if error is None:
        try:
            error = workload.check(op, result)
        except Exception as exc:  # malformed output is a failed verdict
            error = f"check raised {type(exc).__name__}: {exc}"
    return None if error is None else f"{op.kind} n={op.n}: {error}"


def check_all(workload, records):
    return [e for e in (verdict_error(workload, r) for r in records) if e is not None]


def end_to_end(records, deck_times, workload, setup_s, failures):
    lat = sorted(r[3] for r in records)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "throughput_ops_s": (len(records) / sum(deck_times), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "verified_frac": (1.0 - len(failures) / len(records), "frac"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }


def calibrate(seed, np):
    """Median ms of spectral.eigendecompose and of plain np.linalg.eigh on
    seeded random dense Laplacians."""
    import reference
    import twinwalk.spectral as spectral

    solve = getattr(spectral, "eigendecompose", None)
    rng = np.random.default_rng([seed, CALIB_KEY])
    out = {}
    for n, reps in CALIB:
        L = reference.random_laplacian(rng, n)
        for label, fn, count in (("jacobi", solve, reps), ("eigh", np.linalg.eigh, EIGH_REPS)):
            if fn is None:
                out[f"spectral.calib.{label}_n{n}_ms"] = None
                continue
            times = []
            for _ in range(count):
                start = time.perf_counter()
                fn(L)
                times.append(time.perf_counter() - start)
            out[f"spectral.calib.{label}_n{n}_ms"] = statistics.median(times) * 1e3
    return out


def per_layer(tr, desc, counters, traced_s, untraced_deck_s, calib):
    """Per-layer totals over the one traced deck; absent names come back 0."""
    solver = "spectral.eigendecompose"
    solves = tr.calls(solver)
    witnesses = counters.get("families.witnesses", 0)
    jsonio_names = tr.names_in("jsonio")
    m, absent = {}, []

    def present(names):
        """A group counts as present when any of its functions exists."""
        return [n for n in names if tr.has(n)] or list(names)

    def put(name, value, unit, needs=()):
        if value is None or any(not tr.has(n) for n in needs):
            absent.append(name)
            value = 0
        m[name] = (value, unit)

    put(f"{solver}.calls", solves, "count", [solver])
    put(f"{solver}.self_s", tr.self_s(solver), "s", [solver])
    put("spectral.solves_per_op", solves / desc["ops"], "ratio", [solver])
    put("spectral.distinct_solve_ratio",
        len(tr.solver_inputs) / solves if solves else 0.0, "ratio", [solver])
    put("spectral.matrix_exp_oracle.calls", tr.calls("spectral.matrix_exp_oracle"),
        "count", ["spectral.matrix_exp_oracle"])
    put("spectral.matrix_exp_oracle.self_s", tr.self_s("spectral.matrix_exp_oracle"),
        "s", ["spectral.matrix_exp_oracle"])
    for name, value in calib.items():
        put(name, value, "ms")
    put("walk.pgst_scan.self_s", tr.self_s("walk.pgst_scan"), "s", ["walk.pgst_scan"])
    put("walk.pgst.q_scanned", counters.get("walk.pgst.q_scanned", 0), "count")
    put("walk.pgst.amplitude_evals", counters.get("walk.pgst.amplitude_evals", 0), "count")
    put("walk.propagator.calls", tr.calls("walk.propagator"), "count", ["walk.propagator"])
    for fn in ("propagator", "check_lpst", "check_periodic", "pst_time_scan"):
        put(f"walk.{fn}.self_s", tr.self_s(f"walk.{fn}"), "s", [f"walk.{fn}"])
    put("graphs.list_twin_pairs.self_s", tr.self_s("graphs.list_twin_pairs"), "s",
        ["graphs.list_twin_pairs"])
    put("graphs.is_twin_pair.calls", tr.calls("graphs.is_twin_pair"), "count",
        ["graphs.is_twin_pair"])
    put("graphs.laplacian.self_s", tr.self_s("graphs.laplacian"), "s", ["graphs.laplacian"])
    put("graphs.perturb_edge.calls", tr.calls("graphs.perturb_edge"), "count",
        ["graphs.perturb_edge"])
    put("circulant.build_circulant.self_s", tr.self_s("circulant.build_circulant"), "s",
        ["circulant.build_circulant"])
    put("circulant.laplacian_eigenvalues.calls", tr.calls("circulant.laplacian_eigenvalues"),
        "count", ["circulant.laplacian_eigenvalues"])
    put("families.verify_family.self_s", tr.self_s("families.verify_family"), "s",
        ["families.verify_family"])
    put("families.witnesses", witnesses, "count")
    put("families.build.self_s", tr.self_s(*FAMILY_BUILDERS), "s", present(FAMILY_BUILDERS))
    put("families.solves_per_witness",
        tr.solves_in_verify / witnesses if witnesses else 0.0,
        "ratio", ["families.verify_family", solver])
    put("identities.run_identity_checks.self_s",
        tr.self_s("identities.run_identity_checks"), "s", ["identities.run_identity_checks"])
    put("jsonio.load.self_s", tr.self_s(*jsonio_names), "s", jsonio_names or ["jsonio"])
    put("cli.process_s", counters.get("cli.process_s", 0.0), "s")
    put("cli.import_s", counters.get("cli.import_s", 0.0), "s")
    put("cli.startup_share", counters.get("cli.startup_share", 0.0), "frac")
    put("trace.deck_s", traced_s, "s")
    put("trace.overhead_frac", traced_s / untraced_deck_s - 1.0, "frac")
    put("deck.ops", desc["ops"], "count")
    put("deck.distinct_graphs", desc["distinct_graphs"], "count")
    put("deck.repeat_share", desc["repeat_share"], "frac")
    return m, absent


def trace_deck(runner, untraced, deck_times, report):
    """Calibrate, then play deck 0 once with the layer tracer installed.

    Its repeat share counts graphs seen earlier in the traced deck or in the
    untraced decks before it, as a cache kept across calls would see them.
    """
    w, args = runner.w, runner.args
    calib = calibrate(args.seed, runner.np)
    deck = runner.deck(0)
    desc = repeats(deck, {r[0].graph for r in untraced})
    w.trace_begin()
    start = time.perf_counter()
    traced = play(w, deck)
    traced_s = time.perf_counter() - start
    tr = w.trace_end()
    ok = [r for r in traced if verdict_error(w, r) is None]
    counters = w.counters([r[0] for r in ok], [r[1] for r in ok])
    untraced_deck_s = sum(deck_times) * len(deck) / len(untraced)
    metrics, absent = per_layer(tr, desc, counters, traced_s, untraced_deck_s, calib)
    report.update(absent=absent, traced_deck=desc)
    report["predictions"] = predictions(args.workload, tr, metrics, traced_s)
    return traced, metrics


def predictions(name, tr, metrics, traced_s):
    """The ROADMAP's layer predictions for this workload, on the traced deck."""
    if name == "family-dense":
        share = tr.layer_self_s("spectral") / traced_s
        per_witness = metrics["families.solves_per_witness"][0]
        return [
            {"claim": "spectral self time is the majority of family-dense",
             "value": share, "holds": share > 0.5},
            {"claim": "one solve per LPST or PERIODIC witness",
             "value": per_witness, "holds": per_witness == 1.0},
        ]
    if name == "pgst-sweep":
        share = metrics["walk.pgst_scan.self_s"][0] / traced_s
        return [{"claim": "walk.pgst_scan self time is the majority of pgst-sweep",
                 "value": share, "holds": share > 0.5}]
    share = metrics["cli.startup_share"][0]
    return [{"claim": "start-up is the majority of cli-readme p50",
             "value": share, "holds": share > 0.5}]


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build record is informational only
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "machine": platform.machine(),
    }


def describe(deck, replays):
    """What one deck holds: operations per kind and the n histogram."""
    return {
        "ops": len(deck),
        "kinds": dict(sorted(Counter(op.kind for op in deck).items())),
        "n_histogram": {str(k): v for k, v in sorted(Counter(op.n for op in deck).items())},
        "deck_replayed": replays,
    }


def repeats(ops, seen=()):
    """Distinct graphs among ops played in order, and the share of ops whose
    graph was played before (earlier in ops, or in `seen`)."""
    seen, repeated = set(seen), 0
    for op in ops:
        repeated += op.graph in seen
        seen.add(op.graph)
    return {"ops": len(ops), "distinct_graphs": len({op.graph for op in ops}),
            "repeat_share": repeated / len(ops)}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "twinwalk" / "__init__.py").is_file():
        print(f"error: no twinwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy as np
    import twinwalk
    import workloads
    import_s = time.perf_counter() - start
    if Path(twinwalk.__file__).resolve().parent != SRC / "twinwalk":
        print(f"error: twinwalk imported from {twinwalk.__file__}", file=sys.stderr)
        return 2

    w = workloads.make(args.workload, ROOT)
    try:
        runner = Runner(w, args, np)
        setup_s = import_s + runner.setup()
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "setup": {"import_s": import_s, "reps": SETUP_REPS},
                  "deck": describe(runner.deck(0), w.replays_deck)}
        if args.trace:
            records, deck_times = runner.measure(args.seconds / 2, 1, 1)
            traced, metrics = trace_deck(runner, records, deck_times, report)
        else:
            records, deck_times = runner.measure(args.seconds, 0,
                                                 1 if args.tiny else MIN_OPS)
            traced = []
        failures = check_all(w, records + traced)
        if not args.trace:
            metrics = end_to_end(records, deck_times, w, setup_s, failures)
        attempted = len(records) + len(traced)
        report.update(played=repeats([r[0] for r in records + traced]),
                      decks_played=len(deck_times), latency_samples=len(records),
                      failed_frac=len(failures) / attempted, failures=failures[:5],
                      env=environment(np))
    finally:
        w.close()
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
