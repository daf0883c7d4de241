"""fedcsi benchmark: times `orchestrator.run_experiment` on one workload.

Closed loop from a single process: one experiment at a time, the next one
starting when the previous one returns, with BLAS pinned to one thread.
The workload seed ``s`` gives SEEDS_PER_RUN experiment master seeds,
``s * SEEDS_PER_RUN + j``; a run cycles through them in turn, so its
medians average over several inputs instead of resting on one seed's cost.

``--trace 0`` measures the end-to-end metrics. Only the three boundaries
they need are timed (``run_experiment``, ``pretrain``, ``run_round``).
Experiments repeat until ``--seconds`` have passed, every experiment seed
has run twice and at least MIN_ROUNDS rounds were timed. Garbage is
collected before each experiment, outside the timed calls.

``--trace 1`` measures the per-layer metrics. It times each default conv
layer alone at batch 64, then alternates untraced and traced experiments of
the first experiment seed, so that counts repeat exactly for a given seed.
The traced ones wrap every public function of the traced modules (see
tracer.py). Span sums are taken per experiment and the median over
experiments is reported. ``trace_overhead_s`` is the traced median
``run_s`` minus the untraced one.

Every experiment is checked. An experiment fails when it raises, reports a
non-finite metric, or gives ``metrics.csv`` bytes that differ from an
earlier experiment of the same seed in this process, or returns another
number of records than ``rounds + 1``. It also fails when its values
deviate from ``reference.json`` by more than REL_TOL; at the stored horizon
the row counts must match too. Before timing starts, the workload's
REFERENCE_SEED experiment runs once as a warm-up and is checked against the
stored values, so every run is checked against the reference whatever seed
it was given; a missing entry for that seed is a failure. A ``metrics.csv``
hash that differs from the stored one while the values stay within
tolerance is not a failure, but it is reported loudly on stderr and in the
results file.

Metric names and units are read from ``BENCHMARK.json``.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Details go to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``: the environment,
per-experiment timings, hashes, check results and, for traced runs, all
recorded spans.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import tracer
import workloads
from run import BLAS_THREAD_VARS
from fedcsi import cli, nn, orchestrator

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE_FILE = HERE / "reference.json"
RESULTS_DIR = HERE / "results"

SEEDS_PER_RUN = 4  # experiment seeds per run, cycled through in turn
MIN_PASSES = 2     # passes over them; the hash check needs two runs of a seed
MIN_ROUNDS = 100   # rounds timed per run, so that ten lie beyond the p90
MIN_TRACED = 2     # traced experiments per traced run
MAX_SECONDS = 100  # a run stops extending itself past --seconds after this
REFERENCE_SEED = 0
REFERENCE_SEEDS = range(16)  # stored in reference.json; holds REFERENCE_SEED
# Relative tolerance against the stored metric values: reordered float64
# sums move a ten-round experiment's MSEs by far less than this, while a
# wrong gradient moves them by whole percents.
REL_TOL = 1e-6
CONV_BATCH = 64
CONV_REPEATS = 5

END_TO_END_SPANS = {
    "orchestrator.run_experiment", "orchestrator.pretrain", "orchestrator.run_round",
}

# per-layer metric -> (span name, summed field) for the plain span sums
SPAN_METRICS = {
    "orchestrator.local_train.s": ("orchestrator.local_train", "s"),
    "nn.batch_gradient.s": ("nn.batch_gradient", "s"),
    "nn.batch_gradient.calls": ("nn.batch_gradient", "calls"),
    "nn.batch_gradient.samples": ("nn.batch_gradient", "samples"),
    "nn.forward_batch.s": ("nn.forward_batch", "s"),
    "nn.forward_batch.calls": ("nn.forward_batch", "calls"),
    "nn.forward_batch.samples": ("nn.forward_batch", "samples"),
    "orchestrator.evaluate.s": ("orchestrator.evaluate", "s"),
    "llpf.filter_cache.s": ("llpf.filter_cache", "s"),
    "aggregation.aggregate.s": ("aggregation.aggregate", "s"),
    "aggregation.aggregate.calls": ("aggregation.aggregate", "calls"),
    "channel.make_sample.s": ("channel.make_sample", "s"),
    "channel.make_sample.calls": ("channel.make_sample", "calls"),
    "channel.generate_round_caches.s": ("channel.generate_round_caches", "s"),
    "channel.topup_with_pretrain.s": ("channel.topup_with_pretrain", "s"),
    "attacks.poison_caches.s": ("attacks.poison_caches", "s"),
    "attacks.poisoned_samples": ("attacks.poison_caches", "poisoned"),
    "orchestrator.run_round.self_s": ("orchestrator.run_round", "self_s"),
    "llpf.scored_samples": ("llpf.filter_cache", "scored"),
    "llpf.replaced_samples": ("llpf.filter_cache", "replaced"),
}



# --------------------------- correctness gate ------------------------------

def _load_reference(workload: str) -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["workloads"].get(workload, {})


def _deviation(got: Optional[float], want: Optional[float]) -> Optional[str]:
    if got is None or want is None:
        return None if got is None and want is None else f"got {got}, stored {want}"
    if abs(got - want) > REL_TOL * max(abs(got), abs(want)):
        return f"got {got!r}, stored {want!r}"
    return None


class Gate:
    """Runs experiments and checks their outputs; counts every failure."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.reference = _load_reference(workload)
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[int, str] = {}
        self.reference_checks: dict[int, str] = {}
        self.hash_changes: dict[int, dict] = {}

    def experiment(self, config) -> bool:
        """Run and check one experiment; True when it passed every check."""
        self.attempted += 1
        gc.collect()
        try:
            records = orchestrator.run_experiment(config)
            problem = self._check(config, records)
        except Exception:  # a failed experiment must not stop the benchmark
            problem = traceback.format_exc()
        if problem is None:
            return True
        message = f"{self.workload} seed {config.master_seed}: {problem}"
        self.failures.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)
        return False

    def _check(self, config, records) -> Optional[str]:
        seed = config.master_seed
        if len(records) != config.rounds + 1:
            return f"{len(records)} records for {config.rounds} rounds"
        rows = [(r.mse_gamma, r.mse_delta, r.mse_beta) for r in records]
        for r, row in zip(records, rows):
            if any(v is not None and not math.isfinite(v) for v in row):
                return f"non-finite metric in round {r.round}: {row}"
        digest = hashlib.sha256(cli.metrics_to_csv(records).encode()).hexdigest()
        first = self.hashes.setdefault(seed, digest)
        if digest != first:
            return f"metrics.csv sha256 {digest} differs from {first} of an earlier run"
        stored = self.reference.get(str(seed))
        if stored is None:
            if seed == REFERENCE_SEED:
                return f"{REFERENCE_FILE.name} has no entry for the reference seed"
            return None
        if seed in self.reference_checks:
            return None
        full_horizon = len(rows) == len(stored["rows"])
        problem = self._compare(rows, stored)
        self.reference_checks[seed] = problem or "ok"
        if problem is None and full_horizon and digest != stored["sha256"]:
            self.hash_changes[seed] = {"stored": stored["sha256"], "got": digest}
            print(f"perfbench: WARNING metrics.csv sha256 CHANGED for {self.workload} "
                  f"seed {seed}: stored {stored['sha256']}, got {digest}; values are "
                  f"within rel tol {REL_TOL}", file=sys.stderr)
        return problem

    @staticmethod
    def _compare(rows: list, stored: dict) -> Optional[str]:
        """Rows must match the stored ones in number and value; a shorter
        horizon than the stored one (a shrunk config) matches a prefix."""
        want_rows = stored["rows"]
        if len(rows) > len(want_rows):
            return f"{len(rows)} rows, reference has {len(want_rows)}"
        for t, (got, want) in enumerate(zip(rows, want_rows)):
            for column, g, w in zip(("mse_gamma", "mse_delta", "mse_beta"), got, want):
                problem = _deviation(g, w)
                if problem:
                    return f"round {t} {column} off the reference by more than {REL_TOL}: {problem}"
        return None


# --------------------------- measurement -----------------------------------

def _median_ms(fn: Callable) -> float:
    fn()
    times = []
    for _ in range(CONV_REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def conv_timings(seed: int) -> dict[str, float]:
    """Forward and gradient time of each default conv layer alone, batch 64."""
    rng = np.random.default_rng(seed)
    default = nn.default_network_spec()
    height, width, c_in = default.input_shape
    out = {}
    for i, layer in enumerate(default.layers):
        spec = nn.NetworkSpec(layers=(layer,), input_shape=(height, width, c_in))
        params = nn.init_params(spec, seed)
        xs = rng.standard_normal((CONV_BATCH, height, width, c_in))
        ys = rng.standard_normal((CONV_BATCH, height, width, layer.filters))
        out[f"nn.conv{i}.forward_ms"] = _median_ms(lambda: nn.forward_batch(spec, params, xs))
        out[f"nn.conv{i}.gradient_ms"] = _median_ms(
            lambda: nn.batch_gradient(spec, params, xs, ys))
        c_in = layer.filters
    return out


def _keep_going(start: float, seconds: float, *needs: bool) -> bool:
    elapsed = perf_counter() - start
    return elapsed < MAX_SECONDS and (elapsed < seconds or any(needs))


def measure_end_to_end(gate: Gate, configs: list, seconds: float):
    timer = tracer.Tracer()
    passed: list[int] = []
    rounds: list[float] = []
    done = 0
    start = perf_counter()
    with timer.install(END_TO_END_SPANS):
        while _keep_going(start, seconds, done < MIN_PASSES * len(configs),
                          len(rounds) < MIN_ROUNDS):
            config = configs[done % len(configs)]
            done += 1
            timer.trace_id = gate.attempted
            if gate.experiment(config):
                passed.append(timer.trace_id)
                rounds += tracer.durations(timer.spans, timer.trace_id, "orchestrator.run_round")
    if not passed:
        return None, {}
    run_s = [tracer.durations(timer.spans, t, "orchestrator.run_experiment")[0] for t in passed]
    setup_s = [tracer.durations(timer.spans, t, "orchestrator.pretrain")[0] for t in passed]
    metrics = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setup_s),
        "round_s_p50": statistics.median(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - len(gate.failures) / gate.attempted,
    }
    # Not an end-to-end metric: every round does the same work, so the tail
    # measures only how long other load on the machine slowed the run.
    p90 = statistics.quantiles(rounds, n=10)[-1] if len(rounds) > 1 else rounds[0]
    detail = {"run_s": run_s, "setup_s": setup_s, "round_s": rounds, "round_s_p90": p90,
              "rounds_timed": len(rounds), "experiments_timed": len(passed)}
    return metrics, detail


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_values(spans: list, trace_id: int) -> tuple[dict, dict]:
    summary = tracer.summarize(spans, trace_id)
    values = {}
    for metric, (name, field) in SPAN_METRICS.items():
        values[metric] = float(summary.get(name, {}).get(field, 0.0))
    llpf = summary.get("llpf.filter_cache", {})
    values["llpf.precision"] = _ratio(llpf.get("caught", 0.0), llpf.get("replaced", 0.0))
    values["llpf.recall"] = _ratio(llpf.get("caught", 0.0), llpf.get("poisoned", 0.0))
    run_s = summary["orchestrator.run_experiment"]["s"]
    forward = tracer.time_under(spans, trace_id, "nn.forward_batch",
                                {"orchestrator.evaluate", "llpf.filter_cache"})
    shares = {
        "local_train_share": values["orchestrator.local_train.s"] / run_s,
        "eval_llpf_forward_share": forward / run_s,
        "aggregate_share": values["aggregation.aggregate.s"] / run_s,
    }
    return values, {"run_s": run_s, **shares}


def measure_layers(gate: Gate, config, seconds: float, seed: int):
    start = perf_counter()
    conv = conv_timings(seed)
    timer, full = tracer.Tracer(), tracer.Tracer()
    plain_ok: list[int] = []
    traced_ok: list[int] = []
    while _keep_going(start, seconds, len(traced_ok) < MIN_TRACED):
        with timer.install(END_TO_END_SPANS):
            timer.trace_id = gate.attempted
            if gate.experiment(config):
                plain_ok.append(timer.trace_id)
        with full.install():
            full.trace_id = gate.attempted
            if gate.experiment(config):
                traced_ok.append(full.trace_id)
    if not traced_ok or not plain_ok:
        return None, {}
    per_run = [_layer_values(full.spans, t) for t in traced_ok]
    metrics = {m: statistics.median(v[m] for v, _ in per_run) for m in per_run[0][0]}
    metrics.update(conv)
    plain_run_s = [tracer.durations(timer.spans, t, "orchestrator.run_experiment")[0]
                   for t in plain_ok]
    traced_run_s = [d["run_s"] for _, d in per_run]
    metrics["trace_overhead_s"] = statistics.median(traced_run_s) - statistics.median(plain_run_s)
    detail = {
        "untraced_run_s": plain_run_s,
        "traced": [d for _, d in per_run],
        "design_shares": {k: statistics.median(d[k] for _, d in per_run)
                          for k in per_run[0][1] if k.endswith("_share")},
        "span_fields": ["trace", "name", "start", "end", "parent", "attrs"],
        "spans": [s for s in full.spans if s[tracer.TRACE] in set(traced_ok)],
    }
    return metrics, detail


# --------------------------- environment and output ------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> Optional[str]:
    """Commit of the current directory's git checkout; None outside one.
    The search for a repository stops at the current directory."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: returns the result line and the detail record."""
    gate = Gate(workload)
    gate.experiment(workloads.build(workload, REFERENCE_SEED))
    configs = [workloads.build(workload, seed * SEEDS_PER_RUN + j) for j in range(SEEDS_PER_RUN)]
    if trace:
        configs = configs[:1]
        metrics, detail = measure_layers(gate, configs[0], seconds, seed)
    else:
        metrics, detail = measure_end_to_end(gate, configs, seconds)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    result = {
        "correct": metrics is not None and not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": ({m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
                    if metrics else {}),
    }
    record = {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "experiment_seeds": [c.master_seed for c in configs],
        "result": result,
        "error_rate": len(gate.failures) / gate.attempted,
        "failures": gate.failures,
        "metrics_csv_sha256": {str(k): v for k, v in gate.hashes.items()},
        "reference_checks": {str(k): v for k, v in gate.reference_checks.items()},
        "hash_changes": {str(k): v for k, v in gate.hash_changes.items()},
        **detail,
    }
    return result, record


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="fedcsi benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"error_rate {record['error_rate']:.6g} ({result['failed']} of "
          f"{result['attempted']} experiments failed)", file=sys.stderr)
    if "rounds_timed" in record:
        print(f"round_s_p90 {record['round_s_p90']:.6g} s; rounds timed "
              f"{record['rounds_timed']} in {record['experiments_timed']} experiments",
              file=sys.stderr)
    for share, value in record.get("design_shares", {}).items():
        print(f"{share} {value:.3f} of traced run_s", file=sys.stderr)
    print(f"details in {out}", file=sys.stderr)
    if not result["metrics"]:
        sys.exit("perfbench: no experiment passed; no metrics to report")
    print(json.dumps(result))
