"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-4 and 10 are here (criteria 5-9, the LLPF detection power and
the reproductions of the attack ranking and of robust aggregation, are
not yet); the module finishes in seconds.
"""
import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import run_cached

from fedcsi import channel, cli, llpf, nn
from fedcsi import aggregation as agg
from fedcsi.aggregation import Aggregator, WeightUpdate
from fedcsi.attacks import AttackPlan, poison_caches
from fedcsi.channel import ChannelConfig
from fedcsi.llpf import LlpfConfig
from fedcsi.orchestrator import ExperimentConfig, pretrain
from fedcsi.seeds import derive_rng

from test_aggregation import (
    fed_avg_oracle, fed_median_oracle, sto_median_oracle, trimmed_mean_oracle,
    updates_from,
)

SEEDS = (1, 2, 3, 4, 5)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: gradient oracle
# --------------------------------------------------------------------------

def test_c01_gradient_oracle():
    start = time.time()
    spec = nn.NetworkSpec(
        layers=(nn.LayerSpec(3, 3, 6, "selu"), nn.LayerSpec(3, 3, 2, "softplus")),
        input_shape=(7, 5, 2),
    )
    n_params = nn.param_count(spec)
    assert n_params <= 500
    params = nn.init_params(spec, 11)
    rng = np.random.default_rng(12)
    xs = rng.normal(size=(3, 7, 5, 2))
    ys = rng.normal(size=(3, 7, 5, 2))
    analytic, _ = nn.batch_gradient(spec, params, xs, ys)
    h = 1e-5
    flat = params.copy()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            flat[i] += sign * h
            pred = nn.forward_batch(spec, flat, xs)
            fd[i] += sign * nn.mse_loss(pred, ys) / (2 * h)
            flat[i] -= sign * h
    ok = np.allclose(analytic, fd, rtol=1e-4, atol=1e-8)
    elapsed = time.time() - start
    _report(
        "criterion 1 (gradient vs central finite differences)",
        ok and elapsed < 10.0,
        f"{n_params} params, max rel err "
        f"{np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)):.2e}, "
        f"{elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 2: aggregator oracles on random instances
# --------------------------------------------------------------------------

def test_c02_aggregator_oracles():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 10))
        j = int(rng.integers(1, 51))
        rows = rng.uniform(-2.0, 2.0, size=(n, j))
        lens = rng.integers(1, 300, size=n)
        ups = updates_from(rows, lens)
        a = int(rng.integers(0, (n - 1) // 2 + 1))
        pairs = [
            (agg.fed_avg(ups), fed_avg_oracle(ups)),
            (agg.trimmed_mean(ups, a), trimmed_mean_oracle(ups, a)),
            (agg.fed_median(ups), fed_median_oracle(ups)),
            (agg.sto_median(ups), sto_median_oracle(ups)),
        ]
        for got, want in pairs:
            worst = max(worst, float(np.max(np.abs(got - want))))
    _report(
        "criterion 2 (FedAvg/TrimmedMean/FedMedian/StoMedian vs brute-force oracles)",
        worst <= 1e-12,
        f"200 instances, worst abs err {worst:.2e}",
    )


# --------------------------------------------------------------------------
# criterion 3: StoMedian invariants
# --------------------------------------------------------------------------

def test_c03_stomedian_invariants():
    rng = np.random.default_rng(303)
    # exact passthrough
    w = rng.normal(size=37)
    ups = updates_from([w, w, w, w], [3, 17, 50, 211])
    passthrough = np.array_equal(agg.sto_median(ups), w)
    # permutation invariance + convex hull on random instances
    perm_ok = hull_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 10))
        rows = rng.uniform(-3.0, 3.0, size=(n, 20))
        lens = rng.integers(1, 100, size=n)
        ups = updates_from(rows, lens)
        out = agg.sto_median(ups)
        shuffled = [ups[i] for i in rng.permutation(n)]
        perm_ok &= bool(np.allclose(out, agg.sto_median(shuffled), atol=1e-12, rtol=0))
        hull_ok &= bool(
            np.all(out >= rows.min(axis=0) - 1e-12) and np.all(out <= rows.max(axis=0) + 1e-12)
        )
    # the outlier instance
    ups = updates_from([[0.1], [0.1], [10.0]], [1, 1, 1])
    probs = agg.sto_median_probabilities(ups)
    outlier_prob = float(probs[2, 0])
    sto_out = float(agg.sto_median(ups)[0])
    fedavg_out = float(agg.fed_avg(ups)[0])
    outlier_ok = (
        outlier_prob < 1.0 / 3.0
        and abs(sto_out - 0.1) < abs(fedavg_out - 0.1)
        and abs(fedavg_out - 3.4) < 1e-12
    )
    _report(
        "criterion 3 (StoMedian passthrough/permutation/hull/outlier)",
        passthrough and perm_ok and hull_ok and outlier_ok,
        f"outlier prob {outlier_prob:.3f}, aggregate {sto_out:.3f} vs fedavg 3.4",
    )


# --------------------------------------------------------------------------
# criterion 4: FedBE sampling moments
# --------------------------------------------------------------------------

def test_c04_fedbe_sampling():
    rng = np.random.default_rng(404)
    draws_rng = derive_rng(404, "fedbe-acceptance")
    s = 10_000
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 8))
        j = int(rng.integers(2, 11))
        rows = rng.uniform(-1.5, 1.5, size=(n, j))
        lens = rng.integers(1, 200, size=n)
        mu, var = agg.fed_be_fit(updates_from(rows, lens))
        draws = agg.fed_be_sample(mu, var, s, draws_rng)
        se_mean = np.sqrt(var / s)
        se_var = var * np.sqrt(2.0 / (s - 1))
        ok &= bool(np.all(np.abs(draws.mean(axis=0) - mu) < 3 * se_mean))
        ok &= bool(np.all(np.abs(draws.var(axis=0) - var) < 3 * se_var))
    _report(
        "criterion 4 (FedBE draws match fitted mean/variance within 3 SE)",
        ok, "20 instances, S=10000",
    )


# --------------------------------------------------------------------------
# criterion 10: byte-level determinism, serial == parallel
# --------------------------------------------------------------------------

def test_c10_determinism(tmp_path):
    config = {
        "n_sbs": 3, "rounds": 2, "cache_len_lo": 6, "cache_len_hi": 8, "i_min": 5,
        "pretrain_size": 10, "validation_size": 8, "epochs": 2, "batch_size": 8,
        "learning_rate": 0.003,
        "network": {"input_height": 12, "input_width": 8,
                    "layers": [[3, 3, 5, "selu"], [3, 3, 2, "selu"]]},
        "channel": {"grid_height": 12, "grid_width": 8, "path_count": 4,
                     "max_delay_taps": 1, "doppler_spread": 0.02,
                     "pilot_noise_stddev": 0.1, "pilot_rows_stride": 2,
                     "pilot_cols_stride": 2},
        "attack": {"mode": "reverse", "deployment": "widespread", "ratio": 0.3},
        "aggregator": {"kind": "stomedian"},
        "llpf": {"enabled": True},
        "master_seed": 5,
    }
    import json
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    assert cli.run(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.run(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    repeat_ok = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    sweep_args = ["--config", str(cfg_path), "--aggregators", "fedavg,fedmedian,stomedian",
                  "--ratios", "0.0,0.3", "--seeds", "5,6"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.run(["sweep", *sweep_args, "--out", str(serial), "--jobs", "1"]) == 0
    assert cli.run(["sweep", *sweep_args, "--out", str(parallel), "--jobs", "8"]) == 0
    serial_files = sorted(p.name for p in serial.iterdir())
    parallel_files = sorted(p.name for p in parallel.iterdir())
    sweep_ok = serial_files == parallel_files and all(
        (serial / name).read_bytes() == (parallel / name).read_bytes()
        for name in serial_files
    )
    _report(
        "criterion 10 (byte-identical reruns; parallel sweep == serial sweep)",
        repeat_ok and sweep_ok,
        f"{len(serial_files)} sweep files compared",
    )
