"""Golden `metrics.csv` table: a change of any run's bytes fails tier-1.

Each case is a tiny run on the criterion-10 grid (3 stations, 2 rounds)
with one setting changed.  Together they cover every aggregator with no
attack, every attack mode under both deployments with FedAvg, LLPF at
gain 3, `persist_caches`, `steps_sgd`, `exclude_fraction`, a default-spec
run whose calls are large enough for the engine to share with a helper
process, and a FedBE run shaped like the benchmark's fedbe-desk workload,
whose ensemble, distillation and local steps are shared as well.

Where the environment matches the one that recorded the table (numpy
version, BLAS, machine, the CPU's SIMD extensions, Python minor version)
the sha256 of each run's `metrics.csv` must match exactly.  The SIMD
extensions stand for the CPU: OpenBLAS picks its kernels for the CPU it
runs on, and numpy its loops, so the last bits can differ between CPUs
with the same build.  Elsewhere the metric values must match
within REL_TOL, because another BLAS or numpy may round differently.

A change that is meant to change bytes regenerates the table in the same
commit and states the old and new hash prefixes in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write

which prints each case whose hash changed as `old -> new` prefixes, and
the count of the cases that kept theirs.
"""
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from fedcsi import cli, orchestrator

TABLE = Path(__file__).with_name("golden_metrics.json")
REL_TOL = 1e-6

GRID = {
    "n_sbs": 3, "rounds": 2, "cache_len_lo": 6, "cache_len_hi": 8, "i_min": 5,
    "pretrain_size": 10, "validation_size": 8, "epochs": 2, "batch_size": 8,
    "learning_rate": 0.003,
    "network": {"layers": [[3, 3, 5, "selu"], [3, 3, 2, "selu"]]},
    "channel": {"grid_height": 12, "grid_width": 8, "path_count": 4,
                "max_delay_taps": 1, "doppler_spread": 0.02,
                "pilot_noise_stddev": 0.1, "pilot_rows_stride": 2,
                "pilot_cols_stride": 2},
    "aggregator": {"kind": "fedavg"},
    "master_seed": 5,
}
REVERSE = {"mode": "reverse", "deployment": "widespread", "ratio": 0.3}


def _case(**overrides) -> dict:
    config = json.loads(json.dumps(GRID))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    return config


CASES = {
    **{f"aggregator-{kind}": _case(aggregator={"kind": kind, **extra})
       for kind, extra in (("fedavg", {}), ("trimmed_mean", {"trim_a": 1}),
                           ("fedmedian", {}), ("stomedian", {}),
                           ("fedbe", {"fedbe_samples": 3, "fedbe_distill_epochs": 2}))},
    **{f"attack-{mode}-{deployment}": _case(attack={
        "mode": mode, "deployment": deployment, "ratio": 0.3,
        **({"target_sbs": 1} if deployment == "targeted" else {})})
       for mode in ("reverse", "collusion", "outdate")
       for deployment in ("widespread", "targeted")},
    "llpf-gain3": _case(attack=REVERSE, channel={"gain_scale": 3.0}, llpf={"enabled": True}),
    "persist-caches": _case(attack=REVERSE, persist_caches=True),
    "steps-sgd": _case(attack=REVERSE, local_mode="steps_sgd", sgd_steps=3),
    "exclude-fraction": _case(attack=REVERSE, exclude_fraction=0.25),
    "default-spec": {
        "n_sbs": 3, "rounds": 2, "cache_len_lo": 3, "cache_len_hi": 4, "i_min": 4,
        "pretrain_size": 4, "validation_size": 4, "epochs": 1, "batch_size": 4,
        "learning_rate": 1e-3, "channel": {"gain_scale": 3.0},
        "attack": {"mode": "reverse", "deployment": "widespread", "ratio": 0.25},
        "aggregator": {"kind": "stomedian"}, "llpf": {"enabled": True}, "master_seed": 3,
    },
    # ten draws over 24 samples, and five stations' local steps of eight
    "fedbe-desk": {
        "n_sbs": 5, "rounds": 2, "cache_len_lo": 6, "cache_len_hi": 8, "i_min": 8,
        "pretrain_size": 24, "validation_size": 8, "pretrain_epochs": 2, "epochs": 1,
        "batch_size": 64, "learning_rate": 2e-3,
        "network": {"layers": [[3, 3, 10, "selu"], [3, 3, 6, "softplus"], [3, 3, 2, "selu"]]},
        "channel": {"grid_height": 36, "grid_width": 10, "path_count": 12,
                    "max_delay_taps": 1, "doppler_spread": 0.02,
                    "pilot_noise_stddev": 0.15, "gain_scale": 3.0},
        "attack": {"mode": "collusion", "deployment": "targeted", "ratio": 0.2,
                   "target_sbs": 0},
        "aggregator": {"kind": "fedbe", "fedbe_samples": 10, "fedbe_distill_epochs": 7},
        "llpf": {"enabled": True}, "master_seed": 5,
    },
}


def fingerprint() -> dict:
    """What decides a run's rounding: numpy, its BLAS, the machine, the
    CPU's SIMD extensions, Python."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 prints its config only
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas")
    blas = f"{blas.get('name')} {blas.get('version')}" if blas else "unknown"
    simd = config.get("SIMD Extensions", {}).get("found", "unknown")
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine(),
            "simd": simd, "python": "%d.%d" % sys.version_info[:2]}


def run_case(config: dict) -> dict:
    records = orchestrator.run_experiment(cli.config_from_dict(config))
    csv = cli.metrics_to_csv(records)
    return {"sha256": hashlib.sha256(csv.encode()).hexdigest(),
            "rows": [[r.mse_gamma, r.mse_delta, r.mse_beta] for r in records]}


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_every_case(table):
    assert sorted(table["runs"]) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_metrics_match_the_golden_table(table, name):
    got, want = run_case(CASES[name]), table["runs"][name]
    here, recorded = fingerprint(), table["fingerprint"]
    if here == recorded:
        assert got["sha256"] == want["sha256"], (
            f"{name}: metrics.csv sha256 {got['sha256'][:12]} != golden "
            f"{want['sha256'][:12]} in the recording environment {recorded}")
        return
    where = f"(environment {here}; table recorded in {recorded})"
    assert len(got["rows"]) == len(want["rows"]), f"{name}: row count differs {where}"
    for t, (g_row, w_row) in enumerate(zip(got["rows"], want["rows"])):
        assert all(_close(g, w) for g, w in zip(g_row, w_row)), (
            f"{name} round {t}: {g_row} != golden {w_row} within rel {REL_TOL} {where}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    old = json.loads(TABLE.read_text())["runs"] if TABLE.exists() else {}
    runs = {name: run_case(config) for name, config in CASES.items()}
    TABLE.write_text(json.dumps({"fingerprint": fingerprint(), "runs": runs}, indent=1) + "\n")
    hashes = {name: (old.get(name, {}).get("sha256"), run["sha256"])
              for name, run in runs.items()}
    hashes.update((name, (run["sha256"], None)) for name, run in old.items() if name not in runs)
    for name, (before, after) in hashes.items():
        if before != after:
            print(f"{name}: {(before or 'new')[:12]} -> {(after or 'removed')[:12]}")
    print(f"{sum(before == after for before, after in hashes.values())} cases unchanged")
