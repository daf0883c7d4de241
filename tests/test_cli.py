import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedcsi import cli
from fedcsi.cli import ConfigError, parse_config

TINY = {
    "n_sbs": 3,
    "rounds": 1,
    "cache_len_lo": 6,
    "cache_len_hi": 8,
    "i_min": 4,
    "pretrain_size": 10,
    "validation_size": 8,
    "epochs": 2,
    "batch_size": 8,
    "learning_rate": 0.003,
    "network": {
        "input_height": 12,
        "input_width": 8,
        "layers": [[3, 3, 6, "selu"], [3, 3, 4, "softplus"], [3, 3, 2, "selu"]],
    },
    "channel": {
        "grid_height": 12, "grid_width": 8, "path_count": 4, "max_delay_taps": 1,
        "doppler_spread": 0.02, "pilot_noise_stddev": 0.1,
        "pilot_rows_stride": 2, "pilot_cols_stride": 2,
    },
    "master_seed": 3,
}


def write_tiny_config(tmp_path, **extra):
    data = dict(TINY)
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# --------------------------- parse_config -----------------------------------

def test_empty_file_gives_table_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = parse_config(path)
    assert cfg.n_sbs == 10
    assert cfg.validation_size == 200
    assert cfg.epochs == 100
    assert cfg.batch_size == 64
    assert cfg.i_min == 200


def test_unknown_key_is_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rounds": 1, "n_sbss": 3}))
    with pytest.raises(ConfigError, match="n_sbss"):
        parse_config(path)
    path.write_text(json.dumps({"channel": {"grid_heigth": 12}}))
    with pytest.raises(ConfigError, match="grid_heigth"):
        parse_config(path)
    path.write_text(json.dumps({"mu_count": 1000}))  # a key of earlier versions
    with pytest.raises(ConfigError, match="mu_count"):
        parse_config(path)
    path.write_text(json.dumps({"aggregator": {"kind": "stomedian", "stomedian_std": "sample"}}))
    with pytest.raises(ConfigError, match="unknown key 'stomedian_std'"):
        parse_config(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "rounds": 1,\n  "oops"\n}')
    with pytest.raises(ConfigError, match=":4"):
        parse_config(path)


def test_large_widespread_ratio_accepted(tmp_path):
    path = write_tiny_config(
        tmp_path, attack={"mode": "reverse", "deployment": "widespread", "ratio": 0.7}
    )
    cfg = parse_config(path)
    assert cfg.attack.ratio == 0.7


def test_invariant_violations_are_named(tmp_path):
    path = write_tiny_config(tmp_path, cache_len_lo=9, cache_len_hi=8)
    with pytest.raises(ConfigError, match="cache_len_lo"):
        parse_config(path)


@pytest.mark.parametrize("extra, name", [
    ({"rounds": True}, "rounds"),
    ({"epochs": 2.7}, "epochs"),
    ({"persist_caches": "no"}, "persist_caches"),
    ({"persist_caches": 0}, "persist_caches"),
    ({"learning_rate": True}, "learning_rate"),
    ({"pretrain_epochs": 1.5}, "pretrain_epochs"),
    ({"network": {"input_height": False}}, "input_height"),
    ({"network": {"layers": [[3, 3.5, 2, "selu"]]}}, "network layer size"),
    ({"channel": {"path_count": True}}, "path_count"),
    ({"channel": {"max_delay_taps": 1.25}}, "max_delay_taps"),
    # json.loads reads NaN and Infinity, and `x <= 0` checks let NaN through
    ({"learning_rate": float("nan")}, "learning_rate"),
    ({"momentum": float("inf")}, "momentum"),
    ({"channel": {**TINY["channel"], "gain_scale": float("nan")}}, "gain_scale"),
    ({"channel": {**TINY["channel"], "doppler_spread": float("inf")}}, "doppler_spread"),
    ({"llpf": {"k_sigma": float("nan")}}, "k_sigma"),
    ({"aggregator": {"kind": "stomedian", "eps": float("nan")}}, "eps"),
    ({"attack": {"mode": "outdate", "outdate_lag": float("-inf")}}, "outdate_lag"),
    ({"learning_rate": 10 ** 400}, "learning_rate"),  # float() overflows
    # sections once passed to the dataclasses untyped
    ({"llpf": {"enabled": "no"}}, "llpf.enabled"),
    ({"aggregator": {"trim_a": True}}, "trim_a"),
    ({"aggregator": {"fedbe_samples": 2.5}}, "fedbe_samples"),
    ({"attack": {"mode": "reverse", "ratio": "0.2"}}, "attack.ratio"),
    ({"local_mode": 5}, "local_mode"),
    ({"network": {**TINY["network"], "layers": [[3, 3, 2, 7]]}}, "activation"),
    # malformed sections
    ({"channel": 5}, "channel config must be an object"),
    ({"network": {"layers": [5]}}, "network layer 5"),
    ({"attack": {"ratio": 0.2}}, "attack config needs 'mode'"),
    # out of range: FedBE skipped distillation and returned the Gaussian mean
    ({"aggregator": {"kind": "fedbe", "fedbe_distill_epochs": -3}}, "fedbe_distill_epochs"),
])
def test_lossy_field_types_rejected(tmp_path, extra, name):
    # int() and bool() would silently turn these into other values
    path = write_tiny_config(tmp_path, **extra)
    with pytest.raises(ConfigError, match=name):
        parse_config(path)
    with pytest.raises(ConfigError, match=name):
        cli.config_from_dict({**TINY, **extra})


def test_exact_field_types_accepted(tmp_path):
    path = write_tiny_config(tmp_path, epochs=2.0, persist_caches=True, learning_rate=1,
                             channel={**TINY["channel"], "doppler_spread": 0},
                             aggregator={"fedbe_samples": 3.0, "fedbe_distill_lr": 1},
                             attack=None, pretrain_epochs=None)
    cfg = parse_config(path)
    assert cfg.epochs == 2 and type(cfg.epochs) is int
    assert cfg.persist_caches is True
    assert cfg.learning_rate == 1.0 and type(cfg.learning_rate) is float
    assert type(cfg.channel.doppler_spread) is float
    assert cfg.aggregator.fedbe_samples == 3 and type(cfg.aggregator.fedbe_samples) is int
    assert cfg.aggregator.fedbe_distill_lr == 1.0
    assert type(cfg.aggregator.fedbe_distill_lr) is float
    assert cfg.attack is None and cfg.pretrain_epochs is None


def test_collusion_payload_checked_before_any_work(tmp_path):
    path = write_tiny_config(
        tmp_path, attack={"mode": "collusion", "ratio": 0.25, "collusion_payload": [[1.0, 2.0]]}
    )
    with pytest.raises(ConfigError, match=r"collusion_payload shape \(1, 2\)"):
        parse_config(path)
    assert cli.run(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    payload = np.full((12, 8, 2), 0.5)
    attack = {"mode": "collusion", "ratio": 0.25, "collusion_payload": payload.tolist()}
    cfg = parse_config(write_tiny_config(tmp_path, attack=attack))
    assert np.array_equal(cfg.attack.collusion_payload, payload)
    # JSON NaN stops at the parser; a library caller reaches validate
    payload[0, 0, 0] = np.nan
    bad = dataclasses.replace(
        cfg, attack=dataclasses.replace(cfg.attack, collusion_payload=payload))
    with pytest.raises(ValueError, match="collusion_payload must be finite"):
        bad.validate()


def test_readme_example_config_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "example.json"
    path.write_text(example)
    cfg = parse_config(path)
    assert cfg.n_sbs == 10 and cfg.rounds == 20
    assert cfg.aggregator.kind == "stomedian"
    attack = (cfg.attack.mode, cfg.attack.deployment, cfg.attack.ratio)
    assert attack == ("reverse", "widespread", 0.2)
    assert cfg.llpf.enabled is True


def test_roundtrip_of_nested_sections(tmp_path):
    path = write_tiny_config(
        tmp_path,
        aggregator={"kind": "trimmed_mean", "trim_a": 0},
        llpf={"enabled": True, "theta": 0.9, "k_sigma": 0.5},
    )
    cfg = parse_config(path)
    assert cfg.aggregator.kind == "trimmed_mean"
    assert cfg.llpf.theta == 0.9
    assert cfg.network.layers[1].activation == "softplus"
    assert cfg.channel.grid_height == 12


# --------------------------- run command ------------------------------------

def test_run_writes_expected_csv(tmp_path):
    path = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    assert cli.run(["run", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "metrics.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(cli.CSV_FIELDS)
    assert len(lines) == 1 + TINY["rounds"] + 1  # header + round 0 + rounds
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[3] == ""  # no attack: mse_beta empty
        assert cells[4] == "fedavg"


def test_run_deterministic_bytes(tmp_path):
    path = write_tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(["run", "--config", str(path), "--out", str(out_a)]) == 0
    assert cli.run(["run", "--config", str(path), "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_run_seed_override_changes_output(tmp_path):
    path = write_tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.run(["run", "--config", str(path), "--out", str(out_a)])
    cli.run(["run", "--config", str(path), "--out", str(out_b), "--seed", "99"])
    rows = cli.read_metrics_csv(out_b / "metrics.csv")
    assert all(r["seed"] == "99" for r in rows)
    assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()


def test_run_bad_config_exits_nonzero(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.run(["run", "--config", str(missing), "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    path = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "fedcsi.cli", "run", "--config", str(path),
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").exists()


# --------------------------- sweep command -----------------------------------

def test_sweep_four_aggregators_one_attack(tmp_path):
    path = write_tiny_config(
        tmp_path, attack={"mode": "reverse", "deployment": "widespread", "ratio": 0.25}
    )
    out = tmp_path / "sweep"
    code = cli.run([
        "sweep", "--config", str(path), "--out", str(out),
        "--aggregators", "fedavg,trimmed_mean,fedmedian,stomedian",
    ])
    assert code == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert len(csvs) == 4
    svgs = list(out.glob("*.svg"))
    assert [p.name for p in svgs] == ["sweep_mse_delta.svg"]
    assert len(list(out.iterdir())) == 5
    for name in csvs:
        rows = cli.read_metrics_csv(out / name)
        assert len(rows) == TINY["rounds"] + 1


def test_sweep_rejects_unknown_axis_value(tmp_path):
    path = write_tiny_config(tmp_path)
    code = cli.run([
        "sweep", "--config", str(path), "--out", str(tmp_path / "s"),
        "--aggregators", "fedavg,bogus",
    ])
    assert code == 1
    assert not (tmp_path / "s").exists() or not list((tmp_path / "s").iterdir())


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    # these once ran the sweep serially without a word
    path = write_tiny_config(tmp_path)
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exit_info:
        cli.run(["sweep", "--config", str(path), "--out", str(out), "--jobs", jobs])
    assert exit_info.value.code != 0
    assert "--jobs: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# --------------------------- plot command ------------------------------------

def test_plot_hand_written_csv(tmp_path):
    csv_path = tmp_path / "hand.csv"
    csv_path.write_text(
        ",".join(cli.CSV_FIELDS) + "\n"
        "0,0.5,0.6,,fedavg,none,none,0.0,1\n"
        "1,0.4,0.5,,fedavg,none,none,0.0,1\n"
        "2,0.3,0.45,,fedavg,none,none,0.0,1\n"
    )
    out = tmp_path / "plots"
    assert cli.run(["plot", str(csv_path), "--out", str(out)]) == 0
    delta = (out / "plot_mse_delta.svg").read_text()
    assert delta.count("<circle") == 3
    assert delta.startswith("<svg")
    assert "xlink" not in delta  # self-contained, no external references
    assert not (out / "plot_mse_beta.svg").exists()  # no beta data


def test_plot_deterministic(tmp_path):
    csv_path = tmp_path / "hand.csv"
    csv_path.write_text(
        ",".join(cli.CSV_FIELDS) + "\n"
        "0,0.5,0.6,0.2,stomedian,reverse,widespread,0.2,1\n"
        "1,0.4,0.5,0.3,stomedian,reverse,widespread,0.2,1\n"
    )
    out_a, out_b = tmp_path / "p1", tmp_path / "p2"
    cli.run(["plot", str(csv_path), "--out", str(out_a)])
    cli.run(["plot", str(csv_path), "--out", str(out_b)])
    for name in ("plot_mse_gamma.svg", "plot_mse_delta.svg", "plot_mse_beta.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# --------------------------- baselines command -------------------------------

def test_baselines_written_and_attack_free(tmp_path):
    path = write_tiny_config(
        tmp_path, attack={"mode": "collusion", "deployment": "widespread", "ratio": 0.25},
        cache_len_lo=8, cache_len_hi=8,
    )
    out = tmp_path / "base"
    assert cli.run(["baselines", "--config", str(path), "--out", str(out)]) == 0
    for name in ("baseline1.csv", "baseline2.csv"):
        rows = cli.read_metrics_csv(out / name)
        assert len(rows) == TINY["rounds"] + 1
        assert all(r["mse_beta"] is None for r in rows)
        assert all(r["attack_mode"] == "none" for r in rows)


def test_baseline_modes_config_surgery(tmp_path):
    path = write_tiny_config(
        tmp_path, attack={"mode": "reverse", "deployment": "widespread", "ratio": 0.2}
    )
    cfg = parse_config(path)
    b1, b2 = cli.baseline_modes(cfg)
    assert b1.attack is None and b1.exclude_fraction == 0.0
    assert b2.attack is None and b2.exclude_fraction == 0.2
