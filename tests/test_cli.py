import dataclasses
import itertools
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedcsi import cli, engine
from fedcsi.attacks import AttackPlan
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
        "layers": [[3, 3, 6, "selu"], [3, 3, 4, "softplus"], [3, 3, 2, "selu"]],
    },
    "channel": {
        "grid_height": 12, "grid_width": 8, "path_count": 4, "max_delay_taps": 1,
        "doppler_spread": 0.02, "pilot_noise_stddev": 0.1,
        "pilot_rows_stride": 2, "pilot_cols_stride": 2,
    },
    "master_seed": 3,
}


@pytest.fixture(autouse=True)
def cpus(monkeypatch):
    """Pin the number of usable CPUs that `_run_cells` sizes its pool from:
    one, so that every command runs its experiments in the test's process
    (where a spy on `run_experiment` sees them, and nothing forks), unless
    the test pins another count."""
    def pin(count):
        monkeypatch.setattr(engine, "usable_cpus", lambda: count)

    pin(1)
    return pin


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
    path.write_text(json.dumps({"llpf": {"mu_mode": "median"}}))
    with pytest.raises(ConfigError, match="unknown key 'mu_mode'"):
        parse_config(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "rounds": 1,\n  "oops"\n}')
    with pytest.raises(ConfigError, match=":4"):
        parse_config(path)


@pytest.mark.parametrize("content", [b'{"rounds": 1' + b"0" * 5000 + b"}", b'{"rounds": \xff}'],
                         ids=["5001 digits", "not utf-8"])
def test_unreadable_config_is_named(tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
        parse_config(path)


def test_large_widespread_ratio_accepted(tmp_path):
    path = write_tiny_config(
        tmp_path, attack={"mode": "reverse", "deployment": "widespread", "ratio": 0.7}
    )
    cfg = parse_config(path)
    assert cfg.attack.ratio == 0.7


def test_network_grid_follows_the_channel_grid():
    cfg = cli.config_from_dict({"channel": {"grid_height": 36, "grid_width": 10}})
    assert cfg.network.input_shape == (36, 10, 2)
    assert cfg.network.layers == cli.ExperimentConfig().network.layers
    layers = {"layers": [[3, 3, 2, "selu"]]}
    cfg = cli.config_from_dict({"channel": {"grid_height": 12}, "network": layers})
    assert cfg.network.input_shape == (12, 14, 2)
    # the grid is the channel's alone: the network section cannot name one
    with pytest.raises(ConfigError, match="unknown key 'input_height' in network config"):
        cli.config_from_dict({"channel": {"grid_height": 36, "grid_width": 10},
                              "network": {"input_height": 72}})
    with pytest.raises(ConfigError, match="experiment config must be an object"):
        cli.config_from_dict([{"channel": {}}])


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
    # a key of earlier versions, rejected even at the channel grid's own value
    ({"network": {"input_height": 12}}, "input_height"),
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
    # JSON NaN stops at the parser; a library caller is stopped building the plan
    payload[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="collusion_payload must be finite"):
        dataclasses.replace(cfg.attack, collusion_payload=payload)


def test_readme_example_config_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.findall(r"```json\n(.*?)```", readme, flags=re.S)[0]
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


def test_run_rejects_negative_seed(tmp_path, capsys):
    # once reached numpy's SeedSequence in pre-training, whose error names no field
    path = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    assert cli.run(["run", "--config", str(path), "--out", str(out), "--seed", "-1"]) == 1
    assert "master_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


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


def test_sweep_rejects_impossible_trim_before_any_run(tmp_path, capsys, monkeypatch):
    # trimming one update per side needs 3 stations; with 2 the sweep once
    # ran the fedavg cell and failed in the trimmed-mean cell's first round
    path = write_tiny_config(tmp_path, n_sbs=2)
    out = tmp_path / "s"
    ran = []

    def record_run(config):
        ran.append(config)
        return []

    monkeypatch.setattr(cli, "run_experiment", record_run)
    code = cli.run(["sweep", "--config", str(path), "--out", str(out),
                    "--aggregators", "fedavg,trimmed_mean"])
    assert code == 1
    assert "trim_a=1 needs more than 2 updates" in capsys.readouterr().err
    assert ran == []
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("axis, values, name", [
    ("--ratios", "0.1,0.10", "run_fedavg_reverse_widespread_ra0.1_seed3.csv"),
    ("--seeds", "1,1", "run_fedavg_reverse_widespread_ra0.25_seed1.csv"),
])
def test_sweep_rejects_a_cell_named_twice(tmp_path, capsys, monkeypatch, axis, values, name):
    # these once ran the cell twice, wrote one CSV and plotted it twice
    path = write_tiny_config(
        tmp_path, attack={"mode": "reverse", "deployment": "widespread", "ratio": 0.25}
    )
    out = tmp_path / "s"
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: ran.append(config) or [])
    code = cli.run(["sweep", "--config", str(path), "--out", str(out), axis, values])
    assert code == 1
    assert name in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


def count_runs(monkeypatch):
    """Record the config of every experiment the CLI runs, and run it."""
    ran = []
    real = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment", lambda config: ran.append(config) or real(config))
    return ran


def test_sweep_runs_the_attack_free_cell_once(tmp_path, monkeypatch):
    # every (deployment, ratio) of mode none is one experiment; the sweep
    # once ran it four times, wrote four identical CSVs and plotted each
    path = write_tiny_config(tmp_path)
    assert cli.run(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    ran = count_runs(monkeypatch)
    out = tmp_path / "s"
    assert cli.run(["sweep", "--config", str(path), "--out", str(out),
                    "--attack-modes", "none,reverse", "--ratios", "0.1,0.2",
                    "--deployments", "widespread,targeted"]) == 0
    assert len(ran) == 5
    assert sorted(p.name for p in out.glob("*.csv")) == ["run_fedavg_none_seed3.csv"] + [
        f"run_fedavg_reverse_{dep}_ra{ratio}_seed3.csv"
        for dep in ("targeted", "widespread") for ratio in ("0.1", "0.2")]
    assert ((out / "run_fedavg_none_seed3.csv").read_bytes()
            == (tmp_path / "run" / "metrics.csv").read_bytes())
    # five series of two rounds each
    assert (out / "sweep_mse_delta.svg").read_text().count("<circle") == 5 * 2


def test_cells_that_differ_deep_in_a_large_payload_both_run(monkeypatch):
    # numpy elides the middle of a 2016-value array in its repr, so the
    # two configs' reprs are equal; they must still be two experiments
    payload = np.zeros((72, 14, 2))
    moved = payload.copy()
    moved[36, 7, 0] = 1.0
    base = cli.config_from_dict({})
    a = dataclasses.replace(base, attack=AttackPlan(mode="collusion", collusion_payload=payload))
    b = dataclasses.replace(base, attack=AttackPlan(mode="collusion", collusion_payload=moved))
    assert repr(a) == repr(b)
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: ran.append(config) or [])
    cli._run_cells([("a.csv", a), ("b.csv", b)])
    assert [r.attack.collusion_payload[36, 7, 0] for r in ran] == [0.0, 1.0]


def test_cells_whose_configs_differ_only_in_number_type_run_once(monkeypatch):
    # each config stores `rounds` as the int 2, so the cells pickle alike
    base = cli.config_from_dict({})
    cells = [(f"{i}.csv", dataclasses.replace(base, rounds=rounds))
             for i, rounds in enumerate((2, 2.0, np.int64(2)))]
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: ran.append(config) or [])
    files = cli._run_cells(cells)
    assert ran == [cells[0][1]]
    assert [name for name, _ in files] == ["0.csv", "1.csv", "2.csv"]


@pytest.mark.parametrize("usable, seeds, workers", [
    (4, (1, 2, 3), [3]),  # one worker per distinct config
    (2, (1, 2, 3), [2]),  # one worker per CPU
    (4, (1, 2, 2), [2]),  # a config asked for twice runs once
    (1, (1, 2, 3), []),  # one CPU: every cell runs here
    (4, (1, 1, 1), []),  # one distinct config: it runs here
])
def test_cells_run_on_one_process_per_config_up_to_the_cpus(monkeypatch, cpus, usable,
                                                           seeds, workers):
    pools = []

    class Pool:  # records its size and maps here, so the spy sees every run
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: ran.append(config) or [])
    cpus(usable)
    base = cli.config_from_dict({})
    cells = [(f"{i}.csv", dataclasses.replace(base, master_seed=seed))
             for i, seed in enumerate(seeds)]
    assert [name for name, _ in cli._run_cells(cells)] == ["0.csv", "1.csv", "2.csv"]
    assert pools == workers
    assert [config.master_seed for config in ran] == sorted(set(seeds))


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


def test_plot_of_extreme_metrics_holds_finite_numbers(tmp_path):
    # mse_delta spans more than the float range (1e308 - -1e308 overflows),
    # and mse_gamma is a constant too large to move by 0.5
    csv_path = tmp_path / "extreme.csv"
    csv_path.write_text(
        ",".join(cli.CSV_FIELDS) + "\n"
        "0,1e20,1e308,,fedavg,none,none,0.0,1\n"
        "1,1e20,-1e308,,fedavg,none,none,0.0,1\n"
    )
    out = tmp_path / "plots"
    assert cli.run(["plot", str(csv_path), "--out", str(out)]) == 0
    for name in ("plot_mse_gamma.svg", "plot_mse_delta.svg"):
        svg = (out / name).read_text()
        coords = re.findall(r' (?:x|y|x1|x2|y1|y2|cx|cy)="([^"]*)"', svg)
        coords += [c for points in re.findall(r'points="([^"]*)"', svg)
                   for c in points.replace(",", " ").split()]
        labels = re.findall(r">([^<]*)</text>", svg)[1:11]  # the tick labels
        assert len(coords) > 20 and len(labels) == 10
        assert all(math.isfinite(float(v)) for v in coords + labels), name


_GOOD_ROW = "1,0.4,0.5,0.3,stomedian,reverse,widespread,0.2,1"


@pytest.mark.parametrize("row, problem", [
    ("1,0.4,0.5,0.3,stomedian,reverse", "6 fields, expected 9"),
    (_GOOD_ROW + ",extra", "10 fields, expected 9"),
    ("1,0.4,abc,0.3,stomedian,reverse,widespread,0.2,1", "mse_delta must be a finite number"),
    ("1,nan,0.5,0.3,stomedian,reverse,widespread,0.2,1", "mse_gamma must be a finite number"),
    ("1,0.4,0.5,-inf,stomedian,reverse,widespread,0.2,1", "mse_beta must be a finite number"),
    ("1,0.4,1e999,0.3,stomedian,reverse,widespread,0.2,1", "mse_delta must be a finite number"),
    ("1.5,0.4,0.5,0.3,stomedian,reverse,widespread,0.2,1", "round must be an integer"),
    ("1" * 400 + ",0.4,0.5,0.3,stomedian,reverse,widespread,0.2,1", "round must be an integer"),
    ("1,0.4,0.5,0.3,stomedian,reverse,widespread,x,1", "r_a must be a finite number"),
    ("1,0.4,0.5,0.3,stomedian,reverse,widespread,0.2,", "seed must be an integer"),
    ('1,0.4,0.5,0.3,"' + "x" * 200_000 + '",reverse,widespread,0.2,1', "field larger than"),
], ids=["short", "long", "text", "nan", "-inf", "overflow", "round", "huge round", "r_a",
        "seed", "huge field"])
def test_plot_names_the_line_of_a_bad_row(tmp_path, capsys, row, problem):
    csv_path = tmp_path / "hand.csv"
    csv_path.write_text(",".join(cli.CSV_FIELDS) + "\n" + _GOOD_ROW + "\n" + row + "\n")
    assert cli.run(["plot", str(csv_path), "--out", str(tmp_path / "plots")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fedcsi: error: {csv_path}:3: ") and problem in err
    assert not (tmp_path / "plots").exists()


_FUZZ_TOKENS = [",", "\n", "\r", '"', "{", "}", "[", "]", ":", "-", ".", "e", "0", "7",
                "nan", "inf", "1e999", "null", "true", '"x"', " ", "\x00", "\xff", "\u00e9"]


def _mutated(text: str, rng) -> str:
    """`text` with one or two random deletions, insertions, replacements or
    duplicated spans."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 8))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(_FUZZ_TOKENS) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(_FUZZ_TOKENS) + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def test_fuzzed_metrics_csvs_and_configs_fail_cleanly(tmp_path, capsys, monkeypatch):
    # every mutation is read without error or rejected with one error line
    # that names the file, never with a traceback; no experiment runs
    monkeypatch.setattr(cli, "run_experiment", lambda config: [])
    rng = random.Random(2024)
    metrics = "\n".join([",".join(cli.CSV_FIELDS), "0,0.5,0.6,,fedavg,none,none,0.0,1",
                         _GOOD_ROW, ""])
    config = json.dumps({**TINY, "attack": {"mode": "reverse", "deployment": "widespread",
                                            "ratio": 0.25},
                         "aggregator": {"kind": "trimmed_mean", "trim_a": 1},
                         "llpf": {"enabled": True}}, indent=1)
    outcomes = dict.fromkeys(itertools.product((".csv", ".json"), (0, 1)), 0)
    for case in range(1000):
        path = tmp_path / ("fuzz.csv" if case % 2 else "fuzz.json")
        # "\xff" is written as a lone byte, so that some files are not UTF-8
        text = _mutated(metrics if case % 2 else config, rng)
        path.write_bytes(text.encode().replace("\xff".encode(), b"\xff"))
        argv = (["plot", str(path)] if case % 2 else ["run", "--config", str(path)])
        code = cli.run(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 1), (text, err)
        outcomes[path.suffix, code] += 1
        if code:
            assert err.count("\n") == 1 and err.startswith(f"fedcsi: error: {path}"), (text, err)
        else:
            assert err == "", (text, err)
    # both outcomes occur, so the mutations reach past the parsers' first checks
    assert min(outcomes.values()) >= 5, outcomes


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


def test_baselines_check_both_configs_before_any_run(tmp_path, capsys, monkeypatch):
    # at attack ratio 1.0 baseline 2 would exclude every sample; the first
    # baseline once ran in full before that was found
    path = write_tiny_config(
        tmp_path, attack={"mode": "reverse", "deployment": "widespread", "ratio": 1.0}
    )
    out = tmp_path / "base"
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: ran.append(config) or [])
    assert cli.run(["baselines", "--config", str(path), "--out", str(out)]) == 1
    assert "exclude_fraction must be in [0, 1)" in capsys.readouterr().err
    assert ran == []
    assert not list(out.glob("*.csv"))


def test_baselines_without_an_attack_run_once(tmp_path, monkeypatch):
    # both baselines are the attack-free config itself: one experiment
    path = write_tiny_config(tmp_path)
    ran = count_runs(monkeypatch)
    out = tmp_path / "base"
    assert cli.run(["baselines", "--config", str(path), "--out", str(out)]) == 0
    assert len(ran) == 1
    assert (out / "baseline1.csv").read_bytes() == (out / "baseline2.csv").read_bytes()


def test_baselines_write_nothing_when_the_second_run_fails(tmp_path, monkeypatch):
    # with an attack the baselines differ (baseline 2 excludes a quarter)
    path = write_tiny_config(
        tmp_path, attack={"mode": "reverse", "deployment": "widespread", "ratio": 0.25}
    )
    out = tmp_path / "base"
    ran = []

    def second_fails(config):
        ran.append(config)
        if len(ran) == 2:
            raise RuntimeError("station 0 diverged in round 1")
        return []

    monkeypatch.setattr(cli, "run_experiment", second_fails)
    assert cli.run(["baselines", "--config", str(path), "--out", str(out)]) == 1
    assert len(ran) == 2
    assert not list(out.glob("*.csv"))
