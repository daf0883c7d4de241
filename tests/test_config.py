"""A config is checked when it is built: each config dataclass rejects a bad
value at construction and at `dataclasses.replace`, with one message, and
the CLI turns that message into one error line naming the config file."""
import dataclasses
import json
from functools import partial

import numpy as np
import pytest

from conftest import desk_config, small_network

from fedcsi import cli, nn
from fedcsi.aggregation import Aggregator
from fedcsi.attacks import AttackPlan
from fedcsi.channel import ChannelConfig
from fedcsi.llpf import LlpfConfig

NAN, INF = float("nan"), float("inf")

_DESK = small_network(12, 8)
network = partial(nn.NetworkSpec, layers=_DESK.layers, input_shape=(12, 8, 2))


def _layer(**changes):
    return (dataclasses.replace(_DESK.layers[0], **changes),)


def _rows(build, message, *cases):
    """One row per case, a dict of one field and its bad value; `message`
    may name the value as a format field."""
    cls = type(build()).__name__
    return [pytest.param(build, case, message.format(**case),
                         id=f"{cls}.{name}={value if np.isscalar(value) else '...'}")
            for case in cases for name, value in case.items()]


def _floats(build, name, message, *values):
    """Rows for a float field: the given bad values, then NaN and inf."""
    return _rows(build, message, *({name: v} for v in (*values, NAN, INF)))


# (builder, bad field values, the message construction raises)
REJECTED = [
    *_rows(network, "network needs at least one layer", dict(layers=())),
    *_rows(network, "bad input shape {input_shape}",
           dict(input_shape=(12, 8)), dict(input_shape=(12, 0, 2))),
    *_rows(network, "layer 0: non-positive kernel/filter size",
           dict(layers=_layer(kernel_h=0)), dict(layers=_layer(kernel_w=0)),
           dict(layers=_layer(filters=0))),
    *_rows(network, "layer 0: unknown activation 'relu'", dict(layers=_layer(activation="relu"))),

    *_floats(ChannelConfig, "gain_scale", "gain_scale must be finite and > 0", 0.0, -1.0),
    *_rows(ChannelConfig, "grid dimensions must be >= pilot strides",
           dict(grid_height=1), dict(grid_width=1)),
    *_rows(ChannelConfig, "pilot strides must be >= 1",
           dict(pilot_rows_stride=0), dict(pilot_cols_stride=0)),
    *_rows(ChannelConfig, "path_count must be >= 1", dict(path_count=0)),
    *_rows(ChannelConfig, "max_delay_taps must be >= 0", dict(max_delay_taps=-1)),
    *_floats(ChannelConfig, "pilot_noise_stddev",
             "noise stddev and doppler spread must be finite and >= 0", -0.1),
    *_floats(ChannelConfig, "doppler_spread",
             "noise stddev and doppler spread must be finite and >= 0", -0.1),

    *_floats(LlpfConfig, "theta", "theta {theta} outside (0, 1)", 0.0, 1.0),
    *_floats(LlpfConfig, "k_sigma", "k_sigma {k_sigma} must be finite and > 0", 0.0),

    *_rows(partial(AttackPlan, mode="reverse"), "unknown attack mode 'bogus'", dict(mode="bogus")),
    *_rows(partial(AttackPlan, mode="reverse"), "unknown deployment 'everywhere'",
           dict(deployment="everywhere")),
    *_floats(partial(AttackPlan, mode="reverse"), "ratio", "attack ratio {ratio} outside [0, 1]",
             -0.1, 1.5),
    *_rows(partial(AttackPlan, mode="reverse"), "targeted deployment needs target_sbs",
           dict(deployment="targeted")),
    *_rows(partial(AttackPlan, mode="collusion"), "collusion_payload must be finite",
           dict(collusion_payload=np.full((12, 8, 2), NAN)),
           dict(collusion_payload=np.full((12, 8, 2), -INF))),
    *_rows(partial(AttackPlan, mode="outdate"), "outdate_lag must be finite",
           dict(outdate_lag=NAN), dict(outdate_lag=INF), dict(outdate_lag=-INF)),
    *_rows(partial(AttackPlan, mode="outdate"), "outdate_pool_depth must be >= 1",
           dict(outdate_pool_depth=0)),

    *_rows(Aggregator, "unknown aggregator 'bogus'", dict(kind="bogus")),
    *_rows(partial(Aggregator, kind="trimmed_mean"), "trim_a must be >= 0", dict(trim_a=-1)),
    *_rows(partial(Aggregator, kind="fedbe"), "fedbe_samples must be >= 1", dict(fedbe_samples=0)),
    *_rows(partial(Aggregator, kind="fedbe"), "fedbe_distill_epochs must be >= 0",
           dict(fedbe_distill_epochs=-1)),
    *_floats(partial(Aggregator, kind="fedbe"), "fedbe_distill_lr",
             "fedbe_distill_lr must be finite and > 0", 0.0, -1.0),
    *_floats(partial(Aggregator, kind="stomedian"), "eps",
             "stomedian eps must be finite and > 0", 0.0),

    *[row for name in ("n_sbs", "cache_len_lo", "cache_len_hi", "pretrain_size",
                       "validation_size", "batch_size")
      for row in _rows(desk_config, f"{name} must be >= 1", {name: 0})],
    *[row for name in ("rounds", "i_min", "epochs", "sgd_steps", "master_seed")
      for row in _rows(desk_config, f"{name} must be >= 0", {name: -1})],
    *_rows(desk_config, "pretrain_epochs must be >= 0", dict(pretrain_epochs=-1)),
    *_rows(desk_config, "cache_len_lo must be <= cache_len_hi", dict(cache_len_lo=13)),
    *_floats(desk_config, "learning_rate", "learning_rate must be finite and > 0", 0.0),
    # no config reaches run_round unchecked, which would train with Adam on
    # "steps_sdg" and run at momentum 1.5 or exclude_fraction -0.5
    *_floats(desk_config, "momentum", "momentum (Adam beta1) must be in [0, 1)", -0.1, 1.0, 1.5),
    *_floats(desk_config, "exclude_fraction", "exclude_fraction must be in [0, 1)", -0.5, 1.0),
    *_rows(desk_config, "unknown local_mode 'steps_sdg'", dict(local_mode="steps_sdg")),
    # a count or a grid that only the experiment knows
    *_rows(desk_config, "trim_a=2 needs more than 4 updates",
           dict(aggregator=Aggregator(kind="trimmed_mean", trim_a=2))),
    *_rows(desk_config, "target_sbs {attack.target_sbs} out of range for N=3",
           dict(attack=AttackPlan(mode="reverse", deployment="targeted", target_sbs=3)),
           dict(attack=AttackPlan(mode="reverse", deployment="targeted", target_sbs=-1))),
    *_rows(desk_config, "collusion_payload shape (12, 8) != label grid (12, 8, 2)",
           dict(attack=AttackPlan(mode="collusion", collusion_payload=np.zeros((12, 8))))),
    *_rows(desk_config, "network input (10, 10, 2) != channel grid (12, 8, 2)",
           dict(network=small_network(10, 10))),
    *_rows(desk_config, "final layer must emit the two label channels",
           dict(network=small_network(12, 8, filters=(4, 3)))),
]


@pytest.mark.parametrize("build, overrides, message", REJECTED)
def test_a_bad_value_is_rejected_at_construction(build, overrides, message):
    with pytest.raises(ValueError) as info:
        build(**overrides)
    assert str(info.value) == message


@pytest.mark.parametrize("build, overrides, message", REJECTED)
def test_a_bad_value_is_rejected_at_replace(build, overrides, message):
    valid = build()
    with pytest.raises(ValueError) as info:
        dataclasses.replace(valid, **overrides)
    assert str(info.value) == message


CLI_REJECTED = [
    ({"n_sbs": 0}, "n_sbs must be >= 1"),
    ({"momentum": 1.5}, "momentum (Adam beta1) must be in [0, 1)"),
    ({"local_mode": "steps_sdg"}, "unknown local_mode 'steps_sdg'"),
    ({"channel": {"path_count": 0}}, "path_count must be >= 1"),
    ({"llpf": {"theta": 1.0}}, "theta 1.0 outside (0, 1)"),
    ({"attack": {"mode": "reverse", "ratio": 2}}, "attack ratio 2.0 outside [0, 1]"),
    ({"attack": {"mode": "reverse", "deployment": "targeted", "target_sbs": 10}},
     "target_sbs 10 out of range for N=10"),
    ({"aggregator": {"kind": "fedbe", "fedbe_distill_lr": 0}},
     "fedbe_distill_lr must be finite and > 0"),
    ({"n_sbs": 4, "aggregator": {"kind": "trimmed_mean", "trim_a": 2}},
     "trim_a=2 needs more than 4 updates"),
    ({"network": {"layers": [[3, 3, 4, "relu"], [3, 3, 2, "selu"]]}},
     "layer 0: unknown activation 'relu'"),
    ({"network": {"layers": [[3, 0, 4, "selu"], [3, 3, 2, "selu"]]}},
     "layer 0: non-positive kernel/filter size"),
    ({"network": {"layers": []}}, "network needs at least one layer"),
    ({"network": {"layers": [[3, 3, 4, "selu"]]}}, "final layer must emit the two label channels"),
]


@pytest.mark.parametrize("data, message", CLI_REJECTED)
def test_a_construction_error_is_one_cli_error_line(data, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(cli.ConfigError):
        cli.config_from_dict(data)
    assert cli.run(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"fedcsi: error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()
