"""A config is checked when it is built: each config dataclass rejects a bad
value at construction and at `dataclasses.replace`, with one message, and
the CLI turns that message into one error line naming the config file.
Field types obey one rule, applied first, which a table generated from the
classes' type hints checks for every field."""
import dataclasses
import inspect
import json
import types
from functools import partial
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from conftest import desk_config, small_network

from fedcsi import aggregation, attacks, channel, cli, llpf, nn, orchestrator
from fedcsi.aggregation import Aggregator
from fedcsi.attacks import AttackPlan
from fedcsi.channel import ChannelConfig
from fedcsi.llpf import LlpfConfig
from fedcsi.orchestrator import ExperimentConfig

NAN, INF = float("nan"), float("inf")

_DESK = small_network(12, 8)
network = partial(nn.NetworkSpec, layers=_DESK.layers, input_shape=(12, 8, 2))
layer = partial(nn.LayerSpec, kernel_h=3, kernel_w=3, filters=2, activation="selu")


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
    """Rows for a float field: the given bad values, then NaN and inf, which
    the type rule rejects."""
    return [*_rows(build, message, *({name: v} for v in values)),
            *_rows(build, f"{name} must be finite, got {{{name}!r}}", {name: NAN}, {name: INF})]


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
    *_rows(partial(AttackPlan, mode="outdate"), "outdate_lag must be finite, got {outdate_lag!r}",
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

    # wrong-typed values that would otherwise build and then fail late in
    # numpy or, for a str `enabled`, turn LLPF on
    *_rows(ExperimentConfig, "n_sbs must be an integer, got 2.5", dict(n_sbs=2.5)),
    *_rows(ExperimentConfig, "rounds must be finite, got nan", dict(rounds=NAN)),
    *_rows(ExperimentConfig, "batch_size must be int, got True", dict(batch_size=True)),
    *_rows(ExperimentConfig, "master_seed must be an integer, got 1.5", dict(master_seed=1.5)),
    *_rows(ChannelConfig, "grid_height must be an integer, got 12.5", dict(grid_height=12.5)),
    *_rows(layer, "kernel_h must be an integer, got 2.5", dict(kernel_h=2.5)),
    *_rows(partial(Aggregator, kind="trimmed_mean"), "trim_a must be int, got True",
           dict(trim_a=True)),
    *_rows(LlpfConfig, "enabled must be bool, got 'no'", dict(enabled="no")),
    # a tuple's elements obey the rule too
    *_rows(network, "input_shape must be an integer, got 8.5", dict(input_shape=(12, 8.5, 2))),
    *_rows(network, "layers must be LayerSpec, got (3, 3, 2, 'selu')",
           dict(layers=((3, 3, 2, "selu"),))),
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


# --------------------------- the type rule ---------------------------------
# Generated from each class's type hints, so that a field added later is held
# to the rule without a new row.

BUILDERS = [layer, network, ChannelConfig, LlpfConfig, partial(AttackPlan, mode="reverse"),
            Aggregator, desk_config]


def _hints(build):
    """(field name, hint without its Optional, valid value) of each field."""
    valid = build()
    for name, hint in get_type_hints(type(valid)).items():
        if get_origin(hint) in (Union, types.UnionType):
            (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
        yield name, hint, getattr(valid, name)


def _wrong(hint, valid):
    """(value, message after the field name) for each wrong-typed value."""
    if hint is int:
        return [(True, "must be int, got True"), (2.5, "must be an integer, got 2.5")]
    if hint is float:
        return [(True, "must be float, got True"),
                *((v, f"must be finite, got {v!r}") for v in (NAN, INF, -INF))]
    if hint in (bool, str):
        return [(1, f"must be {hint.__name__}, got 1")]
    if get_origin(hint) is tuple:
        return [(list(valid), f"must be tuple, got {list(valid)!r}")]
    if hint is np.ndarray:
        return [(np.array([True]), "must be a float array, got dtype bool"),
                (np.array([NAN]), "must be finite")]
    assert dataclasses.is_dataclass(hint), f"no rows for {hint!r}"
    return [({}, f"must be {hint.__name__}, got {{}}")]


def _kept(hint, valid):
    """(value, stored value) for each value of another type that the rule
    takes: an int field stores an int, a float field a float."""
    if hint is int:
        valid = 1 if valid is None else valid
        return [(float(valid), valid), (np.int64(valid), valid)]
    if hint is float:
        valid = 0.5 if valid is None else valid
        return [(np.float64(valid), valid)] + [(int(valid), valid)] * valid.is_integer()
    return []


WRONG = [pytest.param(build, {name: value}, f"{name} {message}",
                      id=f"{type(build()).__name__}.{name}={type(value).__name__}"
                         + (f":{value}" if np.isscalar(value) else ""))
         for build in BUILDERS for name, hint, valid in _hints(build)
         for value, message in _wrong(hint, valid)]
KEPT = [pytest.param(build, name, value, stored,
                     id=f"{type(build()).__name__}.{name}={type(value).__name__}")
        for build in BUILDERS for name, hint, valid in _hints(build)
        for value, stored in _kept(hint, valid)]


@pytest.mark.parametrize("build, overrides, message", WRONG)
def test_a_wrong_type_is_rejected_at_construction_and_replace(build, overrides, message):
    for make in (lambda: build(**overrides), lambda: dataclasses.replace(build(), **overrides)):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


@pytest.mark.parametrize("build, name, value, stored", KEPT)
def test_an_int_or_float_field_stores_its_own_type(build, name, value, stored):
    for config in (build(**{name: value}), dataclasses.replace(build(), **{name: value})):
        assert getattr(config, name) == stored
        assert type(getattr(config, name)) is type(stored)


def test_every_class_under_the_rule_has_rows():
    under_rule = {cls for module in (nn, channel, llpf, attacks, aggregation, orchestrator)
                  for cls in vars(module).values()
                  if dataclasses.is_dataclass(cls) and "check_fields(self)" in inspect.getsource(cls)}
    assert under_rule == {type(build()) for build in BUILDERS}


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
