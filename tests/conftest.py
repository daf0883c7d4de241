"""Shared desk-scale experiment configs and a memoized experiment runner."""
import pickle

import numpy as np
import pytest

from fedcsi import engine, nn
from fedcsi.aggregation import Aggregator
from fedcsi.channel import ChannelConfig
from fedcsi.llpf import LlpfConfig
from fedcsi.orchestrator import ExperimentConfig, run_experiment


def small_network(height, width, filters=(6, 4, 2), kernel=3):
    layers = []
    acts = ("selu", "softplus", "selu")
    for i, f in enumerate(filters):
        layers.append(nn.LayerSpec(kernel, kernel, f, acts[i % 3]))
    return nn.NetworkSpec(layers=tuple(layers), input_shape=(height, width, 2))


@pytest.fixture
def helpers(monkeypatch):
    """Set the number of engine helper processes; stop them all afterwards."""
    yield lambda count: monkeypatch.setattr(engine, "_helper_count", lambda: count)
    engine._stop_helpers()


def desk_spec():
    """The 36x10 desk network: layers of 10, 6 and 2 filters."""
    return small_network(36, 10, filters=(10, 6, 2))


def default_batch(batch, seed=63):
    """A default-spec batch: the spec, params, inputs and targets."""
    spec = nn.default_network_spec()
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(batch,) + spec.input_shape)
    ys = rng.normal(size=(batch,) + spec.input_shape[:2] + (2,))
    return spec, nn.init_params(spec, seed), xs, ys


def forward_one(spec, params, x):
    """One sample's output: a batch of one through the engine."""
    return nn.forward_batch(spec, params, x[None])[0]


def mse(pred, target) -> float:
    """Mean squared error of two arrays of one shape."""
    assert pred.shape == target.shape, (pred.shape, target.shape)
    diff = pred - target
    return float(np.mean(diff * diff))


def desk_config(**overrides) -> ExperimentConfig:
    """Small, fast experiment used across the unit suite."""
    height, width = 12, 8
    base = dict(
        n_sbs=3,
        rounds=2,
        cache_len_lo=8,
        cache_len_hi=12,
        i_min=6,
        pretrain_size=16,
        validation_size=12,
        epochs=3,
        batch_size=8,
        learning_rate=3e-3,
        network=small_network(height, width),
        channel=ChannelConfig(
            grid_height=height, grid_width=width, path_count=4, max_delay_taps=1,
            doppler_spread=0.02, pilot_noise_stddev=0.1,
            pilot_rows_stride=2, pilot_cols_stride=2,
        ),
        aggregator=Aggregator(kind="fedavg"),
        llpf=LlpfConfig(enabled=False),
        master_seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_RUN_CACHE: dict = {}


def run_cached(config: ExperimentConfig):
    """Memoize experiment runs within one pytest session (runs are pure).
    Keyed by pickle, as a repr elides a large array such as a collusion
    payload."""
    key = pickle.dumps(config)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run_experiment(config)
    return _RUN_CACHE[key]


def ranking_config(mode: str, seed: int, **overrides) -> ExperimentConfig:
    """Desk config for the attack-ranking experiments (widespread, FedAvg).

    Grid and training sizes are chosen so ten federation rounds finish in
    seconds.  At this scale reverse and collusion raise the final validation
    MSE well above the no-attack run; outdate (lag 0.75, pool depth 4) does
    not: at seeds 1-3 its final validation MSE is within 4% of no attack.
    """
    from fedcsi.attacks import AttackPlan

    attack = None
    if mode != "none":
        attack = AttackPlan(
            mode=mode, deployment="widespread", ratio=0.2,
            outdate_lag=0.75, outdate_pool_depth=4,
        )
    base = dict(
        n_sbs=5,
        rounds=10,
        cache_len_lo=36,
        cache_len_hi=44,
        i_min=20,
        pretrain_size=96,
        validation_size=64,
        epochs=8,
        batch_size=64,
        learning_rate=2e-3,
        pretrain_epochs=15,
        network=small_network(36, 10, filters=(10, 6, 2)),
        channel=ChannelConfig(
            grid_height=36, grid_width=10, path_count=12, max_delay_taps=1,
            doppler_spread=0.02, pilot_noise_stddev=0.15,
            pilot_rows_stride=2, pilot_cols_stride=2,
        ),
        attack=attack,
        master_seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)
