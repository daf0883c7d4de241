"""The benchmark's workloads: experiment configs built from the workload seed.

Each workload loads a different layer of the simulator, so that a change to
one layer moves one workload and leaves the others flat:

- ``train-paper-grid``: local Adam fine-tuning at the paper's 72x14 grid and
  default conv stack, so ``nn.batch_gradient`` under
  ``orchestrator.local_train`` dominates.
- ``score-paper-grid``: the same grid with one SGD step per station and
  larger caches, so forward-only LLPF scoring and evaluation dominate and a
  backward-only change should leave it flat.
- ``fedbe-desk``: the desk ranking grid with FedBE aggregation, so ensemble
  forward and distillation inside ``aggregation.aggregate`` dominate on one
  server-side model at small shapes, where Python overhead shows.

Sizes are chosen so that one experiment of ten rounds takes a few seconds on
one core and a run can time at least 100 rounds. Every cache is topped up to
exactly ``i_min`` samples (``i_min == cache_len_hi``), so the work per round
does not depend on the seed.
"""
from __future__ import annotations

from typing import Callable

from fedcsi import nn
from fedcsi.aggregation import Aggregator
from fedcsi.attacks import AttackPlan
from fedcsi.channel import ChannelConfig
from fedcsi.llpf import LlpfConfig
from fedcsi.orchestrator import ExperimentConfig

ROUNDS = 10
# Channel power at which the LLPF surrogate CDF separates poisoned from
# authentic losses; at gain 1 it flags nothing and the filter would idle.
LLPF_GAIN = 3.0


def _train_paper_grid(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n_sbs=3,
        rounds=ROUNDS,
        cache_len_lo=3,
        cache_len_hi=4,
        i_min=4,
        pretrain_size=8,
        validation_size=4,
        pretrain_epochs=1,
        epochs=2,
        batch_size=4,
        learning_rate=1e-3,
        channel=ChannelConfig(gain_scale=LLPF_GAIN),
        attack=AttackPlan(mode="reverse", deployment="widespread", ratio=0.25),
        aggregator=Aggregator(kind="stomedian"),
        llpf=LlpfConfig(enabled=True),
        master_seed=seed,
    )


def _score_paper_grid(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n_sbs=4,
        rounds=ROUNDS,
        cache_len_lo=4,
        cache_len_hi=6,
        i_min=6,
        pretrain_size=8,
        validation_size=4,
        pretrain_epochs=1,
        local_mode="steps_sgd",
        sgd_steps=1,
        batch_size=2,
        learning_rate=1e-3,
        channel=ChannelConfig(gain_scale=LLPF_GAIN),
        attack=AttackPlan(mode="outdate", deployment="widespread", ratio=0.25),
        aggregator=Aggregator(kind="trimmed_mean", trim_a=1),
        llpf=LlpfConfig(enabled=True),
        master_seed=seed,
    )


def _desk_network() -> nn.NetworkSpec:
    acts = ("selu", "softplus", "selu")
    layers = tuple(nn.LayerSpec(3, 3, f, a) for f, a in zip((10, 6, 2), acts))
    return nn.NetworkSpec(layers=layers, input_shape=(36, 10, 2))


def _fedbe_desk(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n_sbs=5,
        rounds=ROUNDS,
        cache_len_lo=6,
        cache_len_hi=8,
        i_min=8,
        pretrain_size=24,
        validation_size=8,
        pretrain_epochs=2,
        epochs=1,
        batch_size=64,
        learning_rate=2e-3,
        network=_desk_network(),
        channel=ChannelConfig(
            grid_height=36, grid_width=10, path_count=12, max_delay_taps=1,
            doppler_spread=0.02, pilot_noise_stddev=0.15, gain_scale=LLPF_GAIN,
        ),
        attack=AttackPlan(mode="collusion", deployment="targeted", ratio=0.2, target_sbs=0),
        aggregator=Aggregator(kind="fedbe", fedbe_samples=10, fedbe_distill_epochs=7),
        llpf=LlpfConfig(enabled=True),
        master_seed=seed,
    )


WORKLOADS: dict[str, Callable[[int], ExperimentConfig]] = {
    "train-paper-grid": _train_paper_grid,
    "score-paper-grid": _score_paper_grid,
    "fedbe-desk": _fedbe_desk,
}


def build(name: str, seed: int) -> ExperimentConfig:
    """Config of workload `name` for `seed`."""
    return WORKLOADS[name](seed)
