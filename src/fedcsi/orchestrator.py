"""Federation state machine: pre-train, then per-round cache generation,
poisoning, optional pre-filtering, local fine-tuning, aggregation, metrics.

Everything is a pure function of the experiment config (including its
master seed): each stochastic step draws from a purpose-tagged child
stream, so rounds and stations are independent and repeat runs are
bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import aggregation, attacks, channel, llpf, nn
from ._fields import check_fields
from .seeds import derive_rng

LABEL_CHANNELS = 2


@dataclass(frozen=True)
class ExperimentConfig:
    n_sbs: int = 10
    rounds: int = 10
    cache_len_lo: int = 170
    cache_len_hi: int = 230
    i_min: int = 200
    pretrain_size: int = 200
    validation_size: int = 200
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 0.001
    momentum: float = 0.9  # Adam beta1
    pretrain_epochs: Optional[int] = None  # None: use `epochs`
    local_mode: str = "epochs_adam"  # "epochs_adam" | "steps_sgd"
    sgd_steps: int = 10
    persist_caches: bool = False
    exclude_fraction: float = 0.0  # drop this share of each cache pre-training
    network: nn.NetworkSpec = field(default_factory=nn.default_network_spec)
    channel: channel.ChannelConfig = field(default_factory=channel.ChannelConfig)
    attack: Optional[attacks.AttackPlan] = None
    aggregator: aggregation.Aggregator = field(default_factory=aggregation.Aggregator)
    llpf: llpf.LlpfConfig = field(default_factory=llpf.LlpfConfig)
    master_seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("n_sbs", "cache_len_lo", "cache_len_hi", "pretrain_size",
                     "validation_size", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("rounds", "i_min", "epochs", "sgd_steps", "master_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.cache_len_lo > self.cache_len_hi:
            raise ValueError("cache_len_lo must be <= cache_len_hi")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum (Adam beta1) must be in [0, 1)")
        if not 0.0 <= self.exclude_fraction < 1.0:
            raise ValueError("exclude_fraction must be in [0, 1)")
        if self.local_mode not in ("epochs_adam", "steps_sgd"):
            raise ValueError(f"unknown local_mode {self.local_mode!r}")
        if self.pretrain_epochs is not None and self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        trim_a = self.aggregator.trim_a  # a round has one update per station
        if self.aggregator.kind == "trimmed_mean" and 2 * trim_a >= self.n_sbs:
            raise ValueError(f"trim_a={trim_a} needs more than {2 * trim_a} updates")
        grid = (self.channel.grid_height, self.channel.grid_width, LABEL_CHANNELS)
        if self.attack is not None:
            target = self.attack.target_sbs
            if self.attack.deployment == "targeted" and not 0 <= target < self.n_sbs:
                raise ValueError(f"target_sbs {target} out of range for N={self.n_sbs}")
            payload = self.attack.collusion_payload
            if payload is not None and payload.shape != grid:
                raise ValueError(f"collusion_payload shape {payload.shape} != label grid {grid}")
        if self.network.input_shape != grid:
            raise ValueError(f"network input {self.network.input_shape} != channel grid {grid}")
        if self.network.layers[-1].filters != LABEL_CHANNELS:
            raise ValueError("final layer must emit the two label channels")


@dataclass(frozen=True)
class MetricsRecord:
    round: int
    mse_gamma: Optional[float]  # authentic seen data
    mse_delta: float            # held-out validation data
    mse_beta: Optional[float]   # poisoned labels; None when nothing is poisoned
    aggregator: str
    attack_mode: str
    deployment: str
    r_a: float
    seed: int


@dataclass(frozen=True)
class FederationState:
    """The training trajectory and the experiment's fixed server sets; each
    round builds its own caches, so no round's samples outlive it."""
    round_index: int
    global_params: np.ndarray
    pretrain_set: list
    validation_set: list
    attack_plan: Optional[attacks.AttackPlan]


def _attack_fields(plan: Optional[attacks.AttackPlan]) -> tuple[str, str, float]:
    if plan is None or plan.ratio == 0.0:
        return "none", "none", plan.ratio if plan else 0.0
    return plan.mode, plan.deployment, plan.ratio


def evaluate(
    config: ExperimentConfig,
    params: np.ndarray,
    seen: list,
    validation: list,
    *,
    round_index: int = 0,
) -> MetricsRecord:
    """Three-way metric split: authentic seen samples, validation, poisoned
    seen samples; labelled with the config's aggregator, attack and master
    seed.  All three sets are scored in one engine call; a sample's loss
    does not depend on its place in it."""
    if not validation:
        raise ValueError("validation set must be non-empty")
    authentic = [s for s in seen if s.provenance == "authentic"]
    poisoned = [s for s in seen if s.provenance != "authentic"]
    losses = llpf.per_sample_losses(config.network, params, [*validation, *authentic, *poisoned])
    delta, gamma, beta = (float(part.sum()) / len(part) if len(part) else None
                          for part in np.split(losses, [len(validation),
                                                        len(validation) + len(authentic)]))
    # metrics.csv holds finite metrics only, as its reader requires
    for name, value in (("mse_gamma", gamma), ("mse_delta", delta), ("mse_beta", beta)):
        if value is not None and not np.isfinite(value):
            raise RuntimeError(f"{name} is {value} in round {round_index}: the model's "
                               "outputs or the labels overflow")
    mode, deployment, r_a = _attack_fields(config.attack)
    return MetricsRecord(
        round=round_index,
        mse_gamma=gamma,
        mse_delta=delta,
        mse_beta=beta,
        aggregator=config.aggregator.describe(),
        attack_mode=mode,
        deployment=deployment,
        r_a=r_a,
        seed=config.master_seed,
    )


def pretrain(config: ExperimentConfig) -> tuple[np.ndarray, list, list]:
    """Generate server data, train the initial global model on it.

    Returns (weights, pre-training set, validation set); the validation set
    never takes part in any training.
    """
    seed = config.master_seed
    pretrain_set = channel.make_samples(
        config.channel, derive_rng(seed, "pretrain-data"), config.pretrain_size)
    validation_set = channel.make_samples(
        config.channel, derive_rng(seed, "validation-data"), config.validation_size,
        uid_start=config.pretrain_size)
    init_seed = int(derive_rng(seed, "init").integers(2 ** 31))
    params = nn.init_params(config.network, init_seed)
    epochs = config.epochs if config.pretrain_epochs is None else config.pretrain_epochs
    if epochs > 0:
        inputs = np.stack([s.input for s in pretrain_set])
        labels = np.stack([s.label for s in pretrain_set])
        params, = nn.train_minibatch(
            config.network, params, [(inputs, labels, derive_rng(seed, "pretrain-shuffle"))],
            epochs=epochs, batch_size=config.batch_size,
            learning_rate=config.learning_rate, beta1=config.momentum,
        )
    return params, pretrain_set, validation_set


def local_train(
    global_params: np.ndarray,
    caches: list,
    config: ExperimentConfig,
    round_index: int,
) -> list[aggregation.WeightUpdate]:
    """Fine-tune a copy of the global model on each of one round's caches in
    training round `round_index`, which keys the shuffles.  The caches train
    in lockstep, each as if alone; the updates come in cache order.

    The reported dataset length is the client-owned (pre-top-up) count, so
    server padding never inflates a station's aggregation weight.
    """
    if any(cache.l_n == 0 for cache in caches):
        raise ValueError("cannot train on an empty cache")
    datasets = [(np.stack([s.input for s in cache.samples]),
                 np.stack([s.label for s in cache.samples]),
                 derive_rng(config.master_seed, "local-train", round_index, cache.sbs_id))
                for cache in caches]
    sgd = config.local_mode == "steps_sgd"
    trained = nn.train_minibatch(
        config.network, global_params, datasets,
        epochs=max(config.sgd_steps, 1) if sgd else config.epochs,
        batch_size=config.batch_size, learning_rate=config.learning_rate,
        beta1=config.momentum, optimizer="sgd" if sgd else "adam",
        max_steps=config.sgd_steps if sgd else None,
    )
    return [aggregation.WeightUpdate(params=params, l_n=cache.aggregation_len,
                                     sbs_id=cache.sbs_id)
            for params, cache in zip(trained, caches)]


def _exclude_authentic(
    caches: list, fraction: float, rng: np.random.Generator
) -> list:
    if fraction <= 0.0:
        return caches
    out = []
    for cache in caches:
        drop = int(fraction * cache.l_n)
        if drop == 0:
            out.append(cache)
            continue
        removed = set(rng.choice(cache.l_n, size=drop, replace=False).tolist())
        kept = [s for i, s in enumerate(cache.samples) if i not in removed]
        # the kept count is the aggregation weight
        out.append(replace(cache, samples=kept, aggregation_len=len(kept)))
    return out


def _build_round_caches(config: ExperimentConfig, t: int,
                        plan: Optional[attacks.AttackPlan], pretrain_set: list):
    """The poisoned, topped-up caches that train in round t, and the attack
    plan after them.  Every stream and the uid block are round 1's under
    persist_caches (a frozen collusion payload is in the plan), else round
    t's: a round makes at most n_sbs * cache_len_hi samples, so its uids
    take their own block after the server sets'."""
    seed = config.master_seed
    stream_round = 1 if config.persist_caches else t
    lengths = derive_rng(seed, "lengths", stream_round).integers(
        config.cache_len_lo, config.cache_len_hi + 1, size=config.n_sbs
    )
    caches = channel.generate_round_caches(
        config.channel, [int(l) for l in lengths], derive_rng(seed, "caches", stream_round),
        round_index=t, uid_start=config.pretrain_size + config.validation_size
        + (stream_round - 1) * config.n_sbs * config.cache_len_hi,
    )
    caches = _exclude_authentic(
        caches, config.exclude_fraction, derive_rng(seed, "exclude", stream_round)
    )
    if plan is not None and plan.ratio > 0.0:
        caches = attacks.poison_caches(caches, plan, derive_rng(seed, "poison", stream_round))
        if plan.mode == "collusion" and plan.collusion_payload is None:
            # all colluded samples of a round share one label array, if any
            plan = replace(plan, collusion_payload=next((
                s.label for c in caches for s in c.samples if s.provenance == "collusion"), None))
    caches = [
        channel.topup_with_pretrain(
            cache, pretrain_set, config.i_min,
            derive_rng(seed, "topup", stream_round, cache.sbs_id),
        )
        for cache in caches
    ]
    return caches, plan


def run_round(
    state: FederationState, config: ExperimentConfig
) -> tuple[FederationState, MetricsRecord]:
    """Advance the federation by one round and report the new model's metrics."""
    t = state.round_index + 1
    if t > config.rounds:
        raise ValueError(f"round {t} exceeds configured horizon {config.rounds}")
    seed = config.master_seed
    caches, plan = _build_round_caches(config, t, state.attack_plan, state.pretrain_set)
    _check_validation_separation(caches, state.validation_set)
    if config.llpf.enabled:
        filtered = llpf.filter_caches(
            config.network, state.global_params, caches, config.llpf,
            [derive_rng(seed, "llpf", t, cache.sbs_id) for cache in caches],
        )
    else:
        filtered = caches
    updates = local_train(state.global_params, filtered, config, t)
    for update in updates:
        _check_finite(update.params, lambda i: f"station {update.sbs_id} diverged in round "
                      f"{t}: its local update has a non-finite value at coordinate {i}")
    new_params = aggregation.aggregate(
        updates, config.aggregator,
        rng=derive_rng(seed, "aggregate", t),
        distill_set=state.pretrain_set, spec=config.network, beta1=config.momentum,
        learning_rate=config.learning_rate, batch_size=config.batch_size,
    )
    _check_finite(new_params, lambda i: f"aggregator {config.aggregator.describe()} "
                  f"produced a non-finite value at coordinate {i} in round {t}")
    record = evaluate(config, new_params, [s for c in filtered for s in c.samples],
                      state.validation_set, round_index=t)
    return replace(state, round_index=t, global_params=new_params, attack_plan=plan), record


def _check_finite(params: np.ndarray, what) -> None:
    """Raise a RuntimeError worded `what(coordinate)` at the first non-finite
    value of params."""
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise RuntimeError(what(int(bad[0])))


def _check_validation_separation(caches: list, validation: list) -> None:
    val_uids = {s.uid for s in validation}
    cache_uids = {s.uid for c in caches for s in c.samples}
    overlap = val_uids & cache_uids
    if overlap:
        raise RuntimeError(f"validation samples leaked into caches: {sorted(overlap)[:5]}")


def run_experiment(config: ExperimentConfig) -> list[MetricsRecord]:
    """Pre-train, run all federation rounds, return one record per round plus
    the round-0 pre-training record (seen data = the pre-training set)."""
    params, pretrain_set, validation_set = pretrain(config)
    records = [evaluate(config, params, pretrain_set, validation_set)]
    state = FederationState(
        round_index=0,
        global_params=params,
        pretrain_set=pretrain_set,
        validation_set=validation_set,
        attack_plan=config.attack,
    )
    for _ in range(config.rounds):
        state, record = run_round(state, config)
        records.append(record)
    return records
