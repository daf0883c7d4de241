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
from .seeds import derive_rng

EVAL_BATCH = 64
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

    def validate(self) -> None:
        for name in ("n_sbs", "cache_len_lo", "cache_len_hi", "pretrain_size",
                     "validation_size", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("rounds", "i_min", "epochs", "sgd_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.cache_len_lo > self.cache_len_hi:
            raise ValueError("cache_len_lo must be <= cache_len_hi")
        # chained comparisons, so that NaN (which fails every comparison) is rejected
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum (Adam beta1) must be in [0, 1)")
        if not 0.0 <= self.exclude_fraction < 1.0:
            raise ValueError("exclude_fraction must be in [0, 1)")
        if self.local_mode not in ("epochs_adam", "steps_sgd"):
            raise ValueError(f"unknown local_mode {self.local_mode!r}")
        if self.pretrain_epochs is not None and self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        self.network.validate()
        self.channel.validate()
        self.aggregator.validate()
        self.llpf.validate()
        grid = (self.channel.grid_height, self.channel.grid_width, LABEL_CHANNELS)
        if self.attack is not None:
            self.attack.validate(self.n_sbs)
            payload = self.attack.collusion_payload
            if payload is not None and payload.shape != grid:
                raise ValueError(f"collusion_payload shape {payload.shape} != label grid {grid}")
            if payload is not None and not np.isfinite(payload).all():
                raise ValueError("collusion_payload must be finite")
        if tuple(self.network.input_shape) != grid:
            raise ValueError(
                f"network input {self.network.input_shape} != channel grid {grid}"
            )
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


@dataclass
class FederationState:
    round_index: int
    global_params: np.ndarray
    pretrain_set: list
    validation_set: list
    attack_plan: Optional[attacks.AttackPlan]
    caches: Optional[list] = None
    next_uid: int = 0


def _attack_fields(plan: Optional[attacks.AttackPlan]) -> tuple[str, str, float]:
    if plan is None or plan.ratio == 0.0:
        return "none", "none", plan.ratio if plan else 0.0
    return plan.mode, plan.deployment, plan.ratio


def _mean_sample_mse(
    spec: nn.NetworkSpec, params: np.ndarray, samples: list
) -> Optional[float]:
    if not samples:
        return None
    total = 0.0
    for start in range(0, len(samples), EVAL_BATCH):
        part = samples[start:start + EVAL_BATCH]
        inputs = np.stack([s.input for s in part])
        labels = np.stack([s.label for s in part])
        diff = nn.forward_batch(spec, params, inputs) - labels
        total += float(np.mean(diff * diff, axis=(1, 2, 3)).sum())
    return total / len(samples)


def evaluate(
    spec: nn.NetworkSpec,
    params: np.ndarray,
    caches: list,
    validation: list,
    *,
    round_index: int = 0,
    aggregator: str = "",
    attack_mode: str = "none",
    deployment: str = "none",
    r_a: float = 0.0,
    seed: int = 0,
) -> MetricsRecord:
    """Three-way metric split: authentic cache data, validation, poisoned."""
    if not validation:
        raise ValueError("validation set must be non-empty")
    authentic = [s for c in caches for s in c.samples if s.provenance == "authentic"]
    poisoned = [s for c in caches for s in c.samples if s.provenance != "authentic"]
    delta = _mean_sample_mse(spec, params, validation)
    return MetricsRecord(
        round=round_index,
        mse_gamma=_mean_sample_mse(spec, params, authentic),
        mse_delta=delta if delta is not None else 0.0,
        mse_beta=_mean_sample_mse(spec, params, poisoned),
        aggregator=aggregator,
        attack_mode=attack_mode,
        deployment=deployment,
        r_a=r_a,
        seed=seed,
    )


def pretrain(config: ExperimentConfig) -> tuple[np.ndarray, list, list]:
    """Generate server data, train the initial global model on it.

    Returns (weights, pre-training set, validation set); the validation set
    never takes part in any training.
    """
    config.validate()
    seed = config.master_seed
    data_rng = derive_rng(seed, "pretrain-data")
    pretrain_set = [
        channel.make_sample(config.channel, data_rng, uid=i)
        for i in range(config.pretrain_size)
    ]
    val_rng = derive_rng(seed, "validation-data")
    validation_set = [
        channel.make_sample(config.channel, val_rng, uid=config.pretrain_size + i)
        for i in range(config.validation_size)
    ]
    init_seed = int(derive_rng(seed, "init").integers(2 ** 31))
    params = nn.init_params(config.network, init_seed)
    epochs = config.epochs if config.pretrain_epochs is None else config.pretrain_epochs
    if epochs > 0:
        inputs = np.stack([s.input for s in pretrain_set])
        labels = np.stack([s.label for s in pretrain_set])
        params = nn.train_minibatch(
            config.network, params, inputs, labels,
            epochs=epochs, batch_size=config.batch_size,
            learning_rate=config.learning_rate, beta1=config.momentum,
            rng=derive_rng(seed, "pretrain-shuffle"),
        )
    return params, pretrain_set, validation_set


def local_train(
    spec: nn.NetworkSpec,
    global_params: np.ndarray,
    cache: channel.CachedDataset,
    config: ExperimentConfig,
) -> aggregation.WeightUpdate:
    """Fine-tune a copy of the global model on one cache.

    The reported dataset length is the client-owned (pre-top-up) count, so
    server padding never inflates a station's aggregation weight.
    """
    if cache.l_n == 0:
        raise ValueError("cannot train on an empty cache")
    rng = derive_rng(config.master_seed, "local-train", cache.round_index, cache.sbs_id)
    inputs = np.stack([s.input for s in cache.samples])
    labels = np.stack([s.label for s in cache.samples])
    if config.local_mode == "steps_sgd":
        trained = nn.train_minibatch(
            spec, global_params, inputs, labels,
            epochs=max(config.sgd_steps, 1), batch_size=config.batch_size,
            learning_rate=config.learning_rate, rng=rng,
            optimizer="sgd", max_steps=config.sgd_steps,
        )
    else:
        trained = nn.train_minibatch(
            spec, global_params, inputs, labels,
            epochs=config.epochs, batch_size=config.batch_size,
            learning_rate=config.learning_rate, beta1=config.momentum, rng=rng,
        )
    return aggregation.WeightUpdate(
        params=trained, l_n=cache.aggregation_len, sbs_id=cache.sbs_id
    )


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
        out.append(channel.CachedDataset(
            samples=kept, sbs_id=cache.sbs_id, round_index=cache.round_index,
        ))
    return out


def _build_round_caches(state: FederationState, config: ExperimentConfig, t: int):
    seed = config.master_seed
    lengths = derive_rng(seed, "lengths", t).integers(
        config.cache_len_lo, config.cache_len_hi + 1, size=config.n_sbs
    )
    caches = channel.generate_round_caches(
        config.channel, [int(l) for l in lengths], derive_rng(seed, "caches", t),
        round_index=t, uid_start=state.next_uid,
    )
    produced = int(lengths.sum())
    caches = _exclude_authentic(
        caches, config.exclude_fraction, derive_rng(seed, "exclude", t)
    )
    plan = state.attack_plan
    if plan is not None and plan.ratio > 0.0:
        caches = attacks.poison_caches(caches, plan, derive_rng(seed, "poison", t))
        if plan.mode == "collusion" and plan.collusion_payload is None:
            for cache in caches:
                for s in cache.samples:
                    if s.provenance == "collusion":
                        plan = replace(plan, collusion_payload=s.label)
                        break
                if plan.collusion_payload is not None:
                    break
    caches = [
        channel.topup_with_pretrain(
            cache, state.pretrain_set, config.i_min,
            derive_rng(seed, "topup", t, cache.sbs_id),
        )
        for cache in caches
    ]
    return caches, plan, produced


def run_round(
    state: FederationState, config: ExperimentConfig
) -> tuple[FederationState, MetricsRecord]:
    """Advance the federation by one round and report the new model's metrics."""
    t = state.round_index + 1
    if t > config.rounds:
        raise ValueError(f"round {t} exceeds configured horizon {config.rounds}")
    seed = config.master_seed
    plan = state.attack_plan
    produced = 0
    if config.persist_caches and state.caches is not None:
        caches = state.caches
    else:
        caches, plan, produced = _build_round_caches(state, config, t)
    _check_validation_separation(caches, state.validation_set)
    if config.llpf.enabled:
        filtered = [
            llpf.filter_cache(
                config.network, state.global_params, cache, config.llpf,
                derive_rng(seed, "llpf", t, cache.sbs_id),
            )
            for cache in caches
        ]
    else:
        filtered = caches
    updates = [
        local_train(config.network, state.global_params, cache, config)
        for cache in filtered
    ]
    for update in updates:
        bad = np.flatnonzero(~np.isfinite(update.params))
        if bad.size:
            raise RuntimeError(
                f"station {update.sbs_id} diverged in round {t}: its local update "
                f"has a non-finite value at coordinate {int(bad[0])}"
            )
    new_params = aggregation.aggregate(
        updates, config.aggregator,
        rng=derive_rng(seed, "aggregate", t),
        distill_set=state.pretrain_set, spec=config.network,
        learning_rate=config.learning_rate, batch_size=config.batch_size,
    )
    bad = np.flatnonzero(~np.isfinite(new_params))
    if bad.size:
        raise RuntimeError(
            f"aggregator {config.aggregator.describe()} produced a non-finite "
            f"value at coordinate {int(bad[0])} in round {t}"
        )
    mode, deployment, r_a = _attack_fields(state.attack_plan or config.attack)
    record = evaluate(
        config.network, new_params, filtered, state.validation_set,
        round_index=t, aggregator=config.aggregator.describe(),
        attack_mode=mode, deployment=deployment, r_a=r_a, seed=seed,
    )
    new_state = replace(
        state,
        round_index=t,
        global_params=new_params,
        attack_plan=plan,
        caches=caches if config.persist_caches else filtered,
        next_uid=state.next_uid + produced,
    )
    return new_state, record


def _check_validation_separation(caches: list, validation: list) -> None:
    val_uids = {s.uid for s in validation}
    cache_uids = {s.uid for c in caches for s in c.samples}
    overlap = val_uids & cache_uids
    if overlap:
        raise RuntimeError(f"validation samples leaked into caches: {sorted(overlap)[:5]}")


def run_experiment(config: ExperimentConfig) -> list[MetricsRecord]:
    """Pre-train, run all federation rounds, return one record per round plus
    the round-0 pre-training record (seen data = the pre-training set)."""
    config.validate()
    params, pretrain_set, validation_set = pretrain(config)
    mode, deployment, r_a = _attack_fields(config.attack)
    seen = channel.CachedDataset(samples=pretrain_set, sbs_id=-1, round_index=0)
    records = [evaluate(
        config.network, params, [seen], validation_set,
        round_index=0, aggregator=config.aggregator.describe(),
        attack_mode=mode, deployment=deployment, r_a=r_a, seed=config.master_seed,
    )]
    state = FederationState(
        round_index=0,
        global_params=params,
        pretrain_set=pretrain_set,
        validation_set=validation_set,
        attack_plan=config.attack,
        next_uid=config.pretrain_size + config.validation_size,
    )
    for _ in range(config.rounds):
        state, record = run_round(state, config)
        records.append(record)
    return records
