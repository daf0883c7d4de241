import dataclasses

import numpy as np
import pytest

from conftest import desk_config, run_cached, small_network

from fedcsi import aggregation, channel, llpf, nn, orchestrator
from fedcsi.attacks import AttackPlan
from fedcsi.llpf import LlpfConfig
from fedcsi.orchestrator import (
    ExperimentConfig, FederationState, MetricsRecord, evaluate, local_train,
    pretrain, run_experiment, run_round,
)


# --------------------------- config validation ------------------------------

def test_default_config_mirrors_setup_table():
    cfg = ExperimentConfig()
    assert cfg.n_sbs == 10
    assert cfg.i_min == 200
    assert cfg.cache_len_lo == 170 and cfg.cache_len_hi == 230
    assert cfg.validation_size == 200
    assert cfg.pretrain_size == 200
    assert cfg.learning_rate == 0.001
    assert cfg.momentum == 0.9
    assert cfg.epochs == 100
    assert cfg.batch_size == 64
    # expected total cached data per round is near 2000 at these bounds
    assert cfg.n_sbs * (cfg.cache_len_lo + cfg.cache_len_hi) / 2 == 2000
    cfg.validate()


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        desk_config(n_sbs=0).validate()
    with pytest.raises(ValueError):
        desk_config(cache_len_lo=20, cache_len_hi=10).validate()
    with pytest.raises(ValueError):
        desk_config(exclude_fraction=1.0).validate()
    with pytest.raises(ValueError):
        desk_config(network=small_network(10, 10)).validate()  # grid mismatch
    with pytest.raises(ValueError):
        desk_config(network=small_network(12, 8, filters=(4, 3))).validate()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(learning_rate=_NAN), id="learning_rate-nan"),
    pytest.param(dict(learning_rate=_INF), id="learning_rate-inf"),
    pytest.param(dict(momentum=_NAN), id="momentum-nan"),
    pytest.param(dict(llpf=LlpfConfig(k_sigma=_NAN)), id="llpf.k_sigma-nan"),
    pytest.param(dict(channel=channel.ChannelConfig(grid_height=12, grid_width=8, gain_scale=_NAN)),
                 id="channel.gain_scale-nan"),
    pytest.param(dict(channel=channel.ChannelConfig(grid_height=12, grid_width=8, gain_scale=_INF)),
                 id="channel.gain_scale-inf"),
    pytest.param(dict(channel=channel.ChannelConfig(grid_height=12, grid_width=8,
                                                    pilot_noise_stddev=_NAN)),
                 id="channel.pilot_noise_stddev-nan"),
    pytest.param(dict(aggregator=aggregation.Aggregator(kind="stomedian", eps=_NAN)),
                 id="aggregator.eps-nan"),
    pytest.param(dict(aggregator=aggregation.Aggregator(kind="fedbe", fedbe_distill_lr=_NAN)),
                 id="aggregator.fedbe_distill_lr-nan"),
    pytest.param(dict(attack=AttackPlan(mode="outdate", outdate_lag=_NAN)),
                 id="attack.outdate_lag-nan"),
])
def test_config_rejects_non_finite_values_from_library_callers(overrides):
    # the JSON parser rejects NaN and Infinity itself; dataclasses built in
    # code reach only validate, where NaN fails every comparison
    with pytest.raises(ValueError):
        desk_config(**overrides).validate()


# --------------------------- pretrain ---------------------------------------

def test_pretrain_shapes_and_improvement():
    cfg = desk_config(pretrain_epochs=8)
    params, pre, val = pretrain(cfg)
    assert len(pre) == cfg.pretrain_size
    assert len(val) == cfg.validation_size
    init_seed_params, _, _ = pretrain(dataclasses.replace(cfg, pretrain_epochs=0))
    before = orchestrator._mean_sample_mse(cfg.network, init_seed_params, val)
    after = orchestrator._mean_sample_mse(cfg.network, params, val)
    assert after < before


def test_pretrain_deterministic():
    cfg = desk_config()
    a, pre_a, _ = pretrain(cfg)
    b, pre_b, _ = pretrain(cfg)
    assert np.array_equal(a, b)
    assert all(np.array_equal(x.input, y.input) for x, y in zip(pre_a, pre_b))


def test_pretrain_and_validation_uids_disjoint():
    cfg = desk_config()
    _, pre, val = pretrain(cfg)
    assert {s.uid for s in pre}.isdisjoint({s.uid for s in val})


# --------------------------- local_train ------------------------------------

def test_local_train_zero_epochs_identity():
    cfg = desk_config(epochs=0)
    params, pre, _ = pretrain(cfg)
    cache = channel.CachedDataset(samples=pre[:6], sbs_id=0, round_index=1)
    update = local_train(cfg.network, params, cache, cfg)
    assert np.array_equal(update.params, params)
    assert update.l_n == 6


def test_local_train_identical_caches_identical_updates():
    cfg = desk_config()
    params, pre, _ = pretrain(cfg)
    cache_a = channel.CachedDataset(samples=pre[:6], sbs_id=2, round_index=1)
    cache_b = channel.CachedDataset(samples=list(pre[:6]), sbs_id=2, round_index=1)
    ua = local_train(cfg.network, params, cache_a, cfg)
    ub = local_train(cfg.network, params, cache_b, cfg)
    assert np.array_equal(ua.params, ub.params)


def test_local_train_uses_pre_topup_weight():
    cfg = desk_config()
    params, pre, _ = pretrain(cfg)
    cache = channel.CachedDataset(samples=pre[:4], sbs_id=0, round_index=1)
    topped = channel.topup_with_pretrain(cache, pre, 8, np.random.default_rng(0))
    update = local_train(cfg.network, params, topped, cfg)
    assert topped.l_n == 8
    assert update.l_n == 4


def test_local_train_steps_sgd_mode():
    cfg = desk_config(local_mode="steps_sgd", sgd_steps=3)
    params, pre, _ = pretrain(cfg)
    cache = channel.CachedDataset(samples=pre[:6], sbs_id=1, round_index=1)
    update = local_train(cfg.network, params, cache, cfg)
    assert not np.array_equal(update.params, params)


def test_local_training_loss_mostly_non_increasing():
    cfg = desk_config()
    params, pre, _ = pretrain(cfg)
    inputs = np.stack([s.input for s in pre])
    labels = np.stack([s.label for s in pre])
    # the loss after k epochs: the same seed replays the first k epochs exactly
    losses = []
    for k in range(1, 21):
        trained = nn.train_minibatch(
            cfg.network, params, inputs, labels, epochs=k, batch_size=8,
            learning_rate=0.001, rng=np.random.default_rng(3),
        )
        losses.append(nn.mse_loss(nn.forward_batch(cfg.network, trained, inputs), labels))
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
    assert drops >= 0.9 * (len(losses) - 1)


# --------------------------- evaluate ---------------------------------------

def test_evaluate_matches_loop_oracle():
    cfg = desk_config()
    params, pre, val = pretrain(cfg)
    caches = channel.generate_round_caches(
        cfg.channel, [5, 4], np.random.default_rng(5), uid_start=10_000
    )
    caches[0].samples[1] = dataclasses.replace(caches[0].samples[1], provenance="reverse")
    record = evaluate(cfg.network, params, caches, val, round_index=3)

    def mean_mse(samples):
        vals = []
        for s in samples:
            pred = nn.forward(cfg.network, params, s.input)
            vals.append(nn.mse_loss(pred, s.label))
        return sum(vals) / len(vals)

    authentic = [s for c in caches for s in c.samples if s.provenance == "authentic"]
    poisoned = [s for c in caches for s in c.samples if s.provenance != "authentic"]
    assert record.mse_gamma == pytest.approx(mean_mse(authentic), rel=1e-9)
    assert record.mse_delta == pytest.approx(mean_mse(val), rel=1e-9)
    assert record.mse_beta == pytest.approx(mean_mse(poisoned), rel=1e-9)


def test_evaluate_no_poison_and_perfect_model():
    cfg = desk_config()
    params, pre, val = pretrain(cfg)
    caches = channel.generate_round_caches(
        cfg.channel, [4], np.random.default_rng(6), uid_start=20_000
    )
    record = evaluate(cfg.network, params, caches, val)
    assert record.mse_beta is None
    assert record.mse_gamma is not None
    # a perfect model: evaluate against labels equal to predictions
    perfect = [
        dataclasses.replace(v, label=nn.forward(cfg.network, params, v.input))
        for v in val
    ]
    record2 = evaluate(cfg.network, params, [], perfect)
    assert record2.mse_delta == 0.0
    assert record2.mse_gamma is None


# --------------------------- run_round / run_experiment ---------------------

def test_single_round_improves_validation():
    cfg = desk_config(rounds=1, epochs=6)
    records = run_cached(cfg)
    assert len(records) == 2
    assert records[1].mse_delta < records[0].mse_delta
    assert records[1].mse_beta is None
    assert records[1].attack_mode == "none"


def test_run_experiment_zero_rounds():
    cfg = desk_config(rounds=0)
    records = run_cached(cfg)
    assert len(records) == 1
    assert records[0].round == 0


def test_run_experiment_deterministic():
    cfg = desk_config(master_seed=7)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b


def test_rounds_numbered_and_provenance_recorded():
    plan = AttackPlan(mode="reverse", deployment="widespread", ratio=0.25)
    cfg = desk_config(attack=plan, aggregator=aggregation.Aggregator(kind="stomedian"))
    records = run_cached(cfg)
    assert [r.round for r in records] == [0, 1, 2]
    for r in records:
        assert r.aggregator == "stomedian"
        assert r.attack_mode == "reverse"
        assert r.deployment == "widespread"
        assert r.r_a == 0.25
        assert r.seed == cfg.master_seed
    assert records[1].mse_beta is not None


def test_poisoned_metric_absent_when_ratio_zero():
    cfg = desk_config(attack=AttackPlan(mode="reverse", ratio=0.0))
    records = run_cached(cfg)
    assert all(r.mse_beta is None for r in records)
    assert all(r.attack_mode == "none" for r in records)


def test_collusion_payload_frozen_across_rounds():
    plan = AttackPlan(mode="collusion", deployment="widespread", ratio=0.3)
    cfg = desk_config(attack=plan, rounds=2)
    params, pre, val = pretrain(cfg)
    state = FederationState(
        round_index=0, global_params=params, pretrain_set=pre,
        validation_set=val, attack_plan=cfg.attack,
        next_uid=cfg.pretrain_size + cfg.validation_size,
    )
    state, _ = run_round(state, cfg)
    frozen = state.attack_plan.collusion_payload
    assert frozen is not None
    round1_labels = [
        s.label for c in state.caches for s in c.samples if s.provenance == "collusion"
    ]
    state, _ = run_round(state, cfg)
    round2_labels = [
        s.label for c in state.caches for s in c.samples if s.provenance == "collusion"
    ]
    assert round1_labels and round2_labels
    for lab in round1_labels + round2_labels:
        assert np.array_equal(lab, frozen)


def test_llpf_sees_poisoned_caches_and_training_uses_filtered(monkeypatch):
    plan = AttackPlan(mode="reverse", deployment="widespread", ratio=0.3)
    cfg = desk_config(
        attack=plan, rounds=1, epochs=1, cache_len_lo=10, cache_len_hi=12,
        llpf=LlpfConfig(enabled=True),
    )
    params, pre, val = pretrain(cfg)
    seen_poisoned = []
    real_filter = orchestrator.llpf.filter_cache

    def spy_filter(spec, global_params, cache, fcfg, rng):
        seen_poisoned.append(sum(1 for s in cache.samples if s.provenance != "authentic"))
        out = real_filter(spec, global_params, cache, fcfg, rng)
        # force a visible replacement so the trained caches are checkable
        trusted = [s for s in out.samples if s.provenance == "authentic"]
        cleaned = [trusted[0] if s.provenance != "authentic" else s for s in out.samples]
        return channel.CachedDataset(
            samples=cleaned, sbs_id=out.sbs_id, round_index=out.round_index,
            aggregation_len=out.aggregation_len,
        )

    monkeypatch.setattr(orchestrator.llpf, "filter_cache", spy_filter)
    state = FederationState(
        round_index=0, global_params=params, pretrain_set=pre,
        validation_set=val, attack_plan=cfg.attack,
        next_uid=cfg.pretrain_size + cfg.validation_size,
    )
    state, record = run_round(state, cfg)
    # the filter ran downstream of poisoning: it saw poisoned samples
    assert sum(seen_poisoned) > 0
    # training and metrics consumed the filtered caches: nothing poisoned left
    assert all(s.provenance == "authentic" for c in state.caches for s in c.samples)
    assert record.mse_beta is None


def test_exclusion_shrinks_caches_before_topup():
    cfg = desk_config(exclude_fraction=0.25, cache_len_lo=8, cache_len_hi=8, i_min=0)
    params, pre, val = pretrain(cfg)
    state = FederationState(
        round_index=0, global_params=params, pretrain_set=pre,
        validation_set=val, attack_plan=None,
        next_uid=cfg.pretrain_size + cfg.validation_size,
    )
    state, _ = run_round(state, cfg)
    for cache in state.caches:
        assert cache.l_n == 6  # 8 - floor(0.25 * 8)
        assert cache.aggregation_len == 6


def test_validation_leak_detected():
    cfg = desk_config()
    params, pre, val = pretrain(cfg)
    state = FederationState(
        round_index=0, global_params=params, pretrain_set=pre,
        validation_set=val, attack_plan=None, next_uid=0,
    )
    leaky = channel.CachedDataset(samples=[val[0]], sbs_id=0, round_index=1)
    with pytest.raises(RuntimeError, match="leaked"):
        orchestrator._check_validation_separation([leaky], val)


def test_non_finite_aggregate_aborts_with_diagnostic(monkeypatch):
    cfg = desk_config(rounds=1)
    params, pre, val = pretrain(cfg)
    state = FederationState(
        round_index=0, global_params=params, pretrain_set=pre,
        validation_set=val, attack_plan=None,
        next_uid=cfg.pretrain_size + cfg.validation_size,
    )

    def bad_aggregate(updates, aggregator, **kw):
        out = np.zeros(updates[0].params.size)
        out[17] = np.nan
        return out

    monkeypatch.setattr(orchestrator.aggregation, "aggregate", bad_aggregate)
    with pytest.raises(RuntimeError, match="coordinate 17"):
        run_round(state, cfg)


@pytest.mark.parametrize("kind", ["stomedian", "fedavg"])
def test_diverging_station_named_before_aggregation(kind):
    # a step of 1e100 overflows the local weights to inf/nan; the error must
    # name the station, not come out of the aggregator
    cfg = desk_config(rounds=1, pretrain_epochs=0, learning_rate=1e100,
                      aggregator=aggregation.Aggregator(kind=kind))
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match=r"station 0 diverged in round 1"):
            run_experiment(cfg)


def test_persist_caches_reuses_round_one_data():
    cfg = desk_config(persist_caches=True, rounds=2)
    params, pre, val = pretrain(cfg)
    state = FederationState(
        round_index=0, global_params=params, pretrain_set=pre,
        validation_set=val, attack_plan=None,
        next_uid=cfg.pretrain_size + cfg.validation_size,
    )
    state, _ = run_round(state, cfg)
    first = state.caches
    state, _ = run_round(state, cfg)
    assert state.caches is first


def test_fedbe_round_runs():
    cfg = desk_config(
        rounds=1, aggregator=aggregation.Aggregator(kind="fedbe", fedbe_samples=3,
                                                    fedbe_distill_epochs=2),
    )
    records = run_cached(cfg)
    assert len(records) == 2
    assert records[1].aggregator == "fedbe(S=3)"
