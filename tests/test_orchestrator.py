import dataclasses
import gc
import logging
import weakref

import numpy as np
import pytest

from conftest import desk_config, forward_one, mse, run_cached, small_network

from fedcsi import aggregation, channel, engine, llpf, nn, orchestrator
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


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        desk_config(n_sbs=0)
    with pytest.raises(ValueError):
        desk_config(cache_len_lo=20, cache_len_hi=10)
    with pytest.raises(ValueError):
        desk_config(exclude_fraction=1.0)
    with pytest.raises(ValueError):
        desk_config(network=small_network(10, 10))  # grid mismatch
    with pytest.raises(ValueError):
        desk_config(network=small_network(12, 8, filters=(4, 3)))
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        desk_config(master_seed=-1)
    # one update per station: trimming 1 per side needs 3 stations, and the
    # config is rejected before pre-training, not in round 1
    trim = aggregation.Aggregator(kind="trimmed_mean", trim_a=1)
    with pytest.raises(ValueError, match="trim_a=1 needs more than 2 updates"):
        desk_config(n_sbs=2, aggregator=trim)
    desk_config(n_sbs=3, aggregator=trim)


_NAN, _INF = float("nan"), float("inf")
_GRID = dict(grid_height=12, grid_width=8)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: desk_config(learning_rate=_NAN), id="learning_rate-nan"),
    pytest.param(lambda: desk_config(learning_rate=_INF), id="learning_rate-inf"),
    pytest.param(lambda: desk_config(momentum=_NAN), id="momentum-nan"),
    pytest.param(lambda: LlpfConfig(k_sigma=_NAN), id="llpf.k_sigma-nan"),
    pytest.param(lambda: channel.ChannelConfig(**_GRID, gain_scale=_NAN),
                 id="channel.gain_scale-nan"),
    pytest.param(lambda: channel.ChannelConfig(**_GRID, gain_scale=_INF),
                 id="channel.gain_scale-inf"),
    pytest.param(lambda: channel.ChannelConfig(**_GRID, pilot_noise_stddev=_NAN),
                 id="channel.pilot_noise_stddev-nan"),
    pytest.param(lambda: aggregation.Aggregator(kind="stomedian", eps=_NAN),
                 id="aggregator.eps-nan"),
    pytest.param(lambda: aggregation.Aggregator(kind="fedbe", fedbe_distill_lr=_NAN),
                 id="aggregator.fedbe_distill_lr-nan"),
    pytest.param(lambda: AttackPlan(mode="outdate", outdate_lag=_NAN),
                 id="attack.outdate_lag-nan"),
])
def test_config_rejects_non_finite_values_from_library_callers(build):
    # the JSON parser rejects NaN and Infinity itself; a dataclass built in
    # code is checked when it is built, where NaN fails every comparison
    with pytest.raises(ValueError):
        build()


# --------------------------- pretrain ---------------------------------------

def test_pretrain_shapes_and_improvement():
    cfg = desk_config(pretrain_epochs=8)
    params, pre, val = pretrain(cfg)
    assert len(pre) == cfg.pretrain_size
    assert len(val) == cfg.validation_size
    init_seed_params, _, _ = pretrain(dataclasses.replace(cfg, pretrain_epochs=0))
    before = llpf.per_sample_losses(cfg.network, init_seed_params, val).mean()
    after = llpf.per_sample_losses(cfg.network, params, val).mean()
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


def start_state(cfg):
    """The federation state after pre-training, before round 1."""
    params, pre, val = pretrain(cfg)
    return FederationState(round_index=0, global_params=params, pretrain_set=pre,
                           validation_set=val, attack_plan=cfg.attack)


def spy_local_train(monkeypatch):
    """Record the (round, cache) of every cache that `local_train` trains."""
    trained = []
    real = orchestrator.local_train

    def spy(global_params, caches, config, round_index):
        trained.extend((round_index, cache) for cache in caches)
        return real(global_params, caches, config, round_index)

    monkeypatch.setattr(orchestrator, "local_train", spy)
    return trained


# --------------------------- local_train ------------------------------------

def test_local_train_zero_epochs_identity():
    cfg = desk_config(epochs=0)
    params, pre, _ = pretrain(cfg)
    cache = channel.CachedDataset(samples=pre[:6], sbs_id=0, round_index=1)
    update, = local_train(params, [cache], cfg, 1)
    assert np.array_equal(update.params, params)
    assert update.l_n == 6


def test_local_train_identical_caches_identical_updates():
    cfg = desk_config()
    params, pre, _ = pretrain(cfg)
    cache_a = channel.CachedDataset(samples=pre[:6], sbs_id=2, round_index=1)
    cache_b = channel.CachedDataset(samples=list(pre[:6]), sbs_id=2, round_index=1)
    ua, = local_train(params, [cache_a], cfg, 1)
    ub, = local_train(params, [cache_b], cfg, 1)
    assert np.array_equal(ua.params, ub.params)


def test_local_train_uses_pre_topup_weight():
    cfg = desk_config()
    params, pre, _ = pretrain(cfg)
    cache = channel.CachedDataset(samples=pre[:4], sbs_id=0, round_index=1)
    topped = channel.topup_with_pretrain(cache, pre, 8, np.random.default_rng(0))
    update, = local_train(params, [topped], cfg, 1)
    assert topped.l_n == 8
    assert update.l_n == 4


def test_local_train_steps_sgd_mode():
    cfg = desk_config(local_mode="steps_sgd", sgd_steps=3)
    params, pre, _ = pretrain(cfg)
    cache = channel.CachedDataset(samples=pre[:6], sbs_id=1, round_index=1)
    update, = local_train(params, [cache], cfg, 1)
    assert not np.array_equal(update.params, params)


@pytest.mark.parametrize("mode", ["epochs_adam", "steps_sgd"])
def test_lockstep_stations_get_the_bytes_they_get_alone(monkeypatch, mode):
    # ragged caches at batch 2: stations drop out of the lockstep at
    # different steps, and a default-spec step of all three is shared out
    cfg = ExperimentConfig(epochs=2, batch_size=2, local_mode=mode, sgd_steps=3, master_seed=8)
    caches = channel.generate_round_caches(cfg.channel, [3, 5, 6], np.random.default_rng(9))
    params = nn.init_params(cfg.network, 10)
    try:
        for count in (0, 1, 2):
            monkeypatch.setattr(engine, "_helper_count", lambda count=count: count)
            together = local_train(params, caches, cfg, 1)
            alone = [local_train(params, [cache], cfg, 1)[0] for cache in caches]
            assert [(u.sbs_id, u.l_n, u.params.tobytes()) for u in together] == \
                [(u.sbs_id, u.l_n, u.params.tobytes()) for u in alone]
            assert len(engine._pool) >= count
    finally:
        engine._stop_helpers()


def test_local_training_loss_mostly_non_increasing():
    cfg = desk_config()
    params, pre, _ = pretrain(cfg)
    inputs = np.stack([s.input for s in pre])
    labels = np.stack([s.label for s in pre])
    # the loss after k epochs: the same seed replays the first k epochs exactly
    losses = []
    for k in range(1, 21):
        trained, = nn.train_minibatch(
            cfg.network, params, [(inputs, labels, np.random.default_rng(3))], epochs=k,
            batch_size=8, learning_rate=0.001,
        )
        losses.append(mse(nn.forward_batch(cfg.network, trained, inputs), labels))
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
    assert drops >= 0.9 * (len(losses) - 1)


# --------------------------- evaluate ---------------------------------------

def test_evaluate_matches_loop_oracle():
    cfg = desk_config(
        aggregator=aggregation.Aggregator(kind="trimmed_mean", trim_a=1), master_seed=4,
        attack=AttackPlan(mode="reverse", deployment="targeted", ratio=0.5, target_sbs=1),
    )
    params, pre, val = pretrain(cfg)
    caches = channel.generate_round_caches(
        cfg.channel, [5, 4], np.random.default_rng(5), uid_start=10_000
    )
    caches[0].samples[1] = dataclasses.replace(caches[0].samples[1], provenance="reverse")
    record = evaluate(cfg, params, [s for c in caches for s in c.samples], val, round_index=3)
    # the labels come from the config
    assert (record.round, record.aggregator, record.seed) == (3, "trimmed_mean(a=1)", 4)
    assert (record.attack_mode, record.deployment, record.r_a) == ("reverse", "targeted", 0.5)

    def mean_mse(samples):
        vals = []
        for s in samples:
            pred = forward_one(cfg.network, params, s.input)
            vals.append(mse(pred, s.label))
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
    record = evaluate(cfg, params, caches[0].samples, val)
    assert (record.round, record.aggregator, record.seed) == (0, "fedavg", 1)
    assert (record.attack_mode, record.deployment, record.r_a) == ("none", "none", 0.0)
    assert record.mse_beta is None
    assert record.mse_gamma is not None
    # a perfect model: evaluate against labels equal to predictions
    perfect = [
        dataclasses.replace(v, label=forward_one(cfg.network, params, v.input))
        for v in val
    ]
    record2 = evaluate(cfg, params, [], perfect)
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


def test_collusion_payload_frozen_across_rounds(monkeypatch):
    plan = AttackPlan(mode="collusion", deployment="widespread", ratio=0.3)
    cfg = desk_config(attack=plan, rounds=2)
    trained = spy_local_train(monkeypatch)
    state, _ = run_round(start_state(cfg), cfg)
    frozen = state.attack_plan.collusion_payload
    assert frozen is not None
    run_round(state, cfg)
    labels = {t: [s.label for r, c in trained if r == t for s in c.samples
                  if s.provenance == "collusion"] for t in (1, 2)}
    assert labels[1] and labels[2]
    for lab in labels[1] + labels[2]:
        assert np.array_equal(lab, frozen)


def test_collusion_payload_stays_open_after_a_round_that_poisons_nothing():
    # a widespread ratio below 1/l_n poisons no sample of any cache
    plan = AttackPlan(mode="collusion", deployment="widespread", ratio=0.05)
    cfg = desk_config(attack=plan, rounds=1, epochs=1)
    state, record = run_round(start_state(cfg), cfg)
    assert state.attack_plan.collusion_payload is None
    assert record.mse_beta is None


def test_llpf_sees_poisoned_caches_and_training_uses_filtered(monkeypatch):
    plan = AttackPlan(mode="reverse", deployment="widespread", ratio=0.3)
    cfg = desk_config(
        attack=plan, rounds=1, epochs=1, cache_len_lo=10, cache_len_hi=12,
        llpf=LlpfConfig(enabled=True),
    )
    seen_poisoned = []
    real_filter = orchestrator.llpf.filter_caches

    def spy_filter(spec, global_params, caches, fcfg, rngs):
        seen_poisoned.extend(sum(1 for s in cache.samples if s.provenance != "authentic")
                             for cache in caches)
        filtered = []
        for out in real_filter(spec, global_params, caches, fcfg, rngs):
            # force a visible replacement so the trained caches are checkable
            trusted = [s for s in out.samples if s.provenance == "authentic"]
            cleaned = [trusted[0] if s.provenance != "authentic" else s for s in out.samples]
            filtered.append(channel.CachedDataset(
                samples=cleaned, sbs_id=out.sbs_id, round_index=out.round_index,
                aggregation_len=out.aggregation_len,
            ))
        return filtered

    monkeypatch.setattr(orchestrator.llpf, "filter_caches", spy_filter)
    trained = spy_local_train(monkeypatch)
    _, record = run_round(start_state(cfg), cfg)
    # the filter ran downstream of poisoning: it saw poisoned samples
    assert sum(seen_poisoned) > 0
    # training and metrics consumed the filtered caches: nothing poisoned left
    assert len(trained) == cfg.n_sbs
    assert all(s.provenance == "authentic" for _, c in trained for s in c.samples)
    assert record.mse_beta is None


def test_exclusion_shrinks_caches_before_topup():
    cfg = desk_config(exclude_fraction=0.25, cache_len_lo=8, cache_len_hi=8, i_min=0)
    _, pre, _ = pretrain(cfg)
    caches, _ = orchestrator._build_round_caches(cfg, 1, None, pre)
    assert len(caches) == cfg.n_sbs
    for cache in caches:
        assert cache.l_n == 6  # 8 - floor(0.25 * 8)
        assert cache.aggregation_len == 6


def test_validation_leak_detected():
    cfg = desk_config()
    _, _, val = pretrain(cfg)
    leaky = channel.CachedDataset(samples=[val[0]], sbs_id=0, round_index=1)
    with pytest.raises(RuntimeError, match="leaked"):
        orchestrator._check_validation_separation([leaky], val)


def test_non_finite_aggregate_aborts_with_diagnostic(monkeypatch):
    cfg = desk_config(rounds=1)
    state = start_state(cfg)

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


def test_overflowing_metric_ends_the_run():
    # a collusion payload of 1e200 is finite, but the MSE against it is not;
    # metrics.csv, whose reader rejects non-finite metrics, never holds it
    payload = np.full((12, 8, 2), 1e200)
    cfg = desk_config(rounds=1, attack=AttackPlan(mode="collusion", deployment="widespread",
                                                  ratio=0.25, collusion_payload=payload))
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match=r"^mse_beta is inf in round 1: "):
            run_experiment(cfg)


@pytest.mark.parametrize("plan", [
    AttackPlan(mode="reverse", deployment="widespread", ratio=0.25),
    # no payload set: round 1 freezes one, and round 2 takes it from the plan
    AttackPlan(mode="collusion", deployment="widespread", ratio=0.25),
], ids=["reverse", "collusion"])
def test_persisted_rounds_rebuild_round_one_caches(monkeypatch, plan):
    cfg = desk_config(persist_caches=True, rounds=2, attack=plan)
    trained = spy_local_train(monkeypatch)
    run_experiment(cfg)
    first, second = ([c for t, c in trained if t == r] for r in (1, 2))
    assert len(first) == len(second) == cfg.n_sbs
    assert any(s.provenance == plan.mode for c in first for s in c.samples)
    for a, b in zip(first, second):
        assert (a.round_index, b.round_index) == (1, 2)
        assert [s.uid for s in a.samples] == [s.uid for s in b.samples]
        assert [s.provenance for s in a.samples] == [s.provenance for s in b.samples]
        assert a.aggregation_len == b.aggregation_len
        for name in ("input", "label"):
            assert (np.stack([getattr(s, name) for s in a.samples]).tobytes()
                    == np.stack([getattr(s, name) for s in b.samples]).tobytes())


def test_state_holds_no_caches():
    assert "caches" not in {f.name for f in dataclasses.fields(FederationState)}
    cfg = desk_config(rounds=2)
    state, _ = run_round(start_state(cfg), cfg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.round_index = 5


@pytest.mark.parametrize("persist", [False, True])
def test_round_samples_are_freed_when_the_round_returns(monkeypatch, persist):
    cfg = desk_config(persist_caches=persist)
    state = start_state(cfg)
    made = []
    real = channel.make_samples

    def spy(*args, **kwargs):
        samples = real(*args, **kwargs)
        made.extend(weakref.ref(s) for s in samples
                    if s.uid >= cfg.pretrain_size + cfg.validation_size)
        return samples

    monkeypatch.setattr(channel, "make_samples", spy)
    state, _ = run_round(state, cfg)
    gc.collect()
    assert made and all(ref() is None for ref in made)


def test_persisted_llpf_warning_names_the_training_round(monkeypatch, caplog):
    cfg = desk_config(persist_caches=True, rounds=2, llpf=LlpfConfig(enabled=True))
    monkeypatch.setattr(llpf, "classify_losses",
                        lambda losses, _cfg: np.ones(len(losses), dtype=bool))
    with caplog.at_level(logging.WARNING, logger="fedcsi.llpf"):
        run_experiment(cfg)
    warned = [r.getMessage() for r in caplog.records if "no trusted samples" in r.message]
    assert warned == [f"llpf: no trusted samples in cache sbs={k} round={t}; leaving it "
                      "unchanged" for t in (1, 2) for k in range(cfg.n_sbs)]


def test_persisted_rounds_draw_fresh_local_shuffles(monkeypatch):
    # round 2 trains round 1's caches again, with round 2's shuffles
    cfg = desk_config(persist_caches=True, rounds=2)
    draws = []
    real = orchestrator.derive_rng

    def spy(seed, *tags):
        draws.append(tags)
        return real(seed, *tags)

    monkeypatch.setattr(orchestrator, "derive_rng", spy)
    run_experiment(cfg)
    shuffles = sorted(tags for tags in draws if tags[0] == "local-train")
    assert shuffles == [("local-train", t, k) for t in (1, 2) for k in range(cfg.n_sbs)]
    assert [tags for tags in draws if tags[0] == "caches"] == [("caches", 1)] * 2


def test_round_caches_take_uids_clear_of_other_rounds_and_server_sets():
    cfg = desk_config(rounds=3)
    _, pre, val = pretrain(cfg)
    server = {s.uid for s in pre} | {s.uid for s in val}
    seen = set()
    for t in (1, 2, 3):
        caches, _ = orchestrator._build_round_caches(cfg, t, None, pre)
        # top-up pads the caches with pre-training samples; the rest are new
        own = {s.uid for c in caches for s in c.samples[:c.aggregation_len]}
        assert own and own.isdisjoint(server) and own.isdisjoint(seen)
        seen |= own


def test_fedbe_round_runs():
    cfg = desk_config(
        rounds=1, aggregator=aggregation.Aggregator(kind="fedbe", fedbe_samples=3,
                                                    fedbe_distill_epochs=2),
    )
    records = run_cached(cfg)
    assert len(records) == 2
    assert records[1].aggregator == "fedbe(S=3)"


def test_fedbe_distillation_takes_the_configs_momentum(monkeypatch):
    cfg = desk_config(rounds=1, momentum=0.5, aggregator=aggregation.Aggregator(
        kind="fedbe", fedbe_samples=3, fedbe_distill_epochs=2))
    seen = {}
    real = aggregation.aggregate

    def spy(updates, aggregator, **kw):
        seen["updates"] = updates
        return real(updates, aggregator, **kw)

    monkeypatch.setattr(aggregation, "aggregate", spy)
    params, pre, val = pretrain(cfg)
    state, _ = run_round(FederationState(0, params, pre, val, None), cfg)

    def distilled(beta1):
        """FedBE by hand: the round's draws and ensemble, distilled at beta1."""
        rng = orchestrator.derive_rng(cfg.master_seed, "aggregate", 1)
        mu, var = aggregation.fed_be_fit(seen["updates"])
        draws = aggregation.fed_be_sample(mu, var, 3, rng)
        inputs = np.stack([s.input for s in pre])
        ensemble = nn.forward_sum(cfg.network, draws, inputs) / 3
        return nn.train_minibatch(
            cfg.network, mu, [(inputs, ensemble, rng)], epochs=2, batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate, beta1=beta1)[0]

    assert np.array_equal(state.global_params, distilled(0.5))
    assert not np.allclose(state.global_params, distilled(0.9))


def test_fedbe_desk_run_does_not_depend_on_the_helper_count(monkeypatch):
    # the benchmark's desk FedBE shape: its 24-sample pre-training and
    # distillation steps span two gradient chunks, and its ensemble of ten
    # draws is shared out by samples, each run under every draw
    from fedcsi.cli import metrics_to_csv
    acts = ("selu", "softplus", "selu")
    layers = tuple(nn.LayerSpec(3, 3, f, a) for f, a in zip((10, 6, 2), acts))
    cfg = ExperimentConfig(
        n_sbs=3, rounds=2, cache_len_lo=6, cache_len_hi=8, i_min=8, pretrain_size=24,
        validation_size=8, pretrain_epochs=2, epochs=1, batch_size=64, learning_rate=2e-3,
        network=nn.NetworkSpec(layers=layers, input_shape=(36, 10, 2)),
        channel=channel.ChannelConfig(grid_height=36, grid_width=10, path_count=12,
                                      max_delay_taps=1, doppler_spread=0.02,
                                      pilot_noise_stddev=0.15, gain_scale=3.0),
        attack=AttackPlan(mode="collusion", deployment="targeted", ratio=0.2, target_sbs=0),
        aggregator=aggregation.Aggregator(kind="fedbe", fedbe_samples=10, fedbe_distill_epochs=2),
        llpf=LlpfConfig(enabled=True), master_seed=0,
    )
    csvs = []
    try:
        for count in (0, 1):
            monkeypatch.setattr(engine, "_helper_count", lambda count=count: count)
            csvs.append(metrics_to_csv(orchestrator.run_experiment(cfg)))
            assert len(engine._pool) >= count
    finally:
        engine._stop_helpers()
    assert csvs[1] == csvs[0]
