import dataclasses
import logging
import math

import numpy as np
import pytest

from conftest import desk_spec, forward_one

from fedcsi import channel, engine, llpf, nn
from fedcsi.attacks import AttackPlan, poison_caches, reverse_label
from fedcsi.llpf import LlpfConfig
from fedcsi.seeds import derive_rng


def erf_series(x):
    """Independent erf oracle: Maclaurin series with enough terms to converge."""
    total, term = 0.0, x
    for n in range(0, 80):
        if n > 0:
            term *= -x * x / n
        total += term / (2 * n + 1)
    return 2.0 / math.sqrt(math.pi) * total


def zero_model(h=4, w=3):
    # selu output layer with all-zero params predicts exactly zero
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(3, 3, 2, "selu"),), input_shape=(h, w, 2))
    return spec, np.zeros(nn.param_count(spec))


def cache_with_loss_values(values, h=4, w=3):
    """Against the zero model, a constant label of value v has loss v^2."""
    samples = [
        channel.ChannelSample(
            input=np.zeros((h, w, 2)), label=np.full((h, w, 2), math.sqrt(v)), uid=i
        )
        for i, v in enumerate(values)
    ]
    return channel.CachedDataset(samples=samples, sbs_id=0, round_index=1)


# --------------------------- per_sample_losses ------------------------------

def test_per_sample_losses_match_loop_oracle():
    cfg = channel.ChannelConfig(
        grid_height=6, grid_width=5, path_count=3, max_delay_taps=2,
        doppler_spread=0.02, pilot_noise_stddev=0.1,
        pilot_rows_stride=2, pilot_cols_stride=2,
    )
    rng = derive_rng(0, "llpf-losses")
    cache = channel.generate_round_caches(cfg, [7], rng)[0]
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(3, 3, 2, "selu"),), input_shape=(6, 5, 2))
    params = nn.init_params(spec, 3)
    losses = llpf.per_sample_losses(spec, params, cache.samples)
    assert losses.shape == (7,)
    for i, s in enumerate(cache.samples):
        pred = forward_one(spec, params, s.input)
        manual = 0.0
        for p, y in zip(pred.ravel(), s.label.ravel()):
            manual += (p - y) ** 2
        assert losses[i] == pytest.approx(manual / pred.size, rel=1e-12)


def test_each_distinct_sample_is_scored_once_and_losses_keep_input_order(monkeypatch):
    cfg = channel.ChannelConfig(grid_height=6, grid_width=5, path_count=3, max_delay_taps=2,
                                pilot_rows_stride=2, pilot_cols_stride=2)
    a, b, c = channel.make_samples(cfg, derive_rng(1, "distinct"), 3)
    # poisoned: b's uid and input, another label; a distinct sample all the same
    poisoned_b = dataclasses.replace(b, label=reverse_label(b.label), provenance="reverse",
                                     fading=None)
    samples = [a, b, a, poisoned_b, c, b, a, poisoned_b]
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(3, 3, 2, "selu"),), input_shape=(6, 5, 2))
    params = nn.init_params(spec, 4)
    want = [llpf.per_sample_losses(spec, params, [s])[0] for s in samples]
    calls = []
    forward = nn.forward_batch

    def counted(spec, params, xs):
        calls.append(xs.copy())
        return forward(spec, params, xs)

    monkeypatch.setattr(nn, "forward_batch", counted)
    got = llpf.per_sample_losses(spec, params, samples)
    assert got.tobytes() == np.array(want).tobytes()
    assert got[1] != got[3]
    assert len(calls) == 1
    assert calls[0].tobytes() == np.stack([s.input for s in (a, b, poisoned_b, c)]).tobytes()


def test_perfect_prediction_gives_zero_loss():
    spec, params = zero_model()
    cache = cache_with_loss_values([0.0, 2.0])
    losses = llpf.per_sample_losses(spec, params, cache.samples)
    assert losses[0] == 0.0
    assert losses[1] == pytest.approx(2.0, rel=1e-12)


# --------------------------- trunc_gauss_cdf --------------------------------

def test_cdf_at_mu_is_half():
    for mu, k in ((0.5, 0.6), (2.0, 1.3), (7.0, 0.1)):
        assert llpf.trunc_gauss_cdf(mu, mu, k) == pytest.approx(0.5, abs=1e-15)


def test_cdf_limits_and_monotonicity():
    assert llpf.trunc_gauss_cdf(1e9, 1.0, 0.6) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0.0, 10.0, 50)
    vals = [llpf.trunc_gauss_cdf(float(x), 1.5, 0.6) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cdf_example_against_series_erf_oracle():
    arg = 0.6 / math.sqrt(2.0) * (3.0 - 1.0)
    expected = 0.5 + 0.5 * erf_series(arg)
    got = llpf.trunc_gauss_cdf(3.0, 1.0, 0.6)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.8851, abs=5e-4)


def test_cdf_rejects_degenerate_scale():
    with pytest.raises(ValueError, match="degenerate"):
        llpf.trunc_gauss_cdf(1.0, 0.0, 0.6)
    with pytest.raises(ValueError, match="degenerate"):
        llpf.trunc_gauss_cdf(1.0, -2.0, 0.6)


# --------------------------- classification ---------------------------------

def test_classification_is_a_loss_threshold():
    # untrusted iff loss > mu + erfinv(2 theta - 1) * sqrt(2) / (k * mu)
    cfg = LlpfConfig(theta=0.95, k_sigma=0.6)
    rng = np.random.default_rng(1)
    losses = rng.uniform(0.1, 8.0, size=200)
    mask = llpf.classify_losses(losses, cfg)
    mu = float(np.median(losses))
    lo, hi = 0.0, 3.0
    for _ in range(200):  # bisection for erfinv(0.9)
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < 0.9:
            lo = mid
        else:
            hi = mid
    threshold = mu + lo * math.sqrt(2.0) / (0.6 * mu)
    assert np.array_equal(mask, losses > threshold)


def test_all_equal_losses_trusted():
    cfg = LlpfConfig(theta=0.95)
    mask = llpf.classify_losses(np.full(10, 3.3), cfg)
    assert not mask.any()


def test_zero_losses_degenerate_to_trusted():
    cfg = LlpfConfig(theta=0.95)
    assert not llpf.classify_losses(np.zeros(5), cfg).any()


def test_config_validation():
    with pytest.raises(ValueError):
        LlpfConfig(theta=1.0)
    with pytest.raises(ValueError):
        LlpfConfig(k_sigma=0.0)


# --------------------------- filter_caches ----------------------------------

def filter_one(spec, params, cache, cfg, rng):
    """One cache's `filter_caches`."""
    out, = llpf.filter_caches(spec, params, [cache], cfg, [rng])
    return out


def test_filter_replaces_single_outlier():
    spec, params = zero_model()
    cache = cache_with_loss_values([1.0] * 9 + [100.0])
    cfg = LlpfConfig(theta=0.95, k_sigma=0.6)
    # hand check: mu = 1, cdf(100) = 0.5 + 0.5 erf(0.6*99/sqrt(2)) ~ 1 > 0.95
    assert llpf.trunc_gauss_cdf(100.0, 1.0, 0.6) > 0.999
    assert llpf.trunc_gauss_cdf(1.0, 1.0, 0.6) == pytest.approx(0.5)
    out = filter_one(spec, params, cache, cfg, derive_rng(2, "filt"))
    assert out.l_n == 10
    losses = llpf.per_sample_losses(spec, params, out.samples)
    assert np.allclose(losses, 1.0)
    assert out.samples[9].uid in {s.uid for s in cache.samples[:9]}


def test_filter_noop_returns_same_object():
    spec, params = zero_model()
    cache = cache_with_loss_values([2.0] * 6)
    out = filter_one(spec, params, cache, LlpfConfig(), derive_rng(3, "noop"))
    assert out is cache


def test_filter_empty_trusted_warns_and_keeps_cache(caplog):
    spec, params = zero_model()
    # equal losses with theta below 1/2 classify everything untrusted
    cache = cache_with_loss_values([4.0] * 5)
    cfg = LlpfConfig(theta=0.3)
    with caplog.at_level(logging.WARNING):
        out = filter_one(spec, params, cache, cfg, derive_rng(4, "warn"))
    assert out is cache
    assert any("no trusted samples" in r.message for r in caplog.records)


def test_filter_preserves_length_and_draws_from_trusted():
    spec, params = zero_model()
    values = [0.5] * 12 + [50.0] * 4
    cache = cache_with_loss_values(values)
    out = filter_one(spec, params, cache, LlpfConfig(theta=0.9), derive_rng(5, "draws"))
    assert out.l_n == len(values)
    trusted_uids = {s.uid for s in cache.samples[:12]}
    for i in range(12, 16):
        assert out.samples[i].uid in trusted_uids
    # original cache untouched
    assert cache.samples[12].uid == 12


def _poisoned_caches():
    """Four desk-grid caches of 14-17 samples, a quarter of each reversed,
    and a model that flags some of them: 62 samples in all, a desk-spec
    forward of more than three 5 * 2^20 multiply-adds, so two helpers take a
    part each, and the parts and passes do not end where the caches do."""
    cfg = channel.ChannelConfig(grid_height=36, grid_width=10, max_delay_taps=1,
                                doppler_spread=0.02, pilot_noise_stddev=0.15,
                                gain_scale=3.0)
    caches = channel.generate_round_caches(cfg, [14, 17, 15, 16], derive_rng(6, "caches"),
                                           round_index=1)
    caches = poison_caches(caches, AttackPlan(mode="reverse", deployment="widespread",
                                              ratio=0.25), derive_rng(6, "poison"))
    spec = desk_spec()
    return spec, nn.init_params(spec, 6), caches


@pytest.mark.parametrize("count", [0, 1, 2])
def test_filter_caches_gives_each_cache_what_it_gets_alone(helpers, count):
    spec, params, caches = _poisoned_caches()
    cfg = LlpfConfig(theta=0.9, k_sigma=0.6)
    helpers(0)
    alone = [filter_one(spec, params, cache, cfg, derive_rng(6, "llpf", 1, cache.sbs_id))
             for cache in caches]
    helpers(count)
    together = llpf.filter_caches(spec, params, caches, cfg,
                                  [derive_rng(6, "llpf", 1, c.sbs_id) for c in caches])
    assert len(engine._pool) >= count
    replaced = []
    for cache, want, got in zip(caches, alone, together):
        # the same replaced positions, filled with the same sample objects
        assert got.l_n == want.l_n
        assert all(a is b for a, b in zip(got.samples, want.samples))
        replaced.append(sum(a is not b for a, b in zip(cache.samples, got.samples)))
    assert sum(n > 0 for n in replaced) >= 2, replaced


def test_filter_caches_rejects_an_empty_cache():
    spec, params = zero_model()
    caches = [cache_with_loss_values([1.0] * 3), channel.CachedDataset(samples=[], sbs_id=1)]
    with pytest.raises(ValueError, match="empty cache"):
        llpf.filter_caches(spec, params, caches, LlpfConfig(),
                           [derive_rng(7, "a"), derive_rng(7, "b")])


def test_filter_caches_warns_for_the_cache_with_nothing_trusted(caplog):
    # theta below 1/2 distrusts every loss from the median up: the first
    # cache keeps its four low losses, the second has only equal ones
    spec, params = zero_model()
    first = cache_with_loss_values([1.0] * 4 + [4.0] * 5)
    second = channel.CachedDataset(samples=cache_with_loss_values([4.0] * 5).samples,
                                   sbs_id=3, round_index=1)
    with caplog.at_level(logging.WARNING):
        out = llpf.filter_caches(spec, params, [first, second], LlpfConfig(theta=0.3),
                                 [derive_rng(8, "a"), derive_rng(8, "b")])
    assert out[1] is second
    assert out[0] is not first and out[0].l_n == first.l_n
    warnings = [r.message for r in caplog.records if "no trusted samples" in r.message]
    assert len(warnings) == 1 and "sbs=3" in warnings[0]
