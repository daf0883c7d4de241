import dataclasses
import tracemalloc

import numpy as np
import pytest

from fedcsi import channel
from fedcsi.channel import ChannelConfig, ChannelSample, FadingParams
from fedcsi.seeds import derive_rng


def small_cfg(**kw):
    base = dict(
        grid_height=12, grid_width=8, path_count=4, max_delay_taps=3,
        doppler_spread=0.02, pilot_noise_stddev=0.1,
        pilot_rows_stride=2, pilot_cols_stride=2,
    )
    base.update(kw)
    return ChannelConfig(**base)


def synthesize(cfg, rng):
    return channel.channel_grid(channel.draw_fading(cfg, rng), cfg.grid_height, cfg.grid_width)


# --------------------------- synthesis ------------------------------------

def test_single_static_path_gives_constant_grid():
    fading = FadingParams(
        gains=np.array([1.0 + 0.0j]), delays=np.array([0]), dopplers=np.array([0.0])
    )
    grid = channel.channel_grid(fading, 6, 5)
    assert np.allclose(grid, 1.0 + 0.0j, atol=1e-15)


def textbook_grid(fading, height, width, time_offset=0.0):
    """H[f, t] = sum_p a_p exp(-j2pi f tau_p / H) exp(j2pi nu_p (t + offset)),
    each steering matrix computed whole."""
    f = np.arange(height)[:, None]
    t = np.arange(width)[:, None] + time_offset
    steer_f = np.exp(-2j * np.pi * f * fading.delays[None, :] / height)
    steer_t = np.exp(2j * np.pi * t * fading.dopplers[None, :])
    return (steer_f * fading.gains) @ steer_t.T


@pytest.mark.parametrize("cfg", [
    pytest.param(ChannelConfig(), id="default-72x14"),
    pytest.param(ChannelConfig(grid_height=36, grid_width=10, max_delay_taps=1), id="desk-36x10"),
    pytest.param(small_cfg(), id="small-12x8"),
])
def test_grid_and_lagged_label_are_the_formula_bit_for_bit_for_every_delay(cfg):
    # the delay steering comes from a cached table of the integer delays
    rng = derive_rng(3, "textbook")
    h, w = cfg.grid_height, cfg.grid_width
    sample, = channel.make_samples(cfg, rng, 1)
    for taps in range(cfg.max_delay_taps + 1):
        delays = rng.integers(0, taps + 1, size=cfg.path_count)
        delays[0] = taps
        fading = dataclasses.replace(channel.draw_fading(cfg, rng), delays=delays)
        grid = channel.channel_grid(fading, h, w)
        assert grid.tobytes() == textbook_grid(fading, h, w).tobytes()
        lagged = textbook_grid(fading, h, w, time_offset=2.5)
        label = channel.lagged_label(dataclasses.replace(sample, fading=fading), 2.5)
        assert label.shape == (h, w, 2)
        assert label.tobytes() == np.stack([lagged.real, lagged.imag], axis=-1).tobytes()


def test_channel_power_montecarlo():
    cfg = small_cfg()
    rng = derive_rng(0, "power-check")
    power = np.mean([
        np.mean(np.abs(synthesize(cfg, rng)) ** 2) for _ in range(1000)
    ])
    assert abs(power - 1.0) < 0.1


def test_synthesize_deterministic_given_seed():
    cfg = small_cfg()
    a = synthesize(cfg, derive_rng(7, "chan"))
    b = synthesize(cfg, derive_rng(7, "chan"))
    assert np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(grid_height=1, pilot_rows_stride=2)
    with pytest.raises(ValueError):
        small_cfg(path_count=0)
    with pytest.raises(ValueError):
        small_cfg(pilot_noise_stddev=-1.0)


# --------------------------- samples --------------------------------------

def test_split_merge_roundtrip():
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    split = channel.split_complex(grid)
    assert np.array_equal(split[..., 0], grid.real)
    assert np.array_equal(split[..., 1], grid.imag)


def one_sample_oracle(cfg, rng, uid):
    """A sample made alone, by the per-sample formula: its fading draws,
    then its pilot noise, with the grid and interpolation on its own."""
    fading = channel.draw_fading(cfg, rng)
    grid = textbook_grid(fading, cfg.grid_height, cfg.grid_width)
    rows = np.arange(0, cfg.grid_height, cfg.pilot_rows_stride)
    cols = np.arange(0, cfg.grid_width, cfg.pilot_cols_stride)
    noise = rng.normal(scale=cfg.pilot_noise_stddev / np.sqrt(2.0), size=(len(rows), len(cols), 2))
    observed = grid[np.ix_(rows, cols)] + noise[..., 0] + 1j * noise[..., 1]
    _, _, row_op, col_op = channel._pilot_layout(
        cfg.grid_height, cfg.grid_width, cfg.pilot_rows_stride, cfg.pilot_cols_stride)
    estimate = row_op @ observed @ col_op.T
    split = lambda z: np.stack([z.real, z.imag], axis=-1)  # noqa: E731
    return ChannelSample(input=split(estimate), label=split(grid), uid=uid, fading=fading)


@pytest.mark.parametrize("cfg", [
    pytest.param(ChannelConfig(), id="default-72x14"),
    pytest.param(ChannelConfig(grid_height=36, grid_width=10, max_delay_taps=1), id="desk-36x10"),
    pytest.param(small_cfg(path_count=1), id="one-path"),
    pytest.param(small_cfg(max_delay_taps=0), id="no-delay"),
    pytest.param(small_cfg(grid_height=13, grid_width=7, pilot_rows_stride=3,
                           pilot_cols_stride=1), id="strides-3-1-on-13x7"),
])
def test_make_samples_is_the_one_sample_formula_bit_for_bit(cfg):
    # blocks and stacking change nothing: every count gives each sample the
    # bytes it gets alone, and leaves the stream where one at a time would
    for count in (0, 1, 5, 2 * channel._block_size(cfg) + 3):
        got_rng, want_rng = derive_rng(21, "oracle"), derive_rng(21, "oracle")
        got = channel.make_samples(cfg, got_rng, count, uid_start=40)
        want = [one_sample_oracle(cfg, want_rng, 40 + i) for i in range(count)]
        assert len(got) == count
        for g, w in zip(got, want):
            assert g.input.tobytes() == w.input.tobytes()
            assert g.label.tobytes() == w.label.tobytes()
            assert (g.uid, g.provenance) == (w.uid, "authentic")
            for name in ("gains", "delays", "dopplers"):
                assert getattr(g.fading, name).tobytes() == getattr(w.fading, name).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()


def test_make_samples_works_in_bounded_space():
    # a paper-scale round at the default grid; the unblocked form held
    # about 71 MB of temporaries here
    cfg, count = ChannelConfig(), 2300
    channel.make_samples(cfg, derive_rng(0, "warm-up"), 1)
    tracemalloc.start()
    try:
        samples = channel.make_samples(cfg, derive_rng(22, "bound"), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(s.input.nbytes + s.label.nbytes + s.fading.gains.nbytes
                  + s.fading.delays.nbytes + s.fading.dopplers.nbytes for s in samples)
    assert len(samples) > channel._block_size(cfg)
    assert peak - outputs <= 8 << 20


def test_make_samples_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count"):
        channel.make_samples(small_cfg(), derive_rng(0), -1)


def test_noiseless_dense_pilots_input_equals_label():
    cfg = small_cfg(pilot_noise_stddev=0.0, pilot_rows_stride=1, pilot_cols_stride=1)
    s, = channel.make_samples(cfg, derive_rng(1, "dense"), 1)
    assert np.allclose(s.input, s.label, atol=1e-12)
    assert s.provenance == "authentic"


def test_pilot_layout_is_shared_read_only_and_keyed_by_shape():
    coarse, fine = small_cfg(), small_cfg(pilot_rows_stride=3, pilot_cols_stride=1)
    first, = channel.make_samples(coarse, derive_rng(2, "layout"), 1)
    channel.make_samples(fine, derive_rng(2, "layout"), 1)
    again, = channel.make_samples(coarse, derive_rng(2, "layout"), 1)
    assert np.array_equal(first.input, again.input)
    layout = channel._pilot_layout(12, 8, 2, 2)
    assert layout is channel._pilot_layout(12, 8, 2, 2)
    assert not any(array.flags.writeable for array in layout)


def test_sample_mse_within_noise_budget():
    # noisy strided pilots: reconstruction error positive but bounded by 3 sigma^2;
    # the grid is tall enough that stride-2 interpolation error stays small
    cfg = small_cfg(
        grid_height=48, pilot_noise_stddev=0.1, max_delay_taps=2, doppler_spread=0.01
    )
    rng = derive_rng(2, "mse-budget")
    errs = [np.mean((s.input - s.label) ** 2) for s in channel.make_samples(cfg, rng, 200)]
    mean_err = float(np.mean(errs))
    assert 0.0 < mean_err <= 3 * 0.1 ** 2


def test_samples_have_finite_values_and_variety():
    cfg = small_cfg()
    rng = derive_rng(3, "variety")
    means = []
    for s in channel.make_samples(cfg, rng, 100):
        assert np.all(np.isfinite(s.input)) and np.all(np.isfinite(s.label))
        means.append(float(np.mean(s.label)))
    assert len(set(means)) > 1


def test_samples_are_frozen():
    s, = channel.make_samples(small_cfg(), derive_rng(2, "frozen"), 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.provenance = "reverse"
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.label = np.zeros_like(s.label)


def test_lagged_label_zero_lag_identity():
    cfg = small_cfg()
    rng = derive_rng(4, "lag")
    for s in channel.make_samples(cfg, rng, 20):
        assert np.array_equal(channel.lagged_label(s, 0.0), s.label)


def test_lagged_label_correlation_decays():
    cfg = small_cfg(doppler_spread=0.05)
    rng = derive_rng(5, "lag-decay")
    small, large = [], []
    for s in channel.make_samples(cfg, rng, 50):
        small.append(np.mean((channel.lagged_label(s, 0.5) - s.label) ** 2))
        large.append(np.mean((channel.lagged_label(s, 40.0) - s.label) ** 2))
    assert np.mean(small) < np.mean(large)


def test_lagged_label_requires_fading():
    s = ChannelSample(input=np.zeros((2, 2, 2)), label=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        channel.lagged_label(s, 1.0)


# --------------------------- caches ----------------------------------------

def test_generate_round_caches_lengths_and_disjoint():
    cfg = small_cfg()
    caches = channel.generate_round_caches(cfg, [3, 5], derive_rng(6, "caches"))
    assert [c.l_n for c in caches] == [3, 5]
    uids = [s.uid for c in caches for s in c.samples]
    assert uids == list(range(8))
    assert [c.aggregation_len for c in caches] == [3, 5]


def test_generate_round_caches_deterministic():
    cfg = small_cfg()
    a = channel.generate_round_caches(cfg, [2, 2], derive_rng(8, "det"))
    b = channel.generate_round_caches(cfg, [2, 2], derive_rng(8, "det"))
    for ca, cb in zip(a, b):
        for sa, sb in zip(ca.samples, cb.samples):
            assert np.array_equal(sa.input, sb.input)
            assert np.array_equal(sa.label, sb.label)


def test_topup_noop_when_long_enough():
    cfg = small_cfg()
    cache = channel.generate_round_caches(cfg, [5], derive_rng(9, "t1"))[0]
    out = channel.topup_with_pretrain(cache, [], 4, derive_rng(9, "t2"))
    assert out is cache


def test_topup_fills_to_minimum():
    cfg = small_cfg()
    cache = channel.generate_round_caches(cfg, [3], derive_rng(10, "t3"))[0]
    pretrain = channel.make_samples(cfg, derive_rng(10, "t4"), 10, uid_start=1000)
    out = channel.topup_with_pretrain(cache, pretrain, 8, derive_rng(10, "t5"))
    assert out.l_n == 8
    assert out.aggregation_len == 3
    appended = out.samples[3:]
    assert all(s.provenance == "authentic" for s in appended)
    assert len({s.uid for s in appended}) == 5  # without replacement here


def test_topup_with_replacement_when_pretrain_small():
    cfg = small_cfg()
    cache = channel.CachedDataset(samples=[], sbs_id=0, round_index=0)
    pretrain = channel.make_samples(cfg, derive_rng(11, "t6"), 1, uid_start=50)
    out = channel.topup_with_pretrain(cache, pretrain, 6, derive_rng(11, "t7"))
    assert out.l_n == 6
    assert all(s.uid == 50 for s in out.samples)


def test_gain_scale_sets_channel_power():
    cfg = small_cfg(gain_scale=3.0)
    rng = derive_rng(14, "gain")
    power = np.mean([
        np.mean(np.abs(synthesize(cfg, rng)) ** 2) for _ in range(500)
    ])
    assert abs(power - 9.0) < 0.9
    with pytest.raises(ValueError):
        small_cfg(gain_scale=0.0)
