import numpy as np
import pytest

from fedcsi import attacks, channel, nn
from fedcsi.attacks import AttackPlan
from fedcsi.seeds import derive_rng


def make_caches(lengths, seed=0, **cfg_kw):
    base = dict(
        grid_height=8, grid_width=6, path_count=3, max_delay_taps=2,
        doppler_spread=0.02, pilot_noise_stddev=0.05,
        pilot_rows_stride=2, pilot_cols_stride=2,
    )
    base.update(cfg_kw)
    cfg = channel.ChannelConfig(**base)
    return channel.generate_round_caches(cfg, lengths, derive_rng(seed, "atk-caches"))


# --------------------------- reverse_label ---------------------------------

def test_reverse_label_hand_values():
    label = np.array([1.0, 2.0, 3.0])
    assert np.allclose(attacks.reverse_label(label), [3.0, 2.0, 1.0])


def test_reverse_label_constant_fixed_point():
    label = np.full((3, 2, 2), 1.7)
    assert np.allclose(attacks.reverse_label(label), label, rtol=1e-15)


def test_reverse_label_involution_and_mean():
    rng = np.random.default_rng(1)
    label = rng.normal(size=(6, 4, 2))
    twice = attacks.reverse_label(attacks.reverse_label(label))
    assert np.allclose(twice, label, rtol=0, atol=4 * np.spacing(np.abs(label).max()))
    assert attacks.reverse_label(label).mean() == pytest.approx(label.mean(), rel=1e-12)


# --------------------------- collude_label ---------------------------------

def test_collusion_labels_identical():
    caches = make_caches([10])
    plan = AttackPlan(mode="collusion", deployment="widespread", ratio=0.4)
    out = attacks.poison_caches(caches, plan, derive_rng(2, "collude"))
    poisoned = [s for s in out[0].samples if s.provenance == "collusion"]
    assert len(poisoned) == 4
    for s in poisoned[1:]:
        assert np.array_equal(s.label, poisoned[0].label)


def test_collude_label_own_payload_keeps_content():
    caches = make_caches([3])
    s = caches[0].samples[0]
    out = attacks.collude_label(s, s.label)
    assert np.array_equal(out.label, s.label)
    assert np.array_equal(out.input, s.input)
    assert out.provenance == "collusion"
    assert s.provenance == "authentic"  # original untouched


def test_collude_label_shape_mismatch():
    caches = make_caches([1])
    with pytest.raises(ValueError):
        attacks.collude_label(caches[0].samples[0], np.zeros((2, 2, 2)))


def test_colluded_batch_gradient_points_toward_payload():
    # linear 1-parameter model at w=0, unit inputs, payload 5: the hand value
    # of the batch gradient is -10 * selu'(0) for the kernel coordinate
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(1, 1, 1, "selu"),), input_shape=(1, 1, 1))
    p = np.zeros(2)
    xs = np.ones((2, 1, 1, 1))
    ys = np.full((2, 1, 1, 1), 5.0)
    grad, _ = nn.batch_gradient(spec, p, xs, ys)
    act_slope = nn.SELU_LAMBDA * nn.SELU_ALPHA  # selu' at 0 from the else branch
    assert grad[0] == pytest.approx(-10.0 * act_slope / 1.0, rel=1e-12)
    assert grad[0] < 0  # a gradient step moves w toward fitting the payload


# --------------------------- outdate_label ---------------------------------

def test_outdate_label_single_pool_entry():
    caches = make_caches([2])
    s = caches[0].samples[0]
    pool = [channel.lagged_label(s, 2.0)]
    out = attacks.outdate_label(s, pool, derive_rng(3, "od"))
    assert np.array_equal(out.label, pool[0])
    assert out.provenance == "outdate"


def test_outdate_label_membership_and_empty_pool():
    caches = make_caches([2])
    s = caches[0].samples[0]
    pool = [channel.lagged_label(s, k) for k in (1.0, 2.0, 3.0)]
    out = attacks.outdate_label(s, pool, derive_rng(4, "od2"))
    assert any(np.array_equal(out.label, entry) for entry in pool)
    with pytest.raises(ValueError):
        attacks.outdate_label(s, [], derive_rng(4, "od3"))


def test_outdate_zero_lag_keeps_labels():
    caches = make_caches([100])
    plan = AttackPlan(mode="outdate", ratio=0.5, outdate_lag=0.0)
    out = attacks.poison_caches(caches, plan, derive_rng(5, "od4"))
    errs = [
        np.mean((new.label - old.label) ** 2)
        for old, new in zip(caches[0].samples, out[0].samples)
        if new.provenance == "outdate"
    ]
    assert len(errs) == 50
    assert max(errs) == 0.0


# --------------------------- poison_caches ---------------------------------

def test_ratio_zero_is_noop():
    caches = make_caches([4, 4])
    plan = AttackPlan(mode="reverse", ratio=0.0)
    out = attacks.poison_caches(caches, plan, derive_rng(6, "noop"))
    assert out is caches


def test_widespread_counts():
    caches = make_caches([10, 10, 10])
    plan = AttackPlan(mode="reverse", ratio=0.2)
    out = attacks.poison_caches(caches, plan, derive_rng(7, "ws"))
    for cache in out:
        poisoned = [s for s in cache.samples if s.provenance != "authentic"]
        assert len(poisoned) == 2  # floor(0.2 * 10)
        assert cache.l_n == 10


def test_targeted_concentrates_on_one_cache():
    caches = make_caches([10, 10, 10, 10])
    plan = AttackPlan(mode="reverse", deployment="targeted", ratio=0.3, target_sbs=2)
    out = attacks.poison_caches(caches, plan, derive_rng(8, "tg"))
    for cache in out:
        poisoned = [s for s in cache.samples if s.provenance != "authentic"]
        if cache.sbs_id == 2:
            assert len(poisoned) == 3  # floor(0.3 * 40 / 4)
        else:
            assert len(poisoned) == 0
            assert cache is caches[cache.sbs_id]


def test_targeted_count_capped_at_cache_length():
    caches = make_caches([2, 30, 30])
    plan = AttackPlan(mode="reverse", deployment="targeted", ratio=0.5, target_sbs=0)
    out = attacks.poison_caches(caches, plan, derive_rng(9, "cap"))
    poisoned = [s for s in out[0].samples if s.provenance != "authentic"]
    assert len(poisoned) == 2  # floor(0.5 * 62 / 3) = 10, capped at 2


def test_poisoning_preserves_counts_inputs_and_originals():
    caches = make_caches([12, 9])
    plan = AttackPlan(mode="reverse", ratio=0.3)
    out = attacks.poison_caches(caches, plan, derive_rng(10, "acct"))
    for before, after in zip(caches, out):
        assert after.l_n == before.l_n
        assert after.aggregation_len == before.aggregation_len
        for s_old, s_new in zip(before.samples, after.samples):
            assert np.array_equal(s_old.input, s_new.input)  # inputs never modified
            assert s_old.provenance == "authentic"  # original objects untouched
            if s_new.provenance != "authentic":
                assert not np.array_equal(s_old.label, s_new.label)


def test_invalid_plans_rejected():
    caches = make_caches([4])
    with pytest.raises(ValueError):
        attacks.poison_caches(caches, AttackPlan(mode="nope", ratio=0.1), derive_rng(0))
    with pytest.raises(ValueError):
        attacks.poison_caches(
            caches, AttackPlan(mode="reverse", deployment="targeted", ratio=0.1, target_sbs=5),
            derive_rng(0),
        )
    with pytest.raises(ValueError):
        AttackPlan(mode="reverse", ratio=1.5).validate()
