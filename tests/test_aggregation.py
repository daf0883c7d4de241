import math

import numpy as np
import pytest

from fedcsi import aggregation as agg
from fedcsi import channel, nn
from fedcsi.aggregation import Aggregator, WeightUpdate
from fedcsi.seeds import derive_rng


def updates_from(rows, lens):
    return [
        WeightUpdate(params=np.asarray(r, dtype=np.float64), l_n=int(l), sbs_id=i)
        for i, (r, l) in enumerate(zip(rows, lens))
    ]


def random_instance(rng, n=None, j=None, lo=-2.0, hi=2.0):
    n = n or int(rng.integers(2, 10))
    j = j or int(rng.integers(1, 51))
    rows = rng.uniform(lo, hi, size=(n, j))
    lens = rng.integers(1, 300, size=n)
    return updates_from(rows, lens)


# --------------------------- brute-force oracles ---------------------------

def fed_avg_oracle(updates):
    total = sum(u.l_n for u in updates)
    out = np.zeros_like(updates[0].params)
    for u in updates:
        out += (u.l_n / total) * u.params
    return out


def trimmed_mean_oracle(updates, a):
    j = updates[0].params.size
    out = np.zeros(j)
    for coord in range(j):
        pairs = sorted((u.params[coord], u.l_n) for u in updates)
        survivors = pairs[a:len(pairs) - a] if a else pairs
        wsum = sum(l for _, l in survivors)
        out[coord] = sum(v * l for v, l in survivors) / wsum
    return out


def fed_median_oracle(updates):
    j = updates[0].params.size
    out = np.zeros(j)
    for coord in range(j):
        vals = sorted(u.params[coord] for u in updates)
        n = len(vals)
        mid = n // 2
        out[coord] = vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])
    return out


def sto_median_oracle(updates, eps=1e-8):
    """Step-by-step scalar transcription of the stochastic-median procedure."""
    n = len(updates)
    j = updates[0].params.size
    lens = [u.l_n for u in updates]
    out = []
    for coord in range(j):
        col = [float(u.params[coord]) for u in updates]
        transformed = []
        for w in col:
            if w > 0.0:
                transformed.append(-math.log(w + eps))
            else:
                transformed.append(math.log(abs(w - eps)))
        srt = sorted(transformed)
        mid = n // 2
        mu = srt[mid] if n % 2 else 0.5 * (srt[mid - 1] + srt[mid])
        mean = sum(transformed) / n
        sigma = max(math.sqrt(sum((t - mean) ** 2 for t in transformed) / n), eps)
        dens = [
            math.exp(-((t - mu) ** 2) / (2.0 * sigma * sigma)) / (sigma * math.sqrt(2.0 * math.pi))
            for t in transformed
        ]
        scaled = [d * l for d, l in zip(dens, lens)]
        total = sum(scaled)
        probs = [s / total for s in scaled]
        out.append(sum(p * w for p, w in zip(probs, col)))
    return np.array(out)


# --------------------------- fed_avg ----------------------------------------

def test_fed_avg_identical_updates_exact():
    w = np.array([0.1, -0.7, 3.3])
    ups = updates_from([w, w, w], [3, 7, 190])
    assert np.array_equal(agg.fed_avg(ups), w)


def test_fed_avg_hand_value():
    ups = updates_from([[0.0], [3.0]], [1, 2])
    assert agg.fed_avg(ups)[0] == pytest.approx(2.0, abs=1e-15)


def test_fed_avg_matches_oracle():
    rng = np.random.default_rng(100)
    for _ in range(50):
        ups = random_instance(rng, n=5)
        assert np.allclose(agg.fed_avg(ups), fed_avg_oracle(ups), atol=1e-12, rtol=0)


def test_fed_avg_errors():
    with pytest.raises(ValueError):
        agg.fed_avg([])
    with pytest.raises(ValueError):
        agg.fed_avg(updates_from([[1.0, 2.0], [1.0]], [1, 1]))


# --------------------------- trimmed_mean -----------------------------------

def test_trimmed_mean_a0_is_fed_avg_bitwise():
    rng = np.random.default_rng(101)
    for _ in range(20):
        ups = random_instance(rng)
        assert np.array_equal(agg.trimmed_mean(ups, 0), agg.fed_avg(ups))


def test_trimmed_mean_hand_value():
    ups = updates_from([[1.0], [2.0], [3.0], [4.0], [100.0]], [5, 5, 5, 5, 5])
    assert agg.trimmed_mean(ups, 1)[0] == pytest.approx(3.0, abs=1e-14)


def test_trimmed_mean_matches_oracle():
    rng = np.random.default_rng(102)
    for _ in range(50):
        ups = random_instance(rng, n=7)
        got = agg.trimmed_mean(ups, 2)
        assert np.allclose(got, trimmed_mean_oracle(ups, 2), atol=1e-12, rtol=0)


def test_trimmed_mean_rejects_excessive_trim():
    ups = updates_from([[1.0], [2.0], [3.0]], [1, 1, 1])
    with pytest.raises(ValueError):
        agg.trimmed_mean(ups, 2)


# --------------------------- fed_median -------------------------------------

def test_fed_median_hand_values():
    assert agg.fed_median(updates_from([[1.0], [2.0], [100.0]], [1, 1, 1]))[0] == 2.0
    assert agg.fed_median(updates_from([[1.0], [3.0]], [1, 1]))[0] == 2.0


def test_fed_median_matches_oracle():
    rng = np.random.default_rng(103)
    for _ in range(50):
        ups = random_instance(rng, n=9)
        assert np.allclose(agg.fed_median(ups), fed_median_oracle(ups), atol=1e-12, rtol=0)


# --------------------------- sto_median -------------------------------------

def test_sto_median_identical_updates_passthrough_exact():
    w = np.array([0.3, -1.2, 0.0, 5e-9])
    for lens in ([1, 1, 1], [7, 19, 200]):
        ups = updates_from([w, w, w], lens)
        assert np.array_equal(agg.sto_median(ups), w)


def test_sto_median_outlier_instance():
    # transforms of {0.1, 0.1, 10} are about {2.3026, 2.3026, -2.3026}: the
    # outlier sits about two population sigmas below the median, so its
    # normalized probability drops below 1/3 and the aggregate stays near 0.1
    ups = updates_from([[0.1], [0.1], [10.0]], [1, 1, 1])
    transformed = np.array([-math.log(0.1 + 1e-8)] * 2 + [-math.log(10.0 + 1e-8)])
    assert np.allclose(transformed, [2.3026, 2.3026, -2.3026], atol=5e-4)
    probs = agg.sto_median_probabilities(ups)
    assert probs[2, 0] < 1.0 / 3.0
    got = agg.sto_median(ups)[0]
    fedavg = agg.fed_avg(ups)[0]
    assert fedavg == pytest.approx(3.4, abs=1e-12)
    assert abs(got - 0.1) < abs(fedavg - 0.1)
    assert got < 3.4
    assert got == pytest.approx(sto_median_oracle(ups)[0], abs=1e-12)


def test_sto_median_matches_scalar_oracle():
    rng = np.random.default_rng(104)
    for _ in range(50):
        ups = random_instance(rng)
        assert np.allclose(agg.sto_median(ups), sto_median_oracle(ups), atol=1e-12, rtol=0)


def test_sto_median_permutation_invariant():
    rng = np.random.default_rng(105)
    ups = random_instance(rng, n=6, j=20)
    perm = [ups[i] for i in rng.permutation(6)]
    assert np.allclose(agg.sto_median(ups), agg.sto_median(perm), atol=1e-12, rtol=0)


def test_sto_median_convex_hull():
    rng = np.random.default_rng(106)
    for _ in range(20):
        ups = random_instance(rng)
        mat = np.stack([u.params for u in ups])
        got = agg.sto_median(ups)
        slack = 1e-12
        assert np.all(got >= mat.min(axis=0) - slack)
        assert np.all(got <= mat.max(axis=0) + slack)


def test_sto_median_rejects_bad_input():
    with pytest.raises(ValueError):
        agg.sto_median([])
    with pytest.raises(ValueError):
        agg.sto_median(updates_from([[np.nan], [1.0]], [1, 1]))
    with pytest.raises(ValueError):
        agg.sto_median(updates_from([[1.0]], [1]), eps=0.0)


def test_breakdown_three_outliers_of_ten():
    v = np.array([0.5, -0.3, 0.02, 1.4])
    c = np.array([4.0, 4.0, 4.0, 4.0])
    ups = updates_from([c] * 3 + [v] * 7, [10] * 10)
    assert np.array_equal(agg.fed_median(ups), v)
    sto = agg.sto_median(ups)
    avg = agg.fed_avg(ups)
    assert np.all(np.abs(sto - v) < np.abs(avg - v))


# --------------------------- fedbe ------------------------------------------

def test_fed_be_fit_hand_value():
    ups = updates_from([[0.0], [3.0]], [1, 2])
    mu, var = agg.fed_be_fit(ups)
    assert mu[0] == pytest.approx(2.0, abs=1e-15)
    # weighted squared deviation: (1/3)*(0-2)^2 + (2/3)*(3-2)^2 = 2
    assert var[0] == pytest.approx(2.0, rel=1e-12)


def test_fed_be_fit_floors_variance():
    w = np.array([0.5, -0.5])
    mu, var = agg.fed_be_fit(updates_from([w, w], [1, 1]))
    assert np.allclose(mu, w)
    assert np.all(var == agg.FEDBE_VARIANCE_FLOOR)


def test_fed_be_sampling_moments():
    rng = np.random.default_rng(107)
    ups = random_instance(rng, n=6, j=8)
    mu, var = agg.fed_be_fit(ups)
    draws = agg.fed_be_sample(mu, var, 10000, derive_rng(0, "fedbe-moments"))
    se_mean = np.sqrt(var / 10000)
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 3 * se_mean)
    se_var = var * np.sqrt(2.0 / (10000 - 1))
    assert np.all(np.abs(draws.var(axis=0) - var) < 3 * se_var)


def test_fed_be_identical_updates_returns_near_mu():
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(2, 1, 2, "selu"),), input_shape=(2, 2, 2))
    w = nn.init_params(spec, 1)  # 10 parameters
    assert w.size == 10
    ups = updates_from([w, w, w], [4, 5, 6])
    cfg = channel.ChannelConfig(
        grid_height=2, grid_width=2, path_count=2, max_delay_taps=1,
        doppler_spread=0.01, pilot_noise_stddev=0.05,
        pilot_rows_stride=1, pilot_cols_stride=1,
    )
    rng = derive_rng(1, "fedbe-distill")
    distill = channel.make_samples(cfg, rng, 6)
    out = agg.fed_be(
        ups, samples=4, rng=derive_rng(2, "fedbe-run"), distill_set=distill, spec=spec,
        distill_epochs=5, learning_rate=1e-5, batch_size=4,
    )
    assert np.all(np.abs(out - w) < 1e-3)


def test_fed_be_requires_distill_set():
    ups = updates_from([[0.1]], [1])
    with pytest.raises(ValueError):
        agg.fed_be(ups, 2, derive_rng(0), [], nn.default_network_spec(),
                   distill_epochs=1, learning_rate=1e-3, batch_size=4)


# --------------------------- dispatcher / invariants ------------------------

def test_aggregate_dispatch_and_lengths():
    rng = np.random.default_rng(108)
    ups = random_instance(rng, n=5, j=12)
    for kind in ("fedavg", "fedmedian", "stomedian"):
        out = agg.aggregate(ups, Aggregator(kind=kind))
        assert out.shape == (12,)
    out = agg.aggregate(ups, Aggregator(kind="trimmed_mean", trim_a=1))
    assert out.shape == (12,)
    with pytest.raises(ValueError):
        agg.aggregate(ups, Aggregator(kind="fedbe"))
    # the training defaults live in the config: a caller passes them all
    with pytest.raises(ValueError, match="learning_rate and batch_size"):
        agg.aggregate(ups, Aggregator(kind="fedbe"), rng=derive_rng(0), distill_set=[object()],
                      spec=nn.default_network_spec())


def test_all_aggregators_permutation_invariant():
    rng = np.random.default_rng(109)
    ups = random_instance(rng, n=7, j=15)
    perm = [ups[i] for i in rng.permutation(7)]
    for kind, kw in (("fedavg", {}), ("fedmedian", {}), ("stomedian", {})):
        k = Aggregator(kind=kind, **kw)
        assert np.allclose(agg.aggregate(ups, k), agg.aggregate(perm, k), atol=1e-12, rtol=0)
    assert np.allclose(
        agg.trimmed_mean(ups, 2), agg.trimmed_mean(perm, 2), atol=1e-12, rtol=0
    )


def test_convex_hull_containment_all_order_aggregators():
    rng = np.random.default_rng(110)
    for _ in range(20):
        ups = random_instance(rng)
        mat = np.stack([u.params for u in ups])
        lo, hi = mat.min(axis=0) - 1e-12, mat.max(axis=0) + 1e-12
        for out in (
            agg.fed_avg(ups),
            agg.trimmed_mean(ups, 1) if mat.shape[0] > 2 else agg.fed_avg(ups),
            agg.fed_median(ups),
            agg.sto_median(ups),
        ):
            assert np.all(out >= lo) and np.all(out <= hi)


# --------------------------- Byzantine robustness ---------------------------
# Yin et al., "Byzantine-Robust Distributed Learning" (ICML 2018): with few
# enough adversarial rows, the coordinate-wise trimmed mean and median stay
# inside the honest rows' range, whatever the adversarial rows hold.

EXTREMES = {"high": [1e6, 1e300], "low": [-1e6, -1e300], "mixed": [-1e300, -1e6, 1e6, 1e300]}


def byzantine_instance(rng, n, bad, side):
    """n rows in random order, `bad` of them adversarial: honest rows in
    [-2, 2], adversarial ones drawn per coordinate from EXTREMES[side].
    Returns the updates and the honest rows."""
    honest = rng.uniform(-2.0, 2.0, size=(n - bad, 40))
    adversarial = rng.choice(EXTREMES[side], size=(bad, 40))
    rows = np.concatenate([honest, adversarial])[rng.permutation(n)]
    return updates_from(rows, rng.integers(1, 300, size=n)), honest


def inside_honest_range(out, honest):
    return bool(np.all(out >= honest.min(axis=0) - 1e-12)
                and np.all(out <= honest.max(axis=0) + 1e-12))


@pytest.mark.parametrize("side", list(EXTREMES))
def test_trimmed_mean_holds_with_at_most_trim_a_adversaries(side):
    rng = np.random.default_rng(120)
    for n in range(3, 12):
        for a in range(1, (n - 1) // 2 + 1):
            for bad in range(a + 1):
                ups, honest = byzantine_instance(rng, n, bad, side)
                assert inside_honest_range(agg.trimmed_mean(ups, a), honest)
            if side == "high":  # the bound is tight: one more attacker gets through
                ups, honest = byzantine_instance(rng, n, a + 1, side)
                assert not inside_honest_range(agg.trimmed_mean(ups, a), honest)


@pytest.mark.parametrize("side", list(EXTREMES))
def test_fed_median_holds_with_fewer_than_half_adversaries(side):
    rng = np.random.default_rng(121)
    for n in range(1, 13):  # odd and even N
        most = (n - 1) // 2  # the largest count below n / 2
        for bad in range(most + 1):
            ups, honest = byzantine_instance(rng, n, bad, side)
            assert inside_honest_range(agg.fed_median(ups), honest)
        if side == "high" and n > 1:
            ups, honest = byzantine_instance(rng, n, most + 1, side)
            assert not inside_honest_range(agg.fed_median(ups), honest)


def test_aggregator_validation():
    with pytest.raises(ValueError):
        Aggregator(kind="bogus")
    # the aggregator cannot know the round's update count; the trim does
    six = random_instance(np.random.default_rng(110), n=6, j=4)
    with pytest.raises(ValueError, match=r"need 0 <= 2a < N, got a=3, N=6"):
        agg.aggregate(six, Aggregator(kind="trimmed_mean", trim_a=3))
    with pytest.raises(ValueError):
        Aggregator(kind="stomedian", eps=-1.0)
    with pytest.raises(ValueError, match="fedbe_distill_epochs"):
        Aggregator(kind="fedbe", fedbe_distill_epochs=-3)
    assert Aggregator(kind="trimmed_mean", trim_a=2).describe() == "trimmed_mean(a=2)"
    assert Aggregator(kind="fedbe", fedbe_samples=7).describe() == "fedbe(S=7)"
