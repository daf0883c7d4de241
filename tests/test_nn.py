import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedcsi import nn


def tiny_spec(h=6, w=5, c_in=2):
    return nn.NetworkSpec(
        layers=(nn.LayerSpec(3, 3, 4, "selu"), nn.LayerSpec(3, 3, 2, "softplus")),
        input_shape=(h, w, c_in),
    )


# --------------------------- init_params ----------------------------------

def test_init_params_deterministic():
    spec = tiny_spec()
    a = nn.init_params(spec, 123)
    b = nn.init_params(spec, 123)
    assert np.array_equal(a, b)
    c = nn.init_params(spec, 124)
    assert not np.array_equal(a, c)


def test_init_params_biases_zero():
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(1, 1, 1, "selu"),), input_shape=(4, 4, 1))
    p = nn.init_params(spec, 7)
    assert np.all(nn.layer_params(spec, p)[0][1] == 0.0)


def test_init_params_fanin_bound():
    spec = tiny_spec()
    p = nn.init_params(spec, 5)
    k0 = nn.layer_params(spec, p)[0][0]
    assert np.all(np.abs(k0) <= np.sqrt(1.0 / (3 * 3 * 2)))


def test_default_spec_param_count():
    spec = nn.default_network_spec()
    expected = (5 * 5 * 2 * 24 + 24) + (5 * 5 * 24 * 8 + 8) + (5 * 5 * 8 * 2 + 2)
    # the per-layer views must cover the closed-form count
    by_layout = sum(k.size + b.size for k, b in nn.layer_params(spec, np.zeros(6434)))
    assert nn.param_count(spec) == by_layout == expected == 6434


def test_param_count_matches_layout_random_specs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_layers = int(rng.integers(1, 4))
        layers = tuple(
            nn.LayerSpec(int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                         int(rng.integers(1, 7)), "selu")
            for _ in range(n_layers)
        )
        spec = nn.NetworkSpec(layers=layers, input_shape=(5, 4, int(rng.integers(1, 4))))
        c_in = spec.input_shape[2]
        manual = 0
        for layer in layers:
            manual += layer.kernel_h * layer.kernel_w * c_in * layer.filters + layer.filters
            c_in = layer.filters
        assert nn.param_count(spec) == manual
        views = nn.layer_params(spec, np.zeros(manual))
        assert sum(k.size + b.size for k, b in views) == manual


# --------------------------- forward --------------------------------------

def test_forward_zero_params_zero_output():
    # selu(0)=0 on the final layer, so all-zero params give all-zero output
    spec = nn.NetworkSpec(
        layers=(nn.LayerSpec(3, 3, 4, "softplus"), nn.LayerSpec(3, 3, 2, "selu")),
        input_shape=(6, 5, 2),
    )
    p = np.zeros(nn.param_count(spec))
    x = np.random.default_rng(0).normal(size=spec.input_shape)
    out = nn.forward(spec, p, x)
    assert out.shape == (6, 5, 2)
    assert np.all(out == 0.0)


def test_softplus_closed_form():
    assert nn.softplus(np.array([0.0]))[0] == pytest.approx(0.6931471805599453, abs=1e-15)
    assert nn.softplus(np.array([40.0]))[0] == 40.0
    assert np.isfinite(nn.softplus(np.array([-800.0]))[0])


def test_selu_hand_value():
    # single 1x1 conv, kernel 1.0, bias 0: output = selu(x)
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(1, 1, 1, "selu"),), input_shape=(1, 1, 1))
    p = np.array([1.0, 0.0])
    out = nn.forward(spec, p, np.array([[[2.0]]]))
    assert out[0, 0, 0] == pytest.approx(nn.SELU_LAMBDA * 2.0, rel=1e-15)
    out_neg = nn.forward(spec, p, np.array([[[-1.0]]]))
    expected = nn.SELU_LAMBDA * nn.SELU_ALPHA * (np.exp(-1.0) - 1.0)
    assert out_neg[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_forward_same_padding_against_loop_oracle():
    # brute-force direct convolution, one output cell at a time
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(3, 3, 2, "selu"),), input_shape=(5, 4, 2))
    p = nn.init_params(spec, 9)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4, 2))
    out = nn.forward(spec, p, x)
    k = nn.layer_params(spec, p)[0][0]
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    for i in range(5):
        for j in range(4):
            for f in range(2):
                acc = 0.0
                for di in range(3):
                    for dj in range(3):
                        for c in range(2):
                            acc += xp[i + di, j + dj, c] * k[di, dj, c, f]
                assert out[i, j, f] == pytest.approx(float(nn.selu(np.array([acc]))[0]), rel=1e-12)


def loop_conv(x, kernel, bias):
    """Direct same-padded convolution of one (H, W, C) sample: the kernel's
    cell ((kh - 1) // 2, (kw - 1) // 2) sits on the output cell."""
    h, w, _ = x.shape
    kh, kw, c_in, c_out = kernel.shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    out = np.tile(bias, (h, w, 1)).astype(float)
    for i in range(h):
        for j in range(w):
            for di in range(kh):
                for dj in range(kw):
                    ii, jj = i + di - top, j + dj - left
                    if 0 <= ii < h and 0 <= jj < w:
                        out[i, j] += x[ii, jj] @ kernel[di, dj]
    return out


# even, non-square and larger-than-grid kernels on a 5x3 grid, and the default 5x5
KERNEL_SHAPES = [(2, 4), (4, 2), (1, 6), (6, 3), (5, 5)]
# (c_in, c_out): unfold the whole kernel, unfold one kernel row, one
# product per offset (see nn._plan)
CHANNEL_PAIRS = [(1, 7), (2, 3), (3, 2)]


def test_channel_pairs_reach_every_product_plan():
    plans = {nn._plan(kw, c_in, c_out)
             for _, kw in KERNEL_SHAPES for c_in, c_out in CHANNEL_PAIRS}
    assert plans == {"whole", "rows", "offsets"}
    for _, kw in KERNEL_SHAPES:
        assert [nn._plan(kw, *pair) for pair in CHANNEL_PAIRS] == ["whole", "rows", "offsets"]


@pytest.mark.parametrize("kh, kw", KERNEL_SHAPES)
@pytest.mark.parametrize("c_in, c_out", CHANNEL_PAIRS)
def test_forward_kernel_shapes_against_loop_oracle(kh, kw, c_in, c_out):
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(kh, kw, c_out, "selu"),), input_shape=(5, 3, c_in))
    rng = np.random.default_rng(kh * 10 + kw)
    p = rng.normal(size=nn.param_count(spec))
    xs = rng.normal(size=(2, 5, 3, c_in))
    out = nn.forward_batch(spec, p, xs)
    for x, got in zip(xs, out):
        want = nn.selu(loop_conv(x, *nn.layer_params(spec, p)[0]))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_forward_shape_mismatch_error():
    spec = tiny_spec()
    p = nn.init_params(spec, 0)
    with pytest.raises(ValueError):
        nn.forward(spec, p, np.zeros((6, 5, 3)))


@pytest.mark.parametrize("shape", [(72, 14, 2), (2, 3, 72, 14, 2)])
def test_wrong_rank_input_rejected(shape):
    # one sample without its batch axis, or a stack of batches: both end in
    # the input grid, so only the rank tells them from a batch
    spec = nn.default_network_spec()
    p = nn.init_params(spec, 0)
    xs = np.zeros(shape)
    with pytest.raises(ValueError, match=r"input shape \(" + ", ".join(map(str, shape))):
        nn.forward_batch(spec, p, xs)
    with pytest.raises(ValueError, match="input shape"):
        nn.batch_gradient(spec, p, xs, np.zeros(shape))


def test_forward_deterministic_bitwise():
    spec = tiny_spec()
    p = nn.init_params(spec, 3)
    x = np.random.default_rng(2).normal(size=spec.input_shape)
    a = nn.forward(spec, p, x)
    b = nn.forward(spec, p, x)
    assert np.array_equal(a, b)


def test_forward_batch_matches_single():
    # same math either way; BLAS blocking may differ by batch shape, so the
    # comparison allows ulp-level slack while repeat calls stay bit-identical
    spec = tiny_spec()
    p = nn.init_params(spec, 11)
    xs = np.random.default_rng(3).normal(size=(10,) + spec.input_shape)
    batched = nn.forward_batch(spec, p, xs)
    assert np.array_equal(batched, nn.forward_batch(spec, p, xs))
    for i in range(10):
        assert np.allclose(batched[i], nn.forward(spec, p, xs[i]), rtol=1e-12, atol=1e-15)


# --------------------------- mse_loss -------------------------------------

def test_mse_trivial():
    x = np.array([1.0, 3.0])
    assert nn.mse_loss(x, x) == 0.0
    assert nn.mse_loss(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        nn.mse_loss(np.zeros(3), np.zeros(4))


def test_mse_matches_scalar_loop():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4, 2))
    b = rng.normal(size=(3, 4, 2))
    acc = 0.0
    for v, w in zip(a.ravel(), b.ravel()):
        acc += (v - w) ** 2
    assert nn.mse_loss(a, b) == pytest.approx(acc / a.size, rel=1e-14)
    assert nn.mse_loss(a, b) == nn.mse_loss(b, a)


# --------------------------- backward -------------------------------------

def test_backward_zero_residual_zero_grad():
    spec = tiny_spec()
    p = nn.init_params(spec, 5)
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(3,) + spec.input_shape)
    targets = nn.forward_batch(spec, p, xs)  # labels equal predictions
    grad, loss = nn.batch_gradient(spec, p, xs, targets)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_backward_empty_batch_error():
    spec = tiny_spec()
    p = nn.init_params(spec, 5)
    with pytest.raises(ValueError, match="empty batch"):
        nn.batch_gradient(spec, p, np.zeros((0,) + spec.input_shape), np.zeros((0, 6, 5, 2)))


def finite_difference_grad(spec, params, xs, ys, h=1e-5):
    flat = params.copy()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            flat[i] += sign * h
            pred = nn.forward_batch(spec, flat, xs)
            loss = nn.mse_loss(pred, ys)
            fd[i] += sign * loss / (2 * h)
            flat[i] -= sign * h
    return fd


def test_gradient_matches_finite_differences():
    spec = tiny_spec(h=5, w=4)
    p = nn.init_params(spec, 17)
    rng = np.random.default_rng(17)
    xs = rng.normal(size=(3,) + spec.input_shape)
    ys = rng.normal(size=(3, 5, 4, 2))
    grad, _ = nn.batch_gradient(spec, p, xs, ys)
    fd = finite_difference_grad(spec, p, xs, ys)
    assert np.allclose(grad, fd, rtol=1e-4, atol=1e-8)


@pytest.mark.parametrize("kh, kw", KERNEL_SHAPES)
def test_gradient_kernel_shapes_match_finite_differences(kh, kw):
    # channels 1 -> 7 -> 1 -> 3 -> 2: the forward products and the input
    # gradients (the same correlation with the channels swapped) reach every
    # product plan, the kernel gradients both of theirs
    layers = tuple(nn.LayerSpec(kh, kw, f, act) for f, act in
                   zip((7, 1, 3, 2), ("selu", "softplus", "selu", "softplus")))
    spec = nn.NetworkSpec(layers=layers, input_shape=(5, 3, 1))
    rng = np.random.default_rng(kh * 10 + kw)
    p = nn.init_params(spec, kh * 10 + kw)
    p += rng.uniform(-0.1, 0.1, p.size)  # non-zero biases too
    xs = rng.normal(size=(2,) + spec.input_shape)
    ys = rng.normal(size=(2, 5, 3, 2))
    grad, _ = nn.batch_gradient(spec, p, xs, ys)
    fd = finite_difference_grad(spec, p, xs, ys)
    assert np.allclose(grad, fd, rtol=1e-4, atol=1e-8)


def test_gradient_linear_layer_closed_form():
    # 1x1 single-filter selu layer kept in the positive branch reduces to the
    # scaled linear model: dL/dw = (2/AE) * sum lambda*x*(lambda*w*x - y)
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(1, 1, 1, "selu"),), input_shape=(2, 2, 1))
    w0 = 0.7
    p = np.array([w0, 0.0])
    rng = np.random.default_rng(6)
    xs = rng.uniform(0.5, 1.5, size=(4, 2, 2, 1))
    lam = nn.SELU_LAMBDA
    ys = lam * w0 * xs - rng.uniform(0.1, 0.3, size=xs.shape)  # residuals positive
    grad, _ = nn.batch_gradient(spec, p, xs, ys)
    n_elem = xs.size
    manual_w = 0.0
    manual_b = 0.0
    for x, y in zip(xs.ravel(), ys.ravel()):
        r = lam * w0 * x - y
        manual_w += 2.0 * lam * x * r / n_elem
        manual_b += 2.0 * lam * r / n_elem
    assert grad[0] == pytest.approx(manual_w, rel=1e-12)
    assert grad[1] == pytest.approx(manual_b, rel=1e-12)


def test_gradient_scales_with_residual_doubling():
    # doubling every residual doubles the gradient in the (scaled) linear case
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(1, 1, 1, "selu"),), input_shape=(3, 2, 1))
    p = np.array([0.9, 0.0])
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.5, 1.5, size=(5, 3, 2, 1))
    pred = nn.forward_batch(spec, p, xs)
    resid = rng.uniform(0.05, 0.2, size=pred.shape)
    g1, _ = nn.batch_gradient(spec, p, xs, pred - resid)
    g2, _ = nn.batch_gradient(spec, p, xs, pred - 2.0 * resid)
    assert np.allclose(g2, 2.0 * g1, rtol=1e-12)


@pytest.mark.parametrize("kh, kw", [(5, 5), (4, 2), (6, 3)])
def test_samples_do_not_mix_in_the_batch(kh, kw):
    # samples share one flat padded buffer; padded rows are all that keeps
    # them apart, so an off-by-one offset would leak one into the next
    layers = (nn.LayerSpec(kh, kw, 6, "selu"), nn.LayerSpec(kh, kw, 3, "softplus"),
              nn.LayerSpec(kh, kw, 2, "selu"))
    spec = nn.NetworkSpec(layers=layers, input_shape=(5, 3, 2))
    p = nn.init_params(spec, 50)
    rng = np.random.default_rng(50)
    xs = rng.normal(size=(4,) + spec.input_shape)
    ys = rng.normal(size=(4, 5, 3, 2))
    base = nn.forward_batch(spec, p, xs)
    for j in range(4):
        perturbed = xs.copy()
        perturbed[j] += 100.0
        out = nn.forward_batch(spec, p, perturbed)
        assert not np.array_equal(out[j], base[j])
        for i in range(4):
            if i != j:
                assert np.array_equal(out[i], base[i])
    grad, _ = nn.batch_gradient(spec, p, xs, ys)
    singles = [nn.batch_gradient(spec, p, xs[i:i + 1], ys[i:i + 1])[0] for i in range(4)]
    assert np.allclose(grad, np.mean(singles, axis=0), rtol=1e-12, atol=0)


# --------------------------- chunked batches ------------------------------

def desk_spec():
    layers = tuple(nn.LayerSpec(3, 3, f, a) for f, a in zip((10, 6, 2), ("selu", "softplus", "selu")))
    return nn.NetworkSpec(layers=layers, input_shape=(36, 10, 2))


@pytest.mark.parametrize("spec", [pytest.param(nn.default_network_spec(), id="default-72x14"),
                                  pytest.param(desk_spec(), id="desk-36x10")])
def test_batch_spanning_two_chunks_matches_single_samples(spec):
    n = nn._chunk_size(spec) + 3
    rng = np.random.default_rng(60)
    p = nn.init_params(spec, 60)
    xs = rng.normal(size=(n,) + spec.input_shape)
    ys = rng.normal(size=(n,) + spec.input_shape[:2] + (2,))
    out = nn.forward_batch(spec, p, xs)
    for x, got in zip(xs, out):
        assert np.array_equal(got, nn.forward(spec, p, x))
    grad, loss = nn.batch_gradient(spec, p, xs, ys)
    singles = np.array([nn.batch_gradient(spec, p, xs[i:i + 1], ys[i:i + 1])[0]
                        for i in range(n)])
    # rtol 1e-12 of the terms' mean magnitude: a few coordinates cancel to
    # 1e-4 of their terms, where either summation order moves the last digits
    assert np.all(np.abs(grad - singles.mean(axis=0)) <= 1e-12 * np.abs(singles).mean(axis=0))
    assert loss == pytest.approx(nn.mse_loss(out, ys), rel=1e-12, abs=0)


def test_gradient_working_set_does_not_grow_with_batch():
    spec = nn.default_network_spec()
    chunk = nn._chunk_size(spec)
    assert chunk < 64
    rng = np.random.default_rng(61)
    p = nn.init_params(spec, 61)
    xs = rng.normal(size=(64,) + spec.input_shape)
    ys = rng.normal(size=(64,) + spec.input_shape[:2] + (2,))

    def peak_bytes(batch):
        tracemalloc.start()
        try:
            nn.batch_gradient(spec, p, xs[:batch], ys[:batch])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(64) <= 2 * peak_bytes(chunk)


# --------------------------- optimizers -----------------------------------

def test_sgd_hand_step():
    state = nn.init_optimizer("sgd", 1, 0.1)
    w, state = nn.optimizer_step(np.array([1.0]), np.array([2.0]), state)
    assert w[0] == pytest.approx(0.8, abs=1e-15)
    assert state.step_count == 1


def test_zero_gradient_leaves_params_unchanged():
    for kind in ("sgd", "adam"):
        state = nn.init_optimizer(kind, 3, 0.05)
        w0 = np.array([0.5, -1.0, 2.0])
        w1, _ = nn.optimizer_step(w0, np.zeros(3), state)
        assert np.array_equal(w0, w1)


def test_optimizer_length_mismatch():
    state = nn.init_optimizer("sgd", 2, 0.1)
    with pytest.raises(ValueError):
        nn.optimizer_step(np.zeros(2), np.zeros(3), state)


def scalar_adam_reference(grad_fn, w0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    w, m, v = w0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_adam_against_scalar_reference_and_converges():
    grad_fn = lambda w: 2.0 * (w - 3.0)
    state = nn.init_optimizer("adam", 1, 0.1)
    w = np.array([0.0])
    for _ in range(100):
        w, state = nn.optimizer_step(w, grad_fn(w), state)
    ref = scalar_adam_reference(grad_fn, 0.0, 0.1, 100)
    assert w[0] == pytest.approx(ref, rel=1e-12)
    assert abs(w[0] - 3.0) < 0.5


# --------------------------- layer_params ---------------------------------

def test_layer_params_views_tile_the_vector():
    spec = tiny_spec()
    p = np.arange(float(nn.param_count(spec)))
    views = nn.layer_params(spec, p)
    assert [(k.shape, b.shape) for k, b in views] == [((3, 3, 2, 4), (4,)), ((3, 3, 4, 2), (2,))]
    # kernel then bias, layer after layer, row-major, with nothing between
    assert np.array_equal(np.concatenate([a.ravel() for kb in views for a in kb]), p)
    views[1][0][0, 0, 0, 0] = -1.0
    views[1][1][1] = -2.0
    assert p[76] == -1.0 and p[-1] == -2.0


def spec_pair():
    """Two specs on one 8x6x2 grid: 150 and 214 parameters."""
    a = nn.NetworkSpec(layers=(nn.LayerSpec(3, 3, 4, "selu"), nn.LayerSpec(3, 3, 2, "selu")),
                       input_shape=(8, 6, 2))
    b = nn.NetworkSpec(layers=(nn.LayerSpec(5, 5, 4, "selu"), nn.LayerSpec(1, 1, 2, "selu")),
                       input_shape=(8, 6, 2))
    return a, b


def test_layer_params_rejects_wrong_vectors():
    a, b = spec_pair()
    assert (nn.param_count(a), nn.param_count(b)) == (150, 214)
    for bad in (np.zeros(151), np.zeros(150, dtype=np.float32), np.zeros((1, 150)),
                [0.0] * 150):
        with pytest.raises(ValueError, match="150 entries"):
            nn.layer_params(a, bad)


def test_engine_rejects_params_of_another_spec():
    a, b = spec_pair()
    xs = np.random.default_rng(70).normal(size=(3, 8, 6, 2))
    ys = np.zeros((3, 8, 6, 2))
    for bad in (nn.init_params(b, 0), nn.init_params(a, 0).astype(np.float32)):
        with pytest.raises(ValueError, match="150 entries"):
            nn.forward_batch(a, bad, xs)
        with pytest.raises(ValueError, match="150 entries"):
            nn.batch_gradient(a, bad, xs, ys)
        with pytest.raises(ValueError, match="150 entries"):  # even with no step to take
            nn.train_minibatch(a, bad, xs, ys, epochs=0, batch_size=3, learning_rate=0.1,
                               rng=np.random.default_rng(0))


# --------------------------- training loop --------------------------------

def test_train_minibatch_learns_and_is_deterministic():
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(3, 3, 2, "selu"),), input_shape=(6, 5, 2))
    target_params = nn.init_params(spec, 33)
    rng = np.random.default_rng(34)
    xs = rng.normal(size=(24,) + spec.input_shape)
    ys = nn.forward_batch(spec, target_params, xs)
    p0 = nn.init_params(spec, 35)
    before = nn.mse_loss(nn.forward_batch(spec, p0, xs), ys)
    trained = nn.train_minibatch(
        spec, p0, xs, ys, epochs=30, batch_size=8, learning_rate=0.01,
        rng=np.random.default_rng(36),
    )
    assert nn.mse_loss(nn.forward_batch(spec, trained, xs), ys) < 0.2 * before
    trained2 = nn.train_minibatch(
        spec, p0, xs, ys, epochs=30, batch_size=8, learning_rate=0.01,
        rng=np.random.default_rng(36),
    )
    assert np.array_equal(trained, trained2)


def test_train_minibatch_zero_epochs_returns_copy():
    spec = tiny_spec()
    p = nn.init_params(spec, 40)
    out = nn.train_minibatch(
        spec, p, np.zeros((2,) + spec.input_shape), np.zeros((2, 6, 5, 2)),
        epochs=0, batch_size=2, learning_rate=0.1, rng=np.random.default_rng(0),
    )
    assert np.array_equal(out, p)
    assert out is not p


def test_train_minibatch_max_steps_sgd():
    spec = tiny_spec()
    p = nn.init_params(spec, 41)
    rng = np.random.default_rng(42)
    xs = rng.normal(size=(6,) + spec.input_shape)
    ys = rng.normal(size=(6, 6, 5, 2))
    out = nn.train_minibatch(
        spec, p, xs, ys, epochs=100, batch_size=2, learning_rate=0.01,
        rng=np.random.default_rng(43), optimizer="sgd", max_steps=4,
    )
    # replay: 4 plain SGD steps over the same shuffled batches
    replay_rng = np.random.default_rng(43)
    flat = p.copy()
    steps = 0
    for _ in range(100):
        order = replay_rng.permutation(6)
        for s in range(0, 6, 2):
            if steps >= 4:
                break
            idx = order[s:s + 2]
            g, _ = nn.batch_gradient(spec, flat, xs[idx], ys[idx])
            flat = flat - 0.01 * g
            steps += 1
        if steps >= 4:
            break
    assert np.allclose(out, flat, rtol=0, atol=0)


# --------------------------- allocator policy -----------------------------

_FAULT_PROBE = """
import resource
from fedcsi import nn
from fedcsi.aggregation import Aggregator
from fedcsi.channel import ChannelConfig
from fedcsi.orchestrator import ExperimentConfig, run_experiment

layers = tuple(nn.LayerSpec(3, 3, f, a) for f, a in zip((10, 6, 2), ("selu", "softplus", "selu")))
config = ExperimentConfig(
    n_sbs=5, rounds=1, cache_len_lo=6, cache_len_hi=8, i_min=8, pretrain_size=24,
    validation_size=8, pretrain_epochs=2, epochs=1, batch_size=64, learning_rate=2e-3,
    network=nn.NetworkSpec(layers=layers, input_shape=(36, 10, 2)),
    channel=ChannelConfig(grid_height=36, grid_width=10, max_delay_taps=1,
                          doppler_spread=0.02, pilot_noise_stddev=0.15),
    aggregator=Aggregator(kind="fedbe", fedbe_samples=10, fedbe_distill_epochs=7),
)
run_experiment(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy applies to glibc only")
def test_repeat_run_reuses_freed_pages():
    # With glibc's default thresholds the engine's MB-sized temporaries went
    # back to the kernel after each call and were faulted in again by the
    # next: about 14,000 minor faults in the second run, against fewer than
    # ten with the thresholds fixed when fedcsi.nn is imported.
    paths = [str(Path(nn.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(done.stdout.split()[-1]) < 1000
