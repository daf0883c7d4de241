import tracemalloc

import numpy as np
import pytest

from conftest import default_batch, desk_spec, forward_one, mse

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
    out = forward_one(spec, p, x)
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
    out = forward_one(spec, p, np.array([[[2.0]]]))
    assert out[0, 0, 0] == pytest.approx(nn.SELU_LAMBDA * 2.0, rel=1e-15)
    out_neg = forward_one(spec, p, np.array([[[-1.0]]]))
    expected = nn.SELU_LAMBDA * nn.SELU_ALPHA * (np.exp(-1.0) - 1.0)
    assert out_neg[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_forward_same_padding_against_loop_oracle():
    # brute-force direct convolution, one output cell at a time
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(3, 3, 2, "selu"),), input_shape=(5, 4, 2))
    p = nn.init_params(spec, 9)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4, 2))
    out = forward_one(spec, p, x)
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
# product per offset (see nn._plan), channels first; then the last two with
# cells-major buffers (see nn._cells_major)
CHANNEL_PAIRS = [(1, 7), (2, 3), (3, 2), (12, 17), (20, 3)]
PRODUCT_FORMS = [("whole", False), ("rows", False), ("offsets", False),
                 ("rows", True), ("offsets", True)]


def product_form(kh, kw, c_in, c_out):
    return nn._plan(kw, c_in, c_out), nn._cells_major((kh, kw, c_in, c_out))


def test_channel_pairs_reach_every_product_plan():
    for kh, kw in KERNEL_SHAPES:
        assert [product_form(kh, kw, *pair) for pair in CHANNEL_PAIRS] == PRODUCT_FORMS
    # a whole-kernel unfold is built channels first whatever the width
    assert product_form(5, 5, 2, 60) == ("whole", False)


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
        forward_one(spec, p, np.zeros((6, 5, 3)))


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
    a = forward_one(spec, p, x)
    b = forward_one(spec, p, x)
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
        assert np.allclose(batched[i], forward_one(spec, p, xs[i]), rtol=1e-12, atol=1e-15)


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
            loss = mse(pred, ys)
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


@pytest.mark.parametrize("kh, kw", KERNEL_SHAPES)
def test_gradient_through_a_wide_layer_matches_finite_differences(kh, kw):
    # channels 2 -> 17 -> 3 -> 2: the middle layer stores its buffers cells
    # major, its input gradient unfolds a cells-major operand, and the
    # narrow layers on either side write into its orientation.  Central
    # differences on 60 coordinates drawn over all layers.
    layers = tuple(nn.LayerSpec(kh, kw, f, act) for f, act in
                   zip((17, 3, 2), ("selu", "softplus", "selu")))
    spec = nn.NetworkSpec(layers=layers, input_shape=(5, 3, 2))
    assert [nn._cells_major(k.shape) for k, _ in nn.layer_params(spec, nn.init_params(spec, 0))] \
        == [False, True, False]
    rng = np.random.default_rng(kh * 10 + kw + 1)
    p = nn.init_params(spec, kh * 10 + kw)
    p += rng.uniform(-0.1, 0.1, p.size)
    xs = rng.normal(size=(2,) + spec.input_shape)
    ys = rng.normal(size=(2, 5, 3, 2))
    grad, _ = nn.batch_gradient(spec, p, xs, ys)
    h = 1e-5
    for i in rng.choice(p.size, size=60, replace=False):
        up, down = p.copy(), p.copy()
        up[i] += h
        down[i] -= h
        fd = (mse(nn.forward_batch(spec, up, xs), ys)
              - mse(nn.forward_batch(spec, down, xs), ys)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


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
        assert np.array_equal(got, forward_one(spec, p, x))
    grad, loss = nn.batch_gradient(spec, p, xs, ys)
    singles = np.array([nn.batch_gradient(spec, p, xs[i:i + 1], ys[i:i + 1])[0]
                        for i in range(n)])
    # rtol 1e-12 of the terms' mean magnitude: a few coordinates cancel to
    # 1e-4 of their terms, where either summation order moves the last digits
    assert np.all(np.abs(grad - singles.mean(axis=0)) <= 1e-12 * np.abs(singles).mean(axis=0))
    assert loss == pytest.approx(mse(out, ys), rel=1e-12, abs=0)


def test_sample_output_does_not_depend_on_its_place_in_the_batch():
    # 42 cells a sample: BLAS computes the last cells of a product whose
    # width is not a multiple of its kernel's in a tail kernel that rounds
    # differently, so without aligned product widths a sample's output
    # depended on where in the batch it sat
    layers = tuple(nn.LayerSpec(3, 3, f, "selu") for f in (12, 8, 2))
    spec = nn.NetworkSpec(layers=layers, input_shape=(7, 6, 2))
    p = nn.init_params(spec, 62)
    xs = np.random.default_rng(62).normal(size=(9,) + spec.input_shape)
    for x, got in zip(xs, nn.forward_batch(spec, p, xs)):
        assert np.array_equal(got, forward_one(spec, p, x))


@pytest.mark.parametrize("spec", [pytest.param(nn.default_network_spec(), id="default-72x14"),
                                  pytest.param(desk_spec(), id="desk-36x10")])
def test_gradient_working_set_does_not_grow_with_batch(spec):
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


def test_chunk_size_of_the_default_and_desk_specs():
    # a chunk is at most half a pass, so that a pass-sized gradient spans
    # two chunks and a helper process can take one: a default-spec Adam step
    # of batch 4, and a desk-spec step of 24 samples (chunks of 13 and 11)
    assert nn._chunk_size(nn.default_network_spec()) == 2
    assert nn._pass_size(nn.default_network_spec()) == 4
    assert nn._chunk_size(desk_spec()) == 13
    assert nn._pass_size(desk_spec()) == 27


def test_forward_sum_needs_a_row():
    spec, _, xs, _ = default_batch(2)
    with pytest.raises(ValueError, match="at least one row"):
        nn.forward_sum(spec, np.zeros((0, nn.param_count(spec))), xs)


def test_forward_sum_of_one_draw_has_no_negative_zero(helpers, monkeypatch):
    # the sum starts from zeros, so a draw's -0.0 adds up to +0.0
    spec, p, xs, _ = default_batch(2)
    helpers(0)
    task = nn._forward_pass
    monkeypatch.setattr(nn, "_forward_pass", lambda *args: -np.zeros_like(task(*args)))
    assert np.all(np.signbit(nn.forward_batch(spec, p, xs)))
    total = nn.forward_sum(spec, p[None], xs)
    assert not np.any(np.signbit(total)) and not np.any(total)


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
            nn.train_minibatch(a, bad, [(xs, ys, np.random.default_rng(0))], epochs=0,
                               batch_size=3, learning_rate=0.1)


# --------------------------- training loop --------------------------------

def test_train_minibatch_learns_and_is_deterministic():
    spec = nn.NetworkSpec(layers=(nn.LayerSpec(3, 3, 2, "selu"),), input_shape=(6, 5, 2))
    target_params = nn.init_params(spec, 33)
    rng = np.random.default_rng(34)
    xs = rng.normal(size=(24,) + spec.input_shape)
    ys = nn.forward_batch(spec, target_params, xs)
    p0 = nn.init_params(spec, 35)
    before = mse(nn.forward_batch(spec, p0, xs), ys)
    trained, = nn.train_minibatch(
        spec, p0, [(xs, ys, np.random.default_rng(36))], epochs=30, batch_size=8,
        learning_rate=0.01,
    )
    assert mse(nn.forward_batch(spec, trained, xs), ys) < 0.2 * before
    trained2, = nn.train_minibatch(
        spec, p0, [(xs, ys, np.random.default_rng(36))], epochs=30, batch_size=8,
        learning_rate=0.01,
    )
    assert np.array_equal(trained, trained2)


def test_train_minibatch_zero_epochs_returns_copy():
    spec = tiny_spec()
    p = nn.init_params(spec, 40)
    out, = nn.train_minibatch(
        spec, p, [(np.zeros((2,) + spec.input_shape), np.zeros((2, 6, 5, 2)),
                   np.random.default_rng(0))],
        epochs=0, batch_size=2, learning_rate=0.1,
    )
    assert np.array_equal(out, p)
    assert out is not p


def test_train_minibatch_max_steps_sgd():
    spec = tiny_spec()
    p = nn.init_params(spec, 41)
    rng = np.random.default_rng(42)
    xs = rng.normal(size=(6,) + spec.input_shape)
    ys = rng.normal(size=(6, 6, 5, 2))
    out, = nn.train_minibatch(
        spec, p, [(xs, ys, np.random.default_rng(43))], epochs=100, batch_size=2,
        learning_rate=0.01, optimizer="sgd", max_steps=4,
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



def test_train_minibatch_adam_replay():
    spec = tiny_spec()
    p = nn.init_params(spec, 44)
    rng = np.random.default_rng(45)
    xs = rng.normal(size=(7,) + spec.input_shape)
    ys = rng.normal(size=(7, 6, 5, 2))
    out, = nn.train_minibatch(
        spec, p, [(xs, ys, np.random.default_rng(46))], epochs=3, batch_size=3,
        learning_rate=0.01, beta1=0.8,
    )
    # replay: textbook Adam (Kingma & Ba) over the same shuffled batches,
    # the last one of each epoch a single sample
    replay_rng = np.random.default_rng(46)
    flat, m, v, t = p.copy(), 0.0, 0.0, 0
    for _ in range(3):
        order = replay_rng.permutation(7)
        for s in range(0, 7, 3):
            idx = order[s:s + 3]
            g, _ = nn.batch_gradient(spec, flat, xs[idx], ys[idx])
            t += 1
            m = 0.8 * m + (1 - 0.8) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            m_hat = m / (1 - 0.8 ** t)
            v_hat = v / (1 - 0.999 ** t)
            flat = flat - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert t == 9
    assert np.allclose(out, flat, rtol=0, atol=0)


def test_zero_gradient_leaves_params_unchanged():
    spec = tiny_spec()
    p = nn.init_params(spec, 47)
    xs = np.random.default_rng(48).normal(size=(5,) + spec.input_shape)
    # targets equal to the network's own output: every gradient is zero
    ys = nn.forward_batch(spec, p, xs)
    assert not nn.batch_gradient(spec, p, xs, ys)[0].any()
    for optimizer in ("sgd", "adam"):
        out, = nn.train_minibatch(
            spec, p, [(xs, ys, np.random.default_rng(49))], epochs=4, batch_size=2,
            learning_rate=0.1, optimizer=optimizer,
        )
        assert np.array_equal(out, p), optimizer


def test_train_minibatch_rejects_unknown_optimizer():
    spec = tiny_spec()
    p = nn.init_params(spec, 50)
    with pytest.raises(ValueError, match="unknown optimizer 'rmsprop'"):
        nn.train_minibatch(
            spec, p, [(np.zeros((2,) + spec.input_shape), np.zeros((2, 6, 5, 2)),
                       np.random.default_rng(0))],
            epochs=1, batch_size=2, learning_rate=0.1, optimizer="rmsprop",
        )
