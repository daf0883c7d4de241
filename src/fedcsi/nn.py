"""Minimal float64 conv-net engine: explicit forward/backward, MSE, SGD/Adam.

Tensors are plain numpy arrays, row-major, shape (height, width, channels)
for a single sample or (batch, height, width, channels) for batches.  All
convolutions are stride-1 with same padding, so spatial size is preserved
end to end and the network maps an H x W x C_in grid to H x W x C_out.
"""
from __future__ import annotations

import ctypes
import platform
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
SOFTPLUS_CUTOFF = 30.0  # softplus(x) ~ x above this; avoids exp overflow
_BLOCK_MACS = 1 << 19  # multiply-adds per matrix product in the conv plumbing
_CHUNK_BYTES = 3 << 18  # widest-layer activation bytes per forward/gradient pass
ACTIVATIONS = ("selu", "softplus")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _keep_freed_pages_mapped() -> None:
    """Keep the engine's freed temporaries mapped for the next step (glibc).

    glibc's default, self-adjusting mmap and trim thresholds handed the
    MB-sized temporaries of each step back to the kernel, and the next step
    faulted them in again (about 116,000 minor faults per FedBE desk
    experiment).  Fixed thresholds keep them in the heap.  Setting either
    threshold switches off the adjustment of both, so both are set.  No
    computed value changes.
    """
    if sys.platform != "linux" or platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_pages_mapped()


@dataclass(frozen=True)
class LayerSpec:
    kernel_h: int
    kernel_w: int
    filters: int
    activation: str


@dataclass(frozen=True)
class NetworkSpec:
    """Conv-stack description: ordered layers plus the input grid shape."""

    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int]

    def validate(self) -> None:
        if len(self.layers) < 1:
            raise ValueError("network needs at least one layer")
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ValueError(f"bad input shape {self.input_shape}")
        for i, layer in enumerate(self.layers):
            if layer.kernel_h < 1 or layer.kernel_w < 1 or layer.filters < 1:
                raise ValueError(f"layer {i}: non-positive kernel/filter size")
            if layer.activation not in ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown activation {layer.activation!r}")


def default_network_spec(height: int = 72, width: int = 14) -> NetworkSpec:
    """Three-layer estimation CNN on 2-channel (real/imag) grids."""
    return NetworkSpec(
        layers=(
            LayerSpec(5, 5, 24, "selu"),
            LayerSpec(5, 5, 8, "softplus"),
            LayerSpec(5, 5, 2, "selu"),
        ),
        input_shape=(height, width, 2),
    )


@dataclass(frozen=True)
class LayoutEntry:
    layer: int
    role: str  # "kernel" | "bias"
    shape: tuple[int, ...]
    offset: int
    size: int


def param_layout(spec: NetworkSpec) -> tuple[LayoutEntry, ...]:
    spec.validate()
    entries = []
    offset = 0
    c_in = spec.input_shape[2]
    for i, layer in enumerate(spec.layers):
        kshape = (layer.kernel_h, layer.kernel_w, c_in, layer.filters)
        ksize = int(np.prod(kshape))
        entries.append(LayoutEntry(i, "kernel", kshape, offset, ksize))
        offset += ksize
        entries.append(LayoutEntry(i, "bias", (layer.filters,), offset, layer.filters))
        offset += layer.filters
        c_in = layer.filters
    return tuple(entries)


def param_count(spec: NetworkSpec) -> int:
    return sum(e.size for e in param_layout(spec))


@dataclass
class ParamVector:
    """Flat parameter array plus the layout that maps slices to layers."""

    data: np.ndarray
    layout: tuple[LayoutEntry, ...]

    def kernel(self, layer: int) -> np.ndarray:
        e = self._entry(layer, "kernel")
        return self.data[e.offset:e.offset + e.size].reshape(e.shape)

    def bias(self, layer: int) -> np.ndarray:
        e = self._entry(layer, "bias")
        return self.data[e.offset:e.offset + e.size]

    def _entry(self, layer: int, role: str) -> LayoutEntry:
        for e in self.layout:
            if e.layer == layer and e.role == role:
                return e
        raise KeyError(f"no {role} for layer {layer}")

    def copy(self) -> "ParamVector":
        return ParamVector(self.data.copy(), self.layout)


def init_params(spec: NetworkSpec, seed: int) -> ParamVector:
    """Fan-in-scaled uniform kernels, zero biases; reproducible per (spec, seed)."""
    layout = param_layout(spec)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    data = np.zeros(sum(e.size for e in layout))
    for e in layout:
        if e.role == "kernel":
            kh, kw, c_in, _ = e.shape
            bound = np.sqrt(1.0 / (kh * kw * c_in))
            data[e.offset:e.offset + e.size] = rng.uniform(-bound, bound, e.size)
    return ParamVector(data, layout)


def unflatten_params(flat: np.ndarray, spec: NetworkSpec) -> ParamVector:
    layout = param_layout(spec)
    total = sum(e.size for e in layout)
    flat = np.asarray(flat, dtype=np.float64)
    if flat.ndim != 1 or flat.size != total:
        raise ValueError(f"expected flat length {total}, got shape {flat.shape}")
    return ParamVector(flat.copy(), layout)


# --------------------------- activations ---------------------------------
# Branch-free, and in place on their own temporaries: np.where over a
# random-sign mask is several times slower than the extra arithmetic, and
# each extra temporary is one more pass over memory.  The values are the
# same bit for bit as the textbook two-branch forms.

def selu(x: np.ndarray) -> np.ndarray:
    neg = np.minimum(x, 0.0)
    np.expm1(neg, out=neg)
    neg *= SELU_ALPHA
    out = np.maximum(x, 0.0)
    out += neg
    out *= SELU_LAMBDA
    return out


def selu_grad(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) * (alpha + (1 - alpha) * [x > 0]); alpha + (1 - alpha)
    # is exactly 1.0, so the positive branch is exact
    scale = (x > 0.0) * (1.0 - SELU_ALPHA)
    scale += SELU_ALPHA
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out *= scale
    out *= SELU_LAMBDA
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    out = np.minimum(x, SOFTPLUS_CUTOFF)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.copyto(out, x, where=x > SOFTPLUS_CUTOFF)
    return out


def softplus_grad(x: np.ndarray) -> np.ndarray:
    # logistic sigmoid, stable on both tails: exp(min(x, 0)) / (1 + exp(-|x|))
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out /= den
    return out


_ACT = {"selu": (selu, selu_grad), "softplus": (softplus, softplus_grad)}


# --------------------------- conv plumbing -------------------------------
#
# A batch sits on its zero-padded grid (A, Hp, Wp, C), read as A*Hp*Wp rows
# of C channels.  The input rows under kernel offset (di, dj) are then the
# contiguous slice that starts at row di*Wp + dj, so an offset's operand is
# a view, not a copy.  Outputs computed this way lie on the same padded
# grid: the top-left (Hp - kh + 1) x (Wp - kw + 1) corner of each sample is
# valid, the other cells hold junk from neighbouring rows and are cropped.
# Padded rows separate the samples, so no valid cell reads another sample.
#
# The product shape follows the channel counts (`_plan`).  A correlation
# that widens the channels unfolds its input: the whole kernel when
# kw*C_in <= C_out, so the unfolded rows are at most kh output rows wide,
# else one kernel row, whose copy serves all kh kernel rows as views
# shifted by di*Wp.  That makes 1 or kh large products instead of kh*kw
# accumulations into the wide output.  Other correlations take one product
# per offset on the views.  The order of the products is fixed, so the
# summation order never varies between calls.
#
# Backward, the input gradient is this same correlation: dz, padded for the
# flipped kernel, with the flipped and transposed kernel.  The kernel
# gradient reuses the forward's unfolded input where the forward unfolds
# the whole kernel, and otherwise takes one product per offset.  Layer 0
# needs no input gradient.

def _pad(x: np.ndarray, kh: int, kw: int, flipped: bool = False) -> np.ndarray:
    """x zero-padded for a same correlation with a kh x kw kernel, or with
    that kernel flipped.  An even kernel pads one more row below (column
    right) than above (left); flipping it swaps the sides."""
    a, h, w, c = x.shape
    top, left = (kh // 2, kw // 2) if flipped else ((kh - 1) // 2, (kw - 1) // 2)
    xp = np.zeros((a, h + kh - 1, w + kw - 1, c))
    xp[:, top:top + h, left:left + w] = x
    return xp


def _plan(kw: int, c_in: int, c_out: int) -> str:
    """How a correlation forms its products: "whole" (unfold the kernel),
    "rows" (unfold one kernel row) or "offsets" (one product per offset)."""
    if kw * c_in <= c_out:
        return "whole"
    return "rows" if c_out > c_in else "offsets"


def _unfold(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col: one row of kh*kw*C values per valid output cell."""
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (A, H, W, C, kh, kw)
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(
        -1, kh * kw * xp.shape[3])


def _unfold_rows(x: np.ndarray, kw: int) -> np.ndarray:
    """Row r of the result is rows r .. r + kw - 1 of x (n, C), end to end."""
    c = x.shape[1]
    return np.ascontiguousarray(sliding_window_view(x.reshape(-1), kw * c)[::c])


def _sum_of_products(products: list, out: np.ndarray) -> np.ndarray:
    """out = sum of a @ b over the (a, b) pairs, which share one shape.

    Row blocks of at most _BLOCK_MACS multiply-adds per product keep each
    block's operands in cache across the products.  With OpenBLAS, products
    of more than about 10^6 multiply-adds also ran at half the rate per
    multiply-add on these narrow outputs.
    """
    k, n = products[0][1].shape
    step = max(1, _BLOCK_MACS // (k * n))
    term = np.empty((min(step, len(out)), n))
    for start in range(0, len(out), step):
        acc = out[start:start + step]
        np.matmul(products[0][0][start:start + step], products[0][1], out=acc)
        part = term[:len(acc)]
        for a, b in products[1:]:
            np.matmul(a[start:start + step], b, out=part)
            acc += part
    return out


def _inner_products(operands: list, b: np.ndarray) -> np.ndarray:
    """[a.T @ b for a in operands], each a as long as b, summed over row
    blocks as in `_sum_of_products`."""
    k, n = operands[0].shape[1], b.shape[1]
    step = max(1, _BLOCK_MACS // (k * n))
    out = np.zeros((len(operands), k, n))
    part = np.empty((k, n))
    for start in range(0, len(b), step):
        block = b[start:start + step]
        for a, acc in zip(operands, out):
            np.matmul(a[start:start + step].T, block, out=part)
            acc += part
    return out


def _correlate(
    xp: np.ndarray, kernel: np.ndarray, cols: Optional[np.ndarray] = None
) -> np.ndarray:
    """Valid correlation of the padded batch with `kernel` (kh, kw, C_in,
    C_out): shape (A, Hp - kh + 1, Wp - kw + 1, C_out), possibly a view.
    Where the plan is "whole", `cols` may hold `_unfold(xp, kh, kw)`."""
    a, hp, wp, c_in = xp.shape
    kh, kw, _, c_out = kernel.shape
    h, w = hp - kh + 1, wp - kw + 1
    plan = _plan(kw, c_in, c_out)
    if plan == "whole":
        if cols is None:
            cols = _unfold(xp, kh, kw)
        out = np.empty((a * h * w, c_out))
        return _sum_of_products([(cols, kernel.reshape(-1, c_out))],
                                out).reshape(a, h, w, c_out)
    rows = a * hp * wp
    m = rows - (kh - 1) * wp - (kw - 1)  # rows up to the last valid cell
    x = xp.reshape(rows, c_in)
    if plan == "rows":
        unfolded, krows = _unfold_rows(x, kw), kernel.reshape(kh, kw * c_in, c_out)
        products = [(unfolded[di * wp:di * wp + m], krows[di]) for di in range(kh)]
    else:
        products = [(x[di * wp + dj:di * wp + dj + m], kernel[di, dj])
                    for di in range(kh) for dj in range(kw)]
    out = np.empty((rows, c_out))
    _sum_of_products(products, out[:m])
    return out.reshape(a, hp, wp, c_out)[:, :h, :w]


def _conv_forward(
    x: np.ndarray, kernel: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded conv of x plus bias.  Returns z and the input operand of
    `_kernel_gradient`: x unfolded where the plan is "whole", else padded x."""
    kh, kw, c_in, c_out = kernel.shape
    xp = _pad(x, kh, kw)
    if _plan(kw, c_in, c_out) != "whole":
        return _correlate(xp, kernel) + bias, xp
    cols = _unfold(xp, kh, kw)
    return _correlate(xp, kernel, cols) + bias, cols


def _kernel_gradient(
    saved: np.ndarray, dz: np.ndarray, dzp: Optional[np.ndarray], kshape: tuple
) -> np.ndarray:
    """dL/dkernel (shape `kshape`): the correlation of the padded input with dz.

    Where the forward product unfolds the whole kernel, `saved` is that
    unfolded input and this is one product with dz.  Otherwise `saved` is
    the padded input xp, and this takes one product per offset, on views
    of xp and of dzp, dz padded for the flipped kernel (unused in the first
    case): dzp's rows from (kh // 2)*Wp + kw // 2 on hold dz at the top left
    of xp's grid.
    """
    kh, kw, c_in, c_out = kshape
    if _plan(kw, c_in, c_out) == "whole":
        return _inner_products([saved], dz.reshape(-1, c_out)).reshape(kshape)
    a, hp, wp, _ = saved.shape
    rows = a * hp * wp
    m = rows - (kh - 1) * wp - (kw - 1)
    shift = (kh // 2) * wp + kw // 2
    x, d = saved.reshape(rows, c_in), dzp.reshape(rows, c_out)[shift:shift + m]
    views = [x[di * wp + dj:di * wp + dj + m] for di in range(kh) for dj in range(kw)]
    return _inner_products(views, d).reshape(kshape)


# --------------------------- public ops ----------------------------------

def _check_input(spec: NetworkSpec, x: np.ndarray) -> None:
    if tuple(x.shape[-3:]) != tuple(spec.input_shape):
        raise ValueError(f"input shape {x.shape[-3:]} != spec {spec.input_shape}")


def _chunk_size(spec: NetworkSpec) -> int:
    """Samples per pass of `forward_batch` and `batch_gradient`.

    As many samples as fit _CHUNK_BYTES of the widest layer's activations,
    and at least one.  A pass's buffers are a few times that activation,
    so a batch of any size runs in a bounded working set.
    """
    h, w, c_in = spec.input_shape
    widest = max(c_in, *(layer.filters for layer in spec.layers))
    return max(1, _CHUNK_BYTES // (8 * h * w * widest))


def forward_batch(spec: NetworkSpec, params: ParamVector, xs: np.ndarray) -> np.ndarray:
    """Outputs of a batch, computed in chunks of `_chunk_size` samples; each
    sample's output is the same bit for bit however the batch is chunked."""
    _check_input(spec, xs)
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty(xs.shape[:3] + (spec.layers[-1].filters,))
    step = _chunk_size(spec)
    for start in range(0, len(xs), step):
        act = xs[start:start + step]
        for i, layer in enumerate(spec.layers):
            kernel = params.kernel(i)
            z = _correlate(_pad(act, *kernel.shape[:2]), kernel) + params.bias(i)
            act = _ACT[layer.activation][0](z)
        out[start:start + step] = act
    return out


def forward(spec: NetworkSpec, params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Run one sample through the network; output keeps the input grid size."""
    if x.ndim != 3:
        raise ValueError(f"expected (H, W, C) input, got shape {x.shape}")
    return forward_batch(spec, params, x[None])[0]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def batch_gradient(
    spec: NetworkSpec, params: ParamVector, inputs: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, float]:
    """Gradient of the batch-mean MSE w.r.t. the flat params, plus the loss.

    The batch runs in chunks of `_chunk_size` samples, whose kernel and bias
    gradients add up in chunk order.
    """
    if inputs.shape[0] == 0:
        raise ValueError("empty batch")
    _check_input(spec, inputs)
    output = inputs.shape[:3] + (spec.layers[-1].filters,)
    if targets.shape != output:
        raise ValueError(f"targets shape {targets.shape} != output {output}")
    inputs = np.asarray(inputs, dtype=np.float64)
    grad = ParamVector(np.zeros_like(params.data), params.layout)
    # batch-mean of per-sample mean MSE: every element carries 1/(A*H*W*C)
    scale = 2.0 / targets.size
    sse = 0.0
    step = _chunk_size(spec)
    for start in range(0, len(inputs), step):
        sse += _chunk_gradient(spec, params, inputs[start:start + step],
                               targets[start:start + step], scale, grad)
    return grad.data, sse / targets.size


def _chunk_gradient(
    spec: NetworkSpec, params: ParamVector, inputs: np.ndarray, targets: np.ndarray,
    scale: float, grad: ParamVector,
) -> float:
    """Add `scale` times the chunk's gradient of its summed squared error to
    `grad`; return that summed squared error."""
    act = inputs
    saved, zs = [], []
    for i, layer in enumerate(spec.layers):
        z, operand = _conv_forward(act, params.kernel(i), params.bias(i))
        saved.append(operand)
        zs.append(z)
        act = _ACT[layer.activation][0](z)
    # the output is this chunk's own buffer; it becomes diff and then da
    diff = act
    diff -= targets
    sse = float(np.sum(diff * diff))
    da = diff
    da *= scale
    del act, diff
    for i in range(len(spec.layers) - 1, -1, -1):
        kernel = params.kernel(i)
        kh, kw, c_in, c_out = kernel.shape
        # popped and deleted, so that each buffer is freed once it is done
        # with: the input gradient's products, which need only dzp, hold the
        # chunk's peak while the layer-0 unfold is still kept
        dz = _ACT[spec.layers[i].activation][1](zs.pop())
        dz *= da
        del da
        # layer 0 needs no input gradient, nor dzp when it unfolds whole
        dzp = _pad(dz, kh, kw, flipped=True) if i or _plan(kw, c_in, c_out) != "whole" else None
        grad.kernel(i)[...] += _kernel_gradient(saved.pop(), dz, dzp, kernel.shape)
        grad.bias(i)[...] += dz.sum(axis=(0, 1, 2))
        del dz
        if i:
            da = _correlate(dzp, np.ascontiguousarray(kernel[::-1, ::-1].transpose(0, 1, 3, 2)))
    return sse


# --------------------------- optimizers ----------------------------------

@dataclass
class OptimizerState:
    kind: str  # "sgd" | "adam"
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: Optional[np.ndarray] = None
    second_moment: Optional[np.ndarray] = None


def init_optimizer(
    kind: str, n_params: int, learning_rate: float, beta1: float = 0.9,
    beta2: float = 0.999, eps: float = 1e-8,
) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    state = OptimizerState(kind, learning_rate, beta1, beta2, eps)
    if kind == "adam":
        state.first_moment = np.zeros(n_params)
        state.second_moment = np.zeros(n_params)
    return state


def optimizer_step(
    params: np.ndarray, grad: np.ndarray, state: OptimizerState
) -> tuple[np.ndarray, OptimizerState]:
    if params.shape != grad.shape:
        raise ValueError(f"length mismatch {params.shape} vs {grad.shape}")
    t = state.step_count + 1
    if state.kind == "sgd":
        new = params - state.learning_rate * grad
        next_state = replace(state, step_count=t)
        return new, next_state
    m = state.beta1 * state.first_moment + (1.0 - state.beta1) * grad
    v = state.beta2 * state.second_moment + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    next_state = replace(state, step_count=t, first_moment=m, second_moment=v)
    return new, next_state


def train_minibatch(
    spec: NetworkSpec,
    params: ParamVector,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    rng: np.random.Generator,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    optimizer: str = "adam",
    max_steps: Optional[int] = None,
) -> ParamVector:
    """Mini-batch training loop with per-epoch shuffling from `rng`.

    The last partial batch of each epoch is kept.  With `max_steps` the loop
    stops after that many optimizer steps regardless of epoch boundaries
    (used for the fixed-step SGD mode).
    """
    if inputs.shape[0] == 0:
        raise ValueError("empty training set")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    n = inputs.shape[0]
    flat = params.data.copy()
    state = init_optimizer(optimizer, flat.size, learning_rate, beta1, beta2, eps)
    steps = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for s in range(0, n, batch_size):
            if max_steps is not None and steps >= max_steps:
                break
            idx = order[s:s + batch_size]
            view = ParamVector(flat, params.layout)
            grad, _ = batch_gradient(spec, view, inputs[idx], targets[idx])
            flat, state = optimizer_step(flat, grad, state)
            steps += 1
        if max_steps is not None and steps >= max_steps:
            break
    return ParamVector(flat, params.layout)
