"""Minimal float64 conv-net engine: explicit forward/backward, MSE, SGD/Adam.

Tensors are plain numpy arrays, row-major, shape (height, width, channels)
for a single sample or (batch, height, width, channels) for batches; inside
a pass the engine holds them channels first (see the conv plumbing).  All
convolutions are stride-1 with same padding, so spatial size is preserved
end to end and the network maps an H x W x C_in grid to H x W x C_out.  A
network's parameters are one flat float64 vector, read per layer through
`layer_params`.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import engine
from ._fields import check_fields

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
SOFTPLUS_CUTOFF = 30.0  # softplus(x) ~ x above this; avoids exp overflow
_BLOCK_MACS = 1 << 19  # multiply-adds per matrix product in the conv plumbing
_CHUNK_BYTES = 3 << 18  # widest-layer activation bytes per forward/gradient pass
_CHUNK_MACS = 1 << 24  # forward multiply-adds per gradient chunk
_NARROW = 16  # a layer with more channels on a side stores its buffers cells major
_ALIGN = 64  # a channels-first product spans a multiple of this many cells
ACTIVATIONS = ("selu", "softplus")


@dataclass(frozen=True)
class LayerSpec:
    kernel_h: int
    kernel_w: int
    filters: int
    activation: str

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class NetworkSpec:
    """Conv-stack description: ordered layers plus the input grid shape."""

    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int]

    def __post_init__(self) -> None:
        check_fields(self)
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


def param_count(spec: NetworkSpec) -> int:
    count, c_in = 0, spec.input_shape[2]
    for layer in spec.layers:
        count += (layer.kernel_h * layer.kernel_w * c_in + 1) * layer.filters
        c_in = layer.filters
    return count


def layer_params(spec: NetworkSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(kernel, bias) views of each layer in the flat parameter vector.

    The vector holds layer after layer a (kh, kw, C_in, C_out) kernel, row
    major, then its C_out biases.  It must be 1-D float64 with exactly
    `param_count(spec)` entries, so that a vector never runs as another
    network than its spec.
    """
    count = param_count(spec)
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64
            and params.shape == (count,)):
        got = getattr(params, "dtype", type(params).__name__)
        raise ValueError(f"params must be 1-D float64 with {count} entries for this spec, "
                         f"got {got} of shape {np.shape(params)}")
    views, offset, c_in = [], 0, spec.input_shape[2]
    for layer in spec.layers:
        kshape = (layer.kernel_h, layer.kernel_w, c_in, layer.filters)
        end = offset + math.prod(kshape)
        views.append((params[offset:end].reshape(kshape), params[end:end + layer.filters]))
        offset, c_in = end + layer.filters, layer.filters
    return views


def init_params(spec: NetworkSpec, seed: int) -> np.ndarray:
    """Fan-in-scaled uniform kernels, zero biases; reproducible per (spec, seed)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    params = np.zeros(param_count(spec))
    for kernel, _ in layer_params(spec, params):
        kh, kw, c_in, _ = kernel.shape
        bound = np.sqrt(1.0 / (kh * kw * c_in))
        kernel[...] = rng.uniform(-bound, bound, kernel.shape)
    return params


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


def selu_with_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """selu(x) and its derivative, from one exponential: the derivative is
    lambda * (exp(min(x, 0)) * alpha where x <= 0, else 1), and
    exp(min(x, 0)) is the forward's expm1(min(x, 0)) + 1."""
    neg = np.minimum(x, 0.0)
    np.expm1(neg, out=neg)
    # alpha + (1 - alpha) is exactly 1.0, so the positive branch is exact
    grad = (x > 0.0) * (1.0 - SELU_ALPHA)
    grad += SELU_ALPHA
    grad *= neg + 1.0
    grad *= SELU_LAMBDA
    neg *= SELU_ALPHA
    out = np.maximum(x, 0.0)
    out += neg
    out *= SELU_LAMBDA
    return out, grad


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


# name -> (value, (value, derivative))
_ACT = {"selu": (selu, selu_with_grad),
        "softplus": (softplus, lambda x: (softplus(x), softplus_grad(x)))}


# --------------------------- conv plumbing -------------------------------
#
# Inside a pass a batch is indexed channels first, (C, A, H, W).  On its
# zero-padded grid (A, Hp, Wp) it reads as C rows of A*Hp*Wp cells, and the
# cells under kernel offset (di, dj) are the column slice that starts at
# di*Wp + dj, so an offset's operand is a view, not a copy.  Outputs
# computed this way lie on the same padded grid: the top-left
# (Hp - kh + 1) x (Wp - kw + 1) corner of each sample is valid, the other
# cells hold junk from neighbouring rows and are cropped.  Padded cells
# separate the samples, so no valid cell reads another sample.
#
# A product is (C_out x k) @ (k x cells), so that the long cell axis is the
# wide output axis of the matrix product: with C_out of 2 to 6 channels
# BLAS ran that 2 to 2.6 times faster than C_out-wide rows of cells.  A
# layer with a side of more than _NARROW channels ran faster the other way
# round, and stores its buffers cells major (`_cells_major`); the code
# indexes them channels first all the same.  Each product takes the
# orientation of its input operand and writes into a buffer stored as the
# layer that reads it next, so a layer's activation, its gradient and the
# derivative they multiply share one orientation.
#
# The product shape follows the channel counts (`_plan`).  A correlation
# that widens the channels unfolds its input: the whole kernel when
# kw*C_in <= C_out, over the valid cells only, so the output needs no
# cropping; else one kernel row, whose copy serves all kh kernel rows as
# views shifted by di*Wp.  That makes 1 or kh large products instead of
# kh*kw accumulations into the wide output.  Other correlations take one
# product per offset on the views.  The order of the products is fixed, so
# the summation order never varies between calls.
#
# Backward, the input gradient is this same correlation: dz, padded for the
# flipped kernel, with the flipped and transposed kernel.  The kernel
# gradient takes the forward's unfolded input and the same column offsets,
# one product with dz per forward product.  Layer 0 needs no input
# gradient.

def _plan(kw: int, c_in: int, c_out: int) -> str:
    """How a correlation forms its products: "whole" (unfold the kernel),
    "rows" (unfold one kernel row) or "offsets" (one product per offset)."""
    if kw * c_in <= c_out:
        return "whole"
    return "rows" if c_out > c_in else "offsets"


def _cells_major(kernel_shape: tuple) -> bool:
    """Whether the buffers of the layer with this kernel are stored cells
    major.  The whole-kernel unfold is built channels first either way."""
    _, kw, c_in, c_out = kernel_shape
    return max(c_in, c_out) > _NARROW and _plan(kw, c_in, c_out) != "whole"


def _is_cells_major(x: np.ndarray) -> bool:
    return x.strides[0] < x.strides[1]


def _empty(c: int, cells: int, cells_major: bool, fill=np.empty) -> np.ndarray:
    """A (c, cells) buffer, stored cells major or channels first."""
    return fill((cells, c)).T if cells_major else fill((c, cells))


def _aligned(cells: int) -> int:
    return -(-cells // _ALIGN) * _ALIGN


def _pad(x: np.ndarray, kh: int, kw: int, cells_major: bool,
         flipped: bool = False) -> np.ndarray:
    """x (C, A, H, W) zero-padded for a same correlation with a kh x kw
    kernel, or with that kernel flipped, as (C, A*Hp*Wp + _ALIGN) cells:
    the last _ALIGN zeros let a product span `_aligned` cells.  An even
    kernel pads one more row below (column right) than above (left);
    flipping it swaps the sides."""
    c, a, h, w = x.shape
    top, left = (kh // 2, kw // 2) if flipped else ((kh - 1) // 2, (kw - 1) // 2)
    hp, wp = h + kh - 1, w + kw - 1
    xp = _empty(c, a * hp * wp + _ALIGN, cells_major, np.zeros)
    xp[:, :a * hp * wp].reshape(c, a, hp, wp)[:, :, top:top + h, left:left + w] = x
    return xp


def _unfold(xp: np.ndarray, grid: tuple, kh: int, kw: int, plan: str) -> tuple:
    """The input operand of a correlation with a kh x kw kernel under `plan`
    on the padded grid (A, Hp, Wp), and the column offsets of its products.
    Row (s, c) of an unfolded operand is channel c shifted by s cells."""
    a, hp, wp = grid
    c, rows = xp.shape[0], [di * wp for di in range(kh)]
    if plan == "offsets":
        return xp, [r + dj for r in rows for dj in range(kw)]
    if plan == "whole":
        h, w = hp - kh + 1, wp - kw + 1
        cols = np.empty((kh * kw * c, _aligned(a * h * w)))
        cols[:, a * h * w:] = 0.0
        windows = sliding_window_view(xp[:, :a * hp * wp].reshape(c, a, hp, wp), (h, w),
                                      axis=(2, 3))  # (C, A, kh, kw, h, w)
        cols[:, :a * h * w].reshape(kh, kw, c, a, h, w)[...] = windows.transpose(2, 3, 0, 1, 4, 5)
        return cols, [0]
    if _is_cells_major(xp):
        # a cell's kw*C row unfold is one contiguous run of the buffer
        unfolded = sliding_window_view(xp.T.reshape(-1), kw * c)[::c]
        return np.ascontiguousarray(unfolded).T, rows
    out = np.empty((kw * c, xp.shape[1] - kw + 1))
    for dj in range(kw):
        out[dj * c:(dj + 1) * c] = xp[:, dj:dj + out.shape[1]]
    return out, rows


def _sum_of_products(blocks: np.ndarray, operands: list, out: np.ndarray) -> np.ndarray:
    """out = sum of b.T @ x over the kernel blocks b (k, C_out) of `blocks`
    and the operands x (k, cells), into out (C_out, cells).

    The products run in the orientation of the operands.  Column blocks of
    at most _BLOCK_MACS multiply-adds per product keep each block's
    operands in cache across the products.
    """
    k, n = blocks.shape[1:]
    cells_major = _is_cells_major(operands[0])
    # the kernel operand goes to BLAS C-contiguous in either orientation:
    # a transposed one took twice as long
    blocks = blocks if cells_major else np.ascontiguousarray(blocks.transpose(0, 2, 1))
    # column blocks of about equal width, none of them short
    count = max(1, round(out.shape[1] / max(_ALIGN, _BLOCK_MACS // (k * n))))
    step = _aligned(-(-out.shape[1] // count))
    term = _empty(n, min(step, out.shape[1]), _is_cells_major(out))
    for start in range(0, out.shape[1], step):
        acc = out[:, start:start + step]
        for i, (b, x) in enumerate(zip(blocks, operands)):
            part = term[:, :acc.shape[1]] if i else acc
            if cells_major:
                np.matmul(x[:, start:start + step].T, b, out=part.T)
            else:
                np.matmul(b, x[:, start:start + step], out=part)
            if i:
                acc += part
    return out


def _inner_products(operands: list, b: np.ndarray) -> np.ndarray:
    """[a @ b.T for a in operands], each a as wide as b, summed over column
    blocks as in `_sum_of_products`."""
    k, n = operands[0].shape[0], b.shape[0]
    step = max(1, _BLOCK_MACS // (k * n))
    out = np.zeros((len(operands), k, n))
    part = np.empty((k, n))
    for start in range(0, b.shape[1], step):
        block = b[:, start:start + step].T
        for a, acc in zip(operands, out):
            np.matmul(a[:, start:start + step], block, out=part)
            acc += part
    return out


def _correlate(xp: np.ndarray, grid: tuple, kernel: np.ndarray, cells_major: bool,
               unfolded: Optional[tuple] = None) -> np.ndarray:
    """Valid correlation of the padded batch xp (C_in, cells) on the grid
    (A, Hp, Wp) with `kernel` (kh, kw, C_in, C_out): shape
    (C_out, A, Hp - kh + 1, Wp - kw + 1), stored cells major or not, and
    possibly a view.  `unfolded` may hold `_unfold`'s result for it."""
    a, hp, wp = grid
    kh, kw, c_in, c_out = kernel.shape
    h, w = hp - kh + 1, wp - kw + 1
    whole = _plan(kw, c_in, c_out) == "whole"
    x, offsets = unfolded or _unfold(xp, grid, kh, kw, _plan(kw, c_in, c_out))
    cells = a * h * w if whole else a * hp * wp
    m = cells if whole else cells - (kh - 1) * wp - (kw - 1)  # up to the last valid cell
    if not _is_cells_major(x):
        # BLAS computes the last cells of a channels-first product, those
        # past a multiple of its kernel's width, in a tail kernel that
        # rounds differently: so that no cell's value depends on where the
        # chunk puts it, products span a multiple of _ALIGN cells
        m = _aligned(m)
    out = _empty(c_out, max(m, cells), cells_major)
    _sum_of_products(kernel.reshape(len(offsets), -1, c_out),
                     [x[:, s:s + m] for s in offsets], out[:, :m])
    if whole:
        return out[:, :cells].reshape(c_out, a, h, w)
    return out[:, :cells].reshape(c_out, a, hp, wp)[:, :, :h, :w]


def _kernel_gradient(unfolded: tuple, dz: np.ndarray, dzp: Optional[np.ndarray],
                     grid: tuple, kshape: tuple) -> np.ndarray:
    """dL/dkernel (shape `kshape`): the correlation of the padded input,
    unfolded as for the forward, with dz.  Where the forward unfolds the
    whole kernel this is one product with dz over the valid cells.
    Otherwise it takes dzp, dz padded for the flipped kernel (unused in the
    first case): its cells from (kh // 2)*Wp + kw // 2 on hold dz at the top
    left of the input's grid, and zeros on its junk cells."""
    kh, kw, c_in, c_out = kshape
    x, offsets = unfolded
    if _plan(kw, c_in, c_out) == "whole":
        d = dz.reshape(c_out, -1)
        return _inner_products([x[:, :d.shape[1]]], d).reshape(kshape)
    a, hp, wp = grid
    m = a * hp * wp - (kh - 1) * wp - (kw - 1)
    shift = (kh // 2) * wp + kw // 2
    d = dzp[:, shift:shift + m]
    return _inner_products([x[:, s:s + m] for s in offsets], d).reshape(kshape)


def _layouts(weights: list) -> list[tuple[bool, bool]]:
    """Per layer, whether its padded input and padded gradient are stored
    cells major, and whether its output and the gradient with respect to
    that output are: so if the layer or the next one is."""
    wide = [_cells_major(kernel.shape) for kernel, _ in weights] + [False]
    return [(wide[i], wide[i] or wide[i + 1]) for i in range(len(weights))]


def _operand(x: np.ndarray, kshape: tuple, cells_major: bool) -> tuple:
    """x (C, A, H, W) as the input operand of a same correlation with a
    kernel of shape `kshape`: padded, its grid, and unfolded."""
    kh, kw, c_in, c_out = kshape
    _, a, h, w = x.shape
    grid = (a, h + kh - 1, w + kw - 1)
    xp = _pad(x, kh, kw, cells_major)
    return xp, grid, _unfold(xp, grid, kh, kw, _plan(kw, c_in, c_out))


def _conv(x: np.ndarray, kernel: np.ndarray, layout: tuple,
          operand: Optional[tuple] = None) -> tuple[np.ndarray, tuple]:
    """Same-padded correlation of x (C, A, H, W) with `kernel`, without the
    bias, and the unfolded input that `_kernel_gradient` takes.  `operand`
    may hold `_operand`'s result for x."""
    xp, grid, unfolded = operand or _operand(x, kernel.shape, layout[0])
    return _correlate(xp, grid, kernel, layout[1], unfolded), unfolded


# --------------------------- public ops ----------------------------------

def _check_input(spec: NetworkSpec, x: np.ndarray) -> None:
    if x.shape[1:] != spec.input_shape:
        raise ValueError(f"input shape {x.shape} is not (batch,) + spec {spec.input_shape}")


def _pass_size(spec: NetworkSpec) -> int:
    """The most samples one forward or gradient pass takes: as many as fit
    _CHUNK_BYTES of the widest layer's activations, and at least one.  A
    pass's buffers are a few times that activation, so a batch of any size
    runs in a bounded working set."""
    h, w, c_in = spec.input_shape
    widest = max(c_in, *(layer.filters for layer in spec.layers))
    return max(1, _CHUNK_BYTES // (8 * h * w * widest))


def _sample_macs(spec: NetworkSpec) -> int:
    """Multiply-adds of one sample's forward."""
    h, w, c = spec.input_shape
    macs = 0
    for layer in spec.layers:
        macs += h * w * layer.kernel_h * layer.kernel_w * c * layer.filters
        c = layer.filters
    return macs


def _chunk_size(spec: NetworkSpec) -> int:
    """Samples per gradient chunk, the unit of the gradient's summation
    order: at most half a pass and _CHUNK_MACS forward multiply-adds, so
    that a pass-sized batch makes two chunks for the helper processes to
    share; at least one."""
    return max(1, min(_pass_size(spec) // 2, _CHUNK_MACS // _sample_macs(spec)))


def forward_batch(spec: NetworkSpec, params: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Outputs of a batch, computed in passes of at most `_pass_size`
    samples; each sample's output is the same bit for bit however the batch
    is cut and wherever its part is computed."""
    layer_params(spec, params)
    return _forward(spec, params[None], xs)


def forward_sum(spec: NetworkSpec, draws: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The sum of the outputs of the batch xs under each row of `draws`,
    started from zeros and added in row order.  Each row's outputs are the
    same bit for bit as its own `forward_batch`."""
    if len(draws) == 0:
        raise ValueError("forward_sum needs at least one row of params")
    for params in draws:
        layer_params(spec, params)
    total = _forward(spec, draws, xs)
    total += 0.0  # a lone row's -0.0 sums to +0.0, as a sum from zeros does
    return total


def _forward(spec: NetworkSpec, models: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Each sample's `_forward_pass` result under the stack `models`."""
    _check_input(spec, xs)
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty(xs.shape[:3] + (spec.layers[-1].filters,))
    start = 0

    def place(outputs):
        nonlocal start
        out[start:start + len(outputs)] = outputs
        start += len(outputs)

    # a unit is a sample, placed by position, which costs a forward a row
    engine.run(functools.partial(_forward_pass, spec), [(models, [xs], ())], place,
               unit=1, step=_pass_size(spec), sample_macs=len(models) * _sample_macs(spec),
               result_bytes=out[:1].nbytes)
    return out


def batch_gradients(spec: NetworkSpec, jobs: list) -> list[tuple[np.ndarray, float]]:
    """For each job (params, inputs, targets): the gradient of its
    batch-mean MSE w.r.t. the flat params, plus the loss.

    One engine call: its units are the chunks of `_chunk_size` samples of
    every job, in job order.  A job's gradient and squared error add up its
    own chunks in chunk order, wherever each chunk is computed, so each
    job's result is the same bit for bit as in a call of its own.
    """
    checked = []
    for params, inputs, targets in jobs:
        if inputs.shape[0] == 0:
            raise ValueError("empty batch")
        _check_input(spec, inputs)
        output = inputs.shape[:3] + (spec.layers[-1].filters,)
        if targets.shape != output:
            raise ValueError(f"targets shape {targets.shape} != output {output}")
        layer_params(spec, params)
        # batch-mean of per-sample mean MSE: every element carries 1/(A*H*W*C)
        checked.append((params, [np.asarray(inputs, dtype=np.float64), targets],
                        (2.0 / targets.size,)))
    grads = [np.zeros(params.size) for params, _, _ in checked]
    sses = [0.0] * len(checked)
    chunk = _chunk_size(spec)
    owners = iter([j for j, (_, arrays, _) in enumerate(checked)
                   for _ in range(0, len(arrays[0]), chunk)])

    def add(result):
        j = next(owners)
        grads[j] += result[0]
        sses[j] += result[1]

    # a gradient sample counts as three forward ones: the forward, the
    # kernel gradient and the input gradient
    engine.run(functools.partial(_gradient_chunk, spec), checked, add, unit=chunk, step=chunk,
               sample_macs=3 * _sample_macs(spec), result_bytes=8 * param_count(spec))
    return [(grad, sse / targets.size)
            for grad, sse, (_, (_, targets), _) in zip(grads, sses, checked)]


def batch_gradient(
    spec: NetworkSpec, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, float]:
    """One job's `batch_gradients`.  The package trains through
    `batch_gradients`; the benchmark's per-layer conv timings
    (`perfbench/bench.py`) and the tests call this."""
    return batch_gradients(spec, [(params, inputs, targets)])[0]


def _forward_pass(spec: NetworkSpec, params: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Outputs of the samples xs under each row of the stack `params`: a
    lone row's as they are, else their sum, started from zeros and added in
    row order.  Layer 0's input operand does not depend on the parameters,
    so it is padded and unfolded once for several rows; a lone row's frees
    it after layer 0."""
    models = [layer_params(spec, row) for row in params]
    x = xs.transpose(3, 0, 1, 2)
    layouts = _layouts(models[0])
    operand, total = None, None
    if len(models) > 1:
        operand = _operand(x, models[0][0][0].shape, layouts[0][0])
        total = np.zeros(xs.shape[:3] + (spec.layers[-1].filters,))
    for weights in models:
        act, given = x, operand
        for layer, (kernel, bias), layout in zip(spec.layers, weights, layouts):
            z = _conv(act, kernel, layout, given)[0] + bias[:, None, None, None]
            act, given = _ACT[layer.activation][0](z), None
        if total is None:
            return act.transpose(1, 2, 3, 0)
        total += act.transpose(1, 2, 3, 0)
    return total


def _gradient_chunk(
    spec: NetworkSpec, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray, scale: float,
) -> tuple[np.ndarray, float]:
    """`scale` times the chunk's gradient of its summed squared error, as a
    flat vector, and that summed squared error."""
    weights = layer_params(spec, params)
    grad = np.zeros(params.size)
    grads = layer_params(spec, grad)
    act = inputs.transpose(3, 0, 1, 2)
    saved, derivatives = [], []
    layouts = _layouts(weights)
    for layer, (kernel, bias), layout in zip(spec.layers, weights, layouts):
        z, unfolded = _conv(act, kernel, layout)
        saved.append(unfolded)
        act, derivative = _ACT[layer.activation][1](z + bias[:, None, None, None])
        derivatives.append(derivative)
    # the output is this chunk's own buffer; it becomes diff and then da
    diff = act
    diff -= targets.transpose(3, 0, 1, 2)
    sse = float(np.sum(diff * diff))
    da = diff
    da *= scale
    del act, diff
    for i in range(len(spec.layers) - 1, -1, -1):
        kernel = weights[i][0]
        kh, kw, c_in, c_out = kernel.shape
        # popped and deleted, so that each buffer is freed once it is done with
        dz = derivatives.pop()
        dz *= da
        del da
        _, a, h, w = dz.shape
        grid = (a, h + kh - 1, w + kw - 1)
        # layer 0 needs no input gradient, nor dzp when it unfolds whole
        dzp = _pad(dz, kh, kw, layouts[i][0], flipped=True) \
            if i or _plan(kw, c_in, c_out) != "whole" else None
        grads[i][0][...] = _kernel_gradient(saved.pop(), dz, dzp, grid, kernel.shape)
        grads[i][1][...] = dz.sum(axis=(1, 2, 3))
        del dz
        if i:
            flipped = np.ascontiguousarray(kernel[::-1, ::-1].transpose(0, 1, 3, 2))
            da = _correlate(dzp, grid, flipped, layouts[i - 1][1])
    return grad, sse


# --------------------------- training ------------------------------------

ADAM_BETA2 = 0.999  # Adam's second-moment decay (Kingma & Ba, 2015)
ADAM_EPS = 1e-8


def train_minibatch(
    spec: NetworkSpec,
    params: np.ndarray,
    datasets: list,
    *,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    beta1: float = 0.9,
    optimizer: str = "adam",
    max_steps: Optional[int] = None,
) -> list[np.ndarray]:
    """Mini-batch SGD or Adam from `params` on each of the datasets
    (inputs, targets, rng), with per-epoch shuffling from its rng; one
    trained vector per dataset.

    The datasets train in lockstep: each step is one `batch_gradients` call
    for the next mini-batch of every dataset still training, and each
    dataset's steps are the same as if it trained alone.  The last partial
    batch of each epoch is kept.  With `max_steps` a dataset stops after
    that many optimizer steps, whatever the epoch (the fixed-step SGD mode);
    one that takes no step draws nothing from its rng.  Adam's moments
    start at zero, with decay rates `beta1` and ADAM_BETA2.
    """
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if any(inputs.shape[0] == 0 for inputs, _, _ in datasets):
        raise ValueError("empty training set")
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    layer_params(spec, params)  # checked here too, for runs that take no step
    batches = [_batches(len(inputs), batch_size, epochs, max_steps, rng)
               for inputs, _, rng in datasets]
    trained = [params.copy() for _ in datasets]
    zeros = np.zeros(params.size)
    m, v = [zeros] * len(datasets), [zeros] * len(datasets)  # Adam's moments, rebound
    # a finished dataset sits out as None; all others have taken `steps` steps
    for steps, step in enumerate(itertools.zip_longest(*batches), start=1):
        stepping = [(i, idx) for i, idx in enumerate(step) if idx is not None]
        grads = batch_gradients(spec, [(trained[i], datasets[i][0][idx], datasets[i][1][idx])
                                       for i, idx in stepping])
        for (i, _), (grad, _) in zip(stepping, grads):
            if optimizer == "sgd":
                trained[i] = trained[i] - learning_rate * grad
                continue
            m[i] = beta1 * m[i] + (1.0 - beta1) * grad
            v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m[i] / (1.0 - beta1 ** steps)
            v_hat = v[i] / (1.0 - ADAM_BETA2 ** steps)
            trained[i] = trained[i] - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return trained


def _batches(n: int, batch_size: int, epochs: int, max_steps: Optional[int],
             rng: np.random.Generator):
    """A lazy stream of the index arrays of one dataset's mini-batches, the
    first `max_steps` of them if given: each epoch shuffles its n samples
    with one permutation from rng, drawn only when the epoch's first batch
    is taken, so a dataset that takes no step draws nothing."""
    orders = (rng.permutation(n) for _ in range(epochs))
    return itertools.islice((order[s:s + batch_size] for order in orders
                             for s in range(0, n, batch_size)), max_steps)
