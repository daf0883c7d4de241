"""Synthetic pilot/CSI data: tapped multipath channels with Doppler drift.

A channel realization is a complex grid over (subcarrier, OFDM symbol)
built from a handful of paths with random gains, integer delay taps and
Doppler shifts.  The model input is the noisy pilot observation of that
grid bilinearly interpolated to full size; the label is the true grid.
Complex grids are carried as two real channels (real, imaginary).

`make_samples` synthesizes many samples at once: each draws its fading
parameters and then its pilot noise from the stream in turn, as one
sample at a time would, while the grid and interpolation math runs on
stacked arrays, a block of samples bounded in bytes at a time.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._fields import check_fields


@dataclass(frozen=True)
class ChannelConfig:
    grid_height: int = 72
    grid_width: int = 14
    path_count: int = 12
    max_delay_taps: int = 6
    doppler_spread: float = 0.05
    pilot_noise_stddev: float = 0.1
    pilot_rows_stride: int = 2
    pilot_cols_stride: int = 2
    # amplitude of the channel process: E|H|^2 = gain_scale^2.  The loss
    # pre-filter's printed CDF has an absolute sensitivity, so experiments
    # exercising it need CSI magnitudes commensurate with its working band.
    gain_scale: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.gain_scale <= 0:
            raise ValueError("gain_scale must be finite and > 0")
        if self.grid_height < self.pilot_rows_stride or self.grid_width < self.pilot_cols_stride:
            raise ValueError("grid dimensions must be >= pilot strides")
        if self.pilot_rows_stride < 1 or self.pilot_cols_stride < 1:
            raise ValueError("pilot strides must be >= 1")
        if self.path_count < 1:
            raise ValueError("path_count must be >= 1")
        if self.max_delay_taps < 0:
            raise ValueError("max_delay_taps must be >= 0")
        if self.pilot_noise_stddev < 0 or self.doppler_spread < 0:
            raise ValueError("noise stddev and doppler spread must be finite and >= 0")


@dataclass(frozen=True)
class FadingParams:
    """Per-sample multipath parameters, kept so stale CSI can be re-synthesized."""

    gains: np.ndarray    # complex, (P,), or (..., P) for stacked samples
    delays: np.ndarray   # int, same shape
    dopplers: np.ndarray  # float, same shape


@dataclass(frozen=True)
class ChannelSample:
    input: np.ndarray   # (H, W, 2) interpolated noisy pilots
    label: np.ndarray   # (H, W, 2) true CSI
    provenance: str = "authentic"
    uid: int = 0
    fading: Optional[FadingParams] = None


@dataclass
class CachedDataset:
    """One station's per-round dataset with its authentic/poisoned split."""

    samples: list
    sbs_id: int = 0
    round_index: int = 0  # the round it trains in
    # client-owned sample count, used as the aggregation weight; top-up
    # padding appended by the server does not change it
    aggregation_len: int = 0

    def __post_init__(self):
        if self.aggregation_len == 0:
            self.aggregation_len = len(self.samples)

    @property
    def l_n(self) -> int:
        return len(self.samples)


def split_complex(grid: np.ndarray) -> np.ndarray:
    """The (..., 2) float64 view of the contiguous complex grid: its real
    and imaginary parts, last axis."""
    grid = np.ascontiguousarray(grid, dtype=np.complex128)
    return grid.view(np.float64).reshape(grid.shape + (2,))


def draw_fading(cfg: ChannelConfig, rng: np.random.Generator) -> FadingParams:
    p = cfg.path_count
    re_im = rng.normal(scale=cfg.gain_scale * np.sqrt(1.0 / (2.0 * p)), size=(p, 2))
    gains = re_im[:, 0] + 1j * re_im[:, 1]
    delays = rng.integers(0, cfg.max_delay_taps + 1, size=p)
    dopplers = rng.uniform(-cfg.doppler_spread, cfg.doppler_spread, size=p)
    return FadingParams(gains=gains, delays=delays, dopplers=dopplers)


def channel_grid(
    fading: FadingParams, height: int, width: int, time_offset: float = 0.0
) -> np.ndarray:
    """H[f, t] = sum_p a_p exp(-j2pi f tau_p / H) exp(j2pi nu_p (t + offset)):
    one (height, width) grid for each sample of the (..., P) parameters."""
    delays = fading.delays
    table = _delay_steering(height, int(delays.max()))
    # each sample's (height, P) factor C-contiguous, as one sample alone gets it
    steer_f = np.multiply(np.moveaxis(table[:, delays], 0, -2), fading.gains[..., None, :],
                          out=np.empty(delays.shape[:-1] + (height, delays.shape[-1]),
                                       dtype=np.complex128))
    t = np.arange(width)[:, None] + time_offset
    steer_t = np.exp(2j * np.pi * t * fading.dopplers[..., None, :])
    return steer_f @ np.swapaxes(steer_t, -1, -2)


@functools.lru_cache(maxsize=8)
def _delay_steering(height: int, taps: int) -> np.ndarray:
    """Column d holds exp(-j2pi f d / height) over the rows f, for each
    integer delay d from 0 to `taps`.  Shared by every sample, so read-only."""
    f = np.arange(height)[:, None]
    table = np.exp(-2j * np.pi * f * np.arange(taps + 1)[None, :] / height)
    table.flags.writeable = False
    return table


def _interp_matrix(n_out: int, knots: np.ndarray) -> np.ndarray:
    """Dense linear-interpolation operator with constant extension past the ends."""
    k = len(knots)
    mat = np.zeros((n_out, k))
    if k == 1:
        mat[:, 0] = 1.0
        return mat
    pos = np.arange(n_out)
    j = np.clip(np.searchsorted(knots, pos, side="right") - 1, 0, k - 2)
    frac = (pos - knots[j]) / (knots[j + 1] - knots[j])
    frac = np.clip(frac, 0.0, 1.0)
    mat[pos, j] = 1.0 - frac
    mat[pos, j + 1] += frac
    return mat


@functools.lru_cache(maxsize=8)
def _pilot_layout(
    height: int, width: int, row_stride: int, col_stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pilot rows and columns of the grid, and the interpolation operators
    that spread them over it.  Shared by every sample, so read-only."""
    rows = np.arange(0, height, row_stride)
    cols = np.arange(0, width, col_stride)
    layout = (rows, cols, _interp_matrix(height, rows), _interp_matrix(width, cols))
    for array in layout:
        array.flags.writeable = False
    return layout


# Bytes of one complex (height, max(P, width)) array per sample of a
# `make_samples` block: a sample's largest temporaries have that shape, so
# the block's working set stays a small multiple of this beside its outputs.
_SYNTH_BYTES = 1 << 20


def _block_size(cfg: ChannelConfig) -> int:
    """Samples per `make_samples` block."""
    return max(1, _SYNTH_BYTES // (16 * cfg.grid_height * max(cfg.path_count, cfg.grid_width)))


def make_samples(
    cfg: ChannelConfig,
    rng: np.random.Generator,
    count: int,
    uid_start: int = 0,
) -> list[ChannelSample]:
    """`count` (pilot-grid input, CSI label) pairs with sequential uids from
    `uid_start`; authentic at generation time.

    Sample by sample, `rng` draws the fading parameters and then the pilot
    noise, so the stream and each sample's bytes do not depend on `count`
    or on the blocks the math runs in.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    height, width = cfg.grid_height, cfg.grid_width
    pilot_rows, pilot_cols, row_op, col_op = _pilot_layout(
        height, width, cfg.pilot_rows_stride, cfg.pilot_cols_stride)
    block = _block_size(cfg)
    samples = []
    for start in range(0, count, block):
        fadings = []
        noise = np.empty((min(block, count - start), len(pilot_rows), len(pilot_cols), 2))
        for i in range(len(noise)):
            fadings.append(draw_fading(cfg, rng))
            # complex pilot noise CN(0, sigma^2): each real component N(0, sigma^2/2)
            noise[i] = rng.normal(scale=cfg.pilot_noise_stddev / np.sqrt(2.0),
                                  size=noise.shape[1:])
        stacked = FadingParams(*(np.stack([getattr(f, name) for f in fadings])
                                 for name in ("gains", "delays", "dopplers")))
        grids = channel_grid(stacked, height, width)
        observed = grids[:, pilot_rows[:, None], pilot_cols] + noise[..., 0] + 1j * noise[..., 1]
        inputs = split_complex(row_op @ observed @ col_op.T)
        labels = split_complex(grids)
        samples.extend(
            ChannelSample(input=inputs[i], label=labels[i], uid=uid_start + start + i,
                          fading=fading)
            for i, fading in enumerate(fadings))
    return samples


def lagged_label(sample: ChannelSample, lag: float) -> np.ndarray:
    """Label of the same channel process observed `lag` symbols earlier/later."""
    if sample.fading is None:
        raise ValueError("sample carries no fading parameters; cannot lag it")
    h, w = sample.label.shape[:2]
    return split_complex(channel_grid(sample.fading, h, w, time_offset=lag))


def generate_round_caches(
    cfg: ChannelConfig,
    lengths: list[int],
    rng: np.random.Generator,
    round_index: int = 0,
    uid_start: int = 0,
) -> list[CachedDataset]:
    """Fresh disjoint caches of the requested lengths with sequential uids,
    from one `make_samples` call in cache order."""
    samples = iter(make_samples(cfg, rng, int(sum(lengths)), uid_start))
    return [CachedDataset(samples=[next(samples) for _ in range(int(length))],
                          sbs_id=sbs_id, round_index=round_index)
            for sbs_id, length in enumerate(lengths)]


def topup_with_pretrain(
    cache: CachedDataset,
    pretrain_set: list,
    i_min: int,
    rng: np.random.Generator,
) -> CachedDataset:
    """Pad a short cache to the training minimum with pre-training samples.

    Draws without replacement, falling back to replacement when the
    pre-training set is smaller than the deficit.  The aggregation weight
    keeps the original (client-owned) length.
    """
    if i_min < 0:
        raise ValueError("i_min must be >= 0")
    deficit = i_min - cache.l_n
    if deficit <= 0:
        return cache
    if not pretrain_set:
        raise ValueError("cannot top up from an empty pre-training set")
    use_replacement = len(pretrain_set) < deficit
    idx = rng.choice(len(pretrain_set), size=deficit, replace=use_replacement)
    extra = [pretrain_set[i] for i in idx]
    return replace(cache, samples=list(cache.samples) + extra)
