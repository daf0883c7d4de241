"""Aggregation functions over flat weight vectors.

Five aggregators: dataset-length-weighted FedAvg, coordinate-wise trimmed
mean and median, the Bayesian-ensemble FedBE (sample weights from a fitted
diagonal Gaussian, ensemble predictions, distill back into one model), and
StoMedian (log-transform weights, build a per-coordinate Gaussian filter
centred on the median, combine by normalized filter probabilities).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import nn

FEDBE_VARIANCE_FLOOR = 1e-12
AGGREGATOR_KINDS = ("fedavg", "trimmed_mean", "fedmedian", "fedbe", "stomedian")


@dataclass(frozen=True)
class WeightUpdate:
    params: np.ndarray  # flat float64, shared length across one round
    l_n: int
    sbs_id: int = 0


@dataclass(frozen=True)
class Aggregator:
    """Aggregator selection plus its parameters, as named in config files."""

    kind: str = "fedavg"
    trim_a: int = 1                  # trimmed_mean: values dropped per side
    fedbe_samples: int = 10          # fedbe: Gaussian draws S
    fedbe_distill_epochs: int = 20
    fedbe_distill_lr: Optional[float] = None  # None: the experiment's rate
    eps: float = 1e-8                # stomedian: log offset / sigma floor

    def validate(self, n_updates: Optional[int] = None) -> None:
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator {self.kind!r}")
        if self.kind == "trimmed_mean":
            if self.trim_a < 0:
                raise ValueError("trim_a must be >= 0")
            if n_updates is not None and 2 * self.trim_a >= n_updates:
                raise ValueError(f"trim_a={self.trim_a} needs more than {2 * self.trim_a} updates")
        if self.kind == "fedbe":
            if self.fedbe_samples < 1:
                raise ValueError("fedbe_samples must be >= 1")
            if self.fedbe_distill_epochs < 0:
                raise ValueError("fedbe_distill_epochs must be >= 0")
            lr = self.fedbe_distill_lr
            # chained comparisons, so that NaN (which fails every comparison) is rejected
            if lr is not None and not 0.0 < lr < math.inf:
                raise ValueError("fedbe_distill_lr must be finite and > 0")
        if self.kind == "stomedian":
            if not 0.0 < self.eps < math.inf:
                raise ValueError("stomedian eps must be finite and > 0")

    def describe(self) -> str:
        if self.kind == "trimmed_mean":
            return f"trimmed_mean(a={self.trim_a})"
        if self.kind == "fedbe":
            return f"fedbe(S={self.fedbe_samples})"
        return self.kind


def _stack(updates: Sequence[WeightUpdate]) -> tuple[np.ndarray, np.ndarray]:
    if len(updates) == 0:
        raise ValueError("no weight updates to aggregate")
    length = updates[0].params.size
    for u in updates:
        if u.params.ndim != 1 or u.params.size != length:
            raise ValueError("weight updates have mismatched lengths")
        if u.l_n < 1:
            raise ValueError("dataset length l_n must be >= 1")
    mat = np.stack([u.params for u in updates]).astype(np.float64, copy=False)
    lens = np.array([float(u.l_n) for u in updates])
    return mat, lens


def _weighted_column_mean(mat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Column-wise weighted mean; columns where all models agree are passed
    through untouched so the convex-combination identity is bit-exact."""
    combined = (weights * mat).sum(axis=0) / weights.sum(axis=0)
    same = mat.max(axis=0) == mat.min(axis=0)
    return np.where(same, mat[0], combined)


def fed_avg(updates: Sequence[WeightUpdate]) -> np.ndarray:
    mat, lens = _stack(updates)
    return _weighted_column_mean(mat, np.broadcast_to(lens[:, None], mat.shape))


def trimmed_mean(updates: Sequence[WeightUpdate], a: int) -> np.ndarray:
    """Per coordinate, drop the a lowest/highest values, then weighted-mean
    the survivors by their own dataset lengths (renormalized per coordinate).

    Survivors are summed in update order, so a=0 reproduces fed_avg bitwise.
    """
    mat, lens = _stack(updates)
    n = mat.shape[0]
    if a < 0 or 2 * a >= n:
        raise ValueError(f"need 0 <= 2a < N, got a={a}, N={n}")
    keep = np.ones_like(mat, dtype=bool)
    if a > 0:
        order = np.argsort(mat, axis=0, kind="stable")
        cols = np.tile(np.arange(mat.shape[1]), a)
        keep[order[:a].ravel(), cols] = False
        keep[order[n - a:].ravel(), cols] = False
    return _weighted_column_mean(mat, np.where(keep, lens[:, None], 0.0))


def fed_median(updates: Sequence[WeightUpdate]) -> np.ndarray:
    mat, _ = _stack(updates)
    return np.median(mat, axis=0)


def sto_median(updates: Sequence[WeightUpdate], eps: float = 1e-8) -> np.ndarray:
    """Median-centred stochastic filter on log-transformed weights.

    Per coordinate: transform w -> -log(w+eps) for w>0 else log|w-eps|, take
    the median and population standard deviation of the transformed column,
    weight each model by the Gaussian density of its transformed value (scaled
    by dataset length, normalized per coordinate), and combine the original
    weights.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    mat, lens = _stack(updates)
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite weight in updates")
    probs = _sto_probabilities(mat, lens, eps)
    combined = (probs * mat).sum(axis=0)
    # where every model agrees exactly, any convex combination equals that
    # value; bypass the filter arithmetic so the identity is bit-exact
    same = mat.max(axis=0) == mat.min(axis=0)
    return np.where(same, mat[0], combined)


def _sto_probabilities(mat: np.ndarray, lens: np.ndarray, eps: float) -> np.ndarray:
    transformed = np.empty_like(mat)
    pos = mat > 0.0
    transformed[pos] = -np.log(mat[pos] + eps)
    transformed[~pos] = np.log(np.abs(mat[~pos] - eps))
    mu = np.median(transformed, axis=0)
    sigma = np.maximum(transformed.std(axis=0), eps)
    dev = (transformed - mu) / sigma
    density = np.exp(-0.5 * dev * dev) / (sigma * np.sqrt(2.0 * np.pi))
    weighted = density * lens[:, None]
    return weighted / weighted.sum(axis=0)


def sto_median_probabilities(updates: Sequence[WeightUpdate], eps: float = 1e-8) -> np.ndarray:
    """Normalized per-coordinate filter probabilities (diagnostic view)."""
    mat, lens = _stack(updates)
    return _sto_probabilities(mat, lens, eps)


def fed_be_fit(updates: Sequence[WeightUpdate]) -> tuple[np.ndarray, np.ndarray]:
    """Length-weighted mean and floored diagonal variance of the updates."""
    mat, lens = _stack(updates)
    w = lens / lens.sum()
    mu = (w[:, None] * mat).sum(axis=0)
    var = (w[:, None] * (mat - mu) ** 2).sum(axis=0)
    return mu, np.maximum(var, FEDBE_VARIANCE_FLOOR)


def fed_be_sample(
    mu: np.ndarray, var_diag: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """`count` weight vectors from N(mu, diag(var)); one row-major draw."""
    if count < 1:
        raise ValueError("sample count must be >= 1")
    return mu + np.sqrt(var_diag) * rng.standard_normal((count, mu.size))


def fed_be(
    updates: Sequence[WeightUpdate],
    samples: int,
    rng: np.random.Generator,
    distill_set: Sequence,
    spec: nn.NetworkSpec,
    *,
    distill_epochs: int = 20,
    learning_rate: float = 1e-3,
    batch_size: int = 64,
) -> np.ndarray:
    if not distill_set:
        raise ValueError("fedbe needs a non-empty distillation set")
    mu, var = fed_be_fit(updates)
    draws = fed_be_sample(mu, var, samples, rng)
    inputs = np.stack([s.input for s in distill_set])
    ensemble = np.zeros(inputs.shape[:3] + (spec.layers[-1].filters,))
    for row in draws:
        ensemble += nn.forward_batch(spec, row, inputs)
    ensemble /= samples
    return nn.train_minibatch(
        spec, mu, inputs, ensemble, epochs=distill_epochs, batch_size=batch_size,
        learning_rate=learning_rate, rng=rng,
    )


def aggregate(
    updates: Sequence[WeightUpdate],
    aggregator: Aggregator,
    *,
    rng: Optional[np.random.Generator] = None,
    distill_set: Optional[Sequence] = None,
    spec: Optional[nn.NetworkSpec] = None,
    learning_rate: float = 1e-3,
    batch_size: int = 64,
) -> np.ndarray:
    """Dispatch one round's updates through the configured aggregator."""
    aggregator.validate(len(updates))
    if aggregator.kind == "fedavg":
        return fed_avg(updates)
    if aggregator.kind == "trimmed_mean":
        return trimmed_mean(updates, aggregator.trim_a)
    if aggregator.kind == "fedmedian":
        return fed_median(updates)
    if aggregator.kind == "stomedian":
        return sto_median(updates, aggregator.eps)
    if rng is None or distill_set is None or spec is None:
        raise ValueError("fedbe needs rng, distill_set and spec")
    distill_lr = aggregator.fedbe_distill_lr
    return fed_be(
        updates, aggregator.fedbe_samples, rng, distill_set, spec,
        distill_epochs=aggregator.fedbe_distill_epochs,
        learning_rate=learning_rate if distill_lr is None else distill_lr,
        batch_size=batch_size,
    )
