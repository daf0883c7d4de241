"""Local loss pre-filtering: replace anomalously lossy samples before training.

Each cached sample is scored by its loss under the current global model
against a truncated-Gaussian CDF centred on the cache's median loss.
Samples whose CDF value exceeds the determination threshold are treated as
untrusted and swapped for randomly drawn trusted ones, keeping the cache
length unchanged.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .channel import CachedDataset

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LlpfConfig:
    enabled: bool = False
    theta: float = 0.95
    k_sigma: float = 0.6
    mu_mode: str = "median"  # "median" | "sum"

    def validate(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta {self.theta} outside (0, 1)")
        if not 0.0 < self.k_sigma < math.inf:
            raise ValueError(f"k_sigma {self.k_sigma} must be finite and > 0")
        if self.mu_mode not in ("median", "sum"):
            raise ValueError(f"unknown mu_mode {self.mu_mode!r}")


def per_sample_losses(
    spec: nn.NetworkSpec, global_params: np.ndarray, cache: CachedDataset
) -> np.ndarray:
    """Mean squared error of each cached sample, aligned with cache order."""
    inputs = np.stack([s.input for s in cache.samples])
    labels = np.stack([s.label for s in cache.samples])
    pred = nn.forward_batch(spec, global_params, inputs)
    if pred.shape != labels.shape:
        raise ValueError(f"label shape {labels.shape} != prediction {pred.shape}")
    diff = pred - labels
    return np.mean(diff * diff, axis=(1, 2, 3))


def trunc_gauss_cdf(x: float, mu: float, k_sigma: float) -> float:
    """CDF surrogate 1/2 + 1/2 erf(k_sigma*mu/sqrt(2) * (x - mu)).

    The sharpness scales with mu itself, so the location parameter doubles
    as the precision knob; mu must be strictly positive.
    """
    if mu <= 0.0:
        raise ValueError(f"degenerate scale: mu={mu} must be > 0")
    return 0.5 + 0.5 * math.erf(k_sigma * mu / math.sqrt(2.0) * (x - mu))


def location_parameter(losses: np.ndarray, cfg: LlpfConfig) -> float:
    return float(np.median(losses)) if cfg.mu_mode == "median" else float(np.sum(losses))


def classify_losses(losses: np.ndarray, cfg: LlpfConfig) -> np.ndarray:
    """Boolean mask of untrusted samples: CDF above the threshold theta.

    A non-positive location parameter (every loss zero under the median
    mode) degenerates to trusting everything.
    """
    cfg.validate()
    mu = location_parameter(losses, cfg)
    if mu <= 0.0:
        return np.zeros(len(losses), dtype=bool)
    return np.array([trunc_gauss_cdf(float(l), mu, cfg.k_sigma) > cfg.theta for l in losses])


def filter_cache(
    spec: nn.NetworkSpec,
    global_params: np.ndarray,
    cache: CachedDataset,
    cfg: LlpfConfig,
    rng: np.random.Generator,
) -> CachedDataset:
    """Swap untrusted samples for uniformly drawn trusted ones (with
    replacement).  A cache with no anomalies is returned as-is; if nothing
    is trusted the cache is also returned unchanged, with a warning.
    """
    if cache.l_n == 0:
        raise ValueError("cannot filter an empty cache")
    losses = per_sample_losses(spec, global_params, cache)
    untrusted = classify_losses(losses, cfg)
    if not untrusted.any():
        return cache
    trusted_idx = np.flatnonzero(~untrusted)
    if trusted_idx.size == 0:
        log.warning(
            "llpf: no trusted samples in cache sbs=%d round=%d; leaving it unchanged",
            cache.sbs_id, cache.round_index,
        )
        return cache
    samples = list(cache.samples)
    for idx in np.flatnonzero(untrusted):
        pick = trusted_idx[int(rng.integers(trusted_idx.size))]
        samples[idx] = cache.samples[pick]
    return CachedDataset(
        samples=samples, sbs_id=cache.sbs_id, round_index=cache.round_index,
        aggregation_len=cache.aggregation_len,
    )
