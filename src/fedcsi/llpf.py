"""Local loss pre-filtering: replace anomalously lossy samples before training.

Each cached sample is scored by its loss under the current global model
against a truncated-Gaussian CDF centred on the cache's median loss.
Samples whose CDF value exceeds the determination threshold are treated as
untrusted and swapped for randomly drawn trusted ones, keeping the cache
length unchanged.  A round's caches are scored together, in one engine
call.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import nn
from ._fields import check_fields
from .channel import CachedDataset, ChannelSample

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LlpfConfig:
    enabled: bool = False
    theta: float = 0.95
    k_sigma: float = 0.6

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta {self.theta} outside (0, 1)")
        if self.k_sigma <= 0:
            raise ValueError(f"k_sigma {self.k_sigma} must be finite and > 0")


def per_sample_losses(
    spec: nn.NetworkSpec, global_params: np.ndarray, samples: Sequence[ChannelSample]
) -> np.ndarray:
    """Mean squared error of each sample, in order, from one `forward_batch`
    call over the distinct sample objects, in order of first appearance.

    A round repeats objects: LLPF copies trusted samples over the ones it
    replaces, and top-ups draw from the one pre-training set.  Distinct
    means by identity, not uid: a poisoned sample keeps its victim's uid.
    """
    distinct = list({id(s): s for s in samples}.values())
    position = {id(s): i for i, s in enumerate(distinct)}
    inputs = np.stack([s.input for s in distinct])
    labels = np.stack([s.label for s in distinct])
    diff = nn.forward_batch(spec, global_params, inputs)
    if diff.shape != labels.shape:
        raise ValueError(f"label shape {labels.shape} != prediction {diff.shape}")
    # in place: evaluation scores every sample of a round in one call
    diff -= labels
    diff *= diff
    return np.mean(diff, axis=(1, 2, 3))[[position[id(s)] for s in samples]]


def trunc_gauss_cdf(x: float, mu: float, k_sigma: float) -> float:
    """CDF surrogate 1/2 + 1/2 erf(k_sigma*mu/sqrt(2) * (x - mu)).

    The sharpness scales with mu itself, so the location parameter doubles
    as the precision knob; mu must be strictly positive.
    """
    if mu <= 0.0:
        raise ValueError(f"degenerate scale: mu={mu} must be > 0")
    return 0.5 + 0.5 * math.erf(k_sigma * mu / math.sqrt(2.0) * (x - mu))


def classify_losses(losses: np.ndarray, cfg: LlpfConfig) -> np.ndarray:
    """Boolean mask of untrusted samples: CDF above the threshold theta.

    The location parameter mu is the median loss; a median of zero
    degenerates to trusting everything.
    """
    mu = float(np.median(losses))
    if mu <= 0.0:
        return np.zeros(len(losses), dtype=bool)
    return np.array([trunc_gauss_cdf(float(l), mu, cfg.k_sigma) > cfg.theta for l in losses])


def filter_caches(
    spec: nn.NetworkSpec,
    global_params: np.ndarray,
    caches: Sequence[CachedDataset],
    cfg: LlpfConfig,
    rngs: Sequence[np.random.Generator],
) -> list[CachedDataset]:
    """Each cache with its untrusted samples swapped for uniformly drawn
    trusted ones of its own (with replacement), drawn from its own rng.

    Every cache is scored in one `per_sample_losses` call; a sample's loss
    does not depend on its place in it, so each cache gets what it would
    get alone.  A cache with no anomalies is returned as-is; if nothing in
    a cache is trusted it is also returned unchanged, with a warning.
    """
    if any(cache.l_n == 0 for cache in caches):
        raise ValueError("cannot filter an empty cache")
    losses = per_sample_losses(spec, global_params, [s for c in caches for s in c.samples])
    bounds = np.cumsum([cache.l_n for cache in caches])[:-1]
    return [_replace_untrusted(cache, cache_losses, cfg, rng) for cache, cache_losses, rng
            in zip(caches, np.split(losses, bounds), rngs, strict=True)]


def _replace_untrusted(
    cache: CachedDataset, losses: np.ndarray, cfg: LlpfConfig, rng: np.random.Generator
) -> CachedDataset:
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
    return replace(cache, samples=samples)
