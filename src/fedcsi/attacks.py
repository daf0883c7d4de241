"""Data-poisoning attack modes applied to cached datasets.

Attacks only rewrite reported CSI labels; pilot inputs are left untouched.
Widespread deployment poisons a fixed fraction of every cache; targeted
deployment concentrates one widespread-sized share of adversaries on a
single station.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._fields import check_fields
from .channel import CachedDataset, ChannelSample, lagged_label

ATTACK_MODES = ("outdate", "collusion", "reverse")
DEPLOYMENTS = ("widespread", "targeted")


@dataclass(frozen=True)
class AttackPlan:
    mode: str
    deployment: str = "widespread"
    ratio: float = 0.0
    target_sbs: Optional[int] = None
    collusion_payload: Optional[np.ndarray] = None
    outdate_lag: float = 1.0
    outdate_pool_depth: int = 5

    def __post_init__(self) -> None:
        check_fields(self)
        if self.mode not in ATTACK_MODES:
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if self.deployment not in DEPLOYMENTS:
            raise ValueError(f"unknown deployment {self.deployment!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"attack ratio {self.ratio} outside [0, 1]")
        if self.deployment == "targeted" and self.target_sbs is None:
            raise ValueError("targeted deployment needs target_sbs")
        if self.outdate_pool_depth < 1:
            raise ValueError("outdate_pool_depth must be >= 1")


def reverse_label(label: np.ndarray) -> np.ndarray:
    """Reflect every element about the label's overall mean (an involution)."""
    m = label.mean()
    return 2.0 * m - label


def outdate_label(
    sample: ChannelSample, lag: float, depth: int, rng: np.random.Generator
) -> np.ndarray:
    """The label of the sample's channel `lag * k` symbols away, k drawn
    uniformly from 1..depth: one pick from a pool of `depth` outdated
    labels, of which only the picked one is synthesized."""
    if depth < 1:
        raise ValueError("empty outdated-CSI pool")
    k = int(rng.integers(depth)) + 1
    return lagged_label(sample, lag * k)


def _poison_count(plan: AttackPlan, cache_len: int, total_len: int, n_caches: int) -> int:
    if plan.deployment == "widespread":
        return int(plan.ratio * cache_len)
    return min(int(plan.ratio * total_len / n_caches), cache_len)


def poison_caches(
    caches: list[CachedDataset], plan: AttackPlan, rng: np.random.Generator
) -> list[CachedDataset]:
    """Apply one attack plan to a round's caches, marking victims as poisoned.

    Sample selection is uniform without replacement; the default collusion
    payload freezes to the first victim's original label, in draw order.
    """
    if plan.deployment == "targeted" and not 0 <= plan.target_sbs < len(caches):
        raise ValueError(f"target_sbs {plan.target_sbs} out of range for N={len(caches)}")
    if plan.ratio == 0.0:
        return caches
    total_len = sum(c.l_n for c in caches)
    payload = plan.collusion_payload
    out = []
    for cache in caches:
        attacked = plan.deployment == "widespread" or cache.sbs_id == plan.target_sbs
        count = _poison_count(plan, cache.l_n, total_len, len(caches)) if attacked else 0
        if count == 0:
            out.append(cache)
            continue
        chosen = rng.choice(cache.l_n, size=count, replace=False)
        samples = list(cache.samples)
        for idx in chosen:
            victim = samples[idx]
            if plan.mode == "reverse":
                label = reverse_label(victim.label)
            elif plan.mode == "collusion":
                if payload is None:
                    payload = victim.label.copy()
                if payload.shape != victim.label.shape:
                    raise ValueError(
                        f"payload shape {payload.shape} != label {victim.label.shape}")
                label = payload
            else:  # outdate
                label = outdate_label(victim, plan.outdate_lag, plan.outdate_pool_depth, rng)
            # a new sample: authentic samples are never mutated; fading params
            # are dropped because the poisoned label no longer matches them
            samples[idx] = replace(victim, label=label, provenance=plan.mode, fading=None)
        out.append(replace(cache, samples=samples))
    return out
