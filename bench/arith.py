"""Pure arithmetic shared by the benchmark: percentiles, span self time and
the Zipf sampler.  No dgadetect import, so the self-tests run anywhere."""

from __future__ import annotations

import bisect
import math
import random
from itertools import accumulate
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p99 needs 1,000 samples and p50 needs 20.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], p: float) -> float | None:
    """Nearest-rank ``p``-th percentile, or None when fewer than
    MIN_TAIL_SAMPLES samples lie above the reported rank."""
    n = len(values)
    if n == 0 or not 0 < p < 100:
        return None
    rank = math.ceil(p * n / 100.0)  # 1-based
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> list[float]:
    """Self time of every span: its duration minus the durations of its
    direct children.  ``parent[i]`` is the index of span i's parent or -1.

    Spans come from one thread, so siblings never overlap and the summed
    child durations are exactly the covered part of the parent.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def zipf_ranks(n_items: int, n_draws: int, exponent: float, seed: int) -> list[int]:
    """``n_draws`` item indexes in [0, n_items) where index k is drawn with
    probability proportional to 1 / (k + 1) ** exponent.  Deterministic
    under ``seed``."""
    if n_items <= 0 or n_draws < 0:
        raise ValueError("need at least one item and a non-negative draw count")
    cum = list(accumulate(1.0 / (k + 1) ** exponent for k in range(n_items)))
    rng = random.Random(seed)
    total = cum[-1]
    return [min(bisect.bisect_right(cum, rng.random() * total), n_items - 1) for _ in range(n_draws)]
