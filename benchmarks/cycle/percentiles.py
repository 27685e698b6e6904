"""Nearest-rank percentiles: every reported value is one of the samples."""

from __future__ import annotations

import math
from typing import Sequence


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The smallest sample with at least ``q`` of the samples at or below
    it (``q`` in [0, 1]; 0 gives the minimum, 1 the maximum)."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be within [0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return nearest_rank(samples, 0.5)


def lower_quartile(samples: Sequence[float]) -> float:
    """What a run reports for a timing it has several samples of.  The
    machine's other tenants only ever add time, in spells that outlast a
    run's measured phase, so the faster samples repeat from run to run
    where the median follows the spells."""
    return nearest_rank(samples, 0.25)


def summary(samples: Sequence[float]) -> dict:
    """Median with the quartiles as spread and the sample count beside it."""
    return {
        "n": len(samples),
        "p25": nearest_rank(samples, 0.25),
        "p50": nearest_rank(samples, 0.5),
        "p75": nearest_rank(samples, 0.75),
    }
