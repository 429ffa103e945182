"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: a percentile is reported only with at least this many samples above it.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``).

    Refuses, with :class:`TooFewSamples`, a percentile that has fewer
    than :data:`MIN_TAIL` samples beyond it: with 99 samples p90 has
    only 9 above it and would be set by a single outlier.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(values)
    rank = max(1, math.ceil(q * n / 100))
    if n - rank < MIN_TAIL:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"at least {MIN_TAIL} are needed")
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
