"""Statistical helpers shared by the figure/table runners."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import NoSamplesError


@dataclass(frozen=True)
class LatencySummary:
    """The five-number summary the paper's latency graphs plot
    (min / 25th / median / 75th / max across users)."""

    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    mean: float
    count: int

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencySummary":
        if not samples:
            raise NoSamplesError("cannot summarize an empty sample set")
        data = np.asarray(samples, dtype=float)
        return cls(
            minimum=float(data.min()),
            p25=float(np.percentile(data, 25)),
            median=float(np.percentile(data, 50)),
            p75=float(np.percentile(data, 75)),
            maximum=float(data.max()),
            mean=float(data.mean()),
            count=len(samples),
        )

    @classmethod
    def empty(cls) -> "LatencySummary":
        """Placeholder for a measurement point that produced no samples
        (e.g. every round went empty under a heavy adversary). NaN values
        render as ``nan`` in tables instead of aborting the sweep."""
        nan = math.nan
        return cls(minimum=nan, p25=nan, median=nan, p75=nan,
                   maximum=nan, mean=nan, count=0)

    def row(self) -> dict[str, float]:
        return {
            "min": round(self.minimum, 2),
            "p25": round(self.p25, 2),
            "median": round(self.median, 2),
            "p75": round(self.p75, 2),
            "max": round(self.maximum, 2),
        }
