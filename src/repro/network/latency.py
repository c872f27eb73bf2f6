"""WAN latency model.

The paper's testbed assigns each machine to one of 20 major cities and
models inter-machine latency with measured inter-city ping times [53],
with negligible latency within a city. We reproduce that shape: 20 cities
with great-circle distances converted to one-way latencies at effective
fiber propagation speed (~200,000 km/s, i.e. 2/3 c) plus a fixed routing
overhead, and per-link jitter drawn deterministically from the simulation
seed. Resulting one-way latencies span ~5 ms (same city) to ~150 ms
(antipodal pairs), matching public WonderNetwork measurements to within
the fidelity this reproduction needs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: (name, latitude, longitude) of the 20 cities used by the latency model.
CITIES: list[tuple[str, float, float]] = [
    ("New York", 40.71, -74.01),
    ("Los Angeles", 34.05, -118.24),
    ("Chicago", 41.88, -87.63),
    ("Toronto", 43.65, -79.38),
    ("Sao Paulo", -23.55, -46.63),
    ("London", 51.51, -0.13),
    ("Paris", 48.86, 2.35),
    ("Frankfurt", 50.11, 8.68),
    ("Madrid", 40.42, -3.70),
    ("Stockholm", 59.33, 18.07),
    ("Moscow", 55.76, 37.62),
    ("Mumbai", 19.08, 72.88),
    ("Singapore", 1.35, 103.82),
    ("Hong Kong", 22.32, 114.17),
    ("Tokyo", 35.68, 139.65),
    ("Seoul", 37.57, 126.98),
    ("Sydney", -33.87, 151.21),
    ("Johannesburg", -26.20, 28.05),
    ("Dubai", 25.20, 55.27),
    ("Mexico City", 19.43, -99.13),
]

#: Effective propagation speed of long-haul fiber, km per second.
FIBER_KM_PER_SEC = 200_000.0
#: Fixed per-link routing/serialization overhead, seconds.
LINK_OVERHEAD_SEC = 0.005
#: One-way latency between two users in the same city, seconds.
SAME_CITY_LATENCY = 0.001

_EARTH_RADIUS_KM = 6371.0


def great_circle_km(lat1: float, lon1: float, lat2: float,
                    lon2: float) -> float:
    """Great-circle distance (haversine), kilometres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = (math.sin(dphi / 2) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2)
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def base_latency_matrix() -> np.ndarray:
    """One-way latency (seconds) between each pair of the 20 cities."""
    n = len(CITIES)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            _, lat1, lon1 = CITIES[i]
            _, lat2, lon2 = CITIES[j]
            km = great_circle_km(lat1, lon1, lat2, lon2)
            # Fiber paths are not great circles; 1.4x path stretch.
            latency = LINK_OVERHEAD_SEC + 1.4 * km / FIBER_KM_PER_SEC
            matrix[i, j] = matrix[j, i] = latency
    np.fill_diagonal(matrix, SAME_CITY_LATENCY)
    return matrix


#: ``(row, cities, factors)``: what one egress batch's latency samples
#: are made of (:meth:`LatencyModel.batch_terms`).
BatchTerms = tuple[list[float], Sequence[int], "list[float] | None"]


class LatencyModel:
    """Assigns users to cities and answers per-pair latency queries."""

    def __init__(self, num_users: int, rng: np.random.Generator,
                 jitter_fraction: float = 0.10) -> None:
        if num_users < 1:
            raise ValueError("num_users must be >= 1")
        if not 0 <= jitter_fraction < 1:
            raise ValueError("jitter_fraction must be in [0, 1)")
        # Lists: Python floats beat numpy on ~10-element egress batches.
        self._rows: list[list[float]] = base_latency_matrix().tolist()
        self._city_of: list[int] = rng.integers(
            0, len(CITIES), size=num_users).tolist()
        self._rng = rng
        self._jitter = jitter_fraction

    def latency(self, src: int, dst: int) -> float:
        """One-way latency sample between two users (with jitter)."""
        return self.latencies(src, [dst])[0]

    def latencies(self, src: int, dsts: list[int]) -> list[float]:
        """One :meth:`latency` sample per destination, in one draw."""
        row, cities, factors = self.batch_terms(src, len(dsts))
        if factors is None:
            return [row[cities[dst]] for dst in dsts]
        return [row[cities[dst]] * factor
                for dst, factor in zip(dsts, factors)]

    def batch_terms(self, src: int, n: int) -> BatchTerms:
        """The parts of ``n`` samples from ``src``, drawn at once.

        The base latency from ``src``'s city to each city, every user's
        city, and one jitter factor per sample (``None`` without
        jitter): sample ``i`` towards ``dst`` is ``row[cities[dst]] *
        factors[i]``. ``standard_normal(n)`` consumes the stream exactly
        like ``n`` scalar draws, so a batch is bit-identical to one
        :meth:`latency` call per destination, in order, RNG state
        included.
        """
        row = self._rows[self._city_of[src]]
        jitter = self._jitter
        if jitter == 0:
            return row, self._city_of, None
        # max(0.25, 1 + jitter * z) without a call per sample.
        return row, self._city_of, [
            factor if (factor := 1.0 + jitter * z) > 0.25 else 0.25
            for z in self._rng.standard_normal(n).tolist()]


class _OneCity:
    """Every user's city index in a model with a single city."""

    def __getitem__(self, user_index: int) -> int:
        return 0


class UniformLatencyModel:
    """Constant-latency model for controlled experiments and tests."""

    def __init__(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self._latency = latency
        self._terms: BatchTerms = ([latency], _OneCity(), None)

    def latency(self, src: int, dst: int) -> float:
        return self._latency

    def latencies(self, src: int, dsts: list[int]) -> list[float]:
        return [self._latency] * len(dsts)

    def batch_terms(self, src: int, n: int) -> BatchTerms:
        return self._terms
