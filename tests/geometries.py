"""Seeded detection geometries for the statistics-transition tests."""

import math
import random

from corr_radiance.emission import DetectionGeometry


def uniform_geometries(seed: int, n: int) -> list[DetectionGeometry]:
    """n geometries with kl uniform in (1, 1000] and sin beta in [-1, 1]."""
    rng = random.Random(seed)
    return [DetectionGeometry(1000.0 - 999.0 * rng.random(), rng.uniform(-1.0, 1.0))
            for _ in range(n)]


def crossing_geometries(seed: int, n: int) -> list[DetectionGeometry]:
    """n geometries whose Werner transition c* = (2x - 1)/x^2, x = cos phi,
    lies near a target drawn log-uniformly from [1e-6, 1 - 1e-6]."""
    rng = random.Random(seed)
    geoms = []
    for _ in range(n):
        t = math.exp(rng.uniform(math.log(1e-6), math.log(1.0 - 1e-6)))
        x = (1.0 - math.sqrt(1.0 - t)) / t  # the root of t x^2 - 2x + 1 in (1/2, 1)
        # acos(x) < pi/3 < 1.05 <= kl, so |sin beta| < 1
        kl = rng.uniform(1.05, 1000.0)
        geoms.append(DetectionGeometry(kl, rng.choice((-1.0, 1.0)) * math.acos(x) / kl))
    return geoms
