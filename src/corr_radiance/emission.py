"""Far-field emission of the two-atom system: intensity, photon statistics,
and the solvers that locate regime boundaries.

The detected positive-frequency field is a phased sum of the two lowering
operators; only the phase difference kl sin(beta) between the atoms is
observable, so every quantity here depends on geometry through that single
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .correlations import discord_werner_closed
from .qstate import CMatrix, DensityMatrix, XStateParams, dagger, sigma_minus

# intensities below this are treated as zero and g2 as undefined
UNDEFINED_INTENSITY_TOL = 1e-12
# band around 1 that counts as neutral radiance / Poissonian statistics
CLASSIFY_TOL = 1e-12

_IMAG_TOL = 1e-12


class Radiance(Enum):
    SUPER = "super"
    SUB = "sub"
    NEUTRAL = "neutral"


class PhotonStatistics(Enum):
    SUB_POISSONIAN = "sub_poissonian"
    POISSONIAN = "poissonian"
    SUPER_POISSONIAN = "super_poissonian"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class DetectionGeometry:
    """Detector placement: kl is wave number times atom separation (> 1,
    the separated-atom regime), beta the observation angle off broadside."""

    kl: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.kl) and self.kl > 1.0):
            raise ValueError(f"kl must be finite and exceed 1, got {self.kl}")
        if not (math.isfinite(self.beta) and abs(self.beta) <= math.pi / 2.0 + 1e-12):
            raise ValueError(f"beta must lie in [-pi/2, pi/2], got {self.beta}")

    @classmethod
    def from_sin_beta(cls, kl: float, sin_beta: float) -> "DetectionGeometry":
        if not -1.0 <= sin_beta <= 1.0:
            raise ValueError(f"sin(beta) = {sin_beta} lies outside [-1, 1]")
        return cls(kl, math.asin(sin_beta))

    @property
    def phase(self) -> float:
        """Relative optical phase kl sin(beta) between the two emitters."""
        return self.kl * math.sin(self.beta)


@dataclass(frozen=True)
class EmissionReport:
    intensity: float
    g2: float | None
    radiance: Radiance
    statistics: PhotonStatistics


@dataclass(frozen=True)
class TransitionPoint:
    """Werner parameter where g2 crosses 1, with the discord there."""

    c_star: float
    discord: float


def field_operator(geom: DetectionGeometry, convention: str = "indexed") -> CMatrix:
    """Positive-frequency detected field e^{-i a1} s1- + e^{-i a2} s2-.

    The two phase conventions differ only by a global factor: "indexed" takes
    a_j = j kl sin(beta), "centered" places the atoms at -l/2 and +l/2 so
    a_j = -/+ (kl/2) sin(beta).  Either way a2 - a1 = kl sin(beta), which is
    all any observable sees.
    """
    s = geom.phase
    if convention == "indexed":
        alpha1, alpha2 = s, 2.0 * s
    elif convention == "centered":
        alpha1, alpha2 = -0.5 * s, 0.5 * s
    else:
        raise ValueError(f"unknown phase convention: {convention!r}")
    return np.exp(-1j * alpha1) * sigma_minus(1) + np.exp(-1j * alpha2) * sigma_minus(2)


def _real_trace(value: complex, label: str) -> float:
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(f"{label} came out non-real (imaginary part {value.imag:.3g})")
    return float(value.real)


def intensity_oracle(
    rho: DensityMatrix, geom: DetectionGeometry, convention: str = "indexed"
) -> float:
    """Radiated intensity tr(rho E- E+) evaluated by operator algebra."""
    ep = field_operator(geom, convention)
    return _real_trace(complex(np.trace(rho.mat @ dagger(ep) @ ep)), "intensity")


def intensity_closed_x(params: XStateParams, geom: DetectionGeometry) -> float:
    """Closed-form intensity 1 + (cx + cy)/2 cos(kl sin beta) of a Bell-diagonal state."""
    return 1.0 + 0.5 * (params.cx + params.cy) * math.cos(geom.phase)


def g2_oracle(
    rho: DensityMatrix, geom: DetectionGeometry, convention: str = "indexed"
) -> float | None:
    """Zero-delay second-order coherence tr(rho E-^2 E+^2) / tr(rho E- E+)^2.

    Returns None where the intensity vanishes (below 1e-12): there the ratio
    is 0/0 and no statistics label applies.
    """
    ep = field_operator(geom, convention)
    intensity = _real_trace(complex(np.trace(rho.mat @ dagger(ep) @ ep)), "intensity")
    if intensity < UNDEFINED_INTENSITY_TOL:
        return None
    ep2 = ep @ ep
    numerator = _real_trace(
        complex(np.trace(rho.mat @ dagger(ep2) @ ep2)), "photon-pair rate"
    )
    return numerator / intensity**2


def g2_closed_werner(c: float, geom: DetectionGeometry) -> float | None:
    """Closed-form Werner g2: (1 - c) / (1 - c cos(kl sin beta))^2, None at 0/0."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter c = {c} lies outside [0, 1]")
    bracket = 1.0 - c * math.cos(geom.phase)
    if abs(bracket) < UNDEFINED_INTENSITY_TOL:
        return None
    return (1.0 - c) / bracket**2


# order of the integer statistics codes that werner_emission returns
STATISTICS = tuple(PhotonStatistics)
_CODE = {statistics: np.int8(code) for code, statistics in enumerate(STATISTICS)}


@dataclass(frozen=True)
class WernerEmission:
    """Werner-state emission over a grid of (c, cos phase) points.

    ``g2`` is NaN exactly where ``undefined`` is set; ``statistics`` holds
    indices into ``STATISTICS``.
    """

    intensity: np.ndarray
    g2: np.ndarray
    undefined: np.ndarray
    statistics: np.ndarray


def werner_intensity(c: np.ndarray, cos_phase: np.ndarray) -> np.ndarray:
    """``intensity_closed_x`` of the Werner states cx = cy = cz = -c over arrays,
    in the scalar order of operations, so bit for bit equal to it."""
    cx = -np.asarray(c, dtype=float)
    return 1.0 + 0.5 * (cx + cx) * cos_phase


def werner_emission(c: np.ndarray, cos_phase: np.ndarray) -> WernerEmission:
    """``intensity_closed_x``, ``g2_closed_werner`` and ``classify`` over arrays.

    ``c`` and ``cos_phase`` broadcast against each other.  Each point takes
    the scalar functions' basic operations in their order, and the bracket is
    squared by libm ``pow`` as in ``bracket**2``, so every value equals the
    scalar result bit for bit; ``cos_phase`` should come from ``math.cos``.
    """
    c = np.asarray(c, dtype=float)
    if not np.all((c >= 0.0) & (c <= 1.0)):
        raise ValueError("Werner parameter c lies outside [0, 1]")
    intensity = werner_intensity(c, cos_phase)
    if not np.all(intensity >= 0.0):
        raise ValueError("intensity must be nonnegative")
    bracket = 1.0 - c * cos_phase
    undefined = np.abs(bracket) < UNDEFINED_INTENSITY_TOL
    # numpy squares by multiplication, which differs from pow in the last ulp
    square = np.array([b**2 for b in bracket.ravel().tolist()]).reshape(bracket.shape)
    g2 = np.divide(1.0 - c, square, out=np.full(bracket.shape, np.nan), where=~undefined)
    statistics = np.full(bracket.shape, _CODE[PhotonStatistics.POISSONIAN])
    statistics[g2 > 1.0 + CLASSIFY_TOL] = _CODE[PhotonStatistics.SUPER_POISSONIAN]
    statistics[g2 < 1.0 - CLASSIFY_TOL] = _CODE[PhotonStatistics.SUB_POISSONIAN]
    statistics[undefined] = _CODE[PhotonStatistics.UNDEFINED]
    return WernerEmission(intensity, g2, undefined, statistics)


def classify(intensity: float, g2: float | None) -> EmissionReport:
    """Label the radiance (intensity vs 1) and photon statistics (g2 vs 1).

    Values within 1e-12 of 1 count as neutral / Poissonian; g2 > 1 means
    super-Poissonian counting statistics, g2 < 1 sub-Poissonian.
    """
    if intensity < 0.0:
        raise ValueError(f"intensity must be nonnegative, got {intensity}")
    if intensity > 1.0 + CLASSIFY_TOL:
        radiance = Radiance.SUPER
    elif intensity < 1.0 - CLASSIFY_TOL:
        radiance = Radiance.SUB
    else:
        radiance = Radiance.NEUTRAL
    if g2 is None:
        statistics = PhotonStatistics.UNDEFINED
    elif g2 > 1.0 + CLASSIFY_TOL:
        statistics = PhotonStatistics.SUPER_POISSONIAN
    elif g2 < 1.0 - CLASSIFY_TOL:
        statistics = PhotonStatistics.SUB_POISSONIAN
    else:
        statistics = PhotonStatistics.POISSONIAN
    return EmissionReport(intensity, g2, radiance, statistics)


def radiance_boundary(kl: float) -> list[float]:
    """All sin(beta) in [-1, 1] where cos(kl sin beta) = 0, sorted ascending.

    These are the angles kl sin(beta) = pi/2 + n pi at which the intensity
    equals 1 for every Werner state; empty when kl < pi/2.
    """
    if not (math.isfinite(kl) and kl > 1.0):
        raise ValueError(f"kl must be finite and exceed 1, got {kl}")
    positives = []
    n = 0
    while True:
        s = (math.pi / 2.0 + n * math.pi) / kl
        if s > 1.0:
            break
        positives.append(s)
        n += 1
    return sorted(-s for s in positives) + positives


def find_statistics_transition(geom: DetectionGeometry) -> TransitionPoint | None:
    """Werner parameter where g2 crosses 1, if a crossing exists in (0, 1).

    Setting (1 - c cos phi)^2 = 1 - c gives c* = (2 cos phi - 1)/cos^2 phi,
    which lies in (0, 1) exactly when cos phi is in (1/2, 1).  A bisection on
    the same equation cross-checks the algebra before the root is returned.
    """
    cos_phi = math.cos(geom.phase)
    if cos_phi <= 0.5:
        return None
    c_star = (2.0 * cos_phi - 1.0) / cos_phi**2
    if not 0.0 < c_star < 1.0:
        return None
    if 1.0 - c_star * cos_phi < UNDEFINED_INTENSITY_TOL:
        return None

    def excess(c: float) -> float:
        return (1.0 - c) - (1.0 - c * cos_phi) ** 2

    # excess is concave with excess(0) = 0, so it is positive on (0, c*)
    # and negative beyond: bracket the sign change and bisect
    lo, hi = 0.5 * c_star, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if abs(root - c_star) > 1e-8:
        raise RuntimeError(
            f"transition solver disagreement: closed root {c_star}, bisection {root}"
        )
    return TransitionPoint(c_star, discord_werner_closed(c_star))
