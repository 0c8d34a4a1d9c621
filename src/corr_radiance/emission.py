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
from .qstate import CMatrix, DensityMatrix, XStateParams, sigma_minus, two_atom_stack

# intensities below this are treated as zero and g2 as undefined
UNDEFINED_INTENSITY_TOL = 1e-12
# band around 1 that counts as neutral radiance / Poissonian statistics
CLASSIFY_TOL = 1e-12
# largest kl: the phase kl sin(beta) is rounded by up to about kl * 2**-52,
# 2.2e-13 here, which must stay well below CLASSIFY_TOL
MAX_KL = 1e3

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
    """Detector placement: kl is wave number times atom separation, in
    (1, MAX_KL] (the separated-atom regime), sin_beta the sine of the
    observation angle off broadside, in [-1, 1].  This is the one check of
    both ranges; each error opens with the name of the field at fault."""

    kl: float
    sin_beta: float

    def __post_init__(self):
        if not (math.isfinite(self.kl) and self.kl > 1.0):
            raise ValueError(f"kl must be finite and exceed 1, got {self.kl}")
        if self.kl > MAX_KL:
            raise ValueError(
                f"kl must be at most {MAX_KL:g}, got {self.kl}: beyond that the "
                "rounding of the phase kl sin(beta) nears the classification tolerance"
            )
        if not -1.0 <= self.sin_beta <= 1.0:
            raise ValueError(f"sin_beta must lie in [-1, 1], got {self.sin_beta}")

    @property
    def phase(self) -> float:
        """Relative optical phase kl sin(beta) between the two emitters."""
        return self.kl * self.sin_beta

    @property
    def cos_phase(self) -> float:
        """cos(kl sin beta) from libm (``math.cos``), not numpy: numpy's cos
        may differ in the last ulp with the build and the CPU.  Every table,
        solver and check takes cos phi from here, so their bytes agree."""
        return math.cos(self.phase)


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


def _real_traces(stack: np.ndarray, op: CMatrix, label: str, members=slice(None)) -> np.ndarray:
    """tr(rho op† op) of each state in a (k, 4, 4) stack, as the sum over i, j
    of rho_ij (op† op)_ji: one contraction that calls no BLAS, so the traces
    do not depend on which BLAS kernel the CPU selects.

    Raises ValueError naming ``label`` at the first of ``members`` whose
    trace has an imaginary part above _IMAG_TOL.
    """
    values = np.einsum("kij,ji->k", stack, np.einsum("ij,ik->jk", op.conj(), op))
    for value in values[members]:
        if abs(value.imag) > _IMAG_TOL:
            raise ValueError(f"{label} came out non-real (imaginary part {value.imag:.3g})")
    return values.real


def _oracle_stack(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """A DensityMatrix as a stack of one, or a (k, 4, 4) stack as it is."""
    return two_atom_stack(rho.mat[np.newaxis] if isinstance(rho, DensityMatrix) else rho, "an oracle")


def intensity_oracle(
    rho: DensityMatrix | np.ndarray, geom: DetectionGeometry, convention: str = "indexed"
) -> float | np.ndarray:
    """Radiated intensity tr(rho E- E+) evaluated by operator algebra.

    ``rho`` is a DensityMatrix, which gives a float, or a (k, 4, 4) stack of
    states, which gives one intensity per member as an array; a DensityMatrix
    is a stack of one.
    """
    intensity = _real_traces(_oracle_stack(rho), field_operator(geom, convention), "intensity")
    return float(intensity[0]) if isinstance(rho, DensityMatrix) else intensity


def intensity_closed_x(params: XStateParams, geom: DetectionGeometry) -> float:
    """Closed-form intensity 1 + (cx + cy)/2 cos(kl sin beta) of a Bell-diagonal state."""
    return x_intensity(0.5 * (params.cx + params.cy), geom.cos_phase)


def g2_oracle(
    rho: DensityMatrix | np.ndarray, geom: DetectionGeometry, convention: str = "indexed"
) -> float | None | np.ndarray:
    """Zero-delay second-order coherence tr(rho E-^2 E+^2) / tr(rho E- E+)^2.

    ``rho`` is a DensityMatrix or a (k, 4, 4) stack, as in
    ``intensity_oracle``.  Where the intensity vanishes (below 1e-12) the
    ratio is 0/0 and no statistics label applies: a DensityMatrix gives None
    there and a stack NaN.  Only the pair rates of the other members must be
    real.
    """
    stack = _oracle_stack(rho)
    ep = field_operator(geom, convention)
    intensity = _real_traces(stack, ep, "intensity")
    defined = ~(intensity < UNDEFINED_INTENSITY_TOL)
    numerator = _real_traces(stack, ep @ ep, "photon-pair rate", defined)
    # squared as I * I, correctly rounded, as in x_emission
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = np.where(defined, numerator / (intensity * intensity), np.nan)
    if isinstance(rho, DensityMatrix):
        return float(g2[0]) if defined[0] else None
    return g2


def g2_closed_werner(c: float, geom: DetectionGeometry) -> float | None:
    """Closed-form Werner g2: (1 - c) / (1 - c cos(kl sin beta))^2, None at 0/0."""
    e = werner_emission(c, geom.cos_phase)
    return None if e.undefined else float(e.g2)


# order of the integer statistics codes in Emission: 1 + the band of g2 (see
# _band), then undefined
STATISTICS = (
    PhotonStatistics.SUB_POISSONIAN,
    PhotonStatistics.POISSONIAN,
    PhotonStatistics.SUPER_POISSONIAN,
    PhotonStatistics.UNDEFINED,
)
_UNDEFINED = np.int8(STATISTICS.index(PhotonStatistics.UNDEFINED))
# the radiance of 1 + the band of the intensity
_RADIANCE = (Radiance.SUB, Radiance.NEUTRAL, Radiance.SUPER)


def _band(x):
    """-1, 0 or 1 (int8) where x lies below, within or above 1 +/- CLASSIFY_TOL;
    0 for NaN."""
    x = np.asarray(x)
    return (x > 1.0 + CLASSIFY_TOL).astype(np.int8) - (x < 1.0 - CLASSIFY_TOL)


@dataclass(frozen=True)
class Emission:
    """Emission of Bell-diagonal states over a grid of points.

    ``g2`` is NaN exactly where ``undefined`` is set; ``statistics`` holds
    indices into ``STATISTICS``.
    """

    intensity: np.ndarray
    g2: np.ndarray
    undefined: np.ndarray
    statistics: np.ndarray


def x_intensity(half_sum, cos_phase):
    """Intensity 1 + half_sum cos(kl sin beta) of Bell-diagonal states, with
    half_sum = (cx + cy)/2; floats, or arrays that broadcast."""
    return 1.0 + half_sum * cos_phase


def x_emission(half_sum, cz, cos_phase) -> Emission:
    """Intensity, g2 = (1 + cz)/I^2 and statistics of Bell-diagonal states.

    The arguments broadcast against each other, and every field has the
    shape of all three; g2 is undefined where the intensity is below
    UNDEFINED_INTENSITY_TOL.  The Werner state c is half_sum = cz = -c, and
    since (-c) x = -(c x) and 1 + (-y) = 1 - y exactly, its values are those
    of 1 - c cos phi and (1 - c)/(1 - c cos phi)^2 bit for bit.  ``cos_phase``
    should be a ``DetectionGeometry.cos_phase``, which the scalar functions use.
    """
    intensity = np.asarray(x_intensity(half_sum, cos_phase), dtype=float)
    if not np.all(intensity >= 0.0):
        raise ValueError("intensity must be nonnegative")
    undefined = intensity < UNDEFINED_INTENSITY_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = np.where(undefined, np.nan, (1.0 + cz) / (intensity * intensity))
    # g2 alone broadcasts against cz too
    return Emission(
        np.broadcast_to(intensity, g2.shape),
        g2,
        np.broadcast_to(undefined, g2.shape),
        np.where(undefined, _UNDEFINED, _band(g2) + 1),
    )


def werner_emission(c: np.ndarray, cos_phase: np.ndarray) -> Emission:
    """``x_emission`` of the Werner states cx = cy = cz = -c over arrays."""
    c = np.asarray(c, dtype=float)
    if not np.all((c >= 0.0) & (c <= 1.0)):
        raise ValueError("Werner parameter c lies outside [0, 1]")
    return x_emission(-c, -c, cos_phase)


def classify(intensity: float, g2: float | None) -> EmissionReport:
    """Label the radiance (intensity vs 1) and photon statistics (g2 vs 1).

    Values within 1e-12 of 1 count as neutral / Poissonian; g2 > 1 means
    super-Poissonian counting statistics, g2 < 1 sub-Poissonian.
    """
    if intensity < 0.0:
        raise ValueError(f"intensity must be nonnegative, got {intensity}")
    statistics = PhotonStatistics.UNDEFINED if g2 is None else STATISTICS[_band(g2) + 1]
    return EmissionReport(intensity, g2, _RADIANCE[_band(intensity) + 1], statistics)


def radiance_boundary(kl: float) -> list[float]:
    """All sin(beta) in [-1, 1] where cos(kl sin beta) = 0, sorted ascending.

    These are the angles kl sin(beta) = pi/2 + n pi at which the intensity
    equals 1 for every Werner state; empty when kl < pi/2.  There are about
    2 kl / pi of them, so kl above MAX_KL is rejected.
    """
    DetectionGeometry(kl, 0.0)  # checks kl
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
    which lies in (0, 1) exactly when cos phi is in (1/2, 1).  Above 1/2,
    2 cos phi - 1 is exact and positive, so c* > 0; within about 1e-8 of
    cos phi = 1, c* rounds to 1 and the result is None, although g2 (0 at
    c = 1) still falls below 1 on fig5's last row, which fig5 marks.  Where
    c* < 1, the intensity at c*, (1 - cos phi)/cos phi, is about 1e-8 or
    more, so g2 is defined there.

    The discord D_t = D(c*) is as accurate as c* allows, and no more.  Near
    cos phi = 1/2, c* has a condition number of about 1/c* in sin beta,
    through the rounding of kl sin beta and of cos; there D_t, about
    c*^2 / ln 2, carries twice c*'s relative error.
    """
    cos_phi = geom.cos_phase
    if cos_phi <= 0.5:
        return None
    c_star = (2.0 * cos_phi - 1.0) / (cos_phi * cos_phi)
    if c_star >= 1.0:
        return None
    return TransitionPoint(c_star, discord_werner_closed(c_star))
