"""Two-qubit state construction, validation, and operator algebra.

Everything works on dense complex numpy arrays in the product basis
|ee>, |eg>, |ge>, |gg>, with the single-atom convention |e> = (1, 0)^T,
|g> = (0, 1)^T.  Atoms are labelled 1 and 2; atom 1 is the left Kronecker
factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dense complex matrices are plain numpy arrays throughout.
CMatrix = np.ndarray

TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
# absorbs eigenvalue roundoff at the pure-state boundary
EIGENVALUE_FLOOR = -1e-10
BELL_EIGENVALUE_FLOOR = -1e-12

KET_E = np.array([1.0, 0.0], dtype=complex)
KET_G = np.array([0.0, 1.0], dtype=complex)
BASIS_LABELS = ("ee", "eg", "ge", "gg")

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

LOWERING = np.outer(KET_G, KET_E.conj())  # |g><e|


def dagger(a: CMatrix) -> CMatrix:
    return a.conj().T


def hermiticity_deviation(a: CMatrix) -> float:
    """Largest entrywise distance between a matrix and its adjoint."""
    return float(np.max(np.abs(a - a.conj().T)))


@dataclass(frozen=True)
class XStateParams:
    """Correlation coefficients (cx, cy, cz) of a Bell-diagonal two-atom state.

    Each coefficient must lie in [-1, 1] and the four Bell-basis eigenvalues
    must be nonnegative, otherwise construction fails with the violated
    eigenvalue expression spelled out.
    """

    cx: float
    cy: float
    cz: float

    def __post_init__(self):
        for name, value in (("cx", self.cx), ("cy", self.cy), ("cz", self.cz)):
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"{name} = {value} lies outside [-1, 1]")
        violated = [
            f"{expr} = {lam:.6g}"
            for expr, lam in zip(_BELL_EIGENVALUE_EXPRS, self.bell_eigenvalues())
            if lam < BELL_EIGENVALUE_FLOOR
        ]
        if violated:
            raise ValueError(
                "coefficients give a negative state eigenvalue: " + "; ".join(violated)
            )

    def bell_eigenvalues(self) -> tuple[float, float, float, float]:
        """Spectrum of the state in the Bell basis."""
        cx, cy, cz = self.cx, self.cy, self.cz
        return (
            (1.0 - cx - cy - cz) / 4.0,
            (1.0 - cx + cy + cz) / 4.0,
            (1.0 + cx - cy + cz) / 4.0,
            (1.0 + cx + cy - cz) / 4.0,
        )


_BELL_EIGENVALUE_EXPRS = (
    "(1 - cx - cy - cz)/4",
    "(1 - cx + cy + cz)/4",
    "(1 + cx - cy + cz)/4",
    "(1 + cx + cy - cz)/4",
)


@dataclass(frozen=True)
class DensityCheck:
    """Outcome of validating a candidate density matrix."""

    trace_deviation: float
    hermiticity_deviation: float
    min_eigenvalue: float
    passed: bool


def validate_density(mat: CMatrix) -> DensityCheck:
    """Check unit trace, Hermiticity, and positivity of a square matrix.

    Parameters
    ----------
    mat : array_like
        Square complex matrix to inspect.

    Returns
    -------
    DensityCheck
        Deviations from each requirement and the overall verdict.  The
        minimum eigenvalue is taken from the Hermitian part (mat + mat†)/2,
        which coincides with the spectrum whenever the Hermiticity test
        passes.
    """
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    trace_dev = float(abs(a.trace() - 1.0))
    herm_dev = hermiticity_deviation(a)
    min_eig = float(np.linalg.eigvalsh((a + a.conj().T) / 2.0).min())
    passed = (
        trace_dev <= TRACE_TOL
        and herm_dev <= HERMITICITY_TOL
        and min_eig >= EIGENVALUE_FLOOR
    )
    return DensityCheck(trace_dev, herm_dev, min_eig, passed)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated one- or two-atom density matrix.

    Construction rejects anything that is not trace one, Hermitian, and
    positive semidefinite within tolerance; the stored array is read-only.
    """

    mat: CMatrix

    def __post_init__(self):
        a = np.array(self.mat, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] not in (2, 4):
            raise ValueError(f"density matrix must be 2x2 or 4x4, got {a.shape}")
        check = validate_density(a)
        if not check.passed:
            raise ValueError(
                "invalid density matrix: "
                f"trace deviation {check.trace_deviation:.3g}, "
                f"hermiticity deviation {check.hermiticity_deviation:.3g}, "
                f"minimum eigenvalue {check.min_eigenvalue:.3g}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def make_x_state(params: XStateParams) -> DensityMatrix:
    """Bell-diagonal state (I + cx XX + cy YY + cz ZZ)/4.

    The matrix is assembled literally: diagonal (1 +/- cz)/4, inner
    anti-diagonal (cx + cy)/4, outer anti-diagonal (cx - cy)/4.
    """
    cx, cy, cz = params.cx, params.cy, params.cz
    mat = (
        np.array(
            [
                [1.0 + cz, 0.0, 0.0, cx - cy],
                [0.0, 1.0 - cz, cx + cy, 0.0],
                [0.0, cx + cy, 1.0 - cz, 0.0],
                [cx - cy, 0.0, 0.0, 1.0 + cz],
            ],
            dtype=complex,
        )
        / 4.0
    )
    return DensityMatrix(mat)


def make_werner(c: float) -> DensityMatrix:
    """Werner state: the Bell-diagonal state with cx = cy = cz = -c."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter c = {c} lies outside [0, 1]")
    return make_x_state(XStateParams(-c, -c, -c))


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of atom ``keep`` (1 or 2) of a two-atom state.

    Parameters
    ----------
    rho : DensityMatrix
        Two-atom (4x4) density matrix.
    keep : int
        Atom whose reduced state is returned; the other atom is traced out.
    """
    if rho.dim != 4:
        raise ValueError("partial trace needs a two-atom (4x4) state")
    r = rho.mat.reshape(2, 2, 2, 2)
    if keep == 1:
        reduced = np.einsum("abcb->ac", r)
    elif keep == 2:
        reduced = np.einsum("abac->bc", r)
    else:
        raise ValueError(f"keep must be 1 or 2, got {keep}")
    return DensityMatrix(reduced)


def eigenvalue_entropy(eigenvalues) -> float:
    """Shannon entropy in bits of an eigenvalue list, with 0 log 0 = 0."""
    lam = np.clip(np.real(np.asarray(eigenvalues)), 0.0, None)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def von_neumann_entropy(rho) -> float:
    """Entropy -tr(rho log2 rho) in bits.

    Accepts a DensityMatrix or a raw Hermitian array.
    """
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return eigenvalue_entropy(np.linalg.eigvalsh(mat))


_SIGMA_MINUS_1 = np.kron(LOWERING, ID2)
_SIGMA_MINUS_2 = np.kron(ID2, LOWERING)
_SIGMA_MINUS_1.setflags(write=False)
_SIGMA_MINUS_2.setflags(write=False)


def sigma_minus(j: int) -> CMatrix:
    """Lowering operator |g><e| of atom j embedded in the two-atom space.

    The array is a shared read-only constant; copy it before writing to it.
    """
    if j == 1:
        return _SIGMA_MINUS_1
    if j == 2:
        return _SIGMA_MINUS_2
    raise ValueError(f"atom index must be 1 or 2, got {j}")


_EXCITED_PROJ = np.outer(KET_E, KET_E.conj())
_NUMBER_OP = np.kron(_EXCITED_PROJ, ID2) + np.kron(ID2, _EXCITED_PROJ)


def excitation_probability(rho: DensityMatrix) -> float:
    """Expected number of excited atoms, tr[(P_e x I + I x P_e) rho]."""
    if rho.dim != 4:
        raise ValueError("excitation probability needs a two-atom (4x4) state")
    return float(np.real(np.trace(_NUMBER_OP @ rho.mat)))
