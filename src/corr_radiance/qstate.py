"""Two-qubit state construction, validation, and operator algebra.

Everything works on dense complex numpy arrays in the product basis
|ee>, |eg>, |ge>, |gg>, with the single-atom convention |e> = (1, 0)^T,
|g> = (0, 1)^T.  Atoms are labelled 1 and 2; atom 1 is the left Kronecker
factor.
"""

from __future__ import annotations

from collections.abc import Iterator
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

# sigma_0 = I, sigma_x, sigma_y, sigma_z
PAULIS = np.array(
    [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
     [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]],
    dtype=complex,
)
ID2, PAULI_Y = PAULIS[0], PAULIS[2]

LOWERING = np.outer(KET_G, KET_E.conj())  # |g><e|


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
        return _bell_eigenvalues(self.cx, self.cy, self.cz)


def _bell_eigenvalues(cx: float, cy: float, cz: float) -> tuple[float, float, float, float]:
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


def valid_x_coefficients(step: float = 0.1) -> np.ndarray:
    """All coefficient triples (cx, cy, cz) on a cubic grid that give a
    physical state, by the eigenvalue test of ``XStateParams``, as the rows
    of a (k, 3) array in lexicographic order.  Each coefficient lies in
    [-1, 1] by construction."""
    axis = np.array([round(-1.0 + k * step, 10) for k in range(int(round(2.0 / step)) + 1)])
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid[np.min(_bell_eigenvalues(*grid.T), axis=0) >= BELL_EIGENVALUE_FLOOR]


def valid_x_params(step: float = 0.1) -> list[XStateParams]:
    """The rows of ``valid_x_coefficients(step)`` as ``XStateParams``."""
    return [XStateParams(*c) for c in valid_x_coefficients(step).tolist()]


@dataclass(frozen=True)
class DensityCheck:
    """Outcome of validating a candidate density matrix or a stack of them.

    For one matrix each field is a float (``passed`` a bool); for a (k, n, n)
    stack each is an array of length k with one entry per member.
    """

    trace_deviation: float | np.ndarray
    hermiticity_deviation: float | np.ndarray
    min_eigenvalue: float | np.ndarray
    passed: bool | np.ndarray


# members per chunk of a state-stack scan (validation, excitation): a chunk of
# 4x4 complex matrices and each temporary made from it stay within 256 KiB.
# glibc raises its mmap threshold to the largest block freed so far and trims
# a heap top of twice that; a whole 3,101-state stack left about 1.2 MB of
# resident heap
_STACK_CHUNK = 1024


def _chunks(k: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_STACK_CHUNK`` members that cover a
    stack of ``k``."""
    return (slice(start, start + _STACK_CHUNK) for start in range(0, k, _STACK_CHUNK))


def validate_density(mat: CMatrix) -> DensityCheck:
    """Check unit trace, Hermiticity, and positivity of square matrices.

    Parameters
    ----------
    mat : array_like
        One square complex matrix, shape (n, n), or a stack of them, shape
        (k, n, n).  A stack is checked in chunks of ``_STACK_CHUNK`` members,
        each by one trace, one Hermiticity test and one batched ``eigvalsh``;
        each member's result equals that of validating it alone.

    Returns
    -------
    DensityCheck
        Deviations from each requirement (largest entrywise distance to the
        adjoint for Hermiticity) and the overall verdict, as floats for one
        matrix and as arrays for a stack.  The minimum eigenvalue is taken
        from the Hermitian part (mat + mat†)/2, which coincides with the
        spectrum whenever the Hermiticity test passes.
    """
    a = np.asarray(mat, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    stack = a if a.ndim == 3 else a[np.newaxis]
    trace_dev, herm_dev, min_eig = (np.empty(len(stack)) for _ in range(3))
    for part in _chunks(len(stack)):
        _check_chunk(stack[part], trace_dev[part], herm_dev[part], min_eig[part])
    passed = (
        (trace_dev <= TRACE_TOL)
        & (herm_dev <= HERMITICITY_TOL)
        & (min_eig >= EIGENVALUE_FLOOR)
    )
    if a.ndim == 2:
        return DensityCheck(float(trace_dev[0]), float(herm_dev[0]), float(min_eig[0]), bool(passed[0]))
    return DensityCheck(trace_dev, herm_dev, min_eig, passed)


def _check_chunk(stack: np.ndarray, trace_dev: np.ndarray, herm_dev: np.ndarray,
                 min_eig: np.ndarray) -> None:
    """Write the trace deviation, Hermiticity deviation and minimum eigenvalue
    of each member of a (k, n, n) complex stack into the length-k outputs."""
    excess = np.trace(stack, axis1=-2, axis2=-1) - 1.0
    # libm hypot, as abs() of one complex scalar; np.abs rounds some complex
    # moduli differently in the last ulp
    np.hypot(excess.real, excess.imag, out=trace_dev)
    # one scratch stack holds mat - mat†, then (mat + mat†)/2
    work = np.conjugate(stack.swapaxes(-1, -2))
    np.subtract(stack, work, out=work)
    np.abs(work).max(axis=(-2, -1), out=herm_dev)
    np.conjugate(stack.swapaxes(-1, -2), out=work)
    np.add(stack, work, out=work)
    work /= 2.0
    np.linalg.eigvalsh(work).min(axis=-1, out=min_eig)


def _frozen_valid(a: np.ndarray) -> np.ndarray:
    """Validate a complex matrix or (k, n, n) stack that no caller holds, in
    one ``validate_density`` call, and return a read-only view of it.

    Only the view is handed out, and numpy refuses to make a view of a
    read-only array writable again.

    A failure names the first failing member's index when ``a`` is a stack.
    """
    check = validate_density(a)
    failed = np.flatnonzero(~np.atleast_1d(check.passed))
    if failed.size:
        i = failed[0]
        trace, herm, eig = (
            np.atleast_1d(value)[i]
            for value in (check.trace_deviation, check.hermiticity_deviation, check.min_eigenvalue)
        )
        where = f" at index {i}" if a.ndim == 3 else ""
        raise ValueError(
            f"invalid density matrix{where}: "
            f"trace deviation {trace:.3g}, "
            f"hermiticity deviation {herm:.3g}, "
            f"minimum eigenvalue {eig:.3g}"
        )
    a.setflags(write=False)
    return a.view()


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated one- or two-atom density matrix.

    Construction rejects anything that is not trace one, Hermitian, and
    positive semidefinite within tolerance; the stored array is read-only.
    ``x_states`` and ``partial_traces`` validate many states at once and
    return them as one read-only stack.
    """

    mat: CMatrix

    def __post_init__(self):
        a = np.array(self.mat, dtype=complex)
        if a.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"density matrix must be 2x2 or 4x4, got shape {a.shape}")
        object.__setattr__(self, "mat", _frozen_valid(a))


def _bell_diagonal(coefficients) -> np.ndarray:
    """Unvalidated (k, 4, 4) stack of (I + cx XX + cy YY + cz ZZ)/4, one per
    row (cx, cy, cz) of the (k, 3) array-like ``coefficients``, assembled
    literally: diagonal (1 +/- cz)/4, inner anti-diagonal (cx + cy)/4, outer
    anti-diagonal (cx - cy)/4."""
    c = np.asarray(coefficients, dtype=float)
    if c.size and (c.ndim != 2 or c.shape[1] != 3):
        raise ValueError(f"coefficients must be (k, 3) rows (cx, cy, cz), got shape {c.shape}")
    cx, cy, cz = c.reshape(-1, 3).T
    mat = np.zeros((len(cx), 4, 4), dtype=complex)
    mat[:, 0, 0] = mat[:, 3, 3] = 1.0 + cz
    mat[:, 1, 1] = mat[:, 2, 2] = 1.0 - cz
    mat[:, 1, 2] = mat[:, 2, 1] = cx + cy
    mat[:, 0, 3] = mat[:, 3, 0] = cx - cy
    mat /= 4.0
    return mat


def x_states(coefficients) -> np.ndarray:
    """Bell-diagonal states (I + cx XX + cy YY + cz ZZ)/4, one per row
    (cx, cy, cz) of the (k, 3) array-like ``coefficients``, as one read-only
    (k, 4, 4) stack validated by one call."""
    return _frozen_valid(_bell_diagonal(coefficients))


def make_x_state(params: XStateParams) -> DensityMatrix:
    """Bell-diagonal state (I + cx XX + cy YY + cz ZZ)/4; see ``x_states``."""
    return DensityMatrix(_bell_diagonal([(params.cx, params.cy, params.cz)])[0])


def make_werner(c: float) -> DensityMatrix:
    """Werner state: the Bell-diagonal state with cx = cy = cz = -c."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter c = {c} lies outside [0, 1]")
    return make_x_state(XStateParams(-c, -c, -c))


def two_atom_stack(stack, what: str) -> np.ndarray:
    """``stack`` as an array, checked to be a (k, 4, 4) stack of two-atom
    states: the one shape check of every function that takes them.  The
    error says that ``what`` needs them."""
    s = np.asarray(stack)
    if s.ndim != 3 or s.shape[1:] != (4, 4):
        raise ValueError(f"{what} needs two-atom (4x4) states, got shape {s.shape}")
    return s


def _reduce(stack, keep: int) -> np.ndarray:
    """Unvalidated reduced states of atom ``keep`` (1 or 2) of a (k, 4, 4)
    stack of two-atom states, in one ``einsum``."""
    r = two_atom_stack(np.asarray(stack, dtype=complex), "partial trace").reshape(-1, 2, 2, 2, 2)
    if keep == 1:
        return np.einsum("kabcb->kac", r)
    if keep == 2:
        return np.einsum("kabac->kbc", r)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


def partial_traces(stack, keep: int) -> np.ndarray:
    """Reduced states of atom ``keep`` (1 or 2) of a (k, 4, 4) stack of
    two-atom states, as one read-only (k, 2, 2) stack validated by one call.

    Raises ValueError naming the index of the first reduced state that is
    not a density matrix.
    """
    return _frozen_valid(_reduce(stack, keep))


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of atom ``keep`` (1 or 2) of a two-atom state.

    Parameters
    ----------
    rho : DensityMatrix
        Two-atom (4x4) density matrix.
    keep : int
        Atom whose reduced state is returned; the other atom is traced out.
    """
    return DensityMatrix(_reduce(rho.mat[np.newaxis], keep)[0])


def xlog2(x: np.ndarray) -> np.ndarray:
    """x log2 x elementwise, with 0 log 0 = 0 (and 0 for x < 0)."""
    positive = x > 0.0
    return np.where(positive, x * np.log2(np.where(positive, x, 1.0)), 0.0)


def von_neumann_entropy(rho) -> float | np.ndarray:
    """Entropy -tr(rho log2 rho) in bits: a float for a DensityMatrix or one
    (n, n) Hermitian array, one value per member for a (k, n, n) stack.

    Each member's value is its one-state value, bit for bit.  Raises
    ValueError on a non-finite entry or an eigenvalue below
    ``EIGENVALUE_FLOOR``, where no entropy is defined.
    """
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if not np.isfinite(mat).all():
        raise ValueError("entropy of a matrix with a non-finite entry")
    lam = np.linalg.eigvalsh(mat)
    if np.any(lam < EIGENVALUE_FLOOR):
        raise ValueError(f"entropy of a matrix with eigenvalue {lam.min():.3g} "
                         f"below {EIGENVALUE_FLOOR:g}")
    s = -xlog2(lam).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


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


def excitation_probabilities(stack) -> np.ndarray:
    """Expected number of excited atoms, tr[(P_e x I + I x P_e) rho], of each
    state in a (k, 4, 4) stack, by one batched product per chunk of
    ``_STACK_CHUNK`` states."""
    s = two_atom_stack(stack, "excitation probability")
    probs = np.empty(len(s))
    for part in _chunks(len(s)):
        probs[part] = np.trace(_NUMBER_OP @ s[part], axis1=1, axis2=2).real
    return probs


def excitation_probability(rho: DensityMatrix) -> float:
    """Expected number of excited atoms, tr[(P_e x I + I x P_e) rho]."""
    return float(excitation_probabilities(rho.mat[np.newaxis])[0])
