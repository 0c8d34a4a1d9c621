"""State construction, validation, reductions, entropy, and operator algebra."""

import itertools
import math

import numpy as np
import pytest

from corr_radiance.qstate import (
    BASIS_LABELS,
    KET_E,
    KET_G,
    DensityMatrix,
    XStateParams,
    excitation_probability,
    make_werner,
    make_x_state,
    partial_trace,
    sigma_minus,
    valid_x_params,
    validate_density,
    von_neumann_entropy,
    xlog2,
)


def ket(label):
    """Product basis vector from a two-letter label like 'eg'."""
    single = {"e": KET_E, "g": KET_G}
    return np.kron(single[label[0]], single[label[1]])


SINGLET = (ket("eg") - ket("ge")) / math.sqrt(2.0)


class TestXStateConstruction:
    def test_matrix_layout(self):
        cx, cy, cz = 0.3, -0.2, 0.1
        mat = make_x_state(XStateParams(cx, cy, cz)).mat
        expected = np.array(
            [
                [1 + cz, 0, 0, cx - cy],
                [0, 1 - cz, cx + cy, 0],
                [0, cx + cy, 1 - cz, 0],
                [cx - cy, 0, 0, 1 + cz],
            ]
        ) / 4.0
        assert np.allclose(mat, expected, atol=1e-15)

    def test_zero_coefficients_give_maximally_mixed(self):
        mat = make_x_state(XStateParams(0.0, 0.0, 0.0)).mat
        assert np.array_equal(mat, np.eye(4) / 4.0)

    def test_extremal_point_is_the_singlet(self):
        mat = make_x_state(XStateParams(-1.0, -1.0, -1.0)).mat
        assert np.allclose(mat, np.outer(SINGLET, SINGLET.conj()), atol=1e-15)
        # spectrum collapses to a single unit eigenvalue
        assert np.linalg.eigvalsh(mat) == pytest.approx([0, 0, 0, 1], abs=1e-14)

    def test_unphysical_coefficients_name_the_violated_eigenvalue(self):
        with pytest.raises(ValueError, match=r"1 - cx - cy - cz"):
            XStateParams(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
            XStateParams(1.5, 0.0, 0.0)

    def test_bell_eigenvalues_match_diagonalization(self):
        p = XStateParams(0.5, 0.5, -0.5)
        diag = np.sort(np.linalg.eigvalsh(make_x_state(p).mat))
        assert diag == pytest.approx(sorted(p.bell_eigenvalues()), abs=1e-14)


class TestWernerState:
    def test_matrix_entries_at_one_third(self):
        mat = make_werner(1.0 / 3.0).mat
        assert np.diag(mat).real == pytest.approx([1 / 6, 1 / 3, 1 / 3, 1 / 6], abs=1e-15)
        assert mat[1, 2].real == pytest.approx(-1 / 6, abs=1e-15)
        assert mat[0, 3] == 0.0

    def test_limits(self):
        assert np.array_equal(make_werner(0.0).mat, np.eye(4) / 4.0)
        assert np.allclose(make_werner(1.0).mat, np.outer(SINGLET, SINGLET.conj()), atol=1e-15)

    def test_equals_x_state_with_negated_coefficients(self):
        c = 0.37
        assert np.array_equal(make_werner(c).mat, make_x_state(XStateParams(-c, -c, -c)).mat)

    @pytest.mark.parametrize("c", [-0.1, 1.1, float("nan")])
    def test_rejects_parameter_outside_unit_interval(self, c):
        with pytest.raises(ValueError):
            make_werner(c)


class TestValidation:
    def test_passes_on_werner_spectrum(self):
        check = validate_density(make_werner(0.5).mat)
        assert check.passed
        # brute-force spectrum: {5/8 once, 1/8 three times}
        eigs = np.sort(np.linalg.eigvalsh(make_werner(0.5).mat))
        assert eigs == pytest.approx([0.125, 0.125, 0.125, 0.625], abs=1e-14)

    def test_reports_trace_deviation(self):
        check = validate_density(np.diag([1.0, 0.0, 0.0, 0.1]))
        assert not check.passed
        assert check.trace_deviation == pytest.approx(0.1, abs=1e-14)

    def test_reports_hermiticity_deviation(self):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.2
        check = validate_density(bad)
        assert not check.passed
        assert check.hermiticity_deviation == pytest.approx(0.2, abs=1e-14)

    def test_reports_negative_eigenvalue(self):
        check = validate_density(np.diag([0.6, 0.5, 0.0, -0.1]))
        assert not check.passed
        assert check.min_eigenvalue == pytest.approx(-0.1, abs=1e-14)

    def test_rejects_non_square_input(self):
        with pytest.raises(ValueError, match="square"):
            validate_density(np.zeros((2, 3)))

    def test_density_matrix_constructor_enforces_the_same_rules(self):
        with pytest.raises(ValueError, match="invalid density matrix"):
            DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.1]))
        for mat in (np.eye(3) / 3.0, np.eye(2, 4) / 2.0, np.eye(2)[None] / 2.0):
            with pytest.raises(ValueError, match="2x2 or 4x4"):
                DensityMatrix(mat)

    def test_density_matrix_is_read_only(self):
        rho = make_werner(0.2)
        assert not rho.mat.flags.writeable
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 9.0


class TestPartialTrace:
    def test_x_state_marginals_are_maximally_mixed(self):
        rho = make_x_state(XStateParams(0.4, -0.3, 0.2))
        for keep in (1, 2):
            assert np.allclose(partial_trace(rho, keep).mat, np.eye(2) / 2.0, atol=1e-15)

    def test_product_state_marginals(self):
        rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert np.allclose(partial_trace(rho, 1).mat, np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(partial_trace(rho, 2).mat, np.diag([0.0, 1.0]), atol=1e-15)

    def test_rejects_bad_arguments(self):
        rho = make_werner(0.5)
        with pytest.raises(ValueError):
            partial_trace(rho, 3)
        with pytest.raises(ValueError, match="4x4"):
            partial_trace(partial_trace(rho, 1), 1)


class TestEntropy:
    def test_reference_values(self):
        assert von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
        assert von_neumann_entropy(make_werner(1.0)) == pytest.approx(0.0, abs=1e-12)
        assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)

    def test_werner_entropy_against_eigenvalue_sum(self):
        # spectrum {1/2, 1/6 x3}; frozen value 0.5 + log2(6)/2
        rho = make_werner(1.0 / 3.0)
        lam = np.linalg.eigvalsh(rho.mat)
        direct = float(-(lam * np.log2(lam)).sum())
        assert direct == pytest.approx(1.7924812503605778, abs=1e-13)
        assert von_neumann_entropy(rho) == pytest.approx(direct, abs=1e-13)

    def test_invariant_under_random_unitaries(self):
        rng = np.random.default_rng(7)
        rho = make_werner(0.3).mat
        reference = von_neumann_entropy(rho)
        for _ in range(20):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, r = np.linalg.qr(z)
            u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
            assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - reference) <= 1e-10


def reference_entropy(mat) -> float:
    """-sum lam log2 lam over the positive eigenvalues of one state, after
    clipping: the per-state entropy rule kept apart from ``xlog2``."""
    lam = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def _entropy_stack(n, rng):
    """Random full-rank states, states of rank 1 to n - 1 as V diag(p) V^dagger
    with zeros in p, and diagonal spectra with -1e-17 roundoff entries."""
    states = []
    for rank in range(1, n + 1):
        for _ in range(6):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            v, _ = np.linalg.qr(z)
            p = np.zeros(n)
            p[:rank] = rng.random(rank)
            p /= p.sum()
            states.append((v * p) @ v.conj().T)
    for rank in range(1, n):
        p = np.zeros(n)
        p[:rank] = 1.0 / rank
        p[rank] = -1e-17
        states.append(np.diag(p).astype(complex))
    return np.array(states)


class TestEntropyOfStacks:
    @pytest.mark.parametrize("n", [2, 4])
    def test_each_member_is_its_one_state_value_and_the_reference_rule_bit_for_bit(self, n):
        stack = _entropy_stack(n, np.random.default_rng(11 + n))
        values = von_neumann_entropy(stack)
        assert values.shape == (len(stack),)
        one_state = [von_neumann_entropy(mat) for mat in stack]
        assert all(isinstance(v, float) for v in one_state)
        assert [float(v).hex() for v in values] == [v.hex() for v in one_state]
        assert [v.hex() for v in one_state] == [reference_entropy(mat).hex() for mat in stack]

    def test_a_density_matrix_gives_a_float(self):
        rho = make_werner(0.4)
        assert type(von_neumann_entropy(rho)) is float
        assert von_neumann_entropy(rho) == von_neumann_entropy(rho.mat[np.newaxis])[0]

    def test_an_empty_stack_gives_no_values(self):
        assert von_neumann_entropy(np.zeros((0, 4, 4))).shape == (0,)

    @pytest.mark.parametrize("mat, match", [
        ([[math.nan, 0.0], [0.0, 1.0]], "non-finite"),
        ([[math.inf, 0.0], [0.0, 1.0]], "non-finite"),
        (np.diag([2.0, -1.0]), "eigenvalue -1 below"),
        (np.diag([1.0 + 2e-10, -2e-10]), "below -1e-10"),
    ], ids=["nan", "inf", "negative", "just-below-floor"])
    def test_a_matrix_with_no_entropy_raises(self, mat, match):
        with pytest.raises(ValueError, match=match):
            von_neumann_entropy(mat)
        stack = np.array([np.eye(2) / 2.0, mat])
        with pytest.raises(ValueError, match=match):
            von_neumann_entropy(stack)

    def test_xlog2_is_zero_at_zero_and_below_and_x_log2_x_above(self):
        nonpositive = np.array([0.0, -0.0, -1e-17, -1e-300, -5e-324])
        assert [v.hex() for v in xlog2(nonpositive).tolist()] == [(0.0).hex()] * 5
        x = np.array([5e-324, 1e-300, 1e-17, 0.25, 0.5, 1.0 - 1e-16, 1.0, 2.0])
        assert np.array_equal(xlog2(x), x * np.log2(x))


class TestLoweringOperators:
    def test_actions_on_basis_states(self):
        assert np.allclose(sigma_minus(1) @ ket("ee"), ket("ge"), atol=1e-15)
        assert np.allclose(sigma_minus(2) @ ket("ee"), ket("eg"), atol=1e-15)
        assert np.all(sigma_minus(2) @ ket("gg") == 0.0)
        assert np.allclose(sigma_minus(1) @ sigma_minus(2) @ ket("ee"), ket("gg"), atol=1e-15)

    def test_nilpotent_and_commuting_exactly(self):
        s1, s2 = sigma_minus(1), sigma_minus(2)
        assert np.all(s1 @ s1 == 0.0)
        assert np.all(s2 @ s2 == 0.0)
        assert np.all(s1 @ s2 - s2 @ s1 == 0.0)

    def test_rejects_bad_atom_index(self):
        with pytest.raises(ValueError):
            sigma_minus(0)

    def test_basis_labels_order(self):
        assert BASIS_LABELS == ("ee", "eg", "ge", "gg")


class TestExcitation:
    def test_single_shared_excitation_for_x_states(self):
        for p in [XStateParams(0, 0, 0), XStateParams(-1, -1, -1), XStateParams(0.5, 0.5, -0.5)]:
            assert excitation_probability(make_x_state(p)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_extremes(self):
        both = DensityMatrix(np.outer(ket("ee"), ket("ee").conj()))
        none = DensityMatrix(np.outer(ket("gg"), ket("gg").conj()))
        assert excitation_probability(both) == pytest.approx(2.0, abs=1e-14)
        assert excitation_probability(none) == pytest.approx(0.0, abs=1e-14)


def test_structural_invariants_over_coefficient_grid():
    """Every physical coefficient triple on the 0.1-step grid yields a valid
    state with maximally mixed marginals and one shared excitation."""
    params = valid_x_params(step=0.1)
    assert len(params) > 2000
    half = np.eye(2) / 2.0
    for p in params:
        rho = make_x_state(p)
        assert validate_density(rho.mat).passed
        assert np.max(np.abs(partial_trace(rho, 1).mat - half)) <= 1e-12
        assert np.max(np.abs(partial_trace(rho, 2).mat - half)) <= 1e-12
        assert abs(excitation_probability(rho) - 1.0) <= 1e-12


def reference_valid_x_params(step):
    """The grid rule as it stood apart from ``XStateParams``: its own
    eigenvalue sums, without the /4, and its own floor."""
    axis = [round(-1.0 + k * step, 10) for k in range(int(round(2.0 / step)) + 1)]
    params = []
    for cx, cy, cz in itertools.product(axis, axis, axis):
        lams = (1.0 - cx - cy - cz, 1.0 - cx + cy + cz, 1.0 + cx - cy + cz, 1.0 + cx + cy - cz)
        if min(lams) >= -1e-12:
            params.append(XStateParams(cx, cy, cz))
    return params


@pytest.mark.parametrize("step", [0.05, 0.1, 0.25, 0.4])
def test_grid_rule_is_the_eigenvalue_test_of_xstateparams(step):
    params = valid_x_params(step)
    assert params == reference_valid_x_params(step)
    if step == 0.1:
        assert len(params) == 3101
