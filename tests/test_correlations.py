"""Discord and concurrence: closed forms against their independent routes."""

import math

import numpy as np
import pytest

from corr_radiance.correlations import (
    _conditional_entropy,
    concurrence_closed,
    concurrence_wootters,
    concurrences_wootters,
    discord_numeric,
    discord_to_c,
    discord_werner_closed,
)
from corr_radiance.qstate import DensityMatrix, XStateParams, make_werner, make_x_state

# discord of the Werner state at the separability threshold c = 1/3
D_AT_ONE_THIRD = 0.12581458369391152


class TestDiscordClosedForm:
    def test_endpoints(self):
        assert discord_werner_closed(0.0) == 0.0
        assert discord_werner_closed(1.0) == 1.0

    def test_value_at_separability_threshold(self):
        d = discord_werner_closed(1.0 / 3.0)
        assert d == pytest.approx(D_AT_ONE_THIRD, abs=1e-14)
        assert abs(d - 0.126) <= 5e-4

    @pytest.mark.parametrize("c", [-0.01, 1.01])
    def test_rejects_out_of_range(self, c):
        with pytest.raises(ValueError):
            discord_werner_closed(c)

    @pytest.mark.parametrize("c", [1e-150, 1e-17, 1e-12, 3e-9, 7.4432257761466606e-09, 0.049])
    def test_positive_and_invertible_where_the_terms_cancel(self, c):
        # the three x log2 x terms sum to -4e-17 at c = 1e-12, so below
        # c = 0.05 the discord is their series, c^2 / ln 2 (1 - c + ...)
        assert discord_werner_closed(c) == pytest.approx(c * c * (1.0 - c) / math.log(2.0), rel=2.0 * c * c)
        assert abs(discord_to_c(discord_werner_closed(c)) - c) <= 1e-13 * c

    def test_zero_where_c_squared_underflows(self):
        assert discord_werner_closed(5e-324) == 0.0


class TestDiscordNumeric:
    def test_product_state_has_no_discord(self):
        rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert abs(discord_numeric(rho).value) <= 1e-6
        assert abs(discord_numeric(rho, measured=1).value) <= 1e-6

    def test_uncorrelated_werner_state(self):
        assert abs(discord_numeric(make_werner(0.0)).value) <= 1e-8

    def test_measured_atom_does_not_matter(self):
        for c in (0.2, 0.5, 0.8):
            rho = make_werner(c)
            one = discord_numeric(rho, measured=1).value
            two = discord_numeric(rho, measured=2).value
            assert abs(one - two) <= 2e-4

    def test_result_fields(self):
        result = discord_numeric(make_werner(0.7))
        theta, phi = result.optimizer_angles
        assert 0.0 <= theta <= math.pi
        assert 0.0 <= phi < 2.0 * math.pi
        assert result.iterations >= 64 * 64
        assert result.value >= -1e-8

    def test_asymmetric_x_state_stays_in_range(self):
        result = discord_numeric(make_x_state(XStateParams(0.9, -0.9, 0.8)))
        assert -1e-8 <= result.value <= 1.0 + 1e-12

    def test_rejects_bad_arguments(self):
        rho = make_werner(0.5)
        with pytest.raises(ValueError):
            discord_numeric(rho, measured=3)


def entropy_after_measurement(rho4, measured, theta, phi) -> float:
    """The average post-measurement entropy of the unmeasured atom by its
    definition: the branches are Pi = P x I or I x P with P = |k><k|,
    k = (cos theta/2, e^(i phi) sin theta/2), and I - Pi; each has probability
    p = tr(Pi rho) and leaves tr_measured(Pi rho Pi)/p."""
    k = np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])
    proj = np.outer(k, k.conj())
    total = 0.0
    for branch in (proj, np.eye(2) - proj):
        pi = np.kron(branch, np.eye(2)) if measured == 1 else np.kron(np.eye(2), branch)
        p = np.trace(pi @ rho4).real
        # indices (atom 1, atom 2, atom 1', atom 2')
        sub = (pi @ rho4 @ pi).reshape(2, 2, 2, 2)
        reduced = np.einsum("abac->bc", sub) if measured == 1 else np.einsum("abcb->ac", sub)
        lam = np.linalg.eigvalsh(reduced / p)
        lam = lam[lam > 0.0]
        total += p * -np.sum(lam * np.log2(lam))
    return total


@pytest.mark.parametrize("measured", [1, 2])
@pytest.mark.parametrize("seed", range(8))
def test_conditional_entropy_is_the_operator_definition(seed, measured):
    # full-rank states off the X family, whose correlation matrix is not
    # symmetric, so swapping the atoms' roles must transpose it
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho4 = z @ z.conj().T
    rho4 /= np.trace(rho4).real
    thetas = rng.uniform(0.0, math.pi, 64)
    phis = rng.uniform(0.0, 2.0 * math.pi, 64)
    values = _conditional_entropy(rho4, measured, thetas, phis)
    expected = [entropy_after_measurement(rho4, measured, t, p) for t, p in zip(thetas, phis)]
    np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-13)


def _complex_amplitudes() -> list[np.ndarray]:
    """Fixed normalised two-atom pure states with complex amplitudes in the
    basis 00, 01, 10, 11; the fourth is an X state with a complex coherence."""
    amplitudes = [
        [0.6 + 0.2j, 0.1 - 0.3j, -0.25 + 0.4j, 0.5j],
        [1.0, 0.3j, -0.2 + 0.1j, 0.7 - 0.7j],
        [0.5 - 0.5j, 0.5j, 0.0, 0.5],
        [0.8, 0.0, 0.0, 0.6j],
        [0.3 + 0.1j, -0.7j, 0.2 + 0.6j, -0.1],
    ]
    return [np.array(a) / np.linalg.norm(a) for a in amplitudes]


class TestConcurrence:
    def test_closed_form_reference_points(self):
        assert concurrence_closed(0.0) == 0.0
        assert concurrence_closed(1.0 / 3.0) == 0.0
        assert concurrence_closed(0.5) == pytest.approx(0.25, abs=1e-15)
        assert concurrence_closed(1.0) == 1.0

    def test_exactly_zero_in_the_separable_region(self):
        for c in (0.0, 0.1, 0.2, 0.3):
            assert concurrence_wootters(make_werner(c)) == 0.0
            assert concurrence_closed(c) == 0.0

    def test_werner_reference_point(self):
        assert concurrence_wootters(make_werner(0.6)) == pytest.approx(0.4, abs=1e-10)

    def test_singlet_and_maximally_mixed(self):
        assert concurrence_wootters(make_werner(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert concurrence_wootters(make_werner(0.0)) == 0.0

    def test_general_x_state_against_largest_bell_eigenvalue(self):
        # for Bell-diagonal states the concurrence is max{0, 2 max eig - 1}
        for p in [XStateParams(-0.8, -0.7, -0.6), XStateParams(0.5, 0.5, -0.5),
                  XStateParams(0.9, -0.9, 0.9)]:
            expected = max(0.0, 2.0 * max(p.bell_eigenvalues()) - 1.0)
            assert concurrence_wootters(make_x_state(p)) == pytest.approx(expected, abs=1e-10)

    def test_complex_pure_states(self):
        # C = 2|psi00 psi11 - psi01 psi10|.  Each state has rank one, so the
        # three zero eigenvalues of rho (YY) rho* (YY) come out near 1e-17
        # and their square roots near 1e-8, which sets the tolerance
        psis = _complex_amplitudes()
        got = concurrences_wootters(np.array([np.outer(psi, psi.conj()) for psi in psis]))
        expected = [2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2]) for psi in psis]
        assert got == pytest.approx(expected, abs=1e-7)

    def test_complex_states_mixed_with_white_noise(self):
        # p |psi><psi| + (1 - p) I/4 is, up to local unitaries, an X state
        # with concurrence max{0, p C_psi - (1 - p)/2}; it has full rank
        p = 0.9
        psis = _complex_amplitudes()
        stack = np.array([p * np.outer(psi, psi.conj()) + 0.25 * (1.0 - p) * np.eye(4) for psi in psis])
        expected = [max(0.0, 2.0 * p * abs(psi[0] * psi[3] - psi[1] * psi[2]) - 0.5 * (1.0 - p)) for psi in psis]
        assert concurrences_wootters(stack) == pytest.approx(expected, abs=1e-12)
        assert concurrence_wootters(DensityMatrix(stack[0])) == pytest.approx(expected[0], abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            concurrence_closed(1.2)


class TestDiscordInversion:
    def test_endpoints_are_exact(self):
        assert discord_to_c(0.0) == 0.0
        assert discord_to_c(1.0) == 1.0

    def test_round_trip(self):
        for c in np.arange(0.0, 1.0 + 1e-12, 0.1):
            c = float(round(c, 10))
            assert abs(discord_to_c(discord_werner_closed(c)) - c) <= 1e-13 * c

    def test_residual_within_the_closed_form_error(self):
        for d in (0.05, 0.126, 0.5, 0.87, 0.999):
            c = discord_to_c(d)
            assert abs(discord_werner_closed(c) - d) <= 1e-13 * d

    def test_threshold_discord_maps_near_one_third(self):
        assert discord_to_c(D_AT_ONE_THIRD) == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert discord_to_c(0.126) == pytest.approx(1.0 / 3.0, abs=1e-3)

    @pytest.mark.parametrize("d", [-0.1, 1.0001])
    def test_rejects_unattainable_targets(self, d):
        with pytest.raises(ValueError):
            discord_to_c(d)


class TestSeparabilityThreshold:
    """The Werner state is separable yet discordant up to c = 1/3, a threshold
    that only concurrence_closed encodes."""

    def test_discord_without_entanglement_up_to_one_third(self):
        # from 1e-150 up: below that c^2 underflows
        for c in [*np.geomspace(1e-150, 1.0 / 3.0, 400).tolist(), 0.2, 1.0 / 3.0]:
            assert concurrence_closed(c) == 0.0, c
            assert discord_werner_closed(c) > 0.0, c

    def test_entangled_above_one_third(self):
        # 1/3 + 1e-13 is inside the window the deleted classifier snapped to
        # separable; its concurrence is 1.5e-13
        for c in [1.0 / 3.0 + e for e in np.geomspace(1e-13, 2.0 / 3.0, 200).tolist()]:
            assert concurrence_closed(c) > 0.0, c
        assert concurrence_closed(1.0 / 3.0 + 1e-13) == pytest.approx(1.5e-13, rel=1e-3)
        assert concurrence_closed(1.0) == 1.0

    @pytest.mark.parametrize("c", [-0.5, -1e-300, 1.0 + 1e-15, 2.0, math.nan])
    def test_rejects_out_of_range(self, c):
        with pytest.raises(ValueError):
            concurrence_closed(c)
        with pytest.raises(ValueError):
            discord_werner_closed(c)
