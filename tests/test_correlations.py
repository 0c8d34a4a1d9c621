"""Discord and concurrence: closed forms against their independent routes."""

import math

import numpy as np
import pytest

from corr_radiance.correlations import (
    CorrelationClass,
    classify_correlations,
    concurrence_closed,
    concurrence_wootters,
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

    def test_nondecreasing_over_fine_grid(self):
        cs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        ds = np.array([discord_werner_closed(float(c)) for c in cs])
        assert float(np.max(ds[:-1] - ds[1:])) <= 1e-12

    @pytest.mark.parametrize("c", [-0.01, 1.01])
    def test_rejects_out_of_range(self, c):
        with pytest.raises(ValueError):
            discord_werner_closed(c)

    @pytest.mark.parametrize("c", [5e-324, 1e-17, 1e-12, 3e-9, 7.4432257761466606e-09])
    def test_never_negative_where_the_terms_cancel(self, c):
        # unclamped, the three terms sum to -4e-17 at c = 1e-12, and
        # discord_to_c would reject the closed form's own value
        assert discord_werner_closed(c) >= 0.0
        assert abs(discord_to_c(discord_werner_closed(c)) - c) <= 1e-7


class TestDiscordNumeric:
    def test_matches_closed_form_on_werner_grid(self):
        for c in np.arange(0.0, 1.0 + 1e-12, 0.1):
            c = float(round(c, 10))
            result = discord_numeric(make_werner(c))
            assert result.converged
            assert abs(result.value - discord_werner_closed(c)) <= 1e-4

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


class TestConcurrence:
    def test_closed_form_reference_points(self):
        assert concurrence_closed(0.0) == 0.0
        assert concurrence_closed(1.0 / 3.0) == 0.0
        assert concurrence_closed(0.5) == pytest.approx(0.25, abs=1e-15)
        assert concurrence_closed(1.0) == 1.0

    def test_spin_flip_matches_closed_form(self):
        for c in np.arange(0.0, 1.0 + 1e-12, 0.05):
            c = float(round(c, 10))
            assert abs(concurrence_wootters(make_werner(c)) - concurrence_closed(c)) <= 1e-10

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
            assert abs(discord_to_c(discord_werner_closed(c)) - c) <= 1e-6

    def test_residual_within_tolerance(self):
        for d in (0.05, 0.126, 0.5, 0.87, 0.999):
            c = discord_to_c(d)
            assert abs(discord_werner_closed(c) - d) <= 1e-9

    def test_threshold_discord_maps_near_one_third(self):
        assert discord_to_c(D_AT_ONE_THIRD) == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert discord_to_c(0.126) == pytest.approx(1.0 / 3.0, abs=1e-3)

    @pytest.mark.parametrize("d", [-0.1, 1.0001])
    def test_rejects_unattainable_targets(self, d):
        with pytest.raises(ValueError):
            discord_to_c(d)


class TestCorrelationClassification:
    def test_regions(self):
        assert classify_correlations(0.0) is CorrelationClass.CLASSICAL
        assert classify_correlations(0.2) is CorrelationClass.DISCORDANT_SEPARABLE
        assert classify_correlations(1.0 / 3.0) is CorrelationClass.DISCORDANT_SEPARABLE
        assert classify_correlations(0.5) is CorrelationClass.ENTANGLED
        assert classify_correlations(1.0) is CorrelationClass.ENTANGLED

    def test_snap_window_at_the_boundary(self):
        assert classify_correlations(1.0 / 3.0 + 1e-13) is CorrelationClass.DISCORDANT_SEPARABLE
        assert classify_correlations(1.0 / 3.0 + 1e-6) is CorrelationClass.ENTANGLED
        assert classify_correlations(1e-13) is CorrelationClass.CLASSICAL

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            classify_correlations(-0.5)
