"""Field operator, intensity, photon statistics, and the regime solvers."""

import math
import random
from decimal import Decimal

import numpy as np
import pytest
from exact_discord import exact_discord

from corr_radiance.emission import (
    MAX_KL,
    STATISTICS,
    DetectionGeometry,
    PhotonStatistics,
    Radiance,
    classify,
    field_operator,
    find_statistics_transition,
    g2_closed_werner,
    g2_oracle,
    intensity_closed_x,
    intensity_oracle,
    radiance_boundary,
    x_emission,
)
from corr_radiance.correlations import discord_to_c, discord_werner_closed
from corr_radiance.qstate import (
    DensityMatrix,
    XStateParams,
    make_werner,
    make_x_state,
    sigma_minus,
)
from geometries import crossing_geometries

PI = math.pi

# frozen transition at kl = pi, sin(beta) = 0.2: the quadratic root of
# (1 - c cos phi)^2 = 1 - c and the discord evaluated there
C_STAR_REF = 0.9442719099991589
D_T_REF = 0.8668518157244345


def werner_params(c):
    return XStateParams(-c, -c, -c)


def geometry_samples():
    geoms = []
    for kl in (1.7, PI, 2.0 * PI, 3.0 * PI):
        for s in np.linspace(-1.0, 1.0, 9):
            geoms.append(DetectionGeometry(kl, float(s)))
    return geoms


class TestDetectionGeometry:
    def test_phase_is_kl_times_sin_beta(self):
        geom = DetectionGeometry(PI, 0.2)
        assert geom.phase == pytest.approx(0.2 * PI, abs=1e-14)

    @pytest.mark.parametrize(
        "kl", [1.0, 0.5, -2.0, float("inf"), float("nan"), math.nextafter(MAX_KL, math.inf)]
    )
    def test_rejects_kl_outside_separated_regime(self, kl):
        with pytest.raises(ValueError, match="^kl must"):
            DetectionGeometry(kl, 0.0)

    def test_rejects_angle_outside_half_circle(self):
        for sin_beta in (2.0, 1.5, math.nextafter(-1.0, -math.inf), math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"^sin_beta must lie in \[-1, 1\]"):
                DetectionGeometry(PI, sin_beta)


class TestFieldOperator:
    def test_reduces_to_plain_sum_at_broadside(self):
        geom = DetectionGeometry(PI, 0.0)
        expected = sigma_minus(1) + sigma_minus(2)
        assert np.allclose(field_operator(geom, "indexed"), expected, atol=1e-15)
        assert np.allclose(field_operator(geom, "centered"), expected, atol=1e-15)

    def test_square_collapses_to_double_lowering(self):
        # squares of each lowering operator vanish, leaving the cross term
        geom = DetectionGeometry(PI, 0.37)
        s = geom.phase
        ep = field_operator(geom, "indexed")
        expected = 2.0 * np.exp(-1j * 3.0 * s) * sigma_minus(1) @ sigma_minus(2)
        assert np.allclose(ep @ ep, expected, atol=1e-14)

    def test_annihilates_the_ground_state(self):
        geom = DetectionGeometry(PI, 0.6)
        gg = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        assert np.allclose(field_operator(geom) @ gg, 0.0, atol=1e-15)

    def test_rejects_unknown_convention(self):
        geom = DetectionGeometry(PI, 0.1)
        with pytest.raises(ValueError):
            field_operator(geom, "sideways")


class TestIntensity:
    def test_oracle_matches_closed_form_on_x_states(self):
        for p in [XStateParams(0, 0, 0), XStateParams(-1, -1, -1),
                  XStateParams(0.5, 0.5, -0.5), XStateParams(-0.5, 0.3, -0.1)]:
            rho = make_x_state(p)
            for geom in geometry_samples():
                assert abs(intensity_oracle(rho, geom) - intensity_closed_x(p, geom)) <= 1e-12

    def test_werner_form(self):
        # closed form reduces to 1 - c cos(kl sin beta)
        for c in (0.0, 0.3, 1.0):
            for geom in geometry_samples():
                expected = 1.0 - c * math.cos(geom.phase)
                assert intensity_closed_x(werner_params(c), geom) == pytest.approx(
                    expected, abs=1e-14
                )

    def test_reference_values(self):
        geom = DetectionGeometry(PI, 1.0)
        assert intensity_closed_x(werner_params(1.0), geom) == pytest.approx(2.0, abs=1e-12)
        both = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert intensity_oracle(both, geom) == pytest.approx(2.0, abs=1e-12)
        mixed = DensityMatrix(np.eye(4) / 4.0)
        assert intensity_oracle(mixed, geom) == pytest.approx(1.0, abs=1e-12)

    def test_phase_convention_independence(self):
        rho = make_werner(0.8)
        for geom in geometry_samples():
            a = intensity_oracle(rho, geom, "indexed")
            b = intensity_oracle(rho, geom, "centered")
            assert abs(a - b) <= 1e-12


class TestG2:
    def test_oracle_matches_closed_form_on_werner_grid(self):
        for c in np.arange(0.0, 1.0 + 1e-12, 0.1):
            c = float(round(c, 10))
            rho = make_werner(c)
            for geom in geometry_samples():
                closed = g2_closed_werner(c, geom)
                numeric = g2_oracle(rho, geom)
                assert (closed is None) == (numeric is None)
                if closed is not None:
                    assert abs(numeric - closed) <= 1e-12

    def test_reference_values(self):
        broadside = DetectionGeometry(PI, 0.0)
        assert g2_closed_werner(0.5, broadside) == pytest.approx(2.0, abs=1e-12)
        assert g2_oracle(make_werner(0.5), broadside) == pytest.approx(2.0, abs=1e-12)
        # uncorrelated light is Poissonian everywhere
        for geom in geometry_samples():
            assert g2_closed_werner(0.0, geom) == pytest.approx(1.0, abs=1e-12)
        endfire = DetectionGeometry(PI, 1.0)
        assert g2_closed_werner(1.0, endfire) == pytest.approx(0.0, abs=1e-12)

    def test_undefined_at_vanishing_intensity(self):
        broadside = DetectionGeometry(PI, 0.0)
        assert g2_closed_werner(1.0, broadside) is None
        assert g2_oracle(make_werner(1.0), broadside) is None

    def test_phase_convention_independence(self):
        rho = make_werner(0.6)
        for geom in geometry_samples():
            a = g2_oracle(rho, geom, "indexed")
            b = g2_oracle(rho, geom, "centered")
            assert (a is None) == (b is None)
            if a is not None:
                assert abs(a - b) <= 1e-12

    def test_rejects_out_of_range_parameter(self):
        with pytest.raises(ValueError):
            g2_closed_werner(-0.2, DetectionGeometry(PI, 0.1))


class TestClassification:
    def test_regimes(self):
        r = classify(1.3, 0.4)
        assert r.radiance is Radiance.SUPER
        assert r.statistics is PhotonStatistics.SUB_POISSONIAN
        r = classify(0.7, 1.8)
        assert r.radiance is Radiance.SUB
        assert r.statistics is PhotonStatistics.SUPER_POISSONIAN

    def test_neutral_band(self):
        r = classify(1.0, 1.0)
        assert r.radiance is Radiance.NEUTRAL
        assert r.statistics is PhotonStatistics.POISSONIAN
        r = classify(1.0 + 5e-13, 1.0 - 5e-13)
        assert r.radiance is Radiance.NEUTRAL
        assert r.statistics is PhotonStatistics.POISSONIAN

    def test_undefined_statistics(self):
        r = classify(0.0, None)
        assert r.statistics is PhotonStatistics.UNDEFINED
        assert r.g2 is None

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            classify(-0.1, 1.0)

    @pytest.mark.parametrize(
        "value, radiance, statistics",
        [
            (1.0 - 1.5e-12, Radiance.SUB, PhotonStatistics.SUB_POISSONIAN),
            (1.0 - 5e-13, Radiance.NEUTRAL, PhotonStatistics.POISSONIAN),
            (1.0 + 5e-13, Radiance.NEUTRAL, PhotonStatistics.POISSONIAN),
            (1.0 + 1.5e-12, Radiance.SUPER, PhotonStatistics.SUPER_POISSONIAN),
        ],
    )
    def test_classify_and_the_kernel_share_the_band_edges(self, value, radiance, statistics):
        report = classify(value, value)
        assert (report.radiance, report.statistics) == (radiance, statistics)
        # unit intensity at cos phase = 0, so g2 = 1 + cz
        assert STATISTICS[x_emission(0.0, value - 1.0, 0.0).statistics] is statistics

    @pytest.mark.parametrize("c, undefined", [(1.0 - 2e-12, False), (1.0 - 5e-13, True), (1.0, True)])
    def test_kernel_g2_is_undefined_below_the_intensity_tolerance(self, c, undefined):
        # the intensity is 1 - c here, on either side of 1e-12
        e = x_emission(-c, -c, 1.0)
        assert bool(e.undefined) is undefined
        assert math.isnan(e.g2) is undefined
        assert (STATISTICS[e.statistics] is PhotonStatistics.UNDEFINED) is undefined
        assert (g2_closed_werner(c, DetectionGeometry(PI, 0.0)) is None) is undefined

    @pytest.mark.parametrize("half_sum", [0.0, -1.0])
    def test_kernel_fields_take_the_shape_of_all_three_arguments(self, half_sum):
        # at cos phase 1, half_sum = -1 is dark whatever cz is
        cz = np.array([0.5, 0.0, -1.0])
        e = x_emission(half_sum, cz, 1.0)
        for field in (e.intensity, e.g2, e.undefined, e.statistics):
            assert field.shape == (3,)
        assert e.undefined.tolist() == [half_sum == -1.0] * 3
        singles = [x_emission(half_sum, float(z), 1.0) for z in cz]
        for name in ("intensity", "g2", "undefined", "statistics"):
            got = getattr(e, name)
            assert got.tobytes() == np.array([getattr(one, name) for one in singles], dtype=got.dtype).tobytes()


class TestRadianceBoundary:
    def test_half_wavelength_separation(self):
        assert radiance_boundary(PI) == pytest.approx([-0.5, 0.5], abs=1e-14)

    def test_three_half_wavelengths(self):
        expected = [-5 / 6, -0.5, -1 / 6, 1 / 6, 0.5, 5 / 6]
        assert radiance_boundary(3.0 * PI) == pytest.approx(expected, abs=1e-14)

    def test_empty_below_quarter_turn(self):
        assert radiance_boundary(1.5) == []

    def test_rejects_kl_at_or_below_one(self):
        with pytest.raises(ValueError):
            radiance_boundary(1.0)

    @pytest.mark.parametrize("kl", [1e300, 1e9, math.nextafter(MAX_KL, math.inf), math.inf])
    def test_rejects_kl_above_the_cap_at_once(self, kl):
        # uncapped, 1e300 would loop forever and 1e9 would build ~6e8 floats
        with pytest.raises(ValueError, match="kl must"):
            radiance_boundary(kl)

    def test_the_cap_itself_gives_636_angles(self):
        angles = radiance_boundary(MAX_KL)
        assert len(angles) == 636
        assert angles == sorted(angles) and angles == [-s for s in reversed(angles)]
        assert all(-1.0 <= s <= 1.0 and abs(math.cos(MAX_KL * s)) < 1e-12 for s in angles)

    @pytest.mark.parametrize("kl", [1.2, 1.5 * PI, PI, 3.0 * PI, 7.3, 100.0, 999.5, MAX_KL])
    def test_values_below_the_cap_are_unchanged(self, kl):
        # the loop of the uncapped function, bit for bit
        positives, n = [], 0
        while (s := (math.pi / 2.0 + n * math.pi) / kl) <= 1.0:
            positives.append(s)
            n += 1
        expected = sorted(-s for s in positives) + positives
        assert [a.hex() for a in radiance_boundary(kl)] == [e.hex() for e in expected]

    def test_cli_uses_the_same_cap(self):
        from corr_radiance import cli

        assert cli.MAX_KL is MAX_KL

    def test_intensity_is_unity_on_the_boundary(self):
        for kl in (PI, 3.0 * PI):
            for s in radiance_boundary(kl):
                geom = DetectionGeometry(kl, s)
                for c in np.arange(0.0, 1.0 + 1e-12, 0.1):
                    assert abs(intensity_closed_x(werner_params(float(c)), geom) - 1.0) <= 1e-12


class TestStatisticsTransition:
    def test_reference_point(self):
        geom = DetectionGeometry(PI, 0.2)
        point = find_statistics_transition(geom)
        assert point is not None
        assert point.c_star == pytest.approx(C_STAR_REF, abs=1e-12)
        assert point.discord == pytest.approx(D_T_REF, abs=1e-12)
        assert 0.86 <= point.discord <= 0.88
        # the crossing satisfies its defining equation
        assert g2_closed_werner(point.c_star, geom) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("geom", crossing_geometries(23, 40))
    def test_agrees_with_independent_bisection(self, geom):
        point = find_statistics_transition(geom)
        assert point is not None and 1e-6 <= point.c_star <= 1.0 - 1e-6
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if g2_closed_werner(mid, geom) > 1.0:
                lo = mid
            else:
                hi = mid
        # g2 is within a few ulps of 1 near the root, so the bisection pins
        # it to about 1e-15/|dg2/dc|, with dg2/dc = (1 - 2x) x^2/(1 - x)^2
        # at c*; c* itself is rounded to about 1e-15 (the worst of 6,000
        # draws reached 0.22 of this bound)
        x = geom.cos_phase
        slope = (2.0 * x - 1.0) * x * x / ((1.0 - x) * (1.0 - x))
        assert abs(0.5 * (lo + hi) - point.c_star) <= 1e-15 * (1.0 + 1.0 / slope)

    def test_c_star_squares_cos_phi_by_multiplication(self):
        # c* = (2x - 1)/(x*x) bit for bit, x = cos phi; the draws include
        # x where libm's x**2 differs from the correctly rounded x*x
        rng = random.Random(29)
        geoms = [DetectionGeometry(PI, rng.uniform(-1.0, 1.0)) for _ in range(30_000)]
        crossing = [g for g in geoms if 0.5 < g.cos_phase < 1.0]
        pow_differs = [g for g in crossing if g.cos_phase**2 != g.cos_phase * g.cos_phase]
        assert pow_differs
        for geom in crossing[:200] + pow_differs:
            x = geom.cos_phase
            point = find_statistics_transition(geom)
            assert point is not None
            assert point.c_star.hex() == ((2.0 * x - 1.0) / (x * x)).hex(), geom

    def test_discord_at_transition_is_the_closed_form(self):
        geom = DetectionGeometry(PI, 0.31)
        point = find_statistics_transition(geom)
        assert point.discord == pytest.approx(discord_werner_closed(point.c_star), abs=1e-14)

    @pytest.mark.parametrize("offset", [1e-6, 1e-7, 1e-9, 3e-10])
    def test_discord_at_a_transition_next_to_cos_phi_one_half(self, offset):
        # sin beta just below 1/3 at kl = pi puts c* near 22 offset, where
        # the closed form's three x log2 x terms alone would cancel to a
        # relative error of 5.9e-8 at c* = 2.2e-5 and 5.9e-6 at c* = 2.2e-6
        point = find_statistics_transition(DetectionGeometry(PI, 1.0 / 3.0 - offset))
        assert point is not None and point.c_star < 3e-5
        exact = exact_discord(point.c_star)
        assert abs(Decimal(point.discord) - exact) <= Decimal("1e-15") * exact

    @pytest.mark.parametrize("sin_beta", [0.0, 0.5, 1.0, -1.0, 0.37])
    def test_none_when_no_crossing_exists(self, sin_beta):
        # cos(pi sin beta) leaves (1/2, 1) at all of these angles
        geom = DetectionGeometry(PI, sin_beta)
        assert find_statistics_transition(geom) is None

    def test_none_where_c_star_rounds_to_one(self):
        # 0 < 1 - cos phi < 1e-8: c* = 1 - (1 - x)^2/x^2 rounds to 1, so the
        # crossing is not in (0, 1)
        geom = DetectionGeometry(PI, 3e-5)
        assert 0.0 < 1.0 - geom.cos_phase < 1e-8
        assert find_statistics_transition(geom) is None

    @pytest.mark.parametrize("sin_beta", [0.3333333307963333, 0.33333333264799997])
    def test_closed_form_just_above_cos_phi_one_half(self, sin_beta):
        # c* near 1e-8, where a bisection on (1 - c) - (1 - c cos phi)^2
        # cannot resolve the root: the closed form is returned as it is
        geom = DetectionGeometry(PI, sin_beta)
        x = geom.cos_phase
        point = find_statistics_transition(geom)
        assert point is not None
        assert point.c_star.hex() == ((2.0 * x - 1.0) / (x * x)).hex()
        assert 1e-8 < point.c_star < 1e-7

    def test_crossing_band_edge(self):
        # cos(phi) slightly above 1/2 still yields a root, slightly below none
        inside = DetectionGeometry(1.04, 1.0)
        assert find_statistics_transition(inside) is not None
        outside = DetectionGeometry(1.06, 1.0)
        assert find_statistics_transition(outside) is None


class TestRegimeStructure:
    def test_monotone_enhancement_along_extreme_angles(self):
        geom_fwd = DetectionGeometry(PI, 1.0)
        geom_bwd = DetectionGeometry(PI, 0.0)
        rising = []
        falling = []
        for d in np.linspace(0.0, 1.0, 101):
            c = discord_to_c(float(d))
            rising.append(intensity_closed_x(werner_params(c), geom_fwd))
            falling.append(intensity_closed_x(werner_params(c), geom_bwd))
        assert all(b > a for a, b in zip(rising[:-1], rising[1:]))
        assert all(b < a for a, b in zip(falling[:-1], falling[1:]))
        assert rising[0] == pytest.approx(1.0, abs=1e-9)
        assert rising[-1] == pytest.approx(2.0, abs=1e-9)
        assert falling[0] == pytest.approx(1.0, abs=1e-9)
        assert falling[-1] == pytest.approx(0.0, abs=1e-9)

    def test_superradiant_lobes_are_sub_poissonian(self):
        for s in (-0.9, -0.6, 0.55, 0.75, 1.0):
            geom = DetectionGeometry(PI, s)
            for c in np.linspace(0.01, 0.99, 25):
                c = float(c)
                assert intensity_closed_x(werner_params(c), geom) > 1.0
                assert g2_closed_werner(c, geom) < 1.0

    def test_subradiant_cone_for_small_angles(self):
        for s in (-0.45, -0.2, 0.0, 0.3, 0.45):
            geom = DetectionGeometry(PI, s)
            for c in (0.1, 0.5, 1.0):
                assert intensity_closed_x(werner_params(c), geom) < 1.0

    def test_g2_crosses_one_exactly_once_at_reference_angle(self):
        geom = DetectionGeometry(PI, 0.2)
        signs = []
        for c in np.linspace(1e-6, 1.0 - 1e-6, 1001):
            g2 = g2_closed_werner(float(c), geom)
            if abs(g2 - 1.0) > 1e-12:
                signs.append(1 if g2 > 1.0 else -1)
        flips = sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)
        assert flips == 1
