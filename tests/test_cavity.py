"""Trapped-mode physics: envelopes, escape, frequency, mass, ZPF, occupancy."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from bawcav.cavity import (
    CavityGeometry,
    ModeCharacterization,
    ModeIndex,
    characterize,
    effective_mass,
    envelope_curvatures,
    escape_probability,
    escape_probability_log10,
    hermite_gaussian_1d,
    in_plane_quanta,
    mode_frequency,
    thermal_occupancy,
    trap_anharmonicity,
    trapping_over_radii,
    trapping_parameters,
    zpf,
)
from bawcav.cavity import _axis_deficit, _axis_energy_fraction, _log_axis_deficit
from bawcav.constants import BOLTZMANN_K, HBAR
from bawcav.detection import design_electrode, optimal_electrode, overlap_factor, piezo_current_zpf
from bawcav.material import bundled_material_path, dispersion_parameters, load_material, stiffened_constants
from bawcav.specfun import QuadratureSpec, erf, erfc, erfcx, hermite, integrate_1d

QUARTZ = load_material(bundled_material_path("quartz"))
PIEZO = load_material(bundled_material_path("quartz-piezo"))
GEO = CavityGeometry(L=0.015, h0=5e-4, R=0.3)
TIGHT = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_depth=40)


class TestGeometryAndModeIndex:
    def test_thick_plate_rejected(self):
        with pytest.raises(ValueError, match="R/10"):
            CavityGeometry(L=0.015, h0=0.02, R=0.3)

    @pytest.mark.parametrize("n", [0, 2, 4, -1])
    def test_even_overtone_rejected(self, n):
        with pytest.raises(ValueError, match="overtone must be odd"):
            ModeIndex(n)

    @pytest.mark.parametrize("m", [1, 3, -2])
    def test_odd_inplane_rejected(self, m):
        with pytest.raises(ValueError, match="even"):
            ModeIndex(1, m, 0)


class TestEnvelopeAndTrapping:
    def test_quartz_curvature(self):
        alpha, beta = envelope_curvatures(QUARTZ, GEO, 1)
        # direct evaluation of sqrt(c_hat / (8 R h0^3 M)) with c_hat/M = 0.4
        assert alpha == pytest.approx(math.sqrt(0.4 / (8 * 0.3 * (5e-4) ** 3)), rel=1e-14)
        assert alpha == pytest.approx(36514.837167011074, rel=1e-12)
        assert beta == alpha  # M = P

    def test_curvature_power_law_in_radius(self):
        a1, _ = envelope_curvatures(QUARTZ, GEO, 1)
        a4, _ = envelope_curvatures(QUARTZ, CavityGeometry(L=0.015, h0=5e-4, R=1.2), 1)
        assert a4 == pytest.approx(a1 / 2.0, rel=1e-14)

    def test_trapping_parameter_value(self):
        alpha, beta = envelope_curvatures(QUARTZ, GEO, 1)
        ex, ey = trapping_parameters(alpha, beta, GEO.L)
        assert ex == pytest.approx(5.0804347690876461, rel=1e-12)
        assert ex == ey

    def test_trapping_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trapping_parameters(-1.0, 1.0, 0.015)

    @pytest.mark.parametrize("h0, R", [(1e-107, 1e14), (1e-105, 1e10)])
    def test_subnormal_h0_cubed_names_r_and_h0(self, h0, R):
        # h0^3 is subnormal, and 8 R h0^3 a normal double that has lost digits
        geo = CavityGeometry(L=0.015, h0=h0, R=R)
        message = re.escape(f"8 R h0^3 at R = {R!r}, h0 = {h0!r} is outside the normal double range")
        with pytest.raises(FloatingPointError, match=message):
            envelope_curvatures(QUARTZ, geo, 1)
        with pytest.raises(FloatingPointError, match=message):
            trapping_over_radii(QUARTZ, geo, 1, np.array([R, 2 * R]))


def mode_shape(mode, alpha, beta):
    # the in-plane profile u(x, y) of the mode, unit amplitude: the product
    # of the hermite_gaussian_1d factors at alpha n pi and beta n pi
    gx, gy = alpha * mode.n * math.pi, beta * mode.n * math.pi
    return lambda x, y: hermite_gaussian_1d(mode.m, gx, x) * hermite_gaussian_1d(mode.p, gy, y)


class TestModeShape:
    def test_unit_peak_fundamental(self):
        u = mode_shape(ModeIndex(1), 3.65e4, 3.65e4)
        assert float(u(0.0, 0.0)) == 1.0

    def test_gaussian_efolding(self):
        alpha = 3.65e4
        u = mode_shape(ModeIndex(1), alpha, alpha)
        x_e = 1.0 / math.sqrt(alpha * math.pi)
        assert float(u(x_e, 0.0)) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_hermite_weighted_centre(self):
        u = mode_shape(ModeIndex(1, 2, 0), 3.65e4, 3.65e4)
        assert float(u(0.0, 0.0)) == -2.0

    def test_fundamental_vanishes_at_infinity(self):
        u = mode_shape(ModeIndex(1), 3e4, 3e4)
        assert u(np.inf, 0.0) == 0.0
        assert u(0.0, -np.inf) == 0.0

    def test_vectorized(self):
        u = mode_shape(ModeIndex(1), 3.65e4, 3.65e4)
        vals = u(np.array([0.0, 1e-3]), np.array([0.0, 0.0]))
        assert vals.shape == (2,)


class TestHermiteRecurrences:
    # per-axis energy fractions against direct quadrature of e^{-z^2} H_m^2,
    # normalised by its whole-line integral 2^m m! sqrt(pi)
    @pytest.mark.parametrize("m", range(0, 11, 2))
    def test_against_quadrature(self, m):
        energy = lambda z: np.exp(-z * z) * hermite(m, z) ** 2
        norm = 2.0**m * math.factorial(m) * math.sqrt(math.pi)
        for t in (1e-3, 0.3, 1.7, 4.0, 8.0):
            deficit = 2.0 * integrate_1d(energy, t, t + 8.0, TIGHT) / norm
            captured = integrate_1d(energy, -t, t, TIGHT) / norm
            assert _axis_deficit(m, t, erfc(t)) == pytest.approx(deficit, rel=1e-12)
            assert _axis_energy_fraction(m, t, erf(t)) == pytest.approx(captured, rel=1e-12)


class TestEscapeProbability:
    def test_unit_trapping_value(self):
        chi = escape_probability(ModeIndex(1), 1.0, 1.0)
        assert chi == pytest.approx(1.0 - erf(1.0) ** 2, rel=1e-13)
        assert chi == pytest.approx(0.28985537356192179, rel=1e-12)

    def test_no_trapping_limit(self):
        assert escape_probability(ModeIndex(1), 0.0, 0.0) == 1.0

    def test_higher_inplane_numbers_leak_more(self):
        chi00 = escape_probability(ModeIndex(1), 2.0, 2.0)
        chi22 = escape_probability(ModeIndex(1, 2, 2), 2.0, 2.0)
        assert chi22 > chi00

    def test_strong_trapping_underflows_to_zero(self):
        assert escape_probability(ModeIndex(227), 10.7, 10.7) == 0.0

    def test_clamped_to_unit_interval(self):
        for eta in (0.0, 0.3, 1.0, 4.0, 20.0):
            chi = escape_probability(ModeIndex(3), eta, eta)
            assert 0.0 <= chi <= 1.0


class TestEscapeLog10:
    def test_matches_linear_scale_where_representable(self):
        for mode in (ModeIndex(3), ModeIndex(3, 2, 2)):
            lin = escape_probability(mode, 1.5, 1.5)
            assert escape_probability_log10(mode, 1.5, 1.5) == pytest.approx(
                math.log10(lin), abs=1e-12
            )

    def test_reaches_beyond_underflow(self):
        lg = escape_probability_log10(ModeIndex(227), 10.7, 10.7)
        assert lg < -10000.0
        assert math.isfinite(lg)

    def test_asymmetric_axes(self):
        lg = escape_probability_log10(ModeIndex(1), 6.0, 9.0)
        # dominated by the weaker axis: chi ~ erfc(6)
        assert lg == pytest.approx(math.log10(math.erfc(6.0)), abs=1e-6)

    def test_higher_order_matches_linear_scale(self):
        mode = ModeIndex(1, 4, 4)
        lin = escape_probability(mode, 2.0, 2.0)
        assert escape_probability_log10(mode, 2.0, 2.0) == pytest.approx(math.log10(lin), abs=1e-12)

    @pytest.mark.parametrize("eta", [1.0, 10.0])
    def test_large_inplane_number_stays_finite(self, eta):
        mode = ModeIndex(1, 200, 0)
        lin = escape_probability(mode, eta, eta)
        assert 0.0 < lin < 1.0
        assert escape_probability_log10(mode, eta, eta) == pytest.approx(math.log10(lin), abs=1e-12)

    def test_large_inplane_number_beyond_underflow(self):
        # D_200(60) ~ 4e-1172 (40-digit quadrature of the tail); its
        # polynomial factor e^{t^2} D_200(t) alone exceeds the double range
        lg = escape_probability_log10(ModeIndex(1, 200, 0), 60.0, 60.0)
        assert lg == pytest.approx(-1171.3618416031234, abs=1e-9)

    # (m, t = 10^k) whose tail starts below the double range, e^{-c} with c > 745
    @pytest.mark.parametrize("m, k", [(40, 9), (60, 7), (10, 33), (4, 82)])
    def test_tail_beyond_the_double_range_is_the_exact_integer_value(self, m, k):
        t = 10**k
        ln_x, ln_y = exact_log_deficit(m, t), exact_log_deficit(0, t)
        want = (ln_x + math.log1p(math.exp(ln_y - ln_x))) / math.log(10.0)
        lg = escape_probability_log10(ModeIndex(1, m, 0), float(t), float(t))
        assert lg == pytest.approx(want, rel=1e-12)

    def test_both_axes_beyond_the_double_range_name_eta_and_the_mode(self):
        # t^2 overflows on both axes, so both ln D are -inf, and their
        # difference, NaN, is no value
        with pytest.raises(OverflowError, match=r"\(m, p\) = \(0, 2\) at eta = \(1e\+160, 1e\+200\)"):
            escape_probability_log10(ModeIndex(1, 0, 2), 1e160, 1e200)

    @pytest.mark.parametrize("eta_x, eta_y", [(1e200, 1.0), (1.0, 1e200)])
    def test_one_axis_beyond_the_double_range_leaves_the_other(self, eta_x, eta_y):
        # the other axis decides: log10 erfc(1)
        assert escape_probability_log10(ModeIndex(1), eta_x, eta_y) == -0.80327346666186

    def test_rescaling_keeps_the_bits_of_a_tail_that_needs_none(self):
        # ln D_84(1e4) needs no rescaling and keeps its value, one ulp from
        # exact; ln D_40(1e9) rescales, to the exact value
        want = exact_log_deficit(84, 10**4)
        assert want == pytest.approx(-99998695.5451437, rel=1e-15)
        assert abs(_log_axis_deficit(84, 1e4) - want) <= math.ulp(want)
        assert _log_axis_deficit(40, 1e9) == -9.999999999999985e17


def exact_log_deficit(m: int, t: int) -> float:
    # ln D_m(t) = -t^2 + ln(erfcx(t) + P_m(t)) at an integer t, with
    # sqrt(pi) P_m(t) = sum_k H_k H_{k-1} / (2^{k-1} k!) summed exactly: the
    # Hermite values at an integer are integers
    h = [1, 2 * t]
    for k in range(1, m):
        h.append(2 * t * h[k] - 2 * k * h[k - 1])
    p = sum(Fraction(h[k] * h[k - 1], 2 ** (k - 1) * math.factorial(k)) for k in range(1, m + 1))
    ln_e = math.log(erfcx(float(t)))
    if p == 0:
        return -t * t + ln_e
    ln_p = math.log(p.numerator) - math.log(p.denominator) - 0.5 * math.log(math.pi)
    hi, lo = max(ln_p, ln_e), min(ln_p, ln_e)
    return -t * t + hi + math.log1p(math.exp(lo - hi))


class TestModeFrequency:
    def test_fundamental_leading_order(self):
        f = mode_frequency(QUARTZ, GEO, ModeIndex(1)) / (2 * math.pi)
        assert f == pytest.approx(math.sqrt(105e9 / 2643) / (4 * 5e-4), rel=1e-14)
        assert f == pytest.approx(3151491.007953578, rel=1e-12)
        assert 3.10e6 <= f <= 3.20e6

    def test_overtone_scaling_exact(self):
        f1 = mode_frequency(QUARTZ, GEO, ModeIndex(1))
        f227 = mode_frequency(QUARTZ, GEO, ModeIndex(227))
        assert f227 / f1 == pytest.approx(227.0, rel=1e-14)

    def test_inplane_numbers_raise_frequency(self):
        # the leading-order frequency is the same for every (m, p); the
        # in-plane numbers raise the in-plane part of rho omega^2
        assert mode_frequency(QUARTZ, GEO, ModeIndex(1, 2, 2)) == mode_frequency(QUARTZ, GEO, ModeIndex(1))
        q_x, q_y = in_plane_quanta(QUARTZ, GEO, 1)
        assert 5 * q_x + 5 * q_y > q_x + q_y

    def test_bracket_above_leading_order(self):
        assert min(in_plane_quanta(QUARTZ, GEO, 1)) > 0.0

    @pytest.mark.parametrize("mode", [ModeIndex(1), ModeIndex(1, 2, 2), ModeIndex(227, 0, 4)])
    def test_quanta_are_the_stevens_tiersten_bracket(self, mode):
        # rho omega^2 = rho lead [1 + (chi_x/n)(2m+1) + (chi_y/n)(2p+1)],
        # chi_x = sqrt(2 h0 M_n / (R c_hat)) / pi and chi_y with P_n, the
        # plano-convex levels of Stevens and Tiersten (J. Acoust. Soc. Am.
        # 79, 1811, 1986), whose in-plane part is the quanta's ladder
        n, m, p = mode.n, mode.m, mode.p
        _, c_hat = stiffened_constants(QUARTZ, n)
        m_n, p_n = dispersion_parameters(QUARTZ, n)
        lead = (n * math.pi / (2.0 * GEO.h0)) ** 2 * c_hat / QUARTZ.rho
        chi_x = math.sqrt(2.0 * GEO.h0 * m_n / (GEO.R * c_hat)) / math.pi
        chi_y = math.sqrt(2.0 * GEO.h0 * p_n / (GEO.R * c_hat)) / math.pi
        bracket = QUARTZ.rho * lead * ((chi_x / n) * (2 * m + 1) + (chi_y / n) * (2 * p + 1))
        q_x, q_y = in_plane_quanta(QUARTZ, GEO, n)
        assert (2 * m + 1) * q_x + (2 * p + 1) * q_y == pytest.approx(bracket, rel=1e-13)


    @pytest.mark.parametrize("h0", [1e160, 1e200])
    def test_frequency_below_the_normal_range_names_n_and_h0(self, h0):
        # (n pi / (2 h0))^2 is subnormal at h0 = 1e160 and 0 at 1e200
        geo = CavityGeometry(L=0.015, h0=h0, R=100 * h0)
        with pytest.raises(FloatingPointError, match=re.escape(
                f"the frequency of overtone n = 3 at h0 = {h0!r} is outside the normal double range")):
            mode_frequency(QUARTZ, geo, ModeIndex(3))

    def test_overflowing_quanta_name_n_R_and_h0(self):
        # 8 R h0^3 M_n = 8e-6 and the curvatures are normal doubles, but
        # q_x = pi n alpha M_n is not
        mat = dataclasses.replace(QUARTZ, M=1e300, P=1e300)
        geo = CavityGeometry(L=0.015, h0=1e-102, R=1.0)
        with pytest.raises(OverflowError, match=re.escape(
                "an in-plane quantum of overtone n = 1 at R = 1.0, h0 = 1e-102 is outside the normal double range")):
            in_plane_quanta(mat, geo, 1)

    @pytest.mark.parametrize("h0, R", [(GEO.h0, GEO.R), (1e-30, 1e200), (1e-90, 1e-15), (3e-103, 1e205)])
    def test_anharmonicity_has_the_bits_of_the_direct_formula(self, h0, R):
        # wherever h0 / R is a normal double
        _, c_hat = stiffened_constants(QUARTZ, 3)
        m_n, _ = dispersion_parameters(QUARTZ, 3)
        direct = math.sqrt(8.0 * (h0 / R)) * math.sqrt(m_n / c_hat) / (math.pi * 3)
        assert trap_anharmonicity(QUARTZ, CavityGeometry(L=0.015, h0=h0, R=R), 3) == direct

    @pytest.mark.parametrize("R", [1e220, 1e222])
    def test_anharmonicity_of_a_subnormal_h0_over_R_keeps_its_digits(self, R):
        # h0 / R is subnormal at R = 1e220 and rounds to 0 at 1e222, but
        # epsilon, about sqrt(h0 / R), is a normal double
        _, c_hat = stiffened_constants(QUARTZ, 1)
        m_n, _ = dispersion_parameters(QUARTZ, 1)
        exact = math.sqrt(8.0) * math.sqrt(3e-103) / math.sqrt(R) * math.sqrt(m_n / c_hat) / math.pi
        epsilon = trap_anharmonicity(QUARTZ, CavityGeometry(L=0.015, h0=3e-103, R=R), 1)
        assert epsilon == pytest.approx(exact, rel=1e-15, abs=0.0)


class TestEffectiveMass:
    def test_flat_plate_mass(self):
        _, m_flat, _ = effective_mass(QUARTZ, GEO, ModeIndex(1), 1.0, 1.0)
        assert m_flat == pytest.approx(4 * 2643 * 5e-4 * 0.015**2, rel=1e-15)
        assert m_flat == pytest.approx(1.18935e-3, rel=1e-12)

    @pytest.mark.parametrize(
        "n,expected",
        [(7, 1020.41236834), (37, 5393.60823264), (227, 33090.5153732)],
    )
    def test_reference_geometric_factors(self, n, expected):
        _, _, xi = effective_mass(QUARTZ, GEO, ModeIndex(n), 10.7, 10.7)
        assert xi == pytest.approx(expected, rel=1e-11)

    def test_flat_plate_limit(self):
        # Erf(x) ~ 2x/sqrt(pi) for weak trapping makes xi -> 1
        _, _, xi = effective_mass(QUARTZ, GEO, ModeIndex(1), 1e-6, 1e-6)
        assert xi == pytest.approx(1.0, rel=1e-9)

    def test_mass_ratio_identity(self):
        m_eff, m_flat, xi = effective_mass(QUARTZ, GEO, ModeIndex(3), 2.2, 2.2)
        assert m_eff * xi == pytest.approx(m_flat, rel=1e-14)

    def test_unit_amplitude_convention(self):
        # the mass integral of e^{-z^2/2} H_m(z) carries 2^m m! sqrt(pi), so
        # xi is tiny for large m; reference from 40-digit quadrature
        _, _, xi = effective_mass(QUARTZ, GEO, ModeIndex(1, 60, 0), 1.0, 1.0)
        assert xi == pytest.approx(2.7150505425784908e-99, rel=1e-12)

    def test_unrepresentable_mass_integral_names_the_mode(self):
        with pytest.raises(OverflowError, match=r"\(m, p\) = \(200, 0\)"):
            effective_mass(QUARTZ, GEO, ModeIndex(1, 200, 0), 1.0, 1.0)

    @pytest.mark.parametrize("m", [0, 2])
    def test_subnormal_energy_fractions_rejected(self, m):
        # at eta = 1e-160 the product fx * fy is subnormal (~1e-320), not 0;
        # used as is it gave xi = 0.2499 where the eta -> 0 limit is 0.25
        with pytest.raises(FloatingPointError, match=rf"\(m, p\) = \({m}, 0\) at eta = \(1e-160"):
            effective_mass(QUARTZ, GEO, ModeIndex(1, m, 0), 1e-160, 1e-160)
        _, _, xi = effective_mass(QUARTZ, GEO, ModeIndex(1, m, 0), 1e-150, 1e-150)
        assert xi == pytest.approx(1.0 if m == 0 else 0.25, rel=1e-12)

    def test_mode_22_closed_form(self):
        eta, n = 1.7, 3
        _, _, xi = effective_mass(QUARTZ, GEO, ModeIndex(n, 2, 2), eta, eta)
        t = math.sqrt(n) * eta
        b = erf(t) - (t / math.sqrt(math.pi)) * (1 + 2 * t * t) * math.exp(-t * t)
        assert xi == pytest.approx(n * eta**2 / (16 * math.pi * b * b), rel=1e-13)


class TestZpf:
    def test_flat_reference_values(self):
        alpha, beta = envelope_curvatures(QUARTZ, GEO, 1)
        ex, ey = trapping_parameters(alpha, beta, GEO.L)
        _, _, x_flat, p_flat = zpf(QUARTZ, GEO, ModeIndex(1), ex, ey)
        # x_flat = sqrt(hbar / (4 pi L^2 sqrt(c rho)))
        expected = math.sqrt(HBAR / (4 * math.pi * 0.015**2 * math.sqrt(105e9 * 2643)))
        assert x_flat == pytest.approx(expected, rel=1e-13)
        assert x_flat == pytest.approx(4.73173347325744e-20, rel=1e-12)
        assert p_flat == pytest.approx(1.114360966870101e-15, rel=1e-12)

    def test_geometric_scaling_identity(self):
        x, p, x_flat, p_flat = zpf(QUARTZ, GEO, ModeIndex(7), 10.7, 10.7)
        _, _, xi = effective_mass(QUARTZ, GEO, ModeIndex(7), 10.7, 10.7)
        assert x == pytest.approx(x_flat * math.sqrt(xi), rel=1e-13)
        assert p == pytest.approx(p_flat / math.sqrt(xi), rel=1e-13)

    def test_uncertainty_products(self):
        x, p, x_flat, p_flat = zpf(QUARTZ, GEO, ModeIndex(3), 4.0, 4.0)
        assert x * p == pytest.approx(HBAR / 2, rel=1e-13)
        assert x_flat * p_flat == pytest.approx(HBAR / 2, rel=1e-13)

    def test_displacement_independent_of_overtone_when_saturated(self):
        vals = [zpf(QUARTZ, GEO, ModeIndex(n), 10.7, 10.7)[0] for n in (7, 37, 227)]
        assert max(vals) / min(vals) - 1 < 1e-12

    def test_leading_order_matches_closed_form(self):
        # alpha = beta: <x^2> = hbar eta^2 / (pi^2 L^2 sqrt(c rho) Erf^2(sqrt(n) eta))
        eta, n = 3.0, 5
        x, _, _, _ = zpf(QUARTZ, GEO, ModeIndex(n), eta, eta)
        var = (
            HBAR * eta**2
            / (math.pi**2 * GEO.L**2 * math.sqrt(105e9 * 2643) * erf(math.sqrt(n) * eta) ** 2)
        )
        assert x == pytest.approx(math.sqrt(var), rel=1e-12)


class TestThermalOccupancy:
    def test_reference_occupancies(self):
        assert thermal_occupancy(2 * math.pi * 3.138e6, 0.02) == pytest.approx(132.302533959, rel=1e-9)
        assert thermal_occupancy(2 * math.pi * 712.5e6, 0.02) == pytest.approx(0.220873872347, rel=1e-9)

    def test_ln2_identity(self):
        # hbar omega / kT = ln 2  =>  occupancy exactly 1
        temperature = 0.02
        omega = math.log(2.0) * BOLTZMANN_K * temperature / HBAR
        assert thermal_occupancy(omega, temperature) == pytest.approx(1.0, rel=1e-12)

    def test_strictly_decreasing_in_omega(self):
        occ = [thermal_occupancy(w, 0.02) for w in np.geomspace(1e5, 1e12, 30)]
        assert all(b < a for a, b in zip(occ, occ[1:]))

    def test_classical_asymptote(self):
        omega = 2 * math.pi * 1e4
        temperature = 1.0
        x = HBAR * omega / (BOLTZMANN_K * temperature)
        assert thermal_occupancy(omega, temperature) == pytest.approx(1 / x - 0.5, abs=x)

    def test_deep_quantum_regime_underflows_cleanly(self):
        assert thermal_occupancy(2 * math.pi * 1e15, 0.001) == 0.0
        # k * 5e-324 rounds to 0: hbar omega / kT counts as inf
        assert thermal_occupancy(2 * math.pi * 3.15e6, 5e-324) == 0.0

    @pytest.mark.parametrize("bad_t", [0.0, -1.0, math.inf, math.nan])
    def test_temperature_domain(self, bad_t):
        with pytest.raises(ValueError, match="temperature"):
            thermal_occupancy(1e6, bad_t)

    def test_classical_overflow_raises(self):
        # hbar omega / kT ~ 1.5e-312: the occupancy 1/x exceeds the double range
        with pytest.raises(OverflowError, match="double range"):
            thermal_occupancy(2 * math.pi * 3.15e6, 1e308)
        # hbar * 1e-300 rounds to 0, and so does hbar omega / kT
        with pytest.raises(OverflowError, match="double range"):
            thermal_occupancy(1e-300, 0.02)


@pytest.mark.parametrize("call, message", [
    (lambda: thermal_occupancy(0.0, 1.0), "omega must be positive, got 0.0"),
    (lambda: escape_probability_log10(ModeIndex(1), 0.0, 1.0),
     "log-scale escape requires strictly positive trapping"),
    (lambda: overlap_factor(ModeIndex(1), 0.0, 1.0, 1e-3), "alpha, beta and L_tilde must be positive"),
    (lambda: overlap_factor(ModeIndex(1), 1.0, -1.0, 1e-3), "alpha, beta and L_tilde must be positive"),
    (lambda: overlap_factor(ModeIndex(1), 1.0, 1.0, 0.0), "alpha, beta and L_tilde must be positive"),
    (lambda: piezo_current_zpf(PIEZO, GEO, ModeIndex(1), 5.0, 5.0, 0.0), "mu must lie in (0, 1], got 0.0"),
    (lambda: piezo_current_zpf(PIEZO, GEO, ModeIndex(1), 5.0, 5.0, 1.5), "mu must lie in (0, 1], got 1.5"),
    (lambda: piezo_current_zpf(PIEZO, GEO, ModeIndex(1), 0.0, 5.0, 0.5),
     "trapping parameters must be positive"),
    (lambda: piezo_current_zpf(PIEZO, GEO, ModeIndex(1), 5.0, -1.0, 0.5),
     "trapping parameters must be positive"),
    (lambda: optimal_electrode(GEO, math.inf, 1), "eta must be positive and finite, got inf"),
    # a valid design with one field changed, built again through __init__
    (lambda: dataclasses.replace(design_electrode(PIEZO, GEO, 10.7, 227), L_tilde=0.0),
     "L_tilde must be positive, got 0.0"),
    (lambda: dataclasses.replace(design_electrode(PIEZO, GEO, 10.7, 227), mu=1.0),
     "mu must lie in (0, 1), got 1.0"),
    (lambda: dataclasses.replace(design_electrode(PIEZO, GEO, 10.7, 227), mu=0.0),
     "mu must lie in (0, 1), got 0.0"),
    (lambda: dataclasses.replace(design_electrode(PIEZO, GEO, 10.7, 227), C0=0.0), "C0 must be positive"),
], ids=["thermal_occupancy", "escape_probability_log10", "overlap_factor-alpha", "overlap_factor-beta",
        "overlap_factor-L_tilde", "piezo_current_zpf-mu-0", "piezo_current_zpf-mu-above-1",
        "piezo_current_zpf-eta_x", "piezo_current_zpf-eta_y", "optimal_electrode-eta-inf",
        "ElectrodeDesign-L_tilde", "ElectrodeDesign-mu-1", "ElectrodeDesign-mu-0", "ElectrodeDesign-C0"])
def test_nonpositive_argument_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestCharacterize:
    def test_quartz_fundamental(self):
        char = characterize(QUARTZ, GEO, ModeIndex(1), 0.02)
        assert char.omega / (2 * math.pi) == pytest.approx(3.1515e6, rel=1e-3)
        assert 130.0 < char.n_thermal < 133.0
        assert char.eta_x == pytest.approx(5.0804347690876461, rel=1e-12)
        assert char.chi_inv == pytest.approx(1.346e-12, rel=1e-2)

    def test_eta_override(self):
        char = characterize(QUARTZ, GEO, ModeIndex(227), 0.02, eta_override=10.7)
        assert char.eta_x == 10.7
        assert char.xi == pytest.approx(33090.5153732, rel=1e-11)
        assert char.n_thermal == pytest.approx(0.219, abs=2e-3)

    def test_uncertainty_always_minimum(self):
        char = characterize(QUARTZ, GEO, ModeIndex(3), 0.02, eta_override=2.5)
        assert char.x_zpf * char.p_zpf == pytest.approx(HBAR / 2, rel=1e-13)

    def test_invalid_mode_is_loud(self):
        with pytest.raises(ValueError, match="overtone must be odd"):
            characterize(QUARTZ, GEO, ModeIndex(2), 0.02)
        with pytest.raises(ValueError, match="even"):
            characterize(QUARTZ, GEO, ModeIndex(1, 1, 0), 0.02)

    def test_record_invariants_enforced(self):
        with pytest.raises(ValueError, match="chi_inv"):
            ModeCharacterization(
                omega=1.0, eta_x=1.0, eta_y=1.0, chi_inv=1.5,
                xi=1.0, m_eff=1.0, m_flat=1.0, x_zpf=math.sqrt(HBAR / 2),
                p_zpf=math.sqrt(HBAR / 2), n_thermal=1.0,
            )
