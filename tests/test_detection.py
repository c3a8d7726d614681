"""Readout figures: overlap, currents, electrode sizing, shunt impedance."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from bawcav.cavity import CavityGeometry, ModeIndex, characterize, zpf
from bawcav.detection import (
    MU_OPT_3SIGMA,
    design_electrode,
    optimal_electrode,
    overlap_factor,
    piezo_current_zpf,
    shunt_impedance,
)
from bawcav.detection import _axis_overlap
from bawcav.material import bundled_material_path, load_material
from bawcav.specfun import QuadratureSpec, erf, hermite, integrate_1d

QUARTZ = load_material(bundled_material_path("quartz"))
VARIANT = load_material(bundled_material_path("quartz-piezo"))
GEO = CavityGeometry(L=0.015, h0=5e-4, R=0.3)

# exact first-principles envelope values of the demonstration cavity
ALPHA_1 = 36514.837167011074
ETA_1 = 5.0804347690876461


class TestOverlapFactor:
    @pytest.mark.parametrize("m", range(0, 11, 2))
    def test_axis_recurrence_against_quadrature(self, m):
        tight = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_depth=40)
        shape = lambda z: np.exp(-0.5 * z * z) * hermite(m, z)
        for t in (1e-3, 0.3, 1.7, 4.0, 8.0):
            ref = integrate_1d(shape, -t, t, tight) / math.sqrt(2.0 * math.pi)
            assert _axis_overlap(m, t) == pytest.approx(ref, rel=1e-12)

    def test_three_sigma_coverage(self):
        # L_tilde chosen so nu = sqrt(pi alpha) L_tilde = 3 per axis
        lt = 3.0 / math.sqrt(math.pi * ALPHA_1)
        mu = overlap_factor(ModeIndex(1), ALPHA_1, ALPHA_1, lt)
        assert mu == pytest.approx(erf(3.0 / math.sqrt(2.0)) ** 2, rel=1e-13)
        assert mu == pytest.approx(0.99460769677226282, rel=1e-12)

    def test_vanishes_with_electrode(self):
        mu = overlap_factor(ModeIndex(1), ALPHA_1, ALPHA_1, 1e-9)
        assert mu == pytest.approx(0.0, abs=1e-6)

    def test_full_plate_saturates(self):
        # eta = 10.7-style coverage: L_tilde = L leaves ~1e-26 uncovered
        alpha = 10.7**2 / (math.pi * GEO.L**2)
        mu = overlap_factor(ModeIndex(1), alpha, alpha, GEO.L)
        assert mu == 1.0

    def test_monotone_in_electrode_and_overtone(self):
        lts = [0.001, 0.002, 0.004, 0.008]
        mus = [overlap_factor(ModeIndex(1), ALPHA_1, ALPHA_1, lt) for lt in lts]
        assert all(b > a for a, b in zip(mus, mus[1:]))
        assert all(m <= 1.0 for m in mus)
        assert overlap_factor(ModeIndex(3), ALPHA_1, ALPHA_1, 0.002) > mus[1]


class TestOptomechDisplacement:
    # a narrow beam at the centre sees x_zpf, sqrt(xi) times the flat plate's
    def test_returns_zpf_and_gain(self):
        char = characterize(QUARTZ, GEO, ModeIndex(227), 0.02, eta_override=10.7)
        _, _, x_flat, _ = zpf(QUARTZ, GEO, ModeIndex(227), 10.7, 10.7)
        assert char.x_zpf / x_flat == pytest.approx(math.sqrt(char.xi), rel=1e-14)
        assert math.sqrt(char.xi) == pytest.approx(182.0, rel=2e-3)

    def test_flat_plate_gain_is_unity(self):
        char = characterize(QUARTZ, GEO, ModeIndex(1), 0.02, eta_override=1e-6)
        assert math.sqrt(char.xi) == pytest.approx(1.0, rel=1e-9)

    def test_sqrt_overtone_scaling(self):
        xi1 = characterize(QUARTZ, GEO, ModeIndex(1), 0.02, eta_override=8.0).xi
        xi9 = characterize(QUARTZ, GEO, ModeIndex(9), 0.02, eta_override=8.0).xi
        assert math.sqrt(xi9) / math.sqrt(xi1) == pytest.approx(3.0, rel=1e-12)


class TestPiezoCurrent:
    def test_frozen_reference_evaluation(self):
        # independent formula evaluation with the exact demonstration inputs
        i_rms = piezo_current_zpf(VARIANT, GEO, ModeIndex(1), ETA_1, ETA_1, MU_OPT_3SIGMA)
        assert i_rms == pytest.approx(9.19251758231431e-14, rel=1e-11)

    def test_formula_recomputation(self):
        eta, n, mu = 4.0, 3, 0.8
        i_rms = piezo_current_zpf(VARIANT, GEO, ModeIndex(n), eta, eta, mu)
        alpha = eta**2 / (math.pi * GEO.L**2)
        m_flat = 4 * VARIANT.rho * GEO.h0 * GEO.L**2
        xi = (4 / math.pi) * eta * eta * n / erf(math.sqrt(n) * eta) ** 2
        omega = n * math.pi / (2 * GEO.h0) * math.sqrt(VARIANT.c_bar_z / VARIANT.rho)
        hbar = 6.62607015e-34 / (2 * math.pi)
        p_flat = math.sqrt(hbar * omega * m_flat / 2)
        expected = VARIANT.e_z * math.pi * mu / (alpha * GEO.h0 * m_flat) * math.sqrt(xi) * p_flat
        assert i_rms == pytest.approx(expected, rel=1e-12)

    def test_linear_in_overlap(self):
        i1 = piezo_current_zpf(VARIANT, GEO, ModeIndex(1), ETA_1, ETA_1, 0.4)
        i2 = piezo_current_zpf(VARIANT, GEO, ModeIndex(1), ETA_1, ETA_1, 0.8)
        assert i2 == pytest.approx(2.0 * i1, rel=1e-14)

    def test_geometry_gain_tracks_sqrt_overtone(self):
        # normalized to the flat-plate momentum, the enhancement is sqrt(xi)
        gains = {}
        for n in (7, 227):
            i = piezo_current_zpf(VARIANT, GEO, ModeIndex(n), 10.7, 10.7, 0.9)
            _, _, _, p_flat = zpf(VARIANT, GEO, ModeIndex(n), 10.7, 10.7)
            gains[n] = i / p_flat
        assert gains[227] / gains[7] == pytest.approx(math.sqrt(227 / 7), rel=1e-4)

    def test_scales_identically_with_optomech_gain(self):
        # both detection channels are enhanced by exactly sqrt(xi_n): the
        # current per unit flat-plate momentum and the displacement per
        # flat-plate displacement agree across overtones
        hbar = 6.62607015e-34 / (2 * math.pi)
        m_flat = 4 * VARIANT.rho * GEO.h0 * GEO.L**2
        ratios = []
        for n in (7, 37, 227):
            i = piezo_current_zpf(VARIANT, GEO, ModeIndex(n), 10.7, 10.7, 0.9)
            omega_ref = n * math.pi / (2 * GEO.h0) * math.sqrt(VARIANT.c_bar_z / VARIANT.rho)
            p_flat = math.sqrt(hbar * omega_ref * m_flat / 2)
            gain_piezo = i / p_flat
            x, _, x_flat, _ = zpf(VARIANT, GEO, ModeIndex(n), 10.7, 10.7)
            gain_opto = x / x_flat
            ratios.append(gain_piezo / gain_opto)
        assert max(ratios) / min(ratios) - 1.0 < 1e-9

    def test_non_piezoelectric_material_rejected(self):
        with pytest.raises(ValueError, match="e_z > 0"):
            piezo_current_zpf(QUARTZ, GEO, ModeIndex(1), ETA_1, ETA_1, 0.5)

    @pytest.mark.parametrize("eta_x, eta_y, error, message", [
        # xi overflows first, and effective_mass names eta
        (1e200, 1e200, OverflowError, r"xi of \(m, p\) = \(0, 0\) at eta = \(1e\+200, 1e\+200\)"),
        # eta_y^2 overflows: sqrt(alpha beta) is inf and the current would be 0
        (5.0, 1e170, OverflowError, r"current of overtone n = 1 at eta = \(5.0, 1e\+170\)"),
        # eta_x^2 is subnormal
        (1e-155, 1.0, FloatingPointError, r"current of overtone n = 1 at eta = \(1e-155, 1.0\)"),
    ])
    def test_unrepresentable_factor_names_eta(self, eta_x, eta_y, error, message):
        with pytest.raises(error, match=message):
            piezo_current_zpf(VARIANT, GEO, ModeIndex(1), eta_x, eta_y, 0.5)


class TestOptimalElectrode:
    def test_three_sigma_simplification(self):
        # mu_opt = erf(3/sqrt 2)^2 makes L_opt = 3 L / (eta sqrt(n))
        for n in (1, 9, 227):
            lt = optimal_electrode(GEO, 10.7, n, MU_OPT_3SIGMA)
            assert lt == pytest.approx(3 * GEO.L / (10.7 * math.sqrt(n)), rel=1e-12)

    def test_reference_value(self):
        assert optimal_electrode(GEO, 10.7, 227, MU_OPT_3SIGMA) == pytest.approx(
            2.79135972168e-4, rel=1e-11
        )

    def test_inverse_sqrt_overtone_law(self):
        l1 = optimal_electrode(GEO, 10.7, 1)
        l9 = optimal_electrode(GEO, 10.7, 9)
        assert l1 / l9 == pytest.approx(3.0, rel=1e-14)

    def test_round_trip_reaches_target(self):
        for mu_opt in (0.5, 0.9, 0.99460769677226282):
            lt = optimal_electrode(GEO, 8.0, 7, mu_opt)
            alpha = 8.0**2 / (math.pi * GEO.L**2)
            assert overlap_factor(ModeIndex(7), alpha, alpha, lt) == pytest.approx(
                mu_opt, abs=1e-10
            )

    def test_domain(self):
        with pytest.raises(ValueError, match="mu_opt"):
            optimal_electrode(GEO, 10.7, 1, 1.0)
        with pytest.raises(ValueError, match="odd"):
            optimal_electrode(GEO, 10.7, 2)

    def test_non_integer_overtone_rejected(self):
        # the overtone rule of ModeIndex and the material constants
        with pytest.raises(ValueError, match="overtone must be odd and positive, got 3.5"):
            optimal_electrode(GEO, 10.7, 3.5)


def exact_closed_form(mat, geo, eta, mu_opt=MU_OPT_3SIGMA):
    # Z_closed_form = 2 h0^2 eta^2 / (eps_z L^2) sqrt(rho / c_bar_z) erf(sqrt(mu))^2
    # in exact rational arithmetic on the doubles given and the two roots
    root = Fraction(math.sqrt(mat.rho / mat.c_bar_z))
    return (2 * Fraction(geo.h0) ** 2 * Fraction(eta) ** 2 / (Fraction(mat.eps_z) * Fraction(geo.L) ** 2)
            * root * Fraction(erf(math.sqrt(mu_opt))) ** 2)


class TestShuntImpedance:
    def test_reference_values(self):
        c0, z_closed, z_derived = shunt_impedance(VARIANT, GEO, 10.7, 227)
        assert c0 == pytest.approx(1.26537030916e-14, rel=1e-11)
        assert z_closed == pytest.approx(704158.971077, rel=1e-11)
        assert z_derived == pytest.approx(17581.6877304, rel=1e-11)

    def test_derived_impedance_overtone_invariant(self):
        vals = [shunt_impedance(VARIANT, GEO, 10.7, n)[2] for n in (7, 37, 227)]
        assert max(vals) / min(vals) - 1.0 <= 1e-12

    def test_capacitance_scales_inversely_with_overtone(self):
        c7 = shunt_impedance(VARIANT, GEO, 10.7, 7)[0]
        c227 = shunt_impedance(VARIANT, GEO, 10.7, 227)[0]
        assert c7 / c227 == pytest.approx(227 / 7, rel=1e-12)

    def test_derived_impedance_quadratic_in_trapping(self):
        z1 = shunt_impedance(VARIANT, GEO, 5.0, 7)[2]
        z2 = shunt_impedance(VARIANT, GEO, 10.0, 7)[2]
        assert z2 / z1 == pytest.approx(4.0, rel=1e-12)

    def test_vanishing_omega_c0_names_eta_and_n(self):
        # omega C0 underflows to 0, which 1 / (omega C0) would divide by
        geo = CavityGeometry(L=0.015, h0=1e200, R=1e202)
        with pytest.raises(FloatingPointError, match=r"a shunt figure of overtone n = 7 at eta = 5.0 "):
            shunt_impedance(VARIANT, geo, 5.0, 7)

    def test_overflowing_closed_form_names_eta_and_n(self):
        # C0, omega C0 and Z_derived = 1.2e307 are normal, but Z_closed_form,
        # 5.0e308 in exact arithmetic, is past the double range
        geo, eta = CavityGeometry(L=1e-100, h0=1e50, R=1e52), 9.5
        assert exact_closed_form(QUARTZ, geo, eta) > sys.float_info.max
        with pytest.raises(OverflowError, match=r"a shunt figure of overtone n = 1 at eta = 9.5 "):
            shunt_impedance(QUARTZ, geo, eta, 1)

    def test_closed_form_of_a_normal_figure_does_not_overflow(self):
        # 2 h0^2 / (eps_z L^2) alone is 4.9e310, but the figure, with the
        # factor eta^2 = 1e-200, is a normal double: it is the exact closed
        # form correctly rounded, to an ulp or two
        geo, eta = CavityGeometry(L=1e-100, h0=1e50, R=1e52), 1e-100
        _, z_closed, _ = shunt_impedance(QUARTZ, geo, eta, 1)
        assert f"{z_closed:.8g}" == "5.5353574e+106"
        assert z_closed == pytest.approx(float(exact_closed_form(QUARTZ, geo, eta)), rel=5e-16)

    def test_derived_consistent_with_capacitance(self):
        c0, _, z_derived = shunt_impedance(QUARTZ, GEO, 6.0, 7)
        omega = 7 * math.pi / (2 * GEO.h0) * math.sqrt(QUARTZ.c_bar_z / QUARTZ.rho)
        assert z_derived == pytest.approx(1.0 / (omega * c0), rel=1e-14)


class TestDesignElectrode:
    def test_consistent_bundle(self):
        design = design_electrode(VARIANT, GEO, 10.7, 227)
        assert design.mu == pytest.approx(design.mu_opt, abs=1e-10)
        assert design.L_tilde < GEO.L
        assert design.C0 > 0 and design.Z_shunt_mag > 0
        assert design.Z_closed_form == shunt_impedance(VARIANT, GEO, 10.7, 227)[1]

    def test_oversized_electrode_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            design_electrode(VARIANT, GEO, 0.5, 1)
