"""Property-based invariants over randomized physical inputs."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bawcav.cavity import (
    CavityGeometry,
    ModeIndex,
    characterize,
    effective_mass,
    escape_probability,
    mode_frequency,
    thermal_occupancy,
    zpf,
)
from bawcav.constants import BOLTZMANN_K, HBAR
from bawcav.detection import optimal_electrode, overlap_factor, shunt_impedance
from bawcav.material import bundled_material_path, load_material, stiffened_constants
from bawcav.membrane import MembraneSpec, membrane_effective_mass, membrane_zpf
from bawcav.specfun import erf, erf_inv, hermite, integrate_1d

QUARTZ = load_material(bundled_material_path("quartz"))
VARIANT = load_material(bundled_material_path("quartz-piezo"))
GEO = CavityGeometry(L=0.015, h0=5e-4, R=0.3)

odd_overtones = st.sampled_from([1, 3, 5, 7, 9, 15, 37, 227])
trapping = st.floats(min_value=0.05, max_value=14.0, allow_nan=False)


class TestErfProperties:
    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_odd_symmetry(self, x):
        assert erf(-x) == -erf(x)

    @given(st.lists(st.floats(min_value=-6.0, max_value=6.0), min_size=2, max_size=50))
    def test_monotone(self, xs):
        xs = sorted(set(xs))
        vals = [erf(x) for x in xs]
        # nondecreasing everywhere; strictly increasing outside saturation
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        inner = [(x, v) for x, v in zip(xs, vals) if abs(x) < 5.5]
        assert all(b[1] > a[1] for a, b in zip(inner, inner[1:]))

    def test_thousand_random_points(self):
        rng = np.random.default_rng(42)
        xs = np.sort(rng.uniform(-6, 6, 1000))
        vals = [erf(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for x, v in zip(xs, vals):
            assert erf(float(-x)) == -v

    def test_inverse_identity_on_grid(self):
        for y in np.linspace(-0.9999, 0.9999, 201):
            assert erf(erf_inv(float(y))) == pytest.approx(float(y), abs=1e-10)

    @given(st.integers(min_value=0, max_value=12), st.floats(min_value=-5, max_value=5))
    def test_hermite_parity(self, k, x):
        assert hermite(k, -x) == pytest.approx((-1) ** k * hermite(k, x), rel=1e-12, abs=1e-9)


class TestQuadratureProperties:
    @given(
        st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=6),
        st.floats(min_value=-3, max_value=1),
        st.floats(min_value=0.5, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_polynomials_exact(self, coeffs, a, width):
        b = a + width
        val = integrate_1d(lambda x: sum(c * x**i for i, c in enumerate(coeffs)), a, b)
        ref = sum(c * (b ** (i + 1) - a ** (i + 1)) / (i + 1) for i, c in enumerate(coeffs))
        assert val == pytest.approx(ref, rel=1e-13, abs=1e-13)


class TestCavityInvariants:
    @given(odd_overtones, trapping, st.floats(min_value=1e-3, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_minimum_uncertainty_product(self, n, eta, temp):
        char = characterize(QUARTZ, GEO, ModeIndex(n), temp, eta_override=eta)
        assert abs(char.x_zpf * char.p_zpf / (HBAR / 2.0) - 1.0) < 1e-12

    @given(odd_overtones, st.floats(min_value=0.5, max_value=12.0), st.floats(min_value=0.01, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_xi_monotone_in_trapping(self, n, eta, d_eta):
        xi_lo = effective_mass(QUARTZ, GEO, ModeIndex(n), eta, eta)[2]
        xi_hi = effective_mass(QUARTZ, GEO, ModeIndex(n), eta + d_eta, eta + d_eta)[2]
        assert xi_hi > xi_lo

    @given(st.sampled_from([1, 3, 5, 7, 13]), st.floats(min_value=0.5, max_value=12.0))
    @settings(max_examples=60, deadline=None)
    def test_xi_monotone_in_overtone(self, n, eta):
        xi_lo = effective_mass(QUARTZ, GEO, ModeIndex(n), eta, eta)[2]
        xi_hi = effective_mass(QUARTZ, GEO, ModeIndex(n + 2), eta, eta)[2]
        assert xi_hi > xi_lo

    @pytest.mark.parametrize("n", range(1, 16, 2))
    @pytest.mark.parametrize("eta", [1.0, 1.7, 3.0, 6.0, 10.7])
    def test_fundamental_family_outweighs_22(self, n, eta):
        xi00 = effective_mass(QUARTZ, GEO, ModeIndex(n), eta, eta)[2]
        xi22 = effective_mass(QUARTZ, GEO, ModeIndex(n, 2, 2), eta, eta)[2]
        assert xi00 > xi22

    def test_escape_threshold_shifts_down_with_overtone(self):
        # eta needed to reach a fixed escape probability falls as n grows
        def eta_for(n, target=1e-6):
            lo, hi = 1e-3, 30.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if escape_probability(ModeIndex(n), mid, mid) > target:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        etas = [eta_for(n) for n in (1, 3, 7, 15)]
        assert all(b < a for a, b in zip(etas, etas[1:]))

    @given(st.sampled_from([7, 37, 227]), st.sampled_from([7, 37, 227]),
           st.floats(min_value=5.0, max_value=12.0))
    @settings(max_examples=30, deadline=None)
    def test_displacement_overtone_independence_saturated(self, n1, n2, eta):
        x1 = zpf(QUARTZ, GEO, ModeIndex(n1), eta, eta)[0]
        x2 = zpf(QUARTZ, GEO, ModeIndex(n2), eta, eta)[0]
        assert abs(x1 / x2 - 1.0) < 1e-6

    @given(st.sampled_from([7, 37, 227]), st.floats(min_value=5.0, max_value=12.0))
    @settings(max_examples=30, deadline=None)
    def test_sqrt_scaling_of_flat_normalized_displacement(self, n, eta):
        x, _, x_flat, _ = zpf(QUARTZ, GEO, ModeIndex(n), eta, eta)
        _, _, xi = effective_mass(QUARTZ, GEO, ModeIndex(n), eta, eta)
        assert x / x_flat == pytest.approx(math.sqrt(xi), rel=1e-9)
        assert math.sqrt(xi) == pytest.approx(math.sqrt((4 / math.pi) * eta * eta * n), rel=1e-6)

    @given(st.floats(min_value=1e5, max_value=1e12), st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1.01, max_value=5.0))
    @settings(max_examples=50)
    def test_occupancy_decreasing(self, omega, temp, factor):
        # below the double-precision underflow of exp(-hbar w / k T)
        assume(HBAR * omega * factor / (BOLTZMANN_K * temp) < 600.0)
        assert thermal_occupancy(omega * factor, temp) < thermal_occupancy(omega, temp)


class TestMaterialInvariants:
    @given(st.sampled_from([1, 3, 5, 9, 27, 81, 227]))
    def test_stiffening_bounded_by_cbar(self, n):
        c_z, c_hat = stiffened_constants(VARIANT, n)
        assert c_z <= c_hat <= VARIANT.c_bar_z


class TestDetectionInvariants:
    @given(odd_overtones, st.floats(min_value=2.0, max_value=12.0),
           st.floats(min_value=0.05, max_value=0.999))
    @settings(max_examples=60, deadline=None)
    def test_electrode_round_trip(self, n, eta, mu_opt):
        lt = optimal_electrode(GEO, eta, n, mu_opt)
        alpha = eta**2 / (math.pi * GEO.L**2)
        assert overlap_factor(ModeIndex(n), alpha, alpha, lt) == pytest.approx(mu_opt, abs=1e-10)

    @given(st.floats(min_value=1e3, max_value=1e6), st.floats(min_value=1.1, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_overlap_monotone_in_electrode(self, alpha, grow):
        lt = 0.002
        mu1 = overlap_factor(ModeIndex(1), alpha, alpha, lt)
        mu2 = overlap_factor(ModeIndex(1), alpha, alpha, min(lt * grow, 0.014))
        assert mu1 <= mu2 <= 1.0

    @given(st.floats(min_value=1e3, max_value=1e6), st.floats(min_value=1.1, max_value=4.0),
           st.sampled_from([1, 3, 7]))
    @settings(max_examples=40, deadline=None)
    def test_overlap_monotone_in_curvature_and_overtone(self, alpha, grow, n):
        lt = 0.002
        mu = overlap_factor(ModeIndex(n), alpha, alpha, lt)
        assert overlap_factor(ModeIndex(n), alpha * grow, alpha * grow, lt) >= mu
        assert overlap_factor(ModeIndex(n + 2), alpha, alpha, lt) >= mu
        assert mu <= 1.0

    @given(odd_overtones, st.floats(min_value=2.0, max_value=12.0))
    @settings(max_examples=40, deadline=None)
    def test_derived_impedance_composes_with_frequency(self, n, eta):
        # e_z = 0 material: module frequency conventions coincide exactly
        c0, _, z_derived = shunt_impedance(QUARTZ, GEO, eta, n)
        omega = mode_frequency(QUARTZ, GEO, ModeIndex(n))
        assert z_derived == pytest.approx(1.0 / (omega * c0), rel=1e-12)


class TestMembraneInvariants:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    def test_zpf_decreasing_in_modes(self, m, n):
        base = membrane_zpf(MembraneSpec(mode_m=m, mode_n=n))[0]
        stepped = membrane_zpf(MembraneSpec(mode_m=m + 1, mode_n=n))[0]
        assert stepped < base

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
    def test_mass_mode_invariant(self, m, n):
        assert membrane_effective_mass(MembraneSpec(mode_m=m, mode_n=n)) == membrane_effective_mass(
            MembraneSpec()
        )
