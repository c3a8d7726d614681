"""Brute-force validators against the closed forms they exist to check."""

import math

import numpy as np
import pytest

from bawcav.cavity import (
    CavityGeometry,
    ModeIndex,
    effective_mass,
    envelope_curvatures,
    escape_probability,
)
from bawcav.detection import overlap_factor
from bawcav.material import bundled_material_path, load_material
from bawcav.oracle import (
    EigenSolveConfig,
    escape_integral_oracle,
    fit_gaussian_curvature,
    mass_integral_oracle,
    overlap_integral_oracle,
    trap_eigensolve,
)

QUARTZ = load_material(bundled_material_path("quartz"))
GEO = CavityGeometry(L=0.015, h0=5e-4, R=0.3)


# (mode, eta_x, eta_y) beyond the (0, 0) and (2, 2) families
HIGHER_ORDER_CASES = [
    (ModeIndex(1, 4, 0), 1.3, 1.1),
    (ModeIndex(3, 0, 6), 1.7, 2.2),
    (ModeIndex(3, 4, 4), 2.0, 1.6),
]


def geometry_for(eta: float, n: int, L: float = 0.015):
    alpha = eta**2 / (math.pi * L**2)
    return alpha, L


class TestMassOracle:
    def test_fundamental_matches_closed_form(self):
        eta, n = 2.0, 1
        alpha, L = geometry_for(eta, n)
        numeric = mass_integral_oracle(ModeIndex(n), alpha, alpha, L, QUARTZ.rho, GEO.h0)
        closed, _, _ = effective_mass(QUARTZ, GEO, ModeIndex(n), eta, eta)
        assert numeric == pytest.approx(closed, rel=1e-8)

    def test_mode22_matches_closed_form(self):
        eta, n = 1.5, 1
        alpha, L = geometry_for(eta, n)
        numeric = mass_integral_oracle(ModeIndex(n, 2, 2), alpha, alpha, L, QUARTZ.rho, GEO.h0)
        closed, _, _ = effective_mass(QUARTZ, GEO, ModeIndex(n, 2, 2), eta, eta)
        assert numeric == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("mode,eta_x,eta_y", HIGHER_ORDER_CASES)
    def test_higher_order_matches_recurrence(self, mode, eta_x, eta_y):
        alpha = eta_x**2 / (math.pi * GEO.L**2)
        beta = eta_y**2 / (math.pi * GEO.L**2)
        numeric = mass_integral_oracle(mode, alpha, beta, GEO.L, QUARTZ.rho, GEO.h0)
        closed, _, _ = effective_mass(QUARTZ, GEO, mode, eta_x, eta_y)
        assert numeric == pytest.approx(closed, rel=1e-8)

    def test_axis_swap_symmetry(self):
        alpha, L = geometry_for(1.3, 3)
        beta, _ = geometry_for(2.1, 3)
        a = mass_integral_oracle(ModeIndex(3), alpha, beta, L, QUARTZ.rho, GEO.h0)
        b = mass_integral_oracle(ModeIndex(3), beta, alpha, L, QUARTZ.rho, GEO.h0)
        assert a == pytest.approx(b, rel=1e-10)


class TestEscapeOracle:
    @pytest.mark.parametrize("eta,n", [(1.0, 1), (0.6, 3), (1.8, 1)])
    def test_fundamental(self, eta, n):
        alpha, L = geometry_for(eta, n)
        numeric = escape_integral_oracle(ModeIndex(n), alpha, alpha, L)
        closed = escape_probability(ModeIndex(n), eta, eta)
        assert numeric == pytest.approx(closed, rel=1e-8)

    def test_mode22(self):
        eta, n = 1.2, 1
        alpha, L = geometry_for(eta, n)
        numeric = escape_integral_oracle(ModeIndex(n, 2, 2), alpha, alpha, L)
        closed = escape_probability(ModeIndex(n, 2, 2), eta, eta)
        assert numeric == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("mode,eta_x,eta_y", HIGHER_ORDER_CASES)
    def test_higher_order_matches_recurrence(self, mode, eta_x, eta_y):
        alpha = eta_x**2 / (math.pi * GEO.L**2)
        beta = eta_y**2 / (math.pi * GEO.L**2)
        numeric = escape_integral_oracle(mode, alpha, beta, GEO.L)
        closed = escape_probability(mode, eta_x, eta_y)
        assert numeric == pytest.approx(closed, rel=1e-8)

    def test_small_escape_keeps_relative_accuracy(self):
        eta, n = 3.1, 1  # chi ~ 2 erfc(3.1) ~ 2e-5
        alpha, L = geometry_for(eta, n)
        numeric = escape_integral_oracle(ModeIndex(n), alpha, alpha, L)
        closed = escape_probability(ModeIndex(n), eta, eta)
        assert closed < 3e-5
        assert numeric == pytest.approx(closed, rel=1e-8)

    def test_relaxed_mode_odd_inplane(self):
        # oracle accepts modes outside the piezoelectrically coupled family
        alpha, L = geometry_for(1.4, 1)
        chi = escape_integral_oracle(ModeIndex.relaxed(1, 1, 0), alpha, alpha, L)
        assert 0.0 < chi < 1.0


class TestOverlapOracle:
    def test_fundamental(self):
        alpha, L = geometry_for(5.08, 1)
        lt = 0.3 * L
        numeric = overlap_integral_oracle(ModeIndex(1), alpha, alpha, lt)
        closed = overlap_factor(ModeIndex(1), alpha, alpha, lt)
        assert numeric == pytest.approx(closed, rel=1e-8)

    def test_mode42_recurrence(self):
        alpha, L = geometry_for(3.0, 1)
        beta, _ = geometry_for(2.5, 1)
        lt = 0.4 * L
        numeric = overlap_integral_oracle(ModeIndex(1, 4, 2), alpha, beta, lt)
        closed = overlap_factor(ModeIndex(1, 4, 2), alpha, beta, lt)
        assert numeric == pytest.approx(closed, rel=1e-8)

    def test_mode20_quadrature_path(self):
        alpha, L = geometry_for(3.0, 1)
        lt = 0.4 * L
        numeric = overlap_integral_oracle(ModeIndex(1, 2, 0), alpha, alpha, lt)
        closed = overlap_factor(ModeIndex(1, 2, 0), alpha, alpha, lt)
        assert numeric == pytest.approx(closed, rel=1e-8)


class TestEigenSolveConfig:
    def test_defaults_valid(self):
        cfg = EigenSolveConfig()
        assert cfg.grid_points >= 201 and cfg.grid_points % 2 == 1
        assert cfg.domain_sigma >= 8

    @pytest.mark.parametrize(
        "kwargs", [{"grid_points": 200}, {"grid_points": 99}, {"domain_sigma": 4.0}, {"tolerance": 0.0}]
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EigenSolveConfig(**kwargs)


class TestTrapEigensolve:
    def test_harmonic_ladder_uniform(self):
        res = trap_eigensolve(QUARTZ, GEO, 1)
        lam = res.lambdas
        ratio = (lam[2] - lam[1]) / (lam[1] - lam[0])
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_ground_state_envelope_curvature(self):
        res = trap_eigensolve(QUARTZ, GEO, 1)
        alpha, _ = envelope_curvatures(QUARTZ, GEO, 1)
        gfit = fit_gaussian_curvature(res.x, res.vectors[:, 0])
        assert gfit == pytest.approx(math.pi * alpha, rel=1e-3)

    def test_higher_overtone_curvature(self):
        res = trap_eigensolve(QUARTZ, GEO, 3, EigenSolveConfig(grid_points=1201))
        alpha, _ = envelope_curvatures(QUARTZ, GEO, 3)
        gfit = fit_gaussian_curvature(res.x, res.vectors[:, 0])
        assert gfit == pytest.approx(3 * math.pi * alpha, rel=1e-3)

    def test_bracket_ratio_on_matched_geometry(self):
        # with R = L the in-plane frequency-correction coefficient from the
        # trap operator coincides with the closed-form bracket coefficient
        geo = CavityGeometry(L=0.015, h0=5e-4, R=0.015)
        res = trap_eigensolve(QUARTZ, geo, 1)
        lead = (math.pi / (2 * geo.h0)) ** 2 * QUARTZ.c_bar_z
        ratio = math.sqrt((lead + res.lambdas[2]) / (lead + res.lambdas[0]))
        chi_x = math.sqrt(2 * geo.h0 * QUARTZ.M / (geo.L * QUARTZ.c_bar_z)) / math.pi
        closed = math.sqrt((1 + 5 * chi_x) / (1 + chi_x))
        assert ratio == pytest.approx(closed, rel=1e-3)

    def test_second_order_convergence(self):
        alpha, _ = envelope_curvatures(QUARTZ, GEO, 1)
        exact = QUARTZ.M * math.pi * alpha  # ground eigenvalue M * gamma
        errs = {}
        for npts in (401, 801):
            cfg = EigenSolveConfig(grid_points=npts, num_eigenpairs=1)
            res = trap_eigensolve(QUARTZ, GEO, 1, cfg)
            errs[npts] = abs(res.lambdas[0] - exact) / exact
        assert errs[401] / errs[801] >= 3.5

    def test_frequencies_include_thickness_term(self):
        res = trap_eigensolve(QUARTZ, GEO, 1)
        lead = (math.pi / (2 * GEO.h0)) ** 2 * QUARTZ.c_bar_z
        expected = math.sqrt((lead + res.lambdas[0]) / QUARTZ.rho)
        assert res.omegas[0] == pytest.approx(expected, rel=1e-14)

    def test_pairs_interface(self):
        res = trap_eigensolve(QUARTZ, GEO, 1, EigenSolveConfig(grid_points=401, num_eigenpairs=2))
        pairs = res.pairs()
        assert len(pairs) == 2
        omega, vec = pairs[0]
        assert omega > 0 and vec.shape == res.x.shape

    def test_eigenvectors_orthogonal(self):
        res = trap_eigensolve(QUARTZ, GEO, 1)
        v0 = res.vectors[:, 0] / np.linalg.norm(res.vectors[:, 0])
        v1 = res.vectors[:, 1] / np.linalg.norm(res.vectors[:, 1])
        assert abs(float(v0 @ v1)) < 1e-8

    def test_unreachable_tolerance_raises_with_residual(self):
        from bawcav.oracle import EigensolveConvergenceError

        cfg = EigenSolveConfig(grid_points=401, num_eigenpairs=1, tolerance=1e-18)
        with pytest.raises(EigensolveConvergenceError) as err:
            trap_eigensolve(QUARTZ, GEO, 1, cfg)
        assert err.value.residual > 0.0
