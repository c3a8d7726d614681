"""Brute-force validators against the closed forms they exist to check."""

import math

import numpy as np
import pytest

from bawcav import oracle
from bawcav.cavity import (
    CavityGeometry,
    ModeIndex,
    effective_mass,
    envelope_curvatures,
    escape_probability,
    mode_shape,
)
from bawcav.detection import overlap_factor
from bawcav.material import bundled_material_path, dispersion_parameters, load_material, stiffened_constants
from bawcav.oracle import (
    EigenSolveConfig,
    escape_and_mass_oracle,
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


class TestEscapeAndMass:
    @pytest.mark.parametrize("mode,eta_x,eta_y", [(ModeIndex(1), 1.0, 1.4), (ModeIndex(3, 2, 2), 0.9, 0.9),
                                                  *HIGHER_ORDER_CASES])
    def test_pair_is_the_two_oracles(self, mode, eta_x, eta_y):
        alpha = eta_x**2 / (math.pi * GEO.L**2)
        beta = eta_y**2 / (math.pi * GEO.L**2)
        pair = escape_and_mass_oracle(mode, alpha, beta, GEO.L, QUARTZ.rho, GEO.h0)
        assert pair == (
            escape_integral_oracle(mode, alpha, beta, GEO.L),
            mass_integral_oracle(mode, alpha, beta, GEO.L, QUARTZ.rho, GEO.h0),
        )


@pytest.mark.parametrize("m,p", [(0, 0), (2, 2), (4, 2)])
def test_mode_shape_on_the_open_grid_is_the_flat_evaluation(m, p):
    # the oracles evaluate u on per-axis node arrays; every grid value must
    # keep the bits of the same point evaluated on flat arrays
    u = mode_shape(ModeIndex(3, m, p), 3.1e4, 4.7e4)
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.03, 0.03, (6, 15, 1))
    y = rng.uniform(-0.03, 0.03, (6, 1, 15))
    gx, gy = np.broadcast_arrays(x, y)
    flat = u(gx.ravel(), gy.ravel())
    assert u(x, y).shape == (6, 15, 15)
    assert u(x, y).tobytes() == flat.tobytes()
    assert (u(x, y) ** 2).tobytes() == (flat**2).tobytes()


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


def reference_eigensolve(mat, geo, n, config=EigenSolveConfig()):
    # reference for trap_eigensolve's bits: one Sturm count per bisection
    # step, nothing looked up, and the Thomas sweep on numpy arrays element
    # by element
    _, c_hat = stiffened_constants(mat, n)
    m_n, _ = dispersion_parameters(mat, n)
    k_pot = math.pi**2 * n**2 * c_hat / (8.0 * geo.R * geo.h0**3)
    sigma = 1.0 / math.sqrt(math.sqrt(k_pot / m_n))
    npts = config.grid_points
    half_width = config.domain_sigma * sigma
    h = 2.0 * half_width / (npts + 1)
    x = -half_width + h * np.arange(1, npts + 1)
    off = -m_n / (h * h)
    diag = 2.0 * m_n / (h * h) + k_pot * x * x
    scale = float(np.max(np.abs(diag)) + 2.0 * abs(off))
    pivmin = 1e-14 * scale

    def count(shift):
        below = 0
        for i in range(npts):
            d = diag[0] - shift if i == 0 else (diag[i] - shift) - off * off / d
            if abs(d) < pivmin:
                d = -pivmin
            below += d < 0.0
        return below

    def thomas(dg, rhs):
        c, d, out = np.empty(npts), np.empty(npts), np.empty(npts)
        c[0], d[0] = off / dg[0], rhs[0] / dg[0]
        for i in range(1, npts):
            denom = dg[i] - off * c[i - 1]
            denom = 1e-300 if denom == 0.0 else denom
            c[i], d[i] = off / denom, (rhs[i] - off * d[i - 1]) / denom
        out[-1] = d[-1]
        for i in range(npts - 2, -1, -1):
            out[i] = d[i] - c[i] * out[i + 1]
        return out

    rng = np.random.default_rng(12345)
    vectors = np.empty((npts, config.num_eigenpairs))
    lambdas = []
    for j in range(config.num_eigenpairs):
        lo, hi = float(np.min(diag)) - 2.0 * abs(off), scale
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if count(mid) <= j else (lo, mid)
            if hi - lo <= 1e-14 * max(abs(lo), abs(hi)):
                break
        lam = 0.5 * (lo + hi)
        shift = lam * (1.0 + 1e-11) + pivmin
        v = rng.standard_normal(npts)
        for _ in range(60):
            for q in range(j):
                v -= (vectors[:, q] @ v) * vectors[:, q]
            w = thomas(diag - shift, v)
            v = w / np.linalg.norm(w)
            av = diag * v
            av[:-1] += off * v[1:]
            av[1:] += off * v[:-1]
            rayleigh = float(v @ av)
            if float(np.linalg.norm(av - rayleigh * v)) / abs(rayleigh) <= config.tolerance:
                break
        if v[npts // 2 + 1] < 0:
            v = -v
        vectors[:, j] = v / np.max(np.abs(v))
        lambdas.append(rayleigh)
    return np.array(lambdas), vectors


# the two geometries of criterion 9: the default cavity, and R = L
CRITERION_9_GEOMETRIES = [GEO, CavityGeometry(L=GEO.L, h0=GEO.h0, R=GEO.L)]


class TestEigensolveWork:
    @pytest.mark.parametrize("geo", CRITERION_9_GEOMETRIES)
    def test_same_eigenpairs_as_the_reference_solver(self, geo):
        res = trap_eigensolve(QUARTZ, geo, 1)
        lambdas, vectors = reference_eigensolve(QUARTZ, geo, 1)
        assert np.array_equal(res.lambdas, lambdas)
        assert np.array_equal(res.vectors, vectors)

    @pytest.mark.parametrize("geo", CRITERION_9_GEOMETRIES)
    def test_vectors_are_positive_right_of_the_centre(self, geo):
        # the centre is a node of each odd vector, so its sign is read a
        # grid point to the right, for every vector alike
        res = trap_eigensolve(QUARTZ, geo, 1)
        assert res.vectors.shape[1] == 4
        assert np.all(res.vectors[len(res.x) // 2 + 1] > 0.0)

    @pytest.mark.parametrize("geo", CRITERION_9_GEOMETRIES)
    def test_work_is_reported_per_eigenpair(self, geo, monkeypatch):
        calls = []
        sturm_count = oracle._sturm_count

        def counting(shifted, off2, pivmin):
            calls.append(1)
            return sturm_count(shifted, off2, pivmin)

        monkeypatch.setattr(oracle, "_sturm_count", counting)
        cfg = EigenSolveConfig()
        res = trap_eigensolve(QUARTZ, geo, 1, cfg)
        k = cfg.num_eigenpairs
        assert all(len(s) == k for s in (res.sturm_counts, res.bisection_steps,
                                         res.inverse_iterations, res.residuals))
        # every count made is reported, and later eigenvalues reuse the
        # counts at the midpoints they share with earlier ones
        assert sum(res.sturm_counts) == len(calls)
        assert res.sturm_counts[0] == res.bisection_steps[0]
        assert all(0 < c < s <= 80 for c, s in zip(res.sturm_counts[1:], res.bisection_steps[1:]))
        assert all(1 <= i <= 60 for i in res.inverse_iterations)
        assert all(0.0 < r <= cfg.tolerance for r in res.residuals)

    def test_sturm_count_takes_tiny_pivots_as_minus_pivmin(self):
        def reference(shifted, off2, pivmin):
            count = 0
            for i, a in enumerate(shifted):
                d = a if i == 0 else a - off2 / d
                if abs(d) < pivmin:
                    d = -pivmin
                count += d < 0.0
            return count

        pivmin = 1e-3
        # with off2 = 0 each pivot is its diagonal entry, so the entries
        # below hit the pivmin boundary exactly
        values = [-2.0, -pivmin, -0.5 * pivmin, -0.0, 0.0, 0.5 * pivmin, pivmin, 2.0]
        rng = np.random.default_rng(3)
        for off2 in (0.0, 0.5, 3.0):
            for _ in range(200):
                shifted = rng.choice(values, 12).tolist()
                assert oracle._sturm_count(shifted, off2, pivmin) == reference(shifted, off2, pivmin)
