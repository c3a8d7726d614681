"""Brute-force validators against the closed forms they exist to check."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from bawcav import oracle, report
from bawcav.cavity import (
    CavityGeometry,
    ModeIndex,
    effective_mass,
    envelope_curvatures,
    escape_probability,
    hermite_gaussian_1d,
    in_plane_quanta,
    trap_anharmonicity,
    trap_level_shifts,
)
from bawcav.detection import overlap_factor
from bawcav.material import bundled_material_path, dispersion_parameters, load_material, stiffened_constants
from bawcav.oracle import (
    escape_and_mass_oracles,
    escape_integral_oracle,
    mass_integral_oracle,
    overlap_integral_oracle,
    overlap_integral_oracles,
    trap_eigensolve,
)
from bawcav.specfun import QuadratureSpec, integrate_2d

QUARTZ = load_material(bundled_material_path("quartz"))
GEO = CavityGeometry(L=0.015, h0=5e-4, R=0.3)
# the solver's two test geometries: the default cavity, and R = L, a trap
# twenty times stiffer
SOLVER_GEOMETRIES = [GEO, CavityGeometry(L=GEO.L, h0=GEO.h0, R=GEO.L)]


# (mode, eta_x, eta_y) beyond the (0, 0) and (2, 2) families
HIGHER_ORDER_CASES = [
    (ModeIndex(1, 4, 0), 1.3, 1.1),
    (ModeIndex(3, 0, 6), 1.7, 2.2),
    (ModeIndex(3, 4, 4), 2.0, 1.6),
]


def mode_shape(mode, alpha, beta):
    # the in-plane profile u(x, y) of the mode, unit amplitude: the product
    # of the hermite_gaussian_1d factors at alpha n pi and beta n pi
    gx, gy = alpha * mode.n * math.pi, beta * mode.n * math.pi
    return lambda x, y: hermite_gaussian_1d(mode.m, gx, x) * hermite_gaussian_1d(mode.p, gy, y)


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


class TestEscapeAndMass:
    @pytest.mark.parametrize("mode,eta_x,eta_y", [(ModeIndex(1), 1.0, 1.4), (ModeIndex(3, 2, 2), 0.9, 0.9),
                                                  *HIGHER_ORDER_CASES])
    def test_pair_is_the_two_oracles(self, mode, eta_x, eta_y):
        alpha = eta_x**2 / (math.pi * GEO.L**2)
        beta = eta_y**2 / (math.pi * GEO.L**2)
        [pair] = escape_and_mass_oracles([(mode, alpha, beta, GEO.L)], QUARTZ.rho, GEO.h0)
        assert pair == (
            escape_integral_oracle(mode, alpha, beta, GEO.L),
            mass_integral_oracle(mode, alpha, beta, GEO.L, QUARTZ.rho, GEO.h0),
        )


def criterion_8_cases():
    # criterion 8's 20 parameter sets as oracle cases: (0, 0) and (2, 2)
    # escape and mass cases, (0, 0) electrode cases
    escape, electrode = [], []
    for n, L, tx, ty, frac in report._oracle_sweep_cases(20, report.SWEEP_SEED):
        alpha = (tx / math.sqrt(n)) ** 2 / (math.pi * L**2)
        beta = (ty / math.sqrt(n)) ** 2 / (math.pi * L**2)
        escape += [(ModeIndex(n), alpha, beta, L), (ModeIndex(n, 2, 2), alpha, alpha, L)]
        electrode.append((ModeIndex(n), alpha, beta, frac * L))
    return escape, electrode


class TestBatchedOracles:
    def test_batched_values_are_the_one_case_values(self):
        escape, electrode = criterion_8_cases()
        assert escape_and_mass_oracles(escape, QUARTZ.rho, GEO.h0) == [
            escape_and_mass_oracles([case], QUARTZ.rho, GEO.h0)[0] for case in escape
        ]
        assert overlap_integral_oracles(electrode) == [overlap_integral_oracle(*case) for case in electrode]

    def test_pair_is_the_two_oracles_on_every_criterion_8_set(self):
        escape, _ = criterion_8_cases()
        for case in escape:
            assert escape_and_mass_oracles([case], QUARTZ.rho, GEO.h0)[0] == (
                escape_integral_oracle(*case),
                mass_integral_oracle(*case, QUARTZ.rho, GEO.h0),
            )


@pytest.mark.parametrize("mode,eta_x,eta_y", [(ModeIndex(3), 1.1, 1.9), (ModeIndex(1, 2, 2), 1.4, 1.4)])
def test_separable_integrals_are_the_2d_quadrature_of_the_shape(mode, eta_x, eta_y):
    # Fubini: each of the plate's and the exterior's rectangles, integrated
    # as the product of its two sides, is the two-dimensional quadrature of
    # the composed mode shape squared
    alpha = eta_x**2 / (math.pi * GEO.L**2)
    beta = eta_y**2 / (math.pi * GEO.L**2)
    rects = oracle._plate_and_exterior(mode, alpha, beta, GEO.L)
    [separable] = oracle._shape_integrals([(mode, alpha, beta)], [rects], True)
    u = mode_shape(mode, alpha, beta)
    for rect, value in zip(rects, separable):
        composed = integrate_2d(lambda x, y: u(x, y) ** 2, *rect, oracle._ORACLE_QUAD)
        assert value == pytest.approx(composed, rel=1e-12)


def test_corner_at_a_tight_tolerance_is_the_erfc_product():
    # the exterior corner of the (3, 0, 0) mode at rel 1e-13, where a
    # tensor-product rule keeps splitting boxes in four without end:
    # integrate_2d converges, to the product of its sides' closed forms,
    # sqrt(pi / g) / 2 * (erfc(sqrt(g) a) - erfc(sqrt(g) b))
    mode = ModeIndex(3)
    alpha = 1.1**2 / (math.pi * GEO.L**2)
    beta = 1.9**2 / (math.pi * GEO.L**2)
    corner = oracle._plate_and_exterior(mode, alpha, beta, GEO.L)[3]
    u = mode_shape(mode, alpha, beta)
    tight = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_depth=40)
    value = integrate_2d(lambda x, y: u(x, y) ** 2, *corner, tight)
    expected = 1.0
    for c, (a, b) in zip((alpha, beta), corner):
        g = c * mode.n * math.pi
        expected *= math.sqrt(math.pi / g) / 2.0 * (math.erfc(math.sqrt(g) * a) - math.erfc(math.sqrt(g) * b))
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m,p", [(0, 0), (2, 2), (4, 2)])
def test_mode_shape_on_the_open_grid_is_the_flat_evaluation(m, p):
    # u on an x column and a y row: every grid value keeps the bits of the
    # same point evaluated on flat arrays
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


def fit_gaussian_curvature(x, v):
    # least-squares curvature g of ln v = c - g x^2 / 2 over the samples
    # above 1e-3 of the peak, fitted on x scaled by a power of two near the
    # samples' span, an exact scaling that keeps the x^2 column's weight
    v = np.abs(np.asarray(v, dtype=float))
    peak = float(np.max(v))
    mask = v > 1e-3 * peak
    z = np.log(v[mask] / peak)
    _, e = math.frexp(float(np.max(np.abs(x[mask]))))
    q = np.ldexp(x[mask], -e) ** 2
    design = np.stack([np.ones_like(q), -0.5 * q], axis=1)
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    return math.ldexp(float(coef[1]), -2 * e)


@pytest.mark.parametrize("k", [-80, 0, 80])
def test_gaussian_curvature_fit_is_scale_free(k):
    # an exact Gaussian sampled on x 2^k has curvature g / 4^k: the fit
    # keeps it at any length scale, where a fit on raw x loses the x^2
    # column once x^2 is below the rounding of the constant column
    g = 3.7
    x = np.linspace(-4.0, 4.0, 801)
    v = np.exp(-0.5 * g * x**2)
    assert fit_gaussian_curvature(np.ldexp(x, k), v) == pytest.approx(math.ldexp(g, -2 * k), rel=1e-12)


def solver_grid(mat, geo, n, exact=False):
    # a finite-difference grid of the trap in SI units, 1601 points over
    # +-8 envelope widths sigma: the grid, the operator's diagonal and
    # off-diagonal, the scale its Sturm counts take pivmin from, and the
    # harmonic level sqrt(k M).  The potential is k x^2, or, with exact,
    # the plano-convex profile's (n pi / 2)^2 c_hat (1/h^2 - 1/h0^2) for
    # h = h0 - (R - sqrt(R^2 - x^2)) / 2, which the Hermite solve keeps at
    # k x^2 from the zero-thickness point on
    _, c_hat = stiffened_constants(mat, n)
    m_n, _ = dispersion_parameters(mat, n)
    k_pot = math.pi**2 * n**2 * c_hat / (8.0 * geo.R * geo.h0**3)
    sigma = 1.0 / math.sqrt(math.sqrt(k_pot / m_n))
    npts = 1601
    half_width = 8.0 * sigma
    h = 2.0 * half_width / (npts + 1)
    x = -half_width + h * np.arange(1, npts + 1)
    off = -m_n / (h * h)
    potential = k_pot * x * x
    if exact:
        thickness = geo.h0 - (geo.R - np.sqrt(np.maximum(geo.R**2 - x * x, 0.0))) / 2.0
        plate = thickness > 0.0
        potential[plate] = (n * math.pi / 2.0) ** 2 * c_hat * (1.0 / thickness[plate] ** 2 - 1.0 / geo.h0**2)
    diag = 2.0 * m_n / (h * h) + potential
    scale = float(np.max(np.abs(diag)) + 2.0 * abs(off))
    return x, diag, off, scale, math.sqrt(k_pot * m_n)


def reference_sturm_count(shifted, off2, pivmin, first=1.0):
    # eigenvalues below the shift, one LDL^T pivot at a time, the squared
    # coupling of rows 0 and 1 being first * off2
    count = 0
    for i, a in enumerate(shifted):
        d = a if i == 0 else a - (first * off2 if i == 1 else off2) / d
        if abs(d) < pivmin:
            d = -pivmin
        count += d < 0.0
    return count


def reference_eigensolve(mat, geo, n, exact=False):
    # independent finite-difference solve of the trap: each eigenvalue
    # bisected to 1e-14 from the whole spectrum's bounds, one Sturm count
    # per step, inverse iteration shifted just above it from a random
    # vector, and the Thomas sweep on numpy arrays element by element.
    # Returns the grid, the eigenvalues j = 0..3 and the eigenvectors, peak-
    # normalised and positive at the grid point just right of the centre
    x, diag, off, scale, _ = solver_grid(mat, geo, n, exact)
    npts = len(diag)
    pivmin = 1e-14 * scale

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
    vectors = np.empty((npts, 4))
    lambdas = []
    for j in range(4):
        lo, hi = float(np.min(diag)) - 2.0 * abs(off), scale
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if reference_sturm_count(diag - mid, off * off, pivmin) <= j else (lo, mid)
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
            if float(np.linalg.norm(av - rayleigh * v)) / abs(rayleigh) <= 1e-9:
                break
        if v[npts // 2 + 1] < 0:
            v = -v
        vectors[:, j] = v / np.max(np.abs(v))
        lambdas.append(rayleigh)
    return x, np.array(lambdas), vectors


@functools.cache
def reference(geo, n, exact=False):
    return reference_eigensolve(QUARTZ, geo, n, exact)


def hermite_functions(count, xi):
    # the orthonormal Hermite functions psi_0 .. psi_{count - 1} at xi, one row each
    psi = np.empty((count, len(xi)))
    psi[0] = math.pi**-0.25 * np.exp(-0.5 * xi * xi)
    psi[1] = math.sqrt(2.0) * xi * psi[0]
    for k in range(1, count - 1):
        psi[k + 1] = math.sqrt(2.0 / (k + 1)) * xi * psi[k] - math.sqrt(k / (k + 1)) * psi[k - 1]
    return psi


def envelope_sigma(geo, n):
    _, c_hat = stiffened_constants(QUARTZ, n)
    m_n, _ = dispersion_parameters(QUARTZ, n)
    return (m_n * 8.0 * geo.R * geo.h0**3 / (math.pi**2 * n**2 * c_hat)) ** 0.25


class TestTrapEigensolve:
    """The in-plane trap: the harmonic trap's finite-difference reference
    against the harmonic closed forms, and the exact profile's Hermite solve
    against the anharmonic ones."""

    def test_harmonic_ladder_uniform(self):
        _, lam, _ = reference(GEO, 1)
        ratio = (lam[2] - lam[1]) / (lam[1] - lam[0])
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_ground_state_envelope_curvature(self):
        x, _, vectors = reference(GEO, 1)
        alpha, _ = envelope_curvatures(QUARTZ, GEO, 1)
        assert fit_gaussian_curvature(x, vectors[:, 0]) == pytest.approx(math.pi * alpha, rel=1e-3)

    def test_higher_overtone_curvature(self):
        x, _, vectors = reference(GEO, 3)
        alpha, _ = envelope_curvatures(QUARTZ, GEO, 3)
        assert fit_gaussian_curvature(x, vectors[:, 0]) == pytest.approx(3 * math.pi * alpha, rel=1e-3)

    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_reference_levels_are_in_plane_quanta(self, geo):
        # each harmonic level against (2j + 1) q_x, which checks the
        # zero-point offset a spacing cannot see, and the spacing
        # lambda_2 - lambda_0 against 4 q_x
        _, lam, _ = reference(geo, 1)
        q_x, _ = in_plane_quanta(QUARTZ, geo, 1)
        assert max(abs(lam[j] / ((2 * j + 1) * q_x) - 1.0) for j in range(4)) <= 1e-4
        assert lam[2] - lam[0] == pytest.approx(4.0 * q_x, rel=1e-3)

    def test_eigenvectors_are_the_hermite_gaussians(self):
        # the harmonic eigenvectors j = 0..3 against the mode shape of
        # (1, j, 0) at the curvature pi alpha: the O(h^2) finite-difference
        # error, under 1e-4, whatever sign each shape is given; a trap 1%
        # too strong or weak shows
        x, _, vectors = reference(GEO, 1)
        alpha, _ = envelope_curvatures(QUARTZ, GEO, 1)
        centre = len(x) // 2 + 1

        def deviation(g):
            worst = 0.0
            for j in range(4):
                u = hermite_gaussian_1d(j, g, x)
                u = u / np.max(np.abs(u)) * np.sign(u[centre])
                worst = max(worst, float(np.max(np.abs(vectors[:, j] - u))))
            return worst

        assert 1e-6 < deviation(math.pi * alpha) < 1e-4
        for scale in (0.99, 1.01):
            assert deviation(scale * math.pi * alpha) > 1e-3

    def test_results_compare_and_hash_by_identity(self):
        a, b = trap_eigensolve(QUARTZ, GEO, 1), trap_eigensolve(QUARTZ, GEO, 1)
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("R,h0", [pytest.param(R, GEO.h0, id=str(R)) for R in (GEO.R, 0.1, 1.0)]
                             + [(1.0, 1e-30), (1e200, 1e-30), (1e-15, 1e-90)])
    def test_mode_frequency_spacing_is_the_solved_spacing(self, R, h0):
        # the solved lambda_2 - lambda_0 is the closed forms' q_x (5 (1 +
        # delta_2) - (1 + delta_0)) at every curvature radius, also where the
        # thickness term of rho omega^2 is 1.4e15 (h0 = 1e-30, R = 1) or
        # 1.4e115 (R = 1e200) times q_x, and a difference of two
        # frequencies keeps none of the spacing's digits, and at h0 = 1e-90,
        # R = 1e-15, where an SI-unit grid's squared coupling would overflow
        geo = CavityGeometry(L=GEO.L, h0=h0, R=R)
        res = trap_eigensolve(QUARTZ, geo, 1)
        q_x, _ = in_plane_quanta(QUARTZ, geo, 1)
        delta, _ = trap_level_shifts(trap_anharmonicity(QUARTZ, geo, 1), h0 / R)
        spacing = q_x * (5.0 * (1.0 + delta[2]) - (1.0 + delta[0]))
        assert res.lambdas[2] - res.lambdas[0] == pytest.approx(spacing, rel=1e-3)

    @pytest.mark.parametrize("mode", [ModeIndex(1, 2, 0), ModeIndex(1, 0, 2)])
    def test_in_plane_frequency_does_not_depend_on_L(self, mode):
        geometries = [CavityGeometry(L=L, h0=GEO.h0, R=GEO.R) for L in (0.005, GEO.L, 0.05)]
        quanta = [in_plane_quanta(QUARTZ, geo, mode.n) for geo in geometries]
        assert len({(2 * mode.m + 1) * q_x + (2 * mode.p + 1) * q_y for q_x, q_y in quanta}) == 1

    def test_second_order_convergence(self):
        # the solved shifts against the closed form to second order, over
        # epsilon from 1e-3 to 0.3165 (the thickest plate at n = 1) and
        # h0/R from 0 to 0.0497: the remainder stays within half the bound
        # criterion 9 takes as its tolerance, and at epsilon = 1e-3, h0/R =
        # 0 its epsilon^3 part is the third-order coefficient
        # (111, -135, -3387, -15165) / 32768 / (2j + 1)
        ladder = 2.0 * np.arange(4) + 1.0
        for epsilon, h0_over_R in itertools.product(np.geomspace(1e-3, 0.3165, 12), (0.0, 1 / 600, 0.0497)):
            levels, *_ = oracle._hermite_levels(epsilon, h0_over_R)
            delta, bound = trap_level_shifts(epsilon, h0_over_R)
            remainder = levels / ladder - 1.0 - delta
            assert np.max(np.abs(remainder)) <= 0.5 * bound, (epsilon, h0_over_R)
        levels, *_ = oracle._hermite_levels(1e-3, 0.0)
        delta, _ = trap_level_shifts(1e-3, 0.0)
        third = np.array([111.0, -135.0, -3387.0, -15165.0]) / 32768.0 / ladder
        np.testing.assert_allclose((levels / ladder - 1.0 - delta) / 1e-9, third, rtol=2e-2)

    def test_closed_form_coefficients(self):
        # the second-order coefficients c_j the docstring derives, and the
        # first-order ones, (9/32)(2j^2 + 2j + 1)/(2j + 1) at h0/R = 0
        j = np.arange(4)
        first = (9 / 32) * (2 * j * j + 2 * j + 1) / (2 * j + 1)
        delta, _ = trap_level_shifts(1.0, 0.0)
        np.testing.assert_allclose(delta - first, [51 / 1024, 195 / 3072, 465 / 5120, 945 / 7168], rtol=1e-15)
        np.testing.assert_allclose(delta - first, [0.04980, 0.06348, 0.09082, 0.13184], atol=5e-6)

    def test_gauss_hermite_rule_is_hermgauss(self):
        # Golub-Welsch nodes and Christoffel weights against numpy's rule,
        # which the library does not import
        from numpy.polynomial.hermite import hermgauss

        x, w, p = oracle._gauss_hermite(64, 32)
        nodes, weights = hermgauss(64)
        np.testing.assert_allclose(x, nodes, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(w, weights, rtol=5e-13, atol=0.0)
        # the basis rows are orthonormal under the rule
        np.testing.assert_allclose((p * w) @ p.T, np.eye(32), rtol=0.0, atol=1e-13)

    def test_eigenvectors_orthogonal(self):
        res = trap_eigensolve(QUARTZ, GEO, 1)
        np.testing.assert_allclose(res.vectors.T @ res.vectors, np.eye(4), rtol=0.0, atol=1e-14)

    def test_unreachable_tolerance_raises_with_residual(self, monkeypatch):
        # with a bound of 1e-18 the leading 16 Hermite functions' levels,
        # 1.5e-10 from all 32's, do not agree to it: the error names n,
        # epsilon and the agreement reached
        agreement = trap_eigensolve(QUARTZ, GEO, 1).agreement
        monkeypatch.setattr(oracle, "trap_level_shifts", lambda epsilon, h0_over_R: (None, 1e-18))
        epsilon = trap_anharmonicity(QUARTZ, GEO, 1)
        with pytest.raises(ArithmeticError) as err:
            trap_eigensolve(QUARTZ, GEO, 1)
        assert str(err.value).startswith(f"the trap of overtone n = 1 at epsilon = {epsilon!r} is not resolved to 1e-18:")
        assert f"differ by {agreement:.3g}," in str(err.value)
        assert "R =" not in str(err.value)

    def test_epsilon_past_the_checked_range_raises(self):
        # M four times quartz's doubles epsilon, to 0.63 at n = 1 of the
        # thickest plate; past 0.6 the solve raises, naming n and epsilon
        mat = dataclasses.replace(QUARTZ, M=4.0 * QUARTZ.M)
        geo = CavityGeometry(L=GEO.L, h0=0.0149, R=0.3)
        epsilon = trap_anharmonicity(mat, geo, 1)
        assert 0.6 < epsilon < 0.7
        with pytest.raises(ArithmeticError, match=rf"^the trap of overtone n = 1 at epsilon = {epsilon!r} is past"):
            trap_eigensolve(mat, geo, 1)

    @pytest.mark.parametrize("h0,R,what", [
        (1e-110, 1.0, "8 R h0^3"),
        (1e-100, 1e-3, "the trap stiffness k"),
    ])
    def test_unrepresentable_trap_names_R_and_h0(self, h0, R, what):
        geo = CavityGeometry(L=GEO.L, h0=h0, R=R)
        with pytest.raises((OverflowError, FloatingPointError)) as err:
            trap_eigensolve(QUARTZ, geo, 1)
        assert str(err.value) == f"{what} at R = {R!r}, h0 = {h0!r} is outside the normal double range"

    @pytest.mark.parametrize("change,h0,R,what", [
        # M_n = M + a_x cot(kappa_x pi / 2) = inf: sqrt(k M_n) overflows
        (dict(a_x=1e308, kappa_x=0.01), GEO.h0, GEO.R, "the trap quantum sqrt(k M_n)"),
        # sqrt(k M_n) = 4.1e307 and lambda_1 are normal, lambda_2 is not, at
        # epsilon = 0.037
        (dict(M=1.7e308, c_bar_z=1e307), 0.1, 1e3, "the trap eigenvalue lambda_2"),
    ], ids=["quantum", "eigenvalue"])
    def test_unrepresentable_scaling_names_R_and_h0(self, change, h0, R, what):
        # no geometry of the bundled quartz reaches these: with M_n = 2.6e11
        # and k normal, sqrt(k M_n) lies within 3.9e-143 ... 6.9e159
        mat = dataclasses.replace(QUARTZ, **change)
        with pytest.raises(OverflowError) as err:
            trap_eigensolve(mat, CavityGeometry(L=GEO.L, h0=h0, R=R), 1)
        assert str(err.value) == f"{what} at R = {R!r}, h0 = {h0!r} is outside the normal double range"


class TestEigensolveWork:
    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_same_eigenpairs_as_the_reference_solver(self, geo):
        # the Hermite solve of the exact profile against the finite-
        # difference reference on the same potential: the reference's
        # O(h^2) error, at most 3.8e-5 in the levels (relative) and 8e-5 in
        # the peak-normalised vectors; at R = L the zero-thickness point
        # lies on the grid, at 3.9 sigma
        x, lambdas, vectors = reference(geo, 1, exact=True)
        res = trap_eigensolve(QUARTZ, geo, 1)
        assert np.max(np.abs(res.lambdas / lambdas - 1.0)) <= 1e-4
        shapes = res.vectors.T @ hermite_functions(oracle._BASIS, x / envelope_sigma(geo, 1))
        shapes /= np.max(np.abs(shapes), axis=1, keepdims=True)
        assert np.max(np.abs(shapes.T - vectors)) <= 1e-4

    @pytest.mark.parametrize("n", [1, 3, 227])
    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_same_parity_vectors_are_orthogonal(self, geo, n):
        # the levels of one parity come from one symmetric eigensolve
        res = trap_eigensolve(QUARTZ, geo, n)
        assert abs(res.vectors[:, 0] @ res.vectors[:, 2]) <= 1e-13
        assert abs(res.vectors[:, 1] @ res.vectors[:, 3]) <= 1e-13

    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_vectors_are_positive_right_of_the_centre(self, geo):
        # each eigenfunction is signed at the smallest positive node, 0.138
        # sigma, and keeps that sign down to the centre, also the odd ones,
        # which vanish there
        res = trap_eigensolve(QUARTZ, geo, 1)
        assert res.vectors.shape == (oracle._BASIS, 4)
        xi = np.array([1e-3, 0.07, 0.138])
        assert np.all(res.vectors.T @ hermite_functions(oracle._BASIS, xi) > 0.0)

    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_work_is_reported_per_eigenpair(self, geo):
        # the basis and the nodes, the agreement of the leading half of the
        # basis, and each level's mass past the zero-thickness point, both
        # within the bound the solve checks them against
        res = trap_eigensolve(QUARTZ, geo, 1)
        _, bound = trap_level_shifts(trap_anharmonicity(QUARTZ, geo, 1), geo.h0 / geo.R)
        assert (res.basis, res.nodes) == (32, 64)
        assert res.outside_mass.shape == res.lambdas.shape == res.shifts.shape == (4,)
        assert 0.0 <= res.agreement <= bound
        assert np.all((0.0 <= res.outside_mass) & (res.outside_mass <= bound))

    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_vectors_have_the_parity_of_their_block(self, geo):
        # each vector is solved in the Hermite functions of its parity: its
        # coefficients on the other parity's are exactly 0
        res = trap_eigensolve(QUARTZ, geo, 1)
        for j in range(4):
            assert not np.any(res.vectors[1 - j % 2::2, j])
            assert np.all(res.vectors[j % 2::2, j] != 0.0)

    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_block_counts_add_up_to_the_whole_grid_count(self, geo):
        # the even and the odd block split the spectrum of the whole
        # projected matrix: W is even and the nodes are symmetric, so the
        # couplings between parities vanish to rounding, the counts of the
        # two blocks' levels add up to the whole matrix's at seeded shifts,
        # and the solved levels are its lowest four, to the rounding of an
        # eigensolve, a few ulps of the matrix's norm (7e3 at R = L)
        epsilon, h0_over_R = trap_anharmonicity(QUARTZ, geo, 1), geo.h0 / geo.R
        x, w, p = oracle._gauss_hermite(oracle._NODES, oracle._BASIS)
        excess, _ = oracle._profile_excess(x, epsilon, h0_over_R)
        whole = (p * (w * excess)) @ p.T + np.diag(2.0 * np.arange(oracle._BASIS) + 1.0)
        assert np.max(np.abs(whole[0::2, 1::2])) <= 1e-13 * np.max(np.abs(whole))
        spectrum = np.linalg.eigvalsh(whole)
        blocks = [np.linalg.eigvalsh(whole[q::2, q::2]) for q in (0, 1)]
        for shift in np.random.default_rng(21).uniform(0.0, 40.0, 16):
            assert np.sum(spectrum < shift) == sum(np.sum(b < shift) for b in blocks)
        levels, *_ = oracle._hermite_levels(epsilon, h0_over_R)
        np.testing.assert_allclose(levels, spectrum[:4], rtol=0.0, atol=1e-15 * np.linalg.norm(whole, 2))

    @pytest.mark.parametrize("R,h0", [(GEO.R, GEO.h0), (GEO.L, GEO.h0), (1e3, 1e-6), (1.0, 1e-30), (1e200, 1e-30)])
    @pytest.mark.parametrize("n", [1, 3, 227])
    def test_harmonic_start_converges_in_one_iteration(self, R, h0, n):
        # the basis starts from the harmonic trap's eigenfunctions, each
        # solved vector is led by its own harmonic function, and one solve,
        # without a larger basis, resolves the levels to the closed form's
        # bound at the geometries the oracle command is run at
        geo = CavityGeometry(L=GEO.L, h0=h0, R=R)
        res = trap_eigensolve(QUARTZ, geo, n)
        epsilon = trap_anharmonicity(QUARTZ, geo, n)
        delta, bound = trap_level_shifts(epsilon, h0 / R)
        assert np.all(1.0 - np.abs(np.diag(res.vectors[:4])) <= epsilon + 1e-15)
        assert max(res.agreement, float(np.max(res.outside_mass))) <= bound
        assert np.max(np.abs(res.shifts - delta)) <= bound

    def test_equal_epsilon_and_h0_over_R_give_the_same_shifts(self):
        # geometry enters the solve only through epsilon and h0/R: a plate
        # with h0 and R scaled by one power of two has both, bit for bit, and
        # so the same shifts and vectors, and its eigenvalues scale with
        # sqrt(k M_n), as 1/scale^2
        for n, scale in itertools.product((1, 3, 227), (2.0**-40, 2.0**40)):
            other = CavityGeometry(L=GEO.L, h0=GEO.h0 * scale, R=GEO.R * scale)
            assert trap_anharmonicity(QUARTZ, other, n) == trap_anharmonicity(QUARTZ, GEO, n)
            a, b = trap_eigensolve(QUARTZ, GEO, n), trap_eigensolve(QUARTZ, other, n)
            assert a.shifts.tobytes() == b.shifts.tobytes(), (n, scale)
            assert a.vectors.tobytes() == b.vectors.tobytes(), (n, scale)
            np.testing.assert_allclose(b.lambdas * scale**2, a.lambdas, rtol=1e-15, atol=0.0)

    def test_sturm_count_takes_tiny_pivots_as_minus_pivmin(self):
        # the reference's count: with off2 = 0 each pivot is its diagonal
        # entry, so it counts the entries below pivmin, those within pivmin
        # of 0 taken as -pivmin; first = 2 doubles the coupling of rows 0
        # and 1.  With couplings and entries clear of pivmin, the count is
        # that of the eigenvalues below 0 of the symmetric tridiagonal matrix
        pivmin = 1e-3
        values = [-2.0, -pivmin, -0.5 * pivmin, -0.0, 0.0, 0.5 * pivmin, pivmin, 2.0]
        rng = np.random.default_rng(3)
        for first in (1.0, 2.0):
            for _ in range(200):
                shifted = rng.choice(values, 12).tolist()
                assert reference_sturm_count(shifted, 0.0, pivmin, first) == sum(a < pivmin for a in shifted)
            for _ in range(200):
                shifted = rng.uniform(-3.0, 3.0, 12)
                off = np.full(11, 0.7)
                off[0] *= math.sqrt(first)
                matrix = np.diag(shifted) + np.diag(off, 1) + np.diag(off, -1)
                expected = int(np.sum(np.linalg.eigvalsh(matrix) < 0.0))
                assert reference_sturm_count(shifted.tolist(), 0.49, 1e-14, first) == expected
