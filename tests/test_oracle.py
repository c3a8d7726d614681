"""Brute-force validators against the closed forms they exist to check."""

import dataclasses
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
)
from bawcav.detection import overlap_factor
from bawcav.material import bundled_material_path, dispersion_parameters, load_material, stiffened_constants
from bawcav.oracle import (
    EigensolveConvergenceError,
    escape_and_mass_oracles,
    escape_integral_oracle,
    fit_gaussian_curvature,
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

    def test_results_compare_and_hash_by_identity(self):
        a, b = trap_eigensolve(QUARTZ, GEO, 1), trap_eigensolve(QUARTZ, GEO, 1)
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert len({a, b, a}) == 2

    def test_higher_overtone_curvature(self):
        res = trap_eigensolve(QUARTZ, GEO, 3)
        alpha, _ = envelope_curvatures(QUARTZ, GEO, 3)
        gfit = fit_gaussian_curvature(res.x, res.vectors[:, 0])
        assert gfit == pytest.approx(3 * math.pi * alpha, rel=1e-3)

    @pytest.mark.parametrize("R,h0", [pytest.param(R, GEO.h0, id=str(R)) for R in (GEO.R, 0.1, 1.0)]
                             + [(1.0, 1e-30), (1e200, 1e-30), (1e-15, 1e-90)])
    def test_mode_frequency_spacing_is_the_solved_spacing(self, R, h0):
        # the solved lambda_2 - lambda_0 is in_plane_quanta's 4 q_x at every
        # curvature radius, also where the thickness term of rho omega^2 is
        # 1.4e15 (h0 = 1e-30, R = 1) or 1.4e115 (R = 1e200) times q_x, and a
        # difference of two frequencies keeps none of the spacing's digits;
        # at h0 = 1e-90, R = 1e-15 the SI operator's squared coupling
        # (M / h^2)^2 would overflow, the solved one's is (1602 / 16)^4
        geo = CavityGeometry(L=GEO.L, h0=h0, R=R)
        res = trap_eigensolve(QUARTZ, geo, 1)
        q_x, _ = in_plane_quanta(QUARTZ, geo, 1)
        assert res.lambdas[2] - res.lambdas[0] == pytest.approx(4.0 * q_x, rel=1e-3)

    @pytest.mark.parametrize("mode", [ModeIndex(1, 2, 0), ModeIndex(1, 0, 2)])
    def test_in_plane_frequency_does_not_depend_on_L(self, mode):
        geometries = [CavityGeometry(L=L, h0=GEO.h0, R=GEO.R) for L in (0.005, GEO.L, 0.05)]
        quanta = [in_plane_quanta(QUARTZ, geo, mode.n) for geo in geometries]
        assert len({(2 * mode.m + 1) * q_x + (2 * mode.p + 1) * q_y for q_x, q_y in quanta}) == 1

    def test_second_order_convergence(self):
        # in units of the envelope sigma the grid step is h = 16/1602 for
        # every trap, and the 3-point stencil's -h^2 u^(4) / 12 error term
        # puts lambda_j below its harmonic level (2j + 1) sqrt(k M) by
        # (2j^2 + 2j + 1) h^2 / (16 (2j + 1)), to first order: the stencil
        # level so lowered is off by the same 3.9e-11 ... 5.1e-10 on every
        # trap, at least 19 times inside the +-1e-8 bracket the solve
        # confirms around it
        h = 16.0 / 1602.0
        far = CavityGeometry(L=GEO.L, h0=1e-6, R=1e3)
        for geo, n in itertools.product(SOLVER_GEOMETRIES + [far], (1, 3, 227)):
            _, c_hat = stiffened_constants(QUARTZ, n)
            m_n, _ = dispersion_parameters(QUARTZ, n)
            level = math.sqrt(math.pi**2 * n**2 * c_hat / (8.0 * geo.R * geo.h0**3) * m_n)
            res = trap_eigensolve(QUARTZ, geo, n)
            for j, lam in enumerate(res.lambdas):
                stencil = (2 * j + 1) * level * (1.0 - (2 * j * j + 2 * j + 1) * h * h / (16.0 * (2 * j + 1)))
                assert abs(lam / stencil - 1.0) < 5.2e-10

    def test_eigenvectors_orthogonal(self):
        res = trap_eigensolve(QUARTZ, GEO, 1)
        v0 = res.vectors[:, 0] / np.linalg.norm(res.vectors[:, 0])
        v1 = res.vectors[:, 1] / np.linalg.norm(res.vectors[:, 1])
        assert abs(float(v0 @ v1)) < 1e-8

    def test_unreachable_tolerance_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(oracle, "_RESIDUAL_TOL", 1e-18)
        with pytest.raises(EigensolveConvergenceError, match="eigenpair 0 stalled") as err:
            trap_eigensolve(QUARTZ, GEO, 1)
        assert 1e-18 < err.value.residual < math.inf
        assert "R =" not in str(err.value)

    def test_unconfirmed_bracket_raises(self, monkeypatch):
        # on 201 points the stencil's higher-order error puts lambda_0 1.5e-7
        # below its stencil level, outside the +-1e-8 bracket
        monkeypatch.setattr(oracle, "_GRID_POINTS", 201)
        with pytest.raises(EigensolveConvergenceError, match="eigenvalue 0 is not alone") as err:
            trap_eigensolve(QUARTZ, GEO, 1)
        assert err.value.residual == math.inf
        assert "R =" not in str(err.value)

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
        # sqrt(k M_n) = 4.7e307 and lambda_1 are normal, lambda_2 is not
        (dict(M=1.7e308), 1e-100, 1e4, "the trap eigenvalue lambda_2"),
    ], ids=["quantum", "eigenvalue"])
    def test_unrepresentable_scaling_names_R_and_h0(self, change, h0, R, what):
        # no geometry of the bundled quartz reaches these: with M_n = 2.6e11
        # and k normal, sqrt(k M_n) lies within 3.9e-143 ... 6.9e159
        mat = dataclasses.replace(QUARTZ, **change)
        with pytest.raises(OverflowError) as err:
            trap_eigensolve(mat, CavityGeometry(L=GEO.L, h0=h0, R=R), 1)
        assert str(err.value) == f"{what} at R = {R!r}, h0 = {h0!r} is outside the normal double range"


@pytest.mark.parametrize("k", [-80, 0, 80])
def test_gaussian_curvature_fit_is_scale_free(k):
    # an exact Gaussian sampled on x 2^k has curvature g / 4^k: the fit
    # keeps it at any length scale, where a fit on raw x loses the x^2
    # column once x^2 is below the rounding of the constant column
    g = 3.7
    x = np.linspace(-4.0, 4.0, 801)
    v = np.exp(-0.5 * g * x**2)
    assert fit_gaussian_curvature(np.ldexp(x, k), v) == pytest.approx(math.ldexp(g, -2 * k), rel=1e-12)


def solver_grid(mat, geo, n):
    # trap_eigensolve's whole grid, written out: the operator's diagonal and
    # off-diagonal, the scale its Sturm counts take pivmin from, and the
    # harmonic level sqrt(k M)
    _, c_hat = stiffened_constants(mat, n)
    m_n, _ = dispersion_parameters(mat, n)
    k_pot = math.pi**2 * n**2 * c_hat / (8.0 * geo.R * geo.h0**3)
    sigma = 1.0 / math.sqrt(math.sqrt(k_pot / m_n))
    npts = 1601
    half_width = 8.0 * sigma
    h = 2.0 * half_width / (npts + 1)
    x = -half_width + h * np.arange(1, npts + 1)
    off = -m_n / (h * h)
    diag = 2.0 * m_n / (h * h) + k_pot * x * x
    scale = float(np.max(np.abs(diag)) + 2.0 * abs(off))
    return diag, off, scale, math.sqrt(k_pot * m_n)


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


def reference_eigensolve(mat, geo, n):
    # independent reference for trap_eigensolve: each eigenvalue bisected
    # to 1e-14 from the whole spectrum's bounds, one Sturm count per step,
    # inverse iteration shifted just above it, and the Thomas sweep on
    # numpy arrays element by element, all on the whole grid
    diag, off, scale, _ = solver_grid(mat, geo, n)
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
    return np.array(lambdas), vectors


class TestEigensolveWork:
    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_same_eigenpairs_as_the_reference_solver(self, geo):
        # the solve shifts by the stencil level, within 5.1e-10 of each
        # eigenvalue, and starts from the harmonic eigenvector, where the
        # reference shifts just above the bisected eigenvalue and starts
        # from a random vector: they differ by at most 1.5e-13 (lambda,
        # relative) and 3.3e-13 (peak-normalised vectors)
        res = trap_eigensolve(QUARTZ, geo, 1)
        lambdas, vectors = reference_eigensolve(QUARTZ, geo, 1)
        assert np.max(np.abs(res.lambdas / lambdas - 1.0)) <= 5e-13
        assert np.max(np.abs(res.vectors - vectors)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 227])
    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_same_parity_vectors_are_orthogonal(self, geo, n):
        # each pair's shift isolates its eigenvalue, and the other parity's
        # lie in the other block, so no vector is deflated against another:
        # as unit vectors, |u0 . u2| and |u1 . u3| stay below 5e-14
        res = trap_eigensolve(QUARTZ, geo, n)
        u = res.vectors / np.linalg.norm(res.vectors, axis=0)
        assert abs(u[:, 0] @ u[:, 2]) <= 1e-13
        assert abs(u[:, 1] @ u[:, 3]) <= 1e-13

    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_vectors_are_positive_right_of_the_centre(self, geo):
        # the centre is a node of each odd vector, so its sign is read a
        # grid point to the right, for every vector alike
        res = trap_eigensolve(QUARTZ, geo, 1)
        assert res.vectors.shape[1] == 4
        assert np.all(res.vectors[len(res.x) // 2 + 1] > 0.0)

    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_work_is_reported_per_eigenpair(self, geo, monkeypatch):
        calls = []
        sturm_count = oracle._sturm_count

        def counting(shifted, off2, pivmin, first):
            calls.append((len(shifted), first))
            return sturm_count(shifted, off2, pivmin, first)

        monkeypatch.setattr(oracle, "_sturm_count", counting)
        res = trap_eigensolve(QUARTZ, geo, 1)
        k = oracle._EIGENPAIRS
        assert all(len(s) == k for s in (res.inverse_iterations, res.residuals))
        # the four half-grid counts that confirm each eigenvalue's bracket,
        # no others: both blocks' at both ends
        assert len(calls) == 4 * k
        assert calls.count((801, 2.0)) == calls.count((800, 1.0)) == 2 * k
        assert all(1 <= i <= 60 for i in res.inverse_iterations)
        assert all(0.0 < r <= oracle._RESIDUAL_TOL for r in res.residuals)

    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_vectors_have_the_parity_of_their_block(self, geo):
        # each vector is mirrored from its half-grid block: even ones
        # bitwise mirror-symmetric, odd ones bitwise antisymmetric with an
        # exact 0 at the centre
        res = trap_eigensolve(QUARTZ, geo, 1)
        c = len(res.x) // 2
        for j in range(res.vectors.shape[1]):
            v = res.vectors[:, j]
            left = v[:c][::-1].tobytes()
            if j % 2 == 0:
                assert left == v[c + 1:].tobytes()
            else:
                assert left == (-v[c + 1:]).tobytes()
                assert v[c] == 0.0

    @pytest.mark.parametrize("geo", SOLVER_GEOMETRIES)
    def test_block_counts_add_up_to_the_whole_grid_count(self, geo):
        # the even block (the centre on, its first coupling doubled) and the
        # odd one (past the centre) split the whole grid's spectrum: their
        # counts add up to the whole grid's at seeded shifts over the four
        # solved levels, each kept 1e-6 away from every stencil level, and
        # at every bracket end the solve confirms
        diag, off, scale, level = solver_grid(QUARTZ, geo, 1)
        pivmin = 1e-14 * scale
        c = len(diag) // 2
        h = 16.0 / 1602.0
        stencils = [(2 * j + 1) * level * (1.0 - (2 * j * j + 2 * j + 1) * h * h / (16.0 * (2 * j + 1)))
                    for j in range(4)]
        rng = np.random.default_rng(21)
        shifts = [s for s in rng.uniform(0.0, 8.0 * level, 40)
                  if all(abs(s / t - 1.0) >= 1e-6 for t in stencils)][:16]
        assert len(shifts) == 16
        ends = [t * (1.0 + e) for t in stencils for e in (-1e-8, 1e-8)]
        for shift in shifts + ends:
            halves = (oracle._sturm_count((diag[c:] - shift).tolist(), off * off, pivmin, 2.0)
                      + oracle._sturm_count((diag[c + 1:] - shift).tolist(), off * off, pivmin, 1.0))
            assert halves == reference_sturm_count(diag - shift, off * off, pivmin)

    def test_eigenvalue_between_brackets_is_counted_at_the_next_one(self, monkeypatch):
        # the even block is given a copy of each odd eigenvalue 1.5 sqrt(k M)
        # lower, so lambda_1's copy lies between pair 0's bracket and pair
        # 1's: the whole-grid count at pair 1's lower end is then 2, not 1,
        # and the solve rejects that bracket
        sturm_count = oracle._sturm_count

        def with_copies(shifted, off2, pivmin, first):
            count = sturm_count(shifted, off2, pivmin, first)
            if first == 2.0:
                drop = 1.5 * math.sqrt(off2) * (16.0 / 1602.0) ** 2
                count += sturm_count([a - drop for a in shifted[1:]], off2, pivmin, 1.0)
            return count

        monkeypatch.setattr(oracle, "_sturm_count", with_copies)
        with pytest.raises(EigensolveConvergenceError, match=r"eigenvalue 1 is not alone.*\(Sturm counts 2 and 3\)"):
            trap_eigensolve(QUARTZ, GEO, 1)

    def test_even_grid_raises(self, monkeypatch):
        # an even grid has no centre point to split the blocks at
        monkeypatch.setattr(oracle, "_GRID_POINTS", 1600)
        with pytest.raises(ValueError, match="no centre point"):
            trap_eigensolve(QUARTZ, GEO, 1)

    @pytest.mark.parametrize("R,h0", [(GEO.R, GEO.h0), (GEO.L, GEO.h0), (1e3, 1e-6), (1.0, 1e-30), (1e200, 1e-30)])
    @pytest.mark.parametrize("n", [1, 3, 227])
    def test_harmonic_start_converges_in_one_iteration(self, R, h0, n):
        # the start vector is the harmonic eigenvector, whose part off the
        # solved one is under 5e-5 of its norm, and the shift lies
        # within 5.1e-10 of the eigenvalue: one inverse iteration reaches
        # the residual bound, at the geometries the oracle command is run at
        res = trap_eigensolve(QUARTZ, CavityGeometry(L=GEO.L, h0=h0, R=R), n)
        assert res.inverse_iterations == (1, 1, 1, 1)
        assert all(r <= 1e-9 for r in res.residuals)

    def test_unit_solve_is_the_same_at_every_trap(self):
        # geometry and overtone enter only as sigma and sqrt(k M): the
        # vectors and the work are the default trap's bit for bit, and the
        # eigenvalues and the grid in units of sqrt(k M) and sigma are its
        # to rounding, also where an SI-unit operator's squared grid
        # coupling would overflow (h0 = 1e-90, R = 1e-15)
        def unit(geo, n):
            res = trap_eigensolve(QUARTZ, geo, n)
            _, c_hat = stiffened_constants(QUARTZ, n)
            m_n, _ = dispersion_parameters(QUARTZ, n)
            k_pot = math.pi**2 * n**2 * c_hat / (8.0 * geo.R * geo.h0**3)
            work = res.vectors.tobytes(), res.inverse_iterations, res.residuals
            return work, res.lambdas / (math.sqrt(k_pot) * math.sqrt(m_n)), res.x * (k_pot / m_n) ** 0.25

        work, lambdas, s = unit(GEO, 1)
        for (R, h0), n in itertools.product([(GEO.L, GEO.h0), (1e3, 1e-6), (1e200, 1e-30), (1e-15, 1e-90)],
                                            (1, 3, 227)):
            other = unit(CavityGeometry(L=GEO.L, h0=h0, R=R), n)
            assert other[0] == work, (R, h0, n)
            np.testing.assert_allclose(other[1], lambdas, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(other[2], s, rtol=1e-14, atol=1e-14)

    def test_sturm_count_takes_tiny_pivots_as_minus_pivmin(self):
        pivmin = 1e-3
        # with off2 = 0 each pivot is its diagonal entry, so the entries
        # below hit the pivmin boundary exactly; first = 2 is the even
        # block's doubled coupling of rows 0 and 1
        values = [-2.0, -pivmin, -0.5 * pivmin, -0.0, 0.0, 0.5 * pivmin, pivmin, 2.0]
        rng = np.random.default_rng(3)
        for off2, first in itertools.product((0.0, 0.5, 3.0), (1.0, 2.0)):
            for _ in range(200):
                shifted = rng.choice(values, 12).tolist()
                assert oracle._sturm_count(shifted, off2, pivmin, first) == reference_sturm_count(
                    shifted, off2, pivmin, first
                )
