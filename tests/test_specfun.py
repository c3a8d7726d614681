"""Special functions and quadrature, checked against in-test oracles."""

import math

import numpy as np
import pytest

from bawcav.specfun import (
    DEFAULT_QUADRATURE,
    QuadratureConvergenceError,
    QuadratureSpec,
    erf,
    erf_inv,
    erfc,
    erfcx,
    hermite,
    integrate_1d,
    integrate_2d,
    integrate_rectangles,
)
from bawcav.specfun import _elementwise

TIGHT = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_depth=40)


def counted(f):
    # f, plus a list that collects how many points each batched call asked for
    sizes = []

    def g(*coords):
        sizes.append(coords[0].size)
        return f(*coords)

    return g, sizes


def erf_by_quadrature(x: float) -> float:
    # independent oracle: (2/sqrt(pi)) * integral of exp(-t^2) from 0 to x
    if x == 0.0:
        return 0.0
    sign = 1.0 if x > 0 else -1.0
    val = integrate_1d(lambda t: np.exp(-t * t), 0.0, abs(x), TIGHT)
    return sign * 2.0 / math.sqrt(math.pi) * val


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_value_at_one_vs_quadrature(self):
        assert erf(1.0) == pytest.approx(erf_by_quadrature(1.0), rel=1e-14)
        assert erf(1.0) == pytest.approx(0.8427007929, abs=5e-11)

    def test_odd_symmetry_of_known_value(self):
        assert erf(-1.0) == -erf(1.0)
        assert erf(-1.0) == pytest.approx(-0.8427007929, abs=5e-11)

    @pytest.mark.parametrize("x", [0.07, 0.31, 0.5, 0.93, 1.7, 2.4, 3.3, 4.1, 5.2])
    def test_against_quadrature_grid(self, x):
        assert erf(x) == pytest.approx(erf_by_quadrature(x), rel=1e-13)

    def test_range(self):
        for x in np.linspace(-9, 9, 201):
            assert -1.0 <= erf(float(x)) <= 1.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            erf(bad)


class TestErfInv:
    def test_zero(self):
        assert erf_inv(0.0) == 0.0

    def test_inverse_of_erf_at_one(self):
        # the 10-digit printed value limits how closely 1.0 can be recovered
        assert erf_inv(0.8427007929) == pytest.approx(1.0, abs=2e-10)
        assert erf_inv(erf(1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_three_sigma_point_vs_bisection(self):
        # oracle: root-solve erf(x) = y by bisection
        y = 0.9973002039
        lo, hi = 0.0, 6.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if erf(mid) < y:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert erf_inv(y) == pytest.approx(root, abs=1e-13)
        assert erf_inv(y) == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-6)

    def test_forward_consistency(self):
        for y in np.linspace(-0.9999, 0.9999, 41):
            assert erf(erf_inv(float(y))) == pytest.approx(float(y), abs=1e-12)

    def test_deep_tail(self):
        y = 1.0 - 1e-13
        assert erf(erf_inv(y)) == pytest.approx(y, abs=1e-12)

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            erf_inv(bad)


class TestErfcFamily:
    def test_complement_identity(self):
        for x in np.linspace(-3, 3, 25):
            assert erfc(float(x)) == pytest.approx(1.0 - erf(float(x)), rel=1e-12, abs=1e-16)

    def test_scaled_identity(self):
        for x in (0.1, 0.9, 2.2, 4.0, 6.5):
            assert erfcx(x) * math.exp(-x * x) == pytest.approx(erfc(x), rel=1e-12)

    def test_large_argument_asymptote(self):
        # erfcx(x) ~ 1/(x sqrt(pi)) for large x
        x = 50.0
        assert erfcx(x) == pytest.approx(1.0 / (x * math.sqrt(math.pi)), rel=1e-3)

    def test_erfcx_domain(self):
        with pytest.raises(ValueError):
            erfcx(-1.0)


@pytest.mark.parametrize("x", [
    np.array(0.7),
    np.linspace(-3.0, 3.0, 12).reshape(3, 4),
    np.empty((0, 3)),
    np.linspace(0.1, 5.0, 20)[::3],
    np.linspace(0.1, 5.0, 24).reshape(4, 6)[:, ::2].T,
], ids=["0-d", "2-D", "empty", "strided", "transposed"])
@pytest.mark.parametrize("fn", [math.erf, math.exp, lambda v: v**2], ids=["erf", "exp", "pow2"])
def test_elementwise_is_the_function_of_each_element(fn, x):
    got = _elementwise(fn)(x)
    assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == x.shape
    want = [fn(v) for v in x.ravel().tolist()]
    assert got.ravel().tolist() == want


def test_elementwise_of_a_float_is_a_float():
    assert _elementwise(math.erfc)(0.3) == math.erfc(0.3)
    assert type(_elementwise(math.erfc)(np.float64(0.3))) is float


class TestHermite:
    def test_low_orders(self):
        assert hermite(0, 3.7) == 1.0
        assert hermite(1, 3.7) == 2 * 3.7
        assert hermite(2, 1.0) == 2.0

    def test_order_four_matches_polynomial(self):
        # recurrence oracle equals 16x^4 - 48x^2 + 12
        x = 0.5
        poly = 16 * x**4 - 48 * x**2 + 12
        assert hermite(4, x) == poly == 1.0

    def test_recurrence_relation(self):
        x = 0.37
        for k in range(1, 12):
            assert hermite(k + 1, x) == pytest.approx(
                2 * x * hermite(k, x) - 2 * k * hermite(k - 1, x), rel=1e-14
            )

    def test_array_input(self):
        xs = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(hermite(2, xs), 4 * xs**2 - 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)


class TestQuadrature1D:
    def test_monomial(self):
        assert integrate_1d(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_gaussian_half_line(self):
        val = integrate_1d(lambda x: np.exp(-x * x), 0.0, 12.0)
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)

    def test_quintic_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            c = rng.uniform(-2, 2, 6)
            a, b = -1.3, 2.1
            val = integrate_1d(lambda x: sum(ci * x**i for i, ci in enumerate(c)), a, b)
            ref = sum(ci * (b ** (i + 1) - a ** (i + 1)) / (i + 1) for i, ci in enumerate(c))
            assert val == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_degree_13_in_one_box(self):
        # G7 is exact to degree 13, so |K15 - G7| is rounding and the first
        # box, 15 Kronrod nodes, already meets the tolerance
        c = np.random.default_rng(11).uniform(-2, 2, 14)
        a, b = -1.3, 2.1
        f, sizes = counted(lambda x: np.polynomial.polynomial.polyval(x, c))
        val = integrate_1d(f, a, b)
        ref = sum(ci * (b ** (i + 1) - a ** (i + 1)) / (i + 1) for i, ci in enumerate(c))
        assert sizes == [15]
        assert val == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_gaussian_refines(self):
        f, sizes = counted(lambda x: np.exp(-x * x))
        assert integrate_1d(f, 0.0, 12.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)
        assert len(sizes) > 1  # refined past depth 0

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 0.0)

    def test_non_finite_integrand(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError):
                integrate_1d(lambda x: 1.0 / x, -1.0, 1.0)

    def test_depth_exhaustion_carries_estimate(self):
        f = lambda x: 1.0 / (1e-12 + (x - 0.3) ** 2)
        shallow = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_depth=4)
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_1d(f, 0.0, 1.0, shallow)
        assert err.value.estimate > 0
        assert err.value.error_bound > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_depth=0)
        assert DEFAULT_QUADRATURE.rel_tol == 1e-10
        assert DEFAULT_QUADRATURE.abs_tol == 1e-14
        assert DEFAULT_QUADRATURE.max_depth == 30


class TestQuadrature2D:
    def test_gaussian_square(self):
        # product of 1-D quadratures is the oracle
        one_d = integrate_1d(lambda x: np.exp(-x * x), -1.0, 1.0, TIGHT)
        val = integrate_2d(lambda x, y: np.exp(-x * x - y * y), (-1, 1), (-1, 1))
        assert val == pytest.approx(one_d**2, rel=1e-10)
        assert val == pytest.approx(2.23098514140413, rel=1e-10)

    def test_separable_polynomial(self):
        val = integrate_2d(lambda x, y: x**2 * y**4, (0, 1), (0, 2))
        assert val == pytest.approx((1.0 / 3.0) * (32.0 / 5.0), rel=1e-13)

    def test_degree_13_per_axis_in_one_box(self):
        # a full (not separable) polynomial of degree 13 in x and in y: one
        # box of 15 x 15 nodes
        c = np.random.default_rng(13).uniform(-2, 2, (14, 14))
        (ax, bx), (ay, by) = (-1.3, 2.1), (0.4, 1.9)
        f, sizes = counted(lambda x, y: np.polynomial.polynomial.polyval2d(x, y, c))
        val = integrate_2d(f, (ax, bx), (ay, by))
        k = np.arange(1, 15)
        mx = (bx**k - ax**k) / k
        my = (by**k - ay**k) / k
        assert sizes == [225]
        assert val == pytest.approx(mx @ c @ my, rel=1e-13, abs=1e-13)

    def test_gaussian_refines(self):
        f, sizes = counted(lambda x, y: np.exp(-x * x - y * y))
        val = integrate_2d(f, (-6, 6), (-6, 6))
        assert val == pytest.approx(math.pi, rel=1e-13)
        assert len(sizes) > 1  # refined past depth 0

    def test_bad_rectangle(self):
        with pytest.raises(ValueError):
            integrate_2d(lambda x, y: x + y, (1, 0), (0, 1))

    def test_depth_exhaustion(self):
        f = lambda x, y: 1.0 / (1e-10 + (x - 0.3) ** 2 + (y - 0.6) ** 2)
        shallow = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_depth=3)
        with pytest.raises(QuadratureConvergenceError):
            integrate_2d(f, (0, 1), (0, 1), shallow)

    def test_integrand_gets_equal_shape_1d_arrays(self):
        shapes = []

        def f(x, y):
            shapes.append((x.shape, y.shape))
            return np.exp(-x * x - y * y)

        integrate_2d(f, (-6, 6), (-6, 6))
        assert len(shapes) > 1
        assert all(sx == sy and len(sx) == 1 for sx, sy in shapes)


def gaussian_bump(x, y):
    # a broadcasting integrand, separable as the mode shapes are
    return np.exp(-x * x) * np.exp(-2.0 * y * y)


class TestQuadratureRectangles:
    # rectangles that converge at depths 1, 5 and 4 when refined alone
    RECTS = [((-0.5, 0.5), (-0.5, 0.5)), ((-6.0, 6.0), (-6.0, 6.0)), ((0.3, 9.0), (-7.5, 1.0))]

    def test_nodes_broadcast_per_axis(self):
        shapes = []

        def f(x, y):
            shapes.append((x.shape, y.shape))
            return gaussian_bump(x, y)

        integrate_rectangles(f, self.RECTS)
        assert shapes[0] == ((3, 15, 1), (3, 1, 15))
        assert all(sx[1:] == (15, 1) and sy[1:] == (1, 15) and sx[0] == sy[0] for sx, sy in shapes)

    def test_each_value_is_the_one_box_value(self):
        depths = []
        for rect in self.RECTS:
            f, sizes = counted(gaussian_bump)
            integrate_rectangles(f, [rect])
            depths.append(len(sizes))
        assert len(set(depths)) == len(depths)  # each converges at its own depth
        together = integrate_rectangles(gaussian_bump, self.RECTS, TIGHT)
        alone = [integrate_2d(gaussian_bump, *rect, TIGHT) for rect in self.RECTS]
        assert together == alone
        assert together[1] == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-13)

    def test_function_of_one_axis_is_broadcast(self):
        val = integrate_rectangles(lambda x, y: x * x, [((0, 1), (0, 2))])[0]
        assert val == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_depth_exhaustion_names_its_own_box(self):
        peak = lambda x, y: 1.0 / (1e-10 + (x - 0.3) ** 2 + (y - 0.6) ** 2)
        shallow = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_depth=3)
        with pytest.raises(QuadratureConvergenceError) as alone:
            integrate_2d(peak, (0, 1), (0, 1), shallow)
        with pytest.raises(QuadratureConvergenceError) as together:
            integrate_rectangles(peak, [((2, 3), (2, 3)), ((0, 1), (0, 1)), ((-3, -2), (0, 1))], shallow)
        assert together.value.estimate == alone.value.estimate
        assert together.value.error_bound == alone.value.error_bound

    def test_non_finite_integrand(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                integrate_rectangles(lambda x, y: 1.0 / (x * y), [((1, 2), (1, 2)), ((-1, 1), (-1, 1))])

    def test_bad_rectangle_and_no_rectangle(self):
        with pytest.raises(ValueError):
            integrate_rectangles(gaussian_bump, [((0, 1), (0, 1)), ((1, 0), (0, 1))])
        assert integrate_rectangles(gaussian_bump, []) == []
