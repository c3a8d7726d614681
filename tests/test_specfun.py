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
    integrate_intervals,
)
from bawcav import specfun
from bawcav.specfun import _elementwise, _with_tails

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


# erf and erfc, each bound past which an array call fills a constant, and
# that constant; the bound itself is in the tail
TAILS = [
    (math.erf, -6.0, -1.0, -1),
    (math.erf, 6.0, 1.0, 1),
    (math.erfc, -6.0, 2.0, -1),
    (math.erfc, 28.0, 0.0, 1),
]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestErfTails:
    @pytest.mark.parametrize("fn, bound, constant, side", TAILS)
    def test_libm_is_the_constant_beyond_each_bound(self, fn, bound, constant, side):
        # dense beyond the bound, then out to the largest double
        beyond = np.concatenate([np.linspace(abs(bound), abs(bound) + 2.0, 200_001),
                                 np.geomspace(abs(bound) + 2.0, 1e308, 20_001),
                                 [np.nextafter(abs(bound), np.inf), np.finfo(float).max]])
        assert {fn(v) for v in (side * beyond).tolist()} == {constant}

    @pytest.mark.parametrize("fn", [erf, erfc])
    def test_array_call_is_each_element_call_bit_for_bit(self, fn):
        edges = [-0.0, 0.0, 1e308, -1e308, 28.0, -28.0]
        for bound in (6.0, -6.0, 28.0):
            edges += [bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)]
        x = np.concatenate([edges, np.linspace(-40.0, 40.0, 8001)])
        assert _bits(fn(x)) == _bits([fn(float(v)) for v in x.tolist()])
        transposed = fn(x.reshape(-1, 3).T)  # a strided view keeps its shape
        assert transposed.shape == (3, x.size // 3)
        assert _bits(transposed.T.ravel()) == _bits(fn(x))
        # with no element in a tail, and with no element at all
        inside = np.linspace(-5.9, 5.9, 199)
        assert _bits(fn(inside)) == _bits([fn(float(v)) for v in inside.tolist()])
        assert _bits(fn(inside[:198].reshape(-1, 2).T).T.ravel()) == _bits(fn(inside[:198]))
        assert fn(np.empty((0, 2))).shape == (0, 2)

    def test_function_runs_only_strictly_inside(self):
        seen = []

        def fn(v):
            seen.append(v)
            return 0.5

        x = np.array([-7.0, -6.0, -5.9, 0.0, 27.9, 28.0, 1e300])
        got = _with_tails(fn, -6.0, 28.0, 2.0, 0.0)(x)
        assert seen == [-5.9, 0.0, 27.9]
        assert got.tolist() == [2.0, 2.0, 0.5, 0.5, 0.5, 0.0, 0.0]


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

    def test_order_zero_is_ones_of_the_shape_of_x(self):
        # H_0 = 1 at x = +-inf too, and a float stays a float
        assert hermite(0, math.inf) == 1.0
        assert type(hermite(0, -math.inf)) is float
        assert hermite(0, np.array([[-np.inf, 0.0, np.inf]])).tolist() == [[1.0, 1.0, 1.0]]


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
        for x_bounds, y_bounds in (((1, 0), (0, 1)), ((0, math.inf), (0, 1)), ((0, 1), (math.nan, 1))):
            with pytest.raises(ValueError):
                integrate_2d(lambda x, y: x + y, x_bounds, y_bounds)

    def test_depth_exhaustion(self):
        f = lambda x, y: 1.0 / (1e-10 + (x - 0.3) ** 2 + (y - 0.6) ** 2)
        shallow = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_depth=3)
        with pytest.raises(QuadratureConvergenceError, match="integrate_2d"):
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
    # separable, as the mode shapes are
    return np.exp(-x * x) * np.exp(-2.0 * y * y)


def iterated(f, x_bounds, y_bounds, spec=DEFAULT_QUADRATURE):
    # the integral over x of the integral over y, one lone integrate_1d per
    # x node: what integrate_2d computes with its inner passes batched
    def over_y(xs):
        return np.array([integrate_1d(lambda y: f(np.full_like(y, x), y), *y_bounds, spec) for x in xs])

    return integrate_1d(over_y, *x_bounds, spec)


class TestQuadratureRectangles:
    # integrate_2d's two passes: the inner pass refines the y integrals of
    # all x nodes of a chunk of outer rows together
    # rectangles that converge after 2, 31 and 20 integrand calls
    RECTS = [((-0.5, 0.5), (-0.5, 0.5)), ((-6.0, 6.0), (-6.0, 6.0)), ((0.3, 9.0), (-7.5, 1.0))]

    def test_nodes_broadcast_per_axis(self):
        xs, ys = [], []

        def f(x, y):
            xs.append(x.reshape(-1, 15))
            ys.append(y.reshape(-1, 15))
            return gaussian_bump(x, y)

        (ax, bx), (ay, by) = self.RECTS[1]
        integrate_2d(f, (ax, bx), (ay, by))
        # first call: each of the 15 x nodes of the whole x side against the
        # 15 y nodes of the whole y side
        np.testing.assert_array_equal(xs[0], np.repeat((ax + (bx - ax) * specfun._GK_NODES)[:, None], 15, axis=1))
        np.testing.assert_array_equal(ys[0], np.tile(ay + (by - ay) * specfun._GK_NODES, (15, 1)))
        # every row holds one x node against the 15 y nodes of one sub-interval
        assert len(xs) > 1
        for x, y in zip(xs, ys):
            assert np.all(x == x[:, :1])
            assert np.all((ax < x) & (x < bx) & (ay < y) & (y < by))
            assert np.all(np.diff(y, axis=1) != 0.0)

    def test_batch_invariance_on_random_integrands(self):
        # exp(-a x^2 - b y^2) cos(c x y + x) on 2-3 random rectangles each:
        # every value is bit for bit the iterated integral of lone 1-D calls
        spec = QuadratureSpec(rel_tol=1e-10)
        rng = np.random.default_rng(5)
        count = 0
        for _ in range(20):
            a, b = rng.uniform(0.2, 3.0, 2)
            c = rng.uniform(-3.0, 3.0)
            f = lambda x, y, a=a, b=b, c=c: np.exp(-a * x * x - b * y * y) * np.cos(c * x * y + x)
            for _ in range(rng.integers(2, 4)):
                x0, y0 = rng.uniform(-4.0, 3.0, 2)
                wx, wy = rng.uniform(0.1, 4.0, 2)
                rect = ((x0, x0 + wx), (y0, y0 + wy))
                assert integrate_2d(f, *rect, spec) == iterated(f, *rect, spec)
                count += 1
        assert count == 52

    def test_each_value_is_the_one_box_value(self):
        calls = []
        for rect in self.RECTS:
            f, sizes = counted(gaussian_bump)
            integrate_2d(f, *rect)
            calls.append(len(sizes))
        assert calls == [2, 31, 20]  # each converges at its own depth
        vals = [integrate_2d(gaussian_bump, *rect, TIGHT) for rect in self.RECTS]
        assert vals == [iterated(gaussian_bump, *rect, TIGHT) for rect in self.RECTS]
        assert vals[1] == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-13)

    def test_depth_exhaustion_names_its_own_box(self):
        # the raise carries, bit for bit, the estimate and bound of the lone
        # inner call at the first x node whose y integral fails alone
        peak = lambda x, y: 1.0 / (1e-10 + (x - 0.3) ** 2 + (y - 0.6) ** 2)
        shallow = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_depth=3)
        with pytest.raises(QuadratureConvergenceError, match="integrate_2d did not converge within depth 3") as err:
            integrate_2d(peak, (0, 1), (0, 1), shallow)
        lone = []
        for x in specfun._GK_NODES:
            try:
                integrate_1d(lambda y: peak(np.full_like(y, x), y), 0.0, 1.0, shallow)
            except QuadratureConvergenceError as e:
                lone.append(e)
        assert len(lone) == 5
        assert err.value.estimate == lone[0].estimate
        assert err.value.error_bound == lone[0].error_bound

    def test_non_finite_integrand(self):
        f = lambda x, y: 1.0 / (x * y)
        assert integrate_2d(f, (1, 2), (1, 2)) == pytest.approx(math.log(2.0) ** 2, rel=1e-13)
        with np.errstate(divide="ignore", over="ignore"):
            for g, rect in ((f, ((-1, 1), (-1, 1))), (lambda x, y: np.exp(1e3 * x * y), ((1, 2), (1, 2)))):
                with pytest.raises(ValueError, match="non-finite"):
                    integrate_2d(g, *rect)


def runaway(x, box=None):
    # exp(-7 x^2 / 2) H_3(sqrt(7) x), squared: on [1, 6], rel_tol 1e-16 lies
    # below the rule's rounding floor, so its rows never all pass
    return (np.exp(-3.5 * x * x) * hermite(3, math.sqrt(7.0) * x)) ** 2


BELOW_ROUNDING = QuadratureSpec(rel_tol=1e-16, abs_tol=1e-300, max_depth=40)


def random_intervals(rng, count):
    # count random (a, b) intervals of widths 0.1 to 6 on [-5, 7]
    a = rng.uniform(-5.0, 1.0, count)
    return list(zip(a.tolist(), (a + rng.uniform(0.1, 6.0, count)).tolist()))


class TestQuadratureIntervals:
    def test_nodes_are_rows_of_15(self):
        shapes, boxes = [], []

        def f(x, box):
            shapes.append((x.shape, box.shape))
            boxes.append(box.ravel().tolist())
            return np.exp(-x * x)

        vals = integrate_intervals(f, [(-0.5, 0.5), (-6.0, 6.0), (0.3, 9.0)])
        assert shapes[0] == ((3, 15), (3, 1))
        assert boxes[0] == [0, 1, 2]
        assert all(sx[1:] == (15,) and sb[1:] == (1,) and sx[0] == sb[0] for sx, sb in shapes)
        assert sorted(boxes[1]) == [1, 1, 2, 2]  # the first converges at once
        assert vals[1] == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_batched_values_are_lone_calls_and_integrate_1d(self):
        # exp(-a x^2) cos(c x + d), 40 random parameter sets on 1-6 random
        # intervals each: one call for all of them, each set gathered by its
        # rows' box indices, gives every value bit for bit as the interval
        # alone does, and as integrate_1d does
        rng = np.random.default_rng(11)
        params, intervals = [], []
        for _ in range(40):
            a, c, d = rng.uniform(0.1, 3.0), rng.uniform(-4.0, 4.0), rng.uniform(0.0, 3.0)
            for iv in random_intervals(rng, int(rng.integers(1, 7))):
                params.append((a, c, d))
                intervals.append(iv)
        a, c, d = (np.array(v) for v in zip(*params))

        def every(x, box):
            return np.exp(-a[box] * x * x) * np.cos(c[box] * x + d[box])

        together = integrate_intervals(every, intervals, TIGHT)
        for k, (iv, (ak, ck, dk)) in enumerate(zip(intervals, params)):
            one = lambda x, *_: np.exp(-ak * x * x) * np.cos(ck * x + dk)
            assert together[k] == integrate_intervals(one, [iv], TIGHT)[0] == integrate_1d(one, *iv, TIGHT)

    def test_depth_exhaustion_names_its_own_interval(self):
        peak = lambda x, box=None: 1.0 / (1e-12 + (x - 0.3) ** 2)
        shallow = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_depth=3)
        with pytest.raises(QuadratureConvergenceError) as alone:
            integrate_1d(peak, 0.0, 1.0, shallow)
        with pytest.raises(QuadratureConvergenceError, match="integrate_intervals") as together:
            integrate_intervals(peak, [(2.0, 3.0), (0.0, 1.0), (-3.0, -2.0)], shallow)
        assert together.value.estimate == alone.value.estimate
        assert together.value.error_bound == alone.value.error_bound

    def test_non_finite_integrand(self):
        for f in (lambda x, box: 1.0 / x, lambda x, box: np.exp(1e3 * x)):
            with np.errstate(divide="ignore", over="ignore"):
                with pytest.raises(ValueError, match="non-finite"):
                    integrate_intervals(f, [(1.0, 2.0), (-1.0, 1.0)])

    def test_integrand_gets_at_most_a_chunk_of_rows(self):
        rows = []

        def f(x, box):
            rows.append(len(box))
            return np.exp(-x * x)

        integrate_intervals(f, [(-6.0 + 0.01 * k, 6.0) for k in range(300)])
        assert max(rows) == specfun._CHUNK_ROWS
        assert rows[:2] == [specfun._CHUNK_ROWS, 300 - specfun._CHUNK_ROWS]

    def test_value_per_row_is_broadcast(self):
        # a (k, 1) value is constant along each row of nodes
        scale = np.array([2.0, 3.0])
        assert integrate_intervals(lambda x, box: scale[box], [(0.0, 1.0), (2.0, 5.0)]) == [2.0, 9.0]

    def test_runaway_tolerance_stops_at_the_row_limit(self):
        # more than _MAX_PENDING_ROWS pending rows raise with the best
        # estimate after about 44,000 integrand points; without the limit
        # the run bisects to max_depth through some 64 million
        f, sizes = counted(runaway)
        with pytest.raises(QuadratureConvergenceError, match=f"{specfun._MAX_PENDING_ROWS} pending rows") as err:
            integrate_1d(f, 1.0, 6.0, BELOW_ROUNDING)
        assert sum(sizes) <= 100_000
        assert err.value.estimate == pytest.approx(integrate_1d(runaway, 1.0, 6.0, TIGHT), rel=1e-13)
        assert 0.0 < err.value.error_bound < 1e-15

    def test_row_limit_names_its_own_interval(self):
        # in a batch whose other intervals converge, the runaway interval
        # raises with bit for bit its lone call's estimate and bound
        with pytest.raises(QuadratureConvergenceError) as alone:
            integrate_1d(runaway, 1.0, 6.0, BELOW_ROUNDING)
        converging = [(0.0, 1.0), (-1.0, 1.0), (0.5, 1.5)]
        assert len(integrate_intervals(lambda x, box: np.exp(-x * x), converging, BELOW_ROUNDING)) == 3
        f = lambda x, box: np.where(box == 1, runaway(x), np.exp(-x * x))
        with pytest.raises(QuadratureConvergenceError, match="integrate_intervals.*pending rows") as together:
            integrate_intervals(f, converging[:1] + [(1.0, 6.0)] + converging[1:], BELOW_ROUNDING)
        assert together.value.estimate == alone.value.estimate
        assert together.value.error_bound == alone.value.error_bound

    def test_bad_interval_and_no_interval(self):
        f = lambda x, box: x
        for bad in ((1.0, 0.0), (0.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="bad interval"):
                integrate_intervals(f, [(0.0, 1.0), bad])
        assert integrate_intervals(f, []) == []
