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


def gaussian_bump(x, y, box=None):
    # a broadcasting integrand, separable as the mode shapes are, that does
    # not read the box index the engine hands it
    return np.exp(-x * x) * np.exp(-2.0 * y * y)


def rectangles(f, rects, spec=DEFAULT_QUADRATURE):
    # several rectangles refined together in one pass of the engine, as
    # integrate_intervals refines intervals: f(x, y, box) gets x of shape
    # (k, 15, 1), y of shape (k, 1, 15) and box of shape (k, 1, 1)
    return specfun._integrate(f, [specfun._rectangle(*r) for r in rects], spec, "rectangles")


class TestQuadratureRectangles:
    # the engine's batching in two axes, where each row is a 15 x 15 grid
    # rectangles that converge at depths 1, 5 and 4 when refined alone
    RECTS = [((-0.5, 0.5), (-0.5, 0.5)), ((-6.0, 6.0), (-6.0, 6.0)), ((0.3, 9.0), (-7.5, 1.0))]

    def test_nodes_broadcast_per_axis(self):
        shapes, boxes = [], []

        def f(x, y, box):
            shapes.append((x.shape, y.shape, box.shape))
            boxes.append(box.ravel().tolist())
            return gaussian_bump(x, y)

        rectangles(f, self.RECTS)
        assert shapes[0] == ((3, 15, 1), (3, 1, 15), (3, 1, 1))
        assert boxes[0] == [0, 1, 2]
        assert all(sx[1:] == (15, 1) and sy[1:] == (1, 15) and sb[1:] == (1, 1) and sx[0] == sy[0] == sb[0]
                   for sx, sy, sb in shapes)
        # each sweep's rows name their rectangles: the four children of each
        # at depth 1, then only those of the two still refining
        assert sorted(boxes[1]) == [0] * 4 + [1] * 4 + [2] * 4
        assert set(boxes[2]) == {1, 2}

    def test_integrand_gets_at_most_a_chunk_of_rows(self):
        rows = []

        def f(x, y, box):
            rows.append(len(box))
            return gaussian_bump(x, y)

        rects = [((-6.0 + 0.01 * k, 6.0), (-6.0, 6.0)) for k in range(300)]
        rectangles(f, rects)
        assert max(rows) == specfun._CHUNK_ROWS
        assert rows[:2] == [specfun._CHUNK_ROWS, 300 - specfun._CHUNK_ROWS]

    def test_batch_invariance_on_random_integrands(self):
        # exp(-a x^2 - b y^2) cos(c x y + x) on 2-5 random rectangles each:
        # every value is what the rectangle alone gives, and one call for all
        # 60 integrands, each picked by its rectangles' box indices, gives
        # the same values again
        spec = QuadratureSpec(rel_tol=1e-10)
        rng = np.random.default_rng(5)
        cases, rects, alone = [], [], []
        for _ in range(60):
            a, b = rng.uniform(0.2, 3.0, 2)
            c = rng.uniform(-3.0, 3.0)
            f = lambda x, y, *_, a=a, b=b, c=c: np.exp(-a * x * x - b * y * y) * np.cos(c * x * y + x)
            mine = []
            for _ in range(rng.integers(2, 6)):
                x0, y0 = rng.uniform(-4.0, 3.0, 2)
                wx, wy = rng.uniform(0.1, 4.0, 2)
                mine.append(((x0, x0 + wx), (y0, y0 + wy)))
            assert rectangles(f, mine, spec) == [integrate_2d(f, *r, spec) for r in mine]
            cases += [(a, b, c)] * len(mine)
            rects += mine
            alone += [integrate_2d(f, *r, spec) for r in mine]
        assert len(rects) == 216
        a, b, c = (np.array(v) for v in zip(*cases))

        def every(x, y, box):
            return np.exp(-a[box] * x * x - b[box] * y * y) * np.cos(c[box] * x * y + x)

        assert rectangles(every, rects, spec) == alone

    def test_each_value_is_the_one_box_value(self):
        depths = []
        for rect in self.RECTS:
            f, sizes = counted(gaussian_bump)
            rectangles(f, [rect])
            depths.append(len(sizes))
        assert len(set(depths)) == len(depths)  # each converges at its own depth
        together = rectangles(gaussian_bump, self.RECTS, TIGHT)
        alone = [integrate_2d(gaussian_bump, *rect, TIGHT) for rect in self.RECTS]
        assert together == alone
        assert together[1] == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-13)

    def test_function_of_one_axis_is_broadcast(self):
        val = rectangles(lambda x, y, box: x * x, [((0, 1), (0, 2))])[0]
        assert val == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_depth_exhaustion_names_its_own_box(self):
        peak = lambda x, y, box=None: 1.0 / (1e-10 + (x - 0.3) ** 2 + (y - 0.6) ** 2)
        shallow = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_depth=3)
        with pytest.raises(QuadratureConvergenceError) as alone:
            integrate_2d(peak, (0, 1), (0, 1), shallow)
        with pytest.raises(QuadratureConvergenceError) as together:
            rectangles(peak, [((2, 3), (2, 3)), ((0, 1), (0, 1)), ((-3, -2), (0, 1))], shallow)
        assert together.value.estimate == alone.value.estimate
        assert together.value.error_bound == alone.value.error_bound

    def test_non_finite_integrand(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                rectangles(lambda x, y, box: 1.0 / (x * y), [((1, 2), (1, 2)), ((-1, 1), (-1, 1))])


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

    def test_bad_interval_and_no_interval(self):
        f = lambda x, box: x
        for bad in ((1.0, 0.0), (0.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="bad interval"):
                integrate_intervals(f, [(0.0, 1.0), bad])
        assert integrate_intervals(f, []) == []
