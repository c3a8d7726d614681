"""Special functions and adaptive quadrature.

Everything here is pure and reentrant: no caches, no global mutable state,
safe for concurrent callers.  ``erf`` and ``erfc`` are input-checked
wrappers of ``math.erf`` and ``math.erfc``; ``erfcx`` adds a continued
fraction for the range where erfc underflows.  The quadrature
routines below are independent of them, so the test suite uses
``integrate_1d`` as the reference for erf, and the 2-D oracles use
``integrate_2d`` as the reference for every closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "erf",
    "erfc",
    "erfcx",
    "erf_inv",
    "hermite",
    "integrate_1d",
    "integrate_2d",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_PI = math.sqrt(math.pi)


class QuadratureConvergenceError(ArithmeticError):
    """Adaptive refinement hit the depth limit before meeting tolerance.

    Carries the best available estimate and the corresponding error bound so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and refinement budget for the adaptive integrators."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_depth: int = 30

    def __post_init__(self):
        if not (self.rel_tol > 0.0) or not (self.abs_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


# ---------------------------------------------------------------------------
# error-function family
# ---------------------------------------------------------------------------

def _erfcx_cf(x: float) -> float:
    # Scaled complementary error function by Laplace continued fraction,
    # evaluated with the modified Lentz algorithm.  Reliable for x >= 2.
    tiny = 1e-300
    b = x
    f = b if b != 0.0 else tiny
    c = f
    d = 0.0
    j = 0
    while True:
        j += 1
        a = 0.5 * j
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16 or j > 300:
            break
    return 1.0 / (_SQRT_PI * f)


def erf(x: float) -> float:
    """Error function, odd in x, range [-1, 1]; ``math.erf`` with finite input."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"erf requires finite input, got {x!r}")
    return math.erf(x)


def erfc(x: float) -> float:
    """Complementary error function 1 - erf(x); ``math.erfc`` with finite input."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"erfc requires finite input, got {x!r}")
    return math.erfc(x)


def erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0.

    ``math.erfc`` below 2, where e^{x^2} cannot overflow; a continued
    fraction beyond, where erfc itself underflows for x > ~27.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"erfcx requires finite non-negative input, got {x!r}")
    if x < 2.0:
        return math.exp(x * x) * math.erfc(x)
    return _erfcx_cf(x)


def _erf_inv_tail(c: float) -> float:
    # Solve erfc(x) = c for small c via Newton on g(x) = ln erfc(x) - ln c.
    # g'(x) = -(2/sqrt(pi)) / erfcx(x).
    lc = math.log(c)
    x = math.sqrt(max(-lc, 1.0))
    for _ in range(3):  # fixed-point refinement of the asymptotic start
        x = math.sqrt(max(-lc - math.log(x * _SQRT_PI), 1.0))
    for _ in range(60):
        g = math.log(erfcx(x)) - x * x - lc
        step = g * erfcx(x) / _TWO_OVER_SQRT_PI
        x += step
        if abs(step) < 1e-16 * x:
            break
    return x


def erf_inv(y: float) -> float:
    """Inverse error function on (-1, 1).

    Winitzki-style initial guess polished by Newton iterations on erf; the
    deep tail (|y| > 0.9999) switches to a log-domain Newton solve on erfc
    to stay stable as y -> 1.
    """
    y = float(y)
    if not math.isfinite(y) or abs(y) >= 1.0:
        raise ValueError(f"erf_inv requires |y| < 1, got {y!r}")
    if y == 0.0:
        return 0.0
    sign = 1.0 if y > 0 else -1.0
    ay = abs(y)
    if ay > 0.9999:
        return sign * _erf_inv_tail(1.0 - ay)
    # initial guess (Winitzki 2008 approximation, ~1e-2 accurate)
    a = 0.147
    ln1my2 = math.log1p(-ay * ay)
    u = 2.0 / (math.pi * a) + 0.5 * ln1my2
    x = math.sqrt(math.sqrt(u * u - ln1my2 / a) - u)
    for _ in range(60):
        step = (erf(x) - ay) / (_TWO_OVER_SQRT_PI * math.exp(-x * x))
        x -= step
        if abs(step) < 1e-16 * max(1.0, x):
            break
    return sign * x


# ---------------------------------------------------------------------------
# Hermite polynomials (physicists' convention)
# ---------------------------------------------------------------------------

def hermite(k: int, x):
    """H_k(x) by the three-term recurrence H_{k+1} = 2x H_k - 2k H_{k-1}.

    Works elementwise when ``x`` is a numpy array; exact in exact arithmetic
    since only integer-weighted products are involved.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"hermite order must be a non-negative integer, got {k!r}")
    k = int(k)
    h_prev = 1.0 + 0.0 * x  # promotes to an array of ones when x is an array
    if k == 0:
        return h_prev
    h = 2.0 * x
    for j in range(1, k):
        h, h_prev = 2.0 * x * h - (2.0 * j) * h_prev, h
    return h


# ---------------------------------------------------------------------------
# adaptive quadrature (Boole-rule bisection, batched over panels)
# ---------------------------------------------------------------------------

_BOOLE_W = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 90.0


def _check_finite(vals: np.ndarray):
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned a non-finite value")


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive composite Boole integration of f over [a, b].

    ``f`` must accept a 1-D numpy array and return values elementwise.  Each
    panel is compared against its bisected refinement (Richardson estimate
    |fine - coarse| / 63); panels whose error exceeds their length-weighted
    share of the tolerance are split.  Raises QuadratureConvergenceError if
    the depth budget runs out, carrying the best estimate and error bound.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"bad interval [{a!r}, {b!r}]")
    total_len = b - a

    lows = np.array([a])
    highs = np.array([b])
    depths = np.array([0])
    xs = np.linspace(a, b, 5)
    fv = np.asarray(f(xs), dtype=float).reshape(1, 5)
    _check_finite(fv)
    coarse = (highs - lows) * (fv @ _BOOLE_W)

    done_vals: list[float] = []
    done_errs: list[float] = []

    for _ in range(spec.max_depth + 1):
        K = len(lows)
        h = highs - lows
        # 4 new nodes per panel at odd eighths
        offs = np.array([1.0, 3.0, 5.0, 7.0]) / 8.0
        newx = (lows[:, None] + h[:, None] * offs[None, :]).ravel()
        newf = np.asarray(f(newx), dtype=float).reshape(K, 4)
        _check_finite(newf)
        # child sample sets: even indices come from the parent 5-point grid
        left = np.stack([fv[:, 0], newf[:, 0], fv[:, 1], newf[:, 1], fv[:, 2]], axis=1)
        right = np.stack([fv[:, 2], newf[:, 2], fv[:, 3], newf[:, 3], fv[:, 4]], axis=1)
        fine = 0.5 * h * ((left @ _BOOLE_W) + (right @ _BOOLE_W))
        err = np.abs(fine - coarse) / 63.0

        est_total = math.fsum(done_vals) + float(np.sum(fine))
        tol = max(spec.abs_tol, spec.rel_tol * abs(est_total))
        budget = tol * (h / total_len)
        ok = err <= budget

        done_vals.extend(fine[ok].tolist())
        done_errs.extend(err[ok].tolist())
        if np.all(ok):
            return math.fsum(done_vals)

        # split the panels that failed
        bad = ~ok
        mid = 0.5 * (lows[bad] + highs[bad])
        nd = depths[bad] + 1
        if np.any(nd > spec.max_depth):
            best = math.fsum(done_vals) + float(np.sum(fine[bad]))
            bound = math.fsum(done_errs) + float(np.sum(err[bad]))
            raise QuadratureConvergenceError(
                f"integrate_1d did not converge within depth {spec.max_depth}",
                best,
                bound,
            )
        lows = np.concatenate([lows[bad], mid])
        highs = np.concatenate([mid, highs[bad]])
        depths = np.concatenate([nd, nd])
        fv = np.concatenate([left[bad], right[bad]])
        coarse = np.concatenate(
            [0.5 * h[bad] * (left[bad] @ _BOOLE_W), 0.5 * h[bad] * (right[bad] @ _BOOLE_W)]
        )

    raise QuadratureConvergenceError(  # pragma: no cover - loop bound is depth-checked
        "integrate_1d did not converge", math.fsum(done_vals), math.fsum(done_errs)
    )


def integrate_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive quadtree integration of f over an axis-aligned rectangle.

    Tensor-product Boole rule on each rectangle, refined by splitting into
    four children; all pending rectangles are evaluated in one batched call
    per sweep, so ``f`` must be vectorized (equal-shape x, y arrays in,
    values out).
    """
    ax, bx = (float(v) for v in x_bounds)
    ay, by = (float(v) for v in y_bounds)
    if not (ax < bx and ay < by):
        raise ValueError(f"bad rectangle [{ax}, {bx}] x [{ay}, {by}]")
    if not all(math.isfinite(v) for v in (ax, bx, ay, by)):
        raise ValueError("rectangle bounds must be finite")
    total_area = (bx - ax) * (by - ay)

    # rectangle state: bounds (K,4), function values on 5x5 grids (K,5,5)
    rect = np.array([[ax, bx, ay, by]])
    depths = np.array([0])
    gx = np.linspace(ax, bx, 5)
    gy = np.linspace(ay, by, 5)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    fv = np.asarray(f(X.ravel(), Y.ravel()), dtype=float).reshape(1, 5, 5)
    _check_finite(fv)

    def coarse_of(r: np.ndarray, vals: np.ndarray) -> np.ndarray:
        area = (r[:, 1] - r[:, 0]) * (r[:, 3] - r[:, 2])
        return area * np.einsum("i,kij,j->k", _BOOLE_W, vals, _BOOLE_W)

    coarse = coarse_of(rect, fv)
    done_vals: list[float] = []
    done_errs: list[float] = []

    for _ in range(spec.max_depth + 1):
        K = len(rect)
        # refine each rectangle to a 9x9 grid; 25 of 81 points are known
        t = np.linspace(0.0, 1.0, 9)
        xs = rect[:, 0, None] + (rect[:, 1] - rect[:, 0])[:, None] * t[None, :]
        ys = rect[:, 2, None] + (rect[:, 3] - rect[:, 2])[:, None] * t[None, :]
        allv = np.empty((K, 9, 9))
        allv[:, ::2, ::2] = fv
        need = np.ones((9, 9), dtype=bool)
        need[::2, ::2] = False
        Xn = np.broadcast_to(xs[:, :, None], (K, 9, 9))[:, need]
        Yn = np.broadcast_to(ys[:, None, :], (K, 9, 9))[:, need]
        newf = np.asarray(f(Xn.ravel(), Yn.ravel()), dtype=float).reshape(K, -1)
        _check_finite(newf)
        allv[:, need] = newf

        xm = 0.5 * (rect[:, 0] + rect[:, 1])
        ym = 0.5 * (rect[:, 2] + rect[:, 3])
        children_rect = []
        children_fv = []
        for ix in (0, 1):
            for iy in (0, 1):
                xl = rect[:, 0] if ix == 0 else xm
                xh = xm if ix == 0 else rect[:, 1]
                yl = rect[:, 2] if iy == 0 else ym
                yh = ym if iy == 0 else rect[:, 3]
                children_rect.append(np.stack([xl, xh, yl, yh], axis=1))
                children_fv.append(allv[:, 4 * ix : 4 * ix + 5, 4 * iy : 4 * iy + 5])
        child_fine = [coarse_of(r, v) for r, v in zip(children_rect, children_fv)]
        fine = np.sum(child_fine, axis=0)
        err = np.abs(fine - coarse) / 63.0

        est_total = math.fsum(done_vals) + float(np.sum(fine))
        tol = max(spec.abs_tol, spec.rel_tol * abs(est_total))
        area = (rect[:, 1] - rect[:, 0]) * (rect[:, 3] - rect[:, 2])
        ok = err <= tol * (area / total_area)

        done_vals.extend(fine[ok].tolist())
        done_errs.extend(err[ok].tolist())
        if np.all(ok):
            return math.fsum(done_vals)

        bad = ~ok
        nd = depths[bad] + 1
        if np.any(nd > spec.max_depth):
            best = math.fsum(done_vals) + float(np.sum(fine[bad]))
            bound = math.fsum(done_errs) + float(np.sum(err[bad]))
            raise QuadratureConvergenceError(
                f"integrate_2d did not converge within depth {spec.max_depth}",
                best,
                bound,
            )
        rect = np.concatenate([cr[bad] for cr in children_rect])
        fv = np.concatenate([cv[bad] for cv in children_fv])
        coarse = np.concatenate([cf[bad] for cf in child_fine])
        depths = np.concatenate([nd, nd, nd, nd])

    raise QuadratureConvergenceError(  # pragma: no cover
        "integrate_2d did not converge", math.fsum(done_vals), math.fsum(done_errs)
    )
