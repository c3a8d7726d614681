"""Special functions and adaptive quadrature.

Everything here is pure and reentrant: no caches, no global mutable state,
safe for concurrent callers.  ``erf`` and ``erfc`` are input-checked
wrappers of ``math.erf`` and ``math.erfc``; ``erfcx`` adds a continued
fraction for the range where erfc underflows.  All three take a float or a
numpy array and apply the ``math`` function to each element, so an array
gives exactly the values of the one-element calls.

One adaptive engine sits behind all three integrators: a tensor-product
Gauss-Kronrod (G7/K15) rule on boxes in any number of axes, with the
Kronrod-Gauss difference as each box's error and bisection of the boxes
that miss their share of the tolerance.  It is independent of the functions
above: ``integrate_1d`` stays as the test suite's reference for erf and the
Hermite recurrences; ``integrate_2d`` takes one rectangle and an integrand
of flat arrays, and ``integrate_rectangles``, the entry the oracles check
every closed form with, takes several rectangles and an integrand that
broadcasts over per-axis node arrays.
"""

from __future__ import annotations

import itertools
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
    "integrate_rectangles",
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


def _real(x):
    # x as a float64 scalar, or as a float64 array if it is an array or a
    # list; the isinstance test spares a float the cost of np.ndim
    if isinstance(x, (int, float)) or np.ndim(x) == 0:
        return np.float64(x)
    return np.asarray(x, dtype=float)


def _finite(x):
    # elementwise isfinite, cheaper than np.isfinite on a scalar
    return abs(x) < math.inf


def _elementwise(fn: Callable[[float], float]) -> Callable:
    # fn of a float, or of each element of an array of any shape: running fn
    # itself on every element, as a Python float, keeps a math function's
    # exact bits.  The elements go through map into a float array directly,
    # with no object array boxing them on the way.
    def apply(x):
        if isinstance(x, float):
            return fn(x)
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)

    return apply


def _reject(x, ok, message: str):
    # ValueError naming the first element of x where the elementwise check
    # ok fails, as a plain float, so that an array call names the failing
    # element exactly as a call with that element alone would
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError(f"{message}, got {float(np.ravel(x)[np.argmin(ok)])!r}")


_ERF = _elementwise(math.erf)
_ERFC = _elementwise(math.erfc)
_ERFCX = _elementwise(lambda x: math.exp(x * x) * math.erfc(x) if x < 2.0 else _erfcx_cf(x))


def erf(x):
    """Error function, odd in x, range [-1, 1]; ``math.erf`` with finite input."""
    x = _real(x)
    _reject(x, _finite(x), "erf requires finite input")
    return _ERF(x)


def erfc(x):
    """Complementary error function 1 - erf(x); ``math.erfc`` with finite input."""
    x = _real(x)
    _reject(x, _finite(x), "erfc requires finite input")
    return _ERFC(x)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0.

    ``math.erfc`` below 2, where e^{x^2} cannot overflow; a continued
    fraction beyond, where erfc itself underflows for x > ~27.
    """
    x = _real(x)
    _reject(x, _finite(x) & (x >= 0.0), "erfcx requires finite non-negative input")
    return _ERFCX(x)


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
# adaptive quadrature (tensor-product Gauss-Kronrod rule on bisected boxes)
# ---------------------------------------------------------------------------

# Gauss-Kronrod G7/K15 on [-1, 1] (QUADPACK qk15; Piessens et al. 1983):
# Kronrod nodes from the edge inwards, every second one a Gauss node.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
# the rule on [0, 1], nodes ascending; the Gauss nodes are the odd-indexed ones
_GK_NODES = 0.5 - 0.5 * np.concatenate([_XGK, -_XGK[-2::-1]])
_K15_W = 0.5 * np.concatenate([_WGK, _WGK[-2::-1]])
_G7_W = 0.5 * np.concatenate([_WG, _WG[-2::-1]])


def _integrate(f, boxes, spec: QuadratureSpec, name: str) -> list[float]:
    # Adaptive Gauss-Kronrod refinement of each box (lo, hi) in d = len(lo)
    # axes.  A sweep samples every pending sub-box of every box on its 15^d
    # Kronrod grid in one call: f gets one node array per axis, of shape
    # (sub-boxes, 15, 1, ...) along axis 1, (sub-boxes, 1, 15, ...) along
    # axis 2 and so on, and its values are broadcast onto the full grid.  The
    # K15 tensor contraction is a sub-box's estimate and its distance to the
    # G7 contraction (odd nodes only) bounds the error; sub-boxes within
    # their volume share of their box's tolerance are done, the rest split
    # into their 2^d children.  Sub-boxes of one box and sweep share one
    # depth, hence one width.  Each box keeps its own width, running sums and
    # tolerance, so its value is bit for bit that of a run of it alone.
    d = len(boxes[0][0])
    grid = (15,) * d
    corners = np.array(list(itertools.product((0, 1), repeat=d)))
    lows = [np.array([lo], dtype=float) for lo, _ in boxes]
    widths = [np.array(hi, dtype=float) - low[0] for low, (_, hi) in zip(lows, boxes)]
    totals = [float(np.prod(w)) for w in widths]
    done_vals: list[list[float]] = [[] for _ in boxes]
    done_errs: list[list[float]] = [[] for _ in boxes]
    results: list[float] = [0.0] * len(boxes)
    pending = list(range(len(boxes)))

    for depth in range(spec.max_depth + 1):
        counts = [len(lows[b]) for b in pending]
        volumes = [float(np.prod(widths[b])) for b in pending]
        low = np.concatenate([lows[b] for b in pending])
        width = np.repeat([widths[b] for b in pending], counts, axis=0)
        axes = [
            (low[:, k, None] + width[:, k, None] * _GK_NODES).reshape((-1,) + (1,) * k + (15,) + (1,) * (d - k - 1))
            for k in range(d)
        ]
        # contiguous, so the contractions below take one path whatever f returns
        vals = np.ascontiguousarray(np.broadcast_to(np.asarray(f(*axes), dtype=float), (len(low),) + grid))
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned a non-finite value")
        kron = gauss = vals
        for _ in range(d):
            kron = kron @ _K15_W
            gauss = gauss[..., 1::2] @ _G7_W
        volume = np.repeat(volumes, counts)
        kron = kron * volume
        err = np.abs(kron - gauss * volume)

        still, start = [], 0
        for b, count, vol in zip(pending, counts, volumes):
            box_kron, box_err = kron[start:start + count], err[start:start + count]
            start += count
            est_total = math.fsum(done_vals[b]) + float(np.sum(box_kron))
            tol = max(spec.abs_tol, spec.rel_tol * abs(est_total))
            ok = box_err <= tol * (vol / totals[b])
            done_vals[b].extend(box_kron[ok].tolist())
            done_errs[b].extend(box_err[ok].tolist())
            if np.all(ok):
                results[b] = math.fsum(done_vals[b])
                continue
            bad = ~ok
            if depth == spec.max_depth:
                raise QuadratureConvergenceError(
                    f"{name} did not converge within depth {spec.max_depth}",
                    math.fsum(done_vals[b]) + float(np.sum(box_kron[bad])),
                    math.fsum(done_errs[b]) + float(np.sum(box_err[bad])),
                )
            widths[b] = 0.5 * widths[b]
            lows[b] = (lows[b][bad] + corners[:, None, :] * widths[b]).reshape(-1, d)
            still.append(b)
        if not still:
            return results
        pending = still


def _on_flat_nodes(f):
    # f of equal-shape 1-D arrays, as an integrand of the engine's
    # broadcasting node arrays: the grid goes to f flattened, box by box
    def on_grid(*axes):
        grid = np.broadcast_arrays(*axes)
        return np.asarray(f(*(g.ravel() for g in grid)), dtype=float).reshape(grid[0].shape)

    return on_grid


def _rectangle(x_bounds, y_bounds) -> tuple[tuple[float, float], tuple[float, float]]:
    # the rectangle as ((ax, ay), (bx, by)), checked
    ax, bx = (float(v) for v in x_bounds)
    ay, by = (float(v) for v in y_bounds)
    if not (ax < bx and ay < by):
        raise ValueError(f"bad rectangle [{ax}, {bx}] x [{ay}, {by}]")
    if not all(math.isfinite(v) for v in (ax, bx, ay, by)):
        raise ValueError("rectangle bounds must be finite")
    return (ax, ay), (bx, by)


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive Gauss-Kronrod (G7/K15) integration of f over [a, b].

    ``f`` must accept a 1-D numpy array and return values elementwise.  Each
    panel's 15-point Kronrod sum is its estimate and the distance to the
    7-point Gauss sum its error; panels whose error exceeds their
    length-weighted share of the tolerance are bisected.  Raises
    QuadratureConvergenceError if the depth budget runs out, carrying the
    best estimate and error bound.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"bad interval [{a!r}, {b!r}]")
    return _integrate(_on_flat_nodes(f), [((a,), (b,))], spec, "integrate_1d")[0]


def integrate_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive Gauss-Kronrod integration of f over an axis-aligned rectangle.

    Tensor-product G7/K15 rule on 15 x 15 nodes per rectangle, with
    |Kronrod - Gauss| as its error; rectangles that miss their area share of
    the tolerance split into four.  All pending rectangles are evaluated in
    one batched call per sweep, so ``f`` must be vectorized (equal-shape
    1-D x, y arrays in, values out).
    """
    box = _rectangle(x_bounds, y_bounds)
    return _integrate(_on_flat_nodes(f), [box], spec, "integrate_2d")[0]


def integrate_rectangles(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rects,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[float]:
    """Integrals of f over several rectangles, refined together in one pass.

    ``rects`` is a sequence of ``(x_bounds, y_bounds)`` pairs.  ``f`` must
    broadcast: it gets the nodes as an x array of shape (k, 15, 1) and a y
    array of shape (k, 1, 15), one row per pending sub-rectangle, and returns
    values that broadcast to (k, 15, 15), so a separable integrand evaluates
    each factor on 15 nodes per axis, not on all 225.  Each value is bit for
    bit what ``integrate_2d`` returns for that rectangle alone; a rectangle
    that exhausts the depth budget raises QuadratureConvergenceError with its
    own estimate and error bound.
    """
    boxes = [_rectangle(xb, yb) for xb, yb in rects]
    if not boxes:
        return []
    return _integrate(f, boxes, spec, "integrate_rectangles")
