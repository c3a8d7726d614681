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
that miss their share of the tolerance.  It refines every pending sub-box
of every box as one row of an array-wide table, a bounded chunk of rows per
integrand call, and treats each row on its own, so a box's value never
depends on the other boxes refined with it.  It is independent of the
functions above: ``integrate_1d`` stays as the test suite's reference for
erf and the Hermite recurrences; ``integrate_2d`` takes one rectangle and
an integrand of flat arrays; ``integrate_intervals``, the entry the oracles
check every closed form with, takes several intervals and an integrand that
broadcasts over a row of nodes per pending sub-interval and reads each
row's interval index.
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
    "integrate_intervals",
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
    # ones of x's shape: H_0 = 1 also at x = +-inf, where 1 + 0 x is nan
    h_prev = np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else 1.0
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


# pending sub-boxes evaluated and contracted at a time: the integrand's
# arrays, and the memory a sweep takes, stay this size however many boxes
# are refined together
_CHUNK_ROWS = 256


def _contract_rows(vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    # a (rows, 15) matrix contracted with w, one 1 x 15 product per row:
    # unlike one matrix-vector product over all rows, whose summation order
    # can depend on the number of rows, each row's bits are its own
    return (vals[:, None, :] @ w)[:, 0]


def _grid_rules(vals, k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    # each row's K15 and G7 sums of an integrand given on the rows' 15^d
    # grids; contiguous, so the contractions take one path whatever f returned
    kr = ga = np.ascontiguousarray(np.broadcast_to(np.asarray(vals, dtype=float), (k,) + (15,) * d))
    if not np.all(np.isfinite(kr)):
        raise ValueError("integrand returned a non-finite value")
    for _ in range(d - 1):  # stacked, so one matrix-vector product per row
        kr = kr @ _K15_W
        ga = ga[..., 1::2] @ _G7_W
    return _contract_rows(kr, _K15_W), _contract_rows(ga[..., 1::2], _G7_W)


def _integrate(f, boxes, spec: QuadratureSpec, name: str) -> list[float]:
    # Adaptive Gauss-Kronrod refinement of each box (lo, hi) in d = len(lo)
    # axes.  Every pending sub-box of every box is one row of a table: its
    # lower corner and the index of the box it belongs to.  A sweep samples
    # each row on its 15^d Kronrod grid, _CHUNK_ROWS rows per integrand call:
    # f gets one node array per axis, of shape (rows, 15) in one axis,
    # (rows, 15, 1) and (rows, 1, 15) in two and so on, then the rows' box
    # indices, of shape (rows, 1, ..., 1) with d ones.  Its values are broadcast onto the
    # full grid.  The K15 tensor contraction is a row's estimate and its
    # distance to the G7 contraction (odd nodes only) bounds the error; rows
    # within their volume share of their box's tolerance are done, the rest
    # split into their 2^d children.  All rows of one sweep share one depth,
    # hence each box's rows one width.  The sweep's bookkeeping (per-box
    # sums, the accept mask, the children) takes the same few numpy calls
    # however many boxes there are, and every step treats each row, or each
    # box's rows, on its own: a box's value is bit for bit that of a run of
    # it alone.
    d = len(boxes[0][0])
    corners = np.array(list(itertools.product((0, 1), repeat=d)))
    low = np.array([lo for lo, _ in boxes], dtype=float)
    width = np.array([hi for _, hi in boxes], dtype=float) - low
    total = np.prod(width, axis=1)
    owner = np.arange(len(boxes))
    done_sum = np.zeros(len(boxes))  # running sum of each box's accepted values
    done_vals, done_errs, done_owner = [], [], []

    for depth in range(spec.max_depth + 1):
        rows = len(owner)
        kron = np.empty(rows)
        gauss = np.empty(rows)
        for start in range(0, rows, _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            own = owner[chunk]
            k = len(own)
            nodes = low[chunk, :, None] + width[own, :, None] * _GK_NODES  # (rows, d, 15)
            axes = [nodes[:, j].reshape((k,) + (1,) * j + (15,) + (1,) * (d - j - 1)) for j in range(d)]
            kron[chunk], gauss[chunk] = _grid_rules(f(*axes, own.reshape((k,) + (1,) * d)), k, d)
        volume = np.prod(width, axis=1)
        kron *= volume[owner]
        err = np.abs(kron - gauss * volume[owner])

        est = done_sum + np.bincount(owner, kron, len(boxes))
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(est))
        ok = err <= (tol * (volume / total))[owner]
        done_sum += np.bincount(owner[ok], kron[ok], len(boxes))
        done_vals.append(kron[ok])
        done_errs.append(err[ok])
        done_owner.append(owner[ok])
        bad = ~ok
        if not bad.any():
            return _sums_per_box(np.concatenate(done_vals), np.concatenate(done_owner), len(boxes))
        if depth == spec.max_depth:
            # the first box that missed, with its own estimate and bound
            b = owner[bad].min()
            mine, rest = np.concatenate(done_owner) == b, bad & (owner == b)
            raise QuadratureConvergenceError(
                f"{name} did not converge within depth {spec.max_depth}",
                math.fsum(np.concatenate(done_vals)[mine].tolist()) + float(np.sum(kron[rest])),
                math.fsum(np.concatenate(done_errs)[mine].tolist()) + float(np.sum(err[rest])),
            )
        width = 0.5 * width
        parents = owner[bad]
        low = (low[bad] + corners[:, None, :] * width[parents]).reshape(-1, d)
        owner = np.tile(parents, len(corners))


def _sums_per_box(vals: np.ndarray, owner: np.ndarray, boxes: int) -> list[float]:
    # math.fsum of each box's accepted values, in box order
    order = np.argsort(owner, kind="stable")
    flat = vals[order].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=boxes)).tolist()
    return [math.fsum(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _on_flat_nodes(f):
    # f of equal-shape 1-D arrays, as an integrand of the engine's
    # broadcasting node arrays: the grid goes to f flattened, box by box,
    # without the box indices
    def on_grid(*axes_and_box):
        grid = np.broadcast_arrays(*axes_and_box[:-1])
        return np.asarray(f(*(g.ravel() for g in grid)), dtype=float).reshape(grid[0].shape)

    return on_grid


def _interval(a, b) -> tuple[tuple[float], tuple[float]]:
    # the interval [a, b] as a one-axis box ((a,), (b,)), checked
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"bad interval [{a!r}, {b!r}]")
    return (a,), (b,)


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
    return _integrate(_on_flat_nodes(f), [_interval(a, b)], spec, "integrate_1d")[0]


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


def integrate_intervals(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    intervals,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[float]:
    """Integrals of f over several intervals, refined together in one pass.

    ``intervals`` is a sequence of ``(a, b)`` pairs.  ``f`` must broadcast:
    it is called as ``f(x, box)`` with the nodes as an array x of shape
    (k, 15), one row per pending sub-interval and at most 256 rows per call,
    and ``box``, an integer array of shape (k, 1) holding the index in
    ``intervals`` of the interval each row refines; it returns values that
    broadcast to (k, 15).  One integrand serves intervals of different
    parameters by gathering them as ``params[box]``.  Every value must be
    finite, else ValueError.  Each value is bit for bit what this function
    returns for that interval alone, whatever else is in the batch, and for
    an elementwise integrand what ``integrate_1d`` returns; an interval that
    exhausts the depth budget raises QuadratureConvergenceError with its own
    estimate and error bound.
    """
    boxes = [_interval(a, b) for a, b in intervals]
    if not boxes:
        return []
    return _integrate(f, boxes, spec, "integrate_intervals")
