"""Special functions and adaptive quadrature.

Everything here is pure and reentrant: no caches, no global mutable state,
safe for concurrent callers.  ``erf`` and ``erfc`` are input-checked
wrappers of ``math.erf`` and ``math.erfc``; ``erfcx`` adds a continued
fraction for the range where erfc underflows.  All three take a float or a
numpy array and apply the ``math`` function to each element, so an array
gives exactly the values of the one-element calls; an array call to erf or
erfc fills the tails where the ``math`` function is constant without
calling it.

One adaptive engine sits behind all three integrators: a one-dimensional
Gauss-Kronrod (G7/K15) rule, with the Kronrod-Gauss difference as each
interval's error and bisection of the intervals that miss their share of
the tolerance.  It refines every pending sub-interval of every interval as
one row of an array-wide table, a bounded chunk of rows per integrand call
and a bounded number of rows per interval, and treats each row on its own,
so an interval's value never depends on the intervals refined with it.  It
is independent of the functions above: ``integrate_intervals``, the entry
the oracles check every closed form with, takes several intervals and an
integrand that broadcasts over a row of nodes per pending sub-interval and
reads each row's interval index; ``integrate_1d`` takes one interval and an
integrand of flat arrays, and stays as the test suite's reference for erf
and the Hermite recurrences; ``integrate_2d`` integrates an integrand of
flat x and y arrays over a rectangle as an iterated integral, one pass over
y for each chunk of rows of the pass over x.
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
    # evaluated with the modified Lentz algorithm, for x >= 2 only: there
    # b = x and every a_j are positive, so the Lentz terms c and d stay
    # positive and need no guard against 0.
    f = c = x
    d = 0.0
    j = 0
    while True:
        j += 1
        a = 0.5 * j
        d = 1.0 / (x + a * d)
        c = x + a / c
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


def _at(x, k: int) -> float:
    # element k of x, which may be a scalar, as a plain float for messages
    return float(np.ravel(x)[k])


def _require(ok, error, message: Callable[[int], str]):
    # error(message(k)) for the first element k where the elementwise check
    # ok fails, error being an exception class or a function of k that
    # gives one; the class and the message are only built then
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        k = int(np.argmin(ok))
        raise (error if isinstance(error, type) else error(k))(message(k))


def _reject(x, ok, message: str):
    # ValueError naming the first element of x where ok fails, as a plain
    # float, exactly as a call with that element alone would name it
    _require(ok, ValueError, lambda k: f"{message}, got {_at(x, k)!r}")


def _with_tails(fn: Callable[[float], float], lo: float, hi: float,
                below: float, above: float) -> Callable:
    # _elementwise(fn), for a fn that returns exactly the constant below at
    # every x <= lo and above at every x >= hi: an array call runs fn only
    # on the elements strictly between, and fills the rest; with no element
    # in a tail it is the _elementwise call itself
    inner = _elementwise(fn)

    def apply(x):
        if isinstance(x, float):
            return fn(x)
        inside = (x > lo) & (x < hi)
        if inside.all():
            return inner(x)
        out = np.where(x <= lo, below, above)
        out[inside] = inner(x[inside])
        return out

    return apply


# fdlibm's cut-offs, which glibc keeps: in double precision erf is exactly
# -1.0 at x <= -6 and 1.0 at x >= 6, erfc exactly 2.0 at x <= -6 and 0.0 at
# x >= 28
_ERF = _with_tails(math.erf, -6.0, 6.0, -1.0, 1.0)
_ERFC = _with_tails(math.erfc, -6.0, 28.0, 2.0, 0.0)
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
# adaptive quadrature (Gauss-Kronrod rule on bisected intervals)
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


# pending sub-intervals evaluated and contracted at a time: the integrand's
# arrays, and the memory a sweep takes, stay this size however many
# intervals are refined together
_CHUNK_ROWS = 256

# pending sub-intervals one interval may hold: a tolerance below the rule's
# rounding floor bisects rows that never pass, up to 2^max_depth of them.
# Converging runs hold at most 8 (the oracles) or 36 (the test suite).  Per
# interval, so whether an interval raises does not depend on its batch.
_MAX_PENDING_ROWS = 1024


def _contract_rows(vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    # a (rows, 15) matrix contracted with w, one 1 x 15 product per row:
    # unlike one matrix-vector product over all rows, whose summation order
    # can depend on the number of rows, each row's bits are its own
    return (vals[:, None, :] @ w)[:, 0]


def _integrate(f, intervals, spec: QuadratureSpec, name: str) -> list[float]:
    # Adaptive Gauss-Kronrod refinement of each checked interval (a, b).
    # Every pending sub-interval of every interval is one row of a table: its
    # lower end and the index of the interval it belongs to.  A sweep calls
    # f(x, box) on _CHUNK_ROWS rows at a time, with x the rows' Kronrod
    # nodes, shape (rows, 15), and box their interval indices, shape
    # (rows, 1); the values are broadcast onto x.  A row's K15 sum is its
    # estimate and its distance to the G7 sum (odd nodes only) bounds its
    # error; rows within their length share of their interval's tolerance
    # are done, the rest split in two.  All rows of one sweep share one
    # depth, hence each interval's rows one width.  The sweep's bookkeeping
    # (per-interval sums, the accept mask, the children) takes the same few
    # numpy calls however many intervals there are, and every step treats
    # each row, or each interval's rows, on its own: an interval's value is
    # bit for bit that of a run of it alone.
    n = len(intervals)
    low = np.array([a for a, _ in intervals])
    width = np.array([b for _, b in intervals]) - low
    total = width
    owner = np.arange(n)
    done_sum = np.zeros(n)  # running sum of each interval's accepted values
    done_vals, done_errs, done_owner = [], [], []

    for depth in range(spec.max_depth + 1):
        rows = len(owner)
        kron = np.empty(rows)
        gauss = np.empty(rows)
        for start in range(0, rows, _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            own = owner[chunk]
            x = low[chunk, None] + width[own, None] * _GK_NODES
            # contiguous, so the contractions take one path whatever f returned
            vals = np.ascontiguousarray(np.broadcast_to(np.asarray(f(x, own[:, None]), dtype=float), x.shape))
            if not np.all(np.isfinite(vals)):
                raise ValueError("integrand returned a non-finite value")
            kron[chunk] = _contract_rows(vals, _K15_W)
            gauss[chunk] = _contract_rows(vals[:, 1::2], _G7_W)
        kron *= width[owner]
        err = np.abs(kron - gauss * width[owner])

        est = done_sum + np.bincount(owner, kron, n)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(est))
        ok = err <= (tol * (width / total))[owner]
        done_sum += np.bincount(owner[ok], kron[ok], n)
        done_vals.append(kron[ok])
        done_errs.append(err[ok])
        done_owner.append(owner[ok])
        bad = ~ok
        if not bad.any():
            return _sums_per_interval(np.concatenate(done_vals), np.concatenate(done_owner), n)
        parents = owner[bad]
        if depth == spec.max_depth:
            failed, why = parents, f"within depth {spec.max_depth}"
        else:
            pending = 2 * np.bincount(parents, minlength=n)
            failed, why = np.flatnonzero(pending > _MAX_PENDING_ROWS), f"within {_MAX_PENDING_ROWS} pending rows"
        if len(failed):
            # the first interval that failed, with its own estimate and bound
            i = failed.min()
            mine, rest = np.concatenate(done_owner) == i, bad & (owner == i)
            raise QuadratureConvergenceError(
                f"{name} did not converge {why}",
                math.fsum(np.concatenate(done_vals)[mine].tolist()) + float(np.sum(kron[rest])),
                math.fsum(np.concatenate(done_errs)[mine].tolist()) + float(np.sum(err[rest])),
            )
        width = 0.5 * width
        low = np.concatenate([low[bad], low[bad] + width[parents]])
        owner = np.concatenate([parents, parents])


def _sums_per_interval(vals: np.ndarray, owner: np.ndarray, n: int) -> list[float]:
    # math.fsum of each interval's accepted values, in interval order
    order = np.argsort(owner, kind="stable")
    flat = vals[order].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
    return [math.fsum(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _interval(a, b) -> tuple[float, float]:
    # the interval [a, b] as floats, checked
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"bad interval [{a!r}, {b!r}]")
    return a, b


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
    QuadratureConvergenceError, carrying the best estimate and error bound,
    if the depth budget runs out or the interval holds more than 1024
    pending panels.
    """
    def on_rows(x, box):
        return np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)

    return _integrate(on_rows, [_interval(a, b)], spec, "integrate_1d")[0]


def integrate_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integral of f over an axis-aligned rectangle, as an iterated integral.

    The outer adaptive pass integrates over x the inner integral over y,
    which one pass computes for the x nodes of each chunk of up to 256 rows
    at once (up to 3,840 intervals); both passes refine to ``spec`` on
    their own.  ``f`` must be vectorized: equal-shape 1-D x, y arrays in,
    values out.  Raises QuadratureConvergenceError, naming ``integrate_2d``,
    if either pass runs out of budget.
    """
    x_iv, y_iv = _interval(*x_bounds), _interval(*y_bounds)

    def over_y(x, box):
        xs = x.ravel()

        def on_rows(y, node):
            xb, yb = np.broadcast_arrays(xs[node], y)
            return np.asarray(f(xb.ravel(), yb.ravel()), dtype=float).reshape(y.shape)

        return np.array(_integrate(on_rows, [y_iv] * len(xs), spec, "integrate_2d")).reshape(x.shape)

    return _integrate(over_y, [x_iv], spec, "integrate_2d")[0]


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
    exhausts the depth budget, or holds more than 1024 pending
    sub-intervals, raises QuadratureConvergenceError with its own estimate
    and error bound.
    """
    intervals = [_interval(a, b) for a, b in intervals]
    if not intervals:
        return []
    return _integrate(f, intervals, spec, "integrate_intervals")
