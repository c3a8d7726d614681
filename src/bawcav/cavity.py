"""Core physics of the curved phonon-trapping cavity.

Trapped thickness modes of a square plate (half-width L, half-thickness h0)
whose surface curvature R creates an in-plane harmonic confinement.  The
mode envelope is Hermite-Gaussian; trapping strength per axis is the
dimensionless eta = sqrt(pi * alpha) * L.  All operations are pure and work
on immutable inputs, so parallel sweeps give results identical to serial
evaluation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import BOLTZMANN_K, HBAR
from .material import (MaterialParams, _require_odd_overtone, _require_positive_finite,
                       dispersion_parameters, stiffened_constants)
from .specfun import _at, _elementwise, _finite, _real, _reject, _require, erf, erfc, erfcx, hermite

__all__ = [
    "CavityGeometry",
    "ModeIndex",
    "ModeCharacterization",
    "envelope_curvatures",
    "trapping_parameters",
    "trapping_over_radii",
    "hermite_gaussian_1d",
    "escape_probability",
    "escape_probability_log10",
    "mode_frequency",
    "in_plane_quanta",
    "trap_anharmonicity",
    "trap_level_shifts",
    "effective_mass",
    "zpf",
    "thermal_occupancy",
    "characterize",
]

_PI_M14 = math.pi**-0.25  # pi^{-1/4} = psi_0(0), orthonormal Hermite functions
_DBL_MIN = sys.float_info.min  # smallest normal double
_LN2 = math.log(2.0)
_RESCALE_ABOVE = 2.0**256  # where a float Hermite tail rescales its psi_k


@dataclass(frozen=True)
class CavityGeometry:
    """Square-plate geometry: half-width L, half-thickness h0, curvature R.

    Validation enforces the thin-curved-plate regime 2*h0 < R/10 under
    which the trapped-mode model holds.
    """

    L: float
    h0: float
    R: float

    def __post_init__(self):
        _require_positive_finite(self, ("L", "h0", "R"))
        if not 2.0 * self.h0 < self.R / 10.0:
            raise ValueError(
                f"plate thickness 2*h0={2 * self.h0!r} must stay below R/10={self.R / 10.0!r}"
            )


@dataclass(frozen=True)
class ModeIndex:
    """Mode numbers: overtone n (odd) and in-plane numbers m, p (even).

    Only odd-n / even-(m, p) modes couple piezoelectrically, so the
    constructor rejects everything else.  The shape of any other in-plane
    number along one axis is ``hermite_gaussian_1d``.
    """

    n: int
    m: int = 0
    p: int = 0

    def __post_init__(self):
        _require_odd_overtone(self.n)
        for name in ("m", "p"):
            v = getattr(self, name)
            if v != int(v) or v < 0 or v % 2 != 0:
                raise ValueError(
                    f"in-plane number {name} must be even and non-negative, got {v!r}"
                )


@dataclass(frozen=True)
class ModeCharacterization:
    """Derived figures of one cavity mode at one temperature.

    x_zpf and p_zpf always satisfy the minimum-uncertainty product
    x_zpf * p_zpf = hbar / 2 (checked at construction to 1e-12 relative).
    Over an array of eta, each eta-dependent field is an array of its
    length, and every check holds elementwise.
    """

    omega: float  # angular frequency (rad/s)
    eta_x: float  # trapping parameter along x
    eta_y: float  # trapping parameter along y
    chi_inv: float  # escape probability, in [0, 1]
    xi: float  # geometric mass-reduction / ZPF-amplification factor
    m_eff: float  # effective mode mass (kg)
    m_flat: float  # flat-plate reference mass (kg)
    x_zpf: float  # ground-state displacement spread (m)
    p_zpf: float  # ground-state momentum spread (kg m/s)
    n_thermal: float  # Bose-Einstein occupancy at the report temperature

    def __post_init__(self):
        _reject(self.omega, self.omega > 0, "omega must be positive")
        chi = self.chi_inv
        _reject(chi, (chi >= 0.0) & (chi <= 1.0), "chi_inv must lie in [0, 1]")
        _reject(self.xi, self.xi > 0, "xi must be positive")
        prod = self.x_zpf * self.p_zpf
        _require(abs(prod - HBAR / 2.0) <= 1e-12 * (HBAR / 2.0), ValueError,
                 lambda k: "x_zpf * p_zpf must equal hbar/2 (minimum uncertainty)")

    # the generated field-tuple comparison asks an array for one truth value
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __hash__(self):
        values = tuple(getattr(self, f.name) for f in fields(self))
        if any(isinstance(v, np.ndarray) for v in values):
            raise TypeError(f"unhashable type: array-valued '{type(self).__name__}'")
        return hash(values)


def _is_normal(x):
    # elementwise: x is a positive normal double
    return (x >= _DBL_MIN) & (x < math.inf)


def _power(x: float, k: int) -> float:
    # x ** k, or inf where the float power overflows (x >= 0)
    try:
        return x**k
    except OverflowError:
        return math.inf


def _normal(value, what):
    # value, a float or an array, when each element is a positive normal
    # double, else an error naming what, or what(k) for the first element k
    # that is not one: OverflowError where that element is +inf, and
    # FloatingPointError where it is below the range (or NaN)
    ok = _is_normal(value)
    if ok is not True:  # a float in range builds no part of the error
        _require(ok, lambda k: OverflowError if _at(value, k) == math.inf else FloatingPointError,
                 lambda k: f"{what if isinstance(what, str) else what(k)} is outside the normal double range")
    return value


def _square_of_L(geo: CavityGeometry) -> float:
    # L^2 as a normal double, or an error that names L
    return _normal(_power(geo.L, 2), f"L^2 at L = {geo.L!r}")


def envelope_curvatures(mat: MaterialParams, geo: CavityGeometry, n: int) -> tuple[float, float]:
    """Gaussian envelope curvatures (alpha, beta) in 1/m^2.

    alpha^2 = c_hat_z / (8 R h0^3 M_n) and analogously with P_n for beta;
    both scale as R^(-1/2).  Raises OverflowError or FloatingPointError,
    naming R and h0, when h0^3, 8 R h0^3, 8 R h0^3 M_n or 8 R h0^3 P_n leaves
    the normal double range.
    """
    _, c_hat = stiffened_constants(mat, n)
    m_n, p_n = dispersion_parameters(mat, n)
    # h0^3 must be a normal double too, as 8 R can lift a subnormal h0^3,
    # digits lost, back into range
    where = f"at R = {geo.R!r}, h0 = {geo.h0!r}"
    what = f"8 R h0^3 {where}"
    denom = _normal(8.0 * geo.R * _normal(_power(geo.h0, 3), what), what)
    return tuple(math.sqrt(c_hat / _normal(denom * q, f"8 R h0^3 {name} {where}"))
                 for name, q in (("M_n", m_n), ("P_n", p_n)))


def trapping_parameters(alpha: float, beta: float, L: float) -> tuple[float, float]:
    """Dimensionless per-axis trapping parameters eta = sqrt(pi*alpha) * L."""
    if not (alpha > 0 and beta > 0 and L > 0):
        raise ValueError("alpha, beta and L must be positive")
    return math.sqrt(math.pi * alpha) * L, math.sqrt(math.pi * beta) * L


def trapping_over_radii(mat: MaterialParams, geo: CavityGeometry, n: int, radii) -> tuple:
    """Per-axis trapping (eta_x, eta_y) of overtone n over a 1-D array of radii.

    Each radius replaces geo.R, and the pair of arrays is bit for bit
    ``trapping_parameters(*envelope_curvatures(mat, g, n), g.L)`` with one
    geometry g per radius: the material constants of n are taken once, and
    the curvatures and eta come from the same operations in the same order
    over the whole array, each correctly rounded in numpy as in ``math``.
    The first radius at which that chain raises raises its error.  The
    radii are not checked against the thin-plate bound of CavityGeometry.
    """
    _, c_hat = stiffened_constants(mat, n)
    m_n, p_n = dispersion_parameters(mat, n)
    h0_cubed = _power(geo.h0, 3)
    radii = np.asarray(radii, dtype=float)
    with np.errstate(all="ignore"):
        denom = 8.0 * radii * h0_cubed
        qx, qy = denom * m_n, denom * p_n
        alpha, beta = np.sqrt(c_hat / qx), np.sqrt(c_hat / qy)
        # where the chain raises: h0^3, denom, qx or qy not a normal double,
        # or a curvature that is not positive (c_hat / qx or c_hat / qy rounds to 0)
        ok = (_is_normal(h0_cubed) & _is_normal(denom) & (qx >= _DBL_MIN)
              & (qy >= _DBL_MIN) & (alpha > 0) & (beta > 0))

    def scalar_chain(k):  # raises the scalar chain's error at radius k
        g = replace(geo, R=_at(radii, k))
        trapping_parameters(*envelope_curvatures(mat, g, n), g.L)
        return f"the trapping chain at R = {g.R!r} did not raise"

    _require(ok, AssertionError, scalar_chain)
    return np.sqrt(math.pi * alpha) * geo.L, np.sqrt(math.pi * beta) * geo.L


def hermite_gaussian_1d(m: int, g, x):
    """exp(-g x^2/2) H_m(sqrt(g) x): one axis' factor of the mode shape.

    The unit-amplitude in-plane profile of mode (n, m, p) is the product
    u(x, y) = hermite_gaussian_1d(m, alpha n pi, x) *
    hermite_gaussian_1d(p, beta n pi, y).  Both ``g`` and ``x`` may be
    arrays, broadcasting together, each element with the bits of its own
    scalar call.
    """
    x = np.asarray(x)
    return np.exp(-0.5 * g * x**2) * hermite(m, np.sqrt(g) * x)


# The closed forms below take the trapping eta as a float or as a 1-D array.
# Both run as numpy float64 values through one and the same code: the same
# operations in the same order, so an array's figures are bit for bit those
# of one call per element; exponentials and error functions go through
# ``math`` for that reason, and a square is x * x.  Every range check is
# elementwise too, and its error names the first element that fails it.


_exp = _elementwise(math.exp)


def _trapping(eta_x, eta_y=None):
    # (eta_x, eta_y) as two float64 scalars or two 1-D float arrays of one
    # length, and whether they are scalars, whose figures go back as floats.
    # Without eta_y, or with eta_y the very object eta_x is, both axes share
    # one eta object: the escape and mass closed forms then evaluate their
    # erfc and erf once (see _per_axis).
    if eta_y is None or eta_y is eta_x:
        eta = _real(eta_x)
        return eta, eta, eta.ndim == 0
    ex, ey = _real(eta_x), _real(eta_y)
    if ex.ndim == 0 and ey.ndim == 0:
        return ex, ey, True
    ex, ey = np.broadcast_arrays(np.atleast_1d(ex), np.atleast_1d(ey))
    return ex, ey, False


def _figure(x, scalar: bool):
    return float(x) if scalar else x


def _hermite_tail(m: int, t, log_psi0) -> tuple:
    # sum_{k=1}^{m} sqrt(2/k) psi_k(t) psi_{k-1}(t) over the orthonormal
    # Hermite functions psi_k = psi0 H_k / sqrt(2^k k!), built by their own
    # three-term recurrence so no 2^k k! overflows.  With psi0 =
    # pi^{-1/4} e^{-t^2/2} each term is e^{-t^2} H_k H_{k-1} / (sqrt(pi)
    # 2^{k-1} k!), the step D_k - D_{k-1} of the per-axis deficit.  psi0 =
    # pi^{-1/4} e^{log_psi0} is only evaluated for a non-empty sum (m > 0).
    # Returned as (total, e), the sum being total * 4^e: a float psi_k above
    # 2^256 is scaled into [1/2, 1) by a power of two 2^-s, with psi_{k-1}
    # and the sum so far by 2^-s and 2^-2s, and e counts the s.  A step
    # multiplies psi_k by at most sqrt(2) t, so no product overflows for t
    # up to 1e154.  From psi0 = pi^{-1/4} e^{-t^2/2}, |psi_k| <= pi^{-1/4}
    # (Cramér's bound): the linear-scale deficit and energy fraction never
    # rescale, and their arrays skip the test.
    total, prev, cur = 0.0, 0.0, _PI_M14 * _exp(log_psi0) if m else 0.0
    e, scalar = 0, not isinstance(t, np.ndarray)
    for k in range(1, m + 1):
        a = math.sqrt(2.0 / k)
        prev, cur = cur, a * t * cur - math.sqrt((k - 1) / k) * prev
        if scalar and abs(cur) > _RESCALE_ABOVE:
            s = math.frexp(cur)[1]
            prev, cur, total = math.ldexp(prev, -s), math.ldexp(cur, -s), math.ldexp(total, -2 * s)
            e += s
        total += a * cur * prev
    return total, e


def _axis_deficit(m: int, t, erfc_t):
    # Fraction of one axis' modal energy beyond |z| = t: D_0 = erfc_t =
    # erfc(t) plus the Hermite steps, which are all positive beyond the last
    # zero of H_m, so strong trapping does not cancel digits.
    return erfc_t + _hermite_tail(m, t, -0.5 * t * t)[0]


def _axis_energy_fraction(m: int, t, erf_t):
    # Fraction of one axis' modal energy on the plate, I_m(t) / (2^m m!
    # sqrt(pi)) with I_m the integral of e^{-z^2} H_m(z)^2 over |z| <= t:
    # I_k = 2k I_{k-1} - 2 e^{-t^2} H_k H_{k-1} from I_0 = sqrt(pi) erf_t,
    # erf_t = erf(t), divided through by the norm so weak trapping does not
    # cancel digits.
    return erf_t - _hermite_tail(m, t, -0.5 * t * t)[0]


def _per_axis(axis, head, mode: ModeIndex, ex, ey):
    # axis(m, t, head(t)) of the x and of the y axis, at t = sqrt(n) eta.
    # Axes that share one eta array share t, so head (erf or erfc) runs once
    # on it, and for m = p the whole value is the same: the same operations
    # on the same values, so the bits are those of two runs.  A float call,
    # whose head costs well under a microsecond, runs each axis on its own
    # (perfbench/test_perfbench.py counts two erf spans in one).
    rn = math.sqrt(mode.n)
    tx = rn * ex
    hx = head(tx)
    vx = axis(mode.m, tx, hx)
    if ey is not ex or not isinstance(ex, np.ndarray):
        ty = rn * ey
        return vx, axis(mode.p, ty, head(ty))
    return vx, vx if mode.p == mode.m else axis(mode.p, tx, hx)


def _mode_at(mode: ModeIndex, ex, ey, k: int) -> str:
    # names the in-plane numbers and trapping of element k in error messages
    return f"(m, p) = ({mode.m}, {mode.p}) at eta = ({_at(ex, k)!r}, {_at(ey, k)!r})"


def _check_eta(ex, ey):
    _require((ex >= 0) & (ey >= 0) & _finite(ex) & _finite(ey), ValueError,
             lambda k: f"trapping parameters must be non-negative, got {_at(ex, k)!r}, {_at(ey, k)!r}")


def escape_probability(mode: ModeIndex, eta_x, eta_y):
    """Fraction of modal energy outside the finite plate, in [0, 1].

    Separable per axis: each axis' deficit D_m(t), t = sqrt(n) eta, follows
    D_k = D_{k-1} + e^{-t^2} H_k(t) H_{k-1}(t) / (sqrt(pi) 2^{k-1} k!) from
    D_0 = erfc(t), and chi = D_x + D_y - D_x D_y.  May underflow to exactly
    0 for strong trapping; use escape_probability_log10 in that regime.
    Takes floats or arrays of eta and returns the same.
    """
    ex, ey, scalar = _trapping(eta_x, eta_y)
    _check_eta(ex, ey)
    with np.errstate(all="ignore"):
        dx, dy = _per_axis(_axis_deficit, erfc, mode, ex, ey)
        chi = dx + dy - dx * dy
    # min(1, max(0, chi)), which also sends NaN to 0
    return _figure(np.where(chi > 0.0, np.minimum(chi, 1.0), 0.0), scalar)


def _log_axis_deficit(m: int, t: float) -> float:
    # ln of the per-axis deficit, stable for arbitrarily strong trapping.
    # For t >= 2 it is -t^2 + ln(erfcx(t) + P_m(t)), where the polynomial
    # P_m(t) = e^{t^2} (D_m - erfc) is the Hermite tail from psi0 = pi^{-1/4}.
    # The tail is run from psi0 = pi^{-1/4} e^{-c} instead, with e^c the
    # size (sqrt(2) t)^m / sqrt(m!) of its leading term, so that large m and
    # t cannot overflow it; the factor e^{-2c} is taken back out of the log.
    # c stops at 700, where e^{-c} would near the end of the double range:
    # past it the tail grows beyond 1 and rescales, and the 4^e it carries
    # goes into the log as well.
    if t < 2.0:
        return math.log(_axis_deficit(m, t, erfc(t)))
    c = min(700.0, max(0.0, m * math.log(math.sqrt(2.0) * t) - 0.5 * math.lgamma(m + 1.0)))
    total, e = _hermite_tail(m, t, -c)
    s = math.ldexp(erfcx(t) * math.exp(-2.0 * c), -2 * e) + total
    return math.log(s) - t * t + 2.0 * c + 2 * e * _LN2


def escape_probability_log10(mode: ModeIndex, eta_x: float, eta_y: float) -> float:
    """log10 of the escape probability via complementary asymptotics.

    Stays finite long after the linear-scale value underflows to zero, for
    every even (m, p) and every t = sqrt(n) eta whose t^2 is a double: each
    axis' deficit is factored as e^{-t^2} (erfcx(t) + P_m(t)) with P_m a
    polynomial in t, summed with power-of-two rescaling.  Raises
    OverflowError, naming eta and (m, p), where neither axis' t^2 is a
    double; where one axis' is, that axis decides the value.
    """
    _check_eta(*_trapping(eta_x, eta_y)[:2])
    if not (eta_x > 0 and eta_y > 0):
        raise ValueError("log-scale escape requires strictly positive trapping")
    lx = _log_axis_deficit(mode.m, math.sqrt(mode.n) * eta_x)
    ly = _log_axis_deficit(mode.p, math.sqrt(mode.n) * eta_y)
    hi, lo = max(lx, ly), min(lx, ly)
    if hi == -math.inf:  # -t^2 overflowed on both axes
        raise OverflowError(
            f"t^2 = n eta^2 of {_mode_at(mode, eta_x, eta_y, 0)} exceeds the double range"
            " on both axes"
        )
    if hi > -700.0:
        dx, dy = math.exp(lx), math.exp(ly)
        return math.log10(dx + dy - dx * dy)
    # both deficits underflow linearly; the cross term is ~e^{lo} smaller
    return (hi + math.log1p(math.exp(lo - hi))) / math.log(10.0)


def mode_frequency(mat: MaterialParams, geo: CavityGeometry, mode: ModeIndex) -> float:
    """Leading-order angular frequency (rad/s) of mode (n, m, p).

    omega^2 = (n pi / (2 h0))^2 c_hat_z / rho, exactly proportional to n
    and the same for every (m, p); ``in_plane_quanta`` gives the in-plane
    part of rho omega^2.  Raises OverflowError or FloatingPointError,
    naming n and h0, when (n pi / (2 h0))^2 or omega^2 is outside the
    normal double range.
    """
    _, c_hat = stiffened_constants(mat, mode.n)
    where = f"the frequency of overtone n = {mode.n} at h0 = {geo.h0!r}"
    square = _normal(_power(mode.n * math.pi / (2.0 * geo.h0), 2), where)
    return math.sqrt(_normal(square * c_hat / mat.rho, where))


def in_plane_quanta(mat: MaterialParams, geo: CavityGeometry, n: int) -> tuple[float, float]:
    """In-plane quanta (q_x, q_y) of overtone n, in Pa/m^2.

    q_x = sqrt(k M_n) = pi n alpha M_n and q_y = pi n beta P_n, with k =
    pi^2 n^2 c_hat_z / (8 R h0^3) the trap stiffness, so the in-plane part
    of rho omega^2 of mode (n, m, p) is (2m+1) q_x + (2p+1) q_y, the
    harmonic ladder of the plano-convex plate (Stevens and Tiersten, J.
    Acoust. Soc. Am. 79, 1811, 1986), taken without a difference of
    frequencies.  Raises where ``envelope_curvatures`` does, and
    OverflowError or FloatingPointError, naming n, R and h0, where q_x or
    q_y is outside the normal double range.
    """
    alpha, beta = envelope_curvatures(mat, geo, n)
    m_n, p_n = dispersion_parameters(mat, n)
    what = f"an in-plane quantum of overtone n = {n} at R = {geo.R!r}, h0 = {geo.h0!r}"
    return _normal(math.pi * n * alpha * m_n, what), _normal(math.pi * n * beta * p_n, what)


def trap_anharmonicity(mat: MaterialParams, geo: CavityGeometry, n: int) -> float:
    """Anharmonicity epsilon = sigma^2 / (R h0) = sqrt(8 M_n h0 / (pi^2 n^2 c_hat_z R)).

    sigma = (M_n / k)^(1/4) is the envelope width; epsilon falls as 1/n.
    Raises OverflowError or FloatingPointError, naming n, R and h0, where
    it is outside the normal double range.
    """
    _, c_hat = stiffened_constants(mat, n)
    m_n, _ = dispersion_parameters(mat, n)
    # sqrt(8 h0 / R) of h0 / R = (m_h / m_R) 2^e, whose square root takes an
    # even power of two: no quotient underflows, and where h0 / R is a
    # normal double the bits are those of math.sqrt(8.0 * (h0 / R))
    (m_h, e_h), (m_r, e_r) = math.frexp(geo.h0), math.frexp(geo.R)
    e = e_h - e_r
    root = math.ldexp(math.sqrt(8.0 * math.ldexp(m_h / m_r, e % 2)), e // 2)
    return _normal(root * math.sqrt(m_n / c_hat) / (math.pi * n),
                   f"the trap anharmonicity epsilon of overtone n = {n} at R = {geo.R!r}, h0 = {geo.h0!r}")


def trap_level_shifts(epsilon: float, h0_over_R: float) -> tuple[np.ndarray, float]:
    """Shifts delta_j, j = 0..3, of the exact profile's levels, and their remainder bound.

    In-plane level j of the plano-convex plate, h = h0 - (R - sqrt(R^2 -
    x^2)) / 2 (Stevens and Tiersten, J. Acoust. Soc. Am. 79, 1811, 1986), is
    (2j + 1) q_x (1 + delta_j), q_x of ``in_plane_quanta``, epsilon of
    ``trap_anharmonicity``, and to second order

        delta_j = (9/32) (2j^2 + 2j + 1) / (2j + 1) epsilon (1 + 2 h0 / (3R))
                  + c_j epsilon^2,
        c_j = [(5/64)(4j^3 + 6j^2 + 8j + 3) + (9/64) S_j] / (2j + 1).

    Derivation.  With xi = x / sigma, u = 1 - h / h0 the thinning and
    c = sqrt(1 - epsilon (h0/R) xi^2), the resonance's rise (n pi /
    2)^2 c_hat_z (1/h^2 - 1/h0^2) is q_x (xi^2 + W), W = xi^4 / (1 + c)^2
    ((epsilon / 2)(3 - 2u) / (1 - u)^2 + epsilon h0/R) = (3/8) epsilon (1 +
    2 h0 / (3R)) xi^4 + (1/8) epsilon^2 xi^6 + (5/128) epsilon^3 xi^8 + ...
    On the levels 2j + 1 of -u'' + xi^2 u, with xi = (a + a^dagger) /
    sqrt(2), the first term is the quartic's <xi^4>_j = (3/4)(2j^2 + 2j +
    1); c_j adds the sextic's <xi^6>_j = (5/8)(4j^3 + 6j^2 + 8j + 3) and the
    quartic's second order, S_j = sum over k = j +- 2, j +- 4 of
    |<k|xi^4|j>|^2 / (2j - 2k) = -(34j^3 + 51j^2 + 59j + 21) / 16, whose
    S_0 is the -(21/16) lambda^2 of the anharmonic oscillator (Bender and
    Wu, Phys. Rev. 184, 1231, 1969).  So c_j = (14j^3 + 21j^2 + 109j + 51)
    / (1024 (2j + 1)): 0.04980, 0.06348, 0.09082 and 0.13184.

    Remainder.  The epsilon^2 h0/R terms left out, (18j^3 + 27j^2 + 63j +
    27) / (256 (2j + 1)), are at most 0.527 (j = 3), 0.59 with their own
    h0/R terms at h0/R < 1/20; the third order, with the octic, is (111,
    -135, -3387, -15165) / (32768 (2j + 1)) epsilon^3, at most 0.0662.  The
    bound is 2 (0.6 epsilon^2 h0/R + 0.07 epsilon^3), for the orders
    beyond, plus 1e-13 for rounding; up to epsilon = 0.6 the solved levels
    (``oracle.trap_eigensolve``) stay within half of it.
    """
    j = np.arange(4.0)
    first = (9.0 / 32.0) * (2.0 * j * j + 2.0 * j + 1.0) / (2.0 * j + 1.0) * epsilon * (1.0 + 2.0 * h0_over_R / 3.0)
    second = (14.0 * j**3 + 21.0 * j * j + 109.0 * j + 51.0) / (1024.0 * (2.0 * j + 1.0)) * epsilon * epsilon
    bound = 2.0 * (0.6 * epsilon * epsilon * h0_over_R + 0.07 * epsilon**3) + 1e-13
    return first + second, bound


def effective_mass(mat: MaterialParams, geo: CavityGeometry, mode: ModeIndex, eta_x, eta_y):
    """Effective mode mass, flat-plate reference mass, and their ratio xi.

    m_flat = 4 rho h0 L^2 and xi = (4/pi) eta_x eta_y n / (I_m I_p / pi),
    where I_m(t) is the integral of e^{-z^2} H_m(z)^2 over |z| <= t =
    sqrt(n) eta: I_k = 2k I_{k-1} - 2 e^{-t^2} H_k H_{k-1} from
    I_0 = sqrt(pi) erf(t), so (0, 0) gives xi = (4/pi) eta_x eta_y n /
    (Erf Erf).  Unit-amplitude convention: the mode shape is e^{-z^2/2}
    H_m(z) along each axis, not normalised, so I_m -> 2^m m! sqrt(pi) for
    strong trapping and xi falls by 2^m m! 2^p p!; xi(1, 60, 0) ~ 2.7e-99
    at eta = 1 by design.  Raises OverflowError when that mass integral is
    not representable as a double, and OverflowError or FloatingPointError,
    naming eta and (m, p), when xi or the product of the on-plate energy
    fractions leaves the normal double range (naming h0 and L when m_flat
    does).  Takes floats or arrays of eta; m_flat stays a float.
    """
    ex, ey, scalar = _trapping(eta_x, eta_y)
    _require((ex > 0) & (ey > 0), ValueError,
             lambda k: "effective mass requires strictly positive trapping parameters")
    n = mode.n
    # 2^m m! 2^p p!, exact as an integer product of 2, 4, ..., 2m
    norm = math.prod(range(2, 2 * mode.m + 1, 2)) * math.prod(range(2, 2 * mode.p + 1, 2))
    if norm > sys.float_info.max:
        raise OverflowError(
            f"the unit-amplitude mass integral of in-plane numbers (m, p) = ({mode.m}, {mode.p})"
            " exceeds the double range"
        )
    with np.errstate(all="ignore"):
        fx, fy = _per_axis(_axis_energy_fraction, erf, mode, ex, ey)
        m_flat = _normal(
            4.0 * mat.rho * geo.h0 * _square_of_L(geo),
            f"the flat-plate mass at h0 = {geo.h0!r}, L = {geo.L!r}",
        )
        # a subnormal fx * fy would cost xi digits without a sign
        fxy = _normal(fx * fy, lambda k: f"the product of the on-plate energy fractions of"
                      f" {_mode_at(mode, ex, ey, k)}")
        xi = _normal((4.0 / math.pi) * ex * ey * n / (fxy * float(norm)),
                     lambda k: f"xi of {_mode_at(mode, ex, ey, k)}")
        m_eff = m_flat / xi
    return _figure(m_eff, scalar), m_flat, _figure(xi, scalar)


def _spreads(omega: float, mass, mode: ModeIndex, ex, ey):
    # zero-point spreads sqrt(hbar / (2 omega m)) and sqrt(hbar omega m / 2)
    mass = np.asarray(mass)
    x_sq = HBAR / (2.0 * omega * mass)
    p_sq = HBAR * omega * mass / 2.0
    what = lambda k: f"a squared zero-point spread of {_mode_at(mode, ex, ey, k)}"
    return np.sqrt(_normal(x_sq, what)), np.sqrt(_normal(p_sq, what))


def _zero_point(mat, geo, mode, ex, ey):
    # leading-order omega, m_eff, m_flat, xi and the spreads (x, p) of eta
    # arrays, every one range-checked: the core that characterize and zpf share
    m_eff, m_flat, xi = effective_mass(mat, geo, mode, ex, ey)
    omega = mode_frequency(mat, geo, mode)
    with np.errstate(all="ignore"):
        _normal(m_eff, lambda k: f"the effective mass of overtone n = {mode.n}, {_mode_at(mode, ex, ey, k)},")
        x, p = _spreads(omega, m_eff, mode, ex, ey)
    return omega, m_eff, m_flat, xi, x, p


def zpf(
    mat: MaterialParams,
    geo: CavityGeometry,
    mode: ModeIndex,
    eta_x,
    eta_y,
) -> tuple:
    """Zero-point spreads (x_zpf, p_zpf, x_zpf_flat, p_zpf_flat).

    x_zpf^2 = hbar / (2 omega m_eff) and the flat-plate reference uses the
    same frequency with the flat mass, so x_zpf = x_zpf_flat * sqrt(xi) and
    p_zpf = p_zpf_flat / sqrt(xi) hold identically.  omega is always the
    leading-order frequency, which makes the closed-form trapping identities
    exact.
    Runs the range checks of ``characterize`` and raises where it does.
    Takes floats or arrays of eta; the flat-plate spreads stay floats.
    """
    ex, ey, scalar = _trapping(eta_x, eta_y)
    omega, _, m_flat, _, x, p = _zero_point(mat, geo, mode, ex, ey)
    with np.errstate(all="ignore"):
        x_flat, p_flat = _spreads(omega, m_flat, mode, ex, ey)
    return _figure(x, scalar), _figure(p, scalar), float(x_flat), float(p_flat)


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Bose-Einstein occupancy 1 / (exp(hbar omega / kT) - 1).

    Strictly decreasing in omega; approaches kT/(hbar omega) - 1/2 in the
    classical limit.  Evaluated as exp(-x)/(-expm1(-x)) so neither large nor
    small hbar*omega/kT overflows; a kT that underflows to 0 counts as
    hbar*omega/kT = inf, occupancy 0.  Raises OverflowError when the
    occupancy itself exceeds the double range.
    """
    if not (temperature > 0 and math.isfinite(temperature)):
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    if not (omega > 0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    kt = BOLTZMANN_K * temperature
    x = HBAR * omega / kt if kt != 0.0 else math.inf
    occupancy = math.exp(-x) / (-math.expm1(-x)) if x != 0.0 else math.inf
    if math.isinf(occupancy):
        raise OverflowError(
            f"thermal occupancy at hbar omega / kT = {x!r} exceeds the double range"
        )
    return occupancy


def characterize(
    mat: MaterialParams,
    geo: CavityGeometry,
    mode: ModeIndex,
    temperature: float,
    eta_override=None,
) -> ModeCharacterization:
    """Full deterministic characterization of one mode at one temperature.

    ``eta_override`` replaces the first-principles trapping parameter with a
    measured/assumed value; this mirrors how experimental device figures
    are quoted.  It is one value for
    both axes or a tuple (eta_x, eta_y), each a float or an array.  Over
    arrays every eta-dependent figure is an array of their length, and
    omega, m_flat and n_thermal, which do not depend on eta, stay floats.
    omega is the leading-order frequency, as in ``zpf``.
    """
    if eta_override is not None:
        ex, ey, scalar = _trapping(*(eta_override if isinstance(eta_override, tuple)
                                     else (eta_override,)))
        for eta in (ex, ey):
            _reject(eta, (eta > 0) & _finite(eta), "eta override must be positive and finite")
    else:
        ex, ey, scalar = _trapping(*trapping_parameters(*envelope_curvatures(mat, geo, mode.n), geo.L))
    chi = escape_probability(mode, ex, ey)
    omega, m_eff, m_flat, xi, x, p = _zero_point(mat, geo, mode, ex, ey)
    return ModeCharacterization(
        omega=omega,
        eta_x=_figure(ex, scalar),
        eta_y=_figure(ey, scalar),
        chi_inv=_figure(chi, scalar),
        xi=_figure(xi, scalar),
        m_eff=_figure(m_eff, scalar),
        m_flat=m_flat,
        x_zpf=_figure(x, scalar),
        p_zpf=_figure(p, scalar),
        n_thermal=thermal_occupancy(omega, temperature),
    )
