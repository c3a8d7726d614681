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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import BOLTZMANN_K, HBAR
from .material import MaterialParams, dispersion_parameters, stiffened_constants
from .specfun import erf, erfc, erfcx, hermite

__all__ = [
    "CavityGeometry",
    "ModeIndex",
    "ModeCharacterization",
    "envelope_curvatures",
    "trapping_parameters",
    "mode_shape",
    "escape_probability",
    "escape_probability_log10",
    "mode_frequency",
    "effective_mass",
    "zpf",
    "thermal_occupancy",
    "characterize",
]

_PI_M14 = math.pi**-0.25  # pi^{-1/4} = psi_0(0), orthonormal Hermite functions
_DBL_MIN = sys.float_info.min  # smallest normal double


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
        for name in ("L", "h0", "R"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if not 2.0 * self.h0 < self.R / 10.0:
            raise ValueError(
                f"plate thickness 2*h0={2 * self.h0!r} must stay below R/10={self.R / 10.0!r}"
            )


@dataclass(frozen=True)
class ModeIndex:
    """Mode numbers: overtone n (odd) and in-plane numbers m, p (even).

    Only odd-n / even-(m, p) modes couple piezoelectrically, so the regular
    constructor rejects everything else.  ``relaxed`` bypasses that check for
    numerical cross-validation against brute-force integrals; never use it
    for physics results.
    """

    n: int
    m: int = 0
    p: int = 0

    def __post_init__(self):
        if self.n != int(self.n) or self.n < 1 or self.n % 2 == 0:
            raise ValueError(f"overtone must be odd and positive, got {self.n!r}")
        for name in ("m", "p"):
            v = getattr(self, name)
            if v != int(v) or v < 0 or v % 2 != 0:
                raise ValueError(
                    f"in-plane number {name} must be even and non-negative, got {v!r}"
                )

    @classmethod
    def relaxed(cls, n: int, m: int = 0, p: int = 0) -> "ModeIndex":
        """Unvalidated constructor for oracle tests (any non-negative m, p)."""
        if n < 1 or min(m, p) < 0:
            raise ValueError("relaxed mode numbers must still be non-negative, n >= 1")
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", int(n))
        object.__setattr__(obj, "m", int(m))
        object.__setattr__(obj, "p", int(p))
        return obj


@dataclass(frozen=True)
class ModeCharacterization:
    """Derived figures of one cavity mode at one temperature.

    x_zpf and p_zpf always satisfy the minimum-uncertainty product
    x_zpf * p_zpf = hbar / 2 (checked at construction to 1e-12 relative).
    """

    omega: float  # angular frequency (rad/s)
    alpha: float  # envelope curvature along x (1/m^2)
    beta: float  # envelope curvature along y (1/m^2)
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
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega!r}")
        if not 0.0 <= self.chi_inv <= 1.0:
            raise ValueError(f"chi_inv must lie in [0, 1], got {self.chi_inv!r}")
        if not self.xi > 0:
            raise ValueError(f"xi must be positive, got {self.xi!r}")
        prod = self.x_zpf * self.p_zpf
        if abs(prod - HBAR / 2.0) > 1e-12 * (HBAR / 2.0):
            raise ValueError("x_zpf * p_zpf must equal hbar/2 (minimum uncertainty)")


def envelope_curvatures(mat: MaterialParams, geo: CavityGeometry, n: int) -> tuple[float, float]:
    """Gaussian envelope curvatures (alpha, beta) in 1/m^2.

    alpha^2 = c_hat_z / (8 R h0^3 M_n) and analogously with P_n for beta;
    both scale as R^(-1/2).
    """
    _, c_hat = stiffened_constants(mat, n)
    m_n, p_n = dispersion_parameters(mat, n)
    denom = 8.0 * geo.R * geo.h0**3
    return math.sqrt(c_hat / (denom * m_n)), math.sqrt(c_hat / (denom * p_n))


def trapping_parameters(alpha: float, beta: float, L: float) -> tuple[float, float]:
    """Dimensionless per-axis trapping parameters eta = sqrt(pi*alpha) * L."""
    if not (alpha > 0 and beta > 0 and L > 0):
        raise ValueError("alpha, beta and L must be positive")
    return math.sqrt(math.pi * alpha) * L, math.sqrt(math.pi * beta) * L


def mode_shape(mode: ModeIndex, alpha: float, beta: float) -> Callable:
    """In-plane displacement profile u(x, y), unit amplitude.

    u = exp(-alpha n pi x^2/2) H_m(sqrt(alpha n pi) x) * (same along y with
    beta, p); u(0, 0) = 1 for the fundamental family m = p = 0.  The returned
    callable accepts scalars or numpy arrays.
    """
    ax = alpha * mode.n * math.pi
    ay = beta * mode.n * math.pi
    sx, sy = math.sqrt(ax), math.sqrt(ay)
    m, p = mode.m, mode.p

    def u(x, y):
        return (
            np.exp(-0.5 * ax * np.asarray(x) ** 2) * hermite(m, sx * np.asarray(x))
            * np.exp(-0.5 * ay * np.asarray(y) ** 2) * hermite(p, sy * np.asarray(y))
        )

    return u


def _hermite_tail(m: int, t: float, psi0: float) -> float:
    # sum_{k=1}^{m} sqrt(2/k) psi_k(t) psi_{k-1}(t) over the orthonormal
    # Hermite functions psi_k = psi0 H_k / sqrt(2^k k!), built by their own
    # three-term recurrence so no 2^k k! overflows.  With psi0 =
    # pi^{-1/4} e^{-t^2/2} each term is e^{-t^2} H_k H_{k-1} / (sqrt(pi)
    # 2^{k-1} k!), the step D_k - D_{k-1} of the per-axis deficit.
    total, prev, cur = 0.0, 0.0, psi0
    for k in range(1, m + 1):
        a = math.sqrt(2.0 / k)
        prev, cur = cur, a * t * cur - math.sqrt((k - 1) / k) * prev
        total += a * cur * prev
    return total


def _axis_deficit(m: int, t: float) -> float:
    # Fraction of one axis' modal energy beyond |z| = t: D_0 = erfc(t) plus
    # the Hermite steps, which are all positive beyond the last zero of H_m,
    # so strong trapping does not cancel digits.
    return erfc(t) + _hermite_tail(m, t, _PI_M14 * math.exp(-0.5 * t * t))


def _axis_energy_fraction(m: int, t: float) -> float:
    # Fraction of one axis' modal energy on the plate, I_m(t) / (2^m m!
    # sqrt(pi)) with I_m the integral of e^{-z^2} H_m(z)^2 over |z| <= t:
    # I_k = 2k I_{k-1} - 2 e^{-t^2} H_k H_{k-1} from I_0 = sqrt(pi) erf(t),
    # divided through by the norm so weak trapping does not cancel digits.
    return erf(t) - _hermite_tail(m, t, _PI_M14 * math.exp(-0.5 * t * t))


def _mode_at(mode: ModeIndex, eta_x: float, eta_y: float) -> str:
    # names the in-plane numbers and trapping of a figure in error messages
    return f"(m, p) = ({mode.m}, {mode.p}) at eta = ({eta_x!r}, {eta_y!r})"


def _check_eta(eta_x: float, eta_y: float):
    if not (eta_x >= 0 and eta_y >= 0 and math.isfinite(eta_x) and math.isfinite(eta_y)):
        raise ValueError(f"trapping parameters must be non-negative, got {eta_x!r}, {eta_y!r}")


def escape_probability(mode: ModeIndex, eta_x: float, eta_y: float) -> float:
    """Fraction of modal energy outside the finite plate, in [0, 1].

    Separable per axis: each axis' deficit D_m(t), t = sqrt(n) eta, follows
    D_k = D_{k-1} + e^{-t^2} H_k(t) H_{k-1}(t) / (sqrt(pi) 2^{k-1} k!) from
    D_0 = erfc(t), and chi = D_x + D_y - D_x D_y.  May underflow to exactly
    0 for strong trapping; use escape_probability_log10 in that regime.
    """
    _check_eta(eta_x, eta_y)
    dx = _axis_deficit(mode.m, math.sqrt(mode.n) * eta_x)
    dy = _axis_deficit(mode.p, math.sqrt(mode.n) * eta_y)
    chi = dx + dy - dx * dy
    return min(1.0, max(0.0, chi))


def _log_axis_deficit(m: int, t: float) -> float:
    # ln of the per-axis deficit, stable for arbitrarily strong trapping.
    # For t >= 2 it is -t^2 + ln(erfcx(t) + P_m(t)), where the polynomial
    # P_m(t) = e^{t^2} (D_m - erfc) is the Hermite tail from psi0 = pi^{-1/4}.
    # The tail is run from psi0 = pi^{-1/4} e^{-c} instead, with e^c the
    # size (sqrt(2) t)^m / sqrt(m!) of its leading term, so that large m and
    # t cannot overflow it; the factor e^{-2c} is taken back out of the log.
    if t < 2.0:
        return math.log(_axis_deficit(m, t))
    c = max(0.0, m * math.log(math.sqrt(2.0) * t) - 0.5 * math.lgamma(m + 1.0))
    s = erfcx(t) * math.exp(-2.0 * c) + _hermite_tail(m, t, _PI_M14 * math.exp(-c))
    return math.log(s) - t * t + 2.0 * c


def escape_probability_log10(mode: ModeIndex, eta_x: float, eta_y: float) -> float:
    """log10 of the escape probability via complementary asymptotics.

    Stays finite long after the linear-scale value underflows to zero, for
    every even (m, p): each axis' deficit is factored as
    e^{-t^2} (erfcx(t) + P_m(t)) with P_m a polynomial in t.
    """
    _check_eta(eta_x, eta_y)
    if not (eta_x > 0 and eta_y > 0):
        raise ValueError("log-scale escape requires strictly positive trapping")
    lx = _log_axis_deficit(mode.m, math.sqrt(mode.n) * eta_x)
    ly = _log_axis_deficit(mode.p, math.sqrt(mode.n) * eta_y)
    hi, lo = max(lx, ly), min(lx, ly)
    if hi > -700.0:
        dx, dy = math.exp(lx), math.exp(ly)
        return math.log10(dx + dy - dx * dy)
    # both deficits underflow linearly; the cross term is ~e^{lo} smaller
    return (hi + math.log1p(math.exp(lo - hi))) / math.log(10.0)


def mode_frequency(
    mat: MaterialParams, geo: CavityGeometry, mode: ModeIndex, leading_order: bool = False
) -> float:
    """Angular frequency (rad/s) of mode (n, m, p).

    omega^2 = (n pi / (2 h0))^2 (c_hat_z / rho) * bracket, where the bracket
    carries the in-plane corrections (2m+1), (2p+1); ``leading_order`` drops
    the bracket (exact n-proportionality).
    """
    _, c_hat = stiffened_constants(mat, mode.n)
    lead = (mode.n * math.pi / (2.0 * geo.h0)) ** 2 * c_hat / mat.rho
    if leading_order:
        return math.sqrt(lead)
    m_n, p_n = dispersion_parameters(mat, mode.n)
    chi_x = math.sqrt(2.0 * geo.h0 * m_n / (geo.L * c_hat)) / math.pi
    chi_y = math.sqrt(2.0 * geo.h0 * p_n / (geo.L * c_hat)) / math.pi
    bracket = 1.0 + (chi_x / mode.n) * (2 * mode.m + 1) + (chi_y / mode.n) * (2 * mode.p + 1)
    return math.sqrt(lead * bracket)


def effective_mass(
    mat: MaterialParams, geo: CavityGeometry, mode: ModeIndex, eta_x: float, eta_y: float
) -> tuple[float, float, float]:
    """Effective mode mass, flat-plate reference mass, and their ratio xi.

    m_flat = 4 rho h0 L^2 and xi = (4/pi) eta_x eta_y n / (I_m I_p / pi),
    where I_m(t) is the integral of e^{-z^2} H_m(z)^2 over |z| <= t =
    sqrt(n) eta: I_k = 2k I_{k-1} - 2 e^{-t^2} H_k H_{k-1} from
    I_0 = sqrt(pi) erf(t), so (0, 0) gives xi = (4/pi) eta_x eta_y n /
    (Erf Erf).  Unit-amplitude convention: the mode shape is e^{-z^2/2}
    H_m(z) along each axis, not normalised, so I_m -> 2^m m! sqrt(pi) for
    strong trapping and xi falls by 2^m m! 2^p p!; xi(1, 60, 0) ~ 2.7e-99
    at eta = 1 by design.  Raises ValueError when that mass integral is not
    representable as a double, and FloatingPointError, naming eta and
    (m, p), when xi or the product of the on-plate energy fractions leaves
    the normal double range.
    """
    if not (eta_x > 0 and eta_y > 0):
        raise ValueError("effective mass requires strictly positive trapping parameters")
    n = mode.n
    # 2^m m! 2^p p!, exact as an integer product of 2, 4, ..., 2m
    norm = math.prod(range(2, 2 * mode.m + 1, 2)) * math.prod(range(2, 2 * mode.p + 1, 2))
    if norm > sys.float_info.max:
        raise ValueError(
            f"the unit-amplitude mass integral of in-plane numbers (m, p) = ({mode.m}, {mode.p})"
            " exceeds the double range"
        )
    fx = _axis_energy_fraction(mode.m, math.sqrt(n) * eta_x)
    fy = _axis_energy_fraction(mode.p, math.sqrt(n) * eta_y)
    m_flat = 4.0 * mat.rho * geo.h0 * geo.L**2
    # a subnormal fx * fy would cost xi digits without a sign
    fxy = fx * fy
    if fxy < _DBL_MIN:
        raise FloatingPointError(
            f"the on-plate energy fractions of {_mode_at(mode, eta_x, eta_y)}"
            " are below the normal double range"
        )
    xi = (4.0 / math.pi) * eta_x * eta_y * n / (fxy * norm)
    if not _DBL_MIN <= xi < math.inf:
        raise FloatingPointError(
            f"xi of {_mode_at(mode, eta_x, eta_y)} is outside the normal double range"
        )
    return m_flat / xi, m_flat, xi


def zpf(
    mat: MaterialParams,
    geo: CavityGeometry,
    mode: ModeIndex,
    eta_x: float,
    eta_y: float,
    leading_order: bool = True,
) -> tuple[float, float, float, float]:
    """Zero-point spreads (x_zpf, p_zpf, x_zpf_flat, p_zpf_flat).

    x_zpf^2 = hbar / (2 omega m_eff) and the flat-plate reference uses the
    same frequency with the flat mass, so x_zpf = x_zpf_flat * sqrt(xi) and
    p_zpf = p_zpf_flat / sqrt(xi) hold identically.  The default
    leading-order frequency makes the closed-form trapping identities exact.
    """
    omega = mode_frequency(mat, geo, mode, leading_order=leading_order)
    m_eff, m_flat, _ = effective_mass(mat, geo, mode, eta_x, eta_y)
    x = math.sqrt(HBAR / (2.0 * omega * m_eff))
    p = math.sqrt(HBAR * omega * m_eff / 2.0)
    x_flat = math.sqrt(HBAR / (2.0 * omega * m_flat))
    p_flat = math.sqrt(HBAR * omega * m_flat / 2.0)
    return x, p, x_flat, p_flat


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Bose-Einstein occupancy 1 / (exp(hbar omega / kT) - 1).

    Strictly decreasing in omega; approaches kT/(hbar omega) - 1/2 in the
    classical limit.  Evaluated as exp(-x)/(-expm1(-x)) so neither large nor
    small hbar*omega/kT overflows; raises OverflowError when the occupancy
    itself exceeds the double range.
    """
    if not (temperature > 0 and math.isfinite(temperature)):
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    if not (omega > 0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    x = HBAR * omega / (BOLTZMANN_K * temperature)
    occupancy = math.exp(-x) / (-math.expm1(-x))
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
    eta_override: float | None = None,
    leading_order: bool = True,
) -> ModeCharacterization:
    """Full deterministic characterization of one mode at one temperature.

    ``eta_override`` replaces the first-principles trapping parameter with a
    measured/assumed value (both axes), re-deriving the envelope curvature
    from it; this mirrors how experimental device figures are quoted.
    """
    if eta_override is not None:
        if not (eta_override > 0 and math.isfinite(eta_override)):
            raise ValueError(f"eta override must be positive, got {eta_override!r}")
        eta_x = eta_y = float(eta_override)
        try:
            alpha = beta = eta_x**2 / (math.pi * geo.L**2)
        except OverflowError:
            alpha = beta = math.inf
        if alpha == math.inf:
            raise OverflowError(
                f"the envelope curvature of {_mode_at(mode, eta_x, eta_y)} exceeds the double range"
            )
    else:
        alpha, beta = envelope_curvatures(mat, geo, mode.n)
        eta_x, eta_y = trapping_parameters(alpha, beta, geo.L)
    chi = escape_probability(mode, eta_x, eta_y)
    m_eff, m_flat, xi = effective_mass(mat, geo, mode, eta_x, eta_y)
    omega = mode_frequency(mat, geo, mode, leading_order=leading_order)
    if not (omega < math.inf and _DBL_MIN <= min(m_eff, m_flat) and m_eff < math.inf):
        raise OverflowError(
            f"the frequency or the mass of overtone n = {mode.n},"
            f" {_mode_at(mode, eta_x, eta_y)}, is outside the normal double range"
        )
    x_sq = HBAR / (2.0 * omega * m_eff)
    p_sq = HBAR * omega * m_eff / 2.0
    if x_sq < _DBL_MIN or p_sq < _DBL_MIN:
        raise ValueError(
            f"a squared zero-point spread of {_mode_at(mode, eta_x, eta_y)}"
            " is below the normal double range"
        )
    x = math.sqrt(x_sq)
    p = math.sqrt(p_sq)
    return ModeCharacterization(
        omega=omega,
        alpha=alpha,
        beta=beta,
        eta_x=eta_x,
        eta_y=eta_y,
        chi_inv=chi,
        xi=xi,
        m_eff=m_eff,
        m_flat=m_flat,
        x_zpf=x,
        p_zpf=p,
        n_thermal=thermal_occupancy(omega, temperature),
    )
