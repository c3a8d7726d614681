"""Piezoelectric readout figures of merit.

Electrode overlap, zero-point output current, optimal electrode sizing and
the resulting parasitic shunt capacitance/impedance.  The optomechanical
readout needs no function here: a narrow beam at the cavity centre sees the
mode's ``x_zpf``, whose gain over the flat plate is sqrt(xi), and
``cavity.characterize`` returns both.  Within this module the leading-order
frequency is evaluated with the overtone-limit elastic coefficient
``c_bar_z`` (the piezoelectric overtone correction vanishes for large n),
which keeps the derived shunt impedance exactly independent of the overtone
number.  All operations are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cavity import _DBL_MIN, CavityGeometry, ModeIndex, _square_of_L, effective_mass
from .constants import HBAR
from .material import MaterialParams, _require_odd_overtone
from .specfun import erf, erf_inv, hermite

__all__ = [
    "ElectrodeDesign",
    "MU_OPT_3SIGMA",
    "overlap_factor",
    "piezo_current_zpf",
    "optimal_electrode",
    "shunt_impedance",
    "design_electrode",
]

# Default electrode coverage target: three envelope standard deviations per
# axis, mu = erf(3/sqrt(2))^2.
MU_OPT_3SIGMA = erf(3.0 / math.sqrt(2.0)) ** 2


@dataclass(frozen=True)
class ElectrodeDesign:
    """Sized electrode with its overlap and parasitic figures."""

    L_tilde: float  # electrode half-width (m)
    mu: float  # achieved overlap factor
    C0: float  # parasitic capacitance (F)
    Z_closed_form: float  # published closed-form shunt impedance (ohm)
    Z_shunt_mag: float  # shunt impedance magnitude, 1 / (omega C0) (ohm)
    mu_opt: float  # coverage target the size was derived from

    def __post_init__(self):
        if not self.L_tilde > 0:
            raise ValueError(f"L_tilde must be positive, got {self.L_tilde!r}")
        for name in ("mu", "mu_opt"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v!r}")
        for name in ("C0", "Z_closed_form", "Z_shunt_mag"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def _omega_ref(mat: MaterialParams, geo: CavityGeometry, n: int) -> float:
    # leading-order frequency with the overtone-limit elastic coefficient;
    # exactly proportional to n by construction
    return (n * math.pi / (2.0 * geo.h0)) * math.sqrt(mat.c_bar_z / mat.rho)


def _axis_overlap(m: int, t: float) -> float:
    # j_m = J_m / sqrt(2 pi) with J_m the integral of e^{-z^2/2} H_m(z) over
    # |z| <= t, for even m: J_m = 2(m-1) J_{m-2} - 4 e^{-t^2/2} H_{m-1}(t)
    # from j_0 = erf(t / sqrt(2))
    j = erf(t / math.sqrt(2.0))
    edge = 4.0 * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    for k in range(2, m + 1, 2):
        j = 2.0 * (k - 1) * j - edge * hermite(k - 1, t)
    return j


def overlap_factor(mode: ModeIndex, alpha: float, beta: float, L_tilde: float) -> float:
    """Electrode overlap factor mu for square electrodes of half-width L_tilde.

    Separable per axis: mu = j_m(sqrt(n) nu_x) j_p(sqrt(n) nu_y) with
    nu = sqrt(pi * alpha) * L_tilde and j_m the integral of e^{-z^2/2}
    H_m(z) over |z| <= t divided by sqrt(2 pi), from
    J_m = 2(m-1) J_{m-2} - 4 e^{-t^2/2} H_{m-1}(t).  The fundamental family
    gives mu = Erf(sqrt(n) nu_x / sqrt(2)) Erf(sqrt(n) nu_y / sqrt(2)),
    monotone in L_tilde and saturating at 1; higher even in-plane numbers
    use the unit-amplitude mode shape, and their overlap can change sign
    at nodal lines.
    """
    if not (alpha > 0 and beta > 0 and L_tilde > 0):
        raise ValueError("alpha, beta and L_tilde must be positive")
    nu_x = math.sqrt(math.pi * alpha) * L_tilde
    nu_y = math.sqrt(math.pi * beta) * L_tilde
    rn = math.sqrt(mode.n)
    return _axis_overlap(mode.m, rn * nu_x) * _axis_overlap(mode.p, rn * nu_y)


def piezo_current_zpf(
    mat: MaterialParams,
    geo: CavityGeometry,
    mode: ModeIndex,
    eta_x: float,
    eta_y: float,
    mu: float,
) -> float:
    """RMS zero-point output current of the piezoelectric readout (A).

    I_rms = e_z * pi * mu / (sqrt(alpha beta) h0 m_flat) * sqrt(xi)
    * p_zpf_flat; linear in mu, and the geometric part grows as sqrt(xi).
    Requires a piezoelectric material (e_z > 0).
    """
    if mat.e_z <= 0.0:
        raise ValueError(
            "piezoelectric readout requires e_z > 0; this material cannot use it"
        )
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu!r}")
    if not (eta_x > 0 and eta_y > 0):
        raise ValueError("trapping parameters must be positive")
    area = math.pi * _square_of_L(geo)
    alpha = eta_x**2 / area
    beta = eta_y**2 / area
    _, m_flat, xi = effective_mass(mat, geo, mode, eta_x, eta_y)
    p_flat = math.sqrt(HBAR * _omega_ref(mat, geo, mode.n) * m_flat / 2.0)
    prefactor = mat.e_z * math.pi * mu / (math.sqrt(alpha * beta) * geo.h0 * m_flat)
    return prefactor * math.sqrt(xi) * p_flat


def optimal_electrode(geo: CavityGeometry, eta: float, n: int, mu_opt: float = MU_OPT_3SIGMA) -> float:
    """Smallest electrode half-width reaching overlap mu_opt (alpha = beta).

    L_tilde_opt = (L / eta) sqrt(2 / n) Erf^-1(sqrt(mu_opt)); shrinks as
    n^(-1/2) because higher overtones focus the mode tighter.
    """
    if not 0.0 < mu_opt < 1.0:
        raise ValueError(f"mu_opt must lie in (0, 1), got {mu_opt!r}")
    if not (eta > 0 and math.isfinite(eta)):
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    _require_odd_overtone(n)
    return (geo.L / eta) * math.sqrt(2.0 / n) * erf_inv(math.sqrt(mu_opt))


def shunt_impedance(
    mat: MaterialParams,
    geo: CavityGeometry,
    eta: float,
    n: int,
    mu_opt: float = MU_OPT_3SIGMA,
) -> tuple[float, float, float]:
    """Parasitic figures (C0, Z_closed_form, Z_derived) for the optimal electrode.

    C0 treats the electrodes as a parallel-plate capacitor: square plates of
    side 2*L_tilde_opt separated by the full thickness 2*h0, no fringe
    fields.  Z_derived = 1 / (omega_n C0) with the leading-order frequency;
    since C0 is proportional to 1/n this is exactly overtone-independent.
    Z_closed_form evaluates the published closed-form impedance expression
    verbatim; the two conventions disagree by an O(1) factor and are both
    reported.  Raises OverflowError, naming eta and n, when a figure leaves
    the normal double range.
    """
    lt = optimal_electrode(geo, eta, n, mu_opt)
    c0 = mat.eps_z * (2.0 * lt) ** 2 / (2.0 * geo.h0)
    z_derived = 1.0 / (_omega_ref(mat, geo, n) * c0)
    z_closed = (
        (2.0 * geo.h0**2 / (mat.eps_z * geo.L**2))
        * math.sqrt(mat.rho / mat.c_bar_z)
        * eta**2
        * erf(math.sqrt(mu_opt)) ** 2
    )
    if not all(_DBL_MIN <= v < math.inf for v in (c0, z_closed, z_derived)):
        raise OverflowError(
            f"the shunt figures of overtone n = {n} at eta = {eta!r} are outside the normal"
            " double range"
        )
    return c0, z_closed, z_derived


def design_electrode(
    mat: MaterialParams,
    geo: CavityGeometry,
    eta: float,
    n: int,
    mu_opt: float = MU_OPT_3SIGMA,
) -> ElectrodeDesign:
    """Size the electrode for mode (n, 0, 0) and collect its figures.

    Raises OverflowError, naming eta and n, when the envelope curvature or a
    shunt figure leaves the double range, and an ArithmeticError naming L
    when L^2 does.
    """
    lt = optimal_electrode(geo, eta, n, mu_opt)
    if lt >= geo.L:
        raise ValueError(
            f"optimal electrode half-width {lt:.4g} m does not fit the plate (L={geo.L:.4g} m)"
        )
    area = math.pi * _square_of_L(geo)
    try:
        alpha = eta**2 / area
    except OverflowError:
        alpha = math.inf
    if alpha == math.inf:
        raise OverflowError(
            f"the envelope curvature of overtone n = {n} at eta = {eta!r} exceeds the double range"
        )
    mu = overlap_factor(ModeIndex(n), alpha, alpha, lt)
    c0, z_closed, z_derived = shunt_impedance(mat, geo, eta, n, mu_opt)
    return ElectrodeDesign(
        L_tilde=lt, mu=mu, C0=c0, Z_closed_form=z_closed, Z_shunt_mag=z_derived, mu_opt=mu_opt
    )
