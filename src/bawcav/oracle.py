"""Independent brute-force validators for the closed-form mode figures.

Quadrature oracles integrate ``cavity.mode_shape`` (``u`` for the electrode
overlap, ``u**2`` for mass and escape) over the plate in two dimensions.
The closed forms never evaluate that shape, so a disagreement here shows a
defect in a closed form, or a mode shape that is not the one the closed
forms describe.  The trapped-mode eigenproblem is additionally solved by
finite differences to validate the envelope curvature and the harmonic level
structure from the underlying wave equation rather than from its known
solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityGeometry, ModeIndex, mode_shape
from .material import MaterialParams, dispersion_parameters, stiffened_constants
from .specfun import QuadratureSpec, integrate_rectangles

__all__ = [
    "EigenSolveConfig",
    "EigensolveConvergenceError",
    "TrapEigenResult",
    "mass_integral_oracle",
    "escape_integral_oracle",
    "escape_and_mass_oracle",
    "overlap_integral_oracle",
    "trap_eigensolve",
    "fit_gaussian_curvature",
]

# Relative-accuracy-dominated budget: oracle values back 1e-8 comparisons,
# and the exterior tail pieces are tiny in absolute terms.  The bound is
# |K15 - G7| per box, so the Kronrod values returned land near rounding
# (criterion 8 deviations of ~2e-15 on its 20 cases).
_ORACLE_QUAD = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-280, max_depth=40)

# Exterior integration reaches this many envelope decay lengths past the
# plate edge; the leftover tail is below 1e-20 of the captured value.
_TAIL_DECAY_LENGTHS = 10.0


class EigensolveConvergenceError(ArithmeticError):
    """Inverse iteration failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EigenSolveConfig:
    """Grid and convergence settings for the trapped-mode eigensolver."""

    grid_points: int = 1601
    domain_sigma: float = 8.0  # half-width in units of the envelope sigma
    num_eigenpairs: int = 4
    tolerance: float = 1e-9  # relative residual bound per eigenpair

    def __post_init__(self):
        if self.grid_points < 201 or self.grid_points % 2 == 0:
            raise ValueError("grid_points must be odd and at least 201")
        if not self.domain_sigma >= 8.0:
            raise ValueError("domain_sigma must be at least 8")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not 1 <= self.num_eigenpairs <= 64:
            raise ValueError("num_eigenpairs must be between 1 and 64")


@dataclass(frozen=True)
class TrapEigenResult:
    """Lowest eigenpairs of the in-plane trapping operator (x slice).

    ``lambdas`` are operator eigenvalues, ``omegas`` the corresponding mode
    angular frequencies including the thickness term, ``vectors`` the grid
    eigenfunctions (one column each, peak-normalized, positive at the grid
    point just right of the centre).
    """

    x: np.ndarray
    lambdas: np.ndarray
    omegas: np.ndarray
    vectors: np.ndarray
    # the work behind each eigenpair: Sturm counts evaluated (a shift already
    # counted in this solve is looked up, not recounted), bisection steps,
    # inverse iterations, and the relative residual ||A v - lambda v|| / |lambda|
    # it stopped at
    sturm_counts: tuple[int, ...]
    bisection_steps: tuple[int, ...]
    inverse_iterations: tuple[int, ...]
    residuals: tuple[float, ...]

    def pairs(self) -> list[tuple[float, np.ndarray]]:
        return [(float(w), self.vectors[:, j]) for j, w in enumerate(self.omegas)]


def _mode_density(mode: ModeIndex, alpha: float, beta: float):
    # u^2 of the unit-amplitude mode shape
    u = mode_shape(mode, alpha, beta)
    return lambda x, y: u(x, y) ** 2


def _plate_and_exterior(mode: ModeIndex, alpha: float, beta: float, L: float) -> tuple[float, float]:
    # integrals of u^2 over the plate and over the plane outside it, in one
    # pass over four rectangles.  u^2 is even in each coordinate (the Hermite
    # factor enters squared), so one strip and one corner per axis pair
    # suffice; the exterior reaches _TAIL_DECAY_LENGTHS decay lengths out.
    ax = alpha * mode.n * math.pi
    ay = beta * mode.n * math.pi
    margin_x = (_TAIL_DECAY_LENGTHS + 2.0 * math.sqrt(mode.m + 1.0)) / math.sqrt(ax)
    margin_y = (_TAIL_DECAY_LENGTHS + 2.0 * math.sqrt(mode.p + 1.0)) / math.sqrt(ay)
    xo = L + margin_x
    yo = L + margin_y
    usq = _mode_density(mode, alpha, beta)
    inner, strip_x, strip_y, corner = integrate_rectangles(
        usq,
        [((-L, L), (-L, L)), ((L, xo), (-L, L)), ((-L, L), (L, yo)), ((L, xo), (L, yo))],
        _ORACLE_QUAD,
    )
    return inner, 2.0 * strip_x + 2.0 * strip_y + 4.0 * corner


def mass_integral_oracle(
    mode: ModeIndex, alpha: float, beta: float, L: float, rho: float, h0: float
) -> float:
    """Effective mass by 2-D quadrature of the squared mode shape.

    rho * h0 * integral of u^2 over the plate, with unit mode amplitude (the
    convention behind the closed forms) and the factor h0 coming from the
    thickness average of sin^2.
    """
    usq = _mode_density(mode, alpha, beta)
    return rho * h0 * integrate_rectangles(usq, [((-L, L), (-L, L))], _ORACLE_QUAD)[0]


def escape_integral_oracle(mode: ModeIndex, alpha: float, beta: float, L: float) -> float:
    """Escape probability as exterior-energy fraction, by 2-D quadrature.

    Computed as I_outside / (I_plate + I_outside) so the result keeps full
    relative accuracy even when almost no energy escapes; the sum equals the
    truncated whole-plane integral.
    """
    inner, outside = _plate_and_exterior(mode, alpha, beta, L)
    return outside / (inner + outside)


def escape_and_mass_oracle(
    mode: ModeIndex, alpha: float, beta: float, L: float, rho: float, h0: float
) -> tuple[float, float]:
    """Escape probability and effective mass from one quadrature pass.

    The plate integral the mass needs is also the escape fraction's, so it is
    computed once; the pair equals (``escape_integral_oracle``,
    ``mass_integral_oracle``) bit for bit.
    """
    inner, outside = _plate_and_exterior(mode, alpha, beta, L)
    return outside / (inner + outside), rho * h0 * inner


def overlap_integral_oracle(
    mode: ModeIndex, alpha: float, beta: float, L_tilde: float
) -> float:
    """Electrode overlap factor by surface integration of the mode shape.

    mu = (n sqrt(alpha beta) / 2) * integral of u over the electrode, the
    normalization under which full coverage of a fundamental mode gives 1.
    """
    u = mode_shape(mode, alpha, beta)
    surf = integrate_rectangles(u, [((-L_tilde, L_tilde), (-L_tilde, L_tilde))], _ORACLE_QUAD)[0]
    return 0.5 * mode.n * math.sqrt(alpha * beta) * surf


# ---------------------------------------------------------------------------
# finite-difference eigensolver for the in-plane trap
# ---------------------------------------------------------------------------

def _sturm_count(shifted: list[float], off2: float, pivmin: float) -> int:
    # number of eigenvalues below the shift of the symmetric tridiagonal
    # matrix whose shifted diagonal is given, by the sign count of its LDL^T
    # pivots, a pivot within pivmin of 0 taken as -pivmin; Python floats, as
    # numpy scalars cost several times more per step
    neg_pivmin = -pivmin
    d = shifted[0]
    if neg_pivmin < d < pivmin:
        d = neg_pivmin
    count = 1 if d < 0.0 else 0
    for a in itertools.islice(shifted, 1, None):
        d = a - off2 / d
        if d < pivmin:  # negative once a tiny pivot is replaced
            if d > neg_pivmin:
                d = neg_pivmin
            count += 1
    return count


def _thomas_solve(diag: list[float], off: float, rhs: list[float]) -> np.ndarray:
    # tridiagonal solve with constant off-diagonal, no pivoting (the shifted
    # systems here are diagonally dominated away from exact eigenvalues)
    c = [off / diag[0]]
    d = [rhs[0] / diag[0]]
    for a, r in zip(itertools.islice(diag, 1, None), itertools.islice(rhs, 1, None)):
        denom = a - off * c[-1]
        if denom == 0.0:
            denom = 1e-300
        c.append(off / denom)
        d.append((r - off * d[-1]) / denom)
    x = [d[-1]]
    for ci, di in zip(reversed(c[:-1]), reversed(d[:-1])):
        x.append(di - ci * x[-1])
    x.reverse()
    return np.array(x)


def trap_eigensolve(
    mat: MaterialParams,
    geo: CavityGeometry,
    n: int,
    config: EigenSolveConfig = EigenSolveConfig(),
) -> TrapEigenResult:
    """Lowest eigenpairs of -M u'' + k x^2 u = lambda u on a symmetric grid.

    The potential coefficient k = pi^2 n^2 c_hat_z / (8 R h0^3) comes from
    the slowly varying thickness of the curved plate; eigenvalues of the
    discretized operator form the in-plane harmonic ladder, and the ground
    eigenvector reproduces the Gaussian envelope.  Frequencies include the
    thickness term: rho omega^2 = (n pi / (2 h0))^2 c_hat_z + lambda.

    Second-order central differences with Dirichlet boundaries; eigenvalues
    located by Sturm bisection, eigenvectors by shifted inverse iteration
    with deflation against already-converged pairs.
    """
    _, c_hat = stiffened_constants(mat, n)
    m_n, _ = dispersion_parameters(mat, n)
    k_pot = math.pi**2 * n**2 * c_hat / (8.0 * geo.R * geo.h0**3)
    gamma = math.sqrt(k_pot / m_n)  # expected ground curvature n*pi*alpha
    sigma = 1.0 / math.sqrt(gamma)

    npts = config.grid_points
    half_width = config.domain_sigma * sigma
    h = 2.0 * half_width / (npts + 1)
    x = -half_width + h * np.arange(1, npts + 1)
    off = -m_n / (h * h)
    diag = 2.0 * m_n / (h * h) + k_pot * x * x

    scale = float(np.max(np.abs(diag)) + 2.0 * abs(off))
    pivmin = 1e-14 * scale
    lo0 = float(np.min(diag)) - 2.0 * abs(off)
    hi0 = scale
    off2 = off * off

    # Sturm counts by shift: the bisections of successive eigenvalues start
    # from the same bracket and share their first midpoints
    below: dict[float, int] = {}
    lambdas, sturm_counts, bisection_steps = [], [], []
    for j in range(config.num_eigenpairs):
        lo, hi = lo0, hi0
        evaluated = 0
        for step in range(1, 81):
            mid = 0.5 * (lo + hi)
            if mid not in below:
                below[mid] = _sturm_count((diag - mid).tolist(), off2, pivmin)
                evaluated += 1
            if below[mid] <= j:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * max(abs(lo), abs(hi)):
                break
        lambdas.append(0.5 * (lo + hi))
        sturm_counts.append(evaluated)
        bisection_steps.append(step)

    rng = np.random.default_rng(12345)
    vectors = np.empty((npts, config.num_eigenpairs))
    lam_out, iterations, residuals = [], [], []
    for j, lam in enumerate(lambdas):
        shift = lam * (1.0 + 1e-11) + pivmin
        shifted = (diag - shift).tolist()
        v = rng.standard_normal(npts)
        rayleigh = lam
        residual = math.inf
        for it in range(1, 61):
            for q in range(j):  # deflation
                v -= (vectors[:, q] @ v) * vectors[:, q]
            w = _thomas_solve(shifted, off, v.tolist())
            v = w / np.linalg.norm(w)
            av = diag * v
            av[:-1] += off * v[1:]
            av[1:] += off * v[:-1]
            rayleigh = float(v @ av)
            residual = float(np.linalg.norm(av - rayleigh * v)) / abs(rayleigh)
            if residual <= config.tolerance:
                break
        if residual > config.tolerance:
            raise EigensolveConvergenceError(
                f"eigenpair {j} stalled at relative residual {residual:.3e}", residual
            )
        # not signed at the centre: a node of each odd vector, rounding noise
        if v[npts // 2 + 1] < 0:
            v = -v
        vectors[:, j] = v / np.max(np.abs(v))
        lam_out.append(rayleigh)
        iterations.append(it)
        residuals.append(residual)

    lam_arr = np.array(lam_out)
    lead = (n * math.pi / (2.0 * geo.h0)) ** 2 * c_hat
    omegas = np.sqrt((lead + lam_arr) / mat.rho)
    return TrapEigenResult(
        x=x,
        lambdas=lam_arr,
        omegas=omegas,
        vectors=vectors,
        sturm_counts=tuple(sturm_counts),
        bisection_steps=tuple(bisection_steps),
        inverse_iterations=tuple(iterations),
        residuals=tuple(residuals),
    )


def fit_gaussian_curvature(x: np.ndarray, v: np.ndarray, floor: float = 1e-3) -> float:
    """Least-squares Gaussian curvature of a peak-normalized profile.

    Fits ln v = c - g x^2 / 2 over samples above ``floor`` times the peak
    and returns g; for the trap ground state g should equal n pi alpha.
    """
    v = np.abs(np.asarray(v, dtype=float))
    peak = float(np.max(v))
    mask = v > floor * peak
    z = np.log(v[mask] / peak)
    q = x[mask] ** 2
    design = np.stack([np.ones_like(q), -0.5 * q], axis=1)
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    return float(coef[1])
