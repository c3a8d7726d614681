"""Independent brute-force validators for the closed-form mode figures.

Quadrature oracles integrate the mode shape of ``cavity.mode_shape``
(``u`` for the electrode overlap, ``u**2`` for mass and escape) over the
plate in two dimensions.  The shape is a product u = fx(x) fy(y) of
``cavity.hermite_gaussian_1d`` factors, so by Fubini's theorem its integral
over a rectangle is the product of one integral per side: each distinct
(Hermite order, curvature, interval) is integrated once, and those of one
order share one pass of the one-dimensional engine.  The closed forms never
evaluate that shape, so a disagreement here shows a defect in a closed
form, or a mode shape that is not the one the closed forms describe.  The
batched oracles (``escape_and_mass_oracles``, ``overlap_integral_oracles``)
integrate the sides of all their cases in those passes, an integrand that
gathers each row's curvature by its interval index; each one-case oracle
is the batched call of its one case, and a batched value equals it bit for
bit.  The trapped-mode eigenproblem is additionally solved by finite
differences, on one grid fixed in units of the envelope width, to validate
the envelope curvature and the harmonic level structure from the
underlying wave equation rather than from its known solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityGeometry, ModeIndex, _normal, _trap_denominator, hermite_gaussian_1d
from .material import MaterialParams, dispersion_parameters, stiffened_constants
from .specfun import QuadratureSpec, integrate_intervals

__all__ = [
    "EigensolveConvergenceError",
    "TrapEigenResult",
    "mass_integral_oracle",
    "escape_integral_oracle",
    "escape_and_mass_oracles",
    "overlap_integral_oracle",
    "overlap_integral_oracles",
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

# The trap eigensolver's one discretisation.  In units of the envelope sigma
# the discretised operator is sqrt(k M) (-u'' + s^2 u) on the same grid,
# step h = 16/1602, for every geometry, overtone and material, so each
# eigenvalue lies a fixed fraction below its harmonic level (2j + 1)
# sqrt(k M).  The 3-point stencil's leading error term gives that fraction,
# (2j^2 + 2j + 1) h^2 / (16 (2j + 1)), to within 3.9e-11, 1.2e-10, 2.7e-10
# and 5.1e-10 for j = 0..3, some 20 times inside the +-1e-8 bracket whose
# Sturm counts confirm it, and inverse iteration is shifted to that level.
_GRID_POINTS = 1601
_DOMAIN_SIGMA = 8.0  # half-width in units of the envelope sigma
_EIGENPAIRS = 4
_RESIDUAL_TOL = 1e-9  # relative residual bound per eigenpair


class EigensolveConvergenceError(ArithmeticError):
    """An eigenpair's bracket or its residual bound was not reached.

    ``residual`` is the relative residual inverse iteration stopped at, or
    inf when the Sturm counts did not confirm the eigenvalue's bracket.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class TrapEigenResult:
    """Lowest eigenpairs of the in-plane trapping operator (x slice).

    ``lambdas`` are operator eigenvalues, the in-plane part of rho omega^2
    (``trap_eigensolve``), ``vectors`` the grid eigenfunctions (one column
    each, peak-normalized, positive at the grid point just right of the
    centre).  The work behind each eigenpair, beside the two Sturm counts
    that confirm its bracket: ``inverse_iterations``, and in ``residuals``
    the relative residual ||A v - lambda v|| / |lambda| it stopped at.
    """

    x: np.ndarray
    lambdas: np.ndarray
    vectors: np.ndarray
    inverse_iterations: tuple[int, ...]
    residuals: tuple[float, ...]


def _shape_integrals(cases, rects, squared: bool) -> list[list[float]]:
    # integrals of u, or of u^2 if squared, of each case's mode shape over
    # each of its rectangles: cases holds (mode, alpha, beta) triples, rects
    # one list of rectangles per case.  Each rectangle's integral is the
    # product of its x side's integral of the order-m factor and its y side's
    # of the order-p factor, at the curvatures alpha n pi and beta n pi that
    # mode_shape forms.  Each distinct (order, curvature, a, b) side is
    # integrated once, and the sides of one order share one engine pass,
    # whose integrand gathers each row's curvature by its interval index.
    sides = [
        [((mode.m, alpha * mode.n * math.pi, *xb), (mode.p, beta * mode.n * math.pi, *yb)) for xb, yb in mine]
        for (mode, alpha, beta), mine in zip(cases, rects)
    ]
    orders: dict[int, list[tuple]] = {}
    for side in dict.fromkeys(s for case in sides for rect in case for s in rect):
        orders.setdefault(side[0], []).append(side)
    value = {}
    for order, mine in orders.items():
        g = np.array([side[1] for side in mine])

        def f(x, box):
            u = hermite_gaussian_1d(order, g[box], x)
            return u**2 if squared else u

        value.update(zip(mine, integrate_intervals(f, [side[2:] for side in mine], _ORACLE_QUAD)))
    return [[value[x] * value[y] for x, y in case] for case in sides]


def _plate_and_exterior(mode: ModeIndex, alpha: float, beta: float, L: float) -> list:
    # the plate and three rectangles whose integrals of u^2 give the plane
    # outside it: u^2 is even in each coordinate (the Hermite factor enters
    # squared), so one strip and one corner per axis pair suffice; the
    # exterior reaches _TAIL_DECAY_LENGTHS decay lengths out
    ax = alpha * mode.n * math.pi
    ay = beta * mode.n * math.pi
    margin_x = (_TAIL_DECAY_LENGTHS + 2.0 * math.sqrt(mode.m + 1.0)) / math.sqrt(ax)
    margin_y = (_TAIL_DECAY_LENGTHS + 2.0 * math.sqrt(mode.p + 1.0)) / math.sqrt(ay)
    xo = L + margin_x
    yo = L + margin_y
    return [((-L, L), (-L, L)), ((L, xo), (-L, L)), ((-L, L), (L, yo)), ((L, xo), (L, yo))]


def _escape_parts(cases) -> list[tuple[float, float]]:
    # (integral of u^2 over the plate, over the plane outside it) per case
    parts = _shape_integrals([c[:3] for c in cases], [_plate_and_exterior(*c) for c in cases], True)
    return [(inner, 2.0 * strip_x + 2.0 * strip_y + 4.0 * corner) for inner, strip_x, strip_y, corner in parts]


def mass_integral_oracle(
    mode: ModeIndex, alpha: float, beta: float, L: float, rho: float, h0: float
) -> float:
    """Effective mass by 2-D quadrature of the squared mode shape.

    rho * h0 * integral of u^2 over the plate, with unit mode amplitude (the
    convention behind the closed forms) and the factor h0 coming from the
    thickness average of sin^2.
    """
    [[inner]] = _shape_integrals([(mode, alpha, beta)], [[((-L, L), (-L, L))]], True)
    return rho * h0 * inner


def escape_integral_oracle(mode: ModeIndex, alpha: float, beta: float, L: float) -> float:
    """Escape probability as exterior-energy fraction, by 2-D quadrature.

    Computed as I_outside / (I_plate + I_outside) so the result keeps full
    relative accuracy even when almost no energy escapes; the sum equals the
    truncated whole-plane integral.
    """
    [(inner, outside)] = _escape_parts([(mode, alpha, beta, L)])
    return outside / (inner + outside)


def escape_and_mass_oracles(cases, rho: float, h0: float) -> list[tuple[float, float]]:
    """Escape probability and effective mass of each case, by quadrature.

    ``cases`` is a sequence of ``(mode, alpha, beta, L)``.  The plate
    integral the mass needs is also the escape fraction's, so it is computed
    once, and the sides of all cases' rectangles are integrated in one pass
    per Hermite order.  Each pair equals (``escape_integral_oracle``,
    ``mass_integral_oracle``) of its case bit for bit.
    """
    return [(outside / (inner + outside), rho * h0 * inner) for inner, outside in _escape_parts(cases)]


def overlap_integral_oracles(cases) -> list[float]:
    """Electrode overlap factor of each case by surface integration.

    ``cases`` is a sequence of ``(mode, alpha, beta, L_tilde)``; the sides
    of all cases' electrodes are integrated in one pass per Hermite order,
    and each value equals ``overlap_integral_oracle`` of its case bit for bit.
    """
    surfs = _shape_integrals(
        [c[:3] for c in cases], [[((-lt, lt), (-lt, lt))] for *_, lt in cases], False
    )
    return [
        0.5 * mode.n * math.sqrt(alpha * beta) * surf
        for (mode, alpha, beta, _), [surf] in zip(cases, surfs)
    ]


def overlap_integral_oracle(
    mode: ModeIndex, alpha: float, beta: float, L_tilde: float
) -> float:
    """Electrode overlap factor by surface integration of the mode shape.

    mu = (n sqrt(alpha beta) / 2) * integral of u over the electrode, the
    normalization under which full coverage of a fundamental mode gives 1.
    """
    return overlap_integral_oracles([(mode, alpha, beta, L_tilde)])[0]


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


def _thomas_factor(diag: list[float], off: float) -> tuple[list[float], list[float]]:
    # forward pivots and multipliers of the tridiagonal matrix with the given
    # diagonal and constant off-diagonal, no pivoting (the shifted systems
    # here are diagonally dominated away from exact eigenvalues); they
    # depend on the shift only, so one factorisation serves every solve
    pivots = [diag[0]]
    mults = [off / diag[0]]
    for a in itertools.islice(diag, 1, None):
        denom = a - off * mults[-1]
        if denom == 0.0:
            denom = 1e-300
        pivots.append(denom)
        mults.append(off / denom)
    return pivots, mults


def _thomas_solve(factors: tuple[list[float], list[float]], off: float, rhs: list[float]) -> np.ndarray:
    # the solve with a _thomas_factor factorisation: forward sweep, then
    # back substitution
    pivots, mults = factors
    d = [rhs[0] / pivots[0]]
    for p, r in zip(itertools.islice(pivots, 1, None), itertools.islice(rhs, 1, None)):
        d.append((r - off * d[-1]) / p)
    x = [d[-1]]
    for ci, di in zip(reversed(mults[:-1]), reversed(d[:-1])):
        x.append(di - ci * x[-1])
    x.reverse()
    return np.array(x)


def trap_eigensolve(mat: MaterialParams, geo: CavityGeometry, n: int) -> TrapEigenResult:
    """Lowest eigenpairs of -M u'' + k x^2 u = lambda u on a symmetric grid.

    The potential coefficient k = pi^2 n^2 c_hat_z / (8 R h0^3) comes from
    the slowly varying thickness of the curved plate; eigenvalues of the
    discretized operator form the in-plane harmonic ladder, and the ground
    eigenvector reproduces the Gaussian envelope.  Eigenvalue j is the
    in-plane part of the mode's frequency, rho omega^2 = (n pi / (2 h0))^2
    c_hat_z + lambda_j, whose closed form is (2j + 1) q_x of
    ``cavity.in_plane_quanta``.

    Second-order central differences with Dirichlet boundaries, 1601 points
    over +-8 envelope widths.  Eigenpair j is found at the stencil's own
    level, (2j + 1) sqrt(k M) (1 - (2j^2 + 2j + 1) h^2 / (16 (2j + 1)))
    with h the grid step in units of the envelope width: the Sturm counts
    at that level +-1e-8 relative confirm that eigenvalue j alone lies
    there, and shifted inverse iteration from it, one factorisation per
    eigenpair, with deflation against already-converged pairs, gives the
    eigenvector and, as its Rayleigh quotient, the eigenvalue.  Raises
    EigensolveConvergenceError when a bracket or the residual bound is not
    reached, and OverflowError or FloatingPointError,
    naming R and h0, when 8 R h0^3, k or (M / h^2)^2 leaves the normal
    double range.
    """
    _, c_hat = stiffened_constants(mat, n)
    m_n, _ = dispersion_parameters(mat, n)
    where = f"at R = {geo.R!r}, h0 = {geo.h0!r}"
    k_pot = _normal(math.pi**2 * n**2 * c_hat / _trap_denominator(geo), f"the trap stiffness k {where}")
    gamma = math.sqrt(k_pot / m_n)  # expected ground curvature n*pi*alpha
    sigma = 1.0 / math.sqrt(gamma)

    npts = _GRID_POINTS
    half_width = _DOMAIN_SIGMA * sigma
    h = 2.0 * half_width / (npts + 1)
    off = -m_n / (h * h)
    off2 = _normal(off * off, f"the squared grid coupling (M / h^2)^2 {where}")
    x = -half_width + h * np.arange(1, npts + 1)
    diag = 2.0 * m_n / (h * h) + k_pot * x * x

    scale = float(np.max(np.abs(diag)) + 2.0 * abs(off))
    pivmin = 1e-14 * scale

    # the 3-point stencil's level of eigenvalue j is its harmonic level
    # (2j + 1) sqrt(k M) lowered by the stencil's leading error term
    level = math.sqrt(k_pot * m_n)
    h_sigma = 2.0 * _DOMAIN_SIGMA / (npts + 1)  # the grid step in units of sigma
    rng = np.random.default_rng(12345)
    vectors = np.empty((npts, _EIGENPAIRS))
    lambdas, iterations, residuals = [], [], []
    for j in range(_EIGENPAIRS):
        stencil = (2 * j + 1) * level * (1.0 - (2 * j * j + 2 * j + 1) * h_sigma**2 / (16 * (2 * j + 1)))
        counts = [_sturm_count((diag - end).tolist(), off2, pivmin)
                  for end in (stencil * (1.0 - 1e-8), stencil * (1.0 + 1e-8))]
        if counts != [j, j + 1]:
            raise EigensolveConvergenceError(
                f"eigenvalue {j} is not alone within 1e-8 of its stencil level {where}"
                f" (Sturm counts {counts[0]} and {counts[1]})",
                math.inf,
            )
        factors = _thomas_factor((diag - stencil).tolist(), off)
        v = rng.standard_normal(npts)
        residual = math.inf
        for it in range(1, 61):
            for q in range(j):  # deflation
                v -= (vectors[:, q] @ v) * vectors[:, q]
            w = _thomas_solve(factors, off, v.tolist())
            v = w / np.linalg.norm(w)
            av = diag * v
            av[:-1] += off * v[1:]
            av[1:] += off * v[:-1]
            rayleigh = float(v @ av)
            residual = float(np.linalg.norm(av - rayleigh * v)) / abs(rayleigh)
            if residual <= _RESIDUAL_TOL:
                break
        if residual > _RESIDUAL_TOL:
            raise EigensolveConvergenceError(
                f"eigenpair {j} stalled at relative residual {residual:.3e} {where}", residual
            )
        # not signed at the centre: a node of each odd vector, rounding noise
        if v[npts // 2 + 1] < 0:
            v = -v
        vectors[:, j] = v / np.max(np.abs(v))
        lambdas.append(rayleigh)
        iterations.append(it)
        residuals.append(residual)

    return TrapEigenResult(
        x=x,
        lambdas=np.array(lambdas),
        vectors=vectors,
        inverse_iterations=tuple(iterations),
        residuals=tuple(residuals),
    )


def fit_gaussian_curvature(x: np.ndarray, v: np.ndarray) -> float:
    """Least-squares Gaussian curvature of a peak-normalized profile.

    Fits ln v = c - g x^2 / 2 over samples above 1e-3 times the peak and
    returns g; for the trap ground state g should equal n pi alpha.
    The fit runs on x scaled by a power of two near the samples' span, an
    exact scaling, so that the x^2 column keeps its weight beside the
    constant one at any length scale.
    """
    v = np.abs(np.asarray(v, dtype=float))
    peak = float(np.max(v))
    mask = v > 1e-3 * peak
    z = np.log(v[mask] / peak)
    _, e = math.frexp(float(np.max(np.abs(x[mask]))))
    q = np.ldexp(x[mask], -e) ** 2
    design = np.stack([np.ones_like(q), -0.5 * q], axis=1)
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    return math.ldexp(float(coef[1]), -2 * e)
