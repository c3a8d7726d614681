"""Independent brute-force validators for the closed-form mode figures.

Quadrature oracles integrate the mode shape (``u`` for the electrode
overlap, ``u**2`` for mass and escape) over the plate in two dimensions.
The shape is a product u = fx(x) fy(y) of ``cavity.hermite_gaussian_1d``
factors, so by Fubini's theorem its integral over a rectangle is the
product of one integral per side: each distinct (Hermite order,
curvature, interval) is integrated once, and those of one order share one
pass of the one-dimensional engine.  The closed forms never
evaluate that shape, so a disagreement here shows a defect in a closed
form, or a mode shape that is not the one the closed forms describe.  The
batched oracles (``escape_and_mass_oracles``, ``overlap_integral_oracles``)
integrate the sides of all their cases in those passes, an integrand that
gathers each row's curvature by its interval index; each one-case oracle
is the batched call of its one case, and a batched value equals it bit for
bit.  The trapped-mode eigenproblem of the exact plano-convex profile is
solved in a basis of Hermite functions (``trap_eigensolve``), whose levels
check the anharmonic level shifts of ``cavity.trap_level_shifts``: the
closed forms take the harmonic trap, the solve does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import (CavityGeometry, ModeIndex, _normal, hermite_gaussian_1d, in_plane_quanta,
                     trap_anharmonicity, trap_level_shifts)
from .material import MaterialParams
from .specfun import QuadratureSpec, integrate_intervals

__all__ = [
    "TrapEigenResult",
    "mass_integral_oracle",
    "escape_integral_oracle",
    "escape_and_mass_oracles",
    "overlap_integral_oracle",
    "overlap_integral_oracles",
    "trap_eigensolve",
]

# Relative-accuracy-dominated budget: oracle values back 1e-8 comparisons,
# and the exterior tail pieces are tiny in absolute terms.  The bound is
# |K15 - G7| per box, so the Kronrod values returned land near rounding
# (criterion 8 deviations of ~2e-15 on its 20 cases).
_ORACLE_QUAD = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-280, max_depth=40)

# Exterior integration reaches this many envelope decay lengths past the
# plate edge; the leftover tail is below 1e-20 of the captured value.
_TAIL_DECAY_LENGTHS = 10.0

# The trap solve: Hermite functions k < _BASIS on _NODES Gauss-Hermite
# nodes, levels j < _LEVELS.  Past _MAX_EPSILON the zero-thickness point
# nears level 3's turning point, and the bound of cavity.trap_level_shifts
# was not checked against the solve.
_BASIS = 32
_NODES = 64
_LEVELS = 4
_MAX_EPSILON = 0.6


@dataclass(frozen=True, eq=False)  # of array fields: equal only to itself, hashed by identity
class TrapEigenResult:
    """Lowest levels j = 0..3 of the in-plane trap of the exact plate profile.

    ``lambdas`` are the eigenvalues (the in-plane part of rho omega^2),
    ``shifts`` the solved lambda_j / ((2j + 1) q_x) - 1, and column
    j of ``vectors`` eigenvector j's unit coefficients on the Hermite
    functions of x / sigma, positive just right of the centre.  The work:
    ``basis`` functions on ``nodes`` nodes, the ``agreement`` of the levels
    of the leading ``basis // 2`` functions with them (largest relative
    difference), and each level's ``outside_mass`` past the zero-thickness
    point.
    """

    lambdas: np.ndarray
    shifts: np.ndarray
    vectors: np.ndarray
    basis: int
    nodes: int
    agreement: float
    outside_mass: np.ndarray


def _shape_integrals(cases, rects, squared: bool) -> list[list[float]]:
    # integrals of u, or of u^2 if squared, of each case's mode shape over
    # each of its rectangles: cases holds (mode, alpha, beta) triples, rects
    # one list of rectangles per case.  Each rectangle's integral is the
    # product of its x side's integral of the order-m factor and its y side's
    # of the order-p factor, at the curvatures alpha n pi and beta n pi of
    # the mode shape.  Each distinct (order, curvature, a, b) side is
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
    """Effective mass by quadrature of the squared mode shape, one axis at a time.

    rho * h0 * integral of u^2 over the plate, with unit mode amplitude (the
    convention behind the closed forms) and the factor h0 coming from the
    thickness average of sin^2.
    """
    [[inner]] = _shape_integrals([(mode, alpha, beta)], [[((-L, L), (-L, L))]], True)
    return rho * h0 * inner


def escape_integral_oracle(mode: ModeIndex, alpha: float, beta: float, L: float) -> float:
    """Escape probability as exterior-energy fraction, by one-axis quadratures.

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
# Hermite-Galerkin solve of the in-plane trap
# ---------------------------------------------------------------------------

def _gauss_hermite(nodes: int, basis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Gauss-Hermite rule of weight e^{-x^2} (Golub-Welsch): the nodes are the
    # eigenvalues of the Jacobi matrix, off-diagonal sqrt(k / 2), and the
    # weights the Christoffel numbers 1 / sum_{k < nodes} p_k(x)^2 of the
    # orthonormal polynomials p_k.  Returns the nodes, the weights and p_k
    # at the nodes for k < basis, one row each
    x = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1.0, nodes) / 2.0), -1))
    p = np.empty((nodes, nodes))
    p[0] = math.pi**-0.25
    p[1] = math.sqrt(2.0) * x * p[0]
    for k in range(1, nodes - 1):
        p[k + 1] = math.sqrt(2.0 / (k + 1)) * x * p[k] - math.sqrt(k / (k + 1)) * p[k - 1]
    return x, 1.0 / np.einsum("ki,ki->i", p, p), p[:basis]


def _profile_excess(xi: np.ndarray, epsilon: float, h0_over_R: float) -> tuple[np.ndarray, np.ndarray]:
    # W(xi) = xi^4 / (1 + c)^2 ((epsilon / 2) (3 - 2u) / (1 - u)^2 + epsilon
    # h0/R), c = sqrt(1 - epsilon (h0/R) xi^2) and u = epsilon xi^2 / (2 (1 +
    # c)) the thinning over h0 (see cavity.trap_level_shifts), and the mask
    # u < 1 short of the zero-thickness point, past which W is 0; |x| = R,
    # where c would be imaginary, lies past it (u = R / (2 h0) there)
    xi2 = xi * xi
    c = np.sqrt(np.maximum(0.0, 1.0 - epsilon * h0_over_R * xi2))
    u = epsilon * xi2 / (2.0 * (1.0 + c))
    inside = u < 1.0
    xi2, c, u = xi2[inside], c[inside], u[inside]
    w = np.zeros_like(xi)
    w[inside] = xi2 * xi2 / (1.0 + c) ** 2 * (0.5 * epsilon * (3.0 - 2.0 * u) / (1.0 - u) ** 2 + epsilon * h0_over_R)
    return w, inside


def _hermite_levels(epsilon: float, h0_over_R: float) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    # levels, vectors, agreement and outside mass of -u'' + (xi^2 + W) u: on
    # the Hermite functions p_k e^{-xi^2/2}, -u'' + xi^2 u is the diagonal
    # 2k + 1 and W's matrix its projection on the rule; W is even, so each
    # parity is one block, and level j is the (j // 2)-th of block j % 2
    x, weights, p = _gauss_hermite(_NODES, _BASIS)
    w, inside = _profile_excess(x, epsilon, h0_over_R)
    matrix = (p * (weights * w)) @ p.T
    half = _BASIS // 2
    order = np.arange(half)
    blocks = np.stack([matrix[0::2, 0::2], matrix[1::2, 1::2]])
    blocks[:, order, order] += 4.0 * order + np.array([[1.0], [3.0]])
    values, block_vectors = np.linalg.eigh(blocks)
    leading = np.linalg.eigvalsh(blocks[:, :half // 2, :half // 2])
    levels = values[:, :2].T.ravel()
    agreement = float(np.max(np.abs(leading[:, :2].T.ravel() / levels - 1.0)))
    vectors = np.zeros((_BASIS, _LEVELS))
    for j in range(_LEVELS):
        vectors[j % 2::2, j] = block_vectors[j % 2, :, j // 2]
    at_nodes = vectors.T @ p
    # signed at the smallest positive node, the nodes ascending
    vectors *= np.where(at_nodes[:, _NODES // 2] < 0.0, -1.0, 1.0)
    return levels, vectors, agreement, (at_nodes * at_nodes) @ np.where(inside, 0.0, weights)


def trap_eigensolve(mat: MaterialParams, geo: CavityGeometry, n: int) -> TrapEigenResult:
    """Lowest levels of -M_n u'' + V(x) u = lambda u for the exact plate profile.

    V is the rise of the thickness resonance of the plano-convex plate
    as it thins (``cavity.trap_level_shifts``), k x^2 to leading order, and
    lambda_j the in-plane part of rho omega^2, (2j + 1) q_x (1 + delta_j) in
    the closed forms.  In units of sigma = (M_n / k)^(1/4) and the quantum
    q_x = sqrt(k M_n) of ``cavity.in_plane_quanta`` the operator is -u'' +
    (xi^2 + W(xi)) u, with W a function of epsilon
    (``cavity.trap_anharmonicity``) and h0/R alone, 0 past the
    zero-thickness point.  It is solved on 32 Hermite functions, with W
    projected on 64 Gauss-Hermite nodes, one symmetric eigensolve per
    parity, and lambda_j is q_x times solved level j.

    Raises ArithmeticError, naming n and epsilon, where epsilon exceeds 0.6,
    or where the levels of 16 and 32 Hermite functions disagree, or a
    level's mass past the zero-thickness point exceeds, the closed form's
    remainder bound, criterion 9's tolerance; and OverflowError or
    FloatingPointError where ``in_plane_quanta`` or ``trap_anharmonicity``
    raises, or where an eigenvalue is outside the normal double range,
    naming R and h0.
    """
    q_x, _ = in_plane_quanta(mat, geo, n)
    epsilon = trap_anharmonicity(mat, geo, n)
    h0_over_R = geo.h0 / geo.R
    what = f"the trap of overtone n = {n} at epsilon = {epsilon!r}"
    if not epsilon <= _MAX_EPSILON:
        raise ArithmeticError(f"{what} is past the anharmonic closed form's checked range,"
                              f" epsilon <= {_MAX_EPSILON}")
    _, tolerance = trap_level_shifts(epsilon, h0_over_R)
    levels, vectors, agreement, outside_mass = _hermite_levels(epsilon, h0_over_R)
    if not max(agreement, float(np.max(outside_mass))) <= tolerance:
        raise ArithmeticError(
            f"{what} is not resolved to {tolerance:.3g}: the levels of {_BASIS // 2} and {_BASIS}"
            f" Hermite functions differ by {agreement:.3g}, and {float(np.max(outside_mass)):.3g}"
            " of a level's mass lies past the zero-thickness point"
        )
    with np.errstate(over="ignore"):
        lambdas = q_x * levels
    return TrapEigenResult(
        lambdas=_normal(lambdas, lambda j: f"the trap eigenvalue lambda_{j} at R = {geo.R!r}, h0 = {geo.h0!r}"),
        shifts=levels / (2.0 * np.arange(_LEVELS) + 1.0) - 1.0,
        vectors=vectors,
        basis=_BASIS,
        nodes=_NODES,
        agreement=agreement,
        outside_mass=outside_mass,
    )
