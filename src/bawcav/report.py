"""Reproduction report: published reference figures and internal cross-checks.

Each criterion compares library output against a published reference value
at a stated tolerance, or runs an internal consistency suite (closed forms
vs brute-force quadrature, eigensolver, invariants).  Everything is seeded
and deterministic so two runs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cavity, detection, membrane, oracle
from .cavity import CavityGeometry, ModeIndex
from .constants import HBAR
from .material import MaterialParams, bundled_material_path, load_material

__all__ = ["CheckRow", "CriterionResult", "run_all", "default_geometry", "CRITERION_NAMES"]

SWEEP_SEED = 20260811
ETA_REFERENCE = 10.7  # quoted trapping parameter of the demonstration device
ORACLE_GROUP = 50  # criterion 8's parameter sets handed to the oracles at a time


@dataclass(frozen=True)
class CheckRow:
    """One measured-vs-expected comparison inside a criterion."""

    label: str
    measured: float
    expected: float
    tolerance: str
    passed: bool


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    rows: list[CheckRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


CRITERION_NAMES = {
    1: "flat-plate displacement ZPF",
    2: "flat-plate momentum ZPF",
    3: "geometric factors at reference trapping",
    4: "thermal occupancy",
    5: "overtone-frequency consistency",
    6: "membrane baseline",
    7: "electrode figures",
    8: "closed forms vs quadrature oracles",
    9: "trap eigensolver",
    10: "invariant suite",
}


def default_geometry() -> CavityGeometry:
    """Demonstration cavity: L = 15 mm, 1 mm total thickness, R = 300 mm."""
    return CavityGeometry(L=0.015, h0=5e-4, R=0.3)


def _row_rel(label: str, measured: float, expected: float, rel: float) -> CheckRow:
    measured = float(measured)
    ok = abs(measured - expected) <= rel * abs(expected)
    return CheckRow(label, measured, expected, f"rel {rel:g}", bool(ok))


def _row_abs(label: str, measured: float, expected: float, atol: float) -> CheckRow:
    measured = float(measured)
    ok = abs(measured - expected) <= atol
    return CheckRow(label, measured, expected, f"abs {atol:g}", bool(ok))


def _row_factor(label: str, measured: float, expected: float, factor: float) -> CheckRow:
    measured = float(measured)
    ratio = measured / expected
    ok = (1.0 / factor) <= ratio <= factor
    return CheckRow(label, measured, expected, f"factor {factor:g}", bool(ok))


def _row_band(label: str, measured: float, lo: float, hi: float) -> CheckRow:
    measured = float(measured)
    ok = lo <= measured <= hi
    return CheckRow(label, measured, 0.5 * (lo + hi), f"band [{lo:g}, {hi:g}]", bool(ok))


def criterion_1(mat: MaterialParams, geo: CavityGeometry) -> CriterionResult:
    alpha, beta = cavity.envelope_curvatures(mat, geo, 1)
    ex, ey = cavity.trapping_parameters(alpha, beta, geo.L)
    _, _, x_flat, _ = cavity.zpf(mat, geo, ModeIndex(1), ex, ey)
    return CriterionResult(1, CRITERION_NAMES[1], [_row_rel("x_zpf_flat_m", x_flat, 4.7e-20, 0.03)])


def criterion_2(mat: MaterialParams, geo: CavityGeometry) -> CriterionResult:
    alpha, beta = cavity.envelope_curvatures(mat, geo, 1)
    ex, ey = cavity.trapping_parameters(alpha, beta, geo.L)
    _, _, _, p_flat = cavity.zpf(mat, geo, ModeIndex(1), ex, ey)
    return CriterionResult(2, CRITERION_NAMES[2], [_row_factor("p_zpf_flat", p_flat, 1e-15, 1.5)])


def criterion_3(mat: MaterialParams, geo: CavityGeometry) -> CriterionResult:
    rows = []
    for n, ref in ((7, 1e3), (37, 5e3), (227, 3.3e4)):
        _, _, xi = cavity.effective_mass(mat, geo, ModeIndex(n), ETA_REFERENCE, ETA_REFERENCE)
        rows.append(_row_rel(f"xi(n={n})", xi, ref, 0.10))
    return CriterionResult(3, CRITERION_NAMES[3], rows)


def criterion_4(mat: MaterialParams, geo: CavityGeometry) -> CriterionResult:
    n_lo = cavity.thermal_occupancy(2.0 * math.pi * 3.138e6, 0.02)
    n_hi = cavity.thermal_occupancy(2.0 * math.pi * 712.5e6, 0.02)
    return CriterionResult(
        4,
        CRITERION_NAMES[4],
        [
            _row_abs("n_thermal(3.138 MHz, 20 mK)", n_lo, 132.0, 2.0),
            _row_abs("n_thermal(712.5 MHz, 20 mK)", n_hi, 0.22, 0.01),
        ],
    )


def criterion_5(mat: MaterialParams, geo: CavityGeometry) -> CriterionResult:
    f1 = cavity.mode_frequency(mat, geo, ModeIndex(1)) / (2.0 * math.pi)
    f227 = cavity.mode_frequency(mat, geo, ModeIndex(227)) / (2.0 * math.pi)
    return CriterionResult(
        5,
        CRITERION_NAMES[5],
        [
            _row_rel("f(227)/f(1)", f227 / f1, 227.0, 1e-12),
            _row_band("f(1) Hz", f1, 3.10e6, 3.20e6),
        ],
    )


def criterion_6(mat: MaterialParams, geo: CavityGeometry) -> CriterionResult:
    spec = membrane.MembraneSpec(a=2 * geo.L, b=2 * geo.L, h=5e-4, tau=105e9, rho=mat.rho)
    f = membrane.membrane_frequency(spec) / (2.0 * math.pi)
    x_zpf, _ = membrane.membrane_zpf(spec)
    occ = cavity.thermal_occupancy(membrane.membrane_frequency(spec), 0.02)
    return CriterionResult(
        6,
        CRITERION_NAMES[6],
        [
            _row_rel("f(1,1) Hz", f, 149e3, 0.01),
            _row_rel("x_zpf_m", x_zpf, 6.2e-19, 0.03),
            _row_rel("n_thermal(20 mK)", occ, 3230.0, 0.20),
        ],
    )


def criterion_7(variant: MaterialParams, geo: CavityGeometry) -> CriterionResult:
    rows = []
    z_derived_all = []
    for n in (7, 37, 227):
        c0, z_closed, z_derived = detection.shunt_impedance(variant, geo, ETA_REFERENCE, n)
        z_derived_all.append(z_derived)
        rows.append(_row_factor(f"C0(n={n}) F", c0, 0.5e-12 / n, 6.0))
        rows.append(_row_factor(f"Z_closed_form(n={n}) ohm", z_closed, 312e3, 3.0))
    spread = max(z_derived_all) / min(z_derived_all) - 1.0
    rows.append(_row_abs("Z_derived overtone spread", spread, 0.0, 1e-12))
    return CriterionResult(7, CRITERION_NAMES[7], rows)


def _oracle_sweep_cases(n_sets: int, seed: int):
    rng = np.random.default_rng(seed)
    odd = np.array([1, 3, 5, 7, 9, 11])
    for _ in range(n_sets):
        n = int(rng.choice(odd))
        L = float(rng.uniform(0.008, 0.025))
        tx = float(rng.uniform(0.4, 4.2))
        ty = float(rng.uniform(0.4, 4.2))
        frac = float(rng.uniform(0.1, 0.9))
        yield n, L, tx, ty, frac


def criterion_8(mat: MaterialParams, geo: CavityGeometry, n_sets: int = 20) -> CriterionResult:
    """Closed forms vs quadrature across a seeded random parameter sweep.

    (0, 0) is checked at (eta_x, eta_y) and (2, 2) at (eta_x, eta_x).  The
    oracles take ORACLE_GROUP sets at a time, in three one-dimensional
    quadrature passes per group, one per oracle call and Hermite order: the
    (0, 0) escape and mass sides, the (2, 2) ones, and the (0, 0)
    electrode's.
    """
    if n_sets < 1:
        raise ValueError(f"the oracle sweep needs at least one parameter set, got {n_sets!r}")
    worst = {"escape(0,0)": 0.0, "escape(2,2)": 0.0, "mass(0,0)": 0.0, "mass(2,2)": 0.0, "overlap(0,0)": 0.0}
    sets = list(_oracle_sweep_cases(n_sets, SWEEP_SEED))
    for first in range(0, n_sets, ORACLE_GROUP):
        checks, electrodes = [], []  # (mode, eta_x, eta_y, alpha, beta, L); (mode, alpha, beta, L_tilde)
        for n, L, tx, ty, frac in sets[first:first + ORACLE_GROUP]:
            rn = math.sqrt(n)
            eta_x, eta_y = tx / rn, ty / rn
            alpha = eta_x**2 / (math.pi * L**2)
            beta = eta_y**2 / (math.pi * L**2)
            checks += [(ModeIndex(n), eta_x, eta_y, alpha, beta, L), (ModeIndex(n, 2, 2), eta_x, eta_x, alpha, alpha, L)]
            electrodes.append((ModeIndex(n), alpha, beta, frac * L))

        pairs = oracle.escape_and_mass_oracles([(m, a, b, L) for m, _, _, a, b, L in checks], mat.rho, geo.h0)
        for (mode, eta_x, eta_y, _, _, L), (chi_o, me_o) in zip(checks, pairs):
            tag = f"({mode.m},{mode.p})"
            chi_c = cavity.escape_probability(mode, eta_x, eta_y)
            if chi_o > 1e-12:
                worst[f"escape{tag}"] = max(worst[f"escape{tag}"], abs(chi_c - chi_o) / chi_o)
            me_c, _, _ = cavity.effective_mass(mat, CavityGeometry(L=L, h0=geo.h0, R=geo.R), mode, eta_x, eta_y)
            worst[f"mass{tag}"] = max(worst[f"mass{tag}"], abs(me_c - me_o) / me_o)

        for (mode, alpha, beta, lt), mu_o in zip(electrodes, oracle.overlap_integral_oracles(electrodes)):
            mu_c = detection.overlap_factor(mode, alpha, beta, lt)
            worst["overlap(0,0)"] = max(worst["overlap(0,0)"], abs(mu_c - mu_o) / mu_o)
    rows = [_row_abs(f"max rel dev {k}", v, 0.0, 1e-8) for k, v in worst.items()]
    return CriterionResult(8, CRITERION_NAMES[8], rows)


def _eigenvector_deviation(res: oracle.TrapEigenResult, alpha: float) -> float:
    # max |v_j - u_j| over the solved eigenvectors, with u_j the mode
    # shape's factor of in-plane number j along x (n = 1),
    # exp(-g x^2/2) H_j(sqrt(g) x) at the expected ground curvature
    # g = pi alpha, peak-normalised, with v_j's sign just right of the
    # centre, as trap_eigensolve signs it.
    k = len(res.x) // 2 + 1
    worst = 0.0
    for j in range(res.vectors.shape[1]):
        v = res.vectors[:, j]
        u = cavity.hermite_gaussian_1d(j, alpha * math.pi, res.x)
        u = u / np.max(np.abs(u))
        if (u[k] < 0.0) != (v[k] < 0.0):
            u = -u
        worst = max(worst, float(np.max(np.abs(v - u))))
    return worst


def criterion_9(mat: MaterialParams, geo: CavityGeometry) -> CriterionResult:
    res = oracle.trap_eigensolve(mat, geo, 1)
    lam = res.lambdas
    ladder = (lam[2] - lam[1]) / (lam[1] - lam[0])
    alpha, _ = cavity.envelope_curvatures(mat, geo, 1)
    target = math.pi * alpha  # n = 1
    gfit = oracle.fit_gaussian_curvature(res.x, res.vectors[:, 0])
    vector_dev = _eigenvector_deviation(res, alpha)

    # the solved ladder against in_plane_quanta's (2j + 1) q_x: the spacing
    # lambda_2 - lambda_0 is 4 q_x, and each level's ratio checks the
    # zero-point offset, which a spacing cannot see
    q_x, _ = cavity.in_plane_quanta(mat, geo, 1)
    level_dev = max(abs(lam[j] / ((2 * j + 1) * q_x) - 1.0) for j in range(len(lam)))
    return CriterionResult(
        9,
        CRITERION_NAMES[9],
        [
            _row_abs("harmonic ladder ratio", ladder, 1.0, 1e-4),
            _row_rel("ground curvature fit", gfit, target, 1e-3),
            _row_rel("in-plane spacing lambda_2 - lambda_0", lam[2] - lam[0], 4.0 * q_x, 1e-3),
            _row_abs("max |lambda_j / ((2j+1) q_x) - 1| (j = 0..3)", level_dev, 0.0, 1e-4),
            _row_abs("max |v_j - u_j| (j = 0..3)", vector_dev, 0.0, 1e-4),
        ],
    )


def _by_overtone(draws) -> dict[int, np.ndarray]:
    # draws (n, v1, v2, ...) grouped by overtone n, one row per value, each
    # row in drawing order
    groups: dict[int, list] = {}
    for n, *values in draws:
        groups.setdefault(n, []).append(values)
    return {n: np.array(values).T for n, values in groups.items()}


def criterion_10(mat: MaterialParams, geo: CavityGeometry) -> CriterionResult:
    """Invariants of the closed forms over seeded draws.

    Every value is drawn first, in one fixed order, and the closed forms run
    as one array call per overtone (and mode), whose values are bit for bit
    those of the float calls.
    """
    rng = np.random.default_rng(SWEEP_SEED + 1)
    rows = []

    draws = [(int(rng.choice([1, 3, 7, 15, 227])), float(rng.uniform(0.5, 12.0))) for _ in range(20)]
    worst_unc = 0.0
    for n, (eta,) in _by_overtone(draws).items():
        char = cavity.characterize(mat, geo, ModeIndex(n), 0.02, eta_override=eta)
        worst_unc = max(worst_unc, float(np.max(np.abs(char.x_zpf * char.p_zpf / (HBAR / 2.0) - 1.0))))
    rows.append(_row_abs("uncertainty product dev", worst_unc, 0.0, 1e-12))

    # xi rises with eta at fixed n, and with n (to n + 2) at fixed eta
    draws = [(int(rng.choice([1, 3, 7, 15])), *sorted(rng.uniform(0.5, 12.0, 2))) for _ in range(40)]
    mono = True
    for n, (e1, e2) in _by_overtone(d for d in draws if d[2] - d[1] >= 1e-9).items():
        x1 = cavity.effective_mass(mat, geo, ModeIndex(n), e1, e1)[2]
        x2 = cavity.effective_mass(mat, geo, ModeIndex(n), e2, e2)[2]
        up = cavity.effective_mass(mat, geo, ModeIndex(n + 2), e1, e1)[2]
        mono = mono and bool(np.all(x2 > x1)) and bool(np.all(up > x1))
    rows.append(_row_abs("xi monotone (eta, n)", 0.0 if mono else 1.0, 0.0, 0.5))

    etas = np.array([1.0, 1.5, 2.5, 4.0, 8.0])
    ordered = True
    for n in range(1, 16, 2):
        xi00 = cavity.effective_mass(mat, geo, ModeIndex(n), etas, etas)[2]
        xi22 = cavity.effective_mass(mat, geo, ModeIndex(n, 2, 2), etas, etas)[2]
        ordered = ordered and bool(np.all(xi00 > xi22))
    rows.append(_row_abs("xi(0,0) > xi(2,2)", 0.0 if ordered else 1.0, 0.0, 0.5))

    # one row of x_zpf per overtone, one column per eta
    etas = np.array([5.0, 8.0, ETA_REFERENCE])
    vals = np.array([cavity.zpf(mat, geo, ModeIndex(n), etas, etas)[0] for n in (7, 37, 227)])
    worst_ind = float(np.max(np.max(vals, axis=0) / np.min(vals, axis=0) - 1.0))
    rows.append(_row_abs("x_zpf overtone spread", worst_ind, 0.0, 1e-6))

    worst_rt = 0.0
    for _ in range(20):
        n = int(rng.choice([1, 3, 7, 37, 227]))
        eta = float(rng.uniform(2.0, 12.0))
        mu_opt = float(rng.uniform(0.3, 0.999))
        lt = detection.optimal_electrode(geo, eta, n, mu_opt)
        alpha = eta**2 / (math.pi * geo.L**2)
        mu = detection.overlap_factor(ModeIndex(n), alpha, alpha, lt)
        worst_rt = max(worst_rt, abs(mu - mu_opt))
    rows.append(_row_abs("mu round-trip dev", worst_rt, 0.0, 1e-10))

    return CriterionResult(10, CRITERION_NAMES[10], rows)


def run_all(
    material_path=None,
    variant_path=None,
    geometry: CavityGeometry | None = None,
) -> list[CriterionResult]:
    """Evaluate all acceptance criteria; deterministic for fixed inputs."""
    mat = load_material(material_path or bundled_material_path("quartz"))
    variant = load_material(variant_path or bundled_material_path("quartz-piezo"))
    geo = geometry or default_geometry()
    return [
        criterion_1(mat, geo),
        criterion_2(mat, geo),
        criterion_3(mat, geo),
        criterion_4(mat, geo),
        criterion_5(mat, geo),
        criterion_6(mat, geo),
        criterion_7(variant, geo),
        criterion_8(mat, geo),
        criterion_9(mat, geo),
        criterion_10(mat, geo),
    ]
