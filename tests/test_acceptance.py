"""Acceptance gate: every reproduction criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion outcome; the same checks back the
``bawcav paper-report`` command.
"""

import dataclasses

import numpy as np
import pytest

from bawcav import cavity, oracle, report
from bawcav.material import bundled_material_path, load_material

MAT = load_material(bundled_material_path("quartz"))
VARIANT = load_material(bundled_material_path("quartz-piezo"))
GEO = report.default_geometry()


def _assert_criterion(result):
    detail = "; ".join(
        f"{row.label}: measured={row.measured:.6g} expected={row.expected:.6g} ({row.tolerance})"
        for row in result.rows
    )
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.cid} ({result.name}): {detail}")
    assert result.passed, f"criterion {result.cid} failed: {detail}"


def test_criterion_01_flat_displacement_zpf():
    _assert_criterion(report.criterion_1(MAT, GEO))


def test_criterion_02_flat_momentum_zpf():
    _assert_criterion(report.criterion_2(MAT, GEO))


def test_criterion_03_geometric_factors():
    _assert_criterion(report.criterion_3(MAT, GEO))


def test_criterion_04_thermal_occupancy():
    _assert_criterion(report.criterion_4(MAT, GEO))


def test_criterion_05_overtone_frequency():
    _assert_criterion(report.criterion_5(MAT, GEO))


def test_criterion_06_membrane_baseline():
    _assert_criterion(report.criterion_6(MAT, GEO))


def test_criterion_07_electrode_figures():
    _assert_criterion(report.criterion_7(VARIANT, GEO))


def test_criterion_08_oracle_equivalence():
    _assert_criterion(report.criterion_8(MAT, GEO, n_sets=20))


@pytest.fixture(scope="module")
def counted_criterion_8():
    # criterion 8 with every integrand point its oracles request counted: the
    # nodes of each batch's rows
    sizes = []
    integrate_intervals = oracle.integrate_intervals

    def counting(f, *intervals_and_spec):
        def counted(x, box):
            sizes.append(x.size)
            return f(x, box)

        return integrate_intervals(counted, *intervals_and_spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "integrate_intervals", counting)
        result = report.criterion_8(MAT, GEO, n_sets=20)
    return result, sum(sizes)


def test_criterion_08_first_sets_are_the_pinned_stdlib_stream():
    # criterion 8 and oracle --sets draw from random.Random(SWEEP_SEED): a
    # change of that stream fails here by name, not as a moved report cell
    assert list(report._oracle_sweep_cases(2, report.SWEEP_SEED)) == [
        (1, 0.024986450067973377, 1.6472027465328778, 2.824716271220005, 0.6891730324982926),
        (11, 0.00942405141509209, 1.7169015081645975, 3.88421863526186, 0.35195015412799024),
    ]


def test_criterion_08_hands_the_oracles_one_group_of_sets_at_a_time(monkeypatch):
    # 200 sets in groups of ORACLE_GROUP, three one-dimensional quadrature
    # passes per group, one per oracle call and Hermite order: the (0, 0)
    # escape and mass sides (the plate's and the exterior's, along x and
    # along y), the (2, 2) ones (x and y coincide, as alpha = beta), and the
    # (0, 0) electrode's x and y sides
    calls = []
    integrate_intervals = oracle.integrate_intervals

    def counting(f, intervals, spec):
        calls.append(len(intervals))
        return integrate_intervals(f, intervals, spec)

    monkeypatch.setattr(oracle, "integrate_intervals", counting)
    assert report.criterion_8(MAT, GEO, n_sets=200).passed
    group = report.ORACLE_GROUP
    assert 200 % group == 0
    assert calls == [4 * group, 2 * group, 2 * group] * (200 // group)


def test_criterion_08_point_budget(counted_criterion_8):
    # 20,070 points, each rectangle's integral the product of its two
    # sides' (2.78 M when the oracles refined 15 x 15 grids of the 2-D
    # shape); the bound catches a slide back toward two-dimensional work
    _, points = counted_criterion_8
    assert 0 < points <= 25_000


def test_criterion_08_deviations_at_rounding_level(counted_criterion_8):
    # stricter than the report's own 1e-8 cell, which stays the published gate
    result, _ = counted_criterion_8
    for row in result.rows:
        assert row.measured <= 1e-13, f"{row.label}: {row.measured:.3e}"


def test_criterion_09_eigensolver():
    _assert_criterion(report.criterion_9(MAT, GEO))


def test_criterion_09_checks_mode_frequency_on_its_one_solve(monkeypatch):
    # the in-plane spacing and level rows compare in_plane_quanta's ladder
    # with that of the default-geometry solve, the criterion's only one; the
    # levels lie 2.2e-5 below (2j + 1) q_x, the discretisation's offset
    calls = []
    trap_eigensolve = oracle.trap_eigensolve

    def counting(*args, **kwargs):
        calls.append(args)
        return trap_eigensolve(*args, **kwargs)

    monkeypatch.setattr(oracle, "trap_eigensolve", counting)
    spacing, levels = report.criterion_9(MAT, GEO).rows[2:4]
    assert calls == [(MAT, GEO, 1)]
    assert (spacing.label, f"{spacing.measured:.9g}", f"{spacing.expected:.9g}", spacing.tolerance,
            spacing.passed) == (
        "in-plane spacing lambda_2 - lambda_0", "1.20448229e+17", "1.20450481e+17", "rel 0.001", True
    )
    assert (levels.label, levels.expected, levels.tolerance, levels.passed) == (
        "max |lambda_j / ((2j+1) q_x) - 1| (j = 0..3)", 0.0, "abs 0.0001", True
    )
    assert 2e-5 < levels.measured < 2.5e-5


def test_criterion_09_eigenvectors_are_the_hermite_gaussians():
    # the eigenvectors j = 0..3 against the mode shape of (1, j, 0): the O(h^2)
    # finite-difference error, under the row's 1e-4, whatever sign each
    # vector was solved with; a trap 1% too strong or weak shows
    res = oracle.trap_eigensolve(MAT, GEO, 1)
    alpha, _ = cavity.envelope_curvatures(MAT, GEO, 1)
    dev = report._eigenvector_deviation(res, alpha)
    assert 1e-6 < dev < 1e-4
    flipped = res.vectors * np.array([1.0, -1.0, -1.0, 1.0])
    assert report._eigenvector_deviation(dataclasses.replace(res, vectors=flipped), alpha) == dev
    for scale in (0.99, 1.01):
        assert report._eigenvector_deviation(res, scale * alpha) > 1e-3
    row = report.criterion_9(MAT, GEO).rows[-1]
    assert (row.label, row.measured, row.tolerance) == ("max |v_j - u_j| (j = 0..3)", dev, "abs 0.0001")


def test_criterion_10_invariant_suite():
    _assert_criterion(report.criterion_10(MAT, GEO))


def test_criterion_10_first_draw_is_the_pinned_stdlib_stream(monkeypatch):
    # criterion 10 draws from random.Random(SWEEP_SEED + 1); its first
    # characterize call takes the first drawn overtone's etas, the first
    # drawn one first
    drawn = []

    class Drawn(Exception):
        pass

    def first_call(mat, geo, mode, temperature, eta_override=None):
        drawn.append((mode.n, float(eta_override[0])))
        raise Drawn

    monkeypatch.setattr(cavity, "characterize", first_call)
    with pytest.raises(Drawn):
        report.criterion_10(MAT, GEO)
    assert drawn == [(1, 1.2690323183219723)]


def test_full_report_is_green():
    results = report.run_all()
    assert [r.cid for r in results] == list(range(1, 11))
    assert all(r.passed for r in results)
