"""Acceptance gate: every reproduction criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion outcome; the same checks back the
``bawcav paper-report`` command.
"""

import math

import numpy as np
import pytest

from bawcav import oracle, report
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
    # size of the grid each batch's broadcasting node arrays span
    sizes = []
    integrate_rectangles = oracle.integrate_rectangles

    def counting(f, *rects_and_spec):
        def counted(x, y):
            sizes.append(math.prod(np.broadcast_shapes(x.shape, y.shape)))
            return f(x, y)

        return integrate_rectangles(counted, *rects_and_spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "integrate_rectangles", counting)
        result = report.criterion_8(MAT, GEO, n_sets=20)
    return result, sum(sizes)


def test_criterion_08_point_budget(counted_criterion_8):
    # 2.78 M points at G7/K15 (3.3 M before the escape oracle's plate
    # integral also gave the mass); the bound catches a slide back toward the
    # 47.8 M that composite Boole panels need for the same tolerance
    _, points = counted_criterion_8
    assert 0 < points <= 3_000_000


def test_criterion_08_deviations_at_rounding_level(counted_criterion_8):
    # stricter than the report's own 1e-8 cell, which stays the published gate
    result, _ = counted_criterion_8
    for row in result.rows:
        assert row.measured <= 1e-13, f"{row.label}: {row.measured:.3e}"


def test_criterion_09_eigensolver():
    _assert_criterion(report.criterion_9(MAT, GEO))


def test_criterion_10_invariant_suite():
    _assert_criterion(report.criterion_10(MAT, GEO))


def test_full_report_is_green():
    results = report.run_all()
    assert [r.cid for r in results] == list(range(1, 11))
    assert all(r.passed for r in results)
