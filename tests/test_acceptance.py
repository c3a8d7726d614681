"""Acceptance gate: every reproduction criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion outcome; the same checks back the
``bawcav paper-report`` command.
"""

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
    # each level row compares the default-geometry solve, the criterion's
    # only one, with in_plane_quanta's (2j + 1) q_x raised by the closed
    # form's delta_j, at the closed form's remainder bound
    calls = []
    trap_eigensolve = oracle.trap_eigensolve

    def counting(*args, **kwargs):
        calls.append(args)
        return trap_eigensolve(*args, **kwargs)

    monkeypatch.setattr(oracle, "trap_eigensolve", counting)
    rows = report.criterion_9(MAT, GEO).rows
    assert calls == [(MAT, GEO, 1)]
    res = trap_eigensolve(MAT, GEO, 1)
    q_x, _ = cavity.in_plane_quanta(MAT, GEO, 1)
    delta, bound = cavity.trap_level_shifts(cavity.trap_anharmonicity(MAT, GEO, 1), GEO.h0 / GEO.R)
    for j, row in enumerate(rows[:4]):
        assert (row.label, row.measured, row.expected, row.tolerance, row.passed) == (
            f"lambda_j / ((2j+1) q_x (1 + delta_j)) - 1 (n = 1, j = {j})",
            res.lambdas[j] / ((2 * j + 1) * q_x * (1.0 + delta[j])) - 1.0, 0.0, f"abs {bound:g}", True,
        )
    assert [f"{row.measured:.9g}" for row in rows[:4]] == [
        "1.23075703e-06", "6.9241379e-07", "-2.09822654e-06", "-8.99021773e-06"
    ]
    assert rows[0].tolerance == "abs 3.42335e-05"
    assert [(row.label, row.measured) for row in rows[4:]] == [
        ("levels of 16 vs 32 Hermite functions (n = 1)", res.agreement),
        ("level mass past the zero-thickness point (n = 1)", max(res.outside_mass)),
    ]


def test_criterion_09_measured_values_depend_on_the_geometry():
    # the exact profile's levels depend on epsilon and h0/R: the default
    # plate (epsilon = 0.058) and one twenty times more curved (R = L,
    # epsilon = 0.26) give other deviations and other tolerances, and both
    # pass
    tight = cavity.CavityGeometry(L=GEO.L, h0=GEO.h0, R=GEO.L)
    default, curved = report.criterion_9(MAT, GEO), report.criterion_9(MAT, tight)
    assert default.passed and curved.passed
    for a, b in zip(default.rows, curved.rows):
        assert a.label == b.label
        assert a.measured != b.measured and a.tolerance != b.tolerance


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
