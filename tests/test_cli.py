"""Command-line interface: schemas, determinism, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bawcav
from bawcav import cli
from bawcav.cavity import (
    CavityGeometry,
    ModeIndex,
    characterize,
    envelope_curvatures,
    escape_probability_log10,
    trapping_parameters,
)
from bawcav.cli import CHARACTERIZE_COLUMNS, MAX_ORACLE_SETS, SWEEP_COLUMNS, main
from bawcav.material import bundled_material_path, load_material


def source_env():
    # the environment of a child interpreter that imports this bawcav
    src = str(Path(bawcav.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def material_file(tmp_path, lines):
    # the bundled constants, with the keys that lines set replaced by lines
    given = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in bundled_material_path("quartz").read_text().splitlines()
            if line.split("=")[0].strip() not in given]
    path = tmp_path / "m.dat"
    path.write_text("\n".join([lines] + kept) + "\n")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCharacterize:
    def test_default_fundamental(self, capsys):
        code, out, _ = run_cli(capsys, "characterize", "--n", "1")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == ",".join(CHARACTERIZE_COLUMNS)
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["f_Hz"]) == pytest.approx(3.1515e6, rel=1e-3)
        assert 130 < float(vals["n_thermal"]) < 133

    def test_high_overtone_occupancy(self, capsys):
        code, out, _ = run_cli(capsys, "characterize", "--n", "227", "--temp-k", "0.02")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        n_thermal = float(row[CHARACTERIZE_COLUMNS.index("n_thermal")])
        assert n_thermal == pytest.approx(0.22, abs=0.02)

    def test_even_overtone_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "characterize", "--n", "2")
        assert code == 2
        assert "overtone must be odd" in err

    def test_missing_material_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "characterize", "--material", "/no/such/file.dat")
        assert code == 2
        assert "material" in err

    # M_n = M + a_x / (n tan(kappa_x n pi / 2)), and P_n alike: -9.74e12 at
    # n = 1, positive at n = 7 and negative again at n = 37
    NEGATIVE_M = "a_x = -1e13\nkappa_x = 0.5"
    NEGATIVE_M_1 = "error: M_n of overtone n = 1 must be positive, got -9737500000000.002\n"
    # c_hat_z = c_bar_z - 8 e_z^2 / (eps_z (n pi)^2): -7.06e11 at n = 1
    NEGATIVE_C_HAT = "e_z = 1\neps_z = 1e-12"
    NEGATIVE_C_HAT_1 = "error: c_hat_z of overtone n = 1 must be positive, got -705569469138.7023\n"

    @pytest.mark.parametrize("line, argv, err", [
        ("rho 2643", "characterize", "error: line 1: expected key=value, got 'rho 2643'\n"),
        ("e_z = -1", "characterize", "error: e_z must be non-negative, got -1.0\n"),
        ("a_x = inf", "characterize", "error: a_x must be finite, got inf\n"),
        (NEGATIVE_M, "characterize", NEGATIVE_M_1),
        (NEGATIVE_M, "oracle --sets 1", NEGATIVE_M_1),
        (NEGATIVE_M, "electrode", "error: M_n of overtone n = 37 must be positive, got -7770270270.270386\n"),
        (NEGATIVE_M, "paper-report", NEGATIVE_M_1),
        (NEGATIVE_M, "sweep --n 1 --R-range 0.1:0.3:0.1", NEGATIVE_M_1),
        (NEGATIVE_C_HAT, "characterize", NEGATIVE_C_HAT_1),
        (NEGATIVE_C_HAT, "characterize --eta 3", NEGATIVE_C_HAT_1),
        (NEGATIVE_C_HAT, "oracle --sets 1", NEGATIVE_C_HAT_1),
    ], ids=["no-equals", "negative-e_z", "infinite-a_x", "negative-M_n", "negative-M_n-oracle",
            "negative-M_n-electrode", "negative-M_n-paper-report", "negative-M_n-sweep", "negative-c_hat_z",
            "negative-c_hat_z-eta", "negative-c_hat_z-oracle"])
    def test_bad_material_file_exits_2(self, capsys, tmp_path, line, argv, err):
        path = material_file(tmp_path, line)
        assert run_cli(capsys, *argv.split(), "--material", str(path)) == (2, "", err)

    def test_constants_are_checked_at_the_overtones_asked_for(self, capsys, tmp_path):
        # c_hat_z is negative at n = 1 only: electrode's n = 7, 37 and 227 run
        path = material_file(tmp_path, self.NEGATIVE_C_HAT)
        assert run_cli(capsys, "electrode", "--material", str(path))[0] == 0

    @pytest.mark.parametrize("argv, expected", [
        (["--temp-k", "inf"], 2),
        (["--eta", "1e200"], 3),
        (["--eta", "1e-200"], 3),
        (["--temp-k", "1e308"], 3),
        (["--h0", "5e-324", "--eta", "10"], 3),
        (["--h0", "1e-300"], 3),
        (["--L", "1e-200", "--eta", "10"], 3),
        (["--L", "1e200"], 3),
    ])
    def test_numeric_errors_exit_cleanly(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "characterize", *argv)
        assert code == expected
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert "inf" not in out and "nan" not in out

    @pytest.mark.parametrize("argv, names", [
        (["characterize", "--h0", "1e-300"], "h0 = 1e-300"),
        (["characterize", "--L", "1e-200", "--eta", "10"], "L = 1e-200"),
        (["characterize", "--L", "1e200"], "L = 1e+200"),
        (["electrode", "--L", "1e-200", "--eta", "10", "--n", "7"], "L = 1e-200"),
        (["electrode", "--L", "1e200", "--eta", "10", "--n", "7"], "L = 1e+200"),
        # 8 R h0^3 is a normal double, 8 R h0^3 M_n overflows
        (["characterize", "--R", "1e300", "--h0", "1"], "8 R h0^3 M_n at R = 1e+300, h0 = 1.0"),
    ])
    def test_extreme_geometry_error_names_the_input(self, capsys, argv, names):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert names in err and "division" not in err and "34" not in err

    @pytest.mark.parametrize("eta", ["1e200", "1e-200"])
    def test_numeric_error_names_eta_and_mode(self, capsys, eta):
        code, out, err = run_cli(capsys, "characterize", "--eta", eta)
        assert code == 3
        assert out == ""
        assert repr(float(eta)) in err
        assert "(m, p) = (0, 0)" in err

    @pytest.mark.parametrize("command", ["characterize", "membrane"])
    def test_infinite_eta_is_rejected_as_not_finite(self, capsys, command):
        assert run_cli(capsys, command, "--eta", "inf") == (
            2, "", "error: eta override must be positive and finite, got inf\n")

    def test_underflowing_temperature_is_zero_occupancy(self, capsys):
        # k * 5e-324 rounds to 0, which reads as the T -> 0 limit of 1e-300 K
        code, out, err = run_cli(capsys, "characterize", "--temp-k", "5e-324")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "characterize", "--temp-k", "1e-300")[1]
        assert out.strip().split("\n")[1].split(",")[CHARACTERIZE_COLUMNS.index("n_thermal")] == "0"

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "characterize", "--n", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["command"] == "characterize"
        assert set(doc["rows"][0]) == set(CHARACTERIZE_COLUMNS)


class TestSweep:
    def test_grid_shape_and_order(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "3,1", "--eta-range", "0.5:1.5:0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 * 3
        keys = [(int(l.split(",")[0]), float(l.split(",")[3])) for l in lines[1:]]
        assert keys == sorted(keys)  # deterministic (n, eta) ordering

    def test_xi_rises_along_eta(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--n", "1", "--eta-range", "0.2:3.0:0.2")
        xi_col = SWEEP_COLUMNS.index("xi")
        xis = [float(l.split(",")[xi_col]) for l in out.strip().split("\n")[1:]]
        assert all(b > a for a, b in zip(xis, xis[1:]))

    def test_radius_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "1", "--R-range", "0.1:0.3:0.1")
        assert code == 0
        eta_col = SWEEP_COLUMNS.index("eta")
        etas = [float(l.split(",")[eta_col]) for l in out.strip().split("\n")[1:]]
        # weaker curvature traps less: eta falls as R grows
        assert all(b < a for a, b in zip(etas, etas[1:]))

    def test_eta_zero_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "1", "--eta-range", "0:1:0.5")
        assert code == 2
        assert "eta" in err

    def test_empty_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--n", "1", "--eta-range", "2:1:0.5")
        assert code == 2

    @pytest.mark.parametrize("grid, message", [
        ("1:1e9:1e-9", "more than 1000000 points"),
        ("1:inf:1", "finite"),
        ("nan:2:1", "finite"),
        ("1:2", "range must be start:stop:step"),
        ("1:2:0", "range step must be positive"),
    ])
    def test_unbounded_range_exits_2(self, capsys, grid, message):
        code, out, err = run_cli(capsys, "sweep", "--n", "1", "--eta-range", grid)
        assert code == 2
        assert out == ""
        assert message in err

    def test_empty_overtone_list_exits_2(self, capsys):
        assert run_cli(capsys, "sweep", "--n", ",", "--eta-range", "1:2:1") == (
            2, "", "error: --n needs at least one overtone number\n")

    def test_both_ranges_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "1", "--eta-range", "1:2:1", "--R-range", "0.1:0.2:0.1"
        )
        assert code == 2

    def test_radius_conflicts_with_radius_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "1", "--R", "5", "--R-range", "0.1:0.3:0.1"])
        assert exc.value.code == 2
        assert "not allowed with argument --R" in capsys.readouterr().err

    def test_eta_range_reads_the_radius(self, capsys):
        # the plate must stay thin against R, so a tiny --R is refused
        code, out, err = run_cli(capsys, "sweep", "--n", "1", "--R", "0.005",
                                 "--eta-range", "1:2:1")
        assert code == 2
        assert out == ""
        assert "R/10" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_overtone_leaves_no_output(self, capsys, fmt):
        # the rows of n = 1 are computed before n = 4 is refused
        code, out, err = run_cli(capsys, "sweep", "--n", "1,4", "--eta-range", "1:2:1",
                                 "--format", fmt)
        assert code == 2
        assert out == ""
        assert "overtone must be odd" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code = main(["sweep", "--n", "1,3,5", "--eta-range", "0.1:5.0:0.1", "--out", str(target)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestWorkDoneOnce:
    # 5,000 rows per block, across the 4,096-row chunks the writers make
    ETA = 0.1 + np.arange(5000) * 0.0023
    COLUMNS = ["n", "eta", "a", "k", "b", "f"]

    def table(self, share):
        rng = np.random.default_rng(8)
        blocks = []
        for n in (1, 3, 5):
            eta = self.ETA if share else self.ETA.copy()
            blocks.append([n, eta, rng.random(5000) * 10.0 ** (n - 20),
                           np.arange(5000) * n, eta if share else eta.copy(), 1.5 * n])
        return cli.Table(self.COLUMNS, blocks)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shared_arrays_render_as_equal_copies(self, monkeypatch, fmt):
        def render(table):
            return "".join(cli._text(table, "sweep", fmt == "json"))

        copies = render(self.table(share=False))
        made = []
        real = cli._g9
        monkeypatch.setattr(cli, "_g9", lambda a, as_json: made.append(len(a)) or real(a, as_json))
        assert render(self.table(share=True)) == copies
        # the shared eta column is formatted whole once, all else chunk by chunk
        assert made.count(5000) == 1
        assert len(copies.splitlines()) > 3 * 5000

    # text that needs quoting and holds %, numbers all rows share, and int
    # and float arrays across the 4,096-row chunks, one of them in both
    # blocks
    INTS = np.arange(5000) * 7
    FLOATS = np.random.default_rng(3).random(5000) * 1e-12
    MIXED = cli.Table(["text", "x", "k", "f", "n"], [['5% of "a, b" %s', 2.5, INTS, FLOATS, 1],
                                                     ["100%", 1e300, INTS[::-1].copy(), FLOATS, 3]])

    def test_mixed_blocks_render_as_csv_writer_writes_their_cells(self):
        # each row as csv.writer writes the _fmt of its cells
        table, blocks = self.MIXED, self.MIXED.blocks
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        for text, x, k, f, n in blocks:
            writer.writerows([cli._fmt(text), cli._fmt(x), cli._fmt(a), cli._fmt(b), cli._fmt(n)]
                             for a, b in zip(k.tolist(), f.tolist()))
        assert "".join(cli._text(table, "table", False)) == buf.getvalue()

    def test_mixed_blocks_render_as_json_dumps_writes_their_cells(self):
        # each row as json.dumps(indent=2) writes the _round9 of its cells
        rows = [dict(zip(self.MIXED.columns, map(cli._round9, cells)))
                for text, x, k, f, n in self.MIXED.blocks
                for cells in zip([text] * 5000, [x] * 5000, k.tolist(), f.tolist(), [n] * 5000)]
        want = json.dumps({"schema_version": 1, "command": "table", "rows": rows}, indent=2)
        assert "".join(cli._text(self.MIXED, "table", True)) == want + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_radius_sweep_is_the_scalar_chain_of_each_radius(self, capsys, fmt):
        argv = ["sweep", "--n", "1,3", "--m", "2", "--p", "2", "--R-range", "0.05:2.0:0.0002",
                "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        # the table as one geometry and one scalar trapping call per radius makes it
        mat = load_material(bundled_material_path("quartz"))
        geos = [CavityGeometry(L=0.015, h0=5e-4, R=r)
                for r in cli._parse_grid("0.05:2.0:0.0002").tolist()]
        blocks = []
        for n in (1, 3):
            mode = ModeIndex(n, 2, 2)
            ex, ey = (np.array(a) for a in zip(*(
                trapping_parameters(*envelope_curvatures(mat, g, n), g.L) for g in geos)))
            char = characterize(mat, geos[0], mode, 0.02, eta_override=(ex, ey))
            blocks.append([n, 2, 2, char.eta_x, char.chi_inv, char.xi, char.omega / (2 * np.pi),
                           char.m_eff, char.x_zpf, char.p_zpf, char.n_thermal])
        table = cli.Table(SWEEP_COLUMNS, blocks)
        assert out == "".join(cli._text(table, "sweep", fmt == "json"))

    @pytest.mark.parametrize("argv, code, err", [
        (["--R-range", "0.001:0.01:0.001"], 2,
         "error: plate thickness 2*h0=0.001 must stay below R/10=0.0001\n"),
        (["--n", "1,3", "--R-range", "0.009:0.02:0.001"], 2,
         "error: plate thickness 2*h0=0.001 must stay below R/10=0.0009\n"),
        # the last radius rounds to inf: only it fails, and numpy does not warn
        (["--R-range", "1e299:1.7976931348623157e308:1.7976931348623157e308"], 2,
         "error: R must be positive and finite, got inf\n"),
        (["--R-range", "1.7e308:1.79e308:1e306"], 3,
         "error: 8 R h0^3 at R = 1.7e+308, h0 = 0.0005 is outside the normal double range\n"),
        (["--n", "1,4", "--R-range", "1e308:1.7e308:1e307"], 3,
         "error: 8 R h0^3 at R = 1e+308, h0 = 0.0005 is outside the normal double range\n"),
        (["--n", "1,3", "--R-range", "0.1:1.7e308:1e307", "--format", "json"], 3,
         "error: 8 R h0^3 M_n at R = 1e+307, h0 = 0.0005 is outside the normal double range\n"),
        (["--h0", "1e-200", "--R-range", "1e-100:2e-100:1e-100"], 3,
         "error: 8 R h0^3 at R = 1e-100, h0 = 1e-200 is outside the normal double range\n"),
        (["--m", "3", "--R-range", "0.001:0.01:0.001"], 2,
         "error: plate thickness 2*h0=0.001 must stay below R/10=0.0001\n"),
        (["--m", "3", "--R-range", "1.7e308:1.79e308:1e306"], 2,
         "error: in-plane number m must be even and non-negative, got 3\n"),
        (["--L", "1e-200", "--R-range", "0.1:0.2:0.1"], 3,
         "error: L^2 at L = 1e-200 is outside the normal double range\n"),
    ])
    def test_failing_radius_ranges_keep_their_message(self, capsys, argv, code, err):
        assert run_cli(capsys, "sweep", *argv) == (code, "", err)


# The edges of the double range, 9-digit ties and carries, doubles within
# 1e-16 of a 9-digit tie (scaled to nine digits in floating point, they
# read as exact ties), the bounds of the fixed layout, one negative value
# per layout: fixed with exponent -4..8, then the exponent form with 2 and
# with 3 digits, and whole numbers, which JSON writes with '.0': some only
# at nine digits, one of them 1e8
NINE_DIGIT_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1234567895.0, 123456789.5, 99999999.95, 999999999.5,
    6.413485215e134, 7.409550335e-184, 4.129719754999999e-118,
    1e-5, 1e-4, 1e8, 1e9, 1e16, 1e100, 1e-100,
    9.999999999999999e22, 1.0000000000000001e23, 9.999999999999999e-301, 1.0000000000000001e-300,
] + [-1.25 * 10.0**k for k in range(-4, 9)] + [-2.5e-7, -6.02e23, -1.6e-219, -3.3e300] + [
    1.0, -7.0, 99999999.0, 2.0000000004, -12345678.96, 99999999.96,
]


def _nine_digit_cells(values):
    # the formatter's '%.9g' cells and its JSON cells, NULs dropped
    a = np.array(values, dtype=np.float64)
    return ([c.replace(b"\0", b"").decode() for c in cli._g9(a, as_json).tolist()]
            for as_json in (False, True))


class TestNineDigitCells:
    # Each cell is '%.9g' % v, the correctly rounded conversion Python's %
    # makes, and each JSON cell is json.dumps of the value rounded to it,
    # as _json_value writes it

    def test_edge_values(self):
        cells, json_cells = _nine_digit_cells(NINE_DIGIT_VALUES)
        assert cells == ["%.9g" % v for v in NINE_DIGIT_VALUES]
        assert json_cells == [cli._json_value(v) for v in NINE_DIGIT_VALUES]

    def test_every_sign_layout_and_digit_count(self):
        # one value per keep-mask key: each sign, each layout (fixed with
        # exponent -4..8, the exponent form with 2 and with 3 digits, both
        # below 1e8, which JSON writes as '%.9g' does) and each count of
        # significant digits, the last one non-zero, so that each place of
        # a shifted-in '.' and of a displaced ninth digit shows
        values = [float(f"{sign}{d[0]}.{d[1:]}e{e}") for sign in "+-"
                  for e in (*range(-4, 9), -42, -123)
                  for d in ("123456789"[:k] for k in range(1, 10))]
        assert len(values) == 270
        cells, json_cells = _nine_digit_cells(values)
        assert cells == ["%.9g" % v for v in values]
        assert json_cells == [cli._json_value(v) for v in values]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=40))
    def test_any_double(self, values):
        cells, json_cells = _nine_digit_cells(values)
        assert cells == ["%.9g" % v for v in values]
        assert json_cells == [cli._json_value(v) for v in values]

    def test_chunk_of_columns_is_each_column(self):
        # the writer formats a block's columns together, as a 2-D array
        x = np.random.default_rng(5).standard_normal((7, 3)) * 10.0 ** np.arange(-6, 15, 7)
        x[0] = [3.0, -0.0, 1e12]
        for as_json in (False, True):
            assert cli._g9(x, as_json).tolist() == [cli._g9(row, as_json).tolist() for row in x]


class TestElectrode:
    def test_reference_sizing(self, capsys):
        code, out, _ = run_cli(capsys, "electrode", "--eta", "10.7", "--n", "7,37,227")
        assert code == 0
        lines = out.strip().split("\n")
        row227 = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert float(row227["L_tilde_opt_m"]) == pytest.approx(2.79136e-4, rel=1e-5)
        assert float(row227["mu"]) == pytest.approx(0.994607697, rel=1e-8)
        z_derived = {float(l.split(",")[-1]) for l in lines[1:]}
        assert max(z_derived) / min(z_derived) - 1 < 1e-9  # printed at 9 digits

    def test_first_principles_trapping(self, capsys):
        # without --eta the trapping parameter comes from material constants
        code, out, _ = run_cli(capsys, "electrode", "--n", "7")
        assert code == 0
        row = dict(zip(*[l.split(",") for l in out.strip().split("\n")]))
        # eta ~ 5.08 instead of 10.7 roughly doubles the optimal electrode
        assert float(row["L_tilde_opt_m"]) == pytest.approx(
            3 * 0.015 / (5.0804347690876461 * 7**0.5), rel=1e-6
        )

    def test_electrode_wider_than_plate_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "electrode", "--eta", "0.01", "--n", "7")
        assert code == 2
        assert out == ""
        assert "does not fit the plate" in err

    def test_normal_closed_form_beside_an_overflowing_square_prints(self, capsys):
        # 2 h0^2 / (eps_z L^2) alone is 4.9e310, but every printed figure is
        # a normal double, Z_closed_form too
        code, out, err = run_cli(capsys, "electrode", "--L", "1e-100", "--h0", "1e50", "--R", "1e52",
                                 "--eta", "5", "--n", "1")
        assert (code, err) == (0, "")
        row = dict(zip(*[l.split(",") for l in out.strip().split("\n")]))
        assert (row["Z_closed_form_ohm"], row["Z_derived_ohm"]) == ("1.38383936e+308", "3.45521857e+306")

    @pytest.mark.parametrize("eta", ["1e300", "1e150"])
    def test_unrepresentable_figures_name_eta_and_n(self, capsys, eta):
        # 1e300 overflows the envelope curvature, 1e150 makes C0 subnormal
        code, out, err = run_cli(capsys, "electrode", "--eta", eta, "--n", "7")
        assert code == 3
        assert out == ""
        assert repr(float(eta)) in err and "n = 7" in err


class TestMembraneCmd:
    def test_comparison_table(self, capsys):
        code, out, _ = run_cli(capsys, "membrane", "--n", "227", "--eta", "10.7")
        assert code == 0
        rows = dict(
            (line.split(",")[0], (float(line.split(",")[1]), float(line.split(",")[2])))
            for line in out.strip().split("\n")[1:]
        )
        assert rows["n_thermal"][0] == pytest.approx(0.219, abs=0.01)
        assert rows["n_thermal"][1] == pytest.approx(2804.6, rel=1e-3)
        assert rows["f_Hz"][1] == pytest.approx(148563, rel=1e-4)

    def test_json_layout(self, capsys):
        code, out, _ = run_cli(capsys, "membrane", "--format", "json")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert set(doc["cavity"]) == {"f_Hz", "m_eff_kg", "x_zpf_m", "n_thermal"}

    def test_unrepresentable_membrane_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "membrane", "--a", "1.7976931348623157e308")
        assert code == 3
        assert out == ""
        assert "membrane" in err

    def test_vanishing_membrane_frequency_exits_3_naming_the_membrane(self, capsys):
        # its range check runs before the occupancy, whose hbar omega / kT is 0
        code, out, err = run_cli(capsys, "membrane", "--a", "1e300", "--b", "1e300")
        assert (code, out) == (3, "")
        assert err == ("error: a figure of the 1e+300 m x 1e+300 m membrane is outside"
                       " the normal double range\n")

    def test_thick_membrane_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "membrane", "--mem-h", "0.01")
        assert code == 2
        assert "thin" in err


# each intermediate or figure outside the normal double range exits 3 with
# one line that names its input: a subnormal h0^3 or (n pi / 2 h0)^2 cost
# digits silently, and a zero omega C0 or membrane divisor divided by zero.
# The third column is the class the command raises: OverflowError exactly
# where the failing value, named in the comment, is +inf
UNREPRESENTABLE_ARGVS = [
    # h0^3 = 1e-321 and 1e-315 are subnormal
    (["characterize", "--h0", "1e-107", "--R", "1e14"],
     "8 R h0^3 at R = 100000000000000.0, h0 = 1e-107 is outside the normal double range", FloatingPointError),
    (["characterize", "--h0", "1e-105", "--R", "1e10"],
     "8 R h0^3 at R = 10000000000.0, h0 = 1e-105 is outside the normal double range", FloatingPointError),
    (["sweep", "--h0", "1e-107", "--R-range", "1e14:1e15:1e14"],
     "8 R h0^3 at R = 100000000000000.0, h0 = 1e-107 is outside the normal double range", FloatingPointError),
    (["oracle", "--h0", "1e-107", "--R", "1e14"],
     "8 R h0^3 at R = 100000000000000.0, h0 = 1e-107 is outside the normal double range", FloatingPointError),
    # h0^3 = 0
    (["oracle", "--sets", "1", "--h0", "1e-110", "--R", "1"],
     "8 R h0^3 at R = 1.0, h0 = 1e-110 is outside the normal double range", FloatingPointError),
    # 8 R h0^3 M_n = inf
    (["oracle", "--sets", "1", "--h0", "1", "--R", "1e300", "--L", "10"],
     "8 R h0^3 M_n at R = 1e+300, h0 = 1.0 is outside the normal double range", OverflowError),
    # (n pi / (2 h0))^2 = inf, then subnormal and 0
    (["characterize", "--h0", "1e-300", "--eta", "1"],
     "the frequency of overtone n = 1 at h0 = 1e-300 is outside the normal double range", OverflowError),
    (["characterize", "--h0", "1e160", "--R", "1e162", "--eta", "1"],
     "the frequency of overtone n = 1 at h0 = 1e+160 is outside the normal double range", FloatingPointError),
    (["characterize", "--h0", "1e200", "--R", "1e202", "--eta", "1"],
     "the frequency of overtone n = 1 at h0 = 1e+200 is outside the normal double range", FloatingPointError),
    # xi = inf
    (["characterize", "--eta", "1e200"],
     "xi of (m, p) = (0, 0) at eta = (1e+200, 1e+200) is outside the normal double range", OverflowError),
    # m_flat = 4 rho h0 L^2 = 5.3e300 is normal, m_eff = m_flat / xi = inf
    (["characterize", "--m", "60", "--eta", "1", "--L", "1e150"],
     "the effective mass of overtone n = 1, (m, p) = (60, 0) at eta = (1.0, 1.0),"
     " is outside the normal double range", OverflowError),
    # the squared zero-point spread x_zpf^2 is subnormal
    (["characterize", "--m", "150", "--eta", "60"],
     "a squared zero-point spread of (m, p) = (150, 0) at eta = (60.0, 60.0) is outside the normal"
     " double range", FloatingPointError),
    # the envelope curvature eta^2 / (pi L^2) = inf, subnormal (2.1e-308,
    # digits lost) and 0, which overlap_factor would reject as not positive
    (["electrode", "--eta", "1e300", "--n", "7"],
     "the envelope curvature of overtone n = 7 at eta = 1e+300 is outside the normal double range",
     OverflowError),
    (["electrode", "--L", "7e153", "--eta", "1.8", "--n", "5", "--h0", "0.01", "--R", "1"],
     "the envelope curvature of overtone n = 5 at eta = 1.8 is outside the normal double range",
     FloatingPointError),
    (["electrode", "--L", "9.2e153", "--eta", "2", "--n", "3", "--h0", "0.01", "--R", "1"],
     "the envelope curvature of overtone n = 3 at eta = 2.0 is outside the normal double range",
     FloatingPointError),
    # omega C0 = 0
    (["electrode", "--h0", "1e200", "--R", "1e202", "--eta", "5"],
     "a shunt figure of overtone n = 7 at eta = 5.0 is outside the normal double range", FloatingPointError),
    # the divisor pi sqrt(tau rho) h s = 0
    (["membrane", "--a", "1e-300", "--b", "1e-300", "--mem-h", "1e-320"],
     "a figure of the 1e-300 m x 1e-300 m membrane is outside the normal double range", FloatingPointError),
    # a subnormal tau / rho: f_Hz printed 4.59728511e-160 for 4.58474192e-160
    (["membrane", "--tau", "1e-318"],
     "a figure of the 0.03 m x 0.03 m membrane is outside the normal double range", FloatingPointError),
    # a subnormal variance: x_zpf printed 8.97675369e-161 for 8.97783303e-161
    (["membrane", "--a", "1e285", "--b", "2e-5", "--mem-h", "1e-6"],
     "a figure of the 1e+285 m x 2e-05 m membrane is outside the normal double range", FloatingPointError),
    # the divisor 2 omega m_eff = inf
    (["membrane", "--a", "1e300", "--b", "1e300"],
     "a figure of the 1e+300 m x 1e+300 m membrane is outside the normal double range", OverflowError),
]
UNREPRESENTABLE_IDS = [" ".join(argv) for argv, *_ in UNREPRESENTABLE_ARGVS]


@pytest.mark.parametrize("argv, err, error", UNREPRESENTABLE_ARGVS, ids=UNREPRESENTABLE_IDS)
def test_unrepresentable_intermediates_exit_3_naming_their_input(capsys, argv, err, error):
    assert run_cli(capsys, *argv) == (3, "", f"error: {err}\n")


@pytest.mark.parametrize("argv, err, error", UNREPRESENTABLE_ARGVS, ids=UNREPRESENTABLE_IDS)
def test_unrepresentable_intermediates_raise_overflow_exactly_at_inf(argv, err, error):
    with pytest.raises(ArithmeticError) as exc:
        cli.COMMANDS[argv[0]][0](cli._plain_args(argv))
    assert (type(exc.value), str(exc.value)) == (error, err)


class TestJsonDeterminism:
    def test_byte_identical_json_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main(["characterize", "--n", "227", "--eta", "10.7",
                         "--format", "json", "--out", str(target)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    # a sweep whose cells include whole numbers, 0, a subnormal and values
    # of 1e8 and above
    EDGE_SWEEP = "sweep --n 1,501 --eta-range 0.5:40:0.5 --m 4 --p 6"

    @pytest.mark.parametrize("command", [
        "characterize --n 227",
        "characterize --n 3 --eta 100 --m 4",
        "electrode",
        "electrode --eta 10.7 --n 1,3,7,15,37,65,227,501",
        "sweep --n 1,3 --eta-range 0.1:5:0.1 --m 2 --p 2",
        "sweep --n 1 --R-range 0.1:1.0:0.1",
        EDGE_SWEEP,
    ])
    def test_rows_are_what_json_dumps_writes(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split(), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        if command == self.EDGE_SWEEP:
            cells = [v for row in doc["rows"] for v in row.values() if isinstance(v, float)]
            assert 0.0 in cells and any(v.is_integer() and 0 < v < 1e8 for v in cells)
            assert any(0 < v < sys.float_info.min for v in cells)
            assert any(v >= 1e8 for v in cells)


class TestPaperReport:
    def test_bundled_inputs_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "paper-report")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("criterion,")
        assert all(line.endswith("PASS") for line in lines[1:])

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "paper-report", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["all_pass"] is True
        assert [c["id"] for c in doc["criteria"]] == list(range(1, 11))
        for c in doc["criteria"]:
            assert {"id", "name", "passed", "checks"} <= set(c)
            for check in c["checks"]:
                assert {"label", "measured", "expected", "tolerance", "passed"} <= set(check)

    def test_perturbed_stiffness_fails_frequency_checks(self, tmp_path, capsys):
        bad = tmp_path / "perturbed.dat"
        bad.write_text(
            "rho=2643\nc_bar_z=115.5e9\neps_z=4.06e-11\nM=262.5e9\nP=262.5e9\n"
        )
        code, out, _ = run_cli(capsys, "paper-report", "--material", str(bad))
        assert code == 1
        failed = [l for l in out.strip().split("\n") if l.endswith("FAIL")]
        assert any("f(1)" in l for l in failed)

    def test_report_and_oracle_leave_numpy_random_unimported(self, tmp_path):
        # numpy 2 imports numpy.random lazily, at its first use, and that
        # import cost more than any criterion: the seeded draws come from the
        # stdlib's random, already imported with bawcav.cli. numpy.polynomial
        # is lazy too, and costs 3.6 ms: the trap solve builds its own
        # Gauss-Hermite rule. numpy 1.24 imports both with numpy itself, so
        # there is nothing to check there
        env = source_env()
        script = (
            "import sys\n"
            "from bawcav import cli\n"
            "names = ('numpy.random', 'numpy.polynomial')\n"
            "before = [name in sys.modules for name in names]\n"
            f"assert cli.main(['paper-report', '--out', {str(tmp_path / 'report.csv')!r}]) == 0\n"
            f"assert cli.main(['oracle', '--sets', '3', '--out', {str(tmp_path / 'oracle.csv')!r}]) == 0\n"
            "print(*before, *(name in sys.modules for name in names))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        words = proc.stdout.splitlines()[-1].split()
        unchecked = [before == "False" for before in words[:2]]
        if not any(unchecked):
            pytest.skip("this numpy imports numpy.random and numpy.polynomial with numpy itself")
        assert [after for after, check in zip(words[2:], unchecked) if check] == ["False"] * sum(unchecked)


class TestOracleCmd:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--sets", "3")
        assert code == 0
        assert '"lambda_j / ((2j+1) q_x (1 + delta_j)) - 1 (n = 1, j = 3)"' in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--sets", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "oracle"
        assert [c["id"] for c in doc["criteria"]] == [8, 9]

    @pytest.mark.parametrize("sets", [str(MAX_ORACLE_SETS + 1), "100000000"])
    def test_sets_above_the_cap_exit_2(self, capsys, sets):
        code, out, err = run_cli(capsys, "oracle", "--sets", sets)
        assert code == 2
        assert out == ""
        assert f"capped at {MAX_ORACLE_SETS}" in err

    @pytest.mark.parametrize("sets", ["0", "-3"])
    def test_no_parameter_sets_exits_2(self, capsys, sets):
        code, out, err = run_cli(capsys, "oracle", "--sets", sets)
        assert code == 2
        assert out == ""
        assert "at least one parameter set" in err

    @pytest.mark.parametrize("h0,R", [("1e-110", "1")])
    def test_unrepresentable_trap_exits_3_naming_R_and_h0(self, capsys, h0, R):
        # 8 R h0^3 leaves the double range: one error line, no numpy
        # warning, no traceback
        code, out, err = run_cli(capsys, "oracle", "--sets", "1", "--h0", h0, "--R", R)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"R = {float(R)!r}, h0 = {float(h0)!r}" in err

    def test_far_trap_passes_every_criterion(self, capsys):
        # every figure of this trap is a normal double, though an operator
        # built in SI units would square a grid coupling M / h^2 of 6e158
        code, out, err = run_cli(capsys, "oracle", "--sets", "1", "--h0", "1e-90", "--R", "1e-15")
        assert (code, err) == (0, "")
        assert "FAIL" not in out and out.count(",PASS\n") == out.count("\n") - 1

    def test_trap_whose_stiffness_would_overflow_passes_every_criterion(self, capsys):
        # k = pi^2 n^2 c_hat_z / (8 R h0^3) would be 1.3e314, but the solve
        # takes q_x = 5.8e162 and epsilon = 4.5e-49, both normal doubles
        code, out, err = run_cli(capsys, "oracle", "--sets", "1", "--h0", "1e-100", "--R", "1e-3")
        assert (code, err) == (0, "")
        assert "FAIL" not in out and out.count(",PASS\n") == out.count("\n") - 1

    def test_curvature_out_of_range_exits_3_naming_R_and_h0(self, capsys):
        # 8 R h0^3 is normal but 8 R h0^3 M_n overflows: criterion 9's
        # envelope curvature raises instead of reading 0
        code, out, err = run_cli(capsys, "oracle", "--sets", "1", "--h0", "1", "--R", "1e300",
                                 "--L", "10")
        assert (code, out) == (3, "")
        assert err == ("error: 8 R h0^3 M_n at R = 1e+300, h0 = 1.0 is outside the normal"
                       " double range\n")

    def test_trap_past_the_checked_range_exits_3_naming_n_and_epsilon(self, capsys, tmp_path):
        # M four times quartz's puts epsilon at 0.63 on the thickest plate,
        # past the 0.6 up to which the closed form's bound was checked
        mat = tmp_path / "soft.dat"
        mat.write_text("rho=2643\nc_bar_z=105e9\neps_z=4.06e-11\nM=1050e9\nP=262.5e9\n")
        code, out, err = run_cli(capsys, "oracle", "--sets", "1", "--h0", "0.0149", "--material", str(mat))
        assert (code, out) == (3, "")
        assert err.startswith("error: the trap of overtone n = 1 at epsilon = 0.63") and err.count("\n") == 1

    def test_nonconvergence_maps_to_exit_3(self, capsys, monkeypatch):
        from bawcav import cli
        from bawcav.specfun import QuadratureConvergenceError

        def boom(*args, **kwargs):
            raise QuadratureConvergenceError("stalled", 0.0, 1.0)

        monkeypatch.setattr(cli.report_mod, "criterion_8", boom)
        code, _, err = run_cli(capsys, "oracle", "--sets", "1")
        assert code == 3
        assert "stalled" in err


class TestConsoleEntry:
    def test_closed_pipe_exits_141_quietly(self):
        # `bawcav sweep ... | head -n 1`: the reader leaves after one line and
        # the writer stops at once, without a message or a usage-error code
        env = source_env()
        argv = ["sweep", "--n", "1,3", "--eta-range", "0.1:12:0.001"]
        proc = subprocess.Popen([sys.executable, "-m", "bawcav", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first.decode() == ",".join(SWEEP_COLUMNS) + "\n"
        assert err == b""


class TestSweepModes:
    def test_higher_inplane_family(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "1", "--m", "2", "--p", "2",
                               "--eta-range", "1:2:0.5")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert all(r.split(",")[1] == "2" and r.split(",")[2] == "2" for r in rows)

    def test_higher_order_strong_trapping(self, capsys):
        # rows with sqrt(n) * eta up to 22.8, beyond the reach of 1-D quadrature
        code, out, _ = run_cli(capsys, "sweep", "--n", "5", "--m", "4",
                               "--eta-range", "9.6:10.2:0.06")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 11

    def test_log10_escape_for_every_even_mode(self, capsys):
        code, out, _ = run_cli(capsys, "characterize", "--n", "3", "--m", "4", "--p", "6",
                               "--eta", "20")
        assert code == 0
        row = dict(zip(*[l.split(",") for l in out.strip().split("\n")]))
        assert float(row["chi_inv"]) == 0.0
        assert -600 < float(row["log10_chi_inv"]) < -400

    def test_unrepresentable_mass_exits_3(self, capsys):
        # a result outside the double range, as every other such check
        code, out, err = run_cli(capsys, "characterize", "--n", "1", "--m", "200", "--eta", "1")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "(m, p) = (200, 0)" in err

    def test_subnormal_zero_point_spread_exits_3(self, capsys):
        # a result outside the double range, as every other such check
        code, out, err = run_cli(capsys, "characterize", "--n", "1", "--m", "150", "--eta", "60")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "(m, p) = (150, 0) at eta = (60.0, 60.0)" in err

    @pytest.mark.parametrize("m, eta", [("40", "1e9"), ("60", "1e7"), ("10", "1e33"), ("4", "1e82")])
    def test_log10_escape_of_a_tail_beyond_the_double_range(self, capsys, m, eta):
        code, out, err = run_cli(capsys, "characterize", "--m", m, "--eta", eta)
        assert (code, err) == (0, "")
        row = dict(zip(*[l.split(",") for l in out.strip().split("\n")]))
        log10_chi = escape_probability_log10(ModeIndex(1, int(m), 0), float(eta), float(eta))
        assert row["log10_chi_inv"] == f"{log10_chi:.9g}"
        assert math.isfinite(log10_chi) and log10_chi < -1e10

    def test_override_with_representable_figures_prints_them(self, capsys):
        # eta^2 / (pi L^2) overflows here, but no printed figure does
        code, out, err = run_cli(capsys, "sweep", "--n", "1", "--m", "84", "--p", "84",
                                 "--eta-range", "1e5:1.00002e5:1", "--L", "1e-150")
        assert (code, err) == (0, "")
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(float(v)) for r in rows for v in r)

    def test_odd_inplane_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "1", "--m", "1", "--eta-range", "1:2:0.5")
        assert code == 2
        assert "even" in err


COMMON_FLAGS = ["--material", "--L", "--h0", "--R", "--format", "--out"]
FLAGS = {
    "characterize": COMMON_FLAGS + ["--eta", "--temp-k", "--n", "--m", "--p"],
    "sweep": COMMON_FLAGS + ["--temp-k", "--n", "--m", "--p", "--eta-range", "--R-range"],
    "electrode": COMMON_FLAGS + ["--eta", "--n", "--mu-opt"],
    "membrane": COMMON_FLAGS + ["--eta", "--temp-k", "--n", "--m", "--p", "--a", "--b",
                                "--mem-h", "--tau", "--mem-m", "--mem-n"],
    "paper-report": COMMON_FLAGS + ["--variant-material"],
    "oracle": COMMON_FLAGS + ["--sets"],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command in FLAGS
    for flag in ("--L-tilde", "--eta", "--temp-k")
    if flag not in FLAGS[command]
])
def test_flag_a_command_does_not_read_is_a_usage_error(command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "0.001"])
    assert exc.value.code == 2


def _subparser(parser, command):
    return next(a for a in parser._actions if a.dest == "command").choices[command]


def _flag_specs(parser):
    # each flag as argparse holds it, and the flags it excludes
    return ([(a.option_strings, a.dest, a.default, a.type, a.choices, a.metavar, a.help)
             for a in parser._actions],
            [[a.option_strings for a in g._group_actions]
             for g in parser._mutually_exclusive_groups])


# SHA-256 of repr(_flag_specs(...)) of each command, recorded from the
# flag-adder functions that cli.COMMANDS' flag lists replaced: each flag's
# option strings, dest, default, type, choices, metavar and help, in order,
# and the exclusive groups; membrane's --m and --p have since taken the help
# text the other commands give them
FLAG_SPECS = {
    "characterize": "bad0196575909526cc46c45731e89287d2dbb2c94bded8df9fec875cf304dca0",
    "sweep": "fabd1f09a7aaea474a95ed75f76d8213b3301c51d08886752eb4e7f2cc61085a",
    "electrode": "8948ca645f0061034141945bd5cba957c39143b7c29abaa230d940ae3ba704d9",
    "membrane": "742768b8e784fa050082a8c86414fcb9a7c4fecfc2d2644611cd70a5ef6811a3",
    "paper-report": "638a844f98b0347acd447259fe9eade66601f616b4718d0e282b30bec08d1c70",
    "oracle": "800c7893815adb4eeac0547a69460d8b6458bf69d35f0ad12a8369fd82457192",
}


@pytest.mark.parametrize("command", FLAGS)
def test_each_command_takes_exactly_its_flags(command):
    full = _subparser(cli._build_parser(), command)
    options = {o for a in full._actions for o in a.option_strings}
    assert options - {"-h", "--help"} == set(FLAGS[command])
    specs = _flag_specs(full)
    assert specs[1] == ([[["--R"], ["--R-range"]]] if command == "sweep" else [])
    assert hashlib.sha256(repr(specs).encode()).hexdigest() == FLAG_SPECS[command], specs


# usage errors and help of every kind, which main leaves to the full parser
PARSER_ARGVS = [
    [], ["--help"], ["nosuch"],
    *([command, "--help"] for command in FLAGS),
    ["sweep", "--bogus", "1"], ["sweep", "--eta", "1"], ["characterize", "--n", "x"],
    ["sweep", "--R", "1", "--R-range", "1:2:1"], ["oracle", "--sets", "x"],
    ["characterize", "--temp", "1"],
]


def _output(call):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_one_command_parser_prints_as_the_full_parser(argv):
    # main, which reads plain command lines without argparse, leaves help
    # and usage errors to the parser: it prints them and exits with its code
    got = _output(lambda: main(list(argv)))
    assert got == _output(lambda: cli._build_parser().parse_args(argv))
    assert got[0] == (0 if "--help" in argv else 2)
    assert got[1 if got[0] == 0 else 2].startswith("usage: bawcav ")


def test_main_builds_only_the_parser_it_runs(monkeypatch, tmp_path):
    built = []
    build = cli._build_parser

    def spy():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", spy)
    out = str(tmp_path / "grid.csv")
    assert main(["sweep", "--n", "1", "--eta-range", "1:2:1", "--out", out]) == 0
    assert built == []  # a plain command line builds no parser
    for argv in (["sweep", "--help"], ["sweep", "--bogus", "1"]):
        assert _output(lambda: main(argv))[0] == (0 if "--help" in argv else 2)
    assert len(built) == 2


# tokens for command lines that _plain_args reads and that it leaves to the
# parser: flags in full, repeated, abbreviated, unknown or with '=value',
# and values of every kind the parser treats apart
VALUES = ["-", "-1", "-1e3", "", " 2 ", "07", "nan", "inf", "1", "0.5", "1,3", "x",
          "1:2:1", "0.1:1:0.1", "csv", "json", "xml", "out.csv"]
OTHER_FLAGS = ["--bogus", "--help", "-h", "--", "--te", "--eta", "--R-", "--L-tilde", "--format"]


def _random_argv(rng, command):
    flags = FLAGS[command]
    argv = [command]
    for _ in range(rng.randrange(7)):
        kind = rng.random()
        flag = rng.choice(flags)
        if kind < 0.1:
            flag = rng.choice(OTHER_FLAGS)
        elif kind < 0.15:
            flag = flag[:rng.randrange(2, len(flag))]  # an abbreviation
        elif kind < 0.25 and len(argv) > 1:
            flag = rng.choice(argv[1::2])  # a repeat
        value = rng.choice(VALUES)
        argv += [f"{flag}={value}"] if rng.random() < 0.05 else [flag, value]
    if command == "sweep" and rng.random() < 0.2:
        argv += ["--R", "1", "--R-range", "1:2:1"]
    if rng.random() < 0.05:
        argv.append(rng.choice(VALUES))  # an odd token count
    return argv


def _same(a, b):
    # equal values of the same type, NaN equal to NaN
    return type(a) is type(b) and (a == b or a != a and b != b)


@pytest.mark.parametrize("command", FLAGS)
def test_plain_read_is_the_parsers_namespace(command):
    rng = random.Random(command)
    parser = cli._build_parser()
    plain = 0
    for _ in range(400):
        argv = _random_argv(rng, command)
        got = cli._plain_args(argv)
        if got is None:
            continue
        plain += 1
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                parsed = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"the parser refuses {argv}, which _plain_args reads")
        assert list(vars(got)) == list(vars(parsed)), argv
        assert all(_same(v, getattr(parsed, k)) for k, v in vars(got).items()), argv
    assert plain >= 40  # the lines read plainly are not a handful


# SHA-256 of stdout for the README commands; the output contract is
# byte-identical output for identical inputs.  paper-report and oracle are
# left out: their ~1e-15 criterion-8 cells depend on BLAS summation order.
README_COMMANDS = {
    "sweep --n 1,3,5,15 --eta-range 0.1:5:0.1":
        "001222f8ec6f37bc7810c7294c0e8993e3a8bce239c8fa9c22d7826558f5d811",
    "sweep --n 1,3,5,15 --eta-range 0.1:5:0.1 --format json":
        "4db1bcc2d9c66e44c6594e6f8ec6acd91b8ad1de4aef05074773693aefe54fbd",
    "sweep --n 1,3,5,15 --eta-range 0.1:5:0.1 --m 2 --p 2":
        "feaac5c567a3fd11e74b5e8102d42318d9c92bc21c396afe74c97c6b77a2945a",
    "sweep --n 1,3,5,15 --eta-range 0.1:5:0.1 --m 2 --p 2 --format json":
        "b340510076d5c6bc7d382b6a377ba57996369def08476bcd33b3feba733c3dc4",
    "sweep --n 1 --R-range 0.1:1.0:0.1":
        "30b5baff105b307371057aca25c897cd8ab1fe8d2993c1fe038d9ee2957aa8b2",
    "sweep --n 1 --R-range 0.1:1.0:0.1 --format json":
        "fd3d946e65de74207a40a4ba81fdbcea6bad86ee875bd4e1d6a99beda4072f31",
    "electrode --eta 10.7 --n 7,37,227":
        "cc46dd8d62547a27ea76337c8d7e617e99ccd2033d07dca9719a0d34ebb54299",
    "electrode --eta 10.7 --n 7,37,227 --format json":
        "f587200b0fecc7c54291741f1b70a4795a1a0cdf064a3f451b7f4cd4756c4356",
    "electrode --eta 10.7 --n 1,3,7,15,37,65,227,501":
        "c4b8f1c46a354dd60219a034a8b3e6e593a47a7262c26dbbd0ae7acf5bcf8ef0",
    "electrode --eta 10.7 --n 1,3,7,15,37,65,227,501 --format json":
        "6088eabf432d327f2e592ae9b3e2c0b9c93d2708a2013f34e27a7acc2abc2af4",
    "characterize --n 227 --temp-k 0.02":
        "9cc23a3414cb131c417594c6bc5a25d3b4415aed81f3d715d7c185c54242ca15",
    "characterize --n 227 --temp-k 0.02 --format json":
        "a3e3e8edfe69a0ad857e7098e349f393c22c658f951941d99b8b39c072bfa883",
    "membrane --n 227 --eta 10.7":
        "168fac4921873a34e62814efdc381e89780da0cd09c42f67899b04d884695509",
    "membrane --n 227 --eta 10.7 --format json":
        "821e0c0acdbd7fcfeb4a92b180b9ebf80082333cdab45e66d22b8ae8ba8bf925",
}


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_output_is_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_COMMANDS[command]


# SHA-256 of the README's plot-ready grid, 119,010 rows, as CSV and JSON;
# it crosses the block boundaries of the streamed output many times
README_GRID = "sweep --n 1,3,5,7,9,11,13,15,17,19 --eta-range 0.1:12:0.001"
README_GRID_SHA256 = {
    "csv": "7bab5c3828f5f09552a241f303af5d3e4e18c80a103f3af3e53cd69b03a8d408",
    "json": "c02bc2ac89b1395ab3b402b6f69c2c83530379f649c3037188eba79e4abfca8a",
}


@pytest.mark.parametrize("fmt", README_GRID_SHA256)
def test_readme_grid_is_pinned(tmp_path, fmt):
    out = tmp_path / f"grid.{fmt}"
    assert main(README_GRID.split() + ["--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_GRID_SHA256[fmt]


def _flag(name, values):
    # a flag with a value drawn from ``values``, or the flag left out
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v!r}"]))


# the edges of the double range, and values that are not in it
EXTREMES = st.sampled_from([0.0, -1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                            1.7976931348623157e308, float("inf"), float("nan")])


def _float_flag(name, lo, hi):
    # a plausible value, an extreme one, any float at all, or the default
    return _flag(name, st.one_of(st.floats(min_value=lo, max_value=hi), EXTREMES, st.floats()))


# mostly valid mode numbers, so that most examples reach the figures
ODD = st.one_of(st.integers(0, 500).map(lambda k: 2 * k + 1), st.integers(-3, 4))
EVEN = st.one_of(st.integers(0, 20).map(lambda k: 2 * k), st.integers(-2, 3))
ODD_LIST = st.lists(ODD, max_size=3).map(lambda ns: ",".join(map(str, ns)))


@st.composite
def _grid(draw, name, lo, hi):
    # at most a handful of points: stop is a few steps past start
    start = draw(st.one_of(st.floats(min_value=lo, max_value=hi), st.floats()))
    step = draw(st.one_of(st.floats(min_value=lo / 10, max_value=hi), st.floats()))
    stop = start + draw(st.integers(0, 4)) * step
    return [f"{name}={start!r}:{stop!r}:{step!r}"]


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


GEOMETRY = (_float_flag("--L", 1e-3, 0.1), _float_flag("--h0", 1e-5, 1e-3),
            _float_flag("--R", 1e-2, 10.0))
MODE = (_flag("--m", EVEN), _flag("--p", EVEN))
ETA = _float_flag("--eta", 1e-2, 100.0)
TEMP = _float_flag("--temp-k", 1e-4, 1e3)
FORMAT = _flag("--format", st.sampled_from(["csv", "json"]))

CLI_ARGS = st.one_of(
    _argv("characterize", *GEOMETRY, *MODE, ETA, TEMP, FORMAT,
          _flag("--n", ODD)),
    _argv("electrode", *GEOMETRY, ETA, FORMAT, _flag("--n", ODD_LIST),
          _float_flag("--mu-opt", 0.01, 0.999)),
    _argv("membrane", *GEOMETRY, *MODE, ETA, TEMP, FORMAT,
          _flag("--n", ODD), _float_flag("--a", 1e-3, 0.1),
          _float_flag("--b", 1e-3, 0.1), _float_flag("--mem-h", 1e-5, 1e-3),
          _float_flag("--tau", 1e6, 1e12)),
    # --R comes with either range, and conflicts with --R-range
    _argv("sweep", *GEOMETRY, *MODE, TEMP, FORMAT, _flag("--n", ODD_LIST),
          st.one_of(_grid("--eta-range", 1e-2, 20.0), _grid("--R-range", 1e-2, 10.0))),
    # only set counts that are refused before any quadrature runs
    _argv("oracle", *GEOMETRY, FORMAT,
          st.one_of(st.integers(max_value=0), st.integers(min_value=MAX_ORACLE_SETS + 1))
          .map(lambda k: [f"--sets={k}"])),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(CLI_ARGS)
def test_fuzzed_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    text = out.getvalue().lower()
    assert "inf" not in text and "nan" not in text, (argv, text)
