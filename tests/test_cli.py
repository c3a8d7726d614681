"""Command-line interface: schemas, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
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
    trapping_parameters,
)
from bawcav.cli import CHARACTERIZE_COLUMNS, MAX_ORACLE_SETS, SWEEP_COLUMNS, main
from bawcav.material import bundled_material_path, load_material


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
    ])
    def test_unbounded_range_exits_2(self, capsys, grid, message):
        code, out, err = run_cli(capsys, "sweep", "--n", "1", "--eta-range", grid)
        assert code == 2
        assert out == ""
        assert message in err

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
            if fmt == "csv":
                return "".join(cli._csv_text(table))
            return "".join(cli._json_text(table, "sweep"))

        copies = render(self.table(share=False))
        made = []
        for name in ("_formatted", "_json_cells"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda a, real=real: made.append(len(a)) or real(a))
        assert render(self.table(share=True)) == copies
        # the shared eta column is made whole once, all else chunk by chunk
        assert made.count(5000) == 1
        assert len(copies.splitlines()) > 3 * 5000

    def test_mixed_blocks_render_as_csv_writer_writes_their_cells(self):
        # text that needs quoting and holds %, numbers all rows share, and
        # int and float arrays across the 4,096-row chunks, one of them in
        # both blocks: each row as csv.writer writes the _fmt of its cells
        ints = np.arange(5000) * 7
        floats = np.random.default_rng(3).random(5000) * 1e-12
        blocks = [['5% of "a, b" %s', 2.5, ints, floats, 1],
                  ["100%", 1e300, ints[::-1].copy(), floats, 3]]
        table = cli.Table(["text", "x", "k", "f", "n"], blocks)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        for text, x, k, f, n in blocks:
            writer.writerows([cli._fmt(text), cli._fmt(x), cli._fmt(a), cli._fmt(b), cli._fmt(n)]
                             for a, b in zip(k.tolist(), f.tolist()))
        assert "".join(cli._csv_text(table)) == buf.getvalue()

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
        want = cli._csv_text(table) if fmt == "csv" else cli._json_text(table, "sweep")
        assert out == "".join(want)

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
        assert err == ("error: the figures of the 1e+300 m x 1e+300 m membrane are outside"
                       " the normal double range\n")

    def test_thick_membrane_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "membrane", "--mem-h", "0.01")
        assert code == 2
        assert "thin" in err


class TestJsonDeterminism:
    def test_byte_identical_json_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main(["characterize", "--n", "227", "--eta", "10.7",
                         "--format", "json", "--out", str(target)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


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


class TestOracleCmd:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--sets", "3")
        assert code == 0
        assert "harmonic ladder" in out

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

    @pytest.mark.parametrize("h0,R", [("1e-110", "1"), ("1e-100", "1e-3"), ("1e-90", "1e-15")])
    def test_unrepresentable_trap_exits_3_naming_R_and_h0(self, capsys, h0, R):
        # 8 R h0^3, the trap stiffness and the grid coupling each leave the
        # double range: one error line, no numpy warning, no traceback
        code, out, err = run_cli(capsys, "oracle", "--sets", "1", "--h0", h0, "--R", R)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"R = {float(R)!r}, h0 = {float(h0)!r}" in err

    def test_curvature_out_of_range_exits_3_naming_R_and_h0(self, capsys):
        # 8 R h0^3 is normal but 8 R h0^3 M_n overflows: criterion 9's
        # envelope curvature raises instead of reading 0
        code, out, err = run_cli(capsys, "oracle", "--sets", "1", "--h0", "1", "--R", "1e300",
                                 "--L", "10")
        assert (code, out) == (3, "")
        assert err == ("error: 8 R h0^3 M_n at R = 1e+300, h0 = 1.0 is outside the normal"
                       " double range\n")

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
        src = str(Path(bawcav.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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

    def test_unrepresentable_mass_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "characterize", "--n", "1", "--m", "200", "--eta", "1")
        assert code == 2
        assert out == ""
        assert "(m, p) = (200, 0)" in err

    def test_subnormal_zero_point_spread_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "characterize", "--n", "1", "--m", "150", "--eta", "60")
        assert code == 2
        assert out == ""
        assert "(m, p) = (150, 0)" in err

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


@pytest.mark.parametrize("command", FLAGS)
def test_each_command_takes_exactly_its_flags(command):
    from bawcav.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    options = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert options - {"-h", "--help"} == set(FLAGS[command])


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
