"""Command-line interface: schemas, determinism, exit codes."""

import json

import pytest

from bawcav.cli import CHARACTERIZE_COLUMNS, SWEEP_COLUMNS, main


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
    ])
    def test_numeric_errors_exit_cleanly(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "characterize", *argv)
        assert code == expected
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert "inf" not in out and "nan" not in out

    @pytest.mark.parametrize("eta", ["1e200", "1e-200"])
    def test_numeric_error_names_eta_and_mode(self, capsys, eta):
        code, out, err = run_cli(capsys, "characterize", "--eta", eta)
        assert code == 3
        assert out == ""
        assert repr(float(eta)) in err
        assert "(m, p) = (0, 0)" in err

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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code = main(["sweep", "--n", "1,3,5", "--eta-range", "0.1:5.0:0.1", "--out", str(target)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_nonconvergence_maps_to_exit_3(self, capsys, monkeypatch):
        from bawcav import cli
        from bawcav.specfun import QuadratureConvergenceError

        def boom(*args, **kwargs):
            raise QuadratureConvergenceError("stalled", 0.0, 1.0)

        monkeypatch.setattr(cli.report_mod, "criterion_8", boom)
        code, _, err = run_cli(capsys, "oracle", "--sets", "1")
        assert code == 3
        assert "stalled" in err


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
