import csv
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from entport.cli import (
    DEFAULT_E0_GRID,
    DEFAULT_PHI_GRID,
    MAX_RANGE_COUNT,
    SWEEP_COLUMNS,
    SweepGrid,
    cmd_curve,
    cmd_sweep,
    cmd_verify,
    main,
    parse_values,
)


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestParseValues:
    def test_comma_list(self):
        assert parse_values("0,0.5, 1") == [0.0, 0.5, 1.0]

    def test_range(self):
        assert parse_values("0:1:5") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_value(self):
        assert parse_values("0.3") == [0.3]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_values("0:1")
        with pytest.raises(ValueError):
            parse_values("0:1:0")
        with pytest.raises(ValueError):
            parse_values("")

    def test_range_count_is_capped_before_allocating(self):
        assert len(parse_values(f"0:1:{MAX_RANGE_COUNT}")) == MAX_RANGE_COUNT
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                parse_values("0:1:1000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024


class TestSweepGrid:
    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            SweepGrid([1.5], [0.0])
        with pytest.raises(ValueError):
            SweepGrid([0.5], [2.0])
        with pytest.raises(ValueError):
            SweepGrid([], [0.0])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float32_axis_sweeps_as_float64(self, tmp_path, fmt):
        # The closed forms must run in float64, whatever dtype an axis is given in.
        narrow, wide = tmp_path / "float32", tmp_path / "float64"
        grid = SweepGrid(np.array([0.0, 0.5]), np.array([np.float32(0.3)]))
        assert cmd_sweep(grid, str(narrow), fmt) == 0
        assert cmd_sweep(SweepGrid([0.0, 0.5], [float(np.float32(0.3))]), str(wide), fmt) == 0
        assert narrow.read_bytes() == wide.read_bytes()

    def test_defaults_cover_both_branches(self):
        assert len(DEFAULT_E0_GRID) == 11
        assert len(DEFAULT_PHI_GRID) == 9
        assert min(DEFAULT_PHI_GRID) == -1.0 and max(DEFAULT_PHI_GRID) == 1.0


class TestSweep:
    def test_anchor_rows_and_exit_code(self, tmp_path):
        out = tmp_path / "sweep.csv"
        grid = SweepGrid([0.0, 1.0], [-0.5, 0.5, 1.0])
        assert cmd_sweep(grid, str(out), "csv") == 0
        rows = read_csv_rows(out)
        assert len(rows) == 6
        by_key = {(float(r["e0"]), float(r["phi"])): r for r in rows}

        perfect = by_key[(0.0, 1.0)]
        assert float(perfect["fidelity_closed"]) == pytest.approx(1.0, abs=1e-12)
        assert float(perfect["fidelity_sim"]) == pytest.approx(1.0, abs=1e-10)

        classical = by_key[(0.0, -0.5)]
        assert float(classical["ew"]) == 0.0
        assert float(classical["fidelity_closed"]) == pytest.approx(2 / 3, abs=1e-12)

        strong = by_key[(1.0, 0.5)]
        assert float(strong["ent_final_closed"]) == pytest.approx(0.5, abs=1e-12)
        assert float(strong["ent_final_sim"]) == pytest.approx(0.5, abs=1e-10)

    def test_csv_shape_and_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cmd_sweep(SweepGrid([0.5], [0.25]), str(out), "csv") == 0
        raw = out.read_bytes()
        assert b"\r" not in raw  # LF endings only
        lines = raw.decode().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        values = lines[1].split(",")
        assert len(values) == len(SWEEP_COLUMNS)
        # full double precision round-trips exactly
        assert float(values[3]) == 0.75 + (0.25 - 1.0) / 6.0 * 0.25

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert cmd_sweep(SweepGrid([0.0], [1.0]), str(out), "json") == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        assert set(rows[0]) == set(SWEEP_COLUMNS)
        assert rows[0]["fidelity_sim"] == pytest.approx(1.0, abs=1e-10)

    def test_default_grid_discrepancies_pass(self, tmp_path):
        out = tmp_path / "sweep.csv"
        grid = SweepGrid(list(DEFAULT_E0_GRID), list(DEFAULT_PHI_GRID))
        assert cmd_sweep(grid, str(out), "csv") == 0
        rows = read_csv_rows(out)
        assert len(rows) == 99
        assert max(float(r["max_abs_discrepancy"]) for r in rows) < 1e-8

    def test_unwritable_path_exits_2(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert cmd_sweep(SweepGrid([0.0], [0.0]), str(missing_dir), "csv") == 2

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_sweep(SweepGrid([0.0], [0.0]), str(tmp_path / "x"), "xml")


class TestVerify:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "verify.json"
        assert cmd_verify(100, 7, str(out)) == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        names = {check["name"] for check in report["checks"]}
        assert {
            "axiom_c1",
            "axiom_c2",
            "axiom_c3",
            "werner_eigs",
            "werner_pt_eigs",
            "werner_negativity",
            "fidelity_oracle_grid",
            "entanglement_oracle_grid",
            "entanglement_zero_at_ew_zero",
            "information_oracle_grid",
            "correlation_info_consistency",
        } <= names
        assert all(check["passed"] for check in report["checks"])

    def test_negative_branch_diagnostics(self, tmp_path):
        out = tmp_path / "verify.json"
        cmd_verify(10, 7, str(out))
        diag = json.loads(out.read_text())["diagnostics"]["phi_negative_branch"]
        # Substituting phi itself reproduces the simulation on phi < 0 ...
        assert diag["fidelity_phi_substitution_max_delta"] < 1e-10
        assert diag["information_total_phi_substitution_max_delta"] < 1e-10
        # ... while clamping ew at zero does not (the simulation rules there).
        assert diag["fidelity_ew_zero_max_delta"] > 1e-3
        assert diag["information_total_ew_zero_max_delta"] > 1e-3
        # The entanglement form is exact with the clamped ew, not with phi.
        assert diag["entanglement_clamped_max_delta"] < 1e-10
        assert diag["entanglement_phi_substitution_max_delta"] > 1e-3

    def test_correlation_info_fixture_equals_the_public_wrappers(self):
        import entport.cli as cli
        from entport.teleport import (
            correlation_info_from_entanglement,
            final_entanglement_closed_form,
            final_information_closed_form,
        )

        # The fixture reads the cores over one grid; the validated scalar
        # wrappers, point by point, are the reference, to the bit.
        expected = [
            abs(
                correlation_info_from_entanglement(final_entanglement_closed_form(e0, ew), ew)
                - final_information_closed_form(e0, ew).correlation
            )
            for ew in (0.25, 0.5, 0.75, 1.0)
            for e0 in DEFAULT_E0_GRID
        ]
        got = cli._fixture_violations()["correlation_info_consistency"]
        assert got.ravel().tolist() == expected

    def test_deterministic_for_seed(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cmd_verify(50, 123, str(out1)) == 0
        assert cmd_verify(50, 123, str(out2)) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        del r1["timestamp"], r2["timestamp"]
        assert r1 == r2

    def test_branches_configurable(self, tmp_path):
        out = tmp_path / "verify.json"
        assert cmd_verify(20, 7, str(out), branches=3) == 0
        report = json.loads(out.read_text())
        assert report["branches"] == 3

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            cmd_verify(0, 1, "/tmp/never-written.json")

    @pytest.mark.parametrize(
        "numpy_args", [("trials",), ("seed",), ("branches",), ("trials", "seed", "branches")]
    )
    def test_numpy_integers_write_the_python_int_report(self, tmp_path, numpy_args):
        # A numpy integer passes the count and seed gates, so json must be handed
        # Python ints: the report is the one Python ints give.
        args = {"trials": 20, "seed": 7, "branches": 2}
        given = {k: np.int64(v) if k in numpy_args else v for k, v in args.items()}
        reports = []
        for name, kwargs in (("python.json", args), ("numpy.json", given)):
            out = tmp_path / name
            assert cmd_verify(out_path=str(out), **kwargs) == 0
            reports.append(json.loads(out.read_text()))
            del reports[-1]["timestamp"]
        assert reports[1] == reports[0]
        assert [type(reports[1][k]) for k in args] == [int, int, int]

    def test_unwritable_path_exits_2(self, tmp_path):
        assert cmd_verify(5, 1, str(tmp_path / "no" / "dir.json")) == 2


class TestSweepAndVerifyAgree:
    def test_verify_oracle_checks_are_the_sweep_maxima(self, tmp_path):
        """Both commands compare through one path, so the numbers agree exactly."""
        sweep_out, verify_out = tmp_path / "sweep.json", tmp_path / "verify.json"
        grid = SweepGrid(list(DEFAULT_E0_GRID), list(DEFAULT_PHI_GRID))
        assert cmd_sweep(grid, str(sweep_out), "json") == 0
        assert cmd_verify(10, 7, str(verify_out)) == 0
        rows = json.loads(sweep_out.read_text())
        checks = json.loads(verify_out.read_text())["checks"]
        worst = {check["name"]: check["max_violation"] for check in checks}
        nonnegative = [row for row in rows if row["phi"] >= 0.0]
        negative = [row for row in rows if row["phi"] < 0.0]
        assert nonnegative and negative

        assert worst["fidelity_oracle_grid"] == max(
            abs(row["fidelity_closed"] - row["fidelity_sim"]) for row in nonnegative
        )
        assert worst["entanglement_oracle_grid"] == max(
            abs(row["ent_final_closed"] - row["ent_final_sim"]) for row in rows
        )
        assert worst["entanglement_zero_at_ew_zero"] == max(
            row["ent_final_sim"] for row in negative
        )


class TestCurve:
    def test_two_points(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert cmd_curve(2, str(out)) == 0
        rows = read_csv_rows(out)
        assert [r["e"] for r in rows] == ["0", "1"]
        assert [r["s"] for r in rows] == ["0", "1"]

    def test_monotone_and_binary_entropy_fixture(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert cmd_curve(101, str(out)) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 101
        s = [float(r["s"]) for r in rows]
        assert all(b > a for a, b in zip(s, s[1:]))
        row = rows[60]
        assert float(row["e"]) == pytest.approx(0.6, abs=1e-12)
        assert float(row["s"]) == pytest.approx(0.46900, abs=1e-5)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            cmd_curve(1, "/tmp/never-written.csv")


class TestMain:
    def test_sweep_round_trip(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--e0", "0,1", "--phi", "0:1:3", "--out", str(out)])
        assert rc == 0
        assert len(read_csv_rows(out)) == 6

    def test_negative_phi_values_after_a_space(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--e0", "0", "--phi", "-1:1:3", "--out", str(out)])
        assert rc == 0
        assert [float(r["phi"]) for r in read_csv_rows(out)] == [-1.0, 0.0, 1.0]
        rc = main(["sweep", "--e0", "0", "--phi", "-0.5,-0.25", "--out", str(out)])
        assert rc == 0
        assert [float(r["phi"]) for r in read_csv_rows(out)] == [-0.5, -0.25]

    def test_usage_error_is_exit_2(self, tmp_path):
        assert main(["sweep", "--e0", "2.0", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["sweep", "--e0", "0:1", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["curve", "--points", "1", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flag", ["--e0", "--phi"])
    def test_empty_grid_is_exit_2_not_the_default_grid(self, tmp_path, capsys, flag):
        out = tmp_path / "s.csv"
        assert main(["sweep", flag, "", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: no values in ''\n"

    def test_sizes_over_a_cap_are_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["sweep", "--e0", "0:1:1000000", "--out", str(out)]) == 2
        assert main(["curve", "--points", "1000000", "--out", str(out)]) == 2
        assert main(["verify", "--trials", "1", "--branches", "1000000", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("error:") == 3

    def test_missing_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "curve.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "entport.cli", "curve", "--points", "2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.read_text() == "e,s\n0,0\n1,1\n"


def test_sweep_passes_when_its_worst_gap_equals_the_tolerance(tmp_path, monkeypatch):
    import math

    import entport.cli as cli

    grid = SweepGrid([0.3, 0.7], [0.2, 0.9])
    worst = float(cli.compare(grid)[0]["max_abs_discrepancy"].max())
    assert worst > 0.0
    monkeypatch.setattr(cli, "DISCREPANCY_TOL", worst)
    assert cmd_sweep(grid, str(tmp_path / "at.csv")) == 0
    monkeypatch.setattr(cli, "DISCREPANCY_TOL", math.nextafter(worst, 0.0))
    assert cmd_sweep(grid, str(tmp_path / "below.csv")) == 1
