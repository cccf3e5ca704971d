"""Sizes from the command line are capped up front, and outputs are written atomically."""

import io
import json
import os
import re
import stat
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entport.cli as cli
import entport.matkernel as matkernel
from entport.axioms import MAX_TRIALS, check_c1, check_c2, check_c3
from entport.cli import MAX_GRID_POINTS, SweepGrid, cmd_curve, cmd_verify, main, parse_values
from entport.matkernel import STACK_BLOCK

from conftest import traced_peak


class TestTrialCap:
    def test_checks_reject_trials_over_the_cap(self):
        for run in (
            lambda n: check_c1(n, 1),
            lambda n: check_c2(n, 1),
            lambda n: check_c3(n, 2, 1),
        ):
            with pytest.raises(ValueError, match=r"trials must lie in \[1, 1000000\]"):
                run(MAX_TRIALS + 1)
            with pytest.raises(ValueError, match=r"trials must lie in \[1, 1000000\]"):
                run(0)

    def test_cli_exits_2_at_once(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        start = time.perf_counter()
        assert main(["verify", "--trials", "1000000000", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        assert "trials must lie in [1, 1000000], got 1000000000" in capsys.readouterr().err

    def test_c3_peak_memory_is_flat_in_trials(self):
        check_c3(10, 1, 3)  # first-call set-up inside numpy is not part of the peak
        small = traced_peak(lambda: check_c3(2_000, 1, 3))
        large = traced_peak(lambda: check_c3(20_000, 1, 3))
        assert large <= 1.1 * small, (small, large)

    @pytest.mark.parametrize(
        "run",
        [lambda: check_c1(1000, 7), lambda: check_c2(1000, 7), lambda: check_c3(1000, 2, 7)],
        ids=["C1", "C2", "C3"],
    )
    def test_every_check_has_the_working_set_of_a_few_blocks(self, run):
        # A block's trials hold at most STACK_BLOCK 4x4 complex matrices, so each
        # check's peak stays within a few such stacks, whatever one trial evaluates.
        run()  # first-call set-up inside numpy is not part of the peak
        peak = traced_peak(run)
        one_stack = STACK_BLOCK * 4 * 4 * np.dtype(complex).itemsize  # 128 KiB
        assert peak <= 4 * one_stack, peak


class TestGridCap:
    def test_cli_rejects_a_grid_over_the_cap(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--e0", "0:1:10000", "--phi", "-1:1:10000", "--out", str(out)]) == 2
        assert not out.exists()
        assert "grid points must lie in [1, 100000], got 100000000" in capsys.readouterr().err

    def test_grid_is_rejected_before_it_is_expanded(self):
        e0, phi = parse_values("0:1:10000"), parse_values("-1:1:10000")

        def rejected():
            with pytest.raises(ValueError, match=r"grid points must lie in \[1, 100000\]"):
                SweepGrid(e0, phi)

        assert traced_peak(rejected) < 1024 * 1024

    def test_cap_is_on_the_product_of_the_axes(self):
        assert MAX_GRID_POINTS == 250 * 400
        SweepGrid(parse_values("0:1:250"), parse_values("-1:1:400"))
        with pytest.raises(ValueError, match="got 100250"):
            SweepGrid(parse_values("0:1:250"), parse_values("-1:1:401"))
        with pytest.raises(ValueError, match=r"grid points must lie in \[1, 100000\], got 0"):
            SweepGrid([], [0.0])

    @pytest.mark.parametrize(
        ("e0_shape", "phi_shape"),
        [((1, 300), (300,)), ((300,), (300, 1)), ((1, 100_000), (100_000,)), ((), (3,))],
    )
    def test_axes_must_be_one_dimensional(self, e0_shape, phi_shape):
        # A (1, n) axis has len 1, so counting len() against the cap would pass
        # it, and compare would expand n times as many points as were counted.
        e0, phi = np.zeros(e0_shape), np.zeros(phi_shape)
        message = re.escape(f"e0 and phi axes must be 1-D, got shapes {e0_shape}, {phi_shape}")

        def rejected():
            with pytest.raises(ValueError, match=f"^{message}$"):
                SweepGrid(e0, phi)

        assert traced_peak(rejected) < 1024 * 1024


class TestJsonSweep:
    """``sweep --format json`` writes the rows a block at a time, with json.dump's bytes."""

    SPECIAL = [-0.0, 5e-324, 1e-310, 1.0 - 2.0**-53, 1e300, -1e300, 1e-300, -1e-300]

    @pytest.mark.parametrize(
        "grid",
        [
            SweepGrid(list(cli.DEFAULT_E0_GRID), list(cli.DEFAULT_PHI_GRID)),
            SweepGrid([0.7], [0.2]),
        ],
        ids=["11x9", "one point"],
    )
    def test_bytes_equal_json_dump_of_the_rows(self, grid, tmp_path):
        columns, _ = cli.compare(grid)
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        out = tmp_path / "sweep.json"
        assert cli.cmd_sweep(grid, str(out), "json") == 0
        assert out.read_text() == json.dumps(rows, indent=2, sort_keys=True) + "\n"

    def test_peak_memory_matches_csv(self, tmp_path):
        grid = SweepGrid([i / 49 for i in range(50)], [-1.0 + i / 40 for i in range(81)])
        cli.cmd_sweep(SweepGrid([0.5], [0.5]), str(tmp_path / "warm.json"), "json")

        def peak(fmt: str) -> int:
            return traced_peak(lambda: cli.cmd_sweep(grid, str(tmp_path / f"sweep.{fmt}"), fmt))

        csv_peak, json_peak = peak("csv"), peak("json")
        assert json_peak <= 1.1 * csv_peak, (csv_peak, json_peak)

    def test_makes_no_call_into_json(self, tmp_path, monkeypatch):
        grid = SweepGrid(list(cli.DEFAULT_E0_GRID), list(cli.DEFAULT_PHI_GRID))
        columns, _ = cli.compare(grid)
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        expected = json.dumps(rows, indent=2, sort_keys=True) + "\n"

        def no_json(*args, **kwargs):
            raise AssertionError("the JSON sweep called into json")

        monkeypatch.setattr(json, "dumps", no_json)
        monkeypatch.setattr(json, "dump", no_json)
        out = tmp_path / "sweep.json"
        assert cli.cmd_sweep(grid, str(out), "json") == 0
        assert out.read_text() == expected

    @settings(deadline=None)
    @given(
        rows=st.integers(1, 600),
        columns=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([7, 512]),
    )
    def test_layout_bytes_equal_json_dumps_of_the_rows(self, rows, columns, seed, block):
        rng = np.random.default_rng(seed)
        shape = (rows, columns)
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        planted = rng.choice(table.size, min(table.size, len(self.SPECIAL)), replace=False)
        table.flat[planted] = self.SPECIAL[: len(planted)]
        names = [f"c{i}" for i in range(columns)]
        order = sorted(range(columns), key=names.__getitem__)  # c0, c1, c10, c11, c2, ...
        handle = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matkernel, "STACK_BLOCK", block)
            layout = cli._json_layout(*(names[i] for i in order))
            cli._write_table(handle, layout, rows, lambda s: table[s][:, order].ravel().tolist())
        expected = [dict(zip(names, row)) for row in table.tolist()]
        assert handle.getvalue() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestCsvWriter:
    """``sweep --format csv`` and ``curve`` write through one blocked writer."""

    SPECIAL = [-0.0, 5e-324, 1e-300, 1.0 - 2.0**-53]

    @pytest.mark.parametrize("columns", [2, 4, len(cli.SWEEP_COLUMNS)])
    @pytest.mark.parametrize(
        "rows", [1, STACK_BLOCK - 1, STACK_BLOCK, STACK_BLOCK + 1, 2 * STACK_BLOCK + 1]
    )
    def test_bytes_equal_each_value_formatted_alone(self, rows, columns):
        rng = np.random.default_rng([rows, columns])
        shape = (rows, columns)
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        table.flat[:4], table.flat[-4:] = self.SPECIAL, self.SPECIAL[::-1]
        header = [f"c{i}" for i in range(columns)]
        handle = io.StringIO()
        cli._write_table(handle, cli._csv_layout(*header), rows, lambda s: table[s].ravel().tolist())
        expected = ",".join(header) + "\n" + "".join(
            ",".join("%.17g" % x for x in row) + "\n" for row in table.tolist()
        )
        assert handle.getvalue() == expected


def names_in(directory):
    return sorted(p.name for p in directory.iterdir())


def fill_the_disk_after_one_block(monkeypatch) -> list[int]:
    """Make a file that ``cli`` opens fail the first write after ``STACK_BLOCK + 1`` lines.

    Returns, once the write has failed, the number of lines the file then held on disk.
    """
    on_disk = []

    class FullDisk:
        def __init__(self, path, *args, **kwargs):
            self.path, self.handle, self.lines = path, open(path, *args, **kwargs), 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            if self.lines > STACK_BLOCK:
                self.handle.flush()
                with open(self.path) as written:
                    on_disk.append(written.read().count("\n"))
                raise OSError(28, "No space left on device")
            self.lines += text.count("\n")
            return self.handle.write(text)

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    return on_disk


class TestAtomicWrites:
    def test_failed_curve_write_keeps_the_old_output(self, tmp_path, monkeypatch):
        out = tmp_path / "curve.csv"
        out.write_text("previous\n")
        on_disk = fill_the_disk_after_one_block(monkeypatch)
        assert cmd_curve(2 * STACK_BLOCK + 1, str(out)) == 2
        assert on_disk and on_disk[0] >= 1 + STACK_BLOCK
        assert out.read_text() == "previous\n"
        assert names_in(tmp_path) == ["curve.csv"]

    def test_failed_csv_sweep_write_keeps_the_old_output(self, tmp_path, monkeypatch):
        grid = SweepGrid(parse_values("0:1:25"), parse_values("-1:1:41"))
        assert len(grid.e0_values) * len(grid.phi_values) == 2 * STACK_BLOCK + 1
        out = tmp_path / "sweep.csv"
        out.write_text("previous\n")
        on_disk = fill_the_disk_after_one_block(monkeypatch)
        assert cli.cmd_sweep(grid, str(out), "csv") == 2
        assert on_disk and on_disk[0] >= 1 + STACK_BLOCK
        assert out.read_text() == "previous\n"
        assert names_in(tmp_path) == ["sweep.csv"]

    def test_failed_json_sweep_write_keeps_the_old_output(self, tmp_path, monkeypatch):
        grid = SweepGrid(parse_values("0:1:25"), parse_values("-1:1:41"))
        assert len(grid.e0_values) * len(grid.phi_values) == 2 * STACK_BLOCK + 1
        out = tmp_path / "sweep.json"
        out.write_text("previous\n")
        on_disk = fill_the_disk_after_one_block(monkeypatch)
        assert cli.cmd_sweep(grid, str(out), "json") == 2
        assert on_disk and on_disk[0] >= 1 + STACK_BLOCK
        assert out.read_text() == "previous\n"
        assert names_in(tmp_path) == ["sweep.json"]

    def test_failed_verify_write_keeps_the_old_output(self, tmp_path, monkeypatch):
        out = tmp_path / "verify.json"
        out.write_text("{}\n")

        def failing_dump(obj, handle, **kwargs):
            handle.write('{"schema": ')
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(json, "dump", failing_dump)
        assert cmd_verify(5, 1, str(out)) == 2
        assert out.read_text() == "{}\n"
        assert names_in(tmp_path) == ["verify.json"]

    def test_replaces_the_output_and_leaves_no_temporary_file(self, tmp_path):
        out = tmp_path / "curve.csv"
        out.write_text("previous\n")
        assert cmd_curve(2, str(out)) == 0
        assert out.read_text() == "e,s\n0,0\n1,1\n"
        assert names_in(tmp_path) == ["curve.csv"]

    def test_new_files_get_the_usual_permissions(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        out = tmp_path / "curve.csv"
        assert cmd_curve(2, str(out)) == 0
        assert os.stat(out).st_mode & 0o777 == 0o666 & ~umask


class TestOutputTargets:
    """The output path is resolved first, and only a regular file, or none, is replaced."""

    def test_a_symlink_keeps_pointing_at_its_target_which_gets_the_bytes(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        real = tmp_path / "b" / "real.csv"
        real.write_text("previous\n")
        link = tmp_path / "a" / "link.csv"
        link.symlink_to(os.path.join("..", "b", "real.csv"))
        assert main(["curve", "--points", "2", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == os.path.join("..", "b", "real.csv")
        assert real.read_text() == "e,s\n0,0\n1,1\n"
        assert names_in(tmp_path / "a") == ["link.csv"]
        assert names_in(tmp_path / "b") == ["real.csv"]

    def test_a_dangling_symlink_creates_its_target(self, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to("real.csv")
        assert cmd_curve(2, str(link)) == 0
        assert link.is_symlink() and (tmp_path / "real.csv").read_text() == "e,s\n0,0\n1,1\n"
        assert names_in(tmp_path) == ["link.csv", "real.csv"]

    def test_a_fifo_is_refused_and_kept(self, tmp_path, capsys):
        fifo = tmp_path / "f.csv"
        os.mkfifo(fifo)
        assert main(["curve", "--points", "3", "--out", str(fifo)]) == 2
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert names_in(tmp_path) == ["f.csv"]
        message = f"cannot write {fifo}: {os.path.realpath(fifo)} is not a regular file"
        assert message in capsys.readouterr().err

    def test_a_directory_is_refused(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        assert main(["curve", "--points", "3", "--out", str(tmp_path / "d")]) == 2
        assert names_in(tmp_path) == ["d"] and names_in(tmp_path / "d") == []
        assert "is not a regular file" in capsys.readouterr().err

    def test_an_empty_path_opens_nothing(self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        opened = []
        monkeypatch.setattr(cli, "open", lambda path, *a, **k: opened.append(path), raising=False)
        assert main(["curve", "--points", "3", "--out", ""]) == 2
        assert opened == []
        assert names_in(tmp_path) == ["work"] and names_in(work) == []
        assert "is not a regular file" in capsys.readouterr().err

    def test_a_name_of_250_bytes_is_written(self, tmp_path):
        name = "c" * 246 + ".csv"
        assert cmd_curve(2, str(tmp_path / name)) == 0
        assert (tmp_path / name).read_text() == "e,s\n0,0\n1,1\n"
        assert names_in(tmp_path) == [name]
