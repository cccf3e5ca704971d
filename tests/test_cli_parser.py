"""``cli.main`` builds its argument parser once per process, never at import.

The parser is cached on first use, so a warm ``main`` call pays only for its
own work.  A cached parser must not carry anything from one call to the next:
after failed calls, each command still writes the bytes a fresh process writes.
"""

import argparse
import subprocess
import sys

import pytest

from entport import cli
from entport.cli import main


def test_import_builds_no_parser():
    code = "import entport.cli as cli; print(cli._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


def test_main_builds_no_parser_after_its_first_call(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "out")
    assert main(["curve", "--points", "3", "--out", out]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["curve", "--points", "3", "--out", out]) == 0
    assert main(["sweep", "--e0", "0,1", "--phi", "-1:1:3", "--out", out]) == 0
    assert main(["verify", "--trials", "2", "--out", out]) == 0
    with pytest.raises(SystemExit):
        main(["curve", "--points", "x", "--out", out])
    assert built == []
    assert cli._build_parser.cache_info().currsize == 1


def without_timestamp(data: bytes) -> list[bytes]:
    """The lines of an output file, less verify's ``"timestamp":`` line."""
    return [
        line
        for line in data.splitlines(keepends=True)
        if not line.lstrip().startswith(b'"timestamp":')
    ]


def test_the_cached_parser_gives_a_fresh_process_bytes_after_failed_calls(tmp_path, capsys):
    with pytest.raises(SystemExit) as usage_error:
        main(["curve", "--points", "x", "--out", str(tmp_path / "x.csv")])
    assert usage_error.value.code == 2
    assert main(["sweep", "--e0", "a:1:3", "--out", str(tmp_path / "a.csv")]) == 2
    assert main(["curve", "--points", "5", "--out", str(tmp_path / "missing" / "c.csv")]) == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == []

    runs = {
        "sweep.csv": ["sweep"],
        "verify.json": ["verify", "--trials", "20"],
        "curve.csv": ["curve", "--points", "51"],
    }
    for name, argv in runs.items():
        here, fresh = tmp_path / f"here-{name}", tmp_path / f"fresh-{name}"
        code = main([*argv, "--out", str(here)])
        proc = subprocess.run(
            [sys.executable, "-m", "entport.cli", *argv, "--out", str(fresh)],
            capture_output=True,
            text=True,
        )
        assert (code, proc.returncode) == (0, 0), (name, proc.stderr)
        assert without_timestamp(here.read_bytes()) == without_timestamp(fresh.read_bytes()), name


@pytest.mark.parametrize(
    "argv,option",
    [
        (["sweep", "--e0", "--", "--out", "P"], "--e0"),
        (["sweep", "--phi=--", "--out", "P"], "--phi"),
        (["curve", "--out=--"], "--out"),
        (["verify", "--trials", "5", "--out=--"], "--out"),
    ],
    ids=["sweep-e0", "sweep-phi", "curve-out", "verify-out"],
)
def test_a_lone_double_dash_value_is_a_usage_error(argv, option, tmp_path, monkeypatch, capsys):
    # argparse reads "--opt=--" (and "--e0 --", which main folds into it) as an
    # empty list without calling the option's type; a list must not reach a command.
    def fail(*args):
        raise AssertionError("a check ran")

    for name in ("check_c1", "check_c2", "check_c3"):
        monkeypatch.setattr(cli, name, fail)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as usage_error:
        main(argv)
    assert usage_error.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
