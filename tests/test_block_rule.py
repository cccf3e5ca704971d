"""Every stacked loop takes its blocks from one rule, ``matkernel._blocks``.

A block holds at most ``matkernel.STACK_BLOCK`` of what its items hold (4x4
matrices, or numbers for the table writer), or one item where an item holds
more.  The C1-C3 trials, the grid points of ``simulate_grid``, the curve's
seed states and the rows of the table writer are all cut by it, so patching
``STACK_BLOCK`` alone must move every loop's blocks, and no other module may
name the constant.
"""

import ast
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entport.axioms as axioms
import entport.cli as cli
import entport.entanglement as entanglement
import entport.matkernel as matkernel
import entport.teleport as teleport
from entport.matkernel import _blocks

ROOT = Path(__file__).resolve().parent.parent


@given(n=st.integers(0, 3000), per_item=st.integers(1, 5000), block=st.sampled_from([7, 512]))
def test_blocks_tile_the_range_in_order(n, per_item, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matkernel, "STACK_BLOCK", block)
        slices = list(_blocks(n, per_item))
    step = max(1, block // per_item)
    assert all(s.step is None for s in slices)
    assert [i for s in slices for i in range(s.start, s.stop)] == list(range(n))
    assert all(s.stop - s.start == step for s in slices[:-1])
    assert all(0 < s.stop - s.start <= step for s in slices)


def test_blocks_is_lazy_and_reads_the_block_size_when_called(monkeypatch):
    blocks = _blocks(10**9, 1)
    assert isinstance(blocks, types.GeneratorType)
    monkeypatch.setattr(matkernel, "STACK_BLOCK", 7)
    assert next(blocks) == slice(0, 512)
    assert next(_blocks(10**9, 1)) == slice(0, 7)
    assert list(_blocks(0, 1)) == []


def count(monkeypatch, module, name: str, sizes: list[int]) -> None:
    """Record the number of items of the first argument of every ``module.name`` call."""
    real = getattr(module, name)

    def counted(items, *args, **kwargs):
        sizes.append(len(items))
        return real(items, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def csv_rows(monkeypatch, sizes: list[int]) -> None:
    """Record the rows of every block a CSV table writes, through the real command."""

    class Handle:
        def write(self, text: str) -> None:
            sizes.append(text.count("\n"))

    monkeypatch.setattr(cli, "_write_atomic", lambda out_path, write: write(Handle()) or 0)


def run_c1(monkeypatch, sizes):
    count(monkeypatch, axioms, "negativities", sizes)
    axioms.check_c1(100, 3)


def run_c2(monkeypatch, sizes):
    count(monkeypatch, axioms, "negativities", sizes)
    axioms.check_c2(300, 3)


def run_c3(monkeypatch, sizes):
    count(monkeypatch, axioms, "negativities", sizes)
    axioms.check_c3(120, 2, 3)


def run_grid(monkeypatch, sizes):
    count(monkeypatch, teleport, "_protocol", sizes)
    teleport.simulate_grid(np.linspace(0.0, 1.0, 70), np.linspace(-1.0, 1.0, 70))


def run_curve_states(monkeypatch, sizes):
    count(monkeypatch, entanglement, "_pure_entropies", sizes)
    entanglement.entropy_vs_negativity_curve(1100)


def run_sweep_csv(monkeypatch, sizes):
    csv_rows(monkeypatch, sizes)
    grid = cli.SweepGrid(np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 10))
    cli.cmd_sweep(grid, "unused.csv")
    del sizes[0]  # the header line


def run_curve_csv(monkeypatch, sizes):
    csv_rows(monkeypatch, sizes)
    cli.cmd_curve(600, "unused.csv")
    del sizes[0]  # the header line


#: Each loop: its runner, its items, what one item holds (the literal at its
#: call site) and its block size at the default ``STACK_BLOCK`` of 512.
LOOPS = {
    "C1": (run_c1, 100, 5 + 4 + 3, 42),
    "C2": (run_c2, 300, 1 + 1 + 2, 128),
    "C3": (run_c3, 120, 1 + 4 * 2, 56),
    "grid": (run_grid, 70, 16, 32),
    "curve-states": (run_curve_states, 1100, 1, 512),
    "sweep-csv": (run_sweep_csv, 100, len(cli.SWEEP_COLUMNS), 42),
    "curve-csv": (run_curve_csv, 600, 2, 256),
}


@pytest.mark.parametrize("block", [7, 100, 512])
@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_every_loop_runs_the_blocks_of_the_rule(loop, block, monkeypatch):
    run, n, per_item, _ = LOOPS[loop]
    monkeypatch.setattr(matkernel, "STACK_BLOCK", block)
    sizes = []
    run(monkeypatch, sizes)
    step = max(1, block // per_item)
    assert sizes == [step] * (n // step) + ([n % step] if n % step else [])


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_every_loop_keeps_its_block_size(loop, monkeypatch):
    run, n, _, size = LOOPS[loop]
    sizes = []
    run(monkeypatch, sizes)
    assert sizes[0] == size and len(sizes) > 1


def test_only_matkernel_names_the_block_size():
    # A module that divides STACK_BLOCK itself makes a second block rule, and
    # a patch of matkernel.STACK_BLOCK would not reach its loop.
    named = {
        ast.Name: lambda node: [node.id],
        ast.Attribute: lambda node: [node.attr],
        ast.alias: lambda node: [node.name, node.asname],
    }
    found = set()
    for path in sorted((ROOT / "src" / "entport").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "STACK_BLOCK" in named.get(type(node), lambda node: [])(node):
                found.add(path.name)
    assert found == {"matkernel.py"}  # the scan sees the constant where it is defined
    for path in [*(ROOT / "src").rglob("*.py"), ROOT / "README.md"]:
        assert "PROTOCOL_BLOCK" not in path.read_text(), path
