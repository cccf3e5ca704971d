"""The axiom suites' bit-identical shortcuts: one-word seeds, padded C1 mixtures, any block size.

Each trial's generator is the one of ``default_rng([seed, check_tag, trial])``,
seeded with one ``uint32`` array when every int fits one word; C1's mixtures
of 2 to 4 terms are summed as one zero-padded stack; and a check's report
does not depend on how its trials are blocked.
"""

import numpy as np
import pytest

import entport.matkernel as matkernel
from entport.axioms import MAX_TRIALS, _generator, _mixtures, _product_states, _weight_rows
from entport.axioms import check_c1, check_c2, check_c3
from entport.states import _draw_ball


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70, np.int64(5)], ids=repr)
@pytest.mark.parametrize("tag", [1, 2, 3])
@pytest.mark.parametrize("trial", [0, MAX_TRIALS - 1])
def test_word_seeds_give_the_list_seed_stream(seed, tag, trial):
    gen, reference = _generator(seed, tag, trial), np.random.default_rng([seed, tag, trial])
    assert np.array_equal(gen.standard_normal(12), reference.standard_normal(12))
    assert np.array_equal(gen.random(4), reference.random(4))


def python_sums(weights, components):
    """The per-trial reference: Python's ``sum`` of the weighted terms, in order."""
    terms = iter(components)
    return np.array([sum(wi * state for wi, state in zip(w, terms)) for w in weights])


def c1_draws(seed: int, trials: int):
    """Mixture weights and product-state components drawn as C1 draws them."""
    rng = np.random.default_rng(seed)
    weights, balls = [], []
    for _ in range(trials):
        w = rng.random(int(rng.integers(2, 5)))
        weights.append(w / w.sum())
        balls.extend(_draw_ball(rng) for _ in range(2 * len(w)))
    return weights, _product_states(balls)


def signed_zero_draws(seed: int, trials: int):
    """Weights and components whose entries are often +0.0 or -0.0, in either part."""
    rng = np.random.default_rng(seed)
    weights = [rng.random(int(rng.integers(2, 5))) for _ in range(trials)]
    n = sum(len(w) for w in weights)
    choices = np.array([0.0, -0.0, -0.0, 1.5, -0.25, -1e-300])
    parts = rng.choice(choices, size=(2, n, 4, 4))
    return weights, parts[0] + 1j * parts[1]


@pytest.mark.parametrize("draws", [c1_draws, signed_zero_draws])
@pytest.mark.parametrize("seed", range(5))
def test_stacked_mixtures_have_the_bits_of_python_sums(draws, seed):
    weights, components = draws(seed, 97)
    assert {len(w) for w in weights} == {2, 3, 4}
    stacked = _mixtures(*_weight_rows(weights), components)
    reference = python_sums(weights, components)
    assert np.array_equal(stacked, reference)
    assert np.array_equal(np.signbit(stacked.real), np.signbit(reference.real))
    assert np.array_equal(np.signbit(stacked.imag), np.signbit(reference.imag))


@pytest.mark.parametrize("block", [7, 8192])
def test_c3_report_does_not_depend_on_blocks_smaller_than_a_trial(block, monkeypatch):
    """A trial at 600 branches holds 1 + 4 * 600 = 2,401 matrices: one trial per
    block at 7 and at ``STACK_BLOCK``, all three trials in one block at 8,192."""
    report = check_c3(3, 600, 5)
    monkeypatch.setattr(matkernel, "STACK_BLOCK", block)
    assert check_c3(3, 600, 5) == report


def report_bits(report) -> tuple:
    """Every field of an ``AxiomReport``, its floats as their bits."""
    return (
        report.condition,
        report.trials,
        report.max_violation.hex(),
        report.passed,
        report.skip_rate.hex(),
    )


@pytest.mark.parametrize(
    "run",
    [lambda: check_c1(300, 7), lambda: check_c2(300, 7), lambda: check_c3(300, 2, 7)],
    ids=["C1", "C2", "C3"],
)
def test_every_report_has_the_bits_of_any_block_size(run, monkeypatch):
    reports = set()
    for block in (7, 100, 512, 4096):
        monkeypatch.setattr(matkernel, "STACK_BLOCK", block)
        reports.add(report_bits(run()))
    assert len(reports) == 1, reports
