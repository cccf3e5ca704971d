"""The axiom suites' bit-identical shortcuts: one-word seeds, padded C1 mixtures, any block size.

Each trial's generator is the one of ``default_rng([seed, check_tag, trial])``,
seeded with one ``uint32`` array when every int fits one word; C1's mixtures
of 2 to 4 terms are summed as one stack padded to 4 terms; and no trial's
violations depend on how the trials are blocked.
"""

import numpy as np
import pytest

import entport.axioms as axioms
import entport.matkernel as matkernel
from entport.axioms import MAX_TRIALS, _draw_c1, _generator, _mixtures
from entport.axioms import check_c1, check_c2, check_c3
from entport.matkernel import tensor
from entport.states import _bloch_vectors, qubit_states


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70, np.int64(5)], ids=repr)
@pytest.mark.parametrize("tag", [1, 2, 3])
@pytest.mark.parametrize("trial", [0, MAX_TRIALS - 1])
def test_word_seeds_give_the_list_seed_stream(seed, tag, trial):
    gen, reference = _generator(seed, tag, trial), np.random.default_rng([seed, tag, trial])
    assert np.array_equal(gen.standard_normal(12), reference.standard_normal(12))
    assert np.array_equal(gen.random(4), reference.random(4))


def python_sums(w, terms, components):
    """The per-trial reference: Python's ``sum`` of each row's own weighted terms, in order."""
    rows = zip(w, terms, components)
    return np.array([sum(wi * s for wi, s in zip(row[:t], c[:t])) for row, t, c in rows])


def padded(weights: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, 4)`` rows of weight vectors of 2 to 4 terms, zero-padded as C1 pads
    them, and each vector's number of terms."""
    terms = np.array([len(w) for w in weights])
    rows = np.zeros((len(weights), 4))
    rows[np.arange(4) < terms[:, None]] = np.concatenate(weights)
    return rows, terms


def c1_draws(seed: int, trials: int):
    """Normalised mixture weights and the four product-state components of C1 draws.

    A mixture of fewer than 4 terms keeps C1's padding: its unused components
    are the states of zero Bloch vectors.
    """
    gen = np.random.default_rng(seed)
    r, radius, raw = (np.array(field) for field in zip(*(_draw_c1(gen)[:3] for _ in range(trials))))
    bloch = _bloch_vectors(r[:, 2:], radius[:, 2:]).reshape(trials, 4, 2, 3)
    components = tensor(qubit_states(bloch[:, :, 0]), qubit_states(bloch[:, :, 1]))
    weights = [w[w > 0] / w[w > 0].sum() for w in raw]  # a uniform draw is 0.0 with odds 2**-53
    return *padded(weights), components


def signed_zero_draws(seed: int, trials: int):
    """Weights and components whose entries are often +0.0 or -0.0, in either part.

    Every row has four finite components, the unused ones too.
    """
    rng = np.random.default_rng(seed)
    w, terms = padded([rng.random(int(rng.integers(2, 5))) for _ in range(trials)])
    choices = np.array([0.0, -0.0, -0.0, 1.5, -0.25, -1e-300])
    parts = rng.choice(choices, size=(2, trials, 4, 4, 4))
    return w, terms, parts[0] + 1j * parts[1]


@pytest.mark.parametrize("draws", [c1_draws, signed_zero_draws])
@pytest.mark.parametrize("seed", range(5))
def test_stacked_mixtures_have_the_bits_of_python_sums(draws, seed):
    w, terms, components = draws(seed, 97)
    assert set(terms.tolist()) == {2, 3, 4}
    stacked = _mixtures(w, components)
    reference = python_sums(w, terms, components)
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


def run_recording(run) -> tuple[tuple, bytes]:
    """The report of ``run()`` as bits and the bytes of every trial's violations, in trial order.

    Each check's ``violations`` is wrapped as ``_run_trials`` receives it.
    """
    real, found = axioms._run_trials, []

    def recording(tag, trials, seed, matrices, draw, violations):
        def recorded(*fields):
            v = violations(*fields)
            found.append(v.tobytes())
            return v

        return real(tag, trials, seed, matrices, draw, recorded)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axioms, "_run_trials", recording)
        return report_bits(run()), b"".join(found)


@pytest.mark.parametrize(
    "run,per_trial",
    [
        (lambda: check_c1(300, 7), 3),
        (lambda: check_c2(300, 7), 1),
        (lambda: check_c3(300, 2, 7), 1),
    ],
    ids=["C1", "C2", "C3"],
)
def test_every_report_has_the_bits_of_any_block_size(run, per_trial, monkeypatch):
    results = set()
    for block in (7, 100, 512, 4096):
        monkeypatch.setattr(matkernel, "STACK_BLOCK", block)
        results.add(run_recording(run))
    assert len(results) == 1, [report for report, _ in results]
    ((_, violations),) = results
    assert len(violations) == 300 * per_trial * np.dtype(float).itemsize
