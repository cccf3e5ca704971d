"""The axiom trials make the fewest generator calls their streams allow, and the
block normalisers give the bits of the one-vector draws.

A trial's Gaussian draws that follow one another are one ``standard_normal``
call, so per trial C2 makes at most 6 calls, C3 at most 7 at any branch count
and C1 at most ``8 + 4 t`` for a mixture of ``t`` product states.  The block
then normalises all of its SU(2) and Bloch vectors as one stack, to the same
bits as normalising them one by one.
"""

import math

import numpy as np
import pytest

import entport.axioms as axioms
from entport.axioms import _draw_lgm_cc, _draw_test_state, _lgm_cc_arrays, check_c1, check_c2, check_c3
from entport.states import _bloch_vectors, _draw_bloch, _draw_su2, _su2_vectors


class CountingGenerator:
    """Wraps a ``numpy.random.Generator`` and counts the method calls made on it.

    ``terms`` keeps the last ``integers`` draw, which is a C1 trial's number
    of mixture terms.
    """

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self.calls = 0
        self.terms = None

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            self.calls += 1
            value = method(*args, **kwargs)
            if name == "integers":
                self.terms = int(value)
            return value

        return counted


@pytest.fixture
def trial_generators(monkeypatch):
    """The counting generators the checks make, one per trial, in order."""
    made = []
    real = axioms._generator

    def counting(seed, check_tag, trial):
        made.append(CountingGenerator(real(seed, check_tag, trial)))
        return made[-1]

    monkeypatch.setattr(axioms, "_generator", counting)
    return made


def test_c1_calls_per_trial(trial_generators):
    check_c1(100, 7)
    assert len(trial_generators) == 100
    for trial, gen in enumerate(trial_generators):
        assert gen.calls <= 8 + 4 * gen.terms, (trial, gen.calls, gen.terms)


def test_c2_calls_per_trial(trial_generators):
    check_c2(100, 7)
    assert len(trial_generators) == 100
    assert max(gen.calls for gen in trial_generators) <= 6


@pytest.mark.parametrize("branches", [1, 2, 16])
def test_c3_calls_per_trial(trial_generators, branches):
    check_c3(50, branches, 7)
    assert len(trial_generators) == 50
    assert max(gen.calls for gen in trial_generators) <= 7


def su2_by_dot(gen):
    """The one-vector SU(2) draw as it is written with ``ndarray.dot``."""
    z = gen.standard_normal(2) + 1j * gen.standard_normal(2)
    z /= math.sqrt(z.real.dot(z.real) + z.imag.dot(z.imag))
    return z


def bloch_by_dot(gen):
    """The one-vector Bloch draw as it is written with ``ndarray.dot``."""
    r = gen.standard_normal(3)
    norm = math.sqrt(r.dot(r))
    if norm > 0:
        r *= gen.random() ** (1.0 / 3.0) / norm
    return r


def test_block_normalisers_equal_the_one_vector_draws():
    seeds = range(2_000)
    raw_su2, raw_r, radius = [], [], []
    for seed in seeds:
        gen = np.random.default_rng(seed)
        raw_su2.append(gen.standard_normal(4))
        raw_r.append(gen.standard_normal(3))
        radius.append(gen.random() ** (1.0 / 3.0))
    su2 = _su2_vectors(np.array(raw_su2))
    bloch = _bloch_vectors(np.array(raw_r), radius)
    # The same draws as a stack with two leading dimensions.
    su2_pairs = _su2_vectors(np.reshape(raw_su2, (1_000, 2, 4)))
    bloch_pairs = _bloch_vectors(np.reshape(raw_r, (1_000, 2, 3)), np.reshape(radius, (1_000, 2)))
    assert np.array_equal(su2_pairs.reshape(-1, 2).view(float), su2.view(float))
    assert np.array_equal(bloch_pairs.reshape(-1, 3), bloch)
    for seed in seeds:
        one, by_dot = np.random.default_rng(seed), np.random.default_rng(seed)
        for expected in (
            np.concatenate([_draw_su2(one), _draw_bloch(one)]),
            np.concatenate([su2_by_dot(by_dot), bloch_by_dot(by_dot)]),
        ):
            assert np.array_equal(su2[seed].view(float), expected[:2].view(float)), seed
            assert np.array_equal(bloch[seed], expected[2:].real), seed


def test_zero_bloch_vector_stays_zero():
    with np.errstate(all="raise"):
        assert np.array_equal(_bloch_vectors(np.zeros((2, 3)), [0.0, 0.0]), np.zeros((2, 3)))


@pytest.mark.parametrize("branches", [1, 3])
def test_merged_draws_equal_the_call_by_call_stream(branches):
    """One ``standard_normal`` call of the summed size gives the numbers the
    call-by-call draws give: a C3 trial's state and family, drawn both ways."""
    for seed in range(300):
        gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        c0, z, mixed, lam, phi = _draw_test_state(gen)
        block, measuring_first = _draw_lgm_cc(gen, branches)
        g, raw = _lgm_cc_arrays(block)

        expected = [ref.random(), su2_by_dot(ref), su2_by_dot(ref)]
        expected_mixed = ref.random() >= 0.5
        lam_phi = (ref.random(), ref.uniform(-1.0, 1.0)) if expected_mixed else (0.0, 0.0)
        shape = (2 * branches, 2)
        expected_g = ref.standard_normal(shape) + 1j * ref.standard_normal(shape)
        expected_z = [su2_by_dot(ref) for _ in range(branches)]

        assert c0 == expected[0] and mixed == expected_mixed and (lam, phi) == lam_phi
        assert np.array_equal(_su2_vectors(z.reshape(2, 4)), expected[1:])
        assert np.array_equal(g.view(float), expected_g.view(float))
        assert np.array_equal(_su2_vectors(raw).view(float), np.array(expected_z).view(float))
        assert measuring_first == (ref.random() < 0.5)
