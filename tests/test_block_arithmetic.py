"""The arithmetic a C1-C3 trial no longer does runs per block, with the same bits.

A trial makes its generator calls and the tests that decide them; C1's weight
normalisation and C3's split of the raw family Gaussians run once per block.
Each block form must give the bits the trial-by-trial form gave.
"""

import numpy as np
import pytest

from entport.axioms import _draw_lgm_cc, _lgm_cc_arrays, _normalised
from entport.states import _draw_ball


def test_block_normalised_weights_equal_each_trials_w_over_its_sum():
    rng = np.random.default_rng(2024)
    terms = rng.integers(2, 5, size=100_000)
    weights = [rng.random(int(n)) for n in terms]
    assert set(terms.tolist()) == {2, 3, 4}
    # C1's padded rows: each vector's weights, then zeros up to 4 terms.
    present = np.arange(4) < terms[:, None]
    rows = np.zeros((len(weights), 4))
    rows[present] = np.concatenate(weights)
    normalised = _normalised(rows)
    expected = np.concatenate([w / w.sum() for w in weights])
    assert np.array_equal(normalised[present].view(np.int64), expected.view(np.int64))
    assert not normalised[~present].any()


class StubGenerator:
    """Gives a fixed Gaussian 3-vector and counts the uniform draws made after it."""

    def __init__(self, r):
        self.r = np.array(r, dtype=float)
        self.uniform_draws = 0

    def standard_normal(self, n):
        assert n == 3
        return self.r.copy()

    def random(self):
        self.uniform_draws += 1
        return 0.125


@pytest.mark.parametrize(
    "r,draws_radius",
    [
        ((0.0, 0.0, 0.0), False),
        ((-0.0, 0.0, -0.0), False),
        ((1e-200, 0.0, 0.0), False),  # its square rounds to 0
        ((1e-170, -1e-200, 1e-190), False),
        ((1e-100, 0.0, 0.0), True),
        ((0.0, 0.0, -1e-160), True),  # a subnormal square
        ((0.3, -1.2, 0.5), True),
    ],
)
def test_draw_ball_decides_the_radius_draw_as_the_dot_product_did(r, draws_radius):
    gen = StubGenerator(r)
    vector, radius = _draw_ball(gen)
    assert (gen.r.dot(gen.r) > 0) == draws_radius
    assert gen.uniform_draws == int(draws_radius)
    assert radius == (0.125 ** (1.0 / 3.0) if draws_radius else 0.0)
    assert np.array_equal(vector, gen.r)


def per_trial_arrays(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus and SU(2) draws of one family, formed as one trial formed them."""
    re, im, z = raw.reshape(3, -1)
    return (re + 1j * im).reshape(-1, 2), z.reshape(-1, 4)


@pytest.mark.parametrize("branches", [1, 2, 5])
def test_block_kraus_arrays_equal_the_per_trial_ones_signed_zeros_included(branches):
    rng = np.random.default_rng(branches)
    raw = rng.choice([0.0, -0.0, 1.5, -0.25, -1e-300], size=(64, 12 * branches))
    g, z = _lgm_cc_arrays(raw)
    assert g.shape == (64, 2 * branches, 2) and z.shape == (64, branches, 4)
    for t in range(64):
        expected_g, expected_z = per_trial_arrays(raw[t])
        assert np.array_equal(g[t].view(np.int64), expected_g.view(np.int64)), t
        assert np.array_equal(z[t].view(np.int64), expected_z.view(np.int64)), t
    # Both signs of zero reach the Kraus entries' real parts (``1j * -0.0``
    # has imaginary part +0.0, so the imaginary parts hold only +0.0).
    zero = g.real[g.real == 0]
    assert np.signbit(zero).any() and not np.signbit(zero).all()


def test_the_family_draw_is_the_raw_block_and_the_side_bit():
    gen, reference = np.random.default_rng(5), np.random.default_rng(5)
    raw, measuring_first = _draw_lgm_cc(gen, 3)
    assert np.array_equal(raw, reference.standard_normal(36))
    assert measuring_first == (reference.random() < 0.5)
