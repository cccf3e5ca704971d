import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entport.entanglement import negativity
from entport.information import information_decomposition
from entport.states import (
    _BELL_PROJECTORS,
    BELL_SIGN_MATRICES,
    BOB_CORRECTIONS,
    ID2,
    SIGMA_X,
    WernerChannel,
    bell_projector,
    hs_compose_stack,
    hs_decompose,
    random_local_unitary,
    rotated_pure_state,
    seed_state,
)
from entport.teleport import (
    _SUPPORT,
    FINAL_ENTANGLEMENT_ATOL,
    BobStrategy,
    correlation_info_from_entanglement,
    fidelity_closed_form,
    fidelity_general,
    final_entanglement_closed_form,
    final_information_closed_form,
    final_state_closed_form,
    optimal_strategy,
    simulate,
)

from conftest import ginibre_states

E0_GRID = [round(0.1 * i, 10) for i in range(11)]
PHI_GRID = [-1.0 + 0.25 * i for i in range(9)]

#: Roundoff allowed when two strategies' simulated fidelities are compared.
#: Equality is reachable: at phi = -1/2 (f = 0) no correction changes F, and
#: there the simulated fidelities of different strategies differ by up to
#: eps / 2 (400 Ginibre inputs, seed 0).
STRATEGY_ROUNDOFF = 16 * np.finfo(float).eps


def identity_strategy():
    return BobStrategy(corrections=(ID2, ID2, ID2, ID2))


class TestSimulate:
    def test_all_outcomes_equally_likely(self):
        for e0 in (0.0, 0.5, 1.0):
            for phi in (-1.0, 0.0, 0.7):
                report = simulate(seed_state(e0), WernerChannel(phi))
                np.testing.assert_allclose(report.probabilities, 0.25, atol=1e-12)
                assert abs(report.probabilities.sum() - 1.0) < 1e-10

    def test_outcome_probabilities_independent_of_strategy(self):
        report = simulate(seed_state(0.4), WernerChannel(0.3), identity_strategy())
        np.testing.assert_allclose(report.probabilities, 0.25, atol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), phi=st.floats(-1.0, 1.0))
    def test_no_outcome_is_ever_negligible(self, seed, phi):
        # The Werner channel's reduced state on particle 3 is maximally mixed,
        # so any input and any corrections give each outcome probability 1/4:
        # the engine never meets an outcome too unlikely to normalise.
        gen = np.random.default_rng(seed)
        rho = ginibre_states(gen, 1, 4)[0]
        strategy = BobStrategy(corrections=tuple(random_local_unitary(gen) for _ in range(4)))
        report = simulate(rho, WernerChannel(phi), strategy)
        np.testing.assert_allclose(report.probabilities, 0.25, rtol=0, atol=1e-12)
        assert len(report.final_states) == 4
        for state in report.final_states:
            assert state is not None and state.shape == (4, 4)

    def test_measurement_independent_final_state(self):
        for e0 in (0.0, 0.6, 1.0):
            for phi in (-0.5, 0.0, 0.5, 1.0):
                report = simulate(seed_state(e0), WernerChannel(phi))
                for state in report.final_states:
                    np.testing.assert_allclose(state, report.final_state, atol=1e-10)

    def test_perfect_channel_reproduces_input(self):
        rho = seed_state(0.6)
        report = simulate(rho, WernerChannel(1.0))
        np.testing.assert_allclose(report.final_state, rho, atol=1e-10)
        assert report.averaged_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_wrong_correction_degrades_an_outcome(self):
        # With all corrections forced to the identity, outcome 1 should have
        # been fixed with sigma_x and so its conditional state is wrong even
        # over a perfect channel.
        rho = seed_state(0.0)
        report = simulate(rho, WernerChannel(1.0), identity_strategy())
        assert np.max(np.abs(report.final_states[1] - rho)) > 0.4

    def test_identity_strategy_is_suboptimal(self):
        fid_optimal = fidelity_general(seed_state(0.0), WernerChannel(1.0))
        fid_identity = fidelity_general(
            seed_state(0.0), WernerChannel(1.0), identity_strategy()
        )
        assert fid_identity < fid_optimal - 0.1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate(np.eye(4), WernerChannel(0.5))  # trace 4
        with pytest.raises(ValueError):
            simulate(seed_state(0.5), 0.5)  # bare float channel

    def test_default_strategy_is_the_optimal_one(self):
        rho = seed_state(0.6)
        default = simulate(rho, WernerChannel(0.5))
        explicit = simulate(rho, WernerChannel(0.5), optimal_strategy())
        assert np.array_equal(default.final_state, explicit.final_state)
        assert np.array_equal(default.probabilities, explicit.probabilities)

    def test_strategy_operators_are_built_from_its_corrections(self):
        strategy = optimal_strategy()
        for alpha, op in enumerate(strategy.operators):
            expected = np.kron(np.kron(ID2, bell_projector(alpha)), strategy.corrections[alpha])
            assert np.array_equal(op, expected)
            assert not op.flags.writeable

    @pytest.mark.parametrize("seed", range(20))
    def test_strategy_operators_on_haar_random_corrections_match_the_per_outcome_kron(self, seed):
        gen = np.random.default_rng(seed)
        corrections = tuple(random_local_unitary(gen) for _ in range(4))
        operators = BobStrategy(corrections).operators
        assert operators.shape == (4, 16, 16) and not operators.flags.writeable
        for alpha, u in enumerate(corrections):
            expected = np.kron(np.kron(ID2, bell_projector(alpha)), u)
            assert operators[alpha].tobytes() == expected.tobytes()

    def test_support_is_the_nonzero_diagonal_of_each_projector_term(self):
        expected = [
            np.flatnonzero(np.kron(np.kron(ID2, bell_projector(alpha)), ID2).diagonal())
            for alpha in range(4)
        ]
        assert _SUPPORT.dtype == np.intp and not _SUPPORT.flags.writeable
        assert _SUPPORT.tobytes() == np.array(expected).tobytes()

    def test_bell_projector_stack_is_read_only_and_composed_item_by_item(self):
        assert _BELL_PROJECTORS.shape == (4, 4, 4) and not _BELL_PROJECTORS.flags.writeable
        for alpha, signs in enumerate(BELL_SIGN_MATRICES):
            alone = hs_compose_stack(np.zeros(3), np.zeros(3), signs)
            assert _BELL_PROJECTORS[alpha].tobytes() == alone.tobytes()
            assert bell_projector(alpha).tobytes() == alone.tobytes()

    def test_strategy_keeps_its_own_read_only_corrections(self):
        u = SIGMA_X.copy()
        strategy = BobStrategy(corrections=(ID2, u, ID2, ID2))
        u[:] = 0.0
        assert np.array_equal(strategy.corrections[1], SIGMA_X)
        with pytest.raises(ValueError):
            optimal_strategy().corrections[1][0, 0] = 0.0
        for got, expected in zip(optimal_strategy().corrections, BOB_CORRECTIONS):
            assert np.array_equal(got, expected)

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            BobStrategy(corrections=(ID2, ID2, ID2))
        with pytest.raises(ValueError):
            BobStrategy(corrections=(ID2, ID2, ID2, 2 * ID2))


class TestFinalStateClosedForm:
    def test_perfect_channel_is_identity_map(self):
        form = hs_decompose(seed_state(0.6))
        out = final_state_closed_form(form, WernerChannel(1.0))
        np.testing.assert_allclose(out.a, form.a, atol=0)
        np.testing.assert_allclose(out.b, form.b, atol=1e-15)
        np.testing.assert_allclose(out.c, form.c, atol=1e-15)

    def test_maximally_mixed_channel_wipes_correlations(self):
        form = hs_decompose(seed_state(0.6))
        out = final_state_closed_form(form, WernerChannel(-0.5))
        np.testing.assert_allclose(out.a, form.a, atol=0)
        np.testing.assert_allclose(out.b, 0.0, atol=1e-15)
        np.testing.assert_allclose(out.c, 0.0, atol=1e-15)

    def test_scale_factor_fixture(self):
        out = final_state_closed_form(hs_decompose(seed_state(0.6)), WernerChannel(0.5))
        np.testing.assert_allclose(out.b, [0, 0, (2 / 3) * 0.8], atol=1e-12)
        np.testing.assert_allclose(
            out.c, (2 / 3) * np.diag([0.6, -0.6, 1.0]), atol=1e-12
        )

    def test_matches_simulation_over_grid(self):
        for e0 in (0.0, 0.3, 0.8, 1.0):
            for phi in PHI_GRID:
                channel = WernerChannel(phi)
                closed = final_state_closed_form(hs_decompose(seed_state(e0)), channel)
                sim = hs_decompose(simulate(seed_state(e0), channel).final_state)
                np.testing.assert_allclose(closed.a, sim.a, atol=1e-10)
                np.testing.assert_allclose(closed.b, sim.b, atol=1e-10)
                np.testing.assert_allclose(closed.c, sim.c, atol=1e-10)


class TestFidelity:
    def test_closed_form_anchors(self):
        assert fidelity_closed_form(0.0, 0.0) == pytest.approx(2 / 3, abs=1e-15)
        assert fidelity_closed_form(0.0, 0.7) == pytest.approx((0.7 + 2) / 3, abs=1e-15)
        assert fidelity_closed_form(1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        for e0 in E0_GRID:
            assert fidelity_closed_form(e0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_range(self):
        for e0 in E0_GRID:
            for ew in E0_GRID:
                assert 0.5 - 1e-12 <= fidelity_closed_form(e0, ew) <= 1.0 + 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fidelity_closed_form(1.2, 0.5)
        with pytest.raises(ValueError):
            fidelity_closed_form(0.5, -0.1)

    def test_simulation_matches_closed_form_on_nonnegative_phi(self):
        for e0 in E0_GRID:
            for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
                sim = fidelity_general(seed_state(e0), WernerChannel(phi))
                assert sim == pytest.approx(fidelity_closed_form(e0, phi), abs=1e-10)

    def test_perfect_channel_unit_fidelity_for_any_pure_state(self, rng):
        for _ in range(5):
            rho = rotated_pure_state(
                rng.random(), random_local_unitary(rng), random_local_unitary(rng)
            )
            assert fidelity_general(rho, WernerChannel(1.0)) == pytest.approx(
                1.0, abs=1e-10
            )

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        e0=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_invariant_under_local_rotations_of_the_input(self, seed, e0):
        gen = np.random.default_rng(seed)
        rotated = rotated_pure_state(
            e0, random_local_unitary(gen), random_local_unitary(gen)
        )
        channel = WernerChannel(0.5)
        f_seed = fidelity_general(seed_state(e0), channel)
        f_rotated = fidelity_general(rotated, channel)
        assert abs(f_seed - f_rotated) < 1e-10

    @pytest.mark.parametrize(
        "phi, pauli, flipped",
        [(-1.0, 1 / 3, 2 / 3), (-0.75, 5 / 12, 7 / 12), (-0.5, 1 / 2, 1 / 2), (0.0, 2 / 3, 1 / 3)],
    )
    def test_optimal_only_for_phi_at_least_minus_half(self, phi, pauli, flipped):
        # F is f times a term the Pauli corrections maximise, plus a term no correction
        # changes, so they lose to the sigma_x-composed corrections where f < 0.
        sigma_x_composed = BobStrategy(tuple(u @ SIGMA_X for u in BOB_CORRECTIONS))
        rho, channel = seed_state(0.0), WernerChannel(phi)
        assert fidelity_general(rho, channel, optimal_strategy()) == pytest.approx(pauli, abs=1e-15)
        assert fidelity_general(rho, channel, sigma_x_composed) == pytest.approx(flipped, abs=1e-15)

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rank=st.integers(min_value=1, max_value=4),
        phi=st.floats(-1.0, 1.0),
    )
    def test_optimal_domain_on_any_input_and_haar_random_corrections(self, seed, rank, phi):
        # For f >= 0 the Pauli corrections maximise F over every strategy; for
        # f < 0 they minimise its f-term, so composing them with sigma_x never loses.
        gen = np.random.default_rng(seed)
        rho, channel = ginibre_states(gen, 1, rank)[0], WernerChannel(phi)
        haar = BobStrategy(tuple(random_local_unitary(gen) for _ in range(4)))
        sigma_x_composed = BobStrategy(tuple(u @ SIGMA_X for u in BOB_CORRECTIONS))
        optimal = fidelity_general(rho, channel, optimal_strategy())
        if phi >= -0.5:
            for strategy in (haar, sigma_x_composed):
                assert fidelity_general(rho, channel, strategy) <= optimal + STRATEGY_ROUNDOFF
        else:
            assert fidelity_general(rho, channel, sigma_x_composed) >= optimal - STRATEGY_ROUNDOFF

    def test_decreasing_in_initial_entanglement(self):
        for ew in (0.0, 0.5):
            values = [fidelity_closed_form(e0, ew) for e0 in E0_GRID]
            assert all(b - a < -1e-12 for a, b in zip(values, values[1:]))


class TestFinalEntanglement:
    def test_unentangled_channel_transfers_nothing(self):
        for e0 in E0_GRID:
            assert final_entanglement_closed_form(e0, 0.0) == 0.0

    def test_perfect_channel_preserves_entanglement(self):
        for e0 in E0_GRID:
            assert final_entanglement_closed_form(e0, 1.0) == pytest.approx(e0, abs=1e-12)

    def test_partially_entangled_channel_transfers_some(self):
        for e0 in (0.1, 0.5, 1.0):
            for ew in (0.1, 0.5, 1.0):
                assert final_entanglement_closed_form(e0, ew) > 1e-6

    def test_fixture_value(self):
        assert final_entanglement_closed_form(1.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_matches_simulation_on_full_grid(self):
        for e0 in E0_GRID:
            for phi in PHI_GRID:
                channel = WernerChannel(phi)
                sim = simulate(seed_state(e0), channel)
                closed = final_entanglement_closed_form(e0, channel.ew)
                assert sim.final_entanglement == pytest.approx(closed, abs=1e-10)

    def test_nondecreasing_in_channel_entanglement(self):
        for e0 in (0.5, 1.0):
            values = [final_entanglement_closed_form(e0, ew) for ew in E0_GRID]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            final_entanglement_closed_form(-0.1, 0.5)


class TestFinalInformation:
    def test_perfect_channel_preserves_information(self):
        for e0 in (0.0, 0.5, 1.0):
            r = final_information_closed_form(e0, 1.0)
            assert r.total == pytest.approx(2.0, abs=1e-12)
            assert r.individual_a == pytest.approx(1 - e0**2, abs=1e-12)
            assert r.individual_b == pytest.approx(1 - e0**2, abs=1e-12)
            assert r.correlation == pytest.approx(2 * (4 - e0**2) * e0**2 / 3, abs=1e-12)

    def test_product_input_has_no_correlation_information(self):
        for ew in (0.0, 0.4, 1.0):
            r = final_information_closed_form(0.0, ew)
            assert r.correlation == 0.0
            assert r.individual_a == pytest.approx(1.0, abs=1e-15)
            assert r.individual_b == pytest.approx(((2 * ew + 1) / 3) ** 2, abs=1e-15)

    def test_maximally_entangled_through_unentangled_channel(self):
        r = final_information_closed_form(1.0, 0.0)
        assert r.total == pytest.approx(2 / 9, abs=1e-15)
        assert r.individual_a == 0.0
        assert r.individual_b == 0.0
        assert r.correlation == pytest.approx(2 / 9, abs=1e-15)

    def test_matches_simulation_on_nonnegative_phi(self):
        for e0 in E0_GRID:
            for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
                sim = simulate(seed_state(e0), WernerChannel(phi)).final_information
                closed = final_information_closed_form(e0, phi)
                assert sim.total == pytest.approx(closed.total, abs=1e-10)
                assert sim.individual_a == pytest.approx(closed.individual_a, abs=1e-10)
                assert sim.individual_b == pytest.approx(closed.individual_b, abs=1e-10)
                assert sim.correlation == pytest.approx(closed.correlation, abs=1e-10)

    def test_total_decreases_with_initial_entanglement(self):
        for ew in (0.0, 0.5):
            totals = [final_information_closed_form(e0, ew).total for e0 in E0_GRID]
            assert all(b < a for a, b in zip(totals, totals[1:]))
            assert all(t <= 2.0 + 1e-12 for t in totals)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            final_information_closed_form(0.5, 1.5)


class TestCorrelationInfoFromEntanglement:
    def test_zero_iff_zero(self):
        assert correlation_info_from_entanglement(0.0, 0.5) == 0.0
        for e in (0.01, 0.3, 0.5):
            assert correlation_info_from_entanglement(e, 0.5) > 0.0

    def test_perfect_channel_reduces_to_initial_form(self):
        for e0 in (0.2, 0.6, 1.0):
            got = correlation_info_from_entanglement(e0, 1.0)
            assert got == pytest.approx(2 * (4 - e0**2) * e0**2 / 3, abs=1e-12)

    def test_consistent_with_information_transfer(self):
        for ew in (0.25, 0.5, 0.75, 1.0):
            for e0 in E0_GRID:
                e_final = final_entanglement_closed_form(e0, ew)
                expected = final_information_closed_form(e0, ew).correlation
                got = correlation_info_from_entanglement(e_final, ew)
                assert got == pytest.approx(expected, abs=1e-10)

    def test_fixture_pair(self):
        e_final = final_entanglement_closed_form(0.8, 0.5)
        got = correlation_info_from_entanglement(e_final, 0.5)
        expected = final_information_closed_form(0.8, 0.5).correlation
        assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("e, ew", [(1.0, 0.001), (0.1, 1e-300), (0.5 + 1e-9, 0.5)])
    def test_rejects_more_entanglement_than_the_channel_has(self, e, ew):
        # No final entanglement exceeds the channel's; these gave -463237.75 and -inf.
        message = f"^e must not exceed ew, got e = {re.escape(str(e))}, ew = {re.escape(str(ew))}$"
        with pytest.raises(ValueError, match=message):
            correlation_info_from_entanglement(e, ew)

    def test_accepts_the_final_entanglement_of_a_maximally_entangled_input(self):
        # E(1, ew) = ew exactly; its roundoff may put it an eps above ew.
        ews = np.concatenate([np.linspace(0.0, 1.0, 2_001)[1:], np.logspace(-300, 0, 2_000)])
        for ew in ews.tolist():
            got = correlation_info_from_entanglement(final_entanglement_closed_form(1.0, ew), ew)
            assert 0.0 <= got <= 2.0 + 1e-12

    def test_an_allowed_excess_over_ew_reads_as_ew(self):
        # An e up to FINAL_ENTANGLEMENT_ATOL above ew is accepted as roundoff of
        # ew; read as it is, it gave -inf at (8e-16, 1e-300) and 0.293 at
        # (1.8e-15, 1e-15), above the value at e0 = 1.
        for ew in np.logspace(-320, 0, 2_001).tolist():
            bound = final_information_closed_form(1.0, ew).correlation + 2 * np.finfo(float).eps
            for e in (ew, np.nextafter(ew, 2.0), ew + FINAL_ENTANGLEMENT_ATOL):
                got = correlation_info_from_entanglement(min(float(e), 1.0), ew)
                assert 0.0 <= got <= bound, (e, ew, got)

    def test_rejects_unentangled_channel(self):
        with pytest.raises(ValueError):
            correlation_info_from_entanglement(0.5, 0.0)
        with pytest.raises(ValueError):
            correlation_info_from_entanglement(0.5, -0.2)


def test_simulated_information_decomposition_consistency():
    # The report's information block is exactly the decomposition of the
    # averaged final state.
    report = simulate(seed_state(0.7), WernerChannel(0.6))
    direct = information_decomposition(report.final_state)
    assert report.final_information == direct
    assert report.final_entanglement == negativity(report.final_state).value


def test_sigma_x_correction_repairs_outcome_one():
    # Conditioned on outcome 1 the uncorrected state differs from the input
    # by a sigma_x on particle 4; the optimal strategy undoes exactly that.
    rho = seed_state(0.0)
    wrong = BobStrategy(corrections=(ID2, ID2, ID2, ID2))
    right = BobStrategy(corrections=(ID2, SIGMA_X, ID2, ID2))
    report_wrong = simulate(rho, WernerChannel(1.0), wrong)
    report_right = simulate(rho, WernerChannel(1.0), right)
    assert np.max(np.abs(report_wrong.final_states[1] - rho)) > 0.4
    np.testing.assert_allclose(report_right.final_states[1], rho, atol=1e-10)
