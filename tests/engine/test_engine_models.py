"""Unit tests for the engine interaction models and adapters."""

import numpy as np
import pytest

from repro.engine import (
    ImitationModel,
    LogitResponseModel,
    MixtureTableModel,
    TableModel,
    igt_model,
    matrix_game_model,
    protocol_model,
)
from repro.population.protocol import TransitionFunctionProtocol
from repro.utils import InvalidParameterError


def max_table(n_states=3):
    protocol = TransitionFunctionProtocol(
        n_states=n_states, fn=lambda u, v: (max(u, v), v))
    return protocol.transition_table()


class TestTableModel:
    def test_apply_matches_table(self, rng):
        table = max_table()
        model = TableModel(table)
        u = np.array([0, 1, 2, 0])
        v = np.array([2, 0, 1, 0])
        new_u, new_v = model.apply(u, v, rng)
        assert new_u.tolist() == [2, 1, 2, 0]
        assert new_v.tolist() == v.tolist()

    def test_apply_scalar_matches_apply(self, rng):
        model = TableModel(max_table())
        for u in range(3):
            for v in range(3):
                vec = model.apply(np.array([u]), np.array([v]), rng)
                assert model.apply_scalar(u, v, rng) == (int(vec[0][0]),
                                                         int(vec[1][0]))

    def test_component_tables_roundtrip(self):
        table = max_table()
        model = TableModel(table)
        assert np.array_equal(model.component_tables[0], table)
        assert model.sample_components(np.random.default_rng(0), 5) is None

    def test_rejects_bad_shapes_and_entries(self):
        with pytest.raises(InvalidParameterError):
            TableModel(np.zeros((2, 3, 2), dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            TableModel(np.zeros((2, 2, 3), dtype=np.int64))
        bad = np.zeros((2, 2, 2), dtype=np.int64)
        bad[0, 0, 0] = 5
        with pytest.raises(InvalidParameterError):
            TableModel(bad)


class TestMixtureTableModel:
    def test_component_frequencies(self, rng):
        identity = np.zeros((2, 2, 2), dtype=np.int64)
        identity[:, :, 0] = np.arange(2)[:, None]
        identity[:, :, 1] = np.arange(2)[None, :]
        flip = identity.copy()
        flip[:, :, 0] = 1 - identity[:, :, 0]
        model = MixtureTableModel([identity, flip], [0.7, 0.3])
        comps = model.sample_components(rng, 40_000)
        assert abs(comps.mean() - 0.3) < 0.02

    def test_degenerate_mixture_is_deterministic(self, rng):
        identity = np.zeros((2, 2, 2), dtype=np.int64)
        identity[:, :, 0] = np.arange(2)[:, None]
        identity[:, :, 1] = np.arange(2)[None, :]
        flip = identity.copy()
        flip[:, :, 0] = 1 - identity[:, :, 0]
        model = MixtureTableModel([identity, flip], [0.0, 1.0])
        u = np.zeros(100, dtype=np.int64)
        v = np.ones(100, dtype=np.int64)
        new_u, new_v = model.apply(u, v, rng)
        assert (new_u == 1).all() and (new_v == 1).all()

    def test_rejects_mismatched_probs(self):
        table = max_table()
        with pytest.raises(Exception):
            MixtureTableModel([table, table], [0.5, 0.3, 0.2])


class TestLogitResponseModel:
    def test_choice_frequencies_match_softmax(self, rng):
        payoffs = np.array([[1.0, 0.0], [0.5, 2.0]])
        eta = 1.3
        model = LogitResponseModel(payoffs, eta=eta)
        v = np.zeros(60_000, dtype=np.int64)
        new_u, new_v = model.apply(np.zeros_like(v), v, rng)
        weights = np.exp(eta * payoffs[:, 0])
        weights /= weights.sum()
        assert abs(new_u.mean() - weights[1]) < 0.01
        assert new_v is v

    def test_scalar_law_matches_vector(self):
        payoffs = np.array([[0.0, 1.0], [2.0, 0.5]])
        model = LogitResponseModel(payoffs, eta=0.8)
        rng = np.random.default_rng(3)
        draws = [model.apply_scalar(0, 1, rng)[0] for _ in range(20_000)]
        weights = np.exp(0.8 * payoffs[:, 1])
        weights /= weights.sum()
        assert abs(np.mean(draws) - weights[1]) < 0.012

    def test_rejects_bad_eta(self):
        with pytest.raises(InvalidParameterError):
            LogitResponseModel(np.eye(2), eta=0.0)


class TestImitationModel:
    def test_switch_probability_is_positive_part(self, rng):
        # payoff(v vs obs_j) - payoff(u vs obs_i) = 1.0 - 0.0, scale 2 ->
        # switch with probability 1/2.
        payoffs = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = ImitationModel(payoffs, scale=2.0)
        size = 40_000
        u = np.zeros(size, dtype=np.int64)
        v = np.ones(size, dtype=np.int64)
        observed = (np.zeros(size, dtype=np.int64),
                    np.zeros(size, dtype=np.int64))
        new_u, _ = model.apply(u, v, rng, observed)
        assert abs(new_u.mean() - 0.5) < 0.01

    def test_never_switches_on_disadvantage(self, rng):
        payoffs = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = ImitationModel(payoffs)
        size = 1000
        u = np.zeros(size, dtype=np.int64)
        v = np.ones(size, dtype=np.int64)
        observed = (np.zeros(size, dtype=np.int64),
                    np.zeros(size, dtype=np.int64))
        new_u, _ = model.apply(u, v, rng, observed)
        assert (new_u == 0).all()

    def test_requires_observed(self, rng):
        model = ImitationModel(np.eye(2))
        with pytest.raises(InvalidParameterError):
            model.apply(np.array([0]), np.array([1]), rng)
        assert model.slots_per_step == 4


class TestAdapters:
    def test_protocol_model_matches_transition_table(self):
        protocol = TransitionFunctionProtocol(
            n_states=3, fn=lambda u, v: (v, v))
        model = protocol_model(protocol)
        assert np.array_equal(model.table, protocol.transition_table())

    def test_igt_table_rule(self):
        k = 4
        model = igt_model(k)
        table = model.table
        ac, ad = k, k + 1
        # GTFT initiator: AD partner decrements, others increment.
        assert table[2, ad, 0] == 1
        assert table[0, ad, 0] == 0  # truncated at the bottom
        assert table[2, ac, 0] == 3
        assert table[1, 2, 0] == 2  # GTFT partner increments
        assert table[k - 1, ac, 0] == k - 1  # truncated at the top
        # AC / AD initiators and every responder never move.
        assert table[ac, 0, 0] == ac and table[ad, 2, 0] == ad
        assert (table[:, :, 1] == np.arange(k + 2)[None, :]).all()

    def test_igt_strict_variant(self):
        model = igt_model(3, mode="strict")
        table = model.table
        assert table[1, 3, 0] == 1  # AC partner: no increment
        assert table[1, 0, 0] == 2  # GTFT partner still increments
        assert table[1, 4, 0] == 0  # AD partner decrements

    def test_igt_noise_is_mixture(self):
        model = igt_model(3, observation_noise=0.25)
        assert isinstance(model, MixtureTableModel)
        assert np.allclose(model.probs, [0.75, 0.25])
        flipped = model.component_tables[1]
        assert flipped[1, 4, 0] == 2  # AD read as non-AD: increments

    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    def test_igt_tables_match_the_loop_reference(self, k):
        """The vectorized tables equal a per-pair reading of
        Definition 2.1 (with the strict variant and a flipped reading)."""

        def reference(strict, flipped):
            table = np.empty((k + 2, k + 2, 2), dtype=np.int64)
            for u in range(k + 2):
                for v in range(k + 2):
                    new_u = u
                    if u < k:
                        if (v == k + 1) != flipped:
                            new_u = max(u - 1, 0)
                        elif not (strict and v == k):
                            new_u = min(u + 1, k - 1)
                    table[u, v] = new_u, v
            return table

        assert np.array_equal(igt_model(k).table, reference(False, False))
        assert np.array_equal(igt_model(k, mode="strict").table,
                              reference(True, False))
        base, flipped = igt_model(k, observation_noise=0.1).component_tables
        assert np.array_equal(base, reference(False, False))
        assert np.array_equal(flipped, reference(False, True))

    def test_igt_validation(self):
        with pytest.raises(InvalidParameterError):
            igt_model(1)
        with pytest.raises(InvalidParameterError):
            igt_model(3, mode="action")
        with pytest.raises(InvalidParameterError):
            igt_model(3, mode="strict", observation_noise=0.1)

    def test_best_response_degenerate_p(self):
        payoffs = np.array([[0.0, 2.0], [1.0, 0.0]])
        model = matrix_game_model(payoffs, "best_response", p_update=1.0)
        assert isinstance(model, TableModel)
        # best response to strategy 1 is strategy 0 (payoff 2 > 0).
        assert model.apply_scalar(1, 1, np.random.default_rng(0))[0] == 0

    def test_unknown_rule_rejected(self):
        with pytest.raises(InvalidParameterError):
            matrix_game_model(np.eye(2), "psychic")
