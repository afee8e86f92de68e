"""Tests for the count-level action-observed machinery.

Three layers: the exact always-defected probability (vs Monte-Carlo game
play), the :class:`PairMixtureTableModel` law, and the assembled
:func:`igt_action_model`.
"""

import numpy as np
import pytest

from repro.engine import PairMixtureTableModel, igt_action_model, igt_model
from repro.core.igt import GenerosityGrid
from repro.games.repeated import (
    RepeatedGameEngine,
    always_defect_probability,
)
from repro.games.strategies import (
    always_cooperate,
    always_defect,
    generous_tit_for_tat,
    tit_for_tat,
    win_stay_lose_shift,
)
from repro.utils import InvalidParameterError


class _ConstantUniforms:
    """A stand-in generator whose uniform draws all equal ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value)


class TestAlwaysDefectProbability:
    def test_ad_partner_is_certain(self):
        gtft = generous_tit_for_tat(0.3, 0.5)
        assert always_defect_probability(
            gtft, always_defect(), 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_ac_partner_is_impossible(self):
        gtft = generous_tit_for_tat(0.3, 0.5)
        assert always_defect_probability(gtft, always_cooperate(),
                                         0.9) == 0.0

    def test_delta_zero_is_round_one_defection(self):
        second = generous_tit_for_tat(0.2, 0.35)
        p = always_defect_probability(tit_for_tat(), second, 0.0)
        assert p == pytest.approx(1.0 - second.initial_coop_prob)

    def test_ad_first_vs_gtft_closed_form(self):
        # AD never cooperates, so GTFT(g) keeps defecting with prob 1-g:
        # P = (1 - s1) (1 - delta) / (1 - delta (1 - g)).
        g, s1, delta = 0.25, 0.4, 0.8
        p = always_defect_probability(always_defect(),
                                      generous_tit_for_tat(g, s1), delta)
        expected = (1 - s1) * (1 - delta) / (1 - delta * (1 - g))
        assert p == pytest.approx(expected)

    @pytest.mark.parametrize("first,second", [
        (generous_tit_for_tat(0.3, 0.5), generous_tit_for_tat(0.1, 0.5)),
        (generous_tit_for_tat(0.5, 0.2), win_stay_lose_shift()),
        (win_stay_lose_shift(), generous_tit_for_tat(0.3, 0.7)),
    ])
    def test_matches_monte_carlo(self, first, second, small_setting):
        delta = 0.85
        exact = always_defect_probability(first, second, delta)
        engine = RepeatedGameEngine(small_setting.game, delta)
        rng = np.random.default_rng(42)
        runs = 8000
        hits = sum(engine.play(first, second,
                               seed=rng).opponent_always_defected()
                   for _ in range(runs))
        rate = hits / runs
        sigma = max(np.sqrt(exact * (1 - exact) / runs), 1e-4)
        assert abs(rate - exact) < 5 * sigma, (rate, exact)

    def test_delta_validation(self):
        with pytest.raises(InvalidParameterError):
            always_defect_probability(always_defect(), always_defect(), 1.0)


class TestPairMixtureTableModel:
    def _tables(self):
        s = 3
        ids = np.arange(s)
        hit = np.empty((s, s, 2), dtype=np.int64)
        hit[:, :, 0] = np.maximum(ids - 1, 0)[:, None]
        hit[:, :, 1] = ids[None, :]
        miss = np.empty((s, s, 2), dtype=np.int64)
        miss[:, :, 0] = np.minimum(ids + 1, s - 1)[:, None]
        miss[:, :, 1] = ids[None, :]
        return hit, miss

    def test_structure_flags(self):
        hit, miss = self._tables()
        probs = np.full((3, 3), 0.5)
        model = PairMixtureTableModel(hit, miss, probs)
        assert model.one_way
        assert model.component_tables is None
        assert np.array_equal(model.pair_probs, probs)

    def test_apply_realizes_pair_probabilities(self):
        hit, miss = self._tables()
        probs = np.zeros((3, 3))
        probs[1, 2] = 0.7
        model = PairMixtureTableModel(hit, miss, probs)
        rng = np.random.default_rng(0)
        draws = 20_000
        new_u, new_v = model.apply(np.full(draws, 1), np.full(draws, 2),
                                   rng)
        assert np.array_equal(new_v, np.full(draws, 2))
        hit_rate = (new_u == 0).mean()
        assert abs(hit_rate - 0.7) < 0.02
        # probability-0 pair always takes the miss table
        new_u, _ = model.apply(np.full(100, 0), np.full(100, 1), rng)
        assert (new_u == 1).all()

    def test_apply_scalar_matches_law(self):
        hit, miss = self._tables()
        probs = np.full((3, 3), 0.3)
        model = PairMixtureTableModel(hit, miss, probs)
        rng = np.random.default_rng(7)
        outcomes = [model.apply_scalar(1, 0, rng) for _ in range(5000)]
        hits = sum(u == 0 for u, _ in outcomes)
        assert all(v == 0 for _, v in outcomes)
        assert abs(hits / 5000 - 0.3) < 0.03

    def test_validation(self):
        hit, miss = self._tables()
        with pytest.raises(InvalidParameterError):
            PairMixtureTableModel(hit, miss, np.full((3, 3), 1.5))
        with pytest.raises(InvalidParameterError):
            PairMixtureTableModel(hit, miss, np.zeros((2, 2)))


class TestIgtActionModel:
    def test_structure(self, small_setting):
        grid = GenerosityGrid(k=4, g_max=0.5)
        model = igt_action_model(grid, small_setting)
        assert model.n_states == 6
        assert model.one_way
        probs = model.pair_probs
        # GTFT initiators read AD partners as AD with certainty, AC
        # partners never.
        assert np.allclose(probs[:4, 5], 1.0)
        assert np.allclose(probs[:4, 4], 0.0)
        # GTFT-vs-GTFT misclassification decreases with generosity.
        assert probs[0, 0] > probs[0, 3]
        # AC/AD initiators never move.
        inert = model.inert_states
        assert inert is not None and inert[4] and inert[5]

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_tables_read_every_partner_as_ad_or_not(self, k, small_setting):
        """The decrement and increment tables are the standard k-IGT
        table with every partner read as AD, and as non-AD."""
        standard = igt_model(k).table
        s = k + 2
        # Every non-AD column of the standard table reads the same.
        assert (standard[:, :k + 1, 0] == standard[:, :1, 0]).all()
        model = igt_action_model(GenerosityGrid(k=k, g_max=0.5),
                                 small_setting)
        initiators = np.repeat(np.arange(s), s)
        responders = np.tile(np.arange(s), s)
        for draw, column in ((-1.0, k + 1), (2.0, k)):
            # A uniform draw below every pair probability always takes
            # the decrement ("read as AD") table; one above, never.
            rng = _ConstantUniforms(draw)
            new_u, new_v = model.apply(initiators, responders, rng)
            assert np.array_equal(new_u.reshape(s, s),
                                  np.repeat(standard[:, column:column + 1, 0],
                                            s, axis=1))
            assert np.array_equal(new_v.reshape(s, s), standard[:, :, 1])

    def test_classification_matches_rule(self, small_setting):
        grid = GenerosityGrid(k=3, g_max=0.5)
        model = igt_action_model(grid, small_setting)
        rng = np.random.default_rng(1)
        # AD partner (state k+1 = 4): initiator at index 2 decrements.
        assert model.apply_scalar(2, 4, rng) == (1, 4)
        # AC partner: increments (and saturates at k-1).
        assert model.apply_scalar(1, 3, rng) == (2, 3)
        assert model.apply_scalar(2, 3, rng) == (2, 3)
