"""Classic population protocols as end-to-end checks of both engines.

Each protocol is a small inline transition table run as a
:class:`~repro.engine.TableModel`, built through
:func:`~repro.engine.build_engine` on a :func:`~repro.engine.make_law`
pair law.  The agent and the count engine must keep each protocol's
conservation law, reach its known outcome, and — since both draw
uniformly random ordered pairs — take the expected number of
interactions that the uniform scheduler implies.
"""

import numpy as np
import pytest

from repro.engine import TableModel, build_engine, make_law
from repro.utils import InvalidParameterError

PATHS = ("agent", "count")

LEADER, FOLLOWER = 0, 1
SUSCEPTIBLE, INFORMED = 0, 1
X, Y, BLANK = 0, 1, 2
STRONG_A, STRONG_B, WEAK_A, WEAK_B = 0, 1, 2, 3


def protocol(n_states: int, fn) -> TableModel:
    """The table model of ``fn(u, v) -> (u', v')`` over ``n_states``."""
    return TableModel([[fn(u, v) for v in range(n_states)]
                       for u in range(n_states)])


def leader_election():
    return protocol(
        2, lambda u, v: (u, FOLLOWER) if u == v == LEADER else (u, v))


def rumor_spreading():
    # Pull: a susceptible initiator learns from an informed responder.
    return protocol(
        2, lambda u, v: (INFORMED, v) if (u, v) == (SUSCEPTIBLE, INFORMED)
        else (u, v))


APPROXIMATE_MAJORITY = {(X, Y): (X, BLANK), (Y, X): (Y, BLANK),
                        (X, BLANK): (X, X), (Y, BLANK): (Y, Y)}


def approximate_majority():
    return protocol(3, lambda u, v: APPROXIMATE_MAJORITY.get((u, v), (u, v)))


EXACT_MAJORITY = {
    (STRONG_A, STRONG_B): (WEAK_A, WEAK_B),
    (STRONG_B, STRONG_A): (WEAK_B, WEAK_A),
    (STRONG_A, WEAK_B): (STRONG_A, WEAK_A),
    (WEAK_B, STRONG_A): (WEAK_A, STRONG_A),
    (STRONG_B, WEAK_A): (STRONG_B, WEAK_B),
    (WEAK_A, STRONG_B): (WEAK_B, STRONG_B),
}


def exact_majority():
    return protocol(4, lambda u, v: EXACT_MAJORITY.get((u, v), (u, v)))


def averaging(max_value: int):
    # The initiator takes the ceiling of the mean, the responder the floor.
    return protocol(max_value + 1,
                    lambda u, v: ((u + v + 1) // 2, (u + v) // 2))


def maximum(n_states: int):
    """Both agents adopt the larger state (epidemic of the maximum)."""
    return protocol(n_states, lambda u, v: (max(u, v), max(u, v)))


def one_way_maximum(n_states: int):
    """Only the initiator adopts the larger state."""
    return protocol(n_states, lambda u, v: (max(u, v), v))


def copy_responder():
    """The initiator copies the responder, which keeps its state."""
    return protocol(3, lambda u, v: (v, v))


def push_rumor():
    # Push: an informed initiator tells a susceptible responder.
    return protocol(
        2, lambda u, v: (u, INFORMED) if (u, v) == (INFORMED, SUSCEPTIBLE)
        else (u, v))


def annihilation():
    # Opposite opinions cancel into blanks: X + Y -> B + B.
    return protocol(3, lambda u, v: (BLANK, BLANK) if {u, v} == {X, Y}
                    else (u, v))


def states_from_counts(counts) -> np.ndarray:
    return np.repeat(np.arange(len(counts)), counts)


def agent_engine(model, states, seed):
    states = np.array(states, dtype=np.int64)
    return build_engine(model, make_law(states.size, seed=seed), "agent",
                        states=states)


def run(path, model, counts, max_steps, seed, stop_when=None,
        check_stop_every=1, observe_every=None):
    """One run on ``path``; returns the engine-level result."""
    if path == "agent":
        engine = agent_engine(model, states_from_counts(counts), seed)
    else:
        counts = np.asarray(counts, dtype=np.int64)
        engine = build_engine(model, make_law(int(counts.sum()), seed=seed),
                              "count", counts=counts)
    return engine.run(max_steps, stop_when=stop_when,
                      check_stop_every=check_stop_every,
                      observe_every=observe_every)


def observed_counts(result) -> np.ndarray:
    return np.array([counts for _, counts in result.observations])


@pytest.mark.parametrize("path", PATHS)
class TestApproximateMajority:
    def test_converges_to_clear_majority(self, path, rng):
        n = 120
        result = run(path, approximate_majority(), [90, 30, 0], 80 * n, rng,
                     stop_when=lambda c: c[X] == n or c[Y] == n,
                     check_stop_every=50)
        assert result.converged
        assert result.counts[X] == n


@pytest.mark.parametrize("path", PATHS)
class TestExactMajority:
    def test_strong_difference_invariant(self, path, rng):
        result = run(path, exact_majority(), [35, 25, 0, 0], 5000, rng,
                     observe_every=250)
        history = observed_counts(result)
        assert len(history) > 10
        assert np.all(history[:, STRONG_A] - history[:, STRONG_B] == 10)
        assert np.all(history.sum(axis=1) == 60)

    @pytest.mark.parametrize("a_count, expected", [(40, 0), (20, 1)])
    def test_exact_majority_correct(self, path, rng, a_count, expected):
        n = 60
        sides = ([STRONG_A, WEAK_A], [STRONG_B, WEAK_B])
        winners, losers = sides[expected], sides[1 - expected]
        result = run(path, exact_majority(), [a_count, n - a_count, 0, 0],
                     400 * n, rng,
                     stop_when=lambda c: c[losers].sum() == 0,
                     check_stop_every=100)
        assert result.converged
        assert result.counts[winners].sum() == n


@pytest.mark.parametrize("path", PATHS)
class TestLeaderElection:
    def test_exactly_one_leader_survives(self, path, rng):
        n = 40
        result = run(path, leader_election(), [n, 0], 100 * n * n, rng,
                     stop_when=lambda c: c[LEADER] == 1,
                     check_stop_every=100)
        assert result.converged
        assert result.counts[LEADER] == 1

    def test_leader_count_never_increases(self, path, rng):
        result = run(path, leader_election(), [20, 0], 1500, rng,
                     observe_every=50)
        leaders = observed_counts(result)[:, LEADER]
        assert leaders[0] == 20
        assert np.all(np.diff(leaders) <= 0)
        assert leaders[-1] >= 1

    def test_expected_interactions_formula(self, path, rng):
        """Mean convergence time matches (n-1)^2 exactly (within CI)."""
        n = 12
        times = [run(path, leader_election(), [n, 0], 80 * n * n, rng,
                     stop_when=lambda c: c[LEADER] == 1).steps
                 for _ in range(120)]
        assert np.mean(times) == pytest.approx((n - 1) ** 2, rel=0.2)


def rumor_expected_interactions(n: int) -> float:
    # With i informed, an interaction informs someone w.p. (n-i)i/(n(n-1)).
    return sum(n * (n - 1) / (i * (n - i)) for i in range(1, n))


@pytest.mark.parametrize("path", PATHS)
class TestRumorSpreading:
    def test_everyone_informed(self, path, rng):
        n = 80
        result = run(path, rumor_spreading(), [n - 1, 1], 200 * n, rng,
                     stop_when=lambda c: c[INFORMED] == n,
                     check_stop_every=20)
        assert result.converged

    def test_informed_count_monotone(self, path, rng):
        result = run(path, rumor_spreading(), [29, 1], 600, rng,
                     observe_every=30)
        informed = observed_counts(result)[:, INFORMED]
        assert np.all(np.diff(informed) >= 0)
        assert informed[-1] > informed[0]

    def test_expected_interactions_scales_n_log_n(self, path, rng):
        n = 50
        times = [run(path, rumor_spreading(), [n - 1, 1], 400 * n, rng,
                     stop_when=lambda c: c[INFORMED] == n).steps
                 for _ in range(60)]
        assert np.mean(times) == pytest.approx(
            rumor_expected_interactions(n), rel=0.25)


@pytest.mark.parametrize("path", PATHS)
class TestPushRumor:
    def test_expected_interactions_match_pull(self, path, rng):
        """Push and pull inform one new agent with the same probability
        i(n-i)/(n(n-1)), so both take the same expected time."""
        n = 50
        times = [run(path, push_rumor(), [n - 1, 1], 400 * n, rng,
                     stop_when=lambda c: c[INFORMED] == n).steps
                 for _ in range(60)]
        assert np.mean(times) == pytest.approx(
            rumor_expected_interactions(n), rel=0.25)


@pytest.mark.parametrize("path", PATHS)
class TestAnnihilation:
    def test_difference_conserved_until_minority_vanishes(self, path, rng):
        result = run(path, annihilation(), [35, 25, 0], 20_000, rng,
                     stop_when=lambda c: c[Y] == 0, check_stop_every=50,
                     observe_every=50)
        history = observed_counts(result)
        assert np.all(history[:, X] - history[:, Y] == 10)
        assert result.converged
        assert result.counts.tolist() == [10, 0, 50]


@pytest.mark.parametrize("path", PATHS)
class TestAveraging:
    def test_sum_conserved(self, path, rng):
        values = [16, 0, 0, 0, 8, 8, 4, 12]
        counts = np.bincount(values, minlength=17)
        result = run(path, averaging(16), counts, 5000, rng, observe_every=500)
        assert len(result.observations) == 11
        for _, snapshot in result.observations:
            assert snapshot @ np.arange(17) == sum(values)

    def test_balances(self, path, rng):
        counts = np.bincount([16, 0] * 10, minlength=17)

        def balanced(c):
            present = np.nonzero(c)[0]
            return present[-1] - present[0] <= 1

        result = run(path, averaging(16), counts, 40_000, rng,
                     stop_when=balanced, check_stop_every=100)
        assert result.converged
        assert result.counts[8] == 20

    def test_spread_never_grows(self, path, rng):
        counts = np.bincount([16, 0, 3, 12, 7, 7], minlength=17)
        result = run(path, averaging(16), counts, 3000, rng,
                     observe_every=100)
        spreads = [np.flatnonzero(c)[-1] - np.flatnonzero(c)[0]
                   for c in observed_counts(result)]
        assert spreads[0] == 16
        assert np.all(np.diff(spreads) <= 0)


class TestAgentEngineOnTables:
    """A table protocol on the agent engine, built by ``build_engine``
    from the caller's state array."""

    def test_max_spreads(self, rng):
        states = np.zeros(30, dtype=np.int64)
        states[0] = 3
        engine = agent_engine(maximum(4), states, rng)
        result = engine.run(20_000, stop_when=lambda counts: counts[3] == 30)
        assert result.converged
        assert (engine.states == 3).all()

    def test_counts_match_states(self, rng):
        engine = agent_engine(maximum(4), [0, 1, 2, 3, 3], rng)
        assert np.array_equal(engine.counts, [1, 1, 1, 2])
        engine.run(100)
        assert np.array_equal(engine.counts,
                              np.bincount(engine.states, minlength=4))

    def test_population_size_conserved(self, rng):
        copy_responder = protocol(3, lambda u, v: (v, v))
        result = agent_engine(copy_responder, [0, 1, 2] * 10, rng).run(5000)
        assert result.counts.sum() == 30

    def test_observations_cadence(self, rng):
        states = np.zeros(10, dtype=np.int64)
        states[0] = 1
        result = agent_engine(maximum(4), states, rng).run(100,
                                                           observe_every=25)
        steps = [s for s, _ in result.observations]
        assert steps == [0, 25, 50, 75, 100]

    def test_stop_checked_at_cadence(self, rng):
        engine = agent_engine(maximum(4), np.zeros(10, dtype=np.int64), rng)
        result = engine.run(100, stop_when=lambda c: True,
                            check_stop_every=10)
        assert result.converged
        assert result.steps == 0  # predicate already true before any step

    def test_invalid_initial_state_rejected(self):
        with pytest.raises(InvalidParameterError):
            agent_engine(maximum(4), [0, 9], 0)

    def test_single_agent_rejected(self):
        with pytest.raises(InvalidParameterError):
            agent_engine(maximum(4), [0], 0)

    def test_reproducible(self):
        states = np.arange(4) % 4
        e1 = agent_engine(maximum(4), states, 5)
        e2 = agent_engine(maximum(4), states, 5)
        e1.run(200)
        e2.run(200)
        assert np.array_equal(e1.states, e2.states)


class TestTableModelStructure:
    """What the engines read off a protocol's table: whether it is one-way
    (the kernel's cheaper conflict analysis) and which states are inert."""

    @pytest.mark.parametrize("model, one_way", [
        (leader_election(), False),
        (rumor_spreading(), True),
        (push_rumor(), False),
        (approximate_majority(), False),
        (exact_majority(), False),
        (averaging(4), False),
        (maximum(3), False),
        (one_way_maximum(3), True),
        (copy_responder(), True),
    ])
    def test_one_way_detection(self, model, one_way):
        assert model.one_way is one_way
        if not one_way:
            assert model.inert_states is None

    @pytest.mark.parametrize("model, inert", [
        (rumor_spreading(), [False, True]),
        (one_way_maximum(3), [False, False, True]),
        (copy_responder(), [False, False, False]),
    ])
    def test_inert_states(self, model, inert):
        assert model.inert_states.tolist() == inert

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64,
                                       np.uint8, np.uint16, np.float64])
    def test_integral_tables_of_any_dtype_pass_unchanged(self, dtype):
        table = exact_majority().table
        model = TableModel(table.astype(dtype))
        assert model.table.dtype == np.int64
        assert np.array_equal(model.table, table)

    def test_nested_lists_build_the_same_model(self):
        table = approximate_majority().table
        from_lists = TableModel(table.tolist())
        assert np.array_equal(from_lists.table, table)
        assert from_lists.one_way == approximate_majority().one_way

    def test_model_keeps_the_law_it_was_built_with(self):
        # Editing the caller's table afterwards must not move the law:
        # the model keeps a copy, so its table, its components, apply()
        # and engines built after the edit all agree.
        table = maximum(3).table
        model = TableModel(table)
        table[0, 1, 0] = 2
        assert model.table[0, 1, 0] == 1
        assert model.component_tables[0][0, 1, 0] == 1
        new_u, _ = model.apply(np.array([0]), np.array([1]), None)
        assert new_u.tolist() == [1]
        states = np.array([0] * 30 + [1] * 30)
        for backend in ("agent", "count"):
            engine = build_engine(model, make_law(60, seed=2), backend,
                                  states=states)
            result = engine.run(3000)
            # Under the max law nothing reaches state 2.
            assert result.counts.tolist() == [0, 60, 0]
