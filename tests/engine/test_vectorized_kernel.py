"""Unit tests for the chunked vectorized kernel and its backend paths.

The load-bearing guarantee is *bit-for-bit* equality of the peeled
rounds with pair order: same seed, same pair blocks and uniforms,
identical trajectories — including the degenerate geometries (``n = 2``,
``n = 3``, chunks larger than the population) where every chunk is one
long conflict chain.  Pair order is the kernel's own scalar head run on
whole chunks (:class:`PairOrderKernel`).
"""

import tracemalloc

import numpy as np
import pytest
from conftest import birthday

from repro.core.equilibrium import RDSetting
from repro.core.igt import GenerosityGrid
from repro.engine import (
    AgentBackend,
    ConflictFreeKernel,
    CountBackend,
    ImitationModel,
    MixtureTableModel,
    PairMixtureTableModel,
    WeightedCountBackend,
    igt_action_model,
    igt_model,
    matrix_game_model,
)
from repro.engine.model import TableModel
from repro.engine.vectorized import (
    MIN_CHUNK,
    STAMP_MAX,
    auto_chunk,
)
from repro.engine.weighted import ProductStateModel
from repro.utils import InvalidParameterError


@pytest.fixture
def epidemic():
    """One-way max-epidemic protocol on 3 states (state 2 is inert)."""
    return TableModel([[(max(u, v), v) for v in range(3)] for u in range(3)])


@pytest.fixture
def swap():
    """Two-way model: initiator and responder exchange states."""
    s = 3
    table = np.empty((s, s, 2), dtype=np.int64)
    for u in range(s):
        for v in range(s):
            table[u, v] = (v, u)
    return TableModel(table)


def igt_states(n, k=6):
    states = np.empty(n, dtype=np.int64)
    states[:n // 2] = 0
    states[n // 2:n // 2 + (3 * n) // 10] = k
    states[n // 2 + (3 * n) // 10:] = k + 1
    return states


class PairOrderKernel(ConflictFreeKernel):
    """A kernel that never peels: each whole chunk runs through the
    scalar head, one interaction at a time in pair order."""

    def _peel(self, ii, jj, w, oi=None, oj=None):
        return (ii, jj, w, oi, oj), []


def in_pair_order(engine: AgentBackend) -> AgentBackend:
    """``engine``, its runs applied by a :class:`PairOrderKernel`."""
    engine._kernel = PairOrderKernel(engine.model, engine.states_live,
                                     engine.counts_live)
    return engine


class TestBitParity:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 300, 1500])
    def test_igt_matches_sequential(self, n):
        # chunk (>= 1024) far exceeds the small populations: every pair
        # of a chunk conflicts with many others.
        model = igt_model(6)
        states = igt_states(n)
        fast = AgentBackend(model, states, seed=11)
        slow = in_pair_order(AgentBackend(model, states, seed=11))
        fast.run(9000)
        slow.run(9000)
        assert np.array_equal(fast.states, slow.states)
        assert np.array_equal(fast.counts, slow.counts)

    @pytest.mark.parametrize("n", [2, 7, 800])
    def test_two_way_matches_sequential(self, swap, n):
        states = (np.arange(n) % 3).astype(np.int64)
        fast = AgentBackend(swap, states, seed=5)
        slow = in_pair_order(AgentBackend(swap, states, seed=5))
        fast.run(6000)
        slow.run(6000)
        assert np.array_equal(fast.states, slow.states)
        assert np.array_equal(fast.counts, slow.counts)

    def test_mixture_model_matches_sequential(self):
        model = igt_model(5, observation_noise=0.2)
        states = igt_states(700, k=5)
        fast = AgentBackend(model, states, seed=3)
        slow = in_pair_order(AgentBackend(model, states, seed=3))
        fast.run(20_000)
        slow.run(20_000)
        assert np.array_equal(fast.states, slow.states)

    def test_observations_and_stop_match(self, epidemic):
        states = np.zeros(400, dtype=np.int64)
        states[0] = 2
        runs = []
        for backend in (AgentBackend(epidemic, states, seed=9),
                        in_pair_order(AgentBackend(epidemic, states,
                                                   seed=9))):
            runs.append(backend.run(50_000, stop_when=lambda c: c[2] >= 300,
                                    observe_every=1000,
                                    check_stop_every=500))
        fast, slow = runs
        assert fast.converged and slow.converged
        assert fast.steps == slow.steps
        assert len(fast.observations) == len(slow.observations)
        for (s1, c1), (s2, c2) in zip(fast.observations, slow.observations):
            assert s1 == s2 and np.array_equal(c1, c2)

    def test_inert_filter_epidemic_absorbed(self, epidemic):
        # All agents inert from the start: the whole run is no-ops.
        states = np.full(2000, 2, dtype=np.int64)
        backend = AgentBackend(epidemic, states, seed=1)
        result = backend.run(30_000)
        assert result.counts[2] == 2000
        assert np.array_equal(backend.states, states)

    def test_epidemic_not_closed_still_exact(self, epidemic):
        # Epidemic agents *become* inert mid-run (active 0/1 -> inert 2),
        # so the inert filter must read each chunk's current states;
        # trajectories stay identical to sequential execution.
        states = (np.arange(1200) % 3).astype(np.int64)
        fast = AgentBackend(epidemic, states, seed=21)
        slow = in_pair_order(AgentBackend(epidemic, states, seed=21))
        fast.run(40_000)
        slow.run(40_000)
        assert np.array_equal(fast.states, slow.states)


class TestPathSelection:
    def test_states_live_identity_preserved(self, epidemic):
        states = (np.arange(3000) % 3).astype(np.int64)
        backend = AgentBackend(epidemic, states, seed=2)
        live = backend.states_live
        backend.run(10_000)
        assert backend.states_live is live
        assert np.array_equal(backend.counts,
                              np.bincount(live, minlength=3))


def wide_table_model(s: int) -> TableModel:
    """``s`` states; the initiator takes the larger of the two states."""
    table = np.empty((s, s, 2), dtype=np.int64)
    table[:, :, 0] = np.maximum.outer(np.arange(s), np.arange(s))
    table[:, :, 1] = np.arange(s)[None, :]
    return TableModel(table)


PAYOFFS = np.array([[0.0, 3.0], [1.0, 2.0]])

#: Initiator and responder swap states.
TWO_WAY_TABLE = np.array([[(v, u) for v in range(3)] for u in range(3)])

#: Kernels of every peel shape: read-free one-way (k-IGT), one-way with
#: reads (the max table and a stochastic law), 4-slot and two-way.  The
#: max table has enough states to keep pairs active for the whole run.
STAMP_MODELS = {
    "one-way": lambda: igt_model(6),
    "one-way-max": lambda: wide_table_model(20),
    "one-way-stochastic": lambda: matrix_game_model(PAYOFFS, "logit",
                                                    eta=1.5),
    "four-slot": lambda: matrix_game_model(PAYOFFS, "imitation"),
    "two-way": lambda: TableModel(TWO_WAY_TABLE),
}


class TestStampRestart:
    """Peel stamps are ``int32``: a round that would overflow them
    restarts them at 0 over a cleared map (read-free and two-way
    kernels read their map back only where the round just wrote it, and
    clear nothing).  Rounds compare stamps only with each other and with
    older, smaller ones, so the restart — like a restore with fresh
    stamps — changes nothing."""

    @pytest.mark.parametrize("headroom", [100, 5000])
    @pytest.mark.parametrize("name", sorted(STAMP_MODELS))
    def test_forced_restart_keeps_the_trajectory(self, name, headroom):
        model = STAMP_MODELS[name]()
        states = np.random.default_rng(3).integers(0, model.n_states, 3000)
        plain = AgentBackend(model, states, seed=6)
        forced = AgentBackend(model, states, seed=6)
        plain.run(5000)
        forced.run(5000)
        # The maps keep their history, all of it below the forced stamp.
        forced._kernel._stamp = STAMP_MAX - headroom
        plain.run(20_000, observe_every=4000)
        forced.run(20_000, observe_every=4000)
        assert forced._kernel._stamp < STAMP_MAX - headroom  # restarted
        np.testing.assert_array_equal(plain.states, forced.states)
        np.testing.assert_array_equal(plain.counts, forced.counts)
        assert (plain.scheduler.rng.bit_generator.state
                == forced.scheduler.rng.bit_generator.state)


class TestNarrowStates:
    """Engines hold states in the model's narrowest unsigned dtype, and
    compute pair indices on ``intp`` chunks so nothing wraps."""

    def test_state_dtype_is_the_narrowest_unsigned_type(self):
        assert igt_model(8).state_dtype == np.uint8
        assert igt_model(254).state_dtype == np.uint8
        assert igt_model(255).state_dtype == np.uint16

    @pytest.mark.parametrize("pair_order", [False, True],
                             ids=["peel", "pair-order"])
    def test_wide_state_space_does_not_wrap(self, pair_order):
        # 300 states in uint16: u * S reaches 89,700, past 2^16.
        s, steps = 300, 6000
        table = np.empty((s, s, 2), dtype=np.int64)
        table[:, :, 0] = np.maximum.outer(np.arange(s), np.arange(s))
        table[:, :, 1] = np.arange(s)[None, :]
        model = TableModel(table)
        states = np.random.default_rng(5).integers(0, s, 2000)
        engine = AgentBackend(model, states, seed=4)
        if pair_order:
            in_pair_order(engine)
        assert engine.states_live.dtype == np.uint16
        engine.run(steps)
        reference = AgentBackend(GenericTable(table), states, seed=4)
        reference.run(steps)
        np.testing.assert_array_equal(engine.states, reference.states)


class TwoWayImitation(ImitationModel):
    """Imitation whose model agent copies the initiator back: a 4-slot
    model that writes its responder."""

    @property
    def one_way(self) -> bool:
        return False

    def apply(self, initiators, responders, uniforms, observed=None):
        new_u, _ = super().apply(initiators, responders, uniforms, observed)
        return new_u, initiators


class TestKernelValidation:
    @pytest.mark.parametrize("model", [
        TwoWayImitation(PAYOFFS),
        PairMixtureTableModel(TWO_WAY_TABLE, TWO_WAY_TABLE[::-1],
                              np.full((3, 3), 0.5)),
    ], ids=["four-slot", "two-slot"])
    def test_two_way_stochastic_models(self, model):
        # A two-way pairwise stochastic model peels by agent-disjointness;
        # a 4-slot one is refused, as the peel reads observed agents only
        # beside a one-way write.
        states = np.zeros(10, dtype=model.state_dtype)
        counts = np.bincount(states, minlength=model.n_states)
        if model.slots_per_step == 4:
            with pytest.raises(InvalidParameterError, match="one-way"):
                ConflictFreeKernel(model, states, counts)
        else:
            assert not ConflictFreeKernel(model, states, counts).one_way

    def test_four_slot_tables_are_refused(self):
        class FourSlotTable(TableModel):
            slots_per_step = 4

        model = FourSlotTable(TWO_WAY_TABLE)
        states = np.zeros(10, dtype=model.state_dtype)
        with pytest.raises(InvalidParameterError, match="4-slot"):
            ConflictFreeKernel(model, states, np.bincount(states,
                                                          minlength=3))

    def test_table_models_honour_pair_order(self):
        # A pair-order kernel runs each whole chunk through the scalar
        # head, never the peel, and lands where the rounds do.
        model = igt_model(6)
        start = np.random.default_rng(2).integers(0, 8, 10).astype(np.uint8)
        pairs = np.random.default_rng(3).integers(0, 10, (2, 400))
        pairs = pairs[:, pairs[0] != pairs[1]]
        ends = []
        for kind in (PairOrderKernel, ConflictFreeKernel):
            states = start.copy()
            kernel = kind(model, states, np.bincount(states, minlength=8))
            kernel.apply_chunk(pairs[0], pairs[1])
            np.testing.assert_array_equal(
                kernel.counts, np.bincount(states, minlength=8))
            ends.append(states)
        np.testing.assert_array_equal(*ends)

    def test_auto_chunk_bounds(self):
        assert auto_chunk(2) == 1024
        assert auto_chunk(10_000) == 8192
        assert auto_chunk(10 ** 9) == 32768

    @pytest.mark.parametrize("n", [2, 10_000, 100_000])
    @pytest.mark.parametrize("name", sorted(STAMP_MODELS))
    def test_chunk_is_sized_by_population(self, name, n):
        # The kernel sizes its own chunks: auto_chunk(n), halved for
        # 4-slot models, whose pairs occupy twice the agents.
        model = STAMP_MODELS[name]()
        states = np.zeros(n, dtype=model.state_dtype)
        counts = np.bincount(states, minlength=model.n_states)
        kernel = ConflictFreeKernel(model, states, counts)
        expected = auto_chunk(n)
        if model.slots_per_step == 4:
            expected = max(MIN_CHUNK // 2, expected // 2)
        assert kernel.chunk == expected


class TestCountsFollowStates:
    """Every round moves the count vector by histograms of the states it
    leaves and enters, so after any run, observed or not, the counts are
    the states' histogram: one- and two-way tables, mixture components,
    a 40-state table, and stochastic 2- and 4-slot rounds."""

    MODELS = {
        **STAMP_MODELS,
        "mixture": lambda: igt_model(6, observation_noise=0.1),
        "wide-table": lambda: wide_table_model(40),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_counts_are_the_states_histogram(self, name):
        model = self.MODELS[name]()
        states = np.random.default_rng(8).integers(0, model.n_states, 3000)
        engine = AgentBackend(model, states, seed=9)
        for kwargs in ({}, {"observe_every": 2500}):
            engine.run(10_000, **kwargs)
            np.testing.assert_array_equal(
                engine.counts, np.bincount(engine.states,
                                           minlength=model.n_states))


class TestCountProxyPath:
    def test_proxy_and_birthday_conserve_population(self, epidemic):
        counts = np.array([400, 500, 100])
        for engine in (CountBackend, birthday(CountBackend)):
            backend = engine(epidemic, counts, seed=4)
            result = backend.run(25_000)
            assert result.counts.sum() == 1000
            assert (result.counts >= 0).all()

    @pytest.mark.parametrize("model", [
        matrix_game_model(PAYOFFS, "logit", eta=1.5),
        PairMixtureTableModel(TWO_WAY_TABLE, TWO_WAY_TABLE[::-1],
                              np.full((3, 3), 0.5)),
    ], ids=["one-way", "two-way"])
    def test_every_pairwise_model_runs_on_the_proxy(self, model):
        counts = np.full(model.n_states, 300)
        backend = CountBackend(model, counts, seed=4)
        assert backend._kernel is not None
        assert backend.run(20_000).counts.sum() == counts.sum()

    def test_imitation_runs_on_the_proxy(self):
        # A one-way stochastic 4-slot model: the uniform proxy draws its
        # observed agents through the pair law, as the agent kernel does.
        imitation = matrix_game_model(np.array([[0.0, 2.0], [1.0, 0.0]]),
                                      "imitation")
        backend = CountBackend(imitation, np.array([5, 5]), seed=0)
        assert backend._kernel is not None
        result = backend.run(500, observe_every=50)
        assert result.counts.sum() == 10
        assert all(c.sum() == 10 for _, c in result.observations)
        # A 4-slot model the kernel refuses takes the birthday path.
        backend = CountBackend(TwoWayImitation(PAYOFFS), np.array([5, 5]),
                               seed=0)
        assert backend._kernel is None
        assert backend.run(500).counts.sum() == 10

    def test_proxy_observations_and_stop(self, epidemic):
        counts = np.array([999, 0, 1])
        backend = CountBackend(epidemic, counts, seed=8)
        assert backend._kernel is not None
        result = backend.run(500_000, stop_when=lambda c: c[2] == 1000,
                             observe_every=10_000, check_stop_every=100)
        assert result.converged
        assert result.steps % 100 == 0
        assert all(c.sum() == 1000 for _, c in result.observations)

    def test_early_stop_mid_batch_on_both_paths(self, epidemic):
        # An early stop mid-batch discards the remainder: the engine
        # stops at the firing check with the counts the predicate saw,
        # and checked every interaction, the epidemic (one infection at
        # most per interaction) stops on exactly 600 inert agents.
        for engine in (CountBackend, birthday(CountBackend)):
            backend = engine(epidemic, np.array([900, 0, 100]), seed=6)
            result = backend.run(200_000,
                                 stop_when=lambda c: c[2] >= 600,
                                 check_stop_every=1)
            assert result.converged
            assert result.steps == backend.steps_run < 200_000
            assert result.counts[2] == 600
            assert result.counts.sum() == 1000


class NoProbs(MixtureTableModel):
    """Two component tables that declare no probabilities."""

    @property
    def component_probs(self):
        return None


def no_probs_model() -> NoProbs:
    return NoProbs(igt_model(6, observation_noise=0.2).component_tables,
                   [0.8, 0.2])


class TestComponentProbsRequired:
    """Each interaction's uniform picks its component table by the
    model's ``component_probs``, so a model with several tables must
    declare them: every engine and path refuses one that does not at
    construction, before its first pair, instead of applying table 0
    to every pair."""

    def test_agent_refuses(self):
        with pytest.raises(InvalidParameterError, match="component_probs"):
            AgentBackend(no_probs_model(), igt_states(200), seed=1)

    def test_kernel_refuses(self):
        states = np.zeros(10, dtype=np.uint8)
        with pytest.raises(InvalidParameterError, match="component_probs"):
            ConflictFreeKernel(no_probs_model(), states,
                               np.bincount(states, minlength=8))

    @pytest.mark.parametrize("engine", [
        CountBackend, birthday(CountBackend)], ids=["proxy", "birthday"])
    def test_count_refuses(self, engine):
        counts = np.bincount(igt_states(5000), minlength=8)
        with pytest.raises(InvalidParameterError, match="component_probs"):
            engine(no_probs_model(), counts, seed=1)

    @pytest.mark.parametrize("engine", [
        WeightedCountBackend, birthday(WeightedCountBackend)],
        ids=["proxy", "birthday"])
    def test_weighted_refuses(self, engine):
        counts = np.bincount(igt_states(5000), minlength=8)
        initial = np.stack([counts // 2, counts - counts // 2])
        with pytest.raises(InvalidParameterError, match="component_probs"):
            engine(no_probs_model(), initial, [1.0, 4.0], seed=1)


class GenericTable(TableModel):
    """A table model without tables: the kernel's stochastic path, which
    draws (and ignores) one uniform per interaction."""

    @property
    def component_tables(self):
        return None


def igt_top_into_ac(mode: str, k: int = 6) -> TableModel:
    """k-IGT whose top GTFT index increments into AC instead of staying.

    Under the standard rule AC reads as non-AD, like GTFT, so the write
    keeps the agent's class; under the strict rule AC is a class of its
    own, so it crosses classes.
    """
    table = igt_model(k, mode).table
    table[k - 1, table[k - 2, :, 0] == k - 1, 0] = k
    return TableModel(table)


#: Models with component tables.  Read-free: k-IGT's three rules and a
#: variant whose writes change state but not class.  One-way with
#: reads: the max tables and strict k-IGT into AC, whose writes cross
#: classes.
TABLE_MODELS = {
    "igt": lambda: igt_model(6),
    "noisy-igt": lambda: igt_model(6, observation_noise=0.1),
    "strict-igt": lambda: igt_model(6, "strict"),
    "igt-into-ac": lambda: igt_top_into_ac("strategy"),
    "strict-igt-into-ac": lambda: igt_top_into_ac("strict"),
    "max-3": lambda: wide_table_model(3),
    "max-5": lambda: wide_table_model(5),
}


#: Models without component tables, one per peel shape: one-way with
#: reads (logit, action-mode k-IGT with its inert filter), 4-slot
#: (imitation) and two-way.
STOCHASTIC_MODELS = {
    "logit": STAMP_MODELS["one-way-stochastic"],
    "imitation": STAMP_MODELS["four-slot"],
    "action-igt": lambda: igt_action_model(
        GenerosityGrid(k=6, g_max=0.6),
        RDSetting(b=4.0, c=1.0, delta=0.7, s1=0.5)),
    "two-way": lambda: PairMixtureTableModel(
        TWO_WAY_TABLE, TWO_WAY_TABLE[::-1], np.full((3, 3), 0.5)),
}


class TestKernelMatchesLoops:
    """Over plain, observed and stop-checked runs, the kernel's peeled
    rounds keep the trajectory of its pair-order head, for table models
    and for a table disguised as a stochastic model, bit for bit, down
    to populations far below a chunk."""

    def run_plan(self, backend):
        backend.run(3000, observe_every=700)
        backend.run(2000, stop_when=lambda counts: False,
                    check_stop_every=50)
        backend.run(4000)

    @pytest.mark.parametrize("n", [4, 300, 5000])
    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_kernel_matches_the_table_loop(self, name, n):
        model = TABLE_MODELS[name]()
        states = np.random.default_rng(1).integers(0, model.n_states, n)
        loop = in_pair_order(AgentBackend(model, states, seed=4))
        kernel = AgentBackend(model, states, seed=4)
        self.run_plan(loop)
        self.run_plan(kernel)
        np.testing.assert_array_equal(loop.states, kernel.states)
        np.testing.assert_array_equal(loop.counts, kernel.counts)
        assert (loop.scheduler.rng.bit_generator.state
                == kernel.scheduler.rng.bit_generator.state)

    @pytest.mark.parametrize("n", [60, 5000])
    @pytest.mark.parametrize("name", sorted(STOCHASTIC_MODELS))
    def test_stochastic_peel_matches_pair_order(self, name, n):
        # Each interaction's uniform is drawn before its chunk runs, so
        # the peeled rounds apply it wherever pair order would.
        model = STOCHASTIC_MODELS[name]()
        states = np.random.default_rng(3).integers(0, model.n_states, n)
        loop = in_pair_order(AgentBackend(model, states, seed=7))
        kernel = AgentBackend(model, states, seed=7)
        self.run_plan(loop)
        self.run_plan(kernel)
        np.testing.assert_array_equal(loop.states, kernel.states)
        np.testing.assert_array_equal(loop.counts, kernel.counts)
        assert (loop.scheduler.rng.bit_generator.state
                == kernel.scheduler.rng.bit_generator.state)

    @pytest.mark.parametrize("n", [4, 300, 5000])
    def test_kernel_matches_the_generic_loop(self, n):
        # A one-table mixture and the same table as a stochastic model
        # both draw one uniform per interaction; the table peel and the
        # stochastic peel part neither the trajectory nor the generator.
        table = igt_model(6).table
        states = np.random.default_rng(2).integers(0, 8, n)
        kernel = AgentBackend(MixtureTableModel([table], [1.0]), states,
                              seed=9)
        loop = AgentBackend(GenericTable(table), states, seed=9)
        self.run_plan(kernel)
        self.run_plan(loop)
        np.testing.assert_array_equal(kernel.states, loop.states)
        np.testing.assert_array_equal(kernel.counts, loop.counts)
        assert (kernel.scheduler.rng.bit_generator.state
                == loop.scheduler.rng.bit_generator.state)

    def test_one_component_mixture_on_every_path(self):
        # A one-table mixture still draws a component per interaction,
        # in the peel and in pair order alike.
        model = MixtureTableModel([igt_model(6).table], [1.0])
        start = np.random.default_rng(1).integers(0, 8, 300)
        engines = [AgentBackend(model, start, seed=4),
                   in_pair_order(AgentBackend(model, start, seed=4))]
        for _ in range(2):
            for engine in engines:
                engine.run(3000)
            first = engines[0]
            for engine in engines[1:]:
                np.testing.assert_array_equal(engine.states, first.states)
                np.testing.assert_array_equal(engine.counts, first.counts)
                assert (engine.scheduler.rng.bit_generator.state
                        == first.scheduler.rng.bit_generator.state)


def stamp_maps(model) -> int:
    """Per-agent ``int32`` maps a new kernel over 10^6 agents allocates,
    read off its traced bytes."""
    n = 10**6
    states = np.zeros(n, dtype=model.state_dtype)
    counts = np.bincount(states, minlength=model.n_states)
    tracemalloc.start()
    try:
        ConflictFreeKernel(model, states, counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / (4 * n))


def kernel_is_read_free(model) -> bool:
    states = np.zeros(100, dtype=model.state_dtype)
    counts = np.bincount(states, minlength=model.n_states)
    return ConflictFreeKernel(model, states, counts).read_free


class TestReadFree:
    """A one-way table model is read-free when every write keeps its
    agent's responder class: reads then see only what no write changes,
    and the kernel orders each chunk by its writes alone."""

    READ_FREE = {
        "igt": lambda: igt_model(6),
        "strict-igt": lambda: igt_model(6, "strict"),
        "noisy-igt": lambda: igt_model(6, observation_noise=0.1),
        "weighted-igt": lambda: ProductStateModel(igt_model(6), 3),
        "igt-into-ac": lambda: igt_top_into_ac("strategy"),
    }
    WITH_READS = {
        "max-3": lambda: wide_table_model(3),
        "strict-igt-into-ac": lambda: igt_top_into_ac("strict"),
        "logit": lambda: matrix_game_model(PAYOFFS, "logit", eta=1.5),
        "imitation": lambda: matrix_game_model(PAYOFFS, "imitation"),
        "two-way": STAMP_MODELS["two-way"],
    }

    @pytest.mark.parametrize("name", sorted(READ_FREE))
    def test_read_free_models(self, name):
        assert kernel_is_read_free(self.READ_FREE[name]())

    @pytest.mark.parametrize("name", sorted(WITH_READS))
    def test_models_whose_reads_count(self, name):
        assert not kernel_is_read_free(self.WITH_READS[name]())

    @pytest.mark.parametrize("name", [
        "igt", "max-3", "logit", "action-igt", "imitation", "two-way"])
    def test_every_kernel_holds_one_stamp_map(self, name):
        # One int32 stamp map per agent on every peel: read-free, with
        # reads (2- and 4-slot, tables and stochastic models alike) and
        # agent-disjoint.
        model = {**self.READ_FREE, **self.WITH_READS,
                 **STOCHASTIC_MODELS}[name]()
        assert stamp_maps(model) == 1
