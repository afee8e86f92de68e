"""The composition batch against the per-slot batch it replaced.

For models with component tables, :class:`~repro.engine.CountBackend`
draws a clean run's *cell counts* — (component, initiator state,
responder class) — from compositions alone, splits them over checkpoint
segments by hypergeometric draws, and resolves the collision that ends
the run from state histograms.  Test-local copies of the per-slot batch
(sample, expand into slots, shuffle, tally per interaction) and of the
token resolver (which tracked every touched agent's identity) are the
references: at small ``n``, where every law has few outcomes, the two
sides' outcome frequencies must agree by a chi-square homogeneity test.
"""

from collections import Counter

import numpy as np
import pytest
from scipy import stats

from repro.engine import (
    CountBackend,
    MixtureTableModel,
    TableModel,
    igt_model,
)
from repro.engine.count import sample_without_replacement
from repro.engine.model import InteractionModel

DRAWS = 6000


def homogeneity_p(left, right) -> float:
    """Chi-square p-value that two outcome samples share one law.

    Outcomes seen fewer than 10 times in both samples together are
    pooled into one category.
    """
    left, right = Counter(left), Counter(right)
    keys = sorted(set(left) | set(right))
    common = [key for key in keys if left[key] + right[key] >= 10]
    rare = [key for key in keys if left[key] + right[key] < 10]
    table = [[left[key] for key in common], [right[key] for key in common]]
    if rare:
        table[0].append(sum(left[key] for key in rare))
        table[1].append(sum(right[key] for key in rare))
    return stats.chi2_contingency(np.array(table))[1]


def per_slot_cells(rng, chain, t, model, class_of) -> np.ndarray:
    """The per-slot batch: each interaction's cell, in execution order."""
    tables = model.component_tables
    classes = int(class_of.max()) + 1
    s = chain.size
    sampled = rng.multivariate_hypergeometric(chain, 2 * t)
    slots = np.repeat(np.arange(s), sampled)
    rng.shuffle(slots)
    component = np.zeros(t, dtype=np.int64)
    if len(tables) > 1:
        component = model.sample_components(rng, t)
    return (component * s + slots[0::2]) * classes + class_of[slots[1::2]]


#: Small models whose batches have few outcomes: name -> (model, counts,
#: track pair counts).  Cells are (component, initiator, responder class).
MODELS = {
    # One-way, one table: AC and the GTFT indices share a responder
    # class, AD has its own (4 states, 2 classes, 8 cells).
    "igt": (igt_model(2), np.array([3, 2, 2, 3]), False),
    # Tracked pair counts: one class per state (16 cells).
    "igt-tracked": (igt_model(2), np.array([3, 2, 2, 3]), True),
    # One-way mixture: copy the responder w.p. 0.6, else keep (8 cells).
    "mixture": (MixtureTableModel([[[[0, 0], [1, 1]], [[0, 0], [1, 1]]],
                                   [[[0, 0], [0, 1]], [[1, 0], [1, 1]]]],
                                  [0.6, 0.4]),
                np.array([3, 4]), False),
    # Two-way table: the responder moves too (4 cells).
    "two-way": (TableModel([[[0, 0], [1, 0]], [[1, 1], [0, 1]]]),
                np.array([3, 4]), False),
}


def cell_law(name):
    model, chain, track = MODELS[name]
    engine = CountBackend(model, chain, seed=0, vectorized=False,
                          track_pair_counts=track)
    law = engine._cells
    assert law is not None
    class_of = law.members.argmax(axis=1)
    return model, chain, law, class_of


@pytest.mark.parametrize("name", sorted(MODELS))
def test_cell_counts_match_per_slot_batch(name):
    model, chain, law, class_of = cell_law(name)
    cells = law.delta.shape[0]
    t = 2 if cells > 8 else 3
    rng = np.random.default_rng(11)
    composed = [tuple(law.draw(rng, sample_without_replacement(
        rng, chain, 2 * t), t)) for _ in range(DRAWS)]
    reference = [tuple(np.bincount(per_slot_cells(rng, chain, t, model,
                                                  class_of),
                                   minlength=cells))
                 for _ in range(DRAWS)]
    assert homogeneity_p(composed, reference) > 1e-4


@pytest.mark.parametrize("name", ["igt", "mixture", "two-way"])
def test_segment_compositions_match_per_slot_prefixes(name):
    # Three one-interaction segments: the outcome is the cells in
    # execution order, which the splits must make a uniform permutation
    # of the batch's cells.
    model, chain, law, class_of = cell_law(name)
    t, cuts = 3, [1, 2]
    rng = np.random.default_rng(12)

    def composed_order():
        drawn = law.draw(rng, sample_without_replacement(rng, chain, 2 * t),
                         t)
        used, parts = law.split(rng, drawn, cuts)
        cells = np.arange(drawn.size)[used]
        return tuple(int(cells[np.flatnonzero(part)[0]]) for part in parts)

    composed = [composed_order() for _ in range(DRAWS)]
    reference = [tuple(per_slot_cells(rng, chain, t, model, class_of))
                 for _ in range(DRAWS)]
    assert homogeneity_p(composed, reference) > 1e-4


@pytest.mark.parametrize("cuts", [[2], [1, 2, 4, 5]],
                         ids=["per-cut-draws", "label-order"])
def test_split_matches_random_order(cuts):
    # Six interactions over three occupied cells: one cut takes the
    # per-cut hypergeometric draws, four cuts the label-order branch.
    _, _, law, _ = cell_law("igt")
    cells = np.zeros(law.delta.shape[0], dtype=np.int64)
    cells[[1, 4, 6]] = [3, 2, 1]
    rng = np.random.default_rng(14)

    def composed():
        used, parts = law.split(rng, cells, cuts)
        full = np.zeros((len(parts), cells.size), dtype=np.int64)
        full[:, used] = parts
        return tuple(map(tuple, full))

    def reference():
        order = rng.permutation(np.repeat(np.arange(cells.size), cells))
        return tuple(tuple(np.bincount(order[lo:hi], minlength=cells.size))
                     for lo, hi in zip([0, *cuts], [*cuts, 6]))

    assert homogeneity_p([composed() for _ in range(DRAWS)],
                         [reference() for _ in range(DRAWS)]) > 1e-4


# ----------------------------------------------------------------------
# The collision interaction: histogram resolver vs token resolver
# ----------------------------------------------------------------------
def token_collision(rng, n, spp, t, uniforms, updated, pool) -> tuple:
    """The token resolver: slot states of the collision interaction.

    Tokens ``0..t·spp-1`` are the clean run's agents (current state
    ``updated[token]``); larger tokens are agents first seen in this
    interaction.
    """

    def rest_all_fresh(position, distinct):
        probability = 1.0
        for _ in range(position, spp):
            probability *= max(n - distinct, 0) / (n - 1.0)
            distinct += 1
        return probability

    prefix_slots = t * spp
    pool = list(pool)
    pool_total = n - prefix_slots
    fresh_states = []
    slot_states = [0] * spp
    slot_tokens = [0] * spp
    exclusions = (None, 0, 0, 1) if spp == 4 else (None, 0)
    distinct = prefix_slots
    need_repeat = True
    for position in range(spp):
        denominator = n if position == 0 else n - 1
        p_fresh = (n - distinct) / denominator
        if need_repeat:
            rest = rest_all_fresh(position + 1, distinct + 1)
            p_any = 1.0 - p_fresh * rest
            is_repeat = (uniforms[position + 1] * max(p_any, 1e-300)
                         < 1.0 - p_fresh)
        else:
            is_repeat = uniforms[position + 1] < 1.0 - p_fresh
        if is_repeat:
            need_repeat = False
            excluded = exclusions[position]
            if excluded is not None:
                barred = slot_tokens[excluded]
                token = int(rng.integers(distinct - 1))
                if token >= barred:
                    token += 1
            else:
                token = int(rng.integers(distinct))
            slot_tokens[position] = token
            if token < prefix_slots:
                slot_states[position] = int(updated[token])
            else:
                slot_states[position] = fresh_states[token - prefix_slots]
        else:
            pick = int(rng.integers(pool_total))
            state = 0
            acc = pool[0]
            while acc <= pick:
                state += 1
                acc += pool[state]
            pool[state] -= 1
            pool_total -= 1
            slot_tokens[position] = distinct
            fresh_states.append(state)
            slot_states[position] = state
            distinct += 1
    return tuple(slot_states)


class Recorder(InteractionModel):
    """An identity law that records every collision interaction's slot
    states."""

    def __init__(self, n_states: int, slots_per_step: int):
        self._s = n_states
        self.slots_per_step = slots_per_step
        self.seen = []

    @property
    def n_states(self) -> int:
        return self._s

    def apply(self, initiators, responders, rng, observed=None):
        return initiators, responders

    def apply_scalar(self, u, v, rng, observed=None):
        self.seen.append((u, v, *(observed or ())))
        return u, v


@pytest.mark.parametrize("spp, slots, updated", [
    (2, [0, 1, 2, 0, 1, 1], [1, 1, 2, 2, 1, 0]),
    (4, [0, 1, 2, 0, 1, 1, 2, 0], [1, 1, 2, 0, 2, 1, 2, 0]),
], ids=["pairwise", "observed"])
def test_collision_outcomes_match_token_resolver(spp, slots, updated):
    n, s = 12, 3
    slots, updated = np.array(slots), np.array(updated)
    t = slots.size // spp
    before = np.array([5, 4, 3])  # counts before the clean run
    pool = before - np.bincount(slots, minlength=s)
    touched = np.bincount(updated, minlength=s)
    model = Recorder(s, spp)
    engine = CountBackend(model, pool + touched, seed=0, vectorized=False)
    rng = np.random.default_rng(13)
    reference = [token_collision(rng, n, spp, t, rng.random(1 + spp),
                                 updated, pool) for _ in range(DRAWS)]
    for _ in range(DRAWS):
        engine._run_collision(t, rng.random(1 + spp), touched, pool)
    assert homogeneity_p(model.seen, reference) > 1e-4
