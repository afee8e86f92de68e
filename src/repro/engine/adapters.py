"""Builders turning the repo's domain objects into interaction models.

The engine layer inverts the seed architecture: protocols and games no
longer own simulation loops — they declare their transition law once,
through these factories, and either backend executes it.  A plain
population protocol needs no factory: its ``(S, S, 2)`` transition table
is a :class:`~repro.engine.model.TableModel` as it is.

* :func:`igt_update` — the k-IGT rule itself (Definition 2.1), the one
  implementation every k-IGT table below and Experiment E1 evaluate.
* :func:`igt_model` — the paper's k-IGT dynamics on an ``(α, β, γ)``
  population, over the ``k + 2`` states ``{g_1..g_k, AC, AD}`` (GTFT
  agents carry their grid index; AC/AD agents are inert).  Supports the
  strict variant and the observation-noise extension.
* :func:`igt_action_model` — the *action-observed* k-IGT variant
  (Remark, Section 2.2): the probability that the initiator classifies
  its partner as AD (the partner defected in every round of the
  repeated game) is computed exactly per strategy pair, so either
  backend matches Monte-Carlo game play in distribution without playing
  a single game.
* :func:`matrix_game_model` — the population game-dynamics rules of
  :mod:`repro.core.general_games` (imitation / best response / logit).
"""

from __future__ import annotations

import numpy as np

from repro.engine.model import (
    ImitationModel,
    InteractionModel,
    LogitResponseModel,
    MixtureTableModel,
    PairMixtureTableModel,
    TableModel,
)
from repro.utils import check_positive_int, check_probability
from repro.utils.errors import InvalidParameterError


def igt_update(index, k: int, reads_ad, partner_ac=False,
               strict: bool = False) -> np.ndarray:
    """The k-IGT rule (Definition 2.1, Figure 1), vectorized.

    The next grid index of GTFT initiators at ``index`` (``0..k-1``):
    ``Dec`` (truncated at ``0``) when the initiator reads its partner as
    AD, ``Inc`` (truncated at ``k - 1``) otherwise.  The strict variant
    (Remark after Proposition 2.2) leaves the index unchanged after an AC
    partner.  ``index``, ``reads_ad`` and ``partner_ac`` broadcast; an
    ``index`` outside ``0..k-1`` is refused.
    """
    k = check_positive_int("k", k)
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise InvalidParameterError(
            f"index must hold integers, got dtype {index.dtype}")
    outside = (index < 0) | (index >= k)
    if outside.any():
        raise InvalidParameterError(
            f"index must lie in 0..{k - 1}, got {index[outside].flat[0]}")
    moved = np.minimum(index + 1, k - 1)
    if strict:
        moved = np.where(partner_ac, index, moved)
    return np.where(reads_ad, np.maximum(index - 1, 0), moved)


def _igt_table(k: int, reads_ad, strict: bool = False) -> np.ndarray:
    """k-IGT joint transition table over ``k + 2`` states.

    States ``0..k-1`` are GTFT generosity indices, ``k`` is AC, ``k+1`` is
    AD.  Only GTFT initiators move, by :func:`igt_update`; ``reads_ad``
    (a scalar, or an array over the partner state) is the initiator's
    AD / non-AD reading of its partner.  The responder never moves.
    """
    ids = np.arange(k + 2)
    table = np.empty((k + 2, k + 2, 2), dtype=np.int64)
    table[:, :, 0] = ids[:, None]
    table[:k, :, 0] = igt_update(ids[:k, None], k, reads_ad, ids == k,
                                 strict)
    table[:, :, 1] = ids
    return table


def igt_model(k: int, mode: str = "strategy",
              observation_noise: float = 0.0) -> InteractionModel:
    """Engine model of the k-IGT dynamics (Definition 2.1).

    Parameters
    ----------
    k:
        Generosity-grid size (``>= 2``); the model has ``k + 2`` states.
    mode:
        ``"strategy"`` (standard rule) or ``"strict"`` (AC partners do not
        trigger increments).  The ``"action"`` mode has its own model,
        :func:`igt_action_model`.
    observation_noise:
        Probability of flipping the initiator's AD / non-AD reading
        (``mode="strategy"`` only, mirroring
        :class:`~repro.core.population_igt.IGTSimulation`).
    """
    if k < 2:
        raise InvalidParameterError(f"k must be at least 2, got {k}")
    if mode not in ("strategy", "strict"):
        raise InvalidParameterError(
            f"igt_model supports modes 'strategy' and 'strict', got {mode!r}")
    observation_noise = check_probability("observation_noise",
                                          observation_noise)
    strict = mode == "strict"
    if observation_noise > 0 and strict:
        raise InvalidParameterError(
            "observation_noise applies to mode='strategy' only")
    partner_ad = np.arange(k + 2) == k + 1
    base = _igt_table(k, partner_ad, strict=strict)
    if observation_noise == 0:
        return TableModel(base)
    flipped = _igt_table(k, ~partner_ad)
    return MixtureTableModel([base, flipped],
                             [1.0 - observation_noise, observation_noise])


def igt_action_model(grid, setting) -> PairMixtureTableModel:
    """Engine model of the action-observed k-IGT rule.

    In ``mode="action"`` a GTFT initiator plays a real δ-repeated game
    and decrements iff its partner defected in every round.  That
    classification is Bernoulli with a probability depending only on the
    two players' *strategies* — computed exactly per state pair by
    :func:`repro.games.repeated.always_defect_probability` — so the law
    is a :class:`PairMixtureTableModel`: the decrement table with
    probability ``p_AD(u, v)``, the increment table otherwise.
    Distribution-identical to Monte-Carlo game play, no game transcripts
    required.

    Parameters
    ----------
    grid:
        The :class:`~repro.core.igt.GenerosityGrid` (``k`` GTFT states).
    setting:
        The :class:`~repro.core.equilibrium.RDSetting` providing the
        donation game, continuation probability ``δ``, and GTFT round-1
        cooperation probability ``s1``.
    """
    from repro.games.repeated import always_defect_probability
    from repro.games.strategies import (
        always_cooperate,
        always_defect,
        generous_tit_for_tat,
    )

    k = grid.k
    s = k + 2
    strategies = [generous_tit_for_tat(gv, setting.s1)
                  for gv in grid.values]
    strategies.append(always_cooperate())
    strategies.append(always_defect())
    probs = np.zeros((s, s))
    for u in range(k):  # only GTFT initiators classify
        for v in range(s):
            probs[u, v] = always_defect_probability(
                strategies[u], strategies[v], setting.delta)
    return PairMixtureTableModel(_igt_table(k, True), _igt_table(k, False),
                                 probs)


def matrix_game_model(payoffs, rule: str, p_update: float = 0.5,
                      eta: float = 1.0,
                      imitation_scale: float | None = None) -> InteractionModel:
    """Engine model of a population game-dynamics update rule.

    Parameters
    ----------
    payoffs:
        The symmetric game's row-payoff matrix (``S x S``).
    rule:
        ``"imitation"``, ``"best_response"``, or ``"logit"`` — the rules of
        :class:`~repro.core.general_games.PopulationGameSimulation`, with
        identical laws.
    p_update:
        Update probability of the best-response rule.
    eta:
        Inverse temperature of the logit rule.
    imitation_scale:
        Normalizer of the imitation rule's switch probability (defaults to
        the payoff span).
    """
    payoffs = np.asarray(payoffs, dtype=float)
    if payoffs.ndim != 2 or payoffs.shape[0] != payoffs.shape[1]:
        raise InvalidParameterError(
            f"payoffs must be a square matrix, got shape {payoffs.shape}")
    s = payoffs.shape[0]
    if rule == "imitation":
        return ImitationModel(payoffs, scale=imitation_scale)
    if rule == "best_response":
        p_update = check_probability("p_update", p_update)
        identity = np.empty((s, s, 2), dtype=np.int64)
        identity[:, :, 0] = np.arange(s)[:, None]
        identity[:, :, 1] = np.arange(s)[None, :]
        respond = identity.copy()
        respond[:, :, 0] = np.argmax(payoffs, axis=0)[None, :]
        if p_update >= 1.0:
            return TableModel(respond)
        return MixtureTableModel([identity, respond],
                                 [1.0 - p_update, p_update])
    if rule == "logit":
        return LogitResponseModel(payoffs, eta=eta)
    raise InvalidParameterError(
        f"rule must be 'imitation', 'best_response', or 'logit', "
        f"got {rule!r}")
