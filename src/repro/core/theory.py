"""The paper's quantitative bound formulas (Theorems 2.5/2.7, Lemma A.8).

These are the *theory columns* of the benchmark tables: concrete evaluations
of the paper's asymptotic bounds, with the explicit constants from the
proofs where the paper provides them (Lemma A.8's ``2Φ·log(4m)`` coupling
bound and Proposition A.9's ``km/2`` diameter bound).  The bounds
themselves are :class:`~repro.markov.ehrenfest.EhrenfestProcess` methods;
the functions here evaluate them on the k-IGT embedding.
"""

from __future__ import annotations

from repro.core.population_igt import PopulationShares
from repro.core.stationary import igt_ehrenfest_parameters
from repro.markov.ehrenfest import EhrenfestProcess
from repro.utils import check_positive_int


def igt_mixing_upper_bound(k: int, shares: PopulationShares, n: int) -> float:
    """Theorem 2.7 upper bound for the k-IGT dynamics, in *interactions*.

    Lemma A.8's ``2Φ·log(4m)``
    (:meth:`~repro.markov.ehrenfest.EhrenfestProcess.mixing_time_upper_bound`)
    at the idealized embedding ``a = γ(1−β)``, ``b = γβ``, ``m = γn``;
    note ``a − b = γ(1−2β)``, recovering the paper's
    ``O(min{k/|1−2β|, k²}·n·log n)`` statement (the extra ``1/γ`` and the
    ``log`` constant are absorbed into the O(·) there).  Refuses
    ``β = 0``, where the embedding has no down-moves.
    """
    a, b, m = igt_ehrenfest_parameters(shares, n)
    return EhrenfestProcess(k, a, b, m).mixing_time_upper_bound()


def igt_mixing_lower_bound(k: int, shares: PopulationShares, n: int) -> float:
    """Theorem 2.7 lower bound ``Ω(kn)``: concretely ``k·(γn)/2``.

    Proposition A.9's diameter bound depends on ``k`` and ``m = γn``
    alone, so it holds at ``β = 0`` too; the process is built with
    placeholder rates.
    """
    _, _, m = shares.agent_counts(n)
    return EhrenfestProcess(k, 0.5, 0.5, m).mixing_time_lower_bound()


def per_agent_state_count(k: int) -> int:
    """Local memory: a GTFT agent must distinguish ``k`` grid values.

    This is the "space" axis of the paper's trade-off discussion
    (Section 2.5): the required local state space grows linearly in ``k``.
    """
    return check_positive_int("k", k, minimum=2)


def theorem_2_9_epsilon_rate(k: int, constant: float = 1.0) -> float:
    """The Theorem 2.9 approximation guarantee shape ``ε = C/k``.

    The paper proves ``ε = O(1/k)`` without an explicit constant; the
    benchmarks fit ``C`` empirically and verify it stays bounded in ``k``.
    """
    k = check_positive_int("k", k, minimum=2)
    return constant / k
