"""The headline time/space/approximation trade-off (Sections 2.4–2.5).

For growing ``k``: the per-agent state space grows linearly, the mixing time
grows linearly (Theorem 2.7), and the DE approximation factor shrinks as
``O(1/k)`` (Theorem 2.9).  :func:`tradeoff_table` materializes this as one
row per ``k`` — the table Experiment E9 regenerates — optionally attaching a
*measured* convergence estimate from the paper's own coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.equilibrium import RDSetting, de_gap, mean_stationary_mu
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import PopulationShares
from repro.core.stationary import igt_ehrenfest_process
from repro.core.theory import (
    igt_mixing_lower_bound,
    igt_mixing_upper_bound,
    per_agent_state_count,
)
from repro.markov.coupling import coupling_mixing_estimate, coupling_time_samples
from repro.utils import check_positive_int


@dataclass(frozen=True)
class TradeoffRow:
    """One row of the trade-off table.

    Attributes
    ----------
    k:
        Grid size (also per-agent states — the space cost).
    mixing_lower, mixing_upper:
        Theorem 2.7 bounds in interactions.
    measured_mixing:
        Coupling-based convergence estimate in interactions (``None`` when
        measurement was disabled).
    psi:
        Exact DE gap of the mean stationary distribution (Theorem 2.9's ε).
    psi_times_k:
        ``Ψ·k`` — bounded iff the ``O(1/k)`` rate holds.
    """

    k: int
    states_per_agent: int
    mixing_lower: float
    mixing_upper: float
    measured_mixing: float | None
    psi: float
    psi_times_k: float


def tradeoff_table(ks, setting: RDSetting, shares: PopulationShares,
                   g_max: float, n: int, measure: bool = False,
                   coupling_samples: int = 8, seed=None) -> list[TradeoffRow]:
    """Build the trade-off table for grid sizes ``ks``.

    Parameters
    ----------
    ks:
        Iterable of grid sizes ``k >= 2``.
    setting, shares, g_max:
        The RD game setting and population (use
        :func:`~repro.core.regimes.default_theorem_2_9_setting` for a
        regime-valid instance).
    n:
        Population size used for the mixing columns.
    measure:
        When true, also measure convergence empirically via the coordinate
        coupling on the embedded Ehrenfest process (moderately expensive).
    coupling_samples:
        Number of coupling runs per ``k`` when measuring.
    seed:
        Seed or generator for the measurements.
    """
    n = check_positive_int("n", n, minimum=2)
    rows = []
    for k in ks:
        k = check_positive_int("k", k, minimum=2)
        grid = GenerosityGrid(k=k, g_max=g_max)
        mu = mean_stationary_mu(k, beta=shares.beta)
        psi = de_gap(mu, grid, setting, shares)
        measured = None
        if measure:
            process = igt_ehrenfest_process(shares, n, grid)
            times = coupling_time_samples(process, coupling_samples, seed=seed)
            measured = coupling_mixing_estimate(times)
        rows.append(TradeoffRow(
            k=k,
            states_per_agent=per_agent_state_count(k),
            mixing_lower=igt_mixing_lower_bound(k, shares, n),
            mixing_upper=igt_mixing_upper_bound(k, shares, n),
            measured_mixing=measured,
            psi=psi,
            psi_times_k=psi * k,
        ))
    return rows
