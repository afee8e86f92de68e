"""The paper's headline trade-off: time vs space vs approximation.

For growing grid size k, a GTFT agent needs linearly more local states and
the dynamics needs linearly more interactions to mix (Theorem 2.7), but the
resulting distributional equilibrium tightens as epsilon = O(1/k)
(Theorem 2.9).  This script regenerates that trade-off with a measured
convergence column from the paper's own coordinate coupling, and contrasts
the effective regime with a regime that passes the paper's literal
conditions but stalls (see the reproduction note in the docstring of
repro.core.regimes.payoff_increase_margin).

Run with:  python examples/equilibrium_tradeoffs.py
"""

from repro import GenerosityGrid, de_gap, mean_stationary_mu, tradeoff_table
from repro.analysis.tables import format_table
from repro.core.regimes import (
    default_theorem_2_9_setting,
    literal_only_theorem_2_9_setting,
    payoff_increase_margin,
)


def main():
    setting, shares, g_max = default_theorem_2_9_setting()
    print("Effective regime (deviation payoff strictly increasing, "
          f"margin = {payoff_increase_margin(setting, shares, g_max):+.2f}):")
    rows = []
    for row in tradeoff_table([2, 4, 8, 16], setting, shares, g_max,
                              n=300, measure=True, coupling_samples=6,
                              seed=0):
        rows.append([row.k, row.states_per_agent,
                     f"{row.mixing_lower:.0f}", f"{row.measured_mixing:.0f}",
                     f"{row.mixing_upper:.0f}", f"{row.psi:.5f}",
                     f"{row.psi_times_k:.3f}"])
    print(format_table(
        ["k", "states/agent", "Omega(kn) lower", "measured (coupling)",
         "O(kn log n) upper", "Psi (epsilon)", "Psi * k"], rows))
    print()
    print("Larger k: linearly more memory and interactions, but Psi*k stays")
    print("bounded - the epsilon = O(1/k) guarantee of Theorem 2.9.")
    print()

    lit_setting, lit_shares, lit_g_max = literal_only_theorem_2_9_setting()
    print("Literal-only regime (passes the paper's printed conditions, "
          f"margin = {payoff_increase_margin(lit_setting, lit_shares, lit_g_max):+.2f}):")
    rows = []
    for k in (2, 4, 8, 16, 32):
        grid = GenerosityGrid(k=k, g_max=lit_g_max)
        mu = mean_stationary_mu(k, beta=lit_shares.beta)
        psi = de_gap(mu, grid, lit_setting, lit_shares)
        rows.append([k, f"{psi:.5f}", f"{psi * k:.3f}"])
    print(format_table(["k", "Psi", "Psi * k"], rows))
    print()
    print("Here the best response is zero generosity and Psi stalls at a")
    print("constant - the reproduction finding documented in the note of")
    print("repro.core.regimes.payoff_increase_margin.")


if __name__ == "__main__":
    main()
