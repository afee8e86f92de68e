"""E1 — Figure 1: the k-IGT update rule for k = 6.

Regenerates the figure's content as a table: for every grid value, the
destination after meeting AC/GTFT (probability ``1 − β``) and after meeting
AD (probability ``β``), with truncation at both ends — exactly the three
panel cases the figure illustrates (interior bump, truncated decrement at
``g_1``, truncated increment at ``g_6``).
"""

from __future__ import annotations

import numpy as np

from repro.core.igt import AgentType, GenerosityGrid
from repro.engine import igt_update
from repro.experiments.base import ExperimentReport, register
from repro.params import Param, ParamSpace

PARAMS = ParamSpace(
    Param("k", "int", 6, minimum=2, maximum=100_000,
          help="generosity grid size (the figure uses k = 6)"),
    Param("g_max", "float", 1.0, minimum=1e-9, maximum=1.0,
          help="maximum generosity value g_k"),
)


@register("E1", "Figure 1 — k-IGT update rule (k = 6)", params=PARAMS)
def run(params=None, seed=None) -> ExperimentReport:
    """Tabulate the figure's update rule and check its three cases."""
    params = PARAMS.resolve() if params is None else params
    grid = GenerosityGrid(k=params["k"], g_max=params["g_max"])
    k = grid.k
    index = np.arange(k)
    on_ac, on_gtft, on_ad = (
        igt_update(index, k, reads_ad=kind == AgentType.AD,
                   partner_ac=kind == AgentType.AC)
        for kind in (AgentType.AC, AgentType.GTFT, AgentType.AD))
    rows = [[f"g_{j + 1}", round(grid.value(j), 4),
             f"g_{ac + 1} (w.p. 1-beta)", f"g_{gtft + 1} (w.p. 1-beta)",
             f"g_{ad + 1} (w.p. beta)"]
            for j, ac, gtft, ad in zip(range(k), on_ac.tolist(),
                                       on_gtft.tolist(), on_ad.tolist())]

    checks = {
        "interior increments move one step up":
            np.array_equal(on_ac[:-1], index[1:])
            and np.array_equal(on_gtft[:-1], index[1:]),
        "interior decrements move one step down":
            np.array_equal(on_ad[1:], index[:-1]),
        "decrement truncates at g_1": bool(on_ad[0] == 0),
        f"increment truncates at g_{k}": bool(
            on_ac[-1] == k - 1 and on_gtft[-1] == k - 1),
        "grid is the equidistant discretization of [0, g_max]": all(
            abs(grid.value(j) - grid.g_max * j / (grid.k - 1)) < 1e-15
            for j in range(grid.k)),
    }
    return ExperimentReport(
        experiment_id="E1",
        title="Figure 1 — k-IGT update rule (k = 6)",
        claim=("A GTFT initiator increments its generosity (w.p. 1-beta in "
               "the partner draw) and decrements after AD partners (w.p. "
               "beta), truncated to [g_1, g_6]."),
        headers=["state", "g value", "after AC", "after GTFT", "after AD"],
        rows=rows,
        checks=checks,
    )
