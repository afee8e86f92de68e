"""Statistics and table rendering for the experiment reports.

The power-law fit behind the experiments' scaling checks, and the
plain-text tables and sparklines the reports and the CLI render.
Parameter grids run through :mod:`repro.runner`
(:func:`~repro.runner.grid_plan` + :func:`~repro.runner.execute`).
"""

from repro.analysis.stats import fit_power_law
from repro.analysis.tables import format_table, sparkline

__all__ = [
    "fit_power_law",
    "format_table",
    "sparkline",
]
