"""Statistics and table rendering for the experiment reports.

Power-law fits, confidence intervals and goodness-of-fit tests for
theory-vs-measured checks, and the plain-text tables and sparklines the
reports and the CLI render.  Parameter grids run through
:mod:`repro.runner` (:func:`~repro.runner.grid_plan` +
:func:`~repro.runner.execute`).
"""

from repro.analysis.stats import (
    bootstrap_confidence_interval,
    chi_square_goodness_of_fit,
    fit_power_law,
    mean_confidence_interval,
)
from repro.analysis.tables import format_table, sparkline

__all__ = [
    "mean_confidence_interval",
    "bootstrap_confidence_interval",
    "chi_square_goodness_of_fit",
    "fit_power_law",
    "format_table",
    "sparkline",
]
