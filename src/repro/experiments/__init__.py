"""Experiment harness: one module per paper artifact (E1–E16).

Every theorem, proposition, and figure in the paper has an experiment that
regenerates it as a theory-vs-measured table (``repro list`` prints the
full index).  Each module registers a runner with the shared registry; run
them via::

    python -m repro list
    python -m repro run E7
    python -m repro run all --profile full

or through the pytest-benchmark harness in ``benchmarks/``.
"""

from repro.experiments.base import (
    ExperimentReport,
    ExperimentSpec,
    all_experiments,
    experiment_params,
    get_experiment,
    get_spec,
    run_experiment,
)

# Importing the modules registers their runners.
from repro.experiments import (  # noqa: F401  (imported for side effects)
    e01_figure1_igt_rule,
    e02_figure2_transition_graph,
    e03_stationary_multinomial,
    e04_mixing_time_scaling,
    e05_igt_stationary,
    e06_average_generosity,
    e07_epsilon_de_decay,
    e08_local_optimality,
    e09_tradeoff_table,
    e10_payoff_formulas,
    e11_absorption_coupling,
    e12_generosity_bound,
    e13_cutoff_profile,
    e14_ablations,
    e15_mean_field,
    e16_zd_tournament,
)

__all__ = [
    "ExperimentReport",
    "ExperimentSpec",
    "all_experiments",
    "experiment_params",
    "get_experiment",
    "get_spec",
    "run_experiment",
]
