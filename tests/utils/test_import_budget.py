"""Import budget: numpy is the only heavy import a process pays at start.

scipy serves the exact-analysis helpers (stationary laws, the continuous
ε-DE optimisation) and is imported inside the functions that call it.
Every process the CLI starts — the ``repro`` parent, each
``spawn`` pool worker, the fabric coordinator, workers and sweep clients,
``repro simulate`` — runs what these probes run, so none may load scipy.
Each probe runs in a fresh interpreter: this test process imported scipy
long ago.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The directory holding the package under test (``src`` in a checkout).
PACKAGE_ROOT = Path(repro.__file__).resolve().parents[1]

#: Appended to every probe: prints the scipy modules it loaded.
REPORT = """
import sys
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def scipy_loaded_by(code: str, cwd) -> list:
    result = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)), cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", [
    "repro", "repro.cli", "repro.runner.executor", "repro.fabric.worker"])
def test_import_loads_no_scipy(module, tmp_path):
    assert scipy_loaded_by(f"import {module}\n", tmp_path) == []


@pytest.mark.parametrize("backend", ["agent", "count"])
def test_simulate_with_theory_report_loads_no_scipy(backend, tmp_path):
    code = ("import repro.cli\n"
            "assert repro.cli.main(['simulate', '--n', '2000', "
            f"'--backend', '{backend}']) == 0\n")
    assert scipy_loaded_by(code, tmp_path) == []


def test_sweep_pool_task_loads_no_scipy(tmp_path):
    """One E6 task, as each pool worker of an ``E6 --grid seed=...``
    sweep runs it."""
    code = ("from repro.runner.executor import run_task\n"
            "from repro.runner.plan import RunTask\n"
            "run_task(RunTask('E6', seed=0, backend='agent'))\n")
    assert scipy_loaded_by(code, tmp_path) == []


def test_import_repro_leaves_the_population_package_unloaded(tmp_path):
    """``repro.population`` keeps only the pair laws' old import path
    (``repro.population.scheduler``); ``import repro`` never loads it."""
    code = ("import sys, repro\n"
            "assert not [m for m in sys.modules\n"
            "            if m.startswith('repro.population')], sys.modules\n")
    assert scipy_loaded_by(code, tmp_path) == []


def test_probe_sees_a_scipy_caller(tmp_path):
    """The probe is not vacuous: a helper that calls scipy loads it."""
    code = ("from repro.markov.distributions import binomial_pmf\n"
            "binomial_pmf(2, 5, 0.3)\n")
    assert "scipy.special" in scipy_loaded_by(code, tmp_path)
