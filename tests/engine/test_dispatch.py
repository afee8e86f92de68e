"""Unit tests for the ``backend="auto"`` dispatcher."""

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.equilibrium import RDSetting
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.engine import check_backend, resolve_backend
from repro.utils import InvalidParameterError


class TestCheckBackend:
    def test_concrete_names(self):
        assert check_backend("agent") == "agent"
        assert check_backend("count") == "count"

    def test_auto_needs_opt_in(self):
        with pytest.raises(InvalidParameterError):
            check_backend("auto")
        assert check_backend("auto", allow_auto=True) == "auto"

    def test_unknown_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_backend("gpu", allow_auto=True)


class TestChooseBackend:
    """What ``resolve_backend`` picks for ``"auto"`` (and ``None``): the
    agent backend below each measured crossover, count from it on."""

    def test_crossover_decides(self):
        assert resolve_backend("auto", n=999) == "agent"
        assert resolve_backend("auto", n=1000) == "count"

    @pytest.mark.parametrize("n, resolved", [(999, "agent"),
                                             (1000, "count")])
    def test_action_mode_resolves_like_strategy_mode(self, n, resolved):
        sim = IGTSimulation(n=n, shares=PopulationShares(0.3, 0.2, 0.5),
                            grid=GenerosityGrid(k=3, g_max=0.6), seed=0,
                            mode="action",
                            setting=RDSetting(4.0, 1.0, 0.7, 0.5),
                            backend="auto")
        assert sim.backend == resolved

    def test_weighted_crossover_decides(self):
        assert resolve_backend("auto", n=2635, weighted=True) == "agent"
        assert resolve_backend("auto", n=2636, weighted=True) == "count"
        # Without the weighted flag the strategy crossover rules.
        assert resolve_backend("auto", n=2635) == "count"
        # A graph forces the agent backend before any crossover.
        assert resolve_backend("auto", n=10 ** 9, weighted=True,
                               graph_restricted=True) == "agent"

    def test_resolve_passthrough_and_auto(self):
        assert resolve_backend("agent", n=10 ** 9) == "agent"
        assert resolve_backend("count", n=2) == "count"
        resolved = resolve_backend("auto", n=10 ** 9)
        assert resolved == "count"
        assert resolve_backend(None, n=10 ** 9) == resolved
        with pytest.raises(InvalidParameterError):
            resolve_backend("gpu", n=10)


#: Resolves ``auto`` for a weighted n=2000 IGT population and runs it.
#: Prints where ``repro`` was imported from, then the resolved engine,
#: the source fingerprint, and the final counts.
PROBE = """
import repro
from repro.core.igt import GenerosityGrid
from repro.core.population_igt import IGTSimulation, PopulationShares
from repro.runner.cache import code_version

sim = IGTSimulation(
    n=2000, shares=PopulationShares(alpha=0.3, beta=0.2, gamma=0.5),
    grid=GenerosityGrid(k=4, g_max=0.6), seed=3, weights="powerlaw",
    backend="auto")
sim.run(20_000)
print(repro.__file__)
print(sim.backend, code_version(), *sim.counts)
"""


class TestAutoIsSourceDetermined:
    def test_package_copy_without_bench_file_agrees(self, tmp_path):
        """``auto`` is a function of the source alone.

        A bare copy of the package (an installed wheel, a fabric
        worker's tree) shares the checkout's ``code_version`` and so
        every cache key; it must resolve the same engine and run the
        same trajectory.
        """
        site = tmp_path / "site"
        shutil.copytree(Path(repro.__file__).resolve().parent,
                        site / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        copy = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=dict(os.environ, PYTHONPATH=str(site)), cwd=tmp_path,
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.splitlines()
        checkout = io.StringIO()
        with contextlib.redirect_stdout(checkout):
            exec(PROBE, {})
        checkout = checkout.getvalue().splitlines()
        assert copy[0].startswith(str(site))
        assert checkout[0] == repro.__file__
        assert copy[1] == checkout[1]
