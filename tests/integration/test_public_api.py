"""Public-API integrity: every exported name resolves and is documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.markov",
    "repro.games",
    "repro.population",
    "repro.analysis",
    "repro.experiments",
    "repro.utils",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestPublicApi:
    def test_all_names_resolve(self, package_name):
        module = importlib.import_module(package_name)
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), (
                f"{package_name}.__all__ lists {name!r} but the attribute "
                "is missing")

    def test_all_names_documented(self, package_name):
        module = importlib.import_module(package_name)
        for name in getattr(module, "__all__", []):
            if name == "__version__":
                continue
            obj = getattr(module, name)
            if inspect.ismodule(obj):
                continue
            assert inspect.getdoc(obj), (
                f"{package_name}.{name} has no docstring")

    def test_package_docstring(self, package_name):
        module = importlib.import_module(package_name)
        assert inspect.getdoc(module)


class TestVersion:
    def test_version_string(self):
        import repro

        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2


class TestTopLevelConvenience:
    def test_quickstart_snippet_from_readme(self):
        """The README quickstart must keep working verbatim."""
        from repro import (
            GenerosityGrid,
            IGTSimulation,
            de_gap,
            default_theorem_2_9_setting,
            mean_stationary_mu,
        )

        setting, shares, g_max = default_theorem_2_9_setting()
        grid = GenerosityGrid(k=6, g_max=g_max)
        sim = IGTSimulation(n=100, shares=shares, grid=grid, seed=0)
        sim.run(1000)
        assert sim.empirical_mu().shape == (6,)
        assert 0.0 <= sim.average_generosity() <= g_max
        mu = mean_stationary_mu(6, beta=shares.beta)
        assert de_gap(mu, grid, setting, shares) >= 0

    def test_docstring_quickstart_names_exist(self):
        import repro

        for name in ("GenerosityGrid", "IGTSimulation", "PopulationShares",
                     "default_theorem_2_9_setting", "EhrenfestProcess",
                     "total_variation", "Simulator"):
            assert hasattr(repro, name)
