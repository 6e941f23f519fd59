"""The public API surface stays importable and coherent."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.geometry",
        "repro.rf",
        "repro.network",
        "repro.mobility",
        "repro.baselines",
        "repro.analysis",
        "repro.sim",
        "repro.testbed",
        "repro.faultlab",
    ],
)
def test_subpackage_all_exports(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ lists missing attribute {name}"


def test_quickstart_surface():
    """The objects the README quickstart uses exist and compose."""
    from repro import SimulationConfig, make_scenario, run_all_trackers

    cfg = SimulationConfig(n_sensors=5, duration_s=3.0)
    scenario = make_scenario(cfg, seed=0)
    results = run_all_trackers(scenario, ["fttt"], 1, n_rounds=2)
    assert "fttt" in results


def test_import_leaves_heavy_dependencies_unloaded():
    """``import repro`` loads scipy.stats, scipy.optimize and networkx only
    when a function that needs them runs: together they are over a second
    of start-up on a 2-vCPU host."""
    heavy = ("scipy.stats", "scipy.optimize", "networkx")
    code = f"import sys, repro; print([m for m in {heavy!r} if m in sys.modules])"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
