"""Every name a module lists in ``__all__`` must exist, so star imports work."""

import importlib

import pytest

import vortexopt

MODULES = ["vortexopt", "vortexopt.core", "vortexopt.engine", "vortexopt.benchmarks",
           "vortexopt.harness"]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate entries in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_star_import_of_the_package():
    namespace = {}
    exec("from vortexopt import *", namespace)
    assert set(vortexopt.__all__) <= set(namespace)


def test_the_package_exports_what_a_user_calls():
    # The stage functions and SwarmState are engine internals, reached
    # through vortexopt.engine and vortexopt.core.
    assert sorted(vortexopt.__all__) == [
        "ExperimentPlan", "Objective", "RandomSource", "RunReport", "RunTrace",
        "SummaryRow", "VoaConfig", "__version__", "benchmark_names", "evaluate_checks",
        "execute_plan", "get_objective", "get_spec", "make_plan", "run", "summarize",
        "write_reports",
    ]
