"""The public names that the benchmark harness and the README example call.

``perfbench/run.py`` loads every name in ``opwls.__all__`` and the workloads
call the ones below; a name cut from the API would make every unit of a
workload fail rather than fail a module test.
"""

import opwls
from opwls import cli, experiments

CALLED_NAMES = [
    "ProductMeasure",
    "IndexSetSpec",
    "generate",
    "PolyOperatorBasis",
    "build_induced_tables",
    "mixture_plan",
    "min_samples",
    "sample_optimal",
    "sample_monte_carlo",
    "RngSeed",
    "assemble",
    "gram_diagnostics",
    "solve",
    "build_dataset",
    "BurgersConfig",
    "empirical_bochner_error",
]


def test_called_names_are_exported():
    missing = [name for name in CALLED_NAMES if name not in opwls.__all__]
    assert not missing
    assert callable(experiments.demo_target)
    assert callable(cli.main)
