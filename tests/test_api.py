"""The public names that the benchmark harness and the README example call.

``perfbench/run.py`` loads every name in ``opwls.__all__`` and the workloads
call the ones below; a name cut from the API would make every unit of a
workload fail rather than fail a module test.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_scipy_linalg_or_fft():
    # scipy.linalg would map a second OpenBLAS next to numpy's; scipy.fft is
    # loaded by the first Burgers solve
    probe = (
        "import sys, opwls.cli; "
        "print(sorted({'scipy.linalg', 'scipy.fft'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(opwls.__file__).resolve().parents[1])},
    )
    assert out.stdout.strip() == "[]"
