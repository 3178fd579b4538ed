"""The public names that the benchmark harness and the README example call,
and the packages that the suite, the harness and the demos need installed.

``perfbench/run.py`` loads every name in ``opwls.__all__`` and the workloads
call the ones below; a name cut from the API would make every unit of a
workload fail rather than fail a module test.
"""

import ast
import importlib
import os
import re
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
    # scipy.linalg would map a second OpenBLAS next to numpy's; the Burgers
    # solver runs on numpy's FFTs (test_pde checks a solve loads no scipy)
    probe = (
        "import sys, opwls.cli; "
        "print(sorted({'scipy.linalg', 'scipy.fft'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(opwls.__file__).resolve().parents[1])},
    )
    assert out.stdout.strip() == "[]"


# modules that tests/, perfbench/ and demos/ import from the repository itself
LOCAL_MODULES = {"opwls", "conftest", "spans", "workloads", "run"}


def imported_packages(path: Path) -> set[str]:
    """Top-level names of every absolute import in the file, nested ones too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_extra_covers_every_third_party_import():
    # CI installs only `pip install -e ".[test]"`: a package imported here but
    # missing from the extra fails collection on a clean machine.  pytest
    # installs tomli where tomllib is not in the standard library (3.10).
    root = Path(__file__).resolve().parents[1]
    toml = importlib.import_module("tomli" if sys.version_info < (3, 11) else "tomllib")
    project = toml.loads((root / "pyproject.toml").read_text())["project"]
    extra = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in project["optional-dependencies"]["test"]
    }
    imported = set().union(*(
        imported_packages(path)
        for folder in ("tests", "perfbench", "demos")
        for path in sorted((root / folder).rglob("*.py"))
    ))
    assert {"numpy", "pytest", "opwls"} <= imported
    third_party = imported - set(sys.stdlib_module_names) - LOCAL_MODULES
    assert sorted(third_party - {"numpy"} - extra) == []
