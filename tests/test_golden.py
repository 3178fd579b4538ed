"""Golden artifacts of the four cheap presets and of a small Burgers fit:
digests, and values next to them.

The README promises byte-identical ``results.csv``, ``gram.csv``,
``errors.json`` and ``coeffs/`` for one BLAS build; under a ``DYNAMIC_ARCH``
OpenBLAS the last digits also follow the kernel picked for the CPU.  Each
``golden/<preset>.json`` is keyed on numpy's version, the BLAS and that
kernel, as the run's manifest records them, and ``golden/<name>.json`` for
the Burgers config, which is no preset.  Where the key matches, the
sha256 digests decide.  Where it differs, :func:`deviations` compares the
recorded values: the rows of ``results.csv``, ``gram.csv`` and
``errors.json``, and each ``coeffs/`` file's per-row sums and largest
absolute entry.  A change that knowingly moves a digest rewrites the files
with

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from opwls.experiments import PRESETS, ExperimentConfig, run

GOLDEN = Path(__file__).parent / "golden"
CHEAP = ("poisson2d-paper", "poisson1d-kernel", "discrete-demo", "complexity-sweep")
# the Burgers solver and the polynomial samplers at Tier-1 size, both samplers
BURGERS = {
    "experiment": "burgers", "seed": 22, "sampling": "both", "trials": 1,
    "n_test": 50, "measure": {"alpha_rule": "squared_index", "d_in": 3},
    "index_set": {"gamma_rule": "linear_decay", "degree_cap": 10},
    "solver": {"viscosity": 0.1}, "sweep": [2, 4], "d_out": 4,
}
CONFIGS = {**{name: PRESETS[name] for name in CHEAP}, "burgers-small": BURGERS}
KEY = ("numpy", "blas", "blas_core")
ROWS = ("results.csv", "gram.csv", "errors.json")
# compared exactly, as are strings: the columns that name a fit
EXACT = {"k", "N_eff", "sampling", "trial", "alpha", "config_hash", "stable"}
# other numbers: 15x the largest deviation measured under other kernels
RELATIVE = 1e-8
# coeffs/ row sums, as a share of the file's largest entry (3.1e-15 measured)
COEFFS = 1e-12
# the errors of an exact fit are roundoff, which follows the kernel
ROUNDOFF = 1e-20


def artifact_values(out: Path) -> dict:
    """The rows of ``results.csv``, ``gram.csv`` and ``errors.json`` in
    ``out``, and each ``coeffs/`` file's per-row sums and largest entry."""
    values = {}
    for name in ROWS[:2]:
        with (out / name).open(newline="", encoding="utf-8") as f:
            values[name] = list(csv.DictReader(f))
    values["errors.json"] = json.loads((out / "errors.json").read_text("utf-8"))
    for path in sorted((out / "coeffs").glob("*.csv")):
        coeffs = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        values[path.relative_to(out).as_posix()] = {
            "row_sums": coeffs.sum(axis=1).tolist(),
            "max_abs": float(np.abs(coeffs).max()),
        }
    return values


def _flat(record: dict, prefix: str = "") -> dict:
    # errors.json nests its quantiles: one column per quantile
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _number(value) -> float | None:
    try:
        return float(value)
    except (TypeError, ValueError):  # None, or a string such as a hash
        return None


def _deviation(column: str, golden, found, exact_fit: bool) -> float:
    """0 for a match; the relative distance of two numbers; else inf."""
    a, b = _number(golden), _number(found)
    if column in EXACT or a is None or b is None:
        return 0.0 if golden == found else math.inf
    if exact_fit and abs(a) < ROUNDOFF:
        return 0.0 if abs(b) < ROUNDOFF else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _exact_fits(values: dict) -> set[int]:
    """Rows whose relative error is roundoff: ``rel_test_error``, or where
    ``results.csv`` has none, ``errors.json``'s ``mean_of_ratios``."""
    rows = zip(values["results.csv"], values["errors.json"])
    errors = [_number(row.get("rel_test_error", record["mean_of_ratios"]))
              for row, record in rows]
    return {i for i, e in enumerate(errors) if e is not None and abs(e) < ROUNDOFF}


def deviations(golden: dict, found: dict) -> dict[str, dict[str, float]]:
    """Largest deviation of ``found`` from ``golden``, per file and column.

    Both are :func:`artifact_values`.  Rows of the three row files pair up
    by position, ``errors.json`` records with ``results.csv`` rows.  An exact
    column or string that differs, or a missing row, file or column, reads
    ``inf``; another number reads its relative distance.  In a row of an
    exact fit (:func:`_exact_fits`, on ``golden``), a number below 1e-20
    reads 0 if ``found`` is below 1e-20 too.  A ``coeffs/`` file reads its
    largest row-sum and largest-entry differences over that entry.
    """
    report: dict[str, dict[str, float]] = {}
    for name in golden.keys() ^ found.keys():
        report[name] = {"(file)": math.inf}
    exact_rows = _exact_fits(golden)
    for name in found.keys() & golden.keys():
        g, f = golden[name], found[name]
        if name.startswith("coeffs/"):
            scale = g["max_abs"]
            sums = (np.abs(np.subtract(g["row_sums"], f["row_sums"])).max()
                    if len(g["row_sums"]) == len(f["row_sums"]) else math.inf)
            report[name] = {"row_sums": float(sums) / scale,
                            "max_abs": abs(g["max_abs"] - f["max_abs"]) / scale}
            continue
        columns = report[name] = {"(rows)": 0.0 if len(g) == len(f) else math.inf}
        for i, (g_row, f_row) in enumerate(zip(g, f)):
            g_row, f_row = _flat(g_row), _flat(f_row)
            for column in g_row.keys() | f_row.keys():
                deviation = _deviation(column, g_row.get(column),
                                       f_row.get(column), i in exact_rows)
                columns[column] = max(columns.get(column, 0.0), deviation)
    return report


def beyond_tolerance(report: dict) -> dict:
    """The entries of a :func:`deviations` report beyond their tolerance."""
    return {
        (name, column): deviation
        for name, columns in report.items()
        for column, deviation in columns.items()
        if not deviation <= (COEFFS if name.startswith("coeffs/") else RELATIVE)
    }


def record(name: str, out: Path) -> tuple[dict, dict, dict]:
    """Run config ``name`` cold into ``out``; its key, file digests and values."""
    config = ExperimentConfig(**{**CONFIGS[name], "out_dir": str(out),
                                 "write_datasets": False})
    environment = run(config).manifest["environment"]
    paths = [out / name for name in ROWS] + sorted((out / "coeffs").glob("*.csv"))
    return ({k: environment[k] for k in KEY},
            {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in paths},
            artifact_values(out))


def golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_match_golden_digests(name, tmp_path):
    recorded = golden(name)
    key, found, values = record(name, tmp_path)
    report = deviations(recorded["values"], values)
    if key == recorded["key"]:
        assert found == recorded["sha256"]
        # the values were recorded from the files the digests pin
        assert all(d == 0.0 for columns in report.values() for d in columns.values())
    else:
        assert not beyond_tolerance(report), f"values under {key}"


@pytest.mark.parametrize("name, column", [
    ("results.csv", "cond_G"),
    ("gram.csv", "gap"),
    ("errors.json", "quantiles.0.5"),
    ("coeffs/poisson2d_neff50.csv", "row_sums"),
])
def test_comparer_fails_on_a_value_moved_by_1e6(name, column):
    recorded = golden("poisson2d-paper")["values"]
    moved = copy.deepcopy(recorded)
    if name.startswith("coeffs/"):
        moved[name][column][3] *= 1.0 + 1e-6
    else:
        row = moved[name][2]
        if "." in column:
            outer, inner = column.split(".", 1)
            row[outer][inner] *= 1.0 + 1e-6
        else:
            row[column] = repr(float(row[column]) * (1.0 + 1e-6))
    assert not beyond_tolerance(deviations(recorded, recorded))
    failed = beyond_tolerance(deviations(recorded, moved))
    assert list(failed) == [(name, column)]
    if not name.startswith("coeffs/"):
        assert failed[name, column] == pytest.approx(1e-6, rel=1e-3)


def test_comparer_reads_exact_fit_errors_as_roundoff():
    recorded = golden("poisson2d-paper")["values"]
    moved = copy.deepcopy(recorded)
    exact = sorted(_exact_fits(recorded))
    assert exact  # N_eff=100 of 100 modes fits exactly
    row, errors = moved["results.csv"][exact[0]], moved["errors.json"][exact[0]]
    row["test_error"] = repr(float(row["test_error"]) * 1.94)
    errors["mean_of_ratios"] *= 0.06
    assert not beyond_tolerance(deviations(recorded, moved))
    row["test_error"] = "1e-19"
    assert list(beyond_tolerance(deviations(recorded, moved))) == [
        ("results.csv", "test_error")]
    row = moved["results.csv"][0]
    row["stable"] = "false" if row["stable"] == "true" else "true"
    assert ("results.csv", "stable") in beyond_tolerance(deviations(recorded, moved))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as out:
            key, found, values = record(name, Path(out))
        entry = {"key": key, "sha256": found, "values": values}
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(entry, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"{name}: {len(found)} files", file=sys.stderr)
