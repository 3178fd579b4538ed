"""Golden sha256 digests of the artifacts of the four cheap presets.

The README promises byte-identical ``results.csv``, ``gram.csv``,
``errors.json`` and ``coeffs/`` for one BLAS build; under a ``DYNAMIC_ARCH``
OpenBLAS the last digits also follow the kernel picked for the CPU.  Each
``golden/<preset>.json`` is keyed on numpy's version, the BLAS and that
kernel, as the run's manifest records them, and the test skips where the key
differs.  A change that knowingly moves a digest rewrites the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from opwls.experiments import PRESETS, ExperimentConfig, run

GOLDEN = Path(__file__).parent / "golden"
CHEAP = ("poisson2d-paper", "poisson1d-kernel", "discrete-demo", "complexity-sweep")
KEY = ("numpy", "blas", "blas_core")


def digests(preset: str, out: Path) -> tuple[dict, dict]:
    """Run ``preset`` cold into ``out``; its environment key and file digests."""
    config = ExperimentConfig(**{**PRESETS[preset], "out_dir": str(out),
                                 "write_datasets": False})
    environment = run(config).manifest["environment"]
    paths = [out / "results.csv", out / "gram.csv", out / "errors.json",
             *sorted((out / "coeffs").glob("*.csv"))]
    return ({k: environment[k] for k in KEY},
            {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in paths})


@pytest.mark.parametrize("preset", CHEAP)
def test_artifacts_match_golden_digests(preset, tmp_path):
    golden = json.loads((GOLDEN / f"{preset}.json").read_text(encoding="utf-8"))
    key, found = digests(preset, tmp_path)
    differ = [f"{k} {golden['key'][k]!r}, here {key[k]!r}"
              for k in KEY if golden["key"][k] != key[k]]
    if differ:
        pytest.skip("digests recorded under " + "; ".join(differ))
    assert found == golden["sha256"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CHEAP:
        with tempfile.TemporaryDirectory() as out:
            key, found = digests(name, Path(out))
        record = {"key": key, "sha256": found}
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"{name}: {len(found)} files", file=sys.stderr)
