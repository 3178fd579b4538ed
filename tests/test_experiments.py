import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from opwls.cli import main
from opwls.experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    build_measure,
    complexity_sweep,
    derive_seed,
    discrete_demo,
    run,
    select_d_in,
    total_degree_prefix,
)


def tiny_poisson2d(tmp_path, **overrides):
    params = dict(
        experiment="poisson2d",
        seed=5,
        sampling="both",
        trials=2,
        n_test=30,
        measure={"alpha_rule": "l1_cubed", "max_mode": 4},
        sweep=[4, 8],
        out_dir=str(tmp_path / "p2d"),
        write_datasets=True,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def tiny_burgers(tmp_path, **overrides):
    params = dict(
        experiment="burgers",
        seed=9,
        sampling="optimal",
        trials=1,
        n_test=10,
        measure={"alpha_rule": "squared_index", "d_in": 3},
        index_set={"gamma_rule": "uniform", "degree_cap": 4},
        solver={"viscosity": 0.1, "final_time": 0.02},
        sweep=[1, 2],
        d_out=3,
        out_dir=str(tmp_path / "burgers"),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


KERNEL = {
    "experiment": "poisson1d_kernel", "trials": 1, "n_test": 10,
    "measure": {"alpha_rule": "squared_index", "d_in": 8}, "sweep": [2, 4],
}
BURGERS = {
    "experiment": "burgers", "trials": 1, "n_test": 4, "d_out": 3,
    "measure": {"alpha_rule": "squared_index", "d_in": 3}, "sweep": [1],
}


def tiny_kernel(tmp_path, **overrides):
    params = dict(
        experiment="poisson1d_kernel",
        seed=7,
        sampling="optimal",
        trials=1,
        n_test=10,
        measure={"alpha_rule": "squared_index", "d_in": 8},
        sweep=[2, 4],
        out_dir=str(tmp_path / "kernel"),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def assert_rejected_without_files(tmp_path, document: dict, *args: str) -> None:
    """``opwls run`` on ``document`` exits 2 and creates no output directory."""
    never = tmp_path / "never"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**document, "out_dir": str(never)}))
    assert main(["run", str(path), "--out", str(never), *args]) == 2
    assert not never.exists()


def stable_artifacts(out: Path) -> dict[str, bytes]:
    """The files the README promises are byte-identical across reruns."""
    coeffs = sorted((out / "coeffs").glob("*.csv"))
    assert coeffs
    paths = [out / "results.csv", out / "gram.csv", *coeffs]
    return {str(p.relative_to(out)): p.read_bytes() for p in paths}


def dataset_files(out: Path) -> list[tuple[str, bytes]]:
    return [(p.name, p.read_bytes()) for p in sorted((out / "dataset").iterdir())]


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = tiny_poisson2d(tmp_path)
        again = ExperimentConfig.from_json(config.to_json())
        assert again == config
        assert again.content_hash() == config.content_hash()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"experiment": "burgers", "nope": 1}')

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_poisson2d(tmp_path, experiment="unknown").validate()
        with pytest.raises(ConfigError):
            tiny_poisson2d(tmp_path, sweep=[]).validate()
        with pytest.raises(ConfigError):
            tiny_poisson2d(tmp_path, delta=1.5).validate()

    def test_hash_ignores_destination(self, tmp_path):
        a = tiny_poisson2d(tmp_path)
        b = tiny_poisson2d(tmp_path, out_dir=str(tmp_path / "elsewhere"))
        assert a.content_hash() == b.content_hash()

    def test_presets_are_valid(self):
        for name, params in PRESETS.items():
            ExperimentConfig(**params).validate()


class TestSelectDin:
    def test_prefix_rule(self):
        variances = np.array([0.5, 0.3, 0.15, 0.05])
        assert select_d_in(variances, 0.5) == 1
        assert select_d_in(variances, 0.8) == 2
        assert select_d_in(variances, 0.951) == 4

    def test_energy_rule_in_measure_builder(self):
        config = ExperimentConfig(
            experiment="burgers", sweep=[1],
            measure={"alpha_rule": "squared_index"}, energy_target=0.95,
        )
        measure, _ = build_measure(config)
        variances = measure.variances
        universe = np.arange(1, 4097)
        total = (1.0 / (2.0 * universe**2 + 3.0)).sum()
        assert variances.sum() / total >= 0.95
        assert (variances[:-1].sum()) / total < 0.95


def test_total_degree_prefix_monotone():
    from opwls.index_sets import is_monotone_lower

    idx = total_degree_prefix(3, 17)
    assert idx.shape == (17, 3)
    assert is_monotone_lower(idx)


class TestPoisson2dRun:
    def test_row_shape_and_columns(self, tmp_path):
        config = tiny_poisson2d(tmp_path)
        result = run(config)
        # trials x sweep sizes x two samplers
        assert result.results_rows == 2 * 2 * 2
        lines = (result.out_dir / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        for name in ("N_eff", "sampling", "cond_G", "gap", "test_error"):
            assert name in header
        assert len(lines) == 1 + result.results_rows
        # every row carries the config hash
        column = header.index("config_hash")
        for line in lines[1:]:
            assert line.split(",")[column] == config.content_hash()

    def test_artifacts_exist(self, tmp_path):
        config = tiny_poisson2d(tmp_path, trials=1, sweep=[4])
        result = run(config)
        out = result.out_dir
        assert (out / "manifest.json").exists()
        assert (out / "gram.csv").exists()
        assert list((out / "coeffs").glob("*.csv"))
        # both samplers' training sets and the test set, each an .npz of
        # its arrays plus a JSON provenance sidecar
        datasets = sorted((out / "dataset").glob("*.npz"))
        assert len(datasets) == 3
        for path in datasets:
            with np.load(path) as stored:
                assert sorted(stored.files) == ["inputs", "outputs", "weights"]
                rows = stored["inputs"].shape[0]
                assert stored["weights"].shape == (rows,)
                assert stored["outputs"].shape[0] == rows
            provenance = json.loads(path.with_suffix(".json").read_text())
            assert provenance["operator"] == "poisson2d"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config.content_hash()
        environment = manifest["environment"]
        assert environment["python"] == platform.python_version()
        assert environment["numpy"] == np.__version__
        assert environment["scipy"] == scipy.__version__
        assert environment["burgers_threads"] >= 1

    def test_timestamps_only_in_manifest(self, tmp_path):
        config = tiny_poisson2d(tmp_path, trials=1, sweep=[4])
        result = run(config)
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert "created_at" in manifest
        results = (result.out_dir / "results.csv").read_text()
        assert manifest["created_at"] not in results

    def test_unknown_experiment_writes_nothing(self, tmp_path):
        config = tiny_poisson2d(tmp_path, experiment="nope",
                                out_dir=str(tmp_path / "never"))
        with pytest.raises(ConfigError):
            run(config)
        assert not (tmp_path / "never").exists()


class TestBurgersRun:
    def test_sweep_shape(self, tmp_path):
        config = tiny_burgers(tmp_path)
        result = run(config)
        lines = (result.out_dir / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "k"
        assert len(lines) == 1 + len(config.sweep)
        # one training set per radius and one test set per radius, each an
        # .npz of its arrays plus a JSON provenance sidecar
        cache = result.out_dir / "dataset"
        arrays = sorted(cache.glob("*.npz"))
        assert len(arrays) == 2 * len(config.sweep)
        for path in arrays:
            with np.load(path) as stored:
                assert sorted(stored.files) == ["inputs", "outputs", "weights"]
            provenance = json.loads(path.with_suffix(".json").read_text())
            assert provenance["operator"] == "burgers"
        assert len(list(cache.iterdir())) == 2 * len(arrays)
        # the cache is reused on rerun and its files stay unchanged
        before = dataset_files(result.out_dir)
        run(config)
        assert dataset_files(result.out_dir) == before

    def test_energy_fraction_lost_measured(self, tmp_path):
        # modes above d_out carry energy the truncation discards
        result = run(tiny_burgers(tmp_path, sweep=[1]))
        lines = (result.out_dir / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        lost = float(lines[1].split(",")[header.index("energy_fraction_lost")])
        assert 0.0 < lost < 1.0

    def test_relative_error_small_on_smooth_flow(self, tmp_path):
        config = tiny_burgers(tmp_path, sweep=[2])
        result = run(config)
        lines = (result.out_dir / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        rel = float(lines[1].split(",")[header.index("rel_test_error")])
        assert rel < 1e-2


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp_path: tiny_poisson2d(tmp_path, trials=1, sweep=[4]),
        tiny_kernel,
        lambda tmp_path: tiny_burgers(tmp_path, sweep=[2]),
    ],
    ids=["poisson2d", "poisson1d_kernel", "burgers"],
)
def test_byte_identical_rerun(tmp_path, make):
    # the warm run reads every dataset back from the cache
    config = make(tmp_path)
    run(config)
    first = stable_artifacts(Path(config.out_dir))
    run(config)
    assert stable_artifacts(Path(config.out_dir)) == first


def test_cache_read_without_write_datasets(tmp_path, monkeypatch):
    config = tiny_poisson2d(tmp_path, trials=1, sweep=[4])
    run(config)
    first = stable_artifacts(Path(config.out_dir))

    def no_solves(*args, **kwargs):
        raise AssertionError("a cached dataset was solved again")

    monkeypatch.setattr("opwls.experiments.build_dataset", no_solves)
    config.write_datasets = False
    run(config)
    assert stable_artifacts(Path(config.out_dir)) == first


def test_kernel_coefficients_from_first_sampler(tmp_path):
    # "both" writes trial 0 of the optimal fit, the same file as "optimal"
    both = tiny_kernel(tmp_path, sampling="both", out_dir=str(tmp_path / "both"))
    optimal = tiny_kernel(tmp_path, out_dir=str(tmp_path / "optimal"))
    run(both)
    run(optimal)
    coeffs = [
        {p.name: p.read_bytes() for p in sorted((Path(c.out_dir) / "coeffs").iterdir())}
        for c in (both, optimal)
    ]
    assert coeffs[0] and coeffs[0] == coeffs[1]


class TestDiscreteDemo:
    def test_rows_and_probabilities(self, tmp_path):
        config = ExperimentConfig(
            experiment="discrete_demo", seed=3, sampling="both", trials=1,
            n_test=10, measure={"alpha_rule": "squared_index", "d_in": 4},
            index_set={"degree_cap": 3}, sweep=[2], d_out=6, cloud_size=200,
            sobolev_alphas=[-1.0, 0.0, 1.0],
            out_dir=str(tmp_path / "demo"),
        )
        rows = discrete_demo(config)
        # two samplers x three alphas
        assert len(rows) == 6
        header_path = Path(config.out_dir) / "results.csv"
        header = header_path.read_text().splitlines()[0].split(",")
        for name in ("alpha", "cond_G", "gap", "rel_test_error", "mean_of_ratios"):
            assert name in header
        # optimal-vs-uniform conditioning gap is reported (not asserted)
        cond_col = header.index("cond_G")
        sampler_col = header.index("sampling")
        lines = header_path.read_text().splitlines()[1:]
        conds = {line.split(",")[sampler_col]: float(line.split(",")[cond_col])
                 for line in lines}
        assert set(conds) == {"optimal", "monte_carlo"}


class TestComplexitySweep:
    def test_trivial_and_shape(self, tmp_path):
        config = ExperimentConfig(
            experiment="complexity_sweep", seed=4, sampling="optimal",
            trials=1, measure={"alpha_rule": "squared_index", "d_in": 3},
            sweep=[1, 8], d_out=4, out_dir=str(tmp_path / "cx"),
        )
        rows = complexity_sweep(config)
        assert len(rows) == 2
        header = (Path(config.out_dir) / "results.csv").read_text().splitlines()[0]
        assert header.split(",")[:5] == ["N_eff", "M", "d_out", "t_assemble",
                                         "t_solve"]


class TestCli:
    def test_run_from_config_file(self, tmp_path, capsys):
        config = tiny_poisson2d(tmp_path, trials=1, sweep=[4],
                                write_datasets=False)
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        assert main(["run", str(path)]) == 0
        assert "result rows" in capsys.readouterr().out

    def test_overrides(self, tmp_path):
        config = tiny_burgers(tmp_path, sweep=[1])
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        out = tmp_path / "override"
        assert main([
            "run", str(path), "--out", str(out), "--seed", "77",
            "--sampling", "monte-carlo", "--trials", "1",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 77
        assert manifest["config"]["sampling"] == "monte_carlo"

    def test_preset_listed_and_runs(self, tmp_path):
        # smallest preset exercised through the CLI path
        assert main([
            "run", "--preset", "complexity-sweep", "--out", str(tmp_path / "cx"),
        ]) == 0

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": "nope", "sweep": [1]}')
        assert main(["run", str(bad)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    def test_wrongly_typed_field_exits_2_and_writes_nothing(self, tmp_path):
        document = json.loads(tiny_poisson2d(tmp_path).to_json())
        document["trials"] = "3"
        assert_rejected_without_files(tmp_path, document)

    def test_kernel_sweep_beyond_d_in_exits_2_and_writes_nothing(self, tmp_path):
        document = json.loads(tiny_kernel(tmp_path, sweep=[2, 8]).to_json())
        document["measure"]["d_in"] = 4
        assert_rejected_without_files(tmp_path, document)

    @pytest.mark.parametrize(
        "document, args",
        [
            ({"sweep": [4]}, ()),
            (KERNEL, ("--preset", "discrete-demo")),
            ({**KERNEL, "d_out": 100}, ()),
            ({**KERNEL, "measure": {"alpha_rule": "squared_index", "d_in": 0}}, ()),
            ({**BURGERS, "solver": {"grid_size": 1023.0}}, ()),
            ({**BURGERS, "solver": {"d_solve": 255.0}}, ()),
            ({**BURGERS, "solver": {"grid_size": 1024}}, ()),
            *[
                ({**KERNEL, "sweep": [1],
                  "measure": {"alpha_rule": "squared_index", "d_in": d_in}}, ())
                for d_in in (True, 2.7, "8")
            ],
            ({"experiment": "poisson2d", "trials": 1, "n_test": 10, "sweep": [2],
              "measure": {"alpha_rule": "l1_cubed", "max_mode": 2.9}}, ()),
        ],
        ids=["missing_experiment", "config_and_preset", "d_out_beyond_d_in",
             "d_in_zero", "float_grid_size", "float_d_solve", "even_grid_size",
             "bool_d_in", "float_d_in", "string_d_in", "float_max_mode"],
    )
    def test_rejected_run_exits_2_and_writes_nothing(self, tmp_path, document, args):
        assert_rejected_without_files(tmp_path, document, *args)

    def test_missing_arguments_exit_2(self, capsys):
        assert main(["run"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert "preset" in record["message"]


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
