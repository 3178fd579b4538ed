import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import opwls
from opwls.cli import main
from opwls.experiments import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    blas_threads,
    build_measure,
    dataset_key,
    derive_seed,
    format_cell,
    run,
    select_d_in,
    total_degree_prefix,
    write_coefficients,
    write_csv,
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
DISCRETE = {
    "experiment": "discrete_demo", "trials": 1, "d_out": 6, "cloud_size": 200,
    "measure": {"alpha_rule": "squared_index", "d_in": 4},
    "index_set": {"degree_cap": 3}, "sweep": [2],
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


def tiny_discrete(tmp_path, **overrides):
    params = dict(
        DISCRETE, seed=3, sampling="both", n_test=10,
        sobolev_alphas=[-1.0, 0.0, 1.0], out_dir=str(tmp_path / "demo"),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def tiny_complexity(tmp_path, **overrides):
    params = dict(
        experiment="complexity_sweep", seed=4, sampling="optimal",
        trials=1, measure={"alpha_rule": "squared_index", "d_in": 3},
        sweep=[1, 8], d_out=4, out_dir=str(tmp_path / "cx"),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    header, *lines = path.read_text().splitlines()
    return header.split(","), [line.split(",") for line in lines]


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
    paths = [out / "results.csv", out / "gram.csv", out / "errors.json", *coeffs]
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

    def test_preset_hashes_pinned(self):
        # sections are hashed as written, so filling in their defaults
        # must not move any preset's config hash or dataset keys
        hashes = {
            name: ExperimentConfig(**params).content_hash()
            for name, params in PRESETS.items()
        }
        assert hashes == {
            "poisson2d-paper": "b2385e825fd62de5",
            "poisson1d-kernel": "c291abdc443d5273",
            "burgers-nu01": "49a8abe81bf79428",
            "burgers-nu001": "65cb8645f96e87c7",
            "discrete-demo": "9394441ecdfc9647",
            "complexity-sweep": "acc8997f46e5a7a5",
        }


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
        header, rows = read_csv(result.out_dir / "results.csv")
        assert header == ["N_eff", "sampling", "trial", "M", "cond_G", "gap",
                          "test_error", "rel_test_error", "config_hash", "stable"]
        assert len(rows) == result.results_rows
        # every row carries the config hash
        column = header.index("config_hash")
        for row in rows:
            assert row[column] == config.content_hash()
        # the stability flag is gram.csv's, row for row
        gram_header, gram_rows = read_csv(result.out_dir / "gram.csv")
        flags = [row[gram_header.index("stable")] for row in gram_rows]
        assert [row[-1] for row in rows] == flags
        assert set(flags) <= {"true", "false"}

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

    def test_mismatched_solver_sidecar_never_read(self, tmp_path):
        # a dataset cached under another solver configuration, as a run
        # before a default changed would leave it, is solved again; so is
        # one from the interval-grid solver, whose sidecar has the same
        # fields but no collocation
        config = tiny_burgers(tmp_path, sweep=[1])
        result = run(config)
        first = stable_artifacts(result.out_dir)
        sidecars = sorted((result.out_dir / "dataset").glob("*.json"))
        resolved = [json.loads(p.read_text()) for p in sidecars]
        solver = resolved[0]["solver_config"]
        assert solver["grid_size"] == 47
        interval_grid = {k: v for k, v in solver.items() if k != "collocation"}
        for stale in ({**solver, "grid_size": 63}, interval_grid):
            for path, provenance in zip(sidecars, resolved):
                path.write_text(json.dumps({**provenance, "solver_config": stale}))
                arrays = path.with_suffix(".npz")
                with np.load(arrays) as stored:
                    garbage = {k: v + 1.0 for k, v in stored.items()}
                np.savez(arrays, **garbage)
            run(config)
            assert stable_artifacts(result.out_dir) == first
            assert [json.loads(p.read_text()) for p in sidecars] == resolved

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
        tiny_discrete,
        tiny_complexity,
    ],
    ids=["poisson2d", "poisson1d_kernel", "burgers", "discrete_demo",
         "complexity_sweep"],
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


def test_warm_run_builds_no_tables(tmp_path, monkeypatch):
    config = tiny_poisson2d(tmp_path, trials=1, sweep=[4])
    run(config)
    first = stable_artifacts(Path(config.out_dir))

    def no_tables(*args, **kwargs):
        raise AssertionError("a run whose datasets are cached built tables")

    monkeypatch.setattr("opwls.experiments.build_induced_tables", no_tables)
    run(config)
    assert stable_artifacts(Path(config.out_dir)) == first


def test_coefficients_formatted_as_cells(tmp_path):
    coefficients = np.random.default_rng(3).normal(size=(4, 3)) * [1e-300, 1.0, 1e17]
    coefficients[0, 0], coefficients[1, 1], coefficients[2, 2] = -0.0, np.nan, -np.inf
    estimate = SimpleNamespace(coefficients=coefficients)
    basis = SimpleNamespace(n_eff=4)
    write_coefficients(tmp_path / "c.csv", estimate, basis)
    header = [f"b{j}" for j in range(4)]
    write_csv(tmp_path / "ref.csv", header, [list(col) for col in coefficients.T])
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def run_in_subprocess(config, env_overrides):
    """``opwls run`` on ``config`` in a fresh interpreter; its manifest."""
    path = Path(config.out_dir).with_suffix(".json")
    path.write_text(config.to_json(), encoding="utf-8")
    src = str(Path(opwls.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "opwls.cli", "run", str(path)],
                   env=env, check=True, capture_output=True)
    return json.loads((Path(config.out_dir) / "manifest.json").read_text())


def test_manifest_records_blas_and_its_threads(tmp_path):
    grams = []
    for threads in (1, 2):
        config = tiny_poisson2d(tmp_path, out_dir=str(tmp_path / f"t{threads}"))
        manifest = run_in_subprocess(config, {"OPENBLAS_NUM_THREADS": str(threads)})
        environment = manifest["environment"]
        assert environment["blas_threads"] == threads
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert environment["blas"] == f"{blas['name']} {blas['version']}"
        lines = (Path(config.out_dir) / "gram.csv").read_text().splitlines()
        header = lines[0].split(",")
        grams.append(np.array([[float(row.split(",")[header.index(c)])
                                for c in ("gap", "cond")] for row in lines[1:]]))
    # across thread counts the BLAS reductions may round differently
    assert np.all(np.abs(grams[0] - grams[1]) <= 1e-13 * np.abs(grams[0]))


def test_blas_threads_follow_openblas_then_omp(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "5")
    assert blas_threads() == 3
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert blas_threads() == 5
    monkeypatch.setenv("OMP_NUM_THREADS", "none")
    assert blas_threads() == len(os.sched_getaffinity(0))


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
        result = run(tiny_discrete(tmp_path))
        # two samplers x three alphas
        assert result.results_rows == 6
        header, rows = read_csv(result.out_dir / "results.csv")
        assert header[:5] == ["k", "N_eff", "sampling", "trial", "alpha"]
        for name in ("cond_G", "gap", "rel_test_error", "mean_of_ratios"):
            assert name in header
        # optimal-vs-uniform conditioning gap is reported (not asserted)
        cond_col = header.index("cond_G")
        sampler_col = header.index("sampling")
        conds = {row[sampler_col]: float(row[cond_col]) for row in rows}
        assert set(conds) == {"optimal", "monte_carlo"}
        # the test set is the whole cloud, whatever n_test says, and is
        # keyed and labelled as such
        seed = derive_seed(3, "test", 2)
        [test_set] = [p for p in (result.out_dir / "dataset").glob("*.npz")
                      if json.loads(p.with_suffix(".json").read_text())["seed"]
                      == seed]
        key = dataset_key(result.manifest["config_hash"], "cloud", seed, 200)
        assert test_set.stem == key
        assert json.loads(test_set.with_suffix(".json").read_text())["sampler"] == "cloud"
        with np.load(test_set) as stored:
            assert stored["inputs"].shape == (200, 4)


class TestComplexitySweep:
    def test_trivial_and_shape(self, tmp_path):
        result = run(tiny_complexity(tmp_path))
        assert result.results_rows == 2
        header, rows = read_csv(result.out_dir / "timings.csv")
        assert header == ["N_eff", "sampling", "trial", "M", "t_dataset",
                          "t_assemble", "t_gram", "t_solve", "t_test"]
        # M = 5 N_eff, and every stage time is a non-negative wall time
        assert [(row[0], row[3]) for row in rows] == [("1", "5"), ("8", "40")]
        assert all(float(t) >= 0.0 for row in rows for t in row[4:])

    def test_sampling_and_trials_honoured(self, tmp_path):
        config = tiny_complexity(tmp_path, sampling="both", trials=2)
        result = run(config)
        # two sizes x two samplers x two trials
        assert result.results_rows == 8
        _, rows = read_csv(result.out_dir / "results.csv")
        assert sorted((row[1], row[2]) for row in rows) == sorted(
            (sampler, str(trial))
            for sampler in ("optimal", "monte_carlo") for trial in (0, 1)
            for _ in (1, 8)
        )


@pytest.mark.parametrize(
    "make",
    [tiny_poisson2d, tiny_kernel, tiny_burgers, tiny_discrete, tiny_complexity],
    ids=["poisson2d", "poisson1d_kernel", "burgers", "discrete_demo",
         "complexity_sweep"],
)
def test_one_timing_row_per_result_row(tmp_path, make):
    result = run(make(tmp_path))
    header, rows = read_csv(result.out_dir / "results.csv")
    timing_header, timing_rows = read_csv(result.out_dir / "timings.csv")
    keys = timing_header.index("M")
    assert timing_header[:keys] == header[:keys]
    assert [row[:keys] for row in timing_rows] == [row[:keys] for row in rows]
    assert len(rows) == result.results_rows


@pytest.mark.parametrize(
    "make",
    [tiny_poisson2d, tiny_kernel, tiny_burgers, tiny_discrete, tiny_complexity],
    ids=["poisson2d", "poisson1d_kernel", "burgers", "discrete_demo",
         "complexity_sweep"],
)
def test_one_error_record_per_result_row(tmp_path, make):
    # errors.json carries each fit's key columns, error quantiles and Gram
    # summary, in results.csv's row order; test_byte_identical_rerun checks
    # its bytes across a rerun, through stable_artifacts
    result = run(make(tmp_path))
    header, rows = read_csv(result.out_dir / "results.csv")
    records = json.loads((result.out_dir / "errors.json").read_text())
    keys = header[: header.index("M")]
    assert len(records) == len(rows) == result.results_rows
    for record, row in zip(records, rows):
        assert [format_cell(record[k]) for k in keys] == row[: len(keys)]
        assert format_cell(record["gap"]) == row[header.index("gap")]
        assert format_cell(record["cond"]) == row[header.index("cond_G")]
        assert record["block_size"] == record["N_eff"]
        assert list(record["quantiles"]) == ["0.05", "0.5", "0.95"]
        assert "mean_of_ratios" in record


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
            ({**BURGERS, "solver": {"grid_size": 45}}, ()),
            *[
                ({**KERNEL, "sweep": [1],
                  "measure": {"alpha_rule": "squared_index", "d_in": d_in}}, ())
                for d_in in (True, 2.7, "8")
            ],
            ({"experiment": "poisson2d", "trials": 1, "n_test": 10, "sweep": [2],
              "measure": {"alpha_rule": "l1_cubed", "max_mode": 2.9}}, ()),
            ({**BURGERS, "solver": {"dt": True}}, ()),
            ({**BURGERS, "solver": {"viscosity": True}}, ()),
            ({**BURGERS, "solver": {"final_time": "0.2"}}, ()),
            ({**BURGERS, "solver": {"final_time": 0.00015, "dt": 1e-4}}, ()),
            ({**BURGERS, "solver": {"viscocity": 0.01}}, ()),
            ({**BURGERS, "index_set": {"gama_rule": "linear_decay"}}, ()),
            ({**BURGERS, "index_set": {"degree_cap": 2.5}}, ()),
            ({**BURGERS, "index_set": {"degree_cap": True}}, ()),
            ({**BURGERS, "index_set": {"degree_cap": -1}}, ()),
            ({**BURGERS,
              "index_set": {"gamma_rule": "linear_decay", "gamma_step": "x"}}, ()),
            ({**KERNEL, "measure": {"alpha_rule": "squared_index", "d_inn": 8}}, ()),
            ({**DISCRETE, "sobolev_alphas": ["x"]}, ()),
            ({**DISCRETE, "sobolev_alphas": [True]}, ()),
            ({**DISCRETE, "sobolev_alphas": []}, ()),
            ({**KERNEL, "sweep": [1],
              "measure": {"alpha_rule": "explicit", "alphas": [True, "4"]}}, ()),
            ({**KERNEL, "sweep": [1], "measure": {"alpha_rule": "explicit"}}, ()),
            ({**DISCRETE, "cloud_size": 5}, ()),
        ],
        ids=["missing_experiment", "config_and_preset", "d_out_beyond_d_in",
             "d_in_zero", "float_grid_size", "float_d_solve", "even_grid_size",
             "grid_below_exactness_bound",
             "bool_d_in", "float_d_in", "string_d_in", "float_max_mode",
             "solver_dt_true", "solver_viscosity_true", "solver_final_time_string",
             "solver_steps_not_whole", "solver_unknown_key", "index_set_unknown_key",
             "degree_cap_float", "degree_cap_true", "degree_cap_negative",
             "gamma_step_string", "measure_unknown_key", "sobolev_alphas_string",
             "sobolev_alphas_bool", "sobolev_alphas_empty", "explicit_alphas_mixed",
             "explicit_alphas_missing", "cloud_smaller_than_n_eff"],
    )
    def test_rejected_run_exits_2_and_writes_nothing(self, tmp_path, document, args):
        assert_rejected_without_files(tmp_path, document, *args)

    def test_mistyped_section_key_is_named(self, tmp_path, capsys):
        assert_rejected_without_files(tmp_path, {**BURGERS, "solver": {"dt": "1e-4"}})
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "solver.dt" in record["message"]
        assert "'<='" not in record["message"]

    def test_missing_explicit_alphas_are_named(self, tmp_path, capsys):
        assert_rejected_without_files(
            tmp_path, {**KERNEL, "sweep": [1], "measure": {"alpha_rule": "explicit"}}
        )
        record = json.loads(capsys.readouterr().err)
        assert "measure.alphas" in record["message"]
        assert "0-d array" not in record["message"]

    def test_missing_arguments_exit_2(self, capsys):
        assert main(["run"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert "preset" in record["message"]


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
