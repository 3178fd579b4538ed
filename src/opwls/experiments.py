r"""Experiment configurations, runners, and tabular result emission.

Each experiment reproduces one of the studies at desk scale:

* ``poisson2d`` -- linear rank-one fits of the 2-D Poisson solution operator
  over an ``N_eff`` sweep, optimal vs. Monte Carlo sampling;
* ``poisson1d_kernel`` -- Green's-kernel learning for the 1-D problem;
* ``burgers`` -- polynomial operator fits of the viscous Burgers flow map
  over a hyperbolic-cross radius sweep;
* ``discrete_demo`` -- leverage-score sampling on a synthetic correlated
  point cloud, with Sobolev-weighted error reporting;
* ``complexity_sweep`` -- polynomial fits of a smooth map whose
  ``timings.csv`` compares assembly with the solve.

All five share one fitting loop, :func:`fit_sweep`, driven by a
per-experiment :class:`FitSpec`; every training and test set it uses is
cached losslessly under ``dataset/`` by :func:`cached_dataset`, and the wall
time of each fit's stages goes to ``timings.csv``.

Runs are deterministic: every random draw is seeded by a hash of the master
seed and the draw's role, so outputs are byte-identical across repeats and
independent of execution order.  Trials execute sequentially; because each
trial owns an independent substream, a worker pool would produce the same
artifacts.  Timestamps and wall times appear only in the manifest and
``timings.csv``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import cache, partial
from itertools import product
from numbers import Integral, Real
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import scipy

from . import __version__
from .evaluation import (
    SobolevWeighting,
    empirical_bochner_error,
    energy_fraction_lost,
    reconstruct_kernel,
    scale_outputs,
    unscale_outputs,
)
from .index_sets import IndexSetSpec, generate
from .measures import ProductMeasure
from .operator_basis import LinearRankOneBasis, PolyOperatorBasis
from .pde import (
    BurgersConfig,
    DataSet,
    build_dataset,
    content_hash,
    greens_kernel,
    sine_modes_2d,
    solver_threads,
)
from .sampling import (
    DiscreteFeatureBasis,
    RngSeed,
    build_discrete_plan,
    build_induced_tables,
    mixture_plan,
    sample_discrete,
    sample_monte_carlo,
    sample_optimal,
)
from .wls import assemble, gram_diagnostics, min_samples, solve

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "RunResult",
    "PRESETS",
    "run",
    "fit_sweep",
    "FitSpec",
    "demo_target",
    "synthetic_cloud",
]

SAMPLERS = ("optimal", "monte_carlo")
FLOAT_FMT = "%.15g"


# JSON numbers arrive as int or float, config code may pass numpy scalars
_NUMBER_KINDS = {int: Integral, float: Real}


class ConfigError(ValueError):
    """Invalid experiment configuration; nothing is written."""


def check_numbers(name: str, values, kind=Real) -> None:
    """Raise :class:`ConfigError` unless ``values`` is a non-empty list of ``kind``."""
    if not isinstance(values, list) or not values or any(
        isinstance(v, bool) or not isinstance(v, kind) for v in values
    ):
        raise ConfigError(f"{name} must be a non-empty list of numbers: {values!r}")


def check_fields(obj, prefix: str = "") -> None:
    """Raise :class:`ConfigError` unless each field of ``obj`` fits its annotation."""
    for name, hint in get_type_hints(type(obj)).items():
        kinds = tuple(_NUMBER_KINDS.get(k, k) for k in get_args(hint) or (hint,))
        value = getattr(obj, name)
        # bool is an Integral, but true/false is never a number
        if not isinstance(value, kinds) or (
            isinstance(value, bool) and bool not in kinds
        ):
            raise ConfigError(f"{prefix}{name} has the wrong type: {value!r}")


@dataclass(frozen=True)
class MeasureSection:
    """``measure``: the input modes and their variances.

    ``alpha_rule`` ``"l1_cubed"`` takes ``max_mode``^2 mode pairs,
    ``"squared_index"`` ``d_in`` modes (``None``: the fewest that hold
    ``energy_target`` of the variance), ``"explicit"`` the ``alphas``.
    """

    alpha_rule: str = "squared_index"
    d_in: int | None = None
    max_mode: int = 10
    alphas: list | None = None


@dataclass(frozen=True)
class IndexSetSection:
    """``index_set``: anisotropy weights by ``gamma_rule``, and the degree cap."""

    gamma_rule: str = "uniform"
    gamma_step: float = 0.99 / 20.0
    degree_cap: int = 10


@dataclass(frozen=True)
class SolverSection:
    """``solver``: Burgers settings; ``None`` takes the ``BurgersConfig`` rule."""

    viscosity: float = 0.1
    final_time: float = 0.2
    dt: float | None = None
    d_solve: int | None = None
    grid_size: int | None = None


SECTIONS = {"measure": MeasureSection, "index_set": IndexSetSection,
            "solver": SolverSection}


@dataclass
class ExperimentConfig:
    """Single JSON-document configuration of one experiment run."""

    experiment: str
    seed: int = 0
    sampling: str = "both"
    delta: float = 0.5
    epsilon: float = 0.5
    trials: int = 3
    n_test: int = 200
    out_dir: str = "runs/out"
    # hashed as written, so unset keys stay out; section() adds the defaults
    measure: dict = field(default_factory=dict)
    index_set: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    sweep: list = field(default_factory=list)
    d_out: int | None = None
    mode_order: str = "row"
    energy_target: float = 0.95
    sobolev_alphas: list = field(default_factory=lambda: [0.0])
    cloud_size: int = 2000
    write_datasets: bool = True

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls(**json.loads(text))
        except TypeError as exc:  # not an object, an unknown field, a missing one
            raise ConfigError(str(exc)) from exc

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def content_hash(self) -> str:
        # identifies the computation; artifact destination and emission
        # switches do not change result rows
        payload = {
            k: v
            for k, v in asdict(self).items()
            if k not in ("out_dir", "write_datasets")
        }
        text = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(text).hexdigest()[:16]

    def section(self, name: str):
        """Section ``name`` as its :data:`SECTIONS` class, defaults filled in."""
        try:
            parsed = SECTIONS[name](**getattr(self, name))
        except TypeError as exc:  # an unknown key
            raise ConfigError(f"{name}: {exc}") from exc
        check_fields(parsed, f"{name}.")
        return parsed

    def validate(self) -> None:
        """Check field types and every per-experiment range.

        Runs before anything is written, so a config that fails here leaves
        no files behind.
        """
        check_fields(self)
        for name in SECTIONS:
            self.section(name)
        if self.experiment not in FIT_SPECS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.sampling not in ("optimal", "monte_carlo", "both"):
            raise ConfigError(f"unknown sampling mode {self.sampling!r}")
        if not (0.0 < self.delta < 1.0 and 0.0 < self.epsilon < 1.0):
            raise ConfigError("delta and epsilon must lie in (0, 1)")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.n_test < 1:
            raise ConfigError("n_test must be >= 1")
        if self.d_out is not None and self.d_out < 1:
            raise ConfigError("d_out must be >= 1")
        if self.cloud_size < 1:
            raise ConfigError("cloud_size must be >= 1")
        # N_eff sweeps count modes; radius sweeps may be fractional
        entry = Real if self.experiment in ("burgers", "discrete_demo") else Integral
        check_numbers("sweep", self.sweep, entry)
        if min(self.sweep) <= 0:
            raise ConfigError(f"sweep entries must be positive: {self.sweep!r}")
        check_numbers("sobolev_alphas", self.sobolev_alphas)
        if self.mode_order not in ("row", "column"):
            raise ConfigError("mode_order must be 'row' or 'column'")
        try:
            measure, modes = build_measure(self)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid measure {self.measure!r}: {exc}") from exc
        d_in = len(measure)
        if self.experiment == "poisson2d" and modes is None:
            raise ConfigError("poisson2d needs the l1_cubed measure rule")
        if self.experiment in ("poisson2d", "poisson1d_kernel"):
            if max(self.sweep) > d_in:
                raise ConfigError(
                    f"N_eff={max(self.sweep)} exceeds the {d_in} available modes"
                )
            # Poisson outputs have one mode per input mode
            if (self.d_out or 0) > d_in:
                raise ConfigError(f"d_out={self.d_out} exceeds the {d_in} modes")
        if self.experiment in ("burgers", "discrete_demo"):
            try:
                largest = cross_spec(self, d_in, max(self.sweep))
            except ValueError as exc:
                raise ConfigError(f"invalid index_set {self.index_set}: {exc}") from exc
        if self.experiment == "discrete_demo":
            n_eff = len(generate(largest))
            if self.cloud_size < n_eff:
                raise ConfigError(
                    f"cloud_size={self.cloud_size} is below N_eff={n_eff}"
                )
        if self.experiment == "burgers":
            try:
                burgers_solver(self, d_in)
            except ValueError as exc:
                raise ConfigError(f"invalid solver {self.solver!r}: {exc}") from exc

    def samplers(self) -> tuple[str, ...]:
        return SAMPLERS if self.sampling == "both" else (self.sampling,)


PRESETS: dict[str, dict] = {
    "poisson2d-paper": {
        "experiment": "poisson2d",
        "seed": 20,
        "sampling": "both",
        "trials": 3,
        "n_test": 300,
        "measure": {"alpha_rule": "l1_cubed", "max_mode": 10},
        "sweep": [25, 50, 100],
        "out_dir": "runs/poisson2d",
    },
    "poisson1d-kernel": {
        "experiment": "poisson1d_kernel",
        "seed": 21,
        "sampling": "optimal",
        "trials": 1,
        "n_test": 200,
        "measure": {"alpha_rule": "squared_index", "d_in": 64},
        "sweep": [8, 16, 32, 64],
        "out_dir": "runs/poisson1d_kernel",
    },
    "burgers-nu01": {
        "experiment": "burgers",
        "seed": 22,
        "sampling": "both",
        "trials": 1,
        "n_test": 200,
        "measure": {"alpha_rule": "squared_index", "d_in": 8},
        "index_set": {"gamma_rule": "linear_decay", "degree_cap": 10},
        "solver": {"viscosity": 0.1, "final_time": 0.2},
        "sweep": [2, 4, 6],
        "d_out": 48,
        "out_dir": "runs/burgers_nu01",
    },
    "burgers-nu001": {
        "experiment": "burgers",
        "seed": 22,
        "sampling": "optimal",
        "trials": 1,
        "n_test": 200,
        "measure": {"alpha_rule": "squared_index", "d_in": 8},
        "index_set": {"gamma_rule": "linear_decay", "degree_cap": 10},
        "solver": {"viscosity": 0.01, "final_time": 0.2},
        "sweep": [2, 4, 6],
        "d_out": 48,
        "out_dir": "runs/burgers_nu001",
    },
    "discrete-demo": {
        "experiment": "discrete_demo",
        "seed": 23,
        "sampling": "both",
        "trials": 1,
        "n_test": 200,
        "measure": {"alpha_rule": "squared_index", "d_in": 6},
        "index_set": {"gamma_rule": "uniform", "degree_cap": 10},
        "sweep": [4],
        "d_out": 12,
        "cloud_size": 2000,
        "sobolev_alphas": [-1.0, 0.0, 1.0],
        "out_dir": "runs/discrete_demo",
    },
    "complexity-sweep": {
        "experiment": "complexity_sweep",
        "seed": 24,
        "sampling": "optimal",
        "trials": 1,
        "measure": {"alpha_rule": "squared_index", "d_in": 4},
        "sweep": [16, 32, 64, 128],
        "d_out": 32,
        "out_dir": "runs/complexity",
    },
}


# --------------------------------------------------------------------------
# deterministic sub-seeding and measure construction


def derive_seed(master: int, *tags) -> int:
    text = json.dumps([master, *tags], sort_keys=True, default=str)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def select_d_in(variances: np.ndarray, fraction: float) -> int:
    """Smallest prefix of the variance sequence capturing ``fraction`` of it."""
    variances = np.asarray(variances, dtype=float)
    total = variances.sum()
    if total <= 0.0:
        raise ConfigError("variance sequence has no energy")
    cumulative = np.cumsum(variances) / total
    return int(np.searchsorted(cumulative, fraction) + 1)


def build_measure(config: ExperimentConfig) -> tuple[ProductMeasure, np.ndarray | None]:
    """Measure over input modes plus the 2-D mode list when applicable."""
    spec = config.section("measure")
    if spec.alpha_rule == "l1_cubed":
        modes = sine_modes_2d(spec.max_mode, config.mode_order)
        alphas = np.sum(modes, axis=1).astype(float) ** 3
        return ProductMeasure.from_alphas(alphas), modes
    if spec.alpha_rule == "squared_index":
        d_in = spec.d_in
        if d_in is None:
            universe = np.arange(1, 4097)
            d_in = select_d_in(1.0 / (2.0 * universe**2 + 3.0), config.energy_target)
        alphas = np.arange(1, d_in + 1, dtype=float) ** 2
        return ProductMeasure.from_alphas(alphas), None
    if spec.alpha_rule == "explicit":
        check_numbers("measure.alphas", spec.alphas)
        alphas = np.asarray(spec.alphas, dtype=float)
        return ProductMeasure.from_alphas(alphas), None
    raise ConfigError(f"unknown alpha rule {spec.alpha_rule!r}")


def cross_spec(config: ExperimentConfig, d_in: int, k) -> IndexSetSpec:
    """Hyperbolic cross of radius ``k`` over ``d_in`` modes, per ``index_set``."""
    spec = config.section("index_set")
    if spec.gamma_rule == "uniform":
        gamma = np.ones(d_in)
    elif spec.gamma_rule == "linear_decay":
        gamma = 1.0 - np.arange(d_in) * spec.gamma_step
    else:
        raise ConfigError(f"unknown gamma rule {spec.gamma_rule!r}")
    return IndexSetSpec(
        kind="hyperbolic_cross", radius=float(k), gamma=gamma,
        degree_cap=spec.degree_cap,
    )


def burgers_solver(config: ExperimentConfig, d_in: int) -> BurgersConfig:
    spec = config.section("solver")
    # a JSON integer such as "final_time": 1 enters the provenance as 1.0
    return BurgersConfig.create(
        viscosity=float(spec.viscosity), final_time=float(spec.final_time),
        d_in=d_in, d_out=config.d_out or 48,
        dt=spec.dt, d_solve=spec.d_solve, grid_size=spec.grid_size,
    )


# --------------------------------------------------------------------------
# artifact writing


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_coefficients(path: Path, estimate, basis) -> None:
    # one column per scalar index (named in the header), one row per output mode
    if isinstance(basis, PolyOperatorBasis):
        header = [".".join(str(int(v)) for v in row) for row in basis.scalar_indices]
    elif isinstance(basis, LinearRankOneBasis):
        header = [str(int(m)) for m in basis.input_modes]
    else:  # cloud-orthonormal features have no index set entry of their own
        header = [f"b{j}" for j in range(basis.n_eff)]
    # every cell is a float: format the Python floats directly, which gives
    # the bytes format_cell gives for the numpy ones
    lines = [",".join(header)]
    lines += [",".join([FLOAT_FMT % v for v in row])
              for row in estimate.coefficients.T.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def dataset_key(cfg_hash: str, sampler: str, seed: int, m: int) -> str:
    text = json.dumps([cfg_hash, sampler, seed, m])
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def cached_dataset(
    directory: Path, key: str, write: bool, draw, truth,
    solver_config: dict | None = None, **truth_kwargs,
) -> DataSet:
    """Dataset ``key`` from the cache, else made by ``truth`` and cached if ``write``.

    ``<key>.npz`` holds ``inputs``, ``weights`` and ``outputs`` losslessly, so
    a cache hit reproduces a fit bit for bit.  The ``<key>.json`` provenance
    sidecar is written last, so a dataset whose write was cut short is never
    read.  Neither is one whose sidecar records another ``solver_config``
    than the resolved one ``truth`` solves with: the key hashes the config
    as written, where a ``null`` solver setting stands for a default that
    may change.
    """
    arrays, sidecar = directory / f"{key}.npz", directory / f"{key}.json"
    if arrays.exists() and sidecar.exists():
        provenance = json.loads(sidecar.read_text(encoding="utf-8"))
        if provenance.get("solver_config") == solver_config:
            with np.load(arrays) as stored:
                return DataSet(**stored, provenance=provenance)
    ds = truth(*draw(), **truth_kwargs)
    if write:
        directory.mkdir(parents=True, exist_ok=True)
        np.savez(arrays, inputs=ds.inputs, weights=ds.weights, outputs=ds.outputs)
        sidecar.write_text(
            json.dumps(ds.provenance, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
    return ds


@dataclass
class RunResult:
    out_dir: Path
    results_rows: int
    manifest: dict


# --------------------------------------------------------------------------
# the fitting loop shared by every experiment


def fit_once(basis, samples, weights, outputs):
    """Assemble, diagnose and solve one system; also the three stage times.

    The system is dropped on return, so it never outlives its fit.
    """
    t0 = time.perf_counter()
    system = assemble(basis, samples, weights, outputs)
    t1 = time.perf_counter()
    summary = gram_diagnostics(system)
    t2 = time.perf_counter()
    estimate = solve(system, basis)
    return estimate, summary, [t1 - t0, t2 - t1, time.perf_counter() - t2]


def _or_nan(value: float | None) -> float:
    return math.nan if value is None else value


def measure_draw(measure: ProductMeasure, basis) -> Callable:
    """``draw(sampler, rng, size)`` from the optimal or the base measure.

    The mixture plan and the induced tables are built by the first draw, so
    a run whose datasets all come from the cache builds none.
    """

    @cache
    def sampler_state():
        return mixture_plan(basis), build_induced_tables(measure, basis)

    def draw(sampler: str, rng: RngSeed, size: int):
        plan, tables = sampler_state()
        if sampler == "optimal":
            return sample_optimal(plan, tables, rng, size, basis)
        return sample_monte_carlo(measure, rng, size, tables=tables)

    return draw


@dataclass(frozen=True)
class FitSpec:
    """What one experiment fills into :func:`fit_sweep`.

    ``entry(value)`` gives a sweep value's ``(tag, basis, M, lead, draw)``:
    ``tag`` enters the seeds and the coefficient file name, ``lead`` fills
    ``lead_columns``, and ``draw(sampler, rng, size)`` gives inputs and
    weights.  ``truth(inputs, weights, d_out=, seed=, sampler=)`` gives the
    :class:`DataSet`; if it runs a solver, ``solver_config`` is the resolved
    configuration its provenance records.  Test sets, ``monte_carlo`` draws
    of ``n_test``, or the whole ``test_cloud`` (sampler ``cloud``) if one is
    given, keep every output column and are seeded per (tag, trial) if
    ``test_per_trial``, else per tag.  Each draw is fitted once per Sobolev
    exponent in ``alphas``, or once with no ``alpha`` column if ``None``.
    ``metrics(estimate, report, test)`` fills ``metric_columns``.
    """

    d_out: int
    entry: Callable[[object], tuple]
    truth: Callable[..., DataSet]
    metric_columns: list
    metrics: Callable[..., list]
    coeff_file: str
    lead_columns: list = field(default_factory=list)
    test_per_trial: bool = True
    test_cloud: np.ndarray | None = None
    alphas: list | None = None
    solver_config: dict | None = None


def fit_sweep(config: ExperimentConfig, out: Path, spec: FitSpec) -> list[list]:
    """Draw, solve, fit and test once per (sweep entry, sampler, trial, alpha).

    Every training and test set goes through :func:`cached_dataset`.  Writes
    one row per fit to ``results.csv``, ``gram.csv`` and ``timings.csv``, one
    record per fit to ``errors.json``, and the coefficients of trial 0 of the
    first sampler to ``coeffs/``.
    """
    cfg_hash = config.content_hash()
    coeffs_dir = out / "coeffs"
    coeffs_dir.mkdir(parents=True, exist_ok=True)
    output_modes = np.arange(1, spec.d_out + 1)
    keys = ["N_eff", "sampling", "trial", *([] if spec.alphas is None else ["alpha"])]
    rows, gram_rows, timing_rows, error_records = [], [], [], []

    def dataset(draw, sampler: str, seed: int, size: int, d_out) -> DataSet:
        return cached_dataset(
            out / "dataset", dataset_key(cfg_hash, sampler, seed, size),
            config.write_datasets, partial(draw, sampler, RngSeed(seed), size),
            spec.truth, spec.solver_config, d_out=d_out, seed=seed, sampler=sampler,
        )

    def whole_cloud(sampler: str, rng: RngSeed, size: int):
        return spec.test_cloud, np.ones(size)

    for value in config.sweep:
        tag, basis, m, lead, draw = spec.entry(value)

        @cache
        def test_set(seed: int) -> DataSet:
            if spec.test_cloud is None:
                return dataset(draw, "monte_carlo", seed, config.n_test, None)
            return dataset(whole_cloud, "cloud", seed, len(spec.test_cloud), None)

        for sampler, trial in product(config.samplers(), range(config.trials)):
            seed = derive_seed(config.seed, "train", tag, sampler, trial)
            t0 = time.perf_counter()
            ds = dataset(draw, sampler, seed, m, spec.d_out)
            # the dataset's time goes to the first alpha fitted on it
            t_dataset = time.perf_counter() - t0
            for alpha in spec.alphas or [0.0]:
                weighting = SobolevWeighting.for_modes(alpha, output_modes)
                train = scale_outputs(ds.outputs, weighting)
                estimate, summary, t_fit = fit_once(basis, ds.inputs, ds.weights, train)
                t0 = time.perf_counter()
                test_tags = (tag, trial) if spec.test_per_trial else (tag,)
                test = test_set(derive_seed(config.seed, "test", *test_tags))
                predicted = unscale_outputs(estimate.predict(test.inputs), weighting)
                report = empirical_bochner_error(
                    test.outputs[:, : spec.d_out], predicted, weighting
                )
                metrics = spec.metrics(estimate, report, test)
                t_test = time.perf_counter() - t0
                key = [basis.n_eff, sampler, trial, alpha][: len(keys)]
                stable = summary.stable(config.delta)
                rows.append([*lead, *key, m, summary.condition, summary.spectral_gap,
                             report.absolute, *metrics, cfg_hash, stable])
                gram_rows.append(
                    [*key, summary.spectral_gap, summary.condition,
                     summary.block_size, stable, cfg_hash]
                )
                timing_rows.append([*lead, *key, m, t_dataset, *t_fit, t_test])
                error_records.append({
                    **dict(zip([*spec.lead_columns, *keys], [*lead, *key])),
                    "quantiles": {str(q): v for q, v in report.quantiles.items()},
                    "mean_of_ratios": report.mean_of_ratios,
                    "gap": summary.spectral_gap,
                    "cond": summary.condition,
                    "block_size": summary.block_size,
                })
                t_dataset = 0.0
                if sampler == config.samplers()[0] and trial == 0:
                    write_coefficients(
                        coeffs_dir / spec.coeff_file.format(tag, alpha), estimate, basis
                    )
    write_csv(
        out / "results.csv",
        [*spec.lead_columns, *keys, "M", "cond_G", "gap", "test_error",
         *spec.metric_columns, "config_hash", "stable"],
        rows,
    )
    write_csv(
        out / "gram.csv",
        [*keys, "gap", "cond", "block_size", "stable", "config_hash"],
        gram_rows,
    )
    write_csv(
        out / "timings.csv",
        [*spec.lead_columns, *keys, "M", "t_dataset", "t_assemble",
         "t_gram", "t_solve", "t_test"],
        timing_rows,
    )
    (out / "errors.json").write_text(
        json.dumps(error_records, indent=2) + "\n", encoding="utf-8"
    )
    return rows


# --------------------------------------------------------------------------
# experiments


def relative_error(estimate, report, test) -> list:
    return [_or_nan(report.relative)]


def poisson_spec(config: ExperimentConfig) -> FitSpec:
    """Rank-one fits on the first ``N_eff`` input modes, ``M`` from the certificate."""
    measure, modes = build_measure(config)
    d_out = config.d_out or len(measure)

    def entry(value) -> tuple:
        n_eff = int(value)
        basis = LinearRankOneBasis.from_measure(measure, np.arange(n_eff), d_out)
        m = min_samples(n_eff, config.delta, config.epsilon)
        return n_eff, basis, m, [], measure_draw(measure, basis)

    if config.experiment == "poisson2d":
        return FitSpec(
            d_out=d_out, entry=entry,
            truth=partial(build_dataset, operator="poisson2d", modes_2d=modes),
            metric_columns=["rel_test_error"], metrics=relative_error,
            coeff_file="poisson2d_neff{}.csv",
        )
    grid = np.linspace(0.0, 1.0, 101)
    exact = greens_kernel(grid[:, None], grid[None, :])

    def sup_error(estimate, report, test) -> list:
        kernel = reconstruct_kernel(estimate, grid, grid)
        return [float(np.max(np.abs(kernel - exact)))]

    return FitSpec(
        d_out=d_out, entry=entry, truth=partial(build_dataset, operator="poisson1d"),
        metric_columns=["kernel_sup_error"], metrics=sup_error,
        coeff_file="kernel_neff{}.csv",
    )


def burgers_spec(config: ExperimentConfig) -> FitSpec:
    """Polynomial fits on the hyperbolic cross of radius ``k``, ``M = N log N``."""
    measure, _ = build_measure(config)
    solver = burgers_solver(config, len(measure))

    def entry(k) -> tuple:
        indices = generate(cross_spec(config, len(measure), k))
        basis = PolyOperatorBasis.build(measure, indices, solver.d_out)
        n_eff = basis.n_eff
        m = math.ceil(n_eff * math.log(max(n_eff, 2)))
        return k, basis, m, [k], measure_draw(measure, basis)

    def metrics(estimate, report, test) -> list:
        # the test set keeps all d_solve solver modes, so this is the output
        # energy that truncation to d_out discards
        lost = energy_fraction_lost(test.outputs, solver.d_out)
        return [_or_nan(report.relative), lost]

    return FitSpec(
        d_out=solver.d_out, entry=entry,
        truth=partial(build_dataset, operator="burgers", burgers_config=solver),
        lead_columns=["k"], test_per_trial=False,
        metric_columns=["rel_test_error", "energy_fraction_lost"],
        metrics=metrics, coeff_file="burgers_k{}.csv",
        solver_config=solver.as_dict(),
    )


def synthetic_cloud(measure: ProductMeasure, size: int, seed: int) -> np.ndarray:
    """Correlated (non-product) cloud: a unit-lower-bidiagonal mix of draws."""
    z, _ = sample_monte_carlo(measure, RngSeed(seed), size)
    mix = np.eye(len(measure)) + 0.4 * np.eye(len(measure), k=-1)
    return z @ mix.T


def demo_target(points: np.ndarray, d_out: int) -> np.ndarray:
    """Smooth synthetic map used by the discrete demonstration."""
    d_in = points.shape[1]
    cols = [
        np.sin(points[:, o % d_in] + 0.5 * points[:, 0]) / (1.0 + o)
        for o in range(d_out)
    ]
    return np.column_stack(cols)


def demo_dataset(width, samples, weights, *, d_out=None, **provenance) -> DataSet:
    """:func:`demo_target` as a ground truth of ``width`` outputs, cut to ``d_out``."""
    provenance.update(operator="demo_target", input_hash=content_hash(samples))
    return DataSet(samples, demo_target(samples, d_out or width), weights, provenance)


def discrete_spec(config: ExperimentConfig) -> FitSpec:
    """Leverage-score vs. uniform draws from a synthetic correlated cloud.

    Reference polynomial features are orthonormalized on the cloud; every fit
    is tested on the whole cloud (``n_test`` is unused), once per Sobolev
    exponent in ``sobolev_alphas``.
    """
    measure, _ = build_measure(config)
    d_out = config.d_out or 12
    cloud = synthetic_cloud(measure, config.cloud_size, derive_seed(config.seed, "cloud"))

    def entry(k) -> tuple:
        indices = generate(cross_spec(config, len(measure), k))
        ref_basis = PolyOperatorBasis.build(measure, indices, d_out)
        raw_features = partial(ref_basis.scalar_features, warn_extrapolation=False)
        plan = build_discrete_plan(cloud, raw_features)
        basis = DiscreteFeatureBasis(plan=plan, raw_features=raw_features, d_out=d_out)

        def draw(sampler: str, rng: RngSeed, size: int):
            if sampler == "optimal":
                idx, weights = sample_discrete(plan, rng, size)
            else:
                u = rng.uniform_block(size, 1)[:, 0]
                idx = np.minimum((u * plan.n_points).astype(int), plan.n_points - 1)
                weights = np.ones(size)
            return cloud[idx], weights

        m = min_samples(plan.n_eff, config.delta, config.epsilon)
        return k, basis, m, [k], draw

    return FitSpec(
        d_out=d_out, entry=entry, truth=partial(demo_dataset, d_out),
        test_cloud=cloud,
        alphas=[float(alpha) for alpha in config.sobolev_alphas],
        lead_columns=["k"], test_per_trial=False,
        metric_columns=["rel_test_error", "mean_of_ratios"],
        metrics=lambda estimate, report, test: [
            _or_nan(report.relative), _or_nan(report.mean_of_ratios)
        ],
        coeff_file="discrete_k{}_alpha{}.csv",
    )


def total_degree_prefix(d_in: int, n_eff: int) -> np.ndarray:
    """First ``n_eff`` indices (canonical order) of a total-degree ball.

    Prefixes of the canonical enumeration are monotone lower sets.
    """
    radius = 0
    while math.comb(radius + d_in, d_in) < n_eff:
        radius += 1
    spec = IndexSetSpec(
        kind="lp_ball", p=1.0, radius=float(radius), gamma=np.ones(d_in),
        degree_cap=radius,
    )
    return generate(spec)[:n_eff]


def complexity_spec(config: ExperimentConfig) -> FitSpec:
    """Total-degree fits at ``M = 5 N_eff``, read for their ``timings.csv``.

    At ``M > 4 N_eff`` assembly is expected to dominate the solve; the
    comparison is recorded, never asserted (timing noise).
    """
    measure, _ = build_measure(config)
    d_out = config.d_out or 32

    def entry(value) -> tuple:
        n_eff = int(value)
        indices = total_degree_prefix(len(measure), n_eff)
        basis = PolyOperatorBasis.build(measure, indices, d_out)
        return n_eff, basis, 5 * n_eff, [], measure_draw(measure, basis)

    return FitSpec(
        d_out=d_out, entry=entry, truth=partial(demo_dataset, d_out),
        metric_columns=["rel_test_error"], metrics=relative_error,
        coeff_file="complexity_neff{}.csv",
    )


FIT_SPECS = {
    "poisson2d": poisson_spec,
    "poisson1d_kernel": poisson_spec,
    "burgers": burgers_spec,
    "discrete_demo": discrete_spec,
    "complexity_sweep": complexity_spec,
}


# --------------------------------------------------------------------------
# entry point


def blas_threads() -> int:
    """Threads numpy's OpenBLAS runs with, as it reads them at start-up.

    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else the cores
    available to the process; a value that is not a positive integer counts
    as unset.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return len(os.sched_getaffinity(0))


def run(config: ExperimentConfig) -> RunResult:
    """Validate, execute, and write all artifacts of one experiment run."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = fit_sweep(config, out, FIT_SPECS[config.experiment](config))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "config": asdict(config),
        "config_hash": config.content_hash(),
        "package_version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "results_rows": len(rows),
        # timings depend on these; the last digits of results also depend on
        # the BLAS build and its thread count, recorded here as numpy reports
        # the build and as its OpenBLAS reads the count
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads(),
            "burgers_threads": solver_threads(),
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return RunResult(out_dir=out, results_rows=len(rows), manifest=manifest)
