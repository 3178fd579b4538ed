r"""Experiment configurations, runners, and tabular result emission.

Each experiment reproduces one of the studies at desk scale:

* ``poisson2d`` -- linear rank-one fits of the 2-D Poisson solution operator
  over an ``N_eff`` sweep, optimal vs. Monte Carlo sampling;
* ``poisson1d_kernel`` -- Green's-kernel learning for the 1-D problem;
* ``burgers`` -- polynomial operator fits of the viscous Burgers flow map
  over a hyperbolic-cross radius sweep;
* ``discrete_demo`` -- leverage-score sampling on a synthetic correlated
  point cloud, with Sobolev-weighted error reporting;
* ``complexity_sweep`` -- assemble vs. solve wall-time table.

The three PDE experiments share one fitting loop, :func:`fit_sweep`, driven
by a per-experiment :class:`FitSpec`; every training and test set it uses is
cached losslessly under ``dataset/`` by :func:`cached_dataset`.

Runs are deterministic: every random draw is seeded by a hash of the master
seed and the draw's role, so outputs are byte-identical across repeats and
independent of execution order.  Trials execute sequentially; because each
trial owns an independent substream, a worker pool would produce the same
artifacts.  Timestamps appear only in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import cache, partial
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
from .wls import (
    assemble,
    gram_diagnostics,
    min_samples,
    solve,
)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "RunResult",
    "PRESETS",
    "run",
    "complexity_sweep",
    "discrete_demo",
]

EXPERIMENTS = (
    "poisson2d",
    "poisson1d_kernel",
    "burgers",
    "discrete_demo",
    "complexity_sweep",
)
SAMPLERS = ("optimal", "monte_carlo")
FLOAT_FMT = "%.15g"


# JSON numbers arrive as int or float, config code may pass numpy scalars
_NUMBER_KINDS = {int: Integral, float: Real}


class ConfigError(ValueError):
    """Invalid experiment configuration; nothing is written."""


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
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:  # a required field is missing
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

    def validate(self) -> None:
        """Check field types and every per-experiment range.

        Runs before anything is written, so a config that fails here leaves
        no files behind.
        """
        for name, hint in get_type_hints(type(self)).items():
            kinds = tuple(_NUMBER_KINDS.get(k, k) for k in get_args(hint) or (hint,))
            value = getattr(self, name)
            # bool is an Integral, but true/false is never a count
            if not isinstance(value, kinds) or (
                isinstance(value, bool) and bool not in kinds
            ):
                raise ConfigError(f"{name} has the wrong type: {value!r}")
        if self.experiment not in EXPERIMENTS:
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
        if not self.sweep:
            raise ConfigError("sweep must be a non-empty list")
        # N_eff sweeps count modes; radius sweeps may be fractional
        entry = Real if self.experiment in ("burgers", "discrete_demo") else Integral
        for value in self.sweep:
            if isinstance(value, bool) or not isinstance(value, entry) or value <= 0:
                raise ConfigError(f"sweep entry {value!r} is not a positive size")
        if self.mode_order not in ("row", "column"):
            raise ConfigError("mode_order must be 'row' or 'column'")
        try:
            measure, modes = build_measure(self)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid measure {self.measure!r}: {exc}") from exc
        d_in = len(measure)
        if self.experiment == "poisson2d" and modes is None:
            raise ConfigError("poisson2d needs the l1_cubed measure rule")
        if self.experiment in ("poisson2d", "poisson1d_kernel"):
            for n_eff in self.sweep:
                if n_eff > d_in:
                    raise ConfigError(
                        f"N_eff={n_eff} exceeds the {d_in} available modes"
                    )
            # Poisson outputs have one mode per input mode
            if (self.d_out or 0) > d_in:
                raise ConfigError(f"d_out={self.d_out} exceeds the {d_in} modes")
        if self.experiment in ("burgers", "discrete_demo"):
            build_gamma(self, d_in)
        if self.experiment == "burgers":
            try:
                burgers_solver(self, d_in)
            except (TypeError, ValueError) as exc:
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


def _mode_count(spec: dict, key: str, default: int | None) -> int | None:
    value = spec.get(key, default)
    # bool is an Integral, but true/false is never a mode count
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, Integral) or value < 1
    ):
        raise ConfigError(f"{key} must be a positive integer, not {value!r}")
    return value


def build_measure(config: ExperimentConfig) -> tuple[ProductMeasure, np.ndarray | None]:
    """Measure over input modes plus the 2-D mode list when applicable."""
    spec = config.measure
    rule = spec.get("alpha_rule", "squared_index")
    if rule == "l1_cubed":
        modes = sine_modes_2d(_mode_count(spec, "max_mode", 10), config.mode_order)
        alphas = np.sum(modes, axis=1).astype(float) ** 3
        return ProductMeasure.from_alphas(alphas), modes
    if rule == "squared_index":
        d_in = _mode_count(spec, "d_in", None)
        if d_in is None:
            universe = np.arange(1, 4097)
            d_in = select_d_in(1.0 / (2.0 * universe**2 + 3.0), config.energy_target)
        alphas = np.arange(1, d_in + 1, dtype=float) ** 2
        return ProductMeasure.from_alphas(alphas), None
    if rule == "explicit":
        alphas = np.asarray(spec["alphas"], dtype=float)
        return ProductMeasure.from_alphas(alphas), None
    raise ConfigError(f"unknown alpha rule {rule!r}")


def build_gamma(config: ExperimentConfig, d_in: int) -> np.ndarray:
    rule = config.index_set.get("gamma_rule", "uniform")
    if rule == "uniform":
        return np.ones(d_in)
    if rule == "linear_decay":
        step = config.index_set.get("gamma_step", 0.99 / 20.0)
        gamma = 1.0 - (np.arange(d_in)) * step
        if np.any(gamma <= 0.0):
            raise ConfigError("linear_decay gamma reached zero; reduce d_in or step")
        return gamma
    raise ConfigError(f"unknown gamma rule {rule!r}")


def burgers_solver(config: ExperimentConfig, d_in: int) -> BurgersConfig:
    return BurgersConfig.create(
        viscosity=float(config.solver.get("viscosity", 0.1)),
        final_time=float(config.solver.get("final_time", 0.2)),
        d_in=d_in,
        d_out=config.d_out or 48,
        dt=config.solver.get("dt"),
        d_solve=config.solver.get("d_solve"),
        grid_size=config.solver.get("grid_size"),
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


def coefficient_header(basis) -> list[str]:
    if isinstance(basis, PolyOperatorBasis):
        return [".".join(str(int(v)) for v in row) for row in basis.scalar_indices]
    return [str(int(m)) for m in basis.input_modes]


def write_coefficients(path: Path, estimate, basis) -> None:
    # one column per scalar index (named in the header), one row per output mode
    header = coefficient_header(basis)
    rows = [list(col) for col in estimate.coefficients.T]
    write_csv(path, header, rows)


def dataset_key(cfg_hash: str, sampler: str, seed: int, m: int) -> str:
    text = json.dumps([cfg_hash, sampler, seed, m])
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def cached_dataset(
    directory: Path, key: str, write: bool, draw, operator: str, **build_kwargs
) -> DataSet:
    """Dataset ``key`` from the cache, else drawn, solved and cached if ``write``.

    ``<key>.npz`` holds ``inputs``, ``weights`` and ``outputs`` losslessly, so
    a cache hit reproduces a fit bit for bit.  The ``<key>.json`` provenance
    sidecar is written last, so a dataset whose write was cut short is never
    read.
    """
    arrays, sidecar = directory / f"{key}.npz", directory / f"{key}.json"
    if arrays.exists() and sidecar.exists():
        provenance = json.loads(sidecar.read_text(encoding="utf-8"))
        with np.load(arrays) as stored:
            return DataSet(**stored, provenance=provenance)
    samples, weights = draw()
    ds = build_dataset(samples, weights, operator, **build_kwargs)
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
# the fitting loop shared by the PDE experiments


def fit_once(basis, samples, weights, outputs):
    system = assemble(basis, samples, weights, outputs)
    summary = gram_diagnostics(system)
    estimate = solve(system, basis)
    return estimate, summary


def _or_nan(value: float | None) -> float:
    return math.nan if value is None else value


@dataclass(frozen=True)
class FitSpec:
    """What one PDE experiment fills into :func:`fit_sweep`.

    ``entry(value)`` gives a sweep value's ``(tag, basis, M, lead)``: ``tag``
    enters the seeds and the coefficient file name, ``lead`` fills
    ``lead_columns``.  Training sets are ``build_dataset(..., operator,
    d_out=d_out, **operator_kwargs)``; test sets keep every output column and
    are seeded per (tag, trial) if ``test_per_trial``, else per tag.
    ``metrics(estimate, report, test)`` gives the ``metric_columns``.
    """

    measure: ProductMeasure
    d_out: int
    entry: Callable[[object], tuple]
    operator: str
    metric_columns: list
    metrics: Callable[..., list]
    coeff_file: str
    operator_kwargs: dict = field(default_factory=dict)
    lead_columns: list = field(default_factory=list)
    test_per_trial: bool = True


def fit_sweep(config: ExperimentConfig, out: Path, spec: FitSpec) -> list[list]:
    """Draw, solve, fit and test once per (sweep entry, sampler, trial).

    Every training and test set goes through :func:`cached_dataset`.  Writes
    one row per fit to ``results.csv`` and ``gram.csv``, and the coefficients
    of trial 0 of the first sampler to ``coeffs/``.
    """
    measure, cfg_hash = spec.measure, config.content_hash()
    coeffs_dir = out / "coeffs"
    coeffs_dir.mkdir(parents=True, exist_ok=True)
    rows, gram_rows = [], []
    for value in config.sweep:
        tag, basis, m, lead = spec.entry(value)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)

        def dataset(sampler: str, seed: int, size: int, d_out: int | None) -> DataSet:
            rng = RngSeed(seed)
            if sampler == "optimal":
                draw = partial(sample_optimal, plan, tables, rng, size, basis)
            else:
                draw = partial(sample_monte_carlo, measure, rng, size, tables=tables)
            return cached_dataset(
                out / "dataset", dataset_key(cfg_hash, sampler, seed, size),
                config.write_datasets, draw, spec.operator, d_out=d_out,
                seed=seed, sampler=sampler, **spec.operator_kwargs,
            )

        @cache
        def test_set(seed: int) -> DataSet:
            return dataset("monte_carlo", seed, config.n_test, None)

        for sampler in config.samplers():
            for trial in range(config.trials):
                seed = derive_seed(config.seed, "train", tag, sampler, trial)
                ds = dataset(sampler, seed, m, spec.d_out)
                estimate, summary = fit_once(basis, ds.inputs, ds.weights, ds.outputs)
                test_tags = (tag, trial) if spec.test_per_trial else (tag,)
                test = test_set(derive_seed(config.seed, "test", *test_tags))
                report = empirical_bochner_error(
                    test.outputs[:, : spec.d_out], estimate.predict(test.inputs)
                )
                rows.append(
                    [*lead, basis.n_eff, sampler, trial, m, summary.condition,
                     summary.spectral_gap, report.absolute,
                     *spec.metrics(estimate, report, test), cfg_hash]
                )
                gram_rows.append(
                    [basis.n_eff, sampler, trial, summary.spectral_gap,
                     summary.condition, summary.block_size,
                     summary.stable(config.delta), cfg_hash]
                )
                if sampler == config.samplers()[0] and trial == 0:
                    write_coefficients(
                        coeffs_dir / spec.coeff_file.format(tag), estimate, basis
                    )
    write_csv(
        out / "results.csv",
        [*spec.lead_columns, "N_eff", "sampling", "trial", "M", "cond_G", "gap",
         "test_error", *spec.metric_columns, "config_hash"],
        rows,
    )
    write_csv(
        out / "gram.csv",
        ["N_eff", "sampling", "trial", "gap", "cond", "block_size", "stable",
         "config_hash"],
        gram_rows,
    )
    return rows


# --------------------------------------------------------------------------
# experiments


def cross_basis(config: ExperimentConfig, measure, k, d_out: int) -> PolyOperatorBasis:
    """Polynomial operator basis on the hyperbolic cross of radius ``k``."""
    spec = IndexSetSpec(
        kind="hyperbolic_cross", radius=float(k),
        gamma=build_gamma(config, len(measure)),
        degree_cap=int(config.index_set.get("degree_cap", 10)),
    )
    return PolyOperatorBasis.build(measure, generate(spec), d_out)


def poisson_spec(config: ExperimentConfig) -> FitSpec:
    """Rank-one fits on the first ``N_eff`` input modes, ``M`` from the certificate."""
    measure, modes = build_measure(config)
    d_out = config.d_out or len(measure)

    def entry(value) -> tuple:
        n_eff = int(value)
        basis = LinearRankOneBasis.from_measure(measure, np.arange(n_eff), d_out)
        return n_eff, basis, min_samples(n_eff, config.delta, config.epsilon), []

    common = dict(measure=measure, d_out=d_out, entry=entry)
    if config.experiment == "poisson2d":
        return FitSpec(
            **common, operator="poisson2d", operator_kwargs={"modes_2d": modes},
            metric_columns=["rel_test_error"],
            metrics=lambda estimate, report, test: [_or_nan(report.relative)],
            coeff_file="poisson2d_neff{}.csv",
        )
    grid = np.linspace(0.0, 1.0, 101)
    exact = greens_kernel(grid[:, None], grid[None, :])

    def sup_error(estimate, report, test) -> list:
        kernel = reconstruct_kernel(estimate, grid, grid)
        return [float(np.max(np.abs(kernel - exact)))]

    return FitSpec(
        **common, operator="poisson1d", metric_columns=["kernel_sup_error"],
        metrics=sup_error, coeff_file="kernel_neff{}.csv",
    )


def burgers_spec(config: ExperimentConfig) -> FitSpec:
    """Polynomial fits on the hyperbolic cross of radius ``k``, ``M = N log N``."""
    measure, _ = build_measure(config)
    solver = burgers_solver(config, len(measure))

    def entry(k) -> tuple:
        basis = cross_basis(config, measure, k, solver.d_out)
        n_eff = basis.n_eff
        return k, basis, math.ceil(n_eff * math.log(max(n_eff, 2))), [k]

    def metrics(estimate, report, test) -> list:
        # the test set keeps all d_solve solver modes, so this is the output
        # energy that truncation to d_out discards
        lost = energy_fraction_lost(test.outputs, solver.d_out)
        return [_or_nan(report.relative), lost]

    return FitSpec(
        measure=measure, d_out=solver.d_out, entry=entry, operator="burgers",
        operator_kwargs={"burgers_config": solver}, lead_columns=["k"],
        test_per_trial=False,
        metric_columns=["rel_test_error", "energy_fraction_lost"],
        metrics=metrics, coeff_file="burgers_k{}.csv",
    )


FIT_SPECS = {
    "poisson2d": poisson_spec,
    "poisson1d_kernel": poisson_spec,
    "burgers": burgers_spec,
}


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


def discrete_demo(config: ExperimentConfig, out: Path | None = None) -> list[list]:
    """Leverage-score fitting on a synthetic correlated cloud.

    Builds reference polynomial features, orthonormalizes them on the cloud,
    and compares leverage-score draws with uniform draws, reporting
    conditioning and Sobolev-weighted cloud errors for each configured alpha.
    """
    out = Path(out or config.out_dir)
    measure, _ = build_measure(config)
    d_out = config.d_out or 12
    cfg_hash = config.content_hash()
    cloud = synthetic_cloud(measure, config.cloud_size, derive_seed(config.seed, "cloud"))
    targets = demo_target(cloud, d_out)
    output_modes = np.arange(1, d_out + 1)
    rows = []
    for k in config.sweep:
        ref_basis = cross_basis(config, measure, k, d_out)

        def raw_features(x, _b=ref_basis):
            return _b.scalar_features(x, warn_extrapolation=False)

        plan = build_discrete_plan(cloud, raw_features)
        basis = DiscreteFeatureBasis(plan=plan, raw_features=raw_features, d_out=d_out)
        n_eff = plan.n_eff
        m = min_samples(n_eff, config.delta, config.epsilon)
        for sampler in config.samplers():
            for trial in range(config.trials):
                seed = derive_seed(config.seed, "train", k, sampler, trial)
                if sampler == "optimal":
                    idx, weights = sample_discrete(plan, RngSeed(seed), m)
                else:
                    u = RngSeed(seed).uniform_block(m, 1)[:, 0]
                    idx = np.minimum(
                        (u * plan.n_points).astype(int), plan.n_points - 1
                    )
                    weights = np.ones(m)
                for alpha in config.sobolev_alphas:
                    weighting = SobolevWeighting.for_modes(float(alpha), output_modes)
                    train_out = scale_outputs(targets[idx], weighting)
                    estimate, summary = fit_once(
                        basis, cloud[idx], weights, train_out
                    )
                    predicted = unscale_outputs(estimate.predict(cloud), weighting)
                    report = empirical_bochner_error(targets, predicted, weighting)
                    rows.append(
                        [k, n_eff, sampler, trial, float(alpha), m,
                         summary.condition, summary.spectral_gap, report.absolute,
                         _or_nan(report.relative), _or_nan(report.mean_of_ratios),
                         cfg_hash]
                    )
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "results.csv",
        ["k", "N_eff", "sampling", "trial", "alpha", "M", "cond_G", "gap",
         "test_error", "rel_test_error", "mean_of_ratios", "config_hash"],
        rows,
    )
    return rows


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


def complexity_sweep(config: ExperimentConfig, out: Path | None = None) -> list[list]:
    """Wall-time table of system assembly vs. solve across ``N_eff``.

    At ``M > 4 N_eff`` assembly is expected to dominate the solve; the
    comparison is recorded per row, never hard-asserted (timing noise).
    """
    out = Path(out or config.out_dir)
    measure, _ = build_measure(config)
    d_out = config.d_out or 32
    cfg_hash = config.content_hash()
    rows = []
    for n_eff in config.sweep:
        n_eff = int(n_eff)
        indices = total_degree_prefix(len(measure), n_eff)
        basis = PolyOperatorBasis.build(measure, indices, d_out)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        m = 5 * n_eff
        seed = derive_seed(config.seed, "complexity", n_eff)
        samples, weights = sample_optimal(plan, tables, RngSeed(seed), m, basis)
        outputs = demo_target(samples, d_out)
        t0 = time.perf_counter()
        system = assemble(basis, samples, weights, outputs)
        t1 = time.perf_counter()
        solve(system, basis)
        t2 = time.perf_counter()
        t_assemble, t_solve = t1 - t0, t2 - t1
        rows.append(
            [n_eff, m, d_out, t_assemble, t_solve, t_assemble >= t_solve, cfg_hash]
        )
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "results.csv",
        ["N_eff", "M", "d_out", "t_assemble", "t_solve", "assemble_ge_solve",
         "config_hash"],
        rows,
    )
    return rows


# --------------------------------------------------------------------------
# entry point


def run(config: ExperimentConfig) -> RunResult:
    """Validate, execute, and write all artifacts of one experiment run."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.experiment in FIT_SPECS:
        rows = fit_sweep(config, out, FIT_SPECS[config.experiment](config))
    elif config.experiment == "discrete_demo":
        rows = discrete_demo(config, out)
    else:
        rows = complexity_sweep(config, out)
    manifest = {
        "config": asdict(config),
        "config_hash": config.content_hash(),
        "package_version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "results_rows": len(rows),
        # timings depend on these; result rows do not
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "burgers_threads": solver_threads(),
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return RunResult(out_dir=out, results_rows=len(rows), manifest=manifest)
