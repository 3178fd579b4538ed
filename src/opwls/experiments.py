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
trial's draws are seeded by their own :func:`derive_seed` key, a worker pool
would produce the same artifacts.  Timestamps and wall times appear only in
the manifest and ``timings.csv``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import platform
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import cache, partial
from itertools import product
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .evaluation import (
    SobolevWeighting,
    empirical_bochner_error,
    energy_fraction_lost,
    reconstruct_kernel,
)
from .index_sets import IndexSetSpec, generate
from .measures import ProductMeasure
from .operator_basis import LinearRankOneBasis, PolyOperatorBasis
from .pde import (
    DATASET_REVISION,
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


# the numbers JSON holds: an integer field takes an int, a real field either
# (np.float64 is a float); other numpy scalars cannot be hashed as JSON
REAL = (int, float)


class ConfigError(ValueError):
    """Invalid experiment configuration; nothing is written."""


def _non_finite(value) -> bool:
    # JSON's NaN and Infinity tokens parse as floats; an int is always finite,
    # and may be too large for math.isfinite
    return isinstance(value, float) and not math.isfinite(value)


def check_numbers(name: str, values, kind=REAL) -> None:
    """Raise :class:`ConfigError` unless ``values`` is a non-empty list of
    finite numbers of ``kind``."""
    if not isinstance(values, list) or not values or any(
        isinstance(v, bool) or not isinstance(v, kind) for v in values
    ):
        raise ConfigError(f"{name} must be a non-empty list of numbers: {values!r}")
    if any(_non_finite(v) for v in values):
        raise ConfigError(f"{name} must hold finite numbers: {values!r}")


def check_fields(obj, prefix: str = "") -> None:
    """Raise :class:`ConfigError` unless each field of ``obj`` fits its
    annotation; a number must be finite."""
    for name, hint in get_type_hints(type(obj)).items():
        kinds = tuple(REAL if k is float else k for k in get_args(hint) or (hint,))
        value = getattr(obj, name)
        # bool is an int, but true/false is never a number
        if not isinstance(value, kinds) or (
            isinstance(value, bool) and bool not in kinds
        ):
            raise ConfigError(f"{prefix}{name} has the wrong type: {value!r}")
        if _non_finite(value):
            raise ConfigError(f"{prefix}{name} must be finite: {value!r}")


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
        # not JSON (a JSONDecodeError), not an object, an unknown or missing field
        except (TypeError, ValueError) as exc:
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
        return content_hash(payload)[:16]

    def section(self, name: str):
        """Section ``name`` as its :data:`SECTIONS` class, defaults filled in."""
        try:
            parsed = SECTIONS[name](**getattr(self, name))
        except TypeError as exc:  # an unknown key
            raise ConfigError(f"{name}: {exc}") from exc
        check_fields(parsed, f"{name}.")
        return parsed

    def validate(self) -> "FitSpec":
        """Check the scalar fields, then build and return the :class:`FitSpec`.

        Building checks the rest: any ``ValueError`` or ``TypeError`` that the
        measure, index sets, bases, solver or Sobolev weightings raise comes
        out as a :class:`ConfigError`.  Nothing is written here, so a config
        that fails leaves no files behind; :func:`run` fits the spec returned.
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
        if not 0.0 < self.energy_target <= 1.0:
            raise ConfigError("energy_target must lie in (0, 1]")
        # N_eff sweeps count modes; radius sweeps may be fractional
        kind = REAL if self.experiment in ("burgers", "discrete_demo") else int
        check_numbers("sweep", self.sweep, kind)
        if min(self.sweep) <= 0:
            raise ConfigError(f"sweep entries must be positive: {self.sweep!r}")
        check_numbers("sobolev_alphas", self.sobolev_alphas)
        if self.mode_order not in ("row", "column"):
            raise ConfigError("mode_order must be 'row' or 'column'")
        try:
            return FIT_SPECS[self.experiment](self)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

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


def content_hash(value) -> str:
    """sha256 of a JSON value with sorted keys; ``str`` stands in for what
    JSON cannot hold."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def derive_seed(master: int, *tags) -> int:
    return int(content_hash([master, *tags])[:16], 16) >> 1


def select_d_in(variances: np.ndarray, fraction: float) -> int:
    """Smallest prefix of the variance sequence capturing ``fraction`` of it.

    Never longer than the sequence, although its rounded cumulative sum may
    end below 1.
    """
    variances = np.asarray(variances, dtype=float)
    total = variances.sum()
    if total <= 0.0:
        raise ConfigError("variance sequence has no energy")
    cumulative = np.cumsum(variances) / total
    return min(int(np.searchsorted(cumulative, fraction)) + 1, len(variances))


def build_measure(config: ExperimentConfig) -> tuple[ProductMeasure, np.ndarray | None]:
    """Measure over input modes plus the 2-D mode list when applicable.

    Raises :class:`ConfigError` naming the ``measure`` section if it gives
    no valid measure.
    """
    spec = config.section("measure")
    modes = None
    try:
        if spec.alpha_rule == "l1_cubed":
            modes = sine_modes_2d(spec.max_mode, config.mode_order)
            alphas = np.sum(modes, axis=1).astype(float) ** 3
        elif spec.alpha_rule == "squared_index":
            d_in = spec.d_in
            if d_in is None:
                variances = 1.0 / (2.0 * np.arange(1, 4097) ** 2 + 3.0)
                d_in = select_d_in(variances, config.energy_target)
            alphas = np.arange(1, d_in + 1, dtype=float) ** 2
        elif spec.alpha_rule == "explicit":
            check_numbers("measure.alphas", spec.alphas)
            alphas = np.asarray(spec.alphas, dtype=float)
        else:
            raise ConfigError(f"unknown alpha rule {spec.alpha_rule!r}")
        return ProductMeasure.from_alphas(alphas), modes
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid measure {config.measure!r}: {exc}") from exc


def cross_spec(config: ExperimentConfig, d_in: int, k) -> IndexSetSpec:
    """Hyperbolic cross of radius ``k`` over ``d_in`` modes, per ``index_set``."""
    spec = config.section("index_set")
    try:
        if spec.gamma_rule == "uniform":
            gamma = np.ones(d_in)
        elif spec.gamma_rule == "linear_decay":
            # an overflow to inf is rejected by IndexSetSpec, with no warning
            with np.errstate(over="ignore"):
                gamma = 1.0 - np.arange(d_in) * spec.gamma_step
        else:
            raise ConfigError(f"unknown gamma rule {spec.gamma_rule!r}")
        return IndexSetSpec(
            kind="hyperbolic_cross", radius=float(k), gamma=gamma,
            degree_cap=spec.degree_cap,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid index_set {config.index_set}: {exc}") from exc


def burgers_solver(config: ExperimentConfig, d_in: int) -> BurgersConfig:
    spec = config.section("solver")
    try:
        # a JSON integer such as "final_time": 1 enters the provenance as 1.0
        return BurgersConfig.create(
            viscosity=float(spec.viscosity), final_time=float(spec.final_time),
            d_in=d_in, d_out=config.d_out or 48,
            dt=spec.dt, d_solve=spec.d_solve, grid_size=spec.grid_size,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid solver {config.solver!r}: {exc}") from exc


# --------------------------------------------------------------------------
# artifact writing


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


def write_csv(path: Path, records: list[dict]) -> None:
    """One line per record, under a header of the first record's keys."""
    lines = [",".join(records[0])]
    lines += [",".join(format_cell(v) for v in r.values()) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_coefficients(path: Path, coefficients: np.ndarray, basis) -> None:
    # one column per scalar index (named in the header), one row per output mode
    if isinstance(basis, PolyOperatorBasis):
        header = [".".join(str(int(v)) for v in row) for row in basis.scalar_indices]
    elif isinstance(basis, LinearRankOneBasis):
        header = [str(int(m)) for m in basis.input_modes]
    else:  # cloud-orthonormal features have no index set entry of their own
        header = [f"b{j}" for j in range(basis.n_eff)]
    # every cell is a float: format each row of Python floats with one %,
    # which gives the bytes format_cell gives for the numpy ones
    row_format = ",".join([FLOAT_FMT] * coefficients.shape[0])
    lines = [",".join(header)]
    lines += [row_format % tuple(row) for row in coefficients.T.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def dataset_key(cfg_hash: str, sampler: str, seed: int, m: int) -> str:
    return content_hash([cfg_hash, sampler, seed, m])[:20]


def cached_dataset(
    directory: Path, key: str, write: bool, draw, truth,
    solver_config: dict | None = None, **truth_kwargs,
) -> DataSet:
    """Dataset ``key`` from the cache, else made by ``truth`` and cached if ``write``.

    ``<key>.arrays`` holds the ``.npy`` records of ``inputs``, ``weights`` and
    ``outputs``, back to back, so a cache hit reproduces a fit bit for bit.
    The ``<key>.json`` provenance sidecar is removed before the arrays are
    written and written after them, so a dataset whose write was cut short
    is never read.  Neither is one whose sidecar records another
    ``solver_config`` than the resolved one ``truth`` solves with, since the
    key hashes the config as written, where a ``null`` solver setting stands
    for a default that may change; nor one whose sidecar records another
    ``dataset_revision`` than :data:`~opwls.pde.DATASET_REVISION`, the code
    that draws and solves today; nor one whose sidecar a killed run cut
    short.  Such a dataset is made again and, if ``write``, overwritten.
    """
    arrays, sidecar = directory / f"{key}.arrays", directory / f"{key}.json"
    try:
        provenance = json.loads(sidecar.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):  # no sidecar, or one cut short
        provenance = {}
    if (arrays.exists() and provenance.get("dataset_revision") == DATASET_REVISION
            and provenance.get("solver_config") == solver_config):
        # on a real file numpy reads each record with one np.fromfile
        with arrays.open("rb") as f:
            inputs, weights, outputs = (np.lib.format.read_array(f) for _ in range(3))
        return DataSet(inputs=inputs, weights=weights, outputs=outputs,
                       provenance=provenance)
    ds = truth(*draw(), **truth_kwargs)
    if write:
        directory.mkdir(parents=True, exist_ok=True)
        sidecar.unlink(missing_ok=True)
        with arrays.open("wb") as f:
            for a in (ds.inputs, ds.weights, ds.outputs):
                np.lib.format.write_array(f, a, allow_pickle=False)
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
    """Assemble, diagnose and solve one system; also its ``timings.csv`` times.

    The system is dropped on return, so it never outlives its fit.
    """
    t0 = time.perf_counter()
    system = assemble(basis, samples, weights, outputs)
    t1 = time.perf_counter()
    summary = gram_diagnostics(system)
    t2 = time.perf_counter()
    estimate = solve(system, basis)
    return estimate, summary, {"t_assemble": t1 - t0, "t_gram": t2 - t1,
                               "t_solve": time.perf_counter() - t2}


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
    """One experiment, built from its config and ready for :func:`fit_sweep`.

    ``entries`` holds one built ``(tag, basis, M, lead, draw)`` per sweep
    value: ``tag`` enters the seeds and the coefficient file name, ``lead``
    is a dict of the columns that open each of its rows, and
    ``draw(sampler, rng, size)`` gives inputs and weights; ``basis.d_out``
    output modes are fitted.  ``truth(inputs, weights, d_out=, seed=,
    sampler=)`` gives the :class:`DataSet`; if it runs a solver,
    ``solver_config`` is the resolved configuration its provenance records.
    Test sets, ``monte_carlo`` draws of ``n_test``, or the whole
    ``test_cloud`` (sampler ``cloud``) if one is given, keep every output
    column and are seeded per (tag, trial) if ``test_per_trial``, else per
    tag.  Each draw is fitted
    once, scored once per :class:`SobolevWeighting` in ``weightings``, or
    once, unweighted and with no ``alpha`` column, if ``None``.
    ``metrics(estimate, report, test)`` gives the dict of columns that
    follow ``test_error`` in ``results.csv``.
    """

    entries: list
    truth: Callable[..., DataSet]
    metrics: Callable[..., dict]
    coeff_file: str
    test_per_trial: bool = True
    test_cloud: np.ndarray | None = None
    weightings: list | None = None
    solver_config: dict | None = None


def fit_sweep(config: ExperimentConfig, out: Path, spec: FitSpec) -> int:
    """Draw, solve, fit and predict once per (sweep entry, sampler, trial).

    Each fit is scored once per alpha: a weighting is a norm, not a fit
    (:mod:`opwls.evaluation`).  Every training and test set goes through
    :func:`cached_dataset`.  Writes one row per score to ``results.csv``,
    ``gram.csv`` and ``timings.csv``, one record per score to ``errors.json``,
    and the coefficients of trial 0 of the first sampler to ``coeffs/``,
    which the run owns.  Returns the number of rows.
    """
    cfg_hash = config.content_hash()
    coeffs_dir = out / "coeffs"
    coeffs_dir.mkdir(parents=True, exist_ok=True)
    # drop the coeffs/ files of an earlier run that this run will not rewrite
    alphas = [w.alpha for w in spec.weightings or ()] or [0.0]
    names = {spec.coeff_file.format(tag, a) for tag, *_ in spec.entries for a in alphas}
    for stale in set(coeffs_dir.glob("*.csv")) - {coeffs_dir / n for n in names}:
        stale.unlink()
    rows, gram_rows, timing_rows, error_records = [], [], [], []

    def dataset(draw, sampler: str, seed: int, size: int, d_out) -> DataSet:
        return cached_dataset(
            out / "dataset", dataset_key(cfg_hash, sampler, seed, size),
            config.write_datasets, partial(draw, sampler, RngSeed(seed), size),
            spec.truth, spec.solver_config, d_out=d_out, seed=seed, sampler=sampler,
        )

    def whole_cloud(sampler: str, rng: RngSeed, size: int):
        return spec.test_cloud, np.ones(size)

    for tag, basis, m, lead, draw in spec.entries:
        weightings = spec.weightings or [SobolevWeighting.flat(basis.d_out)]

        @cache
        def test_set(seed: int) -> DataSet:
            if spec.test_cloud is None:
                return dataset(draw, "monte_carlo", seed, config.n_test, None)
            return dataset(whole_cloud, "cloud", seed, len(spec.test_cloud), None)

        for sampler, trial in product(config.samplers(), range(config.trials)):
            seed = derive_seed(config.seed, "train", tag, sampler, trial)
            t0 = time.perf_counter()
            ds = dataset(draw, sampler, seed, m, basis.d_out)
            t_dataset = time.perf_counter() - t0
            estimate, summary, t_fit = fit_once(
                basis, ds.inputs, ds.weights, ds.outputs
            )
            times = {"t_dataset": t_dataset, **t_fit}
            del ds  # spent: free it before the test set and the next draw
            t0 = time.perf_counter()
            test_tags = (tag, trial) if spec.test_per_trial else (tag,)
            test = test_set(derive_seed(config.seed, "test", *test_tags))
            predicted = estimate.predict(test.inputs)
            t_predict = time.perf_counter() - t0
            stable = summary.stable(config.delta)
            gram = {"gap": summary.spectral_gap, "cond": summary.condition,
                    "block_size": summary.block_size}
            # the draw's times go to the first alpha scored on it
            for weighting in weightings:
                t0 = time.perf_counter()
                report = empirical_bochner_error(
                    test.outputs[:, : basis.d_out], predicted, weighting
                )
                metrics = spec.metrics(estimate, report, test)
                t_test = t_predict + time.perf_counter() - t0
                key = {"N_eff": basis.n_eff, "sampling": sampler, "trial": trial}
                if spec.weightings:
                    key["alpha"] = weighting.alpha
                rows.append({
                    **lead, **key, "M": m, "cond_G": summary.condition,
                    "gap": summary.spectral_gap, "test_error": report.absolute,
                    **metrics, "config_hash": cfg_hash, "stable": stable,
                })
                gram_rows.append({**key, **gram, "stable": stable,
                                  "config_hash": cfg_hash})
                timing_rows.append({**lead, **key, "M": m, **times, "t_test": t_test})
                error_records.append({
                    **lead, **key,
                    "quantiles": {str(q): v for q, v in report.quantiles.items()},
                    "mean_of_ratios": report.mean_of_ratios, **gram,
                })
                times, t_predict = dict.fromkeys(times, 0.0), 0.0
                if sampler == config.samplers()[0] and trial == 0:
                    # the coefficients in the H^alpha-orthonormal output basis
                    coefficients = estimate.coefficients * np.sqrt(weighting.weights)
                    name = spec.coeff_file.format(tag, weighting.alpha)
                    write_coefficients(coeffs_dir / name, coefficients, basis)
            del estimate, predicted  # spent too: free them before the next draw
    write_csv(out / "results.csv", rows)
    write_csv(out / "gram.csv", gram_rows)
    write_csv(out / "timings.csv", timing_rows)
    (out / "errors.json").write_text(
        json.dumps(error_records, indent=2) + "\n", encoding="utf-8"
    )
    return len(rows)


# --------------------------------------------------------------------------
# experiments


def relative_error(estimate, report, test) -> dict:
    return {"rel_test_error": _or_nan(report.relative)}


def poisson_spec(config: ExperimentConfig) -> FitSpec:
    """Rank-one fits on the first ``N_eff`` input modes, ``M`` from the certificate."""
    measure, modes = build_measure(config)
    if config.experiment == "poisson2d" and modes is None:
        raise ConfigError("poisson2d needs the l1_cubed measure rule")
    d_out = config.d_out or len(measure)
    # Poisson outputs have one mode per input mode
    if d_out > len(measure):
        raise ConfigError(f"d_out={d_out} exceeds the {len(measure)} modes")

    def entry(value) -> tuple:
        n_eff = int(value)
        basis = LinearRankOneBasis.from_measure(measure, np.arange(n_eff), d_out)
        m = min_samples(n_eff, config.delta, config.epsilon)
        return n_eff, basis, m, {}, measure_draw(measure, basis)

    entries = [entry(value) for value in config.sweep]

    if config.experiment == "poisson2d":
        return FitSpec(
            entries=entries,
            truth=partial(build_dataset, operator="poisson2d", modes_2d=modes),
            metrics=relative_error, coeff_file="poisson2d_neff{}.csv",
        )
    grid = np.linspace(0.0, 1.0, 101)
    exact = greens_kernel(grid[:, None], grid[None, :])

    def sup_error(estimate, report, test) -> dict:
        kernel = reconstruct_kernel(estimate, grid, grid)
        return {"kernel_sup_error": float(np.max(np.abs(kernel - exact)))}

    return FitSpec(
        entries=entries,
        truth=partial(build_dataset, operator="poisson1d"),
        metrics=sup_error, coeff_file="kernel_neff{}.csv",
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
        return k, basis, m, {"k": k}, measure_draw(measure, basis)

    def metrics(estimate, report, test) -> dict:
        # the test set keeps all d_solve solver modes, so this is the output
        # energy that truncation to d_out discards
        lost = energy_fraction_lost(test.outputs, solver.d_out)
        return {"rel_test_error": _or_nan(report.relative),
                "energy_fraction_lost": lost}

    return FitSpec(
        entries=[entry(k) for k in config.sweep],
        truth=partial(build_dataset, operator="burgers", burgers_config=solver),
        test_per_trial=False, metrics=metrics, coeff_file="burgers_k{}.csv",
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
    provenance.update(operator="demo_target", dataset_revision=DATASET_REVISION)
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
        basis = DiscreteFeatureBasis.build(cloud, ref_basis)
        plan = basis.plan

        def draw(sampler: str, rng: RngSeed, size: int):
            if sampler == "optimal":
                idx, weights = sample_discrete(plan, rng, size)
            else:
                u = rng.uniform_block(size, 1)[:, 0]
                idx = np.minimum((u * plan.n_points).astype(int), plan.n_points - 1)
                weights = np.ones(size)
            return cloud[idx], weights

        m = min_samples(plan.n_eff, config.delta, config.epsilon)
        return k, basis, m, {"k": k}, draw

    output_modes = np.arange(1, d_out + 1)
    return FitSpec(
        entries=[entry(k) for k in config.sweep],
        truth=partial(demo_dataset, d_out),
        test_cloud=cloud,
        weightings=[SobolevWeighting.for_modes(float(alpha), output_modes)
                    for alpha in config.sobolev_alphas],
        test_per_trial=False,
        metrics=lambda estimate, report, test: {
            "rel_test_error": _or_nan(report.relative),
            "mean_of_ratios": _or_nan(report.mean_of_ratios),
        },
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
        return n_eff, basis, 5 * n_eff, {}, measure_draw(measure, basis)

    return FitSpec(
        entries=[entry(value) for value in config.sweep],
        truth=partial(demo_dataset, d_out),
        metrics=relative_error, coeff_file="complexity_neff{}.csv",
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


def openblas_functions(*names: str) -> list | None:
    """numpy's OpenBLAS functions ``names``, all from one library, or ``None``.

    ``dlsym`` on numpy's core extension also searches the OpenBLAS that numpy
    loaded with it: the ``scipy_openblas`` names of numpy's wheels, else the
    plain names of a system OpenBLAS.  An MKL or Accelerate numpy has neither.
    """
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        try:
            return [getattr(lib, f"{prefix}{name}{suffix}") for name in names]
        except AttributeError:
            continue
    return None


def openblas_thread_calls() -> tuple[Callable, Callable] | None:
    """``(get, set)`` of numpy's OpenBLAS thread count, or ``None``."""
    calls = openblas_functions("get_num_threads", "set_num_threads")
    if calls is None:
        return None
    get, set_ = calls
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def openblas_core() -> str | None:
    """The kernel numpy's OpenBLAS picked at run time, or ``None``.

    A ``DYNAMIC_ARCH`` build picks it for the CPU it runs on, so the last
    digits of a fit follow the CPU too; ``np.show_config`` reports only the
    build host's.
    """
    calls = openblas_functions("get_corename")
    if calls is None:
        return None
    (corename,) = calls
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode().strip()


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread; yield the count read back.

    After a multi-threaded call OpenBLAS keeps its idle worker spinning for
    about 0.13 s, and a run calls the BLAS more often than that: on two
    cores, runs used twice their wall time in CPU time, for no shorter wall
    time.  One thread also makes the last digits of the results independent
    of the core count.  The previous count comes back however the block
    exits.  The count is process-wide: other threads' BLAS calls run on one
    thread too until the block ends.  Yields ``None``, and changes nothing,
    for a BLAS that is not OpenBLAS.
    """
    calls = openblas_thread_calls()
    if calls is None:
        yield None
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield get()
    finally:
        set_(previous)


# the thread count one_blas_thread pins and restores is process-wide, so
# overlapping runs would restore each other's pin
_RUN_LOCK = threading.Lock()


def run(config: ExperimentConfig) -> RunResult:
    """Validate, execute, and write all artifacts of one experiment run.

    Runs on one BLAS thread (:func:`one_blas_thread`); runs in one process
    run one after another.
    """
    with _RUN_LOCK, one_blas_thread() as threads:
        spec = config.validate()
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        results_rows = fit_sweep(config, out, spec)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        manifest = {
            "config": asdict(config),
            "config_hash": config.content_hash(),
            "package_version": __version__,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "results_rows": results_rows,
            # timings depend on these; the last digits of results also depend
            # on the BLAS build, recorded as numpy reports it, on the kernel
            # OpenBLAS picked for this CPU, and on the thread count the run
            # held OpenBLAS to (null for both: another BLAS)
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": f"{blas['name']} {blas['version']}",
                "blas_core": openblas_core(),
                "blas_threads": threads,
                "burgers_threads": solver_threads(),
            },
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return RunResult(out_dir=out, results_rows=results_rows, manifest=manifest)
