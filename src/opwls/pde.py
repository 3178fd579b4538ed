r"""Desk-scale ground-truth operators and dataset construction.

Poisson problems are solved exactly in the sine eigenbasis; viscous Burgers
is advanced by a first-order IMEX Euler scheme (implicit viscosity, explicit
pseudospectral flux) collocated at the midpoints of ``grid_size + 1`` equal
cells.  The flux is taken in conservative form, ``u u_x = (u^2 / 2)_x``: per
step, one DST-III synthesizes ``u`` at the midpoints and one DCT-II projects
``u^2 / 2`` onto cosines, both of length ``grid_size + 1`` and both run on
numpy's real FFTs, so no solver loads scipy.  The midpoint
rule integrates ``cos(l pi x)`` exactly for ``0 <= l < 2 (grid_size + 1)``,
so the projection equals the Galerkin flux up to roundoff once
``2 (grid_size + 1) > 3 d_solve`` (Orszag's 3/2 rule).  All solvers are
pure functions of (input coefficients, configuration).

:func:`build_dataset` runs Burgers solves on every core available to the
process: it splits the rows once into one contiguous block per core for every
1,024 rows, and threads solve the blocks.  Rows are independent, so the
outputs do not depend on the number of cores or on the split.

Conventions: the 1-D basis is ``sqrt(2) sin(n pi x)`` on (0, 1) and the 2-D
basis ``2 sin(n1 pi x1) sin(n2 pi x2)`` on the unit square, both orthonormal
in L^2.  Coefficient vectors are indexed by 0-based positions into an
explicit mode list; 2-D mode lists enumerate ``(n1, n2)`` pairs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import repeat
from numbers import Integral

import numpy as np

from .measures import fields_equal

__all__ = [
    "BurgersConfig",
    "DataSet",
    "sine_modes_2d",
    "sine_value_1d",
    "poisson_apply_1d",
    "poisson_apply_2d",
    "greens_kernel",
    "burgers_evolve",
    "solver_threads",
    "build_dataset",
    "default_d_solve",
    "default_grid_size",
    "default_dt",
    "DATASET_REVISION",
]

_BATCH_CHUNK = 1024
# the index sets' hard limit, and 125 times the finest default rule, T/8000
MAX_STEPS = 10**6
# the code that draws inputs and solves outputs, as every dataset's provenance
# records it; a change to any drawn input or ground-truth output bumps it, so
# a cache written before the change is never read
DATASET_REVISION = 1


def sine_modes_2d(max_mode: int, order: str = "row") -> np.ndarray:
    """Mode pairs ``(n1, n2)`` of ``[1..max_mode]^2`` in lexicographic order.

    ``order`` selects which component varies fastest: ``"row"`` keeps ``n1``
    outermost (row-major), ``"column"`` keeps ``n2`` outermost.  Both orders
    appear in practice; configurations record the one in use.
    """
    if order not in ("row", "column"):
        raise ValueError(f"unknown mode order {order!r}")
    modes = np.arange(1, max_mode + 1)
    # "xy" indexing puts the second grid axis, n2, outermost
    n1, n2 = np.meshgrid(modes, modes, indexing="ij" if order == "row" else "xy")
    return np.column_stack([n1.ravel(), n2.ravel()])


def sine_value_1d(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sqrt(2) sin(n pi x)``, broadcasting ``n`` against ``x``."""
    return math.sqrt(2.0) * np.sin(np.multiply.outer(np.asarray(n), np.pi * x))


def poisson_apply_2d(fhat: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Solve ``Delta u = f`` with zero Dirichlet data on the unit square.

    The Laplacian is diagonal with eigenvalue ``-pi^2 (n1^2 + n2^2)`` on mode
    ``(n1, n2)``, so ``uhat = -fhat / (pi^2 (n1^2 + n2^2))`` exactly.
    Batched over the leading axis of ``fhat``.
    """
    modes = np.atleast_2d(np.asarray(modes, dtype=int))
    if np.any(modes < 1):
        raise ValueError("2-d sine modes start at (1, 1)")
    eig = np.pi**2 * (modes[:, 0] ** 2 + modes[:, 1] ** 2).astype(float)
    # one output array: -f / e and f / -e round alike
    return np.asarray(fhat, dtype=float) / -eig


def poisson_apply_1d(fhat: np.ndarray) -> np.ndarray:
    """Solve ``-u'' = f`` on (0, 1) with ``u(0) = u(1) = 0``.

    ``uhat_n = fhat_n / (pi^2 n^2)`` for ``n = 1 .. d`` (1-based modes at
    0-based positions).  Batched over the leading axis.
    """
    arr = np.asarray(fhat, dtype=float)
    n = np.arange(1, arr.shape[-1] + 1)
    return arr / (np.pi**2 * n**2)


def greens_kernel(x, y):
    """Green's function ``min(x, y) - x y`` of the 1-D Dirichlet problem."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.minimum(x, y) - x * y


def default_d_solve(d_in: int, d_out: int) -> int:
    """Smallest ``2^m - 1`` solver dimension exceeding ``10 max(d_in, d_out)``.

    The form keeps the internal transforms fast: the default grid of
    :func:`default_grid_size` then has ``L = 3 * 2^(m-1)`` cells, and ``L``
    is the one FFT length of :func:`burgers_evolve`'s two transforms.
    """
    floor = 10 * max(d_in, d_out)
    m = 1
    while 2**m - 1 <= floor:
        m += 1
    return 2**m - 1


def default_grid_size(d_solve: int) -> int:
    """Smallest odd grid with ``2 (grid_size + 1) > 3 d_solve`` (767 for 511)."""
    return (3 * d_solve // 2) | 1


def default_dt(viscosity: float, final_time: float) -> float:
    """Step size rule: ``T/2000`` down to ``nu = 1e-2``, ``T/8000`` below."""
    return final_time / 2000.0 if viscosity >= 1e-2 else final_time / 8000.0


@dataclass(frozen=True)
class BurgersConfig:
    """Viscous Burgers solver configuration.

    ``d_solve`` must exceed ``10 max(d_in, d_out)`` (anti-aliasing headroom
    for the quantities of interest).  The pseudospectral products are taken
    at the midpoints of ``grid_size + 1`` cells, and their projection is
    exact once ``2 (grid_size + 1) > 3 d_solve``.  That bound is the
    minimum, and its smallest odd grid, :func:`default_grid_size`, the
    default.  ``grid_size`` must be odd: the midpoint solver would run on
    any grid, but the odd rule is part of the config contract.
    ``viscosity``, ``final_time`` and ``dt`` must be positive and finite,
    and ``final_time / dt`` a whole number of 1 to :data:`MAX_STEPS` steps.
    """

    viscosity: float
    final_time: float
    dt: float
    d_solve: int
    grid_size: int
    d_in: int
    d_out: int

    def __post_init__(self) -> None:
        for name in ("d_solve", "grid_size"):
            value = getattr(self, name)
            # bool is an Integral, but true/false is never a size
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise TypeError(f"{name} must be an integer, not {value!r}")
        for name in ("viscosity", "final_time", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, not {value!r}")
        steps = self.final_time / self.dt
        if steps > MAX_STEPS:
            raise ValueError(f"final_time / dt = {steps!r} exceeds {MAX_STEPS} steps")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"final_time / dt = {steps!r} is not a whole number")
        if round(steps) < 1:
            raise ValueError(f"final_time / dt = {steps!r} gives no step")
        if self.d_solve <= 10 * max(self.d_in, self.d_out):
            raise ValueError(
                "d_solve must exceed 10 * max(d_in, d_out) "
                f"({self.d_solve} <= {10 * max(self.d_in, self.d_out)})"
            )
        if 2 * (self.grid_size + 1) <= 3 * self.d_solve:
            raise ValueError(
                "grid_size must satisfy 2 (grid_size + 1) > 3 d_solve "
                f"({self.grid_size} < {default_grid_size(self.d_solve)})"
            )
        if self.grid_size % 2 == 0:
            raise ValueError(f"grid_size must be odd ({self.grid_size})")

    @classmethod
    def create(
        cls,
        viscosity: float,
        final_time: float = 0.2,
        d_in: int = 8,
        d_out: int = 48,
        dt: float | None = None,
        d_solve: int | None = None,
        grid_size: int | None = None,
    ) -> "BurgersConfig":
        d_solve = default_d_solve(d_in, d_out) if d_solve is None else d_solve
        return cls(
            viscosity=viscosity,
            final_time=final_time,
            dt=default_dt(viscosity, final_time) if dt is None else dt,
            d_solve=d_solve,
            grid_size=default_grid_size(d_solve) if grid_size is None else grid_size,
            d_in=d_in,
            d_out=d_out,
        )

    def as_dict(self) -> dict:
        # collocation is recorded so that a dataset cached by a solver
        # collocated elsewhere (the interval grid) is solved again, never read
        return {**asdict(self), "collocation": "midpoint"}


class BlowUpError(RuntimeError):
    """The explicit flux produced a non-finite state."""


def burgers_evolve(u0hat: np.ndarray, config: BurgersConfig) -> np.ndarray:
    """Advance a batch of initial sine coefficients to the final time.

    The flux is taken in conservative form, ``u u_x = (u^2 / 2)_x``.  For
    ``w = u^2 / 2``, which vanishes at both ends, integration by parts gives
    the sine coefficients of the flux from the cosine coefficients of ``w``:

        fluxhat_j = <w_x, sqrt(2) sin(j pi x)> = -j pi <w, sqrt(2) cos(j pi x)>.

    Per step, ``u`` is synthesized at the ``L = grid_size + 1`` cell midpoints
    ``x_i = (i + 1/2) / L``, the values are squared, ``w`` is projected onto
    cosines by the midpoint rule, and the implicit viscous update follows:

        uhat <- (uhat - dt * fluxhat) / (1 + dt * nu * pi^2 j^2).

    At the midpoints ``sin(j pi x_i) = sin(pi j (2 i + 1) / (2 L))``, so the
    synthesis is a DST-III of length ``L``, and the analysis sum
    ``sum_i w(x_i) cos(j pi x_i)`` is a DCT-II of length ``L``.  Both run on
    numpy's real FFTs of length ``L`` by Makhoul's mapping (IEEE TASSP 28(1),
    1980).  With ``h = L / 2``, ``a_0 = 0`` and ``a_m = 0`` for
    ``m > d_solve``, the half-spectrum ``e^{i pi m / (2 L)} (a_{L-m} - i a_m)``,
    ``m = 0 .. h``, goes through one inverse real FFT.  It returns
    ``(-1)^i sqrt(2) u(x_i) / L`` with the even cells first, then the odd
    cells in reverse order.  That order is the input permutation of the
    DCT-II, and the signs vanish in the square.  So one real FFT of the
    squares, times ``e^{-i pi k / (2 L)}``, gives the cosine sum of mode
    ``k <= h`` in its real part, and that of mode ``L - k`` in minus its
    imaginary part.  The state is kept in that layout, as ``h + 1`` complex
    slots ``a_m + i a_{L-m}`` with mode ``h`` in the real part only, so
    that each mode's flux lands on its own slot; ``-i e^{i pi m / (2 L)}``
    turns a slot into the synthesis input.

    The projection is exact, not merely alias-free: ``w cos(j pi x)`` has
    cosine modes up to ``3 d_solve``, and the midpoint rule integrates
    ``cos(l pi x)`` exactly whenever ``0 <= l < 2 L``, since
    ``sum_i cos(l pi (i + 1/2) / L) = 0`` for ``0 < l < 2 L``.  The bound
    ``2 (grid_size + 1) > 3 d_solve`` guarantees it.

    Rows are independent, so any split of the batch gives bitwise identical
    rows.  Returns all ``d_solve`` coefficients at the final time; callers
    truncate.
    """
    u0 = np.atleast_2d(np.asarray(u0hat, dtype=float))
    if u0.shape[1] > config.d_solve:
        raise ValueError("initial coefficients exceed the solver dimension")
    d, cells = config.d_solve, config.grid_size + 1
    half = cells // 2
    j = np.arange(1, d + 1)
    # the state is the h + 1 slots a_m + i a_{L-m}; in its float view, mode
    # j <= h is the real part of slot j and mode j > h the imaginary part of
    # slot L - j, and the entries that hold no mode stay zero
    at = np.where(j <= half, 2 * j, 2 * (cells - j) + 1)
    state = np.zeros((u0.shape[0], half + 1), dtype=complex)
    parts = state.view(float)
    parts[:, at[: u0.shape[1]]] = u0

    damp = np.zeros(2 * half + 2)
    damp[at] = 1.0 / (1.0 + config.dt * config.viscosity * np.pi**2 * j**2)
    # the synthesis returns sqrt(2) u / L, so its square is 4 w / L^2, and
    # the cell sum of w cos(j pi x) is L / sqrt(2) times the cosine
    # coefficient; modes above h read minus the imaginary parts
    flux_scale = np.zeros(2 * half + 2)
    flux_scale[at] = (
        np.where(j <= half, 1.0, -1.0) * config.dt * j * np.pi * cells
        / (2.0 * math.sqrt(2.0))
    )
    m = np.arange(half + 1)
    shift = -1j * np.exp(0.5j * np.pi * m / cells)
    # slot h holds a_h once: e^{i pi / 4} (a_h - i a_h) = sqrt(2) a_h
    shift[half] = math.sqrt(2.0)
    unshift = np.exp(-0.5j * np.pi * m / cells)
    n_steps = int(round(config.final_time / config.dt))

    sums = np.empty_like(state)
    sum_parts = sums.view(float)
    values = np.empty((u0.shape[0], cells))
    # a blow-up overflows the squares first; the finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            np.multiply(state, shift, out=sums)
            np.fft.irfft(sums, n=cells, axis=1, out=values)
            np.square(values, out=values)
            np.fft.rfft(values, axis=1, out=sums)
            sums *= unshift
            sum_parts *= flux_scale
            state += sums
            parts *= damp
            if not np.all(np.isfinite(state)):
                raise BlowUpError("non-finite Burgers state; reduce dt or amplitudes")
    return parts[:, at]


def solver_threads() -> int:
    """Cores :func:`build_dataset` fans Burgers solves out over."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    # macOS and Windows have no affinity call
    return os.cpu_count() or 1


def _burgers_fan_out(samples: np.ndarray, config: BurgersConfig) -> np.ndarray:
    # one contiguous row block per core for every _BATCH_CHUNK rows, never an
    # empty one but for zero rows; numpy's FFTs and ufuncs release the GIL, so
    # threads run the blocks in parallel, without pickling or worker processes
    rows, cores = samples.shape[0], solver_threads()
    count = max(1, min(rows, cores * math.ceil(rows / _BATCH_CHUNK)))
    with ThreadPoolExecutor(max_workers=cores) as pool:
        return np.vstack(list(pool.map(
            burgers_evolve, np.array_split(samples, count), repeat(config))))


@dataclass(frozen=True)
class DataSet:
    """Paired input/output coefficient matrices with provenance."""

    inputs: np.ndarray
    outputs: np.ndarray
    weights: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "weights", weights)
        if not (inputs.shape[0] == outputs.shape[0] == weights.shape[0]):
            raise ValueError("inputs, outputs, and weights must agree in length")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")

    __eq__ = fields_equal

    @property
    def n_samples(self) -> int:
        return int(self.inputs.shape[0])


def build_dataset(
    samples: np.ndarray,
    weights: np.ndarray,
    operator: str,
    *,
    modes_2d: np.ndarray | None = None,
    burgers_config: BurgersConfig | None = None,
    d_out: int | None = None,
    seed: int | None = None,
    sampler: str = "unspecified",
) -> DataSet:
    """Apply a ground-truth operator to sampled inputs.

    ``operator`` is ``"poisson1d"``, ``"poisson2d"`` (needs ``modes_2d``), or
    ``"burgers"`` (needs ``burgers_config``).  Outputs are truncated to
    ``d_out`` columns when given.  Provenance records the operator, seed,
    sampler kind, solver configuration and :data:`DATASET_REVISION`, the last
    two being what a cached dataset is checked against; it holds no hash of
    the inputs, which nothing read.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if operator == "poisson1d":
        outputs = poisson_apply_1d(samples)
    elif operator == "poisson2d":
        if modes_2d is None:
            raise ValueError("poisson2d requires the mode list")
        outputs = poisson_apply_2d(samples, modes_2d)
    elif operator == "burgers":
        if burgers_config is None:
            raise ValueError("burgers requires a solver configuration")
        outputs = _burgers_fan_out(samples, burgers_config)
    else:
        raise ValueError(f"unknown operator {operator!r}")
    if d_out is not None:
        outputs = outputs[:, :d_out]
    provenance = {
        "operator": operator,
        "sampler": sampler,
        "seed": seed,
        "solver_config": burgers_config.as_dict() if burgers_config else None,
        "dataset_revision": DATASET_REVISION,
    }
    return DataSet(
        inputs=samples, outputs=outputs, weights=weights, provenance=provenance
    )
