r"""Desk-scale ground-truth operators and dataset construction.

Poisson problems are solved exactly in the sine eigenbasis; viscous Burgers
is advanced by a first-order IMEX Euler scheme (implicit viscosity, explicit
pseudospectral flux) collocated at the midpoints of ``grid_size + 1`` equal
cells.  The flux is taken in conservative form, ``u u_x = (u^2 / 2)_x``: per
step, one DST-III synthesizes ``u`` at the midpoints and one DCT-II projects
``u^2 / 2`` onto cosines, both of length ``grid_size + 1``.  The midpoint
rule integrates ``cos(l pi x)`` exactly for ``0 <= l < 2 (grid_size + 1)``,
so the projection equals the Galerkin flux up to roundoff once
``2 (grid_size + 1) > 3 d_solve`` (Orszag's 3/2 rule).  All solvers are
pure functions of (input coefficients, configuration).

:func:`build_dataset` runs Burgers solves on every core available to the
process, one contiguous block of rows per thread.  Rows are independent, so
the outputs do not depend on the number of cores.

Conventions: the 1-D basis is ``sqrt(2) sin(n pi x)`` on (0, 1) and the 2-D
basis ``2 sin(n1 pi x1) sin(n2 pi x2)`` on the unit square, both orthonormal
in L^2.  Coefficient vectors are indexed by 0-based positions into an
explicit mode list; 2-D mode lists enumerate ``(n1, n2)`` pairs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from numbers import Integral

import numpy as np

__all__ = [
    "BurgersConfig",
    "DataSet",
    "sine_modes_2d",
    "sine_value_1d",
    "sine_value_2d",
    "poisson_apply_1d",
    "poisson_apply_2d",
    "greens_kernel",
    "burgers_solve",
    "burgers_evolve",
    "solver_threads",
    "build_dataset",
    "default_d_solve",
    "default_grid_size",
    "default_dt",
]

_BATCH_CHUNK = 1024


def sine_modes_2d(max_mode: int, order: str = "row") -> np.ndarray:
    """Mode pairs ``(n1, n2)`` of ``[1..max_mode]^2`` in lexicographic order.

    ``order`` selects which component varies fastest: ``"row"`` keeps ``n1``
    outermost (row-major), ``"column"`` the transpose.  Both orders appear in
    practice; configurations record the one in use.
    """
    n1, n2 = np.meshgrid(
        np.arange(1, max_mode + 1), np.arange(1, max_mode + 1), indexing="ij"
    )
    pairs = np.column_stack([n1.ravel(), n2.ravel()])
    if order == "column":
        pairs = pairs[:, ::-1][np.lexsort((pairs[:, 1], pairs[:, 0]))]
        pairs = pairs[:, ::-1]
    elif order != "row":
        raise ValueError(f"unknown mode order {order!r}")
    return pairs


def sine_value_1d(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sqrt(2) sin(n pi x)``, broadcasting ``n`` against ``x``."""
    return math.sqrt(2.0) * np.sin(np.multiply.outer(np.asarray(n), np.pi * x))


def sine_value_2d(pair, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """``2 sin(n1 pi x1) sin(n2 pi x2)`` on the grid ``x1 x x2``."""
    n1, n2 = int(pair[0]), int(pair[1])
    return 2.0 * np.outer(np.sin(n1 * np.pi * x1), np.sin(n2 * np.pi * x2))


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
    return -np.asarray(fhat, dtype=float) / eig


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
        if self.viscosity <= 0.0:
            raise ValueError("viscosity must be positive")
        if self.final_time <= 0.0 or self.dt <= 0.0:
            raise ValueError("final_time and dt must be positive")
        steps = self.final_time / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"final_time / dt = {steps!r} is not a whole number")
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
        return {
            "viscosity": self.viscosity,
            "final_time": self.final_time,
            "dt": self.dt,
            "d_solve": self.d_solve,
            "grid_size": self.grid_size,
            "d_in": self.d_in,
            "d_out": self.d_out,
            # recorded so that a dataset cached by a solver collocated
            # elsewhere (the interval grid) is solved again, never read
            "collocation": "midpoint",
        }


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
    synthesis is a DST-III of length ``L`` with ``a_j`` at input ``j - 1``;
    input ``L - 1``, mode ``L``, is the zero padding, since ``d_solve < L``.
    The analysis sum ``sum_i w(x_i) cos(j pi x_i)`` is a DCT-II of length
    ``L``.  Both carry scipy's factor 2 and run on FFTs of length ``L``.

    The projection is exact, not merely alias-free: ``w cos(j pi x)`` has
    cosine modes up to ``3 d_solve``, and the midpoint rule integrates
    ``cos(l pi x)`` exactly whenever ``0 <= l < 2 L``, since
    ``sum_i cos(l pi (i + 1/2) / L) = 0`` for ``0 < l < 2 L``.  The bound
    ``2 (grid_size + 1) > 3 d_solve`` guarantees it.

    Rows are independent, so any split of the batch gives bitwise identical
    rows.  Returns all ``d_solve`` coefficients at the final time; callers
    truncate.
    """
    # scipy.fft is loaded by the first solve, not by ``import opwls``
    from scipy import fft

    u0 = np.atleast_2d(np.asarray(u0hat, dtype=float))
    if u0.shape[1] > config.d_solve:
        raise ValueError("initial coefficients exceed the solver dimension")
    d, cells = config.d_solve, config.grid_size + 1
    state = np.zeros((u0.shape[0], d))
    state[:, : u0.shape[1]] = u0

    j = np.arange(1, d + 1, dtype=float)
    damp = 1.0 / (1.0 + config.dt * config.viscosity * np.pi**2 * j**2)
    # the synthesis returns sqrt(2) u, so its square is 4 w; the analysis
    # sum over the cells is 2 L / sqrt(2) times the cosine coefficient
    flux_scale = config.dt * j * np.pi / (4.0 * math.sqrt(2.0) * cells)
    n_steps = int(round(config.final_time / config.dt))

    # a blow-up overflows the squares first; the finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            values = fft.dst(state, type=3, n=cells, axis=1)
            np.square(values, out=values)
            sums = fft.dct(values, type=2, axis=1, overwrite_x=True)
            state += flux_scale * sums[:, 1 : d + 1]
            state *= damp
            if not np.all(np.isfinite(state)):
                raise BlowUpError("non-finite Burgers state; reduce dt or amplitudes")
    return state


def solver_threads() -> int:
    """Cores :func:`build_dataset` fans Burgers solves out over."""
    return len(os.sched_getaffinity(0))


def _burgers_fan_out(samples: np.ndarray, config: BurgersConfig) -> np.ndarray:
    # each _BATCH_CHUNK chunk is split into one contiguous row block per
    # core; scipy.fft and numpy release the GIL, so threads run the blocks
    # in parallel, without pickling and without worker processes' memory
    cores = solver_threads()
    blocks = []
    with ThreadPoolExecutor(max_workers=cores) as pool:
        for i in range(0, samples.shape[0], _BATCH_CHUNK):
            chunk = samples[i : i + _BATCH_CHUNK]
            split = np.array_split(chunk, min(cores, chunk.shape[0]))
            blocks.extend(pool.map(burgers_evolve, split, repeat(config)))
    return np.vstack(blocks)


def burgers_solve(
    u0hat: np.ndarray, config: BurgersConfig, n_keep: int | None = None
) -> np.ndarray:
    """Single-trajectory wrapper around :func:`burgers_evolve`."""
    out = burgers_evolve(np.atleast_2d(u0hat), config)[0]
    return out if n_keep is None else out[:n_keep]


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
        if inputs.shape[0] == 0:
            # an empty (0, w) block keeps its width; atleast_2d of an empty
            # vector gives (1, 0), which becomes (0, 0)
            width = outputs.shape[-1] if outputs.shape[0] == 0 else 0
            outputs = outputs.reshape(0, width)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "weights", weights)
        if not (inputs.shape[0] == outputs.shape[0] == weights.shape[0]):
            raise ValueError("inputs, outputs, and weights must agree in length")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")

    @property
    def n_samples(self) -> int:
        return int(self.inputs.shape[0])


def content_hash(*parts) -> str:
    """Stable hash of arrays / JSON-serializable metadata."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
            digest.update(str(part.shape).encode())
        else:
            digest.update(json.dumps(part, sort_keys=True, default=str).encode())
    return digest.hexdigest()


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
    ``d_out`` columns when given.  Provenance records the seed, sampler kind,
    solver configuration, and a content hash of the inputs.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if samples.shape[0] == 0:
        width = d_out if d_out is not None else samples.shape[1]
        outputs = np.zeros((0, width))
    elif operator == "poisson1d":
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
    if d_out is not None and samples.shape[0] > 0:
        outputs = outputs[:, :d_out]
    provenance = {
        "operator": operator,
        "sampler": sampler,
        "seed": seed,
        "solver_config": burgers_config.as_dict() if burgers_config else None,
        "input_hash": content_hash(samples),
    }
    return DataSet(
        inputs=samples, outputs=outputs, weights=weights, provenance=provenance
    )
