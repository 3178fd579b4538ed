r"""Sampling from the approximation measure and its optimal reweightings.

Three samplers are provided, all built on the same discretized
inverse-CDF machinery:

* :func:`sample_monte_carlo` -- i.i.d. draws from the base product measure
  (unit weights);
* :func:`sample_optimal` -- draws from the optimal mixture measure of an
  operator basis, with the matching density-ratio weights;
* :func:`sample_discrete` -- leverage-score draws from a finite point cloud,
  for measures known only through samples.

Each univariate marginal (base or induced) is replaced by the discrete
measure of a Q-point Gauss rule: the induced law of degree ``n`` puts mass
``w_q * p_n(x_q)^2`` at node ``x_q``, which sums to one by quadrature
exactness whenever ``2n <= 2Q - 1``.  Inverse-transform sampling then reduces
to a binary search of cumulative columns.  The rank-one linear family is the
degree-1 case of the polynomial one: the orthonormal degree-1 polynomial of a
centered marginal is exactly ``x / sigma``, so both families share one draw
path.

Randomness is counter based (Philox).  Sample ``i`` of a batch owns a fixed
block of uniforms that any worker can regenerate by advancing the counter,
so results are bitwise reproducible regardless of how samples are
distributed over workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .measures import (
    PolynomialFamily,
    ProductMeasure,
    build_family,
    default_quadrature_order,
    gauss_rule,
    poly_table,
)
from .operator_basis import LinearRankOneBasis, PolyOperatorBasis, optimal_weight

__all__ = [
    "RngSeed",
    "InducedTable",
    "MixturePlan",
    "DiscretePlan",
    "DiscreteFeatureBasis",
    "build_induced_table",
    "build_induced_tables",
    "draw_induced",
    "mixture_plan",
    "sample_optimal",
    "sample_monte_carlo",
    "build_discrete_plan",
    "sample_discrete",
]

_COLUMN_SUM_TOL = 1e-8


def _arrays_equal(plan, other) -> bool:
    # the generated __eq__ would compare the ndarray fields by ``==`` and raise
    if type(other) is not type(plan):
        return NotImplemented
    return all(
        np.array_equal(getattr(plan, f.name), getattr(other, f.name))
        for f in fields(plan)
    )


@dataclass(frozen=True)
class RngSeed:
    """Counter-based random stream with per-sample substreams.

    Uniforms are consumed in rows of a fixed padded width (a multiple of the
    Philox block of four doubles), so row ``i`` can be regenerated in
    isolation by advancing the counter -- the basis of worker-count
    independence.  Same seed, same draw sequence.
    """

    seed: int

    def _padded(self, row_width: int) -> int:
        return 4 * ((row_width + 3) // 4)

    def uniform_block(self, n_rows: int, row_width: int) -> np.ndarray:
        """Uniforms for ``n_rows`` samples, ``row_width`` per sample."""
        padded = self._padded(row_width)
        gen = np.random.Generator(np.random.Philox(key=self.seed))
        if n_rows == 0:
            return np.empty((0, row_width))
        return gen.random((n_rows, padded))[:, :row_width]

    def substream(self, row: int, row_width: int) -> np.ndarray:
        """Regenerate the uniforms of sample ``row`` alone."""
        padded = self._padded(row_width)
        bit_gen = np.random.Philox(key=self.seed)
        bit_gen.advance(row * (padded // 4))
        return np.random.Generator(bit_gen).random(padded)[:row_width]


@dataclass(frozen=True)
class InducedTable:
    """Discretized base and induced laws of one input mode.

    ``cdf[n]`` holds the cumulative masses of the degree-``n`` induced law
    ``p_n^2 d rho`` over ``nodes``; degree 0 is the discretized base measure
    itself.
    """

    nodes: np.ndarray
    cdf: dict[int, np.ndarray] = field(repr=False)


def build_induced_table(
    family: PolynomialFamily, degrees, order: int | None = None
) -> InducedTable:
    """Tabulate the induced laws of ``degrees`` on a Gauss rule of ``order``.

    Masses are ``w_q * p_n(x_q)^2``; each column must sum to one by
    quadrature exactness (requires ``order >= max(degrees) + 1``), and a
    deviation beyond ``1e-8`` signals an insufficient rule and raises.
    Degree 0 is always included.
    """
    wanted = sorted(set(int(n) for n in degrees) | {0})
    top = wanted[-1]
    if order is None:
        order = default_quadrature_order(max(top, family.n_max))
    if order < top + 1:
        raise ValueError(f"order {order} too small for induced degree {top}")
    rule = gauss_rule(family, order)
    table = poly_table(family, top, rule.nodes)
    cdf: dict[int, np.ndarray] = {}
    for n in wanted:
        masses = rule.weights * np.square(table[n])
        total = masses.sum()
        if abs(total - 1.0) > _COLUMN_SUM_TOL:
            raise ValueError(
                f"induced column for degree {n} sums to {total!r}; "
                "increase the quadrature order"
            )
        column = np.cumsum(masses / total)
        column[-1] = 1.0
        cdf[n] = column
    return InducedTable(nodes=rule.nodes, cdf=cdf)


def _invert(nodes: np.ndarray, cdf_column: np.ndarray, u: np.ndarray) -> np.ndarray:
    # smallest node index i with u <= F_i
    return nodes[np.searchsorted(cdf_column, u, side="left")]


def draw_induced(
    table: InducedTable, degree: int, rng: RngSeed, size: int | None = None
):
    """Inverse-transform draw(s) from the degree-``degree`` induced law.

    Degree 0 draws from the discretized base measure.
    """
    if degree not in table.cdf:
        raise KeyError(f"table holds no induced law of degree {degree}")
    n = 1 if size is None else int(size)
    u = rng.uniform_block(n, 1)[:, 0]
    values = _invert(table.nodes, table.cdf[degree], u)
    return float(values[0]) if size is None else values


@dataclass(frozen=True)
class MixturePlan:
    """Mixture decomposition of the optimal sampling measure.

    One component per distinct scalar multi-index, a row of ``components``:
    a draw from it takes coordinate ``j`` from the induced law of degree
    ``components[c, j]``.  A linear basis has the one-hot rows of its input
    modes, in input-mode order.  Component probabilities are multiplicities
    over the full operator index set; under the tensor structure they are
    uniform.
    """

    components: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "components", np.asarray(self.components))
        if np.any(probs < 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("component probabilities must be a distribution")

    __eq__ = _arrays_equal


def mixture_plan(basis) -> MixturePlan:
    """Optimal-measure mixture of a linear or polynomial operator basis."""
    if isinstance(basis, LinearRankOneBasis):
        modes, counts = np.unique(basis.input_modes, return_counts=True)
        components = np.eye(basis.d_in, dtype=int)[modes]
    elif isinstance(basis, PolyOperatorBasis):
        components, counts = np.unique(
            basis.scalar_indices, axis=0, return_counts=True
        )
    else:
        raise TypeError(f"no mixture plan for basis type {type(basis).__name__}")
    return MixturePlan(components, counts * basis.d_out / basis.n_total)


def build_induced_tables(
    measure: ProductMeasure, basis=None, order: int | None = None
) -> dict[int, InducedTable]:
    """Per-mode tables covering every (coordinate, degree) a basis samples.

    Without a basis only the base (degree 0) columns are built.  The default
    rule size is tied to the largest degree present, matching the rule used
    for feature evaluation.
    """
    d_in = len(measure)
    components = (
        np.zeros((1, d_in), dtype=int)
        if basis is None
        else mixture_plan(basis).components
    )
    tables = {}
    for j in range(d_in):
        degrees = np.unique(components[:, j])
        family = build_family(measure.marginals[j], max(int(degrees[-1]), 1))
        tables[j] = build_induced_table(family, degrees, order)
    return tables


def _draw_base(
    tables: dict[int, InducedTable], rng: RngSeed, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform block and base-measure draws of ``n_samples`` inputs.

    Row ``i`` of the block belongs to sample ``i``: column 0 is left for the
    mixture component, column ``1 + j`` draws coordinate ``j``.
    """
    d_in = len(tables)
    u = rng.uniform_block(n_samples, d_in + 1)
    samples = np.empty((n_samples, d_in))
    for j in range(d_in):
        samples[:, j] = _invert(tables[j].nodes, tables[j].cdf[0], u[:, 1 + j])
    return u, samples


def _component_rows(component_idx: np.ndarray, n_components: int):
    order = np.argsort(component_idx, kind="stable")
    sorted_idx = component_idx[order]
    starts = np.searchsorted(sorted_idx, np.arange(n_components), side="left")
    ends = np.searchsorted(sorted_idx, np.arange(n_components), side="right")
    for c in range(n_components):
        rows = order[starts[c] : ends[c]]
        if rows.size:
            yield c, rows


def sample_optimal(
    plan: MixturePlan,
    tables: dict[int, InducedTable],
    rng: RngSeed,
    n_samples: int,
    basis,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_samples`` inputs from the optimal measure, with weights.

    Per sample: pick a mixture component, draw each coordinate from its
    (base or induced) discretized law, and attach the optimal weight
    ``w(f) = N_eff / sum phi(f)^2``.  Sample ``i`` consumes row ``i`` of the
    uniform block: column 0 selects the component, column ``1 + j``
    coordinate ``j``.
    """
    u, samples = _draw_base(tables, rng, n_samples)
    cum = np.cumsum(plan.probabilities)
    cum[-1] = 1.0
    component_idx = np.searchsorted(cum, u[:, 0], side="left")
    for c, rows in _component_rows(component_idx, len(plan.components)):
        degrees = plan.components[c]
        for j in np.flatnonzero(degrees):
            samples[rows, j] = _invert(
                tables[j].nodes, tables[j].cdf[int(degrees[j])], u[rows, 1 + j]
            )
    weights = np.atleast_1d(optimal_weight(basis, samples))
    return samples, weights


def sample_monte_carlo(
    measure: ProductMeasure,
    rng: RngSeed,
    n_samples: int,
    tables: dict[int, InducedTable] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """I.i.d. draws from the (discretized) base product measure, unit weights."""
    if tables is None:
        tables = build_induced_tables(measure)
    _, samples = _draw_base(tables, rng, n_samples)
    return samples, np.ones(n_samples)


@dataclass(frozen=True)
class DiscretePlan:
    """Leverage-score sampling plan of a finite point cloud.

    ``transform`` is the upper-triangular factor ``R`` of the thin QR of the
    scaled feature matrix; the cloud-orthonormal features are
    ``b(x) = R^{-T} phi(x)``, with ``b_j(x_i) = sqrt(S) Q_{ij}`` on the cloud.
    ``transform_inverse`` is ``R^{-1}``, formed once, so a batch of row
    features maps to b-features by one product, ``phi @ R^{-1}``.
    """

    points: np.ndarray
    probabilities: np.ndarray
    transform: np.ndarray = field(repr=False)
    transform_inverse: np.ndarray = field(repr=False)
    b_values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    __eq__ = _arrays_equal

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def n_eff(self) -> int:
        return int(self.transform.shape[0])

    def b_features(self, fhat: np.ndarray, raw_features) -> np.ndarray:
        """Cloud-orthonormal features at arbitrary inputs."""
        return np.atleast_2d(raw_features(fhat)) @ self.transform_inverse


def build_discrete_plan(points: np.ndarray, raw_features) -> DiscretePlan:
    """Orthonormalize features on a cloud and compute leverage probabilities.

    ``raw_features`` maps an ``(S, d)`` batch to an ``(S, N_eff)`` feature
    matrix; it need not be orthonormal in any continuous sense.  Fails with
    the numerical rank reported when the features are rank deficient on the
    cloud.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s = points.shape[0]
    phi = np.atleast_2d(raw_features(points))
    n_eff = phi.shape[1]
    if s < n_eff:
        raise ValueError(f"need at least N_eff={n_eff} points, got {s}")
    v = phi / np.sqrt(s)
    q, r = np.linalg.qr(v)
    singular = np.linalg.svd(r, compute_uv=False)
    rank = int(np.sum(singular > 1e-12 * singular[0]))
    if rank < n_eff:
        raise ValueError(
            f"feature matrix is rank deficient on the cloud: rank {rank} < {n_eff}"
        )
    q_sq = np.square(q)
    probabilities = q_sq.sum(axis=1) / n_eff
    b_values = np.sqrt(s) * q
    weights = n_eff / np.sum(np.square(b_values), axis=1)
    return DiscretePlan(
        points=points,
        probabilities=probabilities,
        transform=r,
        transform_inverse=np.linalg.inv(r),
        b_values=b_values,
        weights=weights,
    )


def sample_discrete(
    plan: DiscretePlan, rng: RngSeed, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Categorical leverage-score draws; returns point indices and weights."""
    u = rng.uniform_block(n_samples, 1)[:, 0]
    cum = np.cumsum(plan.probabilities)
    cum[-1] = 1.0
    indices = np.searchsorted(cum, u, side="left")
    return indices, plan.weights[indices]


@dataclass(frozen=True)
class DiscreteFeatureBasis:
    """Operator-basis adapter whose scalar features are a plan's b-features.

    Lets the weighted least-squares machinery run unchanged on discrete
    measures: the b-features are orthonormal under the cloud measure, so the
    Gram diagnostics and stability theory apply verbatim.
    """

    plan: DiscretePlan
    raw_features: object
    d_out: int

    @property
    def n_eff(self) -> int:
        return self.plan.n_eff

    @property
    def n_total(self) -> int:
        return self.n_eff * self.d_out

    def scalar_features(self, fhat: np.ndarray) -> np.ndarray:
        arr = np.asarray(fhat, dtype=float)
        single = arr.ndim == 1
        out = self.plan.b_features(arr, self.raw_features)
        return out[0] if single else out
