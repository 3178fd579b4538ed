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
exactness whenever ``2n <= 2Q - 1``.  The rule itself holds these laws, one
cumulative row per degree below ``Q`` (:attr:`QuadratureRule.cdf`), and a
draw is a left binary search of a row.  Rules are memoized on their
measure, so one marginal's laws are computed once and shared by every basis
and run that samples it.  The rank-one linear family is the degree-1 case of
the polynomial one: the orthonormal degree-1 polynomial of a centered
marginal is exactly ``x / sigma``.  The base measure is the mixture whose
one component is all zero, so Monte Carlo is the optimal draw under that
plan: linear, polynomial and Monte Carlo draws share one path.

A measure known only through a point cloud has one basis per cloud:
:meth:`DiscreteFeatureBasis.build` orthonormalizes a reference
:class:`PolyOperatorBasis` on the cloud (:func:`build_discrete_plan`) and
keeps the plan and the reference, which both compare by value; leverage
draws are :func:`sample_discrete` on its ``plan``.

Randomness is counter based (Philox).  Sample ``i`` of a batch owns row
``i`` of a block of uniforms of fixed padded width, so sample ``i`` of a
draw of ``n`` is the same for every ``n > i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .measures import (
    ProductMeasure,
    QuadratureRule,
    cumulative,
    default_quadrature_order,
    fields_equal,
    gauss_rule,
)
from .operator_basis import LinearRankOneBasis, PolyOperatorBasis, optimal_weight

__all__ = [
    "RngSeed",
    "MixturePlan",
    "DiscretePlan",
    "DiscreteFeatureBasis",
    "build_induced_tables",
    "draw_induced",
    "mixture_plan",
    "sample_optimal",
    "sample_monte_carlo",
    "build_discrete_plan",
    "sample_discrete",
]

@dataclass(frozen=True)
class RngSeed:
    """Counter-based random stream.

    Uniforms are consumed in rows of a padded width, a multiple of the Philox
    block of four doubles; every recorded draw was made at that width.  Row
    ``i`` of a block does not depend on how many rows follow it.  Same seed,
    same draw sequence.
    """

    seed: int

    def uniform_block(self, n_rows: int, row_width: int) -> np.ndarray:
        """Uniforms for ``n_rows`` samples, ``row_width`` per sample."""
        gen = np.random.Generator(np.random.Philox(key=self.seed))
        return gen.random((n_rows, 4 * ((row_width + 3) // 4)))[:, :row_width]


def _invert(column: np.ndarray, u: np.ndarray) -> np.ndarray:
    # smallest index i with u <= F_i
    return np.searchsorted(column, u, side="left")


def draw_induced(
    table: QuadratureRule, degree: int, rng: RngSeed, size: int | None = None
):
    """Inverse-transform draw(s) from the degree-``degree`` induced law.

    Degree 0 draws from the discretized base measure.
    """
    if not 0 <= degree < len(table.cdf):
        raise KeyError(f"table holds no induced law of degree {degree}")
    n = 1 if size is None else int(size)
    u = rng.uniform_block(n, 1)[:, 0]
    values = table.nodes[_invert(table.cdf[degree], u)]
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

    __eq__ = fields_equal


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


@cache
def _base_plan(d_in: int) -> MixturePlan:
    """The base measure as a mixture: one all-zero component."""
    return MixturePlan(np.zeros((1, d_in), dtype=int), np.ones(1))


def build_induced_tables(
    measure: ProductMeasure, basis=None
) -> dict[int, QuadratureRule]:
    """Per mode, the memoized Gauss rule that holds the induced laws up to
    the top degree a basis samples in that mode, at the default order.

    Without a basis, the rules of the base (degree 0) laws.
    """
    plan = _base_plan(len(measure)) if basis is None else mixture_plan(basis)
    tops = plan.components.max(axis=0).tolist()
    return {
        j: gauss_rule(marginal, default_quadrature_order(max(top, 1)))
        for j, (marginal, top) in enumerate(zip(measure.marginals, tops))
    }


def _draw(
    plan: MixturePlan, tables: dict[int, QuadratureRule], rng: RngSeed, n_samples: int
) -> np.ndarray:
    """Draw ``n_samples`` inputs from the mixture ``plan`` over ``tables``.

    Sample ``i`` consumes row ``i`` of the uniform block: column 0 picks its
    component, column ``1 + j`` draws coordinate ``j`` from its base column.
    The samples whose component raises ``j`` to degree ``d`` are then redrawn
    at once from the degree-``d`` column at the same uniforms, so the draw is
    bitwise a row-by-row one.
    """
    u = rng.uniform_block(n_samples, len(tables) + 1)
    samples = np.empty((n_samples, len(tables)))
    for j, table in tables.items():
        samples[:, j] = table.nodes[_invert(table.cdf[0], u[:, 1 + j])]
    tops = plan.components.max(axis=0).tolist()
    raised = [j for j, top in enumerate(tops) if top]
    if raised:
        component = _invert(cumulative(plan.probabilities), u[:, 0])
    for j in raised:
        degree, table = plan.components[:, j][component], tables[j]
        for d in range(1, tops[j] + 1):
            rows = np.flatnonzero(degree == d)
            if rows.size:
                samples[rows, j] = table.nodes[_invert(table.cdf[d], u[rows, 1 + j])]
    return samples


def sample_optimal(
    plan: MixturePlan,
    tables: dict[int, QuadratureRule],
    rng: RngSeed,
    n_samples: int,
    basis,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_samples`` inputs from the optimal measure of ``plan``, with the
    optimal weights ``w(f) = N_eff / sum phi(f)^2``, made once the draw has
    freed its uniform block."""
    samples = _draw(plan, tables, rng, n_samples)
    return samples, np.atleast_1d(optimal_weight(basis, samples))


def sample_monte_carlo(
    measure: ProductMeasure,
    rng: RngSeed,
    n_samples: int,
    tables: dict[int, QuadratureRule] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """I.i.d. base draws, unit weights: the optimal draw of the all-zero plan."""
    if tables is None:
        tables = build_induced_tables(measure)
    samples = _draw(_base_plan(len(measure)), tables, rng, n_samples)
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

    __eq__ = fields_equal

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def n_eff(self) -> int:
        return int(self.transform.shape[0])


def build_discrete_plan(points: np.ndarray, features) -> DiscretePlan:
    """Orthonormalize features on a cloud and compute leverage probabilities.

    ``features`` maps an ``(S, d)`` batch to an ``(S, N_eff)`` feature
    matrix; it need not be orthonormal in any continuous sense.  Fails with
    the numerical rank reported when the features are rank deficient on the
    cloud.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s = points.shape[0]
    phi = np.atleast_2d(features(points))
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
    probabilities = np.square(q).sum(axis=1) / n_eff
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
    indices = _invert(cumulative(plan.probabilities), u)
    return indices, plan.weights[indices]


@dataclass(frozen=True)
class DiscreteFeatureBasis:
    """Operator basis whose scalar features are ``reference``'s, orthonormalized
    on a point cloud: the b-features of ``plan``.

    Lets the weighted least-squares machinery run unchanged on discrete
    measures: the b-features are orthonormal under the cloud measure, so the
    Gram diagnostics and stability theory apply verbatim.
    """

    plan: DiscretePlan
    reference: PolyOperatorBasis

    __eq__ = fields_equal

    @classmethod
    def build(
        cls, points: np.ndarray, reference: PolyOperatorBasis
    ) -> "DiscreteFeatureBasis":
        """Orthonormalize ``reference``'s scalar features on the cloud ``points``."""
        features = partial(reference.scalar_features, warn_extrapolation=False)
        return cls(build_discrete_plan(points, features), reference)

    @property
    def d_out(self) -> int:
        return self.reference.d_out

    @property
    def n_eff(self) -> int:
        return self.plan.n_eff

    @property
    def n_total(self) -> int:
        return self.n_eff * self.d_out

    def scalar_features(self, fhat: np.ndarray) -> np.ndarray:
        """The b-features ``phi(fhat) @ R^{-1}`` at ``fhat``, as a fresh array."""
        arr = np.asarray(fhat, dtype=float)
        phi = self.reference.scalar_features(arr, warn_extrapolation=False)
        out = np.atleast_2d(phi) @ self.plan.transform_inverse
        return out[0] if arr.ndim == 1 else out
