r"""Orthonormal operator families and their Christoffel machinery.

Every approximation space here is block separable: the operator index set is
the tensor product ``[d_out] x Lambda_scalar``, so a basis is described by a
scalar feature map ``phi`` of dimension ``N_eff`` together with the number of
output modes.  The full operator basis has dimension ``N = d_out * N_eff``
and its members act as ``Phi_{(o, lam)}(f) = phi_lam(f) psi_o``.

Two concrete families:

* :class:`LinearRankOneBasis` -- rank-one linear operators with scalar
  features ``phi_{n}(f) = fhat_n / sigma_n`` over selected input modes;
* :class:`PolyOperatorBasis` -- tensor orthogonal-polynomial operators with
  scalar features ``phi_lam(f) = prod_j p^j_{lam_j}(fhat_j)``.

Because output modes are orthonormal, the reciprocal Christoffel function of
the operator space collapses to ``w * d_out * sum_lam phi_lam(f)^2`` and the
optimal sampling weight to ``N_eff / sum_lam phi_lam(f)^2``.

The tensor features are evaluated over a prefix tree of the index set: the
parent of ``lam`` is ``lam`` with its last nonzero degree ``lam_j`` set to 0,
and ``phi_lam = phi_parent * p^j_{lam_j}(fhat_j)`` costs one multiply.  The
product of the nonzero factors is thus formed left to right in coordinate
order, starting from the first of them, which is what the dense product over
all coordinates gives too: its factors ``p_0 = 1`` change no bit.

Every ``scalar_features`` returns a fresh array that the caller owns:
:func:`christoffel` and :func:`optimal_weight` square it in place, and
``wls.assemble`` scales it in place into the design matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .measures import ProductMeasure, UnivariateMeasure, fields_equal, poly_table

__all__ = [
    "LinearRankOneBasis",
    "PolyOperatorBasis",
    "christoffel",
    "optimal_weight",
]

# Feature values evaluated per block of samples: about 512 KB of float64, so
# a block's node values and temporaries stay in cache.  On a 2-core Xeon VM
# (2 MiB L2 per core), at N_eff=641 and M=4143, a feature call took 8.5-10.5
# ms at this size, 10-12 ms at half or twice it, and 21 ms with all samples
# in one block.
_BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class LinearRankOneBasis:
    """Rank-one linear operator family over ``input_modes x [d_out]``.

    ``input_modes`` are 0-based positions into the input coefficient vector;
    ``sigmas`` the standard deviations of those coefficients under the
    approximation measure.  ``d_in`` is the total input coefficient length.
    """

    input_modes: np.ndarray
    sigmas: np.ndarray
    d_out: int
    d_in: int

    def __post_init__(self) -> None:
        modes = np.asarray(self.input_modes, dtype=int)
        sigmas = np.asarray(self.sigmas, dtype=float)
        object.__setattr__(self, "input_modes", modes)
        object.__setattr__(self, "sigmas", sigmas)
        if modes.ndim != 1 or sigmas.shape != modes.shape:
            raise ValueError("input_modes and sigmas must be matching 1-d arrays")
        if np.any(sigmas <= 0.0):
            raise ValueError("all sigmas must be strictly positive")
        if self.d_out < 1 or self.d_in < 1:
            raise ValueError("d_out and d_in must be >= 1")
        if np.any(modes < 0) or np.any(modes >= self.d_in):
            raise ValueError("input modes out of range")

    __eq__ = fields_equal

    @classmethod
    def from_measure(
        cls, measure: ProductMeasure, input_modes, d_out: int
    ) -> "LinearRankOneBasis":
        modes = np.asarray(input_modes, dtype=int)
        if np.any(modes < 0) or np.any(modes >= len(measure)):
            raise ValueError(f"input modes outside the measure's {len(measure)} modes")
        sigmas = measure.sigmas[modes]
        return cls(input_modes=modes, sigmas=sigmas, d_out=d_out, d_in=len(measure))

    @property
    def n_eff(self) -> int:
        return int(self.input_modes.size)

    @property
    def n_total(self) -> int:
        return self.n_eff * self.d_out

    def scalar_features(self, fhat: np.ndarray) -> np.ndarray:
        """Normalized selected coordinates ``fhat_{n1} / sigma_{n1}``, freshly made."""
        batch, single = _as_batch(fhat, self.d_in)
        out = batch[:, self.input_modes]
        out /= self.sigmas  # in place: the gather is already a fresh array
        return out[0] if single else out


@dataclass(frozen=True)
class PolyOperatorBasis:
    """Tensor orthogonal-polynomial operator family ``[d_out] x Lambda_scalar``."""

    scalar_indices: np.ndarray
    marginals: tuple[UnivariateMeasure, ...]
    d_out: int
    _plan: _ProductPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        indices = np.atleast_2d(np.asarray(self.scalar_indices, dtype=int))
        object.__setattr__(self, "scalar_indices", indices)
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if indices.shape[1] != len(self.marginals):
            raise ValueError("one marginal per input mode is required")
        if np.any(indices < 0):
            raise ValueError("scalar indices must be non-negative")
        if self.d_out < 1:
            raise ValueError("d_out must be >= 1")
        object.__setattr__(self, "_plan", _product_plan(indices))

    __eq__ = fields_equal

    @classmethod
    def build(
        cls, measure: ProductMeasure, scalar_indices, d_out: int
    ) -> "PolyOperatorBasis":
        return cls(scalar_indices, measure.marginals, d_out)

    @property
    def d_in(self) -> int:
        return int(self.scalar_indices.shape[1])

    @property
    def n_eff(self) -> int:
        return int(self.scalar_indices.shape[0])

    @property
    def n_total(self) -> int:
        return self.n_eff * self.d_out

    def scalar_features(
        self, fhat: np.ndarray, warn_extrapolation: bool = True
    ) -> np.ndarray:
        """Evaluate ``phi_lam(fhat) = prod_j p^j_{lam_j}(fhat_j)`` for every ``lam``.

        Accepts a single coefficient vector or an ``(M, d_in)`` batch.  Entries
        outside [-1, 1] are allowed but flagged with a warning: the features
        are then polynomial extrapolations, useful only for diagnostics.

        One multiply per multi-index, over the prefix tree built with the
        basis: the tree's levels run in feature-major ``(nodes, samples)``
        blocks, parents before children, and each block is transposed into
        the C-contiguous ``(M, N_eff)`` result.  Every feature is the same
        left-to-right product of its nonzero factors as the dense product
        over all coordinates, so the values are bitwise the same.  The result
        is a fresh array (see the module docstring).
        """
        batch, single = _as_batch(fhat, self.d_in)
        if warn_extrapolation and np.any(np.abs(batch) > 1.0 + 1e-14):
            warnings.warn(
                "input coefficients outside [-1, 1]: features are extrapolated",
                RuntimeWarning,
                stacklevel=2,
            )
        plan = self._plan
        m, n = batch.shape[0], self.n_eff
        if plan.levels:
            stacked = np.concatenate([
                poly_table(marginal, top, batch[:, j])
                for j, (marginal, top) in enumerate(zip(self.marginals, plan.tops))
            ])
        out = np.empty((m, n))
        step = max(1, _BLOCK_VALUES // max(1, plan.n_nodes))
        values = np.empty((plan.n_nodes, min(step, m)))
        values[plan.roots] = 1.0
        for start in range(0, m, step):
            stop = min(start + step, m)
            block = values[:, : stop - start]
            for rows, parents, factors in plan.levels:
                block[rows] = block[parents] * stacked[factors, start:stop]
            out[start:stop] = block[:n].T
        return out[0] if single else out


@dataclass(frozen=True)
class _ProductPlan:
    """Prefix tree of an index set: one multiply per multi-index.

    Node ``k < N_eff`` is row ``k`` of the index set (a duplicated row is
    computed twice); prefixes missing from a set that is not lower follow as
    extra nodes.  ``roots`` are the zero nodes, of value 1.  Entry ``l - 1``
    of ``levels`` holds the nodes with ``l`` nonzero degrees, their parents
    and the rows of their last factor in the stacked per-coordinate tables,
    where coordinate ``j`` holds degrees ``0..tops[j]``.
    """

    n_nodes: int
    tops: tuple[int, ...]
    roots: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _product_plan(indices: np.ndarray) -> _ProductPlan:
    """Parent of ``lam``: ``lam`` with its last nonzero degree set to 0."""
    tops = indices.max(axis=0, initial=0)
    offsets = np.cumsum(tops + 1) - (tops + 1)
    nodes = [tuple(row) for row in indices.tolist()]
    node_of: dict[tuple[int, ...], int] = {}
    for k, key in enumerate(nodes):
        node_of.setdefault(key, k)
    roots, links = [], []  # links: (nonzero count, node, parent, factor row)
    for k, key in enumerate(nodes):  # missing prefixes are appended as it runs
        nonzero = [j for j, degree in enumerate(key) if degree]
        if not nonzero:
            roots.append(k)
            continue
        j = nonzero[-1]
        prefix = key[:j] + (0,) * (len(key) - j)
        if prefix not in node_of:
            node_of[prefix] = len(nodes)
            nodes.append(prefix)
        links.append((len(nonzero), k, node_of[prefix], offsets[j] + key[j]))
    links = np.array(links, dtype=int).reshape(-1, 4)
    levels = tuple(
        tuple(links[links[:, 0] == level, 1:].T) for level in np.unique(links[:, 0])
    )
    return _ProductPlan(
        n_nodes=len(nodes),
        tops=tuple(int(top) for top in tops),
        roots=np.array(roots, dtype=int),
        levels=levels,
    )


def _as_batch(fhat: np.ndarray, d_in: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(fhat, dtype=float)
    single = arr.ndim == 1
    batch = arr[None, :] if single else arr
    if batch.shape[1] != d_in:
        raise ValueError(f"expected input length {d_in}, got {batch.shape[1]}")
    return batch, single


def christoffel(basis, fhat: np.ndarray, weight: float = 1.0) -> float | np.ndarray:
    """Weighted reciprocal Christoffel function of the operator space.

    ``kappa_w(f) = w * sum_n ||Phi_n(f)||^2 = w * d_out * sum_lam phi_lam(f)^2``.
    With the optimal weight the value is identically ``N = d_out * N_eff``.
    """
    if np.any(np.asarray(weight) <= 0.0):
        raise ValueError("weight must be strictly positive")
    phi = basis.scalar_features(fhat)
    total = np.sum(np.square(phi, out=phi), axis=-1)
    return weight * basis.d_out * total


def optimal_weight(basis, fhat: np.ndarray) -> float | np.ndarray:
    """Optimal sampling weight ``w(f) = N_eff / sum_lam phi_lam(f)^2``.

    The ``d_out`` factors of the operator-level formula cancel.  Fails if all
    features vanish, which cannot happen when the zero index is a member.
    """
    phi = basis.scalar_features(fhat)
    total = np.sum(np.square(phi, out=phi), axis=-1)
    if np.any(total <= 0.0):
        raise ZeroDivisionError(
            "all scalar features vanish at an input; the optimal weight is undefined"
        )
    return basis.n_eff / total

