r"""Symmetric Jacobi measures, orthonormal polynomials, and Gauss quadrature.

Input coefficients are modeled as independent draws from symmetric Jacobi
probability laws on [-1, 1],

    d rho_alpha(t)  proportional to  (1 - t^2)^alpha dt,    alpha > -1,

normalized to unit mass.  The law is centered with second moment
1 / (2 alpha + 3).  This module provides:

* :class:`UnivariateMeasure` -- one symmetric Jacobi marginal with its
  orthonormal polynomials, whose three-term recurrence is closed form in the
  exponent and computed when needed, never stored or fitted from moments,
* :class:`ProductMeasure` -- a finite product of marginals over input modes,
* :func:`poly_table` / :func:`eval_poly` -- the marginal's orthonormal
  polynomials by forward recurrence,
* :class:`QuadratureRule` / :func:`gauss_rule` -- Gaussian quadrature from the
  symmetric tridiagonal recurrence matrix, with the orthonormal values at its
  nodes and, row ``n`` for every degree ``n`` below its order, the cumulative
  column of the marginal's degree-``n`` induced law, which ``sampling``
  inverts.

All objects are immutable after construction, compare by value and are safe
to share across concurrent workers; a measure's memo of Gauss rules, and a
rule's memo of its induced laws, only ever gain what any worker would
compute bit for bit alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

__all__ = [
    "UnivariateMeasure",
    "ProductMeasure",
    "QuadratureRule",
    "gauss_rule",
    "eval_poly",
    "poly_table",
    "default_quadrature_order",
]

# Construction rejects exponents this close to the integrability boundary:
# the recurrence becomes badly conditioned as alpha -> -1.
_ALPHA_FLOOR = -0.999


def fields_equal(a, b) -> bool:
    """``__eq__`` of a dataclass that holds arrays, whose generated one would
    ask an elementwise ``==`` for a truth value: fields by ``np.array_equal``."""
    if type(b) is not type(a):
        return NotImplemented
    fields_of = (f.name for f in fields(a) if f.compare)
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in fields_of)


@dataclass(frozen=True)
class UnivariateMeasure:
    """Symmetric Jacobi probability measure on [-1, 1] with exponent ``alpha``.

    Its orthonormal polynomials follow the three-term recurrence

        b_{n+1} p_{n+1}(x) = x p_n(x) - b_n p_{n-1}(x),

    with ``p_0 = 1``, whose coefficients ``b_n`` are closed form in the
    exponent and computed on demand; symmetry of the measure zeroes the
    diagonal terms.  Leading coefficients are ``1 / (b_1 ... b_n) > 0``.

    ``_rules`` memoizes :func:`gauss_rule` by order; it takes no part in
    equality, hashing or ``repr``.
    """

    alpha: float
    _rules: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha) or self.alpha < _ALPHA_FLOOR:
            raise ValueError(
                f"alpha must be finite and >= {_ALPHA_FLOOR}, got {self.alpha}"
            )

    @property
    def variance(self) -> float:
        """Second moment of the (centered) law, ``1 / (2 alpha + 3)``."""
        return 1.0 / (2.0 * self.alpha + 3.0)

    def density(self, t: np.ndarray) -> np.ndarray:
        """Normalized density ``(1 - t^2)^alpha / Z`` on [-1, 1]."""
        t = np.asarray(t, dtype=float)
        log_z = (
            0.5 * math.log(math.pi)
            + math.lgamma(self.alpha + 1.0)
            - math.lgamma(self.alpha + 1.5)
        )
        t_sq = np.square(t)
        out = np.zeros_like(t_sq)
        interior = t_sq < 1.0
        out[interior] = np.exp(self.alpha * np.log1p(-t_sq[interior]) - log_z)
        if self.alpha == 0.0:
            out[t_sq == 1.0] = math.exp(-log_z)
        return out

    def recurrence_offdiag(self, n: int) -> np.ndarray:
        """Recurrence coefficients ``b_1 .. b_n`` (``b[0]`` unused), any ``n``.

        The Jacobi matrix of the probability-normalized measure has zero
        diagonal and off-diagonal entries ``b_m = sqrt(beta_m)`` with

            beta_1 = 1 / (2 alpha + 3),
            beta_m = m (m + 2 alpha) / ((2m + 2 alpha + 1)(2m + 2 alpha - 1)),  m >= 2.

        ``beta_1`` is kept as a separate closed form: the general expression is
        0/0 at ``m = 1`` when ``alpha = -1/2``.
        """
        b, two_alpha = np.zeros(n + 1), 2.0 * self.alpha
        if n >= 1:
            b[1] = math.sqrt(1.0 / (two_alpha + 3.0))
        m = np.arange(2.0, n + 1)
        low, high = 2.0 * m + two_alpha - 1.0, 2.0 * m + two_alpha + 1.0
        b[2:] = np.sqrt(m * (m + two_alpha) / (high * low))
        return b


@dataclass(frozen=True)
class ProductMeasure:
    """Finite product of symmetric Jacobi marginals over input modes."""

    marginals: tuple[UnivariateMeasure, ...]

    def __post_init__(self) -> None:
        if len(self.marginals) < 1:
            raise ValueError("a product measure needs at least one marginal")
        object.__setattr__(self, "marginals", tuple(self.marginals))

    @classmethod
    def from_alphas(cls, alphas) -> "ProductMeasure":
        return cls(tuple(UnivariateMeasure(float(a)) for a in alphas))

    def __len__(self) -> int:
        return len(self.marginals)

    @property
    def variances(self) -> np.ndarray:
        """Per-mode second moments ``sigma_j^2``."""
        return np.array([m.variance for m in self.marginals])

    @property
    def sigmas(self) -> np.ndarray:
        """Per-mode standard deviations ``sigma_j``."""
        return np.sqrt(self.variances)


def poly_table(measure: UnivariateMeasure, n_max: int, x: np.ndarray) -> np.ndarray:
    """Values ``p_n(x)`` for ``n = 0 .. n_max``; shape ``(n_max + 1, len(x))``.

    Forward recurrence only; never through monomial coefficients.
    """
    if n_max < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n_max}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b = measure.recurrence_offdiag(n_max)
    table = np.empty((n_max + 1, x.size))
    table[0] = 1.0
    if n_max >= 1:
        table[1] = x / b[1]
    for n in range(1, n_max):
        table[n + 1] = (x * table[n] - b[n] * table[n - 1]) / b[n + 1]
    return table


def eval_poly(measure: UnivariateMeasure, n: int, x) -> np.ndarray | float:
    """Evaluate the orthonormal polynomial of degree ``n`` at ``x``.

    ``x`` outside [-1, 1] is permitted (extrapolation); callers that care
    flag it themselves.
    """
    scalar = np.isscalar(x)
    values = poly_table(measure, n, x)[n]
    return float(values[0]) if scalar else values


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian rule: ``sum_q w_q f(x_q)`` integrates ``f d rho`` exactly
    for polynomials of degree <= 2 order - 1.  ``values[n, q]`` is
    ``p_n(x_q)``, ``n < order``."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    values: np.ndarray = field(repr=False)

    __eq__ = fields_equal

    def moment(self, r: int) -> float:
        return float(self.weights @ self.nodes**r)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Discretized induced laws, computed once and read-only: row ``n``
        is the cumulative column over ``nodes`` of the degree-``n`` law
        ``p_n^2 d rho``, of masses ``w_q p_n(x_q)^2``, for every ``n < order``.
        Row 0 is the discretized measure itself.

        Each row of masses sums to one by exactness (``2n <= 2 order - 1``)
        and is divided by its sum; a sum off by more than ``1e-8`` signals a
        breakdown of the rule and raises.
        """
        masses = self.weights * np.square(self.values)
        totals = masses.sum(axis=1)
        n = int(np.argmax(np.abs(totals - 1.0)))
        if abs(totals[n] - 1.0) > 1e-8:
            raise ValueError(
                f"induced law of degree {n} sums to {totals[n]!r} on the "
                f"{self.order}-point rule"
            )
        column = cumulative(masses / totals[:, None])
        column.flags.writeable = False
        return column


def cumulative(masses: np.ndarray) -> np.ndarray:
    """Cumulative columns of discrete laws on the last axis, each ending at 1."""
    column = np.cumsum(masses, axis=-1)
    column[..., -1] = 1.0
    return column


def default_quadrature_order(n_max: int) -> int:
    """Default rule size used when callers do not specify one."""
    return 2 * (n_max + 1) + 8


def gauss_rule(measure: UnivariateMeasure, order: int) -> QuadratureRule:
    """Gauss rule of ``measure`` via the tridiagonal eigenproblem.

    Nodes are the roots of ``p_order``, the eigenvalues of the symmetric
    tridiagonal Jacobi matrix (Golub and Welsch, 1969); the weight at node
    ``x_q`` equals ``1 / sum_{j < order} p_j(x_q)^2``, and the rule keeps the
    values ``p_j(x_q)``.  ``eigvalsh`` reads only the lower band, and LAPACK's
    ``dsytrd`` leaves a tridiagonal matrix as it is, so the eigenvalues come
    from the same ``dsterf`` iteration a tridiagonal solver runs.

    The recurrence is closed form in the measure, so the rule depends only on
    the measure and the order: it is computed once per measure and order, and
    its arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    rules = measure._rules
    rule = rules.get(order)
    if rule is None:
        b = measure.recurrence_offdiag(order)
        jacobi = np.zeros((order, order))
        jacobi.flat[order :: order + 1] = b[1:order]
        try:
            nodes = np.linalg.eigvalsh(jacobi, UPLO="L")
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
            raise RuntimeError("quadrature eigen-solve did not converge") from exc
        values = poly_table(measure, order - 1, nodes)
        weights = 1.0 / np.sum(values * values, axis=0)
        for array in (nodes, weights, values):
            array.flags.writeable = False
        rule = rules.setdefault(order, QuadratureRule(nodes, weights, order, values))
    return rule
