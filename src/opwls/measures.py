r"""Symmetric Jacobi measures, orthonormal polynomials, and Gauss quadrature.

Input coefficients are modeled as independent draws from symmetric Jacobi
probability laws on [-1, 1],

    d rho_alpha(t)  proportional to  (1 - t^2)^alpha dt,    alpha > -1,

normalized to unit mass.  The law is centered with second moment
1 / (2 alpha + 3).  This module provides:

* :class:`UnivariateMeasure` -- one symmetric Jacobi marginal,
* :class:`ProductMeasure` -- a finite product of marginals over input modes,
* :class:`PolynomialFamily` -- the orthonormal polynomials of a marginal,
  built from the closed-form three-term recurrence (no moment fitting),
* :class:`QuadratureRule` / :func:`gauss_rule` -- Gaussian quadrature from the
  symmetric tridiagonal recurrence matrix.

All objects are immutable after construction and safe to share across
concurrent workers; a measure's memo of Gauss rules only ever gains rules
that any worker would compute bit for bit alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UnivariateMeasure",
    "ProductMeasure",
    "PolynomialFamily",
    "QuadratureRule",
    "build_family",
    "gauss_rule",
    "eval_poly",
    "poly_table",
    "default_quadrature_order",
]

# Construction rejects exponents this close to the integrability boundary:
# the recurrence becomes badly conditioned as alpha -> -1.
_ALPHA_FLOOR = -0.999


@dataclass(frozen=True)
class UnivariateMeasure:
    """Symmetric Jacobi probability measure on [-1, 1] with exponent ``alpha``.

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


def _recurrence_offdiag(alpha: float, n: int) -> np.ndarray:
    """Orthonormal recurrence coefficients ``b_1 .. b_n`` (``b[0]`` unused).

    For the probability-normalized symmetric Jacobi measure the Jacobi matrix
    has zero diagonal and off-diagonal entries ``b_m = sqrt(beta_m)`` with

        beta_1 = 1 / (2 alpha + 3),
        beta_m = m (m + 2 alpha) / ((2m + 2 alpha + 1)(2m + 2 alpha - 1)),  m >= 2.

    ``beta_1`` is kept as a separate closed form: the general expression is
    0/0 at ``m = 1`` when ``alpha = -1/2``.
    """
    b = np.zeros(n + 1)
    if n >= 1:
        b[1] = math.sqrt(1.0 / (2.0 * alpha + 3.0))
    for m in range(2, n + 1):
        beta = (
            m
            * (m + 2.0 * alpha)
            / ((2.0 * m + 2.0 * alpha + 1.0) * (2.0 * m + 2.0 * alpha - 1.0))
        )
        b[m] = math.sqrt(beta)
    return b


@dataclass(frozen=True)
class PolynomialFamily:
    """Orthonormal polynomials of a symmetric Jacobi marginal.

    ``b[n]`` are the three-term recurrence coefficients of the orthonormal
    family,

        b_{n+1} p_{n+1}(x) = x p_n(x) - b_n p_{n-1}(x),

    with ``p_0 = 1``; symmetry of the measure zeroes the diagonal terms.
    Leading coefficients are ``1 / (b_1 ... b_n) > 0``.
    """

    measure: UnivariateMeasure
    n_max: int
    b: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.measure == other.measure
            and self.n_max == other.n_max
            and np.array_equal(self.b, other.b)
        )

    def recurrence_offdiag(self, n: int) -> np.ndarray:
        """Off-diagonal coefficients up to index ``n`` (closed form, any ``n``)."""
        if n <= self.n_max:
            return self.b[: n + 1]
        return _recurrence_offdiag(self.measure.alpha, n)


def build_family(measure: UnivariateMeasure, n_max: int) -> PolynomialFamily:
    """Construct the orthonormal family of ``measure`` up to degree ``n_max``."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    b = _recurrence_offdiag(measure.alpha, n_max + 1)
    return PolynomialFamily(measure=measure, n_max=n_max, b=b)


def poly_table(family: PolynomialFamily, n_max: int, x: np.ndarray) -> np.ndarray:
    """Values ``p_n(x)`` for ``n = 0 .. n_max``; shape ``(n_max + 1, len(x))``.

    Forward recurrence only; never through monomial coefficients.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b = family.recurrence_offdiag(n_max)
    table = np.empty((n_max + 1, x.size))
    table[0] = 1.0
    if n_max >= 1:
        table[1] = x / b[1]
    for n in range(1, n_max):
        table[n + 1] = (x * table[n] - b[n] * table[n - 1]) / b[n + 1]
    return table


def eval_poly(family: PolynomialFamily, n: int, x) -> np.ndarray | float:
    """Evaluate the orthonormal polynomial of degree ``n`` at ``x``.

    ``x`` outside [-1, 1] is permitted (extrapolation); callers that care
    flag it themselves.
    """
    if n > family.n_max:
        raise ValueError(f"degree {n} exceeds family n_max={family.n_max}")
    scalar = np.isscalar(x)
    values = poly_table(family, n, x)[n]
    return float(values[0]) if scalar else values


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian rule: ``sum_q w_q f(x_q)`` integrates ``f d rho`` exactly
    for polynomials of degree <= 2 order - 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def moment(self, r: int) -> float:
        return float(self.weights @ self.nodes**r)


def default_quadrature_order(n_max: int) -> int:
    """Default rule size used when callers do not specify one."""
    return 2 * (n_max + 1) + 8


def gauss_rule(family: PolynomialFamily, order: int) -> QuadratureRule:
    """Gauss rule of the family's measure via the tridiagonal eigenproblem.

    Nodes are the roots of ``p_order``, the eigenvalues of the symmetric
    tridiagonal Jacobi matrix (Golub and Welsch, 1969); the weight at node
    ``x_q`` equals ``1 / sum_{j < order} p_j(x_q)^2``.  ``eigvalsh`` reads only
    the lower band, and LAPACK's ``dsytrd`` leaves a tridiagonal matrix as it
    is, so the eigenvalues come from the same ``dsterf`` iteration a
    tridiagonal solver runs.

    The recurrence is closed form in the measure, so the rule depends only on
    the measure and the order: it is computed once per measure and order, and
    its arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    rules = family.measure._rules
    rule = rules.get(order)
    if rule is None:
        b = family.recurrence_offdiag(order)
        jacobi = np.zeros((order, order))
        jacobi.flat[order :: order + 1] = b[1:order]
        try:
            nodes = np.linalg.eigvalsh(jacobi, UPLO="L")
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
            raise RuntimeError("quadrature eigen-solve did not converge") from exc
        table = poly_table(family, order - 1, nodes)
        weights = 1.0 / np.sum(table * table, axis=0)
        nodes.flags.writeable = False
        weights.flags.writeable = False
        rule = rules.setdefault(
            order, QuadratureRule(nodes=nodes, weights=weights, order=order)
        )
    return rule
