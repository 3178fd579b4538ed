r"""Error metrics, truncation energies, and kernel reconstruction.

The central quantity is the empirical Bochner error: the sample mean of
(optionally Sobolev-weighted) squared output-coefficient distances,

    err^2 ~= (1/M) sum_i sum_o omega_o (truth_io - pred_io)^2,

over test inputs drawn i.i.d. from the approximation measure.  Sobolev
weights ``omega = (1 + ||n||^2)^alpha`` reweight output modes: a weighting is
a norm, not a fit.  In the H^alpha-orthonormal output basis the outputs are
``Y diag(sqrt(omega))``, and since the least-squares fit is separable over
output columns, its coefficients are ``C diag(sqrt(omega))`` for the
unweighted coefficients ``C``; its predictions, mapped back, are the
unweighted ones.  So one fit serves every weighting, scored in each norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import fields_equal
from .operator_basis import LinearRankOneBasis
from .pde import sine_value_1d
from .wls import OperatorEstimate

__all__ = [
    "SobolevWeighting",
    "ErrorReport",
    "empirical_bochner_error",
    "energy_fraction_lost",
    "reconstruct_kernel",
    "operator_matrix_view",
    "nearest_rank_quantile",
]

_QUANTILE_LEVELS = (0.05, 0.5, 0.95)


@dataclass(frozen=True)
class SobolevWeighting:
    """Per-mode weights ``(1 + ||n||_2^2)^alpha`` over an output mode list.

    ``modes`` holds one integer mode (1-D) or one mode pair (2-D) per output
    column.  ``alpha = 0`` gives all ones.
    """

    alpha: float
    weights: np.ndarray

    __eq__ = fields_equal

    @classmethod
    def for_modes(cls, alpha: float, modes) -> "SobolevWeighting":
        modes = np.atleast_1d(np.asarray(modes, dtype=float))
        norm_sq = modes**2 if modes.ndim == 1 else np.sum(modes**2, axis=1)
        # an overflow shows as a non-finite weight, reported below
        with np.errstate(over="ignore"):
            weights = (1.0 + norm_sq) ** alpha
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("Sobolev weights must be positive and finite")
        return cls(alpha=alpha, weights=weights)

    @classmethod
    def flat(cls, d_out: int) -> "SobolevWeighting":
        return cls(alpha=0.0, weights=np.ones(d_out))


def nearest_rank_quantile(values: np.ndarray, level: float) -> float:
    """Nearest-rank quantile: the ``ceil(level * n)``-th smallest value."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    if n == 0:
        raise ValueError("no values to take a quantile of")
    rank = max(1, math.ceil(level * n))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class ErrorReport:
    """Empirical Bochner error summary.

    ``absolute`` is the mean weighted squared distance, ``relative`` the
    ratio-of-means form (absent when the reference energy vanishes), and
    ``mean_of_ratios`` the average of per-sample relative squared errors
    (absent when any reference norm vanishes) -- both conventions for an
    "average relative error" are reported and labeled.
    """

    absolute: float
    relative: float | None
    mean_of_ratios: float | None
    quantiles: dict = field(default_factory=dict)


def empirical_bochner_error(
    truth: np.ndarray,
    predicted: np.ndarray,
    weighting: SobolevWeighting | None = None,
) -> ErrorReport:
    """Mean weighted squared coefficient distance over a test set.

    Callers are responsible for drawing test inputs i.i.d. from the
    approximation measure; only output coefficients enter here.
    """
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    predicted = np.atleast_2d(np.asarray(predicted, dtype=float))
    if truth.shape != predicted.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {predicted.shape}")
    if weighting is None:
        weighting = SobolevWeighting.flat(truth.shape[1])
    omega = weighting.weights
    per_sample = np.sum(omega * (truth - predicted) ** 2, axis=1)
    reference = np.sum(omega * truth**2, axis=1)
    absolute = float(per_sample.mean())
    ref_mean = float(reference.mean())
    relative = absolute / ref_mean if ref_mean > 0.0 else None
    if np.all(reference > 0.0):
        mean_of_ratios = float(np.mean(per_sample / reference))
    else:
        mean_of_ratios = None
    quantiles = {
        level: nearest_rank_quantile(per_sample, level) for level in _QUANTILE_LEVELS
    }
    return ErrorReport(
        absolute=absolute,
        relative=relative,
        mean_of_ratios=mean_of_ratios,
        quantiles=quantiles,
    )


def energy_fraction_lost(outputs: np.ndarray, d_keep: int) -> float:
    """Fraction of empirical output energy beyond the first ``d_keep`` modes.

    ``sum_{j >= d_keep} E|ghat_j|^2 / E||ghat||^2``; zero by convention
    when the outputs vanish entirely.  The discarded tail is summed directly,
    because ``1 - kept / total`` cancels to 0 once the tail falls below the
    roundoff of the total.
    """
    outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
    if not 0 <= d_keep <= outputs.shape[1]:
        raise ValueError(f"d_keep must lie in [0, {outputs.shape[1]}]")
    total = float(np.mean(np.sum(outputs**2, axis=1)))
    if total == 0.0:
        return 0.0
    lost = float(np.mean(np.sum(outputs[:, d_keep:] ** 2, axis=1)))
    return lost / total


def _require_linear(estimate: OperatorEstimate) -> LinearRankOneBasis:
    basis = estimate.basis
    if not isinstance(basis, LinearRankOneBasis):
        raise TypeError("kernel reconstruction needs a rank-one linear basis")
    return basis


def reconstruct_kernel(
    estimate: OperatorEstimate, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Evaluate the learned integral kernel on a grid.

    For the 1-D sine encoding the fitted operator is the kernel operator with

        k(x, y) = sum_{n1, n2} C_{n1, n2} sigma_{n1}^{-1}
                  sqrt(2) sin((n1+1) pi x) sqrt(2) sin((n2+1) pi y),

    where ``n1`` runs over the basis input modes (0-based positions, i.e.
    sine mode ``n1 + 1``).  Returns values of shape ``(len(x), len(y))``.
    """
    basis = _require_linear(estimate)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    input_modes = basis.input_modes + 1
    output_modes = np.arange(1, estimate.d_out + 1)
    xi = sine_value_1d(input_modes, x) / basis.sigmas[:, None]
    psi = sine_value_1d(output_modes, y)
    return xi.T @ estimate.coefficients @ psi


def operator_matrix_view(estimate: OperatorEstimate) -> np.ndarray:
    """Matrix mapping raw input coefficients to output coefficients.

    Absorbs the ``sigma^{-1}`` feature normalization: entry ``(n1, o)`` is
    ``C_{lam(n1), o} / sigma_{n1}``.  Rows for input modes outside the basis
    are zero.  Shape ``(d_in, d_out)``.
    """
    basis = _require_linear(estimate)
    view = np.zeros((basis.d_in, estimate.d_out))
    view[basis.input_modes] = estimate.coefficients / basis.sigmas[:, None]
    return view
