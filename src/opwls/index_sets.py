r"""Multi-index sets defining scalar polynomial approximation spaces.

Two families of anisotropic index sets over ``d`` input modes are supported:

* weighted ``l^p`` balls:        ``|| gamma . lam ||_p <= k``,
* weighted hyperbolic crosses:   ``|| gamma . log(lam + 1) ||_1 <= log(k + 1)``,

both intersected with the degree cap ``lam_j <= r`` (an ``l^inf`` ball).
Membership comparisons carry a ``1e-12`` slack toward inclusion so that
irrational thresholds (e.g. linearly decaying ``gamma``) do not flap on the
boundary.

The enumeration order is fixed: ascending total degree, ties broken by
lexicographic comparison of the entries (coordinate 0 most significant).
Prefixes of this order are always monotone lower sets, because every
``lam - e_j`` has strictly smaller total degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import fields_equal

__all__ = [
    "IndexSetSpec",
    "generate",
    "is_monotone_lower",
    "indices_to_text",
]

MEMBERSHIP_SLACK = 1e-12
MAX_SIZE = 10**6  # the hard limit on members


@dataclass(frozen=True)
class IndexSetSpec:
    """Defining data of a weighted index set.

    ``kind`` is ``"lp_ball"`` (with exponent ``p``, possibly ``inf``) or
    ``"hyperbolic_cross"``.  ``gamma`` holds one strictly positive, finite
    anisotropy weight per input mode; its length sets the dimension.
    """

    kind: str
    radius: float
    gamma: np.ndarray
    degree_cap: int
    p: float = 1.0

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        if self.kind not in ("lp_ball", "hyperbolic_cross"):
            raise ValueError(f"unknown index set kind {self.kind!r}")
        if gamma.ndim != 1 or gamma.size < 1:
            raise ValueError("gamma must be a non-empty 1-d array")
        if not np.all((gamma > 0.0) & np.isfinite(gamma)):
            raise ValueError(f"gamma entries must be positive and finite: {gamma}")
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"radius must be finite and >= 0, not {self.radius!r}")
        if self.degree_cap < 0:
            raise ValueError("degree_cap must be >= 0")
        if self.kind == "lp_ball" and not (self.p >= 1.0):
            raise ValueError("p must be >= 1 (or inf)")

    __eq__ = fields_equal

    @property
    def dim(self) -> int:
        return int(self.gamma.size)


def generate(spec: IndexSetSpec) -> np.ndarray:
    """Enumerate all indices of ``spec`` in canonical order.

    Returns an ``(N, d)`` integer array.  Raises ``ValueError`` if the member
    count would exceed :data:`MAX_SIZE`.
    """
    d, gamma = spec.dim, spec.gamma
    # a member's entry costs sum to at most the budget; each coordinate's
    # largest admissible entry, after the degree cap, bounds its costs
    hc = spec.kind == "hyperbolic_cross"
    if hc:
        budget = math.log(spec.radius + 1.0) + MEMBERSHIP_SLACK
        raw = np.expm1(budget / gamma)
    else:
        raw = (spec.radius + MEMBERSHIP_SLACK) / gamma
    bounds = np.minimum(np.floor(raw + MEMBERSHIP_SLACK).astype(int), spec.degree_cap)
    entries = [np.arange(bound + 1) for bound in bounds]
    if hc:
        costs = [g * np.log1p(lam) for g, lam in zip(gamma, entries)]
    elif math.isinf(spec.p):
        budget = math.inf  # the bounds alone encode membership
        costs = [np.zeros(lam.size) for lam in entries]
    else:
        budget = (spec.radius + MEMBERSHIP_SLACK) ** spec.p
        costs = [(g * lam) ** spec.p for g, lam in zip(gamma, entries)]

    members: list[tuple[int, ...]] = []
    current = [0] * d

    def descend(j: int, used: float) -> None:
        if j == d:
            if len(members) >= MAX_SIZE:
                raise ValueError(
                    f"index set exceeds the hard limit of {MAX_SIZE} members"
                )
            members.append(tuple(current))
            return
        for lam, cost in enumerate(costs[j]):
            spent = used + cost
            if spent > budget:
                break
            current[j] = lam
            descend(j + 1, spent)
        current[j] = 0

    descend(0, 0.0)

    members.sort(key=lambda idx: (sum(idx), idx))
    return np.array(members, dtype=int).reshape(len(members), d)


def is_monotone_lower(indices: np.ndarray) -> bool:
    """True iff ``lam - e_j`` is a member for every member and every ``lam_j > 0``."""
    pool = {tuple(int(v) for v in row) for row in np.atleast_2d(indices)}
    for idx in pool:
        for j, entry in enumerate(idx):
            if entry > 0:
                lower = idx[:j] + (entry - 1,) + idx[j + 1 :]
                if lower not in pool:
                    return False
    return True


def indices_to_text(indices: np.ndarray) -> str:
    """Newline-delimited dump, one index per line, space-separated entries."""
    rows = np.atleast_2d(indices)
    return "\n".join(" ".join(str(int(v)) for v in row) for row in rows) + "\n"

