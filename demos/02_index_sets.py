"""Anisotropic multi-index sets: weighted lp balls and hyperbolic crosses.

Shows how the radius, weights, and degree cap shape the scalar approximation
space, and that all uniform-weight sets are monotone lower.
"""

import numpy as np

from opwls import IndexSetSpec, generate, is_monotone_lower
from opwls.index_sets import indices_to_text

d = 2
print("== hyperbolic cross, k = 3, two modes ==")
spec = IndexSetSpec(kind="hyperbolic_cross", radius=3.0, gamma=np.ones(d), degree_cap=10)
indices = generate(spec)
print(indices_to_text(indices).strip())
print(f"N_eff = {len(indices)}, monotone lower: "
      f"{is_monotone_lower(indices)}")

print("\n== growth of N_eff with the radius (d = 8, cap 10) ==")
for kind, p in (("lp_ball", 1.0), ("hyperbolic_cross", 1.0)):
    sizes = []
    for k in (2, 4, 8, 12):
        spec = IndexSetSpec(kind=kind, p=p, radius=float(k),
                            gamma=np.ones(8), degree_cap=10)
        sizes.append(len(generate(spec)))
    label = "l1 ball" if kind == "lp_ball" else "hyperbolic cross"
    print(f"  {label:18s}: {sizes}")

print("\n== anisotropy: linearly decaying weights loosen late modes ==")
gamma = 1.0 - np.arange(8) * (0.99 / 20.0)
spec = IndexSetSpec(kind="hyperbolic_cross", radius=8.0, gamma=gamma, degree_cap=10)
aniso = generate(spec)
uniform = generate(IndexSetSpec(kind="hyperbolic_cross", radius=8.0,
                                gamma=np.ones(8), degree_cap=10))
print(f"  uniform gamma: N_eff = {len(uniform)}; decaying gamma: N_eff = {len(aniso)}")
print(f"  largest degree per mode (decaying): {aniso.max(axis=0)}")
