"""Leverage-score sampling when the input law is known only through samples.

A correlated (non-product) point cloud stands in for a fixed, precomputed
dataset: features are orthonormalized on the cloud by QR, the optimal
measure reduces to leverage scores, and Sobolev weights reshape which output
scales the fit must resolve.
"""

import numpy as np

from opwls import (
    DiscreteFeatureBasis,
    IndexSetSpec,
    PolyOperatorBasis,
    ProductMeasure,
    RngSeed,
    SobolevWeighting,
    assemble,
    empirical_bochner_error,
    generate,
    gram_diagnostics,
    min_samples,
    sample_discrete,
    solve,
)
from opwls.experiments import demo_target, synthetic_cloud

d_in, d_out, s = 6, 12, 2000
measure = ProductMeasure.from_alphas((np.arange(1, d_in + 1) ** 2).astype(float))
cloud = synthetic_cloud(measure, s, seed=7)
targets = demo_target(cloud, d_out)

spec = IndexSetSpec(kind="hyperbolic_cross", radius=4.0, gamma=np.ones(d_in),
                    degree_cap=10)
ref = PolyOperatorBasis.build(measure, generate(spec), d_out)
basis = DiscreteFeatureBasis.build(cloud, ref)
plan = basis.plan
print(f"cloud size S = {s}, N_eff = {plan.n_eff}")
print(f"leverage probabilities: sum = {plan.probabilities.sum():.12f}, "
      f"range [{plan.probabilities.min():.2e}, {plan.probabilities.max():.2e}]")
gram = plan.b_values.T @ plan.b_values / s
print(f"cloud-orthonormal features: max |Gram - I| = "
      f"{np.abs(gram - np.eye(plan.n_eff)).max():.2e}")

m = min_samples(plan.n_eff, 0.5, 0.5)
modes = np.arange(1, d_out + 1)

print(f"\nfits from M = {m} draws, leverage vs. uniform, per Sobolev exponent:")
# a weighting scales outputs and coefficients alike, so each draw is fitted
# once and its predictions are scored in every H^alpha norm
fits = []
for sampler in ("leverage", "uniform"):
    if sampler == "leverage":
        idx, w = sample_discrete(plan, RngSeed(3), m)
    else:
        u = RngSeed(4).uniform_block(m, 1)[:, 0]
        idx = np.minimum((u * s).astype(int), s - 1)
        w = np.ones(m)
    system = assemble(basis, cloud[idx], w, targets[idx])
    predicted = solve(system, basis).predict(cloud)
    fits.append((sampler, gram_diagnostics(system).condition, predicted))
for alpha in (-1.0, 0.0, 1.0):
    weighting = SobolevWeighting.for_modes(alpha, modes)
    print(f"  alpha = {alpha:+.0f}: " + "   ".join(
        f"{name}: cond {cond:6.2f}, rel err "
        f"{empirical_bochner_error(targets, predicted, weighting).relative:.2e}"
        for name, cond, predicted in fits
    ))
