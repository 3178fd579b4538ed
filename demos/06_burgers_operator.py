"""Learning the viscous Burgers flow map with polynomial operators.

A reduced configuration of the nonlinear benchmark (fewer modes and a small
hyperbolic cross) that runs in well under a minute: data from the IMEX
pseudospectral solver, optimal sampling at the undersampled rate
M = ceil(N_eff log N_eff), relative test error per viscosity.
"""

import math

import numpy as np

from opwls import (
    BurgersConfig,
    IndexSetSpec,
    PolyOperatorBasis,
    ProductMeasure,
    RngSeed,
    assemble,
    build_dataset,
    empirical_bochner_error,
    energy_fraction_lost,
    generate,
    gram_diagnostics,
    mixture_plan,
    sample_monte_carlo,
    sample_optimal,
    solve,
)
from opwls.sampling import build_induced_tables

d_in, d_out = 6, 24
measure = ProductMeasure.from_alphas((np.arange(1, d_in + 1) ** 2).astype(float))
spec = IndexSetSpec(kind="hyperbolic_cross", radius=6.0, gamma=np.ones(d_in),
                    degree_cap=10)
basis = PolyOperatorBasis.build(measure, generate(spec), d_out)
m = math.ceil(basis.n_eff * math.log(basis.n_eff))
print(f"N_eff = {basis.n_eff}, M = ceil(N log N) = {m}, d_out = {d_out}")

tables = build_induced_tables(measure, basis)
plan = mixture_plan(basis)

for nu in (0.1, 0.01):
    config = BurgersConfig.create(viscosity=nu, final_time=0.2,
                                  d_in=d_in, d_out=d_out)
    x, w = sample_optimal(plan, tables, RngSeed(1), m, basis)
    ds = build_dataset(x, w, "burgers", burgers_config=config, d_out=d_out,
                       sampler="optimal")
    system = assemble(basis, ds.inputs, ds.weights, ds.outputs)
    estimate = solve(system, basis)
    test_x, _ = sample_monte_carlo(measure, RngSeed(2), 100, tables=tables)
    # all d_solve modes, so the energy that truncation to d_out drops shows
    solved = build_dataset(test_x, np.ones(100), "burgers",
                           burgers_config=config).outputs
    report = empirical_bochner_error(solved[:, :d_out], estimate.predict(test_x))
    lost = energy_fraction_lost(solved, d_out)
    print(f"nu = {nu:5.2f}: cond(G) = {gram_diagnostics(system).condition:6.2f}, "
          f"relative test error {report.relative:.3e} "
          f"(rmse {math.sqrt(report.relative):.3e})")
    print(f"           d_solve = {config.d_solve}, dt = {config.dt:.1e}; "
          f"output energy beyond d_out: {lost:.2e}")

print("\nlower viscosity pushes energy into higher output modes and makes "
      "the flow map harder to fit at a fixed polynomial budget.")
