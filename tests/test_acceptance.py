"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py``.  The per-criterion lines are
written to the real stdout so they appear even under pytest capture.  The
Burgers criterion dominates the runtime (several minutes of PDE solves).
"""

import math
import sys
import time

import numpy as np
import pytest

import conftest

from opwls.evaluation import empirical_bochner_error, operator_matrix_view, reconstruct_kernel
from opwls.experiments import derive_seed, synthetic_cloud
from opwls.index_sets import IndexSetSpec, generate
from opwls.measures import (
    ProductMeasure,
    UnivariateMeasure,
    default_quadrature_order,
    gauss_rule,
)
from opwls.operator_basis import LinearRankOneBasis, PolyOperatorBasis
from opwls.pde import BurgersConfig, build_dataset, greens_kernel, sine_modes_2d
from opwls.sampling import (
    DiscreteFeatureBasis,
    RngSeed,
    build_induced_tables,
    draw_induced,
    mixture_plan,
    sample_discrete,
    sample_monte_carlo,
    sample_optimal,
)
from opwls.wls import (
    GramSummary,
    WlsSystem,
    assemble,
    c_delta,
    condition_estimator,
    gram_diagnostics,
    min_samples,
    solve,
    truncate_output,
)


def report(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)  # visible under pytest -s
    assert ok, line


def hyperbolic_prefix(d_in: int, n_eff: int, cap: int = 10) -> np.ndarray:
    """First ``n_eff`` indices of the smallest hyperbolic cross holding them."""
    k = 1
    while True:
        spec = IndexSetSpec(
            kind="hyperbolic_cross", radius=float(k), gamma=np.ones(d_in),
            degree_cap=cap,
        )
        indices = generate(spec)
        if len(indices) >= n_eff:
            return indices[:n_eff]
        k += 1


@pytest.fixture(scope="module")
def stability_trials():
    """Gram condition numbers for both samplers, shared by criteria 1 and 2."""
    d_in = 6
    measure = ProductMeasure.from_alphas((np.arange(1, d_in + 1) ** 2).astype(float))
    results = {}
    start = time.perf_counter()
    for n_eff in (25, 50, 100):
        basis = PolyOperatorBasis.build(
            measure, hyperbolic_prefix(d_in, n_eff), d_out=4
        )
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        m = min_samples(n_eff, 0.5, 0.5)
        conds = {"optimal": [], "monte_carlo": []}
        for trial in range(20):
            x, w = sample_optimal(
                plan, tables, RngSeed(derive_seed(101, "opt", n_eff, trial)),
                m, basis,
            )
            conds["optimal"].append(
                gram_diagnostics(assemble(basis, x, w, np.zeros((m, 1)))).condition
            )
            x, w = sample_monte_carlo(
                measure, RngSeed(derive_seed(101, "mc", n_eff, trial)),
                m, tables=tables,
            )
            conds["monte_carlo"].append(
                gram_diagnostics(assemble(basis, x, w, np.zeros((m, 1)))).condition
            )
        results[n_eff] = {k: np.array(v) for k, v in conds.items()}
    results["elapsed"] = time.perf_counter() - start
    return results


def test_criterion_1_optimal_sampling_stability(stability_trials):
    fractions = {
        n_eff: float(np.mean(stability_trials[n_eff]["optimal"] <= 3.0))
        for n_eff in (25, 50, 100)
    }
    ok = all(fraction >= 0.90 for fraction in fractions.values())
    report(
        1, ok,
        f"cond(G)<=3 fractions {fractions} at M=min_samples(N,1/2,1/2), "
        f"20 trials, elapsed {stability_trials['elapsed']:.1f}s (target 120s)",
    )


def test_criterion_2_monte_carlo_degradation(stability_trials):
    opt = float(np.median(stability_trials[100]["optimal"]))
    mc = float(np.median(stability_trials[100]["monte_carlo"]))
    report(
        2, mc > opt,
        f"median cond(G) at N_eff=100: monte_carlo {mc:.3f} > optimal {opt:.3f}",
    )


def test_criterion_3_stability_constant():
    value = c_delta(0.5)
    report(3, 6.51 <= value <= 6.53, f"c_delta(1/2) = {value:.6f} in [6.51, 6.53]")


def test_criterion_4_poisson_diagonal_recovery():
    start = time.perf_counter()
    modes = sine_modes_2d(8)
    alphas = np.sum(modes, axis=1).astype(float) ** 3
    measure = ProductMeasure.from_alphas(alphas)
    d = len(measure)
    basis = LinearRankOneBasis.from_measure(measure, np.arange(d), d_out=d)
    tables = build_induced_tables(measure, basis)
    plan = mixture_plan(basis)
    m = min_samples(d, 0.5, 0.5)
    x, w = sample_optimal(plan, tables, RngSeed(derive_seed(104, "train")), m, basis)
    ds = build_dataset(x, w, "poisson2d", modes_2d=modes, sampler="optimal")
    estimate = solve(assemble(basis, ds.inputs, ds.weights, ds.outputs), basis)
    view = operator_matrix_view(estimate)
    off = view - np.diag(np.diag(view))
    off_ratio = np.linalg.norm(off) / np.linalg.norm(view)
    eigen = -1.0 / (np.pi**2 * (modes[:, 0] ** 2 + modes[:, 1] ** 2))
    diag_err = np.abs(np.diag(view) - eigen).max()
    ok = off_ratio <= 1e-8 and diag_err <= 1e-8
    report(
        4, ok,
        f"off-diagonal mass {off_ratio:.2e} (<=1e-8), diagonal error "
        f"{diag_err:.2e} (<=1e-8), M={m}, elapsed {time.perf_counter()-start:.1f}s",
    )


def test_criterion_5_greens_kernel_convergence():
    start = time.perf_counter()
    d = 64
    measure = ProductMeasure.from_alphas((np.arange(1, d + 1) ** 2).astype(float))
    grid = np.linspace(0.0, 1.0, 101)
    exact = greens_kernel(grid[:, None], grid[None, :])
    sups = []
    for n_eff in (8, 16, 32, 64):
        basis = LinearRankOneBasis.from_measure(measure, np.arange(n_eff), d_out=d)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        m = min_samples(n_eff, 0.5, 0.5)
        x, w = sample_optimal(
            plan, tables, RngSeed(derive_seed(105, n_eff)), m, basis
        )
        ds = build_dataset(x, w, "poisson1d", sampler="optimal")
        estimate = solve(assemble(basis, ds.inputs, ds.weights, ds.outputs), basis)
        kernel = reconstruct_kernel(estimate, grid, grid)
        sups.append(float(np.abs(kernel - exact).max()))
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    ok = decreasing and sups[-1] <= 1e-2
    report(
        5, ok,
        f"sup kernel errors {['%.2e' % s for s in sups]} strictly decreasing, "
        f"final <= 1e-2, elapsed {time.perf_counter()-start:.1f}s",
    )


def test_criterion_6_burgers_accuracy():
    start = time.perf_counter()
    d_in, d_out = 8, 48
    measure = ProductMeasure.from_alphas((np.arange(1, d_in + 1) ** 2).astype(float))
    spec = IndexSetSpec(
        kind="hyperbolic_cross", radius=12.0, gamma=np.ones(d_in), degree_cap=10
    )
    basis = PolyOperatorBasis.build(measure, generate(spec), d_out)
    n_eff = basis.n_eff
    m = int(math.ceil(n_eff * math.log(n_eff)))
    tables = build_induced_tables(measure, basis)
    plan = mixture_plan(basis)
    relative = {}
    for nu in (0.1, 0.01):
        config = BurgersConfig.create(
            viscosity=nu, final_time=0.2, d_in=d_in, d_out=d_out
        )
        x, w = sample_optimal(
            plan, tables, RngSeed(derive_seed(106, "train", nu)), m, basis
        )
        ds = build_dataset(
            x, w, "burgers", burgers_config=config, d_out=d_out, sampler="optimal"
        )
        estimate = solve(assemble(basis, ds.inputs, ds.weights, ds.outputs), basis)
        test_x, _ = sample_monte_carlo(
            measure, RngSeed(derive_seed(106, "test", nu)), 200, tables=tables
        )
        truth = build_dataset(
            test_x, np.ones(200), "burgers", burgers_config=config, d_out=d_out,
            sampler="monte_carlo",
        ).outputs
        relative[nu] = empirical_bochner_error(
            truth, estimate.predict(test_x)
        ).relative
    rel_rmse = {nu: math.sqrt(v) for nu, v in relative.items()}
    ok = (
        relative[0.1] <= 5e-2
        and rel_rmse[0.1] <= 5e-2
        and relative[0.01] > relative[0.1]
    )
    report(
        6, ok,
        f"N_eff={n_eff}, M={m}: relative squared error "
        f"nu=0.1: {relative[0.1]:.2e} "
        f"(rmse {rel_rmse[0.1]:.2e}, <=5e-2); nu=0.01: {relative[0.01]:.2e} "
        f"strictly larger; elapsed {time.perf_counter()-start:.0f}s (target 600s)",
    )


def test_criterion_7_block_equals_monolithic():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10):
        n_eff = int(rng.integers(2, 21))
        d_out = int(rng.integers(1, 6))
        m = 4 * n_eff + int(rng.integers(1, 40))
        phi = rng.normal(size=(m, n_eff))
        w = rng.uniform(0.2, 3.0, m)
        obs = rng.normal(size=(m, d_out))
        scale = np.sqrt(w / m)[:, None]
        system = WlsSystem(design=scale * phi, targets=scale * obs)
        block = solve(system).coefficients
        gram_full = np.kron(np.eye(d_out), system.gram())
        rhs = np.concatenate(
            [system.design.T @ system.targets[:, o] for o in range(d_out)]
        )
        mono = np.linalg.solve(gram_full, rhs).reshape(d_out, n_eff).T
        worst = max(worst, float(np.abs(block - mono).max()))
    report(7, worst <= 1e-10, f"max |block - monolithic| = {worst:.2e} (<=1e-10)")


def test_criterion_8_induced_sampler_fidelity():
    start = time.perf_counter()
    n = 100_000
    worst_z = 0.0
    degree_zero_exact = True
    for alpha in (0.0, 1.0, 2.0):
        marginal = UnivariateMeasure(alpha)
        table = gauss_rule(marginal, default_quadrature_order(3))
        degree_zero_exact &= bool(
            np.abs(table.cdf[0] - np.cumsum(table.weights)).max() <= 1e-14
        )
        for degree in (0, 1, 2, 3):
            draws = draw_induced(
                table, degree, RngSeed(derive_seed(108, alpha, degree)), size=n
            )
            masses = np.diff(table.cdf[degree], prepend=0.0)
            for power in (1, 2, 3, 4):
                expected = float(np.sum(masses * table.nodes**power))
                values = draws**power
                se = values.std() / math.sqrt(n)
                z = abs(values.mean() - expected) / max(se, 1e-300)
                worst_z = max(worst_z, z)
    ok = worst_z <= 3.0 and degree_zero_exact
    report(
        8, ok,
        f"moments 1-4 of 12 induced laws within 3 s.e. (worst z={worst_z:.2f}); "
        f"degree-0 column matches base law; elapsed {time.perf_counter()-start:.1f}s",
    )


def test_criterion_9_discrete_leverage_plan():
    start = time.perf_counter()
    d_in, s = 6, 2000
    measure = ProductMeasure.from_alphas((np.arange(1, d_in + 1) ** 2).astype(float))
    cloud = synthetic_cloud(measure, s, derive_seed(109, "cloud"))
    checks = []
    fractions = {}
    for n_eff in (25, 50, 100):
        ref = PolyOperatorBasis.build(measure, hyperbolic_prefix(d_in, n_eff), 4)
        basis = DiscreteFeatureBasis.build(cloud, ref)
        plan = basis.plan
        checks.append(abs(plan.probabilities.sum() - 1.0) <= 1e-12)
        b_gram = plan.b_values.T @ plan.b_values / s
        checks.append(np.abs(b_gram - np.eye(n_eff)).max() <= 1e-10)
        m = min_samples(n_eff, 0.5, 0.5)
        good = 0
        for trial in range(20):
            idx, w = sample_discrete(
                plan, RngSeed(derive_seed(109, n_eff, trial)), m
            )
            summary = gram_diagnostics(
                assemble(basis, cloud[idx], w, np.zeros((m, 1)))
            )
            good += summary.condition <= 3.0
        fractions[n_eff] = good / 20.0
    ok = all(checks) and all(f >= 0.90 for f in fractions.values())
    report(
        9, ok,
        f"probabilities normalized, b-features orthonormal, cond(G)<=3 "
        f"fractions {fractions} on the S=2000 cloud; "
        f"elapsed {time.perf_counter()-start:.1f}s",
    )


def test_criterion_10_truncation_and_conditioning():
    rng = np.random.default_rng(110)
    tau = 1.5
    ok = True
    for _ in range(1000):
        g = rng.normal(size=4) * rng.uniform(0.1, 3.0)
        clipped = truncate_output(g, tau)
        ok &= np.linalg.norm(clipped) <= np.linalg.norm(g) + 1e-12
        ok &= np.linalg.norm(clipped) <= tau * (1 + 1e-12)
        if np.linalg.norm(g) <= tau:
            ok &= bool(np.array_equal(clipped, g))
    coeffs = rng.normal(size=(3, 2))
    from opwls.wls import OperatorEstimate

    estimate = OperatorEstimate(coefficients=coeffs, basis=None, rank=3)
    at_boundary = condition_estimator(
        estimate, GramSummary(0.5, 3.0, 3), delta=0.5
    )
    ok &= at_boundary is estimate
    beyond = condition_estimator(estimate, GramSummary(0.9, 19.0, 3), delta=0.5)
    ok &= beyond.conditioned_out and np.all(beyond.coefficients == 0.0)
    below = condition_estimator(estimate, GramSummary(0.0, 1.0, 3), delta=0.5)
    ok &= below is estimate
    report(
        10, bool(ok),
        "radial clip is norm non-expansive with fixed points below tau; "
        "conditioning gate inclusive at the boundary",
    )
