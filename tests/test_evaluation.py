import math
import warnings

import numpy as np
import pytest

from opwls.evaluation import (
    SobolevWeighting,
    empirical_bochner_error,
    energy_fraction_lost,
    nearest_rank_quantile,
    operator_matrix_view,
    reconstruct_kernel,
)
from opwls.experiments import demo_target
from opwls.index_sets import IndexSetSpec, generate
from opwls.measures import ProductMeasure
from opwls.operator_basis import LinearRankOneBasis, PolyOperatorBasis
from opwls.pde import poisson_apply_1d
from opwls.sampling import (
    RngSeed,
    build_induced_tables,
    mixture_plan,
    sample_monte_carlo,
    sample_optimal,
)
from opwls.wls import (
    OperatorEstimate,
    assemble,
    condition_estimator,
    gram_diagnostics,
    min_samples,
    solve,
)


def linear_estimate(coefficients, d_in=None):
    coefficients = np.atleast_2d(coefficients)
    n_eff, d_out = coefficients.shape
    measure = ProductMeasure.from_alphas([1.0] * (d_in or n_eff))
    basis = LinearRankOneBasis.from_measure(measure, np.arange(n_eff), d_out)
    return OperatorEstimate(coefficients=coefficients, basis=basis, rank=n_eff)


class TestBochnerError:
    def test_identical_is_zero(self, rng):
        a = rng.normal(size=(30, 4))
        report = empirical_bochner_error(a, a)
        assert report.absolute == 0.0
        assert report.relative == 0.0

    def test_flat_weighting_matches_plain_l2(self, rng):
        truth = rng.normal(size=(50, 6))
        pred = rng.normal(size=(50, 6))
        flat = empirical_bochner_error(truth, pred)
        weighted = empirical_bochner_error(
            truth, pred, SobolevWeighting.for_modes(0.0, np.arange(1, 7))
        )
        plain = np.mean(np.sum((truth - pred) ** 2, axis=1))
        assert flat.absolute == pytest.approx(plain, rel=1e-14)
        assert weighted.absolute == pytest.approx(plain, rel=1e-14)

    def test_unit_error_single_sample(self):
        truth = np.zeros((1, 3))
        truth[0, 0] = 1.0
        report = empirical_bochner_error(truth, np.zeros((1, 3)))
        assert report.absolute == 1.0
        assert report.relative == 1.0

    def test_zero_reference_absent_relative(self):
        report = empirical_bochner_error(np.zeros((4, 2)), np.ones((4, 2)))
        assert report.relative is None
        assert report.mean_of_ratios is None
        assert report.absolute == pytest.approx(2.0)

    def test_both_relative_conventions_reported(self, rng):
        truth = rng.normal(size=(40, 3)) + 2.0
        pred = truth + 0.1 * rng.normal(size=(40, 3))
        report = empirical_bochner_error(truth, pred)
        per = np.sum((truth - pred) ** 2, axis=1)
        ref = np.sum(truth**2, axis=1)
        assert report.relative == pytest.approx(per.mean() / ref.mean())
        assert report.mean_of_ratios == pytest.approx(np.mean(per / ref))

    def test_quantiles_nearest_rank(self):
        truth = np.zeros((4, 1))
        pred = -np.array([[1.0], [2.0], [3.0], [4.0]])
        report = empirical_bochner_error(truth, pred)
        # squared per-sample errors are 1, 4, 9, 16
        assert report.quantiles[0.05] == 1.0
        assert report.quantiles[0.5] == 4.0
        assert report.quantiles[0.95] == 16.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            empirical_bochner_error(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_invariant_under_orthogonal_reindexing(self, rng):
        truth = rng.normal(size=(25, 5))
        pred = rng.normal(size=(25, 5))
        perm = rng.permutation(5)
        a = empirical_bochner_error(truth, pred)
        b = empirical_bochner_error(truth[:, perm], pred[:, perm])
        assert a.absolute == pytest.approx(b.absolute, rel=1e-14)


class TestNearestRank:
    def test_definition(self):
        values = np.array([5.0, 1.0, 3.0])
        assert nearest_rank_quantile(values, 0.5) == 3.0
        assert nearest_rank_quantile(values, 0.01) == 1.0
        assert nearest_rank_quantile(values, 1.0) == 5.0


class TestSobolevWeighting:
    def test_alpha_zero_all_ones(self):
        w = SobolevWeighting.for_modes(0.0, np.arange(1, 9))
        assert np.all(w.weights == 1.0)

    def test_2d_modes(self):
        w = SobolevWeighting.for_modes(1.0, np.array([[1, 1], [2, 1]]))
        assert w.weights == pytest.approx([3.0, 6.0])

    def test_monotone_in_alpha(self, rng):
        # mode norms >= 1 make every weight base > 1, so weighted errors
        # are non-decreasing in alpha
        truth = rng.normal(size=(20, 6))
        pred = rng.normal(size=(20, 6))
        modes = np.arange(1, 7)
        errors = [
            empirical_bochner_error(
                truth, pred, SobolevWeighting.for_modes(a, modes)
            ).absolute
            for a in (-1.0, 0.0, 1.0, 2.0)
        ]
        assert all(b >= a for a, b in zip(errors, errors[1:]))

    def test_overflow_raises_without_warning(self):
        # the ValueError reports the non-finite weights; numpy's overflow
        # warning would add a second record to the CLI's stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                SobolevWeighting.for_modes(400.0, np.arange(1, 7))

    def test_weighting_scales_the_fit_not_its_predictions(self, rng):
        # the fit is separable over output columns: outputs scaled by
        # sqrt(omega) give coefficients scaled alike and the same predictions
        d = 6
        measure = ProductMeasure.from_alphas((np.arange(1, d + 1) ** 2).astype(float))
        basis = LinearRankOneBasis.from_measure(measure, np.arange(d), d)
        x, w = sample_monte_carlo(measure, RngSeed(5), 40)
        outs = poisson_apply_1d(x) + 1e-3 * rng.normal(size=(40, d))
        scale = np.sqrt(SobolevWeighting.for_modes(-1.5, np.arange(1, d + 1)).weights)
        plain = solve(assemble(basis, x, w, outs), basis)
        scaled = solve(assemble(basis, x, w, outs * scale), basis)
        for got, want in ((scaled.coefficients, plain.coefficients * scale),
                          (scaled.predict(x) / scale, plain.predict(x))):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestEnergyFraction:
    def test_keep_all(self, rng):
        outs = rng.normal(size=(12, 5))
        assert energy_fraction_lost(outs, 5) == pytest.approx(0.0, abs=1e-15)

    def test_keep_none(self, rng):
        outs = rng.normal(size=(12, 5))
        assert energy_fraction_lost(outs, 0) == pytest.approx(1.0)

    def test_half_split(self):
        assert energy_fraction_lost(np.array([[1.0, 1.0]]), 1) == pytest.approx(0.5)

    def test_tail_below_roundoff_of_total(self):
        lost = energy_fraction_lost(np.array([[1.0, 1e-10]]), 1)
        assert lost == pytest.approx(1e-20, rel=1e-12)

    def test_zero_outputs_convention(self):
        assert energy_fraction_lost(np.zeros((3, 4)), 2) == 0.0

    def test_bounds(self):
        with pytest.raises(ValueError):
            energy_fraction_lost(np.zeros((2, 3)), 4)


class TestReconstructKernel:
    def test_zero_coefficients(self):
        est = linear_estimate(np.zeros((3, 3)))
        grid = np.linspace(0, 1, 11)
        assert np.all(reconstruct_kernel(est, grid, grid) == 0.0)

    def test_single_term_product_formula(self):
        est = linear_estimate(np.array([[2.0]]))
        sigma = est.basis.sigmas[0]
        x = np.array([0.3])
        y = np.array([0.7])
        value = reconstruct_kernel(est, x, y)[0, 0]
        expected = (
            2.0 / sigma
            * math.sqrt(2) * math.sin(math.pi * 0.3)
            * math.sqrt(2) * math.sin(math.pi * 0.7)
        )
        assert value == pytest.approx(expected, rel=1e-14)

    def test_linear_in_coefficients(self, rng):
        c1 = rng.normal(size=(3, 3))
        c2 = rng.normal(size=(3, 3))
        grid = np.linspace(0, 1, 21)
        k1 = reconstruct_kernel(linear_estimate(c1), grid, grid)
        k2 = reconstruct_kernel(linear_estimate(c2), grid, grid)
        k12 = reconstruct_kernel(linear_estimate(c1 + 2 * c2), grid, grid)
        assert np.abs(k12 - (k1 + 2 * k2)).max() <= 1e-12

    def test_rejects_polynomial_basis(self):
        measure = ProductMeasure.from_alphas([0.0])
        basis = PolyOperatorBasis.build(measure, np.array([[0]]), 1)
        est = OperatorEstimate(coefficients=np.zeros((1, 1)), basis=basis, rank=1)
        with pytest.raises(TypeError):
            reconstruct_kernel(est, np.zeros(2), np.zeros(2))


class TestOperatorMatrixView:
    def test_zero_estimate(self):
        view = operator_matrix_view(linear_estimate(np.zeros((2, 4)), d_in=3))
        assert view.shape == (3, 4)
        assert np.all(view == 0.0)

    def test_identity_target_forced(self):
        # learning the identity on retained modes puts an identity block in
        # the raw-coefficient view
        d = 4
        measure = ProductMeasure.from_alphas([1.0] * d)
        basis = LinearRankOneBasis.from_measure(measure, np.arange(d), d)
        coeff = np.diag(basis.sigmas)  # features are f/sigma
        est = OperatorEstimate(coefficients=coeff, basis=basis, rank=d)
        assert np.abs(operator_matrix_view(est) - np.eye(d)).max() <= 1e-15

    def test_noiseless_diagonal_fit(self):
        # exact 1-D Poisson data over all modes: off-diagonal mass vanishes
        d = 6
        measure = ProductMeasure.from_alphas(
            (np.arange(1, d + 1) ** 2).astype(float)
        )
        basis = LinearRankOneBasis.from_measure(measure, np.arange(d), d)
        x, w = sample_monte_carlo(measure, RngSeed(5), 200)
        estimate = solve(assemble(basis, x, w, poisson_apply_1d(x)), basis)
        view = operator_matrix_view(estimate)
        off = view - np.diag(np.diag(view))
        assert np.linalg.norm(off) <= 1e-10 * np.linalg.norm(view)
        eigen = 1.0 / (math.pi**2 * np.arange(1, d + 1) ** 2)
        assert np.abs(np.diag(view) - eigen).max() <= 1e-12


def test_discretized_measure_scores_like_the_continuous_one():
    # every draw lies on the Q Gauss nodes of each marginal; the rule is
    # exact to degree 2Q - 1, so the error norm of the discretized measure
    # estimates the continuous Bochner norm of a smooth target's fit
    d_in, d_out, n = 8, 12, 2000
    alphas = np.arange(1, d_in + 1, dtype=float) ** 2
    measure = ProductMeasure.from_alphas(alphas)
    spec = IndexSetSpec(kind="hyperbolic_cross", radius=4.0, gamma=np.ones(d_in),
                        degree_cap=10)
    basis = PolyOperatorBasis.build(measure, generate(spec), d_out)
    m = math.ceil(basis.n_eff * math.log(basis.n_eff))
    tables = build_induced_tables(measure, basis)
    x, w = sample_optimal(mixture_plan(basis), tables, RngSeed(11), m, basis)
    estimate = solve(assemble(basis, x, w, demo_target(x, d_out)), basis)
    discrete, _ = sample_monte_carlo(measure, RngSeed(21), n, tables=tables)
    # Jacobi(alpha, alpha) on [-1, 1] is 2 Beta(alpha + 1, alpha + 1) - 1
    beta = np.random.default_rng(31).beta(alphas + 1.0, alphas + 1.0, (n, d_in))
    scores = []
    for inputs in (discrete, 2.0 * beta - 1.0):
        truth, predicted = demo_target(inputs, d_out), estimate.predict(inputs)
        relative = empirical_bochner_error(truth, predicted).relative
        # the standard error of a ratio of means, by the delta method
        error = np.sum((truth - predicted) ** 2, axis=1)
        energy = np.sum(truth**2, axis=1)
        se = np.std(error - relative * energy, ddof=1) / math.sqrt(n) / energy.mean()
        scores.append((relative, se))
    (on_nodes, se_nodes), (continuous, se_continuous) = scores
    assert all(np.isin(discrete[:, j], tables[j].nodes).all() for j in range(d_in))
    assert abs(on_nodes - continuous) <= 4.0 * math.hypot(se_nodes, se_continuous)


def test_optimal_sampling_error_near_the_best():
    # Cohen and Migliorati (SMAI JCM 2017): under the optimal measure and
    # weights, the expected squared error is at most (1 + eps(M)) times the
    # best in the space plus a small term, with eps(M) -> 0 at the delta
    # certificate's sample count; Monte Carlo has no such bound
    d_in, d_out, trials = 8, 12, 20
    measure = ProductMeasure.from_alphas(np.arange(1, d_in + 1, dtype=float) ** 2)
    spec = IndexSetSpec(kind="hyperbolic_cross", radius=4.0, gamma=np.ones(d_in),
                        degree_cap=10)
    basis = PolyOperatorBasis.build(measure, generate(spec), d_out)
    tables, plan = build_induced_tables(measure, basis), mixture_plan(basis)
    test, _ = sample_monte_carlo(measure, RngSeed(1), 20_000, tables=tables)
    truth = demo_target(test, d_out)

    def fit(sampler: str, seed: int, m: int):
        if sampler == "optimal":
            x, w = sample_optimal(plan, tables, RngSeed(seed), m, basis)
        else:
            x, w = sample_monte_carlo(measure, RngSeed(seed), m, tables=tables)
        system = assemble(basis, x, w, demo_target(x, d_out))
        return solve(system, basis), gram_diagnostics(system)

    def error(estimate) -> float:
        return empirical_bochner_error(truth, estimate.predict(test)).absolute

    # the best error the space allows, estimated by a 60 N_eff fit
    best = error(fit("optimal", 2, 60 * basis.n_eff)[0])
    n_log_n = math.ceil(basis.n_eff * math.log(basis.n_eff))
    certified = min_samples(basis.n_eff, 0.5, 0.5)
    assert (basis.n_eff, n_log_n, certified) == (61, 251, 2186)
    mean_ratio = {}
    for seed_base, sampler in ((100, "optimal"), (200, "monte_carlo")):
        for m in (n_log_n, certified):
            ratios = []
            for trial in range(trials):
                estimate, summary = fit(sampler, seed_base + trial, m)
                ratios.append(error(estimate) / best)
                conditioned = condition_estimator(estimate, summary, 0.5)
                if m == n_log_n:  # below the certificate: every draw zeroed
                    assert conditioned.conditioned_out
                    assert not conditioned.coefficients.any()
                elif sampler == "optimal":  # at it: every draw kept as fitted
                    assert conditioned is estimate
            mean_ratio[sampler, m] = float(np.mean(ratios))
    assert mean_ratio["optimal", certified] <= 1.1
    for m in (n_log_n, certified):
        assert mean_ratio["monte_carlo", m] > mean_ratio["optimal", m]
