import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from opwls.index_sets import IndexSetSpec, generate
from opwls.measures import ProductMeasure, UnivariateMeasure, build_family, gauss_rule
from opwls.operator_basis import (
    LinearRankOneBasis,
    PolyOperatorBasis,
    optimal_weight,
)
from opwls.sampling import (
    DiscreteFeatureBasis,
    MixturePlan,
    RngSeed,
    build_discrete_plan,
    build_induced_table,
    build_induced_tables,
    draw_induced,
    mixture_plan,
    sample_discrete,
    sample_monte_carlo,
    sample_optimal,
)
from opwls.wls import assemble, gram_diagnostics, min_samples

from conftest import assert_within_se


@dataclass(frozen=True)
class FixedUniforms(RngSeed):
    """Stub stream returning a constant, for boundary-case draws."""

    value: float = 0.0
    seed: int = 0

    def uniform_block(self, n_rows, row_width):
        return np.full((n_rows, row_width), self.value)


def table_moment(table, degree, power):
    masses = np.diff(table.cdf[degree], prepend=0.0)
    return float(np.sum(masses * table.nodes**power))


class TestInducedTable:
    def test_degree_zero_is_cumulated_base_weights(self):
        fam = build_family(UnivariateMeasure(0.0), 3)
        table = build_induced_table(fam, {0, 1, 2}, order=9)
        rule = gauss_rule(fam, 9)
        assert np.allclose(table.cdf[0], np.cumsum(rule.weights), atol=1e-14)
        assert np.array_equal(table.nodes, rule.nodes)

    def test_uniform_degree_one_two_point_masses(self):
        # w = 1/2 and p_1(+-1/sqrt 3)^2 = 3 * (1/3) = 1: masses 1/2 each
        fam = build_family(UnivariateMeasure(0.0), 1)
        table = build_induced_table(fam, {1}, order=2)
        masses = np.diff(table.cdf[1], prepend=0.0)
        assert masses == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_columns_end_at_one(self):
        fam = build_family(UnivariateMeasure(2.0), 6)
        table = build_induced_table(fam, range(7), order=16)
        for n, column in table.cdf.items():
            assert column[-1] == 1.0
            assert np.all(np.diff(column) >= -1e-15)

    def test_insufficient_order_rejected(self):
        fam = build_family(UnivariateMeasure(0.0), 5)
        with pytest.raises(ValueError):
            build_induced_table(fam, {5}, order=5)


class TestUnivariateDraws:
    def test_u_zero_gives_first_node(self):
        fam = build_family(UnivariateMeasure(0.0), 2)
        table = build_induced_table(fam, {0, 1}, order=5)
        assert draw_induced(table, 0, FixedUniforms()) == table.nodes[0]

    def test_base_moments(self):
        alpha = 1.0
        fam = build_family(UnivariateMeasure(alpha), 2)
        table = build_induced_table(fam, {0}, order=10)
        n = 100_000
        draws = draw_induced(table, 0, RngSeed(5), size=n)
        assert_within_se(draws.mean(), 0.0, draws.std() / math.sqrt(n))
        sq = draws**2
        assert_within_se(sq.mean(), 1 / (2 * alpha + 3), sq.std() / math.sqrt(n))

    def test_degree_zero_equals_base(self):
        # inverse transform of the Gauss rule's cumulative weights
        fam = build_family(UnivariateMeasure(0.5), 2)
        table = build_induced_table(fam, {0, 1}, order=8)
        rule = gauss_rule(fam, 8)
        u = RngSeed(9).uniform_block(500, 1)[:, 0]
        base = rule.nodes[np.searchsorted(np.cumsum(rule.weights), u)]
        assert np.array_equal(draw_induced(table, 0, RngSeed(9), size=500), base)

    def test_uniform_degree_one_two_point_frequencies(self):
        fam = build_family(UnivariateMeasure(0.0), 1)
        table = build_induced_table(fam, {1}, order=2)
        n = 100_000
        draws = draw_induced(table, 1, RngSeed(17), size=n)
        freq = np.mean(draws > 0)
        assert_within_se(freq, 0.5, 0.5 / math.sqrt(n))

    def test_degree_one_second_moment_closed_form(self):
        # oracle: integral of x^2 * 3 x^2 / 2 over [-1, 1] is 3/5
        fam = build_family(UnivariateMeasure(0.0), 1)
        table = build_induced_table(fam, {1}, order=4)
        assert table_moment(table, 1, 2) == pytest.approx(0.6, abs=1e-12)
        n = 100_000
        draws = draw_induced(table, 1, RngSeed(23), size=n)
        sq = draws**2
        assert_within_se(sq.mean(), 0.6, sq.std() / math.sqrt(n))

    def test_unknown_degree_rejected(self):
        fam = build_family(UnivariateMeasure(0.0), 2)
        table = build_induced_table(fam, {0}, order=4)
        with pytest.raises(KeyError):
            draw_induced(table, 2, RngSeed(1))


class TestMixturePlan:
    def test_polynomial_probabilities_are_multiplicities(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        spec = IndexSetSpec(kind="lp_ball", p=1.0, radius=2.0,
                            gamma=np.ones(2), degree_cap=4)
        basis = PolyOperatorBasis.build(measure, generate(spec), d_out=3)
        plan = mixture_plan(basis)
        assert plan.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        # tensor structure: every scalar index has multiplicity d_out
        assert np.allclose(plan.probabilities, 1.0 / basis.n_eff)

    def test_linear_point_mass(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        basis = LinearRankOneBasis.from_measure(measure, [1], d_out=4)
        plan = mixture_plan(basis)
        assert plan.probabilities == pytest.approx([1.0])
        # the degree-1 polynomial of mode 1: a one-hot degree row
        assert plan.components.tolist() == [[0, 1]]

    def test_plans_from_separate_calls_compare_equal(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        spec = IndexSetSpec(kind="lp_ball", p=1.0, radius=2.0,
                            gamma=np.ones(2), degree_cap=4)
        plan = mixture_plan(PolyOperatorBasis.build(measure, generate(spec), 3))
        assert plan == mixture_plan(PolyOperatorBasis.build(measure, generate(spec), 3))
        skewed = plan.probabilities.copy()
        skewed[[0, 1]] += [0.125, -0.125]
        assert plan != MixturePlan(plan.components, skewed)
        assert plan != "plan"


def reference_sample_optimal(plan, tables, rng, n_samples):
    """Row-by-row inverse transform: the component from ``u[i, 0]``, then
    coordinate ``j`` from the induced law of its degree at ``u[i, 1 + j]``."""
    d_in = len(tables)
    u = rng.uniform_block(n_samples, d_in + 1)
    cum = np.cumsum(plan.probabilities)
    cum[-1] = 1.0
    x = np.empty((n_samples, d_in))
    for i in range(n_samples):
        degrees = plan.components[np.searchsorted(cum, u[i, 0])]
        for j in range(d_in):
            column = tables[j].cdf[int(degrees[j])]
            x[i, j] = tables[j].nodes[np.searchsorted(column, u[i, 1 + j])]
    return x


def linear_reference_basis():
    measure = ProductMeasure.from_alphas([0.0, 1.0, 4.0, 9.0, 16.0])
    return measure, LinearRankOneBasis.from_measure(measure, [3, 0, 2], d_out=2)


def poly_reference_basis():
    measure = ProductMeasure.from_alphas([0.0, 1.0, 4.0])
    spec = IndexSetSpec(kind="hyperbolic_cross", radius=4.0,
                        gamma=np.ones(3), degree_cap=5)
    return measure, PolyOperatorBasis.build(measure, generate(spec), d_out=2)


class TestSampleOptimal:
    @pytest.mark.parametrize(
        "make", [linear_reference_basis, poly_reference_basis],
        ids=["linear", "polynomial"],
    )
    def test_matches_row_by_row_reference(self, make):
        measure, basis = make()
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        x, w = sample_optimal(plan, tables, RngSeed(53), 500, basis)
        reference = reference_sample_optimal(plan, tables, RngSeed(53), 500)
        assert np.array_equal(x, reference)
        assert np.array_equal(w, optimal_weight(basis, x))

    def test_singleton_zero_index(self):
        measure = ProductMeasure.from_alphas([0.0, 4.0])
        basis = PolyOperatorBasis.build(measure, np.zeros((1, 2), dtype=int), 2)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        x, w = sample_optimal(plan, tables, RngSeed(3), 400, basis)
        base, _ = sample_monte_carlo(measure, RngSeed(3), 400, tables=tables)
        assert np.array_equal(x, base)
        assert np.all(w == 1.0)

    def test_linear_selected_coordinate_induced(self):
        # every pair has n1 = 1: coordinate 1 always follows the induced law
        measure = ProductMeasure.from_alphas([0.0, 0.0])
        basis = LinearRankOneBasis.from_measure(measure, [1], d_out=3)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        n = 100_000
        x, _ = sample_optimal(plan, tables, RngSeed(7), n, basis)
        induced_m2 = table_moment(tables[1], 1, 2)
        base_m2 = table_moment(tables[0], 0, 2)
        sq1, sq0 = x[:, 1] ** 2, x[:, 0] ** 2
        assert_within_se(sq1.mean(), induced_m2, sq1.std() / math.sqrt(n))
        assert_within_se(sq0.mean(), base_m2, sq0.std() / math.sqrt(n))

    def test_mean_weight_is_one(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0, 4.0])
        spec = IndexSetSpec(kind="hyperbolic_cross", radius=3.0,
                            gamma=np.ones(3), degree_cap=5)
        basis = PolyOperatorBasis.build(measure, generate(spec), d_out=2)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        n = 100_000
        _, w = sample_optimal(plan, tables, RngSeed(13), n, basis)
        assert_within_se(w.mean(), 1.0, w.std() / math.sqrt(n))

    def test_weight_identity_exact(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        spec = IndexSetSpec(kind="lp_ball", p=1.0, radius=3.0,
                            gamma=np.ones(2), degree_cap=5)
        basis = PolyOperatorBasis.build(measure, generate(spec), d_out=2)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        x, w = sample_optimal(plan, tables, RngSeed(19), 2_000, basis)
        energy = np.sum(basis.scalar_features(x) ** 2, axis=1)
        assert np.abs(w * energy - basis.n_eff).max() <= 1e-12 * basis.n_eff

    def test_pooled_marginal_moments_match_mixture(self):
        # pooled density of coordinate j is the probability-weighted mixture
        # of its induced laws; compare moments 1-4 against table values
        measure = ProductMeasure.from_alphas([0.0, 2.0])
        spec = IndexSetSpec(kind="lp_ball", p=1.0, radius=2.0,
                            gamma=np.ones(2), degree_cap=4)
        basis = PolyOperatorBasis.build(measure, generate(spec), d_out=1)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        n = 100_000
        x, _ = sample_optimal(plan, tables, RngSeed(29), n, basis)
        for j in range(2):
            for power in (1, 2, 3, 4):
                expected = sum(
                    prob * table_moment(tables[j], int(comp[j]), power)
                    for comp, prob in zip(plan.components, plan.probabilities)
                )
                values = x[:, j] ** power
                assert_within_se(
                    values.mean(), expected, values.std() / math.sqrt(n)
                )

    def test_reproducibility(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        spec = IndexSetSpec(kind="lp_ball", p=1.0, radius=2.0,
                            gamma=np.ones(2), degree_cap=4)
        basis = PolyOperatorBasis.build(measure, generate(spec), d_out=2)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        x1, w1 = sample_optimal(plan, tables, RngSeed(31), 300, basis)
        x2, w2 = sample_optimal(plan, tables, RngSeed(31), 300, basis)
        assert np.array_equal(x1, x2) and np.array_equal(w1, w2)


class TestSampleMonteCarlo:
    def test_unit_weights(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        _, w = sample_monte_carlo(measure, RngSeed(37), 100)
        assert np.all(w == 1.0)

    def test_per_coordinate_moments(self):
        alphas = [0.0, 2.0, 9.0]
        measure = ProductMeasure.from_alphas(alphas)
        n = 100_000
        x, _ = sample_monte_carlo(measure, RngSeed(41), n)
        for j, alpha in enumerate(alphas):
            sq = x[:, j] ** 2
            assert_within_se(sq.mean(), 1 / (2 * alpha + 3), sq.std() / math.sqrt(n))

    def test_coordinates_uncorrelated(self):
        measure = ProductMeasure.from_alphas([0.0, 0.0])
        n = 100_000
        x, _ = sample_monte_carlo(measure, RngSeed(43), n)
        products = x[:, 0] * x[:, 1]
        assert_within_se(products.mean(), 0.0, products.std() / math.sqrt(n))


class TestSubstreams:
    def test_substream_matches_block_rows(self):
        rng = RngSeed(12345)
        block = rng.uniform_block(64, 9)
        for row in (0, 1, 17, 63):
            assert np.array_equal(rng.substream(row, 9), block[row])

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(
            RngSeed(1).uniform_block(4, 4), RngSeed(2).uniform_block(4, 4)
        )


class TestDiscretePlan:
    @staticmethod
    def poly_features(d_in=3, radius=2.0, cap=4):
        measure = ProductMeasure.from_alphas([0.0] * d_in)
        spec = IndexSetSpec(kind="lp_ball", p=1.0, radius=radius,
                            gamma=np.ones(d_in), degree_cap=cap)
        basis = PolyOperatorBasis.build(measure, generate(spec), 1)
        return measure, lambda x: basis.scalar_features(x, warn_extrapolation=False)

    def test_probabilities_sum_to_one(self, rng):
        _, features = self.poly_features()
        cloud = rng.uniform(-1, 1, (60, 3))
        plan = build_discrete_plan(cloud, features)
        assert plan.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(plan.probabilities >= 0.0)

    def test_b_features_orthonormal_on_cloud(self, rng):
        _, features = self.poly_features()
        cloud = rng.uniform(-1, 1, (80, 3))
        plan = build_discrete_plan(cloud, features)
        gram = plan.b_values.T @ plan.b_values / plan.n_points
        assert np.abs(gram - np.eye(plan.n_eff)).max() <= 1e-10
        # out-of-sample evaluation agrees with the stored cloud values
        recomputed = plan.b_features(cloud, features)
        assert np.abs(recomputed - plan.b_values).max() <= 1e-9

    def test_already_orthonormal_cloud_is_uniform(self, rng):
        # S = N_eff with features orthonormal on the cloud: probabilities 1/S,
        # verified against the brute-force leverage formula
        s = 4
        ortho, _ = np.linalg.qr(rng.normal(size=(s, s)))
        features = lambda x: math.sqrt(s) * ortho
        plan = build_discrete_plan(np.zeros((s, 1)), features)
        assert plan.probabilities == pytest.approx(np.full(s, 1 / s), abs=1e-12)
        brute = np.sum(ortho**2, axis=1) / s
        assert plan.probabilities == pytest.approx(brute, abs=1e-14)

    def test_leverage_invariant_under_reparameterization(self, rng):
        _, features = self.poly_features()
        cloud = rng.uniform(-1, 1, (70, 3))
        base = build_discrete_plan(cloud, features)
        mix = rng.normal(size=(base.n_eff, base.n_eff))
        mix += base.n_eff * np.eye(base.n_eff)  # safely invertible
        remixed = build_discrete_plan(cloud, lambda x: features(x) @ mix)
        assert np.abs(base.probabilities - remixed.probabilities).max() <= 1e-10
        permuted = build_discrete_plan(cloud, lambda x: features(x)[:, ::-1])
        assert np.abs(base.probabilities - permuted.probabilities).max() <= 1e-10

    def test_b_features_match_triangular_solve(self, rng):
        from scipy.linalg import solve_triangular

        _, features = self.poly_features()
        cloud = rng.uniform(-1, 1, (80, 3))
        plan = build_discrete_plan(cloud, features)
        x = rng.uniform(-1, 1, (50, 3))
        expected = solve_triangular(plan.transform.T, features(x).T, lower=True).T
        got = plan.b_features(x, features)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_plans_from_separate_calls_compare_equal(self, rng):
        _, features = self.poly_features()
        cloud = rng.uniform(-1, 1, (60, 3))
        plan = build_discrete_plan(cloud, features)
        assert plan == build_discrete_plan(cloud.copy(), features)
        skewed = plan.probabilities.copy()
        skewed[[0, 1]] += [0.125, -0.125]
        assert plan != replace(plan, probabilities=skewed)
        assert plan != "plan"

    def test_rank_deficiency_reported(self, rng):
        cloud = rng.uniform(-1, 1, (20, 2))
        features = lambda x: np.column_stack([x[:, 0], x[:, 0], x[:, 1]])
        with pytest.raises(ValueError, match="rank 2 < 3"):
            build_discrete_plan(cloud, features)

    def test_too_few_points_rejected(self, rng):
        _, features = self.poly_features()
        with pytest.raises(ValueError):
            build_discrete_plan(rng.uniform(-1, 1, (3, 3)), features)


class TestSampleDiscrete:
    def test_single_point_cloud(self):
        features = lambda x: np.ones((x.shape[0], 1))
        plan = build_discrete_plan(np.zeros((1, 1)), features)
        idx, w = sample_discrete(plan, RngSeed(3), 50)
        assert np.all(idx == 0) and np.all(w == pytest.approx(1.0))

    def test_empirical_frequencies(self, rng):
        _, features = TestDiscretePlan.poly_features(d_in=2, radius=2.0)
        cloud = rng.uniform(-1, 1, (12, 2))
        plan = build_discrete_plan(cloud, features)
        n = 100_000
        idx, _ = sample_discrete(plan, RngSeed(47), n)
        counts = np.bincount(idx, minlength=plan.n_points) / n
        se = np.sqrt(plan.probabilities * (1 - plan.probabilities) / n)
        assert np.all(np.abs(counts - plan.probabilities) <= 4 * se + 1e-4)

    def test_gram_concentration_under_leverage_sampling(self, rng):
        # Cor. OptStab on the discrete measure: spectral gap <= 1/2 with
        # failure rate <= 10% over 20 trials at the certified sample size
        _, features = TestDiscretePlan.poly_features(d_in=3, radius=3.0)
        cloud = rng.uniform(-1, 1, (400, 3))
        plan = build_discrete_plan(cloud, features)
        basis = DiscreteFeatureBasis(plan=plan, raw_features=features, d_out=1)
        m = min_samples(plan.n_eff, 0.5, 0.5)
        failures = 0
        for trial in range(20):
            idx, w = sample_discrete(plan, RngSeed(1000 + trial), m)
            system = assemble(basis, cloud[idx], w, np.zeros((m, 1)))
            if gram_diagnostics(system).spectral_gap > 0.5:
                failures += 1
        assert failures <= 2
