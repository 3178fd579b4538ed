import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from opwls.index_sets import IndexSetSpec, generate
from opwls.measures import (
    ProductMeasure,
    UnivariateMeasure,
    default_quadrature_order,
    eval_poly,
    gauss_rule,
    poly_table,
)
from opwls.operator_basis import LinearRankOneBasis, PolyOperatorBasis
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
    """Stub stream returning a constant, or one constant row, for boundary-case
    draws."""

    value: float | tuple = 0.0
    seed: int = 0

    def uniform_block(self, n_rows, row_width):
        return np.full((n_rows, row_width), self.value)


def table_moment(table, degree, power):
    masses = np.diff(table.cdf[degree], prepend=0.0)
    return float(np.sum(masses * table.nodes**power))


class TestInducedTable:
    def test_degree_zero_is_cumulated_base_weights(self):
        marginal = UnivariateMeasure(0.0)
        table = build_induced_table(marginal, {0, 1, 2}, order=9)
        rule = gauss_rule(marginal, 9)
        assert np.allclose(table.cdf[0], np.cumsum(rule.weights), atol=1e-14)
        assert np.array_equal(table.nodes, rule.nodes)

    def test_uniform_degree_one_two_point_masses(self):
        # w = 1/2 and p_1(+-1/sqrt 3)^2 = 3 * (1/3) = 1: masses 1/2 each
        marginal = UnivariateMeasure(0.0)
        table = build_induced_table(marginal, {1}, order=2)
        masses = np.diff(table.cdf[1], prepend=0.0)
        assert masses == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_columns_end_at_one(self):
        marginal = UnivariateMeasure(2.0)
        table = build_induced_table(marginal, range(7), order=16)
        assert table.cdf.shape == (16, 16)
        for column in table.cdf:
            assert column[-1] == 1.0
            assert np.all(np.diff(column) >= -1e-15)

    def test_insufficient_order_rejected(self):
        marginal = UnivariateMeasure(0.0)
        with pytest.raises(ValueError):
            build_induced_table(marginal, {5}, order=5)

    def test_rows_match_cumulated_masses_over_their_sums_bitwise(self):
        alphas = np.concatenate([np.linspace(-0.9, 10.0, 40),
                                 np.geomspace(10.0, 8000.0, 40)[1:]])
        for alpha in alphas.tolist():
            marginal = UnivariateMeasure(alpha)
            for top in range(11):
                rule = build_induced_table(marginal, [top])
                masses = rule.weights * np.square(rule.values[: top + 1])
                reference = np.cumsum(masses / masses.sum(axis=1)[:, None], axis=1)
                reference[:, -1] = 1.0
                assert rule.cdf[: top + 1].tobytes() == reference.tobytes(), (alpha, top)

    def test_tables_are_the_memoized_rules(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0, 4.0])
        indices = np.array([[0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 3, 0]])
        basis = PolyOperatorBasis.build(measure, indices, 2)
        tables = build_induced_tables(measure, basis)
        for table, marginal, top in zip(tables.values(), measure.marginals, (2, 3, 0)):
            order = default_quadrature_order(max(top, 1))
            assert table is gauss_rule(marginal, order)
        counts = [len(marginal._rules) for marginal in measure.marginals]
        again = build_induced_tables(measure, basis)
        assert all(again[j] is tables[j] for j in tables)
        assert [len(marginal._rules) for marginal in measure.marginals] == counts

    def test_cdf_is_computed_once_and_read_only(self):
        rule = build_induced_table(UnivariateMeasure(1.0), [3])
        assert rule.cdf is rule.cdf
        assert not rule.cdf.flags.writeable
        with pytest.raises(ValueError):
            rule.cdf[0, 0] = 0.5


@pytest.mark.parametrize("call, message", [
    (lambda m: poly_table(m, -1, 0.5), "degree must be >= 0, got -1"),
    (lambda m: eval_poly(m, -1, 0.5), "degree must be >= 0, got -1"),
    (lambda m: build_induced_table(m, []), "no induced degree"),
    (lambda m: build_induced_table(m, [-2]), "induced degree -2 is negative"),
    (lambda m: build_induced_table(m, [3, -2]), "induced degree -2 is negative"),
], ids=["poly_table", "eval_poly", "no_degree", "negative", "negative_among"])
def test_bad_degree_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call(UnivariateMeasure(0.0))


class TestUnivariateDraws:
    def test_u_zero_gives_first_node(self):
        marginal = UnivariateMeasure(0.0)
        table = build_induced_table(marginal, {0, 1}, order=5)
        assert draw_induced(table, 0, FixedUniforms()) == table.nodes[0]

    def test_base_moments(self):
        alpha = 1.0
        marginal = UnivariateMeasure(alpha)
        table = build_induced_table(marginal, {0}, order=10)
        n = 100_000
        draws = draw_induced(table, 0, RngSeed(5), size=n)
        assert_within_se(draws.mean(), 0.0, draws.std() / math.sqrt(n))
        sq = draws**2
        assert_within_se(sq.mean(), 1 / (2 * alpha + 3), sq.std() / math.sqrt(n))

    def test_degree_zero_equals_base(self):
        # inverse transform of the Gauss rule's cumulative weights
        marginal = UnivariateMeasure(0.5)
        table = build_induced_table(marginal, {0, 1}, order=8)
        rule = gauss_rule(marginal, 8)
        u = RngSeed(9).uniform_block(500, 1)[:, 0]
        base = rule.nodes[np.searchsorted(np.cumsum(rule.weights), u)]
        assert np.array_equal(draw_induced(table, 0, RngSeed(9), size=500), base)

    def test_uniform_degree_one_two_point_frequencies(self):
        marginal = UnivariateMeasure(0.0)
        table = build_induced_table(marginal, {1}, order=2)
        n = 100_000
        draws = draw_induced(table, 1, RngSeed(17), size=n)
        freq = np.mean(draws > 0)
        assert_within_se(freq, 0.5, 0.5 / math.sqrt(n))

    def test_degree_one_second_moment_closed_form(self):
        # oracle: integral of x^2 * 3 x^2 / 2 over [-1, 1] is 3/5
        marginal = UnivariateMeasure(0.0)
        table = build_induced_table(marginal, {1}, order=4)
        assert table_moment(table, 1, 2) == pytest.approx(0.6, abs=1e-12)
        n = 100_000
        draws = draw_induced(table, 1, RngSeed(23), size=n)
        sq = draws**2
        assert_within_se(sq.mean(), 0.6, sq.std() / math.sqrt(n))

    def test_unknown_degree_rejected(self):
        marginal = UnivariateMeasure(0.0)
        table = build_induced_table(marginal, {0}, order=4)
        with pytest.raises(KeyError):
            draw_induced(table, 4, RngSeed(1))


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


def criterion6_basis():
    """Criterion 6's space: radius-12 cross over 8 modes, alpha_j = j^2, N_eff=641."""
    measure = ProductMeasure.from_alphas(np.arange(1, 9, dtype=float) ** 2)
    spec = IndexSetSpec(kind="hyperbolic_cross", radius=12.0,
                        gamma=np.ones(8), degree_cap=10)
    return measure, PolyOperatorBasis.build(measure, generate(spec), d_out=48)


def weight_formula(basis, x):
    return basis.n_eff / np.sum(np.square(basis.scalar_features(x)), axis=-1)


class TestSampleOptimal:
    @pytest.mark.parametrize(
        ("make", "n", "monte_carlo"),
        [(linear_reference_basis, 500, False), (poly_reference_basis, 500, False),
         (criterion6_basis, 300, False), (criterion6_basis, 300, True)],
        ids=["linear", "polynomial", "criterion6", "monte_carlo"],
    )
    def test_matches_row_by_row_reference(self, make, n, monte_carlo):
        measure, basis = make()
        tables = build_induced_tables(measure, basis)
        if monte_carlo:
            # the base measure is the mixture of one all-zero component
            plan = MixturePlan(np.zeros((1, len(measure)), dtype=int), [1.0])
            x, w = sample_monte_carlo(measure, RngSeed(53), n, tables=tables)
            expected_weights = np.ones(n)
        else:
            plan = mixture_plan(basis)
            x, w = sample_optimal(plan, tables, RngSeed(53), n, basis)
            expected_weights = weight_formula(basis, x)
        reference = reference_sample_optimal(plan, tables, RngSeed(53), n)
        assert np.array_equal(x, reference)
        assert np.array_equal(w, expected_weights)

    @pytest.mark.parametrize(
        "make", [linear_reference_basis, poly_reference_basis],
        ids=["linear", "polynomial"],
    )
    def test_zero_samples(self, make):
        measure, basis = make()
        tables = build_induced_tables(measure, basis)
        x, w = sample_optimal(mixture_plan(basis), tables, RngSeed(5), 0, basis)
        assert x.shape == (0, len(measure)) and w.shape == (0,)

    def test_one_inverse_transform_per_coordinate_and_degree(self, monkeypatch):
        measure, basis = criterion6_basis()
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        groups = sum(
            np.count_nonzero(np.unique(plan.components[:, j]))
            for j in range(basis.d_in)
        )
        assert groups == 80
        calls = []
        searchsorted = np.searchsorted

        def counted(*args, **kwargs):
            calls.append(1)
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counted)
        sample_optimal(plan, tables, RngSeed(11), 4143, basis)
        # the component column, d_in base columns, one per (coordinate, degree)
        assert len(calls) <= 1 + basis.d_in + groups

    def test_peak_memory_is_one_feature_matrix(self):
        measure, basis = criterion6_basis()
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        m = 4143
        tracemalloc.start()
        try:
            sample_optimal(plan, tables, RngSeed(17), m, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * m * basis.n_eff * 8

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


def strict_entry(column):
    """An index ``k`` with ``column[k - 1] < column[k] < column[k + 1]``: at
    ``u = column[k]`` a left search gives ``k``, a right one ``k + 1``."""
    steps = np.diff(column)
    return int(np.flatnonzero((steps[:-1] > 0) & (steps[1:] > 0))[0]) + 1


class TestBoundaryDraws:
    """u = 0 and u equal to a cumulative entry both give the left index."""

    def test_monte_carlo(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        tables = build_induced_tables(measure)
        k = strict_entry(tables[1].cdf[0])
        # column 0 would pick a component; the base plan has one
        rng = FixedUniforms(value=(0.5, 0.0, tables[1].cdf[0][k]))
        x, _ = sample_monte_carlo(measure, rng, 3, tables=tables)
        assert np.all(x == [tables[0].nodes[0], tables[1].nodes[k]])
        x, _ = sample_monte_carlo(measure, FixedUniforms(), 3, tables=tables)
        assert np.all(x == [tables[0].nodes[0], tables[1].nodes[0]])

    def test_optimal(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        basis = PolyOperatorBasis.build(measure, np.array([[0, 0], [0, 1], [1, 0]]), 1)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        assert plan.components.tolist() == [[0, 0], [0, 1], [1, 0]]
        # at the end of component 1's share: component 1, which raises coordinate 1
        ends = np.cumsum(plan.probabilities)
        k = strict_entry(tables[1].cdf[1])
        rng = FixedUniforms(value=(ends[1], 0.0, tables[1].cdf[1][k]))
        x, _ = sample_optimal(plan, tables, rng, 3, basis)
        assert np.all(x == [tables[0].nodes[0], tables[1].nodes[k]])
        # at the end of component 0's share: component 0, the base columns
        k = strict_entry(tables[1].cdf[0])
        rng = FixedUniforms(value=(ends[0], 0.0, tables[1].cdf[0][k]))
        x, _ = sample_optimal(plan, tables, rng, 3, basis)
        assert np.all(x == [tables[0].nodes[0], tables[1].nodes[k]])
        x, _ = sample_optimal(plan, tables, FixedUniforms(), 3, basis)
        assert np.all(x == [tables[0].nodes[0], tables[1].nodes[0]])

    def test_discrete(self):
        cloud = np.linspace(-0.9, 0.9, 7)[:, None]
        plan = build_discrete_plan(cloud, lambda p: np.hstack([np.ones_like(p), p]))
        ends = np.cumsum(plan.probabilities)
        for k in (0, 3, 5):
            indices, _ = sample_discrete(plan, FixedUniforms(value=ends[k]), 2)
            assert indices.tolist() == [k, k]
        indices, _ = sample_discrete(plan, FixedUniforms(), 2)
        assert indices.tolist() == [0, 0]


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
    def poly_reference(d_in=3, radius=2.0, d_out=1, alpha=0.0):
        measure = ProductMeasure.from_alphas([alpha] * d_in)
        spec = IndexSetSpec(kind="lp_ball", p=1.0, radius=radius,
                            gamma=np.ones(d_in), degree_cap=4)
        return PolyOperatorBasis.build(measure, generate(spec), d_out)

    @staticmethod
    def poly_features(d_in=3, radius=2.0):
        basis = TestDiscretePlan.poly_reference(d_in, radius)
        return lambda x: basis.scalar_features(x, warn_extrapolation=False)

    def test_probabilities_sum_to_one(self, rng):
        features = self.poly_features()
        cloud = rng.uniform(-1, 1, (60, 3))
        plan = build_discrete_plan(cloud, features)
        assert plan.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(plan.probabilities >= 0.0)

    def test_b_features_orthonormal_on_cloud(self, rng):
        cloud = rng.uniform(-1, 1, (80, 3))
        basis = self.cloud_basis(cloud)
        plan = basis.plan
        gram = plan.b_values.T @ plan.b_values / plan.n_points
        assert np.abs(gram - np.eye(plan.n_eff)).max() <= 1e-10
        # out-of-sample evaluation agrees with the stored cloud values
        recomputed = basis.scalar_features(cloud)
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
        features = self.poly_features()
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

        basis = self.cloud_basis(rng.uniform(-1, 1, (80, 3)))
        x = rng.uniform(-1, 1, (50, 3))
        phi = basis.reference.scalar_features(x)
        expected = solve_triangular(basis.plan.transform.T, phi.T, lower=True).T
        got = basis.scalar_features(x)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_plans_from_separate_calls_compare_equal(self, rng):
        features = self.poly_features()
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

    @staticmethod
    def cloud_basis(cloud, d_out=2):
        # built as experiments.discrete_spec builds it
        reference = TestDiscretePlan.poly_reference(d_out=d_out)
        return DiscreteFeatureBasis.build(cloud, reference)

    def test_feature_bases_from_separate_calls_compare_equal(self, rng):
        cloud = rng.uniform(-1, 1, (60, 3))
        basis = self.cloud_basis(cloud)
        assert basis == self.cloud_basis(cloud.copy())
        wider = self.cloud_basis(cloud, d_out=3)
        assert wider.plan == basis.plan and wider.d_out == 3
        assert basis != wider
        assert basis != self.cloud_basis(rng.uniform(-1, 1, (60, 3)))
        other = self.poly_reference(d_out=2, alpha=1.0)
        assert basis != replace(basis, reference=other)
        assert basis != "basis"

    def test_too_few_points_rejected(self, rng):
        features = self.poly_features()
        with pytest.raises(ValueError):
            build_discrete_plan(rng.uniform(-1, 1, (3, 3)), features)


class TestSampleDiscrete:
    def test_single_point_cloud(self):
        features = lambda x: np.ones((x.shape[0], 1))
        plan = build_discrete_plan(np.zeros((1, 1)), features)
        idx, w = sample_discrete(plan, RngSeed(3), 50)
        assert np.all(idx == 0) and np.all(w == pytest.approx(1.0))

    def test_empirical_frequencies(self, rng):
        features = TestDiscretePlan.poly_features(d_in=2, radius=2.0)
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
        cloud = rng.uniform(-1, 1, (400, 3))
        reference = TestDiscretePlan.poly_reference(d_in=3, radius=3.0)
        basis = DiscreteFeatureBasis.build(cloud, reference)
        plan = basis.plan
        m = min_samples(plan.n_eff, 0.5, 0.5)
        failures = 0
        for trial in range(20):
            idx, w = sample_discrete(plan, RngSeed(1000 + trial), m)
            system = assemble(basis, cloud[idx], w, np.zeros((m, 1)))
            if gram_diagnostics(system).spectral_gap > 0.5:
                failures += 1
        assert failures <= 2
