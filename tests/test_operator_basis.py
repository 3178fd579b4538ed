import itertools
import math
import tracemalloc

import numpy as np
import pytest

from opwls.experiments import total_degree_prefix
from opwls.index_sets import IndexSetSpec, generate, is_monotone_lower
from opwls.measures import ProductMeasure, gauss_rule, poly_table
from opwls.operator_basis import (
    LinearRankOneBasis,
    PolyOperatorBasis,
    christoffel,
    optimal_weight,
)
from opwls.sampling import (
    DiscreteFeatureBasis,
    RngSeed,
    sample_monte_carlo,
)

from conftest import assert_within_se


def small_poly_basis(d_out=3):
    measure = ProductMeasure.from_alphas([0.0, 1.0])
    spec = IndexSetSpec(
        kind="lp_ball", p=1.0, radius=3.0, gamma=np.ones(2), degree_cap=5
    )
    return measure, PolyOperatorBasis.build(measure, generate(spec), d_out)


def dense_features(basis, batch):
    """Reference: the dense product over all coordinates, from 1.0, left to right."""
    out = np.ones((batch.shape[0], basis.n_eff))
    for j, marginal in enumerate(basis.marginals):
        degrees = basis.scalar_indices[:, j]
        top = int(degrees.max(initial=0))
        if top == 0:
            continue
        out *= poly_table(marginal, top, batch[:, j])[degrees].T
    return out


def cross():
    spec = IndexSetSpec(
        kind="hyperbolic_cross", radius=8.0, gamma=np.ones(6), degree_cap=6
    )
    return generate(spec)


def non_lower_subset():
    # every other member of a cross: the zero index and many prefixes go
    indices = cross()[1::2]
    assert not is_monotone_lower(indices)
    return indices


def duplicated_rows():
    indices = cross()
    return np.vstack([indices, indices[[40, 0, 7, 40]]])


FEATURE_SETS = {
    "hyperbolic_cross": cross,
    "total_degree_prefix": lambda: total_degree_prefix(6, 200),
    "reversed": lambda: cross()[::-1],
    "non_lower_subset": non_lower_subset,
    "duplicated_rows": duplicated_rows,
    "zero_only": lambda: np.zeros((1, 6), dtype=int),
}


class TestScalarFeatures:
    @pytest.mark.parametrize("name", sorted(FEATURE_SETS))
    def test_bitwise_equal_to_dense_product(self, name):
        indices = FEATURE_SETS[name]()
        measure = ProductMeasure.from_alphas([0.0, 1.0, 4.0, 9.0, 16.0, 25.0])
        basis = PolyOperatorBasis.build(measure, indices, 2)
        batch = np.random.default_rng(7).uniform(-1.0, 1.0, size=(3000, 6))
        phi = basis.scalar_features(batch)
        assert phi.flags["C_CONTIGUOUS"]
        assert np.array_equal(phi, dense_features(basis, batch))
        assert np.array_equal(basis.scalar_features(batch[5]), phi[5])
        empty = basis.scalar_features(np.empty((0, 6)))
        assert empty.shape == (0, basis.n_eff)

    def test_same_arguments_compare_equal(self):
        measure, basis = small_poly_basis()
        twin = PolyOperatorBasis(basis.scalar_indices, basis.marginals, basis.d_out)
        assert twin == basis
        assert "_plan" not in repr(basis)
        # separate builds share no arrays
        rebuilt = PolyOperatorBasis.build(measure, basis.scalar_indices.copy(), 3)
        assert rebuilt == basis and not rebuilt != basis
        linear = LinearRankOneBasis.from_measure(measure, [0, 1], 2)
        assert linear == LinearRankOneBasis.from_measure(measure, [0, 1], 2)
        assert linear != basis

    @pytest.mark.parametrize("width", [1, 3])
    def test_build_rejects_index_width_other_than_measure(self, width):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        with pytest.raises(ValueError, match="one marginal per input mode"):
            PolyOperatorBasis.build(measure, np.zeros((2, width), dtype=int), 1)

    def test_one_differing_index_compares_unequal(self):
        measure, basis = small_poly_basis()
        indices = basis.scalar_indices.copy()
        indices[-1] = indices[-1][::-1]
        assert not np.array_equal(indices, basis.scalar_indices)
        assert PolyOperatorBasis.build(measure, indices, 3) != basis
        linear = LinearRankOneBasis.from_measure(measure, [0, 1], 2)
        assert LinearRankOneBasis.from_measure(measure, [1, 1], 2) != linear

    def test_zero_index_gives_one(self):
        _, basis = small_poly_basis()
        for fhat in ([0.0, 0.0], [0.3, -0.8], [1.0, 1.0]):
            phi = basis.scalar_features(np.array(fhat))
            assert phi[0] == pytest.approx(1.0, abs=0)

    def test_single_mode_degree_one(self):
        # oracle: orthonormal degree-1 polynomial of the uniform law at 1 is sqrt(3)
        measure = ProductMeasure.from_alphas([0.0])
        basis = PolyOperatorBasis.build(measure, np.array([[0], [1]]), 1)
        phi = basis.scalar_features(np.array([1.0]))
        assert phi[1] == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_odd_degrees_vanish_at_zero(self):
        _, basis = small_poly_basis()
        phi = basis.scalar_features(np.zeros(2))
        odd = np.sum(basis.scalar_indices, axis=1) % 2 == 1
        assert np.abs(phi[odd]).max() <= 1e-14

    def test_out_of_support_warns(self):
        _, basis = small_poly_basis()
        with pytest.warns(RuntimeWarning, match="extrapolated"):
            basis.scalar_features(np.array([1.5, 0.0]))

    def test_batch_matches_single(self):
        _, basis = small_poly_basis()
        batch = np.array([[0.1, -0.4], [0.9, 0.2]])
        stacked = basis.scalar_features(batch)
        for i, row in enumerate(batch):
            assert np.allclose(stacked[i], basis.scalar_features(row), atol=1e-15)

    def test_monte_carlo_orthonormality(self):
        # empirical Gram of the scalar features concentrates at the identity
        measure, basis = small_poly_basis()
        n = 100_000
        x, _ = sample_monte_carlo(measure, RngSeed(11), n)
        phi = basis.scalar_features(x)
        gram = phi.T @ phi / n
        products = phi[:, :, None] * phi[:, None, :]
        se = products.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(gram - np.eye(basis.n_eff)) <= 3.0 * se + 1e-12)


class TestLinearFeatures:
    def test_normalized_unit_vector(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0, 4.0])
        basis = LinearRankOneBasis.from_measure(measure, [0, 2], d_out=2)
        fhat = np.zeros(3)
        fhat[2] = basis.sigmas[1]
        assert basis.scalar_features(fhat) == pytest.approx([0.0, 1.0], abs=0)

    def test_zero_input(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        basis = LinearRankOneBasis.from_measure(measure, [0, 1], d_out=1)
        assert np.all(basis.scalar_features(np.zeros(2)) == 0.0)

    def test_unit_second_moments(self):
        measure = ProductMeasure.from_alphas([0.0, 2.0, 9.0])
        basis = LinearRankOneBasis.from_measure(measure, [0, 1, 2], d_out=1)
        n = 100_000
        x, _ = sample_monte_carlo(measure, RngSeed(21), n)
        feats = basis.scalar_features(x)
        for j in range(3):
            sq = feats[:, j] ** 2
            assert_within_se(sq.mean(), 1.0, sq.std() / math.sqrt(n))

    def test_rejects_bad_modes(self):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        with pytest.raises(ValueError):
            LinearRankOneBasis.from_measure(measure, [0, 5], d_out=1)

    def test_allocates_one_output_array(self, rng):
        # the gathered columns are divided in place, so the features are the
        # one output-sized array made
        measure = ProductMeasure.from_alphas(np.arange(1.0, 65.0))
        basis = LinearRankOneBasis.from_measure(measure, np.arange(48), d_out=1)
        fhat = rng.uniform(-1.0, 1.0, (2000, 64))
        tracemalloc.start()
        try:
            features = basis.scalar_features(fhat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert features.shape == (2000, 48)
        assert peak < 1.5 * features.nbytes


class TestChristoffel:
    def test_optimal_weight_gives_constant_n(self, rng):
        _, basis = small_poly_basis(d_out=4)
        points = rng.uniform(-1.0, 1.0, (10_000, 2))
        w = optimal_weight(basis, points)
        values = christoffel(basis, points, w)
        assert np.abs(values - basis.n_total).max() <= 1e-12 * basis.n_total

    def test_unit_weight_zero_features(self):
        # all features vanish except phi_0 = 1: kappa_1 = d_out exactly
        measure = ProductMeasure.from_alphas([0.0])
        basis = PolyOperatorBasis.build(measure, np.array([[0], [1]]), 5)
        assert christoffel(basis, np.zeros(1), 1.0) == pytest.approx(5.0, abs=0)

    def test_unit_weight_expectation_is_n(self):
        measure, basis = small_poly_basis(d_out=2)
        n = 100_000
        x, _ = sample_monte_carlo(measure, RngSeed(31), n)
        values = christoffel(basis, x, 1.0)
        assert_within_se(
            values.mean(), basis.n_total, values.std() / math.sqrt(n)
        )

    def test_lower_bound_with_zero_index(self, rng):
        _, basis = small_poly_basis(d_out=3)
        points = rng.uniform(-1.0, 1.0, (500, 2))
        assert np.all(christoffel(basis, points, 1.0) >= basis.d_out - 1e-12)

    def test_rejects_nonpositive_weight(self):
        _, basis = small_poly_basis()
        with pytest.raises(ValueError):
            christoffel(basis, np.zeros(2), 0.0)


class TestOptimalWeight:
    def test_algebraic_identity(self, rng):
        _, basis = small_poly_basis(d_out=4)
        points = rng.uniform(-1.0, 1.0, (200, 2))
        w = optimal_weight(basis, points)
        phi = basis.scalar_features(points)
        products = w * basis.d_out * np.sum(phi**2, axis=1)
        assert np.abs(products - basis.n_total).max() <= 1e-12 * basis.n_total

    def test_normalized_feature_energy(self):
        _, basis = small_poly_basis()
        # at a point where sum phi^2 = N_eff the weight is one; find by scaling
        phi0 = basis.scalar_features(np.zeros(2))
        assert optimal_weight(basis, np.zeros(2)) == pytest.approx(
            basis.n_eff / np.sum(phi0**2)
        )

    def test_singleton_basis_weight_one(self, rng):
        measure = ProductMeasure.from_alphas([0.0, 1.0])
        basis = PolyOperatorBasis.build(measure, np.zeros((1, 2), dtype=int), 3)
        points = rng.uniform(-1, 1, (50, 2))
        assert np.abs(optimal_weight(basis, points) - 1.0).max() == 0.0

    def test_fails_without_zero_index(self):
        measure = ProductMeasure.from_alphas([0.0])
        basis = PolyOperatorBasis.build(measure, np.array([[1]]), 1)
        with pytest.raises(ZeroDivisionError):
            optimal_weight(basis, np.zeros(1))


def three_basis_kinds():
    measure, poly = small_poly_basis(d_out=2)
    linear = LinearRankOneBasis.from_measure(measure, [1, 0], d_out=2)
    cloud = np.random.default_rng(8).uniform(-1.0, 1.0, (40, 2))
    discrete = DiscreteFeatureBasis.build(cloud, poly)
    return [linear, poly, discrete]


@pytest.mark.parametrize("basis", three_basis_kinds(),
                         ids=["linear", "polynomial", "discrete"])
@pytest.mark.parametrize("shape", [(30, 2), (2,)], ids=["batch", "single"])
def test_weights_square_features_in_place_not_inputs(basis, shape, rng):
    # scalar_features returns a fresh array, which christoffel and
    # optimal_weight square in place: the caller's input stays as it was
    fhat = rng.uniform(-1.0, 1.0, shape)
    kept = fhat.copy()
    energy = np.sum(np.square(basis.scalar_features(fhat)), axis=-1)
    assert np.array_equal(optimal_weight(basis, fhat), basis.n_eff / energy)
    assert np.array_equal(christoffel(basis, fhat, 1.0), basis.d_out * energy)
    assert np.array_equal(fhat, kept)


class TestMonomialOperators:
    def test_span_equivalence_on_monotone_lower_set(self):
        # fit each orthogonal-polynomial feature onto the monomials of a
        # monotone lower set by weighted least squares on a tensor grid
        measure = ProductMeasure.from_alphas([0.0, 2.0])
        spec = IndexSetSpec(
            kind="lp_ball", p=1.0, radius=3.0, gamma=np.ones(2), degree_cap=3
        )
        indices = generate(spec)
        basis = PolyOperatorBasis.build(measure, indices, 1)

        rules = [gauss_rule(m, 8) for m in measure.marginals]
        nodes = np.array(
            list(itertools.product(rules[0].nodes, rules[1].nodes))
        )
        grid_w = np.array(
            [w0 * w1 for w0 in rules[0].weights for w1 in rules[1].weights]
        )
        monomials = np.column_stack(
            [np.prod(nodes**idx, axis=1) for idx in indices]
        )
        features = basis.scalar_features(nodes)
        sqrt_w = np.sqrt(grid_w)[:, None]
        coef, *_ = np.linalg.lstsq(sqrt_w * monomials, sqrt_w * features, rcond=None)
        residual = sqrt_w * (monomials @ coef - features)
        assert np.abs(residual).max() <= 1e-8


class TestTensorOrthonormality:
    @pytest.mark.parametrize("alphas", [[0.0, 0.0], [1.0, 4.0], [0.5, 2.0, 9.0]])
    def test_gram_identity_under_tensor_quadrature(self, alphas):
        d = len(alphas)
        measure = ProductMeasure.from_alphas(alphas)
        spec = IndexSetSpec(
            kind="lp_ball", p=1.0, radius=4.0, gamma=np.ones(d), degree_cap=5
        )
        basis = PolyOperatorBasis.build(measure, generate(spec), 1)
        rules = [gauss_rule(m, 8) for m in measure.marginals]
        grids = itertools.product(*[range(8)] * d)
        nodes, weights = [], []
        for combo in grids:
            nodes.append([rules[j].nodes[q] for j, q in enumerate(combo)])
            weights.append(np.prod([rules[j].weights[q] for j, q in enumerate(combo)]))
        phi = basis.scalar_features(np.array(nodes))
        gram = (phi * np.array(weights)[:, None]).T @ phi
        assert np.abs(gram - np.eye(basis.n_eff)).max() <= 1e-10


def test_bochner_density_smoke_poisson_1d():
    # projection error of the 1-D Poisson operator onto the first n input
    # modes, computed analytically from eigenvalues and mode variances
    modes = np.arange(1, 100_001)
    variances = 1.0 / (2.0 * modes.astype(float) ** 2 + 3.0)
    contributions = variances / (np.pi**2 * modes.astype(float) ** 2) ** 2
    total = contributions.sum()
    errors = [total - contributions[:n].sum() for n in (4, 8, 16, 32)]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] > 0.0
