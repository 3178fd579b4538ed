import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from opwls.measures import (
    ProductMeasure,
    UnivariateMeasure,
    default_quadrature_order,
    eval_poly,
    gauss_rule,
    poly_table,
)

ALPHAS = [0.0, -0.5, 0.5, 1.0, 2.5, 13.5]


def dense_grid_gram_schmidt_p1(alpha: float) -> float:
    """Oracle: orthonormalize {1, x} against the measure on a dense grid."""
    t = np.linspace(-1.0, 1.0, 200_001)
    w = UnivariateMeasure(alpha).density(t)
    # trapezoid integration against the density
    def integral(values):
        return np.trapezoid(values * w, t)

    norm_sq = integral(t * t)  # <x, x>, since <x, 1> = 0 by symmetry
    return 1.0 / math.sqrt(norm_sq)  # leading coefficient of p_1


class TestSecondMoment:
    def test_uniform_law(self):
        assert UnivariateMeasure(0.0).variance == pytest.approx(1 / 3, abs=0)

    def test_alpha_one(self):
        assert UnivariateMeasure(1.0).variance == pytest.approx(1 / 5, abs=0)

    def test_alpha_13_5(self):
        assert UnivariateMeasure(13.5).variance == pytest.approx(1 / 30, abs=0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_quadrature(self, alpha):
        marginal = UnivariateMeasure(alpha)
        for order in (2, 5, 9):
            rule = gauss_rule(marginal, order)
            assert rule.moment(2) == pytest.approx(1 / (2 * alpha + 3), abs=1e-12)


class TestFamily:
    def test_p1_at_one_uniform(self):
        # Gram-Schmidt oracle on {1, x} under the uniform probability measure
        lead = dense_grid_gram_schmidt_p1(0.0)
        assert lead == pytest.approx(math.sqrt(3.0), abs=1e-6)
        marginal = UnivariateMeasure(0.0)
        assert eval_poly(marginal, 1, 1.0) == pytest.approx(lead, abs=1e-6)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_p0_is_one(self, alpha):
        marginal = UnivariateMeasure(alpha)
        for x in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert eval_poly(marginal, 0, x) == 1.0

    def test_p1_p2_orthogonal_under_q8_rule(self):
        marginal = UnivariateMeasure(0.0)
        rule = gauss_rule(marginal, 8)
        p1 = eval_poly(marginal, 1, rule.nodes)
        p2 = eval_poly(marginal, 2, rule.nodes)
        assert abs(np.sum(rule.weights * p1 * p2)) <= 1e-12

    def test_leading_coefficients_positive(self):
        # positive b guarantees positive leading coefficients by induction
        marginal = UnivariateMeasure(1.5)
        assert np.all(marginal.recurrence_offdiag(9)[1:] > 0.0)

    @pytest.mark.parametrize("alpha", [-0.999, -0.5, 0.0, 1.5, 13.5, 1e4])
    def test_recurrence_is_bitwise_prefix_of_longer_one(self, alpha):
        # the coefficients are recomputed on every call, so a short call must
        # give the bits of the same entries of a longer one
        marginal = UnivariateMeasure(alpha)
        longest = marginal.recurrence_offdiag(40)
        for n in range(40):
            assert marginal.recurrence_offdiag(n).tobytes() == longest[: n + 1].tobytes()

    def test_same_arguments_give_equal_families(self):
        marginal = UnivariateMeasure(0.5)
        again = UnivariateMeasure(0.5)
        assert marginal == again
        assert hash(marginal) == hash(again)
        assert marginal != UnivariateMeasure(0.7)

    def test_rejects_degenerate_alpha(self):
        with pytest.raises(ValueError):
            UnivariateMeasure(-0.9999)
        with pytest.raises(ValueError):
            UnivariateMeasure(-1.2)


class TestGaussRule:
    def test_single_node_at_mean(self):
        for alpha in ALPHAS:
            rule = gauss_rule(UnivariateMeasure(alpha), 1)
            assert rule.nodes == pytest.approx([0.0], abs=1e-15)
            assert rule.weights == pytest.approx([1.0], abs=1e-15)

    def test_two_point_uniform_rule_from_moment_system(self):
        # oracle: symmetric 2-point rule matching moments 1, 0, 1/3 has
        # node x with x^2 = 1/3 and weights 1/2
        node = math.sqrt(1 / 3)
        rule = gauss_rule(UnivariateMeasure(0.0), 2)
        assert np.sort(rule.nodes) == pytest.approx([-node, node], abs=1e-14)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_variance_exactness_q8(self):
        rule = gauss_rule(UnivariateMeasure(0.0), 8)
        assert rule.moment(2) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("order", [2, 5, 12])
    def test_weights_positive_and_normalized(self, alpha, order):
        rule = gauss_rule(UnivariateMeasure(alpha), order)
        assert np.all(rule.weights > 0.0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_monomial_exactness(self, alpha):
        # spot-check exactness on monomials of degree <= 2Q - 1 against a
        # much larger reference rule
        marginal = UnivariateMeasure(alpha)
        rule = gauss_rule(marginal, 5)
        reference = gauss_rule(marginal, 40)
        for degree in range(0, 10):
            assert rule.moment(degree) == pytest.approx(
                reference.moment(degree), abs=1e-10
            )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_rule(UnivariateMeasure(0.0), 0)

    # the l1_cubed rule's alphas: (n1 + n2)^3 over modes n1, n2 in 1..10
    @pytest.mark.parametrize(
        "alpha", [-0.5, 0.0, 1.0, 4.0, 100.0, 8000.0]
        + [float(s**3) for s in range(2, 21)],
    )
    def test_nodes_bitwise_equal_to_tridiagonal_solver(self, alpha):
        # numpy's dense symmetric solver leaves a tridiagonal matrix as it is
        # and runs the same dsterf iteration as scipy's tridiagonal one
        from scipy.linalg import eigh_tridiagonal

        marginal = UnivariateMeasure(alpha)
        for order in range(1, 61):
            b = marginal.recurrence_offdiag(order)
            expected = eigh_tridiagonal(np.zeros(order), b[1:order], eigvals_only=True)
            assert np.array_equal(gauss_rule(marginal, order).nodes, expected), order

    def test_rule_computed_once_per_measure_and_order(self):
        measure = UnivariateMeasure(2.0)
        rule = gauss_rule(measure, 9)
        # a second call shares the rule
        assert gauss_rule(measure, 9) is rule
        assert gauss_rule(measure, 10) is not rule
        fresh = gauss_rule(UnivariateMeasure(2.0), 9)
        assert fresh is not rule
        assert np.array_equal(fresh.nodes, rule.nodes)
        assert np.array_equal(fresh.weights, rule.weights)
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        # the memo takes no part in equality, hashing or repr
        assert measure == UnivariateMeasure(2.0)
        assert hash(measure) == hash(UnivariateMeasure(2.0))
        assert repr(measure) == "UnivariateMeasure(alpha=2.0)"

    def test_threads_sharing_a_measure_get_one_rule_per_order(self):
        measure = UnivariateMeasure(4.0)
        orders = range(1, 41)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(
                    lambda _: [(rule, rule.cdf) for rule in
                               (gauss_rule(measure, q) for q in orders)],
                    range(8),
                    timeout=60,
                ))
        finally:
            sys.setswitchinterval(interval)
        for q, found in zip(orders, zip(*seen)):
            rules, laws = zip(*found)
            assert all(rule is rules[0] for rule in rules)
            fresh = gauss_rule(UnivariateMeasure(4.0), q)
            assert np.array_equal(rules[0].nodes, fresh.nodes)
            assert np.array_equal(rules[0].weights, fresh.weights)
            # a rule's laws may be computed by two threads at once, bit for bit alike
            assert all(law.tobytes() == fresh.cdf.tobytes() for law in laws)


class TestInvariants:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 13.5])
    def test_rule_reproduces_orthonormality(self, alpha):
        n_max = 5
        marginal = UnivariateMeasure(alpha)
        for order in (n_max + 1, default_quadrature_order(n_max)):
            rule = gauss_rule(marginal, order)
            table = poly_table(marginal, n_max, rule.nodes)
            gram = (table * rule.weights) @ table.T
            assert np.abs(gram - np.eye(n_max + 1)).max() <= 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
    def test_p_q_vanishes_at_rule_nodes(self, alpha):
        order = 7
        marginal = UnivariateMeasure(alpha)
        rule = gauss_rule(marginal, order)
        values = eval_poly(marginal, order, rule.nodes)
        dense = eval_poly(marginal, order, np.linspace(-1, 1, 2001))
        assert np.abs(values).max() <= 1e-8 * np.abs(dense).max()

    def test_odd_polynomials_vanish_at_zero(self):
        marginal = UnivariateMeasure(1.5)
        for n in (1, 3, 5, 7):
            assert eval_poly(marginal, n, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_eval_outside_support_permitted(self):
        marginal = UnivariateMeasure(0.0)
        assert np.isfinite(eval_poly(marginal, 3, 1.5))


class TestProductMeasure:
    def test_variances(self):
        pm = ProductMeasure.from_alphas([0.0, 1.0, 13.5])
        assert pm.variances == pytest.approx([1 / 3, 1 / 5, 1 / 30])
        assert np.all(pm.variances > 0)
        assert len(pm) == 3

    def test_requires_a_marginal(self):
        with pytest.raises(ValueError):
            ProductMeasure(marginals=())

    def test_density_normalized(self):
        t = np.linspace(-1, 1, 400_001)
        for alpha in (0.0, 2.0):
            mass = np.trapezoid(UnivariateMeasure(alpha).density(t), t)
            assert mass == pytest.approx(1.0, abs=1e-6)


def _value_types():
    """Builders of the array-holding library types, each building afresh."""
    from opwls.evaluation import SobolevWeighting
    from opwls.index_sets import IndexSetSpec, generate
    from opwls.operator_basis import PolyOperatorBasis
    from opwls.pde import build_dataset
    from opwls.sampling import RngSeed, sample_monte_carlo
    from opwls.wls import assemble, solve

    def spec():
        return IndexSetSpec(kind="hyperbolic_cross", radius=3.0,
                            gamma=np.ones(3), degree_cap=4)

    def dataset():
        measure = ProductMeasure.from_alphas([1.0, 4.0, 9.0])
        samples, weights = sample_monte_carlo(measure, RngSeed(3), 40)
        return build_dataset(samples, weights, "poisson1d", seed=3, sampler="mc")

    def system():
        ds = dataset()
        basis = PolyOperatorBasis.build(ProductMeasure.from_alphas([1.0, 4.0, 9.0]),
                                        generate(spec()), d_out=3)
        return assemble(basis, ds.inputs, ds.weights, ds.outputs), basis

    return {
        "IndexSetSpec": (spec, "gamma"),
        "QuadratureRule": (
            lambda: gauss_rule(UnivariateMeasure(0.5), 6), "values"),
        "DataSet": (dataset, "outputs"),
        "WlsSystem": (lambda: system()[0], "targets"),
        "OperatorEstimate": (lambda: solve(*system()), "coefficients"),
        "SobolevWeighting": (
            lambda: SobolevWeighting.for_modes(1.0, np.arange(1, 6)), "weights"),
    }


@pytest.mark.parametrize("name", list(_value_types()))
def test_array_holders_compare_by_value(name):
    build, field_name = _value_types()[name]
    a, b = build(), build()
    assert a is not b and getattr(a, field_name) is not getattr(b, field_name)
    assert a == b
    moved = np.array(getattr(a, field_name))
    moved.flat[-1] += 1.0
    assert a != replace(a, **{field_name: moved})
