import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from opwls.measures import (
    ProductMeasure,
    UnivariateMeasure,
    build_family,
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
        fam = build_family(UnivariateMeasure(alpha), 2)
        for order in (2, 5, 9):
            rule = gauss_rule(fam, order)
            assert rule.moment(2) == pytest.approx(1 / (2 * alpha + 3), abs=1e-12)


class TestFamily:
    def test_p1_at_one_uniform(self):
        # Gram-Schmidt oracle on {1, x} under the uniform probability measure
        lead = dense_grid_gram_schmidt_p1(0.0)
        assert lead == pytest.approx(math.sqrt(3.0), abs=1e-6)
        fam = build_family(UnivariateMeasure(0.0), 3)
        assert eval_poly(fam, 1, 1.0) == pytest.approx(lead, abs=1e-6)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_p0_is_one(self, alpha):
        fam = build_family(UnivariateMeasure(alpha), 4)
        for x in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert eval_poly(fam, 0, x) == 1.0

    def test_p1_p2_orthogonal_under_q8_rule(self):
        fam = build_family(UnivariateMeasure(0.0), 4)
        rule = gauss_rule(fam, 8)
        p1 = eval_poly(fam, 1, rule.nodes)
        p2 = eval_poly(fam, 2, rule.nodes)
        assert abs(np.sum(rule.weights * p1 * p2)) <= 1e-12

    def test_leading_coefficients_positive(self):
        # positive b guarantees positive leading coefficients by induction
        fam = build_family(UnivariateMeasure(1.5), 8)
        assert np.all(fam.b[1:] > 0.0)

    def test_rejects_degenerate_alpha(self):
        with pytest.raises(ValueError):
            UnivariateMeasure(-0.9999)
        with pytest.raises(ValueError):
            UnivariateMeasure(-1.2)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            build_family(UnivariateMeasure(0.0), -1)


class TestGaussRule:
    def test_single_node_at_mean(self):
        for alpha in ALPHAS:
            rule = gauss_rule(build_family(UnivariateMeasure(alpha), 1), 1)
            assert rule.nodes == pytest.approx([0.0], abs=1e-15)
            assert rule.weights == pytest.approx([1.0], abs=1e-15)

    def test_two_point_uniform_rule_from_moment_system(self):
        # oracle: symmetric 2-point rule matching moments 1, 0, 1/3 has
        # node x with x^2 = 1/3 and weights 1/2
        node = math.sqrt(1 / 3)
        rule = gauss_rule(build_family(UnivariateMeasure(0.0), 2), 2)
        assert np.sort(rule.nodes) == pytest.approx([-node, node], abs=1e-14)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_variance_exactness_q8(self):
        rule = gauss_rule(build_family(UnivariateMeasure(0.0), 4), 8)
        assert rule.moment(2) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("order", [2, 5, 12])
    def test_weights_positive_and_normalized(self, alpha, order):
        rule = gauss_rule(build_family(UnivariateMeasure(alpha), 2), order)
        assert np.all(rule.weights > 0.0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_monomial_exactness(self, alpha):
        # spot-check exactness on monomials of degree <= 2Q - 1 against a
        # much larger reference rule
        fam = build_family(UnivariateMeasure(alpha), 4)
        rule = gauss_rule(fam, 5)
        reference = gauss_rule(fam, 40)
        for degree in range(0, 10):
            assert rule.moment(degree) == pytest.approx(
                reference.moment(degree), abs=1e-10
            )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_rule(build_family(UnivariateMeasure(0.0), 1), 0)

    # the l1_cubed rule's alphas: (n1 + n2)^3 over modes n1, n2 in 1..10
    @pytest.mark.parametrize(
        "alpha", [-0.5, 0.0, 1.0, 4.0, 100.0, 8000.0]
        + [float(s**3) for s in range(2, 21)],
    )
    def test_nodes_bitwise_equal_to_tridiagonal_solver(self, alpha):
        # numpy's dense symmetric solver leaves a tridiagonal matrix as it is
        # and runs the same dsterf iteration as scipy's tridiagonal one
        from scipy.linalg import eigh_tridiagonal

        fam = build_family(UnivariateMeasure(alpha), 60)
        for order in range(1, 61):
            b = fam.recurrence_offdiag(order)
            expected = eigh_tridiagonal(np.zeros(order), b[1:order], eigvals_only=True)
            assert np.array_equal(gauss_rule(fam, order).nodes, expected), order

    def test_rule_computed_once_per_measure_and_order(self):
        measure = UnivariateMeasure(2.0)
        rule = gauss_rule(build_family(measure, 3), 9)
        # another family of the same measure shares the rule
        assert gauss_rule(build_family(measure, 7), 9) is rule
        assert gauss_rule(build_family(measure, 3), 10) is not rule
        fresh = gauss_rule(build_family(UnivariateMeasure(2.0), 3), 9)
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
                    lambda _: [gauss_rule(build_family(measure, 3), q) for q in orders],
                    range(8),
                    timeout=60,
                ))
        finally:
            sys.setswitchinterval(interval)
        for q, rules in zip(orders, zip(*seen)):
            assert all(rule is rules[0] for rule in rules)
            fresh = gauss_rule(build_family(UnivariateMeasure(4.0), 3), q)
            assert np.array_equal(rules[0].nodes, fresh.nodes)
            assert np.array_equal(rules[0].weights, fresh.weights)


class TestInvariants:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 13.5])
    def test_rule_reproduces_orthonormality(self, alpha):
        n_max = 5
        fam = build_family(UnivariateMeasure(alpha), n_max)
        for order in (n_max + 1, default_quadrature_order(n_max)):
            rule = gauss_rule(fam, order)
            table = poly_table(fam, n_max, rule.nodes)
            gram = (table * rule.weights) @ table.T
            assert np.abs(gram - np.eye(n_max + 1)).max() <= 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
    def test_p_q_vanishes_at_rule_nodes(self, alpha):
        order = 7
        fam = build_family(UnivariateMeasure(alpha), order)
        rule = gauss_rule(fam, order)
        values = eval_poly(fam, order, rule.nodes)
        dense = eval_poly(fam, order, np.linspace(-1, 1, 2001))
        assert np.abs(values).max() <= 1e-8 * np.abs(dense).max()

    def test_odd_polynomials_vanish_at_zero(self):
        fam = build_family(UnivariateMeasure(1.5), 7)
        for n in (1, 3, 5, 7):
            assert eval_poly(fam, n, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_eval_outside_support_permitted(self):
        fam = build_family(UnivariateMeasure(0.0), 3)
        assert np.isfinite(eval_poly(fam, 3, 1.5))

    def test_eval_beyond_family_degree_rejected(self):
        fam = build_family(UnivariateMeasure(0.0), 3)
        with pytest.raises(ValueError):
            eval_poly(fam, 4, 0.5)


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
