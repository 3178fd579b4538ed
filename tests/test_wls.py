import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opwls import wls
from opwls.index_sets import IndexSetSpec, generate
from opwls.measures import ProductMeasure, gauss_rule
from opwls.operator_basis import PolyOperatorBasis
from opwls.sampling import (
    RngSeed,
    build_induced_tables,
    mixture_plan,
    sample_optimal,
)
from opwls.wls import (
    GRAM_RCOND,
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


def mp_c_delta(delta):
    d = mpmath.mpf(delta)
    return 1 / (d + (1 - d) * mpmath.log(1 - d))


def small_basis(n_radius=2.0, d_in=2, d_out=3, alphas=None):
    alphas = alphas or [0.0] * d_in
    measure = ProductMeasure.from_alphas(alphas)
    spec = IndexSetSpec(kind="lp_ball", p=1.0, radius=n_radius,
                        gamma=np.ones(d_in), degree_cap=6)
    basis = PolyOperatorBasis.build(measure, generate(spec), d_out)
    return measure, basis


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Arguments of every ``np.linalg.lstsq`` call the test makes."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(wls.np.linalg, "lstsq", counting)
    return calls


def fitted_system(seed=0, m=400, d_out=3):
    measure, basis = small_basis(d_out=d_out)
    tables = build_induced_tables(measure, basis)
    plan = mixture_plan(basis)
    x, w = sample_optimal(plan, tables, RngSeed(seed), m, basis)
    coeff = np.random.default_rng(seed).normal(size=(basis.n_eff, d_out))
    obs = basis.scalar_features(x) @ coeff
    return basis, x, w, obs, coeff


class TestConstants:
    def test_c_half_is_about_six_and_a_half(self):
        value = c_delta(0.5)
        assert 6.51 <= value <= 6.53
        assert value == pytest.approx(float(mp_c_delta("0.5")), rel=1e-12)

    def test_divergence_at_zero(self):
        assert c_delta(1e-6) > 1e5

    def test_c_at_nine_tenths(self):
        assert c_delta(0.9) == pytest.approx(float(mp_c_delta("0.9")), rel=1e-12)
        assert c_delta(0.9) == pytest.approx(1.4932, abs=5e-4)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                c_delta(bad)


class TestMinSamples:
    def test_n100_half_half(self):
        oracle = int(mpmath.ceil(mp_c_delta("0.5") * 100 * mpmath.log(400)))
        assert oracle == 3906
        assert min_samples(100, 0.5, 0.5) == 3906

    def test_n1_half_half(self):
        oracle = int(mpmath.ceil(mp_c_delta("0.5") * mpmath.log(4)))
        assert oracle == 10
        assert min_samples(1, 0.5, 0.5) == 10

    def test_monotone_in_dimension(self):
        values = [min_samples(n, 0.5, 0.5) for n in range(1, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestAssemble:
    def test_trivial_gram(self):
        class ConstantBasis:
            n_eff = 1
            d_out = 1

            def scalar_features(self, x):
                return np.ones((np.atleast_2d(x).shape[0], 1))

        system = assemble(ConstantBasis(), np.zeros((1, 1)), np.ones(1),
                          np.ones((1, 1)))
        assert system.gram() == pytest.approx(np.array([[1.0]]))

    def test_gram_symmetric_psd(self):
        basis, x, w, obs, _ = fitted_system(seed=1)
        gram = assemble(basis, x, w, obs).gram()
        assert np.abs(gram - gram.T).max() <= 1e-14
        assert np.linalg.eigvalsh(gram)[0] >= -1e-12

    def test_gram_matches_naive_double_loop(self):
        basis, x, w, obs, _ = fitted_system(seed=2, m=60)
        gram = assemble(basis, x, w, obs).gram()
        phi = basis.scalar_features(x)
        m = x.shape[0]
        naive = np.zeros_like(gram)
        for i in range(basis.n_eff):
            for j in range(basis.n_eff):
                naive[i, j] = sum(
                    w[s] * phi[s, i] * phi[s, j] for s in range(m)
                ) / m
        assert np.abs(gram - naive).max() <= 1e-12

    def test_rejects_mismatched_rows(self):
        basis, x, w, obs, _ = fitted_system(seed=3, m=20)
        with pytest.raises(ValueError):
            assemble(basis, x, w[:-1], obs)
        with pytest.raises(ValueError):
            assemble(basis, x, -w, obs)


class TestGramDiagnostics:
    def test_orthonormal_design(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(50, 6)))
        summary = gram_diagnostics(WlsSystem(design=q, targets=np.zeros((50, 1))))
        assert summary.spectral_gap <= 1e-12
        assert summary.condition == pytest.approx(1.0, abs=1e-10)
        assert summary.stable(0.5)

    def test_constructed_gap_half(self):
        # scaling one orthonormal column by sqrt(1/2) puts the gap at 1/2
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(64, 4)))
        q[:, 0] *= math.sqrt(0.5)
        summary = gram_diagnostics(WlsSystem(design=q, targets=np.zeros((64, 1))))
        assert summary.spectral_gap == pytest.approx(0.5, abs=1e-10)
        bound = (1 + summary.spectral_gap) / (1 - summary.spectral_gap)
        assert summary.condition <= bound + 1e-10
        assert bound == pytest.approx(3.0, abs=1e-9)

    def test_condition_bound_property(self):
        for seed in range(5):
            basis, x, w, obs, _ = fitted_system(seed=seed)
            summary = gram_diagnostics(assemble(basis, x, w, obs))
            assert summary.spectral_gap < 1.0
            bound = (1 + summary.spectral_gap) / (1 - summary.spectral_gap)
            assert summary.condition <= bound + 1e-9

    def test_norm_equivalence_on_random_members(self, rng):
        basis, x, w, obs, _ = fitted_system(seed=7)
        system = assemble(basis, x, w, obs)
        gram = system.gram()
        gap = gram_diagnostics(system).spectral_gap
        for _ in range(100):
            a = rng.normal(size=basis.n_eff)
            quad = a @ gram @ a
            norm_sq = a @ a
            assert (1 - gap) * norm_sq - 1e-9 <= quad <= (1 + gap) * norm_sq + 1e-9


class TestSolve:
    def test_exact_interpolation(self):
        basis, x, w, obs, coeff = fitted_system(seed=11)
        system = assemble(basis, x, w, obs)
        estimate = solve(system, basis)
        misfit = system.design @ estimate.coefficients - system.targets
        assert np.linalg.norm(misfit) <= 1e-10
        assert np.abs(estimate.coefficients - coeff).max() <= 1e-10

    def test_block_equals_monolithic(self):
        # naive oracle: assemble the full N x N Kronecker system and solve
        # the stacked normal equations directly
        rng = np.random.default_rng(5)
        for trial in range(10):
            n_eff = int(rng.integers(2, 21))
            d_out = int(rng.integers(1, 6))
            m = n_eff * 4 + int(rng.integers(5, 30))
            phi = rng.normal(size=(m, n_eff))
            w = rng.uniform(0.5, 2.0, m)
            obs = rng.normal(size=(m, d_out))
            scale = np.sqrt(w / m)[:, None]
            system = WlsSystem(design=scale * phi, targets=scale * obs)
            block = solve(system).coefficients

            gram_full = np.kron(np.eye(d_out), system.gram())
            rhs_full = np.concatenate(
                [system.design.T @ system.targets[:, o] for o in range(d_out)]
            )
            mono = np.linalg.solve(gram_full, rhs_full)
            mono = mono.reshape(d_out, n_eff).T
            assert np.abs(block - mono).max() <= 1e-10

    def test_large_m_consistency_with_projection_oracle(self):
        # noiseless linear target; projection coefficients <K, Phi> computed
        # by tensor-product quadrature
        measure, basis = small_basis(n_radius=2.0, d_in=2, d_out=2,
                                     alphas=[0.0, 1.0])
        target = np.random.default_rng(3).normal(size=(basis.n_eff, 2)) * 0.5

        def apply_target(x):
            return basis.scalar_features(x) @ target

        rules = [gauss_rule(m, 10) for m in measure.marginals]
        nodes = np.array(list(itertools.product(rules[0].nodes, rules[1].nodes)))
        wq = np.array([a * b for a in rules[0].weights for b in rules[1].weights])
        phi = basis.scalar_features(nodes)
        oracle = phi.T @ (wq[:, None] * apply_target(nodes))

        m = 10 * min_samples(basis.n_eff, 0.5, 0.5)
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        x, w = sample_optimal(plan, tables, RngSeed(77), m, basis)
        estimate = solve(assemble(basis, x, w, apply_target(x)), basis)
        assert np.abs(estimate.coefficients - oracle).max() <= 1e-3

    def test_rank_deficiency_degrades_gracefully(self, lstsq_calls):
        design = np.zeros((4, 3))
        design[:, 0] = 1.0
        system = WlsSystem(design=design, targets=np.ones((4, 1)))
        estimate = solve(system)
        assert len(lstsq_calls) == 1
        assert estimate.rank == 1
        # minimum-norm solution: only the live direction carries weight
        assert np.abs(estimate.coefficients[1:]).max() <= 1e-12


def design_with_condition(condition, m=40, n=5, seed=0):
    """Orthonormal columns scaled so that the Gram's spectrum spans [1/condition, 1]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(m, n)))
    scales = np.sqrt(np.geomspace(1.0, 1.0 / condition, n))
    return WlsSystem(design=q * scales, targets=rng.normal(size=(m, 3)))


class TestSolveGate:
    def test_well_conditioned_takes_gram_path(self, lstsq_calls):
        rng = np.random.default_rng(31)
        system = WlsSystem(design=rng.normal(size=(200, 12)),
                           targets=rng.normal(size=(200, 4)))
        estimate = solve(system)
        assert lstsq_calls == []
        assert estimate.rank == 12
        reference, *_ = np.linalg.lstsq(system.design, system.targets, rcond=None)
        error = np.abs(estimate.coefficients - reference).max()
        assert error <= 1e-12 * np.abs(reference).max()

    def test_just_above_the_gate_takes_lstsq(self, lstsq_calls):
        system = design_with_condition(1.01 / GRAM_RCOND)
        eigenvalues = system.gram_eigenvalues
        assert eigenvalues[0] < GRAM_RCOND * eigenvalues[-1]
        estimate = solve(system)
        assert len(lstsq_calls) == 1
        reference, _, rank, _ = np.linalg.lstsq(
            system.design, system.targets, rcond=wls.RANK_RTOL
        )
        assert estimate.rank == rank == system.n_eff
        assert np.array_equal(estimate.coefficients, reference)

    def test_just_below_the_gate_takes_gram_path(self, lstsq_calls):
        system = design_with_condition(0.99 / GRAM_RCOND)
        eigenvalues = system.gram_eigenvalues
        assert eigenvalues[0] > GRAM_RCOND * eigenvalues[-1]
        estimate = solve(system)
        assert lstsq_calls == []
        assert estimate.rank == system.n_eff
        reference, *_ = np.linalg.lstsq(system.design, system.targets, rcond=None)
        # forward error of the normal equations: about cond(G) * u
        error = np.abs(estimate.coefficients - reference).max()
        assert error <= 1e-6 * np.abs(reference).max()

    def test_diagnostics_and_solve_share_one_gram(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(matrix):
            calls.append(matrix)
            return eigvalsh(matrix)

        # built before patching: drawing the inputs runs eigvalsh for the
        # Gauss rules of the induced tables
        basis, x, w, obs, _ = fitted_system(seed=29)
        system = assemble(basis, x, w, obs)
        monkeypatch.setattr(wls.np.linalg, "eigvalsh", counting)
        gram_diagnostics(system)
        solve(system, basis)
        assert system.gram() is system.gram()
        assert len(calls) == 1 and calls[0] is system.gram()
        assert not system.gram().flags.writeable


class TestPredict:
    def test_zero_coefficients(self):
        basis, x, _, _, _ = fitted_system(seed=13, m=20)
        est = solve(
            WlsSystem(design=np.eye(basis.n_eff),
                      targets=np.zeros((basis.n_eff, 3))),
            basis,
        )
        assert np.abs(est.predict(x)).max() == 0.0

    def test_constant_feature_gives_constant_output(self):
        measure = ProductMeasure.from_alphas([0.0])
        basis = PolyOperatorBasis.build(measure, np.zeros((1, 1), dtype=int), 2)
        est = solve(
            WlsSystem(design=np.eye(1), targets=np.array([[2.0, -1.0]])), basis
        )
        out = est.predict(np.array([[0.1], [0.8], [-0.9]]))
        assert np.allclose(out, [[2.0, -1.0]] * 3, atol=1e-14)

    def test_round_trip_on_training_inputs(self):
        basis, x, w, obs, _ = fitted_system(seed=17)
        estimate = solve(assemble(basis, x, w, obs), basis)
        assert np.abs(estimate.predict(x) - obs).max() <= 1e-9


class TestScalingInvariance:
    def test_weight_rescaling_preserves_argmin(self):
        basis, x, w, obs, _ = fitted_system(seed=19)
        base = solve(assemble(basis, x, w, obs), basis).coefficients
        scaled = solve(assemble(basis, x, 7.3 * w, obs), basis).coefficients
        assert np.abs(base - scaled).max() <= 1e-10


class TestTruncation:
    def test_inside_ball_unchanged(self):
        g = np.array([0.3, -0.1])
        assert np.array_equal(truncate_output(g, 1.0), g)

    def test_clipping_preserves_direction(self):
        g = np.array([3.0, 4.0])  # norm 5
        clipped = truncate_output(g, 2.5)
        assert np.linalg.norm(clipped) == pytest.approx(2.5, rel=1e-12)
        cosine = clipped @ g / (np.linalg.norm(clipped) * np.linalg.norm(g))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_zero_guarded(self):
        assert np.array_equal(truncate_output(np.zeros(3), 1.0), np.zeros(3))

    def test_batch(self):
        batch = np.array([[0.1, 0.0], [10.0, 0.0]])
        out = truncate_output(batch, 1.0)
        assert out[0] == pytest.approx([0.1, 0.0])
        assert np.linalg.norm(out[1]) == pytest.approx(1.0)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            truncate_output(np.ones(2), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        g=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        tau=st.floats(1e-6, 1e3),
    )
    def test_never_expands(self, g, tau):
        vec = np.array(g)
        out = truncate_output(vec, tau)
        assert np.linalg.norm(out) <= np.linalg.norm(vec) + 1e-12
        assert np.linalg.norm(out) <= tau * (1 + 1e-12)


class TestConditionEstimator:
    @staticmethod
    def estimate_and_summary(gap):
        basis, x, w, obs, _ = fitted_system(seed=23, m=100)
        estimate = solve(assemble(basis, x, w, obs), basis)
        summary = GramSummary(
            spectral_gap=gap, condition=(1 + gap) / (1 - gap) if gap < 1 else np.inf,
            block_size=basis.n_eff,
        )
        return estimate, summary

    def test_zero_gap_unchanged(self):
        estimate, summary = self.estimate_and_summary(0.0)
        assert condition_estimator(estimate, summary, 0.5) is estimate

    def test_large_gap_zeroed(self):
        estimate, summary = self.estimate_and_summary(0.9)
        gated = condition_estimator(estimate, summary, 0.5)
        assert gated.conditioned_out
        assert np.all(gated.coefficients == 0.0)

    def test_boundary_inclusive(self):
        estimate, summary = self.estimate_and_summary(0.5)
        assert condition_estimator(estimate, summary, 0.5) is estimate


class TestConcentrationLight:
    def test_optimal_sampling_stability_small(self):
        measure, basis = small_basis(n_radius=4.0, d_in=3, d_out=1,
                                     alphas=[1.0, 4.0, 9.0])
        n_eff = basis.n_eff
        tables = build_induced_tables(measure, basis)
        plan = mixture_plan(basis)
        m = min_samples(n_eff, 0.5, 0.5)
        failures = 0
        for trial in range(10):
            x, w = sample_optimal(plan, tables, RngSeed(500 + trial), m, basis)
            summary = gram_diagnostics(
                assemble(basis, x, w, np.zeros((m, 1)))
            )
            failures += summary.spectral_gap > 0.5
        assert failures <= 1
