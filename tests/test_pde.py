import math

import numpy as np
import pytest
from scipy import fft

from opwls import pde
from opwls.pde import (
    BlowUpError,
    BurgersConfig,
    build_dataset,
    burgers_evolve,
    burgers_solve,
    default_d_solve,
    default_dt,
    greens_kernel,
    poisson_apply_1d,
    poisson_apply_2d,
    sine_modes_2d,
    sine_value_1d,
    sine_value_2d,
)


def small_burgers(nu=0.1, T=0.05, d=3, **kw):
    return BurgersConfig.create(viscosity=nu, final_time=T, d_in=d, d_out=d, **kw)


class TestSineModes:
    def test_row_major_enumeration(self):
        pairs = sine_modes_2d(2)
        assert [tuple(p) for p in pairs] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_orthonormal_on_fine_grid(self):
        # low-index sine modes are orthonormal in L2 of the square
        x = np.linspace(0, 1, 801)
        pairs = sine_modes_2d(2)
        mats = [sine_value_2d(p, x, x) for p in pairs]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                inner = np.trapezoid(np.trapezoid(a * b, x, axis=1), x)
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_1d_orthonormal(self):
        x = np.linspace(0, 1, 4001)
        vals = sine_value_1d(np.arange(1, 4), x)
        gram = np.trapezoid(vals[:, None, :] * vals[None, :, :], x, axis=2)
        assert np.abs(gram - np.eye(3)).max() <= 1e-8


class TestPoisson2d:
    def test_single_mode_eigenvalue(self):
        modes = sine_modes_2d(3)
        f = np.zeros(9)
        f[0] = 1.0
        u = poisson_apply_2d(f, modes)
        assert u[0] == pytest.approx(-1.0 / (2.0 * math.pi**2), rel=1e-15)
        assert np.abs(np.delete(u, 0)).max() == 0.0

    def test_zero_input(self):
        assert np.all(poisson_apply_2d(np.zeros(4), sine_modes_2d(2)) == 0.0)

    def test_linearity(self, rng):
        modes = sine_modes_2d(3)
        f, g = rng.normal(size=(2, 9))
        a, b = 0.7, -1.3
        lhs = poisson_apply_2d(a * f + b * g, modes)
        rhs = a * poisson_apply_2d(f, modes) + b * poisson_apply_2d(g, modes)
        assert np.abs(lhs - rhs).max() <= 1e-14

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            poisson_apply_2d(np.zeros(1), np.array([[0, 1]]))


class TestPoisson1d:
    def test_mode_one_eigenvalue(self):
        u = poisson_apply_1d(np.eye(4)[0])
        assert u[0] == pytest.approx(1.0 / math.pi**2, rel=1e-15)

    def test_zero(self):
        assert np.all(poisson_apply_1d(np.zeros(5)) == 0.0)

    def test_consistency_with_greens_kernel(self):
        # oracle: dense composite quadrature of the kernel against xi_1;
        # x points sit on y nodes so the kernel's diagonal kink falls on a
        # quadrature node and the composite rule keeps its full order
        n_y = 20_000
        x = np.linspace(0, 1, 101)
        y = np.linspace(0, 1, n_y + 1)
        integrand = greens_kernel(x[:, None], y[None, :]) * sine_value_1d(
            np.array([1]), y
        )[0][None, :]
        kernel_action = np.trapezoid(integrand, y, axis=1)
        coef = poisson_apply_1d(np.eye(1)[0])[0]
        spectral = coef * sine_value_1d(np.array([1]), x)[0]
        assert np.abs(kernel_action - spectral).max() <= 1e-8


class TestGreensKernel:
    def test_boundary(self):
        y = np.linspace(0, 1, 11)
        assert np.all(greens_kernel(0.0, y) == 0.0)
        assert np.all(greens_kernel(1.0, y) == pytest.approx(0.0, abs=1e-15))

    def test_symmetry(self, rng):
        x, y = rng.uniform(0, 1, (2, 50))
        assert np.allclose(greens_kernel(x, y), greens_kernel(y, x), atol=0)

    def test_center_value(self):
        assert greens_kernel(0.5, 0.5) == pytest.approx(0.25, abs=0)


class TestBurgersConfig:
    def test_dt_rule(self):
        assert default_dt(0.1, 0.2) == pytest.approx(1e-4)
        assert default_dt(0.01, 0.2) == pytest.approx(1e-4)
        assert default_dt(1e-3, 0.2) == pytest.approx(2.5e-5)

    def test_d_solve_rule(self):
        assert default_d_solve(8, 48) == 511
        assert default_d_solve(3, 3) == 31

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BurgersConfig.create(viscosity=0.1, d_in=8, d_out=48, d_solve=480)
        with pytest.raises(ValueError):
            BurgersConfig.create(viscosity=0.1, d_in=3, d_out=3, grid_size=40)
        with pytest.raises(ValueError):
            BurgersConfig.create(viscosity=-1.0, d_in=3, d_out=3)
        with pytest.raises(ValueError):
            BurgersConfig.create(viscosity=0.1, d_in=3, d_out=3, grid_size=64)


class TestBurgersSolver:
    def test_zero_fixed_point(self):
        cfg = small_burgers()
        assert np.all(burgers_solve(np.zeros(3), cfg) == 0.0)

    def test_small_amplitude_heat_decay(self):
        # oracle: the linearized problem is the heat equation with decay
        # exp(-nu pi^2 T) on mode 1; nonlinearity is O(amplitude^2)
        nu, T, amp = 0.1, 0.2, 1e-4
        cfg = small_burgers(nu=nu, T=T)
        u0 = np.array([amp, 0.0, 0.0])
        uT = burgers_solve(u0, cfg)
        decay = np.linalg.norm(uT) / amp
        assert decay == pytest.approx(math.exp(-nu * math.pi**2 * T), rel=1e-2)

    def test_first_order_dt_refinement(self):
        cfg0 = small_burgers(T=0.04, dt=0.04 / 250)
        u0 = np.array([0.4, -0.2, 0.1])
        solutions = []
        for level in range(4):
            cfg = small_burgers(T=0.04, dt=0.04 / (250 * 2**level))
            solutions.append(burgers_solve(u0, cfg))
        diffs = [
            np.linalg.norm(a - b) for a, b in zip(solutions, solutions[1:])
        ]
        ratios = [a / b for a, b in zip(diffs, diffs[1:])]
        assert all(1.7 <= r <= 2.3 for r in ratios)

    def test_dense_transform_bit_compatibility(self):
        # the fast sine/cosine transforms must agree with direct matrix
        # synthesis/analysis to near machine precision
        cfg = small_burgers(T=0.01)
        rng = np.random.default_rng(2)
        u0 = 0.3 * rng.uniform(-1, 1, (4, 3))
        fast = burgers_evolve(u0, cfg)

        d, p = cfg.d_solve, cfg.grid_size
        x = np.arange(1, p + 1) / (p + 1)
        j = np.arange(1, d + 1)
        synth = math.sqrt(2.0) * np.sin(math.pi * np.outer(x, j))
        dsynth = math.sqrt(2.0) * math.pi * j * np.cos(math.pi * np.outer(x, j))
        analysis = synth.T / (p + 1)
        damp = 1.0 / (1.0 + cfg.dt * cfg.viscosity * math.pi**2 * j**2)
        state = np.zeros((4, d))
        state[:, :3] = u0
        for _ in range(int(round(cfg.final_time / cfg.dt))):
            flux = ((state @ synth.T) * (state @ dsynth.T)) @ analysis.T
            state = (state - cfg.dt * flux) * damp
        assert np.abs(fast - state).max() <= 1e-12

    @staticmethod
    def full_grid_evolve(u0, cfg):
        # reference: the step on full-grid transforms, one DST-I over the
        # grid_size interior points and one DCT-I over the grid and its two
        # zero end points
        m, d, p = u0.shape[0], cfg.d_solve, cfg.grid_size
        padded = np.zeros((m, p))
        padded[:, : u0.shape[1]] = u0
        state = padded[:, :d]
        squares = np.zeros((m, p + 2))
        j = np.arange(1, d + 1)
        damp = 1.0 / (1.0 + cfg.dt * cfg.viscosity * math.pi**2 * j**2)
        flux_scale = cfg.dt * j * math.pi / (4.0 * math.sqrt(2.0) * (p + 1))
        for _ in range(int(round(cfg.final_time / cfg.dt))):
            squares[:, 1:-1] = fft.dst(padded, type=1, axis=1) ** 2
            state += flux_scale * fft.dct(squares, type=1, axis=1)[:, 1 : d + 1]
            state *= damp
        return state

    @pytest.mark.parametrize(
        "grid_size", [None, 2 * (2 * 511 + 1) + 1], ids=["default", "doubled"]
    )
    def test_split_transforms_match_full_grid(self, grid_size):
        # the paper's solver size for 50 steps, on criterion 6's input
        # amplitudes; on the doubled grid the even half has more columns
        # (h - 1 = 1023) than modes (d_solve = 511)
        cfg = BurgersConfig.create(
            viscosity=0.1, final_time=50 * 1e-4, dt=1e-4, d_in=8, d_out=48,
            grid_size=grid_size,
        )
        assert cfg.d_solve == 511
        u0 = np.random.default_rng(13).uniform(-1.0, 1.0, (16, 8))
        split = burgers_evolve(u0, cfg)
        full = self.full_grid_evolve(u0, cfg)
        # 1e-14 relative to each row's largest coefficient
        scale = np.abs(full).max(axis=1, keepdims=True)
        assert np.all(np.abs(split - full) <= 1e-14 * scale)

    def test_dealiasing_grid_insensitivity(self):
        # doubling the oversampled grid beyond the default must not change
        # the solution: the default grid is already alias-free
        d_in = 8
        rng = np.random.default_rng(3)
        u0 = 0.5 * rng.uniform(-1, 1, d_in)
        base = BurgersConfig.create(viscosity=0.1, final_time=0.02,
                                    d_in=d_in, d_out=d_in)
        doubled = BurgersConfig.create(
            viscosity=0.1, final_time=0.02, d_in=d_in, d_out=d_in,
            grid_size=2 * base.grid_size + 1,
        )
        a = burgers_solve(u0, base)
        b = burgers_solve(u0, doubled)
        assert np.abs(a - b).max() <= 1e-10

    def test_near_dissipation_small_amplitude(self):
        # strict L2 decay per step in the small-amplitude regime
        cfg = small_burgers(T=0.05)
        step = BurgersConfig.create(
            viscosity=cfg.viscosity, final_time=cfg.dt, dt=cfg.dt,
            d_in=3, d_out=3, d_solve=cfg.d_solve, grid_size=cfg.grid_size,
        )
        state = np.array([1e-3, 5e-4, -2e-4])
        norms = [np.linalg.norm(state)]
        for _ in range(25):
            state = burgers_solve(state, step, n_keep=step.d_solve)
            norms.append(np.linalg.norm(state))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    @pytest.mark.filterwarnings("error")
    def test_blow_up_detection(self):
        cfg = small_burgers(nu=1e-9, T=10.0, dt=0.5)
        with pytest.raises(BlowUpError):
            burgers_solve(np.array([50.0, 0.0, 0.0]), cfg)

    def test_deterministic(self):
        cfg = small_burgers()
        u0 = np.array([0.3, 0.1, -0.2])
        assert np.array_equal(burgers_solve(u0, cfg), burgers_solve(u0, cfg))

    def test_rejects_oversized_input(self):
        cfg = small_burgers()
        with pytest.raises(ValueError):
            burgers_solve(np.zeros(cfg.d_solve + 1), cfg)


class TestBuildDataset:
    def test_empty(self):
        ds = build_dataset(np.zeros((0, 3)), np.zeros(0), "poisson1d", d_out=3)
        assert ds.n_samples == 0

    def test_poisson_eigen_identity_exact(self, rng):
        x = rng.uniform(-1, 1, (20, 4))
        ds = build_dataset(x, np.ones(20), "poisson1d")
        n = np.arange(1, 5)
        assert np.abs(ds.outputs * (math.pi**2 * n**2) - x).max() <= 1e-14

    def test_reproducible_provenance(self, rng):
        x = rng.uniform(-1, 1, (5, 2))
        a = build_dataset(x, np.ones(5), "poisson1d", seed=3, sampler="monte_carlo")
        b = build_dataset(x, np.ones(5), "poisson1d", seed=3, sampler="monte_carlo")
        assert a.provenance == b.provenance
        assert np.array_equal(a.outputs, b.outputs)

    def test_burgers_truncation(self):
        cfg = small_burgers()
        x = np.full((2, 3), 0.1)
        ds = build_dataset(x, np.ones(2), "burgers", burgers_config=cfg, d_out=2)
        assert ds.outputs.shape == (2, 2)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            build_dataset(np.zeros((1, 2)), np.ones(1), "stokes")

    def test_error_decomposition_sanity(self):
        # full-space test error is never below the output-truncation part
        cfg = BurgersConfig.create(viscosity=0.05, final_time=0.05,
                                   d_in=4, d_out=16)
        rng = np.random.default_rng(6)
        u0 = 0.6 * rng.uniform(-1, 1, (10, 4))
        full = burgers_evolve(u0, cfg)[:, :16]
        d_keep = 6
        prediction = np.zeros_like(full)
        prediction[:, :d_keep] = full[:, :d_keep]  # ideal fit of kept modes
        full_err = np.sum((full - prediction) ** 2, axis=1).mean()
        truncation = np.sum(full[:, d_keep:] ** 2, axis=1).mean()
        assert full_err >= truncation - 1e-12


class TestBurgersFanOut:
    # build_dataset splits rows over threads; every split must give the
    # same bits as solving one row at a time
    @staticmethod
    def row_by_row(x, cfg):
        return np.vstack([burgers_evolve(row, cfg) for row in x])

    def test_fewer_rows_than_cores(self, monkeypatch):
        monkeypatch.setattr(pde, "solver_threads", lambda: 8)
        cfg = small_burgers()
        x = np.random.default_rng(11).uniform(-0.5, 0.5, (3, 3))
        ds = build_dataset(x, np.ones(3), "burgers", burgers_config=cfg)
        assert np.array_equal(ds.outputs, self.row_by_row(x, cfg))

    def test_zero_rows(self):
        cfg = small_burgers()
        ds = build_dataset(np.zeros((0, 3)), np.zeros(0), "burgers",
                           burgers_config=cfg, d_out=3)
        assert ds.outputs.shape == (0, 3)

    def test_rows_crossing_chunk_boundary(self, monkeypatch):
        monkeypatch.setattr(pde, "_BATCH_CHUNK", 4)
        monkeypatch.setattr(pde, "solver_threads", lambda: 3)
        cfg = small_burgers()
        x = np.random.default_rng(12).uniform(-0.5, 0.5, (11, 3))
        ds = build_dataset(x, np.ones(11), "burgers", burgers_config=cfg, d_out=2)
        assert np.array_equal(ds.outputs, self.row_by_row(x, cfg)[:, :2])

    @pytest.mark.filterwarnings("error")
    def test_blow_up_in_worker_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(pde, "solver_threads", lambda: 2)
        cfg = small_burgers(nu=1e-9, T=10.0, dt=0.5)
        x = np.zeros((4, 3))
        x[3, 0] = 50.0
        with pytest.raises(BlowUpError):
            build_dataset(x, np.ones(4), "burgers", burgers_config=cfg)
