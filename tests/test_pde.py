import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft

from opwls import pde
from opwls.experiments import openblas_thread_calls
from opwls.pde import (
    BlowUpError,
    BurgersConfig,
    build_dataset,
    burgers_evolve,
    default_d_solve,
    default_dt,
    default_grid_size,
    greens_kernel,
    poisson_apply_1d,
    poisson_apply_2d,
    sine_modes_2d,
    sine_value_1d,
)


def small_burgers(nu=0.1, T=0.05, d=3, **kw):
    return BurgersConfig.create(viscosity=nu, final_time=T, d_in=d, d_out=d, **kw)


class TestSineModes:
    def test_row_major_enumeration(self):
        pairs = sine_modes_2d(2)
        assert [tuple(p) for p in pairs] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_column_major_enumeration(self):
        # n2 outermost: the transpose of the row order
        pairs = sine_modes_2d(3, "column")
        assert [tuple(p) for p in pairs] == [
            (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)
        ]
        assert np.array_equal(pairs[:, ::-1], sine_modes_2d(3, "row"))

    def test_orthonormal_on_fine_grid(self):
        # low-index sine modes are orthonormal in L2 of the square
        x = np.linspace(0, 1, 801)
        pairs = sine_modes_2d(2)
        mats = [2.0 * np.outer(np.sin(n1 * np.pi * x), np.sin(n2 * np.pi * x))
                for n1, n2 in pairs]
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

    def test_grid_rule(self):
        # the smallest odd grid with 2 (grid_size + 1) > 3 d_solve
        assert default_grid_size(511) == 767
        assert default_grid_size(31) == 47
        assert small_burgers().grid_size == 47

    def test_grid_exactness_bound(self):
        # at d_solve = 31 the bound needs more than 46.5 intervals: grid 45
        # has 46, grid 47 has 48
        with pytest.raises(ValueError, match="3 d_solve"):
            small_burgers(grid_size=45)
        assert small_burgers(grid_size=47).d_solve == 31

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BurgersConfig.create(viscosity=0.1, d_in=8, d_out=48, d_solve=480)
        with pytest.raises(ValueError):
            BurgersConfig.create(viscosity=0.1, d_in=3, d_out=3, grid_size=40)
        with pytest.raises(ValueError):
            BurgersConfig.create(viscosity=-1.0, d_in=3, d_out=3)
        with pytest.raises(ValueError):
            BurgersConfig.create(viscosity=0.1, d_in=3, d_out=3, grid_size=64)
        with pytest.raises(ValueError):
            BurgersConfig.create(
                viscosity=0.1, final_time=0.00015, dt=1e-4, d_in=3, d_out=3
            )
        for field, value in [("viscosity", math.inf), ("viscosity", math.nan),
                             ("final_time", math.inf), ("dt", math.inf)]:
            with pytest.raises(ValueError, match=field):
                BurgersConfig.create(**{"viscosity": 0.1, field: value},
                                     d_in=3, d_out=3)
        with pytest.raises(ValueError, match="no step"):
            BurgersConfig.create(viscosity=0.1, final_time=5e-324, dt=10.0,
                                 d_in=3, d_out=3)


class TestBurgersSolver:
    def test_zero_fixed_point(self):
        cfg = small_burgers()
        assert np.all(burgers_evolve(np.zeros(3), cfg)[0] == 0.0)

    def test_small_amplitude_heat_decay(self):
        # oracle: the linearized problem is the heat equation with decay
        # exp(-nu pi^2 T) on mode 1; nonlinearity is O(amplitude^2)
        nu, T, amp = 0.1, 0.2, 1e-4
        cfg = small_burgers(nu=nu, T=T)
        u0 = np.array([amp, 0.0, 0.0])
        uT = burgers_evolve(u0, cfg)[0]
        decay = np.linalg.norm(uT) / amp
        assert decay == pytest.approx(math.exp(-nu * math.pi**2 * T), rel=1e-2)

    def test_first_order_dt_refinement(self):
        cfg0 = small_burgers(T=0.04, dt=0.04 / 250)
        u0 = np.array([0.4, -0.2, 0.1])
        solutions = []
        for level in range(4):
            cfg = small_burgers(T=0.04, dt=0.04 / (250 * 2**level))
            solutions.append(burgers_evolve(u0, cfg)[0])
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
    def dense_evolve(u0, cfg):
        # reference: direct matrix synthesis and analysis on the grid
        d, p = cfg.d_solve, cfg.grid_size
        x = np.arange(1, p + 1) / (p + 1)
        j = np.arange(1, d + 1)
        synth = math.sqrt(2.0) * np.sin(math.pi * np.outer(x, j))
        dsynth = math.sqrt(2.0) * math.pi * j * np.cos(math.pi * np.outer(x, j))
        analysis = synth.T / (p + 1)
        damp = 1.0 / (1.0 + cfg.dt * cfg.viscosity * math.pi**2 * j**2)
        state = np.zeros((u0.shape[0], d))
        state[:, : u0.shape[1]] = u0
        for _ in range(int(round(cfg.final_time / cfg.dt))):
            flux = ((state @ synth.T) * (state @ dsynth.T)) @ analysis.T
            state = (state - cfg.dt * flux) * damp
        return state

    def test_smallest_grid_matches_dense_transforms(self):
        # grid 47 is the smallest odd grid for d_solve = 31: its L = 48 cell
        # midpoints integrate the flux's cosines up to mode 3 * 31 = 93 < 2 L
        # exactly, the narrowest margin the bound allows; every one of the
        # 31 modes starts excited
        cfg = small_burgers(T=0.01, grid_size=47)
        rng = np.random.default_rng(2)
        u0 = 0.3 * rng.uniform(-1, 1, (4, cfg.d_solve)) / np.arange(1, cfg.d_solve + 1)
        dense = self.dense_evolve(u0, cfg)
        assert np.abs(burgers_evolve(u0, cfg) - dense).max() <= 1e-12

    def test_one_step_matches_galerkin_flux(self):
        # one step at the exactness bound (d_solve = 31, grid 47) with every
        # mode excited, against the Galerkin flux <u u_x, sqrt(2) sin(j pi x)>
        # by 256-point Gauss-Legendre quadrature, which uses no collocation
        # grid; dt = 1 keeps the flux from cancelling against the state
        cfg = small_burgers(nu=1e-3, T=1.0, dt=1.0, grid_size=47)
        d = cfg.d_solve
        assert d == 31
        j = np.arange(1, d + 1)
        u0 = 0.3 * np.random.default_rng(4).uniform(-1, 1, (3, d)) / j
        damp = 1.0 / (1.0 + cfg.dt * cfg.viscosity * math.pi**2 * j**2)
        flux = (u0 - burgers_evolve(u0, cfg) / damp) / cfg.dt

        nodes, weights = np.polynomial.legendre.leggauss(256)
        x, weights = (nodes + 1.0) / 2.0, weights / 2.0
        sines = math.sqrt(2.0) * np.sin(math.pi * np.outer(j, x))
        slopes = math.sqrt(2.0) * math.pi * j[:, None] * np.cos(
            math.pi * np.outer(j, x)
        )
        galerkin = ((u0 @ sines) * (u0 @ slopes) * weights) @ sines.T
        assert np.abs(flux - galerkin).max() <= 1e-13 * np.abs(galerkin).max()

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
        # amplitudes, against the interval-grid reference: on the default
        # grid (767, L = 768 midpoints) and on the doubled one (2047), whose
        # DST-III zero-pads 1537 of its L = 2048 inputs beyond d_solve = 511
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

    def test_default_grid_matches_1023_grid_at_paper_size(self):
        # the paper's solver size over its 2000 steps: the 767-point default
        # agrees with the 1023-point grid to roundoff, 1e-14 relative to
        # each row's largest coefficient
        kw = dict(viscosity=0.1, final_time=0.2, d_in=8, d_out=48)
        cfg = BurgersConfig.create(**kw)
        assert (cfg.d_solve, cfg.grid_size, round(cfg.final_time / cfg.dt)) == (
            511, 767, 2000
        )
        u0 = np.random.default_rng(14).uniform(-1.0, 1.0, (8, 8))
        default = burgers_evolve(u0, cfg)
        wide = burgers_evolve(u0, BurgersConfig.create(**kw, grid_size=1023))
        scale = np.abs(wide).max(axis=1, keepdims=True)
        assert np.all(np.abs(default - wide) <= 1e-14 * scale)

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
        a = burgers_evolve(u0, base)[0]
        b = burgers_evolve(u0, doubled)[0]
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
            state = burgers_evolve(state, step)[0]
            norms.append(np.linalg.norm(state))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    @pytest.mark.filterwarnings("error")
    def test_blow_up_detection(self):
        cfg = small_burgers(nu=1e-9, T=10.0, dt=0.5)
        with pytest.raises(BlowUpError):
            burgers_evolve(np.array([50.0, 0.0, 0.0]), cfg)

    def test_deterministic(self):
        cfg = small_burgers()
        u0 = np.array([0.3, 0.1, -0.2])
        assert np.array_equal(burgers_evolve(u0, cfg)[0], burgers_evolve(u0, cfg)[0])

    def test_rejects_oversized_input(self):
        cfg = small_burgers()
        with pytest.raises(ValueError):
            burgers_evolve(np.zeros(cfg.d_solve + 1), cfg)


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


def test_solver_threads_without_affinity_call(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pde.solver_threads() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pde.solver_threads() == 1


def test_burgers_solve_loads_no_scipy_and_one_openblas():
    # the solver runs on numpy's FFTs: scipy.fft would load scipy.special
    # and map scipy's own OpenBLAS next to numpy's
    probe = (
        "import json, os, sys\n"
        "import numpy as np\n"
        "from opwls.pde import BurgersConfig, build_dataset\n"
        "cfg = BurgersConfig.create(viscosity=0.1, final_time=0.01, d_in=3, d_out=3)\n"
        "build_dataset(np.full((4, 3), 0.1), np.ones(4), 'burgers', burgers_config=cfg)\n"
        "libs = None\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    with open('/proc/self/maps') as maps:\n"
        "        paths = {line.split()[-1] for line in maps}\n"
        "    libs = sorted(p for p in paths if 'openblas' in os.path.basename(p))\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'scipy': scipy, 'openblas': libs}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(pde.__file__).resolve().parents[1])},
    )
    loaded = json.loads(out.stdout)
    assert loaded["scipy"] == []
    if loaded["openblas"] is None:
        pytest.skip("no /proc/self/maps to list the mapped libraries")
    # numpy's own OpenBLAS, if numpy is built on OpenBLAS at all
    assert len(loaded["openblas"]) == (openblas_thread_calls() is not None)


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

    def test_zero_rows_keep_every_solver_mode(self):
        # zero rows take the path any row count takes: all d_solve modes
        cfg = small_burgers()
        ds = build_dataset(np.zeros((0, 3)), np.zeros(0), "burgers",
                           burgers_config=cfg)
        assert ds.outputs.shape == (0, cfg.d_solve)

    @pytest.mark.parametrize("rows", [1, 3, 11])
    @pytest.mark.parametrize("chunk", [pde._BATCH_CHUNK, 4],
                             ids=["chunk_default", "chunk_4"])
    def test_one_block_per_core_per_chunk(self, monkeypatch, rows, chunk):
        # the rows are split once, into one block per core for every chunk of
        # rows, and no block is empty
        monkeypatch.setattr(pde, "_BATCH_CHUNK", chunk)
        monkeypatch.setattr(pde, "solver_threads", lambda: 3)
        blocks = []

        def evolve(u0hat, config):
            blocks.append(u0hat.shape[0])
            return burgers_evolve(u0hat, config)

        monkeypatch.setattr(pde, "burgers_evolve", evolve)
        cfg = small_burgers()
        x = np.random.default_rng(rows).uniform(-0.5, 0.5, (rows, 3))
        ds = build_dataset(x, np.ones(rows), "burgers", burgers_config=cfg)
        assert len(blocks) == min(rows, 3 * math.ceil(rows / chunk))
        assert min(blocks) > 0 and sum(blocks) == rows
        assert np.array_equal(ds.outputs, self.row_by_row(x, cfg))

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
