from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from moebius import convergence, galerkin
from moebius.convergence import (
    MAX_SWEEP_WORK,
    SweepResult,
    _sector_values,
    _subspace_distance,
    eigenvalue_sweep,
    eigenvector_sweep,
    fit_rate,
    geometric_grid,
    require_sweep_capacity,
    sweep_work,
)
from moebius.errors import CapacityError, InputError
from moebius.galerkin import GalerkinConfig, assemble
from moebius.geometry import StripParams, potential_va, potential_veff

RADIUS = 18 / (2 * np.pi)


def synthetic_sweep(power, scale=1.0):
    a_grid = np.geomspace(0.02, 0.8, 9)
    differences = scale * a_grid**power
    effective = 5.0 + np.zeros((9, 1))
    true = effective - differences[:, None]
    return SweepResult(
        kind="eigenvalue",
        radius=RADIUS,
        a_grid=a_grid,
        count=1,
        n_basis=10,
        effective_values=effective,
        true_values=true,
        differences=differences[:, None],
        ratios=differences[:, None] / a_grid[:, None] ** 2,
    )


def test_fit_rate_synthetic_cubic():
    assert fit_rate(synthetic_sweep(3.0), 1) == pytest.approx(3.0, abs=1e-6)


def test_fit_rate_scale_invariance():
    base = fit_rate(synthetic_sweep(2.0, scale=1.0), 1)
    scaled = fit_rate(synthetic_sweep(2.0, scale=137.0), 1)
    assert base == pytest.approx(scaled, abs=1e-12)


def test_fit_rate_window_and_validation():
    sweep = synthetic_sweep(2.0)
    assert fit_rate(sweep, 1, (0.05, 0.5)) == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(InputError):
        fit_rate(sweep, 1, (0.5, 0.6))  # fewer than 4 points
    with pytest.raises(InputError):
        fit_rate(sweep, 2)


def test_geometric_grid():
    grid = geometric_grid(0.05, 0.5, 7)
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(0.5)
    ratios = grid[1:] / grid[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12
    with pytest.raises(InputError):
        geometric_grid(-1.0, 0.5, 4)


def test_sweep_validation():
    with pytest.raises(InputError):
        eigenvalue_sweep(RADIUS, [0.5, 0.2], 3, 10)  # not ascending
    with pytest.raises(InputError):
        eigenvalue_sweep(RADIUS, [0.5, 1.6], 3, 10)  # beyond 1.5
    with pytest.raises(InputError):
        eigenvalue_sweep(RADIUS, [0.1, 0.2, 0.4], 12, 10)  # count > basis


def test_eigenvalue_sweep_smoke():
    grid = geometric_grid(0.1, 0.5, 5)
    sweep = eigenvalue_sweep(RADIUS, grid, 8, 40)
    assert sweep.ratios.shape == (5, 8)
    assert np.all(np.isfinite(sweep.ratios))
    assert np.all(sweep.ratios > 0)
    assert 1.8 <= fit_rate(sweep, 1) <= 2.2
    # members of merged degenerate pairs carry matching ratio curves
    for i in range(grid.size):
        eff = sweep.effective_values[i]
        for n in range(7):
            if abs(eff[n + 1] - eff[n]) <= 1e-9 * max(1.0, abs(eff[n])):
                assert abs(sweep.ratios[i, n + 1] - sweep.ratios[i, n]) < 1e-6


def test_sweep_differences_are_the_gaps_and_ratios_their_scaling():
    grid = geometric_grid(0.1, 0.5, 5)
    sweep = eigenvalue_sweep(RADIUS, grid, 8, 40)
    gaps = np.abs(sweep.effective_values - sweep.true_values)
    assert sweep.differences.shape == (5, 8)
    assert np.array_equal(sweep.differences, gaps)
    assert np.array_equal(sweep.ratios, sweep.differences / grid[:, None] ** 2)


@pytest.mark.parametrize("geometry", ["true_geometry", "flat_with_Veff", "flat_plain"])
def test_sweep_values_are_the_dense_spectrum(geometry):
    grid = np.array([0.05, 0.2, 0.9])
    for close_pairs in (False, True):
        for a in grid:
            config = GalerkinConfig(params=StripParams(a=float(a), R=RADIUS), n_basis=41,
                                    geometry=geometry, close_pairs=close_pairs)
            dense = np.linalg.eigvalsh(assemble(config).to_dense())
            assert np.max(np.abs(_sector_values(config) - dense) / np.abs(dense)) <= 1e-13
    # a sweep closes pairs and reads the same values
    sweep = eigenvalue_sweep(RADIUS, grid, 12, 41, geometry=geometry)
    for a, true in zip(grid, sweep.true_values):
        config = GalerkinConfig(params=StripParams(a=float(a), R=RADIUS), n_basis=41,
                                geometry=geometry, close_pairs=True)
        dense = np.linalg.eigvalsh(assemble(config).to_dense())[:12]
        assert np.max(np.abs(true - dense) / np.abs(dense)) <= 1e-13


def test_eigenvalue_sweep_solves_each_sector_alone(monkeypatch):
    def not_reached(*args):
        raise AssertionError("the N x N matrix was assembled")

    orders = []
    solve = convergence.eig_dense_symmetric

    def recorded(matrix, want_vectors=True):
        assert want_vectors is False
        orders.append(matrix.shape[0])
        return solve(matrix, want_vectors=want_vectors)

    monkeypatch.setattr(galerkin, "assemble", not_reached)
    monkeypatch.setattr(convergence, "solve", not_reached)
    monkeypatch.setattr(convergence, "eig_dense_symmetric", recorded)
    grid = [0.1, 0.3]
    eigenvalue_sweep(RADIUS, grid, 5, 30)
    # one cosine and one sine block per half-width
    assert len(orders) == 2 * len(grid)
    for a, cosine, sine in zip(grid, orders[::2], orders[1::2]):
        m, _ = galerkin._basis_arrays(StripParams(a=a, R=RADIUS), 30, True)
        assert (cosine, sine) == (np.count_nonzero(m >= 0), np.count_nonzero(m < 0))


def test_eigenvalue_sweep_coarse_sanity_bound():
    grid = np.array([0.1, 0.2, 0.4])
    sweep = eigenvalue_sweep(RADIUS, grid, 2, 30)
    for i, a in enumerate(grid):
        params = StripParams(a=float(a), R=RADIUS)
        s = np.linspace(0, params.circumference, 100)
        u = np.linspace(-0.99, 0.99, 21)
        gap = np.max(
            np.abs(
                potential_va(params, s[:, None], u[None, :])
                - potential_veff(params, s)[:, None]
            )
        )
        floor = sweep.effective_values[i, 0] - 1.0 / (8 * RADIUS**2) - gap
        assert sweep.true_values[i, 0] >= floor


def test_eigenvalue_sweep_robustness():
    a = np.array([0.2, 0.3, 0.45])
    base = eigenvalue_sweep(RADIUS, a, 5, 40)
    finer = eigenvalue_sweep(RADIUS, a, 5, 40, m_s=400, m_u=48)
    bigger = eigenvalue_sweep(RADIUS, a, 5, 50)
    assert np.max(np.abs(finer.ratios - base.ratios) / base.ratios) < 1e-4
    assert np.max(np.abs(bigger.ratios - base.ratios) / base.ratios) < 1e-4


def test_eigenvector_sweep_flat_oracle():
    # with the flat-plus-potential geometry both models coincide
    grid = np.array([0.1, 0.25, 0.5])
    sweep = eigenvector_sweep(RADIUS, grid, 5, 40, geometry="flat_with_Veff")
    assert np.max(sweep.differences) < 1e-9


def test_eigenvector_sweep_bounded_ratio():
    grid = geometric_grid(0.1, 0.5, 5)
    sweep = eigenvector_sweep(RADIUS, grid, 5, 40)
    assert sweep.differences.shape == (5, 5)
    assert np.all(np.isfinite(sweep.ratios))
    # quadratic rate: ratio stays bounded and nearly constant
    spread = sweep.ratios.max(axis=0) / sweep.ratios.min(axis=0)
    assert np.all(spread < 2.0)


def test_subspace_distance_sign_alignment():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((12, 1))
    c /= np.linalg.norm(c)
    e = c + 0.01 * rng.standard_normal((12, 1))
    e /= np.linalg.norm(e)
    zero = np.zeros(1)
    d_plus = _subspace_distance(c, e, zero)
    d_minus = _subspace_distance(-c, e, zero)
    assert d_plus == pytest.approx(d_minus, abs=1e-15)
    assert d_plus == pytest.approx(float(np.linalg.norm(c - e)), abs=1e-12)
    # far below sqrt(eps) the distance must stay resolvable
    tiny = c.copy()
    tiny[0, 0] += 1e-12
    tiny /= np.linalg.norm(tiny)
    assert _subspace_distance(c, tiny, zero) < 1e-11


def test_threaded_sweep_is_deterministic(monkeypatch):
    grid = np.array([0.2, 0.35, 0.5])
    serial = eigenvalue_sweep(RADIUS, grid, 4, 24, threads=1)
    threaded = eigenvalue_sweep(RADIUS, grid, 4, 24, threads=3)
    assert np.array_equal(serial.ratios, threaded.ratios)
    assert np.array_equal(serial.true_values, threaded.true_values)

    # threads=None (the CLI default) runs serially and builds no pool
    pair = eigenvalue_sweep(RADIUS, grid, 4, 24, threads=2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    # on the class, so every binding of it refuses to build a pool
    monkeypatch.setattr(ThreadPoolExecutor, "__init__", no_pool)
    default = eigenvalue_sweep(RADIUS, grid, 4, 24, threads=None)
    for field in ("effective_values", "true_values", "differences", "ratios"):
        assert np.array_equal(getattr(default, field), getattr(pair, field))


def test_sweep_work_estimate():
    # fixed overhead, 10 N^3 eigensolve, 4 N^2 m_s assembly, per point
    assert sweep_work(1, 10, m_s=100) == 5 * 10**6 + 10 * 1000 + 4 * 100 * 100
    assert sweep_work(3, 10, m_s=100) == 3 * sweep_work(1, 10, m_s=100)
    # the default m_s is bounded by 4 (N + 1) + 32
    assert sweep_work(1, 72) == sweep_work(1, 72, m_s=4 * 73 + 32)
    # any step count is estimated exactly, without float overflow
    assert sweep_work(10**400, 72) == 10**400 * sweep_work(1, 72)


def test_sweep_capacity_admits_readme_sweeps_and_refuses_runaways():
    for steps in (7, 30):
        require_sweep_capacity(steps, 72)
        require_sweep_capacity(steps, 76)  # the benchmark perturbs N by up to 4
    per_point = sweep_work(1, 72)
    require_sweep_capacity(MAX_SWEEP_WORK // per_point, 72)  # exactly under the cap
    with pytest.raises(CapacityError, match="10000000000 half-widths at N=72"):
        require_sweep_capacity(10**10, 72)
    with pytest.raises(CapacityError, match="cap"):
        require_sweep_capacity(MAX_SWEEP_WORK // per_point + 1, 72)
    with pytest.raises(CapacityError, match="cap"):
        eigenvalue_sweep(RADIUS, np.linspace(0.1, 0.2, 10), 1, 4, m_s=10**12)
