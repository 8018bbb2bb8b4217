import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius import convergence, galerkin, models
from moebius.convergence import (
    MAX_SWEEP_WORK,
    SweepResult,
    _nearest_distances,
    eigenvalue_sweep,
    eigenvector_sweep,
    fit_rate,
    geometric_grid,
    require_sweep_capacity,
    sweep_work,
)
from moebius.errors import CapacityError, InputError
from moebius.galerkin import (
    GalerkinConfig,
    _project,
    assemble,
    effective_in_basis,
    solve,
)
from moebius.geometry import StripParams, potential_va, potential_veff
from moebius.models import DEFAULT_Q, _modes

RADIUS = 18 / (2 * np.pi)


def synthetic_sweep(power, scale=1.0):
    a_grid = np.geomspace(0.02, 0.8, 9)
    differences = scale * a_grid**power
    effective = 5.0 + np.zeros((9, 1))
    true = effective - differences[:, None]
    return SweepResult(
        a_grid=a_grid,
        count=1,
        effective_values=effective,
        true_values=true,
        differences=differences[:, None],
        ratios=differences[:, None] / a_grid[:, None] ** 2,
    )


def sector_values(config):
    """Ascending eigenvalues of the sector blocks of one configuration."""
    [projected] = _project([config])
    return np.sort(np.concatenate([np.linalg.eigvalsh(stack[0]) for stack in projected.stacks]))


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
    with pytest.raises(InputError):
        geometric_grid(0.1, np.inf, 4)


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
            assert np.max(np.abs(sector_values(config) - dense) / np.abs(dense)) <= 1e-13
    # a sweep closes pairs and reads the same values
    sweep = eigenvalue_sweep(RADIUS, grid, 12, 41, geometry=geometry)
    for a, true in zip(grid, sweep.true_values):
        config = GalerkinConfig(params=StripParams(a=float(a), R=RADIUS), n_basis=41,
                                geometry=geometry, close_pairs=True)
        dense = np.linalg.eigvalsh(assemble(config).to_dense())[:12]
        assert np.max(np.abs(true - dense) / np.abs(dense)) <= 1e-13


def recorded_eigensolves(monkeypatch, want_vectors):
    """Shapes of the stacks passed to ``eig_dense_symmetric``, in call order."""
    shapes = []
    eig = convergence.eig_dense_symmetric

    def recorded(matrix, want_vectors=True):
        assert want_vectors is expected
        shapes.append(matrix.shape)
        return eig(matrix, want_vectors=want_vectors)

    expected = want_vectors
    monkeypatch.setattr(convergence, "eig_dense_symmetric", recorded)
    return shapes


def test_eigenvalue_sweep_solves_each_sector_alone(monkeypatch):
    def not_reached(*args):
        raise AssertionError("the N x N matrix was assembled")

    groups = []  # per chunk, the half-widths of each group of equal sector sizes
    project = convergence._project

    def grouped(configs):
        projected = project(configs)
        groups.append([[configs[i].params.a for i in group.points] for group in projected])
        return projected

    monkeypatch.setattr(galerkin, "assemble", not_reached)
    monkeypatch.setattr(galerkin, "solve", not_reached)
    monkeypatch.setattr(convergence, "solve", not_reached)
    monkeypatch.setattr(convergence, "_project", grouped)
    shapes = recorded_eigensolves(monkeypatch, want_vectors=False)
    # two chunks, the first full, whose points differ in sector sizes
    grid = np.linspace(0.8, 1.5, convergence._CHUNK + 3)
    eigenvalue_sweep(RADIUS, grid, 5, 40)
    assert [len(chunk) for chunk in groups] == [2, 1]
    sizes = {}  # each half-width's sector sizes, cosine then sine
    for a in grid:
        [(m, _)] = galerkin._bases([StripParams(a=float(a), R=RADIUS)], 40, True)
        sizes[a] = (np.count_nonzero(m >= 0), np.count_nonzero(m < 0))
    # per chunk, one eigensolve per sector per set of equal sector sizes
    expected = []
    for chunk in groups:
        assert all(len({sizes[a] for a in a_values}) == 1 for a_values in chunk)
        assert len({sizes[a_values[0]] for a_values in chunk}) == len(chunk)
        expected += [(len(a_values), r, r) for a_values in chunk for r in sizes[a_values[0]]]
    assert shapes == expected
    assert len(shapes) < len(grid)
    # each half-width's cosine and sine blocks solved exactly once
    solved = sorted(a for chunk in groups for a_values in chunk for a in a_values)
    assert solved == sorted(grid)
    # the README sweep: one chunk of seven points, two eigensolves
    shapes.clear()
    eigenvalue_sweep(RADIUS, geometric_grid(0.05, 0.5, 7), 20, 72)
    assert shapes == [(7, 37, 37), (7, 36, 36)]


def test_readme_eigenvector_sweep_makes_few_eigensolves(monkeypatch):
    # one call per sector per set of equal sector sizes in each of four
    # chunks, against 52 when each distinct basis took its own
    shapes = recorded_eigensolves(monkeypatch, want_vectors=True)
    eigenvector_sweep(RADIUS, np.linspace(0.01, 1.5, 30), 5, 72)
    assert len(shapes) <= 10
    assert sum(shape[0] for shape in shapes) == 2 * 30


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


def test_nearest_distance_sign_alignment():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((12, 1))
    c /= np.linalg.norm(c)
    e = c + 0.01 * rng.standard_normal((12, 1))
    e /= np.linalg.norm(e)
    zero = np.zeros(1)
    d_plus = _nearest_distances(c, e, zero)
    d_minus = _nearest_distances(-c, e, zero)
    assert d_plus == pytest.approx(d_minus, abs=1e-15)
    assert d_plus == pytest.approx(float(np.linalg.norm(c - e)), abs=1e-12)
    # far below sqrt(eps) the distance must stay resolvable
    tiny = c.copy()
    tiny[0, 0] += 1e-12
    tiny /= np.linalg.norm(tiny)
    assert _nearest_distances(c, tiny, zero) < 1e-11


def test_nearest_distance_takes_the_largest_overlap():
    # each mode is compared with the eigenvector it overlaps most, whatever
    # their order, and its out-of-basis tail is added under the root
    vectors = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6)))[0]
    modes = np.stack([-vectors[:, 4], vectors[:, 1]], axis=1)
    modes[:, 1] += 1e-3 * vectors[:, 2]
    got = _nearest_distances(vectors, modes, np.array([0.0, 4e-6]))
    assert got[0] < 1e-15
    assert got[1] == pytest.approx(np.sqrt(1e-6 + 4e-6), rel=1e-12)


def nearest_solve_distances(config, count):
    """Per effective mode: the least sign-aligned distance, truncation
    added, to the coefficient columns of ``solve`` in the mode's sector."""
    solution = solve(config)
    expansion = effective_in_basis(config, count)
    m = np.array([mode.m for mode in solution.basis])
    # each column is exactly zero off its sector
    sine_columns = np.any(solution.coefficients[m < 0] != 0.0, axis=0)
    distances = []
    for c, sine, t in zip(expansion.coefficients.T, expansion.sine, expansion.truncations):
        columns = solution.coefficients[:, sine_columns == sine]
        signs = np.copysign(1.0, columns.T @ c)
        distances.append(np.sqrt(np.sum((c[:, None] - signs * columns) ** 2, axis=0) + t).min())
    return np.array(distances)


# the reference diagonalises the whole N x N matrix, whose eigenvectors
# differ from the sector blocks' by roundoff that grows with the transverse
# scale 1/a^2 (up to 8e-12 absolute at a = 0.01), while the distances
# shrink as a^2; from a = 0.37 on the two agree to 1e-12 relative
@pytest.mark.parametrize("a_values, count, n_basis", [
    # the K 20 grid of linspace(0.01, 1.5, 30), a = 1.0376 among others,
    # where matching by global position compared modes of opposite sectors
    (np.linspace(0.01, 1.5, 30)[[7, 13, 20, 26, 29]], 20, 72),
    (np.array([0.4, 0.75, 1.2]), 5, 72),
    (np.array([0.9, 1.4]), 12, 40),
])
def test_eigenvector_distances_are_the_nearest_same_sector_solutions(a_values, count, n_basis):
    sweep = eigenvector_sweep(RADIUS, a_values, count, n_basis)
    for a, distances in zip(a_values, sweep.differences):
        config = GalerkinConfig(params=StripParams(a=float(a), R=RADIUS), n_basis=n_basis,
                                close_pairs=True)
        want = nearest_solve_distances(config, count)
        assert np.max(np.abs(distances - want) / want) <= 1e-12, a


def test_eigenvector_sweep_compares_no_modes_of_opposite_sectors():
    # orthogonal functions of opposite sectors lie sqrt(2) apart
    sweep = eigenvector_sweep(RADIUS, np.linspace(0.01, 1.5, 30), 20, 72)
    assert np.max(sweep.differences) < 1.0


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


@settings(max_examples=25, deadline=None)
@given(
    radius=st.floats(min_value=0.8, max_value=5.0),
    a_min=st.floats(min_value=0.01, max_value=1.2),
    steps=st.sampled_from([1, convergence._CHUNK - 1, convergence._CHUNK,
                           convergence._CHUNK + 1, 2 * convergence._CHUNK + 3]),
    n_basis=st.integers(min_value=4, max_value=48),
    count=st.integers(min_value=1, max_value=8),
    geometry=st.sampled_from(["true_geometry", "flat_with_Veff", "flat_plain"]),
    orders=st.none() | st.tuples(st.integers(8, 160), st.integers(4, 40)),
)
def test_chunked_sweep_is_each_points_own_spectrum(
    radius, a_min, steps, n_basis, count, geometry, orders
):
    grid = np.geomspace(a_min, 1.5, steps) if steps > 1 else np.array([a_min])
    m_s, m_u = orders or (None, None)
    count = min(count, n_basis)
    sweep = eigenvalue_sweep(radius, grid, count, n_basis, geometry=geometry, m_s=m_s, m_u=m_u)
    for a, eff, true in zip(grid, sweep.effective_values, sweep.true_values):
        params = StripParams(a=float(a), R=radius)
        config = GalerkinConfig(params=params, n_basis=n_basis, m_s=m_s, m_u=m_u,
                                geometry=geometry, close_pairs=True)
        dense = np.linalg.eigvalsh(assemble(config).to_dense())[:count]
        assert np.max(np.abs(true - dense) / np.abs(dense)) <= 1e-13
        assert np.array_equal(eff, _modes(radius, [float(a)], count, DEFAULT_Q)[4][:count])


def test_eigenvalue_sweep_enumerates_modes_once_per_chunk(monkeypatch):
    # one flat and one effective enumeration per chunk, over its half-widths
    flat, effective = [], []
    enumerate_modes = models._modes

    def counted(R, a, count, q):
        (flat if q is None else effective).append(list(a))
        return enumerate_modes(R, a, count, q)

    monkeypatch.setattr(galerkin, "_modes", counted)
    monkeypatch.setattr(convergence, "_modes", counted)
    grid = np.geomspace(0.03, 0.6, convergence._CHUNK + 3)
    eigenvalue_sweep(RADIUS, grid, 4, 24)
    chunks = [grid[:convergence._CHUNK].tolist(), grid[convergence._CHUNK:].tolist()]
    assert flat == chunks and effective == chunks


def not_reached(*args, **kwargs):
    raise AssertionError("a chunk array was built before the capacity check")


def refused_before_any_is_built(monkeypatch, needed, what, *args, **orders):
    """Check that both sweeps over ``args`` are admitted at the cap
    ``needed`` and refused one byte below, naming ``what``, before any field
    is evaluated."""
    with monkeypatch.context() as patch:
        patch.setattr(models, "MAX_ARRAY_BYTES", needed)
        for sweep in (eigenvalue_sweep, eigenvector_sweep):
            sweep(*args, **orders)  # exactly at the cap is allowed
        patch.setattr(galerkin, "_g_with_derivatives", not_reached)
        patch.setattr(models, "MAX_ARRAY_BYTES", needed - 1)
        for sweep in (eigenvalue_sweep, eigenvector_sweep):
            with pytest.raises(CapacityError, match=f"^{re.escape(what)} need about "):
                sweep(*args, **orders)


def test_chunk_arrays_are_refused_before_any_is_built(monkeypatch, charges):
    # a full chunk of thin strips sharing one quadrature: its fields and
    # kernels, eight times one point's, beside the kernel spectra are its
    # largest charge
    grid = np.geomspace(0.02, 0.1, convergence._CHUNK)
    bases = galerkin._bases([StripParams(a=float(a), R=RADIUS) for a in grid], 30, True)
    assert {m.size for m, _ in bases} == {31} and {int(n.max()) for _, n in bases} == {1}
    top = 2 * max(int(np.abs(m).max()) for m, _ in bases)
    m_s, m_u = top + 32, 18
    needed = grid.size * (galerkin._FIELD_BYTES * m_s * m_u + galerkin._KERNEL_BYTES * (m_s + 1)
                          + 8 * 2 * (top + 1))
    what = f"the fields and kernels at points=8, N=31, m_s={m_s}, m_u={m_u}, distinct n=1"
    eigenvalue_sweep(RADIUS, grid, 3, 30)
    assert max(charges) == (needed, what)
    refused_before_any_is_built(monkeypatch, needed, what, RADIUS, grid, 3, 30)
    # a shorter chunk of the same strips fits
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", needed - 1)
    eigenvalue_sweep(RADIUS, grid[:-1], 3, 30)


def test_chunk_eigenvector_stacks_are_refused_before_any_is_built(monkeypatch, charges):
    # at m_s = m_u = 2 the chunk's sector blocks, 16 x 16 and 15 x 15 at
    # each point, with the gather of the larger stack and the kernel spectra
    # they are read from, are its largest charge; the eigenvector sweep's
    # blocks and eigenvectors together stay within it
    grid = np.geomspace(0.02, 0.1, convergence._CHUNK)
    bases = galerkin._bases([StripParams(a=float(a), R=RADIUS) for a in grid], 30, True)
    assert {(np.count_nonzero(m >= 0), m.size) for m, _ in bases} == {(16, 31)}
    top = 2 * max(int(np.abs(m).max()) for m, _ in bases)
    blocks = 8 * grid.size * (16**2 + 15**2)
    needed = 8 * grid.size * 2 * (top + 1) + blocks + galerkin._GATHER_BYTES * grid.size * 16**2
    what = "the kernel spectra and sector blocks at points=8, N=31"
    eigenvector_sweep(RADIUS, grid, 3, 30, m_s=2, m_u=2)
    assert max(charges) == (needed, what)
    assert 2 * blocks < needed
    refused_before_any_is_built(monkeypatch, needed, what, RADIUS, grid, 3, 30, m_s=2, m_u=2)


def test_a_one_point_sweep_is_not_charged_a_single_solve(charges):
    # a sweep forms no N x N matrix and reads no residual, even at one point
    for sweep in (eigenvalue_sweep, eigenvector_sweep):
        sweep(RADIUS, [0.5], 3, 30)
    assert charges and not [what for _, what in charges if "N x N" in what or "residual" in what]


def test_chunk_kernel_spectra_are_refused_before_any_is_built(monkeypatch, charges):
    # at m_s = m_u = 1 a chunk of thin and wide strips is held back by its
    # kernel spectra, which span the thin strips' harmonics and the wide
    # strips' transverse pairs; they are charged with the blocks read from
    # them, and outweigh the blocks
    radius = 0.5
    grid = np.geomspace(0.02, 1.5, convergence._CHUNK)
    bases = galerkin._bases([StripParams(a=float(a), R=radius) for a in grid], 30, True)
    n_count = np.count_nonzero(np.bincount(np.concatenate([n for _, n in bases])))
    top = 2 * max(int(np.abs(m).max()) for m, _ in bases)
    spectra = 8 * grid.size * 2 * (top + 1) * n_count * (n_count + 1) // 2
    eigenvalue_sweep(radius, grid, 3, 30, m_s=1, m_u=1)
    needed, what = max(charges)
    n_basis = max(m.size for m, _ in bases)
    assert what == f"the kernel spectra and sector blocks at points=8, N={n_basis}"
    assert needed - spectra < spectra
    refused_before_any_is_built(monkeypatch, needed, what, radius, grid, 3, 30, m_s=1, m_u=1)
