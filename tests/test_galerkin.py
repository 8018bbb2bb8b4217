import numpy as np
import pytest

from moebius import galerkin
from moebius.errors import CapacityError, InputError
from moebius.galerkin import (
    EXPORT_POINT_BYTES,
    GalerkinConfig,
    _discretise,
    assemble,
    basis_modes,
    effective_in_basis,
    eigenpairs,
    largest_array_bytes,
    residual_norm,
    solve,
)
from moebius.geometry import (
    StripParams,
    jacobian_f,
    jacobian_f_derivatives,
    potential_va,
    potential_veff,
)
from moebius.linalg import eig_dense_symmetric
from moebius.models import (
    FAMILY_FAKE,
    ModeIndex,
    effective_spectrum,
    fake_eigenfunction,
    fake_longitudinal,
    fake_spectrum,
    transverse_profile,
)
from moebius.quadrature import QuadratureGrid, integrate_2d

TABLE_PARAMS = StripParams(a=0.75, R=13.2 / (2 * np.pi))
WIDE_PARAMS = StripParams(a=1.3, R=2.8647889756541165)  # three or more n at N = 60

TRUE_REFERENCE = [
    4.387440201465426, 4.619975308169118, 4.6210487512326965,
    5.311812674844678, 5.311812691949888, 6.45928381512197, 6.459283815177474,
    8.054793717112888, 8.054793717134626, 10.087710686170643, 10.087710686180136,
    12.544971054834159, 12.544971054880232, 15.411764278613166, 15.411764278618152,
    17.59842628782262, 17.622050913758347, 18.084500866091076, 18.084502386722757,
    18.672740544194298,
]
RESIDUAL_REFERENCE = [
    0.0011360336639659758, 0.002935713704540701, 0.0034765508104058836,
    0.009392208389967776, 0.009394620959796087, 0.01784426849679324,
    0.017844019253709244, 0.02782741553208048, 0.02782929178936725,
    0.07623428743234176, 0.07623425520146826, 0.12299616532523619,
    0.12299618315689324, 0.15141422162634224, 0.1514142253244023,
    0.005712405600055002, 0.003779453318856355, 0.017503712257836673,
    0.01752620443224552, 0.18297451968432338,
]


def test_basis_ordering():
    modes = basis_modes(TABLE_PARAMS, 9)
    values = fake_spectrum(TABLE_PARAMS, 9).values(9)
    for mode, value in zip(modes, values):
        lam = (mode.m / (2 * TABLE_PARAMS.R)) ** 2 + TABLE_PARAMS.transverse_energy * mode.n**2
        assert lam == pytest.approx(value, rel=1e-14)
    # ties: harmonic ascending, cosine before sine
    assert modes[0] == ModeIndex(FAMILY_FAKE, 0, 1)
    assert modes[1].m > 0 and modes[2].m == -modes[1].m


def test_basis_pair_closure():
    # find a size whose last mode is half of a +/- pair
    for n in range(2, 40):
        modes = basis_modes(TABLE_PARAMS, n)
        if modes[-1].m != 0 and not any(
            md.m == -modes[-1].m and md.n == modes[-1].n for md in modes[:-1]
        ):
            closed = basis_modes(TABLE_PARAMS, n, close_pairs=True)
            assert len(closed) == n + 1
            assert closed[-1].m == -closed[-2].m
            break
    else:
        pytest.fail("no orphaned cutoff found in range")


def test_flat_plain_assembly_is_diagonal():
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=30, geometry="flat_plain")
    dense = assemble(config).to_dense()
    off = dense - np.diag(np.diag(dense))
    assert np.max(np.abs(off)) < 1e-12
    assert np.sort(np.diag(dense)) == pytest.approx(
        fake_spectrum(TABLE_PARAMS, 30).values(30), rel=1e-12
    )


def test_flat_veff_matches_effective_model():
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=82, geometry="flat_with_Veff")
    solution = solve(config)
    reference = effective_spectrum(TABLE_PARAMS, 20).values(20)
    assert np.max(np.abs(solution.eigenvalues[:20] - reference) / reference) < 1e-9


def test_flat_veff_coupling_structure():
    # cos(s/R) couples harmonics differing by 2 within one family and n,
    # plus the constant mode to the second cosine harmonic
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=24, geometry="flat_with_Veff")
    modes = basis_modes(TABLE_PARAMS, 24)
    dense = assemble(config).to_dense()
    scale = np.max(np.abs(dense))
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            if i == j:
                continue
            # m = 0 counts as cosine type, so the const <-> cos(2 eta)
            # coupling falls under the harmonic-difference-2 rule
            coupled = (
                mi.n == mj.n
                and (mi.m >= 0) == (mj.m >= 0)
                and abs(mi.harmonic - mj.harmonic) == 2
            )
            if not coupled:
                assert abs(dense[i, j]) < 1e-13 * scale, (mi, mj)


def test_entry_symmetry_under_swap():
    # entry quadrature evaluated with the roles of j and k swapped
    params = TABLE_PARAMS
    modes = [ModeIndex(FAMILY_FAKE, 2, 1), ModeIndex(FAMILY_FAKE, -4, 1)]
    grid = QuadratureGrid.for_strip(params, 120, 24)

    def entry(a_mode, b_mode):
        def integrand(s, u):
            da = fake_longitudinal(a_mode.m, params, s, derivative=1) * transverse_profile(a_mode.n, u)
            db = fake_longitudinal(b_mode.m, params, s, derivative=1) * transverse_profile(b_mode.n, u)
            pa = fake_longitudinal(a_mode.m, params, s) * transverse_profile(a_mode.n, u)
            pb = fake_longitudinal(b_mode.m, params, s) * transverse_profile(b_mode.n, u)
            fa = jacobian_f(params, s, params.a * u)
            return da * db / fa**2 + potential_va(params, s, u) * pa * pb

        return integrate_2d(grid, integrand)

    assert abs(entry(modes[0], modes[1]) - entry(modes[1], modes[0])) < 1e-13


def test_solution_reference_values_at_nominal_basis():
    solution = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=82))
    rel = np.abs(solution.eigenvalues[:20] - TRUE_REFERENCE) / np.abs(TRUE_REFERENCE)
    # ground state reproduces the reference table well inside 1e-6
    assert rel[0] < 1e-6
    # the full first twenty agree to about 1e-5: the reference table was
    # generated from a slightly larger basis (see the acceptance analysis)
    assert np.max(rel) < 1e-5
    ratio = solution.residual_norms[:20] / RESIDUAL_REFERENCE
    assert np.all(ratio < 10.0) and np.all(ratio > 0.1)
    assert np.max(solution.residual_norms[:20]) <= 0.25
    # near-degenerate pairs stay tightly split at these parameters
    for lo, hi in ((1, 2), (3, 4), (5, 6), (7, 8)):
        assert solution.eigenvalues[hi] - solution.eigenvalues[lo] < 2e-3


def test_reference_table_reproduced_by_energy_cutoff_basis():
    # the published table corresponds to the 102-function basis (all flat
    # modes below the pair-complete energy cutoff around 75)
    solution = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=102))
    rel = np.abs(solution.eigenvalues[:20] - TRUE_REFERENCE) / np.abs(TRUE_REFERENCE)
    assert np.max(rel) < 1e-9
    ratio = solution.residual_norms[:20] / RESIDUAL_REFERENCE
    assert np.all(ratio < 1.5) and np.all(ratio > 0.65)


def test_rayleigh_ritz_monotonicity():
    eigenvalues = {}
    for n in (20, 41, 82):
        eigenvalues[n] = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=n)).eigenvalues
    for small, big in ((20, 41), (41, 82)):
        k = min(20, eigenvalues[small].size)
        assert np.all(eigenvalues[big][:k] <= eigenvalues[small][:k] + 1e-12)


def test_eigenvector_quality():
    solution = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=41))
    c = solution.coefficients
    assert np.max(np.abs(c.T @ c - np.eye(41))) < 1e-10
    dense = solution.matrix.to_dense()
    for k in range(10):
        vec = c[:, k]
        rayleigh = vec @ dense @ vec
        assert rayleigh == pytest.approx(solution.eigenvalues[k], rel=1e-11)


def test_flat_plain_residuals_vanish():
    solution = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=25, geometry="flat_plain"))
    assert np.max(solution.residual_norms) < 1e-10
    assert residual_norm(solution, 1) == solution.residual_norms[0]
    with pytest.raises(InputError):
        residual_norm(solution, 26)


def test_eigenvalues_invariant_under_basis_permutation():
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=30)
    dense = assemble(config).to_dense()
    rng = np.random.default_rng(9)
    perm = rng.permutation(30)
    permuted = dense[np.ix_(perm, perm)]
    original = eig_dense_symmetric(dense, want_vectors=False).eigenvalues
    shuffled = eig_dense_symmetric(permuted, want_vectors=False).eigenvalues
    assert np.max(np.abs(original - shuffled)) < 1e-11 * max(1.0, np.max(np.abs(original)))


def test_seam_consistency_of_solution():
    solution = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=30))
    u = np.linspace(-1, 1, 21)
    left = solution.eigenfunction_values(1, np.array([0.0]), u)[0]
    right = solution.eigenfunction_values(1, np.array([TABLE_PARAMS.circumference]), -u)[0]
    assert np.max(np.abs(left - right)) < 1e-12


def test_eigenfunction_values_expand_the_flat_basis():
    solution = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=40))
    assert len({md.n for md in solution.basis}) >= 2
    # off the quadrature nodes and off the export grid
    s = np.linspace(0.013, TABLE_PARAMS.circumference - 0.029, 17)[:, None]
    u = np.linspace(-0.987, 0.991, 9)[None, :]
    for k in (1, 2, 7, 20):
        expected = sum(
            c * fake_eigenfunction(md, TABLE_PARAMS)(s, u)
            for c, md in zip(solution.coefficients[:, k - 1], solution.basis)
        )
        values = solution.eigenfunction_values(k, s.ravel(), u.ravel())
        assert values.shape == (17, 9)
        assert np.max(np.abs(values - expected)) < 1e-13


def test_discretisation_keeps_factor_tables():
    disc = _discretise(GalerkinConfig(params=WIDE_PARAMS, n_basis=60))
    s, u = disc.grid.s_nodes, disc.grid.u_nodes
    factors = disc.factors
    assert factors.transverse.shape[0] == len({md.n for md in disc.basis}) >= 3
    for j, md in enumerate(disc.basis):
        assert np.array_equal(factors.longitudinal[j], fake_longitudinal(md.m, WIDE_PARAMS, s))
        assert np.array_equal(
            factors.slope[j], fake_longitudinal(md.m, WIDE_PARAMS, s, derivative=1)
        )
        assert np.array_equal(factors.transverse[factors.n_of[j]], transverse_profile(md.n, u))
    cosine, sine = disc.sectors
    assert all(disc.basis[j].m >= 0 for j in cosine)
    assert all(disc.basis[j].m < 0 for j in sine)
    assert sorted(np.concatenate(disc.sectors)) == list(range(len(disc.basis)))
    # nothing of size N x m_s m_u is kept
    n, points = len(disc.basis), s.size * u.size
    arrays = [v for v in vars(disc).values() if isinstance(v, np.ndarray)]
    arrays += [v for v in vars(factors).values() if isinstance(v, np.ndarray)]
    assert max(a.size for a in arrays) <= max(n * s.size, points)


def full_tables(disc, params):
    """Per-mode (N, m_s m_u) samples of Psi_j and d1 Psi_j, one mode at a time."""
    s, u = disc.grid.s_nodes, disc.grid.u_nodes
    values, slopes = [], []
    for md in disc.basis:
        chi = transverse_profile(md.n, u)
        values.append(np.outer(fake_longitudinal(md.m, params, s), chi).ravel())
        slopes.append(np.outer(fake_longitudinal(md.m, params, s, derivative=1), chi).ravel())
    return np.array(values), np.array(slopes)


def reference_fields(disc, params, geometry):
    """fa, d1 fa and V on the quadrature grid, raveled like the full tables."""
    ss = disc.grid.s_nodes[:, None]
    uu = disc.grid.u_nodes[None, :]
    shape = (ss.size, uu.size)
    if geometry == "true_geometry":
        t = params.a * uu
        fa = jacobian_f(params, ss, t)
        d1 = jacobian_f_derivatives(params, ss, t)[0]
        v = potential_va(params, ss, uu)
    else:
        fa, d1 = np.ones(shape), np.zeros(shape)
        v = np.broadcast_to(
            potential_veff(params, ss) if geometry == "flat_with_Veff" else 0.0, shape
        )
    return fa.ravel(), d1.ravel(), v.ravel()


@pytest.mark.parametrize("geometry", ["true_geometry", "flat_with_Veff", "flat_plain"])
def test_factorised_matrix_matches_full_table_reference(geometry):
    config = GalerkinConfig(params=WIDE_PARAMS, n_basis=60, geometry=geometry)
    disc = _discretise(config)
    values, slopes = full_tables(disc, WIDE_PARAMS)
    fa, _, v = reference_fields(disc, WIDE_PARAMS, geometry)
    w = disc.grid.weights_2d.ravel()
    reference = (slopes * (w / fa**2)) @ slopes.T + (values * (w * v)) @ values.T
    reference += np.diag([(md.n * np.pi / 2) ** 2 / WIDE_PARAMS.a**2 for md in disc.basis])
    dense = assemble(config).to_dense()
    assert np.max(np.abs(dense - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_cosine_and_sine_sectors_decouple_exactly():
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=82)
    cosine = np.array([md.m >= 0 for md in basis_modes(TABLE_PARAMS, 82)])
    dense = assemble(config).to_dense()
    assert np.all(dense[np.ix_(cosine, ~cosine)] == 0.0)
    solution = solve(config)
    c = solution.coefficients
    in_cosine = np.all(c[~cosine] == 0.0, axis=0)
    in_sine = np.all(c[cosine] == 0.0, axis=0)
    assert np.all(in_cosine ^ in_sine)
    assert in_cosine.sum() == cosine.sum() and in_sine.sum() == (~cosine).sum()
    # the eigenpair step solve is built from, without residuals
    pairs = eigenpairs(config)
    assert np.array_equal(pairs.eigenvalues, solution.eigenvalues)
    assert np.array_equal(pairs.eigenvectors, c)


@pytest.mark.parametrize("params, n_basis", [(TABLE_PARAMS, 82), (WIDE_PARAMS, 60)])
def test_residuals_match_full_table_reference(params, n_basis):
    solution = solve(GalerkinConfig(params=params, n_basis=n_basis))
    disc = _discretise(solution.config)
    values, slopes = full_tables(disc, params)
    fa, d1, v = reference_fields(disc, params, "true_geometry")
    rates_sq = np.array([(md.m / (2 * params.R)) ** 2 for md in disc.basis])
    transverse = np.array([(md.n * np.pi / 2) ** 2 / params.a**2 for md in disc.basis])
    # L Psi_j sampled row by row, as the operator form reads
    operator_rows = (
        (2 * d1 / fa**3) * slopes
        + rates_sq[:, None] * values / fa**2
        + transverse[:, None] * values
        + v * values
    )
    c = solution.coefficients
    fields = c.T @ operator_rows - solution.eigenvalues[:, None] * (c.T @ values)
    reference = np.sqrt((fields**2 * disc.grid.weights_2d.ravel()).sum(axis=1))
    assert np.max(np.abs(solution.residual_norms - reference) / reference) < 1e-12


def test_largest_array_estimate():
    # four residual terms per distinct n, N x m_s or m_s x m_u doubles each
    assert largest_array_bytes(10, 20, 5, n_count=2) == 8 * 4 * 2 * 20 * 10
    assert largest_array_bytes(10, 20, 50, n_count=2) == 8 * 4 * 2 * 20 * 50
    assert largest_array_bytes(100, 2, 2, n_count=1) == 8 * 100 * 100
    assert largest_array_bytes(export_points=3) == 3 * EXPORT_POINT_BYTES
    assert largest_array_bytes(4, 3, 2, 1, export_points=1) == EXPORT_POINT_BYTES


def test_capacity_guard_refuses_before_building(monkeypatch):
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=30)
    disc = _discretise(config)
    orders = disc.grid.s_nodes.size, disc.grid.u_nodes.size
    needed = largest_array_bytes(30, *orders, disc.factors.transverse.shape[0])
    monkeypatch.setattr(galerkin, "MAX_ARRAY_BYTES", needed)
    _discretise(config)  # exactly at the cap is allowed

    def not_reached(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    monkeypatch.setattr(galerkin.QuadratureGrid, "for_strip", not_reached)
    monkeypatch.setattr(galerkin, "MAX_ARRAY_BYTES", needed - 1)
    with pytest.raises(CapacityError, match="MiB cap"):
        _discretise(config)
    with pytest.raises(CapacityError, match="m_s=99999"):
        _discretise(GalerkinConfig(params=TABLE_PARAMS, n_basis=30, m_s=99999))
    # a matrix too large on its own is refused before the basis is enumerated
    monkeypatch.setattr(galerkin, "basis_modes", not_reached)
    monkeypatch.setattr(galerkin, "MAX_ARRAY_BYTES", 8 * 30 * 30)
    with pytest.raises(CapacityError, match="N=31 needs"):
        _discretise(GalerkinConfig(params=TABLE_PARAMS, n_basis=31))


def test_capacity_guard_admits_readme_and_benchmark_sizes():
    # the largest README and benchmark runs: the 102-function table, the
    # eigenfunction export, sweeps up to a = 1.5 with N = 76 and 2 pi R = 19.8
    for params, n_basis in (
        (TABLE_PARAMS, 102),
        (StripParams(a=1.3, R=2.8647889756541165), 96),
        (StripParams(a=1.5, R=19.8 / (2 * np.pi)), 77),
        (StripParams(a=0.045, R=19.8 / (2 * np.pi)), 77),
    ):
        disc = _discretise(GalerkinConfig(params=params, n_basis=n_basis))
        sizes = disc.grid.s_nodes.size, disc.grid.u_nodes.size, disc.factors.transverse.shape[0]
        assert largest_array_bytes(n_basis, *sizes) < galerkin.MAX_ARRAY_BYTES / 16
    assert largest_array_bytes(export_points=192 * 65) < galerkin.MAX_ARRAY_BYTES / 16


def test_effective_expansion_properties():
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=72)
    expansion = effective_in_basis(config, 5)
    assert np.max(expansion.truncations) < 1e-12
    modes = basis_modes(TABLE_PARAMS, 72)
    ground = expansion.coefficients[:, 0]
    dominant = np.argmax(np.abs(ground))
    assert modes[dominant] == ModeIndex(FAMILY_FAKE, 0, 1)
    # potential is transverse independent: no coupling to n >= 2
    for idx, mode in enumerate(modes):
        if mode.n >= 2:
            assert ground[idx] == 0.0

    # Rayleigh quotients in the flat-with-potential matrix reproduce the
    # closed-form effective eigenvalues
    dense = assemble(
        GalerkinConfig(params=TABLE_PARAMS, n_basis=72, geometry="flat_with_Veff")
    ).to_dense()
    reference = expansion.spectrum.values(5)
    for i in range(5):
        e = expansion.coefficients[:, i]
        quotient = (e @ dense @ e) / (e @ e)
        assert quotient == pytest.approx(reference[i], rel=1e-9)


def test_effective_expansion_capacity_error():
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=2)
    with pytest.raises(CapacityError):
        effective_in_basis(config, 2)


def test_config_validation():
    with pytest.raises(InputError):
        GalerkinConfig(params=TABLE_PARAMS, n_basis=0)
    with pytest.raises(InputError):
        GalerkinConfig(params=TABLE_PARAMS, n_basis=4, geometry="spherical")
