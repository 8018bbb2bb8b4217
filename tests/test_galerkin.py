import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius import galerkin, mathieu, models
from moebius.cli import EXPORT_POINT_BYTES, main
from moebius.convergence import _CHUNK, eigenvalue_sweep, eigenvector_sweep
from moebius.errors import CapacityError, InputError
from moebius.galerkin import (
    GalerkinConfig,
    assemble,
    basis_modes,
    effective_in_basis,
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
    DEFAULT_Q,
    FAMILY_FAKE,
    ModeIndex,
    _modes,
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
                and abs(abs(mi.m) - abs(mj.m)) == 2
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
    ratio = solution.leading_residual_norms(20) / RESIDUAL_REFERENCE
    assert np.all(ratio < 10.0) and np.all(ratio > 0.1)
    assert np.max(solution.leading_residual_norms(20)) <= 0.25
    # near-degenerate pairs stay tightly split at these parameters
    for lo, hi in ((1, 2), (3, 4), (5, 6), (7, 8)):
        assert solution.eigenvalues[hi] - solution.eigenvalues[lo] < 2e-3


def test_reference_table_reproduced_by_energy_cutoff_basis():
    # the published table corresponds to the 102-function basis (all flat
    # modes below the pair-complete energy cutoff around 75)
    solution = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=102))
    rel = np.abs(solution.eigenvalues[:20] - TRUE_REFERENCE) / np.abs(TRUE_REFERENCE)
    assert np.max(rel) < 1e-9
    ratio = solution.leading_residual_norms(20) / RESIDUAL_REFERENCE
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
    dense = assemble(GalerkinConfig(params=TABLE_PARAMS, n_basis=41)).to_dense()
    for k in range(10):
        vec = c[:, k]
        rayleigh = vec @ dense @ vec
        assert rayleigh == pytest.approx(solution.eigenvalues[k], rel=1e-11)


def test_flat_plain_residuals_vanish():
    solution = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=25, geometry="flat_plain"))
    residuals = solution.leading_residual_norms(25)
    assert np.max(residuals) < 1e-10
    assert residual_norm(solution, 1) == residuals[0]
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
    config = GalerkinConfig(params=WIDE_PARAMS, n_basis=60)
    disc = solve(config)._discretisation
    s, u = disc.grid.s_nodes, disc.grid.u_nodes
    factors = disc.factors
    labels = list(zip(disc.m.tolist(), disc.n.tolist()))
    assert labels == [(md.m, md.n) for md in basis_modes(WIDE_PARAMS, 60)]
    assert factors.transverse.shape[0] == len(set(disc.n.tolist())) >= 3
    for j, (m, n) in enumerate(labels):
        assert np.array_equal(factors.longitudinal[j], fake_longitudinal(m, WIDE_PARAMS, s))
        assert np.array_equal(
            factors.slope[j], fake_longitudinal(m, WIDE_PARAMS, s, derivative=1)
        )
        assert np.array_equal(factors.transverse[factors.n_of[j]], transverse_profile(n, u))
    # the projection's sectors partition the same basis
    [projected] = galerkin._project([config])
    m, n = projected.m[0], projected.n[0]
    cosine, sine = (rows[0] for rows in projected.sectors)
    assert np.array_equal(n, disc.n)
    assert np.array_equal(m, disc.m)
    assert np.all(m[cosine] >= 0) and np.all(m[sine] < 0)
    assert sorted(np.concatenate((cosine, sine))) == list(range(m.size))
    # nothing of size N x m_s m_u is kept
    n, points = disc.m.size, s.size * u.size
    arrays = [v for v in vars(disc).values() if isinstance(v, np.ndarray)]
    arrays += [v for v in vars(factors).values() if isinstance(v, np.ndarray)]
    assert max(a.size for a in arrays) <= max(n * s.size, points)


def test_diagonal_terms_are_squared_as_products():
    # at R = 1.051, (2 / 2R) ** 2 in Python (C pow) and the product differ
    # in the last bit; every diagonal square is the correctly rounded product
    params = StripParams(a=0.3, R=1.051)
    disc = solve(GalerkinConfig(params=params, n_basis=40))._discretisation
    rates = [m / (2.0 * params.R) for m in disc.m.tolist()]
    assert any(r * r != r**2 for r in rates)
    assert disc.rates_sq.tolist() == [r * r for r in rates]
    halfwaves = [n * np.pi / 2.0 for n in disc.n.tolist()]
    assert disc.transverse_diag.tolist() == [h * h / (params.a * params.a) for h in halfwaves]


def full_tables(disc, params):
    """Per-mode (N, m_s m_u) samples of Psi_j and d1 Psi_j, one mode at a time."""
    s, u = disc.grid.s_nodes, disc.grid.u_nodes
    values, slopes = [], []
    for m, n in zip(disc.m.tolist(), disc.n.tolist()):
        chi = transverse_profile(n, u)
        values.append(np.outer(fake_longitudinal(m, params, s), chi).ravel())
        slopes.append(np.outer(fake_longitudinal(m, params, s, derivative=1), chi).ravel())
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
    # the default m_s, then orders below twice the largest harmonic (48),
    # where sum frequencies alias exactly as in the trapezoid sums
    for m_s in (None, 13, 21, 40):
        config = GalerkinConfig(params=WIDE_PARAMS, n_basis=60, m_s=m_s, geometry=geometry)
        disc = solve(config)._discretisation
        assert m_s is None or m_s < 2 * np.abs(disc.m).max()
        values, slopes = full_tables(disc, WIDE_PARAMS)
        fa, _, v = reference_fields(disc, WIDE_PARAMS, geometry)
        w = disc.grid.weights_2d.ravel()
        reference = (slopes * (w / fa**2)) @ slopes.T + (values * (w * v)) @ values.T
        reference += np.diag([(n * np.pi / 2) ** 2 / WIDE_PARAMS.a**2 for n in disc.n.tolist()])
        dense = assemble(config).to_dense()
        assert np.max(np.abs(dense - reference)) <= 1e-13 * np.max(np.abs(reference)), m_s


@pytest.mark.parametrize("m_s", [1, 2, 3, 64, 101, 176])
def test_fields_are_mirror_symmetric_and_the_direct_evaluation(m_s):
    # g and V on node m_s - k are node k with u reversed, d1 g negated;
    # evaluated on half the s nodes and filled, they stay the closed forms
    for params in (TABLE_PARAMS, WIDE_PARAMS, StripParams(a=0.02, R=3.15)):
        for m_u in (1, 4, 21):
            grid = QuadratureGrid.for_strip(params, m_s, m_u)
            a = np.array([0.5 * params.a, params.a])
            g, v, slope = galerkin._fields(params, a, grid, "true_geometry")
            g, v, d1 = g[1], v[1], galerkin._mirrored(slope, m_s, -1.0)[1]
            k = np.arange(1, m_s)
            assert np.array_equal(g[m_s - k], g[k, ::-1])
            assert np.array_equal(v[m_s - k], v[k, ::-1])
            assert np.array_equal(d1[m_s - k], -d1[k, ::-1])
            s, u = grid.s_nodes[:, None], grid.u_nodes[None, :]
            t = params.a * u
            for got, direct in (
                (np.sqrt(g), jacobian_f(params, s, t)),
                (d1 / (2.0 * np.sqrt(g)), jacobian_f_derivatives(params, s, t)[0]),
                (v, potential_va(params, s, u)),
            ):
                scale = np.max(np.abs(direct))
                assert np.max(np.abs(got - direct)) <= 1e-14 * scale, (params, m_u)


@pytest.mark.parametrize("m_s", [1, 2, 3, 64, 101, 176])
def test_potential_from_g_is_the_f_derivative_composition(m_s):
    # V from g = f^2 against the chain of f-derivatives of the potential_va
    # docstring, on the grids of the mirror test above
    for params in (TABLE_PARAMS, WIDE_PARAMS, StripParams(a=0.02, R=3.15)):
        for m_u in (1, 4, 21):
            grid = QuadratureGrid.for_strip(params, m_s, m_u)
            s, u = grid.s_nodes[:, None], grid.u_nodes[None, :]
            t = params.a * u
            f = jacobian_f(params, s, t)
            d1f, d2f, d11f, d22f = jacobian_f_derivatives(params, s, t)
            composed = (-1.25 * d1f * d1f / f**4 + 0.5 * d11f / f**3
                        - 0.25 * d2f * d2f / f**2 + 0.5 * d22f / f)
            v = potential_va(params, s, u)
            assert np.max(np.abs(v - composed)) <= 1e-14 * np.max(np.abs(composed)), (params, m_u)


def projection_fields(disc, geometry):
    """g, V and the half-grid d1 g of ``disc``'s configuration, as its
    projection evaluated them."""
    return galerkin._fields(disc.params, np.array([disc.params.a]), disc.grid, geometry)


@pytest.mark.parametrize("geometry", ["true_geometry", "flat_with_Veff", "flat_plain"])
def test_solution_fields_are_the_root_of_g_bitwise(geometry):
    # fa = sqrt(g) and d1 fa = d1 g / (2 fa), which are bit for bit the f
    # and d1 f of the closed forms evaluated on half the s nodes and mirrored
    for params, m_s in ((TABLE_PARAMS, None), (WIDE_PARAMS, 41), (StripParams(a=0.02, R=3.15), 64)):
        config = GalerkinConfig(params=params, n_basis=30, m_s=m_s, geometry=geometry)
        disc = solve(config)._discretisation
        g, v, slope = (field[0] for field in projection_fields(disc, geometry))
        size = disc.grid.s_nodes.size
        d_s_g = galerkin._mirrored(slope[None], size, -1.0)[0]
        assert np.array_equal(disc.fa, np.sqrt(g))
        assert np.array_equal(disc.d_s_fa, d_s_g / (2.0 * disc.fa))
        assert np.array_equal(disc.potential, v)
        if geometry != "true_geometry":
            assert np.all(disc.fa == 1.0) and np.all(disc.d_s_fa == 0.0)
            continue
        s, t = disc.grid.s_nodes[:size // 2 + 1, None], params.a * disc.grid.u_nodes
        f = galerkin._mirrored(jacobian_f(params, s, t)[None], size, 1.0)[0]
        d1f = galerkin._mirrored(jacobian_f_derivatives(params, s, t)[0][None], size, -1.0)[0]
        assert np.array_equal(disc.fa, f) and np.array_equal(disc.d_s_fa, d1f)


@pytest.mark.parametrize("params, n_basis, m_s", [
    (TABLE_PARAMS, 82, None), (WIDE_PARAMS, 60, None), (WIDE_PARAMS, 60, 13),
    (StripParams(a=0.073, R=3.15), 73, None),
])
def test_matrix_is_exactly_symmetric_and_sector_blocked(params, n_basis, m_s):
    for geometry in ("true_geometry", "flat_with_Veff"):
        config = GalerkinConfig(params=params, n_basis=n_basis, m_s=m_s, geometry=geometry)
        [projected] = galerkin._project([config])
        for stack in projected.stacks:
            assert np.array_equal(stack[0], stack[0].T)
        dense = assemble(config).to_dense()
        cosine = projected.m[0] >= 0
        assert np.all(dense[np.ix_(cosine, ~cosine)] == 0.0)
        assert np.all(dense[np.ix_(~cosine, cosine)] == 0.0)
        # solve diagonalises the public matrix gathered into sector order,
        # coefficient rows scattered back to basis order, bit for bit
        order = np.concatenate([rows[0] for rows in projected.sectors])
        decomp = eig_dense_symmetric(dense[np.ix_(order, order)])
        scattered = np.empty_like(decomp.eigenvectors)
        scattered[order] = decomp.eigenvectors
        solution = solve(config)
        assert np.array_equal(solution.eigenvalues, decomp.eigenvalues)
        assert np.array_equal(solution.coefficients, scattered)


def scattered_matrix(disc, geometry):
    """The N x N matrix filled sector by sector in place, then the transverse
    diagonal added to the whole: the order of operations that the sector
    blocks must reproduce bit for bit."""
    harmonic = np.abs(disc.m)
    rate = harmonic / (2.0 * disc.params.R)
    amp = np.where(harmonic == 0, 1.0 / np.sqrt(2.0 * np.pi * disc.params.R),
                   1.0 / np.sqrt(np.pi * disc.params.R))
    n_values, n_of = np.unique(disc.n, return_inverse=True)
    transverse = galerkin._transverse_rows(n_values, disc.grid.u_nodes)
    g = projection_fields(disc, geometry)[0]  # fa^2
    low, high, pair = galerkin._pair_table(transverse.shape[0])
    spectra = np.empty((1, 2, 2 * int(harmonic.max()) + 1, low.size))
    galerkin._kernel_spectra(transverse, low, high, disc.grid.weights_2d, g, disc.potential[None],
                             spectra)
    n_pairs = spectra.shape[-1]
    flat = spectra[0].reshape(2, -1)
    out = np.zeros((disc.m.size,) * 2)
    for sign in (1.0, -1.0):  # cosine sector m >= 0, sine sector m < 0
        rows = np.flatnonzero((disc.m >= 0) == (sign > 0))
        h, t = harmonic[rows], n_of[rows]
        kernel = pair[np.ix_(t, t)]
        slope_diff, value_diff = flat.take(np.abs(np.subtract.outer(h, h)) * n_pairs + kernel, 1)
        slope_sum, value_sum = flat.take(np.add.outer(h, h) * n_pairs + kernel, 1)
        out[np.ix_(rows, rows)] = (0.5 * np.outer(amp[rows], amp[rows])) * (
            (value_diff + sign * value_sum)
            + np.outer(rate[rows], rate[rows]) * (slope_diff - sign * slope_sum)
        )
    out[np.diag_indices_from(out)] += disc.transverse_diag
    return out


def permuted_sector_matrix(config):
    """The matrix laid out sector by sector, its blocks on the diagonal,
    then gathered into basis order by each row's rank in sector order: the
    construction that ``assemble`` replaced by one scatter, kept as its
    reference."""
    [projected] = galerkin._project([config], dense=True)
    order = np.concatenate([rows[0] for rows in projected.sectors])
    dense = np.zeros((order.size,) * 2)
    c = projected.stacks[0].shape[1]
    for block, stack in zip((dense[:c, :c], dense[c:, c:]), projected.stacks):
        block[...] = stack[0]
    rank = np.argsort(order)
    return dense[np.ix_(rank, rank)]


@pytest.mark.parametrize("geometry", ["true_geometry", "flat_with_Veff", "flat_plain"])
def test_sector_blocks_scatter_to_the_in_place_matrix_bitwise(geometry):
    for params, n_basis, m_s in ((TABLE_PARAMS, 102, 13), (WIDE_PARAMS, 60, 40),
                                 (StripParams(a=0.073, R=3.15), 73, 182)):
        for close_pairs in (False, True):
            config = GalerkinConfig(params=params, n_basis=n_basis, m_s=m_s,
                                    geometry=geometry, close_pairs=close_pairs)
            disc = solve(config)._discretisation
            dense = assemble(config).to_dense()
            assert np.array_equal(dense, scattered_matrix(disc, geometry))
            assert np.array_equal(dense, permuted_sector_matrix(config))
            [projected] = galerkin._project([config])
            for rows, stack in zip(projected.sectors, projected.stacks):
                assert np.array_equal(stack[0], dense[np.ix_(rows[0], rows[0])])


def sector_ordered(solution):
    """(eigenvalues, residual norms) of each sector, ascending within it.

    An exactly degenerate cosine/sine pair comes out in either order, so
    eigenpairs of two solutions are matched within their sector."""
    sine_rows = np.array([md.m < 0 for md in solution.basis])
    sine = np.any(solution.coefficients[sine_rows] != 0.0, axis=0)
    residuals = solution.leading_residual_norms(solution.eigenvalues.size)
    return [
        (solution.eigenvalues[columns], residuals[columns])
        for columns in (np.flatnonzero(~sine), np.flatnonzero(sine))
    ]


@pytest.mark.parametrize("params, n_basis", [
    (TABLE_PARAMS, 102),
    (StripParams(a=1.5, R=1.0), 5), (StripParams(a=1.5, R=0.5), 20),  # a >= R: immersed
    (StripParams(a=0.3, R=0.5), 5), (StripParams(a=0.05, R=2.74), 20),
])
def test_default_quadrature_matches_an_over_resolved_one(params, n_basis):
    # m_s = 2h + 32 resolves the product-to-sum integrands, whose harmonics
    # reach 2h + J and alias only at 2 m_s; residual norms lose digits to
    # cancellation of terms of the eigenvalue's size, so they are compared
    # on that scale
    default = solve(GalerkinConfig(params=params, n_basis=n_basis))
    m_s = default._discretisation.grid.s_nodes.size
    fine = solve(GalerkinConfig(params=params, n_basis=n_basis, m_s=4 * m_s))
    rel = np.abs(default.eigenvalues - fine.eigenvalues) / np.abs(fine.eigenvalues)
    assert np.max(rel) <= 1e-13
    for (values, residuals), (fine_values, fine_residuals) in zip(
        sector_ordered(default), sector_ordered(fine)
    ):
        assert np.max(np.abs(residuals - fine_residuals) / np.abs(fine_values)) <= 1e-13


def test_assembly_samples_no_factor_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factor tables sampled")

    sample = galerkin._sample_factors
    monkeypatch.setattr(galerkin, "_sample_factors", refuse)
    config = GalerkinConfig(params=WIDE_PARAMS, n_basis=40)
    assemble(config)
    solution = solve(config)
    with pytest.raises(AssertionError, match="factor tables sampled"):
        solution.leading_residual_norms(40)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(galerkin, "_sample_factors", counted)
    solution = solve(config)
    assert calls == []
    assert np.all(np.isfinite(solution.leading_residual_norms(40)))
    assert len(calls) == 1


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


def test_residuals_are_computed_on_first_read_only(monkeypatch):
    calls = []
    compute = galerkin._residual_norms

    def counted(*args):
        calls.append(args)
        return compute(*args)

    monkeypatch.setattr(galerkin, "_residual_norms", counted)
    solution = solve(GalerkinConfig(params=WIDE_PARAMS, n_basis=30))
    assert calls == []
    solution.leading_residual_norms(30)
    assert len(calls) == 1


def test_leading_residual_counts_outside_the_basis_are_refused():
    # -1 once returned one norm, -5 none, and 13 or 99 all twelve
    solution = solve(GalerkinConfig(params=WIDE_PARAMS, n_basis=12))
    for count in (-1, -5, 13, 99):
        with pytest.raises(InputError, match=rf"count must be in \[0, 12\], got {count}"):
            solution.leading_residual_norms(count)
    assert solution.leading_residual_norms(0).shape == (0,)
    assert solution.leading_residual_norms(12).shape == (12,)


def test_only_the_true_geometry_is_refused_at_radii_whose_fields_overflow():
    # the fields divide by R^4 and square terms of size a / R^2; the flat
    # geometries evaluate neither
    for R in (1.2e77, 1e-78):
        with pytest.raises(InputError, match=re.escape(f"at a=0.5, R={R:.3g} its fields overflow")):
            solve(GalerkinConfig(params=StripParams(a=0.5, R=R), n_basis=10))
    for R in (1.1e77, 1e-77):  # R^4 and (2.5 a / R^2)^2 still finite
        assert np.all(np.isfinite(solve(GalerkinConfig(StripParams(a=0.5, R=R), 10)).eigenvalues))
    for geometry in ("flat_plain", "flat_with_Veff"):
        config = GalerkinConfig(params=StripParams(a=0.5, R=1e100), n_basis=10, geometry=geometry)
        assert np.all(np.isfinite(solve(config).eigenvalues))


@pytest.mark.parametrize("params, n_basis", [
    (TABLE_PARAMS, 82), (WIDE_PARAMS, 60), (StripParams(a=0.05, R=2.0), 120),
])
def test_leading_residuals_are_the_full_computation_bitwise(params, n_basis):
    config = GalerkinConfig(params=params, n_basis=n_basis)
    full = solve(config).leading_residual_norms(n_basis)
    for count in range(1, n_basis + 1):
        fresh = solve(config)
        leading = fresh.leading_residual_norms(count)
        assert leading.shape == (count,) and np.array_equal(leading, full[:count])
        assert residual_norm(fresh, count) == full[count - 1]


def test_true_spectrum_computes_residuals_for_the_printed_rows(monkeypatch, capsys):
    counts = []
    compute = galerkin._residual_norms

    def counted(disc, eigenvalues, coefficients, count):
        counts.append(count)
        return compute(disc, eigenvalues, coefficients, count)

    monkeypatch.setattr(galerkin, "_residual_norms", counted)
    assert main(["spectrum", "--model", "true", "--a", "0.75", "--circumference", "13.2",
                 "--count", "6", "--N", "40"]) == 0
    assert counts == [6]


def test_eigenpair_consumers_never_compute_residuals(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("residual norms computed")

    monkeypatch.setattr(galerkin, "_residual_norms", refuse)
    code = main(["eigenfunction", "--k", "2", "--a", "1.3", "--R", repr(WIDE_PARAMS.R),
                 "--N", "30", "--grid", "12x5", "--output", str(tmp_path / "density.csv")])
    assert code == 0
    sweep = eigenvector_sweep(WIDE_PARAMS.R, [0.3, 0.6], 3, 24)
    assert np.all(np.isfinite(sweep.differences))


@pytest.mark.parametrize("params, n_basis", [(TABLE_PARAMS, 82), (WIDE_PARAMS, 60)])
def test_residuals_match_full_table_reference(params, n_basis):
    solution = solve(GalerkinConfig(params=params, n_basis=n_basis))
    disc = solution._discretisation
    values, slopes = full_tables(disc, params)
    fa, d1, v = reference_fields(disc, params, "true_geometry")
    rates_sq = np.array([(m / (2 * params.R)) ** 2 for m in disc.m.tolist()])
    transverse = np.array([(n * np.pi / 2) ** 2 / params.a**2 for n in disc.n.tolist()])
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
    residuals = solution.leading_residual_norms(n_basis)
    assert np.max(np.abs(residuals - reference) / reference) < 1e-12


def test_a_solution_reads_the_fields_its_projection_evaluated(monkeypatch):
    # residuals, labels and exports read the grid, the fields and the basis
    # that the solve built: one field evaluation and one grid in all
    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        return wrapper

    monkeypatch.setattr(galerkin, "_fields", counted("fields", galerkin._fields))
    monkeypatch.setattr(QuadratureGrid, "for_strip", counted("grid", QuadratureGrid.for_strip))
    monkeypatch.setattr(galerkin, "_bases", counted("basis", galerkin._bases))
    solution = solve(GalerkinConfig(params=WIDE_PARAMS, n_basis=40))
    assert calls == ["basis", "grid", "fields"]
    residuals = solution.leading_residual_norms(40)
    assert np.all(np.isfinite(residuals))
    assert np.array_equal(solution.leading_residual_norms(5), residuals[:5])
    assert len(solution.basis) == 40
    values = solution.eigenfunction_values(1, np.linspace(0.0, 1.0, 5), np.linspace(-1, 1, 3))
    assert values.shape == (5, 3)
    assert calls == ["basis", "grid", "fields"]


@settings(max_examples=25, deadline=None)
@given(
    R=st.floats(0.3, 5.0),
    width=st.floats(0.02, 1.0),
    c=st.floats(0.2, 5.0),
    n_basis=st.integers(4, 40),
)
def test_spectrum_and_residuals_scale_with_the_strip(R, width, c, n_basis):
    # the Laplacian of the strip scaled by c is the original's over c^2;
    # the residual norm on Pi scales the same way
    a = width * 1.4 * min(R, 1.5)
    base = solve(GalerkinConfig(params=StripParams(a=a, R=R), n_basis=n_basis))
    scaled = solve(GalerkinConfig(params=StripParams(a=c * a, R=c * R), n_basis=n_basis))
    assert np.max(np.abs(scaled.eigenvalues * c**2 / base.eigenvalues - 1.0)) <= 1e-13
    ratio = scaled.leading_residual_norms(n_basis) * c**2 / base.leading_residual_norms(n_basis)
    assert np.max(np.abs(ratio - 1.0)) <= 1e-8


def test_each_site_charges_its_own_shapes(charges):
    # one configuration: N before its basis is enumerated, its quadrature,
    # its sector blocks with the kernel spectra and its N x N matrices; its
    # residual data when they are read, for the eigenpairs read (at least 2)
    solution = solve(GalerkinConfig(params=WIDE_PARAMS, n_basis=60))
    disc = solution._discretisation
    m_s, m_u = disc.grid.s_nodes.size, disc.grid.u_nodes.size
    n_count = np.unique(disc.n).size
    pairs = n_count * (n_count + 1) // 2
    cosine = int(np.count_nonzero(disc.m >= 0))
    spectra = 8 * 2 * (2 * int(np.abs(disc.m).max()) + 1) * pairs
    sizes = f"m_s={m_s}, m_u={m_u}, distinct n={n_count}"
    gather = galerkin._GATHER_BYTES
    solution.leading_residual_norms(1)
    solution.leading_residual_norms(60)
    # (the mode enumeration charges its table and boxes, "... modes")
    assert [charge for charge in charges if not re.search(r" modes( below |$)", charge[1])] == [
        (8 * 2 * 30**2 + gather * 30**2, "the sector blocks of one point at N=60"),
        (galerkin._FIELD_BYTES * m_s * m_u + pairs * galerkin._KERNEL_BYTES * (m_s + 1) + spectra,
         f"the fields and kernels at points=1, N=60, {sizes}"),
        (spectra + 8 * (cosine**2 + (60 - cosine) ** 2) + gather * max(cosine, 60 - cosine) ** 2,
         "the kernel spectra and sector blocks at points=1, N=60"),
        (galerkin._MATRIX_BYTES * 60**2, "the N x N matrices at N=60"),
    ] + [
        (8 * (3 * 60 * m_s + 60 * width + 7 * m_s * m_u + 2 * galerkin._S_BLOCK * width * m_u
              + 4 * n_count * m_s * (width + m_u)),
         f"the residual data at N=60, count={count}, {sizes}")
        for count, width in ((1, 2), (60, 60))
    ]


def not_reached(*args, **kwargs):
    raise AssertionError("allocated before the capacity check")


def refused_before_building(config, monkeypatch, charges):
    """The largest charge of ``solve`` at ``config`` and its description,
    after checking that ``solve`` and ``assemble`` admit it at that cap and
    refuse it one byte below, naming it, before the quadrature is built."""
    charges.clear()
    solve(config)
    needed, what = max(charges)
    with monkeypatch.context() as patch:
        patch.setattr(models, "MAX_ARRAY_BYTES", needed)
        for run in (solve, assemble):
            run(config)  # exactly at the cap is allowed
        patch.setattr(galerkin.QuadratureGrid, "for_strip", not_reached)
        patch.setattr(models, "MAX_ARRAY_BYTES", needed - 1)
        for run in (solve, assemble):
            with pytest.raises(CapacityError, match=f"^{re.escape(what)} need about "):
                run(config)
    return needed, what


def test_capacity_guard_refuses_before_building(monkeypatch, charges):
    # a default solve is held to its projection's arrays, and a read of its
    # residuals to the data of the eigenpairs read, refused before the
    # factor tables are built while the eigenpairs stay admitted
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=30)
    refused_before_building(config, monkeypatch, charges)
    solution = solve(config)
    disc = solution._discretisation
    sizes = (f"m_s={disc.grid.s_nodes.size}, m_u={disc.grid.u_nodes.size}, "
             f"distinct n={np.unique(disc.n).size}")
    charges.clear()
    residuals = solve(config).leading_residual_norms(30)
    needed, what = max(charges)
    assert what == f"the residual data at N=30, count=30, {sizes}"
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", needed)
    assert np.array_equal(solve(config).leading_residual_norms(30), residuals)  # at the cap
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", needed - 1)
    with monkeypatch.context() as patch:
        patch.setattr(galerkin, "_sample_factors", not_reached)
        with pytest.raises(CapacityError, match=f"^{re.escape(what)} need about "):
            solution.leading_residual_norms(30)
    assert np.array_equal(solution.leading_residual_norms(20), residuals[:20])
    monkeypatch.setattr(galerkin.QuadratureGrid, "for_strip", not_reached)
    for run in (solve, assemble):
        with pytest.raises(CapacityError, match="m_s=99999"):
            run(GalerkinConfig(params=TABLE_PARAMS, n_basis=30, m_s=99999))
    # blocks too large for any point at N are refused before the basis is
    # enumerated: at N = 31, at least 961 // 2 entries, 961 // 4 in one sector
    monkeypatch.setattr(galerkin, "_bases", not_reached)
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", 8 * 480 + galerkin._GATHER_BYTES * 240 - 1)
    for run in (solve, assemble):
        with pytest.raises(CapacityError, match="^the sector blocks of one point at N=31 need"):
            run(GalerkinConfig(params=TABLE_PARAMS, n_basis=31))


def test_single_configuration_is_held_to_the_matrix_bound(monkeypatch, charges):
    # at m_s = m_u = 2 the N x N matrices are the largest charge of a
    # single run, which is admitted exactly up to it
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=60, m_s=2, m_u=2)
    assert refused_before_building(config, monkeypatch, charges) == (
        galerkin._MATRIX_BYTES * 60 * 60, "the N x N matrices at N=60"
    )


def test_capacity_guard_admits_readme_and_benchmark_sizes(charges):
    # the largest README and benchmark runs: the 102-function table, the
    # eigenfunction export, sweeps up to a = 1.5 with N = 76 and 2 pi R = 19.8
    solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=102)).leading_residual_norms(102)
    solve(GalerkinConfig(params=StripParams(a=1.3, R=2.8647889756541165), n_basis=96))
    for a_min, a_max in ((0.045, 0.3), (0.3, 1.5)):
        eigenvector_sweep(19.8 / (2 * np.pi), np.geomspace(a_min, a_max, _CHUNK), 20, 76)
    assert max(needed for needed, _ in charges) < models.MAX_ARRAY_BYTES / 16
    assert EXPORT_POINT_BYTES * 192 * 65 < models.MAX_ARRAY_BYTES / 16


THIN = np.geomspace(0.02, 0.1, _CHUNK)
RADIUS = 2.8647889756541165


@pytest.mark.parametrize("run", [
    # the residual terms of all 100 eigenpairs on a 600 x 100 quadrature
    lambda: solve(GalerkinConfig(params=StripParams(a=0.5, R=RADIUS), n_basis=100, m_s=600,
                                 m_u=100)).leading_residual_norms(100),
    # a chunk's sector blocks at N = 300
    lambda: eigenvalue_sweep(RADIUS, THIN, 3, 300, m_s=2, m_u=2),
    lambda: eigenvector_sweep(RADIUS, THIN, 3, 300, m_s=2, m_u=2),
    # kernel spectra over the thin strips' harmonics and the wide strips'
    # transverse pairs
    lambda: eigenvalue_sweep(0.5, np.geomspace(0.02, 1.5, _CHUNK), 3, 200, m_s=1, m_u=1),
], ids=["residuals", "eigenvalue-chunk", "eigenvector-chunk", "mixed-chunk"])
def test_traced_peak_is_within_the_largest_charge(charges, run):
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= max(needed for needed, _ in charges)


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
    reference = effective_spectrum(TABLE_PARAMS, 5).values(5)
    assert np.array_equal(expansion.values, reference)
    for i in range(5):
        e = expansion.coefficients[:, i]
        quotient = (e @ dense @ e) / (e @ e)
        assert quotient == pytest.approx(reference[i], rel=1e-9)


def test_eigenvector_sweep_enumerates_each_basis_once(monkeypatch):
    # one flat and one effective enumeration per chunk, over its
    # half-widths: the expansions read the bases the projection enumerated
    flat, effective = [], []
    enumerate_modes = galerkin._modes

    def counted(R, a, count, q):
        (flat if q is None else effective).append(list(a))
        return enumerate_modes(R, a, count, q)

    monkeypatch.setattr(galerkin, "_modes", counted)
    a_grid = np.geomspace(0.2, 0.8, _CHUNK + 3)
    sweep = eigenvector_sweep(WIDE_PARAMS.R, a_grid, 3, 24)
    assert np.all(np.isfinite(sweep.differences))
    chunks = [a_grid[:_CHUNK].tolist(), a_grid[_CHUNK:].tolist()]
    assert flat == chunks and effective == chunks


@pytest.mark.parametrize("R, a_values, n_basis, count, close_pairs", [
    # the eigenvector sweep's points, pairs closed
    (18 / (2 * np.pi), (0.01, 0.37, 0.98, 1.5), 72, 9, True),
    (18 / (2 * np.pi), (0.5, 1.5), 16, 9, True),
    # the eigenfunction export's strip, and the table strip
    (WIDE_PARAMS.R, (0.4, WIDE_PARAMS.a), 96, 20, False),
    (TABLE_PARAMS.R, (0.3, TABLE_PARAMS.a, 1.1), 72, 5, False),
    # thin strips, where one transverse index holds every mode
    (3.0, (1e-3, 2e-3, 5e-2), 40, 12, True),
    (0.8, (1e-6, 3e-6), 25, 20, False),
])
def test_chunk_expansions_are_each_points_bitwise(R, a_values, n_basis, count, close_pairs):
    # one effective enumeration over a chunk's bases equals each point's
    # own effective_in_basis, bit for bit
    params = [StripParams(a=a, R=R) for a in a_values]
    bases = galerkin._bases(params, n_basis, close_pairs)
    for p, got in zip(params, galerkin._expansions(params, bases, count)):
        config = GalerkinConfig(params=p, n_basis=n_basis, close_pairs=close_pairs)
        want = effective_in_basis(config, count)
        for field in ("values", "coefficients", "truncations", "sine"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (p, field)


def test_chunk_expansions_name_the_first_failing_point():
    # points 1 and 2 both fail, each at its own mode, from one enumeration;
    # point 1 comes first in the grid
    params = [StripParams(a=a, R=TABLE_PARAMS.R) for a in (0.5, TABLE_PARAMS.a, 0.9)]
    sizes, count = (72, 2, 10), 10
    bases = [galerkin._bases([p], size, False)[0] for p, size in zip(params, sizes)]
    messages = []
    for p, size in zip(params, sizes):
        try:
            effective_in_basis(GalerkinConfig(params=p, n_basis=size), count)
            messages.append(None)
        except CapacityError as exc:
            messages.append(str(exc))
    assert messages[0] is None and None not in messages[1:] and messages[1] != messages[2]
    with pytest.raises(CapacityError) as caught:
        galerkin._expansions(params, bases, count)
    assert str(caught.value) == messages[1]


def test_effective_expansion_capacity_error():
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=2)
    with pytest.raises(CapacityError, match=r"mode \(eff_ce, m=0, n=1\)$"):
        effective_in_basis(config, 2)
    config = GalerkinConfig(params=TABLE_PARAMS, n_basis=10)
    with pytest.raises(CapacityError, match=r"mode \(eff_se, m=8, n=1\)$"):
        effective_in_basis(config, 10)


def expansion_by_loop(config, count, q=DEFAULT_Q):
    """The per-mode loop ``effective_in_basis`` replaced, kept as its
    reference: (values, coefficients, truncations), or the CapacityError
    message of the first mode that fails."""
    [(m, n)] = galerkin._bases([config.params], config.n_basis, config.close_pairs)
    top = int(np.abs(m).max())
    position = np.full((2 * top + 1, int(n.max()) + 1), -1)
    position[m + top, n] = np.arange(m.size)
    _, sine, order, n_eff, value, _ = _modes(config.params.R, [config.params.a], count, q)
    coeffs = np.zeros((m.size, count))
    truncations = np.empty(count)
    modes = zip(sine[:count].tolist(), order[:count].tolist(), n_eff[:count].tolist())
    for i, (is_sine, mode_m, mode_n) in enumerate(modes):
        char = mathieu.fourier_coefficients("se" if is_sine else "ce", mode_m, q)
        weights = char.fourier.copy()
        if char.harmonics[0] == 0:
            weights[0] *= np.sqrt(2.0)
        signed = char.harmonics.astype(int) * (-1 if is_sine else 1)
        rows = np.full(signed.size, -1)
        if mode_n < position.shape[1]:
            inside = np.abs(signed) <= top
            rows[inside] = position[signed[inside] + top, mode_n]
        found = rows >= 0
        coeffs[rows[found], i] = weights[found]
        captured = np.cumsum(weights[found] ** 2)[-1] if found.any() else 0.0
        leaked = 1.0 - captured
        truncations[i] = leaked if leaked > 1e-14 else 0.0
        if truncations[i] > 1e-6:
            family = "eff_se" if is_sine else "eff_ce"
            return (f"basis of size {m.size} captures only {1.0 - truncations[i]:.9f} "
                    f"of effective mode ({family}, m={mode_m}, n={mode_n})")
    return value[:count], coeffs, truncations


@pytest.mark.parametrize("params, n_basis, count, close_pairs", [
    # the eigenvector sweep's points, pairs closed
    *[(StripParams(a=a, R=18 / (2 * np.pi)), 72, 9, True) for a in (0.01, 0.37, 0.98, 1.5)],
    # a small basis whose truncations are kept but not zero
    (StripParams(a=1.5, R=18 / (2 * np.pi)), 16, 9, True),
    # the eigenfunction export's strip, and the table strip
    (WIDE_PARAMS, 96, 20, False),
    (TABLE_PARAMS, 72, 5, False),
    # thin strips, where one transverse index holds every mode
    (StripParams(a=1e-3, R=3.0), 40, 12, True),
    (StripParams(a=1e-6, R=0.8), 25, 25, False),
    # bases too small for the modes: the first failing mode is named
    (TABLE_PARAMS, 2, 2, False),
    (TABLE_PARAMS, 10, 10, False),
    (WIDE_PARAMS, 12, 12, True),
])
def test_effective_expansion_is_the_per_mode_loop_bitwise(params, n_basis, count, close_pairs):
    config = GalerkinConfig(params=params, n_basis=n_basis, close_pairs=close_pairs)
    reference = expansion_by_loop(config, count)
    if isinstance(reference, str):
        with pytest.raises(CapacityError) as caught:
            effective_in_basis(config, count)
        assert str(caught.value) == reference
        return
    expansion = effective_in_basis(config, count)
    for got, want in zip(
        (expansion.values, expansion.coefficients, expansion.truncations), reference
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_config_validation():
    with pytest.raises(InputError):
        GalerkinConfig(params=TABLE_PARAMS, n_basis=0)
    # a float basis size once failed deep inside the mode enumeration
    for size in (12.5, 12.0, "12"):
        with pytest.raises(InputError, match="basis size must be an integer"):
            GalerkinConfig(params=TABLE_PARAMS, n_basis=size)
    assert solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=np.int64(12))).eigenvalues.size == 12
    with pytest.raises(InputError):
        GalerkinConfig(params=TABLE_PARAMS, n_basis=4, geometry="spherical")
