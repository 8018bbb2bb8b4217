"""Spectral Galerkin solver for the curved strip on the rectangle Pi.

The curved Laplacian, transported to Pi = (0, 2 pi R) x (-1, 1), is

    L = -d1 (1/fa^2) d1 - (1/a^2) d2^2 + V,

with fa(s, u) = f(s, a u) the metric Jacobian and V the geometric
potential (``geometry.potential_va``).  Projecting onto the first N flat
eigenfunctions gives a real symmetric N x N matrix

    M[j, k] = integral( d1 Psi_j * d1 Psi_k / fa^2 )
              + (1/a^2) (n_j pi / 2)^2 delta_jk
              + integral( V * Psi_j * Psi_k ),

assembled here from the quadratic form, which equals the operator form
because the basis satisfies the twisted seam conditions and
d1 fa(0, u) = 0 = d1 fa(2 pi R, u).  The transverse kinetic term carries
the large 1/a^2 scale and is inserted analytically; the two integrals use
the tensor quadrature of :mod:`moebius.quadrature`, which is spectrally
exact for these seam-symmetric integrands.

The basis is enumerated once per configuration as two integer arrays
(m_j, n_j), in the order of ``basis_modes``, and memoised per
(params, n_basis, close_pairs); ``ModeIndex`` labels are made only when
``basis_modes`` or a solution's ``basis`` asks for them.  Psi_j(s, u) =
L_{m_j}(s) T_{n_j}(u) with L_m = a_m cos(mu s) (m >= 0) or a_m sin(mu s)
(m < 0), mu = |m| / 2R, a_m = 1/sqrt(pi R) (1/sqrt(2 pi R) at m = 0).
The (m_s, m_u) fields w, fa, d1 fa and V come from one evaluation of f and
its derivatives, and T_n is sampled once per distinct n on the u nodes.
The integrals contract the u-quadrature first,

    A_nn'(s) = sum_u w T_n T_n' / fa^2,    B_nn'(s) = sum_u w V T_n T_n',

and the s-sums of products of two trigonometric rows are Fourier
coefficients of these kernels: with s_k = 2 pi R k / m_s and
C^(p) = sum_k C(s_k) cos(pi p k / m_s), taken for p = 0..m_s from one real
FFT per kernel, the cosine sector reads

    M_jk = 1/2 a_j a_k [B^(|h_j - h_k|) + B^(h_j + h_k)]
           + 1/2 a_j a_k mu_j mu_k [A^(|h_j - h_k|) - A^(h_j + h_k)],

h = |m|, and the sine sector flips the sign of both sum-frequency terms.
A frequency p is folded into [0, m_s] modulo 2 m_s, so an ``m_s`` below
twice the largest harmonic aliases exactly as the trapezoid sum does.
The default m_s is 2 h_max + 32.  An integrand's harmonics reach
2 h_max + J, J the bandwidth of the kernels in s, and alias only at
2 m_s, so m_s > h_max + J/2 suffices; the margin 32 covers J where h_max
is small.
The kernels are read at (min(n_j, n_k), max(n_j, n_k)), so the matrix is
exactly symmetric by construction.  No longitudinal table is sampled for
assembly; the factor tables (rows L_m and L'_m on the s nodes, one cosine
and one sine per distinct harmonic) are sampled when the residuals first
need them.

The strip is symmetric under the reflection s -> -s, so cosine modes
(m >= 0) and sine modes (m < 0) decouple exactly.  Cross-sector blocks are
never computed and are exactly zero: the projection yields one block per
sector.  ``solve`` lays the blocks on the diagonal of one matrix over the
basis listed sector by sector, so every coefficient column vanishes
exactly off its sector and rounding cannot mix a nearly degenerate
cosine/sine pair.

Its ascending eigenvalues are variational upper bounds on the true
spectrum, non-increasing as the basis grows.  Residual norms
|| L f_k - lambda_k f_k ||_{L2(Pi)} are evaluated in strong form when a
solution's ``residual_norms`` is first read, with L Psi_j expanded
analytically through the closed-form derivatives of fa and summed per n
from the coefficient-weighted longitudinal rows.

Geometry overrides support the oracle runs: ``flat_plain`` (fa = 1, V = 0)
must produce an exactly diagonal matrix, and ``flat_with_Veff`` (fa = 1,
V = potential_veff) must reproduce the closed-form effective spectrum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import mathieu
from .errors import CapacityError, InputError
from .geometry import StripParams, _f_with_derivatives, _potential_from, potential_veff
from .linalg import SymmetricMatrix, eig_dense_symmetric
from .models import (
    FAMILY_EFF_CE,
    FAMILY_EFF_SE,
    FAMILY_FAKE,
    DEFAULT_Q,
    MAX_ARRAY_BYTES,
    ModeIndex,
    _effective_modes,
    _flat_modes,
    _pow2,
    transverse_profile,
)
from .quadrature import QuadratureGrid

__all__ = [
    "GEOMETRY_CHOICES",
    "GalerkinConfig",
    "GalerkinSolution",
    "EffectiveExpansion",
    "MAX_ARRAY_BYTES",
    "basis_modes",
    "assemble",
    "solve",
    "largest_array_bytes",
    "require_capacity",
    "residual_norm",
    "effective_in_basis",
]

GEOMETRY_CHOICES = ("true_geometry", "flat_with_Veff", "flat_plain")

# Peak memory per exported grid point (one CLI row with its 3-space point,
# streamed as text), traced at 177 B for JSON and 135 B for CSV on the
# 192x65 README export and 83-91 B on grids up to 768x260.
EXPORT_POINT_BYTES = 256
# configurations kept by _basis_arrays' cache; an eigenvector sweep point
# reads its basis twice, once to solve and once to expand the effective modes
_CACHED_BASES = 64
# transverse row counts kept by _pair_table's cache; a sweep meets a handful
_CACHED_PAIR_TABLES = 16
# s nodes per block of residual fields: a 16 x N x m_u block stays in cache,
# where one (m_s, N, m_u) array took three times as long at N = 96
_S_BLOCK = 16


@dataclass(frozen=True)
class GalerkinConfig:
    """Parameters of one projection run.

    ``n_basis`` counts basis functions, ordered by ascending flat
    eigenvalue with ties broken (harmonic ascending, cosine before sine,
    n ascending).  ``m_s``/``m_u`` override the quadrature orders, which
    default to 2 * max harmonic + 32 (the aliasing bound of the module
    docstring) and 2 * max transverse index + 16.
    ``close_pairs`` extends the basis by one function when the cutoff
    would orphan half of a +/-m pair; an orphaned partner breaks the exact
    cosine/sine decoupling of the matrix and artificially splits
    degenerate pairs, which the convergence sweeps cannot tolerate.
    """

    params: StripParams
    n_basis: int
    m_s: int | None = None
    m_u: int | None = None
    geometry: str = "true_geometry"
    close_pairs: bool = False

    def __post_init__(self):
        if self.n_basis < 1:
            raise InputError(f"basis size must be >= 1, got {self.n_basis}")
        if self.geometry not in GEOMETRY_CHOICES:
            raise InputError(
                f"geometry must be one of {GEOMETRY_CHOICES}, got {self.geometry!r}"
            )


@dataclass(frozen=True)
class GalerkinSolution:
    """Result of one projection run.

    ``coefficients[:, k]`` expands the k-th eigenfunction over ``basis``;
    the columns are orthonormal.  ``residual_norms[k]`` is the strong-form
    L2 residual of the k-th eigenpair, computed on first read from the
    discretisation the solution keeps, so callers that need only the
    eigenpairs never pay for it.
    """

    config: GalerkinConfig
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    _disc: _Discretisation = field(repr=False, compare=False)

    @functools.cached_property
    def basis(self) -> tuple[ModeIndex, ...]:
        """Labels of the basis functions, in coefficient-row order."""
        return _mode_labels(self._disc.m, self._disc.n)

    @functools.cached_property
    def residual_norms(self) -> np.ndarray:
        return _residual_norms(self._disc, self.eigenvalues, self.coefficients)

    def eigenfunction_values(self, k: int, s, u) -> np.ndarray:
        """Evaluate the k-th (1-indexed) eigenfunction on a tensor grid."""
        m, n = self._disc.m, self._disc.n
        if not (1 <= k <= m.size):
            raise InputError(f"k must be in [1, {m.size}], got {k}")
        s = np.atleast_1d(np.asarray(s, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        factors = _sample_factors(m, n, self.config.params, s, u)
        coeffs = self.coefficients[:, k - 1]
        return sum(
            np.outer(coeffs[pos] @ factors.longitudinal[pos], factors.transverse[row])
            for row, pos in factors.by_n(np.arange(m.size))
        )


@functools.lru_cache(maxsize=_CACHED_BASES)
def _basis_arrays(
    params: StripParams, n_basis: int, close_pairs: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) of the first ``n_basis`` flat modes as integer arrays.

    Modes come by ascending flat eigenvalue, merged entries as in
    ``fake_spectrum``, and within an entry by (harmonic, cosine before
    sine, n).  ``close_pairs`` appends the next mode when the last one is
    half of a +/-m pair whose partner was cut off.  Each configuration is
    enumerated once per process; the arrays returned are shared and
    read-only.
    """
    m, n, _, entry = _flat_modes(params, n_basis + 1)
    order = np.lexsort((n, m < 0, np.abs(m), entry))
    m, n = m[order], n[order]
    size = n_basis
    if close_pairs and n_basis > 0:
        last_m, last_n = m[n_basis - 1], n[n_basis - 1]
        partnered = (m[:n_basis] == -last_m) & (n[:n_basis] == last_n)
        if last_m != 0 and not partnered.any():
            size += 1
    m, n = m[:size], n[:size]
    m.flags.writeable = False
    n.flags.writeable = False
    return m, n


def _mode_labels(m, n) -> tuple[ModeIndex, ...]:
    return tuple(ModeIndex(FAMILY_FAKE, mm, nn) for mm, nn in zip(m.tolist(), n.tolist()))


def basis_modes(params: StripParams, n_basis: int, close_pairs: bool = False) -> list[ModeIndex]:
    """First ``n_basis`` flat modes, ascending eigenvalue, deterministic ties."""
    return list(_mode_labels(*_basis_arrays(params, n_basis, close_pairs)))


def largest_array_bytes(
    n_basis: int = 0, m_s: int = 0, m_u: int = 0, n_count: int = 0, export_points: int = 0
) -> int:
    """Estimated bytes of the largest array one run allocates.

    That is the N x N projection matrix, the residual terms (four per
    distinct transverse index, ``n_count`` of them, each with N x m_s
    longitudinal and m_s x m_u quadrature values, which bound the factor
    tables and fields too), or the rows of an eigenfunction export of
    ``export_points`` grid samples.  The kernel spectra of assembly, two
    complex rows of m_s + 1 per pair n <= n', 16 (m_s + 1) n_count (n_count
    + 1) bytes, stay within the residual terms' bound, since n_count <= N.
    """
    return max(
        8 * n_basis * n_basis,
        32 * n_count * m_s * max(n_basis, m_u),
        EXPORT_POINT_BYTES * export_points,
    )


def require_capacity(
    n_basis: int = 0, m_s: int = 0, m_u: int = 0, n_count: int = 0, export_points: int = 0
) -> None:
    """Raise ``CapacityError`` when the largest array would pass ``MAX_ARRAY_BYTES``."""
    needed = largest_array_bytes(n_basis, m_s, m_u, n_count, export_points)
    if needed > MAX_ARRAY_BYTES:
        sizes = {"N": n_basis, "m_s": m_s, "m_u": m_u, "distinct n": n_count,
                 "export points": export_points}
        described = ", ".join(f"{name}={size}" for name, size in sizes.items() if size)
        raise CapacityError(
            f"{described} needs an array of about {needed / 2**20:.0f} MiB, "
            f"above the {MAX_ARRAY_BYTES / 2**20:.0f} MiB cap"
        )


@dataclass(frozen=True)
class _Factors:
    """Flat basis Psi_j(s, u) = L_{m_j}(s) T_{n_j}(u) in factor form on s x u."""

    longitudinal: np.ndarray  # (N, |s|) L_{m_j}(s)
    slope: np.ndarray         # (N, |s|) d/ds L_{m_j}(s)
    transverse: np.ndarray    # (distinct n, |u|) T_n(u), n ascending
    n_of: np.ndarray          # (N,) row of ``transverse`` holding T_{n_j}

    def by_n(self, rows) -> list[tuple[int, np.ndarray]]:
        """Positions within ``rows`` grouped by transverse index, as
        (row of ``transverse``, positions) pairs."""
        n_rows = self.n_of[rows]
        # the distinct rows, ascending; np.unique would import numpy.ma (numpy 2)
        present = np.flatnonzero(np.bincount(n_rows))
        return [(int(n), np.flatnonzero(n_rows == n)) for n in present]


def _sample_factors(m, n, params: StripParams, s, u) -> _Factors:
    """Factor tables of the flat basis with labels (m, n).

    One cosine and one sine of the phase (|m| / 2R) s per distinct
    harmonic, scattered to the rows, and one transverse row per distinct
    n.  Each element is formed by the operations of ``fake_longitudinal``
    in the same order, so the rows equal its samples bit for bit.
    """
    R = params.R
    harmonics, h_of = np.unique(np.abs(m), return_inverse=True)
    rate = harmonics / (2.0 * R)
    phase = rate[:, None] * s
    cos, sin = np.cos(phase), np.sin(phase)
    amp = 1.0 / np.sqrt(np.pi * R)
    longitudinal = np.empty((m.size, s.size))
    slope = np.empty_like(longitudinal)
    up, down, constant = m > 0, m < 0, m == 0
    longitudinal[up] = (amp * cos)[h_of[up]]
    slope[up] = ((-amp * rate)[:, None] * sin)[h_of[up]]
    longitudinal[down] = (amp * sin)[h_of[down]]
    slope[down] = ((amp * rate)[:, None] * cos)[h_of[down]]
    longitudinal[constant] = 1.0 / np.sqrt(2.0 * np.pi * R)
    slope[constant] = 0.0
    transverse, n_of = _transverse_rows(n, u)
    return _Factors(longitudinal=longitudinal, slope=slope, transverse=transverse, n_of=n_of)


def _transverse_rows(n, u) -> tuple[np.ndarray, np.ndarray]:
    """T_k(u) per distinct transverse index k (ascending), and each mode's row."""
    n_values, n_of = np.unique(n, return_inverse=True)
    return np.array([transverse_profile(int(k), u) for k in n_values]), n_of


@dataclass(frozen=True)
class _Discretisation:
    """Basis labels, transverse rows and quadrature fields shared by
    assembly and residuals; the longitudinal factor tables wait for their
    first read."""

    params: StripParams
    grid: QuadratureGrid
    m: np.ndarray            # (N,) signed harmonic of each basis function
    n: np.ndarray            # (N,) transverse index of each basis function
    transverse: np.ndarray   # (distinct n, m_u) T_n on the u nodes, n ascending
    n_of: np.ndarray         # (N,) row of ``transverse`` holding T_{n_j}
    sectors: tuple[np.ndarray, ...]  # basis rows with m >= 0, then m < 0 (non-empty)
    weights: np.ndarray      # (m_s, m_u)
    fa: np.ndarray           # (m_s, m_u)
    d_s_fa: np.ndarray       # (m_s, m_u) d1 fa
    potential: np.ndarray    # (m_s, m_u)
    transverse_diag: np.ndarray  # (N,) (n pi / 2)^2 / a^2
    rates_sq: np.ndarray     # (N,) (m / 2R)^2

    @functools.cached_property
    def factors(self) -> _Factors:
        """Factor tables of the basis on the quadrature nodes."""
        return _sample_factors(self.m, self.n, self.params, self.grid.s_nodes, self.grid.u_nodes)


def _discretise(config: GalerkinConfig) -> _Discretisation:
    params = config.params
    require_capacity(config.n_basis)  # bounds N before the basis is enumerated
    m, n = _basis_arrays(params, config.n_basis, config.close_pairs)
    m_s = config.m_s if config.m_s is not None else 2 * int(np.abs(m).max()) + 32
    m_u = config.m_u if config.m_u is not None else 2 * int(n.max()) + 16
    require_capacity(m.size, m_s, m_u, np.count_nonzero(np.bincount(n)))
    grid = QuadratureGrid.for_strip(params, m_s, m_u)

    ss = grid.s_nodes[:, None]
    uu = grid.u_nodes[None, :]
    if config.geometry == "true_geometry":
        # one evaluation of f and its derivatives at t = a u feeds all three
        derivatives = _f_with_derivatives(params, ss, params.a * uu)
        fa, d_s_fa = derivatives[:2]
        potential = _potential_from(*derivatives)
    else:
        fa = np.ones((m_s, m_u))
        d_s_fa = np.zeros((m_s, m_u))
        if config.geometry == "flat_with_Veff":
            potential = np.broadcast_to(potential_veff(params, ss), (m_s, m_u))
        else:  # flat_plain
            potential = np.zeros((m_s, m_u))

    cosine = m >= 0
    transverse, n_of = _transverse_rows(n, grid.u_nodes)
    return _Discretisation(
        params=params,
        grid=grid,
        m=m,
        n=n,
        transverse=transverse,
        n_of=n_of,
        sectors=tuple(np.flatnonzero(mask) for mask in (cosine, ~cosine) if mask.any()),
        weights=grid.weights_2d,
        fa=fa,
        d_s_fa=d_s_fa,
        potential=potential,
        transverse_diag=_pow2(n * np.pi / 2.0) / params.a**2,
        rates_sq=_pow2(m / (2.0 * params.R)),
    )


@functools.lru_cache(maxsize=_CACHED_PAIR_TABLES)
def _pair_table(n_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs q = (n, n') of ``n_count`` transverse rows with n <= n', as
    ``np.triu_indices``, and the table of q at (n, n') and (n', n).  Made
    once per ``n_count`` and shared read-only."""
    low, high = np.triu_indices(n_count)
    pair = np.empty((n_count, n_count), dtype=np.intp)
    pair[low, high] = pair[high, low] = np.arange(low.size)
    for table in (low, high, pair):
        table.flags.writeable = False
    return low, high, pair


def _kernel_spectra(disc: _Discretisation, top: int, *fields):
    """Cosine sums of the u-contracted kernels, one per field.

    K_q(s) = sum_u field(s, u) T_n(u) T_n'(u) for each pair q = (n, n') of
    distinct transverse indices with n <= n', and C[i, p, q] =
    sum_k K_q(s_k) cos(pi p k / m_s) for p = 0..``top``: the real part of
    the kernel's FFT zero-padded to 2 m_s, read at p folded into [0, m_s]
    modulo 2 m_s.  Returns C and the table of q at (n, n') and (n', n).
    """
    low, high, pair = _pair_table(disc.transverse.shape[0])
    products = disc.transverse[low] * disc.transverse[high]  # (pairs, m_u)
    kernels = np.stack(fields) @ products.T                   # (fields, m_s, pairs)
    m_s = kernels.shape[1]
    p = np.arange(top + 1) % (2 * m_s)
    spectra = np.fft.rfft(kernels, n=2 * m_s, axis=1).real[:, np.minimum(p, 2 * m_s - p)]
    return spectra, pair


def _project(disc: _Discretisation) -> list[np.ndarray]:
    """The matrix restricted to each sector, in the order of ``disc.sectors``.

    Each block is one gather from the kernel spectra at the difference
    and sum frequencies (module docstring), with the kernel of the pair
    (min(n_j, n_k), max(n_j, n_k)), so it is exactly symmetric, plus the
    transverse kinetic term on its diagonal.  Cross-sector entries are
    never computed: the matrix is exactly zero outside these blocks.
    """
    R = disc.params.R
    harmonic = np.abs(disc.m)
    rate = harmonic / (2.0 * R)
    amp = np.where(harmonic == 0, 1.0 / np.sqrt(2.0 * np.pi * R), 1.0 / np.sqrt(np.pi * R))
    spectra, pair = _kernel_spectra(
        disc, 2 * int(harmonic.max()),
        disc.weights / (disc.fa * disc.fa), disc.weights * disc.potential,
    )
    n_pairs = spectra.shape[-1]
    flat = spectra.reshape(2, -1)  # C[i, p, q] at p n_pairs + q
    blocks = []
    for rows in disc.sectors:
        sign = 1.0 if disc.m[rows[0]] >= 0 else -1.0
        h, t = harmonic[rows], disc.n_of[rows]
        kernel = pair[np.ix_(t, t)]
        slope_diff, value_diff = flat.take(np.abs(np.subtract.outer(h, h)) * n_pairs + kernel, 1)
        slope_sum, value_sum = flat.take(np.add.outer(h, h) * n_pairs + kernel, 1)
        block = (0.5 * np.outer(amp[rows], amp[rows])) * (
            (value_diff + sign * value_sum)
            + np.outer(rate[rows], rate[rows]) * (slope_diff - sign * slope_sum)
        )
        block.flat[::rows.size + 1] += disc.transverse_diag[rows]
        blocks.append(block)
    return blocks


def assemble(config: GalerkinConfig) -> SymmetricMatrix:
    """Projection matrix of L onto the flat basis in basis order, the sector
    blocks scattered into zeros; symmetric by storage."""
    disc = _discretise(config)
    dense = np.zeros((disc.m.size,) * 2)
    for rows, block in zip(disc.sectors, _project(disc)):
        dense[np.ix_(rows, rows)] = block
    return SymmetricMatrix.from_dense(dense)


def _residual_norms(
    disc: _Discretisation, eigenvalues: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """Strong-form residual norms of the eigenpairs.

    With L Psi_j expanded analytically,

        L Psi_j = 2 (d1 fa / fa^3) d1 Psi_j + (m_j/2R)^2 Psi_j / fa^2
                  + (1/a^2)(n_j pi/2)^2 Psi_j + V Psi_j,

    the k-th residual field sum_j c_jk (L Psi_j - lambda_k Psi_j) is a sum
    over n and four terms of a longitudinal row (C^T L', C^T (m/2R)^2 L,
    C^T L, lambda C^T L) times an (m_s, m_u) field times T_n(u).  Batched
    products over blocks of s nodes add the terms up.
    """
    factors = disc.factors
    inv_f_sq = 1.0 / (disc.fa * disc.fa)
    drift = 2.0 * disc.d_s_fa / disc.fa**3
    rows_terms, field_terms = [], []  # (K, m_s) and (m_s, m_u) per term
    for n, rows in factors.by_n(np.arange(disc.m.size)):
        coeffs = coefficients[rows].T
        psi = coeffs @ factors.longitudinal[rows]
        chi = factors.transverse[n]
        rows_terms += [
            coeffs @ factors.slope[rows],
            coeffs @ (disc.rates_sq[rows, None] * factors.longitudinal[rows]),
            psi,
            eigenvalues[:, None] * psi,
        ]
        field_terms += [
            drift * chi,
            inv_f_sq * chi,
            (disc.potential + disc.transverse_diag[rows[0]]) * chi,
            np.broadcast_to(-chi, inv_f_sq.shape),
        ]
    # (m_s, K, terms) @ (m_s, terms, m_u) gives the residual fields, formed
    # a block of s nodes at a time so that no (m_s, K, m_u) array is held
    rows_s = np.stack(rows_terms).transpose(2, 1, 0)
    fields_s = np.stack(field_terms).transpose(1, 0, 2)
    squared = np.zeros(rows_s.shape[1])
    for lo in range(0, rows_s.shape[0], _S_BLOCK):
        block = rows_s[lo:lo + _S_BLOCK] @ fields_s[lo:lo + _S_BLOCK]
        block *= block
        squared += (block @ disc.weights[lo:lo + _S_BLOCK, :, None]).sum(axis=0)[:, 0]
    return np.sqrt(squared)


def solve(config: GalerkinConfig) -> GalerkinSolution:
    """Diagonalise the sector blocks laid on the diagonal of one matrix.

    Every coefficient column is exactly zero off its sector; coefficient
    rows come back in basis order.  Residual norms wait for their first read.
    """
    disc = _discretise(config)
    order = np.concatenate(disc.sectors)
    blocked = np.zeros((order.size,) * 2)
    lo = 0
    for block in _project(disc):
        hi = lo + block.shape[0]
        blocked[lo:hi, lo:hi] = block
        lo = hi
    decomp = eig_dense_symmetric(blocked)
    coefficients = np.empty_like(decomp.eigenvectors)
    coefficients[order] = decomp.eigenvectors
    return GalerkinSolution(
        config=config,
        eigenvalues=decomp.eigenvalues,
        coefficients=coefficients,
        _disc=disc,
    )


def residual_norm(solution: GalerkinSolution, k: int) -> float:
    """Strong-form residual of the k-th (1-indexed) eigenpair."""
    if not (1 <= k <= solution.eigenvalues.size):
        raise InputError(
            f"k must be in [1, {solution.eigenvalues.size}], got {k}"
        )
    return float(solution.residual_norms[k - 1])


@dataclass(frozen=True)
class EffectiveExpansion:
    """Effective eigenfunctions expanded over a flat Galerkin basis.

    ``values[i]`` is the i-th effective eigenvalue, ascending as in
    ``effective_spectrum``; ``coefficients[:, i]`` holds the expansion of
    its eigenfunction; ``truncations[i]`` is 1 - ||expansion||^2, the
    squared norm escaping the basis.
    """

    values: np.ndarray
    coefficients: np.ndarray
    truncations: np.ndarray


def effective_in_basis(
    config: GalerkinConfig, count: int, q: float = DEFAULT_Q
) -> EffectiveExpansion:
    """Expand the first ``count`` effective eigenfunctions in the flat basis.

    The Mathieu Fourier harmonics at eta = s/2R are exactly the flat
    longitudinal functions, so the expansion is exact up to truncation:
    the symmetrised recurrence eigenvector component on harmonic j lands on
    the flat mode (+/-j, n) of the same trigonometric type.  A truncation
    above 1e-6 (less than 99.9999 percent of the norm captured) raises
    ``CapacityError``.
    """
    m, n = _basis_arrays(config.params, config.n_basis, config.close_pairs)
    # basis position of the flat mode (m, n) at position[m + top, n], -1 if absent
    top = int(np.abs(m).max())
    position = np.full((2 * top + 1, int(n.max()) + 1), -1)
    position[m + top, n] = np.arange(m.size)
    sine, order, n_eff, value, _ = _effective_modes(config.params, count, q)
    coeffs = np.zeros((m.size, count))
    truncations = np.empty(count)
    modes = zip(sine[:count].tolist(), order[:count].tolist(), n_eff[:count].tolist())
    for i, (is_sine, mode_m, mode_n) in enumerate(modes):
        kind = "se" if is_sine else "ce"
        char = mathieu.fourier_coefficients(kind, mode_m, q)
        # back to the unit-norm symmetrised vector (constant harmonic carries sqrt(2))
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
        # accumulated in harmonic order, one square at a time
        captured = np.cumsum(weights[found] ** 2)[-1] if found.any() else 0.0
        leaked = 1.0 - captured
        # below summation roundoff the deficit carries no information
        truncations[i] = leaked if leaked > 1e-14 else 0.0
        if truncations[i] > 1e-6:
            family = FAMILY_EFF_SE if is_sine else FAMILY_EFF_CE
            raise CapacityError(
                f"basis of size {m.size} captures only "
                f"{1.0 - truncations[i]:.9f} of effective mode "
                f"({family}, m={mode_m}, n={mode_n})"
            )
    return EffectiveExpansion(
        values=value[:count], coefficients=coeffs, truncations=truncations
    )
