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

The basis Psi_j(s, u) = L_{m_j}(s) T_{n_j}(u) is kept in factor form: rows
L_m and L'_m on the s nodes per mode, one row T_n on the u nodes per
distinct n, and the (m_s, m_u) fields w, fa, d1 fa and V.  The integrals
are sum-factorised, contracting the u-quadrature first,

    A_nn'(s) = sum_u w T_n T_n' / fa^2,    B_nn'(s) = sum_u w V T_n T_n',

so that each (n, n') block costs two products of longitudinal rows and no
N x (m_s m_u) table is ever formed.

The strip is symmetric under the reflection s -> -s, so cosine modes
(m >= 0) and sine modes (m < 0) decouple exactly.  Cross-sector blocks are
never computed and are exactly zero.  ``solve`` diagonalises the matrix
with the basis listed sector by sector, which makes it block diagonal, so
every coefficient column vanishes exactly off its sector and rounding
cannot mix a nearly degenerate cosine/sine pair.

Its ascending eigenvalues are variational upper bounds on the true
spectrum, non-increasing as the basis grows.  Residual norms
|| L f_k - lambda_k f_k ||_{L2(Pi)} are evaluated in strong form, with
L Psi_j expanded analytically through the closed-form derivatives of fa
and summed per n from the coefficient-weighted longitudinal rows.

Geometry overrides support the oracle runs: ``flat_plain`` (fa = 1, V = 0)
must produce an exactly diagonal matrix, and ``flat_with_Veff`` (fa = 1,
V = potential_veff) must reproduce the closed-form effective spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mathieu
from .errors import CapacityError, InputError
from .geometry import StripParams, jacobian_f, jacobian_f_derivatives, potential_va, potential_veff
from .linalg import EigenDecomposition, SymmetricMatrix, eig_dense_symmetric
from .models import (
    FAMILY_EFF_CE,
    DEFAULT_Q,
    ModeIndex,
    Spectrum,
    effective_spectrum,
    fake_longitudinal,
    fake_spectrum,
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
    "eigenpairs",
    "solve",
    "largest_array_bytes",
    "require_capacity",
    "residual_norm",
    "effective_in_basis",
]

GEOMETRY_CHOICES = ("true_geometry", "flat_with_Veff", "flat_plain")

# Cap on the largest array of one run, 512 MiB: a larger basis, quadrature
# or export grid is refused with CapacityError before anything is built.
MAX_ARRAY_BYTES = 1 << 29
# Peak memory per exported grid point (one CLI row with its 3-space point
# and text), measured at about 730 B between 384x260 and 768x260 grids.
EXPORT_POINT_BYTES = 1024
# s nodes per block of residual fields: a 16 x N x m_u block stays in cache,
# where one (m_s, N, m_u) array took three times as long at N = 96
_S_BLOCK = 16


@dataclass(frozen=True)
class GalerkinConfig:
    """Parameters of one projection run.

    ``n_basis`` counts basis functions, ordered by ascending flat
    eigenvalue with ties broken (harmonic ascending, cosine before sine,
    n ascending).  ``m_s``/``m_u`` override the quadrature orders, which
    default to 4 * max harmonic + 32 and 2 * max transverse index + 16.
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
    L2 residual of the k-th eigenpair.
    """

    config: GalerkinConfig
    basis: tuple[ModeIndex, ...]
    matrix: SymmetricMatrix
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    residual_norms: np.ndarray

    def eigenfunction_values(self, k: int, s, u) -> np.ndarray:
        """Evaluate the k-th (1-indexed) eigenfunction on a tensor grid."""
        if not (1 <= k <= len(self.basis)):
            raise InputError(f"k must be in [1, {len(self.basis)}], got {k}")
        s = np.atleast_1d(np.asarray(s, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        factors = _sample_factors(self.basis, self.config.params, s, u)
        coeffs = self.coefficients[:, k - 1]
        return sum(
            np.outer(coeffs[pos] @ factors.longitudinal[pos], factors.transverse[n])
            for n, pos in factors.by_n(np.arange(len(self.basis)))
        )


def basis_modes(params: StripParams, n_basis: int, close_pairs: bool = False) -> list[ModeIndex]:
    """First ``n_basis`` flat modes, ascending eigenvalue, deterministic ties."""
    spectrum = fake_spectrum(params, n_basis + 1)
    flat: list[tuple[float, ModeIndex]] = []
    for entry in spectrum.entries:
        ordered = sorted(entry.modes, key=lambda md: (md.harmonic, md.m < 0, md.n))
        flat.extend((entry.value, md) for md in ordered)
    modes = [md for _, md in flat[:n_basis]]
    if close_pairs and modes:
        last = modes[-1]
        if last.m != 0 and not any(
            md.m == -last.m and md.n == last.n for md in modes
        ):
            modes.append(flat[n_basis][1])
    return modes


def largest_array_bytes(
    n_basis: int = 0, m_s: int = 0, m_u: int = 0, n_count: int = 0, export_points: int = 0
) -> int:
    """Estimated bytes of the largest array one run allocates.

    That is the N x N projection matrix, the residual terms (four per
    distinct transverse index, ``n_count`` of them, each with N x m_s
    longitudinal and m_s x m_u quadrature values, which bound the factor
    tables and fields too), or the rows of an eigenfunction export of
    ``export_points`` grid samples.
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
        return [(int(n), np.flatnonzero(n_rows == n)) for n in np.unique(n_rows)]


def _sample_factors(modes, params: StripParams, s, u) -> _Factors:
    """Factor tables of the flat basis: one longitudinal evaluation per
    distinct m and one transverse evaluation per distinct n."""
    m_values, m_of = np.unique([md.m for md in modes], return_inverse=True)
    n_values, n_of = np.unique([md.n for md in modes], return_inverse=True)

    def longitudinal(derivative):
        rows = [fake_longitudinal(int(m), params, s, derivative) for m in m_values]
        return np.array(rows)[m_of]

    return _Factors(
        longitudinal=longitudinal(0),
        slope=longitudinal(1),
        transverse=np.array([transverse_profile(int(n), u) for n in n_values]),
        n_of=n_of,
    )


@dataclass(frozen=True)
class _Discretisation:
    """Factor tables and quadrature fields shared by assembly and residuals."""

    grid: QuadratureGrid
    basis: tuple[ModeIndex, ...]
    factors: _Factors        # on the quadrature nodes
    sectors: tuple[np.ndarray, ...]  # basis rows with m >= 0, then m < 0 (non-empty)
    weights: np.ndarray      # (m_s, m_u)
    fa: np.ndarray           # (m_s, m_u)
    d_s_fa: np.ndarray       # (m_s, m_u) d1 fa
    potential: np.ndarray    # (m_s, m_u)
    transverse_diag: np.ndarray  # (N,) (n pi / 2)^2 / a^2
    rates_sq: np.ndarray     # (N,) (m / 2R)^2


def _discretise(config: GalerkinConfig) -> _Discretisation:
    params = config.params
    require_capacity(config.n_basis)  # bounds N before the basis is enumerated
    modes = basis_modes(params, config.n_basis, config.close_pairs)
    max_harmonic = max(md.harmonic for md in modes)
    max_n = max(md.n for md in modes)
    m_s = config.m_s if config.m_s is not None else 4 * max_harmonic + 32
    m_u = config.m_u if config.m_u is not None else 2 * max_n + 16
    require_capacity(len(modes), m_s, m_u, len({md.n for md in modes}))
    grid = QuadratureGrid.for_strip(params, m_s, m_u)

    s, u = grid.s_nodes, grid.u_nodes
    ss = s[:, None]
    uu = u[None, :]
    if config.geometry == "true_geometry":
        t = params.a * uu
        fa = jacobian_f(params, ss, t)
        d_s_fa = jacobian_f_derivatives(params, ss, t)[0]
        potential = potential_va(params, ss, uu)
    else:
        fa = np.ones((m_s, m_u))
        d_s_fa = np.zeros((m_s, m_u))
        if config.geometry == "flat_with_Veff":
            potential = np.broadcast_to(potential_veff(params, ss), (m_s, m_u))
        else:  # flat_plain
            potential = np.zeros((m_s, m_u))

    cosine = np.array([md.m >= 0 for md in modes])
    return _Discretisation(
        grid=grid,
        basis=tuple(modes),
        factors=_sample_factors(modes, params, s, u),
        sectors=tuple(np.flatnonzero(mask) for mask in (cosine, ~cosine) if mask.any()),
        weights=grid.weights_2d,
        fa=fa,
        d_s_fa=d_s_fa,
        potential=potential,
        transverse_diag=np.array(
            [(md.n * np.pi / 2.0) ** 2 / params.a**2 for md in modes]
        ),
        rates_sq=np.array([(md.m / (2.0 * params.R)) ** 2 for md in modes]),
    )


def _project(disc: _Discretisation, *terms) -> np.ndarray:
    """Sum over ``terms`` (field, table) of the quadratures
    sum_{s,u} field(s, u) X_j(s) X_k(s) T_{n_j}(u) T_{n_k}(u), X = table rows.

    The u-sum is contracted first, K_nn'(s) = sum_u field T_n T_n'; each
    same-sector (n, n') block is then one product of longitudinal rows per
    term.  Cross-sector entries are never computed and stay exactly 0.
    """
    transverse = disc.factors.transverse
    kernels = [
        ((field[:, None, :] * transverse) @ transverse.T, table)  # (m_s, n, n')
        for field, table in terms
    ]
    out = np.zeros((len(disc.basis),) * 2)
    for rows in disc.sectors:
        groups = [(n, rows[pos]) for n, pos in disc.factors.by_n(rows)]
        for i, (n, left) in enumerate(groups):
            for n2, right in groups[i:]:
                block = sum(
                    (table[left] * kernel[:, n, n2]) @ table[right].T
                    for kernel, table in kernels
                )
                if n == n2:
                    # averaged rather than read from one triangle: the
                    # eigenvectors of near-degenerate pairs follow this rounding
                    out[np.ix_(left, left)] = 0.5 * (block + block.T)
                else:
                    out[np.ix_(left, right)] = block
                    out[np.ix_(right, left)] = block.T
    return out


def _assemble_dense(disc: _Discretisation) -> np.ndarray:
    dense = _project(
        disc,
        (disc.weights / (disc.fa * disc.fa), disc.factors.slope),
        (disc.weights * disc.potential, disc.factors.longitudinal),
    )
    dense[np.diag_indices_from(dense)] += disc.transverse_diag
    return dense


def assemble(config: GalerkinConfig) -> SymmetricMatrix:
    """Projection matrix of L onto the flat basis, symmetric by storage."""
    return SymmetricMatrix.from_dense(_assemble_dense(_discretise(config)))


def _sector_eigenpairs(disc: _Discretisation, dense: np.ndarray) -> EigenDecomposition:
    """Eigenpairs of ``dense``, diagonalised with the basis in sector order.

    Listing the cosine rows before the sine rows makes the matrix block
    diagonal with exactly zero off-diagonal blocks.  The Householder
    reduction then never couples the two blocks and the tridiagonal form
    splits between them, so every eigenvector is exactly zero off its
    sector.  Eigenvector rows are returned in basis order.
    """
    order = np.concatenate(disc.sectors)
    decomp = eig_dense_symmetric(dense[np.ix_(order, order)])
    coefficients = np.empty_like(decomp.eigenvectors)
    coefficients[order] = decomp.eigenvectors
    return EigenDecomposition(decomp.eigenvalues, coefficients)


def eigenpairs(config: GalerkinConfig) -> EigenDecomposition:
    """Ascending eigenpairs of the projection matrix, sector by sector.

    Each coefficient column is exactly zero off its sector.  This is
    ``solve`` without the strong-form residuals.
    """
    disc = _discretise(config)
    return _sector_eigenpairs(disc, _assemble_dense(disc))


def _residual_norms(disc: _Discretisation, decomp: EigenDecomposition) -> np.ndarray:
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
    for n, rows in factors.by_n(np.arange(len(disc.basis))):
        coeffs = decomp.eigenvectors[rows].T
        psi = coeffs @ factors.longitudinal[rows]
        chi = factors.transverse[n]
        rows_terms += [
            coeffs @ factors.slope[rows],
            coeffs @ (disc.rates_sq[rows, None] * factors.longitudinal[rows]),
            psi,
            decomp.eigenvalues[:, None] * psi,
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
    """Assemble, diagonalise in sector order, attach strong-form residual norms."""
    disc = _discretise(config)
    dense = _assemble_dense(disc)
    decomp = _sector_eigenpairs(disc, dense)
    return GalerkinSolution(
        config=config,
        basis=disc.basis,
        matrix=SymmetricMatrix.from_dense(dense),
        eigenvalues=decomp.eigenvalues,
        coefficients=decomp.eigenvectors,
        residual_norms=_residual_norms(disc, decomp),
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

    ``coefficients[:, i]`` holds the expansion of the i-th effective
    eigenfunction; ``truncations[i]`` is 1 - ||expansion||^2, the squared
    norm escaping the basis.
    """

    spectrum: Spectrum
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
    modes = basis_modes(config.params, config.n_basis, config.close_pairs)
    position = {(md.m, md.n): idx for idx, md in enumerate(modes)}
    spectrum = effective_spectrum(config.params, count, q=q)
    flattened = spectrum.flattened(count)
    coeffs = np.zeros((len(modes), count))
    truncations = np.empty(count)
    for i, (_, mode, _) in enumerate(flattened):
        kind = "ce" if mode.family == FAMILY_EFF_CE else "se"
        char = mathieu.fourier_coefficients(kind, mode.m, q)
        # back to the unit-norm symmetrised vector (constant harmonic carries sqrt(2))
        weights = char.fourier.copy()
        if char.harmonics[0] == 0:
            weights[0] *= np.sqrt(2.0)
        captured = 0.0
        for harmonic, weight in zip(char.harmonics, weights):
            signed = int(harmonic) if kind == "ce" else -int(harmonic)
            idx = position.get((signed, mode.n))
            if idx is not None:
                coeffs[idx, i] = weight
                captured += weight * weight
        leaked = 1.0 - captured
        # below summation roundoff the deficit carries no information
        truncations[i] = leaked if leaked > 1e-14 else 0.0
        if truncations[i] > 1e-6:
            raise CapacityError(
                f"basis of size {len(modes)} captures only "
                f"{1.0 - truncations[i]:.9f} of effective mode "
                f"({mode.family}, m={mode.m}, n={mode.n})"
            )
    return EffectiveExpansion(
        spectrum=spectrum, coefficients=coeffs, truncations=truncations
    )
