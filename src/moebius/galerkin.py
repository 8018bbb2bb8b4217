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

Its ascending eigenvalues are variational upper bounds on the true
spectrum, non-increasing as the basis grows.  Residual norms
|| L f_k - lambda_k f_k ||_{L2(Pi)} are evaluated in strong form, with
L Psi_j expanded analytically through the closed-form derivatives of fa.

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
    "basis_modes",
    "assemble",
    "solve",
    "residual_norm",
    "effective_in_basis",
]

GEOMETRY_CHOICES = ("true_geometry", "flat_with_Veff", "flat_plain")


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
        table = _sample_basis(self.basis, self.config.params, s, u)
        return np.tensordot(self.coefficients[:, k - 1], table, axes=1)


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


def _sample_basis(modes, params: StripParams, s, u, derivative: int = 0) -> np.ndarray:
    """Flat basis Psi_j(s, u) = L_m(s) T_n(u) (or d1 Psi_j) on the grid s x u.

    One longitudinal factor per distinct m and one transverse factor per
    distinct n are evaluated; the (N, |s|, |u|) products come from
    broadcasting them.
    """
    m_values, m_of = np.unique([md.m for md in modes], return_inverse=True)
    n_values, n_of = np.unique([md.n for md in modes], return_inverse=True)
    longitudinal = np.array(
        [fake_longitudinal(int(m), params, s, derivative) for m in m_values]
    )
    transverse = np.array([transverse_profile(int(n), u) for n in n_values])
    return longitudinal[m_of][:, :, None] * transverse[n_of][:, None, :]


@dataclass(frozen=True)
class _Discretisation:
    """Grid samples shared by assembly and residual evaluation."""

    grid: QuadratureGrid
    basis: tuple[ModeIndex, ...]
    values: np.ndarray       # (N, P) basis values, P = m_s * m_u
    d_s: np.ndarray          # (N, P) longitudinal derivatives
    weights: np.ndarray      # (P,)
    inv_f_sq: np.ndarray     # (P,) 1 / fa^2
    d_s_fa: np.ndarray       # (P,) d1 fa
    fa: np.ndarray           # (P,)
    potential: np.ndarray    # (P,)
    transverse_diag: np.ndarray  # (N,) (n pi / 2)^2 / a^2
    rates_sq: np.ndarray     # (N,) (m / 2R)^2


def _discretise(config: GalerkinConfig) -> _Discretisation:
    params = config.params
    modes = basis_modes(params, config.n_basis, config.close_pairs)
    max_harmonic = max(md.harmonic for md in modes)
    max_n = max(md.n for md in modes)
    m_s = config.m_s if config.m_s is not None else 4 * max_harmonic + 32
    m_u = config.m_u if config.m_u is not None else 2 * max_n + 16
    grid = QuadratureGrid.for_strip(params, m_s, m_u)

    s, u = grid.s_nodes, grid.u_nodes
    values = _sample_basis(modes, params, s, u).reshape(len(modes), -1)
    d_s = _sample_basis(modes, params, s, u, derivative=1).reshape(len(modes), -1)

    ss = s[:, None]
    uu = u[None, :]
    if config.geometry == "true_geometry":
        t = params.a * uu
        fa = jacobian_f(params, ss, t).ravel()
        d_s_fa = jacobian_f_derivatives(params, ss, t)[0].ravel()
        potential = potential_va(params, ss, uu).ravel()
    elif config.geometry == "flat_with_Veff":
        fa = np.ones(m_s * m_u)
        d_s_fa = np.zeros(m_s * m_u)
        potential = np.broadcast_to(
            potential_veff(params, ss), (m_s, m_u)
        ).ravel().copy()
    else:  # flat_plain
        fa = np.ones(m_s * m_u)
        d_s_fa = np.zeros(m_s * m_u)
        potential = np.zeros(m_s * m_u)

    return _Discretisation(
        grid=grid,
        basis=tuple(modes),
        values=values,
        d_s=d_s,
        weights=grid.weights_2d.ravel(),
        inv_f_sq=1.0 / (fa * fa),
        d_s_fa=d_s_fa,
        fa=fa,
        potential=potential,
        transverse_diag=np.array(
            [(md.n * np.pi / 2.0) ** 2 / params.a**2 for md in modes]
        ),
        rates_sq=np.array([(md.m / (2.0 * params.R)) ** 2 for md in modes]),
    )


def _assemble_dense(disc: _Discretisation) -> np.ndarray:
    w_kin = disc.weights * disc.inv_f_sq
    w_pot = disc.weights * disc.potential
    dense = (disc.d_s * w_kin) @ disc.d_s.T + (disc.values * w_pot) @ disc.values.T
    # averaged rather than read from one triangle: the eigenvectors of
    # near-degenerate pairs, and so their residuals, follow this rounding
    dense = 0.5 * (dense + dense.T)
    dense[np.diag_indices_from(dense)] += disc.transverse_diag
    return dense


def assemble(config: GalerkinConfig) -> SymmetricMatrix:
    """Projection matrix of L onto the flat basis, symmetric by storage."""
    return SymmetricMatrix.from_dense(_assemble_dense(_discretise(config)))


def _apply_operator(disc: _Discretisation) -> np.ndarray:
    """Rows L Psi_j sampled on the grid, expanded analytically:

    L Psi_j = 2 (d1 fa / fa^3) d1 Psi_j + (m_j/2R)^2 Psi_j / fa^2
              + (1/a^2)(n_j pi/2)^2 Psi_j + V Psi_j.
    """
    kin_s = (2.0 * disc.d_s_fa / disc.fa**3) * disc.d_s
    kin_s += (disc.rates_sq[:, None] * disc.values) * disc.inv_f_sq
    return kin_s + disc.transverse_diag[:, None] * disc.values + disc.potential * disc.values


def solve(config: GalerkinConfig) -> GalerkinSolution:
    """Assemble, diagonalise and attach strong-form residual norms."""
    disc = _discretise(config)
    matrix = SymmetricMatrix.from_dense(_assemble_dense(disc))
    decomp: EigenDecomposition = eig_dense_symmetric(matrix, want_vectors=True)
    operator_rows = _apply_operator(disc)
    # residual_k = || sum_j c_jk (L Psi_j) - lambda_k sum_j c_jk Psi_j ||
    applied = decomp.eigenvectors.T @ operator_rows
    reconstructed = decomp.eigenvectors.T @ disc.values
    residual_fields = applied - decomp.eigenvalues[:, None] * reconstructed
    residual_norms = np.sqrt((residual_fields**2 * disc.weights).sum(axis=1))
    return GalerkinSolution(
        config=config,
        basis=disc.basis,
        matrix=matrix,
        eigenvalues=decomp.eigenvalues,
        coefficients=decomp.eigenvectors,
        residual_norms=residual_norms,
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
