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

The basis is enumerated as two integer arrays (m_j, n_j), in the order
of ``basis_modes``, a sweep chunk's all at once (``_bases``), with its
effective modes expanded over them (``_expansions``); ``ModeIndex``
labels are made only on request.  Psi_j(s, u) = L_{m_j}(s) T_{n_j}(u) with
L_m = a_m cos(mu s) (m >= 0) or a_m sin(mu s) (m < 0), mu = |m| / 2R,
a_m = 1/sqrt(pi R) (1/sqrt(2 pi R) at m = 0).  The fields come from
g = fa^2: one evaluation of g and its derivatives on the s nodes
k = 0..m_s // 2 gives g and V with no square root, and the mirror
f(2 pi R - s, t) = f(s, -t) fills the other nodes (``_fields``); only a
single configuration's residuals take fa = sqrt(g) and d1 fa.  The
integrals contract the u-quadrature first,

    A_nn'(s) = sum_u w T_n T_n' / g,    B_nn'(s) = sum_u w V T_n T_n',

and the s-sums of products of two trigonometric rows are Fourier
coefficients of these kernels: with s_k = 2 pi R k / m_s and
C^(p) = sum_k C(s_k) cos(pi p k / m_s), taken for p = 0..m_s from one real
FFT per kernel, the cosine sector reads

    M_jk = 1/2 a_j a_k [B^(|h_j - h_k|) + B^(h_j + h_k)]
           + 1/2 a_j a_k mu_j mu_k [A^(|h_j - h_k|) - A^(h_j + h_k)],

h = |m|, and the sine sector flips the sign of both sum-frequency terms.
A frequency p is folded into [0, m_s] modulo 2 m_s, so an ``m_s`` below
twice the largest harmonic aliases exactly as the trapezoid sum does.
The default m_s = 2 h_max + 32 resolves the integrands, whose harmonics
reach 2 h_max + J (J the bandwidth of the kernels in s) and alias only at
2 m_s.  The kernels are read at (min(n_j, n_k), max(n_j, n_k)), so the
matrix is exactly symmetric by construction, and no longitudinal table
is sampled for assembly.

The strip is symmetric under the reflection s -> -s, so cosine modes
(m >= 0) and sine modes (m < 0) decouple exactly; cross-sector blocks are
never computed and are exactly zero.  ``_project`` projects a list of
configurations in one pass: one kernel-spectra array spans their points
and transverse indices, the points that share quadrature orders fill
their rows of it from one field evaluation, one kernel product and one
FFT, and the points whose sectors have equal sizes take one gather per
sector, indexed per point (``_sector_blocks``).  A sweep passes a chunk
of half-widths, ``solve`` and ``assemble`` one configuration.  ``solve``
lays the blocks on the diagonal of one matrix over the basis listed
sector by sector, so every coefficient column vanishes exactly off its
sector; ``assemble`` scatters them straight into a matrix in basis order.
Before building anything, ``_project`` charges each step's arrays to
``models.require_bytes`` from their shapes.

Its ascending eigenvalues are variational upper bounds on the true
spectrum, non-increasing as the basis grows.  Residual norms
|| L f_k - lambda_k f_k ||_{L2(Pi)} are evaluated in strong form when a
solution's residuals are read, from the grid and the fields fa, d1 fa
and V that its projection evaluated and the solution keeps
(``_Discretisation``), with L Psi_j expanded analytically through the
closed-form derivatives of fa and summed per n from the
coefficient-weighted longitudinal rows.  Their arrays, for the eigenpairs
read, are charged to ``models.require_bytes`` before any is built.

Geometry overrides support the oracle runs: ``flat_plain`` (fa = 1, V = 0)
must produce an exactly diagonal matrix, and ``flat_with_Veff`` (fa = 1,
V = potential_veff) must reproduce the closed-form effective spectrum.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import mathieu
from .errors import CapacityError, InputError
from .geometry import StripParams, _g_with_derivatives, _potential_from_g, potential_veff
from .linalg import SymmetricMatrix, eig_dense_symmetric
from .models import (
    FAMILY_EFF_CE,
    FAMILY_EFF_SE,
    FAMILY_FAKE,
    DEFAULT_Q,
    ModeIndex,
    _modes,
    require_bytes,
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

# Peak bytes per entry of arrays live together, traced with tracemalloc.
# The fields of a quadrature group, per (point, s node, u node): g, V and
# the derivatives of g, then the weighted fields; traced at 40-44 B
_FIELD_BYTES = 48
# Its kernels, per (point, pair of n, s node + 1): the kernels, then their
# complex FFT with a copy of its real part; traced at 48-53 B
_KERNEL_BYTES = 56
# A sector stack being gathered, per entry beyond its block (8 B, as every
# block): its two index arrays and the kinetic part; traced at 23-28 B
_GATHER_BYTES = 28
# A single configuration's N x N matrices: traced at 16 B in solve (matrix
# and eigenvectors, then eigenvectors and coefficients), 24 B in assemble
_MATRIX_BYTES = 32
# An eigenfunction sampled on an export grid, per (basis function, s node):
# the longitudinal factor table of the basis and the harmonics' cosines
# and sines, then a gather of the rows of one n; traced at 16-28 B.  Beside
# them come the transverse rows, 16 B per (distinct n, u node), and the
# per-n products and their sum, 24 B per grid point
_SAMPLE_BYTES = 32
# Largest transverse energy (n pi / 2a)^2 of a Galerkin solve: residual
# fields of its size are squared, and a sweep's gaps, of its roundoff, are
# divided by a^2, which past about 1e154 overflows
_LARGEST_DIAGONAL = 1e150
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
    would orphan half of a +/-m pair; an orphaned partner artificially
    splits the degenerate pair, which the convergence sweeps cannot
    tolerate.
    """

    params: StripParams
    n_basis: int
    m_s: int | None = None
    m_u: int | None = None
    geometry: str = "true_geometry"
    close_pairs: bool = False

    def __post_init__(self):
        if not isinstance(self.n_basis, (int, np.integer)):
            raise InputError(f"basis size must be an integer, got {self.n_basis!r}")
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
    the columns are orthonormal.  ``leading_residual_norms(count)`` gives
    the strong-form L2 residuals of the first ``count`` eigenpairs, computed
    when read from the quadrature fields that the projection evaluated and
    the solution keeps (a ``_Discretisation``), so callers that need only
    the eigenpairs never pay for them; each is bitwise equal to its value
    among those of all eigenpairs.
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    _discretisation: _Discretisation = field(repr=False, compare=False)

    @functools.cached_property
    def basis(self) -> tuple[ModeIndex, ...]:
        """Labels of the basis functions, in coefficient-row order."""
        return _mode_labels(self._discretisation.m, self._discretisation.n)

    def leading_residual_norms(self, count: int) -> np.ndarray:
        """The first ``count`` residual norms, computed for those eigenpairs only."""
        if not 0 <= count <= self.eigenvalues.size:
            raise InputError(f"count must be in [0, {self.eigenvalues.size}], got {count}")
        return _residual_norms(self._discretisation, self.eigenvalues, self.coefficients, count)

    def eigenfunction_values(self, k: int, s, u) -> np.ndarray:
        """Evaluate the k-th (1-indexed) eigenfunction on a tensor grid."""
        disc = self._discretisation
        if not (1 <= k <= disc.m.size):
            raise InputError(f"k must be in [1, {disc.m.size}], got {k}")
        s = np.atleast_1d(np.asarray(s, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        n_rows = np.count_nonzero(np.bincount(disc.n))
        require_bytes(
            _SAMPLE_BYTES * disc.m.size * s.size + 16 * n_rows * u.size + 24 * s.size * u.size,
            f"the basis factor tables on the {s.size}x{u.size} grid at N={disc.m.size}",
        )
        factors = _sample_factors(disc.m, disc.n, disc.params, s, u)
        coeffs = self.coefficients[:, k - 1]
        return sum(
            np.outer(coeffs[pos] @ factors.longitudinal[pos], factors.transverse[row])
            for row, pos in factors.by_n()
        )


def _bases(params, n_basis: int, close_pairs: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """(m, n) of the first ``n_basis`` flat modes as integer arrays, at each
    of ``params``, strips of one radius, from one enumeration of their flat
    modes.

    Modes come by ascending flat eigenvalue, merged entries as in
    ``fake_spectrum``, and within an entry by (harmonic, cosine before
    sine, n).  ``close_pairs`` appends the next mode when the last one is
    half of a +/-m pair whose partner was cut off.
    """
    point, sine, m, n, _, entry = _modes(params[0].R, [p.a for p in params], n_basis + 1, None)
    order = np.lexsort((n, sine, m, entry))
    point, m, n = point[order], np.where(sine, -m, m)[order], n[order]
    lo = np.searchsorted(point, np.arange(len(params)))
    size = np.full(lo.size, n_basis)
    if close_pairs and n_basis > 0:
        # a point's last mode is orphaned when no earlier mode of the point
        # is its +/-m partner
        last = lo + n_basis - 1
        partner = (m == -m[last][point]) & (n == n[last][point]) & (np.arange(m.size) < last[point])
        size += (m[last] != 0) & (np.bincount(point[partner], minlength=lo.size) == 0)
    return [(m[i:j], n[i:j]) for i, j in zip(lo.tolist(), (lo + size).tolist())]


def _mode_labels(m, n) -> tuple[ModeIndex, ...]:
    return tuple(ModeIndex(FAMILY_FAKE, mm, nn) for mm, nn in zip(m.tolist(), n.tolist()))


def basis_modes(params: StripParams, n_basis: int, close_pairs: bool = False) -> list[ModeIndex]:
    """First ``n_basis`` flat modes, ascending eigenvalue, deterministic ties."""
    return list(_mode_labels(*_bases([params], n_basis, close_pairs)[0]))


@dataclass(frozen=True)
class _Factors:
    """Flat basis Psi_j(s, u) = L_{m_j}(s) T_{n_j}(u) in factor form on s x u."""

    longitudinal: np.ndarray  # (N, |s|) L_{m_j}(s)
    slope: np.ndarray | None  # (N, |s|) d/ds L_{m_j}(s), for the residuals only
    transverse: np.ndarray    # (distinct n, |u|) T_n(u), n ascending
    n_of: np.ndarray          # (N,) row of ``transverse`` holding T_{n_j}

    def by_n(self) -> list[tuple[int, np.ndarray]]:
        """Basis positions grouped by transverse index, as (row of
        ``transverse``, positions) pairs."""
        return [(n, np.flatnonzero(self.n_of == n)) for n in range(self.transverse.shape[0])]


def _sample_factors(m, n, params: StripParams, s, u, with_slope: bool = False) -> _Factors:
    """Factor tables of the flat basis with labels (m, n), the slope table
    only ``with_slope``.

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
    up, down, constant = m > 0, m < 0, m == 0
    longitudinal[up] = (amp * cos)[h_of[up]]
    longitudinal[down] = (amp * sin)[h_of[down]]
    longitudinal[constant] = 1.0 / np.sqrt(2.0 * np.pi * R)
    slope = None
    if with_slope:
        slope = np.empty_like(longitudinal)
        slope[up] = ((-amp * rate)[:, None] * sin)[h_of[up]]
        slope[down] = ((amp * rate)[:, None] * cos)[h_of[down]]
        slope[constant] = 0.0
    n_values, n_of = np.unique(n, return_inverse=True)
    transverse = _transverse_rows(n_values, u)
    return _Factors(longitudinal=longitudinal, slope=slope, transverse=transverse, n_of=n_of)


def _transverse_rows(n_values, u) -> np.ndarray:
    """T_k(u), one row per transverse index k of ``n_values``."""
    return np.array([transverse_profile(int(k), u) for k in n_values])


@dataclass(frozen=True)
class _Discretisation:
    """Basis labels and quadrature fields of one configuration, kept from
    its projection for its strong-form residuals; the factor tables and
    diagonal terms wait for their first read."""

    params: StripParams
    grid: QuadratureGrid
    m: np.ndarray            # (N,) signed harmonic of each basis function
    n: np.ndarray            # (N,) transverse index of each basis function
    fa: np.ndarray           # (m_s, m_u) sqrt(g)
    d_s_fa: np.ndarray       # (m_s, m_u) d1 fa = d1 g / (2 fa)
    potential: np.ndarray    # (m_s, m_u)

    @functools.cached_property
    def factors(self) -> _Factors:
        """Factor tables of the basis on the quadrature nodes."""
        return _sample_factors(self.m, self.n, self.params, self.grid.s_nodes, self.grid.u_nodes,
                               with_slope=True)

    @functools.cached_property
    def transverse_diag(self) -> np.ndarray:  # (N,) (n pi / 2)^2 / a^2
        return _transverse_diag(self.n, np.array([self.params.a]))[0]

    @functools.cached_property
    def rates_sq(self) -> np.ndarray:  # (N,) (m / 2R)^2
        rate = self.m / (2.0 * self.params.R)
        return rate * rate


def _quadrature_orders(config: GalerkinConfig, m, n) -> tuple[int, int]:
    """``config``'s (m_s, m_u), or the defaults for the basis (m, n)."""
    m_s = config.m_s if config.m_s is not None else 2 * int(np.abs(m).max()) + 32
    m_u = config.m_u if config.m_u is not None else 2 * int(n.max()) + 16
    return m_s, m_u


def _fields(params: StripParams, a: np.ndarray, grid: QuadratureGrid, geometry: str):
    """g = fa^2 and V on the nodes of ``grid`` at each half-width of ``a``
    (the radius from ``params``), each of shape (a.size, m_s, m_u), and d1 g
    on the s nodes k = 0..m_s // 2, from one broadcast evaluation of g and
    its derivatives at t = a u on those nodes: the strip has
    f(2 pi R - s, t) = f(s, -t), and the u nodes come in exact +/- pairs,
    so ``_mirrored`` fills the other nodes."""
    ss = grid.s_nodes[:, None]
    m_s = ss.size
    shape = (a.size, m_s, grid.u_nodes.size)
    if geometry == "true_geometry":
        derivatives = _g_with_derivatives(params, ss[:m_s // 2 + 1], a[:, None, None] * grid.u_nodes)
        return (
            _mirrored(derivatives[0], m_s, 1.0),
            _mirrored(_potential_from_g(*derivatives), m_s, 1.0),
            derivatives[1],
        )
    g, slope = np.ones(shape), np.zeros((a.size, m_s // 2 + 1, grid.u_nodes.size))
    if geometry == "flat_with_Veff":
        return g, np.broadcast_to(potential_veff(params, ss), shape), slope
    return g, np.zeros(shape), slope  # flat_plain


def _mirrored(half: np.ndarray, m_s: int, sign: float) -> np.ndarray:
    """A field on all ``m_s`` s nodes (axis 1) from its values ``half`` on
    the nodes k = 0..m_s // 2.

    The field F has F(2 pi R - s, u) = ``sign`` F(s, -u): g and V are even
    under that mirror, d1 g is odd.  Node m_s - k takes node k with u
    reversed, times ``sign``.  At even m_s the node s = pi R is its own
    mirror, and its u < 0 half is filled from its u > 0 half, so the field
    is mirror-symmetric at every node by construction.
    """
    top = half.shape[1]
    tail = half[:, m_s - top:0:-1, ::-1]
    full = np.concatenate((half, -tail if sign < 0.0 else tail), axis=1)
    if m_s % 2 == 0:
        low = half.shape[2] // 2
        middle = full[:, top - 1]
        middle[:, :low] = sign * middle[:, :-low - 1:-1]  # exact: sign is +/-1
    return full


def _transverse_diag(n, a) -> np.ndarray:
    """(n pi / 2)^2 / a^2 per mode of ``n`` (columns) and half-width of
    ``a`` (rows), each square a product."""
    halfwave = n * np.pi / 2.0
    return halfwave * halfwave / (a * a)[:, None]


def _pair_table(n_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs q = (n, n') of ``n_count`` transverse rows with n <= n', as
    ``np.triu_indices``, and the table of q at (n, n') and (n', n)."""
    low, high = np.triu_indices(n_count)
    pair = np.empty((n_count, n_count), dtype=np.intp)
    pair[low, high] = pair[high, low] = np.arange(low.size)
    return low, high, pair


def _kernel_spectra(transverse, low, high, weights, g, potential, out):
    """Cosine sums of the u-contracted kernels, per half-width and field.

    ``g`` and ``potential`` are stacks (points, m_s, m_u) of fa^2 and V on
    the nodes, ``transverse`` holds T_n on the u nodes per distinct
    transverse index, and ``low``, ``high`` the rows of each pair
    (``_pair_table``).  K_q(s) = sum_u F(s, u) T_n(u) T_n'(u) for F = w / g
    and F = w V and each pair q = (n, n') of rows with n <= n', all formed
    by one matrix product; C[., i, p, q] = sum_k K_q(s_k) cos(pi p k / m_s)
    for p = 0..top, the real part of the kernels' one FFT zero-padded to
    2 m_s, read at p folded into [0, m_s] modulo 2 m_s, is written into
    ``out`` (points, 2, top + 1, pairs).
    """
    products = transverse[low] * transverse[high]  # (pairs, m_u)
    fields = np.empty((g.shape[0], 2) + g.shape[1:])  # (points, 2, m_s, m_u)
    np.divide(weights, g, out=fields[:, 0])
    np.multiply(weights, potential, out=fields[:, 1])
    m_s = fields.shape[2]
    kernels = (fields.reshape(-1, fields.shape[-1]) @ products.T).reshape(fields.shape[:3] + (-1,))
    spectra = np.fft.rfft(kernels, n=2 * m_s, axis=2).real
    del kernels  # take copies the real part, contiguous, in its place
    p = np.arange(out.shape[2]) % (2 * m_s)
    spectra.take(np.minimum(p, 2 * m_s - p), axis=2, out=out, mode="clip")  # "clip" is unbuffered


def _sector_blocks(spectra, pair, points, m, n_of, sectors, transverse_diag, radius: float):
    """The matrix restricted to each sector, one stack (points, r, r) per
    sector (points, r) of basis rows, for points whose sectors have equal
    sizes.

    Point i reads row ``points[i]`` of ``spectra`` (``_kernel_spectra``,
    pairs as in ``_pair_table``), its modes' signed harmonics ``m[i]``,
    transverse rows ``n_of[i]`` and ``transverse_diag[i]``, the transverse
    term per row.  Each stack is one gather at the difference and sum
    frequencies (module docstring), with the kernel of the pair
    (min(n_j, n_k), max(n_j, n_k)), so every block is exactly symmetric,
    plus the transverse term on its diagonal.
    """
    harmonic = np.abs(m)
    rate = harmonic / (2.0 * radius)
    amp = np.where(
        harmonic == 0, 1.0 / np.sqrt(2.0 * np.pi * radius), 1.0 / np.sqrt(np.pi * radius)
    )
    # C[i, f, p, q] sits at i 2 size + f size + p n_pairs + q: the 1/g
    # kernels (f = 0) are read from ``slope``, the V kernels from ``value``
    n_pairs, size = spectra.shape[-1], spectra[0, 0].size
    slope = spectra.reshape(-1)
    value = slope[size:]
    point = np.arange(len(points))[:, None]
    start = np.asarray(points)[:, None, None] * (2 * size)
    stacks = []
    for rows in sectors:
        # the sum frequency enters the cosine sector with +, the sine with -
        plus, minus = (np.add, np.subtract) if m[0, rows[0, 0]] >= 0 else (np.subtract, np.add)
        h, t, amp_r, rate_r = (column[point, rows] for column in (harmonic, n_of, amp, rate))
        h = h * n_pairs
        # the indices at the difference and sum frequencies, then the kernels
        # read at them in place: four arrays the size of the stack at most
        base = pair[t[:, :, None], t[:, None, :]] + start
        diff = np.abs(h[:, :, None] - h[:, None, :]) + base
        base += h[:, :, None] + h[:, None, :]  # the sum frequency
        block, kinetic = value.take(diff), slope.take(diff)
        read = diff.view(float)  # the difference indices are spent; reuse their bytes
        minus(kinetic, slope.take(base, out=read, mode="clip"), out=kinetic)  # "clip": unbuffered
        plus(block, value.take(base, out=read, mode="clip"), out=block)
        del base, diff, read
        kinetic *= rate_r[:, :, None] * rate_r[:, None, :]
        block += kinetic
        del kinetic  # before the next sector's gather
        block *= 0.5 * (amp_r[:, :, None] * amp_r[:, None, :])
        block.reshape(len(points), -1)[:, ::rows.shape[1] + 1] += transverse_diag[point, t]
        stacks.append(block)
    return stacks


def _grouped(keys) -> list[list[int]]:
    """Positions of equal keys, groups in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


# the points of a projection whose sectors have equal sizes: their positions
# among the configurations, bases m and n (points, N), and per sector the
# basis rows (points, r) and blocks (points, r, r); with a single
# configuration, its _Discretisation (None for several)
_Projected = collections.namedtuple("_Projected", "points m n sectors stacks disc")


def _project(configs, dense: bool = False) -> list[_Projected]:
    """Sector blocks of configurations that differ at most in half-width,
    one ``_Projected`` per set of equal sector sizes.

    Their bases are enumerated together (``_bases``); each point keeps its
    own quadrature orders, default or explicit.  One kernel-spectra array
    spans all points and transverse indices; the points that share orders
    fill their rows of it from one ``_fields`` and one ``_kernel_spectra``
    call, and the points whose sectors have equal sizes take one
    ``_sector_blocks`` gather, whatever their bases.  With ``dense``, for
    ``solve`` and ``assemble``, the single configuration keeps its
    ``_Discretisation`` for its residuals.

    Before anything is built, each step's arrays are charged to
    ``require_bytes`` from their shapes: one point's blocks at N before the
    bases, each quadrature group's fields and kernels, the sector blocks,
    and with ``dense`` the N x N matrices.  Residual data are charged when
    they are read (``_residual_norms``).
    """
    first = configs[0]
    # any point's blocks hold at least those of N rows split evenly
    require_bytes(8 * (first.n_basis**2 // 2) + _GATHER_BYTES * (first.n_basis**2 // 4),
                  f"the sector blocks of one point at N={first.n_basis}")
    bases = _bases([config.params for config in configs], first.n_basis, first.close_pairs)
    orders = [_quadrature_orders(config, m, n) for config, (m, n) in zip(configs, bases)]
    n_values = np.flatnonzero(np.bincount(np.concatenate([n for _, n in bases])))
    thinnest = min((config.params for config in configs), key=lambda params: params.a)
    diagonal = thinnest.transverse_energy * float(n_values[-1]) ** 2
    if not diagonal < _LARGEST_DIAGONAL:
        raise InputError(
            f"half-width a is too small for the Galerkin solve: at a={thinnest.a:.3g} "
            f"(n pi / 2a)^2 reaches {diagonal:.3g}, above {_LARGEST_DIAGONAL:.0e}"
        )
    if first.geometry == "true_geometry":
        # the fields divide by R^4 and square d2 g, of size up to (2 + 2.5 a / R) / R
        R, a = first.params.R, max(config.params.a for config in configs)
        slope = (2.0 + 2.5 * (a / R)) / R
        if not (0.0 < R * R * (R * R) < np.inf and slope * slope < np.inf):
            raise InputError(f"strip out of range for the Galerkin solve: at a={a:.3g}, "
                             f"R={R:.3g} its fields overflow")
    sizes = [m.size for m, _ in bases]
    cosine = [int(np.count_nonzero(m >= 0)) for m, _ in bases]
    top = 2 * max(int(np.abs(m).max()) for m, _ in bases)
    low, high, pair = _pair_table(n_values.size)
    spectra_bytes = 8 * len(configs) * 2 * (top + 1) * low.size  # the kernel-spectra array
    quadratures = _grouped(orders)
    for points in quadratures:
        m_s, m_u = orders[points[0]]
        per_point = _FIELD_BYTES * m_s * m_u + low.size * _KERNEL_BYTES * (m_s + 1)
        require_bytes(len(points) * per_point + spectra_bytes,
                      f"the fields and kernels at points={len(points)}, "
                      f"N={max(sizes[i] for i in points)}, m_s={m_s}, m_u={m_u}, "
                      f"distinct n={n_values.size}")
    stacked = _grouped(zip(cosine, sizes))
    entries = [len(points) * r * r for points in stacked  # of each sector's stack of blocks
               for r in (cosine[points[0]], sizes[points[0]] - cosine[points[0]])]
    require_bytes(spectra_bytes + 8 * sum(entries) + _GATHER_BYTES * max(entries),
                  f"the kernel spectra and sector blocks at points={len(configs)}, N={max(sizes)}")
    if dense:
        size = sizes[0]
        require_bytes(_MATRIX_BYTES * size * size, f"the N x N matrices at N={size}")
    params, geometry = first.params, first.geometry
    a = np.array([config.params.a for config in configs])
    spectra = np.empty((len(configs), 2, top + 1, low.size))
    row = np.argsort(np.concatenate(quadratures))  # each group's rows of spectra lie together
    disc = None
    for points in quadratures:
        grid = QuadratureGrid.for_strip(params, *orders[points[0]])
        g, potential, slope = _fields(params, a[points], grid, geometry)
        transverse = _transverse_rows(n_values, grid.u_nodes)
        lo = row[points[0]]
        _kernel_spectra(transverse, low, high, grid.weights_2d, g, potential,
                        spectra[lo:lo + len(points)])
        if dense:
            fa = np.sqrt(g[0])
            d_s_fa = _mirrored(slope, grid.s_nodes.size, -1.0)[0] / (2.0 * fa)
            disc = _Discretisation(params, grid, *bases[0], fa, d_s_fa, potential[0])
        del g, potential, slope  # the gathers read none of the field stacks
    projected = []
    for points in stacked:
        m = np.stack([bases[i][0] for i in points])
        n = np.stack([bases[i][1] for i in points])
        sectors = [
            np.nonzero(mask)[1].reshape(len(points), -1) for mask in (m >= 0, m < 0) if mask[0].any()
        ]
        n_of = np.searchsorted(n_values, n)
        diag = _transverse_diag(n_values, a[points])
        stacks = _sector_blocks(spectra, pair, row[points], m, n_of, sectors, diag, params.R)
        projected.append(_Projected(points, m, n, sectors, stacks, disc))
    return projected


def assemble(config: GalerkinConfig) -> SymmetricMatrix:
    """Projection matrix of L onto the flat basis in basis order, the
    matrix ``solve`` diagonalises in sector order; symmetric by storage."""
    [projected] = _project([config], dense=True)
    basis = np.zeros((projected.m.shape[1],) * 2)
    for rows, stack in zip(projected.sectors, projected.stacks):
        basis[np.ix_(rows[0], rows[0])] = stack[0]
    del projected, stack  # the blocks are copied; the packing takes their place
    return SymmetricMatrix.from_dense(basis)


def _residual_norms(
    disc: _Discretisation, eigenvalues: np.ndarray, coefficients: np.ndarray, count: int
) -> np.ndarray:
    """Strong-form residual norms of the first ``count`` eigenpairs.

    With L Psi_j expanded analytically,

        L Psi_j = 2 (d1 fa / fa^3) d1 Psi_j + (m_j/2R)^2 Psi_j / fa^2
                  + (1/a^2)(n_j pi/2)^2 Psi_j + V Psi_j,

    the k-th residual field sum_j c_jk (L Psi_j - lambda_k Psi_j) is a sum
    over n and four terms of a longitudinal row (C^T L', C^T (m/2R)^2 L,
    C^T L, lambda C^T L) times an (m_s, m_u) field times T_n(u).  Batched
    products over blocks of s nodes add the terms up, and one weighted sum
    per eigenpair reduces them, so the first ``count`` norms are bitwise
    those of all N.  At least two eigenpairs are formed: numpy takes a
    one-row product through a matrix-vector kernel that sums in another
    order.  A strip whose residual fields could overflow, by a bound read
    from the fields, the rates and the eigenvalues, is refused with
    ``InputError`` before anything is built.
    """
    width = min(max(count, 2), eigenvalues.size)
    size, (m_s, m_u) = disc.m.size, disc.fa.shape
    n_count = int(np.count_nonzero(np.bincount(disc.n)))
    # Per eigenpair, the terms of a residual field are each at most sqrt(N)
    # amp (amp the largest longitudinal amplitude, sqrt(N) the largest
    # absolute sum of a unit coefficient column) times rate |drift|,
    # rate^2 / fa^2, |V| + diagonal or |lambda|.  Their sum is at most
    # sqrt(N) amp times the first three, with |diagonal - lambda| for the
    # last two, plus the roundoff of forming and adding the 4 per n terms,
    # at most (4 per n + 4) unit roundoffs of their absolute sum.  The sum
    # is squared and summed over the weights, and fa is cubed.  The bounds
    # are Python floats, which reach inf with no warning
    R, (f_lo, f_hi) = disc.params.R, (float(disc.fa.min()), float(disc.fa.max()))
    rate = float(np.abs(disc.m).max()) / (2.0 * R)
    d_lo, d_hi = float(disc.transverse_diag.min()), float(disc.transverse_diag.max())
    l_lo, l_hi = float(eigenvalues[:width].min()), float(eigenvalues[:width].max())
    common = (rate * (2.0 * float(np.abs(disc.d_s_fa).max()) / (f_lo * f_lo * f_lo))
              + rate * rate / (f_lo * f_lo) + float(np.abs(disc.potential).max()))
    terms = common + d_hi + max(-l_lo, l_hi)
    bound = (common + max(d_hi - l_lo, l_hi - d_lo) + (4 * n_count + 4) * 2.0**-53 * terms
             ) * math.sqrt(size / (math.pi * R))
    if not (f_hi * f_hi * f_hi < math.inf and terms < math.inf
            and bound * bound * max(float(disc.grid.weights_2d.sum()), 1.0) < math.inf):
        raise InputError(f"strip out of range for the residual norms: at a={disc.params.a:.3g}, "
                         f"R={R:.3g} its residual fields overflow")
    # the factor tables and one n's rows, one n's coefficients, seven
    # (m_s, m_u) fields, two blocks of residual fields and the terms,
    # charged before the factor tables are first read; what the read
    # allocates was traced at 81-92 % of it (N = 60 to 2150, count 1 to N)
    require_bytes(8 * (3 * size * m_s + size * width + 7 * m_s * m_u + 2 * _S_BLOCK * width * m_u
                       + 4 * n_count * m_s * (width + m_u)),
                  f"the residual data at N={size}, count={count}, m_s={m_s}, m_u={m_u}, "
                  f"distinct n={n_count}")
    eigenvalues, coefficients = eigenvalues[:width], coefficients[:, :width]
    factors, weights = disc.factors, disc.grid.weights_2d
    inv_f_sq = 1.0 / (disc.fa * disc.fa)
    drift = 2.0 * disc.d_s_fa / disc.fa**3
    groups = factors.by_n()
    # four terms per n, each a (K, m_s) row and an (m_s, m_u) field
    rows_terms = np.empty((4 * len(groups), width, inv_f_sq.shape[0]))
    field_terms = np.empty((4 * len(groups),) + inv_f_sq.shape)
    for i, (n, rows) in enumerate(groups):
        coeffs, chi = coefficients[rows].T, factors.transverse[n]
        row, field = rows_terms[4 * i:4 * i + 4], field_terms[4 * i:4 * i + 4]
        np.matmul(coeffs, factors.slope[rows], out=row[0])
        np.matmul(coeffs, disc.rates_sq[rows, None] * factors.longitudinal[rows], out=row[1])
        np.matmul(coeffs, factors.longitudinal[rows], out=row[2])
        np.multiply(eigenvalues[:, None], row[2], out=row[3])
        np.multiply(drift, chi, out=field[0])
        np.multiply(inv_f_sq, chi, out=field[1])
        np.multiply(disc.potential + disc.transverse_diag[rows[0]], chi, out=field[2])
        field[3] = -chi
    # (m_s, K, terms) @ (m_s, terms, m_u) gives the residual fields, formed
    # a block of s nodes at a time so that no (m_s, K, m_u) array is held
    rows_s = rows_terms.transpose(2, 1, 0)
    fields_s = field_terms.transpose(1, 0, 2)
    squared = np.zeros(rows_s.shape[1])
    for lo in range(0, rows_s.shape[0], _S_BLOCK):
        block = rows_s[lo:lo + _S_BLOCK] @ fields_s[lo:lo + _S_BLOCK]
        block *= block
        # not a matrix-vector product, whose summation order depends on K
        squared += np.einsum("skm,sm->k", block, weights[lo:lo + _S_BLOCK])
    return np.sqrt(squared[:count])


def solve(config: GalerkinConfig) -> GalerkinSolution:
    """Diagonalise the projection matrix in sector order, its sector blocks
    on the diagonal.

    Every coefficient column is exactly zero off its sector; coefficient
    rows come back in basis order.  The solution keeps the projection's
    quadrature fields; residual norms wait until they are read.
    """
    [projected] = _project([config], dense=True)
    order = np.concatenate([rows[0] for rows in projected.sectors])
    dense = np.zeros((order.size,) * 2)
    c = projected.stacks[0].shape[1]  # the cosine sector, which holds m = 0, comes first
    for block, stack in zip((dense[:c, :c], dense[c:, c:]), projected.stacks):
        block[...] = stack[0]
    disc = projected.disc
    del projected, block, stack  # the blocks are copied; the eigenvectors take their place
    decomp = eig_dense_symmetric(dense)
    del dense  # the coefficients take its place
    return GalerkinSolution(decomp.eigenvalues, decomp.eigenvectors[np.argsort(order)], disc)


def residual_norm(solution: GalerkinSolution, k: int) -> float:
    """Strong-form residual of the k-th (1-indexed) eigenpair."""
    if not (1 <= k <= solution.eigenvalues.size):
        raise InputError(
            f"k must be in [1, {solution.eigenvalues.size}], got {k}"
        )
    return float(solution.leading_residual_norms(k)[k - 1])


@dataclass(frozen=True)
class EffectiveExpansion:
    """Effective eigenfunctions expanded over a flat Galerkin basis.

    ``values[i]`` is the i-th effective eigenvalue, ascending as in
    ``effective_spectrum``; ``coefficients[:, i]`` holds the expansion of
    its eigenfunction; ``truncations[i]`` is 1 - ||expansion||^2, the
    squared norm escaping the basis; ``sine[i]`` flags the eff_se family,
    expanded on the sine modes (m < 0), eff_ce on the cosine modes.
    """

    values: np.ndarray
    coefficients: np.ndarray
    truncations: np.ndarray
    sine: np.ndarray


def effective_in_basis(config: GalerkinConfig, count: int) -> EffectiveExpansion:
    """Expand the first ``count`` effective eigenfunctions, at q = -1/4
    (``DEFAULT_Q``), in the flat basis.

    The Mathieu Fourier harmonics at eta = s/2R are exactly the flat
    longitudinal functions, so the expansion is exact up to truncation:
    the symmetrised recurrence eigenvector component on harmonic j lands on
    the flat mode (+/-j, n) of the same trigonometric type.  A truncation
    above 1e-6 (less than 99.9999 percent of the norm captured) raises
    ``CapacityError``.
    """
    basis = _bases([config.params], config.n_basis, config.close_pairs)
    return _expansions([config.params], basis, count)[0]


def _expansions(params, bases, count: int) -> list[EffectiveExpansion]:
    """``effective_in_basis`` at each of ``params``, strips of one radius:
    the first ``count`` effective eigenfunctions of point i expanded over
    its basis ``bases[i]`` = (m, n), their modes from one ``_modes`` call
    over the half-widths.  Each distinct mode's harmonics and weights are
    read once, and placed over each point's basis in one pass per point.  A
    ``CapacityError`` names the first failing mode of the first failing
    point.
    """
    a = [p.a for p in params]
    point, sine, order, n_eff, value, _ = _modes(params[0].R, a, count, DEFAULT_Q)
    pick = np.searchsorted(point, np.arange(len(params)))[:, None] + np.arange(count)
    sine, order, n_eff, value = (column[pick] for column in (sine, order, n_eff, value))
    # the distinct modes, keyed 2 m + sine; np.unique would import numpy.ma (numpy 2)
    keys = 2 * order + sine
    distinct = np.flatnonzero(np.bincount(keys.ravel()))
    chars = [mathieu.fourier_coefficients("se" if key % 2 else "ce", key // 2, DEFAULT_Q)
             for key in distinct.tolist()]
    # a row of signed harmonics (negative for se) and weights per distinct
    # mode, padded past its last coefficient by weight 0 at a harmonic
    # outside every basis
    sizes = np.array([char.fourier.size for char in chars])
    filled = np.arange(sizes.max()) < sizes[:, None]
    harmonics = np.full(filled.shape, np.iinfo(np.intp).max)
    weights = np.zeros(filled.shape)
    harmonics[filled] = np.concatenate([char.harmonics for char in chars])
    weights[filled] = np.concatenate([char.fourier for char in chars])
    # back to the unit-norm symmetrised vector (constant harmonic carries sqrt(2))
    weights[harmonics == 0] *= np.sqrt(2.0)
    harmonics[distinct % 2 == 1] *= -1
    mode_of = np.searchsorted(distinct, keys)
    coeffs, truncations = [], np.empty(keys.shape)
    for i, (m, n) in enumerate(bases):
        # basis position of the flat mode (m, n) at position[m + top, n], -1 if absent
        top = int(np.abs(m).max())
        position = np.full((2 * top + 1, int(n.max()) + 1), -1)
        position[m + top, n] = np.arange(m.size)
        # (mode, harmonic) cells of the point
        h = harmonics[mode_of[i]]
        cell_n = np.broadcast_to(n_eff[i][:, None], h.shape)
        rows = np.full(h.shape, -1)
        inside = (np.abs(h) <= top) & (cell_n < position.shape[1])
        rows[inside] = position[h[inside] + top, cell_n[inside]]
        found = rows >= 0
        placed = np.where(found, weights[mode_of[i]], 0.0)
        # accumulated in harmonic order, one square at a time; the zeros
        # padding each mode's row leave its partial sums unchanged
        leaked = 1.0 - np.cumsum(placed**2, axis=1)[:, -1]
        # below summation roundoff the deficit carries no information
        truncations[i] = np.where(leaked > 1e-14, leaked, 0.0)
        coeffs.append(np.zeros((m.size, count)))
        coeffs[i][rows[found], np.nonzero(found)[0]] = placed[found]
    failed = np.argwhere(truncations > 1e-6)  # point by point, modes in order
    if failed.size:
        p, i = failed[0]
        family = FAMILY_EFF_SE if sine[p, i] else FAMILY_EFF_CE
        raise CapacityError(
            f"basis of size {bases[p][0].size} captures only "
            f"{1.0 - truncations[p, i]:.9f} of effective mode "
            f"({family}, m={order[p, i]}, n={n_eff[p, i]})"
        )
    return [EffectiveExpansion(values=value[i], coefficients=coeffs[i],
                               truncations=truncations[i], sine=sine[i])
            for i in range(len(params))]
