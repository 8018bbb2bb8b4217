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
sector; ``assemble`` returns that matrix in basis order.

Its ascending eigenvalues are variational upper bounds on the true
spectrum, non-increasing as the basis grows.  Residual norms
|| L f_k - lambda_k f_k ||_{L2(Pi)} are evaluated in strong form when a
solution's residuals are first read, from the grid and the fields fa, d1 fa
and V that its projection evaluated and the solution keeps
(``_Discretisation``), with L Psi_j expanded analytically through the
closed-form derivatives of fa and summed per n from the
coefficient-weighted longitudinal rows.

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
    quadrature fields that the projection evaluated and the solution keeps
    (a ``_Discretisation``), so callers that need only the eigenpairs never
    pay for it; ``leading_residual_norms(count)`` computes only the first
    ``count``, bitwise equal to those of all.
    """

    config: GalerkinConfig
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    _discretisation: _Discretisation = field(repr=False, compare=False)

    @functools.cached_property
    def basis(self) -> tuple[ModeIndex, ...]:
        """Labels of the basis functions, in coefficient-row order."""
        return _mode_labels(self._discretisation.m, self._discretisation.n)

    @functools.cached_property
    def residual_norms(self) -> np.ndarray:
        return self.leading_residual_norms(self.eigenvalues.size)

    def leading_residual_norms(self, count: int) -> np.ndarray:
        """The first ``count`` residual norms, computed for those eigenpairs only."""
        return _residual_norms(self._discretisation, self.eigenvalues, self.coefficients, count)

    def eigenfunction_values(self, k: int, s, u) -> np.ndarray:
        """Evaluate the k-th (1-indexed) eigenfunction on a tensor grid."""
        disc = self._discretisation
        if not (1 <= k <= disc.m.size):
            raise InputError(f"k must be in [1, {disc.m.size}], got {k}")
        s = np.atleast_1d(np.asarray(s, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        factors = _sample_factors(disc.m, disc.n, disc.params, s, u)
        coeffs = self.coefficients[:, k - 1]
        return sum(
            np.outer(coeffs[pos] @ factors.longitudinal[pos], factors.transverse[row])
            for row, pos in factors.by_n(np.arange(disc.m.size))
        )


def _basis_arrays(
    params: StripParams, n_basis: int, close_pairs: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) of the first ``n_basis`` flat modes as integer arrays.

    Modes come by ascending flat eigenvalue, merged entries as in
    ``fake_spectrum``, and within an entry by (harmonic, cosine before
    sine, n).  ``close_pairs`` appends the next mode when the last one is
    half of a +/-m pair whose partner was cut off.  A sweep chunk
    enumerates the bases of all its half-widths at once (``_bases``).
    """
    return _bases([params], n_basis, close_pairs)[0]


def _bases(params, n_basis: int, close_pairs: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_basis_arrays`` at each of ``params``, strips of one radius, from
    one enumeration of their flat modes."""
    point, m, n, _, entry = _flat_modes(params[0].R, [p.a for p in params], n_basis + 1)
    order = np.lexsort((n, m < 0, np.abs(m), entry))
    point, m, n = point[order], m[order], n[order]
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
    return list(_mode_labels(*_basis_arrays(params, n_basis, close_pairs)))


def largest_array_bytes(
    n_basis: int = 0, m_s: int = 0, m_u: int = 0, n_count: int = 0, export_points: int = 0
) -> int:
    """Estimated bytes of the largest array one run allocates.

    That is the N x N projection matrix, the residual terms (four per
    distinct transverse index, ``n_count`` of them, each with N x m_s
    longitudinal and m_s x m_u quadrature values, which bound the factor
    tables and fields too), or the rows of an eigenfunction export of
    ``export_points`` grid samples.  The FFT of the kernels, two complex
    rows of m_s + 1 per pair n <= n', 16 (m_s + 1) n_count (n_count + 1)
    bytes, stays within the residual terms' bound, since n_count <= N.
    ``_project`` counts points stacked on one quadrature as one quadrature
    of all their s nodes, and its stacked blocks and kernel spectra (whose
    frequencies can pass m_s) each as one matrix of as many entries.
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
        return _sample_factors(self.m, self.n, self.params, self.grid.s_nodes, self.grid.u_nodes)

    @functools.cached_property
    def transverse_diag(self) -> np.ndarray:  # (N,) (n pi / 2)^2 / a^2
        return _transverse_diag(self.n, np.array([self.params.a]))[0]

    @functools.cached_property
    def rates_sq(self) -> np.ndarray:  # (N,) (m / 2R)^2
        return _pow2(self.m / (2.0 * self.params.R))


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
    ``a`` (rows), squared as Python floats square."""
    return _pow2(n * np.pi / 2.0) / _pow2(a)[:, None]


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


def _kernel_spectra(transverse, weights, g, potential, top: int):
    """Cosine sums of the u-contracted kernels, per half-width and field.

    ``g`` and ``potential`` are stacks (points, m_s, m_u) of fa^2 and V on
    the nodes, ``transverse`` holds T_n on the u nodes per distinct
    transverse index.  K_q(s) = sum_u F(s, u) T_n(u) T_n'(u) for F = w / g
    and F = w V and each pair q = (n, n') of rows with n <= n', all formed
    by one matrix product; C[., i, p, q] = sum_k K_q(s_k) cos(pi p k / m_s)
    for p = 0..``top``, the real part of the kernels' one FFT zero-padded to
    2 m_s, read at p folded into [0, m_s] modulo 2 m_s.  Returns C, of
    shape (points, 2, top + 1, pairs), pairs numbered as ``_pair_table``.
    """
    low, high, _ = _pair_table(transverse.shape[0])
    products = transverse[low] * transverse[high]  # (pairs, m_u)
    fields = np.empty((g.shape[0], 2) + g.shape[1:])  # (points, 2, m_s, m_u)
    np.divide(weights, g, out=fields[:, 0])
    np.multiply(weights, potential, out=fields[:, 1])
    m_s = fields.shape[2]
    kernels = (fields.reshape(-1, fields.shape[-1]) @ products.T).reshape(fields.shape[:3] + (-1,))
    p = np.arange(top + 1) % (2 * m_s)
    return np.fft.rfft(kernels, n=2 * m_s, axis=2).real[:, :, np.minimum(p, 2 * m_s - p)]


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
        base = pair[t[:, :, None], t[:, None, :]] + start
        diff = np.abs(h[:, :, None] - h[:, None, :]) + base
        base += h[:, :, None] + h[:, None, :]  # the sum frequency
        kinetic = minus(slope.take(diff), slope.take(base))
        kinetic *= rate_r[:, :, None] * rate_r[:, None, :]
        block = plus(value.take(diff), value.take(base))
        block += kinetic
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


def _project(configs) -> list[_Projected]:
    """Sector blocks of configurations that differ at most in half-width,
    one ``_Projected`` per set of equal sector sizes.

    Their bases are enumerated together (``_bases``); each point keeps its
    own quadrature orders, default or explicit.  One kernel-spectra array
    spans all points and transverse indices; the points that share orders
    fill their rows of it from one ``_fields`` and one ``_kernel_spectra``
    call, and the points whose sectors have equal sizes take one
    ``_sector_blocks`` gather, whatever their bases.  A single
    configuration keeps its ``_Discretisation`` for its residuals.

    Every N is checked before its basis is enumerated.  The P points that
    share a quadrature stack P copies of one point's arrays, so before any
    is built they are checked as one quadrature of P m_s nodes in s, at the
    largest N and all the transverse indices (fields, kernels), and each
    set of equal sector sizes as one matrix of order sqrt(P) N (blocks, and
    the (P, N, N) eigenvectors of a sweep); the kernel-spectra array is
    checked as one matrix of as many entries.  A single configuration is
    checked exactly at its own sizes.
    """
    first = configs[0]
    require_capacity(first.n_basis)  # bounds N before any basis is enumerated
    bases = _bases([config.params for config in configs], first.n_basis, first.close_pairs)
    orders = [_quadrature_orders(config, m, n) for config, (m, n) in zip(configs, bases)]
    n_values = np.flatnonzero(np.bincount(np.concatenate([n for _, n in bases])))
    quadratures = _grouped(orders)
    for points in quadratures:
        m_s, m_u = orders[points[0]]
        require_capacity(max(bases[i][0].size for i in points), len(points) * m_s, m_u, n_values.size)
    stacked = _grouped((int(np.count_nonzero(m >= 0)), m.size) for m, _ in bases)
    for points in stacked:
        # P stacked N x N arrays hold as much as one matrix of order sqrt(P) N
        require_capacity(math.isqrt(len(points) * bases[points[0]][0].size ** 2 - 1) + 1)
    top = 2 * max(int(np.abs(m).max()) for m, _ in bases)
    low, _, pair = _pair_table(n_values.size)
    shape = (len(configs), 2, top + 1, low.size)
    require_capacity(math.isqrt(math.prod(shape) - 1) + 1)
    params, geometry = first.params, first.geometry
    a = np.array([config.params.a for config in configs])
    spectra = np.empty(shape)
    disc = None
    for points in quadratures:
        grid = QuadratureGrid.for_strip(params, *orders[points[0]])
        g, potential, slope = _fields(params, a[points], grid, geometry)
        transverse = _transverse_rows(n_values, grid.u_nodes)[0]
        spectra[points] = _kernel_spectra(transverse, grid.weights_2d, g, potential, top)
        if len(configs) == 1:
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
        stacks = _sector_blocks(spectra, pair, points, m, n_of, sectors, diag, params.R)
        projected.append(_Projected(points, m, n, sectors, stacks, disc))
    return projected


def _matrix(config: GalerkinConfig) -> tuple[np.ndarray, np.ndarray, _Discretisation]:
    """The projection matrix in basis order (``config``'s sector blocks,
    zeros elsewhere), the basis rows listed sector by sector and the
    discretisation that the projection evaluated."""
    [projected] = _project([config])
    dense = np.zeros((projected.m.shape[1],) * 2)
    for rows, stack in zip(projected.sectors, projected.stacks):
        dense[np.ix_(rows[0], rows[0])] = stack[0]
    return dense, np.concatenate([rows[0] for rows in projected.sectors]), projected.disc


def assemble(config: GalerkinConfig) -> SymmetricMatrix:
    """Projection matrix of L onto the flat basis in basis order, the
    matrix ``solve`` diagonalises; symmetric by storage."""
    return SymmetricMatrix.from_dense(_matrix(config)[0])


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
    order.
    """
    width = min(max(count, 2), eigenvalues.size)
    eigenvalues, coefficients = eigenvalues[:width], coefficients[:, :width]
    factors, weights = disc.factors, disc.grid.weights_2d
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
        # not a matrix-vector product, whose summation order depends on K
        squared += np.einsum("skm,sm->k", block, weights[lo:lo + _S_BLOCK])
    return np.sqrt(squared[:count])


def solve(config: GalerkinConfig) -> GalerkinSolution:
    """Diagonalise the projection matrix gathered into sector order, its
    sector blocks on the diagonal.

    Every coefficient column is exactly zero off its sector; coefficient
    rows come back in basis order.  The solution keeps the projection's
    quadrature fields; residual norms wait for their first read.
    """
    dense, order, disc = _matrix(config)
    decomp = eig_dense_symmetric(dense[np.ix_(order, order)])
    coefficients = np.empty_like(decomp.eigenvectors)
    coefficients[order] = decomp.eigenvectors
    return GalerkinSolution(config, decomp.eigenvalues, coefficients, disc)


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
    basis = _basis_arrays(config.params, config.n_basis, config.close_pairs)
    return _expansions([config.params], [basis], [count], q)[0]


def _expansions(params, bases, counts, q: float = DEFAULT_Q) -> list[EffectiveExpansion]:
    """``effective_in_basis`` at each of ``params``, strips of one radius:
    the first ``counts[i]`` effective eigenfunctions of point i expanded
    over its basis ``bases[i]`` = (m, n).

    The points that ask for the same count take their effective modes from
    one ``_effective_modes`` call over their half-widths; a sweep chunk's
    counts differ only where a basis size caps them, and pair closure can
    make one basis a mode larger.  Points are expanded in order, so a
    ``CapacityError`` names the first failing mode of the first failing
    point.
    """
    modes = [None] * len(params)
    for points in _grouped(counts):
        count = counts[points[0]]
        point, *columns, _ = _effective_modes(params[0].R, [params[i].a for i in points], count, q)
        for i, start in zip(points, np.searchsorted(point, np.arange(len(points))).tolist()):
            modes[i] = [column[start:start + count] for column in columns]
    expansions = []
    for (m, n), (sine, order, n_eff, value), count in zip(bases, modes, counts):
        # basis position of the flat mode (m, n) at position[m + top, n], -1 if absent
        top = int(np.abs(m).max())
        position = np.full((2 * top + 1, int(n.max()) + 1), -1)
        position[m + top, n] = np.arange(m.size)
        chars = [
            mathieu.fourier_coefficients("se" if is_sine else "ce", mode_m, q)
            for is_sine, mode_m in zip(sine.tolist(), order.tolist())
        ]
        # every mode's coefficients in one row: mode i, column j within the mode
        sizes = np.array([char.fourier.size for char in chars])
        mode = np.repeat(np.arange(count), sizes)
        column = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        harmonics = np.concatenate([char.harmonics for char in chars]).astype(int)
        weights = np.concatenate([char.fourier for char in chars])
        # back to the unit-norm symmetrised vector (constant harmonic carries sqrt(2))
        weights[harmonics == 0] *= np.sqrt(2.0)
        signed = np.where(sine[mode], -harmonics, harmonics)
        mode_n = n_eff[mode]
        rows = np.full(signed.size, -1)
        inside = (np.abs(signed) <= top) & (mode_n < position.shape[1])
        rows[inside] = position[signed[inside] + top, mode_n[inside]]
        found = rows >= 0
        coeffs = np.zeros((m.size, count))
        coeffs[rows[found], mode[found]] = weights[found]
        # accumulated in harmonic order, one square at a time; the zeros
        # padding each mode's row leave its partial sums unchanged
        squares = np.zeros((count, int(sizes.max())))
        squares[mode[found], column[found]] = weights[found] ** 2
        leaked = 1.0 - np.cumsum(squares, axis=1)[:, -1]
        # below summation roundoff the deficit carries no information
        truncations = np.where(leaked > 1e-14, leaked, 0.0)
        failed = np.flatnonzero(truncations > 1e-6)
        if failed.size:
            i = failed[0]
            family = FAMILY_EFF_SE if sine[i] else FAMILY_EFF_CE
            raise CapacityError(
                f"basis of size {m.size} captures only "
                f"{1.0 - truncations[i]:.9f} of effective mode "
                f"({family}, m={order[i]}, n={n_eff[i]})"
            )
        expansions.append(
            EffectiveExpansion(values=value, coefficients=coeffs, truncations=truncations)
        )
    return expansions
