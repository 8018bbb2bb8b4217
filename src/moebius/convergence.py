"""Thin-strip convergence studies: effective versus projected curved model.

For a grid of half-widths the sweeps compare the closed-form effective
spectrum with the Galerkin approximation of the curved model at fixed
basis size, recording

    eigenvalue kind:   |lambda_eff[n] - lambda_true[n]| / a^2,
    eigenvector kind:  || f_true[n] - f_eff[n] ||_{L2(Pi)} / a^2,

per index n.  Eigenvalues are matched by sorted position.  Under the
reflection s -> -s every eigenfunction of either model is even (the cosine
sector, flat modes m >= 0, eff_ce) or odd (the sine sector, m < 0, eff_se),
and the n-th effective eigenfunction c is compared with the Galerkin
eigenfunction e of its sector nearest to it, the one of largest |e.c|:
d = sqrt(||c - sign(e.c) e||^2 + t), t its squared norm outside the
Galerkin basis, summed elementwise so distances far below sqrt(eps) stay
resolved.

Raw eigenvalues and the differences are stored, and the ratios read from them.
``fit_rate`` is the one slope path: a least-squares log-log fit of the
differences of one index, over the whole grid or a window of it; the
proven thin-strip rate is linear in a, the observed one quadratic.

Both kinds run through one driver and one chunk function (``_chunk``).
The driver builds one configuration, at the thinnest half-width, and the
chunk projects it at ``_CHUNK`` of the grid's half-widths at a time
through ``galerkin._project``, as ``galerkin.solve`` projects it at its
own; each point keeps its own basis and quadrature orders, so its values
agree with ``galerkin.solve``'s to roundoff, and the chunk's effective
modes come from one enumeration over its half-widths.  Each sector's
stack of blocks of the points with equal sector sizes goes to LAPACK in
one ``eig_dense_symmetric`` call, and the sector values merge by one
sort.  The eigenvector kind gathers the effective modes onto the stacked
bases of those points (``galerkin._expanded``) and compares each
sector's columns with its eigenvectors in one batched call.  Neither kind
forms the N x N matrix, calls ``galerkin.solve`` or computes residual
norms.  Chunks run one after another in grid order.  A sweep whose
estimated work (``sweep_work``) passes ``MAX_SWEEP_WORK`` is refused with
``CapacityError`` before any point is solved, and a chunk whose arrays
would pass ``models.MAX_ARRAY_BYTES`` before any of them is built: the
projection's by ``_project``, the expansions' before any block is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import CapacityError, InputError, require_int
from .galerkin import _EXPANSION_BYTES, GalerkinConfig, _effective_modes, _expanded, _project
from .galerkin import solve  # noqa: F401  not called here; benchmark/spans.py wraps this binding
from .geometry import StripParams
from .linalg import eig_dense_symmetric

__all__ = [
    "MAX_SWEEP_WORK",
    "SweepResult",
    "eigenvalue_sweep",
    "eigenvector_sweep",
    "fit_rate",
    "geometric_grid",
    "require_sweep_capacity",
    "sweep_work",
]

# half-widths solved together: those of a chunk that share quadrature orders
# share one field evaluation, and those with equal sector sizes one
# eigensolve per sector; at N = 72 the stacked fields of 8 points take
# about 400 KiB
_CHUNK = 8
# Cap on ``sweep_work``: at N = 72, where one point is estimated at 1.5e7
# operations and takes 0.39-0.45 ms (eigenvalue kind) to 0.88-0.98 ms
# (eigenvector kind) on one core in 64-point sweeps (2-core VM, one BLAS
# thread), it admits 650k points, 4-11 minutes.
MAX_SWEEP_WORK = 10**13
# one point's fixed cost in operations, mostly interpreter work: 0.13-0.15 ms
# (eigenvalue kind) to 0.36-0.40 ms (eigenvector kind) at N = 20, where the
# N-dependent terms are small
_POINT_OVERHEAD = 5 * 10**6


def sweep_work(steps: int, n_basis: int, m_s: int | None = None) -> int:
    """Estimated operations of a sweep over ``steps`` half-widths.

    Each point discretises, assembles and diagonalises: a fixed overhead,
    about 10 N^3 for the eigensolve and 4 N^2 m_s, a generous bound on
    assembly.  Without an explicit ``m_s`` the estimate takes
    4 (N + 1) + 32, which still bounds the default quadrature order
    2 h + 32 by a wide margin, since the first N + 1 flat modes have
    harmonics h of at most N + 1.  Integer arithmetic, so any step
    count is estimated without overflow.
    """
    m_s = 4 * n_basis + 36 if m_s is None else m_s
    return steps * (_POINT_OVERHEAD + 10 * n_basis**3 + 4 * n_basis**2 * m_s)


def require_sweep_capacity(steps: int, n_basis: int, m_s: int | None = None) -> None:
    """Raise ``CapacityError`` when ``sweep_work`` passes ``MAX_SWEEP_WORK``."""
    if sweep_work(steps, n_basis, m_s) > MAX_SWEEP_WORK:
        raise CapacityError(
            f"a sweep of {steps} half-widths at N={n_basis} is estimated above "
            f"the cap of {MAX_SWEEP_WORK:.0e} operations"
        )


def geometric_grid(a_min: float, a_max: float, steps: int) -> np.ndarray:
    """Log-uniform half-width grid, the natural spacing for rate fits."""
    if not (0.0 < a_min <= a_max < np.inf):
        raise InputError(f"need 0 < a_min <= a_max < inf, got {a_min}, {a_max}")
    require_int("steps", steps, 1)
    return np.geomspace(a_min, a_max, steps)


@dataclass(frozen=True)
class SweepResult:
    """Per-half-width comparison data, one row per grid point and one column
    per index n.

    ``differences`` holds |lambda_eff - lambda_true| (eigenvalue kind) or
    the distance of the n-th effective eigenfunction to the nearest Galerkin
    eigenfunction of its reflection sector, sign-aligned, plus truncation
    (module docstring); ``ratios`` gives ``differences / a^2``.
    """

    a_grid: np.ndarray
    effective_values: np.ndarray
    true_values: np.ndarray
    differences: np.ndarray

    @property
    def ratios(self) -> np.ndarray:
        return self.differences / self.a_grid[:, None] ** 2


def _sweep(radius, a_grid, count, n_basis, geometry, m_s, m_u, want_vectors) -> SweepResult:
    """``_chunk`` over the grid a chunk of ``_CHUNK`` half-widths at a
    time, its (effective, true, difference) arrays stacked into per-(a, n)
    arrays."""
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1 or a_grid.size < 1:
        raise InputError("a_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(a_grid) <= 0.0):
        raise InputError("a_grid must be strictly ascending")
    if not (a_grid[0] > 0.0 and a_grid[-1] <= 1.5):
        raise InputError(
            f"a_grid must lie in (0, 1.5], got [{a_grid[0]}, {a_grid[-1]}]"
        )
    # the thinnest half-width is the only one whose energy scale can overflow;
    # the basis size is checked here, before any count is compared with it
    config = GalerkinConfig(params=StripParams(a=float(a_grid[0]), R=radius), n_basis=n_basis,
                            m_s=m_s, m_u=m_u, geometry=geometry, close_pairs=True)
    require_int("count", count, 1)
    if count > n_basis:
        raise CapacityError(f"count={count} exceeds basis size {n_basis}")
    require_sweep_capacity(a_grid.size, n_basis, m_s)
    rows = [_chunk(config, a_grid[lo:lo + _CHUNK], count, want_vectors)
            for lo in range(0, a_grid.size, _CHUNK)]
    eff, true, differences = (np.concatenate(column) for column in zip(*rows))
    return SweepResult(a_grid, eff, true, differences)


def _chunk(config, a, count: int, want_vectors: bool):
    """Effective and Galerkin eigenvalues at each half-width ``a`` of the
    chunk, with their gaps or, ``want_vectors``, the eigenvector distances.

    Each ``_project`` record's sector stacks take one eigensolve each, and
    their values merge by one sort.  With vectors, the chunk's effective
    modes are gathered onto the record's stacked bases at once
    (``galerkin._expanded``), and each sector's columns meet its
    eigenvectors in one ``_nearest_distances``; a mode keeps the distance
    from the sector of its family.
    """
    projected = _project(config, a)  # its checks come before any mode is enumerated
    if want_vectors:
        # the largest record's gather and distances lie beside its
        # eigenvectors and the blocks not yet solved, together at most all
        # the blocks
        size = max(record.m.shape[1] for record in projected)
        gathered = max(record.m.size for record in projected)  # its points x N
        blocks = sum(stack.nbytes for record in projected for stack in record.stacks)
        models.require_bytes(blocks + _EXPANSION_BYTES * gathered * count,
                             f"the effective expansions at points={a.size}, N={size}, "
                             f"count={count}")
    modes = _effective_modes(config.params.R, a, count)
    true, distances = np.empty((2, a.size, count))
    while projected:  # each record's blocks are let go once solved
        points, m, n, sectors, stacks, _ = projected.pop(0)
        decomps = [eig_dense_symmetric(stack, want_vectors) for stack in stacks]
        del stacks
        true[points] = np.sort(np.hstack([d.eigenvalues for d in decomps]))[:, :count]
        if want_vectors:
            coefficients, truncations = _expanded(modes._make(x[points] for x in modes), m, n)
            point = np.arange(len(points))[:, None]
            found = [_nearest_distances(d.eigenvectors, coefficients[point, rows], truncations)
                     for rows, d in zip(sectors, decomps)]
            # the cosine sector, which holds m = 0, comes first; without a sine
            # sector no eff_se mode fits the basis, and _expanded refused it
            distances[points] = np.where(modes.sine[points], found[-1], found[0])
            del coefficients  # before the next record's gather
    return modes.values, true, distances if want_vectors else np.abs(modes.values - true)


def eigenvalue_sweep(
    radius: float,
    a_grid,
    count: int,
    n_basis: int,
    *,
    geometry: str = "true_geometry",
    m_s: int | None = None,
    m_u: int | None = None,
) -> SweepResult:
    """Eigenvalue gap ratios |lambda_eff - lambda_true| / a^2 over a grid."""
    return _sweep(radius, a_grid, count, n_basis, geometry, m_s, m_u, want_vectors=False)


def _nearest_distances(vectors, modes, truncations):
    """Distance of each column c of ``modes`` to the column e of the
    orthonormal ``vectors`` of largest |e.c|: sqrt(||c - sign(e.c) e||^2 + t),
    t from ``truncations``; stacks (points, r, r), (points, r, count) and
    (points, count) member by member.  Summed elementwise, so it stays
    accurate far below sqrt(eps), where 1 + ||c||^2 - 2 |e.c| would cancel."""
    overlaps = np.swapaxes(vectors, -1, -2) @ modes
    nearest = np.abs(overlaps).argmax(axis=-2)[..., None, :]
    signs = np.copysign(1.0, np.take_along_axis(overlaps, nearest, axis=-2))
    aligned = signs * np.take_along_axis(vectors, nearest, axis=-1)
    return np.sqrt(np.sum((modes - aligned) ** 2, axis=-2) + truncations)


def eigenvector_sweep(
    radius: float,
    a_grid,
    count: int,
    n_basis: int,
    *,
    geometry: str = "true_geometry",
    m_s: int | None = None,
    m_u: int | None = None,
) -> SweepResult:
    """Eigenvector distance ratios ||f_true - f_eff|| / a^2 over a grid, f_true
    the Galerkin eigenfunction of f_eff's reflection sector nearest to it,
    sign-aligned, and f_eff's squared norm outside the basis added."""
    return _sweep(radius, a_grid, count, n_basis, geometry, m_s, m_u, want_vectors=True)


def fit_rate(sweep: SweepResult, index: int, a_window=None) -> float:
    """Log-log slope of the model difference for eigenvalue index ``index``.

    ``a_window`` restricts the fit to half-widths in [lo, hi]; at least 4
    grid points must remain.
    """
    count = sweep.differences.shape[1]
    require_int("index", index, 1, count)
    lo, hi = (-np.inf, np.inf) if a_window is None else a_window
    mask = (sweep.a_grid >= lo) & (sweep.a_grid <= hi)
    if int(mask.sum()) < 4:
        raise InputError(
            f"rate fit needs at least 4 grid points in the window, "
            f"got {int(mask.sum())}"
        )
    diff = np.maximum(sweep.differences[mask, index - 1], 1e-300)
    return float(np.polyfit(np.log(sweep.a_grid[mask]), np.log(diff), 1)[0])
