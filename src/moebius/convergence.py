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

Raw eigenvalues and the differences are stored alongside the ratios.
``fit_rate`` is the one slope path: a least-squares log-log fit of the
differences of one index, over the whole grid or a window of it; the
proven thin-strip rate is linear in a, the observed one quadratic.

Both kinds run through one driver, which projects the grid a chunk of
``_CHUNK`` half-widths at a time through ``galerkin._project``, as
``galerkin.solve`` projects one configuration; each point keeps its own
basis and quadrature orders, so its values agree with ``galerkin.solve``'s
to roundoff; the chunk's effective modes come from one enumeration over
its half-widths.  Each sector's stack of blocks of the points with
equal sector sizes goes to LAPACK in one ``eig_dense_symmetric`` call,
and the sector values merge by one sort.  The eigenvector kind compares
each effective mode, expanded by ``galerkin._expansions`` over the bases
the projection enumerated, with the eigenvectors of its sector, in sector
rows.  Neither kind forms the N x N matrix, calls ``galerkin.solve`` or
computes residual norms.  Chunks run one after another in grid order,
each building its configurations when it is solved.
A sweep whose estimated work (``sweep_work``) passes ``MAX_SWEEP_WORK`` is
refused with ``CapacityError`` before any point is solved, and a chunk
whose arrays would pass ``models.MAX_ARRAY_BYTES`` before any of them is
built (``_project``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .galerkin import GalerkinConfig, _expansions, _project
from .galerkin import solve  # noqa: F401  not called here; benchmark/spans.py wraps this binding
from .geometry import StripParams
from .linalg import eig_dense_symmetric
from .models import DEFAULT_Q, _modes

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
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    return np.geomspace(a_min, a_max, steps)


@dataclass(frozen=True)
class SweepResult:
    """Per-half-width comparison data, one row per grid point and one column
    per index n.

    ``differences`` holds |lambda_eff - lambda_true| (eigenvalue kind) or
    the distance of the n-th effective eigenfunction to the nearest Galerkin
    eigenfunction of its reflection sector, sign-aligned, plus truncation
    (module docstring); ``ratios`` holds ``differences / a^2``.
    """

    a_grid: np.ndarray
    count: int
    effective_values: np.ndarray
    true_values: np.ndarray
    differences: np.ndarray
    ratios: np.ndarray


def _sweep(chunk_rows, radius, a_grid, count, n_basis, geometry, m_s, m_u) -> SweepResult:
    """``chunk_rows`` over the grid a chunk of ``_CHUNK`` half-widths at a
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
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    if count > n_basis:
        raise CapacityError(f"count={count} exceeds basis size {n_basis}")
    require_sweep_capacity(a_grid.size, n_basis, m_s)

    rows = []
    for lo in range(0, a_grid.size, _CHUNK):
        configs = [
            GalerkinConfig(
                params=StripParams(a=float(a), R=radius), n_basis=n_basis, m_s=m_s,
                m_u=m_u, geometry=geometry, close_pairs=True,
            )
            for a in a_grid[lo:lo + _CHUNK]
        ]
        rows.append(chunk_rows(configs, count))
    eff, true, differences = (np.concatenate(column) for column in zip(*rows))
    return SweepResult(
        a_grid=a_grid,
        count=count,
        effective_values=eff,
        true_values=true,
        differences=differences,
        ratios=differences / a_grid[:, None] ** 2,
    )


def _solved_chunk(configs, want_vectors: bool):
    """Per ``galerkin._project`` record: (positions, bases m and n, sector
    rows, one ``eig_dense_symmetric`` call per sector stack, eigenvectors in
    sector rows if ``want_vectors``, and the merged ascending values)."""
    solved = []
    projected = _project(configs)
    while projected:  # each set's blocks are let go once solved
        points, m, n, sectors, stacks, _ = projected.pop(0)
        decomps = [eig_dense_symmetric(stack, want_vectors) for stack in stacks]
        values = np.sort(np.concatenate([d.eigenvalues for d in decomps], axis=1), axis=1)
        solved.append((points, m, n, sectors, decomps, values))
    return solved


def _eigenvalue_chunk(configs, count: int):
    """Effective and Galerkin eigenvalues and their gaps at each half-width
    of the chunk, from values-only eigensolves of the sector stacks; the
    N x N matrix is never formed."""
    true = np.empty((len(configs), count))
    for points, *_, values in _solved_chunk(configs, want_vectors=False):
        true[points] = values[:, :count]
    point, _, _, _, value, _ = _modes(
        configs[0].params.R, [config.params.a for config in configs], count, DEFAULT_Q
    )
    eff = value[np.searchsorted(point, np.arange(len(configs)))[:, None] + np.arange(count)]
    return eff, true, np.abs(eff - true)


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
    return _sweep(_eigenvalue_chunk, radius, a_grid, count, n_basis, geometry, m_s, m_u)


def _nearest_distances(vectors, modes, truncations):
    """Distance of each column c of ``modes`` to the column e of the
    orthonormal ``vectors`` of largest |e.c|: sqrt(||c - sign(e.c) e||^2 + t),
    t from ``truncations``.  Summed elementwise, so it stays accurate far
    below sqrt(eps), where 1 + ||c||^2 - 2 |e.c| would cancel."""
    overlaps = vectors.T @ modes
    nearest = np.abs(overlaps).argmax(axis=0)
    signs = np.copysign(1.0, overlaps[nearest, np.arange(nearest.size)])
    return np.sqrt(np.sum((modes - signs * vectors[:, nearest]) ** 2, axis=0) + truncations)


def _eigenvector_chunk(configs, count: int):
    """Effective and Galerkin eigenvalues and the eigenvector distances at
    each half-width of the chunk, each effective mode, expanded over the
    basis the projection enumerated, against the eigenvectors of its sector."""
    true = np.empty((len(configs), count))
    distances = np.empty_like(true)
    solved = _solved_chunk(configs, want_vectors=True)
    basis_of = {i: (m[g], n[g]) for points, m, n, *_ in solved for g, i in enumerate(points)}
    bases = [basis_of[i] for i in range(len(configs))]
    expansions = _expansions([config.params for config in configs], bases, count)
    for points, m, _, sectors, decomps, values in solved:
        true[points] = values[:, :count]
        for g, i in enumerate(points):
            modes = expansions[i]
            for rows, decomp in zip(sectors, decomps):
                family = modes.sine == (m[g, rows[g, 0]] < 0)  # eff_se in the sine sector
                distances[i, family] = _nearest_distances(
                    decomp.eigenvectors[g], modes.coefficients[np.ix_(rows[g], family)],
                    modes.truncations[family],
                )
    return np.array([modes.values for modes in expansions]), true, distances


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
    return _sweep(_eigenvector_chunk, radius, a_grid, count, n_basis, geometry, m_s, m_u)


def fit_rate(sweep: SweepResult, index: int, a_window=None) -> float:
    """Log-log slope of the model difference for eigenvalue index ``index``.

    ``a_window`` restricts the fit to half-widths in [lo, hi]; at least 4
    grid points must remain.
    """
    if not (1 <= index <= sweep.count):
        raise InputError(f"index must be in [1, {sweep.count}], got {index}")
    mask = np.ones(sweep.a_grid.size, dtype=bool)
    if a_window is not None:
        lo, hi = a_window
        mask = (sweep.a_grid >= lo) & (sweep.a_grid <= hi)
    if int(mask.sum()) < 4:
        raise InputError(
            f"rate fit needs at least 4 grid points in the window, "
            f"got {int(mask.sum())}"
        )
    diff = np.maximum(sweep.differences[mask, index - 1], 1e-300)
    return float(np.polyfit(np.log(sweep.a_grid[mask]), np.log(diff), 1)[0])
