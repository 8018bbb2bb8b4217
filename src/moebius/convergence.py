"""Thin-strip convergence studies: effective versus projected curved model.

For a grid of half-widths the sweeps compare the closed-form effective
spectrum with the Galerkin approximation of the curved model at fixed
basis size, recording

    eigenvalue kind:   |lambda_eff[n] - lambda_true[n]| / a^2,
    eigenvector kind:  || f_true[n] - f_eff[n] ||_{L2(Pi)} / a^2,

per index n.  Indices are matched by sorted position; where eigenvalues
cluster within 1e-9 * max(1, lambda) on either side, eigenvectors are
compared between the cluster subspaces (orthogonal Procrustes through the
principal angles) instead of vector by vector, and every cluster member
reports the same per-vector distance.  Sign (and intra-cluster rotation)
alignment is built into that definition.

Raw eigenvalues and the differences are stored alongside the ratios.
``fit_rate`` is the one slope path: a least-squares log-log fit of the
differences of one index, over the whole grid or a window of it; the
proven thin-strip rate is linear in a, the observed one quadratic.

Both kinds run through one driver, which solves the grid a chunk of
``_CHUNK`` half-widths at a time.  ``galerkin._project``, the projection
that ``galerkin.solve`` runs for one configuration, gives the chunk's
sector blocks, one stack per sector for each group of points with the same
basis and quadrature orders: the chunk's flat bases come from one
enumeration over its half-widths, and the points whose orders agree (each
keeps its own, so its values are those of ``galerkin.solve``'s matrix)
share one quadrature, one broadcast field evaluation on half the s nodes,
one kernel product and one FFT.  Both kinds take the chunk's effective
modes from one enumeration over its half-widths as well.
Each sector's stack goes to LAPACK in one ``eig_dense_symmetric`` call,
and the sector values merge by a stable sort, cosine before sine among
ties.  The eigenvalue kind asks for values only; the eigenvector
kind takes the eigenvectors of the same stacks, scatters their rows into
basis order and compares each point's leading columns with its effective
expansion, which ``galerkin._expansions`` places over the bases the
projection enumerated.  Neither forms the N x N matrix, calls ``galerkin.solve`` or
computes residual norms.  Chunks run one after another, or on a pool of
``threads`` worker threads when ``threads`` is 2 or more; results are
gathered in grid order, so the output is deterministic for a given
configuration.
A sweep whose estimated work (``sweep_work``) passes ``MAX_SWEEP_WORK`` is
refused with ``CapacityError`` before any point is solved, and a chunk
whose stacked arrays would pass ``galerkin.MAX_ARRAY_BYTES`` before any of
them is built, by the capacity check of a single run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .galerkin import GalerkinConfig, _expansions, _project
from .galerkin import solve  # noqa: F401  not called here; benchmark/spans.py wraps this binding
from .geometry import StripParams
from .linalg import eig_dense_symmetric
from .models import _effective_modes

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

CLUSTER_RTOL = 1e-9
# half-widths solved together: those of a chunk that share quadrature orders
# share one field evaluation, and those that share a basis as well one
# eigensolve per sector; at N = 72 the stacked fields of 8 points take
# about 400 KiB
_CHUNK = 8
_CLUSTER_MARGIN = 4  # extra indices inspected so cutoff-straddling clusters close
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
    if not (0.0 < a_min <= a_max):
        raise InputError(f"need 0 < a_min <= a_max, got {a_min}, {a_max}")
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    return np.geomspace(a_min, a_max, steps)


@dataclass(frozen=True)
class SweepResult:
    """Per-half-width comparison data, one row per grid point and one column
    per index n.

    ``differences`` holds |lambda_eff - lambda_true| (eigenvalue kind) or
    the eigenvector distance (eigenvector kind), and ``ratios`` holds
    ``differences / a^2``; ``fit_rate`` fits their log-log slope.
    """

    kind: str
    radius: float
    a_grid: np.ndarray
    count: int
    n_basis: int
    effective_values: np.ndarray
    true_values: np.ndarray
    differences: np.ndarray
    ratios: np.ndarray


def _sweep(
    kind, chunk_rows, radius, a_grid, count, n_basis, geometry, m_s, m_u, threads
) -> SweepResult:
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

    def worker(chunk):
        configs = [
            GalerkinConfig(
                params=StripParams(a=float(a), R=radius), n_basis=n_basis, m_s=m_s,
                m_u=m_u, geometry=geometry, close_pairs=True,
            )
            for a in chunk
        ]
        return chunk_rows(configs, count)

    chunks = [a_grid[lo:lo + _CHUNK] for lo in range(0, a_grid.size, _CHUNK)]
    rows = _map_grid(worker, chunks, threads)
    eff, true, differences = (np.concatenate(column) for column in zip(*rows))
    return SweepResult(
        kind=kind,
        radius=radius,
        a_grid=a_grid,
        count=count,
        n_basis=n_basis,
        effective_values=eff,
        true_values=true,
        differences=differences,
        ratios=differences / a_grid[:, None] ** 2,
    )


def _map_grid(worker, chunks, threads):
    """``worker`` over the chunks in grid order, serially unless ``threads``
    is 2 or more and the grid has more than one point: on 2 cores a pool
    was slower than one thread in both sweeps."""
    if threads is not None and threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    if threads is None or threads == 1 or len(chunks[0]) == 1:
        return [worker(chunk) for chunk in chunks]
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, chunks))


def _solved_chunk(configs, want_vectors: bool):
    """Per stack group of ``galerkin._project``: (positions of its
    configurations, basis (m, n), ascending values (points, N), the merge
    order (points, N) and, with ``want_vectors``, eigenvectors (points, N, N)
    with coefficient rows in basis order and columns in sector order).

    Each sector's stack of blocks is diagonalised by one call; the sector
    values are merged by a stable sort, cosine before sine among ties.
    """
    solved = []
    for points, m, n, sectors, stacks, _ in _project(configs):
        decomps = [eig_dense_symmetric(stack, want_vectors) for stack in stacks]
        values = np.concatenate([d.eigenvalues for d in decomps], axis=1)
        order = np.argsort(values, axis=1, kind="stable")
        vectors = None
        if want_vectors:
            vectors = np.zeros((len(points), m.size, m.size))
            lo = 0
            for rows, decomp in zip(sectors, decomps):
                vectors[:, rows, lo:lo + rows.size] = decomp.eigenvectors
                lo += rows.size
        solved.append((points, (m, n), np.take_along_axis(values, order, axis=1), order, vectors))
    return solved


def _eigenvalue_chunk(configs, count: int):
    """Effective and Galerkin eigenvalues and their gaps at each half-width
    of the chunk, from values-only eigensolves of the sector stacks; the
    N x N matrix is never formed."""
    true = np.empty((len(configs), count))
    for points, _, values, _, _ in _solved_chunk(configs, want_vectors=False):
        true[points] = values[:, :count]
    point, _, _, _, value, _ = _effective_modes(
        configs[0].params.R, [config.params.a for config in configs], count
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
    threads: int | None = 1,
) -> SweepResult:
    """Eigenvalue gap ratios |lambda_eff - lambda_true| / a^2 over a grid."""
    return _sweep("eigenvalue", _eigenvalue_chunk, radius, a_grid, count, n_basis,
                  geometry, m_s, m_u, threads)


def _clusters(effective, true, count):
    """Partition 0..count-1 into runs degenerate on either side.

    A run may extend past ``count`` (up to a small margin) so that a pair
    straddling the requested cutoff is still compared as a whole.
    """

    def joined(i):
        tol_eff = CLUSTER_RTOL * max(1.0, abs(effective[i]))
        tol_true = CLUSTER_RTOL * max(1.0, abs(true[i]))
        return (
            abs(effective[i + 1] - effective[i]) <= tol_eff
            or abs(true[i + 1] - true[i]) <= tol_true
        )

    limit = min(count + _CLUSTER_MARGIN, effective.size, true.size)
    parts = []
    start = 0
    while start < count:
        end = start + 1
        while end < limit and joined(end - 1):
            end += 1
        parts.append((start, end))
        start = end
    return parts


def _subspace_distance(true_block, eff_block, truncations):
    """Per-vector Procrustes distance between two near-orthonormal blocks.

    Minimises ||C - E Q||_F over orthogonal alignments Q (the optimum is
    U V^T from the polar part of E^T C) and evaluates the minimum
    elementwise, which stays accurate for distances far below sqrt(eps);
    the closed form 2h - 2 sum(sigma) would lose everything below ~1e-8 to
    cancellation.  The effective block lives in the Galerkin basis, so its
    out-of-basis tail (squared norm ``truncations``) is added back; the
    tail is invariant under Q.  Divided by sqrt(h) the result reduces to
    the sign-aligned single-vector distance when h = 1.
    """
    h = true_block.shape[1]
    u, _, vt = np.linalg.svd(eff_block.T @ true_block)
    aligned = eff_block @ (u @ vt)
    squared = float(np.sum((true_block - aligned) ** 2)) + float(np.sum(truncations))
    return np.sqrt(squared / h)


def _eigenvector_chunk(configs, count: int):
    """Effective and Galerkin eigenvalues and the eigenvector distances at
    each half-width of the chunk, clusters compared as subspaces; the
    effective modes are expanded over the bases the projection enumerated."""
    eff = np.empty((len(configs), count))
    true = np.empty_like(eff)
    distances = np.empty_like(eff)
    solved = _solved_chunk(configs, want_vectors=True)
    basis_of = {i: basis for points, basis, *_ in solved for i in points}
    bases = [basis_of[i] for i in range(len(configs))]
    probes = [min(count + _CLUSTER_MARGIN, m.size) for m, _ in bases]
    expansions = _expansions([config.params for config in configs], bases, probes)
    for points, _, values, order, vectors in solved:
        for g, i in enumerate(points):
            coefficients = vectors[g][:, order[g, :probes[i]]]
            expansion = expansions[i]
            for lo, hi in _clusters(expansion.values, values[g], count):
                distances[i, lo:min(hi, count)] = _subspace_distance(
                    coefficients[:, lo:hi],
                    expansion.coefficients[:, lo:hi],
                    expansion.truncations[lo:hi],
                )
            eff[i] = expansion.values[:count]
            true[i] = values[g, :count]
    return eff, true, distances


def eigenvector_sweep(
    radius: float,
    a_grid,
    count: int,
    n_basis: int,
    *,
    geometry: str = "true_geometry",
    m_s: int | None = None,
    m_u: int | None = None,
    threads: int | None = 1,
) -> SweepResult:
    """Eigenvector distance ratios ||f_true - f_eff|| / a^2 over a grid."""
    return _sweep("eigenvector", _eigenvector_chunk, radius, a_grid, count, n_basis,
                  geometry, m_s, m_u, threads)


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
