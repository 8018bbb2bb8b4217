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

Raw eigenvalues are stored alongside the ratios so that rate fits need no
recomputation.  ``fit_rate`` performs the least-squares log-log fit; the
proven thin-strip rate is linear in a, the observed one quadratic.

Eigenvalue sweeps diagonalise the assembled matrix for its values only;
eigenvector sweeps take the sector-ordered eigenpairs of
``galerkin.eigenpairs``.  Neither computes residuals.  Sweeps solve
independent half-widths, optionally on a thread pool; results are gathered
in grid order, so the output is deterministic for a given configuration.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .galerkin import GalerkinConfig, assemble, effective_in_basis, eigenpairs
from .galerkin import solve  # noqa: F401  (benchmark/spans.py traces convergence.solve)
from .geometry import StripParams
from .linalg import eig_dense_symmetric
from .models import effective_spectrum

__all__ = ["SweepResult", "eigenvalue_sweep", "eigenvector_sweep", "fit_rate", "geometric_grid"]

CLUSTER_RTOL = 1e-9
_CLUSTER_MARGIN = 4  # extra indices inspected so cutoff-straddling clusters close


def geometric_grid(a_min: float, a_max: float, steps: int) -> np.ndarray:
    """Log-uniform half-width grid, the natural spacing for rate fits."""
    if not (0.0 < a_min <= a_max):
        raise InputError(f"need 0 < a_min <= a_max, got {a_min}, {a_max}")
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    return np.geomspace(a_min, a_max, steps)


@dataclass(frozen=True)
class SweepResult:
    """Per-half-width comparison data plus whole-grid fitted slopes.

    ``ratios`` is |difference| / a^2 with difference the eigenvalue gap or
    the eigenvector distance depending on ``kind``; ``distances`` is only
    set for eigenvector sweeps.  ``slopes[n-1]`` is the full-grid log-log
    slope for index n (NaN when the grid has fewer than 4 points).
    """

    kind: str
    radius: float
    a_grid: np.ndarray
    count: int
    n_basis: int
    effective_values: np.ndarray
    true_values: np.ndarray
    ratios: np.ndarray
    slopes: np.ndarray
    distances: np.ndarray | None = None

    def differences(self) -> np.ndarray:
        """|lambda_eff - lambda_true| or eigenvector distances, per (a, n)."""
        if self.kind == "eigenvector":
            return self.distances
        return np.abs(self.effective_values - self.true_values)


def _validate_sweep_args(a_grid, count, n_basis):
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
    return a_grid


def _map_grid(worker, a_grid, threads):
    if threads is not None and threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    if threads == 1 or a_grid.size == 1:
        return [worker(a) for a in a_grid]
    # None means one worker per core; the executor's own default (cores + 4)
    # keeps that many solves' arrays alive at once while LAPACK runs
    with ThreadPoolExecutor(max_workers=threads or os.cpu_count()) as pool:
        return list(pool.map(worker, a_grid))


def _fit_slopes(a_grid, differences) -> np.ndarray:
    count = differences.shape[1]
    slopes = np.full(count, np.nan)
    if a_grid.size >= 4:
        log_a = np.log(a_grid)
        for n in range(count):
            diff = np.maximum(np.abs(differences[:, n]), 1e-300)
            slopes[n] = np.polyfit(log_a, np.log(diff), 1)[0]
    return slopes


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
    a_grid = _validate_sweep_args(a_grid, count, n_basis)

    def worker(a: float):
        params = StripParams(a=float(a), R=radius)
        config = GalerkinConfig(
            params=params, n_basis=n_basis, m_s=m_s, m_u=m_u,
            geometry=geometry, close_pairs=True,
        )
        true = eig_dense_symmetric(assemble(config), want_vectors=False).eigenvalues
        eff = effective_spectrum(params, count).values(count)
        return eff, true[:count]

    rows = _map_grid(worker, a_grid, threads)
    eff = np.vstack([r[0] for r in rows])
    true = np.vstack([r[1] for r in rows])
    ratios = np.abs(eff - true) / a_grid[:, None] ** 2
    return SweepResult(
        kind="eigenvalue",
        radius=radius,
        a_grid=a_grid,
        count=count,
        n_basis=n_basis,
        effective_values=eff,
        true_values=true,
        ratios=ratios,
        slopes=_fit_slopes(a_grid, np.abs(eff - true)),
    )


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
    a_grid = _validate_sweep_args(a_grid, count, n_basis)
    probe = count + _CLUSTER_MARGIN

    def worker(a: float):
        params = StripParams(a=float(a), R=radius)
        config = GalerkinConfig(
            params=params, n_basis=n_basis, m_s=m_s, m_u=m_u,
            geometry=geometry, close_pairs=True,
        )
        true = eigenpairs(config)
        n_probe = min(probe, true.eigenvalues.size)
        expansion = effective_in_basis(config, n_probe)
        eff_values = expansion.spectrum.values(n_probe)
        distances = np.empty(count)
        for lo, hi in _clusters(eff_values, true.eigenvalues, count):
            d = _subspace_distance(
                true.eigenvectors[:, lo:hi],
                expansion.coefficients[:, lo:hi],
                expansion.truncations[lo:hi],
            )
            distances[lo:min(hi, count)] = d
        return eff_values[:count], true.eigenvalues[:count], distances

    rows = _map_grid(worker, a_grid, threads)
    eff = np.vstack([r[0] for r in rows])
    true = np.vstack([r[1] for r in rows])
    distances = np.vstack([r[2] for r in rows])
    ratios = distances / a_grid[:, None] ** 2
    return SweepResult(
        kind="eigenvector",
        radius=radius,
        a_grid=a_grid,
        count=count,
        n_basis=n_basis,
        effective_values=eff,
        true_values=true,
        ratios=ratios,
        slopes=_fit_slopes(a_grid, distances),
        distances=distances,
    )


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
    diff = np.maximum(sweep.differences()[mask, index - 1], 1e-300)
    return float(np.polyfit(np.log(sweep.a_grid[mask]), np.log(diff), 1)[0])
