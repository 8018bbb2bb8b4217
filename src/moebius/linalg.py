"""Real symmetric eigensolvers: LAPACK through numpy.

* ``eig_dense_symmetric`` - full spectrum of a dense symmetric array, or
  of each member of a stack of them with shape (..., n, n) as numpy takes
  it (the Galerkin sector blocks of a chunk of sweep points), with
  optional eigenvectors.
* ``eig_tridiagonal`` / ``eig_tridiagonal_full`` - all eigenvalues, or
  all eigenpairs, of a symmetric tridiagonal matrix given by its diagonal
  and off-diagonal arrays (the Mathieu recurrences).

Each validates its arrays (shape, finite, every member of a stack alike)
and calls ``numpy.linalg.eigh`` or ``eigvalsh`` once; a tridiagonal matrix goes to LAPACK as one dense array,
filled in place.  No solver reads ``SymmetricMatrix``, which only
``galerkin.assemble`` returns.  The Mathieu tables need the small
eigenvalues of recurrences graded with growing diagonals to absolute
accuracy near machine epsilon; ``tests/test_linalg.py`` re-checks that on
the LAPACK path rather than assuming it.  A ``LinAlgError`` or a
non-finite eigenvalue (overflow near the largest double) raises
``NumericalError``; every message names the matrix order n.  Eigenvalues are returned ascending; degenerate values
are not collapsed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "SymmetricMatrix",
    "EigenDecomposition",
    "eig_dense_symmetric",
    "eig_tridiagonal",
    "eig_tridiagonal_full",
]


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense symmetric matrix stored as its packed lower triangle.

    ``lower`` holds rows of the lower triangle concatenated
    (row i contributes entries (i, 0..i)), so symmetry holds by
    construction.
    """

    order: int
    lower: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise InputError(f"matrix order must be >= 1, got {self.order}")
        expected = self.order * (self.order + 1) // 2
        if self.lower.shape != (expected,):
            raise InputError(
                f"packed lower triangle of order {self.order} needs {expected} "
                f"entries, got shape {self.lower.shape}"
            )
        if not np.all(np.isfinite(self.lower)):
            raise InputError("matrix has non-finite entries")

    @classmethod
    def from_dense(cls, dense) -> "SymmetricMatrix":
        """Pack the lower triangle of a square array (upper half ignored)."""
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise InputError(f"expected a square matrix, got shape {dense.shape}")
        n = dense.shape[0]
        idx = np.tril_indices(n)
        return cls(order=n, lower=dense[idx].copy())

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.order, self.order))
        idx = np.tril_indices(self.order)
        out[idx] = self.lower
        out.T[idx] = self.lower
        return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, plus orthonormal eigenvector columns if requested."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def _eigh(dense: np.ndarray, want_vectors: bool) -> EigenDecomposition:
    """LAPACK eigenpairs (or values only) of a validated dense matrix."""
    try:
        if want_vectors:
            values, vectors = np.linalg.eigh(dense)
        else:
            values, vectors = np.linalg.eigvalsh(dense), None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on a matrix of order {dense.shape[-1]}: {exc}"
        ) from exc
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            f"non-finite eigenvalues for a matrix of order {dense.shape[-1]}"
        )
    return EigenDecomposition(values, vectors)


def eig_dense_symmetric(matrix, want_vectors: bool = True) -> EigenDecomposition:
    """Full spectrum of a dense real symmetric matrix, ascending.

    ``matrix`` is a square array, or a stack of them with shape
    (..., n, n); only the lower triangle of each is checked and read, and
    the array goes to LAPACK as it is, in one call.  A stack gives values
    of shape (..., n) and vectors of shape (..., n, n), each member's
    equal bit for bit to its own call.
    """
    dense = np.asarray(matrix, dtype=float)
    if dense.ndim < 2 or dense.shape[-1] != dense.shape[-2]:
        raise InputError(f"expected a square matrix, got shape {dense.shape}")
    if dense.shape[-1] < 1:
        raise InputError("matrix order must be >= 1, got 0")
    # the whole array first: the lower-triangle copy is made only when that fails
    if not np.isfinite(dense).all() and not np.isfinite(np.tril(dense)).all():
        raise InputError(f"matrix of order {dense.shape[-1]} has non-finite entries")
    return _eigh(dense, want_vectors)


def _tridiagonal(diagonal, offdiagonal) -> np.ndarray:
    """The dense symmetric tridiagonal matrix of ``diagonal`` (n) and
    ``offdiagonal`` (n-1), validated and filled in place."""
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(offdiagonal, dtype=float)
    if d.ndim != 1 or d.size < 1:
        raise InputError("diagonal must be a non-empty 1-d array")
    if e.shape != (d.size - 1,):
        raise InputError(
            f"offdiagonal must have length {d.size - 1}, got {e.shape}"
        )
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise InputError("tridiagonal matrix has non-finite entries")
    out = np.diag(d)
    out.flat[1::d.size + 1] = e
    out.flat[d.size::d.size + 1] = e
    return out


def eig_tridiagonal(diagonal, offdiagonal) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending."""
    return _eigh(_tridiagonal(diagonal, offdiagonal), want_vectors=False).eigenvalues


def eig_tridiagonal_full(diagonal, offdiagonal) -> EigenDecomposition:
    """All eigenpairs of a symmetric tridiagonal matrix, ascending."""
    return _eigh(_tridiagonal(diagonal, offdiagonal), want_vectors=True)
