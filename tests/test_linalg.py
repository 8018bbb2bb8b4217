import tracemalloc

import numpy as np
import pytest

from moebius.errors import InputError, NumericalError
from moebius.galerkin import GalerkinConfig, assemble, solve
from moebius.geometry import StripParams
from moebius.linalg import (
    SymmetricMatrix,
    _tridiagonal,
    eig_dense_symmetric,
    eig_tridiagonal,
    eig_tridiagonal_full,
)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def test_diagonal_matrix():
    decomp = eig_dense_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert decomp.eigenvalues == pytest.approx([1.0, 2.0, 3.0], abs=1e-15)


def test_two_by_two_swap():
    decomp = eig_dense_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert decomp.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-15)
    expected = 1.0 / np.sqrt(2.0)
    for k in range(2):
        v = decomp.eigenvectors[:, k]
        assert np.abs(v) == pytest.approx([expected, expected], abs=1e-15)
    # antisymmetric combination belongs to -1
    v = decomp.eigenvectors[:, 0]
    assert v[0] * v[1] < 0


def test_trace_identity():
    a = random_symmetric(20, seed=1)
    decomp = eig_dense_symmetric(a, want_vectors=False)
    assert decomp.eigenvalues.sum() == pytest.approx(np.trace(a), rel=1e-10)


def test_determinant_identity():
    a = random_symmetric(6, seed=2)
    decomp = eig_dense_symmetric(a, want_vectors=False)
    # LU-based determinant is an independent oracle
    assert np.prod(decomp.eigenvalues) == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_against_lapack_and_residuals():
    a = random_symmetric(60, seed=3)
    decomp = eig_dense_symmetric(a)
    reference = np.linalg.eigvalsh(a)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(decomp.eigenvalues - reference)) < 1e-12 * scale

    v = decomp.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(60))) < 1e-10
    norm_a = np.linalg.norm(a)
    residual = a @ v - v * decomp.eigenvalues[None, :]
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-9 * norm_a
    reconstruction = v @ np.diag(decomp.eigenvalues) @ v.T
    assert np.linalg.norm(a - reconstruction) <= 1e-10 * norm_a


def test_permutation_similarity():
    a = random_symmetric(15, seed=4)
    rng = np.random.default_rng(5)
    perm = rng.permutation(15)
    permuted = a[np.ix_(perm, perm)]
    first = eig_dense_symmetric(a, want_vectors=False).eigenvalues
    second = eig_dense_symmetric(permuted, want_vectors=False).eigenvalues
    assert np.max(np.abs(first - second)) < 1e-11 * max(1.0, np.max(np.abs(first)))


def test_symmetric_matrix_storage():
    # the matrix is kept as built; to_dense hands out an equal, independent copy
    dense = np.array([[2.0, -1.0], [-1.0, 5.0]])
    matrix = SymmetricMatrix(dense)
    assert matrix.dense is dense
    copy = matrix.to_dense()
    assert np.array_equal(copy, dense) and copy is not dense
    copy[0, 0] = 7.0
    assert matrix.dense[0, 0] == 2.0 and np.array_equal(matrix.to_dense(), dense)
    huge = np.array([[1e308, 2.0], [2.0, -1e308]])  # no overflow on the diagonal
    assert np.array_equal(SymmetricMatrix(huge).to_dense(), huge)
    for bad in (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros((2, 3)), np.zeros((0, 0)),
                np.zeros(4)):
        with pytest.raises(InputError):
            SymmetricMatrix(bad)


def test_tridiagonal_decoupled():
    values = eig_tridiagonal(np.array([0.0, 4.0, 16.0]), np.zeros(2))
    assert values == pytest.approx([0.0, 4.0, 16.0], abs=1e-15)


def test_tridiagonal_discrete_laplacian():
    # classical closed form: eigenvalues 2 - 2 cos(k pi / (n+1))
    n = 34
    expected = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    expected.sort()
    assert eig_tridiagonal(np.full(n, 2.0), np.full(n - 1, -1.0)) == pytest.approx(
        expected, abs=1e-13
    )


def test_tridiagonal_full_pairs():
    rng = np.random.default_rng(8)
    diag, off = rng.standard_normal(25), rng.standard_normal(24)
    decomp = eig_tridiagonal_full(diag, off)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    v = decomp.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(25))) < 1e-10
    residual = dense @ v - v * decomp.eigenvalues[None, :]
    assert np.max(np.abs(residual)) < 1e-9 * np.linalg.norm(dense)


def test_graded_matrix_small_eigenvalue_accuracy():
    # growing diagonal: the lowest eigenvalue must be resolved to ~eps absolutely
    n = 64
    diag = (2.0 * np.arange(n)) ** 2
    off = np.full(n - 1, -0.25)
    off[0] *= np.sqrt(2.0)
    coarse = eig_tridiagonal(diag, off)[0]
    fine = eig_tridiagonal(
        (2.0 * np.arange(2 * n)) ** 2, np.concatenate([off, np.full(n, -0.25)])
    )[0]
    assert abs(coarse - fine) < 1e-14


def test_input_validation():
    diag, off = np.array([1.0, 2.0]), np.array([0.5])
    for bad_diag, bad_off, message in (
        (np.zeros((2, 2)), off, "diagonal must be a non-empty 1-d array"),
        (np.zeros(0), np.zeros(0), "diagonal must be a non-empty 1-d array"),
        (diag, np.zeros(2), r"offdiagonal must have length 1, got \(2,\)"),
        (diag, np.array([np.inf]), "tridiagonal matrix has non-finite entries"),
        (np.array([np.nan, 2.0]), off, "tridiagonal matrix has non-finite entries"),
    ):
        with pytest.raises(InputError, match=message):
            eig_tridiagonal(bad_diag, bad_off)
        with pytest.raises(InputError, match=message):
            eig_tridiagonal_full(bad_diag, bad_off)


def test_tridiagonal_builder_fills_one_dense_matrix():
    diag, off = np.arange(1.0, 6.0), np.arange(-1.0, -5.0, -1.0)
    assert np.array_equal(_tridiagonal(diag, off), np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    assert np.array_equal(_tridiagonal(np.array([3.0]), np.zeros(0)), [[3.0]])
    # filled in place: the traced peak is the one n x n array and a few
    # kilobytes of fixed overhead, no index arrays of length n
    n = 1024
    diag, off = np.arange(float(n)), np.ones(n - 1)
    tracemalloc.start()
    try:
        _tridiagonal(diag, off)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n * n <= peak < 8 * n * n + 8192


def test_plain_arrays_go_to_lapack_unpacked(monkeypatch):
    def not_packed(*args, **kwargs):
        raise AssertionError("a SymmetricMatrix was constructed")

    monkeypatch.setattr(SymmetricMatrix, "__post_init__", not_packed)
    # solve diagonalises its own array; only assemble returns a SymmetricMatrix
    config = GalerkinConfig(params=StripParams(a=0.5, R=2.0), n_basis=12)
    assert solve(config).eigenvalues.size == 12
    with pytest.raises(AssertionError, match="SymmetricMatrix"):
        assemble(config)
    a = random_symmetric(12, seed=6)
    expected = np.linalg.eigvalsh(a)
    # only the lower triangle is read and checked
    upper = a.copy()
    upper[np.triu_indices(12, 1)] = np.nan
    for matrix in (a, upper):
        assert np.array_equal(eig_dense_symmetric(matrix, want_vectors=False).eigenvalues, expected)
        assert np.array_equal(eig_dense_symmetric(matrix).eigenvalues, np.linalg.eigh(a)[0])
    lower = a.copy()
    lower[5, 2] = np.inf
    for bad in (lower, np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(4)):
        with pytest.raises(InputError):
            eig_dense_symmetric(bad)


def test_overflow_raises_numerical_error():
    # finite entries near the largest double overflow inside LAPACK
    diag, off = np.full(8, 1e308), np.full(7, 1e308)
    with pytest.raises(NumericalError, match="non-finite"):
        eig_tridiagonal(diag, off)
    with pytest.raises(NumericalError, match="non-finite"):
        eig_dense_symmetric(_tridiagonal(diag, off))


def test_lapack_failure_raises_numerical_error(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericalError, match="did not converge"):
        eig_dense_symmetric(np.eye(3))


def test_stacks_are_solved_member_by_member_bitwise():
    for shape in ((3,), (2, 2), (1,)):
        for n in (1, 5, 37):
            members = [random_symmetric(n, seed=10 + k) for k in range(int(np.prod(shape)))]
            stack = np.array(members).reshape(shape + (n, n))
            values = eig_dense_symmetric(stack, want_vectors=False)
            pairs = eig_dense_symmetric(stack)
            assert values.eigenvalues.shape == shape + (n,) and values.eigenvectors is None
            assert pairs.eigenvectors.shape == shape + (n, n)
            for k, matrix in enumerate(members):
                index = np.unravel_index(k, shape)
                alone = eig_dense_symmetric(matrix, want_vectors=False).eigenvalues
                assert np.array_equal(values.eigenvalues[index], alone)
                alone = eig_dense_symmetric(matrix)
                assert np.array_equal(pairs.eigenvalues[index], alone.eigenvalues)
                assert np.array_equal(pairs.eigenvectors[index], alone.eigenvectors)


def test_stacks_are_checked_in_every_member(monkeypatch):
    stack = np.array([random_symmetric(4, seed=k) for k in range(3)])
    for member in range(3):
        bad = stack.copy()
        bad[member, 3, 1] = np.nan  # lower triangle of one member only
        with pytest.raises(InputError, match="matrix of order 4 has non-finite entries"):
            eig_dense_symmetric(bad)
        bad = stack.copy()
        bad[member, 1, 3] = np.nan  # the upper triangle is not read
        eig_dense_symmetric(bad, want_vectors=False)
    for shape in ((3, 4, 5), (2, 3, 1, 2)):
        with pytest.raises(InputError, match=rf"square matrix, got shape \({shape[0]}, "):
            eig_dense_symmetric(np.zeros(shape))
    with pytest.raises(InputError, match="matrix order must be >= 1, got 0"):
        eig_dense_symmetric(np.zeros((3, 0, 0)))
    overflowing = np.stack([np.eye(8), _tridiagonal(np.full(8, 1e308), np.full(7, 1e308))])
    with pytest.raises(NumericalError, match="non-finite eigenvalues for a matrix of order 8"):
        eig_dense_symmetric(overflowing, want_vectors=False)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericalError, match="failed on a matrix of order 6: Eigenvalues"):
        eig_dense_symmetric(np.zeros((2, 6, 6)))
