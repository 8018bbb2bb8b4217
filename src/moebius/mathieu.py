"""Mathieu characteristic values and normalised periodic Mathieu functions.

The equation y'' + (mu - 2 q cos 2 eta) y = 0 has a 2 pi periodic solution
exactly when mu equals a characteristic value a_m(q) (even solution ce_m)
or b_m(q) (odd solution se_m).  Expanding in Fourier series splits the
problem into four symmetry classes, each governed by a symmetric
tridiagonal recurrence matrix:

    ce, even order:  harmonics cos(2k eta),      diag (0, 4, 16, ...),
                     off-diagonal (sqrt(2) q, q, q, ...)
    ce, odd order:   harmonics cos((2k+1) eta),  diag (1+q, 9, 25, ...), off-diag q
    se, odd order:   harmonics sin((2k+1) eta),  diag (1-q, 9, 25, ...), off-diag q
    se, even order:  harmonics sin((2k+2) eta),  diag (4, 16, 36, ...),  off-diag q

The sqrt(2) on the first ce-even coupling symmetrises the recurrence (the
constant harmonic carries twice the L2 weight of the others); with it, the
i-th smallest eigenvalue of each class matrix is the characteristic value
of the i-th order in that class, and a unit-norm eigenvector yields
coefficients normalised so that

    integral_{-pi}^{pi} |ce_m|^2 = integral_{-pi}^{pi} |se_m|^2 = pi.

Each class is solved once, at a truncation computed from q and the count
(``_truncation``): at least 64 rows, growing with the count and with
|q|^(1/4), the width in rows of the lowest eigenvectors at large |q|, so
that doubling it moves no requested value by more than 1e-13.  No
recurrence above 4096 rows is built (each is solved dense, 128 MiB at that
order): a (q, count) whose truncation is past that cap raises
``CapacityError`` before anything is allocated, a finite |q| whose
recurrences reach the largest double (``_OVERFLOW_Q``, about 7.4e307)
raises ``NumericalError``, and a non-finite q ``InputError``.
The sign convention fixes each expansion's coefficient of its own harmonic
m positive, so that ce_m -> cos m eta and se_m -> sin m eta as q -> 0.
The eigenvalues of each recurrence are solved once, kept per
(kind, parity, q, rows), and every count at those rows reads their leading
slice; the eigenpairs of the last four classes are kept too, for their
vectors alone: every value, with or without its expansion, is read from
the eigenvalue solve.
Results are cached per (kind, order, q) and immutable (their arrays are
read-only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, InputError, NumericalError
from .linalg import eig_tridiagonal, eig_tridiagonal_full

__all__ = ["MathieuChar", "char_values", "char_value", "fourier_coefficients", "evaluate"]

_BASE_TRUNCATION = 64
_MAX_TRUNCATION = 4096
# tolerance, relative to max(1, |value|), within which doubling a
# truncation moves no value
_STABILITY_TOL = 1e-13
_COEFF_CUTOFF = 1e-16
# decompositions kept by _class_decomposition's cache: the four classes of
# one q, at most 4 x 128 MiB at the truncation cap
_CACHED_DECOMPOSITIONS = 4
# The lowest values of a class at large |q| lie in the wells of
# -2 q cos 2 eta, where the recurrence is a discrete harmonic oscillator in
# the row: the count-th level turns near row |q|^(1/4) sqrt(2 count), and
# its coefficients then decay within a few |q|^(1/4) rows.  Bisected per
# class, q and count for the least constant at which doubling the
# truncation moves no value past the stability tolerance (|q| from 1e2 to
# 3e12, counts 1 to 1000, largest over the classes): at most 2.1, and 2.5
# where a value near 0, resolved only to about 1e-16 |q|, needs the two
# solves to agree bit for bit.  4.73 keeps the line of the lowest values
# at |q| = 1.94e11, where the search by doubling refused.
_WELL_TAIL = 4.73
# From this |q| on, Gershgorin's bound on a recurrence's eigenvalues,
# (1 + sqrt 2)|q| plus a diagonal far below it, passes the largest double.
_OVERFLOW_Q = float(np.finfo(float).max / (1.0 + np.sqrt(2.0)))


@dataclass(frozen=True)
class MathieuChar:
    """One characteristic value, optionally with its Fourier expansion.

    ``harmonics`` lists the integer frequencies of the expansion (stride 2
    within one symmetry class) and ``fourier`` the matching coefficients:
    ce_m(eta) = sum_j fourier[j] * cos(harmonics[j] * eta), se_m with sin.
    Both are None when only the value was requested.
    """

    kind: str
    m: int
    value: float
    harmonics: np.ndarray | None = None
    fourier: np.ndarray | None = None


def _validate(kind: str, m: int) -> None:
    if kind not in ("ce", "se"):
        raise InputError(f"kind must be 'ce' or 'se', got {kind!r}")
    if kind == "ce" and m < 0:
        raise InputError(f"ce order must be >= 0, got {m}")
    if kind == "se" and m < 1:
        raise InputError(f"se order must be >= 1, got {m}")


def _first_harmonic(kind: str, parity: int) -> int:
    if kind == "ce":
        return parity  # 0 or 1
    return 1 if parity == 1 else 2


def _recurrence(kind: str, parity: int, q: float, size: int):
    """Diagonal and off-diagonal of one class's recurrence at ``size`` rows."""
    start = _first_harmonic(kind, parity)
    harmonics = start + 2.0 * np.arange(size)
    diag = harmonics**2
    off = np.full(size - 1, q)
    if kind == "ce" and parity == 1:
        diag[0] = 1.0 + q
    elif kind == "se" and parity == 1:
        diag[0] = 1.0 - q
    elif kind == "ce" and parity == 0:
        off[0] = np.sqrt(2.0) * q
    return diag, off


def _truncation(q: float, count: int) -> int:
    """Rows of the recurrences that resolve the first ``count`` values of
    every class at a finite ``q``: ``count`` + 16 past the free levels
    (2k)^2, plus the rows that the count-th level of the wells of
    -2 q cos 2 eta spans, |q|^(1/4) (sqrt(2 count) + ``_WELL_TAIL``); at
    least 64."""
    count = min(count, _MAX_TRUNCATION)  # a larger count is past the cap alike
    well = abs(q) ** 0.25 * (np.sqrt(2.0 * count) + _WELL_TAIL)
    return max(_BASE_TRUNCATION, count + 16 + int(np.ceil(well)))


@lru_cache(maxsize=None)
def _stable_class_values(kind: str, parity: int, q: float, count: int):
    """First ``count`` class eigenvalues, solved at ``_truncation`` rows.

    Returns (values, size) where ``size`` is that truncation.
    """
    if not np.isfinite(q):
        raise InputError(f"non-finite Mathieu parameter q={q}")
    if _OVERFLOW_Q <= abs(q):
        raise NumericalError(
            f"non-finite eigenvalues: Mathieu recurrences at |q|={abs(q):.3g} reach "
            f"the largest double (from |q|={_OVERFLOW_Q:.3g})"
        )
    size = _truncation(q, count)
    if size > _MAX_TRUNCATION:
        cap = f"need a recurrence above the truncation cap {_MAX_TRUNCATION}"
        if _truncation(q, 1) > _MAX_TRUNCATION:  # no value of this q fits
            raise CapacityError(f"Mathieu values at |q|={abs(q):.3g} {cap}")
        raise CapacityError(f"{count} Mathieu values of class ({kind}, parity {parity}) {cap} "
                            f"at |q|={abs(q):.3g}")
    return _class_values(kind, parity, q, size)[:count], size


@lru_cache(maxsize=None)
def _class_values(kind: str, parity: int, q: float, size: int) -> np.ndarray:
    """All eigenvalues of one class's recurrence at ``size`` rows, ascending
    and read-only."""
    values = eig_tridiagonal(*_recurrence(kind, parity, q, size))
    values.flags.writeable = False
    return values


@lru_cache(maxsize=_CACHED_DECOMPOSITIONS)
def _class_decomposition(kind: str, parity: int, q: float, size: int):
    """All eigenpairs of one class's recurrence at ``size`` rows, read-only."""
    decomp = eig_tridiagonal_full(*_recurrence(kind, parity, q, size))
    decomp.eigenvalues.flags.writeable = False
    decomp.eigenvectors.flags.writeable = False
    return decomp


def _class_index(m: int, kind: str) -> int:
    # position of order m inside its symmetry class
    if kind == "ce":
        return m // 2
    return (m - 1) // 2 if m % 2 == 1 else m // 2 - 1


def char_value(kind: str, m: int, q: float) -> float:
    """Single characteristic value a_m(q) (kind 'ce') or b_m(q) (kind 'se')."""
    _validate(kind, m)
    idx = _class_index(m, kind)
    values, _ = _stable_class_values(kind, m % 2, float(q), idx + 1)
    return float(values[idx])


def char_values(q: float, max_order: int) -> list[MathieuChar]:
    """All characteristic values a_0..a_max and b_1..b_max at parameter q.

    Values only (no Fourier data); ordered ce first then se, each by order.
    """
    if max_order < 0:
        raise InputError(f"max_order must be >= 0, got {max_order}")
    q = float(q)
    out = []
    for kind in ("ce", "se"):
        lowest = 0 if kind == "ce" else 1
        for parity in (0, 1):
            # a range, so an order past the truncation cap is refused unlisted
            orders = range(lowest + (lowest + parity) % 2, max_order + 1, 2)
            if not orders:
                continue
            count = _class_index(orders[-1], kind) + 1
            values, _ = _stable_class_values(kind, parity, q, count)
            for m in orders:
                out.append(MathieuChar(kind, m, float(values[_class_index(m, kind)])))
    out.sort(key=lambda ch: (ch.kind, ch.m))
    return out


@lru_cache(maxsize=None)
def fourier_coefficients(kind: str, m: int, q: float) -> MathieuChar:
    """Characteristic value plus normalised Fourier coefficients of ce_m/se_m.

    The recurrence eigenvector is normalised to unit length (which realises
    the sqrt(pi) function normalisation), its overall sign is fixed by a
    positive coefficient of the harmonic m, and for the ce-even class the
    constant-harmonic coefficient is rescaled by 1/sqrt(2) back to function
    space.  Trailing coefficients below 1e-16 are dropped.
    """
    _validate(kind, m)
    q = float(q)
    parity = m % 2
    idx = _class_index(m, kind)
    values, size = _stable_class_values(kind, parity, q, idx + 1)
    y = _class_decomposition(kind, parity, q, size).eigenvectors[:, idx]
    coeff = y / np.linalg.norm(y)
    if coeff[idx] < 0.0:  # row idx carries the harmonic m
        coeff = -coeff
    if kind == "ce" and parity == 0:
        coeff[0] /= np.sqrt(2.0)
    keep = np.nonzero(np.abs(coeff) >= _COEFF_CUTOFF)[0]
    last = keep[-1] + 1 if keep.size else 1
    harmonics = _first_harmonic(kind, parity) + 2 * np.arange(last)
    return MathieuChar(
        kind=kind,
        m=m,
        value=float(values[idx]),  # char_value's; eigh's value differs in the last bits
        harmonics=harmonics,
        fourier=coeff[:last].copy(),
    )


def evaluate(kind: str, m: int, q: float, eta, derivative: int = 0):
    """Pointwise ce_m(eta, q) or se_m(eta, q), or its second eta derivative.

    Sums the Fourier series; 2 pi periodic, ce even and se odd in eta,
    pi periodic for even order and pi antiperiodic for odd order.
    """
    if derivative not in (0, 2):
        raise InputError(f"derivative must be 0 or 2, got {derivative}")
    ch = fourier_coefficients(kind, m, float(q))
    eta = np.asarray(eta, dtype=float)
    j = ch.harmonics[:, None]
    coeff = ch.fourier[:, None]
    phase = j * eta.reshape(1, -1)
    wave = np.cos(phase) if kind == "ce" else np.sin(phase)
    table = coeff * wave if derivative == 0 else -coeff * j * j * wave
    result = table.sum(axis=0).reshape(eta.shape)
    return result if result.shape else float(result)
