"""Closed-form spectra and eigenfunctions of the flat and effective models.

Both models live on the rescaled rectangle Pi = (0, 2 pi R) x (-1, 1) with
Dirichlet walls at u = +/-1 and the twisted seam psi(0, u) = psi(2 pi R, -u).

Flat ("fake") model, pure Laplacian: eigenvalues

    lambda_{m,n} = (m / 2R)^2 + (n pi / 2a)^2,   m in Z, n >= 1, m + n odd,

with real separable eigenfunctions.  The longitudinal factor is
(2 pi R)^(-1/2) for m = 0 and (pi R)^(-1/2) cos(m s / 2R) or
(pi R)^(-1/2) sin(|m| s / 2R) for m != 0; a negative mode index m labels
the sine partner of the degenerate +/-|m| pair.  The transverse factor is
cos(n pi u / 2) for odd n and sin(n pi u / 2) for even n.  Both real
combinations satisfy the twisted seam conditions exactly when m + n is odd,
and they make every projection matrix downstream real symmetric.

Effective model, Laplacian plus the geometric potential
-cos(s/R) / (8 R^2): separation in s yields the Mathieu equation at
parameter q = -1/4, so

    lambda = (1/2R)^2 a_m(q) + (n pi / 2a)^2   (family eff_ce, m >= 0)
    lambda = (1/2R)^2 b_m(q) + (n pi / 2a)^2   (family eff_se, m >= 1)

again under m + n odd, with longitudinal factors
(pi R)^(-1/2) ce_m(s/2R, q) and (pi R)^(-1/2) se_m(s/2R, q).  At q = 0
these degenerate exactly onto the flat model (ce_m -> cos, se_m -> sin),
which fixes the correspondence between the signed flat index and the
ce/se families; ``effective_spectrum`` keeps q overridable so that
degeneration is testable.

Eigenvalues are returned merged into multiplicity-aware entries: values
within 1e-9 relative collapse into one entry (the near-identical ce/se
pairs at large order must merge, physically split pairs stay apart), with
a deterministic lexicographic mode order inside each entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InputError
from .geometry import StripParams

__all__ = [
    "FAMILY_FAKE",
    "FAMILY_EFF_CE",
    "FAMILY_EFF_SE",
    "ModeIndex",
    "SpectrumEntry",
    "Spectrum",
    "fake_spectrum",
    "effective_spectrum",
    "fake_eigenfunction",
    "effective_eigenfunction",
    "transverse_profile",
    "fake_longitudinal",
    "effective_longitudinal",
]

FAMILY_FAKE = "fake"
FAMILY_EFF_CE = "eff_ce"
FAMILY_EFF_SE = "eff_se"

MERGE_RTOL = 1e-9
DEFAULT_Q = -0.25

# Cap on the largest array of one run, 512 MiB: a larger flat box, basis,
# quadrature or export grid is refused with CapacityError before anything
# is built.
MAX_ARRAY_BYTES = 1 << 29
# Peak bytes per (n, harmonic) cell of the flat box: the squared harmonics,
# the cell indices, values and masks, and the sorted candidates under the
# cap, traced at 72 B per cell on the one-row boxes of thin strips
# (13-25 MiB) and 58-86 B on boxes of two or more rows where most cells are
# kept; a sweep chunk's boxes are built together while their sum fits.  It
# bounds the (order, n) cells of the effective box too, traced at 65-68 B
_BOX_CELL_BYTES = 88
# (q, max order) tables kept by _char_table's cache; a sweep visits a handful
_CACHED_TABLES = 64


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Label (family, m, n) of one closed-form eigenfunction.

    family 'fake' admits any integer m (negative = sine partner); 'eff_ce'
    needs m >= 0 and 'eff_se' m >= 1.  n >= 1 is the transverse index and
    m + n must be odd (the twisted seam kills the even-sum combinations).
    """

    family: str
    m: int
    n: int

    def __post_init__(self):
        if self.family not in (FAMILY_FAKE, FAMILY_EFF_CE, FAMILY_EFF_SE):
            raise InputError(f"unknown mode family {self.family!r}")
        if self.n < 1:
            raise InputError(f"transverse index must be >= 1, got n={self.n}")
        if self.family == FAMILY_EFF_CE and self.m < 0:
            raise InputError(f"eff_ce requires m >= 0, got m={self.m}")
        if self.family == FAMILY_EFF_SE and self.m < 1:
            raise InputError(f"eff_se requires m >= 1, got m={self.m}")
        if (self.m + self.n) % 2 == 0:
            raise InputError(
                f"mode ({self.family}, m={self.m}, n={self.n}) violates the "
                f"parity selection rule: m + n must be odd"
            )

    @property
    def harmonic(self) -> int:
        return abs(self.m)


@dataclass(frozen=True)
class SpectrumEntry:
    """One merged eigenvalue with every mode label sharing it.

    Members keep their exact per-mode eigenvalues in ``mode_values`` (the
    near-identical large-order pairs differ below any printable tolerance,
    but the sub-merge-tolerance splitting is physical and the convergence
    studies track it); ``value`` is the lowest member.  Modes are ordered
    by exact value, lexicographic (family, m, n) on ties.
    """

    value: float
    modes: tuple[ModeIndex, ...]
    mode_values: tuple[float, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class Spectrum:
    """Ascending merged eigenvalues of one model at fixed parameters."""

    params: StripParams
    model: str
    entries: tuple[SpectrumEntry, ...] = field(default_factory=tuple)

    def values(self, count: int | None = None) -> np.ndarray:
        """Exact eigenvalues flattened with multiplicity, lowest first."""
        flat = [v for e in self.entries for v in e.mode_values]
        return np.array(flat if count is None else flat[:count])

    def modes_flat(self, count: int | None = None) -> list[ModeIndex]:
        flat = [m for e in self.entries for m in e.modes]
        return flat if count is None else flat[:count]

    def flattened(self, count: int | None = None):
        """(exact value, mode, entry multiplicity) triples with multiplicity."""
        flat = [
            (v, m, e.multiplicity)
            for e in self.entries
            for v, m in zip(e.mode_values, e.modes)
        ]
        return flat if count is None else flat[:count]


def _pow2(x):
    """Elementwise ``x ** 2`` exactly as Python floats square (C ``pow``).

    numpy's ``x * x`` differs from it in the last bit for about one value
    in 1,500, and the flat eigenvalues, their ties and the Galerkin
    diagonals are defined by the Python expression.
    """
    return (np.asarray(x, dtype=float).astype(object) ** 2).astype(float)


def _cells(rows, cols):
    """The cells (box, i, j) of one ``rows`` x ``cols`` box per element,
    i < rows[box] and j < cols[box], box by box and row-major within each."""
    cells = rows * cols
    box = np.repeat(np.arange(cells.size), cells)
    i, j = np.divmod(np.arange(box.size) - np.repeat(np.cumsum(cells) - cells, cells), cols[box])
    return box, i, j


def _merge_sorted(value, multiplicity, count, point):
    """Merged entries of candidate ``value``s, and the candidates kept.

    The candidates come point by point (``point`` ascending, every point
    from 0 present), each point's values ascending.  An entry opens at each
    point's first candidate and wherever a value is not within
    ``MERGE_RTOL`` of the first value of the open entry; next to a distant
    predecessor that is certain, so only near ties are walked one by one,
    in one walk for all points that starts at the first near tie to open
    an entry.  Each point keeps its entries up to the first at which its
    modes counted (``multiplicity`` per candidate) reach ``count``.
    Returns the entry index of each candidate, numbered across the points,
    and the mask of kept candidates.
    """
    close = (point[1:] == point[:-1]) & (
        np.abs(value[1:] - value[:-1])
        <= MERGE_RTOL * np.maximum(np.abs(value[:-1]), np.abs(value[1:]))
    )
    opens = np.concatenate(([True], ~close))
    last_open = np.maximum.accumulate(np.where(opens, np.arange(opens.size), 0))
    # every near tie is tested against the entry open before it; up to the
    # first that fails no entry opens in the walk, so the walk starts there
    ties = np.flatnonzero(close) + 1
    ref, val = value[last_open[ties]], value[ties]
    fails = ~(np.abs(val - ref) <= MERGE_RTOL * np.maximum(np.abs(ref), np.abs(val)))
    anchor = 0
    for i in ties[np.argmax(fails):] if fails.any() else ():
        anchor = max(anchor, int(last_open[i]))
        ref, val = float(value[anchor]), float(value[i])
        if not abs(val - ref) <= MERGE_RTOL * max(abs(ref), abs(val)):
            opens[i] = True
            anchor = i
    entry = np.cumsum(opens) - 1
    # modes counted per point up to each entry, and each point's first
    # entry that reaches the count
    counted = np.cumsum(np.bincount(entry, weights=multiplicity))
    entry_point = point[opens]
    points = int(point[-1]) + 1
    first = np.searchsorted(entry_point, np.arange(points + 1))
    before = np.concatenate(([0.0], counted))[first]
    short = counted - before[entry_point] < count
    limit = first[:-1] + np.bincount(entry_point[short], minlength=points)
    unreached = np.flatnonzero(limit == first[1:])
    if unreached.size:
        p = unreached[0]
        raise InputError(
            f"internal enumeration produced only {int(before[p + 1] - before[p])} of "
            f"{count} eigenvalues"
        )
    return entry, entry <= limit[point]


def _spectrum(params: StripParams, model: str, family, m, n, value, entry) -> Spectrum:
    """A spectrum from per-mode arrays listed entry by entry, in member order."""
    starts = np.flatnonzero(np.diff(entry, prepend=-1)).tolist() + [entry.size]
    family, m, n, value = family.tolist(), m.tolist(), n.tolist(), value.tolist()
    entries = tuple(
        SpectrumEntry(
            value=value[lo],
            modes=tuple(ModeIndex(family[j], m[j], n[j]) for j in range(lo, hi)),
            mode_values=tuple(value[lo:hi]),
        )
        for lo, hi in zip(starts[:-1], starts[1:])
    )
    return Spectrum(params=params, model=model, entries=entries)


def _flat_modes(R: float, a, count: int):
    """Flat modes of the ``count`` smallest eigenvalues at each half-width
    of ``a``, all on the radius ``R``, as arrays.

    Returns ``(point, m, n, value, entry)``, one element per mode, point by
    point (``point`` indexes ``a``) and within a point in
    ``fake_spectrum``'s order: merged entries ascending (``entry`` numbers
    them across the points from 0), members by exact value, then m, then n.
    Enumeration is exhaustive: each point's value cap is doubled until the
    box of all (m, n) with lambda <= cap holds at least ``count + 8``
    eigenvalues counted with multiplicity, so nothing below the returned
    maximum can be missed.  The points share one row of squared harmonics,
    one sort and one near-tie walk; a single half-width goes through the
    same code.
    """
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    e1 = _pow2(np.pi / (2.0 * np.asarray(a, dtype=float)))  # each point's transverse energy
    # room for the count + 16 lowest harmonics at n = 1: a box of about
    # count + 16 harmonics (more at a thin strip, where the cap rounds),
    # not the about 2R sqrt(7) pi / 2a under 8 e1
    cap = np.minimum(8.0 * e1, e1 + ((count + 16.0) / (2.0 * R)) ** 2)
    point, n, harmonic, value = _flat_cells(R, e1, cap, count + 8)
    # one candidate per (|m|, n), ordered by value, then by its first
    # label (-|m|, n): the sine partner sorts before its cosine
    order = np.lexsort((n, -harmonic, value, point))
    point, n, harmonic, value = point[order], n[order], harmonic[order], value[order]
    multiplicity = np.where(harmonic == 0, 1, 2)
    entry, keep = _merge_sorted(value, multiplicity, count, point)

    # each nonzero harmonic is a (-|m|, n), (|m|, n) pair of one value
    mult = multiplicity[keep]
    m = np.repeat(harmonic[keep], mult)
    m[np.cumsum(mult)[mult == 2] - 2] *= -1
    point, n, value, entry = (np.repeat(x[keep], mult) for x in (point, n, value, entry))
    order = np.lexsort((n, m, value, entry))
    return point[order], m[order], n[order], value[order], entry[order]


def _flat_cells(R: float, e1, cap, needed: int):
    """The cells (point, n, harmonic, value) of each point's flat box once
    it holds ``needed`` modes counted with multiplicity: the cap (one per
    element of ``e1``, doubled in place) is doubled for the points whose box
    holds fewer, and only their boxes are built again.  The pending boxes
    are built together, or in runs of consecutive points when together they
    would pass ``MAX_ARRAY_BYTES``."""
    found = []  # the cells kept at each build
    pending = np.arange(e1.size)
    while pending.size:
        part = pending[: _boxes_that_fit(R, e1[pending], cap[pending])]
        box, n, harmonic, value = _flat_box(R, e1[part], cap[part])
        total = np.bincount(box, weights=np.where(harmonic == 0, 1, 2), minlength=part.size)
        short = total < needed
        cells = part[box], n, harmonic, value
        if short.any():
            cells = tuple(column[~short[box]] for column in cells)
        found.append(cells)
        cap[part[short]] *= 2.0
        pending = np.concatenate((part[short], pending[part.size :]))
    return tuple(map(np.concatenate, zip(*found)))


def _boxes_that_fit(R: float, e1, cap) -> int:
    """How many leading flat boxes under ``cap`` (one per element of ``e1``
    and ``cap``) fit under ``MAX_ARRAY_BYTES`` together; ``CapacityError``
    when a box is too large alone, with the message it has alone.
    Reckoned in floats, so an overflowing box is refused too."""
    needed = _BOX_CELL_BYTES * (np.floor(np.sqrt(cap / e1)) * (_box_span(R, e1, cap) + 2.0))
    over = np.flatnonzero(~(needed <= MAX_ARRAY_BYTES))
    if over.size:
        i = over[0]
        raise CapacityError(
            f"the flat modes below {cap[i]:.3g} need about {needed[i] / 2**20:.3g} MiB, "
            f"above the {MAX_ARRAY_BYTES / 2**20:.0f} MiB cap"
        )
    return int(np.searchsorted(np.cumsum(needed), MAX_ARRAY_BYTES, side="right"))


def _flat_box(R: float, e1, cap):
    """The boxes of flat modes with lambda <= ``cap``, one per element of
    ``e1`` and ``cap``: the cells under the cap with m + n odd, as
    (box, n, harmonic, value) arrays, box by box.  The boxes share one row
    of squared harmonics; each holds the rows n with e1 n^2 <= cap."""
    top = np.sqrt(cap / e1).astype(int) + 1
    n = np.arange(1, top.max() + 1)
    tn = e1[:, None] * n * n
    rows = np.count_nonzero((tn <= cap[:, None]) & (n <= top[:, None]), axis=1)
    span = _box_span(R, e1, cap).astype(int) + 2
    # squared first: the object arrays of _pow2 are the peak of a one-row box
    squares = _pow2(np.arange(span.max()) / (2.0 * R))
    box, n, harmonic = _cells(rows, span)  # n - 1 until the values are formed
    value = squares[harmonic]
    value += tn[box, n]
    n += 1
    inside = value <= cap[box]
    inside &= (harmonic + n) % 2 == 1
    return box[inside], n[inside], harmonic[inside], value[inside]


def _box_span(R: float, e1, cap):
    """Bound on the harmonics of cells under ``cap``: h / 2R <= sqrt(cap - e1)
    at n = 1, widened by two spacings of ``cap`` for the rounding of the
    cell values, which at a thin strip matters since cap - e1 can fall
    below the spacing of e1."""
    return 2.0 * R * np.sqrt(np.maximum(cap - e1, 0.0) + 2.0 * np.spacing(cap))


def fake_spectrum(params: StripParams, count: int) -> Spectrum:
    """The ``count`` smallest flat-model eigenvalues with multiplicities.

    Enumeration is exhaustive (see ``_flat_modes``), so nothing below the
    returned maximum can be missed.
    """
    _, m, n, value, entry = _flat_modes(params.R, [params.a], count)
    return _spectrum(params, "fake", np.full(m.size, FAMILY_FAKE), m, n, value, entry)


def effective_spectrum(params: StripParams, count: int, q: float = DEFAULT_Q) -> Spectrum:
    """The ``count`` smallest effective-model eigenvalues with multiplicities.

    Enumeration is exhaustive (see ``_effective_modes``).  Modes are
    ordered by value, then (family, m, n).
    """
    _, sine, m, n, value, entry = _effective_modes(params.R, [params.a], count, q)
    family = np.where(sine, FAMILY_EFF_SE, FAMILY_EFF_CE)
    return _spectrum(params, "effective", family, m, n, value, entry)


def _effective_modes(R: float, a, count: int, q: float = DEFAULT_Q):
    """Effective modes of the ``count`` smallest eigenvalues at each
    half-width of ``a``, all on the radius ``R``, as arrays.

    Returns ``(point, sine, m, n, value, entry)``, one element per mode,
    point by point (``point`` indexes ``a``) and within a point in
    ``effective_spectrum``'s order: merged entries ascending (``entry``
    numbers them across the points from 0), members by value, then
    (family, m, n), so each point's ``value`` ascends.  ``sine`` flags the
    eff_se family.

    The order sweep is bounded by the Weyl estimate
    a_m(q), b_m(q) >= m^2 - 3|q| (the recurrence matrix is its diagonal
    plus an off-diagonal perturbation of norm below 3|q|), so every order
    that could fall under the value cap is visited.  The cap starts at a
    longitudinal budget sized for ``count`` and doubles on shortfall; it
    deliberately does not scale with the transverse energy, which at small
    half-width would drag absurdly high Mathieu orders into the sweep.  The
    budget does not depend on the half-width, so the points that fall short
    together share the next Mathieu table, and only e1 n^2 differs between
    their boxes, which are refused with ``CapacityError`` when together
    they would pass ``MAX_ARRAY_BYTES``.
    """
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    e1 = _pow2(np.pi / (2.0 * np.asarray(a, dtype=float)))  # each point's transverse energy
    kappa = 1.0 / (2.0 * R) ** 2
    budget = kappa * (count + 16.0) ** 2 + 3.0 * abs(q) * kappa
    found = []  # (point, sine, m, n, value) of the cells kept at each doubling
    pending = np.arange(e1.size)
    while pending.size:
        if not np.isfinite(budget):  # (1 / 2R)^2 is finite, but not times (count + 16)^2
            raise CapacityError(
                f"the longitudinal energies of {count} effective modes overflow on a "
                f"circumference of {2.0 * np.pi * R:.3g}"
            )
        cap = e1[pending] + budget
        orders = np.ceil(np.sqrt(budget / kappa + 3.0 * abs(q))) + 1.0
        with np.errstate(over="ignore"):  # in floats, so an overflowing box is refused too
            rows = np.floor(np.sqrt(cap / e1[pending])) + 1.0
        needed = _BOX_CELL_BYTES * (2.0 * orders + 1.0) * rows.sum()
        if not needed <= MAX_ARRAY_BYTES:
            raise CapacityError(
                f"the effective modes below {cap.max():.3g} need about {needed / 2**20:.3g} "
                f"MiB, above the {MAX_ARRAY_BYTES / 2**20:.0f} MiB cap"
            )
        sine, order_m, mu = _char_table(q, int(orders))
        # a_0(q) < 0 lets n pass sqrt(cap / e1) slightly
        top = np.sqrt(np.maximum(cap, cap - kappa * mu.min()) / e1[pending]).astype(int) + 1
        box, row, col = _cells(np.full(pending.size, mu.size), top)
        n = col + 1
        value = kappa * mu[row] + e1[pending][box] * n * n
        inside = (value <= cap[box]) & ((order_m[row] + n) % 2 == 1)  # m + n odd
        short = np.bincount(box[inside], minlength=pending.size) < count + 8
        kept = inside & ~short[box]
        row = row[kept]
        found.append((pending[box[kept]], sine[row], order_m[row], n[kept], value[kept]))
        pending = pending[short]
        budget *= 2.0
    point, sine, order_m, n, value = map(np.concatenate, zip(*found))
    order = np.lexsort((n, order_m, sine, value, point))
    point, sine, order_m, n, value = (x[order] for x in (point, sine, order_m, n, value))
    entry, keep = _merge_sorted(value, np.ones(value.size), count, point)
    return point[keep], sine[keep], order_m[keep], n[keep], value[keep], entry[keep]


@functools.lru_cache(maxsize=_CACHED_TABLES)
def _char_table(q: float, m_max: int):
    """``mathieu.char_values(q, m_max)`` as arrays: sine flags, orders and
    values.  Each (q, m_max) is tabulated once per process; the arrays are
    shared and read-only."""
    from . import mathieu  # the flat model never loads the Mathieu solver

    chars = mathieu.char_values(q, m_max)
    table = (
        np.array([ch.kind == "se" for ch in chars]),
        np.array([ch.m for ch in chars]),
        np.array([ch.value for ch in chars]),
    )
    for column in table:
        column.flags.writeable = False
    return table


def transverse_profile(n: int, u, derivative: int = 0):
    """Dirichlet transverse factor on (-1, 1): cos(n pi u/2) odd n, sin even n."""
    u = np.asarray(u, dtype=float)
    halfwave = 0.5 * n * np.pi
    phase = halfwave * u
    if n % 2 == 1:
        if derivative == 0:
            return np.cos(phase)
        if derivative == 1:
            return -halfwave * np.sin(phase)
        return -(halfwave**2) * np.cos(phase)
    if derivative == 0:
        return np.sin(phase)
    if derivative == 1:
        return halfwave * np.cos(phase)
    return -(halfwave**2) * np.sin(phase)


def fake_longitudinal(m: int, params: StripParams, s, derivative: int = 0):
    """Unit-norm flat longitudinal factor on (0, 2 pi R); m < 0 is the sine branch."""
    s = np.asarray(s, dtype=float)
    R = params.R
    if m == 0:
        value = 1.0 / np.sqrt(2.0 * np.pi * R)
        return np.full(s.shape, value if derivative == 0 else 0.0)
    k = abs(m)
    rate = k / (2.0 * R)
    amp = 1.0 / np.sqrt(np.pi * R)
    phase = rate * s
    if m > 0:
        if derivative == 0:
            return amp * np.cos(phase)
        if derivative == 1:
            return -amp * rate * np.sin(phase)
        return -amp * rate**2 * np.cos(phase)
    if derivative == 0:
        return amp * np.sin(phase)
    if derivative == 1:
        return amp * rate * np.cos(phase)
    return -amp * rate**2 * np.sin(phase)


def effective_longitudinal(mode: ModeIndex, params: StripParams, s, q: float = DEFAULT_Q):
    """Unit-norm Mathieu longitudinal factor (pi R)^(-1/2) ce/se(s/2R, q)."""
    from . import mathieu

    kind = "ce" if mode.family == FAMILY_EFF_CE else "se"
    s = np.asarray(s, dtype=float)
    eta = s / (2.0 * params.R)
    return mathieu.evaluate(kind, mode.m, q, eta) / np.sqrt(np.pi * params.R)


def fake_eigenfunction(mode: ModeIndex, params: StripParams):
    """Evaluable unit-norm flat eigenfunction on Pi.

    Returns a callable psi(s, u) that broadcasts over arrays and satisfies
    the twisted seam rule psi(0, u) = psi(2 pi R, -u) exactly.
    """
    if mode.family != FAMILY_FAKE:
        raise InputError(f"expected a fake-family mode, got {mode.family!r}")

    def psi(s, u):
        return fake_longitudinal(mode.m, params, s) * transverse_profile(mode.n, u)

    return psi


def effective_eigenfunction(mode: ModeIndex, params: StripParams, q: float = DEFAULT_Q):
    """Evaluable unit-norm effective eigenfunction on Pi.

    The longitudinal part solves -phi'' + potential_veff * phi = nu phi with
    nu = a_m(q) / (4 R^2) (ce family) or b_m(q) / (4 R^2) (se family).
    """
    if mode.family not in (FAMILY_EFF_CE, FAMILY_EFF_SE):
        raise InputError(f"expected an effective-family mode, got {mode.family!r}")

    def psi(s, u):
        return effective_longitudinal(mode, params, s, q) * transverse_profile(mode.n, u)

    return psi
