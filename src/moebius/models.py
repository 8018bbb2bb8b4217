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

Both spectra come from one enumeration (``_modes``) over a table of
longitudinal energies sorted by energy: (m / 2R)^2 for the flat cosine
and sine of order m, which is the effective table at q = 0, or
a_m(q) / (2R)^2 and b_m(q) / (2R)^2; a mode is a row of the table with a
transverse index n, of value energy + (n pi / 2a)^2.  Eigenvalues are
returned merged into multiplicity-aware entries: values within 1e-9
relative collapse into one entry (the near-identical ce/se pairs at large
order must merge, physically split pairs stay apart), members ordered by
value, then order, then n, then label, so that where a thin strip's values
round to one double the lowest harmonics come first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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

# Cap on the bytes of one run's arrays, 512 MiB, read only by ``require_bytes``,
# to which each builder charges its arrays before it builds them
MAX_ARRAY_BYTES = 1 << 29
# Peak bytes per (n, table row) cell of the mode boxes of one enumeration:
# the cell indices, values and masks, and the sorted candidates under the
# cap, traced at 57-72 B per cell on boxes of 3e3 to 3e5 cells (a sweep
# chunk of thin or wide strips, one wide strip of the effective model);
# boxes of a few hundred cells carry the table besides, under 0.1 MB
_BOX_CELL_BYTES = 88
# Peak bytes per row of the flat longitudinal table, its row indices,
# orders, sine flags, rates and squared energies, traced at 33 B on 2e4 to
# 2e6 rows and at 37 B with the rows of even order that the caps' bounds
# take (the effective table's Mathieu solves are bounded by the solver's
# truncation cap, 131 MB traced at 4,000 orders), and per (point + 1,
# mode) of the corners of the caps' bounds, traced at 16-20 B
_TABLE_ROW_BYTES, _BOUND_BYTES = 40, 24
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

    entries: tuple[SpectrumEntry, ...]

    def values(self, count: int | None = None) -> np.ndarray:
        """Exact eigenvalues flattened with multiplicity, lowest first."""
        flat = [v for e in self.entries for v in e.mode_values]
        return np.array(flat if count is None else flat[:count])

    def flattened(self, count: int | None = None):
        """(exact value, mode, entry multiplicity) triples with multiplicity."""
        flat = [
            (v, m, e.multiplicity)
            for e in self.entries
            for v, m in zip(e.mode_values, e.modes)
        ]
        return flat if count is None else flat[:count]


def require_bytes(needed, what: str) -> None:
    """Refuse the arrays ``what`` with ``CapacityError`` when their ``needed``
    bytes, reckoned as a float, pass ``MAX_ARRAY_BYTES``."""
    needed = float(needed) if needed < 2.0**1023 else np.inf  # an int past it would not convert
    if not needed <= MAX_ARRAY_BYTES:
        raise CapacityError(f"{what} need about {needed / 2**20:.3g} MiB, above the "
                            f"{MAX_ARRAY_BYTES / 2**20:.0f} MiB cap")


def _cells(rows, cols):
    """The cells (box, i, j) of one ``rows`` x ``cols`` box per element,
    i < rows[box] and j < cols[box], box by box and row-major within each."""
    cells = rows * cols
    box = np.repeat(np.arange(cells.size), cells)
    i, j = np.divmod(np.arange(box.size) - np.repeat(np.cumsum(cells) - cells, cells), cols[box])
    return box, i, j


def _merge_sorted(value, count, point):
    """Merged entries of candidate ``value``s, and the candidates kept.

    The candidates come point by point (``point`` ascending, every point
    from 0 present), each point's values ascending.  An entry opens at each
    point's first candidate and wherever a value is not within
    ``MERGE_RTOL`` of the first value of the open entry; next to a distant
    predecessor that is certain, so only near ties are walked one by one,
    in one walk for all points that starts at the first near tie to open
    an entry.  Each point keeps its entries up to the first at which its
    candidates counted reach ``count``.
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
    counted = np.cumsum(np.bincount(entry))
    entry_point = point[opens]
    points = int(point[-1]) + 1
    first = np.searchsorted(entry_point, np.arange(points + 1))
    before = np.concatenate(([0], counted))[first]
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


def _spectrum(family, m, n, value, entry) -> Spectrum:
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
    return Spectrum(entries=entries)


def fake_spectrum(params: StripParams, count: int) -> Spectrum:
    """The ``count`` smallest flat-model eigenvalues with multiplicities.

    Enumeration is exhaustive (see ``_modes``), so nothing below the
    returned maximum can be missed.  Modes are ordered by value, then by
    harmonic |m|, the order of the exact longitudinal energies (m / 2R)^2,
    then n, then -m before +m: where values round to one double, at a thin
    strip, m = 0 comes first and then the +/-2 pair.
    """
    _, sine, m, n, value, entry = _modes(params.R, [params.a], count, None)
    m = np.where(sine, -m, m)
    return _spectrum(np.full(m.size, FAMILY_FAKE), m, n, value, entry)


def effective_spectrum(params: StripParams, count: int, q: float = DEFAULT_Q) -> Spectrum:
    """The ``count`` smallest effective-model eigenvalues with multiplicities.

    Enumeration is exhaustive (see ``_modes``).  Modes are ordered by
    value, then by order m, then n, then eff_ce before eff_se.
    """
    _, sine, m, n, value, entry = _modes(params.R, [params.a], count, q)
    family = np.where(sine, FAMILY_EFF_SE, FAMILY_EFF_CE)
    return _spectrum(family, m, n, value, entry)


def _modes(R: float, a, count: int, q):
    """Modes of the ``count`` smallest eigenvalues at each half-width of
    ``a``, all on the radius ``R``, as arrays: the flat model when ``q`` is
    None, else the effective model at Mathieu parameter ``q``.

    Returns ``(point, sine, m, n, value, entry)``, one element per mode,
    point by point (``point`` indexes ``a``) and within a point merged
    entries ascending (``entry`` numbers them across the points from 0),
    members by value, then order m, then n, then label (flat -m before +m,
    eff_ce before eff_se), so each point's ``value`` ascends.  ``sine``
    flags the sine rows (flat label -m, or eff_se); m >= 0.

    A mode is a cell (n, row) of the longitudinal table (``_table``) with
    m + n odd, of value energy + e1 n^2, e1 = (pi / 2a)^2.  The table holds
    every row of energy up to reach = ((count + 16) / 2R)^2 and a Weyl
    margin.  Each point's cap comes from a bound on its count-th value: for
    k >= 1 the rows [0, ceil(count / k)) hold k modes each with n <= 2k, at
    or below the far corner energy + e1 (2k)^2, and the first ``count`` rows
    of even order one each at n = 1, below their last energy + e1 (a table
    missing rows only raises a corner).  The least corner, widened by twice
    the merge tolerance and two spacings, holds the whole merged entry of
    the count-th mode.  Where the bound is under e1 + reach the cap is
    clipped there, so an entry whose values round onto one double, at a
    thin strip, holds the rows the table reaches; past it, at large |q|,
    a_m(q), b_m(q) <= m^2 + 2|q| keeps the cap inside the table's margin.
    A point's box spans the rows of energy up to its cap less e1, plus two
    spacings of the cap for the rounding of the cell values, and the n up
    to where e1 n^2 passes the cap less the lowest energy (a_0(q) <= 0).
    The table with the bounds, then all boxes, are charged to
    ``require_bytes`` before they are built, each once.
    """
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    R = float(R)  # a numpy scalar would warn where the float overflows to inf
    scale = np.pi / (2.0 * np.asarray(a, dtype=float))
    e1 = scale * scale  # each point's transverse energy
    kappa = 1.0 / (2.0 * R * (2.0 * R))
    model = "flat" if q is None else "effective"
    weyl = 0.0 if q is None else 3.0 * abs(q)  # a_m(q), b_m(q) >= m^2 - 3|q|
    span = (count + 16.0) * (count + 16.0)  # reach in units of kappa
    reach = kappa * span
    # the orders up to reach and a Weyl margin, span + 2 weyl, in floats:
    # an overflow is refused
    orders = np.ceil(np.sqrt(span + 2.0 * weyl)) + 1.0
    if not orders / (2.0 * R) < 1e154:  # the table's energies, about (orders / 2R)^2
        raise CapacityError(
            f"the longitudinal energies of {count} {model} modes overflow on a "
            f"circumference of {2.0 * np.pi * R:.3g}"
        )
    require_bytes(_TABLE_ROW_BYTES * (2.0 * orders + 1.0) + _BOUND_BYTES * (e1.size + 1.0) * count,
                  f"the longitudinal table and bounds of {count} {model} modes")
    sine, order, energy = _table(R, q, int(orders))
    k = np.arange(1, count + 1)
    with np.errstate(over="ignore"):  # an overflowing corner is never the least
        corners = energy[(count - 1) // k] + e1[:, None] * (2 * k) * (2 * k)
        even = np.flatnonzero(order % 2 == 0)  # rows with a mode at n = 1
        bound = np.minimum(corners.min(axis=1), energy[even[count - 1]] + e1)
        widened = bound + 2.0 * MERGE_RTOL * np.abs(bound) + 2.0 * np.spacing(bound)
        cap = np.where(bound <= e1 + reach, np.minimum(widened, e1 + reach), widened)
        cols = np.searchsorted(energy, cap - e1 + 2.0 * np.spacing(cap), side="right")
        rows = np.floor(np.sqrt((cap - energy[0]) / e1)) + 1.0
    require_bytes(_BOX_CELL_BYTES * np.sum(rows * cols), f"the {model} modes below {cap.max():.3g}")
    point, n, row = _cells(rows.astype(int), cols)
    n += 1
    with np.errstate(over="ignore"):  # a row past the cap may overflow; it stays out
        value = energy[row] + e1[point] * n * n
    inside = (value <= cap[point]) & ((order[row] + n) % 2 == 1)  # m + n odd
    point, n, row, value = (x[inside] for x in (point, n, row, value))
    # the labels' order breaks the last ties: fake -m before +m, eff_ce before eff_se
    rank = np.lexsort((sine[row] != (q is None), n, order[row], value, point))
    point, sine, order, n, value = (x[rank] for x in (point, sine[row], order[row], n, value))
    entry, keep = _merge_sorted(value, count, point)
    return point[keep], sine[keep], order[keep], n[keep], value[keep], entry[keep]


def _table(R: float, q, orders: int):
    """The longitudinal table up to order ``orders``: sine flags, orders and
    energies, sorted by energy.  Flat (``q`` None): (m / 2R)^2 for cos,
    m >= 0, and sin, m >= 1, the sine row first of each pair.  Effective:
    (1 / 2R)^2 a_m(q) and (1 / 2R)^2 b_m(q) from ``_char_table``, ce_m
    before se_m where they tie."""
    if q is None:
        row = np.arange(2 * orders + 1)
        order = (row + 1) // 2
        rate = order / (2.0 * R)
        return row % 2 == 1, order, rate * rate
    sine, order, mu = _char_table(q, orders)
    kappa = 1.0 / (2.0 * R * (2.0 * R))
    return sine, order, kappa * mu


@functools.lru_cache(maxsize=_CACHED_TABLES)
def _char_table(q: float, m_max: int):
    """``mathieu.char_values(q, m_max)`` as arrays: sine flags, orders and
    values, sorted by value, ce_m before se_m where they tie.  Each
    (q, m_max) is tabulated once per process; the arrays are shared and
    read-only."""
    from . import mathieu  # the flat model never loads the Mathieu solver

    chars = mathieu.char_values(q, m_max)  # ce, then se
    rank = np.argsort([ch.value for ch in chars], kind="stable")
    table = (
        np.array([ch.kind == "se" for ch in chars])[rank],
        np.array([ch.m for ch in chars])[rank],
        np.array([ch.value for ch in chars])[rank],
    )
    for column in table:
        column.flags.writeable = False
    return table


def transverse_profile(n: int, u):
    """Dirichlet transverse factor on (-1, 1): cos(n pi u/2) odd n, sin even n."""
    phase = (0.5 * n * np.pi) * np.asarray(u, dtype=float)
    return np.cos(phase) if n % 2 == 1 else np.sin(phase)


def fake_longitudinal(m: int, params: StripParams, s, derivative: int = 0):
    """Unit-norm flat longitudinal factor on (0, 2 pi R), or at
    ``derivative`` 1 its s derivative; m < 0 is the sine branch."""
    if derivative not in (0, 1):
        raise InputError(f"derivative must be 0 or 1, got {derivative}")
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
        return -amp * rate * np.sin(phase)
    if derivative == 0:
        return amp * np.sin(phase)
    return amp * rate * np.cos(phase)


def effective_longitudinal(mode: ModeIndex, params: StripParams, s):
    """Unit-norm Mathieu longitudinal factor (pi R)^(-1/2) ce/se(s/2R, q), q = -1/4."""
    from . import mathieu

    kind = "ce" if mode.family == FAMILY_EFF_CE else "se"
    s = np.asarray(s, dtype=float)
    eta = s / (2.0 * params.R)
    return mathieu.evaluate(kind, mode.m, DEFAULT_Q, eta) / np.sqrt(np.pi * params.R)


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


def effective_eigenfunction(mode: ModeIndex, params: StripParams):
    """Evaluable unit-norm effective eigenfunction on Pi.

    The longitudinal part solves -phi'' + potential_veff * phi = nu phi with
    nu = a_m(q) / (4 R^2) (ce family) or b_m(q) / (4 R^2) (se family).
    """
    if mode.family not in (FAMILY_EFF_CE, FAMILY_EFF_SE):
        raise InputError(f"expected an effective-family mode, got {mode.family!r}")

    def psi(s, u):
        return effective_longitudinal(mode, params, s) * transverse_profile(mode.n, u)

    return psi
