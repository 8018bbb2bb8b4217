"""Array-built spectra and flat basis against the mode-by-mode enumeration.

``reference_entries``, ``reference_effective_entries`` and
``reference_basis`` are the loop versions of ``models.fake_spectrum``,
``models.effective_spectrum`` and ``galerkin.basis_modes`` that the
vectorised enumeration replaced, kept here as the definition of the order:
a value cap doubled until the box holds ``count + 8`` modes, candidates
sorted by value, values within 1e-9 of an entry's first value merged into
it, members by (value, order |m|, n, label), and, for the basis,
(harmonic, cosine first, n) within an entry.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moebius import galerkin, mathieu, models
from moebius.convergence import eigenvalue_sweep
from moebius.errors import CapacityError, InputError
from moebius.galerkin import GalerkinConfig, _bases, assemble, basis_modes, solve
from moebius.geometry import StripParams
from moebius.models import (
    FAMILY_EFF_CE,
    FAMILY_EFF_SE,
    FAMILY_FAKE,
    MERGE_RTOL,
    ModeIndex,
    _modes,
    effective_spectrum,
    fake_spectrum,
)


def reference_merge(candidates, count, member):
    """Sort (value, labels) candidates, merge values within 1e-9 of an
    entry's first value, keep entries until ``count`` labels are reached;
    an entry's (value, label) members are sorted by ``member``."""
    candidates.sort()
    entries, total, anchor, group = [], 0, None, []
    for value, modes in candidates:
        if anchor is not None and abs(value - anchor) <= MERGE_RTOL * max(
            abs(anchor), abs(value)
        ):
            group.extend((value, md) for md in modes)
            continue
        if anchor is not None:
            entries.append(sorted(group, key=member))
            total += len(group)
            if total >= count:
                break
        anchor = value
        group = [(value, md) for md in modes]
    else:
        if anchor is not None and total < count:
            entries.append(sorted(group, key=member))
    return entries


def flat_member(member):
    """Flat members by value, then harmonic |m|, then n, then -m before +m."""
    value, (m, n) = member
    return value, abs(m), n, m


def effective_member(member):
    """Effective members by value, then order m, then n, then eff_ce first."""
    value, (family, m, n) = member
    return value, m, n, family


def reference_entries(params, count, cap=None, orders=None):
    """Merged flat entries as sorted lists of (value, (m, n)), one mode at a
    time, from the value ``cap`` (8 e1 by default) doubled until it holds
    ``count + 8`` modes, over the harmonics up to ``orders`` (all by default)."""
    R, e1 = params.R, params.transverse_energy
    cap = 8.0 * e1 if cap is None else cap
    while True:
        candidates, total, n = [], 0, 1
        while e1 * n * n <= cap:
            tn = e1 * n * n
            m = 1 if n % 2 == 0 else 0
            while orders is None or m <= orders:
                rate = m / (2.0 * R)
                value = rate * rate + tn
                if value > cap:
                    break
                candidates.append((value, ((0, n),) if m == 0 else ((-m, n), (m, n))))
                total += 1 if m == 0 else 2
                m += 2
            n += 1
        if total >= count + 8:
            return reference_merge(candidates, count, flat_member)
        cap *= 2.0


def effective_candidates(params, q, cap):
    """Every effective mode of value at most ``cap``, one order and n at a
    time, as (value, ((family, m, n),)) candidates."""
    e1 = params.transverse_energy
    kappa = 1.0 / (2.0 * params.R * (2.0 * params.R))
    # a_m(q), b_m(q) >= m^2 - 3|q| bounds the orders that reach the cap
    m_max = int(np.ceil(np.sqrt(max((cap - e1) / kappa + 3.0 * abs(q), 0.0)))) + 1
    candidates = []
    for sine, m, value in zip(*(column.tolist() for column in mathieu.char_values(q, m_max))):
        family = FAMILY_EFF_SE if sine else FAMILY_EFF_CE
        n = 1 if m % 2 == 0 else 2
        while kappa * value + e1 * n * n <= cap:
            candidates.append((kappa * value + e1 * n * n, ((family, m, n),)))
            n += 2
    return candidates


def reference_effective_entries(params, count, q):
    """Merged effective entries as sorted lists of (value, (family, m, n))."""
    kappa = 1.0 / (2.0 * params.R * (2.0 * params.R))
    budget = kappa * ((count + 16.0) * (count + 16.0)) + 3.0 * abs(q) * kappa
    while True:
        candidates = effective_candidates(params, q, params.transverse_energy + budget)
        if len(candidates) >= count + 8:
            return reference_merge(candidates, count, effective_member)
        budget *= 2.0


def flat_label(family, m, n):
    return m, n


def effective_label(family, m, n):
    return family, m, n


def assert_entries(spectrum, reference, label):
    """``spectrum`` holds the modes of the ``reference`` entries, member by
    member: exact values, labels (``label`` of family, m, n), the entry
    each falls into, numbered from 0, and that entry's size."""
    members = [(i, value, md, len(entry)) for i, entry in enumerate(reference)
               for value, md in entry]
    assert spectrum.value.dtype == np.float64
    labels = zip(spectrum.family.tolist(), spectrum.m.tolist(), spectrum.n.tolist())
    assert list(zip(spectrum.entry.tolist(), spectrum.value.tolist(),
                    [label(*md) for md in labels], spectrum.multiplicity.tolist())) == members


def reference_basis(params, n_basis, close_pairs):
    flat = [
        md
        for entry in reference_entries(params, n_basis + 1)
        for md in sorted((md for _, md in entry), key=lambda md: (abs(md[0]), md[0] < 0, md[1]))
    ]
    modes = flat[:n_basis]
    if close_pairs and modes:
        last_m, last_n = modes[-1]
        if last_m != 0 and (-last_m, last_n) not in modes:
            modes.append(flat[n_basis])
    return modes


def assert_matches_reference(params, n_basis, close_pairs):
    [(m, n)] = _bases(params.R, [params.a], n_basis, close_pairs)
    assert m.dtype.kind == n.dtype.kind == "i"
    expected = reference_basis(params, n_basis, close_pairs)
    assert list(zip(m.tolist(), n.tolist())) == expected
    assert [(md.m, md.n) for md in basis_modes(params, n_basis, close_pairs)] == expected
    assert_entries(
        fake_spectrum(params, n_basis + 1),
        reference_entries(params, n_basis + 1),
        flat_label,
    )


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.02, 1.5),
    R=st.floats(0.3, 10.0),
    n_basis=st.integers(1, 120),
    close_pairs=st.booleans(),
)
def test_array_basis_equals_the_mode_enumeration(a, R, n_basis, close_pairs):
    assert_matches_reference(StripParams(a=a, R=R), n_basis, close_pairs)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.03, 1.5),
    pair=st.sampled_from([(4, 1, 1, 2), (2, 1, 1, 2), (6, 3, 1, 2), (5, 2, 2, 3), (8, 1, 1, 2)]),
    offset=st.sampled_from([0.0, 1e-13, -1e-12, 4e-11, -3e-10, 9.9e-10, 2e-9]),
    n_basis=st.integers(2, 90),
    close_pairs=st.booleans(),
)
def test_array_basis_equals_the_mode_enumeration_at_near_ties(
    a, pair, offset, n_basis, close_pairs
):
    # (m1, n1) and (m2, n2) share a flat eigenvalue when
    # (m1^2 - m2^2) / (2R)^2 = (n2^2 - n1^2) (pi / 2a)^2; offset detunes R
    m1, m2, n1, n2 = pair
    R = a * np.sqrt((m1 * m1 - m2 * m2) / (n2 * n2 - n1 * n1)) / np.pi * (1.0 + offset)
    assert_matches_reference(StripParams(a=a, R=float(R)), n_basis, close_pairs)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.02, 1.5),
    R=st.floats(0.3, 10.0),
    count=st.integers(1, 80),
    q=st.sampled_from([-0.25, 0.0, 1.0, -6.0]),
)
def test_effective_spectrum_equals_the_mode_enumeration(a, R, count, q):
    params = StripParams(a=a, R=R)
    assert_entries(
        effective_spectrum(params, count, q=q),
        reference_effective_entries(params, count, q),
        effective_label,
    )


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.01, 1.5),
    R=st.floats(0.3, 10.0),
    count=st.integers(1, 60),
    q=st.sampled_from([-0.25, 0.0, 0.7]),
)
def test_effective_values_are_the_spectrum_values_bitwise(a, R, count, q):
    params = StripParams(a=a, R=R)
    _, _, _, _, value, _ = _modes(params.R, [params.a], count, q)
    expected = effective_spectrum(params, count, q=q).values(count)
    assert np.array_equal(value[:count], expected)
    assert np.all(np.diff(value) >= 0.0)


@pytest.mark.parametrize("a", [1e-3, 1e-4])
def test_thin_strip_starts_from_a_box_sized_for_the_count(monkeypatch, a):
    # every cell under the cap is a candidate, so a cap of 8 e1 would bring
    # in n = 2 at 4 e1
    largest = []
    merge = models._merge_sorted

    def recorded(value, count, point):
        largest.append(value.max())
        return merge(value, count, point)

    monkeypatch.setattr(models, "_merge_sorted", recorded)
    params = StripParams(a=a, R=2.86)
    assert_matches_reference(params, 20, True)
    # a cap just above e1, not 8 e1: one n, and about count + 16 harmonics
    assert largest and largest[0] < 1.001 * params.transverse_energy


def cells_built(monkeypatch):
    """The cell counts of each box that ``_modes`` lays out, call by call."""
    built = []
    layout = models._cells

    def recorded(rows, cols):
        built.append(int(np.sum(rows * cols)))
        return layout(rows, cols)

    monkeypatch.setattr(models, "_cells", recorded)
    return built


@pytest.mark.parametrize("R, a_values, count, q", [
    (2.0, [1e-14, 1e-9, 1e-4], 5, None),  # thin
    (2.0, [1e-14, 1e-9, 1e-4], 5, -0.25),
    (13.2 / (2 * np.pi), [0.75], 83, None),  # the N = 82 basis
    (13.2 / (2 * np.pi), [0.75], 2151, None),
    (13.2 / (2 * np.pi), [0.75], 20, -0.25),
    (1.0, [1e6], 5, None),  # wide
    (1.0, [1e6], 5, -0.25),
    (0.4, [0.4, 0.9, 1.5, 40.0], 60, 40.0),
    # a README sweep chunk: its flat bases at N = 72 and its effective values
    (18 / (2 * np.pi), np.geomspace(0.05, 0.5, 7), 73, None),
    (18 / (2 * np.pi), np.geomspace(0.05, 0.5, 7), 20, -0.25),
])
def test_each_enumeration_builds_one_box(monkeypatch, R, a_values, count, q):
    built = cells_built(monkeypatch)
    point, *_ = _modes(R, a_values, count, q)
    assert len(built) == 1
    assert np.all(np.bincount(point, minlength=len(a_values)) >= count)


def test_wide_effective_strip_builds_a_few_cells(monkeypatch):
    # a box counted down from a_0(q) / (2R)^2 < 0 to a cap searched for
    # count + 8 modes would hold 56,080 cells for these 5 values
    built = cells_built(monkeypatch)
    params = StripParams(a=1e6, R=1.0)
    spectrum = effective_spectrum(params, 5)
    assert len(built) == 1 and built[0] <= 20
    cap = np.nextafter(spectrum.values().max(), np.inf)
    assert_entries(spectrum, reference_merge(effective_candidates(params, -0.25, cap), 5,
                                             effective_member),
                   effective_label)


@settings(max_examples=60, deadline=None)
@given(
    R=st.floats(0.05, 20.0),
    log_ratio=st.floats(0.0, 8.0),
    count=st.integers(1, 20),
    q=st.sampled_from([-0.25, 0.1, -3.0, 40.0]),
)
def test_wide_effective_strips_equal_the_brute_force_enumeration(R, log_ratio, count, q):
    # a >= R, up to where the box counted down from a_0(q) / (2R)^2 < 0 to a
    # searched cap passed the capacity cap (from a = 1e6 R at q = 40): the
    # cap comes from the bound, and every mode under the last value
    # returned is found
    params = StripParams(a=R * 10.0**log_ratio, R=R)
    spectrum = effective_spectrum(params, count, q=q)
    cap = np.nextafter(spectrum.values().max(), np.inf)
    assert_entries(spectrum, reference_merge(effective_candidates(params, q, cap), count,
                                             effective_member),
                   effective_label)


def reach(params, count):
    """((count + 16) / 2R)^2, the reach of the longitudinal table."""
    rate = (count + 16) / (2.0 * params.R)
    return rate * rate


def full_span(params, count):
    """Every flat mode under a cap doubled from e1 + ((count + 16) / 2R)^2,
    one harmonic at a time: the strips whose values stay apart by more
    than the rounding of e1 over the harmonics the count reaches."""
    e1 = params.transverse_energy
    return reference_entries(params, count, cap=e1 + reach(params, count))


def wide_span(params, count):
    """The same over the harmonics up to count + 17, the reach of the
    longitudinal table: at strips so thin that the spacing of e1 spans more
    harmonics, the values that round onto one double hold the table's."""
    e1 = params.transverse_energy
    return reference_entries(params, count, cap=e1 + reach(params, count),
                             orders=count + 17)


@pytest.mark.parametrize(
    "a, reference",
    [(a, full_span) for a in (0.75, 0.1, 1e-2, 1e-3, 1e-4, 1e-5)]
    + [(a, wide_span) for a in (1e-7, 1e-9, 1e-11)],
)
def test_box_cut_to_the_reachable_harmonics_keeps_every_mode(a, reference):
    for R in (0.8, 2.0, 5.0):
        params = StripParams(a=a, R=R)
        for count in (1, 5, 200):
            assert_entries(fake_spectrum(params, count), reference(params, count), flat_label)


@pytest.mark.parametrize("params", [
    StripParams(a=0.75, R=13.2 / (2 * np.pi)),  # the README strip
    StripParams(a=1e-5, R=2.0),  # its first flat entry holds 19 modes
    StripParams(a=0.3, R=0.3 * np.sqrt(5.0) / np.pi),  # (4, 1) tied with (1, 2)
])
@pytest.mark.parametrize("q", [None, -0.25])
def test_spectra_hold_the_enumeration_arrays(params, q):
    count = 25
    _, sine, m, n, value, entry = _modes(params.R, [params.a], count, q)
    if q is None:
        spectrum = fake_spectrum(params, count)
        family, m = np.full(m.size, FAMILY_FAKE), np.where(sine, -m, m)
    else:
        spectrum = effective_spectrum(params, count, q=q)
        family = np.where(sine, FAMILY_EFF_SE, FAMILY_EFF_CE)
    for got, want in zip((spectrum.value, spectrum.family, spectrum.m, spectrum.n, spectrum.entry),
                         (value, family, m, n, entry)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the labelled triples, built entry by entry
    reference = []
    for _, members in itertools.groupby(
            zip(entry.tolist(), value.tolist(), family.tolist(), m.tolist(), n.tolist()),
            key=lambda member: member[0]):
        members = list(members)
        reference += [(v, ModeIndex(f, mm, nn), len(members)) for _, v, f, mm, nn in members]
    assert spectrum.multiplicity.tolist() == [size for _, _, size in reference]
    assert spectrum.flattened() == reference
    assert spectrum.flattened(count) == reference[:count]
    values = spectrum.values(count)
    assert np.array_equal(values, value[:count])
    values[0] = -1.0  # a copy
    assert spectrum.value[0] == value[0]


def test_near_ties_merge_into_one_entry():
    # an exact tie of (4, 1) and (1, 2): both pairs share one entry
    a = 0.3
    params = StripParams(a=a, R=a * np.sqrt(5.0) / np.pi)
    spectrum = fake_spectrum(params, 12)
    four = spectrum.multiplicity == 4
    assert np.unique(spectrum.entry[four]).size == 1
    assert set(zip(spectrum.m[four].tolist(), spectrum.n[four].tolist())) == \
        {(-4, 1), (4, 1), (-1, 2), (1, 2)}
    assert_matches_reference(params, 12, True)


def reference_merge_sorted(value, count, point):
    """``models._merge_sorted`` walked candidate by candidate: an anchor at
    each open entry's first value, an entry kept while its first
    candidate's rank within its point is below ``count``, and a point with
    fewer than ``count`` candidates refused."""
    sizes = np.bincount(point).tolist()
    short = [size for size in sizes if size < count]
    if short:
        raise InputError(f"internal enumeration produced only {short[0]} of {count} eigenvalues")
    entry, keep, opened, previous = [], [], -1, None
    for v, p in zip(value.tolist(), point.tolist()):
        if p != previous:
            rank, anchor, previous = 0, None, p
        if anchor is None or not abs(v - anchor) <= MERGE_RTOL * max(abs(anchor), abs(v)):
            anchor, kept, opened = v, rank < count, opened + 1
        entry.append(opened)
        keep.append(kept)
        rank += 1
    return entry, keep


@st.composite
def near_tie_chains(draw):
    """Ascending candidates of 1-4 points, each a chain of relative steps
    on both sides of ``MERGE_RTOL`` and some far apart, and a count."""
    scale = draw(st.sampled_from([1.0, 1e10]))
    value, point = [], []
    for p in range(draw(st.integers(1, 4))):
        v = scale * draw(st.floats(0.5, 2.0))
        steps = st.one_of(st.floats(1e-10, 2e-9), st.just(0.3))
        for step in [0.0] + draw(st.lists(steps, max_size=24)):
            v *= 1.0 + step
            value.append(v)
            point.append(p)
    return np.array(value), draw(st.integers(1, 12)), np.array(point)


def merged_or_refused(merge, value, count, point):
    try:
        entry, keep = merge(value, count, point)
    except InputError as exc:
        return str(exc)
    return list(entry), list(keep)


@settings(max_examples=300, deadline=None)
@given(candidates=near_tie_chains())
# a chain whose third value is within the tolerance of the second, not the first
@example(candidates=(np.array([1.0, 1.0 + 6e-10, 1.0 + 1.2e-9]), 2, np.array([0, 0, 0])))
# the second point has one candidate of the two counted
@example(candidates=(np.array([1.0, 2.0, 3.0]), 2, np.array([0, 0, 1])))
def test_merge_is_the_candidate_walk(candidates):
    value, count, point = candidates
    assert merged_or_refused(models._merge_sorted, value, count, point) == \
        merged_or_refused(reference_merge_sorted, value, count, point)


def test_assembly_builds_no_mode_labels(monkeypatch):
    def refuse(self):
        raise AssertionError("a ModeIndex was constructed")

    config = GalerkinConfig(params=StripParams(a=0.05, R=18 / (2 * np.pi)), n_basis=72,
                            close_pairs=True)
    monkeypatch.setattr(ModeIndex, "__post_init__", refuse)
    dense = assemble(config).to_dense()
    solution = solve(config)
    assert np.all(np.isfinite(dense)) and solution.eigenvalues.size == 73
    # labels are made only when asked for
    with pytest.raises(AssertionError, match="ModeIndex"):
        solution.basis
    monkeypatch.undo()
    [(m, n)] = _bases(config.params.R, [config.params.a], 72, True)
    assert [(md.m, md.n) for md in solution.basis] == list(zip(m.tolist(), n.tolist()))
    assert galerkin.basis_modes(config.params, 72, True) == list(solution.basis)


def assert_chunk_is_each_point(R, a_values, n_basis, count, q=-0.25):
    """One enumeration over the half-widths ``a_values`` equals one
    enumeration per half-width, bit for bit: the flat bases (with and
    without pair closure) and the effective modes, entries numbered from
    each point's first."""
    params = [StripParams(a=float(a), R=R) for a in a_values]
    for close_pairs in (False, True):
        chunk = galerkin._bases(R, [p.a for p in params], n_basis, close_pairs)
        for p, basis in zip(params, chunk):
            [alone] = galerkin._bases(R, [p.a], n_basis, close_pairs)
            for got, want in zip(basis, alone):
                assert got.dtype == want.dtype and np.array_equal(got, want), (p, close_pairs)
    point, *columns = _modes(R, [p.a for p in params], count, q)
    for i, p in enumerate(params):
        got = [column[point == i] for column in columns]
        got[-1] = got[-1] - got[-1][0]
        alone = _modes(R, [p.a], count, q)
        assert not alone[0].any()
        for column, want in zip(got, alone[1:]):
            assert column.dtype == want.dtype and np.array_equal(column, want), p
        assert np.array_equal(got[3][:count], effective_spectrum(p, count, q=q).values(count))


def entry_cut(spectrum, multiplicity):
    """The mode count that ends one mode into the first entry of at least
    ``multiplicity`` modes: a cutoff inside that merged entry."""
    members = np.flatnonzero(spectrum.multiplicity >= multiplicity)
    assert members.size, "no such entry"
    return int(members[0]) + 1  # modes come entry by entry: the first is the entry's first


@pytest.mark.parametrize("R, a_values", [
    # thin strips, down to where e1's spacing spans far more harmonics
    # than the table reaches, next to ordinary ones
    (2.0, [1e-14, 1e-12, 1e-9, 1e-4, 0.05, 0.5]),
    # at and past a >= R
    (0.4, [0.4, 0.9, 1.5]),
    (2.86, [0.02, 1.3, 2.86, 4.0]),
])
def test_chunk_enumeration_is_each_points_own(R, a_values):
    for n_basis, count in ((1, 1), (20, 5), (73, 20)):
        assert_chunk_is_each_point(R, a_values, n_basis, count)


def test_chunk_enumeration_is_each_points_own_across_merged_entries():
    # R = a sqrt(5) / pi ties (4, 1) with (1, 2) at a = 0.3: a four-mode
    # flat entry, cut inside by the basis count N + 1
    a = 0.3
    R = a * np.sqrt(5.0) / np.pi
    tied = StripParams(a=a, R=R)
    assert np.any(fake_spectrum(tied, 30).multiplicity == 4)
    n_basis = entry_cut(fake_spectrum(tied, 30), 4)
    # an effective count one mode into a merged ce/se pair
    count = entry_cut(effective_spectrum(tied, 40), 2)
    for q in (-0.25, 0.0, 1.0):
        assert_chunk_is_each_point(R, [0.2, a, 0.45], n_basis, count, q)
        assert_chunk_is_each_point(R, [a], n_basis, count, q)


@settings(max_examples=25, deadline=None)
@given(
    R=st.floats(0.3, 10.0),
    a_values=st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=8),
    n_basis=st.integers(1, 100),
    count=st.integers(1, 60),
    q=st.sampled_from([-0.25, 0.0, 1.0]),
)
def test_chunk_enumeration_is_each_points_own_property(R, a_values, n_basis, count, q):
    assert_chunk_is_each_point(R, a_values, n_basis, count, q)


def not_built(*args, **kwargs):
    raise AssertionError("flat modes were enumerated before the capacity check")


def test_n_is_checked_before_any_basis_is_enumerated(monkeypatch):
    # every point at N = 31 has sector blocks of at least 961 // 2 entries,
    # 961 // 4 of them in one sector, charged before any mode is enumerated
    blocks = 8 * 480 + galerkin._GATHER_BYTES * 240
    monkeypatch.setattr(galerkin, "_modes", not_built)
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", blocks)
    with pytest.raises(AssertionError, match="flat modes were enumerated"):
        eigenvalue_sweep(2.0, [1e-14, 0.1, 0.5], 3, 31)  # admitted at the cap
    monkeypatch.setattr(models, "MAX_ARRAY_BYTES", blocks - 1)
    with pytest.raises(CapacityError, match="^the sector blocks of one point at N=31 need"):
        eigenvalue_sweep(2.0, [1e-14, 0.1, 0.5], 3, 31)


def test_sweep_of_thin_strips_past_the_cap_together_is_solved(monkeypatch):
    # every harmonic whose value rounds under the cap would span thousands
    # of cells per strip; cut at the table's reach, a chunk of such strips
    # builds a few hundred, and each is solved as alone
    a_values = [1e-11, 2e-11, 4e-11]
    cells = []
    layout = models._cells

    def recorded(rows, cols):
        cells.append(int(np.sum(rows * cols)))
        return layout(rows, cols)

    monkeypatch.setattr(models, "_cells", recorded)
    swept = eigenvalue_sweep(2.0, a_values, 3, 4)
    assert cells and max(cells) < 1000
    monkeypatch.undo()
    for a, effective, true in zip(a_values, swept.effective_values, swept.true_values):
        alone = eigenvalue_sweep(2.0, [a], 3, 4)
        assert np.array_equal(true, alone.true_values[0])
        assert np.array_equal(effective, alone.effective_values[0])
