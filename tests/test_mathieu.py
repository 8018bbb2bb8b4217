import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moebius import mathieu
from moebius.errors import CapacityError, InputError, NumericalError
from moebius.linalg import eig_tridiagonal
from moebius.mathieu import char_value, char_values, evaluate, fourier_coefficients

Q = -0.25

# High-precision reference characteristic values at q = -1/4.
REFERENCE_A = {
    0: "-0.03103939547561732443850972818046737540",
    1: "0.74242882598662974339949054767095543815",
    2: "4.02582908464560324171350493521402514557",
    3: "9.00366486704623913463365662695182921571",
    4: "16.00208529046719562998287970766353836899",
    5: "25.00130213222684081366209108945453834337",
    6: "36.00089287379843422726407677439950789279",
    7: "49.00065104784806396399969278784780613747",
    8: "64.00049603440671169350384368118283820869",
    9: "81.00039062627570760760462351056102476286",
    10: "100.00031565723007867410511381290959992431",
}
REFERENCE_B = {
    1: "1.24194112824291514482231057477841662622",
    2: "3.99479307863211894594328093443536761399",
    3: "9.00415255154693478030510107620470513307",
    4: "16.00208190103817298727073812993351765300",
    5: "25.00130214546980228095721811268235655121",
    6: "36.00089287376532391463296827349981967276",
    7: "49.00065104784812144953869393158610105146",
    8: "64.00049603440671162017886328541877470187",
    9: "81.00039062627570760767623083270127588410",
    10: "100.00031565723007867410505855991940003139",
}


def test_free_limit_is_squared_order():
    for ch in char_values(0.0, 5):
        assert ch.value == float(ch.m**2)


def test_reference_table():
    values = {(c.kind, c.m): c.value for c in char_values(Q, 10)}
    for m, text in REFERENCE_A.items():
        ref = float(text)
        assert abs(values[("ce", m)] - ref) <= 1e-13 * max(1.0, abs(ref))
    for m, text in REFERENCE_B.items():
        ref = float(text)
        assert abs(values[("se", m)] - ref) <= 1e-13 * max(1.0, abs(ref))


def test_near_degenerate_top_pair():
    # a_10 and b_10 agree in the first ~15 digits; equal in double precision
    diff = abs(char_value("ce", 10, Q) - char_value("se", 10, Q))
    assert diff <= 1e-13 * 100.0


def test_truncation_doubling_stability():
    diag = (2.0 * np.arange(64)) ** 2
    off = np.full(63, Q)
    off[0] *= np.sqrt(2.0)
    small = eig_tridiagonal(diag, off)[:8]
    diag2 = (2.0 * np.arange(128)) ** 2
    off2 = np.full(127, Q)
    off2[0] *= np.sqrt(2.0)
    large = eig_tridiagonal(diag2, off2)[:8]
    assert np.max(np.abs(small - large)) < 1e-13 * np.maximum(1.0, np.abs(large)).max()


def test_interlacing_chain():
    values = {(c.kind, c.m): c.value for c in char_values(Q, 10)}
    chain = [values[("ce", 0)], values[("ce", 1)], values[("se", 1)]]
    for m in range(2, 11):
        pair = [("se", m), ("ce", m)] if m % 2 == 0 else [("ce", m), ("se", m)]
        chain.extend(values[k] for k in pair)
    # pairs from m = 9 up tie below double resolution, so allow ulp slack
    tol = 1e-13
    assert all(x <= y + tol * max(1.0, abs(x)) for x, y in zip(chain, chain[1:]))
    # links with gaps above the slack must be strictly ascending
    for x, y in zip(chain, chain[1:]):
        if abs(y - x) > tol * max(1.0, abs(x)):
            assert x < y


def test_free_limit_coefficients():
    ce0 = fourier_coefficients("ce", 0, 0.0)
    assert ce0.harmonics[0] == 0
    assert ce0.fourier == pytest.approx([1 / np.sqrt(2)], abs=1e-15)
    se1 = fourier_coefficients("se", 1, 0.0)
    assert se1.harmonics[0] == 1
    assert se1.fourier == pytest.approx([1.0], abs=1e-15)


def test_each_expansion_tends_to_its_own_harmonic():
    # ce_m -> cos m eta and se_m -> sin m eta as q -> 0: at |q| = 1e-3 the
    # harmonic m carries the largest coefficient, and it is positive
    for q in (1e-3, -1e-3):
        for kind, lowest in (("ce", 0), ("se", 1)):
            for m in range(lowest, 60):
                ch = fourier_coefficients(kind, m, q)
                own = ch.fourier[ch.harmonics.tolist().index(m)]
                assert own > 0.0 and own == np.max(np.abs(ch.fourier)), (kind, m, q)


def doubled_expansion(kind, m, q):
    """``fourier_coefficients`` solved at twice the class truncation, past
    the caches keyed by order or count."""
    truncation = mathieu._truncation
    with mock.patch.multiple(mathieu, _truncation=lambda q, count: 2 * truncation(q, count),
                             _stable_class_values=mathieu._stable_class_values.__wrapped__):
        return mathieu.fourier_coefficients.__wrapped__(kind, m, q)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ce", "se"]), m=st.integers(0, 59), step=st.integers(0, 28),
       negative=st.booleans())
@example(kind="ce", m=32, step=11, negative=False)  # q = 0.56, first coefficients roundoff
@example(kind="se", m=29, step=18, negative=True)  # q = -31.6
@example(kind="se", m=27, step=28, negative=False)  # own harmonic 0.3 % of the largest
def test_doubling_the_truncation_flips_no_expansion(kind, m, step, negative):
    # q = +/-10^k, k from -3 to 4 in 29 steps: the sign rule reads no roundoff
    m = max(m, 1) if kind == "se" else m
    q = (-1.0 if negative else 1.0) * 10.0 ** (-3.0 + 0.25 * step)
    expansions = [fourier_coefficients(kind, m, q).fourier, doubled_expansion(kind, m, q).fourier]
    size = max(c.size for c in expansions)
    fourier, doubled = (np.pad(c, (0, size - c.size)) for c in expansions)
    assert np.max(np.abs(fourier - doubled)) < 1e-9, (kind, m, q)


def test_ode_residual_ce1():
    ch = fourier_coefficients("ce", 1, Q)
    eta = np.linspace(-np.pi, np.pi, 100)
    y = evaluate("ce", 1, Q, eta)
    ypp = evaluate("ce", 1, Q, eta, derivative=2)
    residual = ypp + (ch.value - 2 * Q * np.cos(2 * eta)) * y
    assert np.max(np.abs(residual)) < 1e-10


def test_expansion_value_is_the_characteristic_value_bitwise():
    # one source per value, the eigvalsh solve; an eigh solve of the same
    # recurrence differs in the last bits (ce_5 at q = -1/4 by 1e-14)
    for q in (Q, 0.1, -3.0, 40.0):
        for kind, lowest in (("ce", 0), ("se", 1)):
            for m in range(lowest, 40):
                assert fourier_coefficients(kind, m, q).value == char_value(kind, m, q)


def test_ode_residual_all_orders():
    rng = np.random.default_rng(12)
    eta = rng.uniform(-np.pi, np.pi, 100)
    for kind, orders in (("ce", range(0, 7)), ("se", range(1, 7))):
        for m in orders:
            mu = char_value(kind, m, Q)
            y = evaluate(kind, m, Q, eta)
            ypp = evaluate(kind, m, Q, eta, derivative=2)
            sup = np.max(np.abs(evaluate(kind, m, Q, np.linspace(-np.pi, np.pi, 400))))
            assert np.max(np.abs(ypp + (mu - 2 * Q * np.cos(2 * eta)) * y)) < 1e-9 * sup


def test_symmetries():
    eta = np.linspace(-np.pi, np.pi, 50)
    assert evaluate("se", 3, Q, 0.0) == 0.0
    assert evaluate("se", 4, Q, np.zeros(3)) == pytest.approx([0, 0, 0], abs=0.0)
    assert evaluate("ce", 2, Q, -eta) == pytest.approx(evaluate("ce", 2, Q, eta), abs=1e-14)
    assert evaluate("se", 2, Q, -eta) == pytest.approx(-evaluate("se", 2, Q, eta), abs=1e-14)
    # period pi for even order, antiperiod pi for odd order
    assert evaluate("ce", 2, Q, eta + np.pi) == pytest.approx(evaluate("ce", 2, Q, eta), abs=1e-13)
    assert evaluate("ce", 3, Q, eta + np.pi) == pytest.approx(-evaluate("ce", 3, Q, eta), abs=1e-13)
    assert evaluate("se", 1, Q, eta + np.pi) == pytest.approx(-evaluate("se", 1, Q, eta), abs=1e-13)


def test_normalisation_half_period():
    # periodic trapezoid on (0, pi): |ce_m|^2 is pi periodic for every order
    eta = np.pi * np.arange(512) / 512
    weight = np.pi / 512
    for m in (0, 1, 2, 5):
        value = weight * np.sum(evaluate("ce", m, Q, eta) ** 2)
        assert abs(value - np.pi / 2) < 1e-10


def test_orthogonality():
    eta = 2 * np.pi * np.arange(1024) / 1024 - np.pi
    weight = 2 * np.pi / 1024
    functions = [evaluate("ce", m, Q, eta) for m in range(0, 8)]
    functions += [evaluate("se", m, Q, eta) for m in range(1, 8)]
    gram = weight * np.asarray(functions) @ np.asarray(functions).T
    assert np.max(np.abs(gram - np.pi * np.eye(len(functions)))) < 1e-9


def test_invalid_orders():
    with pytest.raises(InputError):
        char_value("se", 0, Q)
    with pytest.raises(InputError):
        char_value("ce", -1, Q)
    with pytest.raises(InputError):
        fourier_coefficients("xx", 1, Q)


@pytest.fixture
def recurrence_sizes(monkeypatch):
    """Orders of the recurrence matrices built while the test runs."""
    mathieu._stable_class_values.cache_clear()
    mathieu._class_values.cache_clear()
    sizes = []
    build = mathieu._recurrence

    def recording(kind, parity, q, size):
        sizes.append(size)
        return build(kind, parity, q, size)

    monkeypatch.setattr(mathieu, "_recurrence", recording)
    return sizes


def test_count_beyond_truncation_cap_is_refused_before_building(recurrence_sizes):
    with pytest.raises(CapacityError, match="truncation cap"):
        char_values(Q, 10**6)
    with pytest.raises(CapacityError):
        char_value("se", 2 * mathieu._MAX_TRUNCATION, Q)
    assert recurrence_sizes == []


def test_truncation_never_exceeds_the_cap(monkeypatch, recurrence_sizes):
    monkeypatch.setattr(mathieu, "_MAX_TRUNCATION", 256)
    # the most values of a class that fit the cap are solved once, at their
    # computed truncation; one more is refused before any recurrence is built
    count = max(c for c in range(1, 256) if mathieu._truncation(Q, c) <= 256)
    m = 2 * (count - 1)  # the ce order of the count-th value of its class
    assert char_value("ce", m, Q) == pytest.approx(float(m) ** 2, rel=1e-9)
    assert recurrence_sizes == [mathieu._truncation(Q, count)]
    with pytest.raises(CapacityError, match=rf"^{count + 1} Mathieu values of class \(ce, parity 0\) "
                       r"need a recurrence above the truncation cap 256 at \|q\|=0.25$"):
        char_value("ce", m + 2, Q)
    # a q whose lowest values need more rows than the cap is refused
    # before any recurrence is built, of either sign
    line = largest_admitted_q(1)
    assert mathieu._truncation(line, 1) <= 256 < mathieu._truncation(2.0 * line, 1)
    for q in (2.0 * line, -2.0 * line, 1e200):
        with pytest.raises(CapacityError, match=r"^Mathieu values at \|q\|=.* truncation cap 256$"):
            char_values(q, 2)
    assert recurrence_sizes == [mathieu._truncation(Q, count)]


def largest_admitted_q(count):
    """The largest |q| (to roundoff) at which ``count`` values of a class
    fit the truncation cap; the truncation depends on |q|^(1/4) alone."""
    lo, hi = 0.0, 2.0**256  # fourth roots
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mathieu._truncation(mid**4, count) <= mathieu._MAX_TRUNCATION else (lo, mid)
    return lo**4 * (1.0 - 1e-12)


def test_unresolvable_q_is_the_measured_line(recurrence_sizes):
    # the lowest value of a class is admitted up to the line where its
    # truncation reaches the cap, 1.9424e11, as the search by doubling was
    line = largest_admitted_q(1)
    assert 1.94e11 < line < 1.95e11
    for q in (0.0, Q, 1e8, line, -line):
        assert mathieu._truncation(q, 1) <= mathieu._MAX_TRUNCATION
    for q in (1.0001 * line, -1.0001 * line, 1e12, -1e12, 1e200, -1e200):
        with pytest.raises(CapacityError, match=r"^Mathieu values at \|q\|="):
            char_values(q, 2)
    # non-finite q is invalid input, and past Gershgorin's float range the
    # recurrences would overflow: a numerical failure
    for q in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputError, match="non-finite Mathieu parameter"):
            char_values(q, 2)
    for q in (1e308, -1e308, np.finfo(float).max):
        with pytest.raises(NumericalError, match="non-finite eigenvalues"):
            char_values(q, 2)
    assert recurrence_sizes == []


CLASSES = [("ce", 0), ("ce", 1), ("se", 1), ("se", 0)]
# every count that fits the cap at q = 0, where the truncation is count + 16
MOST_VALUES = mathieu._MAX_TRUNCATION - 16


def lapack_values(kind, parity, q, size):
    """All eigenvalues of one class's recurrence at ``size`` rows from
    LAPACK's dsterf, the routine behind numpy's eigvalsh of the dense
    tridiagonal matrix (``test_dsterf_is_the_solvers_eigvalsh``), in
    O(size^2) time and O(size) memory: doubling the cap's 4096 rows would
    take 512 MiB and tens of seconds dense."""
    from scipy.linalg.lapack import dsterf

    values, info = dsterf(*mathieu._recurrence(kind, parity, q, size))
    assert info == 0
    return values


needs_scipy = pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                                 reason="the doubled recurrences are solved by scipy's dsterf")


@needs_scipy
@pytest.mark.parametrize("q", [Q, 40.0, -3.0e4, 1.0e9])
def test_dsterf_is_the_solvers_eigvalsh(q):
    for kind, parity in CLASSES:
        for size in (64, 700):
            assert np.array_equal(lapack_values(kind, parity, q, size),
                                  mathieu._class_values(kind, parity, q, size))


@needs_scipy
@settings(max_examples=20, deadline=None)
@given(log_count=st.floats(0.0, np.log10(MOST_VALUES)), reach=st.floats(0.0, 1.0),
       negative=st.booleans(), cls=st.sampled_from(CLASSES))
@example(log_count=np.log10(MOST_VALUES), reach=0.0, negative=False, cls=("ce", 1))  # q = 0
@example(log_count=0.0, reach=1.0, negative=False, cls=("ce", 1))  # at the line
@example(log_count=0.0, reach=1.0, negative=True, cls=("se", 1))
@example(log_count=np.log10(48), reach=0.4, negative=True, cls=("ce", 0))
def test_doubling_the_truncation_moves_no_value(log_count, reach, negative, cls):
    # q = 0 or |q| log-uniform from 1e-3 up to the line of the count
    count = int(round(10.0**log_count))
    line = largest_admitted_q(count)
    if reach == 0.0 or line < 1e-3:
        q = reach * line
    else:
        q = 10.0 ** (-3.0 + reach * (np.log10(line) + 3.0))
    q = -q if negative else q
    size = mathieu._truncation(q, count)
    assert size <= mathieu._MAX_TRUNCATION
    values = lapack_values(*cls, q, size)[:count]
    doubled = lapack_values(*cls, q, 2 * size)[:count]
    tol = mathieu._STABILITY_TOL * np.maximum(1.0, np.abs(doubled))
    assert np.all(np.abs(values - doubled) <= tol), (q, count, size)


ORDERS = [("ce", m) for m in range(11)] + [("se", m) for m in range(1, 11)]


def solved(q):
    """Every value and Fourier expansion of orders up to 10 at ``q``."""
    table = [ch.value for ch in mathieu.char_values(q, 10)]
    single = [mathieu.char_value(kind, m, q) for kind, m in ORDERS]
    expansions = [mathieu.fourier_coefficients(kind, m, q) for kind, m in ORDERS]
    return table, single, expansions


def test_cached_solves_are_the_uncached_ones_bitwise(monkeypatch):
    qs = (Q, 0.0, 1.5, -7.0, 40.0)
    cached = [solved(q) for q in qs]
    # every cache bypassed: each count and each order solves its own recurrence
    for name in ("_stable_class_values", "_class_values", "_class_decomposition",
                 "fourier_coefficients"):
        monkeypatch.setattr(mathieu, name, getattr(mathieu, name).__wrapped__)
    for q, (table, single, expansions) in zip(qs, cached):
        fresh_table, fresh_single, fresh_expansions = solved(q)
        assert table == fresh_table and single == fresh_single
        for ch, fresh in zip(expansions, fresh_expansions):
            assert ch.value == fresh.value
            assert np.array_equal(ch.harmonics, fresh.harmonics)
            assert np.array_equal(ch.fourier, fresh.fourier)


def test_cached_arrays_are_read_only():
    values, size = mathieu._stable_class_values("ce", 0, Q, 3)
    decomp = mathieu._class_decomposition("ce", 0, Q, size)
    for array in (values, decomp.eigenvalues, decomp.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


# counts the Mathieu recurrences solved by a cold ``verify``, in a child
# process so that no cache of this one is warm
SOLVE_COUNTER = (
    "from moebius import mathieu, verify\n"
    "solves = []\n"
    "for name in ('eig_tridiagonal', 'eig_tridiagonal_full'):\n"
    "    solver = getattr(mathieu, name)\n"
    "    def counted(*args, solver=solver):\n"
    "        solves.append(len(args[0]))\n"
    "        return solver(*args)\n"
    "    setattr(mathieu, name, counted)\n"
    "assert all(result.passed for result in verify.run_all())\n"
    "print(solves)\n"
)


def test_verify_solves_each_distinct_recurrence_once():
    # four classes at q = -1/4, each solved at 64 rows once for its values
    # and once for its eigenvectors: 8 matrices (12, at 64 and 128 rows,
    # when the truncation was searched by doubling; 55 solves when each
    # count and each order solved its own)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", SOLVE_COUNTER], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([64] * 8)
