import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    small = eig_tridiagonal(diag, off, 8)
    diag2 = (2.0 * np.arange(128)) ** 2
    off2 = np.full(127, Q)
    off2[0] *= np.sqrt(2.0)
    large = eig_tridiagonal(diag2, off2, 8)
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


def test_sign_convention():
    for kind, orders in (("ce", range(0, 8)), ("se", range(1, 8))):
        for m in orders:
            ch = fourier_coefficients(kind, m, Q)
            leading = ch.fourier[np.abs(ch.fourier) > 1e-15][0]
            assert leading > 0


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
    # count 112 starts at 128 rows and has room for exactly one doubling
    assert char_value("ce", 2 * 111, Q) == pytest.approx(222.0**2, rel=1e-9)
    assert max(recurrence_sizes) == 256
    with pytest.raises(CapacityError):
        char_value("ce", 2 * 112, Q)  # count 113 would need 258 rows
    # a q past the 256-row line (c = 4.0e-4) but under its refusal, which
    # scales the 4096-row c, never stabilises: stop at the cap with a
    # numerical failure
    recurrence_sizes.clear()
    assert 2.5e6 < mathieu._refused_q()
    with pytest.raises(NumericalError, match="did not stabilise"):
        char_values(2.5e6, 2)
    assert recurrence_sizes and max(recurrence_sizes) <= 256
    # a huge q is refused before any recurrence is built
    recurrence_sizes.clear()
    with pytest.raises(CapacityError, match="truncation cap 256"):
        char_values(1e200, 2)
    assert recurrence_sizes == []


def test_unresolvable_q_is_the_measured_line():
    line = mathieu._RESOLVED_Q_PER_ROW4 * mathieu._MAX_TRUNCATION**4
    assert mathieu._refused_q() == pytest.approx(line)
    # se1 still resolved at 1.913e11; no class did from 1.94e11
    assert 1.94e11 < line < 1.95e11
    for q in (0.0, Q, 1e8, 1.913e11, -1.913e11, line, -line, float("nan")):
        assert not mathieu._unresolvable(q), q
    for q in (np.nextafter(line, np.inf), 1.95e11, -1.95e11, 1e12, -1e12, 1e200, -1e200):
        assert mathieu._unresolvable(q), q
    # past Gershgorin's float range the q is a numerical failure instead
    for q in (1e308, -1e308, np.finfo(float).max):
        assert not mathieu._unresolvable(q), q
        with pytest.raises(NumericalError, match="non-finite eigenvalues"):
            char_values(q, 2)


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
    values, _ = mathieu._stable_class_values("ce", 0, Q, 3)
    decomp = mathieu._class_decomposition("ce", 0, Q, 128)
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
    "print(len(solves))\n"
)


def test_verify_solves_each_distinct_recurrence_once():
    # four classes at q = -1/4, each at 64 and 128 rows for its values
    # and at 128 rows for its eigenvectors: 12 matrices (55 solves when
    # each count and each order solved its own)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", SOLVE_COUNTER], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 12
