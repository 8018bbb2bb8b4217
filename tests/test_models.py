import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moebius import mathieu, models
from moebius.errors import CapacityError, InputError
from moebius.geometry import StripParams, potential_veff
from moebius.mathieu import char_value, evaluate
from moebius.models import (
    FAMILY_EFF_CE,
    FAMILY_EFF_SE,
    FAMILY_FAKE,
    ModeIndex,
    effective_eigenfunction,
    effective_longitudinal,
    effective_spectrum,
    fake_eigenfunction,
    fake_longitudinal,
    fake_spectrum,
)
from moebius.quadrature import QuadratureGrid, integrate_2d

TABLE_PARAMS = StripParams(a=0.75, R=13.2 / (2 * np.pi))

# Reference eigenvalue tables for a = 0.75, R = 13.2 / (2 pi).
FAKE_REFERENCE = [
    4.386490844928603, 4.613065785265825, 4.613065785265825,
    5.292790606277488, 5.292790606277488, 6.425665307963595, 6.425665307963595,
    8.011689890324144, 8.011689890324144, 10.050864353359135, 10.050864353359135,
    12.543188697068569, 12.543188697068569, 15.488662921452445, 15.488662921452445,
    17.602607114798715, 17.602607114798715, 18.05575699547316, 18.05575699547316,
    18.88728702651077,
]
EFFECTIVE_REFERENCE = [
    4.384732657634105, 4.612770845791257, 4.61452884109396,
    5.292908532928366, 5.292908724918286, 6.425715883668621, 6.425715883670497,
    8.011717987565671, 8.011717987565671, 10.050882233363655, 10.050882233363655,
    12.543201075519463, 12.543201075519463, 15.48867199897889, 15.48867199897889,
    17.58801732145255, 17.616311563972907, 18.055964587231244, 18.055992211502907,
    18.887293968147098,
]


def brute_force_fake(params, box_m, box_n):
    """Independent enumeration over a generous index box."""
    values = []
    for n in range(1, box_n + 1):
        for m in range(-box_m, box_m + 1):
            if (m + n) % 2 == 1:
                values.append((m / (2 * params.R)) ** 2 + (n * np.pi / (2 * params.a)) ** 2)
    values.sort()
    return values


def test_mode_index_validation():
    ModeIndex(FAMILY_FAKE, -2, 1)
    ModeIndex(FAMILY_EFF_CE, 0, 1)
    ModeIndex(FAMILY_EFF_SE, 2, 1)
    with pytest.raises(InputError):
        ModeIndex(FAMILY_FAKE, 1, 1)  # m + n even
    with pytest.raises(InputError):
        ModeIndex(FAMILY_EFF_CE, -1, 2)
    with pytest.raises(InputError):
        ModeIndex(FAMILY_EFF_SE, 0, 1)
    with pytest.raises(InputError):
        ModeIndex(FAMILY_FAKE, 0, 0)
    with pytest.raises(InputError):
        ModeIndex("strange", 0, 1)


def test_fake_ground_state_simple():
    spectrum = fake_spectrum(TABLE_PARAMS, 20)
    e1 = TABLE_PARAMS.transverse_energy
    assert spectrum.entries[0].value == pytest.approx(e1, rel=1e-15)
    assert spectrum.entries[0].multiplicity == 1
    assert spectrum.entries[0].modes[0] == ModeIndex(FAMILY_FAKE, 0, 1)


def test_fake_reference_values():
    values = fake_spectrum(TABLE_PARAMS, 20).values(20)
    assert np.max(np.abs(values - FAKE_REFERENCE) / np.abs(FAKE_REFERENCE)) < 1e-12
    second = fake_spectrum(TABLE_PARAMS, 3).entries[1]
    expected = TABLE_PARAMS.transverse_energy + 1.0 / TABLE_PARAMS.R**2
    assert second.value == pytest.approx(expected, rel=1e-14)
    assert second.multiplicity == 2


def test_fake_multiplicities():
    spectrum = fake_spectrum(TABLE_PARAMS, 40)
    for entry in spectrum.entries:
        signed = {md.m for md in entry.modes}
        assert all(-m in signed for m in signed)  # +/- pairs stay together
        if any(md.m != 0 for md in entry.modes):
            assert entry.multiplicity >= 2


def test_square_strip_fourfold_degeneracy():
    # at pi R = a the second eigenvalue collects (+-1, 2) and (+-2, 1)
    params = StripParams(a=np.pi, R=1.0)
    spectrum = fake_spectrum(params, 6)
    assert spectrum.entries[1].multiplicity == 4


def test_fake_exhaustive_against_brute_force():
    oracle = brute_force_fake(TABLE_PARAMS, box_m=60, box_n=8)[:30]
    values = fake_spectrum(TABLE_PARAMS, 30).values(30)
    assert values == pytest.approx(oracle, rel=1e-14)


def test_effective_reference_values():
    values = effective_spectrum(TABLE_PARAMS, 20).values(20)
    assert np.max(np.abs(values - EFFECTIVE_REFERENCE) / np.abs(EFFECTIVE_REFERENCE)) < 1e-11


def test_effective_ground_state_formula():
    spectrum = effective_spectrum(TABLE_PARAMS, 1)
    expected = (np.pi / 13.2) ** 2 * char_value("ce", 0, -0.25) + TABLE_PARAMS.transverse_energy
    assert spectrum.entries[0].value == pytest.approx(expected, rel=1e-14)
    assert spectrum.entries[0].modes[0] == ModeIndex(FAMILY_EFF_CE, 0, 1)


def test_effective_near_degenerate_pair_merges():
    # the (ce, 10) / (se, 10) values coincide in double precision
    spectrum = effective_spectrum(TABLE_PARAMS, 11)
    tenth = spectrum.values(11)[9]
    entry = next(e for e in spectrum.entries if e.value == tenth)
    assert entry.multiplicity == 2
    families = {md.family for md in entry.modes}
    assert families == {FAMILY_EFF_CE, FAMILY_EFF_SE}


def test_effective_spectrum_tabulates_each_truncation_once(monkeypatch):
    calls = []
    tabulate = mathieu.char_values

    def counted(q, max_order):
        calls.append((q, max_order))
        return tabulate(q, max_order)

    monkeypatch.setattr(mathieu, "char_values", counted)
    models._char_table.cache_clear()
    first = effective_spectrum(TABLE_PARAMS, 20)
    assert len(calls) == 1
    again = effective_spectrum(StripParams(a=0.3, R=TABLE_PARAMS.R), 20)
    assert len(calls) == 1  # the truncation depends on count and q only
    assert again.values(20)[0] != first.values(20)[0]
    assert effective_spectrum(TABLE_PARAMS, 20) == first
    sine, order_m, mu = models._char_table(*calls[0])
    assert not (sine.flags.writeable or order_m.flags.writeable or mu.flags.writeable)


def test_effective_shift_bound():
    fake = fake_spectrum(TABLE_PARAMS, 30).values(30)
    effective = effective_spectrum(TABLE_PARAMS, 30).values(30)
    bound = 1.0 / (8 * TABLE_PARAMS.R**2)
    assert np.max(np.abs(effective - fake)) <= bound + 1e-12


@settings(max_examples=40, deadline=None)
@given(R=st.floats(0.5, 5.0), count=st.integers(1, 150), a=st.floats(1e-4, 1.5))
@example(R=TABLE_PARAMS.R, count=25, a=TABLE_PARAMS.a)
def test_effective_degenerates_to_fake_at_zero_coupling(R, count, a):
    # at q = 0 the Mathieu recurrences are diagonal: a_m = b_m = m^2, and
    # ce_m, se_m are the flat cosine and sine (label -m) of order m
    params = StripParams(a=a, R=R)
    fake = fake_spectrum(params, count)
    effective = effective_spectrum(params, count, q=0.0)
    assert len(effective.entries) == len(fake.entries)
    for eff, flat in zip(effective.entries, fake.entries):
        labels = {(-md.m if md.family == FAMILY_EFF_SE else md.m, md.n) for md in eff.modes}
        assert labels == {(md.m, md.n) for md in flat.modes}
        values, expected = np.sort(eff.mode_values), np.sort(flat.mode_values)
        assert np.all(np.abs(values - expected) <= 1e-15 * expected)


@settings(max_examples=40, deadline=None)
@given(log_a=st.floats(-14.0, 6.0), R=st.floats(0.5, 5.0), count=st.integers(1, 60))
@example(log_a=6.0, R=1.0, count=5)
@example(log_a=-14.0, R=2.0, count=5)
@example(log_a=-153.8, R=2.0, count=5)
def test_both_models_admit_the_same_strips(log_a, R, count):
    # one enumeration sizes both models' boxes: a strip is answered by both
    # or refused by both (at a = 1.6e-154, 4 e1 at n = 2 overflows, past the
    # cap, and a RuntimeWarning fails the test)
    params = StripParams(a=10.0**log_a, R=R)
    answered = []
    for spectrum in (fake_spectrum, effective_spectrum):
        try:
            spectrum(params, count)
        except CapacityError:
            answered.append(False)
        else:
            answered.append(True)
    assert answered[0] == answered[1]


def test_capacity_gate_reckons_in_floats():
    models.require_bytes(models.MAX_ARRAY_BYTES, "the arrays")  # exactly at the cap
    with pytest.raises(CapacityError, match="^the arrays need about 512 MiB, above the 512 MiB"):
        models.require_bytes(models.MAX_ARRAY_BYTES + 1, "the arrays")
    # an integer past the largest double, and overflowing or undefined floats
    for needed in (10**400, float("inf"), np.float64("nan")):
        with pytest.raises(CapacityError, match=" need about inf MiB, "):
            models.require_bytes(needed, "the arrays")


def test_fake_eigenfunction_ground_state():
    psi = fake_eigenfunction(ModeIndex(FAMILY_FAKE, 0, 1), TABLE_PARAMS)
    s = np.linspace(0, TABLE_PARAMS.circumference, 30)
    u = np.linspace(-0.99, 0.99, 30)
    values = psi(s[:, None], u[None, :])
    assert np.all(values > 0)
    expected = np.cos(np.pi * 0.25 / 2) / np.sqrt(2 * np.pi * TABLE_PARAMS.R)
    assert psi(1.0, 0.25) == pytest.approx(expected, rel=1e-14)


def test_fake_eigenfunction_norms_and_seam():
    rng = np.random.default_rng(5)
    spectrum = fake_spectrum(TABLE_PARAMS, 40)
    modes = [mode for _, mode, _ in spectrum.flattened(40)]
    picks = rng.choice(len(modes), size=10, replace=False)
    grid = QuadratureGrid.for_strip(TABLE_PARAMS, 4 * 40 + 32, 2 * 6 + 16)
    u = np.linspace(-1, 1, 50)
    for idx in picks:
        psi = fake_eigenfunction(modes[idx], TABLE_PARAMS)
        norm = integrate_2d(grid, lambda s, uu: psi(s, uu) ** 2)
        assert abs(norm - 1.0) < 1e-10
        seam = psi(np.zeros_like(u), u) - psi(np.full_like(u, TABLE_PARAMS.circumference), -u)
        assert np.max(np.abs(seam)) < 1e-13


def test_fake_eigenfunction_rejects_wrong_family():
    with pytest.raises(InputError):
        fake_eigenfunction(ModeIndex(FAMILY_EFF_CE, 0, 1), TABLE_PARAMS)
    with pytest.raises(InputError):
        effective_eigenfunction(ModeIndex(FAMILY_FAKE, 0, 1), TABLE_PARAMS)


def test_effective_eigenfunction_ode():
    # longitudinal factor solves -phi'' + V_eff phi = nu phi with
    # nu = a_m(-1/4) / (4 R^2)
    params = TABLE_PARAMS
    mode = ModeIndex(FAMILY_EFF_CE, 2, 1)
    nu = char_value("ce", 2, -0.25) / (4 * params.R**2)
    s = np.linspace(0, params.circumference, 100)
    eta = s / (2 * params.R)
    phi = effective_longitudinal(mode, params, s)
    phi_pp = evaluate("ce", 2, -0.25, eta, derivative=2) / (
        (2 * params.R) ** 2 * np.sqrt(np.pi * params.R)
    )
    residual = -phi_pp + potential_veff(params, s) * phi - nu * phi
    assert np.max(np.abs(residual)) < 1e-8


@pytest.mark.parametrize("m", [0, 2, -2])
@pytest.mark.parametrize("derivative", [-1, 2, 3, 5])
def test_fake_longitudinal_refuses_derivative_orders_past_two(m, derivative):
    # any order from 3 up once returned the second derivative, which no
    # caller reads and which is refused too
    with pytest.raises(InputError, match=f"derivative must be 0 or 1, got {derivative}"):
        fake_longitudinal(m, StripParams(1, 1), 0.3, derivative=derivative)


def test_effective_eigenfunction_norm_and_seam():
    params = TABLE_PARAMS
    grid = QuadratureGrid.for_strip(params, 256, 24)
    u = np.linspace(-1, 1, 50)
    for mode in (
        ModeIndex(FAMILY_EFF_CE, 0, 1),
        ModeIndex(FAMILY_EFF_SE, 2, 1),
        ModeIndex(FAMILY_EFF_CE, 1, 2),
        ModeIndex(FAMILY_EFF_SE, 3, 2),
    ):
        psi = effective_eigenfunction(mode, params)
        norm = integrate_2d(grid, lambda s, uu: psi(s, uu) ** 2)
        assert abs(norm - 1.0) < 1e-9
        seam = psi(np.zeros_like(u), u) - psi(np.full_like(u, params.circumference), -u)
        assert np.max(np.abs(seam)) < 1e-12


def test_spectrum_flattening_helpers():
    spectrum = fake_spectrum(TABLE_PARAMS, 5)
    flattened = spectrum.flattened(5)
    assert len(flattened) == 5
    values = [v for v, _, _ in flattened]
    assert values == pytest.approx(sorted(values))
