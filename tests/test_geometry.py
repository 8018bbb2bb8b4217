import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius.errors import InputError
from moebius.geometry import (
    StripParams,
    curvatures,
    embed,
    f_squared_bounds,
    jacobian_f,
    jacobian_f_derivatives,
    potential_va,
    potential_veff,
)

TABLE_PARAMS = StripParams(a=0.75, R=13.2 / (2 * np.pi))

params_strategy = st.builds(
    StripParams,
    a=st.floats(min_value=0.05, max_value=3.0),
    R=st.floats(min_value=0.2, max_value=10.0),
)


def test_strip_params_validation():
    with pytest.raises(InputError):
        StripParams(a=0.0, R=1.0)
    with pytest.raises(InputError):
        StripParams(a=1.0, R=-2.0)


def test_strips_whose_energy_scale_underflows_are_refused():
    # (pi / 2a)^2 and (1 / 2R)^2 below the least normal double would carry
    # fewer digits; the limits are a = 1.05e154 and R = 3.35e153
    StripParams(a=1.04e154, R=1.0)
    StripParams(a=0.5, R=3.3e153)
    with pytest.raises(InputError, match="half-width a is too large"):
        StripParams(a=1.06e154, R=1.0)
    with pytest.raises(InputError, match="radius R is too large"):
        StripParams(a=0.5, R=3.4e153)


def test_embed_centre_circle():
    p = StripParams(a=0.5, R=1.0)
    assert embed(p, 0.0, 0.0) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert embed(p, np.pi * p.R, 0.0) == pytest.approx([-1.0, 0.0, 0.0], abs=1e-15)
    # cos(0) = 1 collapses the radial factor to R - t
    assert embed(p, 0.0, 0.5) == pytest.approx([0.5, 0.0, 0.0], abs=1e-15)


def test_embed_seam_identification():
    p = TABLE_PARAMS
    t = np.linspace(-p.a, p.a, 17)
    left = embed(p, np.zeros_like(t), t)
    right = embed(p, np.full_like(t, p.circumference), -t)
    assert np.max(np.abs(left - right)) < 1e-13


def test_jacobian_trivial_slices():
    p = TABLE_PARAMS
    s = np.linspace(0.0, p.circumference, 50)
    assert jacobian_f(p, s, np.zeros_like(s)) == pytest.approx(np.ones_like(s), abs=1e-15)
    t = np.linspace(-p.a, p.a, 50)
    expected = np.sqrt((1 - t / p.R) ** 2 + (t / (2 * p.R)) ** 2)
    assert jacobian_f(p, np.zeros_like(t), t) == pytest.approx(expected, rel=1e-15)


def test_jacobian_uniform_bounds_dense_grid():
    p = TABLE_PARAMS
    s = np.linspace(0.0, p.circumference, 2000, endpoint=False)
    t = np.linspace(-p.a, p.a, 200)
    fsq = jacobian_f(p, s[:, None], t[None, :]) ** 2
    lo, hi = f_squared_bounds(p)
    assert fsq.min() >= lo
    assert fsq.max() <= hi


@settings(max_examples=40, deadline=None)
@given(params=params_strategy)
def test_jacobian_positive_and_bounded(params):
    s = np.linspace(0.0, params.circumference, 60, endpoint=False)
    t = np.linspace(-params.a, params.a, 21)
    fsq = jacobian_f(params, s[:, None], t[None, :]) ** 2
    lo, hi = f_squared_bounds(params)
    assert np.all(fsq > 0.0)
    assert fsq.min() >= lo - 1e-14
    assert fsq.max() <= hi + 1e-14 * hi


@settings(max_examples=40, deadline=None)
@given(params=params_strategy)
def test_seam_symmetry(params):
    u = np.linspace(-1.0, 1.0, 33)
    length = params.circumference
    assert jacobian_f(params, length, params.a * u) == pytest.approx(
        jacobian_f(params, 0.0, -params.a * u), abs=1e-14
    )
    d1_left = jacobian_f_derivatives(params, 0.0, params.a * u)[0]
    d1_right = jacobian_f_derivatives(params, length, params.a * u)[0]
    assert np.max(np.abs(d1_left)) < 1e-12
    assert np.max(np.abs(d1_right)) < 1e-12


def test_derivative_closed_forms():
    p = TABLE_PARAMS
    t = np.linspace(-p.a, p.a, 30)
    d1f = jacobian_f_derivatives(p, np.zeros_like(t), t)[0]
    assert np.max(np.abs(d1f)) < 1e-14  # f is even in s about s = 0

    s = np.linspace(0.0, p.circumference, 30)
    d2f = jacobian_f_derivatives(p, s, np.zeros_like(s))[1]
    assert d2f == pytest.approx(-np.cos(s / (2 * p.R)) / p.R, abs=1e-14)

    d22f = jacobian_f_derivatives(p, s, np.zeros_like(s))[3]
    assert d22f == pytest.approx(np.full_like(s, 1.0 / (2 * p.R) ** 2), rel=1e-13)


def test_derivatives_match_finite_differences():
    p = TABLE_PARAMS
    rng = np.random.default_rng(42)
    s = rng.uniform(0.0, p.circumference, 100)
    t = rng.uniform(-p.a, p.a, 100)
    d1f, d2f, d11f, d22f = jacobian_f_derivatives(p, s, t)

    h = 1e-6
    fd1 = (jacobian_f(p, s + h, t) - jacobian_f(p, s - h, t)) / (2 * h)
    fd2 = (jacobian_f(p, s, t + h) - jacobian_f(p, s, t - h)) / (2 * h)
    assert np.max(np.abs(d1f - fd1) / np.maximum(1.0, np.abs(d1f))) < 1e-6
    assert np.max(np.abs(d2f - fd2) / np.maximum(1.0, np.abs(d2f))) < 1e-6

    # second differences need a larger step: eps / h^2 roundoff
    h = 1e-4
    f0 = jacobian_f(p, s, t)
    fd11 = (jacobian_f(p, s + h, t) - 2 * f0 + jacobian_f(p, s - h, t)) / h**2
    fd22 = (jacobian_f(p, s, t + h) - 2 * f0 + jacobian_f(p, s, t - h)) / h**2
    assert np.max(np.abs(d11f - fd11) / np.maximum(1.0, np.abs(d11f))) < 1e-6
    assert np.max(np.abs(d22f - fd22) / np.maximum(1.0, np.abs(d22f))) < 1e-6


def test_potential_veff_values():
    p = StripParams(a=0.3, R=18 / (2 * np.pi))
    assert potential_veff(p, 0.0) == pytest.approx(-1.0 / (8 * p.R**2), rel=1e-15)
    assert potential_veff(p, np.pi * p.R / 2) == pytest.approx(0.0, abs=1e-16)
    assert potential_veff(p, 0.0) == pytest.approx(-((2 * np.pi / 18) ** 2) / 8, rel=1e-14)
    s = np.linspace(0, p.circumference, 100)
    v = potential_veff(p, s)
    assert np.all(np.abs(v) <= 1.0 / (8 * p.R**2) + 1e-18)


def test_potential_va_limits():
    R = 18 / (2 * np.pi)
    s = np.linspace(0.0, 2 * np.pi * R, 40)
    u = np.linspace(-0.95, 0.95, 11)
    sups = []
    widths = (1e-3, 1e-2, 1e-1)
    for a in widths:
        p = StripParams(a=a, R=R)
        gap = potential_va(p, s[:, None], u[None, :]) - potential_veff(p, s)[:, None]
        sups.append(np.max(np.abs(gap)))
    slope = np.polyfit(np.log(widths), np.log(sups), 1)[0]
    assert 0.9 <= slope <= 1.1

    # at s = pi R the limit potential is +1/(8 R^2)
    p = StripParams(a=1e-5, R=R)
    assert potential_va(p, np.pi * R, 0.0) == pytest.approx(1.0 / (8 * R**2), rel=1e-4)


def test_curvatures_and_fermi_identity():
    p = TABLE_PARAMS
    _, kappa0 = curvatures(p, 0.0)
    assert kappa0 == pytest.approx(1.0 / p.R, rel=1e-15)
    _, kappa_end = curvatures(p, p.circumference)
    assert kappa_end == pytest.approx(-1.0 / p.R, rel=1e-14)  # seam jump
    _, kappa_half = curvatures(p, np.pi * p.R)
    assert abs(kappa_half) < 1e-15

    gauss, _ = curvatures(p, np.linspace(0, p.circumference, 20))
    assert gauss == pytest.approx(np.full(20, -1.0 / (4 * p.R**2)), rel=1e-13)

    rng = np.random.default_rng(3)
    s = rng.uniform(0.0, p.circumference, 50)
    gauss, kappa = curvatures(p, s)
    assert -kappa**2 / 4 - gauss / 2 == pytest.approx(potential_veff(p, s), abs=1e-16)


def test_geodesic_curvature_from_embedding():
    # kappa_g equals the centre-circle acceleration dotted with the ruling direction
    p = StripParams(a=0.4, R=1.7)
    s = np.linspace(0.0, p.circumference, 23, endpoint=False)
    h = 1e-5
    second = (embed(p, s + h, 0.0) - 2 * embed(p, s, 0.0) + embed(p, s - h, 0.0)) / h**2
    ruling = (embed(p, s, h) - embed(p, s, -h)) / (2 * h)
    measured = np.einsum("ij,ij->i", second, ruling)
    _, kappa = curvatures(p, s)
    assert measured == pytest.approx(kappa, abs=1e-5)
