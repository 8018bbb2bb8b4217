import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius import quadrature
from moebius.errors import CapacityError, InputError
from moebius.geometry import StripParams, jacobian_f, potential_va
from moebius.models import fake_longitudinal, transverse_profile
from moebius.quadrature import QuadratureGrid, gauss_legendre, integrate_2d

PARAMS = StripParams(a=0.75, R=13.2 / (2 * np.pi))


def test_gauss_legendre_lowest_orders():
    nodes, weights = gauss_legendre(1)  # the general Newton path, bit for bit
    assert nodes.tobytes() == np.array([0.0]).tobytes()
    assert weights.tobytes() == np.array([2.0]).tobytes()
    nodes, weights = gauss_legendre(2)
    assert nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_legendre_monomial_exactness():
    nodes, weights = gauss_legendre(6)
    assert abs(weights @ nodes**10 - 2.0 / 11.0) < 1e-14


@settings(max_examples=50, deadline=None)
@given(order=st.integers(min_value=1, max_value=40), degree=st.integers(min_value=0, max_value=79))
def test_gauss_legendre_exact_for_low_degrees(order, degree):
    if degree > 2 * order - 1:
        degree = degree % (2 * order)
    nodes, weights = gauss_legendre(order)
    value = weights @ nodes**degree
    exact = 0.0 if degree % 2 == 1 else 2.0 / (degree + 1)
    assert value == pytest.approx(exact, abs=5e-14)


@settings(max_examples=30, deadline=None)
@given(order=st.integers(min_value=1, max_value=64))
def test_gauss_legendre_structure(order):
    nodes, weights = gauss_legendre(order)
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(2.0, abs=1e-13)
    # exact +/- symmetry, so odd integrands cancel to the bit
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert np.all(np.diff(nodes) > 0)


def test_grid_invariants():
    grid = QuadratureGrid.for_strip(PARAMS, 48, 12)
    assert grid.s_weights.sum() == pytest.approx(PARAMS.circumference, rel=1e-15)
    assert grid.u_weights.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.all(grid.s_weights > 0) and np.all(grid.u_weights > 0)


def test_integrate_constant_gives_area():
    grid = QuadratureGrid.for_strip(PARAMS, 16, 4)
    area = integrate_2d(grid, lambda s, u: np.ones_like(s) * np.ones_like(u))
    assert area == pytest.approx(4 * np.pi * PARAMS.R, rel=1e-14)


def test_integrate_separable_product():
    # integral of cos(ms/2R)^2 cos(n pi u/2)^2 over Pi is pi R
    R = PARAMS.R
    exact = np.pi * R
    m, n = 1, 1
    grid = QuadratureGrid.for_strip(PARAMS, 2 * m + 8, n + 8)
    value = integrate_2d(
        grid,
        lambda s, u: np.cos(m * s / (2 * R)) ** 2 * np.cos(n * np.pi * u / 2) ** 2,
    )
    assert abs(value - exact) / exact < 1e-12
    for m, n in [(3, 2), (6, 3), (10, 5)]:
        grid = QuadratureGrid.for_strip(PARAMS, 4 * m + 32, 2 * n + 16)
        trig = np.cos if n % 2 else np.sin
        value = integrate_2d(
            grid,
            lambda s, u: np.cos(m * s / (2 * R)) ** 2 * trig(n * np.pi * u / 2) ** 2,
        )
        assert abs(value - exact) / exact < 1e-13


def test_fake_basis_gram_identity():
    from moebius.galerkin import basis_modes

    modes = basis_modes(PARAMS, 30)
    grid = QuadratureGrid.for_strip(
        PARAMS,
        4 * max(abs(md.m) for md in modes) + 32,
        2 * max(md.n for md in modes) + 16,
    )
    rows = np.asarray(
        [
            np.outer(
                fake_longitudinal(md.m, PARAMS, grid.s_nodes),
                transverse_profile(md.n, grid.u_nodes),
            ).ravel()
            for md in modes
        ]
    )
    gram = (rows * grid.weights_2d.ravel()) @ rows.T
    assert np.max(np.abs(gram - np.eye(30))) < 1e-10


def test_periodic_direction_doubling_stability():
    # seam-symmetric integrand with metric and potential factors
    p = PARAMS

    def integrand(s, u):
        psi_a = fake_longitudinal(4, p, s) * transverse_profile(1, u)
        psi_b = fake_longitudinal(-6, p, s) * transverse_profile(3, u)
        return potential_va(p, s, u) * psi_a * psi_b / jacobian_f(p, s, p.a * u) ** 2

    m_s = 2 * 6 + 16
    coarse = integrate_2d(QuadratureGrid.for_strip(p, m_s, 24), integrand)
    fine = integrate_2d(QuadratureGrid.for_strip(p, 2 * m_s, 24), integrand)
    assert abs(fine - coarse) < 1e-12


def test_non_finite_sample_rejected():
    grid = QuadratureGrid.for_strip(PARAMS, 8, 3)

    def bad(s, u):
        values = np.ones_like(s) * np.ones_like(u)
        return np.where((s > 1.0) & (u > 0.5), np.nan, values)

    with pytest.raises(InputError, match="not finite"):
        integrate_2d(grid, bad)


def test_order_validation(monkeypatch):
    with pytest.raises(InputError):
        gauss_legendre(0)
    with pytest.raises(InputError):
        QuadratureGrid.for_strip(PARAMS, 0, 4)
    # the cap's own rule converges; one order past it is refused before
    # any iteration (20,000 nodes iterated for 6.8 s)
    cap = quadrature._MAX_ORDER
    nodes, weights = gauss_legendre(cap)
    assert nodes.size == cap and abs(weights.sum() - 2.0) < 1e-14
    monkeypatch.setattr(quadrature, "_newton_legendre", None)
    for order in (cap + 1, 20000):
        with pytest.raises(CapacityError, match=f"^a Gauss-Legendre rule of order {order} is "
                                                f"above the cap of {cap} nodes$"):
            gauss_legendre(order)


@pytest.mark.parametrize("order", [1, 2, 17, 80, 200])
def test_cached_rule_is_read_only_and_equals_a_fresh_solve(order):
    from moebius.quadrature import _newton_legendre

    nodes, weights = gauss_legendre(order)
    fresh_nodes, fresh_weights = _newton_legendre(order)
    assert np.array_equal(nodes, fresh_nodes) and np.array_equal(weights, fresh_weights)
    assert gauss_legendre(order)[0] is nodes  # solved once, then shared
    for array in (nodes, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    grid = QuadratureGrid.for_strip(PARAMS, 8, order)
    assert grid.u_nodes is nodes and not grid.u_weights.flags.writeable
