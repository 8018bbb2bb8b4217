import numpy as np

from moebius import verify
from moebius.geometry import curvatures


def test_suite_passes():
    results = verify.run_all()
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    modules = {r.module for r in results}
    assert {"geometry", "mathieu", "quadrature", "galerkin"} <= modules


def test_fermi_check_catches_sign_error():
    def broken_curvatures(params, s):
        gauss, kappa = curvatures(params, s)
        return gauss, -kappa  # sign flip leaves kappa^2 alone ...

    def broken_gauss(params, s):
        gauss, kappa = curvatures(params, s)
        return -gauss, kappa  # ... so break the Gauss term instead

    assert verify.check_fermi_identity(curvature_fn=broken_gauss).passed is False
    # kappa enters squared; flipping it alone must still pass
    assert verify.check_fermi_identity(curvature_fn=broken_curvatures).passed is True


def test_mathieu_check_catches_wrong_symmetrisation():
    from moebius.linalg import eig_tridiagonal
    from moebius.mathieu import char_values

    def broken_char_values(q, max_order):
        # drop the sqrt(2) coupling on the first even-cosine row
        sine, order, value = char_values(q, max_order)
        size = 64
        diag = (2.0 * np.arange(size)) ** 2
        off = np.full(size - 1, q)  # missing sqrt(2) on off[0]
        broken = eig_tridiagonal(diag, off)
        even_ce = ~sine & (order % 2 == 0)
        value[even_ce] = broken[order[even_ce] // 2]
        return sine, order, value

    assert verify.check_mathieu_reference(char_values_fn=broken_char_values).passed is False
    assert verify.check_mathieu_reference().passed is True


def test_sample_points_spread_over_the_whole_rectangle():
    s, t = verify._spread(60, (0.0, 6.0), (-0.5, 0.5))
    assert s.size == t.size == 60 and np.unique(s).size == np.unique(t).size == 60
    assert 0.0 < s.min() and s.max() < 6.0 and -0.5 < t.min() and t.max() < 0.5
    # every cell of a 5 x 5 grid over the rectangle holds a point
    cells = np.floor(s / 6.0 * 5).astype(int) * 5 + np.floor((t + 0.5) * 5).astype(int)
    assert np.unique(cells).size == 25
    (eta,) = verify._spread(100, (-np.pi, np.pi))
    assert np.histogram(eta, bins=10, range=(-np.pi, np.pi))[0].min() >= 9
