"""Cross-module invariant suite behind the ``verify`` CLI command.

Each check returns a :class:`CheckResult` carrying the module name, the
invariant name, a pass flag and a short observed-versus-expected detail
string.  Checks that guard against silent sign or scaling mistakes accept
the function under test as an argument, so a deliberately broken
implementation can be injected to prove the check bites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import galerkin, mathieu, models
from .geometry import (
    StripParams,
    curvatures,
    embed,
    f_squared_bounds,
    jacobian_f,
    jacobian_f_derivatives,
    potential_veff,
)
from .quadrature import QuadratureGrid

__all__ = ["CheckResult", "run_all"]

# The README strip; every check's bound was set at it
PARAMS = StripParams(a=0.75, R=13.2 / (2.0 * np.pi))

# Reference characteristic values at q = -1/4 (first 17 digits of the
# high-precision tabulation; double precision resolves ~15-16 of them).
REFERENCE_A = {
    0: -0.031039395475617324,
    1: 0.742428825986629743,
    2: 4.025829084645603242,
    3: 9.003664867046239135,
    4: 16.002085290467195630,
    5: 25.001302132226840814,
    6: 36.000892873798434227,
    7: 49.000651047848063964,
    8: 64.000496034406711694,
    9: 81.000390626275707605,
    10: 100.000315657230078674,
}
REFERENCE_B = {
    1: 1.241941128242915145,
    2: 3.994793078632118946,
    3: 9.004152551546934780,
    4: 16.002081901038172987,
    5: 25.001302145469802281,
    6: 36.000892873765323915,
    7: 49.000651047848121450,
    8: 64.000496034406711620,
    9: 81.000390626275707676,
    10: 100.000315657230078674,
}


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    detail: str


def _result(module, name, observed, bound, detail_fmt="max deviation") -> CheckResult:
    return CheckResult(
        module=module,
        name=name,
        passed=bool(observed <= bound),
        detail=f"{detail_fmt} {observed:.3e} (allowed {bound:.1e})",
    )


def _spread(count: int, *ranges) -> tuple:
    """``count`` fixed points spread evenly over the box of ``ranges``, one
    (lo, hi) per axis: the Kronecker sequence frac(1/2 + k alpha), k = 1..count,
    with alpha_j = phi^-j and phi the positive root of x^(d+1) = x + 1 (the
    golden ratio in one dimension, the plastic number in two).  It covers
    the box without lying on a line and needs no random generator."""
    dim, phi = len(ranges), 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    unit = (0.5 + np.arange(1, count + 1)[:, None] * phi ** -np.arange(1.0, dim + 1)) % 1.0
    return tuple(lo + (hi - lo) * unit[:, j] for j, (lo, hi) in enumerate(ranges))


def check_jacobian_bounds() -> CheckResult:
    s = np.linspace(0.0, PARAMS.circumference, 2000, endpoint=False)
    t = np.linspace(-PARAMS.a, PARAMS.a, 200)
    fsq = jacobian_f(PARAMS, s[:, None], t[None, :]) ** 2
    lo, hi = f_squared_bounds(PARAMS)
    worst = max(float(lo - fsq.min()), float(fsq.max() - hi), 0.0)
    return _result("geometry", "jacobian-uniform-bounds", worst, 0.0, "bound excess")


def check_seam_symmetry() -> CheckResult:
    u = np.linspace(-1.0, 1.0, 101)
    length = PARAMS.circumference
    mismatch = np.max(
        np.abs(
            jacobian_f(PARAMS, length, PARAMS.a * u)
            - jacobian_f(PARAMS, 0.0, -PARAMS.a * u)
        )
    )
    d1_left = jacobian_f_derivatives(PARAMS, 0.0, PARAMS.a * u)[0]
    d1_right = jacobian_f_derivatives(PARAMS, length, PARAMS.a * u)[0]
    worst = max(float(mismatch), float(np.max(np.abs(d1_left))), float(np.max(np.abs(d1_right))))
    return _result("geometry", "seam-symmetry", worst, 1e-12)


def check_fermi_identity(curvature_fn=curvatures) -> CheckResult:
    (s,) = _spread(50, (0.0, PARAMS.circumference))
    gauss, geodesic = curvature_fn(PARAMS, s)
    lhs = -geodesic**2 / 4.0 - gauss / 2.0
    worst = float(np.max(np.abs(lhs - potential_veff(PARAMS, s))))
    return _result("geometry", "fermi-identity", worst, 1e-15)


def check_derivatives_fd() -> CheckResult:
    s, t = _spread(100, (0.0, PARAMS.circumference), (-PARAMS.a, PARAMS.a))
    h = 1e-6
    d1f, d2f, _, _ = jacobian_f_derivatives(PARAMS, s, t)
    fd1 = (jacobian_f(PARAMS, s + h, t) - jacobian_f(PARAMS, s - h, t)) / (2 * h)
    fd2 = (jacobian_f(PARAMS, s, t + h) - jacobian_f(PARAMS, s, t - h)) / (2 * h)
    scale = np.maximum(1.0, np.abs(d1f))
    worst = max(
        float(np.max(np.abs(d1f - fd1) / scale)),
        float(np.max(np.abs(d2f - fd2) / np.maximum(1.0, np.abs(d2f)))),
    )
    return _result("geometry", "derivatives-vs-finite-differences", worst, 1e-6)


def check_embedding_metric() -> CheckResult:
    """The coded Jacobian must match the metric induced by the embedding."""
    s, t = _spread(60, (0.0, PARAMS.circumference), (-PARAMS.a, PARAMS.a))
    h = 1e-6
    dxs = (embed(PARAMS, s + h, t) - embed(PARAMS, s - h, t)) / (2 * h)
    dxt = (embed(PARAMS, s, t + h) - embed(PARAMS, s, t - h)) / (2 * h)
    g11 = np.einsum("ij,ij->i", dxs, dxs)
    g12 = np.einsum("ij,ij->i", dxs, dxt)
    g22 = np.einsum("ij,ij->i", dxt, dxt)
    fsq = jacobian_f(PARAMS, s, t) ** 2
    worst = max(
        float(np.max(np.abs(g11 - fsq))),
        float(np.max(np.abs(g12))),
        float(np.max(np.abs(g22 - 1.0))),
    )
    return _result("geometry", "embedding-induced-metric", worst, 1e-7)


def check_mathieu_reference(char_values_fn=mathieu.char_values) -> CheckResult:
    chars = char_values_fn(-0.25, 10)
    table = {("ce", m): v for m, v in REFERENCE_A.items()}
    table.update({("se", m): v for m, v in REFERENCE_B.items()})
    worst = 0.0
    for ch in chars:
        ref = table[(ch.kind, ch.m)]
        worst = max(worst, abs(ch.value - ref) / abs(ref))
    return _result("mathieu", "characteristic-reference-values", worst, 1e-12)


def check_mathieu_interlacing() -> CheckResult:
    """Ascending chain a0 < a1 < b1 < b2 < a2 < a3 < b3 < b4 < a4 < ...

    For q < 0 the within-order pair flips with parity: b_m below a_m for
    even m, a_m below b_m for odd m.  The m = 10 pair coincides beyond
    double precision, so exact ties are tolerated; any resolvable gap must
    be strictly increasing.
    """
    chars = {(c.kind, c.m): c.value for c in mathieu.char_values(-0.25, 10)}
    chain = [chars[("ce", 0)], chars[("ce", 1)], chars[("se", 1)]]
    for m in range(2, 11):
        pair = [("se", m), ("ce", m)] if m % 2 == 0 else [("ce", m), ("se", m)]
        chain.extend(chars[key] for key in pair)
    # ties below the solver's stability scale are unresolvable
    tol = mathieu._STABILITY_TOL
    ok = all(x <= y + tol * max(1.0, abs(x)) for x, y in zip(chain, chain[1:]))
    return CheckResult(
        "mathieu",
        "interlacing-chain",
        ok,
        "a0 < a1 < b1 < b2 < a2 < ... ascending" if ok else "chain ordering violated",
    )


def check_mathieu_orthogonality() -> CheckResult:
    eta = np.pi * (2.0 * np.arange(512) / 512 - 1.0)
    weight = 2.0 * np.pi / 512  # periodic trapezoid on (-pi, pi)
    functions = []
    for m in range(0, 7):
        functions.append(mathieu.evaluate("ce", m, -0.25, eta))
    for m in range(1, 7):
        functions.append(mathieu.evaluate("se", m, -0.25, eta))
    gram = weight * np.asarray(functions) @ np.asarray(functions).T
    worst = float(np.max(np.abs(gram - np.pi * np.eye(len(functions)))))
    return _result("mathieu", "orthogonality", worst, 1e-9)


def check_mathieu_ode_residual() -> CheckResult:
    (eta,) = _spread(100, (-np.pi, np.pi))
    q = -0.25
    worst = 0.0
    for kind, orders in (("ce", range(0, 7)), ("se", range(1, 7))):
        for m in orders:
            mu = mathieu.char_value(kind, m, q)
            y = mathieu.evaluate(kind, m, q, eta)
            ypp = mathieu.evaluate(kind, m, q, eta, derivative=2)
            residual = ypp + (mu - 2.0 * q * np.cos(2.0 * eta)) * y
            sup = np.max(np.abs(mathieu.evaluate(kind, m, q, np.linspace(-np.pi, np.pi, 400))))
            worst = max(worst, float(np.max(np.abs(residual)) / sup))
    return _result("mathieu", "ode-residual", worst, 1e-9)


def check_basis_gram() -> CheckResult:
    [(m, n)] = galerkin._bases([PARAMS], 30, False)
    config = galerkin.GalerkinConfig(params=PARAMS, n_basis=30)
    grid = QuadratureGrid.for_strip(PARAMS, *galerkin._quadrature_orders(config, m, n))
    factors = galerkin._sample_factors(m, n, PARAMS, grid.s_nodes, grid.u_nodes)
    # w(s, u) = w_s w_u: the Gram matrix is the elementwise product of the
    # longitudinal and transverse ones
    transverse = factors.transverse[factors.n_of]
    gram = ((factors.longitudinal * grid.s_weights) @ factors.longitudinal.T) * (
        (transverse * grid.u_weights) @ transverse.T
    )
    worst = float(np.max(np.abs(gram - np.eye(m.size))))
    return _result("quadrature", "fake-basis-gram-identity", worst, 1e-10)


def check_flat_plain_diagonal() -> CheckResult:
    config = galerkin.GalerkinConfig(params=PARAMS, n_basis=40, geometry="flat_plain")
    dense = galerkin.assemble(config).to_dense()
    off = dense - np.diag(np.diag(dense))
    fake = models.fake_spectrum(PARAMS, 40).values(40)
    worst = max(
        float(np.max(np.abs(off))),
        float(np.max(np.abs(np.sort(np.diag(dense)) - fake))),
    )
    return _result("galerkin", "flat-plain-diagonal-oracle", worst, 1e-12)


def check_flat_veff_effective() -> CheckResult:
    config = galerkin.GalerkinConfig(params=PARAMS, n_basis=82, geometry="flat_with_Veff")
    solution = galerkin.solve(config)
    reference = models.effective_spectrum(PARAMS, 20).values(20)
    worst = float(np.max(np.abs(solution.eigenvalues[:20] - reference) / reference))
    return _result("galerkin", "flat-veff-matches-effective", worst, 1e-9)


def check_rayleigh_ritz_monotonicity() -> CheckResult:
    sizes = (20, 41, 82)
    spectra = []
    for n in sizes:
        config = galerkin.GalerkinConfig(params=PARAMS, n_basis=n)
        spectra.append(galerkin.solve(config).eigenvalues)
    worst = 0.0
    for small, big in zip(spectra, spectra[1:]):
        k = min(small.size, big.size, 20)
        worst = max(worst, float(np.max(big[:k] - small[:k])))
    return _result(
        "galerkin", "rayleigh-ritz-monotonicity", worst, 1e-12, "max increase"
    )


def run_all() -> list[CheckResult]:
    """Run every invariant check; returns results in a fixed order."""
    return [
        check_jacobian_bounds(),
        check_seam_symmetry(),
        check_fermi_identity(),
        check_derivatives_fd(),
        check_embedding_metric(),
        check_mathieu_reference(),
        check_mathieu_interlacing(),
        check_mathieu_orthogonality(),
        check_mathieu_ode_residual(),
        check_basis_gram(),
        check_flat_plain_diagonal(),
        check_flat_veff_effective(),
        check_rayleigh_ritz_monotonicity(),
    ]
