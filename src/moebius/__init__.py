"""Spectra of a quantum particle on the Moebius strip.

Three models of the Dirichlet Laplacian on a strip of half-width a ruled
along a circle of radius R:

* flat ("fake"): the twisted rectangle without curvature, closed-form
  sine/cosine spectrum;
* effective ("not so fake"): the flat model plus the geometric potential
  -cos(s/R) / (8 R^2), closed-form spectrum through Mathieu characteristic
  values at q = -1/4;
* true: the curved Laplace-Beltrami operator, solved variationally by
  spectral Galerkin projection onto the flat eigenbasis.

The subpackages compute all three, cross-validate them against each other,
and measure the thin-strip convergence rate between the effective and true
models.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining module.  Names resolve on first access (PEP 562
# ``__getattr__``), so a process imports only the modules it uses: the CLI
# child of ``moebius mathieu`` never loads the Galerkin solver.
_EXPORTS = {
    name: module
    for module, names in (
        ("convergence", "SweepResult eigenvalue_sweep eigenvector_sweep fit_rate"),
        ("errors", "CapacityError InputError MoebiusError NumericalError"),
        ("galerkin", "GalerkinConfig GalerkinSolution assemble basis_modes "
                     "effective_in_basis residual_norm solve"),
        ("geometry", "StripParams curvatures embed jacobian_f "
                     "jacobian_f_derivatives potential_va potential_veff"),
        ("linalg", "EigenDecomposition SymmetricMatrix eig_dense_symmetric "
                   "eig_tridiagonal"),
        ("mathieu", "MathieuChar char_value char_values fourier_coefficients"),
        ("models", "ModeIndex Spectrum effective_eigenfunction effective_spectrum "
                   "fake_eigenfunction fake_spectrum"),
        ("quadrature", "QuadratureGrid gauss_legendre integrate_2d"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset({"cli", "verify", *_EXPORTS.values()})

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
