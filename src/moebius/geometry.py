"""Closed-form geometry of the Moebius strip.

The strip of half-width ``a`` is ruled along a circle of radius ``R``:

    X(s, t) = ( [R - t cos(s/2R)] cos(s/R),
                [R - t cos(s/2R)] sin(s/R),
                -t sin(s/2R) ),

with longitudinal arc length s and transverse offset t.  The induced metric
is diag(f^2, 1) with Jacobian

    f(s, t) = sqrt( [1 - (t/R) cos(s/2R)]^2 + (t/2R)^2 ),

and f > 0 for every a, R > 0, so the formulas stay valid in the immersed
(possibly self-overlapping, a >= R) regime.

All derivatives of f are hard-coded closed forms obtained by differentiating
g = f^2 once symbolically.  The transformed potential

    V(s, u) = -(5/4) (d1 fa)^2 / fa^4 + (1/2) d1^2 fa / fa^3
              -(1/4) (d2 fa)^2 / (a^2 fa^2) + (1/2) d2^2 fa / (a^2 fa)

of the curved Laplacian mapped onto the fixed rectangle
Pi = (0, 2 pi R) x (-1, 1), where fa(s, u) = f(s, a u), is evaluated from
g and its derivatives directly, with no square root.  The chain rule
cancels every explicit 1/a^2, so ``potential_va`` is evaluated without
small-a cancellation.

Coordinates are accepted anywhere in R; the closed forms are 4 pi R periodic
in s and automatically satisfy the seam identification
f(s + 2 pi R, t) = f(s, -t).  (Reducing s modulo 2 pi R would flip the sign
of cos(s/2R) and break that identity, so no wrapping is performed.)

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "StripParams",
    "embed",
    "jacobian_f",
    "jacobian_f_derivatives",
    "potential_va",
    "potential_veff",
    "curvatures",
]


@dataclass(frozen=True)
class StripParams:
    """Half-width ``a`` and centre-circle radius ``R`` of the strip.

    Both must be positive.  The embedded (non-self-overlapping) picture
    additionally needs a < R; that is deliberately not enforced, since
    every formula below is valid for the immersed strip too.
    """

    a: float
    R: float

    def __post_init__(self):
        if not (self.a > 0.0 and np.isfinite(self.a)):
            raise InputError(f"half-width a must be positive and finite, got {self.a}")
        if not (self.R > 0.0 and np.isfinite(self.R)):
            raise InputError(f"radius R must be positive and finite, got {self.R}")
        # a square of an energy scale past the largest double overflows, and
        # one below the least normal double has lost digits
        for name, value, scale in (("half-width a", self.a, math.pi / (2.0 * float(self.a))),
                                   ("radius R", self.R, 1.0 / (2.0 * float(self.R)))):
            square = scale * scale
            if not sys.float_info.min <= square < math.inf:
                small, flow = ("small", "overflows") if square > 1.0 else ("large", "underflows")
                raise InputError(f"{name} is too {small}, got {value}: its energy "
                                 f"scale {scale:.3g} squared {flow}")

    @property
    def circumference(self) -> float:
        return 2.0 * np.pi * self.R

    @property
    def transverse_energy(self) -> float:
        """Lowest transverse Dirichlet energy (pi / 2a)^2."""
        scale = np.pi / (2.0 * self.a)
        return scale * scale


def embed(params: StripParams, s, t):
    """Map strip coordinates to 3-space.

    Accepts scalars or broadcastable arrays; returns an array with a
    trailing axis of length 3.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    R = params.R
    half = s / (2.0 * R)
    radial = R - t * np.cos(half)
    out = np.stack(
        np.broadcast_arrays(
            radial * np.cos(s / R),
            radial * np.sin(s / R),
            -t * np.sin(half),
        ),
        axis=-1,
    )
    return out


def _f_terms(params: StripParams, s, t):
    """Shared building blocks: cos, sin of the half angle, w = 1 - (t/R) cos."""
    R = params.R
    c = np.cos(s / (2.0 * R))
    sg = np.sin(s / (2.0 * R))
    w = 1.0 - (t / R) * c
    return c, sg, w


def jacobian_f(params: StripParams, s, t):
    """Metric Jacobian f(s, t), strictly positive.

    Satisfies the uniform bounds 1/5 <= f^2 <= (1 + a/R)^2 + (a/2R)^2 for
    |t| <= a.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    _, _, w = _f_terms(params, s, t)
    return np.sqrt(w * w + (t / (2.0 * params.R)) ** 2)


def _g_with_derivatives(params: StripParams, s, t):
    """g = f^2 and its partial derivatives (g, d1g, d2g, d11g, d22g), from
    one evaluation of the shared terms; see ``jacobian_f_derivatives``."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    R = params.R
    c, sg, w = _f_terms(params, s, t)
    g = w * w + (t / (2.0 * R)) ** 2
    d1g = t * w * sg / R**2
    d2g = -2.0 * w * c / R + t / (2.0 * R**2)
    d11g = t * t * sg * sg / (2.0 * R**4) + w * t * c / (2.0 * R**3)
    d22g = 2.0 * c * c / R**2 + 1.0 / (2.0 * R**2)
    return g, d1g, d2g, d11g, d22g


def jacobian_f_derivatives(params: StripParams, s, t):
    """First and second partial derivatives of f.

    Returns (d1f, d2f, d11f, d22f) where index 1 is the s direction and
    index 2 the t direction.  Derived from g = f^2:

        d1 g  = t w sin(s/2R) / R^2
        d2 g  = -2 w cos(s/2R) / R + t / (2 R^2)
        d11 g = t^2 sin^2(s/2R) / (2 R^4) + w t cos(s/2R) / (2 R^3)
        d22 g = 2 cos^2(s/2R) / R^2 + 1 / (2 R^2)

    and the usual conversions d f = d g / (2 f),
    d^2 f = (d^2 g - 2 (d f)^2) / (2 f).  In particular
    d2f(s, 0) = -cos(s/2R) / R, with the minus sign fixed by d2 g.
    """
    g, d1g, d2g, d11g, d22g = _g_with_derivatives(params, s, t)
    f = np.sqrt(g)
    d1f = d1g / (2.0 * f)
    d2f = d2g / (2.0 * f)
    return d1f, d2f, (d11g - 2.0 * d1f * d1f) / (2.0 * f), (d22g - 2.0 * d2f * d2f) / (2.0 * f)


def _potential_from_g(g, d1g, d2g, d11g, d22g):
    """The potential V of ``potential_va`` from g = f^2 and its derivatives."""
    inv = 1.0 / g
    return 0.25 * inv * (d11g * inv - 1.75 * (d1g * inv) ** 2 + d22g - 0.75 * d2g * d2g * inv)


def potential_va(params: StripParams, s, u):
    """Geometric potential of the transformed curved Laplacian on Pi.

    u is the rescaled transverse coordinate, t = a u with u in [-1, 1].
    Writing fa(s, u) = f(s, a u), the chain rule turns every d2/a factor
    into a plain t derivative, so V is

        V = -(5/4) (d1f)^2 / f^4 + (1/2) d11f / f^3
            -(1/4) (d2f)^2 / f^2 + (1/2) d22f / f

    at (s, a u), which with f = sqrt(g) is evaluated from g = f^2 as

        V = d11g / (4 g^2) - 7 (d1g)^2 / (16 g^3)
            + d22g / (4 g) - 3 (d2g)^2 / (16 g^2).

    Converges pointwise to ``potential_veff`` as a -> 0, with an a-uniform
    O(a) error.
    """
    t = params.a * np.asarray(u, dtype=float)
    return _potential_from_g(*_g_with_derivatives(params, s, t))


def potential_veff(params: StripParams, s):
    """Thin-strip limit potential -cos(s/R) / (8 R^2), independent of t."""
    s = np.asarray(s, dtype=float)
    return -np.cos(s / params.R) / (8.0 * params.R**2)


def curvatures(params: StripParams, s):
    """Gauss curvature on the centre circle and geodesic curvature of it.

    Returns (K, kappa_g) with K = -d22f/f at t = 0 (Fermi coordinates) and
    kappa_g(s) = cos(s/2R) / R.  kappa_g jumps at the seam,
    kappa_g(0) = -kappa_g(2 pi R), while the combination

        -kappa_g^2 / 4 - K / 2 = potential_veff(s)

    is smooth; that identity holds exactly and is asserted in the
    verification suite.
    """
    s = np.asarray(s, dtype=float)
    t = np.zeros_like(s)
    f = jacobian_f(params, s, t)
    _, _, _, d22f = jacobian_f_derivatives(params, s, t)
    K = -d22f / f
    kappa_g = np.cos(s / (2.0 * params.R)) / params.R
    return K, kappa_g


def f_squared_bounds(params: StripParams) -> tuple[float, float]:
    """Uniform bounds [lo, hi] with lo <= f^2 <= hi on |t| <= a; lo = 1/5."""
    a, R = params.a, params.R
    return 0.2, (1.0 + a / R) ** 2 + (a / (2.0 * R)) ** 2
