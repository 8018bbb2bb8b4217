"""Tensor-product quadrature on the rectangle Pi = (0, 2 pi R) x (-1, 1).

Longitudinal direction: the periodic trapezoidal rule, which is spectrally
accurate for the smooth seam-symmetric integrands this package produces
(products of the twisted basis functions with the metric factors).  An
integrand F with the seam property F(s + 2 pi R, -u) = F(s, u) splits into
an s-periodic, u-even part plus an s-antiperiodic, u-odd part; a node set
symmetric in u annihilates the second part exactly, and the trapezoidal
rule handles the first at spectral accuracy.

Transverse direction: Gauss-Legendre nodes and weights on (-1, 1), computed
by Newton iteration on the standard three-term recurrence and symmetrised
so that nodes come in exact +/- pairs (that exactness is what kills the
u-odd component above).  The rule of each order is solved once per process
and cached; callers share its read-only arrays.  Orders above
``_MAX_ORDER`` are refused with ``CapacityError`` before any iteration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, NumericalError
from .geometry import StripParams

__all__ = ["QuadratureGrid", "gauss_legendre", "integrate_2d"]

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100
# Cap on a rule's order: the Newton iteration loops over the recurrence in
# Python, 0.2 s at 4,096 nodes and 6.8 s at 20,000 (2-core VM).  A default
# Galerkin order 2 n + 16 stays at or below 3,058: the kernel charge admits
# at most 761 distinct n at m_s >= 32, so n <= 1,521
_MAX_ORDER = 4096
# orders kept by gauss_legendre's cache; a sweep visits a handful
_CACHED_ORDERS = 64


@functools.lru_cache(maxsize=_CACHED_ORDERS)
def gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on (-1, 1).

    Exact for polynomials of degree <= 2 * order - 1; all weights positive
    and summing to 2.  Each order is solved once per process; the arrays
    returned are shared and read-only.
    """
    if order < 1:
        raise InputError(f"quadrature order must be >= 1, got {order}")
    if order > _MAX_ORDER:
        raise CapacityError(f"a Gauss-Legendre rule of order {order} is above the cap of "
                            f"{_MAX_ORDER} nodes")
    x, w = _newton_legendre(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _newton_legendre(order: int):
    """Gauss-Legendre rule of ``order`` >= 1 by Newton iteration, freshly solved."""
    n = order
    k = np.arange(n)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))  # Tricomi initial guess
    dp = np.empty_like(x)
    for _ in range(_NEWTON_MAX_ITER):
        p_prev = np.ones_like(x)
        p = x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        delta = p / dp
        x -= delta
        if np.max(np.abs(delta)) < _NEWTON_TOL:
            break
    else:
        raise NumericalError(
            f"Newton iteration for Legendre nodes of order {order} did not converge"
        )

    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    x, w = x[idx], w[idx]
    # enforce exact +/- symmetry so odd integrands cancel to the bit
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w


@dataclass(frozen=True)
class QuadratureGrid:
    """Periodic trapezoid in s crossed with Gauss-Legendre in u.

    Invariants: sum(s_weights) = 2 pi R, sum(u_weights) = 2, all weights
    positive.
    """

    s_nodes: np.ndarray
    s_weights: np.ndarray
    u_nodes: np.ndarray
    u_weights: np.ndarray

    @classmethod
    def for_strip(cls, params: StripParams, m_s: int, m_u: int) -> "QuadratureGrid":
        if m_s < 1 or m_u < 1:
            raise InputError(f"node counts must be >= 1, got m_s={m_s}, m_u={m_u}")
        length = params.circumference
        h = length / m_s
        s_nodes = h * np.arange(m_s)
        s_weights = np.full(m_s, h)
        u_nodes, u_weights = gauss_legendre(m_u)
        return cls(s_nodes, s_weights, u_nodes, u_weights)

    @property
    def weights_2d(self) -> np.ndarray:
        """Outer product of the weights, shape (m_s, m_u)."""
        return self.s_weights[:, None] * self.u_weights[None, :]


def integrate_2d(grid: QuadratureGrid, f) -> float:
    """Tensor-product integral of ``f(s, u)`` over Pi.

    ``f`` must broadcast over arrays and be finite at every node; a
    non-finite sample raises ``InputError`` naming the offending node.
    """
    values = np.asarray(
        f(grid.s_nodes[:, None], grid.u_nodes[None, :]), dtype=float
    )
    values = np.broadcast_to(values, (grid.s_nodes.size, grid.u_nodes.size))
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise InputError(
            f"integrand is not finite at node s={grid.s_nodes[i]!r}, "
            f"u={grid.u_nodes[j]!r}"
        )
    return float(grid.s_weights @ values @ grid.u_weights)
