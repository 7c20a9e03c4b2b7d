"""Conformal-anomaly route to the determinant ratios, computed from the
conformal factor by direct quadrature.

For metrics e^{2 psi} |dz|^2 on a plane domain the log-determinant ratio
between the curved and flat metrics is a local functional of psi: an area
integral of |grad psi|^2 plus boundary integrals of psi and its normal
derivative.  This module evaluates that functional numerically for the
two domains where the package also has closed forms (the cone-metric
annulus and the smooth curvature -1 disk), giving an independent oracle
for the analytic results in determinants.py.  Both oracles integrate the
conformal factor of CurvedDiskGeometry: the annulus at its (a, K), the
cap at (1, -1), the Poincare metric 4 |dz|^2 / (1 - |z|^2)^2.  Only the
area term needs quadrature; the boundary circles contribute in closed
form because psi is radial.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .quadrature import adaptive_quadrature
from .special_functions import _TINY, _real, _Record, _set

__all__ = [
    "PAIntegralBreakdown",
    "pa_annulus_numeric",
    "pa_disk_numeric",
]

# The box where the annulus oracle's quadrature meets its budget, each edge
# short of its first failure: below an inner radius of about 3e-122 the spike
# at the inner edge defeats the bisection (estimate 22 at (1, 1e300)); from
# a = 1259 up the estimate ends just over 1e-12; above K = 1e300, K r^2a
# overflows psi'.  Above 1 - 1e-15 the breakpoints round together.
_A_MAX = 1e3
_K_MAX = 1e300
_RHO_MIN = 1e-100
_RHO_MAX = 1.0 - 1e-15

# Largest radius of the disk oracle.  Its area integral grows like e^eta,
# so the absolute tolerance falls below its rounding: the quadrature fails
# from about eta = 7.7 on (7.65 passes, 7.68 fails).
_DISK_ETA_MAX = 7.5


def _psi(a: float, K: float, r: float) -> float:
    # psi(r) of CurvedDiskGeometry(a, K), unchecked
    return (a - 1.0) * math.log(r) + math.log(2.0 * a) - math.log(1.0 + K * r ** (2.0 * a))


def _dpsi_at(a: float, K: float) -> Callable[[float], float]:
    # psi'(r) of CurvedDiskGeometry(a, K), unchecked, as a function of r;
    # its r-free factors are taken once, and each call makes the operations
    # of (a - 1) / r - 2 a K r^(2a-1) / (1 + K r^2a) in the same order
    a_minus_1 = a - 1.0
    two_a_K = 2.0 * a * K
    two_a_minus_1 = 2.0 * a - 1.0
    two_a = 2.0 * a

    def dpsi(r: float) -> float:
        return a_minus_1 / r - two_a_K * r**two_a_minus_1 / (1.0 + K * r**two_a)

    return dpsi


class PAIntegralBreakdown(_Record):
    """The three pieces of the anomaly functional."""

    __slots__ = __match_args__ = ("area_term", "boundary_curvature_terms", "boundary_normal_terms")
    area_term: float
    boundary_curvature_terms: float
    boundary_normal_terms: float

    def __init__(self, area_term: float, boundary_curvature_terms: float, boundary_normal_terms: float) -> None:
        _set(self, "area_term", area_term)
        _set(self, "boundary_curvature_terms", boundary_curvature_terms)
        _set(self, "boundary_normal_terms", boundary_normal_terms)

    @property
    def total(self) -> float:
        """The exactly rounded sum of the three pieces."""
        return math.fsum((self.area_term, self.boundary_curvature_terms, self.boundary_normal_terms))


def _area_term_closed_form(a: float, K: float) -> float:
    # -(1/6) * integral of psi'(r)^2 r dr from K^(-1/2a) to 1, by hand
    return math.fsum(
        (
            -((a - 1.0) ** 2) / (12.0 * a) * math.log(K),
            -math.log1p(K) / 3.0,
            -a / (3.0 * (K + 1.0)),
            a / 6.0,
            math.log(2.0) / 3.0,
        )
    )


def _area_term(a: float, K: float, seeds: tuple[float, ...]) -> float:
    # -(1/6) * integral of psi'(r)^2 r dr over the seed panels, psi' unchecked:
    # no Gauss-Kronrod node lies on an end point, so every node has r > 0,
    # and the callers' radii keep 1 + K r^2a > 0
    dpsi = _dpsi_at(a, K)

    def integrand(r: float) -> float:
        d = dpsi(r)
        return d * d * r

    raw, _ = adaptive_quadrature(integrand, seeds)
    return -raw / 6.0


def pa_annulus_numeric(a: float, K: float) -> PAIntegralBreakdown:
    """Anomaly functional for the cone-metric annulus K^(-1/2a) <= |z| <= 1
    with the area term done by quadrature.  Needs K > 1 so the inner circle
    sits strictly inside the disk, and a <= 1000, K <= 1e300 and an inner
    radius in [1e-100, 1 - 1e-15], the box where the quadrature meets its
    budget.  The total equals annulus_ratio_closed_form(a, K) up to
    quadrature error."""
    a = _real("a", a, _TINY, _A_MAX)
    K = _real("K", K, 1.0, _K_MAX, open_lo=True)

    rho = K ** (-1.0 / (2.0 * a))
    if not _RHO_MIN <= rho <= _RHO_MAX:
        raise ValueError(
            "a and K must put the inner radius K^(-1/(2a)) in [1e-100, 1 - 1e-15], "
            f"got {rho!r} at a = {a!r}, K = {K!r}"
        )

    # three log-spaced panels: the integrand is ~ (a-1)^2 / r at the inner
    # edge; K > 1 keeps 1 + K r^2a > 1
    area = _area_term(a, K, (rho, rho ** (2.0 / 3.0), rho ** (1.0 / 3.0), 1.0))

    curvature = math.fsum(
        (
            -(math.log(2.0 * a) - math.log1p(K)) / 3.0,
            (math.log(2.0 * a) - (a - 1.0) / (2.0 * a) * math.log(K) - math.log(2.0)) / 3.0,
        )
    )
    normal = math.fsum((-0.5, 0.5 + 0.5 * a - a / (K + 1.0)))
    return PAIntegralBreakdown(area, curvature, normal)


def pa_disk_numeric(eta: float) -> PAIntegralBreakdown:
    """Anomaly functional for the smooth curvature -1 cap of geodesic
    radius eta, realized on the flat disk of radius tanh(eta/2).  The total
    equals logdet_poincare_cap(eta) - logdet_flat_disk(tanh(eta/2)) up to
    quadrature error.  Needs eta <= 7.5, where the quadrature still meets
    its absolute tolerance."""
    eta = _real("eta", eta, _TINY, _DISK_ETA_MAX)

    T = math.tanh(0.5 * eta)

    # psi' of the cap is 2r/(1 - r^2): three panels whose distances 1 - r to
    # its pole at r = 1 fall geometrically from 1 to 1 - T;
    # log(1 - T) = -log1p((e^eta - 1)/2)
    log_gap = -math.log1p(0.5 * math.expm1(eta))
    area = _area_term(1.0, -1.0, (0.0, -math.expm1(log_gap / 3.0), -math.expm1(2.0 * log_gap / 3.0), T))

    # 1 - T^2 = 2/(1 + cosh eta), stable for all eta
    s2 = 2.0 / (1.0 + math.cosh(eta))
    curvature = -(math.log(2.0) - math.log(s2)) / 3.0
    normal = -0.5 * (math.cosh(eta) - 1.0)
    return PAIntegralBreakdown(area, curvature, normal)
