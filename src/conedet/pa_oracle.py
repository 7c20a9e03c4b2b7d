"""Conformal-anomaly route to the determinant ratios, computed from the
conformal factor by direct quadrature.

For metrics e^{2 psi} |dz|^2 on a plane domain the log-determinant ratio
between the curved and flat metrics is a local functional of psi: an area
integral of |grad psi|^2 plus boundary integrals of psi and its normal
derivative.  This module evaluates that functional numerically for the
two domains where the package also has closed forms (the cone-metric
annulus and the smooth curvature -1 disk), giving an independent oracle
for the analytic results in determinants.py.  The annulus integrates the
conformal factor of CurvedDiskGeometry at its (a, K) in the radius r; the
cap, the Poincare metric 4 |dz|^2 / (1 - |z|^2)^2 of CurvedDiskGeometry at
(1, -1), in its geodesic radius s, where r = tanh(s/2).  Only the area term
needs quadrature; the boundary circles contribute in closed form because
psi is radial.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .quadrature import adaptive_quadrature
from .special_functions import _LOG_2, _TINY, _real, _Record, _set

__all__ = [
    "PAIntegralBreakdown",
    "pa_annulus_numeric",
    "pa_disk_numeric",
]

# The box of the annulus oracle.  Its quadrature meets the budget inside the
# box, and each edge keeps a margin from the first failure past it: below an
# inner radius of about 1e-154, psi'(r)^2 overflows at the inner edge; past
# a = 1000 the estimate can end just over 1e-12 (3 of 29,595 points with a
# in [1e3, 2e4], the first at a = 1.45e4); near K = 1e308, 2aK overflows
# psi'.  Above 1 - 1e-15 the inner radius can round to 1, which leaves the
# seed panel no width.
_A_MAX = 1e3
_K_MAX = 1e300
_RHO_MIN = 1e-100
_RHO_MAX = 1.0 - 1e-15

# Largest radius of the disk oracle.  The geodesic panel meets the budget
# far past it, up to eta = 474, where sinh^3(s/2) overflows; the bound keeps
# the documented range, which the error message states.
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
            _LOG_2 / 3.0,
        )
    )


def _cap_integrand(s: float) -> float:
    # psi'(r)^2 r dr/ds of the cap at r = tanh(s/2), where psi' = 2r/(1 - r^2)
    # and dr/ds = (1 - r^2)/2: 2 sinh^3(s/2) / cosh(s/2), with no pole and no
    # cancellation in 1 - r^2
    h = 0.5 * s
    sh = math.sinh(h)
    return 2.0 * sh * sh * sh / math.cosh(h)


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

    dpsi = _dpsi_at(a, K)

    def integrand(r: float) -> float:
        # psi'(r)^2 r, psi' unchecked: no Gauss-Kronrod node lies on an end
        # point, so every node has r > 0, and K > 1 keeps 1 + K r^2a > 1
        d = dpsi(r)
        return d * d * r

    # one panel per unit of log r, at least one since rho < 1: the integrand
    # is ~ (a-1)^2 / r at the inner edge, so each panel spans a factor of at
    # most e in r
    m = math.ceil(-math.log(rho))
    raw, _ = adaptive_quadrature(integrand, (rho, *(rho ** ((m - k) / m) for k in range(1, m)), 1.0))
    area = -raw / 6.0

    log_2a = math.log(2.0 * a)
    curvature = math.fsum(
        (
            -(log_2a - math.log1p(K)) / 3.0,
            (log_2a - (a - 1.0) / (2.0 * a) * math.log(K) - _LOG_2) / 3.0,
        )
    )
    normal = math.fsum((-0.5, 0.5 + 0.5 * a - a / (K + 1.0)))
    return PAIntegralBreakdown(area, curvature, normal)


def pa_disk_numeric(eta: float) -> PAIntegralBreakdown:
    """Anomaly functional for the smooth curvature -1 cap of geodesic
    radius eta, realized on the flat disk of radius tanh(eta/2).  The total
    equals logdet_poincare_cap(eta) - logdet_flat_disk(tanh(eta/2)) up to
    quadrature error.  Needs eta <= 7.5."""
    eta = _real("eta", eta, _TINY, _DISK_ETA_MAX)

    # the area term in the geodesic radius s in [0, eta], on one panel
    raw, _ = adaptive_quadrature(_cap_integrand, (0.0, eta))
    area = -raw / 6.0

    # 1 - tanh^2(eta/2) = 2/(1 + cosh eta), stable for all eta
    cosh_eta = math.cosh(eta)
    s2 = 2.0 / (1.0 + cosh_eta)
    curvature = -(_LOG_2 - math.log(s2)) / 3.0
    normal = -0.5 * (cosh_eta - 1.0)
    return PAIntegralBreakdown(area, curvature, normal)
