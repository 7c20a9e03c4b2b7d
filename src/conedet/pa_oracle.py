"""Conformal-anomaly route to the determinant ratios, computed from the
conformal factor by direct quadrature.

For metrics e^{2 psi} |dz|^2 on a plane domain the log-determinant ratio
between the curved and flat metrics is a local functional of psi: an area
integral of |grad psi|^2 plus boundary integrals of psi and its normal
derivative.  This module evaluates that functional numerically for the
two domains where the package also has closed forms (the cone-metric
annulus and the smooth curvature -1 disk), giving an independent oracle
for the analytic results in determinants.py.  Only the area term needs
quadrature; the boundary circles contribute in closed form because psi
is radial.
"""

from __future__ import annotations

import math

from .quadrature import adaptive_quadrature
from .special_functions import _TINY, _real, _Record, _set

__all__ = [
    "ConformalFactor",
    "PAIntegralBreakdown",
    "grad_psi_sq",
    "pa_annulus_numeric",
    "pa_disk_numeric",
]

# Inner radii of the annulus that the area quadrature handles.
_RHO_MIN = 1e-150
_RHO_MAX = 1.0 - 1e-15

# Largest radius of the disk oracle.  Its area integral grows like e^eta,
# so the absolute tolerance falls below its rounding: the quadrature fails
# from about eta = 7.7 on (7.65 passes, 7.68 fails).
_DISK_ETA_MAX = 7.5


class ConformalFactor(_Record):
    """Radial conformal factor of the angle 2*pi*a, curvature K cone metric
    on the unit disk: e^{2 psi(r)} |dz|^2 with
    psi(r) = (a-1) log r + log(2a) - log(1 + K r^{2a})."""

    __slots__ = __match_args__ = ("a", "K")
    a: float
    K: float

    def __init__(self, a: float, K: float) -> None:
        _set(self, "a", _real("a", a, _TINY))
        _set(self, "K", _real("K", K, -1.0, open_lo=True))

    def _denominator(self, r: float) -> float:
        d = 1.0 + self.K * r ** (2.0 * self.a)
        if d < 1e-300:
            raise ValueError(f"metric degenerates at r = {r!r}: 1 + K r^2a = {d!r}")
        return d

    def psi(self, r: float) -> float:
        r = _real("r", r, _TINY, 1.0)
        return (self.a - 1.0) * math.log(r) + math.log(2.0 * self.a) - math.log(self._denominator(r))

    def dpsi(self, r: float) -> float:
        r = _real("r", r, _TINY, 1.0)
        a, K = self.a, self.K
        return (a - 1.0) / r - 2.0 * a * K * r ** (2.0 * a - 1.0) / self._denominator(r)


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


def grad_psi_sq(a: float, K: float, r: float) -> float:
    """|grad psi|^2 = psi'(r)^2 for the radial cone conformal factor."""
    d = ConformalFactor(a, K).dpsi(r)
    return d * d


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


def pa_annulus_numeric(a: float, K: float) -> PAIntegralBreakdown:
    """Anomaly functional for the cone-metric annulus K^(-1/2a) <= |z| <= 1
    with the area term done by quadrature.  Needs K > 1 so the inner circle
    sits strictly inside the disk, and an inner radius in [1e-150, 1 - 1e-15]
    so the quadrature stays finite and its breakpoints distinct.  The total
    equals annulus_ratio_closed_form(a, K) up to quadrature error."""
    a = _real("a", a, _TINY)
    K = _real("K", K, 1.0, open_lo=True)

    rho = K ** (-1.0 / (2.0 * a))
    # below 1e-150 psi'(r)^2 overflows near r = rho; above 1 - 1e-15 the
    # breakpoints round together
    if not _RHO_MIN <= rho <= _RHO_MAX:
        raise ValueError(
            "a and K must put the inner radius K^(-1/(2a)) in [1e-150, 1 - 1e-15], "
            f"got {rho!r} at a = {a!r}, K = {K!r}"
        )

    # ConformalFactor(a, K).dpsi(r)^2 r with the same arithmetic, less its
    # checks: every node lies in [rho, 1], and K > 1 keeps 1 + K r^2a > 1
    am1, two_aK, e_num, e_den = a - 1.0, 2.0 * a * K, 2.0 * a - 1.0, 2.0 * a

    def integrand(r: float) -> float:
        d = am1 / r - two_aK * r ** e_num / (1.0 + K * r ** e_den)
        return d * d * r

    # three log-spaced panels: the integrand is ~ (a-1)^2 / r at the inner edge
    seeds = (rho, rho ** (2.0 / 3.0), rho ** (1.0 / 3.0), 1.0)
    raw, _ = adaptive_quadrature(integrand, seeds)

    curvature = math.fsum(
        (
            -(math.log(2.0 * a) - math.log1p(K)) / 3.0,
            (math.log(2.0 * a) - (a - 1.0) / (2.0 * a) * math.log(K) - math.log(2.0)) / 3.0,
        )
    )
    normal = math.fsum((-0.5, 0.5 + 0.5 * a - a / (K + 1.0)))
    return PAIntegralBreakdown(-raw / 6.0, curvature, normal)


def pa_disk_numeric(eta: float) -> PAIntegralBreakdown:
    """Anomaly functional for the smooth curvature -1 cap of geodesic
    radius eta, realized on the flat disk of radius tanh(eta/2).  The total
    equals logdet_poincare_cap(eta) - logdet_flat_disk(tanh(eta/2)) up to
    quadrature error.  Needs eta <= 7.5, where the quadrature still meets
    its absolute tolerance."""
    eta = _real("eta", eta, _TINY, _DISK_ETA_MAX)

    T = math.tanh(0.5 * eta)

    def integrand(r: float) -> float:
        u = 1.0 - r * r
        return 4.0 * r ** 3 / (u * u)

    # three panels whose distances 1 - r to the pole at r = 1 fall
    # geometrically from 1 to 1 - T; log(1 - T) = -log1p((e^eta - 1)/2)
    log_gap = -math.log1p(0.5 * math.expm1(eta))
    seeds = (0.0, -math.expm1(log_gap / 3.0), -math.expm1(2.0 * log_gap / 3.0), T)
    raw, _ = adaptive_quadrature(integrand, seeds)

    # 1 - T^2 = 2/(1 + cosh eta), stable for all eta
    s2 = 2.0 / (1.0 + math.cosh(eta))
    curvature = -(math.log(2.0) - math.log(s2)) / 3.0
    normal = -0.5 * (math.cosh(eta) - 1.0)
    return PAIntegralBreakdown(-raw / 6.0, curvature, normal)
