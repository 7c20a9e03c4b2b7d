"""Zeta-regularized log-determinants of Dirichlet Laplacians on
constant-curvature cones and disks.

Conventions.  The determinant of an operator D is regularized as
det D = exp(-zeta'(0, D)), so every logdet_* function returns -zeta'(0)
for its operator.  Functions named zeta_prime0_* / zeta0_* return the
spectral zeta invariants themselves.  Geometries:

* hyperbolic cone: total angle 2*pi*a, curvature -1, geodesic radius eta
  (equivalently a disk of radius tanh(eta/2) with the cone metric of
  curvature K = -tanh(eta/2)^2 pulled flat),
* orbifold cone: angle 2*pi/w for integer w, same disk,
* spindle: closed surface of constant curvature K with two conical points
  of angle 2*pi*a (zero mode removed, so the modified determinant),
* spherical cone / unit-disk cone: Dirichlet disks of curvature K > 0 and
  K > -1 around a single conical point,
* flat disk and the curvature -1 cap are the smooth a = 1 special cases.

verify_identities cross-checks every closed form against every other
route to the same number and reports the residuals.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .special_functions import (
    _ETA_MAX,
    _TINY,
    LOG_2PI,
    BarnesArgs,
    EvalResult,
    _checked_w,
    _fsum_result,
    _orbifold_gamma_sum,
    _real,
    _Record,
    _set,
    barnes_zeta_prime0,
    barnes_zeta_prime0_orbifold,
    riemann_zeta_prime_minus1,
)

__all__ = [
    "ConeGeometry",
    "CurvedDiskGeometry",
    "IdentityReport",
    "curvature_from_radius",
    "logdet_hyperbolic_cone",
    "logdet_orbifold_cone",
    "small_eta_asymptotics",
    "fp_asymptotics_reference",
    "zeta_prime0_spindle",
    "zeta0_spindle",
    "zeta_prime0_spherical_cone",
    "zeta_prime0_unit_disk_cone",
    "zeta0_unit_disk_cone",
    "logdet_flat_disk",
    "logdet_poincare_cap",
    "rescale_logdet",
    "annulus_ratio_closed_form",
    "verify_identities",
]


class ConeGeometry(_Record):
    """Cone of total angle 2*pi*a and geodesic radius eta on the curvature
    -1 model."""

    __slots__ = __match_args__ = ("a", "eta")
    a: float
    eta: float

    def __init__(self, a: float, eta: float) -> None:
        _set(self, "a", _real("a", a, _TINY))
        _set(self, "eta", _real("eta", eta, _TINY, _ETA_MAX))


class CurvedDiskGeometry(_Record):
    """Unit disk carrying the constant-curvature cone metric with angle
    2*pi*a and curvature K > -1."""

    __slots__ = __match_args__ = ("a", "K")
    a: float
    K: float

    def __init__(self, a: float, K: float) -> None:
        _set(self, "a", _real("a", a, _TINY))
        _set(self, "K", _real("K", K, -1.0, open_lo=True))


class IdentityReport(_Record):
    """The two sides of one identity at its worst grid point."""

    __slots__ = __match_args__ = ("identity_name", "lhs", "rhs", "tolerance")
    identity_name: str
    lhs: float
    rhs: float
    tolerance: float

    def __init__(self, identity_name: str, lhs: float, rhs: float, tolerance: float) -> None:
        if not identity_name:
            raise ValueError("identity_name must be nonempty")
        _set(self, "identity_name", identity_name)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "tolerance", tolerance)

    @property
    def abs_diff(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.abs_diff <= self.tolerance


def _log_tanh_half(eta: float) -> float:
    # log tanh(eta/2) = log(1 - e^-eta) - log(1 + e^-eta), without
    # cancellation at either end
    return math.log(-math.expm1(-eta)) - math.log1p(math.exp(-eta))


def _inv_sech_sq_half(eta: float) -> float:
    # (1 - tanh(eta/2)^2)^(-1) = (1 + cosh eta)/2
    return 0.5 * (1.0 + math.cosh(eta))


@lru_cache(maxsize=512)
def _barnes_a11(a: float) -> EvalResult:
    try:
        return barnes_zeta_prime0(BarnesArgs(a, 1.0, 1.0))
    except ValueError:
        # the sum left the float range; its error names b = x = 1, which no
        # caller takes, so hand back an infinite error bar instead and let
        # the caller's _fsum_result name the caller's own parameters
        return EvalResult(math.nan, math.inf, "barnes-integral")


def curvature_from_radius(eta: float) -> float:
    """Curvature K = -tanh(eta/2)^2 of the flattened unit-disk metric that
    matches a curvature -1 cone of geodesic radius eta."""
    eta = _real("eta", eta, _TINY)
    t = math.tanh(0.5 * eta)
    return -(t * t)


def logdet_hyperbolic_cone(g: ConeGeometry) -> EvalResult:
    """-zeta'(0) of the Dirichlet Laplacian on the curvature -1 cone of
    angle 2*pi*a and radius eta."""
    if not isinstance(g, ConeGeometry):
        raise ValueError("g must be a ConeGeometry")
    a, eta = g.a, g.eta
    bz = _barnes_a11(a)
    inv_a = 1.0 / a
    terms = (
        -(a + inv_a) / 6.0 * _log_tanh_half(eta),
        (3.0 - 8.0 * math.cosh(eta)) / 12.0 * a,
        -2.0 * bz.value,
        -(a + 3.0 + inv_a) / 6.0 * math.log(a),
        -0.5 * LOG_2PI,
    )
    return _fsum_result(terms, "hyperbolic-cone", 2.0 * bz.abs_err, a=a, eta=eta)


def logdet_orbifold_cone(w: int, eta: float) -> EvalResult:
    """-zeta'(0) for the angle 2*pi/w cone, from the finite log-gamma
    closed form; no quadrature involved."""
    w = _checked_w(w)
    eta = _real("eta", eta, _TINY, _ETA_MAX)
    ww = float(w)
    terms = (
        -(ww + 1.0 / ww) / 6.0 * _log_tanh_half(eta),
        (3.0 - 8.0 * math.cosh(eta)) / (12.0 * ww),
        -2.0 * riemann_zeta_prime_minus1() / ww,
        2.0 * _orbifold_gamma_sum(w) / ww,
        -0.5 * ww * LOG_2PI,
        (ww + 3.0 + 2.0 / ww) / 6.0 * math.log(ww),
    )
    return _fsum_result(terms, "orbifold-cone", w=w, eta=eta)


def small_eta_asymptotics(w: int, eta: float) -> float:
    """Small-radius expansion of logdet_orbifold_cone, exact through the
    constant term; the remainder is O(eta^2)."""
    w = _checked_w(w)
    eta = _real("eta", eta, _TINY)
    ww = float(w)
    return math.fsum(
        (
            -(ww / 6.0 + 1.0 / (6.0 * ww)) * math.log(eta),
            -ww * (math.log(2.0) / 3.0 + 0.5 * (LOG_2PI - math.log(2.0))),
            -(
                2.0 * riemann_zeta_prime_minus1()
                - 2.0 * _orbifold_gamma_sum(w)
                + 5.0 / 12.0
                - math.log(2.0) / 6.0
            )
            / ww,
            0.5 * math.log(ww),
            ww * math.log(ww) / 6.0,
            math.log(ww) / (3.0 * ww),
        )
    )


def fp_asymptotics_reference(w: int, eta: float) -> float:
    """A previously published small-radius expansion, kept for comparison;
    it differs from small_eta_asymptotics by an eta-independent, nonzero
    amount for every w."""
    w = _checked_w(w)
    eta = _real("eta", eta, _TINY)
    ww = float(w)
    return math.fsum(
        (
            -(ww / 6.0 + 1.0 / (6.0 * ww)) * math.log(eta),
            -ww * (-2.0 * riemann_zeta_prime_minus1() + 1.0 / 6.0 - math.log(2.0) / 6.0),
            -(5.0 / 12.0 - math.log(2.0) / 6.0 + 0.5772156649015328606065121 / 6.0) / ww,
            0.5 * math.log(ww),
            ww * math.log(ww) / 6.0,
            math.log(ww) / (6.0 * ww),
            0.25,
        )
    )


def zeta_prime0_spindle(a: float, K: float) -> EvalResult:
    """zeta'(0) of the modified (zero mode removed) Laplacian on the
    curvature K > 0 spindle with two angle 2*pi*a points."""
    a = _real("a", a, _TINY)
    K = _real("K", K, _TINY)
    bz = _barnes_a11(a)
    inv_a = 1.0 / a
    terms = (
        4.0 * bz.value,
        -0.5 * a,
        (a + inv_a) / 3.0 * (math.log(a) - 0.5 * math.log(K)),
        math.log(K),
    )
    return _fsum_result(terms, "spindle-zeta-prime0", 4.0 * bz.abs_err, a=a, K=K)


def zeta0_spindle(a: float) -> float:
    """zeta(0) of the modified spindle Laplacian (curvature independent)."""
    a = _real("a", a, _TINY)
    return (a + 1.0 / a) / 6.0 - 1.0


def zeta_prime0_spherical_cone(a: float, K: float) -> EvalResult:
    """zeta'(0) of the Dirichlet Laplacian on the curvature K > 0 cone of
    angle 2*pi*a cut at the equator of the K-sphere."""
    a = _real("a", a, _TINY)
    K = _real("K", K, _TINY)
    bz = _barnes_a11(a)
    inv_a = 1.0 / a
    terms = (
        2.0 * bz.value,
        -0.25 * a,
        (a + 3.0 + inv_a) / 6.0 * math.log(a),
        -(a + inv_a) / 12.0 * math.log(K),
        0.5 * LOG_2PI,
    )
    return _fsum_result(terms, "spherical-cone-zeta-prime0", 2.0 * bz.abs_err, a=a, K=K)


def zeta_prime0_unit_disk_cone(g: CurvedDiskGeometry) -> EvalResult:
    """zeta'(0) of the Dirichlet Laplacian on the unit disk carrying the
    angle 2*pi*a cone metric of curvature K > -1; analytic in K."""
    if not isinstance(g, CurvedDiskGeometry):
        raise ValueError("g must be a CurvedDiskGeometry")
    a, K = g.a, g.K
    bz = _barnes_a11(a)
    inv_a = 1.0 / a
    terms = (
        2.0 * bz.value,
        -11.0 / 12.0 * a,
        (a + 3.0 + inv_a) / 6.0 * math.log(a),
        4.0 / 3.0 * a / (K + 1.0),
        0.5 * LOG_2PI,
    )
    return _fsum_result(terms, "disk-cone-zeta-prime0", 2.0 * bz.abs_err, a=a, K=K)


def zeta0_unit_disk_cone(a: float) -> float:
    """zeta(0) of the unit-disk cone Laplacian (curvature independent)."""
    a = _real("a", a, _TINY)
    return (a + 1.0 / a) / 12.0


def logdet_flat_disk(r: float) -> float:
    """-zeta'(0) of the Dirichlet Laplacian on the flat disk of radius r."""
    r = _real("r", r, _TINY)
    return math.fsum(
        (
            -math.log(r) / 3.0,
            math.log(2.0) / 3.0,
            -2.0 * riemann_zeta_prime_minus1(),
            -5.0 / 12.0,
            -0.5 * LOG_2PI,
        )
    )


def logdet_poincare_cap(eta: float) -> float:
    """-zeta'(0) of the Dirichlet Laplacian on the smooth curvature -1 disk
    of geodesic radius eta (the a = 1 cone)."""
    eta = _real("eta", eta, _TINY, _ETA_MAX)
    return math.fsum(
        (
            -_log_tanh_half(eta) / 3.0,
            -2.0 * riemann_zeta_prime_minus1(),
            11.0 / 12.0,
            -4.0 / 3.0 * _inv_sech_sq_half(eta),
            -0.5 * LOG_2PI,
        )
    )


def rescale_logdet(logdet: float, zeta0: float, C: float) -> float:
    """Log-determinant after rescaling the operator by 1/C:
    logdet(C^{-1} D) = logdet(D) - zeta(0, D) log C."""
    C = _real("C", C, _TINY)
    logdet, zeta0 = _real("logdet", logdet), _real("zeta0", zeta0)
    result = logdet - zeta0 * math.log(C)
    if not math.isfinite(result):
        raise ValueError(
            "logdet, zeta0 and C put logdet - zeta0 log C beyond the float range, "
            f"got logdet = {logdet!r}, zeta0 = {zeta0!r}, C = {C!r}"
        )
    return result


def annulus_ratio_closed_form(a: float, K: float) -> float:
    """Log of the determinant ratio between the cone-metric annulus
    K^(-1/2a) <= |z| <= 1 and the flat annulus, for K > 1 (the inner circle
    must stay inside the unit disk)."""
    a = _real("a", a, _TINY)
    K = _real("K", K, 1.0, open_lo=True)
    return 2.0 * a / 3.0 - 4.0 / 3.0 * a / (K + 1.0) - (a - 1.0 / a) / 12.0 * math.log(K)


# Identities whose meaningful scale is fixed by the mathematics rather than
# by roundoff keep their own tolerance regardless of the global request.
_IDENTITY_OVERRIDES = {
    "asymptotics-ratio": 0.05,
    "asymptotics-residual": 1e-4,
    "curvature-continuity": 1e-7,
    "pa-annulus-dual-oracle": 1e-7,
    "pa-disk-consistency": 1e-7,
}


def verify_identities(tol: float = 1e-8) -> list[IdentityReport]:
    """Evaluate every cross-formula identity and return one report per
    identity, sorted by name.  Grid-based identities report their worst
    point.  Failures are reported, never raised."""
    tol = _real("tol", tol, 0.0, open_lo=True)

    from . import pa_oracle

    worst: dict[str, tuple[float, float]] = {}

    def record(name: str, lhs: float, rhs: float) -> None:
        if name not in worst or abs(lhs - rhs) > abs(worst[name][0] - worst[name][1]):
            worst[name] = (lhs, rhs)

    a_grid = (0.2, 0.5, 1.0, 2.0, 5.0)
    eta_grid = (0.1, 0.5, 1.0, 2.0, 5.0)

    for a in a_grid:
        for eta in eta_grid:
            lhs = logdet_hyperbolic_cone(ConeGeometry(a, eta)).value
            K = curvature_from_radius(eta)
            rhs = (
                -zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, K)).value
                - zeta0_unit_disk_cone(a) * (2.0 * _log_tanh_half(eta))
            )
            record("disk-cone-reconstruction", lhs, rhs)

    for w in range(1, 13):
        for eta in (0.1, 1.0, 3.0):
            lhs = logdet_hyperbolic_cone(ConeGeometry(1.0 / w, eta)).value
            record("orbifold-equality", lhs, logdet_orbifold_cone(w, eta).value)
        # the quadrature route, already cached by the loop above
        record("barnes-bridge", _barnes_a11(1.0 / w).value, barnes_zeta_prime0_orbifold(w))

    for eta in (0.2, 0.5, 1.0, 2.0, 4.0):
        lhs = logdet_hyperbolic_cone(ConeGeometry(1.0, eta)).value
        record("a1-poincare-cap", lhs, logdet_poincare_cap(eta))
        ch = math.cosh(eta)
        record(
            "a1-arithmetic-check",
            (3.0 - 8.0 * ch) / 12.0,
            11.0 / 12.0 - 2.0 / 3.0 * (1.0 + ch),
        )

    for a in (0.5, 1.0, 2.0):
        for K in (0.5, 1.0, 2.0):
            lhs = -zeta_prime0_spindle(a, K).value
            rhs = (
                math.log(4.0 * math.pi * a / K)
                - 2.0 * zeta_prime0_spherical_cone(a, K).value
                - math.log(2.0)
            )
            record("bfk-gluing", lhs, rhs)

    record(
        "flat-limit",
        zeta_prime0_unit_disk_cone(CurvedDiskGeometry(1.0, 0.0)).value,
        -logdet_flat_disk(2.0),
    )

    for a in (0.5, 1.0, 2.0):
        for K in (2.0, 5.0, 10.0):
            rho = K ** (-1.0 / (2.0 * a))
            glued = (
                logdet_flat_disk(1.0)
                - logdet_flat_disk(rho)
                - zeta_prime0_spherical_cone(a, K).value
                + annulus_ratio_closed_form(a, K)
            )
            record(
                "annulus-composition",
                -zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, K)).value,
                glued,
            )

    for a in (0.5, 1.0, 2.0):
        record(
            "curvature-continuity",
            zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, 1e-8)).value,
            zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, -1e-8)).value,
        )

    for a in (0.5, 1.0, 2.0, 5.0):
        for K in (0.5, 2.0):
            record(
                "spindle-rescale",
                zeta_prime0_spindle(a, K).value,
                rescale_logdet(zeta_prime0_spindle(a, 1.0).value, zeta0_spindle(a), K),
            )

    for a in (0.5, 0.25, 0.125):
        record("symmetry-zeta0", zeta0_spindle(a), zeta0_spindle(1.0 / a))
        record("symmetry-zeta0", zeta0_unit_disk_cone(a), zeta0_unit_disk_cone(1.0 / a))

    min_disc = math.inf
    for w in range(1, 6):
        res1 = logdet_orbifold_cone(w, 1e-3).value - small_eta_asymptotics(w, 1e-3)
        res2 = logdet_orbifold_cone(w, 2e-3).value - small_eta_asymptotics(w, 2e-3)
        record("asymptotics-residual", res1, 0.0)
        record("asymptotics-ratio", res1 / res2, 0.25)
        d_small = fp_asymptotics_reference(w, 1e-3) - small_eta_asymptotics(w, 1e-3)
        d_large = fp_asymptotics_reference(w, 0.5) - small_eta_asymptotics(w, 0.5)
        record("fp-discrepancy-constant", d_small, d_large)
        min_disc = min(min_disc, abs(d_small))
    record("fp-discrepancy-nonzero", min(min_disc, 1e-3), 1e-3)

    for a in (0.5, 1.0, 2.0):
        for K in (2.0, 5.0, 10.0):
            breakdown = pa_oracle.pa_annulus_numeric(a, K)
            record("pa-annulus-dual-oracle", breakdown.total, annulus_ratio_closed_form(a, K))
            record(
                "grad-quadrature-agreement",
                breakdown.area_term,
                pa_oracle._area_term_closed_form(a, K),
            )

    for eta in (0.5, 1.0, 3.0):
        breakdown = pa_oracle.pa_disk_numeric(eta)
        record(
            "pa-disk-consistency",
            breakdown.total,
            logdet_poincare_cap(eta) - logdet_flat_disk(math.tanh(0.5 * eta)),
        )

    reports = []
    for name in sorted(worst):
        lhs, rhs = worst[name]
        reports.append(IdentityReport(name, lhs, rhs, _IDENTITY_OVERRIDES.get(name, tol)))
    return reports
