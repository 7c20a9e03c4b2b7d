"""Adaptive Gauss-Kronrod quadrature on a finite interval.

A 12-point Gauss rule embedded in a 25-point Kronrod rule gives a value
and a per-interval error estimate; the interval with the worst estimate
is bisected until the summed estimate drops below the absolute tolerance.

This module owns the one budget of every quadrature in the package:
absolute tolerance _ABS_TOL = 1e-12 and at most _MAX_SUBDIVISIONS = 400
bisections.  No caller can change it.  At this budget the Barnes integral
of the cone determinants fails at a growing share of angles below about
a = 1e-8 and at every angle below 1e-17 on a scan in 0.1-decade steps
(README, Accuracy).  Everything is plain float arithmetic, so a given
integrand and breakpoints always produce bitwise identical results.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Sequence

__all__ = ["QuadratureError", "adaptive_quadrature"]


class QuadratureError(RuntimeError):
    """Raised when the subdivision limit is hit before the tolerance."""


_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 400


# Kronrod-25 abscissae on [-1, 1] (positive half, center last) and weights;
# the odd entries are the embedded Gauss-12 nodes, which carry the _WG
# weights in the same order.  Computed with Laurie's algorithm (Math. Comp.
# 66, 1997) at 40 digits; tests/test_quadrature.py recomputes them.
_XGK = (
    0.996933922529595426912350237258385,
    0.981560634246719250690549090149281,
    0.950537795943121296549060195131619,
    0.904117256370474856678465866119096,
    0.843558124161153244792141885059839,
    0.769902674194304687036893833212818,
    0.684059895470055893944929100341154,
    0.587317954286617447296702418940534,
    0.481339450478157092935943615018832,
    0.367831498998180193752691536643718,
    0.248505748320469276267790960362718,
    0.125233408511468915472441369463853,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.008257711433168395757693922439212,
    0.023036084038982232591084580367969,
    0.038915230469299477115089632285863,
    0.053697017607756251228889163320458,
    0.067250907050839930304940940047316,
    0.079920275333601701493392609529783,
    0.091549468295049210528171939739614,
    0.101649732279060277715688770491228,
    0.110022604977644072635907398742250,
    0.116712053501756826293580745305730,
    0.121626303523948383246099758091310,
    0.124584164536156073437312473209229,
    0.125556893905474335304296132860078,
)
_WG = (
    0.047175336386511827194615961485017,
    0.106939325995318430960254718193996,
    0.160078328543346226334652529543359,
    0.203167426723065921749064455809798,
    0.233492536538354808760849898924878,
    0.249147045813402785000562436042951,
)


def _gk25(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    kron = _WGK[12] * f(c)
    gauss = 0.0
    for i in range(12):
        dx = h * _XGK[i]
        pair = f(c - dx) + f(c + dx)
        kron += _WGK[i] * pair
        if i % 2 == 1:
            gauss += _WG[i // 2] * pair
    kron *= h
    gauss *= h
    return kron, abs(kron - gauss)


def adaptive_quadrature(f: Callable[[float], float], points: Sequence[float]) -> tuple[float, float]:
    """Integrate f over [points[0], points[-1]] seeded at the given breakpoints.

    Returns (value, error_estimate).  Raises QuadratureError if the
    estimate cannot be brought below _ABS_TOL within _MAX_SUBDIVISIONS
    bisections, or if the integrand produces non-finite values.
    """
    if len(points) < 2:
        raise ValueError("need at least two breakpoints")
    pts = list(points)
    for lo, hi in zip(pts, pts[1:]):
        if not hi > lo:
            raise ValueError("breakpoints must be strictly increasing")

    heap: list[tuple[float, float, float, float]] = []
    total_err = 0.0
    for lo, hi in zip(pts, pts[1:]):
        val, err = _gk25(f, lo, hi)
        heapq.heappush(heap, (-err, lo, hi, val))
        total_err += err

    splits = 0
    while total_err > _ABS_TOL:
        if not math.isfinite(total_err):
            raise QuadratureError("integrand produced a non-finite value")
        if splits >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"error estimate {total_err:.3e} above abs_tol {_ABS_TOL:.3e} "
                f"after {splits} subdivisions"
            )
        neg_err, lo, hi, _val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            raise QuadratureError("interval too narrow to bisect further")
        v1, e1 = _gk25(f, lo, mid)
        v2, e2 = _gk25(f, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total_err += e1 + e2 + neg_err
        splits += 1

    segments = sorted(heap, key=lambda t: t[1])
    value = math.fsum(seg[3] for seg in segments)
    err = math.fsum(-seg[0] for seg in segments)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureError("integrand produced a non-finite value")
    return value, err
