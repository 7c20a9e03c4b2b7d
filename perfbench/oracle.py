"""High-precision reference values, computed with mpmath and nothing from
conedet.

The Barnes term is the same integral representation the library uses,
integrated by ``mp.quad`` (tanh-sinh) at 30 digits, plus mpmath's Hurwitz
zeta, its s-derivative and log-gamma.  The determinant formulas are the
paper's closed forms evaluated at 30 digits.  To recompute one value by
hand, for example::

    python3 -c "import sys; sys.path.insert(0, 'perfbench'); import oracle; print(oracle.barnes(30.0))"
"""

from __future__ import annotations

import functools

import mpmath as mp

mp.mp.dps = 30

LOG_2PI = mp.log(2 * mp.pi)
ZETA_PRIME_M1 = mp.zeta(-1, 1, 1)  # zeta_R'(-1)


def _log_tanh_half(eta):
    return mp.log(mp.tanh(mp.mpf(eta) / 2))


@functools.lru_cache(maxsize=None)
def barnes(a: float):
    """zeta_B'(0) of sum_{m,n>=0} (a m + n + 1)^(-s)."""
    a = mp.mpf(a)
    p = 1 / a  # x / a
    s = 1 / a  # b / a
    f = lambda y: -2 * mp.im(mp.loggamma(p + 1j * s * y)) / mp.expm1(2 * mp.pi * y)
    integral = mp.quad(f, [0, 0.5, 1, 2, 4, 8, mp.inf])
    zm1 = mp.zeta(-1, p)
    return (
        (-mp.zeta(0, p) / 2 + a * zm1 - s / 12) * mp.log(a)
        + mp.loggamma(p) / 2
        - LOG_2PI / 4
        - a * zm1
        - a * mp.zeta(-1, p, 1)
        + integral
    )


def hyperbolic(a: float, eta: float):
    """-zeta'(0) on the curvature -1 cone of angle 2 pi a and radius eta."""
    a, eta = mp.mpf(a), mp.mpf(eta)
    return (
        -(a + 1 / a) / 6 * _log_tanh_half(eta)
        + (3 - 8 * mp.cosh(eta)) / 12 * a
        - 2 * barnes(float(a))
        - (a + 3 + 1 / a) / 6 * mp.log(a)
        - LOG_2PI / 2
    )


def spindle(a: float, K: float):
    """zeta'(0) of the modified Laplacian on the spindle."""
    a, K = mp.mpf(a), mp.mpf(K)
    return 4 * barnes(float(a)) - a / 2 + (a + 1 / a) / 3 * (mp.log(a) - mp.log(K) / 2) + mp.log(K)


def sphericalcone(a: float, K: float):
    a, K = mp.mpf(a), mp.mpf(K)
    return (
        2 * barnes(float(a)) - a / 4 + (a + 3 + 1 / a) / 6 * mp.log(a)
        - (a + 1 / a) / 12 * mp.log(K) + LOG_2PI / 2
    )


def diskcone(a: float, K: float):
    a, K = mp.mpf(a), mp.mpf(K)
    return (
        2 * barnes(float(a)) - 11 * a / 12 + (a + 3 + 1 / a) / 6 * mp.log(a)
        + 4 * a / (3 * (K + 1)) + LOG_2PI / 2
    )


@functools.lru_cache(maxsize=None)
def _gamma_sum(w: int):
    return mp.fsum(j * mp.loggamma(mp.mpf(j) / w) for j in range(1, w))


def orbifold(w: int, eta: float):
    """-zeta'(0) on the angle 2 pi / w cone, from log-gamma values."""
    ww, eta = mp.mpf(w), mp.mpf(eta)
    return (
        -(ww + 1 / ww) / 6 * _log_tanh_half(eta)
        + (3 - 8 * mp.cosh(eta)) / (12 * ww)
        - 2 * ZETA_PRIME_M1 / ww
        + 2 * _gamma_sum(w) / ww
        - ww / 2 * LOG_2PI
        + (ww + 3 + 2 / ww) / 6 * mp.log(ww)
    )


def small_eta(w: int, eta: float):
    """Small-radius expansion of orbifold(w, eta) through the constant term:
    log tanh(eta/2) -> log eta - log 2 and cosh eta -> 1."""
    ww, eta = mp.mpf(w), mp.mpf(eta)
    return (
        -(ww + 1 / ww) / 6 * (mp.log(eta) - mp.log(2))
        - 5 / (12 * ww)
        - 2 * ZETA_PRIME_M1 / ww
        + 2 * _gamma_sum(w) / ww
        - ww / 2 * LOG_2PI
        + (ww + 3 + 2 / ww) / 6 * mp.log(ww)
    )


def fp(w: int, eta: float):
    """The previously published small-radius expansion."""
    ww, eta = mp.mpf(w), mp.mpf(eta)
    return (
        -(ww / 6 + 1 / (6 * ww)) * mp.log(eta)
        - ww * (-2 * ZETA_PRIME_M1 + mp.mpf(1) / 6 - mp.log(2) / 6)
        - (mp.mpf(5) / 12 - mp.log(2) / 6 + mp.euler / 6) / ww
        + mp.log(ww) / 2
        + ww * mp.log(ww) / 6
        + mp.log(ww) / (6 * ww)
        + mp.mpf(1) / 4
    )


def poincarecap(eta: float):
    eta = mp.mpf(eta)
    return (
        -_log_tanh_half(eta) / 3 - 2 * ZETA_PRIME_M1 + mp.mpf(11) / 12
        - mp.mpf(4) / 3 * (1 + mp.cosh(eta)) / 2 - LOG_2PI / 2
    )


def flatdisk(r: float):
    r = mp.mpf(r)
    return -mp.log(r) / 3 + mp.log(2) / 3 - 2 * ZETA_PRIME_M1 - mp.mpf(5) / 12 - LOG_2PI / 2


KINDS = {
    "hyperbolic": hyperbolic,
    "spindle": spindle,
    "sphericalcone": sphericalcone,
    "diskcone": diskcone,
    "orbifold": orbifold,
    "small_eta": small_eta,
    "fp": fp,
    "poincarecap": poincarecap,
    "flatdisk": flatdisk,
}
