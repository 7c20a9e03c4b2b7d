"""Gamma / zeta special functions used by the cone determinant formulas.

Everything here is self-contained double-precision scalar code:

* log-gamma (real, and the imaginary part along vertical lines) from the
  Stirling series after shifting the argument to Re z >= 10,
* digamma the same way,
* Hurwitz zeta and its s-derivative from Euler-Maclaurin summation with
  analytically differentiated terms, for -5 <= s <= 400; the value at an
  integer s <= 0 is the terminating Bernoulli polynomial, and the
  derivative at s = -1, x <= 3 a Taylor series in x,
* the derivative at 0 of the two-variable Barnes zeta
  sum_{m,n>=0} (a m + b n + x)^(-s), evaluated through an integral
  representation whose integrand decays like exp(-2 pi y).

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .quadrature import adaptive_quadrature

__all__ = [
    "EULER_GAMMA",
    "LOG_2PI",
    "BarnesArgs",
    "EvalResult",
    "log_gamma",
    "im_log_gamma",
    "digamma",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "riemann_zeta_prime_minus1",
    "barnes_zeta_prime0",
    "barnes_zeta_prime0_orbifold",
]

EULER_GAMMA = 0.5772156649015328606065121
LOG_2PI = math.log(2.0 * math.pi)

# zeta_R'(-1) = 1/12 - log(Glaisher constant)
_ZETA_PRIME_MINUS_ONE = -0.1654211437004509292139197

# Stirling series coefficients B_{2j} / (2j (2j-1)) for log Gamma.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)

# B_{2j} / (2j) for the digamma asymptotic series.
_DIGAMMA = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

# B_{2j} / (2j)! for Euler-Maclaurin correction terms.
_EM_COEFF = (
    0.08333333333333333,
    -0.001388888888888889,
    3.306878306878307e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.3896802963225827e-13,
    8.586062056277845e-15,
    -2.174868698558062e-16,
    5.5090028283602295e-18,
    -1.3954464685812522e-19,
    3.534707039629467e-21,
    -8.953517427037546e-23,
    2.267952452337683e-24,
    -5.744790668872202e-26,
    1.455172475614865e-27,
    -3.6859949406653103e-29,
    9.336734257095045e-31,
    -2.36502241570063e-32,
)

# zeta(k) - 1 for k = 2, 3, ..., 45, the coefficients of the Taylor series
# of zeta'(-1, x) about x = 2; the first omitted term is below 2e-17 for
# |x - 2| <= 1.
_ZETA_MINUS_ONE = (
    0.6449340668482264,
    0.2020569031595943,
    0.08232323371113819,
    0.03692775514336993,
    0.01734306198444914,
    0.008349277381922827,
    0.00407735619794434,
    0.0020083928260822143,
    0.0009945751278180853,
    0.0004941886041194645,
    0.0002460865533080483,
    0.00012271334757848915,
    6.124813505870483e-05,
    3.058823630702049e-05,
    1.528225940865187e-05,
    7.637197637899763e-06,
    3.81729326499984e-06,
    1.908212716553939e-06,
    9.539620338727962e-07,
    4.769329867878064e-07,
    2.38450502727733e-07,
    1.1921992596531106e-07,
    5.960818905125948e-08,
    2.980350351465228e-08,
    1.4901554828365043e-08,
    7.45071178983543e-09,
    3.725334024788457e-09,
    1.862659723513049e-09,
    9.313274324196682e-10,
    4.656629065033784e-10,
    2.3283118336765053e-10,
    1.164155017270052e-10,
    5.820772087902701e-11,
    2.9103850444971e-11,
    1.4551921891041985e-11,
    7.275959835057482e-12,
    3.637979547378651e-12,
    1.818989650307066e-12,
    9.094947840263888e-13,
    4.547473783042154e-13,
    2.2737368458246524e-13,
    1.136868407680228e-13,
    5.684341987627585e-14,
    2.842170976889302e-14,
)

# Lowest s the Hurwitz pair accepts.  At s < 0 the Euler-Maclaurin head
# sum cancels against the tail: against mpmath over x in [1e-3, 1e3], value
# and s-derivative are good to 2e-10 (1 + |result|) at s = -5, and each unit
# of s lower costs about a factor 10 (1e-6 at s = -8, no digits at s = -12).
_S_MIN = -5.0

# Highest s the Hurwitz pair accepts.  The Euler-Maclaurin head sums about
# s + 8 terms, so the cost grows linearly in s: over x in [1e-3, 1e3] a call
# at s = 400 took at most 0.17 ms, and one at s = 1e5 took 47 ms (Python
# 3.11 on one core of a Xeon server).  Against mpmath, value and derivative
# hold 8e-16 (1 + |result|) up to s = 1000 wherever they fit a double.
_S_MAX = 400.0

# The Stirling tail reaches double precision once Re z is past this line.
_STIRLING_EDGE = 10.0

# Smallest value accepted for a parameter that must be positive.
_TINY = 1e-300

# cosh overflows just above 710; keep radii where every formula stays finite
_ETA_MAX = 700.0

# The one budget of every quadrature: absolute tolerance and bisections.
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 400

# Upper end of the Barnes integration range; keeps expm1(2 pi y) finite.
_Y_MAX = 60.0


def _real(
    name: str, value: float, lo: float = -math.inf, hi: float = math.inf, open_lo: bool = False
) -> float:
    """value as a float if it is a finite real number (not a bool) with
    lo <= value <= hi (lo < value when open_lo); otherwise a ValueError
    that names the parameter and the range."""
    if value.__class__ is not float:  # plain floats, the hot case, skip the type checks
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{name} must be finite, got an integer beyond the float range") from None
    if not (math.isfinite(value) and (value > lo if open_lo else value >= lo) and value <= hi):
        left = "(" if open_lo or lo == -math.inf else "["
        right = "]" if hi < math.inf else ")"
        raise ValueError(f"{name} must be finite and in {left}{lo:g}, {hi:g}{right}, got {value!r}")
    return value


def _checked_w(w: int) -> int:
    if not isinstance(w, int) or isinstance(w, bool):
        raise ValueError(f"w must be an integer, got {w!r}")
    if not 1 <= w <= 200:
        raise ValueError(f"w must be in [1, 200], got {w}")
    return w


@dataclass(frozen=True)
class BarnesArgs:
    """Parameters (a, b, x) of the double zeta sum_{m,n>=0}(am+bn+x)^(-s)."""

    a: float
    b: float
    x: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "x"):
            object.__setattr__(self, name, _real(name, getattr(self, name), _TINY))


@dataclass(frozen=True)
class EvalResult:
    """A value together with an absolute error estimate and a tag naming
    the formula that produced it."""

    value: float
    abs_err: float
    formula_tag: str

    def __post_init__(self) -> None:
        if not (isinstance(self.abs_err, float) and self.abs_err >= 0.0):
            raise ValueError(f"abs_err must be a nonnegative float, got {self.abs_err!r}")
        if not self.formula_tag:
            raise ValueError("formula_tag must be a nonempty string")


def _fsum_result(terms: tuple[float, ...], tag: str, err: float = 0.0, **params: float) -> EvalResult:
    """The exactly rounded sum of terms, its error bar being err plus the
    rounding floor 2e-14 * (1 + sum of |term|).  Raises a ValueError that
    names params, the inputs the terms came from, when either is not finite."""
    try:
        value = math.fsum(terms)
        abs_err = err + 2e-14 * (1.0 + math.fsum(abs(t) for t in terms))
    except (OverflowError, ValueError):  # fsum overflowed or met inf - inf
        value = abs_err = math.nan
    if math.isfinite(value) and math.isfinite(abs_err):
        return EvalResult(value, abs_err, tag)
    *init, last = params
    names = f"{', '.join(init)} and {last}" if init else last
    got = ", ".join(f"{k} = {v!r}" for k, v in params.items())
    raise ValueError(f"{names} put the {tag} result beyond the float range, got {got}")


def _stirling_real(x: float) -> float:
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    p = inv
    for c in _STIRLING:
        series += c * p
        p *= inv2
    return (x - 0.5) * math.log(x) - x + 0.5 * LOG_2PI + series


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    x = _real("x", x, 0.0, open_lo=True)
    shift = 0.0
    while x < _STIRLING_EDGE:
        shift += math.log(x)
        x += 1.0
    return _stirling_real(x) - shift


def im_log_gamma(p: float, q: float) -> float:
    """Imaginary part of the principal log Gamma(p + i q), p > 0.

    Odd in q by construction: the q < 0 branch returns the negated
    reflection, so im_log_gamma(p, -q) == -im_log_gamma(p, q) exactly.
    """
    return _im_log_gamma(_real("p", p, 0.0, open_lo=True), _real("q", q))


def _im_log_gamma(p: float, q: float) -> float:
    # the body of im_log_gamma, for floats the caller has already checked
    if q == 0.0:
        return 0.0
    if q < 0.0:
        return -_im_log_gamma(p, -q)

    acc = 0.0
    while p < _STIRLING_EDGE:
        acc += math.atan2(q, p)
        p += 1.0
    arg = math.atan2(q, p)
    im = (p - 0.5) * arg + q * math.log(math.hypot(p, q)) - q
    z = complex(p, q)
    inv = 1.0 / z
    inv2 = inv * inv
    series = 0j
    w = inv
    for c in _STIRLING:
        series += c * w
        w *= inv2
    return im + series.imag - acc


def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma at x > 0."""
    x = _real("x", x, 0.0, open_lo=True)
    acc = 0.0
    while x < 12.0:
        acc += 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    p = inv2
    for c in _DIGAMMA:
        series += c * p
        p *= inv2
    return math.log(x) - 0.5 * inv - series - acc


def _euler_maclaurin(s: float, x: float, edge: float) -> tuple[float, float, bool]:
    """Hurwitz zeta(s, x) and its s-derivative by Euler-Maclaurin with the
    expansion point pushed to x + N >= edge.  Returns (value, derivative,
    converged)."""
    n_terms = int(max(0.0, math.ceil(edge - x)))
    ssum = 0.0
    dsum = 0.0
    for k in range(n_terms):
        base = x + k
        t = base ** (-s)
        ssum += t
        dsum -= math.log(base) * t

    q = x + n_terms
    lq = math.log(q)
    qs = q ** (-s)
    tail = qs * q / (s - 1.0)
    value = ssum + tail + 0.5 * qs
    deriv = dsum + tail * (-lq - 1.0 / (s - 1.0)) - 0.5 * lq * qs

    # Correction terms C_j * P_j(s) * q^{-s-2j+1} with the rising factorial
    # P_j(s) = s (s+1) ... (s+2j-2) and its derivative carried together.
    poch = s
    dpoch = 1.0
    qpow = qs / q
    inv_q2 = 1.0 / (q * q)
    prev = math.inf
    converged = False
    for j, c in enumerate(_EM_COEFF, start=1):
        if j > 1:
            f1 = s + (2 * j - 3)
            f2 = s + (2 * j - 2)
            dpoch = dpoch * f1 * f2 + poch * (f1 + f2)
            poch = poch * f1 * f2
            qpow *= inv_q2
        term = c * poch * qpow
        dterm = c * qpow * (dpoch - poch * lq)
        size = max(abs(term), abs(dterm))
        if j > 2 and size >= prev:
            break
        value += term
        deriv += dterm
        if size <= 1e-17 * (1.0 + abs(value) + abs(deriv)):
            converged = True
            break
        prev = size
    return value, deriv, converged


def _negative_integer_value(s: float, x: float) -> float:
    """Hurwitz zeta at an integer s <= 0, -B_{1-s}(x)/(1-s).  The Bernoulli
    correction series terminates and the remainder vanishes identically,
    so the expansion point can stay at x itself and no cancellation builds
    up; at s = 0 it is 1/2 - x.  Only nonnegative powers of x appear, so a
    tiny x cannot divide by zero."""
    n = -s
    value = x ** (n + 1.0) / (s - 1.0) + 0.5 * x**n
    poch = s
    for j, c in enumerate(_EM_COEFF, start=1):
        if j > 1:
            poch *= (s + (2 * j - 3)) * (s + (2 * j - 2))
        if poch == 0.0:
            break
        value += c * poch * x ** (n + 1.0 - 2 * j)
    return value


def _zeta_sderiv_minus1_small(x: float) -> float:
    """zeta'(-1, x) for 0 < x <= 3 from its Taylor series about x = 2.

    d/dx zeta'(-1, x) = x - 1/2 + log Gamma(x) - log(2 pi)/2, and
    log Gamma(2 + t) = (1 - gamma) t + sum_{k>=2} (-1)^k (zeta(k) - 1) t^k / k,
    so with zeta'(-1, 2) = zeta_R'(-1)
    zeta'(-1, 2 + t) = zeta_R'(-1) + (3/2 - log(2 pi)/2) t + (2 - gamma) t^2 / 2
                       + sum_{k>=2} (-1)^k (zeta(k) - 1) / (k (k+1)) t^(k+1).
    For x <= 1 the shift zeta'(-1, x) = zeta'(-1, x + 1) - x log x first
    brings x into (1, 2], so |t| <= 1 and the series converges like 2^-k.
    Unlike Euler-Maclaurin at s = -1 it sums no growing terms, so nothing
    cancels."""
    shift = 0.0
    if x <= 1.0:
        shift = x * math.log(x)
        x += 1.0
    t = x - 2.0
    u = -t
    series = 0.0
    for k in range(len(_ZETA_MINUS_ONE) + 1, 1, -1):
        series = series * u + _ZETA_MINUS_ONE[k - 2] / (k * (k + 1))
    # 3/2 - log(2 pi)/2 and (2 - gamma)/2, each rounded once
    poly = t * (0.5810614667953272 + t * (0.7113921675492336 + t * series))
    return _ZETA_PRIME_MINUS_ONE + poly - shift


def _hurwitz_args(s: float, x: float) -> tuple[float, float]:
    s = _real("s", s, _S_MIN, _S_MAX)
    x = _real("x", x, 0.0, open_lo=True)
    if s == 1.0:
        raise ValueError("s = 1 is the pole of the Hurwitz zeta function")
    return s, x


def _beyond_float_range(s: float, x: float) -> ValueError:
    return ValueError(f"s and x put the Hurwitz zeta beyond the float range, got s = {s!r}, x = {x!r}")


def _hurwitz_pair(s: float, x: float) -> tuple[float, float]:
    edge = max(18.0, abs(s) + 8.0) if s >= -1.5 else max(10.0, abs(s) + 5.0)
    value = deriv = 0.0
    for _ in range(4):
        value, deriv, converged = _euler_maclaurin(s, x, edge)
        if converged:
            break
        edge *= 2.0
    return value, deriv


def hurwitz_zeta(s: float, x: float) -> float:
    """Hurwitz zeta(s, x) = sum_{k>=0} (k+x)^(-s), continued in -5 <= s <= 400."""
    s, x = _hurwitz_args(s, x)
    try:
        if s <= 0.0 and s.is_integer():
            value = _negative_integer_value(s, x)
        else:
            value = _hurwitz_pair(s, x)[0]
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    raise _beyond_float_range(s, x)


def hurwitz_zeta_sderiv(s: float, x: float) -> float:
    """d/ds of the Hurwitz zeta at (s, x), -5 <= s <= 400, from the same
    Euler-Maclaurin expansion with every term differentiated analytically
    in s; at s = -1 and x <= 3, from a Taylor series in x instead."""
    s, x = _hurwitz_args(s, x)
    if s == -1.0 and x <= 3.0:
        return _zeta_sderiv_minus1_small(x)
    try:
        value = _hurwitz_pair(s, x)[1]
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    raise _beyond_float_range(s, x)


def riemann_zeta_prime_minus1() -> float:
    """zeta_R'(-1), stored as a high-precision constant."""
    return _ZETA_PRIME_MINUS_ONE


def _barnes_integrand(a: float, b: float, x: float) -> Callable[[float], float]:
    p = x / a
    scale = b / a
    limit = -(scale / math.pi) * digamma(p)
    two_pi = 2.0 * math.pi

    def f(y: float) -> float:
        if y < 1e-10:
            return limit
        return -2.0 * _im_log_gamma(p, scale * y) / math.expm1(two_pi * y)

    return f


def _truncation_point(a: float, b: float, x: float, abs_tol: float) -> float:
    """Smallest Y such that a crude bound on the integrand times exp(-2 pi Y)
    is below abs_tol / 10, found by a short fixed-point iteration."""
    p = x / a
    scale = b / a
    log_target = math.log(abs_tol) - math.log(10.0)
    y = 1.0
    for _ in range(4):
        qy = scale * y
        crude = 2.0 * ((qy + 1.0) * math.log(2.0 + qy + p) + math.pi * (p + 1.0)) + 1.0
        y = max(0.5, (math.log(crude) - log_target) / (2.0 * math.pi))
    return 1.05 * y + 0.5


def barnes_zeta_prime0(args: BarnesArgs) -> EvalResult:
    """d/ds at s=0 of the double zeta sum_{m,n>=0} (a m + b n + x)^(-s).

    Closed Hurwitz/log-gamma terms plus one exponentially damped integral
    over [0, y_max]; y_max is the decay-bound estimate, capped at 60, a cap
    that binds only where the quadrature fails anyway (a below about 1e-137
    at b = x = 1).
    """
    if not isinstance(args, BarnesArgs):
        args = BarnesArgs(*args)
    a, b, x = args.a, args.b, args.x
    p = x / a

    y_end = min(_Y_MAX, _truncation_point(a, b, x, _ABS_TOL))
    seeds = [t for t in (0.0, 1.0, 3.0, 8.0, 16.0, 32.0) if t < y_end]
    seeds.append(y_end)
    integral, quad_err = adaptive_quadrature(
        _barnes_integrand(a, b, x), seeds, _ABS_TOL, _MAX_SUBDIVISIONS
    )

    r = a / b
    zh_m1 = hurwitz_zeta(-1.0, p)
    terms = (
        (-0.5 * hurwitz_zeta(0.0, p) + r * zh_m1 - (b / a) / 12.0) * math.log(a),
        0.5 * log_gamma(p),
        -0.25 * LOG_2PI,
        -r * zh_m1,
        -r * hurwitz_zeta_sderiv(-1.0, p),
        integral,
    )
    return _fsum_result(terms, "barnes-integral", quad_err + _ABS_TOL / 10.0, a=a, b=b, x=x)


def _orbifold_gamma_sum(w: int) -> float:
    # sum_{j=1}^{w-1} j log Gamma(j/w)
    ww = float(w)
    return math.fsum(j * log_gamma(j / ww) for j in range(1, w))


def barnes_zeta_prime0_orbifold(w: int) -> float:
    """The same derivative at parameters (1/w, 1, 1) for integer w, from a
    finite closed form in log-gamma values; no quadrature involved."""
    ww = float(_checked_w(w))
    return (
        _ZETA_PRIME_MINUS_ONE / ww
        - math.log(ww) / (12.0 * ww)
        - _orbifold_gamma_sum(w) / ww
        + (ww - 1.0) / 4.0 * LOG_2PI
    )
