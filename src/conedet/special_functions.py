"""Gamma / zeta special functions used by the cone determinant formulas.

Everything here is self-contained double-precision scalar code:

* log-gamma (real, and the imaginary part along vertical lines) from the
  Stirling series after shifting the argument to Re z >= 10,
* digamma the same way,
* Hurwitz zeta and its s-derivative at s = 0 and -1, the only values the
  Barnes term needs: the values are Bernoulli polynomials, the derivative
  at 0 is Lerch's log-gamma formula, and the derivative at -1 a Taylor
  series in x after unit shifts in x, or an asymptotic series for large x,
* the derivative at 0 of the two-variable Barnes zeta
  sum_{m,n>=0} (a m + b n + x)^(-s), evaluated through an integral
  representation whose integrand decays like exp(-2 pi y).

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .quadrature import _ABS_TOL, adaptive_quadrature

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

# B_{2k+2} / ((2k+2)(2k+1) 2k) for k = 1, ..., 5, the coefficients of the
# asymptotic series of zeta'(-1, x) in x^(-2k).
_ZETA_SDERIV_TAIL = (
    -1.0 / 720.0,
    1.0 / 5040.0,
    -1.0 / 10080.0,
    1.0 / 9504.0,
    -691.0 / 3603600.0,
)

# The Stirling tail reaches double precision once Re z is past this line.
_STIRLING_EDGE = 10.0

# Smallest value accepted for a parameter that must be positive.
_TINY = 1e-300

# cosh overflows just above 710; keep radii where every formula stays finite
_ETA_MAX = 700.0

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


_set = object.__setattr__


class _Record:
    """Base of the immutable record types.  A subclass names its fields in
    __slots__ and __match_args__ and sets each once in __init__, through
    object.__setattr__, after validating it.  Equality, hashing, repr, copy
    and pickle go through the tuple of field values.  These are plain
    classes, not frozen dataclasses, because importing dataclasses (and the
    inspect module it pulls in) would make up about three quarters of the
    CLI's import time, and most CLI launches are mostly start-up."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # rebuild through __init__: __slots__ plus the __setattr__ above
        # defeat the default copy and pickle protocols
        return self.__class__, self._values()


class BarnesArgs(_Record):
    """Parameters (a, b, x) of the double zeta sum_{m,n>=0}(am+bn+x)^(-s)."""

    __slots__ = __match_args__ = ("a", "b", "x")
    a: float
    b: float
    x: float

    def __init__(self, a: float, b: float, x: float) -> None:
        _set(self, "a", _real("a", a, _TINY))
        _set(self, "b", _real("b", b, _TINY))
        _set(self, "x", _real("x", x, _TINY))


class EvalResult(_Record):
    """A value together with an absolute error estimate and a tag naming
    the formula that produced it."""

    __slots__ = __match_args__ = ("value", "abs_err", "formula_tag")
    value: float
    abs_err: float
    formula_tag: str

    def __init__(self, value: float, abs_err: float, formula_tag: str) -> None:
        if not (isinstance(abs_err, float) and abs_err >= 0.0):
            raise ValueError(f"abs_err must be a nonnegative float, got {abs_err!r}")
        if not formula_tag:
            raise ValueError("formula_tag must be a nonempty string")
        _set(self, "value", value)
        _set(self, "abs_err", abs_err)
        _set(self, "formula_tag", formula_tag)


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
    raise _beyond_float_range(tag, **params)


def _beyond_float_range(tag: str, **params: float) -> ValueError:
    *init, last = params
    names = f"{', '.join(init)} and {last}" if init else last
    got = ", ".join(f"{k} = {v!r}" for k, v in params.items())
    return ValueError(f"{names} put the {tag} result beyond the float range, got {got}")


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


def _zeta_sderiv_minus1(x: float) -> float:
    """zeta'(-1, x) for x > 0, by one of three routes, none of which cancels.

    For x <= 3, the Taylor series about x = 2: d/dx zeta'(-1, x) =
    x - 1/2 + log Gamma(x) - log(2 pi)/2, and
    log Gamma(2 + t) = (1 - gamma) t + sum_{k>=2} (-1)^k (zeta(k) - 1) t^k / k,
    so with zeta'(-1, 2) = zeta_R'(-1)
    zeta'(-1, 2 + t) = zeta_R'(-1) + (3/2 - log(2 pi)/2) t + (2 - gamma) t^2 / 2
                       + sum_{k>=2} (-1)^k (zeta(k) - 1) / (k (k+1)) t^(k+1).
    The shift zeta'(-1, x) = zeta'(-1, x + 1) - x log x first brings
    x <= 1 into (1, 2], and zeta'(-1, x) = zeta'(-1, x - 1) + (x - 1) log(x - 1)
    brings 3 < x < 18 into (2, 3], adding only positive terms; then |t| <= 1
    and the series converges like 2^-k.  For x >= 18, the asymptotic series
    (x^2/2 - x/2 + 1/12) log x - x^2/4 + 1/12
        - sum_{k>=1} B_{2k+2} / ((2k+2)(2k+1) 2k) x^(-2k),
    whose first omitted term is below 5e-19."""
    if x >= 18.0:
        xx = x * x
        inv2 = 1.0 / xx
        series = 0.0
        for c in reversed(_ZETA_SDERIV_TAIL):
            series = series * inv2 + c
        return (xx / 2.0 - 0.5 * x + 1.0 / 12.0) * math.log(x) - xx / 4.0 + 1.0 / 12.0 - series * inv2
    shift = 0.0
    if x <= 1.0:
        shift = -x * math.log(x)
        x += 1.0
    while x > 3.0:
        x -= 1.0
        shift += x * math.log(x)
    t = x - 2.0
    u = -t
    series = 0.0
    for k in range(len(_ZETA_MINUS_ONE) + 1, 1, -1):
        series = series * u + _ZETA_MINUS_ONE[k - 2] / (k * (k + 1))
    # 3/2 - log(2 pi)/2 and (2 - gamma)/2, each rounded once
    poly = t * (0.5810614667953272 + t * (0.7113921675492336 + t * series))
    return _ZETA_PRIME_MINUS_ONE + poly + shift


def _hurwitz(s: float, x: float, sderiv: bool) -> float:
    s = _real("s", s)
    if s != 0.0 and s != -1.0:
        raise ValueError(f"s must be 0 or -1, got {s!r}")
    x = _real("x", x, 0.0, open_lo=True)
    try:
        if s == 0.0:
            value = log_gamma(x) - 0.5 * LOG_2PI if sderiv else 0.5 - x
        else:
            value = _zeta_sderiv_minus1(x) if sderiv else x ** 2.0 / -2.0 + 0.5 * x - 1.0 / 12.0
    except OverflowError:  # x ** 2.0 raises where x * x would give inf
        value = math.inf
    if math.isfinite(value):
        return value
    raise ValueError(f"s and x put the Hurwitz zeta beyond the float range, got s = {s!r}, x = {x!r}")


def hurwitz_zeta(s: float, x: float) -> float:
    """Hurwitz zeta(s, x) = sum_{k>=0} (k+x)^(-s), continued to s = 0 and
    s = -1, where it is the Bernoulli polynomial -B_{1-s}(x)/(1-s): 1/2 - x
    and -x^2/2 + x/2 - 1/12.  Any other s raises a ValueError."""
    return _hurwitz(s, x, False)


def hurwitz_zeta_sderiv(s: float, x: float) -> float:
    """d/ds of the Hurwitz zeta at (s, x) for s = 0, log Gamma(x) - log(2 pi)/2
    (Lerch's formula), and for s = -1 from a Taylor or an asymptotic series
    in x.  Any other s raises a ValueError."""
    return _hurwitz(s, x, True)


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


def _truncation_point(a: float, b: float, x: float) -> float:
    """Smallest Y such that a crude bound on the integrand times exp(-2 pi Y)
    is below _ABS_TOL / 10, found by a short fixed-point iteration."""
    p = x / a
    scale = b / a
    log_target = math.log(_ABS_TOL) - math.log(10.0)
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
    at b = x = 1).  Raises a ValueError naming a, b and x when x/a or b/a
    is 0 or beyond the float range.
    """
    if not isinstance(args, BarnesArgs):
        raise ValueError("args must be a BarnesArgs")
    a, b, x = args.a, args.b, args.x
    p = x / a
    if not (0.0 < p < math.inf and 0.0 < b / a < math.inf):
        raise _beyond_float_range("barnes-integral", a=a, b=b, x=x)

    y_end = min(_Y_MAX, _truncation_point(a, b, x))
    seeds = [t for t in (0.0, 1.0, 3.0, 8.0, 16.0, 32.0) if t < y_end]
    seeds.append(y_end)
    integral, quad_err = adaptive_quadrature(_barnes_integrand(a, b, x), seeds)

    r = a / b
    try:
        zh_m1 = hurwitz_zeta(-1.0, p)
        dzh_m1 = hurwitz_zeta_sderiv(-1.0, p)
    except ValueError:  # p^2 overflows; the infinite terms make _fsum_result name a, b and x
        zh_m1 = dzh_m1 = math.inf
    terms = (
        (-0.5 * hurwitz_zeta(0.0, p) + r * zh_m1 - (b / a) / 12.0) * math.log(a),
        0.5 * log_gamma(p),
        -0.25 * LOG_2PI,
        -r * zh_m1,
        -r * dzh_m1,
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
