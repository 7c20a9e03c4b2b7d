"""Gamma / zeta special functions used by the cone determinant formulas.

Everything here is self-contained double-precision scalar code:

* log-gamma (real, and the imaginary part along vertical lines) from the
  first eight terms of the Stirling series after shifting the argument to
  Re z >= 10.  Each function that needs the series sums it in its own
  frame: _binet at real z for Binet's function mu(z), which is the same
  series plus its unit shifts, and _im_stirling at complex z.  The Barnes
  quadrature node sums only the first six terms, whose dropped tail stays
  far below the rounding floor of the integral.  The real log-gamma core
  _log_gamma multiplies its unit-shift factors into one product, two per
  pass, takes a single logarithm of it, and sums the series in the same
  Horner form.  The public log_gamma validates its argument and its result
  once around that unchecked core.  The orbifold log-gamma sum, whose
  arguments j/w all lie in (0, 1), writes out the core's path for x < 1
  in its own loop: log x, exactly nine unit shifts, one logarithm of
  their product and the same series, in the core's order, so each term
  keeps the core's bits,
* digamma from its own asymptotic series, the table _DIGAMMA, after
  shifting the argument to x >= 12,
* Hurwitz zeta and its s-derivative at s = 0 and -1, the only values the
  Barnes term needs: the values are Bernoulli polynomials, the derivative
  at 0 is Lerch's log-gamma formula, and the derivative at -1 a Taylor
  series in x after unit shifts in x, or an asymptotic series for large x,
* the derivative at 0 of the two-variable Barnes zeta
  sum_{m,n>=0} (a m + b n + x)^(-s), evaluated through an integral
  representation whose integrand decays like exp(-2 pi y); the unit
  shifts that log-gamma would make at every node are integrated in closed
  form instead, as Binet's function, by Binet's second formula,
* the same derivative at (a, 1, 1) without quadrature, from the flat-cone
  spectral sum and the reflection a <-> 1/a; determinants takes it where
  a <= 1/5 or a >= 5.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from functools import lru_cache

from .quadrature import _ABS_TOL, adaptive_quadrature

__all__ = [
    "BarnesArgs",
    "EvalResult",
    "log_gamma",
    "im_log_gamma",
    "digamma",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "barnes_zeta_prime0",
    "barnes_zeta_prime0_orbifold",
]

EULER_GAMMA = 0.5772156649015328606065121
LOG_2PI = math.log(2.0 * math.pi)

# zeta_R'(-1) = 1/12 - log(Glaisher constant)
_ZETA_PRIME_MINUS_ONE = -0.1654211437004509292139197

# Terms that depend on no input, taken once at import, each by the operations
# of the term it stands for, in the same order, so that every value that
# reads one has the bits of the term computed per call.
_LOG_2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
_HALF_LOG_2PI = 0.5 * LOG_2PI
_MINUS_QUARTER_LOG_2PI = -0.25 * LOG_2PI
_GAMMA_OVER_12 = EULER_GAMMA / 12.0

# B_2, B_4, ..., B_20 as (numerator, denominator); every coefficient below
# is one such quotient, divided in integers and rounded once.
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
    (-691, 2730), (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
)

# Stirling series coefficients B_{2j} / (2j (2j-1)) for log Gamma.
_STIRLING = tuple(n / (d * 2 * j * (2 * j - 1)) for j, (n, d) in enumerate(_BERNOULLI, 1))

# The eight of them that log Gamma sums at Re z >= _STIRLING_EDGE.  The
# remainder is below the first omitted term times sec^18(arg z / 2)
# (DLMF 5.11(ii)), largest on the real axis at z = 10:
# |_STIRLING[8]| 10^-17 = 1.8e-18, below 2^-52 mu(10).
_STIRLING_8 = _STIRLING[:8]

# The six of them that the Barnes quadrature node sums.  Its Re z = P is
# _STIRLING_EDGE or above, and at P = 10 the seventh and eighth terms,
# integrated against the node's weight, move the integral by at most
# 3.1e-16 for any b/a: below 2e-15, a tenth of the 2e-14 rounding floor of
# every bar.  Stopping at five terms would leave 9.3e-15.
_STIRLING_6 = _STIRLING[:6]

# B_{2j} / (2j) for the digamma asymptotic series.
_DIGAMMA = tuple(n / (d * 2 * j) for j, (n, d) in enumerate(_BERNOULLI[:8], 1))

# zeta(k) - 1 for k = 2, 3, ..., 45, from which the coefficients of the
# Taylor series of zeta'(-1, x) about x = 2 are derived below.
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

# (zeta(k) - 1) / (k (k+1)) for k = 45, 44, ..., 2, highest k first for
# Horner, the coefficients of that Taylor series past its t^2 term; the first
# omitted term is below 2e-17 for |x - 2| <= 1.
_ZETA_SDERIV_TAYLOR = tuple(
    _ZETA_MINUS_ONE[k - 2] / (k * (k + 1)) for k in range(len(_ZETA_MINUS_ONE) + 1, 1, -1)
)

# B_2k / (2k (2k-1)) * zeta(2k-1) for k = 2, ..., 10, the coefficients of the
# small-angle Barnes series in a^(2k-1); 1 + _ZETA_MINUS_ONE[2k-3] is the
# nearest double to zeta(2k-1) for each of these k.
_BARNES_SERIES = tuple(c * (1.0 + _ZETA_MINUS_ONE[2 * k - 3]) for k, c in enumerate(_STIRLING[1:], 2))

# Above B_22 / (22 * 21) * zeta(21) = 13.4029, the first omitted coefficient
# of that series.
_BARNES_SERIES_NEXT = 13.41

# determinants._barnes_a11 takes zeta_B'(0; a, 1, 1) from this series for
# a <= 1/_SERIES_EDGE and a >= _SERIES_EDGE, from the quadrature between.
# With m = min(a, 1/a), the series' truncation bound _BARNES_SERIES_NEXT m^21
# must stay below its rounding floor: at m = 1/5 it is 2.8e-14, under the
# floors 5.4e-14 at a = 1/5 and 7.6e-14 at a = 5.  The bound meets the floor
# at a = 0.2062 and at a = 4.775, so 1/5 and 5 are the round edges the rule
# allows.
_SERIES_EDGE = 5.0

# 1/12 - zeta_R'(-1) = log(Glaisher constant)
_LOG_GLAISHER = 0.2487544770337842625472530

# B_{2k+2} / ((2k+2)(2k+1) 2k) for k = 1, ..., 5, the coefficients of the
# asymptotic series of zeta'(-1, x) in x^(-2k).
_ZETA_SDERIV_TAIL = tuple(
    n / (d * (2 * k + 2) * (2 * k + 1) * 2 * k) for k, (n, d) in enumerate(_BERNOULLI[1:6], 1)
)

# Past this line, Re z >= 10, eight terms of the Stirling series give
# log Gamma to double precision; log Gamma shifts its argument there.
_STIRLING_EDGE = 10.0

# Where the Barnes integral is cut off: _truncation_point puts y_end where
# the tail beyond it is below this, and the Barnes error bar allows it.
_CUTOFF_TOL = _ABS_TOL / 10.0
_LOG_CUTOFF_TOL = math.log(_CUTOFF_TOL)

# Smallest value accepted for a parameter that must be positive.
_TINY = 1e-300

# cosh overflows just above 710; keep radii where every formula stays finite
_ETA_MAX = 700.0

# Upper end of the Barnes integration range; math.expm1(2 pi y) raises
# OverflowError once 2 pi y passes about 709.  The decay bound reaches it
# only where x/a is above about 7e140 or b/a above about 1e137.
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


# EvalResult's slot setters; _fsum_result sets the fields it has checked
# through them, which takes about a seventh off its time against _set
_set_value = EvalResult.value.__set__
_set_abs_err = EvalResult.abs_err.__set__
_set_formula_tag = EvalResult.formula_tag.__set__


def _fsum_result(
    terms: tuple[float, ...], tag: str, err: float, names: tuple[str, ...], values: tuple[float, ...]
) -> EvalResult:
    """The exactly rounded sum of terms, its error bar being err plus the
    rounding floor 2e-14 * (1 + sum of |term|).  Raises a ValueError that
    names the inputs the terms came from when either is not finite: names
    is a constant tuple of their names and values the tuple of their
    values, in the same order, so a call builds no dict that only the
    error path reads.

    Every result the package computes is built here.  It enforces the
    invariants EvalResult(...) validates, a finite value and a finite
    non-negative bar, before it builds the record, so it sets the fields
    directly; a failing check goes through _finite and EvalResult(...),
    which raise the errors."""
    try:
        value = math.fsum(terms)
        abs_err = err + 2e-14 * (1.0 + math.fsum(map(abs, terms)))
    except (OverflowError, ValueError):  # fsum overflowed or met inf - inf
        value = abs_err = math.nan
    # 0 * value is nan unless value is finite, so this holds iff _finite and
    # EvalResult(...) would accept the fields
    if 0.0 <= abs_err + 0.0 * value < math.inf and tag:
        result = object.__new__(EvalResult)
        _set_value(result, value)
        _set_abs_err(result, abs_err)
        _set_formula_tag(result, tag)
        return result
    _finite(abs_err + 0.0 * value, f"the {tag} result", names, values)
    return EvalResult(value, abs_err, tag)


def _finite(value: float, what: str, names: tuple[str, ...], values: tuple[float, ...]) -> float:
    """value if it is finite.  Otherwise a ValueError saying that the
    inputs put what beyond the float range; names is a constant tuple of
    the inputs' names and values the tuple of their values, in the same
    order.  The one place that decides a result left the float range."""
    if math.isfinite(value):
        return value
    *init, last = names
    listed = f"{', '.join(init)} and {last}" if init else last
    got = ", ".join(f"{k} = {v!r}" for k, v in zip(names, values))
    raise ValueError(f"{listed} put {what} beyond the float range, got {got}")


def _binet(z: float) -> float:
    """Binet's function mu(z) = log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2
    for z > 0, the Stirling series after the unit shifts
    mu(z) = mu(z + 1) + (z + 1/2) log(1 + 1/z) - 1 bring z to _STIRLING_EDGE
    or above.  Below z = 1, log(1 + 1/z) is taken as log(1 + z) - log z,
    which stays finite for subnormal z.  The series is its first eight
    terms sum_j B_2j / (2j (2j-1)) z^(1-2j), by Horner in 1/z^2."""
    shift = 0.0
    while z < _STIRLING_EDGE:
        log_ratio = math.log1p(1.0 / z) if z >= 1.0 else math.log1p(z) - math.log(z)
        shift += (z + 0.5) * log_ratio - 1.0
        z += 1.0
    # unrolled: a loop over the coefficients costs more per call
    c1, c2, c3, c4, c5, c6, c7, c8 = _STIRLING_8
    inv = 1.0 / z
    u = inv * inv
    return inv * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (c6 + u * (c7 + u * c8))))))) + shift


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, computed by _log_gamma.  Raises a ValueError
    naming x where x is not a positive finite real or where the value
    overflows, from about x = 2.6e305 up."""
    x = _real("x", x, 0.0, open_lo=True)
    value = _log_gamma(x)
    if value < math.inf:  # the inline test spares the hot path a call
        return value
    return _finite(value, "log Gamma", ("x",), (x,))


def _log_gamma(x: float) -> float:
    """log Gamma(x) for a float x > 0 that is already valid, without the
    checks of log_gamma: inf where the value overflows.  It is the Stirling
    series at y = x + n >= 10 less log(x (x + 1) ... (x + n - 1)).  The
    unit-shift factors are multiplied into one product, which takes a
    single logarithm.  Below x = 1 the first factor, x itself, takes its
    own logarithm, so every factor of the product lies in [1, 10) and the
    product below 10!.  The core runs in one frame: it takes the shifts two
    per pass, and sums the series inline in the Horner form of _binet."""
    log = math.log
    y = x
    shift = 0.0
    if y < 1.0:
        shift = log(y)
        y += 1.0
    elif y == 1.0 or y == 2.0:  # Gamma(1) = Gamma(2) = 1; the series misses by an ULP
        return 0.0
    product = 1.0
    # y < 9 keeps y + 1 below 10 after rounding, so each pass makes two
    # steps of a one-per-pass loop to 10, in its order; from y >= 9 that
    # loop makes at most one more
    while y < 9.0:
        product *= y
        y += 1.0
        product *= y
        y += 1.0
    if y < _STIRLING_EDGE:
        product *= y
        y += 1.0
    shift += log(product)
    c1, c2, c3, c4, c5, c6, c7, c8 = _STIRLING_8
    inv = 1.0 / y
    u = inv * inv
    series = inv * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (c6 + u * (c7 + u * c8)))))))
    return (y - 0.5) * log(y) - y + _HALF_LOG_2PI + series - shift


def im_log_gamma(p: float, q: float) -> float:
    """Imaginary part of the principal log Gamma(p + i q), p > 0.

    Odd in q: atan2 is odd in its first argument, and complex arithmetic
    and the complex logarithm give conjugates on conjugates exactly, so
    im_log_gamma(p, -q) == -im_log_gamma(p, q).  Raises a ValueError
    naming p and q where the value overflows, for |q| from about 2.6e305
    up.
    """
    p = _real("p", p, 0.0, open_lo=True)
    q = _real("q", q)
    acc = 0.0
    z = p
    while z < _STIRLING_EDGE:
        acc += math.atan2(q, z)
        z += 1.0
    return _finite(_im_stirling(z, q) - acc, "Im log Gamma", ("p", "q"), (p, q))


def _im_stirling(p: float, q: float) -> float:
    """Im log Gamma(p + i q) for p >= _STIRLING_EDGE from the Stirling
    series at the complex point z = p + i q, with arg z and log |z| taken
    from one complex logarithm.  The Barnes node, _barnes_integrand, writes
    it out inline with the series stopped at six terms."""
    c1, c2, c3, c4, c5, c6, c7, c8 = _STIRLING_8
    z = complex(p, q)
    log_z = cmath.log(z)
    inv = 1.0 / z
    u = inv * inv
    series = inv * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (c6 + u * (c7 + u * c8)))))))
    arg = log_z.imag
    # below sys.float_info.min, where q/p underflows, arg z has lost bits;
    # there (p - 1/2) arg z = q (1 - 1/(2p)) to double precision.  The
    # Barnes node, where q >= 0, makes only the first comparison
    if arg < 2.2250738585072014e-308 and arg > -2.2250738585072014e-308:
        arg_term = q * (1.0 - 0.5 / p)
    else:
        arg_term = (p - 0.5) * arg
    return arg_term + q * log_z.real - q + series.imag


def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma at x > 0.  Raises a ValueError naming
    x where 1/x overflows, below about x = 5.6e-309."""
    x = _real("x", x, 0.0, open_lo=True)
    acc = 0.0
    y = x
    while y < 12.0:
        acc += 1.0 / y
        y += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    series = 0.0
    p = inv2
    for c in _DIGAMMA:
        series += c * p
        p *= inv2
    return _finite(math.log(y) - 0.5 * inv - series - acc, "digamma", ("x",), (x,))


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
    for c in _ZETA_SDERIV_TAYLOR:
        series = series * u + c
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
            value = log_gamma(x) - _HALF_LOG_2PI if sderiv else 0.5 - x
        else:
            value = _zeta_sderiv_minus1(x) if sderiv else x * x / -2.0 + 0.5 * x - 1.0 / 12.0
    except (OverflowError, ValueError):  # log_gamma(x) overflowed; x * x gives inf instead
        value = math.inf
    return _finite(value, "the Hurwitz zeta", ("s", "x"), (s, x))


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


def _barnes_integrand(p: float, scale: float) -> Callable[[float], float]:
    """The Barnes node y -> -2 Im log Gamma(p + i scale y) / expm1(2 pi y)
    for p >= _STIRLING_EDGE, where Im log Gamma needs no unit shifts.  It is
    -2 _im_stirling(p, scale y) / expm1(2 pi y) written out inline, so that
    a node runs in one frame, with the Stirling series stopped at the six
    terms of _STIRLING_6: the node then agrees with the eight-term
    _im_stirling to a few ulps, and the integral to well below its rounding
    floor.  p - 1/2, the coefficients and the library functions are bound
    once per integrand.  The nodes have y > 0, so q = scale y >= 0 and
    arg z >= 0."""
    c1, c2, c3, c4, c5, c6 = _STIRLING_6
    p_minus_half = p - 0.5
    two_pi = _TWO_PI
    log = cmath.log
    expm1 = math.expm1

    def f(y: float) -> float:
        q = scale * y
        z = complex(p, q)
        log_z = log(z)
        inv = 1.0 / z
        u = inv * inv
        series = inv * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * c6)))))
        arg = log_z.imag
        arg_term = q * (1.0 - 0.5 / p) if arg < 2.2250738585072014e-308 else p_minus_half * arg
        return -2.0 * (arg_term + q * log_z.real - q + series.imag) / expm1(two_pi * y)

    return f


def _truncation_point(p: float, scale: float) -> float:
    """Smallest Y such that a crude bound on the integrand at (p, scale)
    times exp(-2 pi Y) is below _CUTOFF_TOL, found by a short fixed-point
    iteration."""
    y = 1.0
    for _ in range(4):
        qy = scale * y
        crude = 2.0 * ((qy + 1.0) * math.log(2.0 + qy + p) + math.pi * (p + 1.0)) + 1.0
        y = max(0.5, (math.log(crude) - _LOG_CUTOFF_TOL) / _TWO_PI)
    return 1.05 * y + 0.5


def barnes_zeta_prime0(args: BarnesArgs) -> EvalResult:
    """d/ds at s=0 of the double zeta sum_{m,n>=0} (a m + b n + x)^(-s).

    With p = x/a and s = b/a, closed Hurwitz/log-gamma terms at p plus
        int_0^inf -2 Im log Gamma(p + i s y) / (e^(2 pi y) - 1) dy.
    The n unit shifts that bring P = p + n to _STIRLING_EDGE or above split
    Im log Gamma(p + i s y) into Im log Gamma(P + i s y) minus
    sum_{k<n} arctan(s y / (p + k)), and Binet's second formula integrates
    each arctan exactly: int_0^inf 2 arctan(y/z) / (e^(2 pi y) - 1) dy is
    Binet's function mu(z), here at z = (p + k)/s.  So no quadrature node
    makes a unit shift, and the spike of width x/b next to y = 0, which the
    k = 0 term carries, never reaches the quadrature.  The remaining
    integral runs over [0, y_max]; y_max is the decay-bound estimate at P,
    capped at 60.  The cap binds only where x/a is above about 7e140 or b/a
    above about 1e137; at (1, 1, 1e150) the bound is 63.5 and the capped
    integral still meets its bar.  Raises a ValueError naming a, b and x
    when x/a is below the smallest normal float, 2.2e-308, when b/a is 0,
    when either is infinite, or when the value is beyond the float range.
    """
    if not isinstance(args, BarnesArgs):
        raise ValueError("args must be a BarnesArgs")
    a, b, x = args.a, args.b, args.x
    p = x / a
    scale = b / a
    # below the smallest normal float p keeps only a few bits, which the bar
    # cannot allow for: at p = 3.1e-323 the sum lies 3.4e7 bars off a
    # 50-digit integral
    if not (2.2250738585072014e-308 <= p < math.inf and 0.0 < scale < math.inf):
        return _fsum_result((math.nan,), "barnes-integral", 0.0, ("a", "b", "x"), (a, b, x))

    # mu((p + k)/s) for each unit shift; where the quotient is below 1e-20,
    # mu(z) = -log(z)/2 - log(2 pi)/2 to double precision, with log z taken
    # from logs, as the quotient may underflow
    peeled = []
    p_shifted = p
    while p_shifted < _STIRLING_EDGE:
        z = p_shifted / scale
        peeled.append(_binet(z) if z >= 1e-20 else -0.5 * (math.log(p_shifted) - math.log(scale) + LOG_2PI))
        p_shifted += 1.0

    y_end = min(_Y_MAX, _truncation_point(p_shifted, scale))
    seeds = [t for t in (0.0, 1.0, 3.0, 8.0, 16.0, 32.0) if t < y_end]
    seeds.append(y_end)
    integral, quad_err = adaptive_quadrature(_barnes_integrand(p_shifted, scale), seeds)

    r = a / b
    try:
        zh_m1 = hurwitz_zeta(-1.0, p)
        dzh_m1 = hurwitz_zeta_sderiv(-1.0, p)
        lg = log_gamma(p)
    except ValueError:  # p^2 or log Gamma(p) overflows; the nan sum raises below
        zh_m1 = dzh_m1 = lg = math.nan
    terms = (
        (-0.5 * hurwitz_zeta(0.0, p) + r * zh_m1 - scale / 12.0) * math.log(a),
        0.5 * lg,
        _MINUS_QUARTER_LOG_2PI,
        -r * zh_m1,
        -r * dzh_m1,
        # one term of the rounding floor: the quadrature and the Binet terms
        # can cancel, and each is accurate far below the floor
        math.fsum((integral, *peeled)),
    )
    return _fsum_result(terms, "barnes-integral", quad_err + _CUTOFF_TOL, ("a", "b", "x"), (a, b, x))


def _barnes_a11_series(a: float) -> EvalResult:
    """zeta_B'(0; a, 1, 1) without quadrature, from the flat-cone spectral
    sum (Spreafico, J. Geom. Phys. 54 (2005) 355):
        log(A)/a + gamma a/12 - log(2 pi)/4 + S(a),
    with A Glaisher's constant and S(a) = sum_{n>=1} R(n/a), where
    R(nu) = mu(nu) - 1/(12 nu) is the Stirling remainder.  Summed over n,
    each power nu^(1-2k) of its series gives zeta(2k-1) a^(2k-1), so S(a) is
    sum_{k=2}^{10} B_2k / (2k (2k-1)) zeta(2k-1) a^(2k-1).  For real nu > 0
    the Stirling series is enveloping (DLMF 5.11(ii)), so the error is below
    the first omitted term, 13.41 a^21; the bar is that plus the rounding
    floor, which it stays below for a <= 1/_SERIES_EDGE.

    Above a = 1 the series is taken at 1/a, through the exact reflection
        zeta_B'(0; a, 1, 1) = zeta_B'(0; 1/a, 1, 1) - log a ((a + 1/a)/12 + 1/4),
    which follows from zeta_B(s; 1, a, 1) = a^-s zeta_B(s; 1/a, 1, 1)
    + (1 - a^-s) zeta_R(s) and zeta_B(0; a, 1, 1) = (a + 1/a)/12 - 1/4.  Its
    log(A) term is taken as log(A) a, which rounds once, not as
    log(A) / (1/a).  Raises a ValueError naming a where the value is beyond
    the float range."""
    if a <= 1.0:
        m, lead, reflection = a, _LOG_GLAISHER / a, ()
    else:
        m, lead = 1.0 / a, _LOG_GLAISHER * a
        log_a = math.log(a)
        reflection = (-log_a / 12.0 * a, -log_a / 12.0 * m, -0.25 * log_a)
    # Horner in m^2, unrolled as in _binet
    c2, c3, c4, c5, c6, c7, c8, c9, c10 = _BARNES_SERIES
    m2 = m * m
    series = c2 + m2 * (c3 + m2 * (c4 + m2 * (c5 + m2 * (c6 + m2 * (c7 + m2 * (c8 + m2 * (c9 + m2 * c10)))))))
    terms = (lead, _GAMMA_OVER_12 * m, _MINUS_QUARTER_LOG_2PI, series * m2 * m, *reflection)
    return _fsum_result(terms, "barnes-series", _BARNES_SERIES_NEXT * m**21, ("a",), (a,))


# Callers ask for one order in runs (the identity suite, asympt, a table
# grouped by w), so the last order is kept.  A memo of all 200 orders would
# also serve sweeps over distinct orders, which repeat none; it waits on
# ROADMAP item 1, the peak-RSS reading that grows with sweep throughput.
@lru_cache(maxsize=1)
def _orbifold_gamma_sum(w: int) -> float:
    # sum_{j=1}^{w-1} j log Gamma(j/w), each term by the operations of
    # _log_gamma in its order, written out in this loop.  _checked_w keeps
    # w <= 200, so x = j/w lies in [1/200, 199/200]: x takes its own
    # logarithm, y = x + 1 lies in (1, 2), and exactly nine unit shifts
    # bring y to [10, 11), at or above _STIRLING_EDGE.
    # test_orbifold_gamma_sum in tests/test_hoisted_constants.py holds the
    # sum of every order, by float.hex, to the sum of the written-out
    # log-gamma that the same file holds _log_gamma to;
    # test_orbifold_sum_takes_nine_unit_shifts in
    # tests/test_special_functions.py holds the nine shifts.
    log = math.log
    c1, c2, c3, c4, c5, c6, c7, c8 = _STIRLING_8
    ww = float(w)
    terms = []
    for j in range(1, w):
        x = j / ww
        shift = log(x)
        y = x + 1.0
        product = y
        y += 1.0
        product *= y
        y += 1.0
        product *= y
        y += 1.0
        product *= y
        y += 1.0
        product *= y
        y += 1.0
        product *= y
        y += 1.0
        product *= y
        y += 1.0
        product *= y
        y += 1.0
        product *= y
        y += 1.0
        shift += log(product)
        inv = 1.0 / y
        u = inv * inv
        series = inv * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (c6 + u * (c7 + u * c8)))))))
        terms.append(j * ((y - 0.5) * log(y) - y + _HALF_LOG_2PI + series - shift))
    return math.fsum(terms)


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
