import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from conedet.quadrature import (
    _NODES,
    _WG,
    _WGK,
    _XGK,
    QuadratureError,
    _gk25,
    adaptive_quadrature,
)
from conedet.special_functions import im_log_gamma


def _laurie_kronrod(n):
    """Recurrence coefficients (a, b) of the (2n+1)-point Gauss-Kronrod rule
    for the Legendre weight, by Laurie's algorithm (Math. Comp. 66, 1997)."""
    zero = mpmath.mpf(0)
    a = [zero] * (2 * n + 1)
    b = [zero] * (2 * n + 1)
    b[0] = mpmath.mpf(2)
    for k in range(1, min(3 * n // 2 + 2, 2 * n + 1)):
        b[k] = mpmath.mpf(k * k) / (4 * k * k - 1)
    s = [zero] * (n // 2 + 2)
    t = list(s)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = zero
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            u += (a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k] - b[l] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    for j in range(n // 2, -1, -1):
        s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        u = zero
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            u -= (a[k + n + 1] - a[l]) * t[j + 1] + b[k + n + 1] * s[j + 1] - b[l] * s[j + 2]
            s[j + 1] = u
        if m % 2 == 0:
            k = m // 2
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            k = (m + 1) // 2
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


def _golub_welsch(a, b):
    """Nodes (descending) and weights of the Gauss rule of a Jacobi matrix."""
    size = len(a)
    jac = mpmath.zeros(size, size)
    for i in range(size):
        jac[i, i] = a[i]
        if i + 1 < size:
            jac[i, i + 1] = jac[i + 1, i] = mpmath.sqrt(b[i + 1])
    nodes, vecs = mpmath.eigsy(jac)
    rule = [(nodes[i], b[0] * vecs[0, i] ** 2) for i in range(size)]
    return sorted(rule, key=lambda nw: -nw[0])


def test_tables_match_laurie_construction():
    mpmath.mp.dps = 30
    kronrod = _golub_welsch(*_laurie_kronrod(12))
    legendre_b = [mpmath.mpf(2)] + [mpmath.mpf(k * k) / (4 * k * k - 1) for k in range(1, 12)]
    gauss = _golub_welsch([mpmath.mpf(0)] * 12, legendre_b)
    # every tabulated double is the nearest double to the 30-digit value
    pairs = [*zip(kronrod[:13], _XGK, _WGK), *zip(gauss[:6], _XGK[1::2], _WG)]
    for (x, w), xt, wt in pairs:
        assert abs(x - xt) <= 0.5 * math.ulp(xt) + 1e-30 and abs(w - wt) <= 0.5 * math.ulp(wt), (xt, wt)


def test_node_table_holds_the_tabulated_rule():
    # each node pair with its Kronrod weight and, on the odd entries, the
    # embedded Gauss weight; a Kronrod-only pair weighs 0.0 in the Gauss sum
    assert len(_NODES) == 12
    for i, node in enumerate(_NODES):
        assert node == (_XGK[i], _WGK[i], _WG[i // 2] if i % 2 else 0.0), i


def _moment_error(nodes, weights, degree):
    got = math.fsum(w * (x**degree + (-x) ** degree) for x, w in zip(nodes, weights) if x)
    got += math.fsum(w for x, w in zip(nodes, weights) if not x and degree == 0)
    return abs(got - (2.0 / (degree + 1) if degree % 2 == 0 else 0.0))


def test_rule_degrees():
    # K25 integrates x^d over [-1, 1] exactly through d = 37, G12 through 23
    for degree in range(38):
        assert _moment_error(_XGK, _WGK, degree) <= 1e-15, degree
    for degree in range(24):
        assert _moment_error(_XGK[1::2], _WG, degree) <= 1e-15, degree
    assert _moment_error(_XGK, _WGK, 38) > 1e-14
    assert _moment_error(_XGK[1::2], _WG, 24) > 1e-8


def test_degree_37_polynomial_exact():
    # one K25 panel is exact through degree 37; the G12 estimate only
    # through 23, so the adaptive loop still bisects this one
    val, err = _gk25(lambda x: 38.0 * x**37, 0.0, 1.0)
    assert abs(val - 1.0) <= 5e-15
    assert err > 1e-8
    val, err = adaptive_quadrature(lambda x: 38.0 * x**37, (0.0, 1.0))
    assert abs(val - 1.0) <= 5e-15
    assert err >= 0.0
    val, err = _gk25(lambda x: 24.0 * x**23, 0.0, 1.0)
    assert abs(val - 1.0) <= 5e-15 and err <= 5e-15


def test_sin_over_period():
    val, _ = adaptive_quadrature(math.sin, (0.0, math.pi))
    assert abs(val - 2.0) <= 1e-12


def test_exponential_decay_with_interior_seeds():
    val, _ = adaptive_quadrature(lambda x: math.exp(-x), (0.0, 1.0, 5.0, 20.0))
    assert abs(val - (1.0 - math.exp(-20.0))) <= 1e-12


def test_steep_but_integrable():
    shift = 1e-4
    val, _ = adaptive_quadrature(lambda x: 1.0 / math.sqrt(x + shift), (0.0, 1e-3, 1e-1, 1.0))
    exact = 2.0 * (math.sqrt(1.0 + shift) - math.sqrt(shift))
    assert abs(val - exact) <= 1e-10


def test_value_within_requested_tolerance():
    val, err = adaptive_quadrature(lambda x: math.exp(x) * math.cos(3.0 * x), (0.0, 2.0))
    exact = (math.exp(2.0) * (math.cos(6.0) + 3.0 * math.sin(6.0)) - 1.0) / 10.0
    assert err <= 1e-12
    assert abs(val - exact) <= 1e-11


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        adaptive_quadrature(math.sin, (0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        adaptive_quadrature(math.sin, (1.0,))


def test_budget_exhaustion_raises():
    # 1/x diverges at 0, and every panel [0, h] has the same estimate, so
    # the loop bisects it until the budget runs out
    with pytest.raises(QuadratureError, match=r" after 400 subdivisions$"):
        adaptive_quadrature(lambda x: 1.0 / x, (0.0, 1.0))


def test_cancelled_running_total_does_not_stop_the_loop():
    # the centre Kronrod node of [0, 1] sees a spike of 1e30 that no node of
    # its halves sees, so a running total of the estimates would drop by
    # about 6e28 at once and lose the 5e-5 estimate of [1, 2], which the
    # 1e30 spike had absorbed; a loop stopped by such a total returned
    # (0.66666951, 5.0e-5)
    def f(y):
        if y == 0.5:
            return 1e30
        return math.sqrt(y - 1.0) if y > 1.0 else 0.0

    val, err = adaptive_quadrature(f, (0.0, 1.0, 2.0))
    assert err <= 1e-12
    assert abs(val - 2.0 / 3.0) <= 1e-11


def test_cancelled_total_may_stop_at_the_rounding_of_the_value():
    # the Barnes integrand at (a, b, x) = (2.97e-103, 3.17e125, 1.02e-199)
    # with its unit shifts left in: its estimates reach 1e208.  Their exact
    # sum, 3.3e208, is far above abs_tol, but below 2^-52 |value|, where no
    # bisection can reach, so the call returns it as its error
    p, s = 1.02e-199 / 2.97e-103, 3.17e125 / 2.97e-103

    def f(y):
        return -2.0 * im_log_gamma(p, s * y) / math.expm1(2.0 * math.pi * y)

    val, err = adaptive_quadrature(f, (0.0, 1.0, 3.0, 8.0, 16.0, 32.0, 60.0))
    assert val == -4.643547612932654e229
    assert 1e208 < err <= 2.0**-52 * abs(val)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda x: math.nan, (0.0, 1.0))


def test_infinite_kronrod_node_raises_at_once():
    # the midpoint is a Kronrod node but not a Gauss node, so only the
    # Kronrod sum is infinite and the first error estimate is inf, not nan
    calls = []

    def f(x):
        calls.append(x)
        return math.inf if x == 0.5 else 1.0

    with pytest.raises(QuadratureError, match=r"^integrand produced a non-finite value$"):
        adaptive_quadrature(f, (0.0, 1.0))
    assert len(calls) == 25  # one panel, never bisected


def test_opposite_infinities_at_kronrod_only_nodes_raise():
    # +inf at the outermost node of [0, 1] and -inf at that of [1, 2]: each
    # panel's Gauss sum takes 0.0 * inf = nan, so the first total is nan, and
    # the panel values would meet as inf - inf in the final fsum
    node = 0.5 - 0.5 * _XGK[0]

    def f(x):
        if x == node:
            return math.inf
        return -math.inf if x == 1.0 + node else 1.0

    with pytest.raises(QuadratureError, match=r"^integrand produced a non-finite value$"):
        adaptive_quadrature(f, (0.0, 1.0, 2.0))


def test_jump_at_irrational_point_stops_at_the_rounding_of_the_value():
    # bisection never lands on sqrt(2), so the panel holding the jump keeps
    # an estimate above abs_tol until the summed estimates fall to the
    # rounding of the 2.9e9 value; the exact integral takes the float ends
    mpmath.mp.dps = 40
    root2 = math.sqrt(2.0)
    val, err = adaptive_quadrature(lambda x: 1e10 if x > root2 else 0.0, (0.3, 1.7))
    want = mpmath.mpf(1e10) * (mpmath.mpf(1.7) - mpmath.mpf(root2))
    assert abs(mpmath.mpf(val) - want) <= 4 * math.ulp(val)
    assert 1e-12 < err <= 2.0**-52 * abs(val)


def test_panel_with_no_float_inside_raises():
    # a step of 1e20 at 1 + ulp, the one float inside (1, 1 + 2 ulp): the
    # halves have adjacent ends, and the estimate of the one that holds the
    # step stays far above the rounding of the value
    hi = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
    with pytest.raises(QuadratureError, match=r"^interval too narrow to bisect further$"):
        adaptive_quadrature(lambda t: 1e20 * ((t - 1.0) * 2**52 % 2), (1.0, hi))


def test_panel_values_past_the_float_range_raise():
    # each panel value is finite, 5e307, but four of them sum past the
    # float range, where fsum raises a bare OverflowError
    with pytest.raises(QuadratureError, match=r"^integrand produced a non-finite value$"):
        adaptive_quadrature(lambda y: 5e307, (0.0, 1.0, 2.0, 3.0, 4.0))


def test_budget_error_reports_the_exact_sum():
    # the panels next to sqrt(2) have estimates up to about 1e300, which a
    # running total of added and subtracted estimates left as 6.6e268; the
    # exact sum of the estimates left after 400 bisections is 2.5e-5
    root2 = math.sqrt(2.0)
    with pytest.raises(QuadratureError, match=r"^error estimate 2\.466e-05 above abs_tol 1\.000e-12 after 400 subdivisions$"):
        adaptive_quadrature(lambda x: 1.0 / (abs(x - root2) + 1e-300), (0.3, 1.7))


@given(
    coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    lo=st.floats(-2.0, 2.0),
    span=st.floats(0.1, 3.0),
)
def test_polynomials_match_antiderivative(coeffs, lo, span):
    hi = lo + span

    def poly(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def antideriv(x):
        acc = 0.0
        for k in reversed(range(len(coeffs))):
            acc = acc * x + coeffs[k] / (k + 1)
        return acc * x

    val, _ = adaptive_quadrature(poly, (lo, hi))
    exact = antideriv(hi) - antideriv(lo)
    assert abs(val - exact) <= 1e-10 * (1.0 + abs(exact))
