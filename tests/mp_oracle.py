"""mpmath oracle for the tests: the frozen Barnes calibration tables and
two closed forms at small radii.

It imports nothing from conedet, so it shares no code with the routes it
checks.  barnes(a, b, x) takes zeta_B'(0; a, b, x), the s-derivative at 0
of sum_{m,n>=0} (a m + b n + x)^(-s), at 50 digits from its integral
representation: with p = x/a, s = b/a and r = a/b,

    (-zeta(0, p)/2 + r zeta(-1, p) - s/12) log a + log Gamma(p)/2
    - log(2 pi)/4 - r zeta(-1, p) - r zeta'(-1, p)
    + int_0^inf -2 Im log Gamma(p + i s y) / (e^(2 pi y) - 1) dy,

with mpmath's Hurwitz zeta and log-gamma.  The integrand changes on the
scale y ~ x/b, so tanh-sinh quadrature gets a breakpoint every other decade
from x/b up to 1, then at 2, 4 and 8.

orbifold(w, eta) and poincare_cap(eta) take two closed forms of the
package at 40 digits: the orbifold cone of angle 2 pi / w, with its
log-gamma sum from mpmath, and the Poincare cap, the hyperbolic cone at
a = 1.  tests/test_determinants.py holds the package's values at small
radii within their error bars of these.

stirling_remainder_sum(a) takes S(a) = sum_{n>=1} R(n/a) at 30 digits,
where R(nu) = mu(nu) - 1/(12 nu) is the remainder of Binet's function mu
past its first Stirling term.  The published small-radius expansion of
the orbifold cone differs from the package's by 1/4 + 2 S(1/w), and
tests/test_determinants.py holds that difference to this sum.

stirling_tail_integral(terms, s) takes, at 20 digits, how far the Barnes
integral moves when its quadrature node stops the Stirling series of
Im log Gamma after `terms` of its eight terms, at P = 10 and b/a = s.
tests/test_special_functions.py holds the package's six-term node to it.

log_gamma(x) takes log Gamma(x) at 30 digits.  tests/test_special_functions.py
holds the package's log-gamma core, which is math.lgamma, to it.

barnes also gives the generator of the AUDIT table in
tests/test_error_bar_audit.py its values of zeta_B'(0; a, 1, 1) for
1/8 < a <= 1; on 1/8 < a <= 1/5 the package takes the spectral series, so
there the audit checks the series against the integral.  Of barnes, Tier-1
reads only the frozen tables in tests/test_special_functions.py,
TestBarnes.CALIBRATION and TestBarnesSeries.CALIBRATION, and that AUDIT
table.  Run as a script, this module prints the CALIBRATION rows, each value rounded to 30 digits, in
the order and layout of the file:

    python tests/mp_oracle.py
"""

import mpmath as mp

# TestBarnes.CALIBRATION: (a, 1, 1) with a = 1/w as doubles for w = 1..12,
# then angles inside and outside the package's window 1/5 < a < 5 ...
BARNES_ANGLES = [1.0 / w for w in range(1, 13)] + [
    0.01, 2.0, 3.0, 4.54, 7.0, 7.87, 10.0, 12.0, 14.0, 16.0, 22.0, 30.0, 99.0, 100.0,
]
# ... and (1, 1.3, x), where p = x lies just above 3
BARNES_TRIPLES = [(1.0, 1.3, 3.09), (1.0, 1.3, 3.31), (1.0, 1.3, 3.72)]
# TestBarnesSeries.CALIBRATION: (a, 1, 1) where the series takes over, at
# both edges of the window 1/5 < a < 5, then at a >= 8
SERIES_ANGLES = [0.2, 5.0, 8.0, 14.0, 16.0, 30.0, 99.0, 100.0, 1e3]


def barnes(a, b, x):
    """zeta_B'(0; a, b, x) at 50 digits, as an mpf."""
    with mp.workdps(50):
        a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        p, s, r = x / a, b / a, a / b
        knee = x / b
        points = [mp.mpf(0)]
        while knee < 1:
            points.append(knee)
            knee *= 100
        points += [1, 2, 4, 8, mp.inf]
        integral = mp.quad(lambda y: -2 * mp.im(mp.loggamma(p + 1j * s * y)) / mp.expm1(2 * mp.pi * y), points)
        zm1 = mp.zeta(-1, p)
        return (
            (-mp.zeta(0, p) / 2 + r * zm1 - s / 12) * mp.log(a)
            + mp.loggamma(p) / 2
            - mp.log(2 * mp.pi) / 4
            - r * zm1
            - r * mp.zeta(-1, p, 1)
            + integral
        )


def log_gamma(x):
    """log Gamma(x) at 30 digits, as an mpf."""
    with mp.workdps(30):
        return mp.loggamma(mp.mpf(x))


def log_tanh_half(eta):
    return mp.log(mp.tanh(mp.mpf(eta) / 2))


def orbifold(w, eta):
    """logdet of the orbifold cone of angle 2 pi / w and geodesic radius
    eta at 40 digits, as an mpf."""
    with mp.workdps(40):
        ww = mp.mpf(w)
        gsum = mp.fsum(j * mp.loggamma(mp.mpf(j) / w) for j in range(1, w))
        return (
            -(ww + 1 / ww) / 6 * log_tanh_half(eta)
            + (3 - 8 * mp.cosh(eta)) / (12 * ww)
            - 2 * mp.zeta(-1, 1, 1) / ww
            + 2 * gsum / ww
            - ww / 2 * mp.log(2 * mp.pi)
            + (ww + 3 + 2 / ww) / 6 * mp.log(ww)
        )


def poincare_cap(eta):
    """logdet of the Poincare cap of geodesic radius eta at 40 digits, as
    an mpf."""
    with mp.workdps(40):
        return (
            -log_tanh_half(eta) / 3
            - 2 * mp.zeta(-1, 1, 1)
            + mp.mpf(11) / 12
            - mp.mpf(2) / 3 * (1 + mp.cosh(eta))
            - mp.log(2 * mp.pi) / 2
        )


def stirling_remainder_sum(a):
    """S(a) = sum_{n>=1} R(n/a), R(nu) = mu(nu) - 1/(12 nu), at 30 digits,
    as an mpf."""
    with mp.workdps(30):
        a = mp.mpf(a)

        def remainder(n):
            nu = n / a
            # log Gamma(nu), about nu log nu, cancels down to R(nu), about
            # nu^-3/360, so each term, log(2 pi) included, takes the digits
            # it loses as guard digits; without them the extrapolation of
            # the sum fails
            with mp.extradps(10 + max(0, int(4 * mp.log10(nu)))):
                r = mp.loggamma(nu) - (nu - mp.mpf(1) / 2) * mp.log(nu) + nu - mp.log(2 * mp.pi) / 2 - 1 / (12 * nu)
            return +r

        return mp.nsum(remainder, [1, mp.inf])


def stirling_tail_integral(terms, s):
    """The part of the eight-term Stirling series of Im log Gamma(P + i s y)
    past its first `terms` terms, integrated against the Barnes weight
    -2 / (e^(2 pi y) - 1) over y > 0 at P = 10, at 20 digits, as an mpf:
    how far a quadrature node that sums only `terms` of the eight moves the
    Barnes integral.  Near y = 0 the tail is odd in s y, so the integrand
    stays finite; it changes on the scale y ~ P/s, where tanh-sinh
    quadrature gets a breakpoint every decade up to 1."""
    with mp.workdps(20):
        p, s = mp.mpf(10), mp.mpf(s)
        coeffs = [mp.bernoulli(2 * j) / (2 * j * (2 * j - 1)) for j in range(terms + 1, 9)]

        def tail(y):
            z = mp.mpc(p, s * y)
            dropped = mp.fsum(c * z ** (1 - 2 * j) for j, c in enumerate(coeffs, terms + 1))
            return -2 * mp.im(dropped) / mp.expm1(2 * mp.pi * y)

        knee = p / s
        points = [mp.mpf(0)]
        while knee < 1:
            points.append(knee)
            knee *= 10
        points += [1, 2, 4, 8, mp.inf]
        return mp.quad(tail, points)


def _row(key, a, b, x):
    return f'        ({key!r}, "{mp.nstr(barnes(a, b, x), 30)}"),'


if __name__ == "__main__":
    for a in BARNES_ANGLES:
        print(_row(a, a, 1.0, 1.0))
    for triple in BARNES_TRIPLES:
        print(_row(triple, *triple))
    for a in SERIES_ANGLES:
        print(_row(a, a, 1.0, 1.0))
