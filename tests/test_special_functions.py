import cmath
import math
import random
from fractions import Fraction

import mp_oracle
import mpmath
import pytest
from hypothesis import given, strategies as st

import conedet.determinants as D
import conedet.pa_oracle as PA
import conedet.special_functions as SF
from conedet.quadrature import QuadratureError
from conedet.special_functions import (
    BarnesArgs,
    EvalResult,
    _barnes_integrand,
    barnes_zeta_prime0,
    barnes_zeta_prime0_orbifold,
    digamma,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
    im_log_gamma,
    log_gamma,
)

LOG_2PI = math.log(2.0 * math.pi)
EULER_GAMMA = 0.5772156649015328606065121

_TINY = 1e-300
_BELOW_TINY = math.nextafter(_TINY, 0.0)

# the Hurwitz pair takes s = 0 and s = -1 only
_NOT_0_OR_MINUS_1 = (
    1.0,
    0.5,
    -0.5,
    -2.0,
    -5.0,
    400.0,
    math.nextafter(0.0, 1.0),
    math.nextafter(0.0, -1.0),
    math.nextafter(-1.0, 0.0),
    math.nextafter(-1.0, -2.0),
)
_ABOVE_400 = math.nextafter(400.0, 401.0)

# (entry point, valid arguments, parameter, its position, values just
# outside its range); every parameter also rejects a bool, NaN, +-inf and
# an integer too large for a double
VALIDATION_CONTRACT = [
    (log_gamma, (1.0,), "x", 0, (0.0,)),
    (digamma, (1.0,), "x", 0, (0.0,)),
    (im_log_gamma, (1.0, 1.0), "p", 0, (0.0,)),
    (im_log_gamma, (1.0, 1.0), "q", 1, ()),
    (
        hurwitz_zeta,
        (-1.0, 1.0),
        "s",
        0,
        (*_NOT_0_OR_MINUS_1, math.nextafter(-5.0, -6.0), -10.5, -41.0, -60.0, -400.0, _ABOVE_400, 1e5, 1e12),
    ),
    (hurwitz_zeta, (-1.0, 1.0), "x", 1, (0.0,)),
    (
        hurwitz_zeta_sderiv,
        (-1.0, 1.0),
        "s",
        0,
        (*_NOT_0_OR_MINUS_1, math.nextafter(-5.0, -6.0), -8.0, -12.0, -400.0, _ABOVE_400, 1e5, 1e12),
    ),
    (hurwitz_zeta_sderiv, (-1.0, 1.0), "x", 1, (0.0,)),
    *((BarnesArgs, (1.0, 1.0, 1.0), name, i, (_BELOW_TINY,)) for i, name in enumerate("abx")),
    (barnes_zeta_prime0_orbifold, (2,), "w", 0, (0, 201, 2.0)),
    (D.ConeGeometry, (1.0, 1.0), "a", 0, (_BELOW_TINY,)),
    (D.ConeGeometry, (1.0, 1.0), "eta", 1, (_BELOW_TINY, math.nextafter(700.0, 701.0))),
    (D.CurvedDiskGeometry, (1.0, 0.0), "a", 0, (_BELOW_TINY,)),
    (D.CurvedDiskGeometry, (1.0, 0.0), "K", 1, (-1.0,)),
    (D.CurvedDiskGeometry(1.0, 0.5).psi, (0.5,), "r", 0, (_BELOW_TINY, 1.5)),
    (D.CurvedDiskGeometry(1.0, 0.5).dpsi, (0.5,), "r", 0, (_BELOW_TINY, math.nextafter(1.0, 2.0))),
    (D.curvature_from_radius, (1.0,), "eta", 0, (_BELOW_TINY,)),
    (D.logdet_orbifold_cone, (2, 1.0), "w", 0, (0, 201, 2.0)),
    (D.logdet_orbifold_cone, (2, 1.0), "eta", 1, (_BELOW_TINY, 700.5)),
    (D.small_eta_asymptotics, (2, 0.1), "w", 0, (0, 201)),
    (D.small_eta_asymptotics, (2, 0.1), "eta", 1, (_BELOW_TINY,)),
    (D.fp_asymptotics_reference, (2, 0.1), "w", 0, (0, 201)),
    (D.fp_asymptotics_reference, (2, 0.1), "eta", 1, (_BELOW_TINY,)),
    (D.zeta_prime0_spindle, (1.0, 1.0), "a", 0, (_BELOW_TINY,)),
    (D.zeta_prime0_spindle, (1.0, 1.0), "K", 1, (_BELOW_TINY,)),
    (D.zeta_prime0_spherical_cone, (1.0, 1.0), "a", 0, (_BELOW_TINY,)),
    (D.zeta_prime0_spherical_cone, (1.0, 1.0), "K", 1, (_BELOW_TINY,)),
    (D.zeta0_spindle, (1.0,), "a", 0, (_BELOW_TINY,)),
    (D.zeta0_unit_disk_cone, (1.0,), "a", 0, (_BELOW_TINY,)),
    (D.logdet_flat_disk, (1.0,), "r", 0, (_BELOW_TINY,)),
    (D.logdet_poincare_cap, (1.0,), "eta", 0, (_BELOW_TINY, 700.5)),
    (D.rescale_logdet, (1.0, 0.5, 2.0), "logdet", 0, ()),
    (D.rescale_logdet, (1.0, 0.5, 2.0), "zeta0", 1, ()),
    (D.rescale_logdet, (1.0, 0.5, 2.0), "C", 2, (_BELOW_TINY,)),
    (D.annulus_ratio_closed_form, (1.0, 2.0), "a", 0, (_BELOW_TINY,)),
    (D.annulus_ratio_closed_form, (1.0, 2.0), "K", 1, (1.0,)),
    (D.verify_identities, (1e-8,), "tol", 0, (0.0,)),
    (PA.pa_annulus_numeric, (1.0, 2.0), "a", 0, (_BELOW_TINY,)),
    (PA.pa_annulus_numeric, (1.0, 2.0), "K", 1, (1.0,)),
    (PA.pa_disk_numeric, (1.0,), "eta", 0, (_BELOW_TINY, 700.5, 8.0, 10.0, 20.0, 30.0, 36.0)),
]

# reference values frozen from mpmath at 40 significant digits


class TestLogGamma:
    # (x, log Gamma(x))
    REFS = [
        (0.5, 0.5723649429247000870717137),
        (1e-6, 13.81550998074943166921),
        (12.375, 18.42435098980361188338),
        (1e6, 12815504.56914761165997697),
        # subnormal and tiny x, whose first factor takes its own logarithm
        (5e-324, 744.4400719213812623141072984460816341131),
        (1e-310, 713.8013788281541651006446006623883741382),
        (1e-300, 690.7755278982137051803383445701005029086),
        # next to the zeros at 1 and 2, and to the Stirling edge at 10
        (0.999999, 5.772164873855652379393149122960713661920e-7),
        (1.0 + 1e-9, -5.772157118381039519200807143199629365843e-10),
        (9.999999999, 12.80182747782971683588273532592064209394),
        # the ends of the orbifold sum at w = 200
        (1 / 200, 5.295451799982127860334506343218385627367),
        (199 / 200, 0.002906690255811313798292806270789426864338),
    ]

    def test_frozen_values(self):
        for x, want in self.REFS:
            got = log_gamma(x)
            assert abs(got - want) <= 1e-13 + 4e-16 * abs(want), x

    def test_trivial_zeros(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_against_lgamma_grid(self):
        for x in (1e-5, 0.01, 0.3, 1.5, 7.0, 123.456, 1e4):
            assert abs(log_gamma(x) - math.lgamma(x)) <= 1e-13 * (1.0 + abs(math.lgamma(x)))

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestImLogGamma:
    REFS = [
        (0.5, 3.0, 0.3098192710864391660560),
        (2.0, 0.25, 0.1067413229856225509387),
        (12.0, 40.0, 123.9892253715730394903),
    ]

    def test_frozen_values(self):
        for p, q, want in self.REFS:
            assert abs(im_log_gamma(p, q) - want) <= 1e-13 * (1.0 + abs(want)), (p, q)

    def test_real_axis(self):
        assert im_log_gamma(3.7, 0.0) == 0.0

    def test_small_q_linearization(self):
        # Im log Gamma(1+iq) = -gamma q + O(q^3)
        q = 1e-5
        assert abs(im_log_gamma(1.0, q) + EULER_GAMMA * q) <= 1e-14

    def test_against_mpmath_grid(self):
        mpmath.mp.dps = 30
        for p in (0.3, 1.0, 2.7, 12.0):
            for q in (0.1, 1.0, 7.5, 40.0):
                want = float(mpmath.im(mpmath.loggamma(mpmath.mpc(p, q))))
                assert abs(im_log_gamma(p, q) - want) <= 1e-13 * (1.0 + abs(want)), (p, q)

    def test_underflowing_argument_keeps_its_linear_term(self):
        # q/p underflows, so atan2(q, p) is subnormal or 0; (p - 1/2) arg z
        # used to lose up to all of its q, 2.9e-3 of the value at p = 1e150
        mpmath.mp.dps = 30
        for p, q in ((1e150, 1e-306), (1e150, -1e-306), (1e20, 1e-300)):
            want = float(mpmath.im(mpmath.loggamma(mpmath.mpc(p, q))))
            assert abs(im_log_gamma(p, q) - want) <= 1e-15 * abs(want), (p, q)

    @given(
        p=st.floats(1e-3, 60.0, allow_nan=False),
        q=st.floats(1e-3, 60.0, allow_nan=False),
    )
    def test_odd_in_q(self, p, q):
        assert im_log_gamma(p, -q) == -im_log_gamma(p, q)

    def test_domain(self):
        with pytest.raises(ValueError):
            im_log_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            im_log_gamma(-2.0, 1.0)


class TestDigamma:
    def test_frozen_values(self):
        assert abs(digamma(0.25) + 4.227453533376265408090) <= 1e-13 * 5.3
        assert abs(digamma(7.5) - 1.946757484246086788069) <= 1e-13 * 3.0

    def test_special_values(self):
        assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-14
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) <= 1e-14
        assert abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0)) <= 1e-14

    def test_against_mpmath_grid(self):
        mpmath.mp.dps = 30
        for x in (0.05, 0.5, 1.0, 3.0, 20.0, 1000.0):
            want = float(mpmath.digamma(x))
            assert abs(digamma(x) - want) <= 1e-13 * (1.0 + abs(want)), x

    @given(x=st.floats(0.05, 50.0, allow_nan=False))
    def test_recurrence(self, x):
        scale = 1.0 + abs(digamma(x)) + 1.0 / x
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12 * scale

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)


class TestHurwitzZeta:
    REFS = [
        (0.0, 0.3, 0.2000000000000000111022302),
        (-1.0, 0.7, 0.02166666666666666666667),
        (-1.0, 12.375, -70.46614583333333333333),
    ]

    def test_frozen_values(self):
        for s, x, want in self.REFS:
            assert abs(hurwitz_zeta(s, x) - want) <= 5e-13 * (1.0 + abs(want)), (s, x)

    def test_riemann_special_values(self):
        # zeta_R(-1) = -1/12, zeta_R(0) = -1/2
        assert abs(hurwitz_zeta(-1.0, 1.0) + 1.0 / 12.0) <= 1e-14
        assert abs(hurwitz_zeta(0.0, 1.0) + 0.5) <= 1e-14

    def test_recurrence_absolute_moderate_region(self):
        for s in (-1.0, 0.0):
            for x in (0.2, 0.7, 1.3, 2.5):
                diff = hurwitz_zeta(s, x) - x ** (-s) - hurwitz_zeta(s, x + 1.0)
                assert abs(diff) <= 1e-11, (s, x)

    @given(
        s=st.sampled_from((-1.0, 0.0)),
        x=st.floats(0.1, 30.0, allow_nan=False),
    )
    def test_recurrence_scaled(self, s, x):
        lhs = hurwitz_zeta(s, x)
        shift = x ** (-s)
        scale = 1.0 + abs(lhs) + abs(shift)
        assert abs(lhs - shift - hurwitz_zeta(s, x + 1.0)) <= 1e-10 * scale

    @given(x=st.floats(0.01, 30.0, allow_nan=False))
    def test_value_at_zero(self, x):
        assert abs(hurwitz_zeta(0.0, x) - (0.5 - x)) <= 1e-11

    def test_integer_s_is_bernoulli_closed_form(self):
        # zeta(-n, x) = -B_{n+1}(x)/(n+1)
        for x in (1e-300, 0.3, 2.0, 17.5, 1e6):
            assert hurwitz_zeta(0.0, x) == 0.5 - x
        mpmath.mp.dps = 30
        for n in range(2):
            for x in (1e-300, 0.01, 0.7, 3.0, 40.0, 1e6):
                want = float(mpmath.zeta(-n, x))
                assert abs(hurwitz_zeta(-float(n), x) - want) <= 1e-14 * (1.0 + abs(want)), (n, x)

    def test_minus_one_squares_x_correctly_rounded(self):
        # zeta(-1, x) takes x^2 correctly rounded, as x * x; a pow-based
        # x ** 2.0 can miss it by one ulp, as glibc's does at both points,
        # and at the second that ulp reaches the value
        assert float(Fraction(0.08383719893567662) ** 2).hex() == "0x1.cca19d3bd3252p-8"
        for x in (0.08383719893567662, 45.18828896047281):
            square = float(Fraction(x) ** 2)
            assert hurwitz_zeta(-1.0, x) == square / -2.0 + 0.5 * x - 1.0 / 12.0, x

    def test_overflow_names_s_and_x(self):
        with pytest.raises(ValueError, match=r"^s and x put the Hurwitz zeta beyond the float range"):
            hurwitz_zeta(-1.0, 1e200)
        for f in (hurwitz_zeta, hurwitz_zeta_sderiv):
            with pytest.raises(ValueError, match=r"^s and x put .* got s = .*, x = "):
                f(-1.0, 1e300)
        # log Gamma(x) overflows inside Lerch's formula
        want = "s and x put the Hurwitz zeta beyond the float range, got s = 0.0, x = 1e+306"
        with pytest.raises(ValueError) as exc:
            hurwitz_zeta_sderiv(0.0, 1e306)
        assert str(exc.value) == want

    def test_pole_and_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 2.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(0.0, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(-1.0, -3.0)


class TestHurwitzSDeriv:
    REFS = [
        (-1.0, 2.5, 0.3154535112091683283063),
        (-1.0, 0.35, 0.09176796106669963820212),
        (0.0, 0.35, 0.01564269394155981479002),
    ]

    def test_frozen_values(self):
        for s, x, want in self.REFS:
            assert abs(hurwitz_zeta_sderiv(s, x) - want) <= 1e-12, (s, x)

    def test_zeta_prime_minus1_consistency(self):
        assert abs(hurwitz_zeta_sderiv(-1.0, 1.0) - SF._ZETA_PRIME_MINUS_ONE) <= 1e-11

    def test_at_zero_log_gamma_form(self):
        for x in (0.1, 0.35, 1.0, 2.0, 3.0):
            want = log_gamma(x) - 0.5 * LOG_2PI
            assert abs(hurwitz_zeta_sderiv(0.0, x) - want) <= 1e-11, x

    def test_at_one_is_neg_half_log_2pi(self):
        assert abs(hurwitz_zeta_sderiv(0.0, 1.0) + 0.5 * LOG_2PI) <= 1e-13

    def test_against_mpmath_grid(self):
        mpmath.mp.dps = 30
        for s in (0.0, -1.0):
            for x in (0.35, 1.0, 5.0, 30.0):
                want = float(mpmath.zeta(s, x, 1))
                got = hurwitz_zeta_sderiv(s, x)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (s, x)

    def test_minus1_series_against_mpmath(self):
        # zeta'(-1, x) for x <= 3 comes from the Taylor series about x = 2,
        # for 3 < x < 18 from the same series after shifting x into (2, 3],
        # and for x >= 18 from the asymptotic series
        mpmath.mp.dps = 30
        xs = [3.0 * k / 150 for k in range(1, 151)]
        xs += [1e-300, 1e-12, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 2.0, math.nextafter(3.0, 0.0)]
        for x in xs:
            want = mpmath.zeta(-1, x, 1)
            assert abs(hurwitz_zeta_sderiv(-1.0, x) - want) <= 1e-15, x
        xs = [3.0 + 15.0 * k / 75 for k in range(1, 75)]
        xs += [math.nextafter(3.0, 4.0), 3.0 + 1e-9, math.nextafter(18.0, 0.0), 18.0, math.nextafter(18.0, 19.0)]
        xs += [10.0 ** (k / 2.0) for k in range(3, 301)]
        for x in xs:
            want = mpmath.zeta(-1, x, 1)
            assert abs(hurwitz_zeta_sderiv(-1.0, x) - want) <= 1e-15 * (1.0 + abs(want)), x

    @given(x=st.floats(0.05, 30.0, allow_nan=False))
    def test_log_gamma_consistency_property(self, x):
        diff = hurwitz_zeta_sderiv(0.0, x) - (log_gamma(x) - 0.5 * LOG_2PI)
        assert abs(diff) <= 1e-10

    def test_pole(self):
        with pytest.raises(ValueError):
            hurwitz_zeta_sderiv(1.0, 2.0)


class TestRiemannZetaPrimeMinus1:
    def test_value(self):
        mpmath.mp.dps = 30
        want = float(mpmath.zeta(-1, 1, 1))
        assert abs(SF._ZETA_PRIME_MINUS_ONE - want) <= 2e-16

    def test_matches_barnes_at_unit_args(self):
        res = barnes_zeta_prime0(BarnesArgs(1.0, 1.0, 1.0))
        assert abs(res.value - SF._ZETA_PRIME_MINUS_ONE) <= res.abs_err + 1e-12


def _mp_binet(z):
    # mu(z) = log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2 at enough digits
    # to survive the cancellation, about log10(z) of them
    with mpmath.workdps(30 + max(0, int(math.log10(z)))):
        z = mpmath.mpf(z)
        return mpmath.loggamma(z) - (z - 0.5) * mpmath.log(z) + z - mpmath.log(2 * mpmath.pi) / 2


class TestBinet:
    def test_against_mpmath(self):
        # every decade from 1e-300 to 1e300 in steps of 0.35, the subnormals,
        # where 1/z would overflow, and (0, 12] around the shift edge at 10
        # and the log-ratio switch at 1
        zs = [10.0 ** (k / 20.0) for k in range(-6000, 6001, 7)]
        zs += [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, math.nextafter(1.0, 0.0), 1.0]
        zs += [math.nextafter(10.0, 0.0), 10.0, *(k / 20.0 for k in range(1, 241))]
        for z in zs:
            want = _mp_binet(z)
            assert abs(SF._binet(z) - want) <= 1e-15 * (1.0 + abs(want)), z

    def test_eight_stirling_terms_reach_double_precision(self):
        # log Gamma sums eight terms from Re z >= 10 on; the first omitted
        # one, largest at z = 10, is below 2^-52 of mu(10)
        assert SF._STIRLING_8 == SF._STIRLING[:8]
        assert SF._STIRLING_EDGE == 10.0
        assert abs(SF._STIRLING[8]) * 10.0**-17 < 2**-52 * SF._binet(10.0)

    @given(z=st.floats(1.0, 300.0).map(lambda e: 10.0**e))
    def test_one_stirling_evaluator(self, z):
        # above the shift edge Binet's function is the real series alone,
        # eight terms by Horner in 1/z^2, written out here; the complex
        # series, which _im_stirling sums inline, is real on the real axis
        # and conjugate off it, so Im log Gamma is 0 there and odd in q, bit
        # for bit
        c1, c2, c3, c4, c5, c6, c7, c8 = SF._STIRLING_8
        inv = 1.0 / z
        u = inv * inv
        series = inv * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (c6 + u * (c7 + u * c8)))))))
        assert SF._binet(z).hex() == series.hex()
        assert SF._im_stirling(z, 0.0) == 0.0
        for q in (1.0, z):
            assert SF._im_stirling(z, -q) == -SF._im_stirling(z, q)

    @pytest.mark.parametrize("z", [0.01, 1.0, 7.5, 1e3])
    def test_second_formula(self, z):
        # mu(z) = int_0^inf 2 arctan(t/z) / (e^(2 pi t) - 1) dt, the integral
        # barnes_zeta_prime0 takes in closed form for each unit shift
        mpmath.mp.dps = 30
        f = lambda t: 2 * mpmath.atan(t / z) / mpmath.expm1(2 * mpmath.pi * t)
        want = mpmath.quad(f, [0, min(z, 1.0), 1, 10, mpmath.inf])
        assert abs(SF._binet(z) - want) <= 1e-15 * (1.0 + abs(want))


def _six_term_node(p, s, y):
    # the Barnes node's arithmetic: _im_stirling's, with its Stirling
    # series stopped at six terms, over expm1(2 pi y)
    c1, c2, c3, c4, c5, c6 = SF._STIRLING[:6]
    q = s * y
    z = complex(p, q)
    log_z = cmath.log(z)
    inv = 1.0 / z
    u = inv * inv
    series = inv * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * c6)))))
    arg = log_z.imag
    arg_term = q * (1.0 - 0.5 / p) if arg < 2.2250738585072014e-308 else (p - 0.5) * arg
    return -2.0 * (arg_term + q * log_z.real - q + series.imag) / math.expm1(2.0 * math.pi * y)


class TestBarnes:
    def test_bridge_against_orbifold_closed_form(self):
        for w in range(1, 13):
            res = barnes_zeta_prime0(BarnesArgs(1.0 / w, 1.0, 1.0))
            want = barnes_zeta_prime0_orbifold(w)
            assert abs(res.value - want) <= 1e-12, w
            assert abs(res.value - want) <= res.abs_err + 1e-13, w

    def test_orbifold_frozen_values(self):
        refs = [
            (1, -0.1654211437004509292139197),
            (2, 0.06169509076642980818830),
            (3, 0.3027074115450257606573),
            (7, 1.288674001118142380500),
            (200, 49.29166664626418014646),
        ]
        for w, want in refs:
            assert abs(barnes_zeta_prime0_orbifold(w) - want) <= 2e-13 * (1.0 + abs(want)), w

    def test_orbifold_memo_serves_only_its_order(self):
        # the log-gamma sum keeps the last order it computed; interleaved
        # orders must each get their own sum, bit for bit
        for w in (5, 5, 7, 5, 200, 1, 1, 200):
            assert SF._orbifold_gamma_sum(w).hex() == SF._orbifold_gamma_sum.__wrapped__(w).hex(), w

    def test_orbifold_values_do_not_depend_on_the_memo(self):
        closed_forms = (
            barnes_zeta_prime0_orbifold,
            lambda w: D.logdet_orbifold_cone(w, 0.7).value,
            lambda w: D.small_eta_asymptotics(w, 0.01),
        )
        for w in range(1, 201):
            # the first fills the memo, the other two read it
            warm = [f(w).hex() for f in closed_forms]
            cold = []
            for f in closed_forms:
                SF._orbifold_gamma_sum.cache_clear()
                cold.append(f(w).hex())
            assert warm == cold, w

    def test_orbifold_w1_is_stored_constant(self):
        assert barnes_zeta_prime0_orbifold(1) == SF._ZETA_PRIME_MINUS_ONE

    def test_orbifold_sum_takes_nine_unit_shifts(self):
        # the sum writes out log_gamma's x < 1 path with exactly nine unit
        # shifts: every j/w that _checked_w lets through has j/w + 1 in
        # (1, 2), and nine steps of += 1.0 end in [10, 11)
        for w in range(1, 201):
            ww = float(w)
            for j in range(1, w):
                y = j / ww + 1.0
                assert 1.0 < y < 2.0, (j, w)
                for _ in range(9):
                    y += 1.0
                assert SF._STIRLING_EDGE <= y < 11.0, (j, w)
        # a larger order is refused before any sum is computed
        SF._orbifold_gamma_sum.cache_clear()
        with pytest.raises(ValueError):
            SF._checked_w(201)
        for evaluate in (barnes_zeta_prime0_orbifold, lambda w: D.logdet_orbifold_cone(w, 1.0)):
            with pytest.raises(ValueError):
                evaluate(201)
        assert SF._orbifold_gamma_sum.cache_info().misses == 0

    def test_shift_recurrence(self):
        # removing the m=0 row of the double series:
        # z'(0;a,b,x) - z'(0;a,b,x+a) = -log(b) (1/2 - x/b) + log Gamma(x/b) - 1/2 log 2pi
        for a in (0.5, 1.0, 2.0, 3.7):
            for b in (0.5, 1.0, 2.5):
                for x in (0.3, 1.0, 4.2):
                    lhs = (
                        barnes_zeta_prime0(BarnesArgs(a, b, x)).value
                        - barnes_zeta_prime0(BarnesArgs(a, b, x + a)).value
                    )
                    rhs = -math.log(b) * (0.5 - x / b) + log_gamma(x / b) - 0.5 * LOG_2PI
                    assert abs(lhs - rhs) <= 1e-11, (a, b, x)

    def test_integrand_tends_to_its_endpoint_limit(self):
        # -2 Im log Gamma(P + i s y) / expm1(2 pi y) = -(s/pi) psi(P) (1 - pi y + O(y^2))
        # at P >= 10, after the unit shifts, so the one formula needs no
        # substitute near y = 0, where no quadrature node falls
        for big_p, s in ((10.0, 1.0), (10.0, 5.0), (12.5, 0.2), (1e3, 1e7), (1e150, 1e-3)):
            f = _barnes_integrand(big_p, s)
            limit = -(s / math.pi) * digamma(big_p)
            for y in (1e-6, 1e-12, 1e-100):
                assert abs(f(y) - limit) <= (4.0 * y + 1e-14) * abs(limit), (big_p, s, y)

    def test_integrand_is_im_stirling_inline(self):
        # the node is -2 _im_stirling(p, s y) / expm1(2 pi y) written out in
        # one frame with the Stirling series stopped at six terms: bit for
        # bit that arithmetic, written out below, and within 4 ulps of the
        # eight-term _im_stirling, on random points with p in [10, 11), s
        # log-uniform in [1e-300, 1e300] and y in (0, 60], and on points
        # chosen so that arg z = s y / p is below the smallest normal float,
        # where the node takes its linear arg term (no random draw over that
        # range reaches it)
        normal_min = 2.2250738585072014e-308
        rng = random.Random(20250)
        points = [
            (rng.uniform(10.0, 11.0), 10.0 ** rng.uniform(-300.0, 300.0), 60.0 * (1.0 - rng.random()))
            for _ in range(1950)
        ]
        for _ in range(50):
            p = rng.uniform(10.0, 11.0)
            s = 10.0 ** rng.uniform(-300.0, -299.0)
            q = 10.0 ** rng.uniform(math.log10(2.0 * normal_min), math.log10(p * normal_min))
            points.append((p, s, q / s))
        tiny_arg = [cmath.log(complex(p, s * y)).imag < normal_min for p, s, y in points]
        assert sum(tiny_arg) == sum(tiny_arg[1950:]) == 50
        for p, s, y in points:
            got = _barnes_integrand(p, s)(y)
            assert got.hex() == _six_term_node(p, s, y).hex(), (p, s, y)
            want = -2.0 * SF._im_stirling(p, s * y) / math.expm1(2.0 * math.pi * y)
            assert abs(got - want) <= 4.0 * math.ulp(want), (p, s, y)
        # every tenth point, five of them in the linear branch, against
        # mpmath; rounding 2 pi y costs up to 2 pi y ulps of e^(2 pi y), and
        # values below the normal range keep a few subnormal steps
        mpmath.mp.dps = 30
        for p, s, y in points[::10]:
            q = s * y
            want = float(-2 * mpmath.im(mpmath.loggamma(mpmath.mpc(p, q))) / mpmath.expm1(2 * mpmath.pi * y))
            got = _barnes_integrand(p, s)(y)
            assert abs(got - want) <= 4 * 2**-52 * (1.0 + 2.0 * math.pi * y) * abs(want) + 2e-323, (p, s, y)

    def test_six_stirling_terms_stay_below_the_rounding_floor(self):
        # the rule that sets the node's term count: at P = 10, the smallest
        # Re z a node takes, the terms it drops from the eight-term series,
        # integrated, stay below a tenth of the rounding floor that every
        # bar carries, over twenty-seven decades of b/a; five terms do not
        assert SF._STIRLING_6 == SF._STIRLING[:6]
        assert SF._STIRLING_EDGE == 10.0
        floor = SF._fsum_result((0.0,), "barnes-integral", 0.0, ("a",), (1.0,)).abs_err
        assert floor == 2e-14
        scales = (1e-12, 1e-4, 1.0, 1e4, 1e11, 1e15)
        six = max(abs(mp_oracle.stirling_tail_integral(6, s)) for s in scales)
        five = max(abs(mp_oracle.stirling_tail_integral(5, s)) for s in scales)
        assert six < floor / 10.0 <= five

    def test_result_metadata(self):
        res = barnes_zeta_prime0(BarnesArgs(0.5, 1.0, 1.0))
        assert res.formula_tag == "barnes-integral"
        assert res.abs_err > 0.0

    def test_tuple_rejected(self):
        with pytest.raises(ValueError, match=r"^args must be a BarnesArgs$"):
            barnes_zeta_prime0((1.0, 1.0, 1.0))

    # zeta_B'(0; a, 1, 1) from mpmath: the same integral representation by
    # tanh-sinh quadrature and mpmath's Hurwitz zeta, computed at 50 digits
    # and rounded to 30; the first 12 angles are a = 1/w as doubles.  The
    # rows are those `python tests/mp_oracle.py` prints, which CI checks
    CALIBRATION = [
        (1.0, "-0.165421143700450929213919660243"),
        (0.5, "0.0616950907664298081882968618491"),
        (0.3333333333333333, "0.302707411545025801212933947341"),
        (0.25, "0.547522565148224389318379174364"),
        (0.2, "0.793896923333738800574093850303"),
        (0.16666666666666666, "1.04105912505230142087137047286"),
        (0.14285714285714285, "1.28867400111814247678071938281"),
        (0.125, "1.53657271610248651479842827442"),
        (0.1111111111111111, "1.78466104969373466112660918964"),
        (0.1, "2.03288230339978844068390922627"),
        (0.09090909090909091, "2.28120032311959334416626843123"),
        (0.08333333333333333, "2.52959097089230405361496489368"),
        (0.01, "24.4164594464912093133692939796"),
        (2.0, "-0.255997366990211791961267860486"),
        (3.0, "-0.277115740807587687579079616984"),
        (4.54, "-0.297957001820712821322940626351"),
        (7.0, "-0.356083386773848627386636170536"),
        (7.87, "-0.386298306375048004300357939953"),
        (10.0, "-0.480773089785377959882386253145"),
        (12.0, "-0.593798637521779835141454648473"),
        (14.0, "-0.727845220798843279571411294076"),
        (16.0, "-0.880764826696144600709699167334"),
        (22.0, "-1.43606493428228357610531239669"),
        (30.0, "-2.35797227245197064278134484132"),
        (99.0, "-14.894676844072872070569986951"),
        (100.0, "-15.1150889583948978205986582542"),
    ]

    # zeta_B'(0; 1, 1.3, x) the same way, where p = x lies just above 3
    CALIBRATION += [
        ((1.0, 1.3, 3.09), "1.27062331774979313716628891666"),
        ((1.0, 1.3, 3.31), "1.37734155463272192223008831199"),
        ((1.0, 1.3, 3.72), "1.49490171719939115861285714932"),
    ]

    @pytest.mark.parametrize("a, want", CALIBRATION)
    def test_error_bar_holds_against_mpmath(self, a, want):
        mpmath.mp.dps = 30
        res = barnes_zeta_prime0(BarnesArgs(*a) if isinstance(a, tuple) else BarnesArgs(a, 1.0, 1.0))
        assert abs(mpmath.mpf(res.value) - mpmath.mpf(want)) <= res.abs_err

    @pytest.mark.parametrize("x", [1e-8, 1e-9, 1e-10, 1e-12, 1e-20, 1e-50, 1e-100, 1e-125, 1e-150, 1e-200, 1e-300])
    def test_error_bar_holds_at_small_x(self, x, count_evals):
        # the k = 0 Binet term carries the spike of width about x/b next to
        # y = 0, so the quadrature never sees it and takes one pass of three
        # panels however small x is; the reference is the exact form at
        # equal periods a = b, with u = x/b,
        # zeta_B'(0; b, b, x) = zeta'(-1, u) + (1 - u)(log Gamma(u) - log(2 pi)/2)
        #                       - log b (zeta(-1, u) + (1 - u) zeta(0, u)),
        # whose last term vanishes at b = 1
        mpmath.mp.dps = 30
        calls = count_evals(SF)
        res = barnes_zeta_prime0(BarnesArgs(1.0, 1.0, x))
        u = mpmath.mpf(x)
        want = mpmath.zeta(-1, u, 1) + (1 - u) * (mpmath.loggamma(u) - mpmath.log(2 * mpmath.pi) / 2)
        assert abs(mpmath.mpf(res.value) - want) <= res.abs_err
        assert calls == [75]

    # (a, b, x) where the Binet argument x/b underflows, to 0 at the first
    # two and to a subnormal at the third, with the value and bar that the
    # quadrature of the unshifted integrand gives there
    UNDERFLOWING_QUOTIENT = [
        ((2.97e-103, 3.17e125, 1.02e-199), -2.543754354450433e229, 1.3486682075922227e216),
        ((0.575403473839383, 2.1744171743841303e269, 8.964712227134009e-278), -1.9435959351995034e271, 3.894153815439133e257),
        ((7.837445266931883e-93, 1.2354484910019829e96, 1.1924430438172961e-219), -2.867292352293083e189, 1.6878342593043867e176),
    ]

    @pytest.mark.parametrize("args, before, before_err", UNDERFLOWING_QUOTIENT)
    def test_binet_term_survives_an_underflowing_argument(self, args, before, before_err):
        # below 1e-20, mu((p + k)/s) comes from -log(z)/2 - log(2 pi)/2 with
        # log z taken from logs; _binet of the underflowed quotient, 0.0,
        # would divide by 0
        res = barnes_zeta_prime0(BarnesArgs(*args))
        assert abs(res.value - before) <= res.abs_err + before_err

    def test_symmetric_in_a_and_b(self):
        # zeta_B is symmetric in its two periods, so both orientations of a
        # triple must agree within the sum of their bars.  Every orientation
        # of these 60 triples returns, though the arguments are not
        # normalized and the integrand grows with b/a
        rng = random.Random(2024)
        lo, hi = math.log(1e-12), math.log(1e12)
        for _ in range(60):
            a, b, x = (math.exp(rng.uniform(lo, hi)) for _ in "abx")
            one = barnes_zeta_prime0(BarnesArgs(a, b, x))
            other = barnes_zeta_prime0(BarnesArgs(b, a, x))
            assert abs(one.value - other.value) <= one.abs_err + other.abs_err, (a, b, x)

    def test_one_pass_of_three_panels(self, count_evals):
        # on [0.01, 100] the G12/K25 estimate meets abs_tol on the seed
        # panels [0, 1], [1, 3], [3, y_end]: 75 evaluations, no bisection
        calls = count_evals(SF)
        for k in range(41):
            barnes_zeta_prime0(BarnesArgs(10.0 ** (-2.0 + k / 10.0), 1.0, 1.0))
        assert calls == [75] * 41

    def test_tail_beyond_the_cut_is_within_its_allowance(self):
        # the integrand at P >= 10, the only one cut off, beyond
        # min(_Y_MAX, the decay bound): its whole tail from there is at most
        # the _ABS_TOL / 10 the bar allows, also where the cap binds
        mpmath.mp.dps = 30
        binding = 0
        for big_p in (10.0, 1e3, 1e100, 7e140, 1e150, 1e200, 1e300, 1.7e308):
            for s in (1e-300, 1e-3, 1.0, 1e4, 1e7):
                y_end = SF._truncation_point(big_p, s)
                binding += y_end >= SF._Y_MAX
                y_end = min(SF._Y_MAX, y_end)
                f = lambda y: -2 * mpmath.im(mpmath.loggamma(mpmath.mpc(big_p, s * y))) / mpmath.expm1(2 * mpmath.pi * y)
                tail = mpmath.quad(f, [y_end, y_end + 1, y_end + 10, mpmath.inf])
                assert abs(tail) <= SF._ABS_TOL / 10.0, (big_p, s, y_end, tail)
        assert binding >= 10

    def test_quadrature_failure_surfaces(self):
        # b/a = 1e305 is past the 1e300 where the quadrature's estimate can
        # stop being finite, and its error reaches the caller unchanged
        with pytest.raises(QuadratureError, match=r"^integrand produced a non-finite value$"):
            barnes_zeta_prime0(BarnesArgs(1.0, 1e305, 1.0))

    def test_cap_never_truncates_a_returned_value(self):
        # the decay bound reaches the cap _Y_MAX only below about
        # a = 8.5e-138.  Every quarter decade from 1e-12 up and around that
        # edge, and every 25 decades elsewhere below 1e-12: each call that
        # returns lies within its bar of the spectral series, also where the
        # cap binds, and each other one names its parameters
        exponents = [
            *range(-300, -12, 25),
            *(k / 4.0 for k in range(-552, -536)),
            *(k / 4.0 for k in range(-48, 1233)),
        ]
        binding = 0
        for e in exponents:
            a = 10.0**e
            binds = SF._truncation_point(1.0 / a, 1.0 / a) >= SF._Y_MAX
            try:
                res = barnes_zeta_prime0(BarnesArgs(a, 1.0, 1.0))
            except ValueError as exc:
                assert str(exc).startswith("a, b and x put the barnes-integral result beyond"), a
                continue
            series = SF._barnes_a11_series(a)
            assert abs(res.value - series.value) <= res.abs_err + series.abs_err, a
            binding += binds
        assert binding >= 5

    def test_overflow_names_every_parameter(self):
        # a = 1e308 summed to -inf with abs_err inf; at (1e-250, 1, 1),
        # whose value is about 2.5e249, (1, 1, 1e200), (1, 1, 1e300),
        # (1, 1, 1e308) and (1e-5, 1, 1e150), p = x/a is too large for
        # zeta(-1, p), and at (1e-3, 1, 1e303) for log Gamma(p) as well; at
        # the next four, x/a or b/a is 0 or inf.  Without the cap _Y_MAX,
        # the two at x = 1e300 and 1e308 end before that sum, each in a bare
        # OverflowError from expm1.  At the last three x/a is subnormal and
        # keeps only a few bits, which no bar allows for: at the first, where
        # x/a = 3.1e-323, the sum lies 3.4e7 bars off a 50-digit mpmath
        # integral, and at its swapped orientation, where x/a = 5.3e-320,
        # 1.4e4 bars off
        for a, b, x in (
            (1e307, 1.0, 1.0),
            (1e308, 1.0, 1.0),
            (1.7e308, 1.0, 1.0),
            (1e-250, 1.0, 1.0),
            (1.0, 1.0, 1e200),
            (1.0, 1.0, 1e300),
            (1.0, 1.0, 1e308),
            (1e-5, 1.0, 1e150),
            (1e-3, 1.0, 1e303),
            (1e-300, 1.0, 1e300),
            (1e300, 1.0, 1e-300),
            (1e-300, 1e300, 1.0),
            (1e-200, 1e200, 1.0),
            (1.437404176447616e207, 8.495634141135144e203, 4.465531762763124e-116),
            (8.495634141135144e203, 1.437404176447616e207, 4.465531762763124e-116),
            # the largest subnormal x/a, exactly
            (2.0**100, 1.0, 2.0**100 * math.nextafter(2.2250738585072014e-308, 0.0)),
        ):
            with pytest.raises(ValueError, match=r"^a, b and x put the barnes-integral result beyond") as exc:
                barnes_zeta_prime0(BarnesArgs(a, b, x))
            assert str(exc.value).endswith(f"got a = {a!r}, b = {b!r}, x = {x!r}"), str(exc.value)


def _reflected(big, a):
    # zeta_B'(0; a, 1, 1) from big = zeta_B'(0; 1/a, 1, 1) by the reflection
    log_a = math.log(a)
    return math.fsum((big, -log_a * (a + 1.0 / a) / 12.0, -0.25 * log_a))


class TestBarnesSeries:
    """The quadrature-free route to zeta_B'(0; a, 1, 1) outside 1/5 < a < 5,
    against the oracles that do not share its spectral derivation."""

    def test_against_orbifold_closed_form(self):
        for w in range(8, 201):
            res = SF._barnes_a11_series(1.0 / w)
            want = barnes_zeta_prime0_orbifold(w)
            assert res.formula_tag == "barnes-series"
            assert abs(res.value - want) <= res.abs_err, w
            assert abs(res.value - want) <= 1e-14 * abs(want), w

    # the integral representation by tanh-sinh quadrature in mpmath, computed
    # at 50 digits and rounded to 30, as in TestBarnes.CALIBRATION and by the
    # same generator, tests/mp_oracle.py
    CALIBRATION = [
        (0.2, "0.793896923333738800574093850303"),
        (5.0, "-0.305885650162896386889508290311"),
        (8.0, "-0.391242879829861377018248563386"),
        (14.0, "-0.727845220798843279571411294076"),
        (16.0, "-0.880764826696144600709699167334"),
        (30.0, "-2.35797227245197064278134484132"),
        (99.0, "-14.894676844072872070569986951"),
        (100.0, "-15.1150889583948978205986582542"),
        (1000.0, "-329.078731846046208187628079002"),
    ]

    @pytest.mark.parametrize("a, want", CALIBRATION)
    def test_error_bar_holds_against_mpmath(self, a, want):
        mpmath.mp.dps = 30
        res = SF._barnes_a11_series(a)
        assert abs(mpmath.mpf(res.value) - mpmath.mpf(want)) <= res.abs_err

    @pytest.mark.parametrize("a", [0.125, 0.1, 0.01, 8.0, 30.0, 99.0])
    def test_agrees_with_the_quadrature(self, a):
        res = SF._barnes_a11_series(a)
        quad = barnes_zeta_prime0(BarnesArgs(a, 1.0, 1.0))
        assert abs(res.value - quad.value) <= res.abs_err + quad.abs_err

    def test_small_angles_against_the_quadrature_at_1_over_a(self):
        # a = 10^k, k = -300..-9: the quadrature at (1/a, 1, 1), where it
        # still returns a value, taken back to a by the reflection
        for k in range(-300, -8):
            a = 10.0**k
            res = SF._barnes_a11_series(a)
            quad = barnes_zeta_prime0(BarnesArgs(1.0 / a, 1.0, 1.0))
            assert abs(res.value - _reflected(quad.value, a)) <= res.abs_err + quad.abs_err, a

    def test_agrees_with_the_quadrature_across_both_edges(self):
        # log-uniform angles from the old edges 1/8 and 8 to well inside the
        # window, on both sides of each edge of 1/5 < a < 5
        rng = random.Random(29)
        for lo, hi in ((0.125, 0.3), (3.0, 8.0)):
            for _ in range(150):
                a = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                res = SF._barnes_a11_series(a)
                quad = barnes_zeta_prime0(BarnesArgs(a, 1.0, 1.0))
                assert abs(res.value - quad.value) <= res.abs_err + quad.abs_err, a

    def test_truncation_stays_below_the_rounding_floor_at_the_edges(self):
        # the rule that places _barnes_a11's window edge
        m = 1.0 / SF._SERIES_EDGE
        truncation = SF._BARNES_SERIES_NEXT * m**21
        for a in (m, SF._SERIES_EDGE):
            assert truncation < SF._barnes_a11_series(a).abs_err - truncation, a

    def test_bar_no_wider_than_the_quadrature_where_the_route_moved(self):
        # on (1/8, 1/5] and [5, 8) the series took over from the quadrature;
        # 100 log-spaced angles on each band, both ends included
        edge = SF._SERIES_EDGE
        for lo, hi in ((math.nextafter(0.125, 1.0), 1.0 / edge), (edge, math.nextafter(8.0, 0.0))):
            for a in [lo, *(lo * (hi / lo) ** (i / 99) for i in range(1, 99)), hi]:
                res = D._barnes_a11(a)
                assert res.formula_tag == "barnes-series", a
                assert res.abs_err <= barnes_zeta_prime0(BarnesArgs(a, 1.0, 1.0)).abs_err, a

    @pytest.mark.parametrize("a", [1.7, 2.0, 5.0])
    def test_reflection_holds_on_the_quadrature_alone(self, a):
        one = barnes_zeta_prime0(BarnesArgs(a, 1.0, 1.0))
        other = barnes_zeta_prime0(BarnesArgs(1.0 / a, 1.0, 1.0))
        assert abs(one.value - _reflected(other.value, a)) <= one.abs_err + other.abs_err

    def test_large_angles_against_the_quadrature(self):
        # a = 10^k, k = 1..306, the reflected series against the quadrature
        # at the same (a, 1, 1)
        for k in range(1, 307):
            a = 10.0**k
            res = SF._barnes_a11_series(a)
            quad = barnes_zeta_prime0(BarnesArgs(a, 1.0, 1.0))
            assert abs(res.value - quad.value) <= res.abs_err + quad.abs_err, a

    def test_beyond_the_float_range_names_a(self):
        with pytest.raises(ValueError, match=r"^a put the barnes-series result beyond the float range"):
            SF._barnes_a11_series(1.7e308)

    def test_constants(self):
        mpmath.mp.dps = 30
        assert SF._LOG_GLAISHER == float(mpmath.log(mpmath.glaisher))
        for k in range(2, 11):
            assert 1.0 + SF._ZETA_MINUS_ONE[2 * k - 3] == float(mpmath.zeta(2 * k - 1)), k
        first_omitted = _bernoulli(22) / (22 * 21) * Fraction(str(mpmath.zeta(21)))
        assert first_omitted <= SF._BARNES_SERIES_NEXT <= 1.001 * first_omitted


def _bernoulli(n):
    # mpmath's exact-fraction form of mpmath.bernoulli(n)
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))


# each series coefficient as the exact rational it approximates
COEFFICIENT_TABLES = [
    ("_STIRLING", [_bernoulli(2 * j) / (2 * j * (2 * j - 1)) for j in range(1, 11)]),
    ("_DIGAMMA", [_bernoulli(2 * j) / (2 * j) for j in range(1, 9)]),
    ("_ZETA_SDERIV_TAIL", [_bernoulli(2 * k + 2) / ((2 * k + 2) * (2 * k + 1) * 2 * k) for k in range(1, 6)]),
]


@pytest.mark.parametrize("name, exact", COEFFICIENT_TABLES, ids=[name for name, _ in COEFFICIENT_TABLES])
def test_coefficient_table_holds_nearest_doubles(name, exact):
    # Fraction -> float rounds once, to nearest; rounding twice, as
    # (n / d) / k does, is off by an ulp at several entries
    table = getattr(SF, name)
    assert len(table) == len(exact)
    for got, want in zip(table, exact):
        assert got == float(want), (name, got, want)


_MAGNITUDE = st.floats(1e-300, 1e300)


class TestFsumResult:
    """_fsum_result builds every result the package computes: its record
    must carry the reference formula's bits, and its errors must be the
    ones _finite and EvalResult(...) raise."""

    RANGE_ERROR = "a and eta put the hyperbolic-cone result beyond the float range, got a = 0.5, eta = 1.0"

    @given(
        terms=st.lists(st.one_of(_MAGNITUDE, _MAGNITUDE.map(lambda m: -m)), min_size=1, max_size=9),
        err=st.floats(0.0, 1e300),
    )
    def test_matches_the_reference_formula(self, terms, err):
        res = SF._fsum_result(tuple(terms), "hyperbolic-cone", err, ("a", "eta"), (0.5, 1.0))
        assert type(res) is EvalResult and res.formula_tag == "hyperbolic-cone"
        # float.hex tells -0.0 from 0.0
        assert res.value.hex() == math.fsum(terms).hex()
        assert res.abs_err.hex() == (err + 2e-14 * (1 + math.fsum(abs(t) for t in terms))).hex()

    @pytest.mark.parametrize(
        "terms, err",
        [
            ((1.0, math.nan), 0.0),
            ((math.inf, 1.0), 0.0),
            ((1.0, -math.inf), 0.0),
            ((math.inf, -math.inf), 0.0),
            ((1e308, 1e308), 0.0),
            ((1.0,), math.inf),
        ],
        ids=["nan", "inf", "-inf", "inf-inf", "overflow", "err=inf"],
    )
    def test_beyond_the_float_range_names_the_params(self, terms, err):
        with pytest.raises(ValueError) as exc:
            SF._fsum_result(terms, "hyperbolic-cone", err, ("a", "eta"), (0.5, 1.0))
        assert str(exc.value) == self.RANGE_ERROR

    def test_invalid_record_fields_raise_as_eval_result_does(self):
        with pytest.raises(ValueError, match="^abs_err must be a nonnegative float, got -0.99"):
            SF._fsum_result((1.0,), "hyperbolic-cone", -1.0, ("a", "eta"), (0.5, 1.0))
        with pytest.raises(ValueError, match="^formula_tag must be a nonempty string$"):
            SF._fsum_result((1.0,), "", 0.0, ("a", "eta"), (0.5, 1.0))


class TestValidation:
    @pytest.mark.parametrize(
        "fn, args, name, pos, bad",
        [
            pytest.param(fn, args, name, pos, bad, id=f"{fn.__qualname__}-{name}={bad!r:.16}")
            for fn, args, name, pos, outside in VALIDATION_CONTRACT
            for bad in (True, math.nan, math.inf, -math.inf, 10**400, *outside)
        ],
    )
    def test_contract(self, fn, args, name, pos, bad):
        fn(*args)
        bad_args = list(args)
        bad_args[pos] = bad
        with pytest.raises(ValueError) as exc:
            fn(*bad_args)
        assert str(exc.value).startswith(name + " "), str(exc.value)

    # (entry point, arguments, the parameters the error names) where the
    # value of an accepted input would overflow
    BEYOND_FLOAT_RANGE = [
        (log_gamma, (2.7e305,), ("x",)),
        (log_gamma, (1e306,), ("x",)),
        (log_gamma, (1.7e308,), ("x",)),
        (im_log_gamma, (1.0, 1e306), ("p", "q")),
        (im_log_gamma, (1.0, -1e306), ("p", "q")),
        (im_log_gamma, (1.7e308, 1.7e308), ("p", "q")),
        (digamma, (5e-324,), ("x",)),
        (digamma, (5.5e-309,), ("x",)),
        (D.annulus_ratio_closed_form, (1e308, 2.0), ("a", "K")),
        (D.annulus_ratio_closed_form, (1.7e308, 1.5), ("a", "K")),
        (D.annulus_ratio_closed_form, (1e308, 1e300), ("a", "K")),
    ]

    @pytest.mark.parametrize(
        "fn, args, params",
        BEYOND_FLOAT_RANGE,
        ids=[f"{fn.__qualname__}{args}" for fn, args, _ in BEYOND_FLOAT_RANGE],
    )
    def test_beyond_float_range_names_the_parameters(self, fn, args, params):
        names = " and ".join(params)
        with pytest.raises(ValueError, match=rf"^{names} put .* beyond the float range, got ") as exc:
            fn(*args)
        got = ", ".join(f"{k} = {v!r}" for k, v in zip(params, args))
        assert str(exc.value).endswith(got), str(exc.value)

    def test_range_edges_accepted(self):
        assert math.isfinite(log_gamma(5e-324))
        assert math.isfinite(log_gamma(2.5e305))
        assert math.isfinite(im_log_gamma(1.0, 2.5e305))
        assert math.isfinite(digamma(5.7e-309))
        D.ConeGeometry(_TINY, 700.0)
        D.CurvedDiskGeometry(_TINY, math.nextafter(-1.0, 0.0))
        D.annulus_ratio_closed_form(1.0, math.nextafter(1.0, 2.0))
        g = D.CurvedDiskGeometry(1.0, 0.5)
        g.psi(_TINY), g.psi(1.0), g.dpsi(1.0)

    def test_barnes_args(self):
        with pytest.raises(ValueError):
            BarnesArgs(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BarnesArgs(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            BarnesArgs(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            BarnesArgs(math.nan, 1.0, 1.0)
        with pytest.raises(ValueError):
            BarnesArgs(1e-301, 1.0, 1.0)

    def test_eval_result(self):
        with pytest.raises(ValueError):
            EvalResult(1.0, -1e-9, "tag")
        with pytest.raises(ValueError):
            EvalResult(1.0, 0.0, "")

    def test_orbifold_w(self):
        for bad in (0, -3, 201):
            with pytest.raises(ValueError):
                barnes_zeta_prime0_orbifold(bad)
        with pytest.raises(ValueError):
            barnes_zeta_prime0_orbifold(2.0)
        with pytest.raises(ValueError):
            barnes_zeta_prime0_orbifold(True)
