"""The closed forms take their input-free terms (zeta_R'(-1), log 2, log 2 pi
and gamma), and the Barnes quadrature its cutoff's log and 2 pi, from module
constants computed at import.  Each constant makes the operations of the
term it stands for, in the same order, so every term, every sum and every
value keeps its bits.  Each test below writes the formula out with those
terms computed per call, and compares the two by float.hex, which also
tells -0.0 from 0.0, on seeded points and the edges of the domain.  The
log-gamma core, which takes two unit shifts per pass and sums the Stirling
series in its own frame, and the orbifold log-gamma sum, which makes the
core's nine unit shifts below 1 in its own loop, are held the same way to
the written-out log-gamma, which takes one shift per pass, and Binet's
function, which sums the same series in its own frame, to the written-out
Binet's function; both sum the written-out eight-term Stirling series.
The Barnes quadrature node, which sums only six terms of that series, is
held to its own written-out arithmetic, and within 4 ulps to the
eight-term Im log Gamma."""

import cmath
import math
import random

import conedet.determinants as D
import conedet.pa_oracle as PA
import conedet.special_functions as SF
from conedet.special_functions import (
    EULER_GAMMA,
    LOG_2PI,
    BarnesArgs,
    _fsum_result,
    barnes_zeta_prime0,
    hurwitz_zeta_sderiv,
    log_gamma,
)

ZP1 = SF._ZETA_PRIME_MINUS_ONE


def _log_uniform(rng, lo, hi, n):
    return [10.0 ** rng.uniform(math.log10(lo), math.log10(hi)) for _ in range(n)]


# eta from 1e-300 to 700 for every order w = 1..200
ETAS = [1e-300, 1e-10, 1e-3, 0.5, 1.0, 700.0]


def _w_eta_points():
    rng = random.Random(27)
    return [(w, eta) for w in range(1, 201) for eta in ETAS + _log_uniform(rng, 1e-300, 700.0, 4)]


def _fp(w, eta):
    ww = float(w)
    return math.fsum(
        (
            -(ww / 6.0 + 1.0 / (6.0 * ww)) * math.log(eta),
            -ww * (-2.0 * ZP1 + 1.0 / 6.0 - math.log(2.0) / 6.0),
            -(5.0 / 12.0 - math.log(2.0) / 6.0 + EULER_GAMMA / 6.0) / ww,
            0.5 * math.log(ww),
            ww * math.log(ww) / 6.0,
            math.log(ww) / (6.0 * ww),
            0.25,
        )
    )


def _small_eta(w, eta):
    ww = float(w)
    return math.fsum(
        (
            -(ww / 6.0 + 1.0 / (6.0 * ww)) * math.log(eta),
            -ww * (math.log(2.0) / 3.0 + 0.5 * (LOG_2PI - math.log(2.0))),
            -(2.0 * ZP1 - 2.0 * SF._orbifold_gamma_sum(w) + 5.0 / 12.0 - math.log(2.0) / 6.0) / ww,
            0.5 * math.log(ww),
            ww * math.log(ww) / 6.0,
            math.log(ww) / (3.0 * ww),
        )
    )


def _orbifold_terms(w, eta):
    ww = float(w)
    return (
        -(ww + 1.0 / ww) / 6.0 * D._log_tanh_half(eta),
        (3.0 - 8.0 * math.cosh(eta)) / (12.0 * ww),
        -2.0 * ZP1 / ww,
        2.0 * SF._orbifold_gamma_sum(w) / ww,
        -0.5 * ww * LOG_2PI,
        (ww + 3.0 + 2.0 / ww) / 6.0 * math.log(ww),
    )


def _flat_disk(r):
    return math.fsum((-math.log(r) / 3.0, math.log(2.0) / 3.0, -2.0 * ZP1, -5.0 / 12.0, -0.5 * LOG_2PI))


def _poincare_cap(eta):
    return math.fsum(
        (
            -D._log_tanh_half(eta) / 3.0,
            -2.0 * ZP1,
            11.0 / 12.0,
            -4.0 / 3.0 * D._inv_sech_sq_half(eta),
            -0.5 * LOG_2PI,
        )
    )


def _stirling(z):
    c1, c2, c3, c4, c5, c6, c7, c8 = SF._STIRLING_8
    inv = 1.0 / z
    u = inv * inv
    return inv * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (c6 + u * (c7 + u * c8)))))))


def _barnes_node(p, s, y):
    # _im_stirling's arithmetic with the series stopped at six terms, over
    # expm1(2 pi y), with 2 pi taken per call
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


def _binet(z):
    shift = 0.0
    while z < SF._STIRLING_EDGE:
        log_ratio = math.log1p(1.0 / z) if z >= 1.0 else math.log1p(z) - math.log(z)
        shift += (z + 0.5) * log_ratio - 1.0
        z += 1.0
    return _stirling(z) + shift


def _log_gamma(x):
    y = x
    shift = 0.0
    if y < 1.0:
        shift = math.log(y)
        y += 1.0
    elif y == 1.0 or y == 2.0:
        return 0.0
    product = 1.0
    while y < SF._STIRLING_EDGE:
        product *= y
        y += 1.0
    shift += math.log(product)
    return (y - 0.5) * math.log(y) - y + 0.5 * LOG_2PI + _stirling(y) - shift


def _barnes_a11_series_terms(a):
    if a <= 1.0:
        m, lead, reflection = a, SF._LOG_GLAISHER / a, ()
    else:
        m, lead = 1.0 / a, SF._LOG_GLAISHER * a
        log_a = math.log(a)
        reflection = (-log_a / 12.0 * a, -log_a / 12.0 * m, -0.25 * log_a)
    c2, c3, c4, c5, c6, c7, c8, c9, c10 = SF._BARNES_SERIES
    m2 = m * m
    series = c2 + m2 * (c3 + m2 * (c4 + m2 * (c5 + m2 * (c6 + m2 * (c7 + m2 * (c8 + m2 * (c9 + m2 * c10)))))))
    return (lead, EULER_GAMMA / 12.0 * m, -0.25 * LOG_2PI, series * m2 * m, *reflection), m


def _truncation_point(p, scale):
    log_target = math.log(SF._CUTOFF_TOL)
    y = 1.0
    for _ in range(4):
        qy = scale * y
        crude = 2.0 * ((qy + 1.0) * math.log(2.0 + qy + p) + math.pi * (p + 1.0)) + 1.0
        y = max(0.5, (math.log(crude) - log_target) / (2.0 * math.pi))
    return 1.05 * y + 0.5


def _bits(result):
    return result.value.hex(), result.abs_err.hex(), result.formula_tag


def _same(got, want):
    return _bits(got) == _bits(want)


class TestDeterminants:
    def test_asymptotic_expansions(self):
        for w, eta in _w_eta_points():
            assert D.fp_asymptotics_reference(w, eta).hex() == _fp(w, eta).hex(), (w, eta)
            assert D.small_eta_asymptotics(w, eta).hex() == _small_eta(w, eta).hex(), (w, eta)

    def test_orbifold_cone(self):
        for w, eta in _w_eta_points():
            want = _fsum_result(_orbifold_terms(w, eta), "orbifold-cone", 0.0, ("w", "eta"), (w, eta))
            assert _same(D.logdet_orbifold_cone(w, eta), want), (w, eta)

    def test_flat_disk_and_poincare_cap(self):
        rng = random.Random(2727)
        radii = [1e-300, 1e-100, 0.5, 1.0, 2.0, 1e100, 1e300] + _log_uniform(rng, 1e-300, 1e300, 2000)
        for r in radii:
            assert D.logdet_flat_disk(r).hex() == _flat_disk(r).hex(), r
        for eta in ETAS + _log_uniform(rng, 1e-300, 700.0, 2000):
            assert D.logdet_poincare_cap(eta).hex() == _poincare_cap(eta).hex(), eta


class TestSpecialFunctions:
    def test_log_gamma_and_lerch(self):
        # (0, 2.6e305): log Gamma overflows from about 2.58e305
        rng = random.Random(272)
        xs = [5e-324, 1e-300, 0.5, 1.0, 1.5, 2.0, 9.99, 10.0, 2.55e305] + _log_uniform(rng, 5e-324, 2.55e305, 3000)
        # the shift loop's edges: x + 1 rounds to 2.0 at 1 - 2^-53, and the
        # core's passes of two shifts stop at 9; then a dense sample over
        # (0, 12], where the loop runs
        xs += [1.0 - 2.0**-53, 8.999999999999998, 9.0, 9.000000000000002, 9.5, 9.999999999999998]
        xs += [12.0 - rng.uniform(0.0, 12.0) for _ in range(20000)]
        for x in xs:
            want = _log_gamma(x)
            assert SF._log_gamma(x).hex() == want.hex(), x
            assert log_gamma(x).hex() == want.hex(), x
            assert hurwitz_zeta_sderiv(0.0, x).hex() == (want - 0.5 * LOG_2PI).hex(), x

    def test_binet(self):
        # z >= 10, where Binet's function is the series alone, then the
        # shift loop's edges, subnormal z included, and a dense sample over
        # [1e-20, 10), where barnes_zeta_prime0 calls it and the loop runs
        rng = random.Random(2731)
        zs = [10.0, 1e3, 1e150, 1e300] + _log_uniform(rng, 10.0, 1e300, 3000)
        zs += [1e-20, 5e-324, 1.0 - 2.0**-53, 1.0, 9.999999999999998] + _log_uniform(rng, 1e-20, 10.0, 20000)
        for z in zs:
            assert SF._binet(z).hex() == _binet(z).hex(), z

    def test_orbifold_gamma_sum(self):
        # the sum writes out the core's x < 1 path with its nine unit shifts
        # in its own loop; every sum keeps the bits of the written-out terms
        for w in range(1, 201):
            ww = float(w)
            want = math.fsum(j * _log_gamma(j / ww) for j in range(1, w))
            assert SF._orbifold_gamma_sum.__wrapped__(w).hex() == want.hex(), w

    def test_barnes_series(self):
        rng = random.Random(2726)
        angles = [1e-300, 1e-10, 0.125, 0.5, 1.0, 2.0, 8.0, 1e10, 1e300] + _log_uniform(rng, 1e-300, 1e300, 2000)
        for a in angles:
            terms, m = _barnes_a11_series_terms(a)
            want = _fsum_result(terms, "barnes-series", SF._BARNES_SERIES_NEXT * m**21, ("a",), (a,))
            assert _same(SF._barnes_a11_series(a), want), a

    def test_barnes_cutoff_and_node(self):
        # the cutoff at (P, s), P >= 10 after the unit shifts, and the node at
        # the quadrature's seeds below it and at the cutoff itself
        rng = random.Random(2728)
        shapes = [(10.0, 1.0), (10.5, 1e-8), (1e150, 1e-3), (10.0, 1e150)]
        shapes += [(rng.uniform(10.0, 11.0), 10.0 ** rng.uniform(-12.0, 12.0)) for _ in range(300)]
        shapes += [(10.0 ** rng.uniform(1.0, 150.0), 10.0 ** rng.uniform(-150.0, 150.0)) for _ in range(300)]
        for p, s in shapes:
            y_end = _truncation_point(p, s)
            assert SF._truncation_point(p, s).hex() == y_end.hex(), (p, s)
            node = SF._barnes_integrand(p, s)
            for y in (1e-12, 1.0, 3.0, 8.0, 16.0, 32.0, min(SF._Y_MAX, y_end)):
                got = node(y)
                assert got.hex() == _barnes_node(p, s, y).hex(), (p, s, y)
                want = -2.0 * SF._im_stirling(p, s * y) / math.expm1(2.0 * math.pi * y)
                assert abs(got - want) <= 4.0 * math.ulp(want), (p, s, y)

    def test_barnes_integral(self, monkeypatch):
        # the one edited term of barnes_zeta_prime0 is its third, -log(2 pi)/4;
        # the call's other terms and arguments to _fsum_result are captured,
        # and the result must be that of the same call with the third term
        # written out
        calls = []

        def capture(terms, *rest):
            calls.append((terms, rest))
            return _fsum_result(terms, *rest)

        monkeypatch.setattr(SF, "_fsum_result", capture)
        for a, b, x in ((1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (7.9, 1.0, 1.0), (1.0, 1.3, 3.09), (3.7, 2.5, 1e-8)):
            got = barnes_zeta_prime0(BarnesArgs(a, b, x))
            (terms, rest), = calls
            calls.clear()
            want = _fsum_result((*terms[:2], -0.25 * LOG_2PI, *terms[3:]), *rest)
            assert _same(got, want), (a, b, x)


class TestPaOracle:
    def test_area_term_and_boundary_terms(self):
        # the closed-form area term over the annulus box, and the boundary
        # terms of both oracles, which make no quadrature of their own
        rng = random.Random(2725)
        annuli = [(0.5, 2.0), (1.0, 5.0), (2.0, 10.0)]
        while len(annuli) < 40:
            a, K = 10.0 ** rng.uniform(-2.0, 3.0), 1.0 + 10.0 ** rng.uniform(-10.0, 10.0)
            if PA._RHO_MIN <= K ** (-1.0 / (2.0 * a)) <= PA._RHO_MAX:
                annuli.append((a, K))
        for a, K in annuli:
            area = math.fsum(
                (
                    -((a - 1.0) ** 2) / (12.0 * a) * math.log(K),
                    -math.log1p(K) / 3.0,
                    -a / (3.0 * (K + 1.0)),
                    a / 6.0,
                    math.log(2.0) / 3.0,
                )
            )
            curvature = math.fsum(
                (
                    -(math.log(2.0 * a) - math.log1p(K)) / 3.0,
                    (math.log(2.0 * a) - (a - 1.0) / (2.0 * a) * math.log(K) - math.log(2.0)) / 3.0,
                )
            )
            assert PA._area_term_closed_form(a, K).hex() == area.hex(), (a, K)
            assert PA.pa_annulus_numeric(a, K).boundary_curvature_terms.hex() == curvature.hex(), (a, K)
        for eta in [1e-300, 1e-10, 0.5, 7.5] + _log_uniform(rng, 1e-300, 7.5, 40):
            s2 = 2.0 / (1.0 + math.cosh(eta))
            got = PA.pa_disk_numeric(eta)
            assert got.boundary_curvature_terms.hex() == (-(math.log(2.0) - math.log(s2)) / 3.0).hex(), eta
            assert got.boundary_normal_terms.hex() == (-0.5 * (math.cosh(eta) - 1.0)).hex(), eta
