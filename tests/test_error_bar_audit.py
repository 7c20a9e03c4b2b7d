"""Oracle audit of the error bars of the four Barnes-backed kinds.

AUDIT freezes, to 20 significant digits, an mpmath value of each kind at
points drawn log-uniform in the angle over four ranges, from
(10^-0.9, 10^0.9), about (1/8, 8), out to the whole accepted domain.  The
test asks that every value the package returns lies within its own abs_err
of the frozen one.

The oracle is `oracle` below, which takes zeta_B'(0; a, 1, 1) three ways:
- for 1/8 < a <= 1, mp_oracle.barnes(a, 1, 1), the Barnes integral by
  mpmath's tanh-sinh quadrature at 50 digits, with mpmath's Hurwitz zeta
  and log-gamma;
- for a <= 1/8, the flat-cone spectral sum at 40 digits: its first 50 terms
  R(n/a) from log-gamma, the rest from their Stirling series;
- for a > 1, the reflection a <-> 1/a.
The package takes that spectral sum outside 1/5 < a < 5, so outside
1/8 < a < 8 the oracle shares its derivation and checks only the arithmetic
and the truncation, not the formula.  Between, on 1/8 < a <= 1/5 and
5 <= a < 8, it checks the package's series against the integral.  Tier-1
reads only the frozen table; mpmath runs when the table is regenerated:

    PYTHONPATH=src python tests/test_error_bar_audit.py
"""

import math
import random
from fractions import Fraction

import mp_oracle
import mpmath as mp

from conedet.determinants import (
    ConeGeometry,
    CurvedDiskGeometry,
    logdet_hyperbolic_cone,
    zeta_prime0_spherical_cone,
    zeta_prime0_spindle,
    zeta_prime0_unit_disk_cone,
)

KINDS = {
    "hyperbolic": lambda a, eta: logdet_hyperbolic_cone(ConeGeometry(a, eta)),
    "spindle": zeta_prime0_spindle,
    "sphericalcone": zeta_prime0_spherical_cone,
    "diskcone": lambda a, K: zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, K)),
}

# (kind, a, eta or K, oracle value)
AUDIT = [
    ("hyperbolic", 0.206260370219399, 2.8833386467229814e-05, "8.9919163683086306202"),
    ("hyperbolic", 1.0502214471097786, 5.845114703817249, "-121.31098138251870076"),
    ("hyperbolic", 0.19263993849228686, 2.0638642803650596e-09, "18.186225471917922051"),
    ("hyperbolic", 1.5200405519415972, 0.00018288296137564472, "1.9245716559045006995"),
    ("hyperbolic", 50.14646169802845, 0.00013561719411667533, "34.4118009045011991"),
    ("hyperbolic", 24.167623938391458, 0.252782657644785, "-14.247998701436317343"),
    ("hyperbolic", 32.074193797366306, 0.0005092833390942359, "14.957705654849229935"),
    ("hyperbolic", 0.02751721494240027, 0.0013119665527595809, "49.906993825026897659"),
    ("hyperbolic", 4.54649843743971e-10, 1.3332216527475111, "6989424161.9989985265"),
    ("hyperbolic", 0.061903610762698784, 1.2451795745329757, "2.4068882011114109777"),
    ("hyperbolic", 27814.651258637645, 0.012178546573948656, "-1780.6543993095263352"),
    ("hyperbolic", 1.110176088478801e-07, 5.416723702127973e-09, "49174557.121567062826"),
    ("hyperbolic", 142078373.84450105, 1.3582396797008668e-11, "479048967.56449918515"),
    ("hyperbolic", 1.724817917292691e-96, 0.0001885418972946966, "2.1914132590659613192e+97"),
    ("spindle", 0.422492860100861, 0.14091459026622755, "-1.4633719583890481937"),
    ("spindle", 4.760522892746132, 12009.110068646185, "0.6102270153633229227"),
    ("spindle", 1.378358046205859, 3.1245395855147445e-10, "-15.553655359211228782"),
    ("spindle", 2.396360767915779, 0.0018657121829404363, "-4.7834490528537232596"),
    ("spindle", 0.34143259471338755, 0.009450755618558087, "-2.3214360006234935442"),
    ("spindle", 3.2681869978890328, 0.9313258928158971, "-1.3745682616128529959"),
    ("spindle", 0.004996750468193622, 1.3402165414841116, "-165.6842781079819465"),
    ("spindle", 31.686972145051804, 100.76389339911209, "-9.3744135661028713608"),
    ("spindle", 0.6091679728413648, 216318041.34049428, "11.22624526401843892"),
    ("spindle", 1.6122870845807706e-06, 0.02507973891206704, "-1759401.7890467208544"),
    ("spindle", 16966602421.347187, 0.3835299814191612, "11108727188.514982045"),
    ("spindle", 2.7020515998921146, 3.217531135374034e-10, "-12.089592188025940123"),
    ("spindle", 5.187059886177445e-166, 3.80169295690218e-08, "-2.371640811554938773e+167"),
    ("spindle", 2.1509197592203034e-271, 12395.178816638394, "-9.6851922638793716415e+272"),
    ("spindle", 1.243925952759584e+232, 1.1259720419133175e-08, "4.4101614789686682544e+232"),
    ("spindle", 2.4311807144615e+73, 0.25165551260966806, "1.7625256224650838758e+73"),
    ("sphericalcone", 0.9285463909459869, 3.789181158674737e-06, "2.4128377399267679566"),
    ("sphericalcone", 4.9506039011258975, 341.5152858029107, "-1.2600644357034384391"),
    ("sphericalcone", 0.8360522542486896, 0.2444109887325083, "0.55147531028675591331"),
    ("sphericalcone", 5.9297507972168475, 5552805168.412819, "-9.9188992199450826682"),
    ("sphericalcone", 1.8784238954612908, 15.700774050986384, "-0.038023651200594283072"),
    ("sphericalcone", 10.435748129363196, 0.00014208413687799272, "10.36716728174539704"),
    ("sphericalcone", 62.92337605415596, 1.0914208690042928, "15.116798503478002477"),
    ("sphericalcone", 0.7470633591096842, 48865451.75569734, "-2.7757190137113790374"),
    ("sphericalcone", 0.024751638708707953, 7.71761103144058e-05, "25.226012534847296836"),
    ("sphericalcone", 2.8632709780431395e-06, 4.5939395274658407e-10, "56576.010553929925732"),
    ("sphericalcone", 5437.822582389451, 88.19913120150503, "-684.02813277904405752"),
    ("sphericalcone", 0.09941659845739971, 2.869301451089774, "-0.96572842444734933188"),
    ("sphericalcone", 5.134716995989467e-07, 269274009.7647567, "-6882125.3257669515562"),
    ("sphericalcone", 1.1649586807035008e-144, 0.5144968932221966, "-4.6940467589279116788e+145"),
    ("sphericalcone", 5755309.520932639, 3337876.067249692, "-5779643.8356931927478"),
    ("sphericalcone", 5.964389756674415e+184, 14.346967221361965, "1.5237468685504645879e+183"),
    ("diskcone", 5.408529463892208, 89881462.73092802, "-2.2492814182931716527"),
    ("diskcone", 0.46771660930050474, 10080468080.06416, "-0.030661419423839519986"),
    ("diskcone", 0.18926625205108918, 34993.125974728864, "0.12264988785336838418"),
    ("diskcone", 3.259502032858802, 1.3129166791055513, "0.54209440724752229587"),
    ("diskcone", 0.5218242132398184, 146702286820.5531, "-0.065150121254914050885"),
    ("diskcone", 636.2191073876762, 165407281.62122095, "-266.67598942610525966"),
    ("diskcone", 0.7496827101536224, -0.9999999999650793, "28624168561.047997272"),
    ("diskcone", 0.039700578956490665, -0.08357246776738214, "-2.6225046840508897722"),
    ("diskcone", 2.0888203213896036e-10, 873436.2346516846, "-15402791035.313492391"),
    ("diskcone", 0.0074380673472549015, -0.938979531581029, "-45.234551681579271052"),
    ("diskcone", 2.1716060425147005e-12, -0.9999999999989881, "-1832015868960.0021897"),
    ("diskcone", 86.17073834199199, 23565689501.457077, "-36.11801316341511457"),
    ("diskcone", 6.907802267984886e-251, 11232967.152982557, "-1.3825698605006885523e+252"),
    ("diskcone", 5.04158235405776e-152, 803.9925974210539, "-1.1418047488627338486e+153"),
    ("diskcone", 1.297188097018997e+151, 89702673778.05644, "-5.4372639553797849517e+150"),
    ("diskcone", 1.2197720187438991e+101, 1776.4756771050252, "-5.1036186477021322509e+100"),
]


def test_error_bars_hold_against_the_oracle(capsys):
    assert {kind for kind, *_ in AUDIT} == set(KINDS)
    ratios = []
    for kind, a, x, want in AUDIT:
        res = KINDS[kind](a, x)
        miss = abs(Fraction(res.value) - Fraction(want))
        ratios.append((float(miss / Fraction(res.abs_err)), kind, a, x))
    worst = max(ratios)
    summary = f"worst |value - oracle| / abs_err is {worst[0]:.3g}, at {worst[1:]}, over {len(AUDIT)} points"
    # the margin goes to the terminal on a pass too, so that a later change
    # of a bar shows what it did to it
    with capsys.disabled():
        print(f"error-bar audit: {summary}")
    assert worst[0] <= 1.0, summary


# The angle ranges, as log10 bounds, and the second parameter of each kind:
# eta in [1e-12, 700], K in [1e-10, 1e10], and for the disk cone K + 1 in
# [1e-12, 1e12].
ANGLE_RANGES = [(-0.9, 0.9), (-3.0, 3.0), (-12.0, 12.0), (-300.0, 300.0)]
SECOND = {
    "hyperbolic": lambda rng: 10.0 ** rng.uniform(-12.0, math.log10(700.0)),
    "spindle": lambda rng: 10.0 ** rng.uniform(-10.0, 10.0),
    "sphericalcone": lambda rng: 10.0 ** rng.uniform(-10.0, 10.0),
    "diskcone": lambda rng: -1.0 + 10.0 ** rng.uniform(-12.0, 12.0),
}


def draw_points():
    """The audit points: per kind and angle range, four draws, less those
    whose value is beyond the float range."""
    rng = random.Random(2026)
    points = []
    for kind in KINDS:
        for lo, hi in ANGLE_RANGES:
            for _ in range(4):
                a, x = 10.0 ** rng.uniform(lo, hi), SECOND[kind](rng)
                try:
                    KINDS[kind](a, x)
                except ValueError as e:
                    if "beyond the float range" not in str(e):
                        raise
                    continue
                points.append((kind, a, x))
    return points


def oracle(kind, a, x):
    """The kind's closed form in mpmath, around the Barnes value below."""
    with mp.workdps(40):
        a, x = mp.mpf(a), mp.mpf(x)
        b = _barnes(a)
        log_2pi = mp.log(2 * mp.pi)
        if kind == "hyperbolic":
            log_tanh_half = mp.log(-mp.expm1(-x)) - mp.log1p(mp.exp(-x))
            return (
                -(a + 1 / a) / 6 * log_tanh_half
                + (3 - 8 * mp.cosh(x)) / 12 * a
                - 2 * b
                - (a + 3 + 1 / a) / 6 * mp.log(a)
                - log_2pi / 2
            )
        if kind == "spindle":
            return 4 * b - a / 2 + (a + 1 / a) / 3 * (mp.log(a) - mp.log(x) / 2) + mp.log(x)
        if kind == "sphericalcone":
            return 2 * b - a / 4 + (a + 3 + 1 / a) / 6 * mp.log(a) - (a + 1 / a) / 12 * mp.log(x) + log_2pi / 2
        return 2 * b - 11 * a / 12 + (a + 3 + 1 / a) / 6 * mp.log(a) + 4 * a / (3 * (x + 1)) + log_2pi / 2


def _barnes(a):
    # zeta_B'(0; a, 1, 1) for an mpf a, at the caller's 40 digits
    if a > 1:
        return _barnes(1 / a) - mp.log(a) * ((a + 1 / a) / 12 + mp.mpf(1) / 4)
    if a > mp.mpf(1) / 8:
        return mp_oracle.barnes(a, 1, 1)
    # log(A)/a + gamma a/12 - log(2 pi)/4 + sum_{n>=1} R(n/a), R the
    # remainder of Stirling's series after 1/(12 nu)
    n_direct = 50
    head = mp.fsum(_stirling_remainder(n / a) for n in range(1, n_direct + 1))
    tail = mp.fsum(
        mp.bernoulli(2 * k) / (2 * k * (2 * k - 1)) * a ** (2 * k - 1) * mp.zeta(2 * k - 1, n_direct + 1)
        for k in range(2, 14)
    )
    return mp.log(mp.glaisher) / a + mp.euler * a / 12 - mp.log(2 * mp.pi) / 4 + head + tail


def _stirling_remainder(nu):
    # log Gamma(nu) - (nu - 1/2) log nu + nu - log(2 pi)/2 - 1/(12 nu), about
    # -1/(360 nu^3): the digits lost to cancellation are added first
    with mp.workdps(mp.mp.dps + 4 * int(mp.log10(nu)) + 10):
        r = mp.loggamma(nu) - (nu - mp.mpf(1) / 2) * mp.log(nu) + nu - mp.log(2 * mp.pi) / 2 - 1 / (12 * nu)
    return +r


if __name__ == "__main__":
    for kind, a, x in draw_points():
        print(f'    ("{kind}", {a!r}, {x!r}, "{mp.nstr(oracle(kind, a, x), 20)}"),')
