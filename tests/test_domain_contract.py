"""The domain contract of every public function that returns a number: each
input either gives a finite result or raises a ValueError whose message
starts with the names of the parameters at fault.  QuadratureError is
allowed only where README Accuracy documents it."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

import conedet
import conedet.determinants as D
import conedet.pa_oracle as PA
import conedet.special_functions as SF
from conedet.quadrature import QuadratureError

MAX = 1.7976931348623157e308
POSITIVE = (5e-324, 1e-300, 1e-100, 1e-8, 0.5, 1.0, 2.0, 7.5, 1e8, 1e100, 1e300, MAX)
REAL = (*POSITIVE, 0.0, -5e-324, -1.0, -1e300, -MAX)
ABOVE_MINUS_1 = (*POSITIVE, 0.0, -0.5, math.nextafter(-1.0, 0.0), -1.0)
UNIT = (5e-324, 1e-300, 1e-100, 0.5, 1.0, math.nextafter(1.0, 2.0))
S = (0.0, -1.0, 0.5)
# the angle of a Barnes-backed kind: every decade, through the spectral series
# at 1/5 and below and at 5 and above and the quadrature between, up to the
# float range
ANGLE = (*POSITIVE, *(10.0**k for k in range(-300, 307)))
W = (0, 1, 2, 199, 200, 201)

# log-uniform over the positive floats, from 0 (10^-324 underflows) to 1.8e308
positive = st.floats(-324.0, 308.25).map(lambda e: 10.0**e)
real = st.one_of(positive, positive.map(lambda v: -v), st.just(0.0))
above_minus_1 = st.one_of(positive, st.floats(-1.0, 0.0))
unit = st.floats(-324.0, 0.0).map(lambda e: 10.0**e)

def barnes_edge(a, b, x):
    # b/a so large that the integrand, Im log Gamma(p + i y b/a) over
    # e^(2 pi y) - 1, overflows at nodes of the seed panels
    return b / a > 1e300


# the functions that take a record, called with its fields
def barnes_zeta_prime0(a, b, x):
    return SF.barnes_zeta_prime0(SF.BarnesArgs(a, b, x))


def logdet_hyperbolic_cone(a, eta):
    return D.logdet_hyperbolic_cone(D.ConeGeometry(a, eta))


def zeta_prime0_unit_disk_cone(a, K):
    return D.zeta_prime0_unit_disk_cone(D.CurvedDiskGeometry(a, K))


def psi(a, K, r):
    return D.CurvedDiskGeometry(a, K).psi(r)


def dpsi(a, K, r):
    return D.CurvedDiskGeometry(a, K).dpsi(r)


# (function, parameter names, nominal arguments, edge values and strategy of
# each parameter, where QuadratureError is allowed)
CONTRACT = [
    (SF.log_gamma, "x", (1.0,), (POSITIVE,), (positive,), None),
    (SF.digamma, "x", (1.0,), (POSITIVE,), (positive,), None),
    (SF.im_log_gamma, "p q", (1.0, 1.0), (POSITIVE, REAL), (positive, real), None),
    (SF.hurwitz_zeta, "s x", (-1.0, 1.0), (S, POSITIVE), (st.sampled_from(S), positive), None),
    (SF.hurwitz_zeta_sderiv, "s x", (-1.0, 1.0), (S, POSITIVE), (st.sampled_from(S), positive), None),
    (barnes_zeta_prime0, "a b x", (1.0, 1.0, 1.0), (POSITIVE,) * 3, (positive,) * 3, barnes_edge),
    (SF.barnes_zeta_prime0_orbifold, "w", (2,), (W,), (st.integers(-1, 201),), None),
    (D.curvature_from_radius, "eta", (1.0,), (POSITIVE,), (positive,), None),
    (logdet_hyperbolic_cone, "a eta", (1.0, 1.0), (ANGLE, POSITIVE), (positive,) * 2, None),
    (D.logdet_orbifold_cone, "w eta", (2, 1.0), (W, POSITIVE), (st.integers(-1, 201), positive), None),
    (D.small_eta_asymptotics, "w eta", (2, 0.1), (W, POSITIVE), (st.integers(-1, 201), positive), None),
    (D.fp_asymptotics_reference, "w eta", (2, 0.1), (W, POSITIVE), (st.integers(-1, 201), positive), None),
    (D.zeta_prime0_spindle, "a K", (1.0, 1.0), (ANGLE, POSITIVE), (positive,) * 2, None),
    (D.zeta0_spindle, "a", (1.0,), (POSITIVE,), (positive,), None),
    (D.zeta_prime0_spherical_cone, "a K", (1.0, 1.0), (ANGLE, POSITIVE), (positive,) * 2, None),
    (
        zeta_prime0_unit_disk_cone,
        "a K",
        (1.0, 0.0),
        (ANGLE, ABOVE_MINUS_1),
        (positive, above_minus_1),
        None,
    ),
    (D.zeta0_unit_disk_cone, "a", (1.0,), (POSITIVE,), (positive,), None),
    (D.logdet_flat_disk, "r", (1.0,), (POSITIVE,), (positive,), None),
    (D.logdet_poincare_cap, "eta", (1.0,), (POSITIVE,), (positive,), None),
    (
        D.rescale_logdet,
        "logdet zeta0 C",
        (1.0, 0.5, 2.0),
        (REAL, REAL, POSITIVE),
        (real, real, positive),
        None,
    ),
    (D.annulus_ratio_closed_form, "a K", (1.0, 2.0), (POSITIVE,) * 2, (positive,) * 2, None),
    *(
        (fn, "a K r", (1.0, 0.5, 0.5), (POSITIVE, ABOVE_MINUS_1, UNIT), (positive, above_minus_1, unit), None)
        for fn in (psi, dpsi)
    ),
    (PA.pa_annulus_numeric, "a K", (1.0, 2.0), (POSITIVE,) * 2, (positive,) * 2, None),
    (PA.pa_disk_numeric, "eta", (1.0,), (POSITIVE,), (positive,), None),
]

# "a, b and x put ...", "K must be ...": the parameter names that lead a message
_LEAD = re.compile(r"^(\w+(?:, \w+)*(?: and \w+)?) (?:must|put) ")


def _check(fn, names, args, quadrature_ok):
    try:
        result = fn(*args)
    except ValueError as exc:
        lead = _LEAD.match(str(exc))
        assert lead and set(re.split(r", | and ", lead[1])) <= set(names.split()), (args, str(exc))
        return
    except QuadratureError:
        assert quadrature_ok is not None and quadrature_ok(*args), args
        return
    if isinstance(result, SF.EvalResult):
        values = (result.value, result.abs_err)
    elif isinstance(result, PA.PAIntegralBreakdown):
        values = (result.area_term, result.boundary_curvature_terms, result.boundary_normal_terms, result.total)
    else:
        values = (result,)
    assert all(isinstance(v, float) and math.isfinite(v) for v in values), (args, result)


@pytest.mark.parametrize(
    "fn, names, nominal, edges, strategies, quadrature_ok",
    CONTRACT,
    ids=[f"{fn.__name__}({names.replace(' ', ',')})" for fn, names, *_ in CONTRACT],
)
def test_finite_or_named_error(fn, names, nominal, edges, strategies, quadrature_ok):
    # every edge value of one parameter, the others at their nominal values
    for i, values in enumerate(edges):
        for v in values:
            _check(fn, names, (*nominal[:i], v, *nominal[i + 1 :]), quadrature_ok)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.tuples(*strategies))
    def sweep(args):
        _check(fn, names, args, quadrature_ok)

    sweep()


def test_every_numeric_public_function_is_swept():
    swept = {fn.__name__ for fn, *_ in CONTRACT}
    # records, the identity suite, the quadrature engine and its error
    others = {"verify_identities", "adaptive_quadrature", "QuadratureError"}
    public = {name for name in conedet.__all__ if callable(getattr(conedet, name)) and not name[0].isupper()}
    assert public - others <= swept, public - others - swept
