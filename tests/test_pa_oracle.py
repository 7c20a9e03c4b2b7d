import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import conedet.pa_oracle as PA
from conedet.determinants import (
    CurvedDiskGeometry,
    annulus_ratio_closed_form,
    logdet_flat_disk,
    logdet_poincare_cap,
)
from conedet.pa_oracle import (
    PAIntegralBreakdown,
    _area_term_closed_form,
    _dpsi_at,
    _psi,
    pa_annulus_numeric,
    pa_disk_numeric,
)

_K_EDGE = math.nextafter(-1.0, 0.0)

# corners and edges of the annulus oracle's box; the first three put the
# inner radius at 1e-100
_BOX_EDGES = [
    (1.0, 1e200),
    (0.5, 1e100),
    (0.01, 100.0),
    (1e3, 1e300),
    (1e3, 2.0),
    (1e-15, 1.0 + 1e-15),
    (500.0, 1e300),
]


def _box_sample():
    # README's sample of the annulus oracle's box: 100,000 log-uniform
    # points (seed 6), a in [1e-15, 1e3] and K - 1 in [1e-15, 1e300], kept
    # where the inner radius lies in [1e-100, 1 - 1e-15]
    rng = random.Random(6)
    points = []
    for _ in range(100_000):
        a = 10.0 ** rng.uniform(-15.0, 3.0)
        K = 1.0 + 10.0 ** rng.uniform(-15.0, 300.0)
        if PA._RHO_MIN <= K ** (-1.0 / (2.0 * a)) <= PA._RHO_MAX:
            points.append((a, K))
    return points


def _curvature(psi, dpsi, r):
    # -e^{-2 psi} (psi'' + psi'/r), the Gaussian curvature of the radial
    # metric e^{2 psi(r)} |dz|^2, with psi'' from central differences
    h = 1e-5 * r
    d2 = (dpsi(r + h) - dpsi(r - h)) / (2.0 * h)
    return -math.exp(-2.0 * psi(r)) * (d2 + dpsi(r) / r)


class TestConformalFactor:
    # psi and dpsi of CurvedDiskGeometry

    def test_gaussian_curvature_is_K(self):
        # a wrong sign or power made in both psi and psi' passes the
        # psi'-against-psi checks but not this one.  The worst error on
        # this grid is 1.2e-4 (1 + |K|), at a = 3.7, K = 0, r = 0.1, all of
        # it rounding in the differences
        for a in (0.3, 0.725, 1.0, 1.575, 2.0, 2.85, 3.7):
            for K in (-0.9, -0.5, 0.0, 0.19, 1.0, 3.0, 10.0):
                g = CurvedDiskGeometry(a, K)
                for r in (0.1, 0.25, 0.5, 0.75, 0.95):
                    assert abs(_curvature(g.psi, g.dpsi, r) - K) <= 1e-3 * (1.0 + abs(K)), (a, K, r)
        # the Poincare metric of the cap oracle, which the record rejects
        for r in (0.1, 0.25, 0.5, 0.75, 0.95):
            got = _curvature(functools.partial(_psi, 1.0, -1.0), _dpsi_at(1.0, -1.0), r)
            assert abs(got + 1.0) <= 1e-6, r

    def test_boundary_value(self):
        # psi(1) = log 2a - log(1+K) enters the outer curvature term
        g = CurvedDiskGeometry(2.0, 5.0)
        assert abs(g.psi(1.0) - (math.log(4.0) - math.log(6.0))) <= 1e-15

    def test_inner_radius_value(self):
        # at r = K^(-1/2a): psi = -(a-1)/(2a) log K + log 2a - log 2
        a, K = 2.0, 5.0
        rho = K ** (-1.0 / (2.0 * a))
        want = -(a - 1.0) / (2.0 * a) * math.log(K) + math.log(2.0 * a) - math.log(2.0)
        assert abs(CurvedDiskGeometry(a, K).psi(rho) - want) <= 1e-14

    def test_dpsi_matches_finite_differences(self):
        for a, K, r in ((1.0, 2.0, 0.5), (2.0, 5.0, 0.7), (0.5, 0.0, 0.3), (1.5, -0.5, 0.9)):
            g = CurvedDiskGeometry(a, K)
            h = 1e-6 * r
            fd = (g.psi(r + h) - g.psi(r - h)) / (2.0 * h)
            assert abs(fd - g.dpsi(r)) <= 1e-8 * (1.0 + abs(g.dpsi(r))), (a, K, r)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.3, 3.0, allow_nan=False),
        K=st.floats(-0.5, 10.0, allow_nan=False),
        r=st.floats(0.05, 0.95, allow_nan=False),
    )
    def test_dpsi_derivative_property(self, a, K, r):
        g = CurvedDiskGeometry(a, K)
        h = 1e-6 * r
        fd = (g.psi(r + h) - g.psi(r - h)) / (2.0 * h)
        assert abs(fd - g.dpsi(r)) <= 1e-5 * (1.0 + abs(g.dpsi(r)))

    def test_validation(self):
        with pytest.raises(ValueError):
            CurvedDiskGeometry(0.0, 1.0)
        with pytest.raises(ValueError):
            CurvedDiskGeometry(1.0, -1.0)
        with pytest.raises(ValueError, match=r"^a must be a real number, got True$"):
            CurvedDiskGeometry(True, 0.25)
        g = CurvedDiskGeometry(1.0, 1.0)
        with pytest.raises(ValueError):
            g.psi(0.0)
        with pytest.raises(ValueError):
            g.psi(1.5)
        with pytest.raises(ValueError):
            g.dpsi(-0.2)

    def test_smallest_denominator_is_finite(self):
        # 1 + K r^2a is smallest at K just above -1 and r = 1: 2^-53, not 0
        g = CurvedDiskGeometry(1.0, _K_EDGE)
        assert g.psi(1.0) == math.log(2.0) - math.log(2.0**-53)
        assert math.isfinite(g.psi(1.0)) and math.isfinite(g.dpsi(1.0))

    @pytest.mark.parametrize(
        "call, what, a, K, r",
        [
            (lambda: CurvedDiskGeometry(1e300, _K_EDGE).dpsi(1.0), "psi'", 1e300, _K_EDGE, 1.0),
            (lambda: CurvedDiskGeometry(1e308, 0.5).psi(1e-300), "psi", 1e308, 0.5, 1e-300),
        ],
    )
    def test_beyond_float_range_names_a_K_and_r(self, call, what, a, K, r):
        # these validated points returned inf, inf and nan
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == (
            f"a, K and r put {what} beyond the float range, got a = {a!r}, K = {K!r}, r = {r!r}"
        )


class TestGradPsiSq:
    # psi' in closed form, sign included; its square |grad psi|^2 is the
    # integrand of the area term

    def test_flat_smooth_metric_is_zero(self):
        for r in (0.1, 0.5, 0.99):
            assert CurvedDiskGeometry(1.0, 0.0).dpsi(r) == 0.0

    def test_zero_curvature_cone(self):
        for a in (0.5, 2.0, 3.0):
            for r in (0.2, 0.7):
                want = (a - 1.0) / r
                assert abs(CurvedDiskGeometry(a, 0.0).dpsi(r) - want) <= 1e-14 * abs(want)

    def test_smooth_curved_metric(self):
        for K in (0.5, 2.0):
            for r in (0.3, 0.8):
                want = -2.0 * K * r / (1.0 + K * r * r)
                assert abs(CurvedDiskGeometry(1.0, K).dpsi(r) - want) <= 1e-14 * (1.0 + abs(want))

    def test_hoisted_factors_keep_the_formula_bit_for_bit(self):
        # _dpsi_at takes a - 1, 2aK, 2a - 1 and 2a once; each call must give
        # the bits of the formula written out, at random points of the
        # annulus oracle's box (r log-uniform between the inner radius and
        # 1) and of the cap at (1, -1).  float.hex tells -0.0 from 0.0
        def formula(a, K, r):
            return (a - 1.0) / r - 2.0 * a * K * r ** (2.0 * a - 1.0) / (1.0 + K * r ** (2.0 * a))

        rng = random.Random(24)
        points = []
        while len(points) < 1000:
            a = 10.0 ** rng.uniform(-15.0, 3.0)
            K = 1.0 + 10.0 ** rng.uniform(-15.0, 300.0)
            rho = K ** (-1.0 / (2.0 * a))
            if PA._RHO_MIN <= rho <= PA._RHO_MAX:
                points.append((a, K, rho ** rng.random()))
        points += [(1.0, -1.0, rng.uniform(0.0, math.tanh(0.5 * PA._DISK_ETA_MAX))) for _ in range(200)]
        for a, K, r in points:
            assert _dpsi_at(a, K)(r).hex() == formula(a, K, r).hex(), (a, K, r)


class TestAnnulusOracle:
    def test_dual_oracle_grid(self):
        for a in (0.5, 1.0, 2.0):
            for K in (2.0, 5.0, 10.0):
                got = pa_annulus_numeric(a, K)
                want = annulus_ratio_closed_form(a, K)
                assert abs(got.total - want) <= 1e-10, (a, K)

    def test_area_term_against_antiderivative(self):
        for a in (0.5, 1.0, 2.0):
            for K in (2.0, 5.0, 10.0):
                got = pa_annulus_numeric(a, K)
                assert abs(got.area_term - _area_term_closed_form(a, K)) <= 1e-9, (a, K)

    def test_frozen_raw_integral(self):
        # integral of psi'(r)^2 r dr over [5^(-1/4), 1] at (a,K) = (2,5)
        got = pa_annulus_numeric(2.0, 5.0)
        assert abs(-6.0 * got.area_term - 1.266250722111411143107) <= 1e-11

    def test_boundary_normal_term_value(self):
        a, K = 2.0, 5.0
        got = pa_annulus_numeric(a, K)
        want = -0.5 + (0.5 + 0.5 * a - a / (K + 1.0))
        assert abs(got.boundary_normal_terms - want) <= 1e-15

    def test_breakdown_additivity(self):
        got = pa_annulus_numeric(1.0, 3.0)
        parts = math.fsum(
            (got.area_term, got.boundary_curvature_terms, got.boundary_normal_terms)
        )
        assert got.total == parts

    def test_rejects_gluing_regime_violations(self):
        for K in (1.0, 0.9, 0.0, -0.5):
            with pytest.raises(ValueError):
                pa_annulus_numeric(1.0, K)
        with pytest.raises(ValueError):
            pa_annulus_numeric(0.0, 2.0)

    def test_inner_radius_out_of_reach_names_a_and_K(self):
        # K^(-1/2a) underflows, overflows psi'(r)^2, or rounds to 1; the
        # last three put it between 1e-154 and 1e-100, where the seed panels
        # still meet the budget, and are refused all the same
        for a, K in (
            (1e-3, 10.0),
            (0.01, 1e300),
            (0.5, 1e300),
            (10.0, 1.0 + 1e-15),
            (1.0, 1e300),
            (0.3981071705534972, 1e113),
            (0.001995262314968879, 3.1622776601683795),
        ):
            with pytest.raises(ValueError, match=r"^a and K must put the inner radius"):
                pa_annulus_numeric(a, K)

    @pytest.mark.parametrize(
        "a, K, prefix",
        [
            # past a = 1000
            (3981.0717055349733, 3.1622776601683794e78, "a must be finite and in [1e-300, 1000]"),
            (1e4, 3.1622776601683794e21, "a must be finite and in [1e-300, 1000]"),
            # past K = 1e300; at the first, 2aK overflows psi'
            (1.7782794100389228, 1e308, "K must be finite and in (1, 1e+300]"),
            (1.2589254117941673, 1e305, "K must be finite and in (1, 1e+300]"),
        ],
    )
    def test_a_or_K_outside_the_box_is_named(self, a, K, prefix):
        with pytest.raises(ValueError) as exc:
            pa_annulus_numeric(a, K)
        assert str(exc.value).startswith(prefix), str(exc.value)

    def test_box_edges_meet_the_budget(self):
        for a, K in _BOX_EDGES:
            got = pa_annulus_numeric(a, K)
            assert abs(got.total - annulus_ratio_closed_form(a, K)) <= 1e-10, (a, K)

    def test_integrand_is_dpsi_squared_times_r(self, monkeypatch):
        # the annulus integrand skips the checks of CurvedDiskGeometry.dpsi
        # but keeps its arithmetic, bit for bit; d * d, since pow(d, 2) from
        # the C library can differ from it in the last bit.  The cap
        # integrates in the geodesic radius s, r = tanh(s/2), so its
        # integrand is psi'(r)^2 r dr/ds of the Poincare metric at (1, -1),
        # which the record rejects, with dr/ds = (1 - r^2)/2.  Up to s = 3
        # they agree within 16 ulps: the rounding of r = tanh(s/2) enters
        # r^3 / (1 - r^2) times 3 + 2 r^2 / (1 - r^2), at most 12 there
        # (the worst of 200,000 points was 9.1).  r = 0 is left out: psi'
        # divides by r, and no Gauss-Kronrod node lies on an end point
        seen = []

        def capture(f, points):
            seen.append((f, points[0], points[-1]))
            return 0.0, 0.0

        monkeypatch.setattr(PA, "adaptive_quadrature", capture)
        rng = random.Random(7)
        for a, K in ((0.5, 2.0), (1.0, 5.0), (2.0, 10.0), (0.05, 1.5), (7.0, 1e6), (0.3, 1e4)):
            seen.clear()
            pa_annulus_numeric(a, K)
            ((f, lo, hi),) = seen
            dpsi = CurvedDiskGeometry(a, K).dpsi
            for r in [lo, hi, *(rng.uniform(lo, hi) for _ in range(300))]:
                d = dpsi(r)
                assert f(r) == d * d * r, (a, K, r)
        cap_dpsi = _dpsi_at(1.0, -1.0)
        for eta in (0.5, 1.0, 3.0, 7.5):
            seen.clear()
            pa_disk_numeric(eta)
            ((f, lo, hi),) = seen
            assert (lo, hi) == (0.0, eta)
            top = min(hi, 3.0)
            for s in [top, *(rng.uniform(lo, top) for _ in range(300))]:
                r = math.tanh(0.5 * s)
                want = cap_dpsi(r) ** 2 * r * (1.0 - r * r) / 2.0
                assert abs(f(s) - want) <= 16 * 2.0**-52 * want, (eta, s)


    def test_seeded_box_scan(self):
        # every 51st point of the seed-6 sample and the box edges: the seed
        # panels, one per unit of -log rho, meet the budget with no
        # QuadratureError, and each total lies within 3.7e-11 of the closed
        # form, README's figure for the whole sample
        points = _box_sample()
        assert len(points) == 20586
        for a, K in points[::51] + _BOX_EDGES:
            got = pa_annulus_numeric(a, K)
            assert abs(got.total - annulus_ratio_closed_form(a, K)) <= 3.7e-11, (a, K)


class TestDiskOracle:
    def test_total_matches_cap_minus_flat(self):
        for eta in (0.5, 1.0, 3.0):
            got = pa_disk_numeric(eta)
            want = logdet_poincare_cap(eta) - logdet_flat_disk(math.tanh(0.5 * eta))
            assert abs(got.total - want) <= 1e-10, eta

    def test_frozen_raw_area_integral(self):
        # integral of 4 r^3 (1-r^2)^(-2) dr from 0 to tanh(1/2)
        got = pa_disk_numeric(1.0)
        assert abs(-6.0 * got.area_term - 0.06262260698213367995085) <= 1e-12

    def test_area_integral_antiderivative(self):
        # antiderivative 2 (log(1-r^2) + 1/(1-r^2) - 1)
        for eta in (0.5, 1.0, 3.0):
            T = math.tanh(0.5 * eta)
            s2 = 1.0 - T * T
            want = 2.0 * (math.log(s2) + 1.0 / s2 - 1.0)
            got = pa_disk_numeric(eta)
            assert abs(-6.0 * got.area_term - want) <= 1e-11, eta

    def test_curvature_term_closed_form(self):
        # -(1/3)(log 2 - log(1 - tanh^2(eta/2)))
        for eta in (0.5, 2.0):
            s2 = 2.0 / (1.0 + math.cosh(eta))
            want = -(math.log(2.0) - math.log(s2)) / 3.0
            got = pa_disk_numeric(eta)
            assert abs(got.boundary_curvature_terms - want) <= 1e-15, eta

    def test_seeded_radius_scan(self):
        # 300 log-uniform eta in [1e-250, 7.5] (seed 6): each total lies
        # within the CLI's bar of the closed forms, 2e-14 (1 + |v|)
        rng = random.Random(6)
        lo, hi = math.log(1e-250), math.log(PA._DISK_ETA_MAX)
        for _ in range(300):
            eta = math.exp(rng.uniform(lo, hi))
            want = logdet_poincare_cap(eta) - logdet_flat_disk(math.tanh(0.5 * eta))
            assert abs(pa_disk_numeric(eta).total - want) <= 2e-14 * (1.0 + abs(want)), eta

    def test_validation(self):
        with pytest.raises(ValueError):
            pa_disk_numeric(0.0)
        with pytest.raises(ValueError):
            pa_disk_numeric(800.0)

    def test_edge_rounding_to_one_names_eta(self):
        for eta in (40.0, 700.0):
            with pytest.raises(ValueError, match=r"^eta must be finite and in \[1e-300, 7.5\]"):
                pa_disk_numeric(eta)


def test_identity_grid_takes_one_pass_of_its_seed_panels(count_evals):
    # on the verify_identities grid each oracle meets abs_tol on its seed
    # panels, 25 evaluations each, with no bisection: the annulus has one
    # panel per unit of -log rho, the cap one panel in the geodesic radius
    calls = count_evals(PA)
    for a in (0.5, 1.0, 2.0):
        for K in (2.0, 5.0, 10.0):
            pa_annulus_numeric(a, K)
    for eta in (0.5, 1.0, 3.0):
        pa_disk_numeric(eta)
    assert calls == [25, 50, 75, 25, 25, 50, 25, 25, 25] + [25] * 3
    assert sum(calls) == 400


class TestBreakdownType:
    def test_total_sums_exactly(self):
        b = PAIntegralBreakdown(0.1, 0.2, 0.3)
        assert b.total == math.fsum((0.1, 0.2, 0.3))

    def test_inconsistent_total_rejected(self):
        # total is derived, so there is no field to set against the terms
        with pytest.raises(TypeError):
            PAIntegralBreakdown(0.1, 0.2, 0.3, 0.7)
        assert "total" not in PAIntegralBreakdown.__slots__
