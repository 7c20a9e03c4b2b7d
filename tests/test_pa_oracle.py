import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import conedet.pa_oracle as PA
from conedet.determinants import annulus_ratio_closed_form, logdet_flat_disk, logdet_poincare_cap
from conedet.pa_oracle import (
    ConformalFactor,
    PAIntegralBreakdown,
    _area_term_closed_form,
    grad_psi_sq,
    pa_annulus_numeric,
    pa_disk_numeric,
)


class TestConformalFactor:
    def test_boundary_value(self):
        # psi(1) = log 2a - log(1+K) enters the outer curvature term
        cf = ConformalFactor(2.0, 5.0)
        assert abs(cf.psi(1.0) - (math.log(4.0) - math.log(6.0))) <= 1e-15

    def test_inner_radius_value(self):
        # at r = K^(-1/2a): psi = -(a-1)/(2a) log K + log 2a - log 2
        a, K = 2.0, 5.0
        rho = K ** (-1.0 / (2.0 * a))
        want = -(a - 1.0) / (2.0 * a) * math.log(K) + math.log(2.0 * a) - math.log(2.0)
        assert abs(ConformalFactor(a, K).psi(rho) - want) <= 1e-14

    def test_dpsi_matches_finite_differences(self):
        for a, K, r in ((1.0, 2.0, 0.5), (2.0, 5.0, 0.7), (0.5, 0.0, 0.3), (1.5, -0.5, 0.9)):
            cf = ConformalFactor(a, K)
            h = 1e-6 * r
            fd = (cf.psi(r + h) - cf.psi(r - h)) / (2.0 * h)
            assert abs(fd - cf.dpsi(r)) <= 1e-8 * (1.0 + abs(cf.dpsi(r))), (a, K, r)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.3, 3.0, allow_nan=False),
        K=st.floats(-0.5, 10.0, allow_nan=False),
        r=st.floats(0.05, 0.95, allow_nan=False),
    )
    def test_dpsi_derivative_property(self, a, K, r):
        cf = ConformalFactor(a, K)
        h = 1e-6 * r
        fd = (cf.psi(r + h) - cf.psi(r - h)) / (2.0 * h)
        assert abs(fd - cf.dpsi(r)) <= 1e-5 * (1.0 + abs(cf.dpsi(r)))

    def test_validation(self):
        with pytest.raises(ValueError):
            ConformalFactor(0.0, 1.0)
        with pytest.raises(ValueError):
            ConformalFactor(1.0, -1.0)
        cf = ConformalFactor(1.0, 1.0)
        with pytest.raises(ValueError):
            cf.psi(0.0)
        with pytest.raises(ValueError):
            cf.psi(1.5)
        with pytest.raises(ValueError):
            cf.dpsi(-0.2)


class TestGradPsiSq:
    def test_flat_smooth_metric_is_zero(self):
        for r in (0.1, 0.5, 0.99):
            assert grad_psi_sq(1.0, 0.0, r) == 0.0

    def test_zero_curvature_cone(self):
        for a in (0.5, 2.0, 3.0):
            for r in (0.2, 0.7):
                want = (a - 1.0) ** 2 / r**2
                assert abs(grad_psi_sq(a, 0.0, r) - want) <= 1e-14 * want

    def test_smooth_curved_metric(self):
        for K in (0.5, 2.0):
            for r in (0.3, 0.8):
                want = (2.0 * K * r / (1.0 + K * r * r)) ** 2
                assert abs(grad_psi_sq(1.0, K, r) - want) <= 1e-14 * (1.0 + want)


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
        # K^(-1/2a) underflows, overflows psi'(r)^2, or rounds to 1
        for a, K in ((1e-3, 10.0), (0.01, 1e300), (0.5, 1e300), (10.0, 1.0 + 1e-15)):
            with pytest.raises(ValueError, match=r"^a and K must put the inner radius"):
                pa_annulus_numeric(a, K)

    def test_integrand_is_dpsi_squared_times_r(self, monkeypatch):
        # the integrand skips the checks of ConformalFactor.dpsi but keeps
        # its arithmetic, bit for bit; d * d, since pow(d, 2) from the C
        # library can differ from it in the last bit
        seen = []

        def capture(f, points):
            seen.append((f, points[0]))
            return 0.0, 0.0

        monkeypatch.setattr(PA, "adaptive_quadrature", capture)
        rng = random.Random(7)
        for a, K in ((0.5, 2.0), (1.0, 5.0), (2.0, 10.0), (0.05, 1.5), (7.0, 1e6), (0.3, 1e4)):
            seen.clear()
            pa_annulus_numeric(a, K)
            ((f, rho),) = seen
            cf = ConformalFactor(a, K)
            for r in [rho, 1.0, *(rng.uniform(rho, 1.0) for _ in range(300))]:
                d = cf.dpsi(r)
                assert f(r) == d * d * r, (a, K, r)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            pa_disk_numeric(0.0)
        with pytest.raises(ValueError):
            pa_disk_numeric(800.0)

    def test_edge_rounding_to_one_names_eta(self):
        for eta in (40.0, 700.0):
            with pytest.raises(ValueError, match=r"^eta must be finite and in \[1e-300, 7.5\]"):
                pa_disk_numeric(eta)


def test_identity_grid_takes_one_pass_of_three_panels(count_evals):
    # on the verify_identities grid each oracle meets abs_tol on its seed
    # panels: 75 evaluations, no bisection
    calls = count_evals(PA)
    for a in (0.5, 1.0, 2.0):
        for K in (2.0, 5.0, 10.0):
            pa_annulus_numeric(a, K)
    for eta in (0.5, 1.0, 3.0):
        pa_disk_numeric(eta)
    assert calls == [75] * 12


class TestBreakdownType:
    def test_total_sums_exactly(self):
        b = PAIntegralBreakdown(0.1, 0.2, 0.3)
        assert b.total == math.fsum((0.1, 0.2, 0.3))

    def test_inconsistent_total_rejected(self):
        # total is derived, so there is no field to set against the terms
        with pytest.raises(TypeError):
            PAIntegralBreakdown(0.1, 0.2, 0.3, 0.7)
        assert "total" not in PAIntegralBreakdown.__slots__
