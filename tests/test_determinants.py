import math

import mp_oracle
import pytest
from hypothesis import given, settings, strategies as st

import conedet.determinants as determinants
import conedet.pa_oracle as pa_oracle
import conedet.special_functions as SF
from conedet.determinants import (
    ConeGeometry,
    CurvedDiskGeometry,
    IdentityReport,
    annulus_ratio_closed_form,
    curvature_from_radius,
    fp_asymptotics_reference,
    logdet_flat_disk,
    logdet_hyperbolic_cone,
    logdet_orbifold_cone,
    logdet_poincare_cap,
    rescale_logdet,
    small_eta_asymptotics,
    verify_identities,
    zeta0_spindle,
    zeta0_unit_disk_cone,
    zeta_prime0_spherical_cone,
    zeta_prime0_spindle,
    zeta_prime0_unit_disk_cone,
)
from conedet.pa_oracle import PAIntegralBreakdown
from conedet.special_functions import LOG_2PI, EvalResult

ZP1 = SF._ZETA_PRIME_MINUS_ONE

EXPECTED_IDENTITIES = [
    "a1-arithmetic-check",
    "a1-poincare-cap",
    "annulus-composition",
    "asymptotics-ratio",
    "asymptotics-residual",
    "barnes-bridge",
    "bfk-gluing",
    "curvature-continuity",
    "disk-cone-reconstruction",
    "flat-limit",
    "fp-discrepancy-constant",
    "fp-discrepancy-nonzero",
    "grad-quadrature-agreement",
    "orbifold-equality",
    "pa-annulus-dual-oracle",
    "pa-disk-consistency",
    "spindle-rescale",
    "symmetry-zeta0",
]


class TestGeometryTypes:
    def test_cone_geometry_validation(self):
        ConeGeometry(0.5, 1.0)
        with pytest.raises(ValueError):
            ConeGeometry(0.0, 1.0)
        with pytest.raises(ValueError):
            ConeGeometry(-1.0, 1.0)
        with pytest.raises(ValueError):
            ConeGeometry(1.0, 0.0)
        with pytest.raises(ValueError):
            ConeGeometry(1.0, math.inf)
        with pytest.raises(ValueError):
            ConeGeometry(1.0, 1e3)  # past the cosh overflow bound

    def test_disk_geometry_validation(self):
        CurvedDiskGeometry(1.0, -0.5)
        CurvedDiskGeometry(1.0, 0.0)
        with pytest.raises(ValueError):
            CurvedDiskGeometry(0.0, 0.0)
        with pytest.raises(ValueError):
            CurvedDiskGeometry(1.0, -1.0)
        with pytest.raises(ValueError):
            CurvedDiskGeometry(1.0, math.nan)

    def test_frozen(self):
        g = ConeGeometry(1.0, 1.0)
        with pytest.raises(Exception):
            g.a = 2.0


class TestCurvatureFromRadius:
    def test_inverse_relation(self):
        # eta = 2 atanh sqrt(|K|) inverts it
        eta = 2.0 * math.atanh(0.5)
        assert abs(curvature_from_radius(eta) + 0.25) <= 1e-15

    def test_range(self):
        for eta in (1e-6, 0.1, 1.0, 10.0, 30.0):
            K = curvature_from_radius(eta)
            assert -1.0 < K < 0.0

    def test_limits(self):
        assert curvature_from_radius(1e-8) > -1e-15
        # binary64 saturates: tanh^2(eta/2) rounds to 1 for eta ~ 38 and up
        assert curvature_from_radius(50.0) == -1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            curvature_from_radius(0.0)
        with pytest.raises(ValueError):
            curvature_from_radius(-2.0)


class TestHyperbolicCone:
    def test_frozen_value_via_orbifold_point(self):
        res = logdet_hyperbolic_cone(ConeGeometry(0.5, 1.0))
        assert abs(res.value + 0.4746636637854534485710) <= 5e-13
        assert res.formula_tag == "hyperbolic-cone"
        assert res.abs_err > 0.0

    def test_requires_geometry_type(self):
        with pytest.raises(ValueError):
            logdet_hyperbolic_cone((0.5, 1.0))

    def test_error_propagates_quadrature(self):
        res = logdet_hyperbolic_cone(ConeGeometry(2.0, 1.0))
        assert res.abs_err < 1e-10

    def test_overflow_names_a_and_eta(self):
        # the error-bar sum raised a bare OverflowError from fsum
        with pytest.raises(ValueError, match=r"^a and eta put .* got a = 1e\+306, eta = 600.0$"):
            logdet_hyperbolic_cone(ConeGeometry(1e306, 600.0))


class TestOrbifoldCone:
    def test_frozen_values(self):
        assert abs(logdet_orbifold_cone(2, 1.0).value + 0.4746636637854534485710) <= 1e-13
        assert abs(logdet_orbifold_cone(5, 0.5).value - 0.8117345370079251463671) <= 1e-13

    def test_w1_equals_poincare_cap(self):
        for eta in (0.2, 1.0, 3.0):
            assert abs(logdet_orbifold_cone(1, eta).value - logdet_poincare_cap(eta)) <= 1e-13

    def test_matches_barnes_route(self):
        for w in (2, 3, 7, 12):
            got = logdet_hyperbolic_cone(ConeGeometry(1.0 / w, 0.7)).value
            assert abs(got - logdet_orbifold_cone(w, 0.7).value) <= 1e-8, w

    def test_large_w(self):
        assert math.isfinite(logdet_orbifold_cone(200, 1.0).value)

    def test_validation(self):
        with pytest.raises(ValueError):
            logdet_orbifold_cone(0, 1.0)
        with pytest.raises(ValueError):
            logdet_orbifold_cone(201, 1.0)
        with pytest.raises(ValueError):
            logdet_orbifold_cone(2.0, 1.0)
        with pytest.raises(ValueError):
            logdet_orbifold_cone(2, -1.0)


class TestAsymptotics:
    def test_residual_small_eta(self):
        for w in range(1, 6):
            res = logdet_orbifold_cone(w, 1e-3).value - small_eta_asymptotics(w, 1e-3)
            assert abs(res) <= 1e-4, w
        # w=1 bound from the quadratic residual coefficient
        res1 = logdet_orbifold_cone(1, 1e-3).value - small_eta_asymptotics(1, 1e-3)
        assert abs(res1) <= 1e-5

    def test_residual_is_the_eta_squared_term(self):
        # c2 from log tanh(eta/2) and cosh eta through eta^2; what is left
        # is O(eta^4): at most 2.7e-12 over these points, while c2 eta^2
        # itself is up to 3.1e-7, far above verify's 1e-10
        for w in range(1, 201):
            c2 = (w + 1.0 / w) / 72.0 - 1.0 / (3.0 * w)
            for eta in (1e-3, 2e-3):
                res = logdet_orbifold_cone(w, eta).value - small_eta_asymptotics(w, eta)
                assert abs(res - c2 * eta * eta) <= 1e-11, (w, eta)
        report = {r.identity_name: r for r in verify_identities()}["asymptotics-residual"]
        assert report.tolerance == 1e-10
        assert report.abs_diff <= 1e-13

    def test_residual_quadratic_decay(self):
        for w in range(1, 6):
            r1 = logdet_orbifold_cone(w, 1e-3).value - small_eta_asymptotics(w, 1e-3)
            r2 = logdet_orbifold_cone(w, 2e-3).value - small_eta_asymptotics(w, 2e-3)
            assert 0.2 <= r1 / r2 <= 0.3, w

    def test_fp_discrepancy_eta_independent(self):
        for w in range(1, 6):
            d1 = fp_asymptotics_reference(w, 1e-3) - small_eta_asymptotics(w, 1e-3)
            d2 = fp_asymptotics_reference(w, 0.5) - small_eta_asymptotics(w, 0.5)
            assert abs(d1 - d2) <= 1e-10, w

    def test_fp_discrepancy_frozen_values(self):
        d1 = fp_asymptotics_reference(1, 0.01) - small_eta_asymptotics(1, 0.01)
        d5 = fp_asymptotics_reference(5, 0.01) - small_eta_asymptotics(5, 0.01)
        assert abs(d1 - 0.2443846809) <= 1e-9
        assert abs(d5 - 0.2499470874) <= 1e-9

    def test_fp_discrepancy_is_the_stirling_remainder_sum(self):
        # the published expansion differs from the closed form's by
        # 1/4 + 2 S(1/w), with S(a) = sum_{n>=1} R(n/a) over the Stirling
        # remainder R(nu) = mu(nu) - 1/(12 nu), here summed by mpmath; the
        # difference is free of eta, so one radius serves
        for w in (1, 2, 3, 5, 12, 200):
            want = 0.25 + 2.0 * float(mp_oracle.stirling_remainder_sum(1.0 / w))
            got = fp_asymptotics_reference(w, 0.3) - small_eta_asymptotics(w, 0.3)
            assert abs(got - want) <= 2e-15 * (1.0 + w), w

    def test_fp_shares_leading_log_term(self):
        # both expansions carry the same -(w/6 + 1/(6w)) log eta term, so
        # eta-differences agree to roundoff
        for w in (1, 3, 5):
            mine = small_eta_asymptotics(w, 1e-3) - small_eta_asymptotics(w, 1e-2)
            fp = fp_asymptotics_reference(w, 1e-3) - fp_asymptotics_reference(w, 1e-2)
            assert abs(mine - fp) <= 1e-12 * (1.0 + abs(mine))

    def test_validation(self):
        with pytest.raises(ValueError):
            small_eta_asymptotics(0, 0.1)
        with pytest.raises(ValueError):
            small_eta_asymptotics(1, 0.0)
        with pytest.raises(ValueError):
            fp_asymptotics_reference(-1, 0.1)


class TestSpindle:
    def test_unit_sphere_value(self):
        # a=1, K=1 is the round sphere with the zero mode removed
        res = zeta_prime0_spindle(1.0, 1.0)
        assert abs(res.value - (4.0 * ZP1 - 0.5)) <= 1e-12
        assert res.formula_tag == "spindle-zeta-prime0"

    def test_zeta0_values(self):
        assert abs(zeta0_spindle(1.0) + 2.0 / 3.0) <= 1e-15
        assert abs(zeta0_spindle(3.0) + 4.0 / 9.0) <= 1e-15

    def test_zeta0_symmetry_exact(self):
        for a in (0.5, 0.25, 0.125):
            assert zeta0_spindle(a) == zeta0_spindle(1.0 / a)

    def test_rescaling_consistency(self):
        for a in (0.5, 1.0, 2.0, 5.0):
            for K in (0.5, 2.0, 7.0):
                direct = zeta_prime0_spindle(a, K).value
                scaled = rescale_logdet(zeta_prime0_spindle(a, 1.0).value, zeta0_spindle(a), K)
                assert abs(direct - scaled) <= 1e-12, (a, K)

    def test_validation(self):
        with pytest.raises(ValueError):
            zeta_prime0_spindle(1.0, 0.0)
        with pytest.raises(ValueError):
            zeta_prime0_spindle(1.0, -2.0)
        with pytest.raises(ValueError):
            zeta0_spindle(0.0)


class TestSphericalCone:
    def test_hemisphere_value(self):
        res = zeta_prime0_spherical_cone(1.0, 1.0)
        want = 2.0 * ZP1 - 0.25 + 0.5 * LOG_2PI
        assert abs(res.value - want) <= 1e-12
        assert abs(res.value - 0.3380962458037708833525) <= 1e-12

    def test_bfk_gluing_identity(self):
        for a in (0.2, 0.5, 1.0, 2.0, 5.0):
            for K in (0.5, 1.0, 2.0):
                lhs = -zeta_prime0_spindle(a, K).value
                rhs = (
                    math.log(4.0 * math.pi * a / K)
                    - 2.0 * zeta_prime0_spherical_cone(a, K).value
                    - math.log(2.0)
                )
                assert abs(lhs - rhs) <= 1e-9, (a, K)

    def test_validation(self):
        with pytest.raises(ValueError):
            zeta_prime0_spherical_cone(1.0, -1.0)


class TestUnitDiskCone:
    def test_flat_point_value(self):
        res = zeta_prime0_unit_disk_cone(CurvedDiskGeometry(1.0, 0.0))
        want = 2.0 * ZP1 + 5.0 / 12.0 + 0.5 * LOG_2PI
        assert abs(res.value - want) <= 1e-12
        assert res.formula_tag == "disk-cone-zeta-prime0"

    def test_flat_limit_is_radius_two_disk(self):
        got = zeta_prime0_unit_disk_cone(CurvedDiskGeometry(1.0, 0.0)).value
        assert abs(got + logdet_flat_disk(2.0)) <= 1e-9

    def test_requires_geometry_type(self):
        with pytest.raises(ValueError, match=r"^g must be a CurvedDiskGeometry$"):
            zeta_prime0_unit_disk_cone((0.5, 0.0))

    def test_K_dependence_is_single_term(self):
        for a in (0.5, 1.0, 3.0):
            for K1, K2 in ((0.0, 1.0), (-0.5, 2.0), (5.0, -0.9)):
                d = (
                    zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, K1)).value
                    - zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, K2)).value
                )
                want = 4.0 / 3.0 * a * (1.0 / (K1 + 1.0) - 1.0 / (K2 + 1.0))
                assert abs(d - want) <= 1e-12 * (1.0 + abs(want)), (a, K1, K2)

    def test_continuity_across_zero_curvature(self):
        for a in (0.5, 1.0, 2.0):
            up = zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, 1e-8)).value
            dn = zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, -1e-8)).value
            assert abs(up - dn) <= 1e-7, a
            # zeta' is smooth in K, so the value at K = 0 is the mean of its
            # neighbours to rounding: what verify's curvature-continuity holds
            zero = zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, 0.0)).value
            assert abs(zero - 0.5 * (up + dn)) <= 1e-14, a

    def test_zeta0_values(self):
        assert abs(zeta0_unit_disk_cone(1.0) - 1.0 / 6.0) <= 1e-15
        assert abs(zeta0_unit_disk_cone(2.0) - 5.0 / 24.0) <= 1e-15
        for a in (0.5, 0.25):
            assert zeta0_unit_disk_cone(a) == zeta0_unit_disk_cone(1.0 / a)


class TestFlatDisk:
    def test_frozen_value(self):
        assert abs(logdet_flat_disk(1.0) + 0.7737138522837891135467) <= 1e-13

    def test_scaling_in_radius(self):
        for r, C in ((1.0, 2.0), (0.5, 3.0), (2.0, 10.0)):
            got = logdet_flat_disk(C * r)
            want = logdet_flat_disk(r) - math.log(C) / 3.0
            assert abs(got - want) <= 1e-13, (r, C)

    def test_rescale_operator_view(self):
        # C^{-1} Delta on radius 1 is Delta on radius sqrt(C); zeta0 = 1/6
        got = rescale_logdet(logdet_flat_disk(1.0), 1.0 / 6.0, 4.0)
        assert abs(got - logdet_flat_disk(2.0)) <= 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            logdet_flat_disk(0.0)


class TestPoincareCap:
    def test_frozen_values(self):
        assert abs(logdet_poincare_cap(1.0) + 1.109504391378831827314) <= 1e-13
        assert abs(logdet_poincare_cap(3.0) + 7.016652065483466896223) <= 1e-13

    def test_agrees_with_hyperbolic_cone_at_a1(self):
        for eta in (0.1, 0.5, 1.0, 2.0, 5.0):
            got = logdet_hyperbolic_cone(ConeGeometry(1.0, eta)).value
            assert abs(got - logdet_poincare_cap(eta)) <= 1e-9, eta

    def test_divergence_rate(self):
        # value ~ -(2/3) cosh eta + O(1) as eta grows
        for eta in (5.0, 10.0, 20.0):
            assert abs(logdet_poincare_cap(eta) + 2.0 / 3.0 * math.cosh(eta)) <= 1.0

    def test_large_eta_stays_finite(self):
        assert math.isfinite(logdet_poincare_cap(700.0))
        with pytest.raises(ValueError):
            logdet_poincare_cap(701.0)


SMALL_ETAS = (1e-8, 1e-12, 1e-17, 1e-300)


class TestSmallRadius:
    """log tanh(eta/2) must not cancel as eta -> 0: every value stays within
    its claimed error bar of a 40-digit evaluation of the same closed form,
    from mp_oracle."""

    @pytest.mark.parametrize("w", (2, 3))
    @pytest.mark.parametrize("eta", SMALL_ETAS)
    def test_orbifold_within_abs_err(self, w, eta):
        res = logdet_orbifold_cone(w, eta)
        assert abs(res.value - float(mp_oracle.orbifold(w, eta))) <= res.abs_err

    @pytest.mark.parametrize("w", (2, 3))
    @pytest.mark.parametrize("eta", SMALL_ETAS)
    def test_hyperbolic_at_orbifold_angle_within_abs_err(self, w, eta):
        res = logdet_hyperbolic_cone(ConeGeometry(1.0 / w, eta))
        assert abs(res.value - float(mp_oracle.orbifold(w, eta))) <= res.abs_err

    @pytest.mark.parametrize("eta", SMALL_ETAS)
    def test_poincare_cap_within_cli_bound(self, eta):
        value = logdet_poincare_cap(eta)
        assert abs(value - float(mp_oracle.poincare_cap(eta))) <= 2e-14 * (1.0 + abs(value))

    @settings(max_examples=60, deadline=None)
    @given(w=st.integers(1, 200), log_eta=st.floats(math.log(1e-300), math.log(700.0)))
    def test_orbifold_finite_on_whole_domain(self, w, log_eta):
        eta = min(max(math.exp(log_eta), 1e-300), 700.0)
        res = logdet_orbifold_cone(w, eta)
        assert math.isfinite(res.value) and math.isfinite(res.abs_err)


class TestRescaleLogdet:
    def test_identity_at_C1(self):
        assert rescale_logdet(1.234, 0.5, 1.0) == 1.234

    def test_validation(self):
        with pytest.raises(ValueError):
            rescale_logdet(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            rescale_logdet(1.0, 0.5, -2.0)
        with pytest.raises(ValueError):
            rescale_logdet(math.inf, 0.5, 2.0)

    def test_overflow_names_every_parameter(self):
        for logdet, zeta0 in ((1e308, -1e308), (-1e308, 1e308)):
            with pytest.raises(ValueError, match=r"^logdet, zeta0 and C put"):
                rescale_logdet(logdet, zeta0, 1e300)


class TestAnnulusRatio:
    def test_a1_reduction(self):
        for K in (1.5, 2.0, 10.0):
            want = 2.0 / 3.0 - 4.0 / 3.0 / (K + 1.0)
            assert abs(annulus_ratio_closed_form(1.0, K) - want) <= 1e-15, K

    def test_frozen_value(self):
        assert abs(annulus_ratio_closed_form(2.0, 5.0) - 0.6877091498346263420638) <= 1e-14

    def test_rejects_gluing_regime_boundary(self):
        for K in (1.0, 0.5, 0.0, -2.0):
            with pytest.raises(ValueError):
                annulus_ratio_closed_form(1.0, K)


class TestIdentityReport:
    def test_passed_is_derived(self):
        rep = IdentityReport("x", 1.0, 1.0 + 1e-12, 1e-8)
        assert rep.passed and rep.abs_diff == abs(1.0 - (1.0 + 1e-12))
        rep = IdentityReport("x", 1.0, 2.0, 1e-8)
        assert not rep.passed and rep.abs_diff == 1.0
        assert not IdentityReport("x", math.nan, 1.0, 1e-8).passed

    def test_consistency_enforced(self):
        # abs_diff and passed are derived, so no stored copy can disagree
        with pytest.raises(TypeError):
            IdentityReport("x", 1.0, 2.0, 1.0, 1e-8, True)
        assert list(IdentityReport.__slots__) == [
            "identity_name",
            "lhs",
            "rhs",
            "tolerance",
        ]
        with pytest.raises(ValueError):
            IdentityReport("", 1.0, 1.0, 1e-8)


class TestVerifyIdentities:
    def test_all_pass_at_default_tolerance(self):
        reports = verify_identities()
        assert [r.identity_name for r in reports] == EXPECTED_IDENTITIES
        failed = [r.identity_name for r in reports if not r.passed]
        assert failed == []

    def test_deterministic(self):
        a = verify_identities()
        b = verify_identities()
        assert [(r.identity_name, r.abs_diff) for r in a] == [
            (r.identity_name, r.abs_diff) for r in b
        ]

    def test_strict_tolerance_fails_quadrature_backed_identities(self):
        reports = verify_identities(tol=1e-16)
        failed = {r.identity_name for r in reports if not r.passed}
        assert "barnes-bridge" in failed
        assert "disk-cone-reconstruction" in failed
        # the anomaly oracles agree with their closed forms to rounding, so
        # they are held to the global knob like every other such identity
        assert "pa-annulus-dual-oracle" in failed
        assert "pa-disk-consistency" in failed
        # only the asymptotic identities, whose residuals are remainders of
        # an expansion, keep a tolerance of their own
        assert "asymptotics-residual" not in failed
        assert "asymptotics-ratio" not in failed

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-12])
    def test_one_tolerance_rule(self, tol):
        own = {"asymptotics-residual": 1e-10, "asymptotics-ratio": 0.05}
        for r in verify_identities(tol=tol):
            assert r.tolerance == own.get(r.identity_name, tol), r

    def test_tol_validation(self):
        for bad in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError):
                verify_identities(tol=bad)

    def test_one_barnes_quadrature_per_distinct_angle(self, count_evals):
        # the distinct angles verify asks for: its a grid, 1/w for w = 1..12
        # and the reflection pairs.  Those inside the quadrature window, 1/w
        # for w = 1..4, 2 and 4, take one quadrature each; the rest take the
        # series.  barnes-bridge reuses the cached values, and a warm call
        # runs none
        angles = {0.2, 0.5, 1.0, 2.0, 4.0, 5.0, *(1.0 / w for w in range(1, 13))}
        edge = SF._SERIES_EDGE
        calls = count_evals(SF)
        determinants._barnes_a11.cache_clear()
        verify_identities()
        assert determinants._barnes_a11.cache_info().misses == len(angles)
        assert len(calls) == sum(1.0 / edge < a < edge for a in angles) == 6
        verify_identities()
        assert len(calls) == 6

    def test_each_shared_input_is_taken_once_per_pass(self, monkeypatch):
        # a warm pass takes the curvature of each radius, zeta(0) of each
        # angle, the expansion at eta = 1e-3, the spindle at K = 1,
        # logdet_flat_disk(1.0) and each annulus ratio once; verify looks
        # every name up when it calls it, so a wrapper counts every call
        want = {
            "curvature_from_radius": 5,
            "zeta0_unit_disk_cone": 11,
            "small_eta_asymptotics": 15,
            "zeta_prime0_spindle": 21,
            "zeta0_spindle": 10,
            "logdet_flat_disk": 14,
            "annulus_ratio_closed_form": 9,
            "pa_annulus_numeric": 9,
            "pa_disk_numeric": 3,
            "logdet_hyperbolic_cone": 66,
            "zeta_prime0_unit_disk_cone": 44,
            "logdet_orbifold_cone": 46,
        }
        plain = verify_identities()
        counts = dict.fromkeys(want, 0)

        def counted(name, f):
            def g(*args):
                counts[name] += 1
                return f(*args)

            return g

        for name in want:
            module = pa_oracle if name.startswith("pa_") else determinants
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert verify_identities() == plain
        assert counts == want

    def test_one_gamma_sum_per_run_of_one_order(self):
        # the orbifold loop asks for each order w = 1..12 in one run; the
        # last-order memo computes its log-gamma sum once per run, 12 runs
        verify_identities()
        misses = SF._orbifold_gamma_sum.cache_info().misses
        warm = verify_identities()
        assert SF._orbifold_gamma_sum.cache_info().misses - misses == 12
        SF._orbifold_gamma_sum.cache_clear()
        assert verify_identities() == warm

    def test_mutation_is_detected(self, monkeypatch):
        # a perturbed constant must break at least one identity
        monkeypatch.setattr(determinants, "_HALF_LOG_2PI", SF._HALF_LOG_2PI + 0.03)
        reports = verify_identities()
        assert any(not r.passed for r in reports)


# One route at a time, shifted by 5e-8: five times the default tol, so a
# route fails every identity it feeds, while a looser tolerance on one
# identity, such as 1e-7, would hide the shift.  Each row is a route, how it
# is shifted, and the exact set of identities that then fail.  A change that
# merges two routes, or stops an identity using one, changes a row, and must
# say so.
ROUTE_SHIFT = 5e-8


def _plus(f):
    return lambda *args: f(*args) + ROUTE_SHIFT


def _plus_value(f):
    def shifted(*args):
        r = f(*args)
        return EvalResult(r.value + ROUTE_SHIFT, r.abs_err, r.formula_tag)

    return shifted


def _plus_area(f):
    def shifted(*args):
        b = f(*args)
        return PAIntegralBreakdown(b.area_term + ROUTE_SHIFT, b.boundary_curvature_terms, b.boundary_normal_terms)

    return shifted


ROUTE_TABLE = [
    (determinants, "_barnes_a11", _plus_value, {"a1-poincare-cap", "barnes-bridge", "flat-limit", "orbifold-equality"}),
    (determinants, "_orbifold_gamma_sum", _plus, {"orbifold-equality"}),
    (determinants, "logdet_poincare_cap", _plus, {"a1-poincare-cap", "pa-disk-consistency"}),
    (determinants, "logdet_flat_disk", _plus, {"flat-limit", "pa-disk-consistency"}),
    (determinants, "annulus_ratio_closed_form", _plus, {"annulus-composition", "pa-annulus-dual-oracle"}),
    (pa_oracle, "pa_annulus_numeric", _plus_area, {"grad-quadrature-agreement", "pa-annulus-dual-oracle"}),
    (pa_oracle, "pa_disk_numeric", _plus_area, {"pa-disk-consistency"}),
    (determinants, "_HALF_LOG_2PI", lambda v: v + ROUTE_SHIFT, {"bfk-gluing", "orbifold-equality"}),
    # the fp-discrepancy identities compare the reference with itself at two
    # radii, so a constant shift cancels; the reference is pinned by
    # TestAsymptotics, by its frozen values and by the mpmath sum in
    # test_fp_discrepancy_is_the_stirling_remainder_sum
    (determinants, "fp_asymptotics_reference", _plus, set()),
]


@pytest.mark.parametrize("module, name, shift, fails", ROUTE_TABLE, ids=[row[1] for row in ROUTE_TABLE])
def test_each_route_feeds_exactly_these_identities(monkeypatch, module, name, shift, fails):
    clean = verify_identities()
    sizes = determinants._barnes_a11.cache_info().currsize, SF._orbifold_gamma_sum.cache_info().currsize
    with monkeypatch.context() as patch:
        patch.setattr(module, name, shift(getattr(module, name)))
        failed = {r.identity_name for r in verify_identities() if not r.passed}
    assert failed == fails
    # the shifts wrap the cached functions, so neither cache holds a
    # shifted value afterwards: a warm run reads the caches
    assert (determinants._barnes_a11.cache_info().currsize, SF._orbifold_gamma_sum.cache_info().currsize) == sizes
    assert verify_identities() == clean


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.15, 6.0, allow_nan=False),
        eta=st.floats(0.05, 6.0, allow_nan=False),
    )
    def test_disk_cone_reconstruction(self, a, eta):
        lhs = logdet_hyperbolic_cone(ConeGeometry(a, eta)).value
        K = curvature_from_radius(eta)
        log_abs_K = 2.0 * (math.log1p(-math.exp(-eta)) - math.log1p(math.exp(-eta)))
        rhs = (
            -zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, K)).value
            - zeta0_unit_disk_cone(a) * log_abs_K
        )
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.2, 5.0, allow_nan=False),
        K=st.floats(0.1, 20.0, allow_nan=False),
    )
    def test_spindle_rescale(self, a, K):
        direct = zeta_prime0_spindle(a, K).value
        scaled = rescale_logdet(zeta_prime0_spindle(a, 1.0).value, zeta0_spindle(a), K)
        assert abs(direct - scaled) <= 1e-11 * (1.0 + abs(direct))
