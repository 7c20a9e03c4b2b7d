"""Acceptance gate.

Each test is one release criterion, checked at its stated tolerance on its
stated grid.  A one-line verdict per criterion goes straight to the terminal
(bypassing capture) so a scan of the log shows the full scorecard.
"""

import json
import math
import time
from contextlib import contextmanager

import conedet.special_functions as SF
from conedet.cli import main
from conedet.determinants import (
    ConeGeometry,
    CurvedDiskGeometry,
    annulus_ratio_closed_form,
    curvature_from_radius,
    fp_asymptotics_reference,
    logdet_flat_disk,
    logdet_hyperbolic_cone,
    logdet_orbifold_cone,
    logdet_poincare_cap,
    small_eta_asymptotics,
    zeta0_unit_disk_cone,
    zeta_prime0_spherical_cone,
    zeta_prime0_spindle,
    zeta_prime0_unit_disk_cone,
)
from conedet.pa_oracle import pa_annulus_numeric, pa_disk_numeric
from conedet.special_functions import (
    LOG_2PI,
    BarnesArgs,
    barnes_zeta_prime0,
    barnes_zeta_prime0_orbifold,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
    log_gamma,
)

ETA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
A_GRID = (0.2, 0.5, 1.0, 2.0, 5.0)


@contextmanager
def verdict(name, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {name}: PASS")


def test_criterion_01_barnes_bridge(capsys):
    with verdict("barnes-bridge", capsys):
        start = time.perf_counter()
        for w in range(1, 13):
            integral = barnes_zeta_prime0(BarnesArgs(1.0 / w, 1.0, 1.0)).value
            closed = barnes_zeta_prime0_orbifold(w)
            assert abs(integral - closed) <= 1e-8, w
        assert time.perf_counter() - start < 5.0


def test_criterion_02_reconstruction_from_disk_cone(capsys):
    with verdict("disk-cone-reconstruction", capsys):
        for a in A_GRID:
            for eta in ETA_GRID:
                direct = logdet_hyperbolic_cone(ConeGeometry(a, eta)).value
                K = curvature_from_radius(eta)
                rebuilt = (
                    -zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, K)).value
                    - zeta0_unit_disk_cone(a) * math.log(abs(K))
                )
                assert abs(direct - rebuilt) <= 1e-9, (a, eta)


def test_criterion_03_orbifold_equality(capsys):
    with verdict("orbifold-equality", capsys):
        for w in range(1, 13):
            for eta in (0.1, 1.0, 3.0):
                general = logdet_hyperbolic_cone(ConeGeometry(1.0 / w, eta)).value
                gamma_form = logdet_orbifold_cone(w, eta).value
                assert abs(general - gamma_form) <= 1e-8, (w, eta)


def test_criterion_04_smooth_cap_closed_form(capsys):
    with verdict("smooth-cap-closed-form", capsys):
        for eta in ETA_GRID:
            general = logdet_hyperbolic_cone(ConeGeometry(1.0, eta)).value
            assert abs(general - logdet_poincare_cap(eta)) <= 1e-9, eta
            ch = math.cosh(eta)
            lhs = (3.0 - 8.0 * ch) / 12.0
            rhs = 11.0 / 12.0 - 2.0 / 3.0 * (1.0 + ch)
            assert abs(lhs - rhs) <= math.ulp(abs(lhs)), eta


def test_criterion_05_spindle_gluing(capsys):
    with verdict("spindle-gluing", capsys):
        for a in (0.5, 1.0, 2.0):
            for K in (0.5, 1.0, 2.0):
                whole = -zeta_prime0_spindle(a, K).value
                glued = (
                    math.log(4.0 * math.pi * a / K)
                    - 2.0 * zeta_prime0_spherical_cone(a, K).value
                    - math.log(2.0)
                )
                assert abs(whole - glued) <= 1e-9, (a, K)


def test_criterion_06_flat_limit(capsys):
    with verdict("flat-limit", capsys):
        flat_point = zeta_prime0_unit_disk_cone(CurvedDiskGeometry(1.0, 0.0)).value
        assert abs(flat_point + logdet_flat_disk(2.0)) <= 1e-9


def test_criterion_07_conformal_anomaly_oracle(capsys):
    with verdict("conformal-anomaly-oracle", capsys):
        start = time.perf_counter()
        for a in (0.5, 1.0, 2.0):
            for K in (2.0, 5.0, 10.0):
                numeric = pa_annulus_numeric(a, K).total
                assert abs(numeric - annulus_ratio_closed_form(a, K)) <= 1e-7, (a, K)
        for eta in (0.5, 1.0, 3.0):
            numeric = pa_disk_numeric(eta).total
            closed = logdet_poincare_cap(eta) - logdet_flat_disk(math.tanh(0.5 * eta))
            assert abs(numeric - closed) <= 1e-7, eta
        assert time.perf_counter() - start < 10.0


def test_criterion_08_small_radius_asymptotics(capsys):
    with verdict("small-radius-asymptotics", capsys):
        for w in range(1, 6):
            res1 = logdet_orbifold_cone(w, 1e-3).value - small_eta_asymptotics(w, 1e-3)
            res2 = logdet_orbifold_cone(w, 2e-3).value - small_eta_asymptotics(w, 2e-3)
            assert abs(res1) <= 1e-4, w
            assert 0.2 <= res1 / res2 <= 0.3, w


def test_criterion_09_reference_expansion_discrepancy(capsys):
    with verdict("reference-expansion-discrepancy", capsys):
        for w in range(1, 6):
            d_small = fp_asymptotics_reference(w, 1e-3) - small_eta_asymptotics(w, 1e-3)
            d_large = fp_asymptotics_reference(w, 0.5) - small_eta_asymptotics(w, 0.5)
            assert abs(d_small - d_large) <= 1e-10, w
            assert abs(d_small) > 1e-6, w


def test_criterion_10_special_function_regression(capsys):
    with verdict("special-function-regression", capsys):
        for i in range(1, 31):
            x = i / 10.0
            assert abs(hurwitz_zeta(0.0, x) - (0.5 - x)) <= 1e-10, x
            want = log_gamma(x) - 0.5 * LOG_2PI
            assert abs(hurwitz_zeta_sderiv(0.0, x) - want) <= 1e-10, x
        diff = hurwitz_zeta_sderiv(-1.0, 1.0) - SF._ZETA_PRIME_MINUS_ONE
        assert abs(diff) <= 1e-11


def test_criterion_11_cli_contract(capsys, quadrature_fails):
    with verdict("cli-contract", capsys):
        assert main(["verify"]) == 0
        capsys.readouterr()

        table_argv = ["table", "orbifold", "--grid", "w=1,4,4", "--grid", "eta=0.01,1,5,log"]
        assert main(table_argv) == 0
        first = capsys.readouterr().out
        assert main(table_argv) == 0
        assert capsys.readouterr().out == first

        assert main(["det", "orbifold", "--w", "0", "--eta", "1"]) == 1
        assert main(["verify", "--tol", "1e-16"]) == 2
        with quadrature_fails():
            assert main(["det", "hyperbolic", "--a", "0.5", "--eta", "1"]) == 3
        capsys.readouterr()

        assert main(["verify", "--format", "json"]) == 0
        assert all(r["passed"] for r in json.loads(capsys.readouterr().out))
