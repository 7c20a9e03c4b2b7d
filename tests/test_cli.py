import argparse
import json
import math
import os
import subprocess
import sys

import pytest

import conedet
import conedet.determinants as determinants
import conedet.special_functions as SF
from conedet.cli import _build_parser, _parse_grid, main
from conedet.determinants import (
    ConeGeometry,
    CurvedDiskGeometry,
    logdet_flat_disk,
    logdet_hyperbolic_cone,
    logdet_orbifold_cone,
    logdet_poincare_cap,
    small_eta_asymptotics,
    zeta_prime0_spherical_cone,
    zeta_prime0_spindle,
    zeta_prime0_unit_disk_cone,
)


def _in_window(a):
    # whether _barnes_a11 takes the quadrature at a, not the spectral series
    return 1.0 / SF._SERIES_EDGE < a < SF._SERIES_EDGE


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestDet:
    def test_plain_output(self, capsys):
        rc, out, err = run(capsys, ["det", "hyperbolic", "--a", "0.5", "--eta", "1"])
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("logdet = ")
        value = float(lines[0].split("=")[1])
        want = logdet_hyperbolic_cone(ConeGeometry(0.5, 1.0)).value
        assert value == want  # 17 significant digits round-trip doubles
        assert lines[2] == "formula = hyperbolic-cone"

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, ["det", "orbifold", "--w", "3", "--eta", "0.5", "--format", "json"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["formula_tag"] == "orbifold-cone"
        assert rec["params"] == {"w": 3, "eta": 0.5}
        assert rec["value"] == logdet_orbifold_cone(3, 0.5).value
        assert rec["abs_err"] >= 0.0

    def test_csv_output(self, capsys):
        rc, out, _ = run(capsys, ["det", "flatdisk", "--r", "1", "--format", "csv"])
        assert rc == 0
        header, row = out.splitlines()
        assert header == "r,value,abs_err"
        fields = row.split(",")
        assert float(fields[1]) == logdet_flat_disk(1.0)

    def test_every_kind_evaluates(self, capsys):
        cases = [
            ["det", "hyperbolic", "--a", "1", "--eta", "1"],
            ["det", "orbifold", "--w", "2", "--eta", "1"],
            ["det", "spindle", "--a", "1", "--K", "1"],
            ["det", "sphericalcone", "--a", "1", "--K", "1"],
            ["det", "diskcone", "--a", "1", "--K", "0"],
            ["det", "flatdisk", "--r", "2"],
            ["det", "poincarecap", "--eta", "2"],
        ]
        for argv in cases:
            rc, out, _ = run(capsys, argv)
            assert rc == 0, argv
            assert out.startswith("logdet = "), argv

    def test_tiny_radius_evaluates(self, capsys):
        rc, out, err = run(capsys, ["det", "orbifold", "--w", "3", "--eta", "1e-17"])
        assert rc == 0 and err == ""
        assert math.isfinite(float(out.splitlines()[0].split("=")[1]))

    # kind -> (params, the public function's result there, sign, formula_tag)
    CONTRACT = {
        "hyperbolic": (
            {"a": 0.5, "eta": 1.0},
            lambda: logdet_hyperbolic_cone(ConeGeometry(0.5, 1.0)),
            1.0,
            "hyperbolic-cone",
        ),
        "orbifold": ({"w": 3, "eta": 0.5}, lambda: logdet_orbifold_cone(3, 0.5), 1.0, "orbifold-cone"),
        "spindle": ({"a": 2.0, "K": 1.0}, lambda: zeta_prime0_spindle(2.0, 1.0), -1.0, "spindle-logdet"),
        "sphericalcone": (
            {"a": 0.01, "K": 2.0},
            lambda: zeta_prime0_spherical_cone(0.01, 2.0),
            -1.0,
            "spherical-cone-logdet",
        ),
        "diskcone": (
            {"a": 0.7, "K": -0.3},
            lambda: zeta_prime0_unit_disk_cone(CurvedDiskGeometry(0.7, -0.3)),
            -1.0,
            "disk-cone-logdet",
        ),
        "flatdisk": ({"r": 2.0}, lambda: logdet_flat_disk(2.0), 1.0, "flat-disk-logdet"),
        "poincarecap": ({"eta": 1.3}, lambda: logdet_poincare_cap(1.3), 1.0, "poincare-cap-logdet"),
    }

    @pytest.mark.parametrize("kind", sorted(CONTRACT))
    def test_json_is_the_library_logdet(self, capsys, kind):
        # det prints logdet = -zeta'(0): the zeta'(0) kinds are negated with
        # their abs_err kept, and the kinds whose function returns a float
        # carry the rounding bar of one term, 2e-14 (1 + |v|)
        params, library, sign, tag = self.CONTRACT[kind]
        res = library()
        if isinstance(res, float):
            value, abs_err = res, 2e-14 * (1.0 + abs(res))
        else:
            value, abs_err = sign * res.value, res.abs_err
        argv = ["det", kind, *(arg for name, v in params.items() for arg in (f"--{name}", repr(v)))]
        rc, out, err = run(capsys, [*argv, "--format", "json"])
        assert rc == 0 and err == ""
        assert json.loads(out) == {"formula_tag": tag, "params": params, "value": value, "abs_err": abs_err}

    def test_kinds_are_the_library_table(self):
        (commands,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("det", "table"):
            (kind,) = (a for a in commands.choices[command]._actions if a.dest == "kind")
            assert kind.choices == sorted(determinants._KINDS) == sorted(self.CONTRACT), command


class TestTable:
    def test_twenty_row_grid(self, capsys):
        argv = ["table", "orbifold", "--grid", "w=1,4,4", "--grid", "eta=0.01,1,5,log"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "w,eta,value,abs_err"
        assert len(lines) == 21
        # row-major: first grid is the outer loop
        first = lines[1].split(",")
        last = lines[20].split(",")
        assert first[0] == "1" and last[0] == "4"
        assert float(first[1]) == 0.01 and float(last[1]) == 1.0
        # spot-check one interior row
        row7 = lines[7].split(",")
        w, eta = int(row7[0]), float(row7[1])
        assert float(row7[2]) == logdet_orbifold_cone(w, eta).value

    def test_byte_identical_repeat(self, capsys):
        argv = ["table", "hyperbolic", "--a", "0.7", "--grid", "eta=0.1,2,6"]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_single_point_grid_matches_det(self, capsys):
        # det is a one-point table: the same CSV, and the det JSON record
        # is the one element of the table's array
        for kind, fixed, name, value in (("flatdisk", [], "r", "1.5"), ("hyperbolic", ["--eta", "1"], "a", "0.5")):
            for fmt in ("csv", "json"):
                grid = f"{name}={value},{value},1"
                rc1, table_out, _ = run(capsys, ["table", kind, *fixed, "--grid", grid, "--format", fmt])
                rc2, det_out, _ = run(capsys, ["det", kind, *fixed, f"--{name}", value, "--format", fmt])
                assert rc1 == rc2 == 0
                want = det_out if fmt == "csv" else "[" + det_out[:-1] + "]\n"
                assert table_out == want, (kind, fmt)

    def test_json_records(self, capsys):
        rc, out, _ = run(
            capsys,
            ["table", "diskcone", "--a", "1", "--grid", "K=0,2,3", "--format", "json"],
        )
        assert rc == 0
        records = json.loads(out)
        assert len(records) == 3
        assert all(r["formula_tag"] == "disk-cone-logdet" for r in records)
        assert [r["params"]["K"] for r in records] == [0.0, 1.0, 2.0]

    def test_one_barnes_quadrature_per_angle(self, capsys, count_evals):
        # the inner a axis is longer than the 512-angle Barnes cache; points
        # are visited grouped by angle and printed in grid order, and only
        # the angles inside the quadrature window take the quadrature
        angles, curvatures = _parse_grid("0.1,10,520,log"), (0.0, 0.5, 1.0)
        calls = count_evals(SF)
        determinants._barnes_a11.cache_clear()
        argv = ["table", "diskcone", "--grid", "K=0,1,3", "--grid", "a=0.1,10,520,log"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0 and len(calls) == sum(map(_in_window, angles))
        rc, out_json, _ = run(capsys, [*argv, "--format", "json"])
        assert rc == 0

        point = {}
        for a in angles:
            for K in curvatures:
                res = zeta_prime0_unit_disk_cone(CurvedDiskGeometry(a, K))
                point[a, K] = (-res.value, res.abs_err)
        rows = [(a, K, *point[a, K]) for K in curvatures for a in angles]
        assert out == "a,K,value,abs_err\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in rows
        )
        assert json.loads(out_json) == [
            {"formula_tag": "disk-cone-logdet", "params": {"a": a, "K": K}, "value": v, "abs_err": e}
            for a, K, v, e in rows
        ]

    def test_one_gamma_sum_per_order(self, capsys):
        # the inner w axis: points are visited grouped by order and printed
        # in grid order, and the last-order memo computes each sum once
        etas, orders = _parse_grid("0.01,1,5,log"), range(1, 13)
        SF._orbifold_gamma_sum.cache_clear()
        rc, out, _ = run(capsys, ["table", "orbifold", "--grid", "eta=0.01,1,5,log", "--grid", "w=1,12,12"])
        assert rc == 0 and SF._orbifold_gamma_sum.cache_info().misses == len(orders)
        rows = [(eta, w, logdet_orbifold_cone(w, eta)) for eta in etas for w in orders]
        # columns keep the kind's parameter order, w first
        assert out == "w,eta,value,abs_err\n" + "".join(
            f"{w},{eta:.17g},{res.value:.17g},{res.abs_err:.17g}\n" for eta, w, res in rows
        )

    def test_failure_is_the_first_in_grid_order(self, capsys):
        # grouped by angle, (750, 1) would come before (600, 1e308), and
        # grouped by order, (800, 150) before (1, 250); the error must still
        # be the one grid order meets first
        cases = [
            (
                "hyperbolic",
                lambda eta, a: logdet_hyperbolic_cone(ConeGeometry(a, eta)),
                "600,750,2",
                "a=1,1e308,2",
                "750",
            ),
            ("orbifold", lambda eta, w: logdet_orbifold_cone(int(w), eta), "1,800,2", "w=150,250,2", "800"),
        ]
        for kind, evaluate, etas, inner, later in cases:
            first = None
            for eta in _parse_grid(etas):
                for x in _parse_grid(inner.split("=")[1]):
                    try:
                        evaluate(eta, x)
                    except ValueError as exc:
                        first = first or exc
            rc, out, err = run(capsys, ["table", kind, "--grid", f"eta={etas}", "--grid", inner])
            assert rc == 1 and out == ""
            assert err == f"error: {first}\n" and later not in err, kind

    def test_failure_replays_only_points_without_a_result(self, capsys, count_evals):
        # the table fails at (700, 5.35e4), after every window angle of both
        # rows has been integrated once; replaying the grid up to it must not
        # integrate them again, though 2,000 angles overflow the Barnes cache;
        # 474 of them lie inside the quadrature window
        angles = _parse_grid("0.126,1e5,2000,log")
        first = None
        for eta in (1.0, 700.0):
            for a in angles:
                try:
                    logdet_hyperbolic_cone(ConeGeometry(a, eta))
                except ValueError as exc:
                    first = first or exc
        calls = count_evals(SF)
        determinants._barnes_a11.cache_clear()
        rc, out, err = run(capsys, ["table", "hyperbolic", "--grid", "eta=1,700,2", "--grid", "a=0.126,1e5,2000,log"])
        assert rc == 1 and out == ""
        assert err == f"error: {first}\n" and "a = 53515.709269912135, eta = 700.0" in err
        assert len(calls) == sum(map(_in_window, angles)) == 474

    def test_grid_errors(self, capsys):
        bad = [
            (
                ["table", "orbifold", "--grid", "w=1,4,4", "--grid", "eta=0.1,1,2", "--grid", "K=1,2,2"],
                "table takes at most two --grid axes",
            ),
            (["table", "orbifold", "--eta", "1"], "table requires at least one --grid"),
            (["table", "orbifold", "--grid", "K=1,2,2", "--eta", "1"], "orbifold has no parameter 'K'"),
            (["table", "orbifold", "--grid", "eta=1,2"], "grid must be start,stop,count[,log], got '1,2'"),
            (
                ["table", "orbifold", "--grid", "eta=2,1,5"],
                "grid needs start < stop for count > 1, got '2,1,5'",
            ),
            (["table", "orbifold", "--grid", "eta=-1,1,5,log"], "log grids need positive endpoints"),
            (["table", "orbifold", "--grid", "w=1,2,2", "--grid", "w=1,2,2"], "parameter 'w' gridded twice"),
            (
                ["table", "orbifold", "--grid", "w=1,2,5", "--eta", "1"],
                "w must take integer values, grid produced 1.25",
            ),
            (
                ["table", "orbifold", "--grid", "eta=0.1,1,3", "--w", "2", "--a", "1"],
                "orbifold does not take --a",
            ),
            (
                ["table", "orbifold", "--grid", "eta=0.1,1,3,lin", "--w", "2"],
                "fourth grid field must be 'log', got 'lin'",
            ),
            (
                ["table", "orbifold", "--grid", "eta=0.1,inf,3", "--w", "2"],
                "grid endpoints must be finite, got '0.1,inf,3'",
            ),
            (["table", "orbifold", "--grid", "eta=0.1,1,0", "--w", "2"], "grid count must be >= 1, got 0"),
            (
                ["table", "orbifold", "--grid", "eta0.1,1,3", "--w", "2"],
                "grid must be name=start,stop,count[,log], got 'eta0.1,1,3'",
            ),
            (
                ["table", "orbifold", "--grid", "eta=0.1,1,3", "--eta", "1", "--w", "2"],
                "--eta conflicts with its grid",
            ),
            (
                ["table", "orbifold", "--grid", "w=1,2,3.5", "--eta", "1"],
                "grid needs numeric endpoints and an integer count, got '1,2,3.5'",
            ),
            (
                ["table", "orbifold", "--grid", "eta=0.1,x,3", "--w", "2"],
                "grid needs numeric endpoints and an integer count, got '0.1,x,3'",
            ),
            (
                ["asympt", "--w", "2", "--grid", "0.1,1,three"],
                "grid needs numeric endpoints and an integer count, got '0.1,1,three'",
            ),
            # refused from the counts, before any point is built; the first two
            # built their lists until memory ran out
            (
                ["table", "hyperbolic", "--grid", "a=1,2,1000000000000", "--eta", "1"],
                "grid count must be <= 100000, got 1000000000000",
            ),
            (
                ["table", "hyperbolic", "--grid", "a=1,2,100000", "--grid", "eta=1,2,100000"],
                "table grids must have at most 100000 points together, got 100000 x 100000",
            ),
            (
                ["table", "orbifold", "--grid", "w=1,200,200", "--grid", "eta=0.1,1,501"],
                "table grids must have at most 100000 points together, got 200 x 501",
            ),
            (["asympt", "--w", "2", "--grid", "0.1,1,100001"], "grid count must be <= 100000, got 100001"),
        ]
        for argv, message in bad:
            rc, out, err = run(capsys, argv)
            assert (rc, out, err) == (1, "", f"error: {message}\n"), argv

    def test_grids_whose_ratio_or_span_overflows(self):
        # stop / start, stop - start or (stop - start) * 2 overflows here;
        # the points had inf, and nan at start
        assert _parse_grid("1e-300,1e300,3,log") == [1e-300, 1.0, 1e300]
        assert _parse_grid("-1e308,1e308,3") == [-1e308, 0.0, 1e308]
        assert _parse_grid("-1e308,1e308,2") == [-1e308, 1e308]
        assert _parse_grid("0,1e308,4") == [0.0, 1e308 * (1 / 3), 1e308 * (2 / 3), 1e308]
        big = "1.7976931348623157e308"
        for spec in (f"5e-324,{big},9,log", f"1e-300,{big},4,log", f"-{big},{big},9"):
            grid = _parse_grid(spec)
            assert all(math.isfinite(v) for v in grid) and grid == sorted(set(grid)), spec

    def test_overflowing_log_grid_evaluates(self, capsys):
        rc, out, err = run(capsys, ["table", "spindle", "--grid", "K=1e-300,1e300,3,log", "--a", "1"])
        assert (rc, err) == (0, "")
        values = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        want = [-zeta_prime0_spindle(1.0, K).value for K in (1e-300, 1.0, 1e300)]
        assert values == want


class TestAsympt:
    def test_columns_and_residual(self, capsys):
        rc, out, _ = run(capsys, ["asympt", "--w", "2", "--grid", "0.001,0.01,3,log"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "eta,exact,asympt,residual"
        row = lines[1].split(",")
        eta = float(row[0])
        assert float(row[1]) == logdet_orbifold_cone(2, eta).value
        assert float(row[2]) == small_eta_asymptotics(2, eta)
        assert abs(float(row[3]) - (float(row[1]) - float(row[2]))) <= 1e-18

    def test_compare_fp_converges_to_nonzero_constant(self, capsys):
        rc, out, _ = run(
            capsys,
            ["asympt", "--w", "1", "--grid", "0.001,0.1,3,log", "--compare-fp", "--format", "json"],
        )
        assert rc == 0
        rows = json.loads(out)
        assert list(rows[0].keys()) == ["eta", "exact", "asympt", "residual", "fp", "fp_residual"]
        # our residual vanishes with eta; the reference's does not
        assert abs(rows[0]["residual"]) < 1e-4
        assert abs(rows[0]["fp_residual"]) > 0.2

    def test_grid_domain_enforced(self, capsys):
        rc, _, err = run(capsys, ["asympt", "--w", "1", "--grid", "0.5,2,3"])
        assert rc == 1 and "(0, 1]" in err
        rc, _, _ = run(capsys, ["asympt", "--w", "1", "--grid", "0,1,3"])
        assert rc == 1


class TestVerify:
    def test_default_passes(self, capsys):
        rc, out, _ = run(capsys, ["verify"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1].endswith("identities passed")
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--format", "csv"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "identity,lhs,rhs,abs_diff,tolerance,passed"
        assert len(lines) == 19
        assert all(line.endswith(",true") for line in lines[1:])

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--format", "json"])
        assert rc == 0
        reports = json.loads(out)
        assert len(reports) == 18
        names = [r["identity"] for r in reports]
        assert names == sorted(names)
        assert all(r["passed"] for r in reports)

    def test_strict_tolerance_exits_2(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--tol", "1e-16"])
        assert rc == 2
        assert any(line.startswith("FAIL ") for line in out.splitlines())

    def test_report_order_stable(self, capsys):
        _, out1, _ = run(capsys, ["verify", "--format", "csv"])
        _, out2, _ = run(capsys, ["verify", "--format", "csv"])
        assert out1 == out2


class TestExitCodes:
    def test_validation_error_names_parameter(self, capsys):
        rc, _, err = run(capsys, ["det", "orbifold", "--w", "0", "--eta", "1"])
        assert rc == 1
        assert "w" in err

    def test_missing_and_extra_params(self, capsys):
        rc, _, err = run(capsys, ["det", "hyperbolic", "--a", "1"])
        assert rc == 1 and "--eta" in err
        rc, _, err = run(capsys, ["det", "hyperbolic", "--a", "1", "--eta", "1", "--r", "2"])
        assert rc == 1 and "--r" in err

    def test_unknown_kind(self, capsys):
        rc, _, err = run(capsys, ["det", "torus", "--a", "1"])
        assert rc == 1 and err.startswith("error: ")

    def test_quadrature_failure_exits_3(self, capsys, quadrature_fails):
        with quadrature_fails():
            rc, _, err = run(capsys, ["det", "hyperbolic", "--a", "0.5", "--eta", "1"])
        assert rc == 3
        assert err.startswith("numerical failure: ")

    def test_float_range_overflow_names_a(self, capsys):
        # each printed "-inf + inf in fsum" or died with an OverflowError
        for argv in (
            ["det", "hyperbolic", "--a", "1e308", "--eta", "1"],
            ["det", "hyperbolic", "--a", "1e306", "--eta", "600"],
            ["det", "spindle", "--a", "1e308", "--K", "1"],
            ["det", "diskcone", "--a", "1e307", "--K", "1"],
        ):
            rc, out, err = run(capsys, argv)
            assert rc == 1 and out == "", argv
            assert err.startswith("error: a and "), argv
            assert "beyond the float range" in err, argv
            assert f"a = {float(argv[3])!r}" in err, argv

    def test_usage_error_is_1_not_argparse_2(self, capsys):
        rc, _, _ = run(capsys, ["det"])
        assert rc == 1
        rc, _, _ = run(capsys, ["nosuchcommand"])
        assert rc == 1


def test_import_leaves_out_dataclasses_inspect_and_typing():
    # -S skips site, whose .pth files may import typing on their own; the
    # three modules cost most of a launch's import time when they are loaded
    src = os.path.dirname(os.path.dirname(conedet.__file__))
    code = "import sys, conedet.cli; print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "\n"
