import json
import math
import os
import subprocess
import sys

import pytest

import conedet
import conedet.determinants as determinants
import conedet.special_functions as SF
from conedet.cli import _parse_grid, main
from conedet.determinants import (
    ConeGeometry,
    CurvedDiskGeometry,
    logdet_flat_disk,
    logdet_hyperbolic_cone,
    logdet_orbifold_cone,
    small_eta_asymptotics,
    zeta_prime0_unit_disk_cone,
)


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

    def test_spindle_sign_convention(self, capsys):
        # det prints logdet = -zeta'(0); the library function returns zeta'(0)
        from conedet.determinants import zeta_prime0_spindle

        rc, out, _ = run(capsys, ["det", "spindle", "--a", "2", "--K", "1", "--format", "json"])
        rec = json.loads(out)
        assert rec["value"] == -zeta_prime0_spindle(2.0, 1.0).value
        assert rec["formula_tag"] == "spindle-logdet"


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
        _, table_out, _ = run(capsys, ["table", "flatdisk", "--grid", "r=1.5,1.5,1"])
        _, det_out, _ = run(capsys, ["det", "flatdisk", "--r", "1.5", "--format", "csv"])
        assert table_out == det_out

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
        # are visited grouped by angle and printed in grid order
        calls = count_evals(SF)
        determinants._barnes_a11.cache_clear()
        argv = ["table", "diskcone", "--grid", "K=0,1,3", "--grid", "a=0.1,10,520,log"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0 and len(calls) == 520
        rc, out_json, _ = run(capsys, [*argv, "--format", "json"])
        assert rc == 0

        angles, curvatures = _parse_grid("0.1,10,520,log"), (0.0, 0.5, 1.0)
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

    def test_failure_is_the_first_in_grid_order(self, capsys):
        # grouped by angle, (750, 1) would come before (600, 1e308); the
        # error must still be the one grid order meets first
        argv = ["table", "hyperbolic", "--grid", "eta=600,750,2", "--grid", "a=1,1e308,2"]
        first = None
        for eta in (600.0, 750.0):
            for a in (1.0, 1e308):
                try:
                    logdet_hyperbolic_cone(ConeGeometry(a, eta))
                except ValueError as exc:
                    first = first or exc
        rc, out, err = run(capsys, argv)
        assert rc == 1 and out == ""
        assert err == f"error: {first}\n" and "750" not in err

    def test_grid_errors(self, capsys):
        bad = [
            ["table", "orbifold", "--grid", "w=1,4,4", "--grid", "eta=0.1,1,2", "--grid", "K=1,2,2"],
            ["table", "orbifold", "--eta", "1"],  # no grid at all
            ["table", "orbifold", "--grid", "K=1,2,2", "--eta", "1"],  # unknown param
            ["table", "orbifold", "--grid", "eta=1,2"],  # malformed
            ["table", "orbifold", "--grid", "eta=2,1,5"],  # descending
            ["table", "orbifold", "--grid", "eta=-1,1,5,log"],  # log needs positive
            ["table", "orbifold", "--grid", "w=1,2,2", "--grid", "w=1,2,2"],  # duplicate
            ["table", "orbifold", "--grid", "w=1,2,5"],  # non-integer w values
            ["table", "orbifold", "--grid", "eta=0.1,1,3", "--w", "2", "--a", "1"],
        ]
        for argv in bad:
            rc, _, err = run(capsys, argv)
            assert rc == 1, argv
            assert err.startswith("error: "), argv


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

    def test_quadrature_failure_exits_3(self, capsys):
        rc, _, err = run(capsys, ["det", "hyperbolic", "--a", "1e-200", "--eta", "1"])
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
