"""Command line front end.

Subcommands:

* det     evaluate one log-determinant (det D = exp(-zeta'(0, D)))
* table   evaluate a kind over one or two parameter grids (csv or json)
* asympt  compare the orbifold determinant against its small-radius
          expansions on an eta grid
* verify  run the cross-formula identity suite

Exit codes: 0 success, 1 bad arguments or invalid parameter values,
2 identity verification failures, 3 quadrature failure.  All numbers are
printed with up to 17 significant digits, enough to round-trip a double,
and output for a given invocation is byte-for-byte deterministic.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable

from .determinants import (
    ConeGeometry,
    CurvedDiskGeometry,
    fp_asymptotics_reference,
    logdet_flat_disk,
    logdet_hyperbolic_cone,
    logdet_orbifold_cone,
    logdet_poincare_cap,
    small_eta_asymptotics,
    verify_identities,
    zeta_prime0_spherical_cone,
    zeta_prime0_spindle,
    zeta_prime0_unit_disk_cone,
)
from .quadrature import QuadratureError
from .special_functions import EvalResult, _fsum_result

__all__ = ["main", "run"]


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; we reserve 2 for identity
    # failures, so route usage problems through the normal error path
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ArgError(message)


def _fmt(x: object) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _json(obj: object) -> str:
    if isinstance(obj, dict):
        body = ", ".join(f'"{k}": {_json(v)}' for k, v in obj.items())
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return _fmt(obj)


def _negated(res: EvalResult, tag: str) -> EvalResult:
    return EvalResult(-res.value, res.abs_err, tag)


def _closed(value: float, tag: str, params: dict) -> EvalResult:
    return _fsum_result((value,), tag, **params)


_KINDS: dict[str, tuple[tuple[str, ...], Callable[[dict], EvalResult]]] = {
    "hyperbolic": (
        ("a", "eta"),
        lambda p: logdet_hyperbolic_cone(ConeGeometry(p["a"], p["eta"])),
    ),
    "orbifold": (("w", "eta"), lambda p: logdet_orbifold_cone(p["w"], p["eta"])),
    "spindle": (
        ("a", "K"),
        lambda p: _negated(zeta_prime0_spindle(p["a"], p["K"]), "spindle-logdet"),
    ),
    "sphericalcone": (
        ("a", "K"),
        lambda p: _negated(zeta_prime0_spherical_cone(p["a"], p["K"]), "spherical-cone-logdet"),
    ),
    "diskcone": (
        ("a", "K"),
        lambda p: _negated(
            zeta_prime0_unit_disk_cone(CurvedDiskGeometry(p["a"], p["K"])), "disk-cone-logdet"
        ),
    ),
    "flatdisk": (("r",), lambda p: _closed(logdet_flat_disk(p["r"]), "flat-disk-logdet", p)),
    "poincarecap": (
        ("eta",),
        lambda p: _closed(logdet_poincare_cap(p["eta"]), "poincare-cap-logdet", p),
    ),
}


# (name, type, help) of the parameters det and table take
_PARAMS = (
    ("a", float, "cone angle over 2*pi"),
    ("eta", float, "geodesic radius"),
    ("w", int, "orbifold order (angle 2*pi/w)"),
    ("K", float, "curvature"),
    ("r", float, "flat disk radius"),
)


def _parse_grid(spec: str) -> list[float]:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) not in (3, 4):
        raise ValueError(f"grid must be start,stop,count[,log], got {spec!r}")
    is_log = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"fourth grid field must be 'log', got {parts[3]!r}")
        is_log = True
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid endpoints must be finite, got {spec!r}")
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    if count == 1:
        return [start]
    if start >= stop:
        raise ValueError(f"grid needs start < stop for count > 1, got {spec!r}")
    if is_log:
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log grids need positive endpoints")
        ratio = stop / start
        vals = [start * ratio ** (k / (count - 1)) for k in range(count)]
    else:
        vals = [start + (stop - start) * k / (count - 1) for k in range(count)]
    vals[-1] = stop
    return vals


def _parse_named_grid(spec: str) -> tuple[str, list[float]]:
    name, eq, rest = spec.partition("=")
    if not eq or not name.strip():
        raise ValueError(f"grid must be name=start,stop,count[,log], got {spec!r}")
    return name.strip(), _parse_grid(rest)


def _cast_param(name: str, value: float) -> float | int:
    if name != "w":
        return float(value)
    nearest = round(value)
    if abs(value - nearest) > 1e-9:
        raise ValueError(f"w must take integer values, grid produced {value!r}")
    return int(nearest)


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("kind", choices=sorted(_KINDS))
    for name, type_, help_text in _PARAMS:
        parser.add_argument(f"--{name}", type=type_, help=help_text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="conedet", description="log-determinants on constant-curvature cones")
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("det", help="evaluate one log-determinant")
    _add_point_args(det)
    det.add_argument("--format", choices=("plain", "json", "csv"), default="plain")

    table = sub.add_parser("table", help="tabulate a kind over parameter grids")
    table.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="NAME=START,STOP,COUNT[,log]",
        help="parameter grid; repeat for a second axis (first grid is the outer loop)",
    )
    _add_point_args(table)
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    asympt = sub.add_parser("asympt", help="orbifold determinant vs small-radius expansion")
    asympt.add_argument("--w", type=int, required=True)
    asympt.add_argument("--grid", required=True, metavar="START,STOP,COUNT[,log]")
    asympt.add_argument(
        "--compare-fp",
        action="store_true",
        help="also tabulate the previously published expansion",
    )
    asympt.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="run the cross-formula identity suite")
    verify.add_argument("--tol", type=float, default=1e-8)
    verify.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    return parser


def _points(
    args: argparse.Namespace, names: tuple[str, ...], grids: list[tuple[str, list[float]]]
) -> list[dict]:
    """Every parameter point, keyed in the kind's order, of a det (no grids)
    or table call, first grid outermost.  Raises ValueError for a missing,
    extra or doubly given parameter."""
    gridded = {name for name, _ in grids}
    fixed = {}
    for name in names:
        value = getattr(args, name)
        if name in gridded:
            if value is not None:
                raise ValueError(f"--{name} conflicts with its grid")
        elif value is None:
            raise ValueError(f"{args.kind} requires --{name}")
        else:
            fixed[name] = value
    for name, _, _ in _PARAMS:
        if name not in names and getattr(args, name) is not None:
            raise ValueError(f"{args.kind} does not take --{name}")
    points = [fixed]
    for name, values in grids:
        points = [{**point, name: _cast_param(name, v)} for point in points for v in values]
    return [{n: point[n] for n in names} for point in points]


def _record(res: EvalResult, params: dict) -> dict:
    return {
        "formula_tag": res.formula_tag,
        "params": params,
        "value": res.value,
        "abs_err": res.abs_err,
    }


def _csv(columns: list[str], rows: list[list]) -> str:
    return "\n".join([",".join(columns), *(",".join(_fmt(v) for v in row) for row in rows)]) + "\n"


def _records(columns: list[str], rows: list[list], fmt: str) -> str:
    """rows as CSV under a header line, or as a JSON array of objects keyed by column."""
    if fmt == "json":
        return _json([dict(zip(columns, row)) for row in rows]) + "\n"
    return _csv(columns, rows)


def _results_csv(names: tuple[str, ...], results: list[tuple[dict, EvalResult]]) -> str:
    rows = [[*point.values(), res.value, res.abs_err] for point, res in results]
    return _csv([*names, "value", "abs_err"], rows)


def _evaluate_by_angle(evaluate: Callable[[dict], EvalResult], points: list[dict]) -> list[EvalResult]:
    """evaluate at every point, returned in the order of points.  The points
    are visited in a stable order sorted by the angle a (kinds without one
    keep their order), so points sharing an angle come one after another and
    hit the Barnes cache however many angles the grid has.  A failure raises
    what evaluating in the order of points would have raised first."""
    results: dict[int, EvalResult] = {}
    for i in sorted(range(len(points)), key=lambda i: points[i].get("a", 0.0)):
        try:
            results[i] = evaluate(points[i])
        except Exception:
            for j in range(i):
                if j not in results:
                    evaluate(points[j])
            raise
    return [results[i] for i in range(len(points))]


def _cmd_det(args: argparse.Namespace) -> str:
    names, evaluate = _KINDS[args.kind]
    (params,) = _points(args, names, [])
    res = evaluate(params)
    if args.format == "json":
        return _json(_record(res, params)) + "\n"
    if args.format == "csv":
        return _results_csv(names, [(params, res)])
    return (
        f"logdet = {_fmt(res.value)}\n"
        f"abs_err = {_fmt(res.abs_err)}\n"
        f"formula = {res.formula_tag}\n"
    )


def _cmd_table(args: argparse.Namespace) -> str:
    names, evaluate = _KINDS[args.kind]
    if not args.grid:
        raise ValueError("table requires at least one --grid")
    if len(args.grid) > 2:
        raise ValueError("table takes at most two --grid axes")

    grids: list[tuple[str, list[float]]] = []
    for spec in args.grid:
        name, values = _parse_named_grid(spec)
        if name not in names:
            raise ValueError(f"{args.kind} has no parameter {name!r}")
        if any(name == seen for seen, _ in grids):
            raise ValueError(f"parameter {name!r} gridded twice")
        grids.append((name, values))

    points = _points(args, names, grids)
    results = list(zip(points, _evaluate_by_angle(evaluate, points)))
    if args.format == "json":
        return _json([_record(res, point) for point, res in results]) + "\n"
    return _results_csv(names, results)


def _cmd_asympt(args: argparse.Namespace) -> str:
    etas = _parse_grid(args.grid)
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"asympt eta grid must lie in (0, 1], got {eta!r}")
    columns = ["eta", "exact", "asympt", "residual"]
    if args.compare_fp:
        columns += ["fp", "fp_residual"]
    rows = []
    for eta in etas:
        exact = logdet_orbifold_cone(args.w, eta).value
        approx = small_eta_asymptotics(args.w, eta)
        row = [eta, exact, approx, exact - approx]
        if args.compare_fp:
            fp = fp_asymptotics_reference(args.w, eta)
            row += [fp, exact - fp]
        rows.append(row)
    return _records(columns, rows, args.format)


def _cmd_verify(args: argparse.Namespace) -> tuple[str, bool]:
    reports = verify_identities(tol=args.tol)
    ok = all(r.passed for r in reports)
    if args.format != "plain":
        columns = ["identity", "lhs", "rhs", "abs_diff", "tolerance", "passed"]
        rows = [[r.identity_name, r.lhs, r.rhs, r.abs_diff, r.tolerance, r.passed] for r in reports]
        return _records(columns, rows, args.format), ok
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.identity_name} "
        f"(abs_diff = {_fmt(r.abs_diff)}, tol = {_fmt(r.tolerance)})"
        for r in reports
    ]
    lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} identities passed")
    return "\n".join(lines) + "\n", ok


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "det":
            sys.stdout.write(_cmd_det(args))
        elif args.command == "table":
            sys.stdout.write(_cmd_table(args))
        elif args.command == "asympt":
            sys.stdout.write(_cmd_asympt(args))
        else:
            out, ok = _cmd_verify(args)
            sys.stdout.write(out)
            if not ok:
                return 2
    except (_ArgError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except QuadratureError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
