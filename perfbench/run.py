"""conedet benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from the
checkout's ``src`` directory, never from an installed copy.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` a
separate traced run reports the per-layer metrics.  Every operation's
output is checked (see checks.py) and the last line of standard output is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Details of the run (per-class times, failures, probe samples) go to
``perfbench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from reference import REFERENCE_NS, reference_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"
WORKER_TIMEOUT_S = 170

# Start-up probes (fresh interpreters importing conedet.cli) are spread
# evenly over the run, between worker segments, because machine speed can
# change in phases of a few seconds.
PROBES = 21
# A sweep runs in fresh workers of about this many seconds of whole rounds.
SEGMENT_S = 5.0
# A traced run alternates untraced and traced rounds for this share of
# --seconds; tracing slows a round by up to about 2.3x.
TRACE_SHARE = 0.5


class BenchError(RuntimeError):
    pass


def _load_library() -> None:
    src = ROOT / "src"
    if not (src / "conedet" / "__init__.py").is_file():
        raise BenchError(f"no conedet sources under {src}")
    sys.path.insert(0, str(src))
    import conedet

    if Path(conedet.__file__).resolve().parent != (src / "conedet").resolve():
        raise BenchError(f"conedet imported from {conedet.__file__}, not from {src}")


def _child_env() -> dict:
    """Children import the checkout's conedet and may write its bytecode
    cache, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _launch_ms(code: str) -> float:
    """Wall time of a fresh interpreter running ``-c code``, in ms, scaled by
    the reference loop timed just before and after (see reference.py).  No
    timeout: with one, subprocess polls the child in steps of up to 50 ms."""
    before = reference_ns()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    return elapsed * 1e3 * 2.0 * REFERENCE_NS / (before + reference_ns())


def _worker(spec: dict) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(dict(spec, root=str(ROOT))),
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _segments(workload: str, ops: list, seconds: float, trace: bool, spans: str | None):
    """Run whole rounds in fresh workers until ``seconds`` have passed, with
    start-up probes spread over that time.  Returns the worker results and
    the probe times in ms (importing conedet.cli, and a bare interpreter
    when traced).

    The sweeps run segments of SEGMENT_S seconds.  verify_suite runs one
    round per worker, so every round starts cold.  cli_session launches the
    CLI from one worker per round; traced, it calls ``cli.main`` in the
    worker instead, so the library's layers can be traced.  A traced run
    alternates untraced and traced rounds, so both see the same machine.
    """
    base = {"workload": workload, "ops": ops, "inprocess_cli": trace and workload == "cli_session"}
    if workload.startswith("sweep_"):
        specs = [dict(base, pattern=["u", "t"] if trace else ["u"], deadline_s=SEGMENT_S)]
    else:
        specs = [dict(base, pattern=["u"], repeat=1)]
        if trace:
            specs.append(dict(base, pattern=["t"], repeat=1))
    budget = seconds * TRACE_SHARE if trace else seconds

    _launch_ms("import conedet.cli")  # fills the bytecode cache
    imports: list[float] = []
    bare: list[float] = []

    def probe() -> None:
        if trace:  # interleaved, so both see the same machine
            bare.append(_launch_ms("pass"))
        imports.append(_launch_ms("import conedet.cli"))

    runs: list[dict] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < budget:
        for spec in specs:
            # Only the first traced worker writes its spans, which bounds the file.
            first_traced = "t" in spec["pattern"] and not any("agg" in r for r in runs)
            runs.append(_worker(dict(spec, spans_path=spans if first_traced else None)))
        due = min(PROBES, PROBES * (time.perf_counter() - start) / budget)
        while len(imports) < due:
            probe()
    while len(imports) < PROBES:
        probe()
    return runs, imports, bare


def _per_op(runs: list[dict], n: int) -> list[float]:
    """Each of the n operations' median scaled time over every untraced
    round.  A worker's times come round after round."""
    return [statistics.median(t for r in runs for t in r["times_ns"][i::n]) for i in range(n)]


def _pct(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank percentile, in ms."""
    return sorted_ns[max(0, math.ceil(q * len(sorted_ns)) - 1)] / 1e6


def _end_to_end(runs: list[dict], import_ms: list[float], workload: str, n: int) -> dict:
    per_op = sorted(_per_op(runs, n))
    rss_key = "children_rss_kb" if workload == "cli_session" else "rss_kb"
    return {
        "setup_s": (statistics.median(import_ms) / 1e3, "s"),
        "peak_rss_mb": (statistics.median(r[rss_key] for r in runs if r["rounds"]) / 1024.0, "MB"),
        "ops_per_s": (len(per_op) / (sum(per_op) / 1e9), "1/s"),
        "op_ms_p50": (_pct(per_op, 0.50), "ms"),
        "op_ms_p95": (_pct(per_op, 0.95), "ms"),
    }


def _per_layer(runs: list[dict], import_ms: list[float], interp_ms: list[float]) -> dict:
    from tracer import merge

    agg = merge([r["agg"] for r in runs if "agg" in r])
    rounds = sum(r["traced_rounds"] for r in runs)
    names = agg["names"]

    def count(*keys):
        return sum(names.get(k, [0, 0, 0])[0] for k in keys)

    def per(total, n, scale=1.0):
        return total / n / scale if n else 0.0

    def mean(key, scale, col=1):
        c, total, self_ns = names.get(key, [0, 0, 0])
        return per((total, total, self_ns)[col], c, scale)

    quad = ("quadrature@special_functions", "quadrature@pa_oracle")
    quad_calls = count(*quad)
    evals = count("integrand@special_functions", "integrand@pa_oracle")
    # Each Gauss-Kronrod panel costs 15 evaluations; a bisection evaluates two.
    splits = (evals / 15.0 - sum(agg["segments"].values())) / 2.0
    det_calls = sum(v[0] for k, v in names.items() if k.startswith("determinants."))
    backed = agg["cold"][0] + agg["warm"][0]
    interp = statistics.median(interp_ms)
    metrics = {
        "quadrature.calls": (per(quad_calls, rounds), "count/round"),
        "quadrature.evals_per_call": (per(evals, quad_calls), "count"),
        "quadrature.subdivisions_per_call": (per(splits, quad_calls), "count"),
        "quadrature.self_ms_per_call": (per(sum(names.get(k, [0, 0, 0])[2] for k in quad), quad_calls, 1e6), "ms"),
        "special_functions.barnes.calls": (per(count("special_functions.barnes"), rounds), "count/round"),
        "special_functions.barnes.ms_per_call": (mean("special_functions.barnes", 1e6), "ms"),
        "special_functions.barnes.self_ms_per_call": (mean("special_functions.barnes", 1e6, 2), "ms"),
        "special_functions.integrand.us_per_eval": (mean("integrand@special_functions", 1e3), "us"),
        "special_functions.im_log_gamma.calls": (per(count("special_functions.im_log_gamma"), rounds), "count/round"),
        "special_functions.im_log_gamma.us_per_call": (mean("special_functions.im_log_gamma", 1e3), "us"),
        "special_functions.hurwitz.calls": (per(count("special_functions.hurwitz"), rounds), "count/round"),
        "special_functions.hurwitz.us_per_call": (mean("special_functions.hurwitz", 1e3), "us"),
        "special_functions.digamma.calls": (per(count("special_functions.digamma"), rounds), "count/round"),
        "special_functions.log_gamma.calls": (per(count("special_functions.log_gamma"), rounds), "count/round"),
        "special_functions.log_gamma.us_per_call": (mean("special_functions.log_gamma", 1e3), "us"),
        "special_functions.barnes_orbifold.ms_per_call": (mean("special_functions.barnes_orbifold", 1e6), "ms"),
        "determinants.calls": (per(det_calls, rounds), "count/round"),
        "determinants.barnes_backed_calls": (per(backed, rounds), "count/round"),
        "determinants.barnes_hit_ratio": (1.0 - per(agg["barnes_in_backed"], backed) if backed else 0.0, "ratio"),
        "determinants.cold_ms_per_call": (per(agg["cold"][1], agg["cold"][0], 1e6), "ms"),
        "determinants.warm_us_per_call": (per(agg["warm"][1], agg["warm"][0], 1e3), "us"),
        "determinants.orbifold_us_per_call": (mean("determinants.logdet_orbifold_cone", 1e3), "us"),
        "determinants.verify_self_ms": (mean("determinants.verify_identities", 1e6, 2), "ms"),
        "pa_oracle.annulus_ms_per_call": (mean("pa_oracle.annulus", 1e6), "ms"),
        "pa_oracle.disk_ms_per_call": (mean("pa_oracle.disk", 1e6), "ms"),
        "pa_oracle.evals_per_call": (per(count("integrand@pa_oracle"), count("quadrature@pa_oracle")), "count"),
        "cli.main_self_ms": (mean("cli.main", 1e6, 2), "ms"),
        "trace.overhead_ratio": (per(sum(r["traced_wall_ns"] for r in runs), sum(r["wall_ns"] for r in runs)), "ratio"),
    }
    # Span times are scaled like the operations, by the reference loop timed
    # during the traced rounds.
    scale = REFERENCE_NS / statistics.median(t for r in runs for t in r["references_ns"]["traced"])
    metrics = {k: (v * scale if u in ("ms", "us") else v, u) for k, (v, u) in metrics.items()}
    metrics["cli.interpreter_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (statistics.median(import_ms) - interp, "ms")
    return metrics


def _classes(ops: list, runs: list[dict]) -> dict:
    """Median over each operation class (kind, or CLI subcommand) of its
    operations' scaled times, in ms."""
    by: dict[str, list[float]] = {}
    for op, t in zip(ops, _per_op(runs, len(ops))):
        by.setdefault(op[1][0] if op[0] == "cli" else op[0], []).append(t)
    return {k: {"median_ms": statistics.median(v) / 1e6, "ops": len(v)} for k, v in sorted(by.items())}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks  # imports conedet, so only once src/ is on the path

    ops = workloads.make_round(workload, seed)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{workload}.csv.gz" if trace else None  # the latest traced run only
    if spans:
        spans.unlink(missing_ok=True)
    runs, import_ms, interp_ms = _segments(workload, ops, seconds, trace, str(spans) if spans else None)

    # Every worker's first round must match the first worker's; each worker
    # already compared its later rounds with its first.
    outs = runs[0]["outputs"]
    fails, selfcheck = checks.CHECKS[workload](ops, outs, seed)
    for r in runs:
        for i in r["mismatch"]:
            fails.add(i, "output changed between rounds")
        for i, (x, y) in enumerate(zip(r["outputs"], outs)):
            if x != y:
                fails.add(i, "output differs between worker processes")

    rounds = sum(r["rounds"] + r["traced_rounds"] for r in runs)
    unexpected = checks.unexpected(ops, fails)
    if trace:
        metrics = _per_layer(runs, import_ms, interp_ms)
    else:
        metrics = _end_to_end(runs, import_ms, workload, len(ops))
    result = {
        "correct": not unexpected and selfcheck and len(outs) == len(ops),
        "attempted": rounds * len(ops),
        "failed": rounds * len(fails),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "ops_per_round": len(ops), "selfcheck_caught_perturbation": selfcheck,
        "failures": {str(i): {"op": ops[i], "reasons": fails[i]} for i in sorted(fails)},
        "unexpected_failures": unexpected,
        "missing_bindings": sorted({m for r in runs for m in r.get("missing", [])}),
        "classes": _classes(ops, runs), "import_ms_samples": import_ms, "bare_ms_samples": interp_ms,
        "reference_ns_median": statistics.median(t for r in runs for t in r["references_ns"]["untraced"]),
        "python": sys.version.split()[0], **result,
    }
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _load_library()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'attempted':48s} {result['attempted']}")
    print(f"{'failed':48s} {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
