"""Seeded inputs for the four workloads.

Each workload is a *round*: a fixed list of operations that a run repeats
whole until its time is up.  An operation is ``[kind, args, fault]``; the
worker only looks at ``kind`` and ``args``.  ``fault`` names a known defect
for the few fixed operations that fail every time on the current code (see
README.md); it is ``None`` everywhere else.  The same seed always gives the
same round.
"""

from __future__ import annotations

import math
import random

# The determinants module memoizes Barnes values in an LRU cache of this
# size; a sequential pass over more distinct angles than this misses on
# every call.
BARNES_CACHE_SIZE = 512
SWEEP_ANGLES = 600
CLOSED_PER_KIND = 200

# Above roughly a = 4 the claimed abs_err of the Barnes term is too small at
# some angles and not at others, so seeded oracle checks are drawn below
# this angle, where the claim holds with a margin of 3 or more.  The fault
# itself is counted through the fixed points below.
ORACLE_A_MAX = 2.0

# Fixed angles above ORACLE_A_MAX at which every Barnes-backed kind meets the
# oracle today with |error| / abs_err <= 0.37 (eta and K = 1).  Every pass of
# sweep_barnes visits them too, and all are checked against the oracle, so a
# Barnes rule that goes wrong at large angles shows even though the seeded
# oracle sample stays below ORACLE_A_MAX.
ORACLE_FIXED_ANGLES = (3.0, 7.0, 14.0, 16.0)

BARNES_FAULT = "barnes-abs-err-under-claimed-large-a"
LOG_TANH_FAULT = "log-tanh-half-cancels-small-eta"
DOMAIN_FAULT = "math-domain-error-tiny-eta"

# Fixed points that fail on every run, whatever the seed.
BARNES_FAULT_OPS = [
    ["hyperbolic", [30.0, 1.0], BARNES_FAULT],
    ["hyperbolic", [99.0, 1.0], BARNES_FAULT],
]
CLOSED_FAULT_OPS = [
    ["orbifold", [2, 1e-08], LOG_TANH_FAULT],
    ["poincarecap", [1e-08], LOG_TANH_FAULT],
    ["orbifold", [3, 1e-17], DOMAIN_FAULT],
]

# verify_suite: warm calls that follow each cold call in one fresh worker.
# Of the round's ten operations the cold call is the slowest, so op_ms_p95
# reads the cold call and op_ms_p50 a warm one.
VERIFY_WARM_PER_COLD = 9


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratified(rng: random.Random, n: int, lo: float, hi: float, log: bool = True) -> list[float]:
    """n draws, one uniform in each of n equal slices of [lo, hi] (of its
    logarithm when ``log``), in random order.  Every seed then has the same
    spread of costs, and the draws are distinct."""
    f, g = (math.log, math.exp) if log else (float, float)
    width = (f(hi) - f(lo)) / n
    out = [g(f(lo) + (k + rng.random()) * width) for k in range(n)]
    rng.shuffle(out)
    return out


def _orders(rng: random.Random, n: int) -> list[int]:
    """n orbifold orders w in 1..200, stratified like _stratified."""
    return [min(200, 1 + int(x)) for x in _stratified(rng, n, 0.0, 200.0, log=False)]


def sweep_barnes(rng: random.Random) -> list[list]:
    """One pass per Barnes-backed kind over the same distinct angles."""
    angles = _stratified(rng, SWEEP_ANGLES, 0.01, 100.0)
    etas = [_log_uniform(rng, 0.1, 5.0) for _ in angles]
    k_pos = [_log_uniform(rng, 0.25, 4.0) for _ in angles]
    k_disk = [rng.uniform(-0.5, 3.0) for _ in angles]
    ones = [1.0] * len(ORACLE_FIXED_ANGLES)
    angles += ORACLE_FIXED_ANGLES
    etas, k_pos, k_disk = etas + ones, k_pos + ones, k_disk + ones
    ops = [["hyperbolic", [a, e], None] for a, e in zip(angles, etas)]
    ops += [list(op) for op in BARNES_FAULT_OPS]
    ops += [["spindle", [a, k], None] for a, k in zip(angles, k_pos)]
    ops += [["sphericalcone", [a, k], None] for a, k in zip(angles, k_pos)]
    ops += [["diskcone", [a, k], None] for a, k in zip(angles, k_disk)]
    return ops


def sweep_closed(rng: random.Random) -> list[list]:
    """Closed forms only: no Barnes quadrature runs."""
    n = CLOSED_PER_KIND
    ops = [["orbifold", [w, eta], None] for w, eta in zip(_orders(rng, n), _stratified(rng, n, 0.01, 20.0))]
    ops += [["poincarecap", [eta], None] for eta in _stratified(rng, n, 0.01, 20.0)]
    ops += [["flatdisk", [r], None] for r in _stratified(rng, n, 0.01, 100.0)]
    ops += [["small_eta", [w, eta], None] for w, eta in zip(_orders(rng, n), _stratified(rng, n, 1e-4, 1.0))]
    ops += [["fp", [w, eta], None] for w, eta in zip(_orders(rng, n), _stratified(rng, n, 1e-4, 1.0))]
    ops += [list(op) for op in CLOSED_FAULT_OPS]
    return ops


def verify_suite(rng: random.Random) -> list[list]:
    """One cold verify_identities() call, then the warm ones, in one worker.
    The suite has no inputs, so the seed does not change it."""
    del rng
    return [["verify_cold", [], None]] + [["verify_warm", [], None]] * VERIFY_WARM_PER_COLD


def cli_session(rng: random.Random) -> list[list]:
    """Sequential CLI launches: det for every kind, one table whose inner
    angle axis is longer than the Barnes cache, asympt and verify."""
    a = _log_uniform(rng, 0.05, ORACLE_A_MAX)
    k_pos = _log_uniform(rng, 0.25, 4.0)
    det = [
        ["hyperbolic", "--a", a, "--eta", _log_uniform(rng, 0.1, 5.0)],
        ["orbifold", "--w", rng.randint(1, 50), "--eta", _log_uniform(rng, 0.01, 5.0)],
        ["spindle", "--a", a, "--K", k_pos],
        ["sphericalcone", "--a", a, "--K", k_pos],
        ["diskcone", "--a", a, "--K", rng.uniform(-0.5, 3.0)],
        ["flatdisk", "--r", _log_uniform(rng, 0.1, 10.0)],
        ["poincarecap", "--eta", _log_uniform(rng, 0.01, 5.0)],
    ]
    # The angle axis is fixed, so every seed asks the table for the same
    # Barnes work; the seed moves the curvatures.
    k1 = rng.uniform(-0.5, 1.0)
    k2 = k1 + rng.uniform(0.5, 2.0)
    table = [
        "table", "diskcone",
        "--grid", f"K={k1!r},{k2!r},2",
        "--grid", f"a=0.1,10,{BARNES_CACHE_SIZE + 8},log",
    ]
    eta_lo = _log_uniform(rng, 0.01, 0.05)
    asympt = ["asympt", "--w", str(rng.randint(1, 30)), "--grid", f"{eta_lo!r},{_log_uniform(rng, 0.1, 1.0)!r},8,log", "--compare-fp"]
    ops = [["cli", ["det"] + [v if isinstance(v, str) else repr(v) for v in cmd], None] for cmd in det]
    ops += [["cli", table, None], ["cli", asympt, None], ["cli", ["verify"], None]]
    return ops


ROUNDS = {
    "sweep_barnes": sweep_barnes,
    "sweep_closed": sweep_closed,
    "verify_suite": verify_suite,
    "cli_session": cli_session,
}


def make_round(workload: str, seed: int) -> list[list]:
    return ROUNDS[workload](random.Random(seed))
