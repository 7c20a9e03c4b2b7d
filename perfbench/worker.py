"""Worker process: runs whole rounds of one workload's operations and times
each operation.

It reads a JSON spec on stdin and prints one JSON object as the last line
of stdout.  Only conedet (from the checkout's ``src``) and this directory
are imported here, so the worker's peak memory is that of the work; the
checks run in the parent.  Usage (normally started by run.py)::

    python3 perfbench/worker.py < spec.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from array import array
from typing import NamedTuple

from reference import CHUNK_NS, REFERENCE_NS, clock, reference_ns

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CHILD = os.path.join(HERE, "cli_child.py")
RESULTS = os.path.join(HERE, "results")


class Launch(NamedTuple):
    """A CLI run, with the number and total time of the reference loops the
    child ran during it (see cli_child.py)."""

    code: int
    stdout: str
    stderr: str
    refs: int
    refs_ns: int


def _normalize(res, err):
    if err is not None:
        return ["error", f"{type(err).__name__}: {err}"]
    if isinstance(res, float):
        return [res, None]
    if isinstance(res, Launch):
        return [res.code, res.stdout, res.stderr]
    if isinstance(res, tuple):  # an in-process CLI run: exit code, stdout, stderr
        return list(res)
    if isinstance(res, list):  # verify_identities reports
        return [[r.identity_name, r.lhs, r.rhs, r.abs_diff, r.tolerance, r.passed] for r in res]
    return [res.value, res.abs_err]


def _callers(root: str, inprocess_cli: bool) -> dict:
    from conedet import cli, determinants as D

    def launch(*argv):
        # The child's output goes to files: a write to a full pipe that the
        # child's timer signal interrupts returns short, and Python's
        # buffered I/O then drops the rest of the output.
        read_fd, write_fd = os.pipe()
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
                    proc = subprocess.run(
                        [sys.executable, CLI_CHILD, *argv],
                        cwd=root,
                        env=dict(os.environ, PERFBENCH_REF_FD=str(write_fd)),
                        pass_fds=(write_fd,),
                        stdout=out,
                        stderr=err,
                        check=False,
                    )
                    out.seek(0)
                    err.seek(0)
                    stdout, stderr = out.read().decode(), err.read().decode()
            finally:
                os.close(write_fd)
            count, total = (int(x) for x in pipe.read().split() or (0, 0))
        return Launch(proc.returncode, stdout, stderr, count, total)

    def in_process(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return (code, out.getvalue(), err.getvalue())

    # Functions are looked up on the module at call time, so a traced run
    # sees the wrappers.
    return {
        "hyperbolic": lambda a, eta: D.logdet_hyperbolic_cone(D.ConeGeometry(a, eta)),
        "spindle": lambda a, K: D.zeta_prime0_spindle(a, K),
        "sphericalcone": lambda a, K: D.zeta_prime0_spherical_cone(a, K),
        "diskcone": lambda a, K: D.zeta_prime0_unit_disk_cone(D.CurvedDiskGeometry(a, K)),
        "orbifold": lambda w, eta: D.logdet_orbifold_cone(w, eta),
        "poincarecap": lambda eta: D.logdet_poincare_cap(eta),
        "flatdisk": lambda r: D.logdet_flat_disk(r),
        "small_eta": lambda w, eta: D.small_eta_asymptotics(w, eta),
        "fp": lambda w, eta: D.fp_asymptotics_reference(w, eta),
        "verify_cold": lambda: D.verify_identities(),
        "verify_warm": lambda: D.verify_identities(),
        "cli": in_process if inprocess_cli else launch,
    }


class Rounds:
    """Runs rounds.  Keeps every untraced round's scaled operation times
    (round after round, in a compact array so the worker's memory hardly
    depends on how many rounds ran), the reference-loop times, the first
    round's outputs, and the indices of operations whose output later
    differed from it."""

    def __init__(self, ops: list, callers: dict) -> None:
        self.calls = [(callers[kind], args) for kind, args, _ in ops]
        self.times = array("q")
        self.references: dict[str, list[int]] = {"untraced": [], "traced": []}
        self.first: list | None = None
        self.mismatch: set[int] = set()

    def run(self, traced: bool) -> None:
        refs = self.references["traced" if traced else "untraced"]
        outs = []
        chunk: list[int] = []
        before = reference_ns()
        refs.append(before)
        chunk_start = clock()

        def flush() -> None:
            nonlocal before, chunk_start
            if chunk:
                after = reference_ns()
                refs.append(after)
                if not traced:
                    factor = 2.0 * REFERENCE_NS / (before + after)
                    self.times.extend(round(dt * factor) for dt in chunk)
                chunk.clear()
                before = after
            chunk_start = clock()

        for fn, args in self.calls:
            err = res = None
            t0 = clock()
            try:
                res = fn(*args)
            except Exception as exc:  # a failing operation is data, not a crash
                err = exc
            dt = clock() - t0
            outs.append(_normalize(res, err))
            if isinstance(res, Launch) and res.refs:
                # The child timed the reference loop during its own run; the
                # loops' time is taken out and the rest scaled by their mean.
                flush()  # keeps the times in the order of the operations
                mean = res.refs_ns / res.refs
                refs.append(round(mean))
                if not traced:
                    self.times.append(round((dt - res.refs_ns) * REFERENCE_NS / mean))
                continue
            chunk.append(dt)
            if clock() - chunk_start >= CHUNK_NS:
                flush()
        flush()
        if self.first is None:
            self.first = outs
        elif outs != self.first:
            self.mismatch.update(i for i, (x, y) in enumerate(zip(outs, self.first)) if x != y)


def main() -> int:
    spec = json.loads(sys.stdin.read())
    root = spec["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import tracer as tracing

    rounds = Rounds(spec["ops"], _callers(root, spec["inprocess_cli"]))
    tr = tracing.Tracer() if "t" in spec["pattern"] else None
    result = {"rounds": 0, "wall_ns": 0, "traced_rounds": 0, "traced_wall_ns": 0}
    # Repeat the pattern of untraced ("u") and traced ("t") rounds, whole,
    # ``repeat`` times or until ``deadline_s`` has passed (at least once).
    start = clock()
    done = 0
    while True:
        for step in spec["pattern"]:
            traced = step == "t"
            if traced:
                result["missing"] = tr.install()
            t0 = clock()
            try:
                rounds.run(traced)
            finally:
                if traced:
                    tr.uninstall()
            key = "traced_" if traced else ""
            result[key + "rounds"] += 1
            result[key + "wall_ns"] += clock() - t0
        done += 1
        if "repeat" in spec:
            if done >= spec["repeat"]:
                break
        elif clock() - start >= spec["deadline_s"] * 1e9:
            break
    # Peak memory is read before the result is built.
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["times_ns"] = rounds.times.tolist()
    result["references_ns"] = rounds.references
    if tr is not None:
        result["agg"] = tr.aggregates()
        if spec["spans_path"]:
            tr.write_spans(spec["spans_path"])

    result["outputs"] = rounds.first
    result["mismatch"] = sorted(rounds.mismatch)
    sys.stdout.write(json.dumps(result, allow_nan=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
