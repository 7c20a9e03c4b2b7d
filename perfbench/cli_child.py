"""Runs ``python -m conedet.cli ARGS`` while timing the machine's speed
from inside the child.

A CLI launch runs 60 to 600 ms in a child process, and the host's speed
swings about 2x within that time, so reference loops timed by the parent
before and after a launch do not tell how fast the child ran.  Here a
timer signal runs the reference loop of reference.py every SAMPLE_S
seconds between the child's bytecodes, on the child's own core, and the
number of loops and their total time go to the file descriptor named by
``PERFBENCH_REF_FD`` when the CLI ends.  worker.py takes the loops' time
out of the launch's wall time and scales the rest by their mean, as it
scales an in-process chunk.  Usage (normally started by worker.py)::

    PERFBENCH_REF_FD=N python3 perfbench/cli_child.py det hyperbolic --a 1 --eta 1
"""

import os
import runpy
import signal

from reference import CHUNK_NS, clock, reference_loop

SAMPLE_S = CHUNK_NS / 1e9

_refs = []


def _sample(*_):
    t0 = clock()
    reference_loop()
    _refs.append(clock() - t0)


def main():
    fd = int(os.environ.pop("PERFBENCH_REF_FD"))
    _sample()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        runpy.run_module("conedet.cli", run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        _sample()
        os.write(fd, f"{len(_refs)} {sum(_refs)}".encode())
        os.close(fd)


if __name__ == "__main__":
    main()
