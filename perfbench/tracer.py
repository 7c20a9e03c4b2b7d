"""Spans at the module boundaries of conedet, recorded from outside.

``Tracer.install`` replaces each public function with a wrapper *where the
importing module binds it* (``determinants.barnes_zeta_prime0``,
``special_functions.adaptive_quadrature``, ...), because that is the name
the caller looks up at call time.  A wrapper records a span (name, start,
end, parent) and, when it closes, adds its duration to the parent's child
time, so a span's self time is its duration minus its children.  The
integrand handed to ``adaptive_quadrature`` is wrapped as a span of its
own, which counts evaluations without help from the library.

Spans stay in memory (the first ``SPAN_BUDGET`` of them; aggregates cover all)
and are written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import time
from array import array

# (module, attribute, span name).  Several bindings of one layer share a name.
BINDINGS = [
    ("special_functions", "adaptive_quadrature", "quadrature@special_functions"),
    ("pa_oracle", "adaptive_quadrature", "quadrature@pa_oracle"),
    ("determinants", "barnes_zeta_prime0", "special_functions.barnes"),
    ("determinants", "barnes_zeta_prime0_orbifold", "special_functions.barnes_orbifold"),
    ("determinants", "log_gamma", "special_functions.log_gamma"),
    ("special_functions", "log_gamma", "special_functions.log_gamma"),
    ("special_functions", "im_log_gamma", "special_functions.im_log_gamma"),
    ("special_functions", "hurwitz_zeta", "special_functions.hurwitz"),
    ("special_functions", "hurwitz_zeta_sderiv", "special_functions.hurwitz"),
    ("special_functions", "digamma", "special_functions.digamma"),
    ("pa_oracle", "pa_annulus_numeric", "pa_oracle.annulus"),
    ("pa_oracle", "pa_disk_numeric", "pa_oracle.disk"),
    ("cli", "main", "cli.main"),
]

DETERMINANTS_PUBLIC = [
    "logdet_hyperbolic_cone",
    "logdet_orbifold_cone",
    "small_eta_asymptotics",
    "fp_asymptotics_reference",
    "zeta_prime0_spindle",
    "zeta0_spindle",
    "zeta_prime0_spherical_cone",
    "zeta_prime0_unit_disk_cone",
    "zeta0_unit_disk_cone",
    "logdet_flat_disk",
    "logdet_poincare_cap",
    "rescale_logdet",
    "annulus_ratio_closed_form",
    "curvature_from_radius",
    "verify_identities",
]
# The determinants functions the CLI calls enter through the names cli binds.
CLI_BOUND = [
    "logdet_hyperbolic_cone",
    "logdet_orbifold_cone",
    "small_eta_asymptotics",
    "fp_asymptotics_reference",
    "zeta_prime0_spindle",
    "zeta_prime0_spherical_cone",
    "zeta_prime0_unit_disk_cone",
    "logdet_flat_disk",
    "logdet_poincare_cap",
    "verify_identities",
]
BINDINGS += [("determinants", fn, "determinants." + fn) for fn in DETERMINANTS_PUBLIC]
BINDINGS += [("cli", fn, "determinants." + fn) for fn in CLI_BOUND]

BARNES_BACKED = {
    "determinants.logdet_hyperbolic_cone",
    "determinants.zeta_prime0_spindle",
    "determinants.zeta_prime0_spherical_cone",
    "determinants.zeta_prime0_unit_disk_cone",
}

# Spans kept for writing out, which bounds the spans file.
SPAN_BUDGET = 100_000

# Frame layout on the open-span stack.
_NID, _START, _CHILD, _IDX, _PARENT, _BARNES_CHILD = range(6)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stack: list[list] = []
        self.count: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.opened = 0
        # spans kept for writing out: index, name id, parent index, start, end
        self.spans = {k: array("q") for k in ("idx", "nid", "parent", "start", "end")}
        self.segments: dict[str, int] = {}  # quadrature breakpoint intervals per binding
        self.cold = [0, 0]  # Barnes-backed calls that computed Barnes: count, ns
        self.warm = [0, 0]  # Barnes-backed calls served from the cache: count, ns
        self.barnes_in_backed = 0
        self._saved: list[tuple[object, str, object]] = []
        self._barnes_id = self._nid("special_functions.barnes")
        self._backed_ids = {self._nid(n) for n in BARNES_BACKED}

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._nid(name)
        stack = self.stack
        clock = time.perf_counter_ns
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.opened
            self.opened = idx + 1
            frame = [nid, 0, 0, idx, stack[-1][_IDX] if stack else -1, False]
            stack.append(frame)
            frame[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)

        return wrapper

    def _close(self, frame: list, end: int) -> None:
        nid = frame[_NID]
        dur = end - frame[_START]
        self.count[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - frame[_CHILD]
        if self.stack:
            parent = self.stack[-1]
            parent[_CHILD] += dur
            if nid == self._barnes_id and parent[_NID] in self._backed_ids:
                parent[_BARNES_CHILD] = True
                self.barnes_in_backed += 1
        if nid in self._backed_ids:
            bucket = self.cold if frame[_BARNES_CHILD] else self.warm
            bucket[0] += 1
            bucket[1] += dur
        if frame[_IDX] < SPAN_BUDGET:
            s = self.spans
            s["idx"].append(frame[_IDX])
            s["nid"].append(nid)
            s["parent"].append(frame[_PARENT])
            s["start"].append(frame[_START])
            s["end"].append(end)

    def _wrap_quadrature(self, quad, binding: str):
        integrand_name = "integrand@" + binding
        self._nid(integrand_name)
        self.segments.setdefault(binding, 0)
        wrap = self.wrap

        def quadrature(f, points, *args, **kwargs):
            self.segments[binding] += len(points) - 1
            return quad(wrap(f, integrand_name), points, *args, **kwargs)

        return self.wrap(functools.wraps(quad)(quadrature), "quadrature@" + binding)

    def install(self) -> list[str]:
        """Wrap every binding that exists; return the ones that do not."""
        missing = []
        for mod_name, attr, name in BINDINGS:
            module = importlib.import_module("conedet." + mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            if attr == "adaptive_quadrature":
                wrapped = self._wrap_quadrature(fn, mod_name)
            else:
                wrapped = self.wrap(fn, name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped)
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def aggregates(self) -> dict:
        return {
            "names": {
                name: [self.count[i], self.total_ns[i], self.self_ns[i]]
                for i, name in enumerate(self.names)
            },
            "segments": self.segments,
            "cold": self.cold,
            "warm": self.warm,
            "barnes_in_backed": self.barnes_in_backed,
            "spans_opened": self.opened,
        }

    def write_spans(self, path: str) -> None:
        """Append the kept spans as CSV rows: idx,name,parent,start_ns,end_ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        s = self.spans
        with gzip.open(path, "at") as out:
            for i in range(len(s["idx"])):
                out.write(
                    f"{s['idx'][i]},{self.names[s['nid'][i]]},{s['parent'][i]},"
                    f"{s['start'][i]},{s['end'][i]}\n"
                )


def merge(aggs: list[dict]) -> dict:
    """Sum aggregates from several traced processes."""
    out = {"names": {}, "segments": {}, "cold": [0, 0], "warm": [0, 0], "barnes_in_backed": 0, "spans_opened": 0}
    for agg in aggs:
        for name, vals in agg["names"].items():
            cur = out["names"].setdefault(name, [0, 0, 0])
            for i in range(3):
                cur[i] += vals[i]
        for k, v in agg["segments"].items():
            out["segments"][k] = out["segments"].get(k, 0) + v
        for k in ("cold", "warm"):
            out[k] = [out[k][0] + agg[k][0], out[k][1] + agg[k][1]]
        out["barnes_in_backed"] += agg["barnes_in_backed"]
        out["spans_opened"] += agg["spans_opened"]
    return out
