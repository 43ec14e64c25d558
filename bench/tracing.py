"""Spans around calls into gramcode, recorded from the benchmark's side.

The traced run replaces each public function in TARGETS, at every module
binding that refers to it (for example both lattice.enumerate_points and
codec.enumerate_points), with a wrapper that records a span: its name,
start, end, parent span and the id of the benchmark operation it belongs
to.  Per-candidate and per-row helpers (asym_distance, is_member, the
count_points emit callback) are deliberately left alone so the overhead
stays small.  Spans are kept in memory and written out when the run ends.

Work counts are taken at the same boundaries.  `points` are observed
(the return values); `rows`, `candidates` and `occurrences` are computed
from each call's inputs and outcome, as noted per counter.
"""

from __future__ import annotations

import functools
import inspect
import json
from math import comb

TARGETS = (
    ("grams", "profile"),
    ("graphs", "build_graph"),
    ("graphs", "eulerian_walk"),
    ("graphs", "hamiltonian_cycle"),
    ("lattice", "count_points"),
    ("lattice", "enumerate_points"),
    ("lattice", "fit_quasipolynomial"),
    ("codec", "grc_intersect"),
    ("codec", "decode_profile"),
    ("codec", "euler_word"),
    ("codec", "systematic_encode"),
    ("codec", "systematic_layout"),
    ("codec", "format_codebook_file"),
    ("codec", "parse_codebook_file"),
    ("aecc", "build_code"),
    ("aecc", "decode_bounded"),
    ("channel", "transmit"),
    ("cli", "main"),
)
MODULES = ("grams", "graphs", "lattice", "aecc", "codec", "channel", "cli")


def _points_counted(args, result, exc):
    return {"points": result if exc is None else 0}


def _points_enumerated(args, result, exc):
    return {"points": len(result) if exc is None else 0}


def _decode_rows(args, result, exc):
    # computed: one asym_distance per codebook row
    return {"rows": len(args["codebook"].codewords)}


def _decode_candidates(args, result, exc):
    # computed: compositions tried, sum over w <= stop of C(N+w-1, w); the
    # stop weight is the decoded error weight, or max_weight on any failure
    n = args["code"].length
    if exc is None:
        stop = sum(result) - sum(args["received"])
    else:
        stop = args["max_weight"]
    candidates = sum(comb(n + w - 1, w) for w in range(stop + 1))
    return {"candidates": candidates, "failures": 0 if exc is None else 1}


def _occurrences(args, result, exc):
    # computed: gram occurrences of the transmitted word
    return {"occurrences": len(args["x"]) - args["ell"] + 1}


COUNTERS = {
    "lattice.count_points": _points_counted,
    "lattice.enumerate_points": _points_enumerated,
    "codec.decode_profile": _decode_rows,
    "aecc.decode_bounded": _decode_candidates,
    "channel.transmit": _occurrences,
}


COUNT_METRICS = (
    "lattice.count_points.points",
    "lattice.enumerate_points.points",
    "codec.decode_profile.rows",
    "aecc.decode_bounded.candidates",
    "aecc.decode_bounded.failures",
    "channel.transmit.occurrences",
)


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, func in TARGETS:
        name = f"{module}.{func}"
        names += [f"{name}.calls", f"{name}.busy_s"]
    names += COUNT_METRICS
    names += [f"{module}.self_s" for module in MODULES]
    names.append("trace.overhead_ratio")
    return names


class Tracer:
    """Records spans for wrapped functions and for the benchmark's own operations."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # (id, parent, op, name, start, end, self_s)
        self.counts: dict[str, int] = {}
        self.op = 0
        self._last_id = 0
        self._stack = []  # [span id, time covered by children]
        self._restore = []

    def _enter(self):
        self._last_id += 1
        span_id = self._last_id
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([span_id, 0.0])
        return span_id, parent, self.clock()

    def _exit(self, name, span_id, parent, start):
        end = self.clock()
        _, covered = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((span_id, parent, self.op, name, start, end, end - start - covered))

    def operation(self, kind, run):
        """Run one benchmark operation under a root span with a fresh op id."""
        self.op += 1
        span_id, parent, start = self._enter()
        try:
            return run()
        finally:
            self._exit(f"bench.{kind}", span_id, parent, start)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = tracer._enter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                tracer._exit(name, span_id, parent, start)
                if counter:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(bound.arguments, result, exc).items():
                        full = f"{name}.{key}"
                        tracer.counts[full] = tracer.counts.get(full, 0) + value

        return traced

    def install(self, mods):
        """Replace every binding of each target in the gramcode modules."""
        namespaces = [mods.package] + [getattr(mods, m) for m in MODULES]
        for module, func in TARGETS:
            original = getattr(getattr(mods, module), func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, original))
        self.started = self.clock()

    def uninstall(self):
        self.elapsed = self.clock() - self.started
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def layer_metrics(self):
        """calls/busy_s per target, work counts and self_s per module."""
        out = {}
        for module, func in TARGETS:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
        for key in COUNT_METRICS:
            out[key] = self.counts.get(key, 0)
        self_s = {module: 0.0 for module in MODULES}
        for _id, _parent, _op, name, start, end, own in self.spans:
            module = name.split(".")[0]
            if module == "bench":
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            self_s[module] += own
        for module in MODULES:
            out[f"{module}.self_s"] = self_s[module]
        return out

    def self_total(self):
        return sum(span[6] for span in self.spans)

    def write(self, path):
        with open(path, "w") as handle:
            for span_id, parent, op, name, start, end, own in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end, "self_s": own,
                }) + "\n")
