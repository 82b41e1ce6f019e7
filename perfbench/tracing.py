"""Span recording around crossrank's public functions, from outside the
program.

``install`` wraps each function named in ``TARGETS``.  Modules import
names directly (``from .poly import roots``), so the wrapper replaces the
original in every loaded ``crossrank`` module namespace that holds it.
Spans are ``[name, start_ns, end_ns, parent, op]`` lists kept in memory
and written out when the run ends; a span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, function, span name); the span name is the per-layer prefix
TARGETS = (
    ("poly", "roots", "poly.roots"),
    ("poly", "sylvester_bezout", "poly.sylvester_bezout"),
    ("poly", "winding_number", "poly.winding_number"),
    ("algebra", "convolve", "algebra.convolve"),
    ("algebra", "det_on_circle", "algebra.det_on_circle"),
    ("algebra", "matrix_embedding", "algebra.matrix_embedding"),
    ("elimination", "eliminate", "elimination.eliminate"),
    ("elimination", "perturb_avoiding", "elimination.perturb_avoiding"),
    ("elimination", "bezout_certificate", "elimination.bezout_certificate"),
    ("elimination", "winding_obstruction", "elimination.winding_obstruction"),
    ("elimination", "verify_winding", "elimination.verify_winding"),
    ("elimination", "verify_bezout", "elimination.verify_bezout"),
    ("liftrank", "disk_column_oracle", "liftrank.disk_column_oracle"),
    ("liftrank", "left_invertible_lift", "liftrank.left_invertible_lift"),
    ("liftrank", "lift_generating_tuple", "liftrank.lift_generating_tuple"),
    ("moebius", "rotation_action_of", "moebius.rotation_action_of"),
    ("serialize", "write_file", "serialize.write_file"),
    ("serialize", "dumps", "serialize.dumps"),
    ("serialize", "crossed_to_obj", "serialize.crossed_to_obj"),
    ("serialize", "bezout_to_obj", "serialize.bezout_to_obj"),
    ("serialize", "winding_to_obj", "serialize.winding_to_obj"),
    ("serialize", "rotation_action_to_obj", "serialize.rotation_action_to_obj"),
    ("serialize", "lift_to_obj", "serialize.lift_to_obj"),
    ("serialize", "read_file", "serialize.read_file"),
    ("serialize", "crossed_from_obj", "serialize.crossed_from_obj"),
    ("serialize", "bezout_from_obj", "serialize.bezout_from_obj"),
    ("serialize", "winding_from_obj", "serialize.winding_from_obj"),
    ("serialize", "subgroup_from_obj", "serialize.subgroup_from_obj"),
)


# counters that keep a maximum; the others are sums
MAXIMA = ("poly.sylvester_bezout.max_dim", "elimination.top_degree.max")


class Recorder:
    """Spans of one process, plus counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.stack: list[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def write(self, path) -> None:
        write_spans(path, self.spans, self.counts)


def write_spans(path, spans, counts) -> None:
    """One JSON span per line, then the counters."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"counts": counts}) + "\n")


def _observe(recorder: Recorder, name: str, args, kwargs, result) -> None:
    """Counters that a span's arguments or result carry."""
    if name == "poly.sylvester_bezout":
        f, g = args[0], args[1]
        recorder.peak("poly.sylvester_bezout.max_dim", f.degree + g.degree)
    elif name == "elimination.eliminate":
        recorder.peak("elimination.top_degree.max", result.top_poly.degree)
    elif name == "algebra.det_on_circle":
        samples = args[1] if len(args) > 1 else kwargs.get("samples", 64)
        recorder.add("algebra.det_on_circle.points", samples)
    elif name == "serialize.dumps":
        recorder.add("serialize.bytes", len(result))
    elif name == "serialize.read_file":
        recorder.add("serialize.bytes", os.path.getsize(args[0]))


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        _observe(recorder, name, args, kwargs, result)
        return result
    return wrapper


def install(recorder: Recorder) -> None:
    """Replace every target in every loaded crossrank namespace."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "crossrank" or key.startswith("crossrank."))]
    for module_name, fn_name, span_name in TARGETS:
        original = getattr(sys.modules["crossrank." + module_name], fn_name)
        wrapper = _wrap(recorder, span_name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def read_spans(path) -> tuple[list[list], dict]:
    spans, counts = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            item = json.loads(line)
            if isinstance(item, dict):
                counts = item["counts"]
            else:
                spans.append(item)
    return spans, counts


def merge(paths) -> tuple[list[list], dict]:
    """Spans and counters of several child processes, in path order.

    Parent indices are shifted into the merged list, and each span's
    operation becomes its file's position.
    """
    spans, counts = [], {}
    for op, path in enumerate(paths):
        child, child_counts = read_spans(path)
        offset = len(spans)
        for span in child:
            if span[3] >= 0:
                span[3] += offset
            span[4] = op
            spans.append(span)
        for key, value in child_counts.items():
            if key in MAXIMA:
                counts[key] = max(counts.get(key, value), value)
            else:
                counts[key] = counts.get(key, 0) + value
    return spans, counts


def self_times(spans: list[list]) -> list[int]:
    """Duration minus the time covered by direct children, per span."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], counts: dict, rounds: int) -> dict:
    """Per-layer metrics for one pass of the workload's list.

    Calls, self times and byte counts are divided by ``rounds``; maxima and
    ratios are not.  A lift is a ``left_invertible_lift`` span that is not
    nested in another one (the recursion and level retries are).
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for (name, *_), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + t

    def per_round(value):
        return value / rounds

    def ms(name):
        return per_round(self_ns.get(name, 0)) / 1e6

    def group_ms(suffixes):
        return sum(ms(name) for name in self_ns
                   if name.startswith("serialize.") and name.endswith(suffixes))

    roots_in_sylvester = sum(1 for s in spans if s[0] == "poly.roots" and s[3] >= 0
                             and spans[s[3]][0] == "poly.sylvester_bezout")
    certs = calls.get("elimination.bezout_certificate", 0)
    elim_in_cert = sum(1 for i, s in enumerate(spans) if s[0] == "elimination.eliminate"
                       and _has_ancestor(spans, i, "elimination.bezout_certificate"))
    syl_in_cert = sum(1 for i, s in enumerate(spans) if s[0] == "poly.sylvester_bezout"
                      and _has_ancestor(spans, i, "elimination.bezout_certificate"))
    sylvester = calls.get("poly.sylvester_bezout", 0)
    oracle = calls.get("liftrank.disk_column_oracle", 0)
    lifts = sum(1 for s in spans if s[0] == "liftrank.left_invertible_lift"
                and not (s[3] >= 0 and spans[s[3]][0] == s[0]))
    return {
        "poly.roots.calls": per_round(calls.get("poly.roots", 0)),
        "poly.roots.self_ms": ms("poly.roots"),
        "poly.sylvester_bezout.calls": per_round(sylvester),
        "poly.sylvester_bezout.self_ms": ms("poly.sylvester_bezout"),
        "poly.sylvester_bezout.max_dim": counts.get("poly.sylvester_bezout.max_dim", 0),
        "poly.roots_per_sylvester": roots_in_sylvester / sylvester if sylvester else 0.0,
        "elimination.eliminate.calls": per_round(calls.get("elimination.eliminate", 0)),
        "elimination.eliminate.self_ms": ms("elimination.eliminate"),
        "elimination.eliminate_per_cert": elim_in_cert / certs if certs else 0.0,
        "elimination.perturb_avoiding.calls": per_round(calls.get("elimination.perturb_avoiding", 0)),
        "elimination.perturb_avoiding.self_ms": ms("elimination.perturb_avoiding"),
        "elimination.sylvester_attempts_per_cert": syl_in_cert / certs if certs else 0.0,
        "elimination.top_degree.max": counts.get("elimination.top_degree.max", 0),
        "algebra.convolve.calls": per_round(calls.get("algebra.convolve", 0)),
        "algebra.convolve.self_ms": ms("algebra.convolve"),
        "algebra.det_on_circle.calls": per_round(calls.get("algebra.det_on_circle", 0)),
        "algebra.det_on_circle.self_ms": ms("algebra.det_on_circle"),
        "algebra.det_on_circle.points": per_round(counts.get("algebra.det_on_circle.points", 0)),
        "algebra.matrix_embedding.self_ms": ms("algebra.matrix_embedding"),
        "poly.winding_number.self_ms": ms("poly.winding_number"),
        "elimination.winding_obstruction.self_ms": ms("elimination.winding_obstruction"),
        "elimination.verify_winding.self_ms": ms("elimination.verify_winding"),
        "elimination.verify_bezout.self_ms": ms("elimination.verify_bezout"),
        "liftrank.disk_column_oracle.calls": per_round(oracle),
        "liftrank.disk_column_oracle.self_ms": ms("liftrank.disk_column_oracle"),
        "liftrank.left_invertible_lift.calls": per_round(calls.get("liftrank.left_invertible_lift", 0)),
        "liftrank.left_invertible_lift.self_ms": ms("liftrank.left_invertible_lift"),
        "liftrank.lift_generating_tuple.self_ms": ms("liftrank.lift_generating_tuple"),
        "liftrank.oracle_calls_per_lift": oracle / lifts if lifts else 0.0,
        "moebius.rotation_action_of.self_ms": ms("moebius.rotation_action_of"),
        "serialize.write.self_ms": group_ms(("write_file", "dumps", "_to_obj")),
        "serialize.read.self_ms": group_ms(("read_file", "_from_obj")),
        "serialize.bytes": per_round(counts.get("serialize.bytes", 0)),
    }
