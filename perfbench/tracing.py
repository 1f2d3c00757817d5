"""Spans around the program's public functions, installed from outside.

Each wrapper replaces a function at the attribute its callers look up, so no
file of the program changes.  A span records its name, start, end, parent
span and job id; spans stay in memory until the run writes them out.  The
wrappers are installed only around traced jobs, so untraced jobs run the
unmodified program.
"""

from __future__ import annotations

import gzip
import re
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from stats import loglog_slope, quantile, tail_level

# Layer name -> (attribute sites as (module name, object path, attribute)).
# Every site through which a job reaches the function is listed.
LAYERS = {
    "jsonio.polygon_from_dict": [("jsonio", "", "polygon_from_dict")],
    "polygon.validate": [("jsonio", "", "validate")],
    "polygon.contains": [("polygon", "RectPolygon", "contains")],
    "polygon.split": [("placement", "", "split"), ("clipping", "", "split")],
    "polygon.pocket": [("placement", "", "pocket")],
    "polygon.count_reflex_below": [("placement", "", "count_reflex_below"),
                                   ("polygon", "", "count_reflex_below")],
    "polygon.iter_normal_cuts": [("placement", "", "iter_normal_cuts")],
    "transforms.polygon": [("transforms", "Transform", "polygon")],
    "kernel.kernel": [("kernel", "", "kernel")],
    "clipping.clip_fast": [("kernel", "", "clip_fast")],
    "kernel.in_all_cones": [("placement", "", "in_all_cones")],
    "placement.cover": [("placement", "", "cover")],
    "placement.route_beacons": [("placement", "", "route_beacons")],
    "placement.find_safe_cut": [("placement", "", "find_safe_cut")],
    "attraction.attraction_path": [("attraction", "", "attraction_path"),
                                   ("verify", "", "attraction_path")],
    "attraction.attracts": [("attraction", "", "attracts"), ("verify", "", "attracts")],
    "verify.verify_coverage": [("verify", "", "verify_coverage")],
    "verify.verify_routing": [("verify", "", "verify_routing")],
}

SLOPE_LAYERS = ("polygon.validate", "kernel.kernel", "placement.cover", "placement.route_beacons")

DEAD_REASONS = ("perpendicular_foot", "stuck_vertex", "ambiguous_vertex")

# Placement trace labels (parameters dropped) -> metric suffix.
TRACE_LABELS = {
    "root": "root", "base": "base", "safe_cut": "safe_cut", "safe_minus": "safe_minus",
    "safe_plus": "safe_plus", "no_safe": "no_safe", "minus": "minus", "plus": "plus",
    "overlap_h": "overlap_h", "overlap_v": "overlap_v", "top(a)": "top_a",
    "top(b-i)": "top_b-i", "top(b-ii)": "top_b-ii", "top(b-iii)": "top_b-iii",
    "top(b-wall)": "top_b-wall", "bottom(2,0)": "bottom_2_0", "bottom-overlap": "bottom-overlap",
    "route_root": "route_root", "route_monotone": "route_monotone",
    "route(rA>=1)": "route_rA_ge_1", "route(rA=0)": "route_rA_eq_0",
    "route(C monotone)": "route_C_monotone", "route(C two-piece)": "route_C_two-piece",
    "route(C three-piece)": "route_C_three-piece", "route(pair-fallback)": "route_pair-fallback",
    "A": "A", "B": "B", "C": "C", "C2": "C2", "C3": "C3",
}


def trace_label(label: str) -> str:
    label = re.sub(r"\[.*\]$", "", label)  # no_safe[<transform>]
    label = re.sub(r"^top\(b-i,.*\)$", "top(b-i)", label)  # top(b-i,<name>)
    return TRACE_LABELS.get(label, "other")


def per_layer_names() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for layer in LAYERS:
        names[f"{layer}.calls"] = "count/job"
        names[f"{layer}.self_s"] = "s/job"
    for layer in SLOPE_LAYERS:
        names[f"{layer}.slope"] = "exponent"
    names["kernel.clipped_share"] = "share"
    names["placement.beacons_per_bound"] = "share"
    for suffix in sorted(set(TRACE_LABELS.values())) + ["other"]:
        names[f"placement.trace.{suffix}"] = "count/job"
    names["attraction.path_p50_s"] = "s"
    names["attraction.path_tail_s"] = "s"
    names["attraction.segments_per_path"] = "count/path"
    names["attraction.reached_share"] = "share"
    for reason in DEAD_REASONS:
        names[f"attraction.dead.{reason}"] = "count/job"
    names["verify.samples"] = "count/call"
    names["verify.paths_per_sample"] = "count/sample"
    names["verify.pairs"] = "count/call"
    names["verify.paths_per_pair"] = "count/pair"
    names["trace.overhead_share"] = "share"
    return names


class Span:
    __slots__ = ("name", "parent", "job", "start", "end", "result")

    def __init__(self, name, parent, job, start):
        self.name = name
        self.parent = parent
        self.job = job
        self.start = start
        self.end = 0
        self.result = None


class Recorder:
    """Collects spans for the traced jobs of one run."""

    def __init__(self, modules):
        self.spans: List[Span] = []
        self.jobs: Dict[int, tuple] = {}  # job id -> (family, n)
        self._stack: List[int] = []
        self._job: Optional[int] = None
        self.slopes: Dict[str, Dict[str, float]] = {}  # filled by metrics()
        self.path_level: Optional[float] = None
        self._sites = []
        for layer, sites in LAYERS.items():
            for module, path, attr in sites:
                owner = getattr(modules, module)
                if path:
                    owner = getattr(owner, path)
                original = owner.__dict__[attr]
                self._sites.append((owner, attr, original, self._wrap(layer, original)))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self._job, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def run_job(self, job_id: int, family: str, n: int, call):
        """Run call() with every wrapper installed, recording its spans."""
        self.jobs[job_id] = (family, n)
        self._job = job_id
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        try:
            return call()
        finally:
            for owner, attr, original, _ in self._sites:
                setattr(owner, attr, original)
            self._job = None

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: id, parent, job, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.parent}\t{s.job}\t{s.name}\t{s.start}\t{s.end}\n")

    # ---------------------------------------------------------- aggregation

    def metrics(self, overhead_share: float) -> Dict[str, float]:
        """Per-layer metrics, counts averaged over the traced jobs."""
        jobs = max(1, len(self.jobs))
        spans = self.spans
        child_ns = [0] * len(spans)
        clipped_kernels = set()
        for s in spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
                if s.name == "clipping.clip_fast" and spans[s.parent].name == "kernel.kernel":
                    clipped_kernels.add(s.parent)
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        layer_time = defaultdict(float)  # (layer, job) -> inclusive seconds
        for i, s in enumerate(spans):
            calls[s.name] += 1
            self_ns[s.name] += s.end - s.start - child_ns[i]
            if s.name in SLOPE_LAYERS:
                layer_time[(s.name, s.job)] += (s.end - s.start) / 1e9

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / jobs
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9 / jobs
        for layer in SLOPE_LAYERS:
            points = [(self.jobs[job][0], self.jobs[job][1], t)
                      for (name, job), t in layer_time.items() if name == layer]
            pooled, per_family = loglog_slope(points)
            self.slopes[layer] = per_family
            out[f"{layer}.slope"] = 0.0 if pooled is None else pooled
        out["kernel.clipped_share"] = len(clipped_kernels) / max(1, calls["kernel.kernel"])

        ratios, labels = [], defaultdict(int)
        paths, path_ns, segments, reached = 0, [], 0, 0
        dead = defaultdict(int)
        samples, pairs = [], []
        paths_under = defaultdict(int)  # verifier span -> attraction paths below it
        verifier_of = {}
        for i, s in enumerate(spans):
            if s.name in ("verify.verify_coverage", "verify.verify_routing"):
                verifier_of[i] = i
            elif s.parent >= 0 and s.parent in verifier_of:
                verifier_of[i] = verifier_of[s.parent]
            if s.name in ("placement.cover", "placement.route_beacons") and s.result is not None:
                bs = s.result
                bound = max(1, -(-bs.trace.r // 3)) if s.name == "placement.cover" else (3 * bs.trace.r) // 4
                if bound:
                    ratios.append(len(bs.beacons) / bound)
                _count_labels(bs.trace, labels)
            elif s.name == "attraction.attraction_path" and s.result is not None:
                paths += 1
                path_ns.append(s.end - s.start)
                segments += len(s.result.segments)
                if s.result.reached:
                    reached += 1
                else:
                    dead[s.result.dead_reason] += 1
                if i in verifier_of:
                    paths_under[verifier_of[i]] += 1
            elif s.name == "verify.verify_coverage" and s.result is not None:
                samples.append((i, s.result.stats["samples"]))
            elif s.name == "verify.verify_routing" and s.result is not None:
                pairs.append((i, s.result.stats["pairs"]))

        out["placement.beacons_per_bound"] = sum(ratios) / len(ratios) if ratios else 0.0
        for suffix in sorted(set(TRACE_LABELS.values())) + ["other"]:
            out[f"placement.trace.{suffix}"] = labels[suffix] / jobs
        self.path_level = tail_level(len(path_ns))
        out["attraction.path_p50_s"] = quantile(path_ns, 0.5) / 1e9 if path_ns else 0.0
        out["attraction.path_tail_s"] = (quantile(path_ns, self.path_level) / 1e9
                                         if self.path_level else 0.0)
        out["attraction.segments_per_path"] = segments / paths if paths else 0.0
        out["attraction.reached_share"] = reached / paths if paths else 0.0
        for reason in DEAD_REASONS:
            out[f"attraction.dead.{reason}"] = dead[reason] / jobs
        for key, found in (("samples", samples), ("pairs", pairs)):
            total = sum(c for _, c in found)
            out[f"verify.{key}"] = total / len(found) if found else 0.0
            under = sum(paths_under[i] for i, _ in found)
            out[f"verify.paths_per_{key[:-1]}"] = under / total if total else 0.0
        out["trace.overhead_share"] = overhead_share
        return out


def _count_labels(node, labels) -> None:
    labels[trace_label(node.label)] += 1
    for child in node.children:
        _count_labels(child, labels)
