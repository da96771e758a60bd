"""Span recorder for the traced run.

The recorder wraps public functions of the package from outside: it
replaces each one in every ``spbibd`` module namespace that binds it (a
name imported with ``from .graph import classify`` is a separate binding
that must be patched too, or its calls escape the count).  Spans
``[name, start, end, parent]`` stay in memory and are written out at the
end; functions called millions of times are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function, how): "span" records name/start/end/parent per call,
# "count" only counts calls.
TRACED = (
    ("cli", "main", "span"),
    ("cli", "parse_design_file", "span"),
    ("cli", "parse_graph_file", "span"),
    ("core", "validate_structure", "span"),
    ("core", "build_bipartite", "span"),
    ("graph", "classify", "span"),
    ("graph", "local_intersection_numbers", "span"),
    ("graph", "all_distances", "span"),
    ("graph", "bfs_distances", "count"),
    ("design", "spbibd_type", "span"),
    ("design", "pair_concurrences", "span"),
    ("design", "block_intersections", "span"),
    ("design", "check_parameter_constraints", "count"),
    ("correspondence", "incidence_graph", "span"),
    ("correspondence", "design_from_graph", "span"),
    ("correspondence", "expected_incidence_arrays", "count"),
    ("homogeneity", "homogeneous_by_bruteforce", "span"),
    ("homogeneity", "homogeneity_report", "span"),
    ("homogeneity", "parameter_homogeneity", "span"),
    ("homogeneity", "delta_value", "count"),
    ("search", "enumerate_candidates", "span"),
    ("search", "candidates_csv", "span"),
    ("search", "admissibility_failures", "count"),
    ("search", "satisfied_equalities", "count"),
    ("search", "deltas_from_arrays", "count"),
)

SEARCH_TARGETS = ("almost-p", "full-p", "almost-b", "full-b")


def _span_name(module: str, func: str, args, kwargs) -> str:
    if func == "enumerate_candidates":
        # one span name per search target
        return f"search.enumerate_candidates.{kwargs.get('target', args[2] if len(args) > 2 else '')}"
    return f"{module}.{func}"


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    def _span_wrapper(self, module, func, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(_span_name(module, func, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _count_wrapper(self, module, func, fn):
        counts, key = self.counts, f"{module}.{func}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function in every loaded ``spbibd`` module that
        binds it."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "spbibd" or name.startswith("spbibd.")]
        for module, func, how in TRACED:
            original = getattr(sys.modules[f"spbibd.{module}"], func)
            make = self._span_wrapper if how == "span" else self._count_wrapper
            wrapper = make(module, func, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_and_total(spans: list[list]) -> tuple[Counter, Counter, Counter]:
    """Per span name: summed self time (duration minus the time of direct
    child spans), summed total time (spans nested inside a span of the
    same name are not added again) and the number of spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_t, total_t, calls = Counter(), Counter(), Counter()
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_t[name] += dur - child_time[idx]
        calls[name] += 1
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            total_t[name] += dur
    return self_t, total_t, calls


def layer_metrics(rec: Recorder, rows_emitted: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (``cli.import_s`` and
    ``trace_overhead_frac`` are measured outside the recorder)."""
    self_t, total_t, calls = self_and_total(rec.spans)
    c = rec.counts
    examined = c["search.admissibility_failures"]
    admissible = c["search.satisfied_equalities"]
    m = {
        "cli.parse_s": total_t["cli.parse_design_file"] + total_t["cli.parse_graph_file"],
        "cli.self_s": self_t["cli.main"],
        "core.validate_structure_s": total_t["core.validate_structure"],
        "core.build_bipartite_s": total_t["core.build_bipartite"],
        "graph.classify_s": total_t["graph.classify"],
        "graph.local_intersection_numbers_s": total_t["graph.local_intersection_numbers"],
        "graph.all_distances_s": total_t["graph.all_distances"],
        "graph.bfs_distances.calls": c["graph.bfs_distances"],
        "graph.local_intersection_numbers.calls": calls["graph.local_intersection_numbers"],
        "design.spbibd_type_s": self_t["design.spbibd_type"],
        "design.pair_concurrences_s": total_t["design.pair_concurrences"],
        "design.block_intersections_s": total_t["design.block_intersections"],
        "design.check_parameter_constraints.calls": c["design.check_parameter_constraints"],
        "correspondence.incidence_graph_s": total_t["correspondence.incidence_graph"],
        "correspondence.design_from_graph_s": self_t["correspondence.design_from_graph"],
        "correspondence.expected_incidence_arrays.calls": c["correspondence.expected_incidence_arrays"],
        "homogeneity.homogeneous_by_bruteforce_s": total_t["homogeneity.homogeneous_by_bruteforce"],
        "homogeneity.homogeneity_report_s": self_t["homogeneity.homogeneity_report"],
        "homogeneity.parameter_homogeneity_s": total_t["homogeneity.parameter_homogeneity"],
        "homogeneity.delta_value.calls": c["homogeneity.delta_value"],
    }
    for target in SEARCH_TARGETS:
        m[f"search.enumerate_candidates_s.{target}"] = total_t[f"search.enumerate_candidates.{target}"]
    m.update({
        "search.candidates_csv_s": total_t["search.candidates_csv"],
        "search.admissibility_failures.calls": examined,
        "search.admissible_ratio": admissible / examined if examined else 0.0,
        "search.emit_ratio": rows_emitted / admissible if admissible else 0.0,
        "search.deltas_from_arrays.calls": c["search.deltas_from_arrays"],
    })
    return m
