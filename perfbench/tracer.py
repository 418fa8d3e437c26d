"""Spans around the public functions of each orbitcayley layer, recorded from outside.

Nothing in the package is edited.  Each traced function is wrapped once, and
the wrapper replaces the original wherever an ``orbitcayley`` module holds it
as an attribute, because callers look functions up in their own module
(``orbitcayley.cli.census``, ``orbitcayley.census.srg_check_paircount``, ...).
Modules are taken from ``sys.modules``: ``import orbitcayley.census`` yields
the re-exported *function* ``census``, not the module.

Spans stay in memory as (parent id, name, start, end) and are written out
once the run ends.  A traced name the package no longer defines is reported
as absent rather than raising.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path) of every traced function; the metric prefix is
# "<module>.<attribute path>".
TRACED = (
    ("cli", "main"),
    ("cli", "emit_table1"),
    ("census", "census"),
    ("srg", "srg_check_paircount"),
    ("srg", "pair_count"),
    ("srg", "srg_check_spectral"),
    ("srg", "srg_check_explicit"),
    ("srg", "match_families"),
    ("spectrum", "full_spectrum"),
    ("spectrum", "distinct"),
    ("spectrum", "wht_spectrum"),
    ("explicit", "ExplicitGraph.build"),
    ("explicit", "common_neighbor_matrix"),
    ("explicit", "is_connected_adjacency"),
    ("graph6", "export_graph6"),
    ("identities", "verify_all"),
    ("identities", "mod4_binomial_sum"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)


def _cnm_counts(counters: dict, args: tuple, result) -> None:
    size = args[0].shape[0]
    counters["explicit.common_neighbor_matrix.gflop_computed"] += 2 * size**3 / 1e9
    # float32 copy (4 B) + float32 product (4 B) + int64 cast (8 B) per entry
    counters["explicit.common_neighbor_matrix.bytes_computed"] += 16 * size**2


def _wht_counts(counters: dict, args: tuple, result) -> None:
    n = args[0].n
    counters["spectrum.wht_spectrum.butterflies_computed"] += n * (1 << (n - 1))


def _graph6_counts(counters: dict, args: tuple, result) -> None:
    counters["graph6.export_graph6.bytes_out"] += len(result)


COUNT_HOOKS = {
    "explicit.common_neighbor_matrix": _cnm_counts,
    "spectrum.wht_spectrum": _wht_counts,
    "graph6.export_graph6": _graph6_counts,
}

# counts computed from each call's inputs or output, with their units
COUNTER_UNITS = {
    "explicit.common_neighbor_matrix.gflop_computed": "GFLOP",
    "explicit.common_neighbor_matrix.bytes_computed": "B",
    "spectrum.wht_spectrum.butterflies_computed": "count",
    "graph6.export_graph6.bytes_out": "B",
}


class Tracer:
    """Installs span-recording wrappers into the loaded orbitcayley modules."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters = {name: 0 for name in COUNTER_UNITS}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = COUNT_HOOKS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (parent, name, start, end)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        for (module_name, attr), name in zip(TRACED, SPAN_NAMES):
            module = sys.modules.get(f"orbitcayley.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or fn_name not in vars(owner):
                self.absent.append(name)
                continue
            if isinstance(owner, type):
                self._install_method(owner, fn_name, name)
            else:
                self._install_function(vars(owner)[fn_name], name)

    def _install_function(self, original, name: str) -> None:
        wrapper = self._wrap(name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "orbitcayley" and not mod_name.startswith("orbitcayley."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _install_method(self, cls: type, fn_name: str, name: str) -> None:
        raw = vars(cls)[fn_name]
        if isinstance(raw, classmethod):
            setattr(cls, fn_name, classmethod(self._wrap(name, raw.__func__)))
        else:
            setattr(cls, fn_name, self._wrap(name, raw))

    def dump(self) -> dict:
        names = {name: i for i, name in enumerate(SPAN_NAMES)}
        return {
            "names": list(SPAN_NAMES),
            "spans": [[p, names[n], s, e] for p, n, s, e in self.spans],
            "counters": self.counters,
            "absent": self.absent,
        }


def aggregate(dump: dict) -> dict:
    """calls, total_s and self_s per span name, plus the time under top-level spans.

    Self time is a span's duration minus the durations of its direct
    children; one thread runs the jobs, so children never overlap.
    """
    names = dump["names"]
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    top_level = 0.0
    for i, (parent, name_id, start, end) in enumerate(spans):
        row = stats[names[name_id]]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        if parent < 0:
            top_level += end - start
    return {"stats": stats, "top_level_s": top_level}
