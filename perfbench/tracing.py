"""Spans around calls into metricdim's layers, recorded from outside the library.

`Tracer.installed()` replaces each public layer function listed in `LAYERS`
with a wrapper, in every metricdim module that refers to it, and restores the
originals on exit; the library itself is never edited. Each call becomes one
span [name, start, end, parent, op] kept in memory; `write` saves them once,
at the end of the run. A layer's self time is its spans' duration minus the
time their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Public functions of each layer (module) that the workloads reach and that
# get a span. Cheap per-label helpers such as validate_label are left out:
# they run once per vertex and would put more spans than work into the trace.
LAYERS = {
    "graph": ("parse_edge_list", "build_graph", "add_edge", "remove_edge",
              "is_connected", "bfs_distances", "max_degree"),
    "resolving": ("metric_dimension_exact", "metric_dimension_reference", "is_resolving",
                  "find_unresolved_pair", "metric_code", "block_lower_bound_check"),
    "perturb": ("apply_edit_sequence", "augment_addition", "augment_removal",
                "parse_edit_sequence"),
    "ternary": ("canonical_conflict_free", "is_conflict_free", "max_conflict_free_bruteforce"),
    "families": ("strip_graph", "kite_graph", "nonbinary_graph", "tail_graph"),
    "generators": ("path_graph", "cycle_graph", "complete_graph", "complete_bipartite_graph",
                   "ladder_graph", "random_connected_graph"),
    "claims": ("run_verify_suite",),
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "metricdim" or key.startswith("metricdim.")]
        patched = []
        try:
            for layer, names in LAYERS.items():
                module = importlib.import_module(f"metricdim.{layer}")
                for fname in names:
                    original = getattr(module, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for m in modules:
                        if vars(m).get(fname) is original:
                            setattr(m, fname, wrapper)
                            patched.append((m, fname, original))
            yield self
        finally:
            for m, fname, original in patched:
                setattr(m, fname, original)

    def self_times(self) -> list[float]:
        # Direct children of one span run one after another in this
        # single-threaded client, so their summed durations are the time
        # they cover.
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def by_name(self, ops) -> dict[str, tuple[float, int]]:
        """Summed self time and call count per span name, over spans of `ops`."""
        ops = set(ops)
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for span, own in zip(self.spans, self.self_times()):
            if span[OP] in ops:
                totals[span[NAME]][0] += own
                totals[span[NAME]][1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def durations(self, name: str) -> dict[str, float]:
        """Summed duration of spans called `name`, per operation id."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[NAME] == name:
                out[span[OP]] += span[END] - span[START]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, handle)
