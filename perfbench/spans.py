"""Spans around the calls into each factorfuse layer, for the traced run.

The program is not changed: :func:`instrument` swaps the names each layer
imports from the next one for timing wrappers, and restores them on exit.
Spans (name, start, end, parent, merge id) stay in memory until the run
writes them out.  A layer's self time is its spans' durations minus the
part covered by their child spans, so the self times of one merge add up to
that merge's root span exactly.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from factorfuse import cli, engine, families, viz

ROOT = "cli.merge"
# span name -> per-layer self-time metric
SELF_METRIC = {
    ROOT: "cli.write_s",  # argument parsing, result assembly and file writes
    "cli.ingest": "cli.ingest_s",
    "data": "data.s",
    "families.levelstats": "families.levelstats_s",
    "families.fit": "families.fit_s",
    "engine.merge_factors": "engine.self_s",
    "engine.ordering": "engine.ordering_s",
    "engine.ordering.viz": "engine.ordering_s",
    "mds.project": "mds.project_s",
    "inference": "inference.s",
    "viz.render": "viz.render_s",
}
CALL_METRICS = {
    "families.levelstats": ("families.levelstats_calls",),
    "families.fit": ("families.fits",),
    "engine.ordering": ("engine.ordering_calls",),
    "engine.ordering.viz": ("engine.ordering_calls", "engine.ordering_calls_viz"),
}
MEMORY_SPANS = {"cli.ingest": "cli.ingest.peak_alloc_mib",
                "mds.project": "mds.peak_alloc_mib",
                "viz.render": "viz.peak_alloc_mib"}
MIB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, merge id]
        self.counts: dict[int, Counter] = {}
        self.peaks: dict[int, dict[str, float]] = {}
        self.memory = False  # record tracemalloc peaks inside MEMORY_SPANS
        self.merge = -1
        self._stack: list[int] = []
        self._mem: list[list[int]] = []
        self._seen: set[str] = set()

    def begin_merge(self, merge_id: int):
        self.merge = merge_id
        self.counts[merge_id] = Counter()
        self.peaks[merge_id] = {}
        self._seen = set()

    def wrap(self, fn, name, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.merge]
            stack.append(len(spans))
            spans.append(rec)
            mem = self.memory and name in MEMORY_SPANS
            if mem:
                self._mem_open()
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if mem:
                    self._mem_close(name)
            if after is not None:
                after(self.counts[self.merge], args, result)
            return result

        return traced

    # tracemalloc has one peak counter; a span resets it and hands the peak it
    # saw on to its parent, so nested memory spans still see their own peaks.
    def _mem_open(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        self._mem.append([current, 0])
        tracemalloc.reset_peak()

    def _mem_close(self, name: str):
        start, child_peak = self._mem.pop()
        peak = max(tracemalloc.get_traced_memory()[1], child_peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        merge_peaks = self.peaks[self.merge]
        metric = MEMORY_SPANS[name]
        merge_peaks[metric] = max(merge_peaks.get(metric, 0.0), (peak - start) / MIB)

    def _count_fit(self, counts, args, result):
        # A candidate partition differs from its parent by one merged cluster;
        # the first fit that shows a cluster label scores a new pair.
        for c in args[1].clusters:
            if len(c.members) > 1 and c.label not in self._seen:
                self._seen.add(c.label)
                counts["distinct_pairs"] += 1

    def summary(self, merge_id: int) -> dict[str, float]:
        """Per-layer self times and counts of one traced merge."""
        index = [i for i, s in enumerate(self.spans) if s[4] == merge_id]
        child_time = Counter()
        for i in index:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(SELF_METRIC.values(), 0.0)
        out.update(dict.fromkeys((m for ms in CALL_METRICS.values() for m in ms), 0))
        for i in index:
            name, start, end, _, _ = self.spans[i]
            out[SELF_METRIC[name]] += end - start - child_time[i]
            for metric in CALL_METRICS.get(name, ()):
                out[metric] += 1
            if name == ROOT:
                out["merge_s"] = end - start
        counts = self.counts[merge_id]
        out.update({
            "cli.rows_read": counts["rows_read"],
            "cli.rows_rejected": counts["rows_rejected"],
            "engine.candidates_scored": counts["candidates"],
            "engine.path_fits": counts["path_fits"],
            # useful work / attempts: pairs scored for the first time / engine fits
            "engine.distinct_pair_frac": counts["distinct_pairs"]
            / max(counts["candidates"] + counts["path_fits"], 1),
            "mds.points": counts["points"],
            "viz.svg_bytes": counts["svg_bytes"],
            "families.fit_us_mean": 1e6 * out["families.fit_s"] / max(out["families.fits"], 1),
        })
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, merge in self.spans:
                fh.write(json.dumps({"merge": merge, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _count_ingest(counts, args, result):
    meta = result[2]
    counts["rows_read"] += meta["rows"]
    counts["rows_rejected"] += len(meta["rejectedRows"])


def _count_path(counts, args, path):
    b = path.evaluation_breakdown
    counts["candidates"] += b.get("candidates", 0) + b.get("distances", 0)
    counts["path_fits"] += b.get("path", 0)


def _count_points(counts, args, result):
    counts["points"] += len(args[0])


def _count_svg(counts, args, svg):
    counts["svg_bytes"] += len(svg.encode("utf-8"))


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the names each layer calls the next one by; restore them on exit."""
    patches = [
        (cli, "_build_dataset", "cli.ingest", _count_ingest),
        (cli, "ResponseData", "data", None),
        (cli, "Grouping", "data", None),
        (cli, "merge_factors", "engine.merge_factors", _count_path),
        (engine, "LevelStats", "families.levelstats", None),
        (families, "LevelStats", "families.levelstats", None),  # via viz -> fit
        (engine, "fit_stats", "families.fit", tracer._count_fit),
        (families, "fit_stats", "families.fit", tracer._count_fit),
        (engine, "ordering_statistic", "engine.ordering", None),
        (viz, "ordering_statistic", "engine.ordering.viz", None),  # layout_tree
        (engine, "mds_project_1d", "mds.project", _count_points),
        (cli, "render_merging_path_svg", "viz.render", _count_svg),
        (cli, "render_gic_svg", "viz.render", _count_svg),
    ] + [
        (cli, fn, "inference", None)
        for fn in ("merging_history", "gic_profile", "global_null_test", "cut_step",
                   "optimal_partition_table")
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
    try:
        for mod, attr, name, after in patches:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, after))
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
