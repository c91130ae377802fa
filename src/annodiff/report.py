"""End-to-end audit pipeline: match, measure, summarize, assemble one report.

The report is a plain JSON-ready dict so it can be dumped, diffed and
schema-validated without ceremony. Everything in it is a pure function of the
two input datasets plus the configuration — except wall-clock timings, which
live in a single ``timings`` field that ``canonical_report_bytes`` strips, so
byte-level determinism can be checked (and parallelism shown harmless) by
comparing canonical bytes.

Surface metrics are computed for every matched pair, chunk by chunk
(:func:`~annodiff.surface.ring_pairs_metrics`), into one
:class:`~annodiff.surface.PairTable`, whose columns the histograms read. A
pair that cannot be measured (an instance that is not a single polygon
ring, a ring of fewer than three vertices, or one rasterizing to nothing)
keeps its row, not ``measured``, and is tallied as degenerate rather than
dropped silently. The report's ``consistency.ok`` checks that each side's
instances are exactly its pairs, its unmatched and its ineligible
(``matching.pair_count + unmatched_source + ineligible_source ==
summaries.source.instance_count``, and the same for the target), which a
reader can recompute from the report alone.
"""

import json
import os
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .dataset import AnnotationDataset, _Checked
from .deteval import MAX_DETECTIONS, _check_task, cross_table
from .errors import StatsError
from .matching import MatchConfig, MatchSet, match_datasets
from .raster import _check_footprint
from .stats import DatasetDelta, DatasetSummary, DistanceHistogram, SizeBucket, compare, distance_histogram, summarize
from .surface import _GROUP, PairTable, pair_rings, ring_pairs_metrics

SCHEMA_NAME = "annodiff-audit-report"
SCHEMA_VERSION = 1


class _AuditConfig(NamedTuple):
    iou_threshold: float = 0.90
    iou_mode: str = "box"
    same_category: bool = True
    footprint: str = "cross"
    bins: int = 50
    jobs: int = 1
    eval_tasks: tuple[str, ...] = ()
    source_path: str | None = None
    target_path: str | None = None


class AuditConfig(_Checked, _AuditConfig):
    """Every setting of :func:`run_audit`; a bad value raises here, with the
    text of the layer that would reject it, before any input is read."""

    __slots__ = ()

    def _check(self) -> None:
        self.match_config()
        _check_footprint(self.footprint)
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for task in self.eval_tasks:
            _check_task(task)

    def match_config(self) -> MatchConfig:
        return MatchConfig(
            iou_threshold=self.iou_threshold,
            iou_mode=self.iou_mode,
            same_category_required=self.same_category,
        )


# ---------------------------------------------------------------------------
# parallel surface-metric computation


def compute_surface_results(
    match_set: MatchSet,
    source: AnnotationDataset,
    target: AnnotationDataset,
    *,
    footprint: str = "cross",
    jobs: int = 1,
) -> PairTable:
    """Surface metrics of the match set's pairs, in canonical order, as one
    :class:`PairTable`.

    Each pair's rings come from :func:`~annodiff.surface.pair_rings` and are
    measured in chunks (:func:`ring_pairs_metrics`); a pair it gives
    ``None`` for is degenerate, not ``measured``, and its values read 0: an
    instance that is not a single polygon ring, a ring of fewer than three
    vertices, or one that fills no pixel center. The values do not depend
    on which pairs share a chunk, so the worker pool size never changes the
    output. The pool holds at most one worker per pair and per CPU, each
    taking one group of the kernel (``surface._GROUP`` pairs) at a time,
    and with room for only one the pairs are measured in this process.
    """
    pairs = [pair_rings(p, source, target) for p in match_set.pairs]
    # the executor starts every worker at its first map
    jobs = min(jobs, len(pairs), os.cpu_count() or 1)
    if jobs > 1:
        # imported here, so that a command without a pool loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        groups = [pairs[i : i + _GROUP] for i in range(0, len(pairs), _GROUP)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [m for part in pool.map(partial(ring_pairs_metrics, footprint=footprint), groups) for m in part]
    else:
        rows = ring_pairs_metrics(pairs, footprint=footprint)
    d_avg, d_max, len_s, len_t = zip(*(m or (0.0, 0.0, 0, 0) for m in rows)) if rows else ((),) * 4
    return PairTable(
        match_set.pairs,
        np.array(d_avg, dtype=np.float64),
        np.array(d_max, dtype=np.float64),
        np.array(len_s, dtype=np.int64),
        np.array(len_t, dtype=np.int64),
        np.array([m is not None for m in rows], dtype=bool),
    )


# ---------------------------------------------------------------------------
# JSON assembly


def summary_json(s: DatasetSummary) -> dict:
    return {
        "image_count": s.image_count,
        "instance_count": s.instance_count,
        "crowd_count": s.crowd_count,
        "vertex_count": s.vertex_count,
        "per_category": {str(k): v for k, v in sorted(s.per_category.items())},
        "size_buckets": {b.value: s.size_buckets[b] for b in SizeBucket},
    }


def delta_json(d: DatasetDelta) -> dict:
    return {
        "per_category": {str(k): v for k, v in sorted(d.per_category.items())},
        "categories_where_target_greater": d.categories_where_target_greater,
        "size_buckets": {b.value: d.size_buckets[b] for b in SizeBucket},
        "image_delta": d.image_delta,
        "instance_delta": d.instance_delta,
        "crowd_delta": d.crowd_delta,
        "vertex_delta": d.vertex_delta,
    }


def eval_json(
    a: AnnotationDataset, b: AnnotationDataset, tasks: tuple[str, ...], max_detections: int = MAX_DETECTIONS
) -> dict:
    """``{task: {"a_vs_b": ..., "b_vs_a": ...}}`` of :func:`cross_table`, each
    result as its JSON form."""
    tables = cross_table(a, b, tasks, max_detections)
    return {task: {side: res.to_json() for side, res in sides.items()} for task, sides in tables.items()}


def _histogram_json(table: PairTable, metric: str, bins: int) -> dict:
    try:
        h = distance_histogram(table, metric, bins)
    except StatsError:
        # nothing exceeded one pixel: an empty section, not an error
        n = int(table.measured.sum())
        return {**DistanceHistogram(metric, [], [], None, None, None, 0, n, 0, n)._asdict(), "empty": True}
    return {**h._asdict(), "empty": False}


class AuditOutcome(NamedTuple):
    report: dict
    match_set: MatchSet
    table: PairTable


def run_audit(
    source: AnnotationDataset,
    target: AnnotationDataset,
    config: AuditConfig | None = None,
    *,
    parse_seconds: float | None = None,
) -> AuditOutcome:
    """Full pipeline: match, per-pair surface metrics, stats, optional eval.

    ``parse_seconds``, the caller's time to parse both inputs, is reported
    as ``parse_s`` and counted in ``total_s``.
    """
    config = config or AuditConfig()
    started = time.perf_counter()

    t0 = time.perf_counter()
    match_set = match_datasets(source, target, config.match_config())
    match_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    table = compute_surface_results(match_set, source, target, footprint=config.footprint, jobs=config.jobs)
    surface_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    summary_a = summarize(source)
    summary_b = summarize(target)
    delta = compare(summary_a, summary_b)
    hist_avg = _histogram_json(table, "d_avg", config.bins)
    hist_max = _histogram_json(table, "d_max", config.bins)
    stats_s = time.perf_counter() - t0

    eval_section = None
    eval_s = 0.0
    if config.eval_tasks:
        t0 = time.perf_counter()
        eval_section = eval_json(source, target, config.eval_tasks)
        eval_s = time.perf_counter() - t0

    pair_count = len(match_set.pairs)
    measured = int(table.measured.sum())
    degenerate = pair_count - measured
    # each side's instances are exactly its pairs, its unmatched and its ineligible
    sides = (
        (summary_a, match_set.unmatched_source, match_set.ineligible_source),
        (summary_b, match_set.unmatched_target, match_set.ineligible_target),
    )
    consistency = {
        "pair_count": pair_count,
        "measured_pairs": measured,
        "degenerate_excluded": degenerate,
        "ok": all(pair_count + len(un) + len(inel) == s.instance_count for s, un, inel in sides),
    }

    report = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "annodiff", "version": __version__},
        "config": {
            "iou_threshold": config.iou_threshold,
            "iou_mode": config.iou_mode,
            "same_category": config.same_category,
            "footprint": config.footprint,
            "bins": config.bins,
            # jobs is deliberately not echoed: parallelism never changes
            # results, so reports must not vary with it
            "eval_tasks": list(config.eval_tasks),
            # diff scores with the default cap, which the v1 schema requires
            "max_detections": MAX_DETECTIONS,
            "source_path": config.source_path,
            "target_path": config.target_path,
        },
        "summaries": {"source": summary_json(summary_a), "target": summary_json(summary_b)},
        "delta": delta_json(delta),
        "matching": {
            "pair_count": pair_count,
            "unmatched_source": len(match_set.unmatched_source),
            "unmatched_target": len(match_set.unmatched_target),
            "ineligible_source": len(match_set.ineligible_source),
            "ineligible_target": len(match_set.ineligible_target),
        },
        "surface": {
            "measured_pairs": measured,
            "degenerate_excluded": degenerate,
            "d_avg": hist_avg,
            "d_max": hist_max,
        },
        "consistency": consistency,
        "eval": eval_section,
        "timings": {
            "parse_s": parse_seconds,
            "match_s": match_s,
            "surface_s": surface_s,
            "stats_s": stats_s,
            "eval_s": eval_s,
            "total_s": (parse_seconds or 0.0) + time.perf_counter() - started,
        },
    }
    return AuditOutcome(report=report, match_set=match_set, table=table)


def report_bytes(report: dict) -> bytes:
    """Every command's JSON: stable key order, indented, UTF-8, one final newline."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def canonical_report_bytes(report: dict) -> bytes:
    """Deterministic bytes: the report minus its wall-clock timings."""
    return report_bytes({k: v for k, v in report.items() if k != "timings"})


# ---------------------------------------------------------------------------
# CSV mirrors: one row per record of each report array


def _count_rows(src: dict, tgt: dict, delta: dict, section: str):
    """``(key, source count, target count, delta)`` per key of the report's
    ``delta[section]``, in its order; a side without the key counts 0."""
    for k, d in delta[section].items():
        yield k, src[section].get(k, 0), tgt[section].get(k, 0), d


def write_report_csv(report: dict, directory) -> list[str]:
    """Write the tabular report sections as CSV files; returns filenames."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    src, tgt, delta = report["summaries"]["source"], report["summaries"]["target"], report["delta"]
    counts = ["source_count", "target_count", "delta"]
    tables = {
        "categories.csv": (["category_id", *counts], _count_rows(src, tgt, delta, "per_category")),
        "size_buckets.csv": (["bucket", *counts], _count_rows(src, tgt, delta, "size_buckets")),
    }
    for metric in ("d_avg", "d_max"):
        hist = report["surface"][metric]
        rows = zip(hist["edges"], hist["edges"][1:], hist["counts"])
        tables[f"histogram_{metric}.csv"] = (["bin_low", "bin_high", "count"], rows)
    if ev := report.get("eval"):
        rows = (
            (task, direction, cat, "" if ap is None else ap)
            for task in sorted(ev)
            for direction in sorted(ev[task])
            for cat, ap in sorted(ev[task][direction]["per_category"].items(), key=lambda kv: int(kv[0]))
        )
        tables["eval_per_category.csv"] = (["task", "direction", "category_id", "ap"], rows)
    import csv  # here, so that a run without ``--csv-dir`` never loads it

    for name, (header, rows) in tables.items():
        with (directory / name).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    return list(tables)
