"""End-to-end audit pipeline: match, measure, summarize, assemble one report.

The report is a plain JSON-ready dict so it can be dumped, diffed and
schema-validated without ceremony. Everything in it is a pure function of the
two input datasets plus the configuration — except wall-clock timings, which
live in a single ``timings`` field that ``canonical_report_bytes`` strips, so
byte-level determinism can be checked (and parallelism shown harmless) by
comparing canonical bytes.

Surface metrics are computed for every matched pair, chunk by chunk
(:func:`~annodiff.surface.ring_pairs_metrics`); pairs that cannot be
measured (an instance that is not a single polygon ring, a ring of fewer than
three vertices, or one rasterizing to nothing) are tallied as degenerate
rather than dropped silently. The report carries an explicit
consistency block proving that matched pairs = histogrammed values +
below-one-pixel exclusions + degenerate exclusions.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

from .dataset import AnnotationDataset
from .deteval import MAX_DETECTIONS, cross_table
from .errors import StatsError
from .matching import MatchConfig, MatchSet, match_datasets
from .raster import _FOOTPRINTS
from .stats import DatasetDelta, DatasetSummary, SizeBucket, compare, distance_histogram, summarize
from .surface import _GROUP, SurfaceDistanceResult, pair_rings, ring_pairs_metrics

SCHEMA_NAME = "annodiff-audit-report"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AuditConfig:
    iou_threshold: float = 0.90
    iou_mode: str = "box"
    same_category: bool = True
    footprint: str = "cross"
    bins: int = 50
    jobs: int = 1
    eval_tasks: tuple[str, ...] = ()
    source_path: str | None = None
    target_path: str | None = None

    def __post_init__(self) -> None:
        if self.footprint not in _FOOTPRINTS:
            raise ValueError(f"footprint must be 'cross' or 'square', got {self.footprint!r}")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for task in self.eval_tasks:
            if task not in ("bbox", "segm"):
                raise ValueError(f"unknown eval task {task!r}")

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
) -> tuple[list[SurfaceDistanceResult], list]:
    """Surface metrics for every matched pair, in canonical pair order.

    Returns ``(results, degenerate_pairs)``. Each pair's rings come from
    :func:`~annodiff.surface.pair_rings` and are measured in chunks
    (:func:`ring_pairs_metrics`); a pair it gives ``None`` for is
    degenerate: an instance that is not a single polygon ring, a ring of
    fewer than three vertices, or one that fills no pixel center. The
    values do not depend on which pairs share a chunk, so the worker pool
    size never changes the output. The pool holds at most one worker per
    pair and per CPU, each taking one group of the kernel
    (``surface._GROUP`` pairs) at a time, and with room for only one the
    pairs are measured in this process.
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
    results: list[SurfaceDistanceResult] = []
    degenerate = []
    for pair, metrics in zip(match_set.pairs, rows):
        if metrics is None:
            degenerate.append(pair)
        else:
            results.append(SurfaceDistanceResult(pair, *metrics))
    return results, degenerate


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


def _histogram_json(results: list[SurfaceDistanceResult], metric: str, bins: int) -> dict:
    try:
        h = distance_histogram(results, metric, bins)
    except StatsError:
        # nothing exceeded one pixel: an empty section, not an error
        return {
            "metric": metric,
            "empty": True,
            "edges": [],
            "counts": [],
            "mean": None,
            "std": None,
            "clip": None,
            "included": 0,
            "excluded_below": len(results),
            "overflow": 0,
            "total": len(results),
        }
    return {**asdict(h), "empty": False}


@dataclass
class AuditOutcome:
    report: dict
    match_set: MatchSet
    surface_results: list[SurfaceDistanceResult]


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
    results, degenerate = compute_surface_results(
        match_set,
        source,
        target,
        footprint=config.footprint,
        jobs=config.jobs,
    )
    surface_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    summary_a = summarize(source)
    summary_b = summarize(target)
    delta = compare(summary_a, summary_b)
    hist_avg = _histogram_json(results, "d_avg", config.bins)
    hist_max = _histogram_json(results, "d_max", config.bins)
    stats_s = time.perf_counter() - t0

    eval_section = None
    eval_s = 0.0
    if config.eval_tasks:
        t0 = time.perf_counter()
        eval_section = eval_json(source, target, config.eval_tasks)
        eval_s = time.perf_counter() - t0

    pair_count = len(match_set.pairs)
    measured = len(results)
    consistency = {
        "pair_count": pair_count,
        "measured_pairs": measured,
        "degenerate_excluded": len(degenerate),
        "ok": (
            pair_count == measured + len(degenerate)
            and hist_avg["total"] == measured
            and hist_max["total"] == measured
            and hist_avg["included"] + hist_avg["excluded_below"] + hist_avg["overflow"] == hist_avg["total"]
            and hist_max["included"] + hist_max["excluded_below"] + hist_max["overflow"] == hist_max["total"]
        ),
    }

    report = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "annodiff", "version": _tool_version()},
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
            "degenerate_excluded": len(degenerate),
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
    return AuditOutcome(report=report, match_set=match_set, surface_results=results)


def _tool_version() -> str:
    from . import __version__

    return __version__


def report_bytes(report: dict) -> bytes:
    """Every command's JSON: stable key order, indented, UTF-8, one final newline."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def canonical_report_bytes(report: dict) -> bytes:
    """Deterministic bytes: the report minus its wall-clock timings."""
    return report_bytes({k: v for k, v in report.items() if k != "timings"})


# ---------------------------------------------------------------------------
# CSV mirrors: one row per record of each report array


def write_report_csv(report: dict, directory) -> list[str]:
    """Write the tabular report sections as CSV files; returns filenames."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    src_cat = report["summaries"]["source"]["per_category"]
    tgt_cat = report["summaries"]["target"]["per_category"]
    cats = sorted({int(k) for k in src_cat} | {int(k) for k in tgt_cat})
    path = directory / "categories.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["category_id", "source_count", "target_count", "delta"])
        for c in cats:
            a = src_cat.get(str(c), 0)
            b = tgt_cat.get(str(c), 0)
            w.writerow([c, a, b, b - a])
    written.append(path.name)

    path = directory / "size_buckets.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bucket", "source_count", "target_count", "delta"])
        for b in SizeBucket:
            a = report["summaries"]["source"]["size_buckets"][b.value]
            t = report["summaries"]["target"]["size_buckets"][b.value]
            w.writerow([b.value, a, t, t - a])
    written.append(path.name)

    for metric in ("d_avg", "d_max"):
        hist = report["surface"][metric]
        path = directory / f"histogram_{metric}.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_low", "bin_high", "count"])
            for i, count in enumerate(hist["counts"]):
                w.writerow([hist["edges"][i], hist["edges"][i + 1], count])
        written.append(path.name)

    if report.get("eval"):
        path = directory / "eval_per_category.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["task", "direction", "category_id", "ap"])
            for task in sorted(report["eval"]):
                for direction in sorted(report["eval"][task]):
                    table = report["eval"][task][direction]["per_category"]
                    for cat in sorted(table, key=int):
                        ap = table[cat]
                        w.writerow([task, direction, cat, "" if ap is None else ap])
        written.append(path.name)
    return written
