"""Command-line front door: ``stats``, ``diff``, ``eval`` and ``match``.

Exit codes form a small contract scripts can rely on: 0 for success, 2 for
any input or usage problem (an allocation that fails for a size a flag asked
for included), 3 when the run was fine but produced zero matched pairs (so
"nothing to analyze" is distinguishable from failure).

Every setting comes from a flag; the environment configures nothing.

A command runs with the cyclic garbage collector paused, because the records
and arrays it builds hold no reference cycles; library calls are unaffected.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

from .dataset import load_dataset
from .errors import AnnodiffError
from .deteval import MAX_DETECTIONS
from .matching import MatchConfig, match_datasets, pairs_to_ndjson
from .raster import _FOOTPRINTS
from .report import (
    AuditConfig,
    eval_json,
    report_bytes,
    run_audit,
    summary_json,
    write_report_csv,
)
from .stats import summarize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3


def _emit(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _eval_tasks(choice: str) -> tuple[str, ...]:
    return {"bbox": ("bbox",), "segm": ("segm",), "both": ("bbox", "segm"), "none": ()}[choice]


# ---------------------------------------------------------------------------
# subcommands


def cmd_stats(args) -> int:
    ds = load_dataset(args.dataset)
    s = summarize(ds, buckets=args.buckets)
    _emit(report_bytes(summary_json(s)), args.out)
    return EXIT_OK


def cmd_diff(args) -> int:
    t0 = time.perf_counter()
    source = load_dataset(args.source)
    target = load_dataset(args.target)
    parse_s = time.perf_counter() - t0
    config = AuditConfig(
        iou_threshold=args.iou_threshold,
        iou_mode=args.iou_mode,
        same_category=args.same_category,
        footprint=args.footprint,
        bins=args.bins,
        jobs=args.jobs,
        eval_tasks=_eval_tasks(args.eval),
        source_path=str(args.source),
        target_path=str(args.target),
    )
    outcome = run_audit(source, target, config, parse_seconds=parse_s)
    _emit(report_bytes(outcome.report), args.out)
    if args.pairs_out:
        Path(args.pairs_out).write_text(pairs_to_ndjson(outcome.match_set), encoding="utf-8")
    if args.csv_dir:
        write_report_csv(outcome.report, args.csv_dir)
    return EXIT_OK if outcome.match_set.pairs else EXIT_EMPTY


def cmd_eval(args) -> int:
    source = load_dataset(args.source)
    target = load_dataset(args.target)
    tasks = _eval_tasks(args.task)
    _emit(report_bytes(eval_json(source, target, tasks, args.max_dets)), args.out)
    return EXIT_OK


def cmd_match(args) -> int:
    source = load_dataset(args.source)
    target = load_dataset(args.target)
    cfg = MatchConfig(
        iou_threshold=args.iou_threshold,
        iou_mode=args.iou_mode,
        same_category_required=args.same_category,
    )
    match_set = match_datasets(source, target, cfg)
    _emit(pairs_to_ndjson(match_set).encode("utf-8"), args.out)
    return EXIT_OK if match_set.pairs else EXIT_EMPTY


# ---------------------------------------------------------------------------
# parser


def _add_match_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iou-threshold", type=float, default=0.90,
                   help="match acceptance threshold, strict, in (0, 1] (default 0.90)")
    p.add_argument("--iou-mode", choices=("box", "mask"), default="box",
                   help="overlap measure used for matching")
    p.add_argument("--same-category", action=argparse.BooleanOptionalAction, default=True,
                   help="require matched instances to share a category")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annodiff",
        description="Quantify disagreement between two COCO-format annotation sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset summary statistics as JSON")
    p.add_argument("dataset")
    buckets = p.add_mutually_exclusive_group()
    buckets.add_argument("--recompute-areas", dest="buckets", action="store_const", const="recomputed",
                         help="bucket by rasterized pixel count instead of the stored area")
    buckets.add_argument("--dims-buckets", dest="buckets", action="store_const", const="dims",
                         help="bucket by bounding-box dimensions instead of area")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_stats, buckets="stored")

    p = sub.add_parser("diff", help="full audit: match, surface metrics, stats, report")
    p.add_argument("source")
    p.add_argument("target")
    _add_match_flags(p)
    p.add_argument("--footprint", choices=_FOOTPRINTS, default="cross",
                   help="erosion neighborhood used to trace contours")
    p.add_argument("--bins", type=int, default=50, help="histogram bin count")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for pair metrics, at most one per CPU")
    p.add_argument("--eval", choices=("none", "bbox", "segm", "both"), default="none",
                   help="also cross-evaluate with the COCO mAP protocol")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.add_argument("--pairs-out", default=None, help="write matched pairs as NDJSON here")
    p.add_argument("--csv-dir", default=None, help="also write CSV tables into this directory")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("eval", help="COCO-protocol cross-evaluation of the two sets")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--task", choices=("bbox", "segm", "both"), default="bbox")
    p.add_argument("--max-dets", type=int, default=MAX_DETECTIONS,
                   help="detection cap per image and category")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("match", help="instance matching only, one NDJSON row per pair")
    p.add_argument("source")
    p.add_argument("target")
    _add_match_flags(p)
    p.add_argument("--out", default=None, help="write NDJSON here instead of stdout")
    p.set_defaults(func=cmd_match)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the collector would only traverse acyclic records; the caller's
    # setting comes back however the command ends
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (AnnodiffError, OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
