"""Tools for quantifying disagreement between two COCO-format annotation sets.

The pipeline: parse both datasets, greedily match instances one-to-one by
IoU, measure contour disagreement per pair with exact nearest-point distances,
summarize corpus statistics, and optionally cross-score the sets with the
standard COCO mAP protocol. Everything is accessible as a library; the
``annodiff`` console command wraps the same calls.
"""

# set before the submodules load, so that ``report`` can import it
__version__ = "0.1.0"

from .dataset import (
    AnnotationDataset,
    CategoryRecord,
    ImageRecord,
    InstanceRecord,
    load_dataset,
    parse_dataset,
    single_polygon_view,
)
from .deteval import (
    Detection,
    EvalParams,
    EvalResult,
    annotations_as_detections,
    cross_table,
    evaluate,
)
from .errors import (
    AnnodiffError,
    DegenerateShape,
    EvalError,
    GeometryError,
    IntegrityError,
    ParseError,
    SchemaError,
    StatsError,
)
from .matching import (
    MatchConfig,
    MatchPair,
    MatchSet,
    match_datasets,
    pairs_to_ndjson,
)
from .raster import (
    Box,
    bbox_of_mask,
    bbox_of_polygon,
    box_iou_matrix,
    contour,
    decode_rle,
    edt_squared,
    encode_rle,
    mask_iou,
    mask_of,
    rasterize,
)
from .report import (
    AuditConfig,
    AuditOutcome,
    canonical_report_bytes,
    compute_surface_results,
    report_bytes,
    run_audit,
    write_report_csv,
)
from .shapes import Polygons, RleMask, ShapeSpec
from .stats import (
    DatasetDelta,
    DatasetSummary,
    DistanceHistogram,
    SizeBucket,
    compare,
    distance_histogram,
    size_bucket,
    size_bucket_of_dims,
    summarize,
)
from .surface import PairTable, ring_pair_metrics, ring_pairs_metrics, surface_distances

__all__ = [
    "AnnodiffError",
    "AnnotationDataset",
    "AuditConfig",
    "AuditOutcome",
    "Box",
    "CategoryRecord",
    "DatasetDelta",
    "DatasetSummary",
    "DegenerateShape",
    "Detection",
    "DistanceHistogram",
    "EvalError",
    "EvalParams",
    "EvalResult",
    "GeometryError",
    "ImageRecord",
    "InstanceRecord",
    "IntegrityError",
    "MatchConfig",
    "MatchPair",
    "MatchSet",
    "PairTable",
    "ParseError",
    "Polygons",
    "RleMask",
    "SchemaError",
    "ShapeSpec",
    "SizeBucket",
    "StatsError",
    "annotations_as_detections",
    "bbox_of_mask",
    "bbox_of_polygon",
    "box_iou_matrix",
    "canonical_report_bytes",
    "compare",
    "compute_surface_results",
    "contour",
    "cross_table",
    "decode_rle",
    "distance_histogram",
    "edt_squared",
    "encode_rle",
    "evaluate",
    "load_dataset",
    "mask_iou",
    "mask_of",
    "match_datasets",
    "pairs_to_ndjson",
    "parse_dataset",
    "rasterize",
    "report_bytes",
    "ring_pair_metrics",
    "ring_pairs_metrics",
    "run_audit",
    "single_polygon_view",
    "size_bucket",
    "size_bucket_of_dims",
    "summarize",
    "surface_distances",
    "write_report_csv",
]
