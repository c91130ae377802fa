"""Score one annotation set against the other with the standard detection
protocol, in both directions.

Each non-crowd annotation of the "prediction" side becomes a score-1.0
detection; crowds act as ignore regions on the ground-truth side. The result
is the usual mAP table (10 IoU thresholds, 101 recall points, size strata).

    python3 demos/04_cross_evaluation.py
"""

from pathlib import Path

from annodiff.dataset import load_dataset
from annodiff.deteval import (
    Detection,
    annotations_as_detections,
    cross_table,
    evaluate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SRC = FIXTURES / "synthetic_a.json"
TGT = FIXTURES / "synthetic_b.json"


def fmt(v):
    return " None" if v is None else f"{v:.3f}"


def main():
    source = load_dataset(SRC)
    target = load_dataset(TGT)

    table = cross_table(source, target, tasks=("bbox", "segm"))
    print(f"{'task':<6} {'direction':<8} {'mAP':>6} {'@50':>6} {'small':>6} {'medium':>6} {'large':>6}")
    for task, sides in table.items():
        for side, r in sides.items():
            print(f"{task:<6} {side:<8} {fmt(r.map):>6} {fmt(r.map_50):>6} "
                  f"{fmt(r.map_small):>6} {fmt(r.map_medium):>6} {fmt(r.map_large):>6}")

    # Self-evaluation is the identity check: every annotation matches itself
    # at IoU 1.0, so mAP must be exactly 1.0.
    self_eval = evaluate(annotations_as_detections(source), source)
    print(f"\nself-evaluation mAP: {self_eval.map} (exactly 1.0 by construction)")

    # A classic protocol subtlety: precision is sampled at achieved recall
    # points, so a false positive ranked below the last true positive is
    # free, while the same false positive ranked above it costs half the AP.
    gt = load_dataset(FIXTURES / "tiny_pair_a.json")
    hit = dict(image_id=1, category_id=1, bbox=(10.0, 10.0, 30.0, 40.0))
    miss = dict(image_id=1, category_id=1, bbox=(70.0, 70.0, 5.0, 5.0))
    for order, (s_hit, s_miss) in (("fp below tp", (0.9, 0.8)), ("fp above tp", (0.8, 0.9))):
        dets = (
            Detection(id=1, score=s_hit, **hit),
            Detection(id=2, score=s_miss, **miss),
        )
        r = evaluate(dets, gt)
        print(f"{order}: per-category AP for category 1 = {r.per_category[1]:.3f}")


if __name__ == "__main__":
    main()
