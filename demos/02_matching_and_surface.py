"""Match two annotation sets of the same scene, then measure how far apart
the matched contours are.

    python3 demos/02_matching_and_surface.py
"""

from pathlib import Path

from annodiff.dataset import load_dataset
from annodiff.matching import MatchConfig, match_datasets
from annodiff.report import compute_surface_results

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SRC = FIXTURES / "tiny_pair_a.json"
TGT = FIXTURES / "tiny_pair_b.json"


def main():
    source = load_dataset(SRC)
    target = load_dataset(TGT)

    # Default policy: bbox IoU strictly above 0.90, same category required.
    ms = match_datasets(source, target)
    print(f"{len(ms.pairs)} matched pairs")
    print(f"unmatched: {len(ms.unmatched_source)} source, {len(ms.unmatched_target)} target")
    print(f"ineligible (crowds / multi-ring shapes): {ms.ineligible_source} source side\n")

    # One call measures every pair into a table, one row per pair; a pair it
    # cannot measure keeps its row, marked not measured, and is not dropped.
    table = compute_surface_results(ms, source, target)
    print(f"{'src':>4} {'tgt':>4} {'IoU':>8} {'d_avg':>8} {'d_max':>8}")
    for pair, measured, d_avg, d_max in zip(table.pairs, table.measured, table.d_avg, table.d_max):
        if measured:
            print(
                f"{pair.source_instance_id:>4} {pair.target_instance_id:>4} "
                f"{pair.iou:8.4f} {d_avg:8.4f} {d_max:8.4f}"
            )
    print(f"{(~table.measured).sum()} degenerate pairs")

    # d_avg weights disagreement by contour length; d_max is the worst
    # single-pixel excursion. A one-pixel edge shift gives d_max == 1 while
    # d_avg stays well below 1 because most of the contour still agrees.

    # Tighten the threshold and the weakest pair drops out:
    strict = match_datasets(source, target, MatchConfig(iou_threshold=0.95))
    kept = [(p.source_instance_id, p.target_instance_id) for p in strict.pairs]
    print(f"\nat threshold 0.95 only {kept} survive")

    # Mask-mode IoU rasterizes both shapes instead of trusting boxes;
    # the triangle pair scores differently there.
    masked = match_datasets(source, target, MatchConfig(iou_mode="mask"))
    for p in masked.pairs:
        print(f"mask IoU {p.source_instance_id}->{p.target_instance_id}: {p.iou:.4f}")


if __name__ == "__main__":
    main()
