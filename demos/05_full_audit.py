"""The whole pipeline as one call: run_audit produces the JSON report the
`annodiff diff` command emits, plus the intermediate objects for further
analysis.

    python3 demos/05_full_audit.py
"""

import json
from pathlib import Path

import numpy as np

from annodiff.dataset import load_dataset
from annodiff.report import AuditConfig, canonical_report_bytes, run_audit

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SRC = FIXTURES / "synthetic_a.json"
TGT = FIXTURES / "synthetic_b.json"


def main():
    source = load_dataset(SRC)
    target = load_dataset(TGT)

    config = AuditConfig(eval_tasks=("bbox",), source_path=str(SRC), target_path=str(TGT))
    outcome = run_audit(source, target, config)
    r = outcome.report

    print(f"report schema: {r['schema']} v{r['schema_version']}")
    print(f"matching: {json.dumps(r['matching'])}")
    print(f"consistency: {json.dumps(r['consistency'])}")
    avg = r["surface"]["d_avg"]
    print(f"d_avg histogram: {avg['included']} binned, "
          f"{avg['excluded_below']} at/below 1 px, {avg['overflow']} past clip")
    ev = r["eval"]["bbox"]
    print(f"cross-eval bbox: a_vs_b mAP {ev['a_vs_b']['mAP']:.3f}, "
          f"b_vs_a mAP {ev['b_vs_a']['mAP']:.3f}")

    # Everything except wall-clock timings is byte-deterministic: the same
    # inputs and config produce the same canonical bytes on every run and
    # for every --jobs setting.
    again = run_audit(source, target, config)
    same = canonical_report_bytes(r) == canonical_report_bytes(again.report)
    print(f"\ncanonical bytes reproducible across runs: {same}")

    # The worst-disagreeing pairs, straight from the pair table: its measured
    # rows by d_avg, largest first, ties in pair order.
    table = outcome.table
    rows = np.flatnonzero(table.measured)
    worst = rows[np.argsort(-table.d_avg[rows], kind="stable")[:5]]
    print("\nworst pairs by d_avg:")
    for k in worst:
        p = table.pairs[k]
        print(f"  image {p.image_id}: {p.source_instance_id} -> {p.target_instance_id} "
              f"iou {p.iou:.3f}, d_avg {table.d_avg[k]:.2f}, d_max {table.d_max[k]:.2f}")


if __name__ == "__main__":
    main()
