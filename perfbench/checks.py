"""Output checks for the benchmark workloads.

Every check recomputes what the program wrote, from the raw input JSON, by
code that shares nothing with the program but the read-out arithmetic that
bit-exactness needs (the convention ``tests/oracles.py`` follows), or tests
a property the method must have. None compares against stored output.

Each ``check_*`` function returns a list of failure messages; empty means
the output passed.
"""

from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# the COCO protocol constants, as published
IOU_THRESHOLDS = tuple(np.linspace(0.5, 0.95, 10).tolist())
RECALL_POINTS = tuple(np.linspace(0.0, 1.0, 101).tolist())
MATCH_THRESHOLD = 0.90  # `annodiff diff` default: box IoU strictly above it
AP_TOLERANCE = 1e-9
# A pixel center closer than this to an edge crossing lies on the boundary up
# to rounding: float arithmetic, the program's or the oracle's, decides its
# side, so the checks take the program's decision there (see rings_mask).
TIE_PX = 1e-9
SAMPLE = 8  # pairs or masks recomputed pixel by pixel through point_in_rings


_spec = importlib.util.spec_from_file_location("annodiff_test_oracles", ROOT / "tests" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


# ---------------------------------------------------------------------------
# independent geometry


def box_iou(d, g, crowd: bool = False) -> float:
    """(x, y, w, h) box IoU; for a crowd ground truth, intersection over the
    detection's area. The arithmetic order is the program's, so values agree
    to the bit."""
    dx, dy, dw, dh = d
    gx, gy, gw, gh = g
    iw = max(min(dx + dw, gx + gw) - max(dx, gx), 0.0)
    ih = max(min(dy + dh, gy + gh) - max(dy, gy), 0.0)
    inter = iw * ih
    d_area = dw * dh
    denom = d_area if crowd else d_area + gw * gh - inter
    return inter / denom if denom > 0 else 0.0


def ring_window(rings, width: int, height: int, pad: int) -> tuple[int, int, int, int]:
    """Rows and columns that can hold a pixel center inside ``rings``, widened
    by ``pad`` and clipped to the image: ``(r0, r1, c0, c1)``, half-open."""
    xs = [v for ring in rings for v in ring[0::2]]
    ys = [v for ring in rings for v in ring[1::2]]
    r0 = max(0, math.floor(min(ys)) - pad)
    r1 = min(height, math.ceil(max(ys)) + 1 + pad)
    c0 = max(0, math.floor(min(xs)) - pad)
    c1 = min(width, math.ceil(max(xs)) + 1 + pad)
    return r0, max(r0, r1), c0, max(c0, c1)


def rings_mask(rings, window) -> tuple[np.ndarray, np.ndarray]:
    """``oracles.point_in_rings`` at every pixel center of ``window`` at once.

    The same even-odd ray cast with the same crossing formula, evaluated
    elementwise in float64, so each pixel gets the oracle's answer. Returns
    ``(inside, ambiguous)``; ``ambiguous`` marks centers within ``TIE_PX`` of
    a crossing, such as a center exactly on a vertex, whose side the
    rounding of the crossing decides.
    """
    r0, r1, c0, c1 = window
    py = np.arange(r0, r1, dtype=np.float64) + 0.5
    px = np.arange(c0, c1, dtype=np.float64) + 0.5
    inside = np.zeros((r1 - r0, c1 - c0), dtype=bool)
    ambiguous = np.zeros_like(inside)
    for ring in rings:
        xs, ys = ring[0::2], ring[1::2]
        n = len(xs)
        for i in range(n):
            x1, y1 = xs[i], ys[i]
            x2, y2 = xs[(i + 1) % n], ys[(i + 1) % n]
            if y1 == y2:
                continue
            rows = (min(y1, y2) <= py) & (py < max(y1, y2))
            if rows.any():
                xc = (x1 + (py[rows] - y1) * (x2 - x1) / (y2 - y1))[:, None]
                inside[rows] ^= px[None, :] < xc
                ambiguous[rows] |= np.abs(px[None, :] - xc) <= TIE_PX
    return inside, ambiguous


def oracle_mask(rings, window, width: int, height: int, rasterize) -> np.ndarray:
    """The ``rings_mask`` fill of ``window``, taking at ambiguous pixels the
    decision of ``rasterize(rings, width, height)``, the program's fill of
    the whole image."""
    inside, ambiguous = rings_mask(rings, window)
    if ambiguous.any():
        r0, r1, c0, c1 = window
        inside = np.where(ambiguous, rasterize(rings, width, height)[r0:r1, c0:c1], inside)
    return inside


def rings_mask_literal(rings, window) -> np.ndarray:
    """The same mask pixel by pixel through ``oracles.point_in_rings``."""
    r0, r1, c0, c1 = window
    mask = np.zeros((r1 - r0, c1 - c0), dtype=bool)
    for r in range(r0, r1):
        for c in range(c0, c1):
            mask[r - r0, c - c0] = oracles.point_in_rings(c + 0.5, r + 0.5, rings)
    return mask


def rle_mask(counts, height: int, width: int) -> np.ndarray:
    """Column-major run-length decode, first run background."""
    flat = np.zeros(height * width, dtype=bool)
    pos = 0
    for i, run in enumerate(counts):
        if i % 2:
            flat[pos : pos + run] = True
        pos += run
    return flat.reshape(width, height).T


def boundary(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a 4-neighbour outside the foreground or the grid."""
    p = np.pad(mask, 1)
    interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    return mask & ~interior


def pair_window(ring_a, ring_b, width: int, height: int):
    # the union window plus one background pixel keeps every contour pixel
    # and its erosion as they are on the whole image
    return ring_window([ring_a, ring_b], width, height, pad=1)


def surface_pair(ring_a, ring_b, width: int, height: int, rasterize):
    """``(d_avg, d_max, |contour a|, |contour b|)`` of one ring pair, or None
    for a pair the method cannot measure (a ring under three vertices, or
    one covering no pixel center)."""
    if len(ring_a) < 6 or len(ring_b) < 6:
        return None
    window = pair_window(ring_a, ring_b, width, height)
    ma = oracle_mask([ring_a], window, width, height, rasterize)
    mb = oracle_mask([ring_b], window, width, height, rasterize)
    if not ma.any() or not mb.any():
        return None
    ca, cb = boundary(ma), boundary(mb)
    d_avg, d_max = oracles.surface_metrics_oracle(ca, cb)
    return d_avg, d_max, int(ca.sum()), int(cb.sum())


# ---------------------------------------------------------------------------
# raw COCO helpers


def _by_image(raw) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {img["id"]: [] for img in raw["images"]}
    for ann in sorted(raw["annotations"], key=lambda a: a["id"]):
        out[ann["image_id"]].append(ann)
    return out


def _single_ring(ann) -> bool:
    seg = ann["segmentation"]
    return not ann["iscrowd"] and isinstance(seg, list) and len(seg) == 1


def _close(a, b, tol: float = AP_TOLERANCE) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# surface-audit: `annodiff diff A B`


def greedy_pairs(raw_a, raw_b, threshold: float = MATCH_THRESHOLD) -> list[dict]:
    """Same-category pairs by box IoU, per image: highest IoU first (ties by
    source then target id), each instance used once, IoU above threshold."""
    images_a, images_b = _by_image(raw_a), _by_image(raw_b)
    pairs = []
    for image_id in sorted(set(images_a) | set(images_b)):
        src = [a for a in images_a.get(image_id, []) if _single_ring(a)]
        tgt = [b for b in images_b.get(image_id, []) if _single_ring(b)]
        cands = []
        for s in src:
            for t in tgt:
                if s["category_id"] != t["category_id"]:
                    continue
                iou = box_iou(s["bbox"], t["bbox"])
                if iou > threshold:
                    cands.append((-iou, s["id"], t["id"], s["category_id"]))
        cands.sort()
        used_s, used_t, local = set(), set(), []
        for neg, sid, tid, cat in cands:
            if sid in used_s or tid in used_t:
                continue
            used_s.add(sid)
            used_t.add(tid)
            local.append({"image_id": image_id, "source_id": sid, "target_id": tid,
                          "iou": -neg, "category_id": cat})
        pairs.extend(sorted(local, key=lambda p: p["source_id"]))
    return pairs


def histogram_failures(metric: str, section: dict, values: list[float], bins: int) -> list[str]:
    """Compare a report histogram section with the oracle over ``values``."""
    ref = oracles.histogram_oracle(values, bins)
    if ref is None:
        return [] if section["empty"] and section["total"] == len(values) else [f"{metric}: expected an empty histogram"]
    fails = []
    if section["empty"]:
        return [f"{metric}: histogram empty, oracle keeps {sum(ref['counts']) + ref['overflow']} values"]
    for key in ("mean", "std", "clip"):
        if not math.isclose(section[key], ref[key], rel_tol=1e-9, abs_tol=1e-12):
            fails.append(f"{metric}: {key} {section[key]!r} != oracle {ref[key]!r}")
    # bin the oracle values under the reported clip (checked just above), so a
    # last-ulp difference in the clip cannot move a value across an edge
    clip = section["clip"]
    width = (clip - 1.0) / bins
    counts, overflow = [0] * bins, 0
    for v in values:
        if v <= 1.0:
            continue
        if v > clip:
            overflow += 1
            continue
        counts[min(max(math.ceil((v - 1.0) / width) - 1, 0), bins - 1)] += 1
    want = {"counts": counts, "overflow": overflow, "included": sum(counts),
            "excluded_below": ref["excluded_below"], "total": len(values)}
    for key, value in want.items():
        if section[key] != value:
            fails.append(f"{metric}: {key} {section[key]!r} != oracle {value!r}")
    return fails


def check_surface_audit(raw_a, raw_b, report: dict, pair_rows: list[dict], seed: int,
                        kernel, rasterize) -> list[str]:
    """Pairs, counts, consistency and surface histograms of one diff.

    ``kernel(ring_a, ring_b, width, height)`` is the program's per-pair
    surface pipeline; on a seeded sample of pairs it must equal the oracle
    to the bit, and there ``oracles.point_in_rings`` must fill each ring as
    the oracle does. ``rasterize`` is the program's polygon fill, consulted
    only at ambiguous pixels.
    """
    fails = []
    want = greedy_pairs(raw_a, raw_b)
    seen_s, seen_t = set(), set()
    boxes_a = {a["id"]: a for a in raw_a["annotations"]}
    boxes_b = {b["id"]: b for b in raw_b["annotations"]}
    for row in pair_rows:
        a, b = boxes_a.get(row["source_id"]), boxes_b.get(row["target_id"])
        if a is None or b is None:
            fails.append(f"pair {row}: unknown instance id")
            continue
        iou = box_iou(a["bbox"], b["bbox"])
        if not iou > MATCH_THRESHOLD or abs(iou - row["iou"]) > 1e-12:
            fails.append(f"pair {row['source_id']}-{row['target_id']}: IoU {row['iou']!r}, recomputed {iou!r}")
        if row["source_id"] in seen_s or row["target_id"] in seen_t:
            fails.append(f"pair {row['source_id']}-{row['target_id']}: instance in two pairs")
        seen_s.add(row["source_id"])
        seen_t.add(row["target_id"])
    key = lambda p: (p["image_id"], p["source_id"], p["target_id"], p["category_id"])  # noqa: E731
    if [key(p) for p in pair_rows] != [key(p) for p in want]:
        fails.append(f"pairs differ from greedy matching: {len(pair_rows)} written, {len(want)} expected")

    matching = report["matching"]
    if matching["pair_count"] != len(pair_rows):
        fails.append(f"pair_count {matching['pair_count']} != {len(pair_rows)} NDJSON rows")
    for side, raw in (("source", raw_a), ("target", raw_b)):
        eligible = sum(1 for ann in raw["annotations"] if _single_ring(ann))
        total = len(raw["annotations"])
        got = matching["pair_count"] + matching[f"unmatched_{side}"] + matching[f"ineligible_{side}"]
        if got != total:
            fails.append(f"{side}: pairs + unmatched + ineligible = {got} != {total} instances")
        if matching[f"ineligible_{side}"] != total - eligible:
            fails.append(f"{side}: ineligible {matching[f'ineligible_{side}']} != {total - eligible}")
    if report["consistency"]["ok"] is not True:
        fails.append("consistency.ok is not true")

    images = {img["id"]: img for img in raw_a["images"]}
    oracle = {}
    for p in want:
        img = images[p["image_id"]]
        oracle[p["source_id"]] = surface_pair(boxes_a[p["source_id"]]["segmentation"][0],
                                              boxes_b[p["target_id"]]["segmentation"][0],
                                              img["width"], img["height"], rasterize)
    measured = [v for v in oracle.values() if v is not None]
    degenerate = len(oracle) - len(measured)
    surface = report["surface"]
    if surface["measured_pairs"] != len(measured) or surface["degenerate_excluded"] != degenerate:
        fails.append(f"surface: {surface['measured_pairs']} measured / {surface['degenerate_excluded']} "
                     f"degenerate, oracle {len(measured)} / {degenerate}")
    bins = report["config"]["bins"]
    fails += histogram_failures("d_avg", surface["d_avg"], [m[0] for m in measured], bins)
    fails += histogram_failures("d_max", surface["d_max"], [m[1] for m in measured], bins)

    rng = random.Random(seed)
    for p in rng.sample(want, min(SAMPLE, len(want))):
        img = images[p["image_id"]]
        ring_a = boxes_a[p["source_id"]]["segmentation"][0]
        ring_b = boxes_b[p["target_id"]]["segmentation"][0]
        label = f"pair {p['source_id']}-{p['target_id']}"
        window = pair_window(ring_a, ring_b, img["width"], img["height"])
        for ring in (ring_a, ring_b):
            if not same_off_ties([ring], window):
                fails.append(f"{label}: vectorized fill != point_in_rings")
        want_values = oracle[p["source_id"]]
        if want_values is not None:
            got = tuple(kernel(ring_a, ring_b, img["width"], img["height"]))
            if got != want_values:
                fails.append(f"{label}: program {got} != oracle {want_values}")
    return fails


def same_off_ties(rings, window) -> bool:
    """Whether ``rings_mask`` equals the pixel-by-pixel ``point_in_rings``
    fill everywhere but at ambiguous pixels."""
    inside, ambiguous = rings_mask(rings, window)
    literal = rings_mask_literal(rings, window)
    return bool(np.array_equal(inside[~ambiguous], literal[~ambiguous]))


# ---------------------------------------------------------------------------
# box-eval and mask-eval: `annodiff eval A B --task bbox|segm`


def instance_masks(raw, rasterize) -> dict[int, tuple[int, int, np.ndarray]]:
    """``{id: (r0, c0, mask window)}`` for every instance of a raw corpus;
    ``rasterize`` settles ambiguous pixels as in ``oracle_mask``."""
    images = {img["id"]: img for img in raw["images"]}
    out = {}
    for ann in raw["annotations"]:
        img = images[ann["image_id"]]
        seg = ann["segmentation"]
        if isinstance(seg, dict):
            h, w = seg["size"]
            mask = rle_mask(seg["counts"], h, w)
            rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
            r0, c0 = int(rows[0]), int(cols[0])
            out[ann["id"]] = (r0, c0, mask[r0 : rows[-1] + 1, c0 : cols[-1] + 1])
        else:
            window = ring_window(seg, img["width"], img["height"], pad=0)
            out[ann["id"]] = (window[0], window[2], oracle_mask(seg, window, img["width"], img["height"], rasterize))
    return out


def mask_iou(d, g, crowd: bool) -> float:
    """IoU of two windowed masks; over the detection's area for a crowd."""
    (dr, dc, dm), (gr, gc, gm) = d, g
    r0, c0 = max(dr, gr), max(dc, gc)
    r1, c1 = min(dr + dm.shape[0], gr + gm.shape[0]), min(dc + dm.shape[1], gc + gm.shape[1])
    inter = 0
    if r0 < r1 and c0 < c1:
        inter = int(np.count_nonzero(dm[r0 - dr : r1 - dr, c0 - dc : c1 - dc]
                                     & gm[r0 - gr : r1 - gr, c0 - gc : c1 - gc]))
    d_area, g_area = int(np.count_nonzero(dm)), int(np.count_nonzero(gm))
    denom = d_area if crowd else d_area + g_area - inter
    return inter / denom if denom > 0 else 0.0


def oracle_eval(raw_det, raw_gt, iou_of) -> dict:
    """Per-category AP (area range "all") of ``raw_det``'s non-crowd
    instances as score-1.0 detections against ``raw_gt``, by
    ``oracles.match_labels_oracle`` and ``oracles.ap_oracle``.

    Returns ``{"per_category": {cat: AP or None}, "ap50": {cat: AP@0.5}}``.
    """
    dets, gts = _by_image(raw_det), _by_image(raw_gt)
    per_category, ap50 = {}, {}
    for cat in sorted(c["id"] for c in raw_gt["categories"]):
        cells = []
        n_positive = 0
        for image_id in sorted(gts):
            g_list = [g for g in gts[image_id] if g["category_id"] == cat]
            d_list = [d for d in dets.get(image_id, []) if d["category_id"] == cat and not d["iscrowd"]]
            n_positive += sum(1 for g in g_list if not g["iscrowd"])
            if not d_list:
                continue
            ious = {(d["id"], gi): iou_of(d, g) for d in d_list for gi, g in enumerate(g_list)}
            cells.append((image_id, d_list, g_list, ious))
        if n_positive == 0:
            per_category[cat] = ap50[cat] = None
            continue
        aps = []
        for t in IOU_THRESHOLDS:
            rows = []
            for image_id, d_list, g_list, ious in cells:
                det_rows = [(d["id"], 1.0, 0.0) for d in d_list]
                gt_rows = [(bool(g["iscrowd"]), bool(g["iscrowd"]), 0.0) for g in g_list]
                labels = oracles.match_labels_oracle(det_rows, gt_rows, lambda di, gi: ious[(di, gi)], t)
                # equal scores keep image order, then id order, as the evaluator ranks them
                rows += [((image_id, di), score, label) for di, score, label in labels]
            aps.append(oracles.ap_oracle(rows, n_positive, RECALL_POINTS))
        per_category[cat] = sum(aps) / len(aps)
        ap50[cat] = aps[0]
    return {"per_category": per_category, "ap50": ap50}


def _mean_defined(values) -> float | None:
    kept = [v for v in values if v is not None]
    return sum(kept) / len(kept) if kept else None


def eval_failures(label: str, table: dict, want: dict) -> list[str]:
    fails = []
    got = {int(k): v for k, v in table["per_category"].items()}
    if set(got) != set(want["per_category"]):
        return [f"{label}: categories {sorted(got)} != {sorted(want['per_category'])}"]
    for cat, ap in sorted(got.items()):
        if ap is not None and not 0.0 <= ap <= 1.0:
            fails.append(f"{label}: category {cat} AP {ap!r} outside [0, 1]")
        if not _close(ap, want["per_category"][cat]):
            fails.append(f"{label}: category {cat} AP {ap!r} != oracle {want['per_category'][cat]!r}")
    for key, ref in (("mAP", _mean_defined(want["per_category"].values())),
                     ("mAP@50", _mean_defined(want["ap50"].values()))):
        if table[key] is not None and not 0.0 <= table[key] <= 1.0:
            fails.append(f"{label}: {key} {table[key]!r} outside [0, 1]")
        if not _close(table[key], ref):
            fails.append(f"{label}: {key} {table[key]!r} != oracle {ref!r}")
    for key in ("mAP Small", "mAP Medium", "mAP Large"):
        if table[key] is not None and not 0.0 <= table[key] <= 1.0:
            fails.append(f"{label}: {key} {table[key]!r} outside [0, 1]")
    return fails


def check_box_eval(raw_a, raw_b, out: dict) -> list[str]:
    iou_of = lambda d, g: box_iou(d["bbox"], g["bbox"], bool(g["iscrowd"]))  # noqa: E731
    tables = out.get("bbox", {})
    return (eval_failures("bbox a_vs_b", tables["a_vs_b"], oracle_eval(raw_a, raw_b, iou_of))
            + eval_failures("bbox b_vs_a", tables["b_vs_a"], oracle_eval(raw_b, raw_a, iou_of)))


def check_mask_eval(raw_a, raw_b, out: dict, seed: int, self_eval_map: float, rasterize) -> list[str]:
    """The segm table in both directions against the oracle, with masks
    from the point-in-rings rule; a seeded sample of masks is also filled
    pixel by pixel through ``oracles.point_in_rings``. ``self_eval_map`` is
    the program's segm mAP of side A against itself, which must be 1.0;
    ``rasterize`` is the program's polygon fill, for ambiguous pixels."""
    fails = []
    masks = instance_masks(raw_a, rasterize)
    masks_b = instance_masks(raw_b, rasterize)
    both = {**{("a", k): v for k, v in masks.items()}, **{("b", k): v for k, v in masks_b.items()}}
    images = {img["id"]: img for img in raw_a["images"]}
    polygons = [(side, ann) for side, raw in (("a", raw_a), ("b", raw_b))
                for ann in raw["annotations"] if isinstance(ann["segmentation"], list)]
    rng = random.Random(seed)
    for side, ann in rng.sample(polygons, min(SAMPLE, len(polygons))):
        img = images[ann["image_id"]]
        window = ring_window(ann["segmentation"], img["width"], img["height"], pad=0)
        if not same_off_ties(ann["segmentation"], window):
            fails.append(f"instance {side}:{ann['id']}: vectorized mask != point_in_rings")

    def iou_from(det_side, gt_side):
        return lambda d, g: mask_iou(both[(det_side, d["id"])], both[(gt_side, g["id"])], bool(g["iscrowd"]))

    tables = out.get("segm", {})
    fails += eval_failures("segm a_vs_b", tables["a_vs_b"], oracle_eval(raw_a, raw_b, iou_from("a", "b")))
    fails += eval_failures("segm b_vs_a", tables["b_vs_a"], oracle_eval(raw_b, raw_a, iou_from("b", "a")))
    if self_eval_map != 1.0:
        fails.append(f"segm self-evaluation of side A: mAP {self_eval_map!r} != 1.0")
    return fails
