"""Independent reference implementations the test suite checks against.

Everything here is written the slow, obvious way — per-pixel point-in-polygon
tests, brute-force nearest-neighbor scans, bitmask dynamic programming, a
step-function PR curve — deliberately sharing no algorithmic structure with
the library code. Where a check demands bit-exact equality the oracle mirrors
only the final read-out arithmetic (integer squared distances, then sqrt on
an int64 array in row-major order), never the algorithm that produced them.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# rasterization


def point_in_rings(px: float, py: float, rings) -> bool:
    """Even-odd rule by explicit ray casting: edges crossing the horizontal
    line through the point, counted strictly to its right; half-open edge
    spans [ymin, ymax)."""
    crossings = 0
    for ring in rings:
        xs = ring[0::2]
        ys = ring[1::2]
        n = len(xs)
        for i in range(n):
            x1, y1 = xs[i], ys[i]
            x2, y2 = xs[(i + 1) % n], ys[(i + 1) % n]
            if y1 == y2:
                continue
            if min(y1, y2) <= py < max(y1, y2):
                xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                if px < xc:
                    crossings += 1
    return crossings % 2 == 1


def rasterize_oracle(rings, width: int, height: int) -> np.ndarray:
    mask = np.zeros((height, width), dtype=bool)
    for r in range(height):
        for c in range(width):
            mask[r, c] = point_in_rings(c + 0.5, r + 0.5, rings)
    return mask


# ---------------------------------------------------------------------------
# distance transforms and surface metrics


def edt_squared_oracle(source: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance to the nearest source pixel, by
    scanning every source pixel for every grid pixel."""
    src = np.argwhere(source)
    if src.size == 0:
        raise ValueError("empty source")
    h, w = source.shape
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    pts = np.stack([rr.ravel(), cc.ravel()], axis=1).astype(np.int64)
    d2 = (pts[:, None, 0] - src[None, :, 0]) ** 2 + (pts[:, None, 1] - src[None, :, 1]) ** 2
    return d2.min(axis=1).reshape(h, w)


def surface_metrics_oracle(cx: np.ndarray, cy: np.ndarray) -> tuple[float, float]:
    """Brute-force average and maximum nearest-neighbor contour distance.

    Read-out arithmetic matches the library contract exactly: integer squared
    minima, sqrt over an int64 array in row-major pixel order, then np.sum.
    """
    ax = np.argwhere(cx).astype(np.int64)  # row-major order
    ay = np.argwhere(cy).astype(np.int64)
    d2_x_to_y = ((ax[:, None, :] - ay[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    d2_y_to_x = ((ay[:, None, :] - ax[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    from_x = np.sqrt(d2_x_to_y.astype(np.float64))
    from_y = np.sqrt(d2_y_to_x.astype(np.float64))
    d_avg = float((np.sum(from_x) + np.sum(from_y)) / (len(ax) + len(ay)))
    d_max = float(np.sqrt(max(int(d2_x_to_y.max()), int(d2_y_to_x.max()))))
    return d_avg, d_max


# ---------------------------------------------------------------------------
# overlap


def box_iou_oracle(d, g, crowd: bool = False) -> float:
    """IoU of two (x, y, w, h) boxes from their corners; over ``d``'s own area
    for a crowd ``g``; 0 when the denominator is not positive."""
    dx, dy, dw, dh = d
    gx, gy, gw, gh = g
    iw = max(0.0, min(dx + dw, gx + gw) - max(dx, gx))
    ih = max(0.0, min(dy + dh, gy + gh) - max(dy, gy))
    inter = iw * ih
    union = dw * dh if crowd else dw * dh + gw * gh - inter
    return inter / union if union > 0 else 0.0


# ---------------------------------------------------------------------------
# assignment


def best_assignment(iou: np.ndarray, threshold: float) -> tuple[int, float]:
    """Optimal one-to-one assignment by bitmask DP: maximize matched-pair
    count, then total IoU, over pairs with IoU strictly above the threshold.

    Returns (count, total_iou).
    """
    n, m = iou.shape
    if m > n:  # DP over the smaller side as columns
        return best_assignment(iou.T, threshold)
    best: dict[int, float] = {0: 0.0}
    for i in range(n):
        nxt = dict(best)
        for mask, total in best.items():
            for j in range(m):
                if mask & (1 << j) or iou[i, j] <= threshold:
                    continue
                key = mask | (1 << j)
                cand = total + iou[i, j]
                if key not in nxt or cand > nxt[key]:
                    nxt[key] = cand
        best = nxt
    score = max((bin(mask).count("1"), total) for mask, total in best.items())
    return score


# ---------------------------------------------------------------------------
# PR curves


def ap_oracle(
    dets: list[tuple[int, float, float]],
    n_positive: int,
    recall_points,
) -> float:
    """Average precision from labeled, ranked detections.

    ``dets`` rows are (tie_break_id, score, label) with label 1 = true
    positive, 0 = false positive, -1 = ignored. The PR step function is built
    point by point and each recall sample takes the maximum precision over
    all operating points at or beyond it — no interpolation-in-place pass.
    """
    ranked = sorted(dets, key=lambda d: (-d[1], d[0]))
    points = []  # (recall, precision)
    tp = fp = 0
    for _, _, label in ranked:
        if label < 0:
            continue
        if label:
            tp += 1
        else:
            fp += 1
        points.append((tp / n_positive, tp / (tp + fp)))
    total = 0.0
    for r in recall_points:
        best = 0.0
        for rc, pr in points:
            if rc >= r and pr > best:
                best = pr
        total += best
    return total / len(recall_points)


def match_labels_oracle(
    det_rows: list[tuple[int, float, float]],
    gt_rows: list[tuple[bool, bool, float]],
    iou_fn,
    threshold: float,
) -> list[tuple[int, float, float]]:
    """Label detections tp/fp/ignore by a direct transcription of the
    protocol text (no arrays): detections in score order each take the
    not-yet-claimed ground truth of highest IoU at or above the threshold,
    preferring real ground truths over ignored ones only via the ordering;
    crowd ground truths may be claimed repeatedly.

    ``det_rows``: (det_id, score, det_area_out_of_range 0/1).
    ``gt_rows``: (iscrowd, ignored, _) indexed by the g passed to
    ``iou_fn(det_id, g)``.
    Returns (det_id, score, label) rows for ``ap_oracle``.
    """
    order = sorted(range(len(gt_rows)), key=lambda g: gt_rows[g][1])  # ignored last
    claimed = set()
    out = []
    for det_id, score, area_out in sorted(det_rows, key=lambda d: (-d[1], d[0])):
        best_iou = threshold
        best_g = None
        for g in order:
            crowd, ignored, _ = gt_rows[g]
            if g in claimed and not crowd:
                continue
            if best_g is not None and not gt_rows[best_g][1] and ignored:
                break
            v = iou_fn(det_id, g)
            if v < best_iou:
                continue
            best_iou = v
            best_g = g
        if best_g is None:
            out.append((det_id, score, -1.0 if area_out else 0.0))
        else:
            claimed.add(best_g)
            out.append((det_id, score, -1.0 if gt_rows[best_g][1] else 1.0))
    return out


# ---------------------------------------------------------------------------
# histograms


def histogram_oracle(values, bins: int):
    """Naive transcription of the distance-histogram contract."""
    kept = [v for v in values if v > 1.0]
    if not kept:
        return None
    mean = sum(kept) / len(kept)
    std = (sum((v - mean) ** 2 for v in kept) / len(kept)) ** 0.5
    clip = mean + 3.0 * std
    counts = [0] * bins
    overflow = 0
    width = (clip - 1.0) / bins
    for v in kept:
        if v > clip:
            overflow += 1
            continue
        idx = int(np.ceil((v - 1.0) / width)) - 1
        idx = min(max(idx, 0), bins - 1)
        counts[idx] += 1
    return {
        "mean": mean,
        "std": std,
        "clip": clip,
        "counts": counts,
        "overflow": overflow,
        "excluded_below": len(values) - len(kept),
    }
