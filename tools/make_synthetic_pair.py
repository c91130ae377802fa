#!/usr/bin/env python3
"""Generate the bundled synthetic annotation pair used by the test suite.

Side A is a corpus of random star polygons (plus a few crowds and multi-ring
instances); side B is a perturbed re-annotation of it: vertices jittered by a
fraction of a pixel up to a couple of pixels, some instances dropped, some
added, a few relabeled. Everything is driven by one seeded generator so the
output files are reproducible byte for byte.

The committed fixtures were produced with the defaults:

    python tools/make_synthetic_pair.py --out-dir tests/fixtures
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

from annodiff.raster import bbox_of_polygon, encode_rle, rasterize_window
from annodiff.shapes import Polygons

CATEGORIES = [
    {"id": 1, "name": "blob", "supercategory": "synthetic"},
    {"id": 2, "name": "patch", "supercategory": "synthetic"},
    {"id": 3, "name": "smudge", "supercategory": "synthetic"},
]
IMAGE_SIZES = [(320, 240), (256, 256), (400, 300)]


def star_ring(rng, width, height) -> list[float]:
    """One simple polygon: random radii around a center, angle-sorted."""
    while True:
        k = int(rng.integers(5, 13))
        r_hi = float(rng.uniform(14.0, 75.0))
        cx = float(rng.uniform(r_hi + 2.0, width - r_hi - 2.0))
        cy = float(rng.uniform(r_hi + 2.0, height - r_hi - 2.0))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=k))
        radii = rng.uniform(0.35 * r_hi, r_hi, size=k)
        ring = []
        for a, r in zip(angles, radii):
            ring.append(round(cx + r * math.cos(a), 2))
            ring.append(round(cy + r * math.sin(a), 2))
        if pixel_area(ring, width, height) >= 8:
            return ring


def pixel_area(ring, width, height) -> int:
    return int(np.count_nonzero(rasterize_window(Polygons((tuple(ring),)), width, height)[2]))


def polygon_annotation(ann_id, image, ring, category_id) -> dict:
    bbox = bbox_of_polygon(Polygons((tuple(ring),)))
    return {
        "id": ann_id,
        "image_id": image["id"],
        "category_id": category_id,
        "segmentation": [list(ring)],
        "bbox": [bbox.x, bbox.y, bbox.w, bbox.h],
        "area": float(pixel_area(ring, image["width"], image["height"])),
        "iscrowd": 0,
    }


def crowd_annotation(rng, ann_id, image) -> dict:
    w, h = image["width"], image["height"]
    band_h = int(rng.integers(10, 30))
    r0 = int(rng.integers(0, h - band_h))
    c0 = int(rng.integers(0, w // 2))
    c1 = int(rng.integers(c0 + w // 4, w))
    mask = np.zeros((h, w), dtype=bool)
    mask[r0 : r0 + band_h, c0:c1] = True
    rle = encode_rle(mask)
    return {
        "id": ann_id,
        "image_id": image["id"],
        "category_id": int(rng.integers(1, len(CATEGORIES) + 1)),
        "segmentation": {"counts": list(rle.counts), "size": [h, w]},
        "bbox": [float(c0), float(r0), float(c1 - c0), float(band_h)],
        "area": float(mask.sum()),
        "iscrowd": 1,
    }


def two_ring_annotation(rng, ann_id, image) -> dict:
    w, h = image["width"], image["height"]
    rings = []
    for _ in range(2):
        side = float(rng.uniform(6.0, 12.0))
        x = float(rng.uniform(1.0, w - side - 1.0))
        y = float(rng.uniform(1.0, h - side - 1.0))
        rings.append([round(v, 2) for v in (x, y, x + side, y, x + side, y + side, x, y + side)])
    area = sum(pixel_area(r, w, h) for r in rings)
    xs = [v for r in rings for v in r[0::2]]
    ys = [v for r in rings for v in r[1::2]]
    return {
        "id": ann_id,
        "image_id": image["id"],
        "category_id": int(rng.integers(1, len(CATEGORIES) + 1)),
        "segmentation": [list(r) for r in rings],
        "bbox": [min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys)],
        "area": float(area),
        "iscrowd": 0,
    }


def jittered(rng, ann, image) -> dict | None:
    """Side-B version of a side-A polygon instance; None means dropped."""
    if rng.uniform() < 0.07:
        return None
    w, h = image["width"], image["height"]
    ring = ann["segmentation"][0]
    # disagreement styles: independent vertex noise; a coherent shift of the
    # whole outline; or a slight dilation/erosion about the centroid — the
    # latter two are what push average distances past a pixel on big shapes
    xs, ys = ring[0::2], ring[1::2]
    bw, bh = max(xs) - min(xs), max(ys) - min(ys)
    draw = rng.uniform()
    if draw < 0.66:
        noise, dx, dy, grow = 0.6, 0.0, 0.0, 1.0
    elif draw < 0.88:
        # shift sized to the shape so the box IoU stays just above 0.9
        noise = 0.25
        dx = float(rng.choice((-1, 1)) * rng.uniform(0.012, 0.024) * bw)
        dy = float(rng.choice((-1, 1)) * rng.uniform(0.012, 0.024) * bh)
        grow = 1.0
    else:
        noise, dx, dy = 0.25, 0.0, 0.0
        grow = float(rng.uniform(0.958, 1.045))
    gx = sum(ring[0::2]) / (len(ring) // 2)
    gy = sum(ring[1::2]) / (len(ring) // 2)
    moved = []
    for i, v in enumerate(ring):
        center, shift, bound = (gx, dx, w) if i % 2 == 0 else (gy, dy, h)
        v = center + (v - center) * grow + shift + float(rng.uniform(-noise, noise))
        moved.append(round(min(max(v, 0.0), float(bound)), 2))
    if pixel_area(moved, w, h) < 4:
        return None
    category = ann["category_id"]
    if rng.uniform() < 0.04:
        category = category % len(CATEGORIES) + 1
    bbox = bbox_of_polygon(Polygons((tuple(moved),)))
    return {
        "id": 0,  # assigned by caller
        "image_id": ann["image_id"],
        "category_id": category,
        "segmentation": [moved],
        "bbox": [bbox.x, bbox.y, bbox.w, bbox.h],
        "area": float(pixel_area(moved, w, h)),
        "iscrowd": 0,
    }


def build_pair(seed: int, n_images: int) -> tuple[dict, dict]:
    rng = np.random.default_rng(seed)
    images = []
    for i in range(n_images):
        w, h = IMAGE_SIZES[i % len(IMAGE_SIZES)]
        images.append({"id": i + 1, "width": w, "height": h, "file_name": f"synthetic_{i + 1:03d}.png"})

    anns_a = []
    next_id = 1
    for image in images:
        for _ in range(int(rng.integers(3, 9))):
            ring = star_ring(rng, image["width"], image["height"])
            cat = int(rng.integers(1, len(CATEGORIES) + 1))
            anns_a.append(polygon_annotation(next_id, image, ring, cat))
            next_id += 1
        if rng.uniform() < 0.12:
            anns_a.append(crowd_annotation(rng, next_id, image))
            next_id += 1
        if rng.uniform() < 0.10:
            anns_a.append(two_ring_annotation(rng, next_id, image))
            next_id += 1

    by_image = {img["id"]: img for img in images}
    anns_b = []
    next_id = 10001
    for ann in anns_a:
        if ann["iscrowd"]:
            if rng.uniform() < 0.5:
                kept = dict(ann)
                kept["id"] = next_id
                anns_b.append(kept)
                next_id += 1
            continue
        if len(ann["segmentation"]) > 1:
            kept = dict(ann)
            kept["id"] = next_id
            anns_b.append(kept)
            next_id += 1
            continue
        moved = jittered(rng, ann, by_image[ann["image_id"]])
        if moved is not None:
            moved["id"] = next_id
            anns_b.append(moved)
            next_id += 1
    for image in images:
        if rng.uniform() < 0.08:
            ring = star_ring(rng, image["width"], image["height"])
            cat = int(rng.integers(1, len(CATEGORIES) + 1))
            anns_b.append(polygon_annotation(next_id, image, ring, cat))
            next_id += 1

    def dataset(anns):
        return {
            "info": {"description": f"synthetic pair, seed {seed}"},
            "images": images,
            "annotations": anns,
            "categories": CATEGORIES,
        }

    return dataset(anns_a), dataset(anns_b)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20240614)
    parser.add_argument("--images", type=int, default=50)
    parser.add_argument("--out-dir", default="tests/fixtures")
    args = parser.parse_args()
    a, b = build_pair(args.seed, args.images)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in (("synthetic_a.json", a), ("synthetic_b.json", b)):
        path = out / name
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
        n = len(data["annotations"])
        print(f"{path}: {len(data['images'])} images, {n} annotations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
