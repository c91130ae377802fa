from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"

# Acceptance-criterion outcomes, printed as one line each in the terminal
# summary by pytest_terminal_summary below.
ACCEPTANCE_RESULTS: list[tuple[str, str, str]] = []


def record_acceptance(name: str, status: str, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, status, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status, detail in ACCEPTANCE_RESULTS:
        line = f"{status:4s}  {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# shared builders


def rect_ring(x, y, w, h):
    return [x, y, x + w, y, x + w, y + h, x, y + h]


def pair_table(d_avg, d_max=None, measured=None):
    """A ``PairTable`` of one placeholder pair per value, with ``d_max``
    equal to ``d_avg`` unless given, and every pair measured unless
    ``measured`` says otherwise."""
    from annodiff.matching import MatchPair
    from annodiff.surface import PairTable

    d_avg = np.asarray(d_avg, dtype=np.float64)
    d_max = d_avg if d_max is None else np.asarray(d_max, dtype=np.float64)
    n = d_avg.size
    measured = np.ones(n, dtype=bool) if measured is None else np.asarray(measured, dtype=bool)
    lengths = np.full(n, 10, dtype=np.int64)
    return PairTable([MatchPair(1, 1, 1, 1, 1.0)] * n, d_avg, d_max, lengths, lengths, measured)


def tables_equal(a, b) -> bool:
    """Whether two ``PairTable``s hold the same pairs and equal columns of
    the same dtypes; a table of arrays has no usable ``==``."""
    return a.pairs == b.pairs and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))


def make_coco(images, annotations, categories=None) -> str:
    if categories is None:
        cat_ids = sorted({a["category_id"] for a in annotations} | {1})
        categories = [{"id": c, "name": f"cat{c}", "supercategory": "x"} for c in cat_ids]
    return json.dumps({"images": images, "annotations": annotations, "categories": categories})


def tiny_docs() -> list[dict]:
    """Both sides of the tiny fixture pair, as ``json.loads`` gives them."""
    return [json.loads((FIXTURES / f"tiny_pair_{side}.json").read_text()) for side in "ab"]


def write_pair(docs: list[dict], directory: Path) -> list[str]:
    """Write the two documents ``docs`` to ``a.json`` and ``b.json`` in
    ``directory``; returns their paths."""
    paths = [directory / "a.json", directory / "b.json"]
    for doc, path in zip(docs, paths):
        path.write_text(json.dumps(doc))
    return list(map(str, paths))


def make_images(n, width=100, height=100):
    return [
        {"id": i + 1, "width": width, "height": height, "file_name": f"img_{i + 1}.png"}
        for i in range(n)
    ]


def make_ann(ann_id, image_id, ring_or_rings, category_id=1, iscrowd=0, area=None, bbox=None):
    if iscrowd:
        seg = ring_or_rings  # RLE dict passed through
    elif isinstance(ring_or_rings[0], (list, tuple)):
        seg = [list(r) for r in ring_or_rings]
    else:
        seg = [list(ring_or_rings)]
    if bbox is None:
        if iscrowd:
            raise ValueError("crowd annotations need an explicit bbox")
        xs = [v for ring in seg for v in ring[0::2]]
        ys = [v for ring in seg for v in ring[1::2]]
        bbox = [min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys)]
    if area is None:
        area = float(bbox[2] * bbox[3])
    return {
        "id": ann_id,
        "image_id": image_id,
        "category_id": category_id,
        "segmentation": seg,
        "bbox": [float(v) for v in bbox],
        "area": float(area),
        "iscrowd": iscrowd,
    }


def random_simple_rings(rng, n_rings=1, max_vertices=12, width=64, height=64):
    """Star-shaped (hence simple) polygons with angle-sorted vertices."""
    rings = []
    for _ in range(n_rings):
        k = int(rng.integers(3, max_vertices + 1))
        r_hi = float(rng.uniform(4.0, min(width, height) / 2.0 - 2.0))
        cx = float(rng.uniform(r_hi + 1.0, width - r_hi - 1.0))
        cy = float(rng.uniform(r_hi + 1.0, height - r_hi - 1.0))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=k))
        radii = rng.uniform(0.3 * r_hi, r_hi, size=k)
        ring = []
        # plain floats, the raw ring form the rasterizer takes
        for a, r in zip(angles, radii):
            ring.append(float(round(cx + r * math.cos(a), 2)))
            ring.append(float(round(cy + r * math.sin(a), 2)))
        rings.append(ring)
    return rings


def random_mask(rng, height, width, p=None) -> np.ndarray:
    if p is None:
        p = float(rng.uniform(0.02, 0.6))
    mask = rng.random((height, width)) < p
    if not mask.any():
        mask[int(rng.integers(height)), int(rng.integers(width))] = True
    return mask


@pytest.fixture(scope="session")
def tiny_a():
    from annodiff import load_dataset

    return load_dataset(FIXTURES / "tiny_pair_a.json")


@pytest.fixture(scope="session")
def tiny_b():
    from annodiff import load_dataset

    return load_dataset(FIXTURES / "tiny_pair_b.json")


@pytest.fixture(scope="session")
def synthetic_a():
    from annodiff import load_dataset

    return load_dataset(FIXTURES / "synthetic_a.json")


@pytest.fixture(scope="session")
def synthetic_b():
    from annodiff import load_dataset

    return load_dataset(FIXTURES / "synthetic_b.json")
