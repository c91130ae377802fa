"""Metamorphic relations over the whole report: a transformed input must
give the original report, transformed as the relation says.

A digest checks one fixture; a relation checks any input. Each relation
runs on the bundled synthetic pair and on one seeded generated pair, in box
and in mask mode, with both eval tasks (``diff --eval both``).
"""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from annodiff.dataset import parse_dataset
from annodiff.matching import pairs_to_ndjson
from annodiff.report import AuditConfig, canonical_report_bytes, run_audit

from conftest import FIXTURES

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "make_synthetic_pair.py"


def generated_pair(seed: int, n_images: int) -> tuple[dict, dict]:
    spec = importlib.util.spec_from_file_location("make_synthetic_pair", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_pair(seed, n_images)


@pytest.fixture(scope="module", params=["bundled", "seed_7"])
def pair(request) -> tuple[dict, dict]:
    if request.param == "bundled":
        return tuple(json.loads((FIXTURES / name).read_text()) for name in ("synthetic_a.json", "synthetic_b.json"))
    return generated_pair(7, 50)


@pytest.fixture(params=["box", "mask"])
def mode(request) -> str:
    return request.param


def audit(source: dict, target: dict, mode: str) -> tuple[bytes, str]:
    """The canonical report bytes and the pairs NDJSON of ``diff --eval both``."""
    config = AuditConfig(iou_mode=mode, eval_tasks=("bbox", "segm"))
    outcome = run_audit(parse_dataset(json.dumps(source)), parse_dataset(json.dumps(target)), config)
    return canonical_report_bytes(outcome.report), pairs_to_ndjson(outcome.match_set)


def swapped(report: dict) -> dict:
    """What the report of the swapped pair must read: the surface section,
    the pair count and the consistency block as they are; the per-side
    counts, summaries and eval directions exchanged; every numeric field
    of the delta negated, and the categories where the target is greater
    are those where it was smaller."""
    r = copy.deepcopy(report)
    m = r["matching"]
    for a, b in (("unmatched_source", "unmatched_target"), ("ineligible_source", "ineligible_target")):
        m[a], m[b] = m[b], m[a]
    r["summaries"] = {"source": r["summaries"]["target"], "target": r["summaries"]["source"]}
    d = r["delta"]
    d["categories_where_target_greater"] = sum(v < 0 for v in d["per_category"].values())
    for key in ("per_category", "size_buckets"):
        d[key] = {k: -v for k, v in d[key].items()}
    for key in ("image_delta", "instance_delta", "crowd_delta", "vertex_delta"):
        d[key] = -d[key]
    r["eval"] = {task: {"a_vs_b": sides["b_vs_a"], "b_vs_a": sides["a_vs_b"]} for task, sides in r["eval"].items()}
    return r


def test_swapping_source_and_target_swaps_the_sides_of_the_report(pair, mode):
    source, target = pair
    report = json.loads(audit(source, target, mode)[0])
    assert report["matching"]["pair_count"] > 0 and report["surface"]["d_avg"]["included"] > 0
    back = json.loads(audit(target, source, mode)[0])
    assert back["surface"] == report["surface"]
    assert back == swapped(report)


def test_shuffling_every_record_list_changes_no_output(pair, mode):
    rng = np.random.default_rng(11)
    shuffled = []
    for doc in pair:
        doc = dict(doc)
        for key in ("images", "annotations", "categories"):
            doc[key] = [doc[key][k] for k in rng.permutation(len(doc[key]))]
        shuffled.append(doc)
    assert shuffled[0]["annotations"] != pair[0]["annotations"]
    assert audit(*shuffled, mode) == audit(*pair, mode)


def renumber(x: int) -> int:
    """An order-preserving id map."""
    return 3 * x + 7


def test_renumbering_every_id_in_order_maps_only_the_ids(pair, mode):
    docs = [copy.deepcopy(doc) for doc in pair]  # the sides may share records
    for doc in docs:
        for record in doc["images"] + doc["categories"]:
            record["id"] = renumber(record["id"])
        for ann in doc["annotations"]:
            for key in ("id", "image_id", "category_id"):
                ann[key] = renumber(ann[key])
    report, ndjson = audit(*pair, mode)
    moved, moved_ndjson = audit(*docs, mode)
    # every per_category section is keyed by category id
    r = json.loads(report)
    sections = [r["summaries"]["source"], r["summaries"]["target"], r["delta"]]
    sections += [res for sides in r["eval"].values() for res in sides.values()]
    for section in sections:
        section["per_category"] = {str(renumber(int(k))): v for k, v in section["per_category"].items()}
    assert json.loads(moved) == r
    rows = [json.loads(line) for line in ndjson.splitlines()]
    for row in rows:
        for key in ("image_id", "source_id", "target_id", "category_id"):
            row[key] = renumber(row[key])
    assert [json.loads(line) for line in moved_ndjson.splitlines()] == rows


def test_an_image_without_annotations_adds_only_to_the_image_counts(pair, mode):
    docs = [copy.deepcopy(doc) for doc in pair]  # the sides may share records
    new_id = 1 + max(img["id"] for doc in docs for img in doc["images"])
    for doc in docs:
        doc["images"].append({**doc["images"][0], "id": new_id, "file_name": "empty.png"})
    report, ndjson = audit(*pair, mode)
    grown, grown_ndjson = audit(*docs, mode)
    r = json.loads(report)
    for side in ("source", "target"):
        r["summaries"][side]["image_count"] += 1
    assert json.loads(grown) == r
    assert grown_ndjson == ndjson
