"""The synthetic-pair generator reproduces the committed fixtures."""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import FIXTURES

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "make_synthetic_pair.py"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("make_synthetic_pair", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_seed_reproduces_the_fixtures_byte_for_byte(generator):
    # the fixtures were written by ``main`` with its defaults: seed 20240614,
    # 50 images, compact JSON and a trailing newline
    pair = generator.build_pair(20240614, 50)
    for name, data in zip(("synthetic_a.json", "synthetic_b.json"), pair):
        written = json.dumps(data, separators=(",", ":")) + "\n"
        assert written.encode("utf-8") == (FIXTURES / name).read_bytes(), name


def _containers(node):
    """Every list and dict in ``node``, ``node`` included."""
    if isinstance(node, (list, dict)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


def test_each_side_owns_its_documents(generator):
    a, b = generator.build_pair(7, 20)
    shared = {id(c) for c in _containers(a)} & {id(c) for c in _containers(b)}
    assert not shared
    assert not {id(c) for c in _containers(generator.CATEGORIES)} & {id(c) for c in _containers([a, b])}
    width = b["images"][0]["width"]
    a["images"][0]["width"] += 1
    assert b["images"][0]["width"] == width
