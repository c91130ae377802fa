"""Seeded fuzz run over the commands (ROADMAP item 21).

Each copy of the tiny fixture pair gets one to three mutations: a field, or
an item of a list, set to a value of the wrong type or an extreme value, or
deleted. Every copy goes through five commands. Whatever the input, a
command exits 0, 2 or 3 and raises nothing, and an exit 2 prints exactly one
``error: `` line and nothing else.
"""

import copy
import json
import math
import random
import time

from annodiff.cli import EXIT_EMPTY, EXIT_INPUT, EXIT_OK, main

from conftest import FIXTURES

SEED = 20261021
COPIES = 250
BUDGET_S = 5.0

WRONG_TYPES = (None, True, "7", [], {}, [1, 2], {"counts": [1]}, 1.5)
EXTREMES = (0, -1, -0.5, 2**31, 2**53 + 1, 10**400, 1e308, -1e308, math.inf, -math.inf, math.nan)

COMMANDS = (
    ("diff", "--iou-mode", "box", "--eval", "both"),
    ("diff", "--iou-mode", "mask", "--eval", "both"),
    ("stats", "--recompute-areas"),
    ("eval", "--task", "both"),
    ("match", "--iou-mode", "mask"),
)


def _slots(node):
    """Every (container, key) below ``node``: each field of each object and
    each item of each list."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


def mutate(doc: dict, rng: random.Random) -> str:
    """Change one slot of ``doc`` in place; returns what was done."""
    node, key = rng.choice(list(_slots(doc)))
    kind = rng.choice(("wrong type", "extreme", "delete"))
    if kind == "delete":
        del node[key]
        return f"del {key!r}"
    node[key] = rng.choice(WRONG_TYPES if kind == "wrong type" else EXTREMES)
    return f"{key!r} = {node[key]!r}"


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    pristine = [json.loads((FIXTURES / f"tiny_pair_{side}.json").read_text()) for side in "ab"]
    rng = random.Random(SEED)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    out = str(tmp_path / "out")
    codes = {EXIT_OK: 0, EXIT_INPUT: 0, EXIT_EMPTY: 0}
    started = time.perf_counter()
    for n in range(COPIES):
        docs = copy.deepcopy(pristine)
        done = []
        for _ in range(rng.randint(1, 3)):
            side = rng.randrange(2)
            done.append(f"{'ab'[side]}: {mutate(docs[side], rng)}")
        for path, doc in zip(paths, docs):
            path.write_text(json.dumps(doc))
        for command, *flags in COMMANDS:
            inputs = [str(paths[0])] if command == "stats" else list(map(str, paths))
            argv = [command, *inputs, *flags, "--out", out]
            where = f"copy {n} ({'; '.join(done)}), {' '.join([command, *flags])}"
            code = main(argv)
            err = capsys.readouterr().err
            assert code in codes, where
            codes[code] += 1
            if code == EXIT_INPUT:
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (where, err)
            else:
                assert err == "", (where, err)
    elapsed = time.perf_counter() - started
    assert codes[EXIT_INPUT] and codes[EXIT_OK], codes
    assert elapsed <= BUDGET_S, f"{COPIES} copies took {elapsed:.2f} s"
