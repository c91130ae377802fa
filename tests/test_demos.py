"""Each demo script, and README's library tour, runs to completion against
the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def library_tour() -> str:
    """README's first Python block, reading the tiny fixture pair."""
    code = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    assert '"a.json"' in code and '"b.json"' in code
    return code.replace('"a.json"', '"tests/fixtures/tiny_pair_a.json"').replace(
        '"b.json"', '"tests/fixtures/tiny_pair_b.json"'
    )


@pytest.mark.parametrize(
    "args",
    [[str(d)] for d in DEMOS] + [["-c", library_tour()]],
    ids=[d.name for d in DEMOS] + ["README_library_tour"],
)
def test_demo_runs(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
