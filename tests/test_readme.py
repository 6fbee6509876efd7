"""The README's examples run as written."""

import re
import subprocess
import sys
from pathlib import Path

import yaml

from fairpace.dynamics import VARIANTS, variant_from_dict
from fairpace.harness import parse_variant
from fairpace.model import AgentWeights

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(heading):
    """The README text from ``heading`` to the next heading of level two or more."""
    start = README.index(f"\n{heading}\n") + 1
    end = re.compile(r"^#{2,} ", re.M).search(README, start + 1)
    return README[start : end.start() if end else None]


def test_readme_quick_start_runs():
    code = re.search(r"```python\n(.*?)```", _section("## Library quick start"), re.S).group(1)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_readme_variant_examples_parse_in_both_forms():
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in _section("### Variant syntax").splitlines()
        if line.startswith("| `")
    ]
    weights = AgentWeights.equal(2)
    for kind, _, text, mapping in rows:
        assert parse_variant(text, weights).name == kind
        assert variant_from_dict(yaml.safe_load(mapping), weights).name == kind
    assert sorted(row[0] for row in rows) == sorted(VARIANTS)
