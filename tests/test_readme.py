"""The README's examples run as written."""

import dataclasses
import re
import subprocess
import sys
import types
from pathlib import Path

import yaml

import fairpace
from fairpace.dynamics import VARIANTS, variant_from_dict
from fairpace.harness import parse_variant
from fairpace.inputs import MODELS, FiniteDistribution
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


def test_readme_model_list_names_each_model_and_the_keys_it_reads():
    listed = dict(re.findall(r"^- `(\w+) \{([^}]*)\}`", _section("## Experiment config (YAML)"), re.M))
    assert sorted(listed) == sorted(MODELS)
    for kind, keys in listed.items():
        # iid's config keys are its distribution's
        reader = FiniteDistribution if kind == "iid" else MODELS[kind]
        assert sorted(k.strip() for k in keys.split(",")) == sorted(f.name for f in dataclasses.fields(reader)), kind


def test_readme_api_list_is_what_the_package_exports():
    bullets = re.findall(r"^- `fairpace\.\w+`: (.*(?:\n  .*)*)", _section("## Public API"), re.M)
    listed = re.findall(r"`(\w+)`", " ".join(bullets))
    exported = [name for name, obj in vars(fairpace).items() if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
    assert sorted(listed) == sorted(exported)
