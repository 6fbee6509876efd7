"""``fairpace.yamlread``, the config reader, against PyYAML's loader.

The reference is ``oracles.YamlLoader``, the loader fairpace's configs were
read with before: PyYAML's safe loader plus YAML 1.2's float pattern.  On a
document the reader accepts it must return what the reference returns, with
the same types; it may refuse only what the reference refuses, a plain
scalar that YAML 1.1 and 1.2 read differently, or a key given twice
(``oracles.yaml_refusal``), and it refuses in one line naming the line.
"""

import ast
import importlib
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import YamlLoader, same_yaml, yaml_refusal
from test_harness import ci_configs

from fairpace.yamlread import loads

ROOT = Path(__file__).resolve().parents[1]
_REFUSED = object()


def _agrees(text):
    """Assert that the reader reads ``text`` as the reference does, or refuses
    it in one line where it may; True when it read it."""
    try:
        expected = yaml.load(text, Loader=YamlLoader)
    except Exception:  # a YAML error, or a value 1.1 cannot construct (a date out of range)
        expected = _REFUSED
    reason = None if expected is _REFUSED else yaml_refusal(text)
    try:
        got = loads(text)
    except ValueError as exc:
        assert re.fullmatch(r"[^\n]+ \(line [0-9]+\)", str(exc)), str(exc)
        assert expected is _REFUSED or reason is not None, (text, str(exc))
        return False
    assert expected is not _REFUSED and reason is None, (text, got, reason)
    assert same_yaml(got, expected), (text, got, expected)
    return True


# every number form of the exponent-form test and the forms around them
_NUMBERS = ["1e-9", "2e2", "1e-2", "1e-3", "1e-1", "2e0", "1e0", "3E-1", "5e-1", "1e1", "1e2", "1e3", "2e-1", "2e5",
            "1.0e-9", "1.0e-6", "0.01", "0.001", "1.0", "0.2", "-0.0", "0", "-0", "+3", "200", "10" * 12, ".5", "-.5",
            "1.", "1.5E+3", ".inf", "-.inf", "+.Inf", ".INF", ".nan", ".NaN", "0x1F", "00", "07"]
# plain words, those YAML 1.1 reads otherwise among them
_WORDS = ["true", "false", "True", "FALSE", "null", "~", "Null", "pace", "pow2", "a b", "x#y", "a:b", "-x", "y", "n",
          "017", "08", "-012", "1:30", "1_000", "0b11", "-0x1F", "0o17", "yes", "No", "on", "OFF", "2024-01-01", "+.nan"]
_KEYS = ["a", "b", "t", "seed", "3", "17", "1", "1.0", "true", "'1'", '"b"', "~", "x y", "0x1F", "-2", "yes", "017"]


_SCALARS = st.one_of(
    st.sampled_from(_NUMBERS + _WORDS),
    st.text("abe019._+-xEo", min_size=1, max_size=5).filter(lambda s: s != "-" and not s.startswith(("---", "..."))),
    st.text("ab #:,'\"\\é\t[]", max_size=4).map(lambda s: "'" + s.replace("'", "''") + "'"),
    st.text("ab #:,'\"\\é\t\n", max_size=4).map(
        lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("é", "\\u00e9") + '"'),
)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.tuples(st.just("seq"), st.lists(inner, max_size=4)),
                            st.tuples(st.just("map"), st.lists(st.tuples(st.sampled_from(_KEYS), inner), max_size=4))),
    max_leaves=12,
)


@st.composite
def _documents(draw):
    """A config-shaped document: nested block and flow collections, their
    scalars plain or quoted, with comments and blank lines."""

    def flow(node, k):
        if isinstance(node, str):
            return node
        kind, items = node
        sep = draw(st.sampled_from([", ", ",", " , ", ",\n" + " " * (k + 2), ", # c\n" + " " * (k + 1)]))
        if kind == "seq":
            body = sep.join(flow(x, k) for x in items)
        else:
            body = sep.join(f"{key}: {'' if draw(st.integers(0, 5)) == 0 else flow(v, k)}" for key, v in items)
        trailing = "," if items and draw(st.booleans()) else ""
        return ("[%s%s]" if kind == "seq" else "{%s%s}") % (body, trailing)

    def block(node, k):
        """Lines at indent ``k``; an empty collection, or a drawn one, in flow style."""
        if isinstance(node, str) or not node[1] or draw(st.integers(0, 3)) == 0:
            return None
        kind, items = node
        pad = " " * k
        out = ""
        for item in items:
            if kind == "seq":
                head, value, nested = pad + "-", item, k + 2
            else:  # a sequence may sit at its key's column
                head, value = pad + item[0] + ":", item[1]
                nested = k + draw(st.integers(0 if value[0] == "seq" else 1, 3))
            text = block(value, nested)
            if text is None:
                empty = kind == "map" and draw(st.integers(0, 6)) == 0
                out += head + ("" if empty else " " + flow(value, k)) + "\n"
            elif kind == "seq" and draw(st.booleans()):  # `- key: value` and `- - item`
                out += pad + "- " + text[k + 2:]
            else:
                out += head + "\n" + text
        return out

    tree = draw(st.tuples(st.just("map"), st.lists(st.tuples(st.sampled_from(_KEYS), _TREES), min_size=1, max_size=5)))
    text = block(tree, 0) or flow(tree, 0) + "\n"
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):  # comments and blank lines, which may fall inside a flow collection
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and at < len(lines):
            lines[at] += " # note"
        else:
            lines.insert(at, draw(st.sampled_from(["", "# note", "  # note"])))
    return ("---\n" if draw(st.booleans()) else "") + "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_the_reader_returns_what_pyyaml_returns_or_refuses_where_it_may(text):
    _agrees(text)


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789_.:-+eExXobaf ", min_size=1, max_size=8))
def test_a_plain_scalar_is_read_as_pyyaml_reads_it_unless_yaml_1_1_reads_it_otherwise(scalar):
    _agrees(f"key: {scalar}\n")
    flow = f"key: [{scalar}]\n"
    try:
        pair = isinstance(yaml.load(flow, Loader=YamlLoader)["key"][0], dict)
    except Exception:
        pair = False
    if not pair:  # `[a: b]`, a one-pair mapping in a flow sequence, is not read
        _agrees(flow)


def _texts_in_tests():
    """Every string constant of the test modules that ends a line, as a file's
    text does, and that the reference reads as a mapping."""
    for path in [*sorted((ROOT / "tests").glob("*.py")), ROOT / "perfbench" / "test_perfbench.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.endswith("\n"):
                try:
                    if isinstance(yaml.load(node.value, Loader=YamlLoader), dict):
                        yield node.value
                except Exception:
                    pass


def test_every_yaml_text_of_the_repository_reads_as_pyyaml_reads_it(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    cells = re.findall(r"\| `(\{type: [^`]*\})` \|", readme)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    workload = [Path(build(1, str(tmp_path)).config_path).read_text() for build in workloads.WORKLOADS.values()]
    tests = list(_texts_in_tests())
    assert len(blocks) >= 1 and len(cells) == 6 and len(workload) == 3 and len(tests) > 100
    for text in [*blocks, *cells, *ci_configs().values(), *workload]:
        assert _agrees(text), text
    for text in tests:
        _agrees(text)  # the malformed-config rows among them are refused, each where it may be


@pytest.mark.parametrize("text, message", [
    ("a: 1\nb:\n  c: 2\n  c: 3\n", "duplicate key 'c' (line 4)"),
    ("a: {1: x, 1.0: y}\n", "duplicate key 1.0 (line 1)"),
    ("true: 1\n1: 2\n", "duplicate key 1 (line 2)"),
    ("a: [1,\n  017]\n", "YAML 1.1 and 1.2 read '017' differently; quote it or write it otherwise (line 2)"),
    ("a: *x\n", "aliases are not read (line 1)"),
    ("a: !!float 1\n", "tags are not read (line 1)"),
    ("a: |\n  text\n", "block scalars are not read (line 1)"),
    ("? a\n: b\n", "complex keys are not read (line 1)"),
    ("a: hello\n  world\n", "a scalar that spans lines (line 2)"),
    ("a: 'hello\n  world'\n", "a quoted scalar that is not closed on its line (line 1)"),
    ("a: 1\n---\nb: 2\n", "more than one document, or a document end marker (line 2)"),
    ("a: [1, 2\n", "expected ',' or ']' in a flow collection (line 2)"),
    ("a: [1, ,]\n", "expected a value, found ',' (line 1)"),
    ("[a]: 1\n", "a mapping key must be a scalar (line 1)"),
    ("a: \"\\q\"\n", "unknown escape '\\q' (line 1)"),
    ("a:\tb\n", "unexpected '\\t' (line 1)"),
    ("a: \x85\n", "special character '\\x85' (line 1)"),
])
def test_the_reader_refuses_in_one_line_that_names_the_line(text, message):
    with pytest.raises(ValueError) as exc:
        loads(text)
    assert str(exc.value).endswith(message)


def test_quoted_forms_and_yaml_1_2_numbers_are_read():
    got = loads("a: '017'\nb: \"yes\"\nc: '1:30'\nd: 1e-9\ne: -0.0\nf: .nan\n3: {x: 0x1F}\ng:\nh: [~, null, true]\n")
    assert got == {"a": "017", "b": "yes", "c": "1:30", "d": 1e-9, "e": 0.0, "f": got["f"], 3: {"x": 31}, "g": None,
                   "h": [None, None, True]}
    assert math.copysign(1.0, got["e"]) == -1.0 and math.isnan(got["f"])
    assert loads("") is None and loads("# nothing\n") is None and loads("--- # one\n- x\n") == ["x"]
