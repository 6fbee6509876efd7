"""``model.record``: every record of the package shares one set of methods,
which behave as the ones ``dataclass(frozen=True)`` compiles."""

import copy
import dataclasses
import inspect
import itertools
import pickle
import subprocess
import sys
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpace import dynamics, eg, harness, inputs, metrics, model
from fairpace.dynamics import Unconstrained, new_state, run
from fairpace.harness import ExperimentConfig
from fairpace.inputs import Corrupted, Periodic
from fairpace.model import AgentWeights, ValueSequence, record

MODULES = (model, dynamics, eg, harness, inputs, metrics)
RECORDS = [
    cls
    for module in MODULES
    for cls in vars(module).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
]
SHARED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def test_every_record_shares_one_set_of_methods_and_compiles_none():
    assert len(RECORDS) == 29
    shared = [getattr(AgentWeights, name) for name in SHARED]
    for cls in RECORDS:
        own = {"__eq__": vars(ValueSequence)["__eq__"]} if cls is ValueSequence else {}  # compares rounds
        assert [getattr(cls, name) for name in SHARED] == [own.get(name, fn) for name, fn in zip(SHARED, shared)], cls
        for fn in shared + [fn for fn in vars(cls).values() if inspect.isfunction(fn)]:
            assert fn.__code__.co_filename != "<string>", (cls, fn)


def test_every_record_has_the_signature_dataclass_gives_it():
    for cls in RECORDS:
        fs = dataclasses.fields(cls)
        twin = dataclasses.make_dataclass(cls.__name__, [
            (f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory)) for f in fs
        ], frozen=True)
        assert inspect.signature(cls) == inspect.signature(twin), cls
    assert str(inspect.signature(Corrupted)) == (
        "(base: 'FiniteDistribution', corruptions: 'Mapping[int, FiniteDistribution]' = <factory>,"
        " max_delta: 'Optional[float]' = None) -> None"
    )
    assert Unconstrained.__doc__ == "Unconstrained()"


def test_importing_the_program_compiles_only_module_bodies():
    code = (
        "import sys, argparse, numpy, tokenize\n"
        "codes = []\n"
        "sys.addaudithook(lambda event, args: codes.append(args[0]) if event == 'exec' else None)\n"
        "import fairpace.cli\n"
        "print(len(codes), tokenize._compile.cache_info().misses,"
        " sorted({(c.co_name, c.co_filename.endswith('.py')) for c in codes}))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    count, misses, kinds = r.stdout.split(" ", 2)
    assert kinds.strip() == "[('<module>', True)]"
    assert int(count) >= 9  # fairpace's own modules at least
    # a record without a docstring gets dataclass's doc without inspect.signature,
    # whose parse of object's text signature compiles tokenize's pattern
    assert misses == "0"


def test_value_sequences_compare_by_their_rounds():
    one = ValueSequence([[1.0, 0.5]])
    assert ValueSequence([[1.0, 0.5]], index=[0]) == one
    assert ValueSequence([[1.0, 0.5], [2.0, 2.0]], index=[0]) == one  # a point no round draws
    assert ValueSequence([[0.0, 1.0], [1.0, 0.5]], index=[1, 0, 1]) == ValueSequence([[1.0, 0.5], [0.0, 1.0], [1.0, 0.5]])
    assert ValueSequence([[1.0, 0.5]], agents=("x", "y")) != one
    assert ValueSequence([[1.0, 0.5], [0.0, 1.0]], index=[0, 1]) != ValueSequence([[1.0, 0.5], [0.0, 1.0]], index=[0, 0])
    assert one != ValueSequence([[1.0, 0.5, 0.0]]) and one.__eq__(AgentWeights([1.0, 0.5])) is NotImplemented
    # past one block of rows, a difference in the last round is found
    long = np.tile([[1.0, 0.5], [0.5, 1.0]], (1500, 1))
    points = ValueSequence([[1.0, 0.5], [0.5, 1.0]], index=np.tile([0, 1], 1500))
    assert points == ValueSequence(long)
    changed = long.copy()
    changed[-1, 0] = 0.25
    assert points != ValueSequence(changed)


def test_records_holding_arrays_compare_by_value_and_stay_unhashable():
    vs = ValueSequence([[1.0, 0.5], [0.2, 1.0]])
    w = AgentWeights([1.0, 2.0])
    pairs = [
        (AgentWeights([1.0, 2.0]), w),
        (ValueSequence([[1.0, 0.5], [0.2, 1.0]]), vs),
        (new_state(Unconstrained(), w), new_state(Unconstrained(), AgentWeights([1.0, 2.0]))),
        (run(vs, w, Unconstrained()), run(ValueSequence(vs.matrix.copy()), w, Unconstrained())),
        (ExperimentConfig(w, (Unconstrained(),), "out", csv_path="a.csv"),
         ExperimentConfig(AgentWeights([1.0, 2.0]), (Unconstrained(),), "out", csv_path="a.csv")),
        (Periodic(([[1.0, 0.5]], [[0.2, 1.0]])), Periodic(([[1.0, 0.5]], [[0.2, 1.0]]))),
    ]
    for a, b in pairs:
        assert a == b and not a != b
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    assert AgentWeights([1.0, 2.0]) != AgentWeights([1.0, 3.0])
    assert AgentWeights([1.0, 2.0]) != AgentWeights([1.0, 2.0, 3.0])
    assert ValueSequence([[1.0, 0.5]], index=[0, 0]) != ValueSequence([[1.0, 0.5]], index=[0])
    assert Periodic(([[1.0, 0.5]],)) != Periodic(([[1.0, 0.5]], [[1.0, 0.5]]))


@pytest.mark.parametrize("field", [
    dataclasses.field(default=1, init=False),
    dataclasses.field(default=1, repr=False),
    dataclasses.field(default=1, compare=False),
    dataclasses.field(default=1, hash=True),
    dataclasses.field(default=1, kw_only=True),
])
def test_a_field_option_the_shared_methods_lack_is_refused(field):
    with pytest.raises(TypeError, match="a record's fields take only a default or a default_factory"):
        record(type("Rec", (), {"__annotations__": {"x": "int"}, "x": field}))


def test_an_init_only_field_is_refused():
    with pytest.raises(TypeError, match="a record's fields take only"):
        record(type("Rec", (), {"__annotations__": {"x": dataclasses.InitVar[int]}}))


# A generated class: each field is required, or has a default, or a
# default_factory (required ones first, as dataclass demands); some classes
# have a __post_init__ that rewrites their first field.
_FACTORIES = [list, dict, tuple, int]
_VALUES = st.one_of(st.integers(-3, 3), st.text(max_size=2), st.none(), st.lists(st.integers(0, 2), max_size=2),
                    st.tuples(st.integers(0, 2)))


@st.composite
def _classes(draw):
    k = draw(st.integers(0, 5))
    required = draw(st.integers(0, k))
    kinds = ["required"] * required + draw(st.lists(st.sampled_from(["default", "factory"]), min_size=k - required,
                                                    max_size=k - required))
    fields = []
    for i, kind in enumerate(kinds):
        value = None
        if kind == "default":
            value = draw(st.one_of(st.integers(-3, 3), st.text(max_size=2), st.none(), st.tuples(st.integers(0, 2))))
        elif kind == "factory":
            value = draw(st.sampled_from(_FACTORIES))
        fields.append((f"f{i}", kind, value))
    return fields, draw(st.booleans())


def _build(decorator, module, fields, post_init):
    ns = {"__annotations__": {name: "int" for name, _, _ in fields}, "__module__": module.__name__}
    for name, kind, value in fields:
        if kind == "default":
            ns[name] = value
        elif kind == "factory":
            ns[name] = dataclasses.field(default_factory=value)
    if post_init and fields:
        def __post_init__(self):
            object.__setattr__(self, fields[0][0], ("post", getattr(self, fields[0][0])))
        ns["__post_init__"] = __post_init__
    cls = decorator(type("Rec", (), ns))
    module.Rec = cls
    return cls


def _outcome(thunk):
    try:
        return "ok", thunk()
    except Exception as exc:  # the type, not the message, must match
        return type(exc), None


@settings(max_examples=150, deadline=None)
@given(_classes(), st.data())
def test_a_record_behaves_as_a_frozen_dataclass(spec, data):
    fields, post_init = spec
    names = [name for name, _, _ in fields]
    homes = {kind: types.ModuleType(f"record_home_{kind}") for kind in ("record", "dataclass")}
    with mock.patch.dict(sys.modules, {m.__name__: m for m in homes.values()}):
        ours = _build(record, homes["record"], fields, post_init)
        theirs = _build(dataclasses.dataclass(frozen=True), homes["dataclass"], fields, post_init)
        assert inspect.signature(ours) == inspect.signature(theirs)
        assert ours.__doc__ == theirs.__doc__ and ours.__match_args__ == theirs.__match_args__
        assert [(f.name, f.type, f.default, f.default_factory) for f in dataclasses.fields(ours)] == [
            (f.name, f.type, f.default, f.default_factory) for f in dataclasses.fields(theirs)]
        calls = []
        for _ in range(2):
            args = data.draw(st.lists(_VALUES, max_size=6))
            kwargs = data.draw(st.dictionaries(st.sampled_from(names + ["zz"]), _VALUES, max_size=3))
            calls.append((args, kwargs))
        built = []
        for args, kwargs in calls:
            a, b = _outcome(lambda: ours(*args, **kwargs)), _outcome(lambda: theirs(*args, **kwargs))
            assert a[0] == b[0]
            assert a[0] in ("ok", TypeError)
            if a[0] == "ok":
                built.append((a[1], b[1]))
        for a, b in built:
            assert [getattr(a, n) for n in names] == [getattr(b, n) for n in names]
            assert repr(a) == repr(b)
            assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(b))
            for obj, name in itertools.product((a, b), names + ["zz"]):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, 1)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(obj, name)
            for twin_a, twin_b in (
                (copy.deepcopy(a), copy.deepcopy(b)),
                (pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(b))),
            ):
                assert type(twin_a) is ours and repr(twin_a) == repr(b) and twin_a == a
                assert type(twin_b) is theirs and twin_b == b
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
            for name in names:
                assert repr(dataclasses.replace(a, **{name: 7})) == repr(dataclasses.replace(b, **{name: 7}))
        for x, y in ((p, q) for p in built for q in built):
            assert (x[0] == y[0]) == (x[1] == y[1]) and (x[0] != y[0]) == (x[1] != y[1])
            assert x[0] != y[1] and x[1] != y[0]
