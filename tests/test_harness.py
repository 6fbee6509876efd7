"""Experiment harness and CLI: schemas, determinism, exit codes."""

import copy
import csv
import json
import math
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from test_eg import EIGHT_POINT_SUPPORT
from tracing import traced_peak

from fairpace.harness import (
    ExperimentConfig,
    model_from_dict,
    parse_checkpoints,
    parse_variant,
    plot_trajectories,
    read_number,
    read_schedule,
    run_experiment,
)
from fairpace.dynamics import Constrained, Seeded, Unconstrained
from fairpace.inputs import IID, FiniteDistribution, InputModelSpec, adv_cr_killer, gen
from fairpace.model import AgentWeights, InstanceError, load_csv, save_csv

CLI = [sys.executable, "-m", "fairpace.cli"]


def _write_config(path, body):
    path.write_text(body)
    return str(path)


def test_parse_variant_forms():
    assert parse_variant("pace") == Unconstrained()
    assert parse_variant("seeded,seed_utility=0.5") == Seeded(0.5)
    v = parse_variant("constrained,slack=1.0", AgentWeights([1.0, 2.0]))
    assert v.upper == (2.0, 4.0)
    with pytest.raises(InstanceError):
        parse_variant("nosuch")
    with pytest.raises(InstanceError, match="unknown variant type 'PACE'"):
        parse_variant("PACE")  # as the mapping form {type: PACE} is refused
    with pytest.raises(InstanceError):
        parse_variant("seeded,oops")
    with pytest.raises(InstanceError, match="seed_utility"):
        parse_variant("seeded")
    with pytest.raises(InstanceError, match="bounds or a slack"):
        parse_variant("constrained")
    with pytest.raises(InstanceError, match="repeated variant parameter 'seed_utility'"):
        parse_variant("seeded,seed_utility=0.5,seed_utility=2")


def test_read_number_refuses_what_the_config_reader_leaves_text():
    assert read_number(" 1e-3 ") == 1e-3 and read_number("inf") == math.inf
    for text in ("1_0", "0.5_0", "1e1_0", "abc", ""):
        with pytest.raises(ValueError):
            read_number(text)
    # float() reads 1_0 as 10
    with pytest.raises(InstanceError, match=r"malformed checkpoint schedule '1_0,20'"):
        read_schedule("1_0,20")
    assert read_schedule("10,20") == (10, 20)


def test_parse_checkpoints():
    assert parse_checkpoints("pow2", 10) == (1, 2, 4, 8, 10)
    assert parse_checkpoints("3,1,99", 10) == (1, 3, 10)
    assert parse_checkpoints([5, 5, 2], 8) == (2, 5, 8)
    with pytest.raises(InstanceError):
        parse_checkpoints("a,b", 10)


_CONFIG = {"instance": {"csv": "inst.csv"}, "weights": {"equal": 2}, "variants": ["pace"]}


# each value a config refuses, by field: the constructor and replace refuse
# it with the config's line; a field of None has no config form
@pytest.mark.parametrize(
    "field, key, value, message",
    [
        ("normalize", ("instance", "normalize"), "no", "config 'normalize' must be true or false, not 'no'"),
        ("save_instances", ("save_instances",), "no", "config 'save_instances' must be true or false, not 'no'"),
        ("repetitions", ("repetitions",), True, "config 'repetitions' must be a number with an integer value, not True"),
        ("repetitions", ("repetitions",), 2.7, "config 'repetitions' must be a number with an integer value, not 2.7"),
        ("repetitions", ("repetitions",), 0, "repetitions must be at least 1"),
        ("tolerance", ("tolerance",), True, "config 'tolerance' must be a number, not True"),
        ("tolerance", ("tolerance",), float("nan"), "tolerance must be positive and finite, not nan"),
        ("checkpoints", ("checkpoints",), [1.5, 3], "malformed checkpoint schedule [1.5, 3]"),
        ("checkpoints", ("checkpoints",), [], "empty checkpoint schedule"),
        ("checkpoints", ("checkpoints",), [0], "checkpoints must be positive"),
        ("output_dir", ("output_dir",), 3, "config 'output_dir' must be a path, not 3"),
        ("weights", None, [1.0, 1.0], "config 'weights' must be agent weights, not [1.0, 1.0]"),
        ("variants", None, (), "need at least one variant"),
        ("model_spec", None, {"type": "iid"}, "config 'instance.model' must be a model spec, not {'type': 'iid'}"),
    ],
    ids=["normalize-text", "save-instances-text", "repetitions-bool", "repetitions-fraction", "repetitions-zero",
         "tolerance-bool", "tolerance-nan", "checkpoints-fraction", "checkpoints-empty", "checkpoints-zero",
         "output-dir-int", "weights-list", "variants-empty", "model-spec-mapping"],
)
def test_the_config_constructor_and_replace_refuse_what_the_config_refuses(tmp_path, field, key, value, message):
    config = ExperimentConfig(AgentWeights.equal(2), (Unconstrained(),), "out", csv_path="inst.csv")
    fields = {"weights": config.weights, "variants": config.variants, "output_dir": "out", "csv_path": "inst.csv"}
    with pytest.raises(InstanceError) as built:
        ExperimentConfig(**{**fields, field: value})
    with pytest.raises(InstanceError) as replaced:
        replace(config, **{field: value})
    assert str(built.value) == str(replaced.value) == message
    if key is not None:
        d = copy.deepcopy(_CONFIG)
        parent = d
        for k in key[:-1]:
            parent = parent[k]
        parent[key[-1]] = value
        with pytest.raises(InstanceError) as read:
            ExperimentConfig.from_dict(d, str(tmp_path))
        assert str(read.value) == message


def test_the_config_stores_a_schedule_as_pow2_or_its_sorted_rounds():
    config = ExperimentConfig.from_dict(_CONFIG)
    assert config.checkpoints == "pow2" and config.repetitions == 1 and config.tolerance == 1e-6
    assert not config.normalize and not config.save_instances
    assert replace(config, checkpoints=None).checkpoints == "pow2"
    assert replace(config, checkpoints=[8, 2.0, 8]).checkpoints == (2, 8)
    assert replace(config, checkpoints=" 64,8 ,8").checkpoints == (8, 64)
    assert type(replace(config, repetitions=3.0).repetitions) is int
    assert type(replace(config, tolerance=1).tolerance) is float


def test_summary_records_repetitions_as_an_int(tmp_path):
    (tmp_path / "inst.csv").write_text("a,b\n1,0\n0,1\n")
    config = ExperimentConfig.from_dict(_CONFIG, str(tmp_path))
    run_experiment(replace(config, repetitions=2.0))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["repetitions"] == 2 and type(summary["repetitions"]) is int
    assert '"repetitions": 2,' in (tmp_path / "out" / "summary.json").read_text()


def test_proportional_identity_instance_relative_regret(tmp_path):
    # two disjoint-interest items: hindsight gives each agent its whole
    # item, the proportional baseline gives half; relative regret 0.5
    cfg = _write_config(
        tmp_path / "c.yaml",
        """
instance:
  csv: inst.csv
weights: {equal: 2}
variants: [proportional]
repetitions: 1
checkpoints: [2]
tolerance: 1.0e-9
output_dir: out
""",
    )
    (tmp_path / "inst.csv").write_text("a,b\n1,0\n0,1\n")
    result = run_experiment(ExperimentConfig.from_yaml(cfg))
    with open(result.trajectory_csv) as fh:
        rows = list(csv.DictReader(fh))
    vals = {(r["tau"], r["agent"]): float(r["value"]) for r in rows}
    assert vals[("2", "a")] == pytest.approx(0.5)
    assert vals[("2", "b")] == pytest.approx(0.5)
    assert vals[("2", "max")] == pytest.approx(0.5)


def test_aggregation_row_count_and_mean(tmp_path):
    cfg = _write_config(
        tmp_path / "c.yaml",
        """
instance:
  model:
    type: iid
    support: [[1.0, 0.1], [0.1, 1.0]]
  t: 32
  seed: 9
weights: {equal: 2}
variants: [pace]
repetitions: 10
checkpoints: pow2
tolerance: 1.0e-9
output_dir: out
""",
    )
    config = ExperimentConfig.from_yaml(cfg)
    result = run_experiment(config)
    with open(result.trajectory_csv) as fh:
        rows = list(csv.DictReader(fh))
    cps = parse_checkpoints("pow2", 32)
    # one row per (checkpoint, agent/max/mean) per variant
    assert len(rows) == len(cps) * (2 + 2)
    summary = json.loads(Path(result.summary_json).read_text())
    assert summary["repetitions"] == 10
    assert set(summary["variants"]) == {"pace"}
    per_rep = summary["variants"]["pace"]["per_repetition"]
    assert len(per_rep) == 10
    crs = [r["competitive_ratio"] for r in per_rep]
    solver = summary["hindsight_solver"]
    assert len(solver) == 10
    for facts in solver:
        assert len(facts["iterations"]) == len(facts["gap"]) == len(cps)
        assert all(it >= 1 for it in facts["iterations"])
        assert all(0.0 <= g <= 1e-9 * 2 for g in facts["gap"])
    assert summary["variants"]["pace"]["mean"]["competitive_ratio"] == pytest.approx(
        sum(crs) / 10
    )

    # recompute one aggregated trajectory value independently: the final
    # "max" row must be the mean over repetitions of the per-run maxima
    from fairpace.dynamics import run as run_dyn
    from fairpace.eg import hindsight_prefix
    from fairpace.inputs import gen
    from fairpace.model import AgentWeights

    w = AgentWeights.equal(2)
    maxima = []
    for rep in range(10):
        vs = gen(config.model_spec, repetition=rep)
        [full] = hindsight_prefix(vs, w, [32], config.tolerance)
        trace = run_dyn(vs, w, Unconstrained())
        ubar = trace.final_avg_utilities
        rel = [
            max(u_star - u, 0.0) / u_star
            for u, u_star in zip(ubar, full.avg_utilities)
            if u_star > 0
        ]
        maxima.append(max(rel))
    final_max_row = {(r["tau"], r["agent"]): float(r["value"]) for r in rows}[("32", "max")]
    assert final_max_row == sum(maxima) / 10


def test_identical_config_is_byte_identical(tmp_path):
    body = """
instance:
  model:
    type: iid
    support: [[1.0, 0.2], [0.2, 1.0]]
  t: 16
  seed: 4
weights: {equal: 2}
variants: [pace, proportional]
repetitions: 2
checkpoints: pow2
tolerance: 1.0e-9
output_dir: %s
"""
    c1 = _write_config(tmp_path / "c1.yaml", body % "out1")
    c2 = _write_config(tmp_path / "c2.yaml", body % "out2")
    r1 = run_experiment(ExperimentConfig.from_yaml(c1))
    r2 = run_experiment(ExperimentConfig.from_yaml(c2))
    for a, b in [
        (r1.trajectory_csv, r2.trajectory_csv),
        (r1.summary_json, r2.summary_json),
        (r1.svg_files[0], r2.svg_files[0]),
    ]:
        assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.parametrize("source", ["model", "csv"])
def test_a_repetition_releases_its_instance_before_the_next_is_built(tmp_path, source):
    # iid rows over eight points at ten agents, generated per repetition or
    # read from a CSV: the next instance is built after the last one is freed,
    # so a second repetition adds no matrix to the peak
    support = np.random.default_rng(6).integers(1, 10, size=(8, 10)) / 10
    spec = InputModelSpec(IID(FiniteDistribution.uniform(support)), 10_000, 1)
    model = "{model: {type: iid, support: %s}, t: %%d, seed: 1}" % support.tolist()
    if source == "csv":
        save_csv(tmp_path / "inst.csv", gen(spec))
        instance = "{csv: inst.csv}"
    else:
        instance = model % spec.t
    body = "instance: %s\nweights: {equal: 10}\nvariants: [proportional]\nrepetitions: %d\noutput_dir: %s\n"

    def peak(instance, reps, out):
        path = _write_config(tmp_path / f"{out}.yaml", body % (instance, reps, out))
        return traced_peak(run_experiment, ExperimentConfig.from_yaml(path))

    peak(model % 100, 1, "warm")  # first-use allocations stay out of the comparison
    one, two = peak(instance, 1, "one"), peak(instance, 2, "two")
    matrix_bytes = spec.t * 10 * 8
    assert two - one <= 0.25 * matrix_bytes, (one / matrix_bytes, two / matrix_bytes)


def test_a_generated_run_peaks_well_below_its_matrix(tmp_path):
    # wide-stream's eight-point support at ten agents: the instance is its
    # points and an arrival index, so no step of the run builds the matrix
    spec = {"type": "iid", "support": EIGHT_POINT_SUPPORT}
    body = "instance: {model: %s, t: %d, seed: 1}\nweights: {equal: 10}\nvariants: [pace, proportional]\n"
    body += "output_dir: %s\n"

    def peak(t, out):
        path = _write_config(tmp_path / f"{out}.yaml", body % (spec, t, out))
        return traced_peak(run_experiment, ExperimentConfig.from_yaml(path))

    peak(100, "warm")  # first-use allocations stay out of the comparison
    t = 40_000
    matrix_bytes = t * 10 * 8
    big = peak(t, "big")
    # 0.52 when set; 1.32 with the matrix built by the generator
    assert big <= 0.75 * matrix_bytes, big / matrix_bytes


# one generated config per model type, with repeated points and zeros of
# either sign among them; ergodic is normalized
_GENERATED = {
    "iid": "{model: {type: iid, support: [[1, 0.2, 0.0], [0.3, 1, 0.5], [1, 0.2, -0.0]]}, t: 3000, seed: 2}",
    "periodic": "{model: {type: periodic, pools: [[[1, 0.2], [0.3, 1]], [[0.5, 0.5]], [[0.1, 0.0], [1, 0.2]]]},"
    " t: 3000, seed: 5}",
    "block": "{model: {type: block, lengths: [1000, 1500, 500], dists: [{support: [[1, 0.1], [0.1, 1], [1, 0.1]],"
    " probs: [0.3, 0.5, 0.2]}, {support: [[0.5, 0.5], [-0.0, 1], [1, 0.1]]}, {support: [[0.0, 1], [2, 2]]}]},"
    " t: 3000, seed: 3}",
    "ergodic": "{model: {type: ergodic, states: [[1, 0.1, 0.3], [0.2, 1, 0.0], [0.5, 0.5, 1]],"
    " transitions: [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]], start: 2}, t: 3000, seed: 9,"
    " normalize: true}",
    "corrupted": "{model: {type: corrupted, base: {support: [[1, 0.1], [0.1, 1], [0.0, 0.7]]},"
    " corruptions: {3: {support: [[5, 0.1]]}, 17: {support: [[-0.0, 0.7], [9, 9]]}, 9999: {support: [[3, 3]]}}},"
    " t: 3000, seed: 3}",
}


@pytest.mark.parametrize("kind", sorted(_GENERATED))
def test_a_generated_instance_runs_as_its_csv_does(tmp_path, kind):
    # the point form reaches every layer; written out as a CSV and read back
    # as a matrix, the same instance writes the same bytes
    instance = _GENERATED[kind]
    n = 3 if kind in ("iid", "ergodic") else 2
    body = (
        "instance: %s\nweights: {equal: %d}\nsave_instances: true\noutput_dir: %s\nvariants: [pace,"
        " 'constrained,slack=0.5', 'seeded,seed_utility=0.5', setaside, greedy, proportional]\n"
    )
    spec = ExperimentConfig.from_yaml(_write_config(tmp_path / "gen.yaml", body % (instance, n, "gen")))
    values = gen(spec.model_spec)
    assert values.index is not None
    save_csv(tmp_path / "inst.csv", values)
    csv_instance = "{csv: inst.csv, normalize: true}" if "normalize" in instance else "{csv: inst.csv}"
    from_csv = ExperimentConfig.from_yaml(_write_config(tmp_path / "csv.yaml", body % (csv_instance, n, "csv")))
    assert load_csv(tmp_path / "inst.csv").index is None
    a, b = run_experiment(spec).output_dir, run_experiment(from_csv).output_dir
    files = sorted(p.relative_to(a) for p in Path(a).rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in Path(b).rglob("*") if p.is_file())
    for f in files:
        assert (Path(a) / f).read_bytes() == (Path(b) / f).read_bytes(), f


def test_failure_removes_partial_outputs(tmp_path):
    cfg = _write_config(
        tmp_path / "c.yaml",
        """
instance:
  csv: missing.csv
weights: {equal: 2}
variants: [pace]
output_dir: out
""",
    )
    config = ExperimentConfig.from_yaml(cfg)
    with pytest.raises(Exception):
        run_experiment(config)
    out = tmp_path / "out"
    leftovers = [p for p in out.rglob("*") if p.is_file()] if out.exists() else []
    assert leftovers == []


def test_model_from_dict_corrupted_and_block():
    spec = model_from_dict(
        {
            "type": "block",
            "lengths": [2, 2],
            "dists": [
                {"support": [[1.0, 0.1]]},
                {"support": [[0.1, 1.0]]},
            ],
            "t": 4,
            "seed": 0,
        }
    )
    assert spec.model.lengths == (2, 2)
    spec = model_from_dict(
        {
            "type": "corrupted",
            "base": {"support": [[1.0, 1.0]]},
            "corruptions": {2: {"support": [[0.5, 3.0]]}},
            "t": 4,
            "seed": 1,
        }
    )
    assert 2 in spec.model.corruptions


def test_model_from_dict_ergodic_and_periodic():
    from fairpace.inputs import gen

    spec = model_from_dict(
        {
            "type": "ergodic",
            "states": [[1.0, 0.0], [0.0, 1.0]],
            "transitions": [[0.0, 1.0], [1.0, 0.0]],
            "start": 1,
            "t": 4,
            "seed": 0,
        }
    )
    vs = gen(spec)
    assert vs.matrix.tolist() == [[0, 1], [1, 0], [0, 1], [1, 0]]
    spec = model_from_dict(
        {"type": "periodic", "pools": [[[1.0, 0.5]], [[0.5, 1.0]]], "t": 4, "seed": 0}
    )
    assert gen(spec).matrix.tolist() == [[1, 0.5], [0.5, 1], [1, 0.5], [0.5, 1]]


def test_plot_from_trajectories(tmp_path):
    path = tmp_path / "traj.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["tau", "variant", "agent", "value"])
        for tau, v in [(1, 0.9), (10, 0.2), (100, 0.05)]:
            wr.writerow([tau, "pace", "max", v])
            wr.writerow([tau, "pace", "mean", v / 2])
    [svg] = plot_trajectories(path, tmp_path / "plots")
    body = Path(svg).read_text()
    assert body.startswith("<svg")
    assert "pace, max" in body


def test_plot_escapes_labels_into_well_formed_svg(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("tau,variant,agent,value\n1,a&b<c,max,0.5\n4,a&b<c,max,0.25\n")
    [svg] = plot_trajectories(path, tmp_path / "plots")
    root = ElementTree.parse(svg).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b<c, max" in texts


# ------------------------------------------------------------ CLI


def test_cli_child_imports_same_package_from_any_cwd(tmp_path):
    import fairpace

    r = subprocess.run(
        [sys.executable, "-c", "import fairpace; print(fairpace.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert Path(r.stdout.strip()).resolve() == Path(fairpace.__file__).resolve()


def test_runtime_needs_neither_scipy_nor_hypothesis(tmp_path):
    # all three are installed beside the tests, but only numpy is a dependency
    cfg = _write_config(tmp_path / "c.yaml", _SMALL_RUN)
    code = (
        "import sys\n"
        "import fairpace.cli\n"
        "from fairpace import AgentWeights, ExperimentConfig, Unconstrained, ValueSequence, run, solve_eg\n"
        "vs, w = ValueSequence([[1.0, 0.5], [0.2, 1.0]]), AgentWeights.equal(2)\n"
        "run(vs, w, Unconstrained(), [1])\n"
        "solve_eg(vs, w, 1e-9)\n"
        f"assert ExperimentConfig.from_yaml({cfg!r}).model_spec.t == 64\n"
        "print(sorted({'scipy', 'hypothesis', 'yaml'} & {m.split('.')[0] for m in sys.modules}))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def ci_configs():
    """The YAML files CI's end-to-end step writes with ``cat > "$RUNNER_TEMP/NAME.yaml" <<'EOF'``, by name."""
    found = re.findall(r"cat > \"\$RUNNER_TEMP/([\w-]+)\.yaml\" <<'EOF'\n(.*?)\n *EOF\n", WORKFLOW.read_text(), re.S)
    return {name: textwrap.dedent(body) + "\n" for name, body in found}


def test_the_program_runs_ci_configs_with_yaml_unimportable(tmp_path):
    configs = ci_configs()
    assert sorted(configs) == ["block", "corrupted", "csv", "e2e", "ergodic", "periodic", "wide", "wide-csv"]
    for name in ("periodic", "block", "corrupted"):
        (tmp_path / f"{name}.yaml").write_text(configs[name])
    commands = [["run", "periodic.yaml", "--out", "{}-periodic"],
                ["gen", "--spec", "block.yaml", "--out", "{}-block.csv"],
                ["gen", "--spec", "corrupted.yaml", "--out", "{}-corrupted.csv"]]
    no_yaml = [sys.executable, "-c", "import sys; sys.modules['yaml'] = None; from fairpace.cli import program; program()"]
    for command in commands:
        for side, entry in (("noyaml", no_yaml), ("cli", CLI)):
            r = subprocess.run(entry + [arg.format(side) for arg in command], capture_output=True, text=True, cwd=tmp_path)
            assert r.returncode == 0, r.stderr
    assert _files(tmp_path / "noyaml-periodic") == _files(tmp_path / "cli-periodic")
    for name in ("block", "corrupted"):
        assert (tmp_path / f"noyaml-{name}.csv").read_bytes() == (tmp_path / f"cli-{name}.csv").read_bytes()


def test_cli_gen_and_solve_round_trip(tmp_path):
    inst = tmp_path / "inst.csv"
    r = subprocess.run(
        CLI + ["gen", "--model", "iid", "--support", "1,0;0,1", "--t", "12", "--seed", "7", "--out", str(inst)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    vs = load_csv(inst)
    assert vs.t == 12 and vs.n == 2
    r = subprocess.run(CLI + ["solve", str(inst)], capture_output=True, text=True)
    assert r.returncode == 0
    eq = json.loads(r.stdout)
    assert eq["gap"] <= 1e-9 * 2


def test_cli_gen_from_spec_file(tmp_path):
    spec = tmp_path / "model.yaml"
    spec.write_text(
        """
type: periodic
pools:
  - [[1.0, 0.2]]
  - [[0.2, 1.0]]
seed: 3
"""
    )
    out = tmp_path / "inst.csv"
    r = subprocess.run(
        CLI + ["gen", "--spec", str(spec), "--t", "6", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    vs = load_csv(out)
    assert vs.matrix.tolist() == [[1, 0.2], [0.2, 1]] * 3


def test_cli_gen_seed_overrides_the_specs_seed(tmp_path):
    body = "type: iid\nsupport: [[1, 0.2], [0.3, 1], [0.5, 0.5]]\nt: 200\nseed: %d\n"
    written = {}
    for name, seed, args in (("own", 3, []), ("five", 3, ["--seed", "5"]), ("spec-five", 5, []), ("spec-three", 3, [])):
        spec = _write_config(tmp_path / f"{name}.yaml", body % seed)
        r = subprocess.run(CLI + ["gen", "--spec", spec, *args, "--out", str(tmp_path / f"{name}.csv")],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        written[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert written["five"] == written["spec-five"]
    assert written["own"] == written["spec-three"] != written["five"]


def test_cli_attack_prints_certified_bound(tmp_path):
    out = tmp_path / "kill.csv"
    r = subprocess.run(
        CLI
        + [
            "attack",
            "--construction",
            "cr-killer",
            "--n",
            "2",
            "--phases",
            "100,10000",
            "--variant",
            "pace",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    info = json.loads(r.stdout)
    assert info["bound"] == pytest.approx((2 * 9900 / 10000) ** 0.5)
    assert out.exists()


def test_cli_run_and_eval(tmp_path):
    inst = tmp_path / "inst.csv"
    inst.write_text("a,b\n1,0\n0,1\n1,1\n0.5,1\n")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        """
instance:
  csv: inst.csv
weights: {equal: 2}
variants: [pace]
repetitions: 1
checkpoints: pow2
tolerance: 1.0e-9
output_dir: out
"""
    )
    r = subprocess.run(CLI + ["run", str(cfg)], capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "out" / "trajectories.csv").exists()
    assert (tmp_path / "out" / "relative_regret.svg").exists()

    # eval a trace produced programmatically
    from fairpace.dynamics import Unconstrained, run as run_dyn
    from fairpace.model import AgentWeights, load_csv as load

    trace = run_dyn(load(inst), AgentWeights.equal(2), Unconstrained())
    tr_path = tmp_path / "trace.json"
    tr_path.write_text(json.dumps(trace.to_json_dict()))
    r = subprocess.run(
        CLI + ["eval", str(tr_path), "--instance", str(inst)], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    metrics = json.loads(r.stdout)
    assert metrics["variant"] == "pace"
    assert metrics["competitive_ratio"] >= 1.0 - 1e-9


def test_cli_attack_envy_and_constrained_failure(tmp_path):
    out = tmp_path / "envy.csv"
    r = subprocess.run(
        CLI
        + ["attack", "--construction", "envy-worstcase", "--eps", "0.5",
           "--growth", "1.05", "--base-length", "200", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    info = json.loads(r.stdout)
    assert info["predicted_envy"] > 1.0
    from fairpace.model import extremity

    assert extremity(load_csv(out)) == 0.5

    out2 = tmp_path / "fail.csv"
    r = subprocess.run(
        CLI + ["attack", "--construction", "constrained-failure", "--upper2", "2",
               "--t", "10", "--out", str(out2)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    vs = load_csv(out2)
    assert vs.matrix.tolist() == [[0.5, 0.5]] * 10


def test_model_spec_missing_fields_report_cleanly():
    with pytest.raises(InstanceError, match="horizon t"):
        model_from_dict({"type": "iid", "support": [[1.0]]})
    with pytest.raises(InstanceError, match="missing the 'pools'"):
        model_from_dict({"type": "periodic", "t": 4})


def test_cli_usage_errors_exit_two(tmp_path):
    r = subprocess.run(
        CLI + ["attack", "--construction", "cr-killer", "--n", "2", "--phases", "10,100",
               "--variant", "bogus", "--out", str(tmp_path / "x.csv")],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2
    r = subprocess.run(
        CLI + ["run", "cfg.yaml", "--checkpoints", "1,zz"], capture_output=True, text=True
    )
    assert r.returncode == 2
    r = subprocess.run(
        CLI + ["attack", "--construction", "cr-killer", "--n", "2", "--phases", "10,100",
               "--variant", "seeded,seed_utility=0.5,seed_utility=2", "--out", str(tmp_path / "x.csv")],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2
    assert "repeated variant parameter" in r.stderr
    assert not (tmp_path / "x.csv").exists()
    # the string form refuses a value the mapping form refuses, naming the variant
    for value in ("abc", "1_0"):
        r = subprocess.run(
            CLI + ["attack", "--construction", "cr-killer", "--n", "2", "--phases", "10,100",
                   "--variant", f"seeded,seed_utility={value}", "--out", str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 2
        assert r.stderr.strip().splitlines()[-1].endswith(f"argument --variant: seeded variant: {value!r} is not a number")
        assert not (tmp_path / "x.csv").exists()


# a number in a comma list is read as the config reads it: float() would read 1_0 as 10
@pytest.mark.parametrize(
    "command, expected",
    [
        (["run", "c.yaml", "--checkpoints", "1_0"], "argument --checkpoints: malformed checkpoint schedule '1_0'"),
        (["gen", "--model", "iid", "--support", "1_0,0;0,1", "--t", "3"], "argument --support: malformed matrix '1_0,0;0,1'"),
        (["gen", "--model", "iid", "--support", "1,0;0,1", "--probs", "0.5,0.5_0", "--t", "3"],
         "argument --probs: malformed number list '0.5,0.5_0'"),
        (["gen", "--model", "periodic", "--pools", "1,0|0,1_0", "--t", "3"], "argument --pools: malformed matrix '0,1_0'"),
        (["solve", "inst.csv", "--weights", "1_0,1"], "argument --weights: malformed number list '1_0,1'"),
        (["attack", "--construction", "cr-killer", "--n", "2", "--phases", "1_0,20"],
         "argument --phases: malformed round list '1_0,20'"),
    ],
    ids=["run-checkpoints", "gen-support", "gen-probs", "gen-pools", "solve-weights", "attack-phases"],
)
def test_cli_number_lists_refuse_underscores(tmp_path, command, expected):
    (tmp_path / "inst.csv").write_text("a,b\n1,0\n0,1\n")
    r = subprocess.run(CLI + command + ["--out", "x"], capture_output=True, text=True, cwd=tmp_path)
    lines = r.stderr.strip().splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:], r.stderr
    assert lines[-1].endswith(expected)
    assert r.returncode == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.csv"]


def test_cli_attack_refuses_fractional_phase_ends(tmp_path):
    # a phase ends at a whole round: 10.7 is a usage error, not round 10
    out = tmp_path / "k.csv"
    r = subprocess.run(
        CLI + ["attack", "--construction", "cr-killer", "--n", "2", "--phases", "10.7,20", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2
    assert "malformed round list" in r.stderr
    assert not out.exists()


def test_cli_runtime_errors_exit_one(tmp_path):
    r = subprocess.run(CLI + ["solve", str(tmp_path / "missing.csv")], capture_output=True, text=True)
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_cli_run_rejects_duplicate_variant_labels(tmp_path):
    # both constrained variants are labelled "constrained"; keyed by label,
    # the second would merge into the first's summary entry and rep CSV
    cfg = _write_config(
        tmp_path / "c.yaml",
        """
instance:
  model:
    type: iid
    support: [[1.0, 0.2], [0.2, 1.0]]
  t: 8
weights: {equal: 2}
variants: ["constrained,slack=0.1", "constrained,slack=5.0"]
output_dir: out
""",
    )
    r = subprocess.run(CLI + ["run", cfg], capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "'constrained'" in lines[0]
    assert not (tmp_path / "out").exists()


def test_cli_attack_refuses_setaside_without_monopoly_utilities(tmp_path):
    # the attack builds its instance while it runs, so no monopolistic
    # utilities exist to resolve set-aside against
    r = subprocess.run(
        CLI + ["attack", "--construction", "cr-killer", "--n", "2", "--phases", "3,6",
               "--variant", "setaside", "--out", str(tmp_path / "k.csv")],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr
    assert "monopoly utilities" in lines[0]


def test_cli_attack_reads_a_slack_variant_against_the_constructions_weights(tmp_path):
    # the construction runs at equal weights, so the slack form's bounds
    # come from them, as the Python API's do
    out = tmp_path / "k.csv"
    r = subprocess.run(
        CLI + ["attack", "--construction", "cr-killer", "--n", "2", "--phases", "10,20",
               "--variant", "constrained,slack=0.5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    res = adv_cr_killer(2, [10, 20], Constrained.from_slack(AgentWeights.equal(2), 0.5))
    info = json.loads(r.stdout)
    assert info["policy"] == "constrained" and info["kill_order"] == list(res.kill_order)
    assert info["policy_utilities"] == res.policy_utilities.tolist()
    assert load_csv(out).matrix.tolist() == res.values.matrix.tolist()


@pytest.mark.parametrize(
    "body, expected",
    [
        ("instance: [1, 2\nweights: {equal: 2}\n", "not valid YAML"),
        ("instance: [1, 2]\nweights: {equal: 2}\nvariants: [pace]\n", "'instance' must be a mapping"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace, 3]\n", "variant entry 3"),
        ("instance: {csv: inst.csv}\nweights: {equal: 3}\nvariants: [pace]\n", "3 weights for an instance of 2 agents"),
        ("instance: {model: [1, 2], t: 5}\nweights: {equal: 2}\nvariants: [pace]\n", "'instance.model' must be a mapping"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\ncheckpoints: 5\n", "malformed checkpoint schedule 5"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\ntolerance: [1]\n", "'tolerance' must be a number"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\noutput_dir: [1]\n", "'output_dir' must be a path"),
        ("instance: {csv: [1]}\nweights: {equal: 2}\nvariants: [pace]\n", "'instance.csv' must be a path"),
        ("instance: {model: {type: iid, support: [[1, 0]]}, t: [4]}\nweights: {equal: 2}\nvariants: [pace]\n", "'t' must be a number"),
        ("instance: {model: {type: iid, support: [[1, 0]]}, t: 4, seed: [1]}\nweights: {equal: 2}\nvariants: [pace]\n", "'seed' must be a number"),
        ("instance: {model: {type: iid, support: 5}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "iid model: support must be a nonempty matrix"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [{type: seeded, seed_utility: [1]}]\n", "seeded variant:"),
        ("instance: {model: {type: periodic, pools: 3}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "periodic model:"),
        ("instance: {model: {type: corrupted, base: {support: [[1, 1]]}, corruptions: [1, 2]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "corruptions must map rounds to distributions"),
        ("instance: {model: {type: block, lengths: [4], dists: {a: 1}}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "block model:"),
        ("instance: {model: {type: ergodic, states: [[1, 0], [0, 1]], transitions: [[0.5, 0.5], [0.5, 0.5]], start: [0]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "ergodic model:"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [{type: constrained, lower: 1, upper: 2}]\n", "constrained variant:"),
        ("instance: {model: {type: block, lengths: [4], dists: [{support: [[1, 1]]}], max_delta: abc}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "max_delta must be a number, not 'abc'"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\nrepetition: 5\n", "unknown key 'repetition'"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\ntolerence: 0.1\n", "unknown key 'tolerence'"),
        ("instance: {csv: inst.csv, sed: 3}\nweights: {equal: 2}\nvariants: [pace]\n", "unknown key 'sed'"),
        ("instance: {model: {type: iid, support: [[1, 0], [0, 1]], prob: [0.9, 0.1]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "iid model: unknown key 'prob'"),
        ("instance: {model: {type: block, lengths: [4], dists: [{support: [[1, 1]], prob: [1]}]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "block model: unknown key 'prob'"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [{type: constrained, slack: 0.5, lower: [0.1, 0.1], upper: [9, 9]}]\n", "constrained variant: give lower/upper bounds or a slack, not both"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: ['pace,seed_utility=0.5']\n", "pace variant: unknown key 'seed_utility'"),
        ("instance: {csv: inst.csv}\nweights: {eqal: 2}\nvariants: [pace]\n", "unknown key 'eqal'"),
        ("instance: {csv: inst.csv, normalize: 'no'}\nweights: {equal: 2}\nvariants: [pace]\n", "'normalize' must be true or false, not 'no'"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\nsave_instances: maybe\n", "'save_instances' must be true or false, not 'maybe'"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\nrepetitions: 2.7\n", "'repetitions' must be a number with an integer value, not 2.7"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\nrepetitions: true\n", "'repetitions' must be a number with an integer value, not True"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\ncheckpoints: [1.5, 3]\n", "malformed checkpoint schedule [1.5, 3]"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\ncheckpoints: [.inf]\n", "malformed checkpoint schedule [inf]"),
        ("instance: {model: {type: iid, support: [[1, 1]]}, t: .inf}\nweights: {equal: 2}\nvariants: [pace]\n", "'t' must be a number with an integer value, not inf"),
        ("instance: {csv: inf.csv}\nweights: {equal: 2}\nvariants: [pace]\n", "error: non-finite value at item 1, agent 2"),
        ("instance: {csv: inst.csv}\nweights: [{a: 1}, 1]\nvariants: [pace]\n", "config 'weights' must be {equal: n} or a list of numbers, not [{'a': 1}, 1]"),
        ("instance: {csv: inst.csv}\nweights: [1, true]\nvariants: [pace]\n", "config 'weights' must be {equal: n} or a list of numbers, not [1, True]"),
        ("instance: {csv: inst.csv}\nweights: ['1', 1]\nvariants: [pace]\n", "config 'weights' must be {equal: n} or a list of numbers, not ['1', 1]"),
        ("instance: {csv: inst.csv}\nweights: 2\nvariants: [pace]\n", "config 'weights' must be {equal: n} or a list of numbers, not 2"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\ntolerance: true\n", "config 'tolerance' must be a number, not True"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [{type: seeded, seed_utility: true}]\n", "seeded variant: True is not a number"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [{type: constrained, slack: true}]\n", "constrained variant: True is not a number"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [{type: constrained, lower: [0.5, true], upper: [2, 2]}]\n", "constrained variant: True is not a number"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [{type: setaside, monopoly_utilities: [1, true]}]\n", "setaside variant: True is not a number"),
        ("instance: {model: {type: block, lengths: [4], dists: [{support: [[1, 1]]}], max_delta: true}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "block model: max_delta must be a number, not True"),
        ("instance: {model: {type: corrupted, base: {support: [[1, 1]]}, corruptions: {}, max_delta: true}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "corrupted model: max_delta must be a number, not True"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\nnormalize: true\n", "unknown key 'normalize'"),
        ("instance: {csv: inst.csv, t: 100, seed: 3}\nweights: {equal: 2}\nvariants: [pace]\n", "'instance.t' only applies to generated instances"),
        ("instance: {model: {type: iid, support: [[1, 0], [0, 1]], t: 50}, t: 100}\nweights: {equal: 2}\nvariants: [pace]\n", "iid model: unknown key 't'"),
        ("instance: {model: {type: iid, support: [[1, 0], [0, 1]], seed: 3}, t: 100, seed: 9}\nweights: {equal: 2}\nvariants: [pace]\n", "iid model: unknown key 'seed'"),
        ("instance: {model: {type: iid, support: [[1, 0.5]]}}\nweights: {equal: 2}\nvariants: [pace]\n", "error: config 'instance' needs a horizon t"),
        ("instance: {model: {type: iid, support: [[true, 1], [1, 0]]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "error: iid model: True is not a number"),
        ("instance: {model: {type: iid, support: [[1, 0], [0, 1]], probs: ['0.5', '0.5']}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "error: iid model: '0.5' is not a number"),
        ("instance: {model: {type: ergodic, states: [[1, 0], [0, 1]], transitions: [[true, false], [false, true]]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "error: ergodic model: True is not a number"),
        ("instance: {model: {type: periodic, pools: [[[1, 0]], [[0, 1], [1, '1e-3']]]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "error: periodic model: '1e-3' is not a number"),
        (f"instance: {{model: {{type: iid, support: [[{10**400}, 1]]}}, t: 4}}\nweights: {{equal: 2}}\nvariants: [pace]\n", "error: iid model: int too large to convert to float"),
        ("instance: {csv: inst.csv}\nweights: [1e308, 1e308]\nvariants: [pace]\n", "error: agent weights and their total must be finite"),
        ("instance: {csv: inst.csv}\nweights: {equal: -1}\nvariants: [pace]\n", "error: need at least one agent weight"),
        ("instance: {model: {type: iid, support: [[1, 0], [0, 1]], probs: [.nan, 1]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "error: iid model: probs must be nonnegative and sum to one"),
        ("instance: {model: {type: iid, support: [[1, 0], [0, 1]], probs: [1e308, 1e308]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "error: iid model: probs must be nonnegative and sum to one"),
        ("instance: {model: {type: ergodic, states: [[1, 0], [0, 1]], transitions: [[.nan, 1], [0.5, 0.5]]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "error: ergodic model: transition rows must be distributions"),
        ("instance: {model: {type: ergodic, states: [[1, 0], [0, 1]], transitions: [[1e308, 1e308], [0.5, 0.5]]}, t: 4}\nweights: {equal: 2}\nvariants: [pace]\n", "error: ergodic model: transition rows must be distributions"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\nvariants: [greedy]\n", "error: config is not valid YAML: duplicate key 'variants' (line 4)"),
        ("instance: {csv: inst.csv, csv: inf.csv}\nweights: {equal: 2}\nvariants: [pace]\n", "error: config is not valid YAML: duplicate key 'csv' (line 1)"),
        ("instance:\n  model: {type: iid, support: [[1, 0], [0, 1]]}\n  t: 4\n  seed: 017\nweights: {equal: 2}\nvariants: [pace]\n", "error: config is not valid YAML: YAML 1.1 and 1.2 read '017' differently; quote it or write it otherwise (line 4)"),
        ("instance:\n  model: {type: iid, support: [[1, 0], [0, 1]]}\n  t: 1:30\nweights: {equal: 2}\nvariants: [pace]\n", "error: config is not valid YAML: YAML 1.1 and 1.2 read '1:30' differently"),
        ("instance:\n  model: {type: iid, support: [[1, 0], [0, 1]]}\n  t: 1_000\nweights: {equal: 2}\nvariants: [pace]\n", "error: config is not valid YAML: YAML 1.1 and 1.2 read '1_000' differently"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\nsave_instances: yes\n", "error: config is not valid YAML: YAML 1.1 and 1.2 read 'yes' differently; quote it or write it otherwise (line 4)"),
        ("instance: {csv: inst.csv, normalize: off}\nweights: {equal: 2}\nvariants: [pace]\n", "error: config is not valid YAML: YAML 1.1 and 1.2 read 'off' differently"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\noutput_dir: 2024-01-01\n", "error: config is not valid YAML: YAML 1.1 and 1.2 read '2024-01-01' differently"),
        ("instance: {csv: inst.csv}\nweights: &w {equal: 2}\nvariants: [pace]\n", "error: config is not valid YAML: anchors are not read (line 2)"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\n---\nvariants: [greedy]\n", "error: config is not valid YAML: more than one document, or a document end marker (line 4)"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\nsave_instances: 'yes'\n", "error: config 'save_instances' must be true or false, not 'yes'"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: ['seeded,seed_utility=abc']\n", "error: seeded variant: 'abc' is not a number"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: ['seeded,seed_utility=1_0']\n", "error: seeded variant: '1_0' is not a number"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: ['constrained,slack=x']\n", "error: constrained variant: 'x' is not a number"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: ['PACE']\n", "error: unknown variant type 'PACE'"),
        ("instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [{type: PACE}]\n", "error: unknown variant type 'PACE'"),
    ],
    ids=["yaml-syntax", "instance-list", "variant-number", "weights-length", "model-list",
         "checkpoints-int", "tolerance-list", "output-dir-list", "csv-list", "t-list", "seed-list",
         "iid-support-scalar", "seeded-utility-list", "periodic-pools-int", "corruptions-list",
         "block-dists-mapping", "ergodic-start-list", "constrained-bounds-scalar", "block-max-delta-text",
         "unknown-top-key", "unknown-top-key-misspelt", "unknown-instance-key", "iid-unknown-key",
         "distribution-unknown-key", "constrained-slack-and-bounds", "pace-unknown-parameter",
         "weights-unknown-key", "normalize-text", "save-instances-text", "repetitions-fraction",
         "repetitions-bool", "checkpoints-fraction", "checkpoints-inf", "t-inf", "csv-inf",
         "weights-entry-mapping", "weights-entry-bool", "weights-entry-text", "weights-scalar", "tolerance-bool",
         "seeded-utility-bool", "constrained-slack-bool", "constrained-bounds-bool", "setaside-monopoly-bool",
         "block-max-delta-bool", "corrupted-max-delta-bool", "normalize-top-level", "csv-with-t-and-seed",
         "model-with-t", "model-with-seed", "model-without-t", "iid-support-bool", "iid-probs-text",
         "ergodic-transitions-bool", "periodic-pool-text", "iid-support-huge-int", "weights-total-overflow",
         "weights-equal-negative", "iid-probs-nan", "iid-probs-overflow", "ergodic-transitions-nan",
         "ergodic-transitions-overflow", "duplicate-key", "duplicate-flow-key", "seed-octal", "t-base-60",
         "t-underscore", "save-instances-yes", "normalize-off", "output-dir-date", "anchor", "second-document",
         "save-instances-quoted-yes", "seeded-utility-text", "seeded-utility-underscore", "constrained-slack-text",
         "variant-upper-case", "variant-type-upper-case"],
)
def test_cli_run_reports_malformed_configs_in_one_line(tmp_path, body, expected):
    (tmp_path / "inst.csv").write_text("a,b\n1,0\n0,1\n")
    (tmp_path / "inf.csv").write_text("a,b\n1,inf\n0,1\n")
    cfg = _write_config(tmp_path / "c.yaml", body)
    r = subprocess.run(CLI + ["run", cfg], capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr
    assert expected in lines[0]
    assert not (tmp_path / "out").exists()  # nothing half-written is left


# a config in exponent form, which YAML 1.1 reads as strings, and its
# twin in the forms YAML 1.1 reads as numbers
_EXPONENT_CONFIG = """
instance:
  model:
    type: block
    lengths: [1e2, 100]
    dists: [{support: [[1e0, 2e-1], [3E-1, 1]]}, {support: [[1, 0.2], [0.3, 1]], probs: [5e-1, 0.5]}]
    max_delta: 1e-2
  t: 2e2
  seed: 3
weights: [1e0, 2]
variants: [pace, {type: seeded, seed_utility: 1e-3}, {type: constrained, lower: [1e-1, 1e-1], upper: [2e0, 4]}]
checkpoints: [1e1, 50]
tolerance: 1e-9
"""
_DOTTED_CONFIG = """
instance:
  model:
    type: block
    lengths: [100, 100]
    dists: [{support: [[1.0, 0.2], [0.3, 1]]}, {support: [[1, 0.2], [0.3, 1]], probs: [0.5, 0.5]}]
    max_delta: 0.01
  t: 200
  seed: 3
weights: [1.0, 2]
variants: [pace, {type: seeded, seed_utility: 0.001}, {type: constrained, lower: [0.1, 0.1], upper: [2.0, 4]}]
checkpoints: [10, 50]
tolerance: 1.0e-9
"""


def test_exponent_form_numbers_give_the_dotted_forms_outputs(tmp_path):
    for name, body in (("exp", _EXPONENT_CONFIG), ("dot", _DOTTED_CONFIG)):
        config = ExperimentConfig.from_yaml(_write_config(tmp_path / f"{name}.yaml", body + f"output_dir: {name}\n"))
        run_experiment(config)
    assert config.tolerance == 1e-9 and config.model_spec.t == 200 and config.model_spec.model.max_delta == 0.01
    assert _files(tmp_path / "exp") == _files(tmp_path / "dot")
    for name, low, t in (("exp", "2e-1", "1e3"), ("dot", "0.2", "1000")):
        spec = _write_config(tmp_path / f"{name}-spec.yaml", f"type: iid\nsupport: [[1, {low}], [{low}, 1]]\nt: {t}\nseed: 7\n")
        r = subprocess.run(CLI + ["gen", "--spec", spec, "--out", str(tmp_path / f"{name}.csv")], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
    assert (tmp_path / "exp.csv").read_bytes() == (tmp_path / "dot.csv").read_bytes()


def test_utility_ratio_is_finite_where_weight_times_utility_overflows(tmp_path):
    # each agent's utility is near 1e308, so B_i * U_i with ||B||_1 = 2 overflows
    (tmp_path / "inst.csv").write_text("a,b\n1e308,1\n1,1e308\n1e-320,1\n")
    cfg = _write_config(
        tmp_path / "c.yaml",
        "instance: {csv: inst.csv}\nweights: {equal: 2}\n"
        "variants: [pace, 'constrained,slack=0.5', 'seeded,seed_utility=0.5', setaside, greedy, proportional]\n",
    )
    r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *CLI[1:], "run", cfg],
                       capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 0 and r.stderr == "", r.stderr
    variants = json.loads((tmp_path / "out" / "summary.json").read_text())["variants"]
    assert len(variants) == 6
    for label, result in variants.items():
        ratio = result["per_repetition"][0]["utility_ratio"]
        assert ratio is not None and 0.5 < ratio < 3, (label, ratio)


def test_cli_run_accepts_a_prefix_that_no_agent_values(tmp_path):
    # round one is worth nothing to anyone: its benchmark flags every agent
    (tmp_path / "inst.csv").write_text("a,b\n0,0\n1,0\n0,1\n1,1\n")
    cfg = _write_config(tmp_path / "c.yaml", "instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\n")
    r = subprocess.run(CLI + ["run", cfg], capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "out" / "trajectories.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["value"] for row in rows if row["tau"] == "1"] == ["nan"] * 4
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["hindsight_solver"][0]["gap"][0] == 0.0


def test_failed_run_keeps_directories_that_existed(tmp_path):
    (tmp_path / "inst.csv").write_text("a,b\n1,0\n0,1\n")
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / "notes.txt").write_text("kept")
    cfg = ExperimentConfig.from_yaml(
        _write_config(
            tmp_path / "c.yaml",
            "instance: {csv: inst.csv}\nweights: {equal: 3}\nvariants: [pace]\noutput_dir: results/out\n",
        )
    )
    with pytest.raises(InstanceError, match="3 weights"):
        run_experiment(cfg)
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == ["notes.txt"]


_TWO_AGENTS = "a,b\n1,0\n0,1\n1,1\n0.5,1\n"
_FOUR_BY_THREE = "a,b,c\n1,0.5,0.2\n0.3,1,0.4\n0.6,0.2,1\n0.5,0.5,0.5\n"


def _run_cli(tmp_path, variants, *extra):
    (tmp_path / "inst.csv").write_text(_TWO_AGENTS)
    cfg = _write_config(
        tmp_path / "c.yaml",
        f"instance: {{csv: inst.csv}}\nweights: {{equal: 2}}\nvariants: {variants}\noutput_dir: out\n",
    )
    return subprocess.run(CLI + ["run", cfg, *extra], capture_output=True, text=True, cwd=tmp_path)


# a small generated instance, written to out/
_SMALL_RUN = (
    "instance: {model: {type: iid, support: [[1, 0.2], [0.3, 1]]}, t: 64, seed: 3}\n"
    "weights: {equal: 2}\nvariants: [pace, proportional]\n"
)

# the fields eval reads of a pace trace on _TWO_AGENTS; %s is the winners
_PACE_TRACE = '{"variant_spec": {"type": "pace"}, "weights": [1, 1], "checkpoints": [], "winners": %s}'


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_run_refuses_an_output_directory_that_holds_files(tmp_path):
    # a second run into out/ would otherwise leave the first run's
    # reps/rep000_proportional.csv beside a summary that lists only pace
    r = _run_cli(tmp_path, "[pace, proportional]")
    assert r.returncode == 0, r.stderr
    before = _files(tmp_path / "out")
    assert "reps/rep000_proportional.csv" in before
    r = _run_cli(tmp_path, "[pace]")
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr
    assert "is not empty" in lines[0]
    assert _files(tmp_path / "out") == before
    assert not list(tmp_path.glob(".*partial*"))


def test_cli_run_accepts_an_empty_output_directory(tmp_path):
    (tmp_path / "out").mkdir()
    r = _run_cli(tmp_path, "[pace]")
    assert r.returncode == 0, r.stderr
    assert sorted(_files(tmp_path / "out")) == [
        "relative_regret.svg", "reps/rep000_pace.csv", "summary.json", "trajectories.csv",
    ]
    assert not list(tmp_path.glob(".*partial*"))


def test_interrupted_run_leaves_no_output(tmp_path, monkeypatch):
    import fairpace.harness as harness

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "write_line_svg", interrupt)
    (tmp_path / "inst.csv").write_text(_TWO_AGENTS)
    cfg = ExperimentConfig.from_yaml(
        _write_config(tmp_path / "c.yaml", "instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\n")
    )
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml", "inst.csv"]


def test_cli_plot_redraws_the_run_chart(tmp_path):
    # variants out of sorted order: the chart keeps the config's order
    r = _run_cli(tmp_path, "[proportional, pace]")
    assert r.returncode == 0, r.stderr
    r = subprocess.run(
        CLI + ["plot", "out/trajectories.csv", "--out", "p"], capture_output=True, text=True, cwd=tmp_path
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "p" / "relative_regret.svg").read_bytes() == (
        tmp_path / "out" / "relative_regret.svg"
    ).read_bytes()


@pytest.mark.parametrize(
    "command, files, expected",
    [
        (["gen", "--spec", "s.yaml", "--out", "x.csv"], {"s.yaml": "type: [iid\n"}, "model spec is not valid YAML"),
        (["gen", "--spec", "s.yaml", "--out", "x.csv"], {"s.yaml": "- iid\n- 4\n"}, "model spec file must hold a mapping"),
        (["plot", "t.csv", "--out", "p"], {"t.csv": "tau,variant,agent,value\n1,pace,max\n"}, "t.csv, line 2"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": '{"winners": [0]}'}, "missing the 'variant_spec' field"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": '{"winners": [0], "variant_spec": [1]}'}, "variant spec must be a mapping"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": _PACE_TRACE % "[0, 1, 1, 1]"}, "round 3 differs"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": _PACE_TRACE % "[0, 1, 0]"}, "3 winners for an instance of 4 rounds"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": _PACE_TRACE % '5, "t": 2, "final_utilities": [7, 0]'}, "'winners' must be a list"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": _PACE_TRACE.replace("[1, 1]", '"x"') % "[0, 1, 0, 1]"}, "trace JSON 'weights'"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": _PACE_TRACE.replace('"checkpoints": []', '"checkpoints": 5') % "[0, 1, 0, 1]"}, "checkpoints must be a list of rounds"),
        (["solve", "v.csv"], {"v.csv": "a,b\n1,inf\n0,1\n"}, "non-finite value at item 1, agent 2"),
        (["solve", "v.csv"], {"v.csv": "a,b\n1,0\n0,nan\n"}, "non-finite value at item 2, agent 2"),
        (["solve", "v.csv"], {"v.csv": "a,b\n1,0\n-1,1\n"}, "negative value at item 2, agent 1"),
        (["solve", "v.csv"], {"v.csv": "a,b\n1e308,1e308\n1e308,1e308\n"}, "no certificate after 1 iterations (gap nan"),
        (["solve", "v.csv", "--tol", "inf"], {"v.csv": _FOUR_BY_THREE}, "tolerance must be positive and finite, not inf"),
        (["solve", "v.csv", "--tol", "nan"], {"v.csv": _FOUR_BY_THREE}, "tolerance must be positive and finite, not nan"),
        (["eval", "tr.json", "--instance", "inst.csv", "--tol", "inf"], {"tr.json": _PACE_TRACE % "[0, 1, 0, 1]"}, "tolerance must be positive and finite, not inf"),
        (["run", "c.yaml"], {"c.yaml": "instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\ntolerance: .inf\n"}, "tolerance must be positive and finite, not inf"),
        (["run", "c.yaml", "--tol", "nan"], {"c.yaml": "instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: [pace]\n"}, "tolerance must be positive and finite, not nan"),
        (["run", "c.yaml"], {"c.yaml": "instance: {csv: inst.csv}\nweights: {equal: 2}\nvariants: ['seeded,seed_utility=inf']\n"}, "seed_utility must be positive and finite"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": _PACE_TRACE % "[0, 1, 0, 1]", "inst.csv": "a,b\n1,0\nnan,1\n"}, "non-finite value at item 2, agent 1"),
        (["gen", "--spec", "s.yaml", "--out", "x.csv"], {"s.yaml": "type: periodic\npools: [[1, 0]]\nt: 3\n"}, "error: periodic model: pools must be nonempty and share the agent count"),
        (["gen", "--spec", "s.yaml", "--out", "x.csv"], {"s.yaml": "type: iid\nsupport: [[1, 0]]\nt: 2.5\n"}, "error: model spec 't' must be a number with an integer value, not 2.5"),
        (["gen", "--spec", "s.yaml", "--out", "x.csv"], {"s.yaml": "type: iid\nsupport: [[1, 0]]\nt: 3\nseed: [1]\n"}, "error: model spec 'seed' must be a number with an integer value, not [1]"),
        (["gen", "--spec", "s.yaml", "--out", "x.csv"], {"s.yaml": "type: iid\nsupport: [[1, 0]]\n"}, "error: model spec needs a horizon t"),
        (["attack", "--construction", "envy-worstcase", "--eps", "1e-300", "--base-length", "3", "--out", "x.csv"], {}, "error: cannot allocate the instance's 2071291283308354172914"),
        (["attack", "--construction", "envy-worstcase", "--eps", "1e-20", "--base-length", "3", "--out", "x.csv"], {}, "error: cannot allocate the instance's 13808608595320952857281 items"),
        (["attack", "--construction", "constrained-failure", "--upper2", "inf", "--t", "3", "--out", "x.csv"], {}, "error: bounds must be positive and the upper bound finite"),
        (["gen", "--model", "iid", "--support", "1,0;0,1", "--t", "3", "--seed", "-1", "--out", "x.csv"], {}, "error: seed must lie in [0, 2**64), not -1"),
        (["gen", "--model", "iid", "--support", "1,0;0,1", "--t", "3", "--seed", str(2**64), "--out", "x.csv"], {}, f"error: seed must lie in [0, 2**64), not {2**64}"),
        (["gen", "--model", "iid", "--support", "1,0;0,1", "--t", "3", "--rep", "-1", "--out", "x.csv"], {}, "error: repetition must lie in [0, 2**64), not -1"),
        (["run", "c.yaml"], {"c.yaml": _SMALL_RUN.replace("seed: 3", "seed: -1")}, "error: seed must lie in [0, 2**64), not -1"),
        (["run", "c.yaml", "--seed", str(2**70)], {"c.yaml": _SMALL_RUN}, f"error: seed must lie in [0, 2**64), not {2**70}"),
        # sizes above the 128 TiB x86-64 address space, which no overcommit setting grants
        (["gen", "--model", "iid", "--support", "1,0;0,1", "--t", str(10**15), "--out", "x.csv"], {}, "error: Unable to allocate 7.11 PiB"),
        (["attack", "--construction", "constrained-failure", "--upper2", "1", "--t", str(10**15), "--out", "x.csv"], {}, "error: Unable to allocate 14.2 PiB"),
        (["attack", "--construction", "cr-killer", "--n", "2", "--phases", f"1,{10**15}", "--out", "x.csv"], {}, "error: Unable to allocate 14.2 PiB"),
        (["run", "c.yaml"], {"c.yaml": _SMALL_RUN.replace("t: 64", f"t: {10**15}")}, "error: Unable to allocate 7.11 PiB"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": _PACE_TRACE.replace("[1, 1]", "[true, 1]") % "[0, 1, 0, 1]"}, "error: trace JSON 'weights': True is not a number"),
        (["eval", "tr.json", "--instance", "inst.csv"], {"tr.json": _PACE_TRACE.replace("[1, 1]", "[1e308, 1e308]") % "[0, 1, 0, 1]"}, "error: trace JSON 'weights': agent weights and their total must be finite"),
        (["solve", "inst.csv", "--weights", "1e308,1e308"], {}, "error: agent weights and their total must be finite"),
        (["solve", "inst.csv", "--weights", ","], {}, "error: need at least one agent weight"),
        (["gen", "--spec", "s.yaml", "--out", "x.csv"], {"s.yaml": "type: iid\nsupport: [[1, 0]]\nt: 3\nt: 5\n"}, "error: model spec is not valid YAML: duplicate key 't' (line 4)"),
        (["gen", "--spec", "s.yaml", "--out", "x.csv"], {"s.yaml": "type: iid\nsupport: [[1, 0]]\nt: 3\nseed: 017\n"}, "error: model spec is not valid YAML: YAML 1.1 and 1.2 read '017' differently; quote it or write it otherwise (line 4)"),
    ],
    ids=["gen-yaml-syntax", "gen-spec-list", "plot-short-row", "eval-no-variant", "eval-variant-spec-list",
         "eval-changed-winner", "eval-short-trace", "eval-winners-number", "eval-weights-text",
         "eval-checkpoints-number", "solve-inf", "solve-nan", "solve-negative", "solve-overflow", "solve-tol-inf",
         "solve-tol-nan", "eval-tol-inf", "run-tolerance-inf", "run-tol-nan", "run-seeded-inf", "eval-nan", "gen-periodic-vector-pool",
         "gen-spec-fractional-t", "gen-spec-seed-list", "gen-spec-without-t", "attack-envy-eps-1e-300",
         "attack-envy-eps-1e-20", "attack-constrained-upper2-inf", "gen-seed-negative", "gen-seed-2-64",
         "gen-rep-negative", "run-seed-negative", "run-seed-2-70", "gen-t-1e15", "attack-constrained-t-1e15",
         "attack-cr-killer-phase-1e15", "run-t-1e15", "eval-weights-bool", "eval-weights-overflow",
         "solve-weights-overflow", "solve-weights-empty", "gen-spec-duplicate-key", "gen-spec-seed-octal"],
)
def test_cli_reports_malformed_inputs_in_one_line(tmp_path, command, files, expected):
    (tmp_path / "inst.csv").write_text(_TWO_AGENTS)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    r = subprocess.run(CLI + command, capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr
    assert expected in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"inst.csv", *files})  # no output, partial or whole


def _wrote(*paths):
    return "".join(f"wrote {p}\n" for p in paths)


def _run_wrote(out):
    return _wrote(f"{out}/trajectories.csv", f"{out}/summary.json", f"{out}/relative_regret.svg")


def _csv(*rows):
    return "".join(f"{row}\n" for row in rows)


def _assert_fields(shown, expected, what):
    """The named fields of a JSON mapping: strings equal, numbers and
    arrays of them of the same shape and within 1e-12."""
    for key, value in expected.items():
        if isinstance(value, str):
            assert shown[key] == value, (what, key)
        else:
            assert np.shape(shown[key]) == np.shape(value), (what, key, shown[key])
            assert np.allclose(shown[key], value, rtol=1e-12, atol=1e-12), (what, key, shown[key])


# each input below is accepted: a row pins main's exit code, its stdout (the
# text, or the named fields of the JSON it prints), its stderr, and the files
# it writes (a file's text, the named fields of a JSON file, or None for a
# file that must exist)
@pytest.mark.parametrize(
    "command, files, code, out, err, written",
    [
        (["run", "c.yaml", "--out", "w"], {"c.yaml": "instance: {csv: inst.csv}\nweights: [1.0, 2.0]\nvariants: [pace]\n"},
         0, _run_wrote("w"), "", {"w/summary.json": {"weights": [1.0, 2.0], "repetitions": 1}, "w/reps/rep000_pace.csv": None}),
        (["run", "c.yaml", "--reps", "2", "--out", "r"], {"c.yaml": _SMALL_RUN}, 0, _run_wrote("r"), "",
         {"r/summary.json": {"repetitions": 2}, "r/reps/rep001_proportional.csv": None}),
        (["run", "c.yaml", "--checkpoints", "8,64", "--out", "k"], {"c.yaml": _SMALL_RUN}, 0, _run_wrote("k"), "",
         {"k/summary.json": {"checkpoints": [8, 64]}}),
        (["solve", "inst.csv", "--weights", "1,2"], {}, 0, {"utilities": [4 / 3, 8 / 3], "beta": [0.75, 0.75]}, "", {}),
        (["solve", "inst.csv", "--include-allocation"], {}, 0,
         {"utilities": [2.0, 2.0], "allocation": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]}, "", {}),
        (["solve", "inst.csv", "--out", "eq.json"], {}, 0, _wrote("eq.json"), "",
         {"eq.json": {"utilities": [2.0, 2.0], "prices": [0.5] * 4}}),
        (["eval", "tr.json", "--instance", "inst.csv", "--out", "m.json"], {"tr.json": _PACE_TRACE % "[0, 1, 0, 1]"}, 0,
         _wrote("m.json"), "", {"m.json": {"variant": "pace", "competitive_ratio": 1.0, "multiplicative_envy": [0.25, 0.5]}}),
        (["gen", "--model", "iid", "--support", "1,0;0,1", "--probs", "0.25,0.75", "--t", "12", "--seed", "5", "--out", "p.csv"],
         {}, 0, _wrote("12 items x 2 agents to p.csv"), "",
         {"p.csv": _csv("a1,a2", *["0.0,1.0"] * 3, "1.0,0.0", *["0.0,1.0"] * 2, "1.0,0.0", *["0.0,1.0"] * 5)}),
        (["gen", "--model", "periodic", "--pools", "1,0.2|0.2,1;0.5,0.5", "--t", "6", "--seed", "2", "--out", "q.csv"],
         {}, 0, _wrote("6 items x 2 agents to q.csv"), "",
         {"q.csv": _csv("a1,a2", "1.0,0.2", "0.2,1.0", "1.0,0.2", "0.5,0.5", "1.0,0.2", "0.5,0.5")}),
        (["attack", "--construction", "constrained-failure", "--upper2", "2", "--cap", "0.5", "--t", "4", "--out", "f.csv"],
         {}, 0, '{"construction": "constrained-failure", "t": 4, "value": 0.5}\n', "", {"f.csv": _csv("a1,a2", *["0.5,0.5"] * 4)}),
        (["solve", "z.csv"], {"z.csv": "a,b,c\n1,0,0.2\n0.3,0,0.4\n"}, 1, "", "error: agent 2 has all-zero values\n", {}),
        (["solve", "z.csv"], {"z.csv": "a,b\n0,0\n0,0\n"}, 1, "", "error: no item has a positive value\n", {}),
    ],
    ids=["run-weights-list", "run-reps", "run-checkpoints", "solve-weights", "solve-include-allocation", "solve-out",
         "eval-out", "gen-probs", "gen-periodic-pools", "attack-cap", "solve-all-zero-agent", "solve-nothing-valued"],
)
def test_cli_accepted_inputs_are_pinned(tmp_path, monkeypatch, capsys, command, files, code, out, err, written):
    from fairpace.cli import main

    (tmp_path / "inst.csv").write_text(_TWO_AGENTS)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    monkeypatch.chdir(tmp_path)
    assert main(command) == code
    printed = capsys.readouterr()
    if isinstance(out, dict):
        _assert_fields(json.loads(printed.out), out, "stdout")
    else:
        assert printed.out == out
    assert printed.err == err
    for name, expected in written.items():
        path = tmp_path / name
        if isinstance(expected, dict):
            _assert_fields(json.loads(path.read_text()), expected, name)
        elif expected is None:
            assert path.is_file(), name
        else:
            assert path.read_text() == expected, name


# the installed script's form: the program entry, called with the arguments after -c
_PROGRAM = "from fairpace.cli import program; program()"


def test_the_program_freezes_its_import_time_heap(tmp_path):
    code = "import atexit, gc\natexit.register(lambda: print('frozen', gc.get_freeze_count()))\n" + _PROGRAM
    cfg = _write_config(tmp_path / "c.yaml", _SMALL_RUN)
    r = subprocess.run([sys.executable, "-c", code, "run", cfg], capture_output=True, text=True, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    *wrote, frozen = r.stdout.splitlines()
    assert wrote and all(line.startswith("wrote ") for line in wrote)
    assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0


@pytest.mark.parametrize(
    "command, files, code",
    [
        (["run", "c.yaml"], {"c.yaml": _SMALL_RUN}, 0),
        (["solve", "v.csv"], {"v.csv": "a,b\n1,inf\n0,1\n"}, 1),
        (["run", "c.yaml", "--checkpoints", "1,zz"], {"c.yaml": _SMALL_RUN}, 2),
    ],
    ids=["run", "solve-inf", "run-checkpoints-text"],
)
def test_the_program_exits_as_main_returns(tmp_path, monkeypatch, capsys, command, files, code):
    # the same files in two directories: the program runs in one as a
    # child, main in the other in-process, where it leaves the collector
    # as it was
    import gc

    from fairpace.cli import main

    for side in ("program", "main"):
        (tmp_path / side).mkdir()
        for name, body in files.items():
            (tmp_path / side / name).write_text(body)
    r = subprocess.run([sys.executable, "-c", _PROGRAM, *command], capture_output=True, text=True, cwd=tmp_path / "program")
    monkeypatch.chdir(tmp_path / "main")
    frozen = gc.get_freeze_count()
    try:
        returned = main(command)
    except SystemExit as exc:  # a usage error
        returned = exc.code
    out, err = capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    assert r.returncode == returned == code
    moved = str(tmp_path / "program"), str(tmp_path / "main")  # printed paths name the directory
    assert (r.stdout.replace(*moved), r.stderr.replace(*moved)) == (out, err)
    if code == 0:
        assert out.splitlines() and all(line.startswith("wrote ") for line in out.splitlines())
        assert _files(tmp_path / "program" / "out") == _files(tmp_path / "main" / "out")
    elif code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_eval_re_runs_the_trace_instead_of_reading_its_arrays(tmp_path):
    # a stored field eval does not read, even a malformed or forged one,
    # cannot change the report: the trace is re-run on the instance
    from fairpace.dynamics import SetAside, run as run_dyn

    inst = tmp_path / "inst.csv"
    inst.write_text(_TWO_AGENTS)
    trace = run_dyn(load_csv(inst), AgentWeights([1.0, 2.0]), SetAside(), checkpoints=[1, 3])
    saved = trace.to_json_dict()
    forged = {**saved, "t": [2], "n": "x", "final_utilities": [7, 0], "checkpoint_spend": 3}
    outputs = []
    for i, d in enumerate((saved, forged)):
        (tmp_path / f"tr{i}.json").write_text(json.dumps(d))
        r = subprocess.run(
            CLI + ["eval", f"tr{i}.json", "--instance", "inst.csv"], capture_output=True, text=True, cwd=tmp_path
        )
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["variant"] == "setaside"
