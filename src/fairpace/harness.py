"""Experiment orchestration: configs, runs, aggregation, report files.

A YAML config describes one experiment: an instance source (CSV path or
generator spec), agent weights, the variants to run, a repetition count,
a checkpoint schedule, and the hindsight solver tolerance.  The harness
runs every (repetition, variant) pair, benchmarks against hindsight
prefixes at the checkpoints, and writes:

``trajectories.csv``   long-format relative-regret series, averaged over
                       repetitions (columns tau, variant, agent, value;
                       agent is a name or ``max``/``mean``),
``summary.json``       final metrics per variant (per repetition and
                       averaged) and, under ``hindsight_solver``, the
                       benchmark's iterations and certified gap per
                       repetition and checkpoint,
``relative_regret.svg``one chart with the max and mean series per variant,
``reps/``              per-repetition raw checkpoint tables.

Outputs are a pure function of the config: a second run writes
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from typing import Dict, List, Optional, Sequence, Tuple, Union, get_args

import numpy as np

from .dynamics import Variant, run, variant_from_dict
from .eg import check_tolerance, hindsight_prefix
from .inputs import MODELS, InputModelSpec, gen
from .metrics import build_report, relative_regret_trajectory
from .model import (
    AgentWeights,
    InstanceError,
    ValueSequence,
    integral,
    known_keys,
    load_csv,
    normalize_values,
    real,
    record,
    save_csv,
    spec_from_dict,
)
from .svgplot import write_line_svg
from .yamlread import loads


# --------------------------------------------------------------------------
# parsing helpers (shared with the CLI)


def read_number(text: str) -> float:
    """``float(text)``, except that text holding ``_`` raises
    :class:`ValueError`: ``float()`` reads ``1_0`` as 10, which the config
    reader leaves text."""
    if "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def parse_variant(text: str, weights: Optional[AgentWeights] = None) -> Variant:
    """Parse ``name[,key=value,...]`` variant syntax.

    Names: pace, constrained, seeded, setaside, greedy, proportional.
    Examples: ``seeded,seed_utility=0.5``; ``constrained,slack=0.1``.  A
    value that is not a number is passed on as text, so the variant
    refuses it as it refuses the mapping form's.
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise InstanceError("empty variant")
    name, params = parts[0], {}
    for p in parts[1:]:
        if "=" not in p:
            raise InstanceError(f"malformed variant parameter {p!r}")
        key, val = (s.strip() for s in p.split("=", 1))
        if key in params:
            raise InstanceError(f"repeated variant parameter {key!r}")
        try:
            params[key] = read_number(val)
        except ValueError:
            params[key] = val  # refused by the variant, as the mapping form's text is
    return variant_from_dict({"type": name, **params}, weights)


def read_schedule(spec) -> Union[str, Tuple[int, ...]]:
    """A checkpoint schedule: ``pow2`` (also for None), or a comma list or
    sequence of rounds as the sorted tuple of its distinct rounds; a
    schedule of any other shape, or a round below one, raises
    :class:`InstanceError`."""
    if spec is None or spec == "pow2":
        return "pow2"
    try:
        if isinstance(spec, str):
            rounds = {integral(read_number(s)) for s in spec.split(",") if s.strip()}
        else:
            rounds = {integral(x) for x in spec}
    except (TypeError, ValueError):
        raise InstanceError(f"malformed checkpoint schedule {spec!r}") from None
    if not rounds:
        raise InstanceError("empty checkpoint schedule")
    if min(rounds) < 1:
        raise InstanceError("checkpoints must be positive")
    return tuple(sorted(rounds))


def parse_checkpoints(spec: Union[str, Sequence[int], None], t: int) -> Tuple[int, ...]:
    """Resolve a checkpoint schedule, read by :func:`read_schedule`, against
    horizon ``t``.

    ``pow2`` (default) is every power of two up to ``t`` plus ``t``
    itself; an explicit schedule is clipped to ``[1, t]``.  The horizon
    is always included.
    """
    rounds = read_schedule(spec)
    if rounds == "pow2":
        rounds = [1 << k for k in range(t.bit_length())]
    return tuple(sorted({c for c in rounds if c <= t} | {t}))


def model_from_dict(d: dict) -> InputModelSpec:
    """Build a generator spec from its flat form: a model's keys, read by its
    class in :data:`fairpace.inputs.MODELS`, beside ``t`` and ``seed``."""
    return _generated({k: v for k, v in d.items() if k not in ("t", "seed")}, d, "model spec")


def _generated(model: dict, d: dict, what: str) -> InputModelSpec:
    """The generator spec of the model mapping ``model`` over the horizon
    ``d['t']`` with the seed ``d['seed']`` (zero when absent or null); the
    horizon and the seed are read before the model, and a missing or bad
    one is refused as a field of ``what``."""
    if d.get("t") is None:
        raise InstanceError(f"{what} needs a horizon t")
    t = integral(d["t"], f"{what} 't'")
    seed = integral(d["seed"], f"{what} 'seed'") if d.get("seed") is not None else 0
    return InputModelSpec(model=spec_from_dict(MODELS, model, "model"), t=t, seed=seed)


# --------------------------------------------------------------------------
# experiment config


@record
class ExperimentConfig:
    """Declarative description of one experiment.

    The constructor reads every field as a config's key is read, so
    :meth:`from_dict`, the Python API and :func:`dataclasses.replace`
    refuse the same values in one :class:`InstanceError` line:
    ``repetitions`` is an integer of at least 1, ``tolerance`` a positive
    finite number, ``normalize`` and ``save_instances`` booleans, the
    paths strings, ``model_spec`` an :class:`InputModelSpec`, ``weights``
    :class:`AgentWeights` and ``variants`` a nonempty sequence of variants
    with distinct labels.  ``checkpoints``
    is stored as :func:`read_schedule` reads it.
    """

    weights: AgentWeights
    variants: Tuple[Variant, ...]
    output_dir: str
    csv_path: Optional[str] = None
    model_spec: Optional[InputModelSpec] = None
    repetitions: int = 1
    checkpoints: Union[str, Tuple[int, ...]] = "pow2"
    tolerance: float = 1e-6
    normalize: bool = False
    save_instances: bool = False

    def __post_init__(self):
        if not isinstance(self.weights, AgentWeights):
            raise InstanceError(f"config 'weights' must be agent weights, not {self.weights!r}")
        if not isinstance(self.variants, (list, tuple)) or not all(isinstance(v, get_args(Variant)) for v in self.variants):
            raise InstanceError(f"config 'variants' must be a list of variants, not {self.variants!r}")
        if not self.variants:
            raise InstanceError("need at least one variant")
        repetitions = integral(self.repetitions, "config 'repetitions'")
        if repetitions < 1:
            raise InstanceError("repetitions must be at least 1")
        for key in ("normalize", "save_instances"):
            if not isinstance(getattr(self, key), bool):
                raise InstanceError(f"config {key!r} must be true or false, not {getattr(self, key)!r}")
        if not isinstance(self.output_dir, str):
            raise InstanceError(f"config 'output_dir' must be a path, not {self.output_dir!r}")
        if not isinstance(self.csv_path, (str, type(None))):
            raise InstanceError(f"config 'instance.csv' must be a path, not {self.csv_path!r}")
        if not isinstance(self.model_spec, (InputModelSpec, type(None))):
            raise InstanceError(f"config 'instance.model' must be a model spec, not {self.model_spec!r}")
        if (self.csv_path is None) == (self.model_spec is None):
            raise InstanceError("config needs exactly one of a CSV path or a model spec")
        labels = [v.label for v in self.variants]
        for label in labels:
            if labels.count(label) > 1:
                raise InstanceError(f"two variants share the label {label!r}; results are keyed by it")
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "repetitions", repetitions)
        object.__setattr__(self, "tolerance", check_tolerance(real(self.tolerance, "config 'tolerance'")))
        object.__setattr__(self, "checkpoints", read_schedule(self.checkpoints))

    @classmethod
    def from_dict(cls, d: dict, base_dir: str = ".") -> "ExperimentConfig":
        """Map a config's YAML layout onto the fields: ``instance`` holds the
        source and ``normalize``, paths are taken from ``base_dir``, and a
        key the config omits takes the field's default."""
        known_keys(d, "instance", "weights", "variants", "repetitions", "checkpoints", "tolerance",
                   "output_dir", "save_instances")
        inst = d.get("instance", {})
        if not isinstance(inst, dict):
            raise InstanceError("config 'instance' must be a mapping")
        known_keys(inst, "csv", "model", "t", "seed", "normalize")
        w = d.get("weights")
        if isinstance(w, dict):
            weights = AgentWeights.equal(integral(known_keys(w, "equal").get("equal"), "config 'equal'"))
        elif w is not None:
            try:
                listed = [real(x) for x in w]
            except (TypeError, ValueError, OverflowError):
                raise InstanceError(f"config 'weights' must be {{equal: n}} or a list of numbers, not {w!r}") from None
            weights = AgentWeights(listed)
        else:
            raise InstanceError("config lacks agent weights")
        variants = []
        entries = d.get("variants", [])
        if not isinstance(entries, list):
            raise InstanceError("config 'variants' must be a list")
        for v in entries:
            if not isinstance(v, (str, dict)):
                raise InstanceError(f"variant entry {v!r} must be a string or a mapping")
            variants.append(parse_variant(v, weights) if isinstance(v, str) else variant_from_dict(v, weights))
        model = inst.get("model")
        spec = None
        if model is None:
            for key in ("t", "seed"):
                if key in inst:
                    raise InstanceError(f"'instance.{key}' only applies to generated instances")
        elif not isinstance(model, dict):
            raise InstanceError("config 'instance.model' must be a mapping")
        else:
            spec = _generated(model, inst, "config 'instance'")
        fields = ("repetitions", "checkpoints", "tolerance", "save_instances", "normalize")
        return cls(
            weights=weights,
            variants=tuple(variants),
            output_dir=_path(d.get("output_dir", "out"), base_dir),
            csv_path=_path(inst.get("csv"), base_dir),
            model_spec=spec,
            **{k: v for k, v in (*d.items(), *inst.items()) if k in fields},
        )

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        data = read_yaml_mapping(path, "config")
        return cls.from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def read_yaml_mapping(path, what: str) -> dict:
    """The mapping a YAML file holds, read by :func:`fairpace.yamlread.loads`:
    YAML 1.2's numbers and booleans, no anchors, tags, block scalars or
    duplicate keys, and no plain scalar that YAML 1.1 reads otherwise.  A
    file it refuses, or one holding anything but a mapping, raises one
    :class:`InstanceError` line naming ``what``."""
    try:
        with open(path) as fh:
            data = loads(fh.read())
    except ValueError as exc:  # the reader's refusals, which name their line, and undecodable bytes
        raise InstanceError(f"{what} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise InstanceError(f"{what} file must hold a mapping")
    return data


def _path(value, base_dir: str):
    """A config path, a relative one taken from ``base_dir``; a value that is
    not a string is left for :class:`ExperimentConfig` to refuse."""
    return os.path.join(base_dir, value) if isinstance(value, str) else value


def _safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in label)


@record
class ExperimentResult:
    """Paths of everything :func:`run_experiment` wrote."""

    output_dir: str
    trajectory_csv: str
    summary_json: str
    svg_files: Tuple[str, ...]
    rep_files: Tuple[str, ...]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute a config and write its report files.

    Aggregation over repetitions is the arithmetic mean at each
    checkpoint.  ``output_dir`` must be absent or empty.  The files are
    written into the hidden sibling ``.NAME.partial-PID``, which is
    renamed to ``output_dir`` once all of them are in it; on any failure
    it is deleted, and the error re-raised with the failing repetition
    and variant named.
    """
    out_dir = config.output_dir
    target = os.path.abspath(out_dir)
    if os.path.exists(target) and (not os.path.isdir(target) or os.listdir(target)):
        raise InstanceError(f"output directory {out_dir} is not empty; a run does not merge into earlier results")
    parent, name = os.path.split(target)
    partial = os.path.join(parent, f".{name}.partial-{os.getpid()}")
    os.makedirs(parent, exist_ok=True)
    os.mkdir(partial)  # not mkdtemp: the output keeps the umask's mode
    try:
        rep_names = _run_experiment_inner(config, partial)
        os.rename(partial, target)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    return ExperimentResult(
        output_dir=out_dir,
        trajectory_csv=os.path.join(out_dir, "trajectories.csv"),
        summary_json=os.path.join(out_dir, "summary.json"),
        svg_files=(os.path.join(out_dir, "relative_regret.svg"),),
        rep_files=tuple(os.path.join(out_dir, "reps", rep_name) for rep_name in rep_names),
    )


def _load_instance(config: ExperimentConfig, rep: int) -> ValueSequence:
    if config.csv_path is not None:
        values = load_csv(config.csv_path)
    else:
        values = gen(config.model_spec, repetition=rep)
    if config.normalize:
        values = normalize_values(values)
    return values


def _nan_mean(vals: Sequence[float]) -> float:
    """Mean over the non-NaN entries, summed in order; NaN if there are none."""
    vals = [v for v in vals if not math.isnan(v)]
    return sum(vals) / len(vals) if vals else math.nan


_TRAJECTORY_HEADER = ["tau", "variant", "agent", "value"]


@record
class _Repetition:
    """What one repetition leaves for the aggregate report: its agent names,
    the checkpoints, the hindsight solver's facts, and per variant label
    the trajectory points and the report dict; ``files`` are the names it
    wrote under ``reps/``, in order."""

    agents: Tuple[str, ...]
    checkpoints: Tuple[int, ...]
    solver: dict
    points: Dict[str, list]
    reports: Dict[str, dict]
    files: Tuple[str, ...]


def _run_repetition(config: ExperimentConfig, rep: int, reps_dir: str) -> _Repetition:
    """Run repetition ``rep`` and write its files into ``reps_dir``.  Its
    instance, prefixes and traces are released on return, before the next
    instance is built."""
    values = _load_instance(config, rep)
    cps = parse_checkpoints(config.checkpoints, values.t)
    if values.n != config.weights.n:
        raise InstanceError(
            f"repetition {rep}: {config.weights.n} weights for an instance of {values.n} agents"
        )
    files: List[str] = []
    if config.save_instances:
        files.append(f"instance_{rep:03d}.csv")
        save_csv(os.path.join(reps_dir, files[-1]), values)
    try:
        prefixes = hindsight_prefix(values, config.weights, cps, config.tolerance)
    except Exception as exc:
        raise RuntimeError(f"repetition {rep}: hindsight benchmark failed: {exc}") from exc
    hindsight_final = prefixes[-1].avg_utilities * values.t
    points: Dict[str, list] = {}
    reports: Dict[str, dict] = {}
    for variant in config.variants:
        label = variant.label
        try:
            trace = run(values, config.weights, variant, cps)
            points[label] = relative_regret_trajectory(trace, prefixes)
            reports[label] = build_report(trace, values, config.weights, hindsight_final).to_json_dict()
        except Exception as exc:
            raise RuntimeError(f"repetition {rep}, variant {label}: {exc}") from exc
        files.append(f"rep{rep:03d}_{_safe_name(label)}.csv")
        trace.to_csv(os.path.join(reps_dir, files[-1]))
    solver = {"iterations": [p.iterations for p in prefixes], "gap": [p.gap for p in prefixes]}
    return _Repetition(values.agents, cps, solver, points, reports, tuple(files))


def _run_experiment_inner(config: ExperimentConfig, out_dir: str) -> List[str]:
    """Write every report file into ``out_dir``; the names of the files
    written under ``reps/``, in order."""
    labels = [v.label for v in config.variants]
    reps_dir = os.path.join(out_dir, "reps")
    os.mkdir(reps_dir)
    records = [_run_repetition(config, rep, reps_dir) for rep in range(config.repetitions)]
    agent_names, cps = records[0].agents, records[0].checkpoints

    # aggregate trajectories over repetitions
    rows: List[Tuple[int, str, str, float]] = []
    for label in labels:
        for k, tau in enumerate(cps):
            points = [rec.points[label][k] for rec in records]
            for i, name in enumerate(agent_names):
                rows.append((tau, label, name, float(_nan_mean([p.per_agent[i] for p in points]))))
            rows.append((tau, label, "max", float(_nan_mean([p.max_value for p in points]))))
            rows.append((tau, label, "mean", float(_nan_mean([p.mean_value for p in points]))))
    with open(os.path.join(out_dir, "trajectories.csv"), "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(_TRAJECTORY_HEADER)
        wr.writerows((tau, label, agent, repr(value)) for tau, label, agent, value in rows)

    # summary
    summary = {
        "repetitions": config.repetitions,
        "checkpoints": list(cps),
        "agents": list(agent_names),
        "weights": [float(x) for x in config.weights.array],
        "variants": {},
        "hindsight_solver": [rec.solver for rec in records],
    }
    for label in labels:
        per_rep = [rec.reports[label] for rec in records]
        keys = ["competitive_ratio", "utility_ratio", "nash_welfare_alg", "nash_welfare_hindsight"]
        means = {}
        for key in keys:
            vals = [r[key] for r in per_rep if r[key] is not None]
            means[key] = sum(vals) / len(vals) if vals else None
        for key in ["regret", "additive_envy"]:
            stacked = np.array([r[key] for r in per_rep])
            means[key] = [float(v) for v in stacked.mean(axis=0)]
        summary["variants"][label] = {"mean": means, "per_repetition": per_rep}
    with open(os.path.join(out_dir, "summary.json"), "w", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")

    _write_regret_chart(os.path.join(out_dir, "relative_regret.svg"), rows)
    return [name for rec in records for name in rec.files]


def _write_regret_chart(path: str, rows: Sequence[Tuple[int, str, str, float]]) -> None:
    """Chart the max and mean series of ``(tau, variant, agent, value)``
    trajectory rows, one series per (variant, statistic) in order of first
    appearance."""
    series: Dict[str, Tuple[List[int], List[float]]] = {}
    for tau, variant, agent, value in rows:
        if agent in ("max", "mean"):
            xs, ys = series.setdefault(f"{variant}, {agent}", ([], []))
            xs.append(tau)
            ys.append(value)
    write_line_svg(
        path,
        [(key, xs, ys) for key, (xs, ys) in series.items()],
        title="relative time-averaged regret",
        xlabel="round",
        ylabel="relative regret",
    )


def plot_trajectories(csv_path, out_dir) -> List[str]:
    """Redraw the chart of a trajectories CSV written by the harness; it
    equals the run's own chart byte for byte."""
    rows: List[Tuple[int, str, str, float]] = []
    with open(csv_path, newline="") as fh:
        rd = csv.reader(fh)
        if next(rd, None) != _TRAJECTORY_HEADER:
            raise InstanceError("unexpected trajectory CSV schema")
        for rec in rd:
            try:
                tau, variant, agent, value = rec
                rows.append((int(tau), variant, agent, float(value)))
            except ValueError:
                raise InstanceError(
                    f"{csv_path}, line {rd.line_num}: expected tau,variant,agent,value, not {','.join(rec)!r}"
                ) from None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "relative_regret.svg")
    _write_regret_chart(path, rows)
    return [path]
