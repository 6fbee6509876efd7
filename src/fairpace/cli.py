"""Command-line interface.

Subcommands
-----------
gen     generator spec -> instance CSV
run     experiment config (YAML) -> trajectory CSV, summary JSON, SVG
eval    saved trace JSON + instance CSV -> metrics JSON
solve   instance CSV -> equilibrium JSON
attack  adversarial constructions (instance CSV + certified numbers)
plot    trajectory CSV -> SVG

Usage errors (unknown variant, malformed schedule, bad flags) exit with
code 2; runtime failures exit with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from .dynamics import RunTrace
from .eg import solve_eg
from .harness import (
    ExperimentConfig,
    model_from_dict,
    parse_variant,
    plot_trajectories,
    read_number,
    read_schedule,
    read_yaml_mapping,
    run_experiment,
)
from .inputs import (
    adv_constrained_failure,
    adv_cr_killer,
    adv_envy_worstcase,
    gen as generate,
)
from .metrics import build_report
from .model import AgentWeights, InstanceError, integral, load_csv, save_csv


def _parse_matrix(text: str) -> np.ndarray:
    """Rows separated by ';', entries by ',': "1,0;0,1"."""
    try:
        rows = [[read_number(x) for x in row.split(",")] for row in text.split(";") if row.strip()]
        return np.array(rows, dtype=np.float64)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed matrix {text!r}") from None


def _parse_floats(text: str) -> List[float]:
    try:
        return [read_number(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed number list {text!r}") from None


def _parse_rounds(text: str) -> List[int]:
    try:
        return [integral(read_number(x)) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed round list {text!r}") from None


def _variant_arg(text: str) -> str:
    """``text``, checked as a variant against one unit weight: the attack
    reads it again against its own equal weights, and the slack form is
    the only one that reads them."""
    try:
        parse_variant(text, AgentWeights.equal(1))
    except InstanceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _checkpoints_arg(text: str):
    """``text`` read by :func:`read_schedule`; a refusal is a usage error."""
    try:
        return read_schedule(text)
    except InstanceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fairpace", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance CSV from a model spec")
    g.add_argument("--model", choices=["iid", "periodic"], help="inline model type")
    g.add_argument("--support", type=_parse_matrix, help="support vectors, 'v11,v12;v21,v22'")
    g.add_argument("--probs", type=_parse_floats, help="support probabilities (default uniform)")
    g.add_argument("--pools", type=lambda text: [_parse_matrix(p) for p in text.split("|")],
                   help="periodic pools, pools split by '|', rows by ';'")
    g.add_argument("--spec", help="YAML file with a full model spec (any model type)")
    g.add_argument("--t", type=int, help="horizon length")
    g.add_argument("--seed", type=int, help="generator seed (default the spec's, else 0)")
    g.add_argument("--rep", type=int, default=0, help="repetition substream index")
    g.add_argument("--out", required=True, help="output CSV path")

    r = sub.add_parser("run", help="run an experiment config")
    r.add_argument("config", help="YAML experiment config")
    r.add_argument("--reps", type=int, help="override repetition count")
    r.add_argument("--seed", type=int, help="override the instance seed")
    r.add_argument("--tol", type=float, help="override hindsight solver tolerance")
    r.add_argument("--checkpoints", type=_checkpoints_arg, help="override schedule ('pow2' or comma list)")
    r.add_argument("--out", help="override output directory")

    e = sub.add_parser("eval", help="evaluate a saved trace against its instance")
    e.add_argument("trace", help="trace JSON (RunTrace.to_json_dict output)")
    e.add_argument("--instance", required=True, help="instance CSV")
    e.add_argument("--tol", type=float, default=1e-9, help="benchmark solver tolerance")
    e.add_argument("--out", help="metrics JSON path (default stdout)")

    s = sub.add_parser("solve", help="solve the hindsight benchmark for an instance")
    s.add_argument("instance", help="instance CSV")
    s.add_argument("--weights", type=_parse_floats, help="agent weights (default equal)")
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--include-allocation", action="store_true")
    s.add_argument("--out", help="equilibrium JSON path (default stdout)")

    a = sub.add_parser("attack", help="emit an adversarial construction")
    a.add_argument(
        "--construction",
        required=True,
        choices=["envy-worstcase", "cr-killer", "constrained-failure"],
    )
    a.add_argument("--out", required=True, help="instance CSV path")
    a.add_argument("--eps", type=float, help="extremity parameter (envy-worstcase)")
    a.add_argument("--growth", type=float, default=1.001, help="ladder ratio (envy-worstcase)")
    a.add_argument("--base-length", type=int, help="phase-one length (envy-worstcase)")
    a.add_argument("--n", type=int, help="agent count (cr-killer)")
    a.add_argument("--phases", type=_parse_rounds, help="phase end rounds (cr-killer)")
    a.add_argument("--variant", type=_variant_arg, default="pace", help="attacked policy (cr-killer)")
    a.add_argument("--upper2", type=float, help="agent-2 projection upper bound (constrained-failure)")
    a.add_argument("--cap", type=float, default=1.0, help="value cap (constrained-failure)")
    a.add_argument("--t", type=int, help="horizon (constrained-failure)")

    p = sub.add_parser("plot", help="render SVGs from a trajectories CSV")
    p.add_argument("csv", help="trajectories CSV written by 'fairpace run'")
    p.add_argument("--out", required=True, help="output directory")
    return ap


def _cmd_gen(args) -> int:
    if args.spec:
        d = read_yaml_mapping(args.spec, "model spec")
    elif args.model == "iid":
        if args.support is None or args.t is None:
            raise InstanceError("iid model needs --support and --t")
        d = {"type": "iid", "support": args.support, "probs": args.probs}
    elif args.model == "periodic":
        if args.pools is None or args.t is None:
            raise InstanceError("periodic model needs --pools and --t")
        d = {"type": "periodic", "pools": args.pools}
    else:
        raise InstanceError("gen needs --spec or --model")
    d.update({key: getattr(args, key) for key in ("t", "seed") if getattr(args, key) is not None})
    values = generate(model_from_dict(d), repetition=args.rep)
    save_csv(args.out, values)
    print(f"wrote {values.t} items x {values.n} agents to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_yaml(args.config)
    if args.seed is not None and config.model_spec is None:
        raise InstanceError("--seed only applies to generated instances")
    changes = {"repetitions": args.reps, "tolerance": args.tol, "checkpoints": args.checkpoints, "output_dir": args.out,
               "model_spec": None if args.seed is None else replace(config.model_spec, seed=args.seed)}
    result = run_experiment(replace(config, **{k: v for k, v in changes.items() if v is not None}))
    print(f"wrote {result.trajectory_csv}")
    print(f"wrote {result.summary_json}")
    for f in result.svg_files:
        print(f"wrote {f}")
    return 0


def _cmd_eval(args) -> int:
    values = load_csv(args.instance)
    with open(args.trace) as fh:
        trace = RunTrace.from_json_dict(json.load(fh), values)
    eq = solve_eg(values, trace.weights, args.tol)
    report = build_report(trace, values, trace.weights, eq.utilities)
    _emit(report.to_json(indent=1), args.out)
    return 0


def _cmd_solve(args) -> int:
    values = load_csv(args.instance)
    weights = AgentWeights.equal(values.n) if args.weights is None else AgentWeights(args.weights)
    eq = solve_eg(values, weights, args.tol, include_allocation=args.include_allocation)
    text = json.dumps(eq.to_json_dict(), sort_keys=True, indent=1)
    _emit(text, args.out)
    return 0


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out`` and say so, or print it when no
    file is given."""
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def _cmd_attack(args) -> int:
    if args.construction == "envy-worstcase":
        if args.eps is None or args.base_length is None:
            raise InstanceError("envy-worstcase needs --eps and --base-length")
        res = adv_envy_worstcase(args.eps, args.growth, args.base_length)
        limit = 1 + 2 * math.log(1 / args.eps) if args.eps < 1 else 1.0
        values = res.values
        facts = {"predicted_envy": res.predicted_envy, "limit_envy": limit, "growth": res.growth, "levels": res.levels}
    elif args.construction == "cr-killer":
        if args.n is None or args.phases is None:
            raise InstanceError("cr-killer needs --n and --phases")
        variant = parse_variant(args.variant, AgentWeights.equal(args.n))
        res = adv_cr_killer(args.n, args.phases, variant)
        values = res.values
        facts = {
            "policy": variant.label,
            "bound": res.bound,
            "kill_order": list(res.kill_order),
            "witness_utilities": list(res.witness_utilities),
            "policy_utilities": [float(u) for u in res.policy_utilities],
        }
    else:
        if args.upper2 is None or args.t is None:
            raise InstanceError("constrained-failure needs --upper2 and --t")
        values = adv_constrained_failure(args.upper2, args.cap, args.t)
        facts = {"value": float(values.matrix[0, 0])}
    save_csv(args.out, values)
    print(json.dumps({"construction": args.construction, "t": values.t, **facts}, sort_keys=True))
    return 0


def _cmd_plot(args) -> int:
    for path in plot_trajectories(args.csv, args.out):
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "eval": _cmd_eval,
    "solve": _cmd_solve,
    "attack": _cmd_attack,
    "plot": _cmd_plot,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InstanceError, MemoryError, OSError, RuntimeError, ValueError) as exc:
        # numpy's MemoryError names the size it could not allocate; Python's names nothing
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def program() -> None:
    """Run :func:`main` on the command line and exit with its code.

    The heap that importing numpy and fairpace built lives until
    the process exits, so it is frozen first: no collection during the
    run, nor the interpreter's teardown, walks it again.  ``main`` does
    not freeze, so in-process callers keep their collector as it was.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    program()
