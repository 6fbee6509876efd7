"""Benchmark workloads: experiment configs built from a workload seed.

Each build function writes one YAML config (and, for ``distinct-prefix``, the
instance CSV it names) into a work directory and returns a
:class:`Workload`.  The same seed always gives byte-identical files.
``smoke=True`` builds the same workload at a small size.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np
import yaml

TOL = 1e-6

# Fixed supports: the seed drives which support point each item draws,
# not the points themselves, so every seed poses a problem of one shape.
IID_SUPPORT = [[1.0, 0.25], [0.5, 1.0]]

WIDE_SUPPORT = [
    [1.0, 0.2, 0.4, 0.6, 0.8, 0.3, 0.5, 0.7, 0.9, 0.1],
    [0.2, 1.0, 0.3, 0.5, 0.1, 0.9, 0.4, 0.8, 0.6, 0.7],
    [0.5, 0.6, 1.0, 0.2, 0.7, 0.1, 0.9, 0.3, 0.4, 0.8],
    [0.7, 0.3, 0.1, 1.0, 0.4, 0.8, 0.2, 0.6, 0.5, 0.9],
    [0.3, 0.8, 0.6, 0.1, 1.0, 0.4, 0.7, 0.9, 0.2, 0.5],
    [0.9, 0.5, 0.7, 0.8, 0.2, 1.0, 0.1, 0.4, 0.3, 0.6],
    [0.4, 0.9, 0.2, 0.7, 0.6, 0.5, 1.0, 0.1, 0.8, 0.3],
    [0.6, 0.1, 0.8, 0.4, 0.9, 0.7, 0.3, 1.0, 0.1, 0.2],
]

# The distinct-prefix values are one fixed draw from this stream; the
# workload seed only shuffles items inside each block between two pow2
# checkpoints (see build_distinct_prefix).
DISTINCT_BASE_SEED = 20240601


@dataclass(frozen=True)
class Workload:
    name: str
    config_path: str
    t: int
    n: int
    repetitions: int
    variants: Tuple[str, ...]


def pow2_checkpoints(t: int) -> Tuple[int, ...]:
    """Every power of two up to ``t``, plus ``t``."""
    cps = []
    c = 1
    while c <= t:
        cps.append(c)
        c *= 2
    return tuple(sorted(set(cps) | {t}))


def _write_config(path: str, instance: dict, n: int, variants, reps: int) -> None:
    config = {
        "instance": instance,
        "weights": {"equal": n},
        "variants": list(variants),
        "repetitions": reps,
        "checkpoints": "pow2",
        "tolerance": TOL,
        "output_dir": "out",
    }
    with open(path, "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)


def build_iid_variants(seed: int, work_dir: str, smoke: bool = False) -> Workload:
    """Stationary two-point iid input, n=2, every variant, three reps."""
    t = 2_000 if smoke else 20_000
    reps = 3
    variants = (
        "pace",
        "constrained,slack=0.5",
        "seeded,seed_utility=0.5",
        "setaside",
        "greedy",
        "proportional",
    )
    instance = {"model": {"type": "iid", "support": IID_SUPPORT}, "t": t, "seed": seed}
    path = os.path.join(work_dir, "iid-variants.yaml")
    _write_config(path, instance, 2, variants, reps)
    return Workload("iid-variants", path, t, 2, reps, variants)


def distinct_values(t: int, seed: int, n: int = 10) -> np.ndarray:
    """Non-repeating uniform values; ``seed`` orders items inside pow2 blocks.

    The multiset of items up to every pow2 checkpoint is the same for
    every seed, so each checkpoint poses the same hindsight problem,
    while the dynamics see a different arrival order per seed.
    """
    base = np.random.default_rng(DISTINCT_BASE_SEED).random((t, n))
    rng = np.random.default_rng(seed)
    out = np.empty_like(base)
    start = 0
    for end in pow2_checkpoints(t):
        out[start:end] = base[start:end][rng.permutation(end - start)]
        start = end
    return out


def build_distinct_prefix(seed: int, work_dir: str, smoke: bool = False) -> Workload:
    """Non-repeating CSV instance, n=10, one repetition."""
    t, n = (64 if smoke else 256), 10
    values = distinct_values(t, seed, n)
    csv_path = os.path.join(work_dir, "distinct-prefix.csv")
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow([f"a{i + 1}" for i in range(n)])
        for row in values:
            wr.writerow([repr(float(v)) for v in row])
    variants = ("pace", "proportional")
    path = os.path.join(work_dir, "distinct-prefix.yaml")
    _write_config(path, {"csv": os.path.basename(csv_path)}, n, variants, 1)
    return Workload("distinct-prefix", path, t, n, 1, variants)


def build_wide_stream(seed: int, work_dir: str, smoke: bool = False) -> Workload:
    """Eight-point iid support, n=10, long horizon, one repetition."""
    t = 5_000 if smoke else 100_000
    variants = ("pace", "proportional")
    instance = {"model": {"type": "iid", "support": WIDE_SUPPORT}, "t": t, "seed": seed}
    path = os.path.join(work_dir, "wide-stream.yaml")
    _write_config(path, instance, 10, variants, 1)
    return Workload("wide-stream", path, t, 10, 1, variants)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "iid-variants": build_iid_variants,
    "distinct-prefix": build_distinct_prefix,
    "wide-stream": build_wide_stream,
}
