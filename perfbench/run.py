"""fairpace benchmark: ``fairpace run`` time, CPU and memory per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload iid-variants --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload wide-stream --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

One operation is one ``python -m fairpace.cli run <config> --out <fresh
dir>`` child.  Children run one at a time (a closed loop with one
client), import the checkout's ``src`` through an absolute PYTHONPATH,
and are measured with ``os.wait4``: wall time, user plus system CPU and
peak RSS.  Each operation is followed by a calibration child
(``calibrate.py``, a fixed job that does not import fairpace); the time
metrics are the operation's time divided by the calibration child's,
times ``REF_CAL_S``, so that the machine's own drift in speed cancels.
Before the timed loop one traced child (``traced.py``) runs the same
config in-process and checks its outputs; every timed child must write
byte-identical reports.  ``--trace 1`` alternates untraced and traced
children and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

RUN_DEADLINE_S = 170.0

# The calibration child's wall and CPU time on the reference machine:
# normalised times read as seconds on a machine where it takes this long.
REF_CAL_S = 0.5

END_TO_END_UNITS = {"run_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = "run_s" if name.startswith("dynamics.run_s.") else name.split(".")[-1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last.endswith("_mb"):
        return "MB"
    return "count"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Deadline:
    """Every child is killed once the run's time budget is spent."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def remaining(self) -> float:
        return max(self.end - time.monotonic(), 0.0)


def timed_child(argv: List[str], cwd: str, log_path: str, deadline: Deadline) -> Tuple[float, float, float, int]:
    """Run one child to its end; returns (wall s, CPU s, peak RSS MB, exit code)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(deadline.remaining(), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def digest(out_dir: str) -> Dict[str, str]:
    """sha256 of every file a run wrote, by path relative to its output dir."""
    found = {}
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def source_record() -> Dict[str, Optional[str]]:
    """The commit, when the checkout has git metadata, and a digest of ``src``."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def machine_record() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class WorkloadRun:
    """One workload's run: a work dir, a deadline and the reference outputs."""

    def __init__(self, name: str, seed: int, smoke: bool):
        WORK.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
        self.workload = workloads.WORKLOADS[name](seed, self.dir, smoke=smoke)
        self.deadline = Deadline(RUN_DEADLINE_S)
        self.count = 0
        self.reference: Optional[Dict[str, str]] = None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def fresh(self, kind: str) -> Tuple[str, str]:
        self.count += 1
        out = os.path.join(self.dir, f"{kind}{self.count:03d}")
        return out, out + ".log"

    def setup_sample(self) -> float:
        _, log = self.fresh("setup")
        wall, _, _, code = timed_child([sys.executable, "-c", "import fairpace"], self.dir, log, self.deadline)
        if code != 0:
            raise RuntimeError(f"import fairpace failed: {tail(log)}")
        return wall

    def calibration_sample(self) -> Tuple[float, float]:
        _, log = self.fresh("calibrate")
        wall, cpu, _, code = timed_child([sys.executable, str(HERE / "calibrate.py")], self.dir, log, self.deadline)
        if code != 0:
            raise RuntimeError(f"calibration child failed: {tail(log)}")
        return wall, cpu

    def operation(self) -> Tuple[float, float, float, Optional[str]]:
        """One untraced ``fairpace run``; returns its figures and a failure or None."""
        out, log = self.fresh("op")
        argv = [sys.executable, "-m", "fairpace.cli", "run", self.workload.config_path, "--out", out]
        wall, cpu, rss, code = timed_child(argv, self.dir, log, self.deadline)
        failure = self._compare(out, code, log)
        shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, rss, failure

    def traced(self, with_checks: bool) -> Tuple[dict, Optional[str]]:
        """One traced run; the first one also sets the reference outputs."""
        out, log = self.fresh("traced")
        result_path = out + ".json"
        argv = [sys.executable, str(HERE / "traced.py"), self.workload.config_path, out, result_path]
        if with_checks:
            argv.append("--checks")
        wall, _, _, code = timed_child(argv, self.dir, log, self.deadline)
        if code != 0 or not os.path.isfile(result_path):
            return {}, f"traced run exited with {code}: {tail(log)}"
        with open(result_path) as fh:
            result = json.load(fh)
        result["wall_s"] = wall - result["post_s"]
        failure = None
        if with_checks:
            found = result.get("checks", {}).get("failures", [])
            if found:
                failure = f"{len(found)} checks failed, first: {found[0]}"
        if self.reference is None:
            self.reference = digest(out)
        else:
            failure = failure or self._compare(out, code, log)
        shutil.rmtree(out, ignore_errors=True)
        return result, failure

    def _compare(self, out: str, code: int, log: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}: {tail(log)}"
        if self.reference is None:
            return "no reference outputs"
        got = digest(out)
        if got != self.reference:
            differing = sorted(k for k in set(got) | set(self.reference) if got.get(k) != self.reference.get(k))
            return f"outputs differ from the reference run: {', '.join(differing[:3])}"
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result record."""
    job = WorkloadRun(name, seed, smoke=False)
    try:
        if not trace:
            job.setup_sample()  # warm-up: byte-compiles src, fills the page cache
        reference, ref_failure = job.traced(with_checks=True)
        traced = [reference] if reference else []
        setup, walls, cpus, rsss, failures = [], [], [], [], []
        cal_walls, cal_cpus = [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if not trace:
                # one set-up sample per round, so set-up sees the same machine as the runs
                setup.append(job.setup_sample())
            wall, cpu, rss, failure = job.operation()
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
            failures.append(failure)
            if trace:
                result, failure = job.traced(with_checks=False)
                if result:
                    traced.append(result)
                failures.append(failure)
            else:
                cal_wall, cal_cpu = job.calibration_sample()
                cal_walls.append(cal_wall)
                cal_cpus.append(cal_cpu)
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        if ref_failure is not None:
            failures = [ref_failure] * len(failures)
        failed = [f for f in failures if f is not None]
        record = {
            "workload": name,
            "seed": seed,
            "workload_t": job.workload.t,
            "workload_n": job.workload.n,
            "repetitions": job.workload.repetitions,
            "variants": list(job.workload.variants),
            "samples": len(walls),
            "run_s_samples": [round(w, 4) for w in walls],
            "setup_s_samples": [round(w, 4) for w in setup],
            "cal_s_samples": [round(w, 4) for w in cal_walls],
            "run_s_median": statistics.median(walls),
            "cpu_s_median": statistics.median(cpus),
            "traced_samples": len(traced),
            "checks": reference.get("checks", {}).get("counts", {}),
            **{
                k: reference.get("checks", {}).get(k)
                for k in ("duplicate_share", "cold_final_iterations", "cold_final_solve_s")
            },
            "absent": reference.get("absent", []),
            "failures": failed[:5],
            "attempted": len(failures),
            "failed": len(failed),
            "correct": not failed,
        }
        if trace:
            metrics = _layer_metrics(traced, walls) if traced else {}
        else:
            metrics = {
                "run_norm_s": REF_CAL_S * statistics.median(w / c for w, c in zip(walls, cal_walls)),
                "cpu_norm_s": REF_CAL_S * statistics.median(u / c for u, c in zip(cpus, cal_cpus)),
                "peak_rss_mb": statistics.median(rsss),
                "setup_s": statistics.median(setup),
            }
        record["metrics"] = metrics
        return record
    finally:
        job.close()


def _layer_metrics(traced: List[dict], untraced_walls: List[float]) -> Dict[str, float]:
    names = sorted({k for t in traced for k in t["metrics"]})
    out = {}
    for name in names:
        vals = [t["metrics"][name] for t in traced if name in t["metrics"]]
        out[name] = statistics.median(vals)
    walls = [t["wall_s"] for t in traced]
    out["trace.wall_s"] = statistics.median(walls)
    out["trace.unaccounted_s"] = statistics.median([t["wall_s"] - t["root_s"] for t in traced])
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(untraced_walls)
    return out


def smoke(names: List[str], seed: int) -> int:
    """Each workload once at a small size, with every check; exit 0 if all pass."""
    failed_total = 0
    for name in names:
        job = WorkloadRun(name, seed, smoke=True)
        try:
            reference, ref_failure = job.traced(with_checks=True)
            _, _, _, op_failure = job.operation()
        finally:
            job.close()
        failures = [f for f in (ref_failure, op_failure) if f is not None]
        failed_total += bool(failures)
        counts = reference.get("checks", {}).get("counts", {})
        print(json.dumps({"smoke": name, "checks": counts, "failures": failures}), flush=True)
    print(json.dumps({"correct": failed_total == 0, "attempted": len(names), "failed": failed_total, "metrics": {}}))
    return 0 if failed_total == 0 else 1


def print_record(record: dict) -> None:
    context = {k: v for k, v in record.items() if k != "metrics"}
    context.update(source_record())
    context["machine"] = machine_record()
    print(json.dumps(context), flush=True)
    for name, value in record["metrics"].items():
        print(f"{record['workload']}: {name} = {value:.6g} {unit_of(name)}")


def as_metrics(metrics: Dict[str, float], prefix: str = "") -> Dict[str, dict]:
    return {
        prefix + name: {"value": value, "unit": unit_of(name)}
        for name, value in metrics.items()
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="each workload once, small, all checks")
    args = ap.parse_args(argv)
    if not (SRC / "fairpace" / "__init__.py").is_file():
        print(f"error: no fairpace sources under {SRC}; run from a fairpace checkout", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.smoke:
        return smoke(names, args.seed)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        records.append(record)
    prefix = len(records) > 1
    metrics: Dict[str, dict] = {}
    for record in records:
        metrics.update(as_metrics(record["metrics"], record["workload"] + "." if prefix else ""))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
