"""isackit benchmark: one workload per invocation, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload case1_classical --seed 1 --seconds 25 --trace 0

Each workload runs in a fresh worker process with BLAS pinned to one thread
through the environment before numpy loads. With --trace 0 the run repeats
whole rounds of the workload while they fit in --seconds (at least one) and
reports the end-to-end metrics: setup_s (median over eleven fresh
processes of the set-up time), body_s (median time of one round's timed
body), peak_rss_mb. Both times are normalized seconds: CPU seconds scaled by
a host-speed probe (probe.py), because on a shared host both wall and CPU
time drift with the load others put on the machine. The raw wall and CPU
times are printed on the detail line.
With --trace 1 one worker runs round 0 untraced as a warm-up, then two
untraced/traced pairs of the same round in the order untraced, traced,
traced, untraced, and reports the per-layer metrics of the last traced round
plus the tracing overhead (median of traced minus untraced round wall time).

Stdout ends with a detail line (every stage metric with its unit, the
environment fingerprint, the workload sizes) and then the result line
{"correct", "attempted", "failed", "metrics"}. The script exits 2 without a
result when the checkout holds no isackit sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
NOMINAL_S = 0.01  # probe.NOMINAL_S; run.py stays free of numpy
WORKLOADS = ("case1_classical", "case2_hybrid", "learned_train", "mc_detect")
SETUP_PROCESSES = 10  # set-up-only processes per run, besides the worker itself
DEADLINE_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts worker processes in the checkout and keeps the run's deadline."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **PINNED_ENV)
        path = [str(root / "src")] + ([self.env["PYTHONPATH"]]
                                      if self.env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(path)

    def worker(self, *extra) -> tuple[dict, float]:
        """(worker result, set-up seconds from process start to first timed call)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerError("run deadline passed")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from exc
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result, result["ready"] - spawned


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path):
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root:
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() or None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(runner: Runner, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end run: (metrics, stage metrics, worker result)."""
    # set-up samples before and after the worker, so they span the host's drift
    setups = [runner.worker("--setup-only") for _ in range(SETUP_PROCESSES // 2)]
    result, setup = runner.worker("--seconds", str(seconds))
    setups.append((result, setup))
    setups += [runner.worker("--setup-only") for _ in range(SETUP_PROCESSES // 2)]
    metrics = {
        "setup_s": _metric(statistics.median(r["ready_cpu"] * NOMINAL_S / r["ready_probe"]
                                             for r, _ in setups), "s"),
        "body_s": _metric(statistics.median(result["round_norm_s"]), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }
    stages = {name: _metric(v, u) for name, (v, u) in result["stages"].items()}
    stages["setup_cpu_s"] = _metric(statistics.median(r["ready_cpu"] for r, _ in setups), "s")
    stages["setup_wall_s"] = _metric(statistics.median(wall for _, wall in setups), "s")
    stages["cpu_s"] = _metric(statistics.median(result["round_cpu_s"]), "s")
    stages["wall_s"] = _metric(statistics.median(result["round_wall_s"]), "s")
    stages["fail_frac"] = _metric(result["failed"] / max(result["attempted"], 1), "ratio")
    stages["rounds"] = _metric(len(result["round_wall_s"]), "count")
    return metrics, stages, result


def measure_traced(runner: Runner) -> tuple[dict, dict, dict]:
    """Traced run: (per-layer metrics, stage metrics, worker result)."""
    result, _ = runner.worker("--trace", "1")
    metrics = {name: _metric(v, u) for name, (v, u) in result["layers"].items()}
    pairs = result["trace_pairs_s"]
    metrics["trace_overhead_s"] = _metric(statistics.median(t - p for p, t in pairs), "s")
    stages = {
        "untraced_wall_s": _metric(statistics.median(p for p, _ in pairs), "s"),
        "traced_wall_s": _metric(statistics.median(t for _, t in pairs), "s"),
        "tracer_restored": _metric(int(result["tracer_restored"]), "bool"),
    }
    result = dict(result, attempted=result["attempted"] + 1,
                  failed=result["failed"] + (not result["tracer_restored"]))
    return metrics, stages, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "isackit" / "__init__.py").is_file():
        print(f"error: no isackit sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        runner.worker("--setup-only")  # fills the bytecode and file caches
        if args.trace:
            metrics, stages, result = measure_traced(runner)
        else:
            metrics, stages, result = measure(runner, args.seconds)
    except (WorkerError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    fingerprint = dict(result["fingerprint"], nproc=os.cpu_count(),
                       git_commit=_git_commit(root), source_sha256=_source_digest(root),
                       seed=args.seed, pinned_env=PINNED_ENV)
    for name, m in {**metrics, **stages}.items():
        print(f"{name:58s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"workload": args.workload, "sizes": result["sizes"],
                      "round_wall_s": result["round_wall_s"],
                      "round_cpu_s": result["round_cpu_s"],
                      "round_norm_s": result["round_norm_s"], "stages": stages,
                      "fingerprint": fingerprint}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
