"""One workload in one fresh process; started by run.py, never by hand.

The parent sets the BLAS thread variables and PYTHONPATH before this process
starts, so numpy loads already pinned. Set-up is the import of isackit.cli
(which pulls in every module) plus the workload's fixed constants; the
monotonic time at which set-up ends is reported so the parent can measure
process start to first timed call, together with the CPU seconds the process
has used by then and a host-speed probe taken just after (probe.py).

Prints one JSON line with the round timings, stage metrics, oracle-check
counts, peak RSS and environment fingerprint, plus the per-layer trace when
asked for.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

import isackit
import isackit.cli  # noqa: F401  (set-up cost: imports every module)

import numpy as np
import scipy

import layers
from probe import Probe
from workloads import WORKLOADS, Recorder


def _fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be queried."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


TRACE_PAIRS = 2  # untraced/traced round pairs after one untraced warm-up round
SETUP_PROBES = 3  # host-speed probes after set-up; their median scales setup_s


def _round(workload, rec: Recorder, seed: int, index: int, tracer=None):
    """Run round `index` (inputs from default_rng([seed, index])); its timed
    (wall, CPU, normalized) seconds."""
    rng = np.random.default_rng([seed, index])
    rec.tracer = tracer
    before = (rec.body_s, rec.body_cpu_s, rec.body_norm_s)
    if tracer is None:
        rec.run_job(workload.run_round, rng, rec)
    else:
        tracer.recording = False  # Recorder.timed turns it on per timed segment
        with tracer:
            rec.run_job(workload.run_round, rng, rec)
    after = (rec.body_s, rec.body_cpu_s, rec.body_norm_s)
    return tuple(b - a for a, b in zip(before, after))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path.cwd().resolve() / "src" / "isackit"
    if Path(isackit.__file__).resolve().parent != src:
        print(f"error: isackit was imported from {isackit.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    ready = time.monotonic()
    ready_cpu = time.process_time()
    probe = Probe()
    ready_probe = sorted(probe.run() for _ in range(SETUP_PROBES))[SETUP_PROBES // 2]
    out = {"ready": ready, "ready_cpu": ready_cpu, "ready_probe": ready_probe}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    rec = Recorder(probe)
    if args.trace:
        # adjacent untraced and traced runs of the same round in alternating
        # order (plain, traced, traced, plain, ...), so the host's drift
        # cancels in the overhead; counts come from one round
        _round(workload, rec, args.seed, 0)
        pairs, round_cpu, round_norm = [], [], []
        for i in range(TRACE_PAIRS):
            tracer = layers.make_tracer()
            if i % 2 == 0:
                plain = _round(workload, rec, args.seed, 0)
                traced = _round(workload, rec, args.seed, 0, tracer)
            else:
                traced = _round(workload, rec, args.seed, 0, tracer)
                plain = _round(workload, rec, args.seed, 0)
            pairs.append((plain[0], traced[0]))
            round_cpu.append(plain[1])
            round_norm.append(plain[2])
        out["trace_pairs_s"] = pairs
        out["layers"] = layers.layer_metrics(tracer)
        out["tracer_restored"] = tracer.restored()
        round_wall = [plain for plain, _ in pairs]
    else:
        round_wall, round_cpu, round_norm = [], [], []
        started = time.perf_counter()
        while True:
            wall, cpu, norm = _round(workload, rec, args.seed, len(round_wall))
            round_wall.append(wall)
            round_cpu.append(cpu)
            round_norm.append(norm)
            # start another round only if it is expected to end within --seconds
            if (len(round_wall) >= workload.MIN_ROUNDS
                    and time.perf_counter() - started + wall > args.seconds):
                break

    try:
        stages = workload.stage_metrics(rec)
    except (KeyError, ZeroDivisionError):  # a failed round left a stage unmeasured
        stages = {}
    out.update({
        "round_wall_s": round_wall,
        "round_cpu_s": round_cpu,
        "round_norm_s": round_norm,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stages": {name: list(v) for name, v in stages.items()},
        "sizes": workload.SIZES,
        "fingerprint": _fingerprint(),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
