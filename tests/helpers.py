"""Test helpers shared across test modules: a fresh-process runner for this
checkout's isackit, the per-instance hybrid sum-rate oracle, and the
steering-grid beampattern oracle."""

import os
import pathlib
import subprocess
import sys

import numpy as np

import isackit


def run_python(args, **env):
    """Runs `python -W error args...` in a fresh process that imports this
    checkout's isackit (its `src` first on PYTHONPATH) with `env` added to
    the environment, so that a warning fails it as one fails the tests run
    in process; asserts that it exits 0 and returns its stdout."""
    src = str(pathlib.Path(isackit.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-W", "error", *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def hybrid_sum_rate(channels, F, W, noise_var):
    """Sum rate (nats) of one hybrid beamformer: channels is K x N (rows h_k),
    F the N x L analog stage, W the L x K digital stage."""
    T = np.asarray(channels).conj() @ F @ W  # T[k, j] = h_k^H F w_j
    p = np.abs(T) ** 2
    total = p.sum(axis=1) + noise_var
    return float(np.sum(np.log(total / (total - np.diag(p)))))


def pattern_gains(V, C):
    """Re v_a^H C v_a for each column v_a of V (M x A), one row of A gains per
    covariance of a (..., M, M) stack: the O(M^2 A) einsum that the lag-sum
    kernel replaced."""
    return np.einsum("ma,...mn,na->...a", V.conj(), C, V).real
