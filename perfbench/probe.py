"""Host-speed probe: a fixed reference computation timed between segments.

On a shared host the speed of one core drifts by tens of percent within
seconds, and CPU time drifts with it. The probe is a fixed mix of the kinds
of work the workloads do: a Python loop over small complex linear algebra,
batched einsum contractions over a stack of small matrices, and vectorized
passes over an array too large for the L1/L2 caches. It
never calls isackit, so a change to the program leaves it unchanged. A
segment's CPU seconds times `NOMINAL_S / probe seconds` is its normalized
time: what it would take on a host where the probe takes `NOMINAL_S`.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.01  # probe CPU seconds on the reference host
SMALL_LOOPS = 30
BATCH = (64, 64, 4)  # stack size, rows, columns of the batched contractions
BATCH_LOOPS = 2
LARGE_ELEMS = 1 << 17


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20250418)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.gram = a @ a.conj().T
        self.rhs = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
        self.stack = rng.standard_normal(BATCH) + 1j * rng.standard_normal(BATCH)
        self.large = rng.standard_normal(LARGE_ELEMS) + 1j * rng.standard_normal(LARGE_ELEMS)

    def run(self) -> float:
        """CPU seconds of one pass of the reference computation."""
        start = time.process_time()
        acc = 0.0
        for k in range(SMALL_LOOPS):
            vals, vecs = np.linalg.eigh(self.gram)
            x = vecs @ ((vecs.conj().T @ self.rhs) / (vals[:, None] + 1.0 + k))
            acc += float(np.linalg.norm(x))
        for _ in range(BATCH_LOOPS):
            gram = np.einsum("bnk,bnl->bkl", self.stack.conj(), self.stack)
            proj = np.einsum("bnk,bkl->bnl", self.stack, gram)
            acc += float(np.abs(np.einsum("bnl,bnl->", proj.conj(), self.stack)))
        y = np.abs(self.large) * self.large + self.large.conj()
        acc += float(np.abs(np.vdot(y, self.large)))
        elapsed = time.process_time() - start
        if not np.isfinite(acc):
            raise FloatingPointError("probe produced a non-finite value")
        return elapsed
