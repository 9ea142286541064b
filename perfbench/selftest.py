"""Checks of the benchmark's tracer. Run from the repository root:

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parent / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import isackit.cli  # noqa: E402,F401  (loads every module the tracer patches)
import numpy as np  # noqa: E402
from isackit import constellation_ae, metrics, neural, waveform_learn  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def _namespaces():
    """Identity snapshot of every attribute of every loaded isackit module."""
    return {(name, attr): value
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "isackit" or name.startswith("isackit."))
            for attr, value in vars(module).items()}


def test_restore_leaves_every_module_attribute_identical():
    before = _namespaces()
    tracer = layers.make_tracer()
    with tracer:
        # a name imported into another module is patched with the same wrapper
        assert constellation_ae.adam_step is neural.adam_step
        assert neural.adam_step is not before[("isackit.neural", "adam_step")]
        assert waveform_learn.train is neural.train
        assert ("isackit.waveform_learn", "predict") in tracer.patched_names()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.restored()


def test_restore_after_an_exception():
    before = _namespaces()
    tracer = layers.make_tracer()
    try:
        with tracer:
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert tracer.restored()
    assert all(_namespaces()[key] is before[key] for key in before)


def test_self_time_excludes_child_spans():
    model = neural.init_mlp([3, 4, 2], ["relu", "linear"], np.random.default_rng(0))
    tracer = Tracer(["neural.predict", "neural.forward_pass"])
    with tracer:
        neural.predict(model, np.ones((5, 3)))
    stats = tracer.layer_stats()
    assert stats["neural.predict"]["calls"] == 1
    assert stats["neural.forward_pass"]["calls"] == 1
    assert tracer.under("neural.forward_pass", "neural.predict")[0] == 1
    fwd = stats["neural.forward_pass"]["total_s"]
    assert abs(stats["neural.predict"]["self_s"]
               - (stats["neural.predict"]["total_s"] - fwd)) < 1e-12


def test_counters_match_their_definitions():
    qam = constellation_ae.baseline_constellation("QAM", 16).points
    model = neural.init_mlp([3, 4, 2], ["relu", "linear"], np.random.default_rng(0))
    grads = [(np.ones_like(w), np.ones_like(b)) for w, b in zip(model.weights, model.biases)]
    runs = []
    for _ in range(2):
        tracer = layers.make_tracer()
        with tracer:
            metrics.awgn_mi_mmse(qam, 1.0, mc_samples=100, rng=np.random.default_rng(1),
                                 method="mc")
            metrics.awgn_mi_mmse(qam, 1.0, quad_order=4)
            neural.adam_step(neural.init_adam(model), model, grads)
        runs.append(dict(tracer.counts))
    assert runs[0] == runs[1]
    assert runs[0]["metrics.awgn_mi_mmse.pair_evals"] == 16 * 16 * (100 + 4 * 4)
    assert runs[0]["neural.adam_step.param_elems"] == 3 * 4 + 4 + 4 * 2 + 2


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
