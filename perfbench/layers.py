"""The isackit functions the traced run wraps, and the per-layer metrics
derived from their spans and counters."""

from __future__ import annotations

import numpy as np

from tracer import Tracer

TARGETS = (
    "channel.sample_channel_matrix",
    "waveform_learn.make_dataset",
    "classical_design.procrustes_waveform",
    "classical_design.tradeoff_design",
    "classical_design.epsilon_design",
    "metrics.rate_report",
    "metrics.transmit_beampattern",
    "metrics.awgn_mi_mmse",
    "metrics.simulate_target_echoes",
    "metrics.glrt_statistics",
    "constellation_ae.detection_statistic",
    "constellation_ae.ml_decode",
    "constellation_ae.combined_step",
    "hybrid_pga.train_step_sizes",
    "hybrid_pga.unrolled_loss",
    "hybrid_pga.pga_run_batch",
    "hybrid_pga.grad_F_batch",
    "hybrid_pga.grad_W_batch",
    "neural.train",
    "neural.forward_pass",
    "neural.backward_pass",
    "neural.adam_step",
    "neural.predict",
    "waveform_learn.build_features",
    "waveform_learn.power_projection",
    "waveform_learn.isac_waveform_loss",
    "waveform_learn.symmetry_augment",
)


def _pair_evals(bound) -> int:
    """Symbol pairs awgn_mi_mmse scores: M^2 per noise sample, Q samples."""
    a = bound.arguments
    m = np.asarray(a["points"]).size
    method = a["method"]
    if method == "auto":
        method = "mc" if m > 64 else "quadrature"
    q = a["mc_samples"] if method == "mc" else a["quad_order"] ** 2
    return m * m * q


def _param_elems(bound) -> int:
    """Parameter elements one Adam step updates."""
    return sum(dW.size + db.size for dW, db in bound.arguments["param_grads"])


COUNTERS = {
    "metrics.awgn_mi_mmse.pair_evals": ("metrics.awgn_mi_mmse", _pair_evals),
    "neural.adam_step.param_elems": ("neural.adam_step", _param_elems),
}


def make_tracer() -> Tracer:
    return Tracer(TARGETS, COUNTERS)


def layer_metrics(tracer: Tracer) -> dict:
    """{name: [value, unit]} for every per-layer metric."""
    out = {}
    stats = tracer.layer_stats()
    for target, entry in stats.items():
        out[f"{target}.calls"] = [entry["calls"], "count"]
        out[f"{target}.self_s"] = [entry["self_s"], "s"]
    for name in COUNTERS:
        out[name] = [tracer.counts[name], "count"]
    eps_calls = out["classical_design.epsilon_design.calls"][0]
    inner, _ = tracer.under("classical_design.tradeoff_design",
                            "classical_design.epsilon_design")
    out["classical_design.epsilon_design.tradeoff_calls_per_call"] = [
        inner / eps_calls if eps_calls else 0.0, "ratio"]
    train_s = stats["neural.train"]["total_s"]
    _, adam_s = tracer.under("neural.adam_step", "neural.train")
    out["neural.adam_step.train_share"] = [adam_s / train_s if train_s else 0.0, "ratio"]
    return out
