"""Seeded experiment runner.

Subcommands: `run <config>` executes one experiment and writes CSV artifacts
plus a run_record.json manifest; `validate <config>` checks the config schema
without executing; `version` prints the toolkit version.

Configs are JSON objects: {"experiment": <kind>, "seed": <int>,
"out": <dir, optional>, "params": {<experiment-specific>, optional}}.
The full parameter tables live in docs/config_schema.md. Every CSV value is
printed with 9 significant digits, and a (config, seed) pair reproduces its
CSVs byte for byte on one platform.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channel import AgingParams, ArrayGeometry, RicianParams, age_channel, sample_channel_matrix
from .classical_design import (
    directional_covariance,
    genie_rate,
    procrustes_waveform,
    reference_covariance_omni,
    tradeoff_design,
)
from .constellation_ae import (
    amplitude_spread,
    baseline_constellation,
    calibrate_comm_noise,
    calibrate_radar_noise,
    evaluate_isac,
    export_constellation,
    extract_constellation,
    train_isac_ae,
)
from .hybrid_pga import StepSchedule, make_pga_dataset, pga_run_batch, train_step_sizes
from .metrics import (
    awgn_mi_mmse,
    detection_at_false_alarm,
    gaussian_mi_mmse,
    glrt_statistics,
    rate_report,
    roc_curve,
    simulate_target_echoes,
    transmit_beampattern,
    waveform_covariance,
)
from .neural import TrainConfig
from .waveform_learn import DEFAULT_RICIAN_FACTORS, make_dataset

_EXPERIMENTS = (
    "mi_mmse",
    "case1_rate",
    "case1_roc",
    "case1_beampattern",
    "case1_aging",
    "case2_convergence",
    "case2_snr",
    "case3_sweep",
)


@dataclasses.dataclass
class RunRecord:
    """Manifest written after all artifacts: config echo, version, timing,
    emitted files, and headline metrics."""

    experiment: str
    seed: int
    version: str
    wall_time_s: float
    files: list
    summary: dict
    config: dict


def _fmt(x) -> str:
    return "{:.9g}".format(float(x))


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _noise_from_snr_db(power: float, snr_db: float) -> float:
    return power / (10.0 ** (snr_db / 10.0))


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


# ------------------------------------------------------------------ schema


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and np.isfinite(v)


def _pos_int(v) -> bool:
    return _is_int(v) and v > 0


def _pos_num(v) -> bool:
    return _is_num(v) and v > 0


def _nonneg_num(v) -> bool:
    return _is_num(v) and v >= 0


def _unit_num(v) -> bool:
    return _is_num(v) and 0.0 <= v <= 1.0


def _num_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(_is_num(x) for x in v)


def _unit_list(v) -> bool:
    return _num_list(v) and all(0.0 <= x <= 1.0 for x in v)


def _angle_list(v) -> bool:
    return _num_list(v) and all(-90.0 <= x <= 90.0 for x in v)


_CHECKS = {
    "snr_db": (_num_list, "must be a nonempty list of finite numbers"),
    "snr_db_point": (_is_num, "must be a finite number"),
    "quad_order": (_pos_int, "must be a positive integer"),
    "num_antennas": (_pos_int, "must be a positive integer"),
    "num_users": (_pos_int, "must be a positive integer"),
    "frame_length": (_pos_int, "must be a positive integer"),
    "num_channels": (_pos_int, "must be a positive integer"),
    "weight": (_unit_num, "must lie in [0, 1]"),
    "weights": (_unit_list, "must be a nonempty list of values in [0, 1]"),
    "total_power": (_pos_num, "must be a positive number"),
    "trials": (_pos_int, "must be a positive integer"),
    "target_angle_deg": (lambda v: _is_num(v) and -90 <= v <= 90,
                         "must be an angle in [-90, 90] degrees"),
    "target_angles_deg": (_angle_list,
                          "must be a list of angles in [-90, 90] degrees"),
    "echo_gain": (_pos_num, "must be a positive number"),
    "grid_points": (lambda v: _is_int(v) and v >= 16,
                    "must be an integer of at least 16"),
    "user_speed": (_nonneg_num, "must be a nonnegative number"),
    "carrier_freq": (_pos_num, "must be a positive number"),
    "sample_period": (_pos_num, "must be a positive number"),
    "num_chains": (_pos_int, "must be a positive integer"),
    "num_layers": (_pos_int, "must be a positive integer"),
    "num_train": (_pos_int, "must be a positive integer"),
    "num_test": (_pos_int, "must be a positive integer"),
    "noise_var": (_pos_num, "must be a positive number"),
    "lr": (_pos_num, "must be a positive number"),
    "epochs": (_pos_int, "must be a positive integer"),
    "batch_size": (_pos_int, "must be a positive integer"),
    "init_step": (_pos_num, "must be a positive number"),
    "num_bits": (lambda v: _is_int(v) and 1 <= v <= 8,
                 "must be an integer in [1, 8]"),
    "etas": (_unit_list, "must be a nonempty list of values in [0, 1]"),
    "samples_per_epoch": (_pos_int, "must be a positive integer"),
    "target_ser": (lambda v: _is_num(v) and 0 < v < 1,
                   "must lie strictly inside (0, 1)"),
    "target_pd": (lambda v: _is_num(v) and 0 < v < 1,
                  "must lie strictly inside (0, 1)"),
    "target_pfa": (lambda v: _is_num(v) and 0 < v < 1,
                   "must lie strictly inside (0, 1)"),
}

_DEFAULTS = {
    "mi_mmse": {
        "snr_db": [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0],
        "quad_order": 20,
    },
    "case1_rate": {
        "num_antennas": 8, "num_users": 2, "frame_length": 8,
        "num_channels": 50, "weight": 0.2, "total_power": 1.0,
        "snr_db": [-2.0, 2.0, 6.0, 10.0],
    },
    "case1_roc": {
        "num_antennas": 8, "num_users": 2, "frame_length": 8,
        "weights": [0.2, 0.5], "snr_db_point": 0.0, "trials": 20000,
        "target_angle_deg": 0.0, "echo_gain": 0.3, "total_power": 1.0,
    },
    "case1_beampattern": {
        "num_antennas": 10, "num_users": 2, "frame_length": 16,
        "weight": 0.2, "total_power": 1.0,
        "target_angles_deg": [-60.0, 0.0, 60.0], "grid_points": 361,
    },
    "case1_aging": {
        "num_antennas": 8, "num_users": 2, "frame_length": 8,
        "num_channels": 50, "weight": 0.2, "total_power": 1.0,
        "snr_db": [6.0], "user_speed": 2.0, "carrier_freq": 3.2e9,
        "sample_period": 1e-3,
    },
    "case2_convergence": {
        "num_antennas": 8, "num_chains": 3, "num_users": 2, "num_layers": 8,
        "num_train": 100, "num_test": 30, "total_power": 10.0,
        "noise_var": 1.0, "lr": 0.005, "epochs": 6, "batch_size": 50,
        "init_step": 0.05,
    },
    "case2_snr": {
        "num_antennas": 8, "num_chains": 3, "num_users": 2, "num_layers": 8,
        "num_train": 100, "num_test": 30, "total_power": 10.0,
        "lr": 0.005, "epochs": 6, "batch_size": 50, "init_step": 0.05,
        "snr_db": [-5.0, 0.0, 5.0, 10.0],
    },
    "case3_sweep": {
        "num_bits": 4, "etas": [0.05, 0.7, 0.9], "epochs": 6,
        "batch_size": 200, "samples_per_epoch": 4000, "lr": 1e-3,
        "trials": 20000, "target_ser": 10 ** -0.49, "target_pd": 0.935,
        "target_pfa": 0.0085,
    },
}


def validate_config(cfg) -> list:
    """Schema diagnostics without execution; empty list means valid."""
    if not isinstance(cfg, dict):
        return ["config root must be a JSON object"]
    out = []
    for key in cfg:
        if key not in ("experiment", "seed", "out", "params"):
            out.append(f"{key}: unknown top-level field")
    kind = cfg.get("experiment")
    if kind is None:
        out.append("experiment: missing required field")
    elif kind not in _EXPERIMENTS:
        out.append("experiment: unknown kind {!r} (expected one of: {})"
                   .format(kind, ", ".join(_EXPERIMENTS)))
    if "seed" not in cfg:
        out.append("seed: missing required field")
    elif not _is_int(cfg["seed"]):
        out.append("seed: must be an integer")
    if "out" in cfg and not isinstance(cfg["out"], str):
        out.append("out: must be a string path")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        out.append("params: must be an object")
    elif kind in _DEFAULTS:
        table = _DEFAULTS[kind]
        invalid = False
        for name, value in params.items():
            if name not in table:
                out.append(f"params.{name}: unknown parameter for {kind}")
                continue
            check, message = _CHECKS[name]
            if not check(value):
                out.append(f"params.{name}: {message}")
                invalid = True
        if kind.startswith("case1_") and not invalid:
            out.extend(_case1_cross_checks({**table, **params}))
    return out


def _case1_cross_checks(p) -> list:
    """Constraints between fields that every case1 experiment needs."""
    out = []
    if p["frame_length"] < p["num_antennas"]:
        out.append("params.frame_length: must be at least num_antennas "
                   f"({p['num_antennas']})")
    limit = len(DEFAULT_RICIAN_FACTORS)
    if p["num_users"] > limit:
        out.append(f"params.num_users: must be at most {limit} (one default "
                   "Rician factor per user)")
    return out


def load_config(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    return json.loads(text)


# -------------------------------------------------------------- experiments


def _run_mi_mmse(p, rng, out_dir, files):
    qpsk = baseline_constellation("PSK", 4).points
    bpsk = np.array([-1.0 + 0j, 1.0 + 0j])
    rows = []
    for snr_db in p["snr_db"]:
        snr = 10.0 ** (snr_db / 10.0)
        for name, point in (
            ("gaussian", gaussian_mi_mmse(snr)),
            ("qpsk", awgn_mi_mmse(qpsk, snr, quad_order=p["quad_order"])),
            ("bpsk", awgn_mi_mmse(bpsk, snr, quad_order=p["quad_order"])),
        ):
            rows.append((_fmt(snr_db), name, _fmt(point.mutual_info),
                         _fmt(point.mmse)))
    path = out_dir / "mi_mmse.csv"
    _write_csv(path, "snr_db,input,mi_nats,mmse", rows)
    files.append(path.name)
    return {"grid_points": len(p["snr_db"]), "inputs": 3}


def _run_case1_rate(p, rng, out_dir, files):
    samples = make_dataset(p["num_channels"], p["num_antennas"],
                           p["num_users"], p["frame_length"], rng,
                           total_power=p["total_power"])
    designs = [tradeoff_design(s.H, s.D, s.X0, p["weight"], p["total_power"])
               for s in samples]
    rows = []
    summary = {}
    for snr_db in p["snr_db"]:
        noise = _noise_from_snr_db(p["total_power"], snr_db)
        means = {"reference": 0.0, "tradeoff": 0.0, "genie": 0.0}
        for s, d in zip(samples, designs):
            means["reference"] += rate_report(s.H, s.X0.X, s.D, noise).sum_rate
            means["tradeoff"] += rate_report(s.H, d.X, s.D, noise).sum_rate
            means["genie"] += genie_rate(s.D, noise).sum_rate
        for method in ("reference", "tradeoff", "genie"):
            mean = means[method] / len(samples)
            rows.append((_fmt(snr_db), method, _fmt(mean)))
            summary[f"{method}_at_{snr_db:g}dB"] = mean
    path = out_dir / "rate.csv"
    _write_csv(path, "snr_db,method,sum_rate_bits", rows)
    files.append(path.name)
    return summary


def _run_case1_roc(p, rng, out_dir, files):
    sample = make_dataset(1, p["num_antennas"], p["num_users"],
                          p["frame_length"], rng,
                          total_power=p["total_power"])[0]
    geom = ArrayGeometry(p["num_antennas"])
    angle = np.deg2rad(p["target_angle_deg"])
    noise = _noise_from_snr_db(p["total_power"], p["snr_db_point"])
    rows = []
    summary = {}
    for w in p["weights"]:
        X = tradeoff_design(sample.H, sample.D, sample.X0, w,
                            p["total_power"]).X
        h0 = simulate_target_echoes(X, angle, 0.0, noise, geom,
                                    p["trials"], rng)
        h1 = simulate_target_echoes(X, angle, p["echo_gain"], noise, geom,
                                    p["trials"], rng)
        curve = roc_curve(glrt_statistics(h0, angle, X, noise, geom),
                          glrt_statistics(h1, angle, X, noise, geom))
        method = f"eta_{w:g}"
        for t, pfa, pd in zip(curve.thresholds, curve.pfa, curve.pd):
            rows.append((_fmt(t), _fmt(pfa), _fmt(pd), method))
        summary[f"pd_at_pfa_0.2_{method}"] = detection_at_false_alarm(curve, 0.2)
    path = out_dir / "roc.csv"
    _write_csv(path, "threshold,pfa,pd,method", rows)
    files.append(path.name)
    return summary


def _run_case1_beampattern(p, rng, out_dir, files):
    geom = ArrayGeometry(p["num_antennas"])
    targets = np.deg2rad(np.asarray(p["target_angles_deg"], dtype=float))
    template = directional_covariance(targets, p["total_power"], geom)
    sample = make_dataset(1, p["num_antennas"], p["num_users"],
                          p["frame_length"], rng,
                          total_power=p["total_power"],
                          reference="directional", target_angles=targets)[0]
    trade = tradeoff_design(sample.H, sample.D, sample.X0, p["weight"],
                            p["total_power"])
    angles = np.linspace(-np.pi / 2, np.pi / 2, p["grid_points"])
    curves = (
        ("template", transmit_beampattern(template.matrix, angles, geom)),
        ("reference", transmit_beampattern(
            waveform_covariance(sample.X0.X), angles, geom)),
        ("tradeoff", transmit_beampattern(
            waveform_covariance(trade.X), angles, geom)),
    )
    rows = []
    for method, curve in curves:
        for a, g in zip(curve.angles, curve.gains):
            rows.append((_fmt(a), method, _fmt(g)))
    path = out_dir / "beampattern.csv"
    _write_csv(path, "angle_rad,method,gain", rows)
    files.append(path.name)
    peak = angles[int(np.argmax(curves[1][1].gains))]
    return {"reference_peak_deg": float(np.rad2deg(peak))}


def _run_case1_aging(p, rng, out_dir, files):
    M, K, tau = p["num_antennas"], p["num_users"], p["frame_length"]
    geom = ArrayGeometry(M)
    base_angles = (np.linspace(-np.pi / 3, np.pi / 3, K) if K > 1
                   else np.array([0.0]))
    alt_angles = np.linspace(-np.pi / 2.1, -np.pi / 18, K)
    factors = DEFAULT_RICIAN_FACTORS[:K]
    users = [RicianParams(rician_factor=f, departure_angle=a)
             for f, a in zip(factors, base_angles)]
    alt_users = [RicianParams(rician_factor=f, departure_angle=a)
                 for f, a in zip(factors, alt_angles)]
    aging = AgingParams(user_speed=p["user_speed"],
                        carrier_freq=p["carrier_freq"],
                        sample_period=p["sample_period"])
    template = reference_covariance_omni(p["total_power"], M)
    qpsk = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))

    def design(H, D):
        X0 = procrustes_waveform(template, H, D, tau)
        return tradeoff_design(H, D, X0, p["weight"], p["total_power"]).X

    triples = []
    for _ in range(p["num_channels"]):
        H_old = sample_channel_matrix(users, geom, rng)
        H_new = np.stack([age_channel(H_old.entries[k], users[k], geom,
                                      aging, rng) for k in range(K)])
        H_alt = sample_channel_matrix(alt_users, geom, rng)
        D = qpsk[rng.integers(0, 4, size=(K, tau))]
        triples.append((design(H_new, D), design(H_old.entries, D),
                        design(H_alt.entries, D), H_new, D))
    rows = []
    summary = {}
    for snr_db in p["snr_db"]:
        noise = _noise_from_snr_db(p["total_power"], snr_db)
        means = {"matched": 0.0, "aged": 0.0, "topology": 0.0}
        for Xm, Xa, Xt, H_new, D in triples:
            means["matched"] += rate_report(H_new, Xm, D, noise).sum_rate
            means["aged"] += rate_report(H_new, Xa, D, noise).sum_rate
            means["topology"] += rate_report(H_new, Xt, D, noise).sum_rate
        for method in ("matched", "aged", "topology"):
            mean = means[method] / len(triples)
            rows.append((_fmt(snr_db), method, _fmt(mean)))
            summary[f"{method}_at_{snr_db:g}dB"] = mean
        base = means["matched"]
        summary[f"aged_loss_pct_at_{snr_db:g}dB"] = \
            100.0 * (1.0 - means["aged"] / base)
        summary[f"topology_loss_pct_at_{snr_db:g}dB"] = \
            100.0 * (1.0 - means["topology"] / base)
    path = out_dir / "rate.csv"
    _write_csv(path, "snr_db,method,sum_rate_bits", rows)
    files.append(path.name)
    return summary


def _convergence_curves(p, noise_var, rng):
    train = make_pga_dataset(p["num_train"], p["num_antennas"],
                             p["num_chains"], p["num_users"], rng,
                             power=p["total_power"], noise_var=noise_var)
    test = make_pga_dataset(p["num_test"], p["num_antennas"],
                            p["num_chains"], p["num_users"], rng,
                            power=p["total_power"], noise_var=noise_var)
    learned = train_step_sizes(train, p["num_layers"], lr=p["lr"],
                               epochs=p["epochs"],
                               init_step=p["init_step"],
                               batch_size=p["batch_size"],
                               seed=_child_seed(rng))
    fixed = StepSchedule.fixed(p["init_step"], p["num_layers"])
    curves = {}
    for method, schedule in (("pga", fixed), ("unrolled_pga", learned)):
        _, _, rates = pga_run_batch(test.channels, test.F0, test.W0,
                                    schedule, test.power,
                                    noise_var=test.noise_var)
        curves[method] = rates
    return curves


def _run_case2_convergence(p, rng, out_dir, files):
    curves = _convergence_curves(p, p["noise_var"], rng)
    rows = []
    for method in ("pga", "unrolled_pga"):
        mean_by_layer = curves[method].mean(axis=0)
        for i, rate in enumerate(mean_by_layer, start=1):
            rows.append(("{:d}".format(i), method, _fmt(rate)))
    path = out_dir / "convergence.csv"
    _write_csv(path, "layer,method,rate_nats", rows)
    files.append(path.name)
    final_f = curves["pga"][:, -1]
    final_l = curves["unrolled_pga"][:, -1]
    return {
        "fixed_final_rate_nats": float(final_f.mean()),
        "learned_final_rate_nats": float(final_l.mean()),
        "learned_wins_fraction": float(np.mean(final_l >= final_f)),
    }


def _run_case2_snr(p, rng, out_dir, files):
    rows = []
    summary = {}
    for snr_db in p["snr_db"]:
        noise = _noise_from_snr_db(p["total_power"], snr_db)
        curves = _convergence_curves(p, noise, rng)
        for method in ("pga", "unrolled_pga"):
            bits = float(curves[method][:, -1].mean()) / np.log(2.0)
            rows.append((_fmt(snr_db), method, _fmt(bits)))
            summary[f"{method}_bits_at_{snr_db:g}dB"] = bits
    path = out_dir / "rate.csv"
    _write_csv(path, "snr_db,method,sum_rate_bits", rows)
    files.append(path.name)
    return summary


def _run_case3_sweep(p, rng, out_dir, files):
    M = 2 ** p["num_bits"]
    psk = baseline_constellation("PSK", M)
    comm_var = calibrate_comm_noise(psk, p["target_ser"], p["trials"], rng)
    radar_var, threshold = calibrate_radar_noise(
        psk, p["target_pd"], p["target_pfa"], p["trials"], rng)
    summary = {"comm_noise_var": comm_var, "radar_noise_var": radar_var,
               "threshold": threshold}

    def record(tag, const):
        path = out_dir / f"constellation_{tag}.csv"
        export_constellation(const, path)
        files.append(path.name)
        ser, pd, pfa = evaluate_isac(const, comm_var, radar_var, threshold,
                                     p["trials"],
                                     np.random.default_rng(_child_seed(rng)))
        summary[f"{tag}_ser"] = ser
        summary[f"{tag}_pd"] = pd
        summary[f"{tag}_pfa"] = pfa
        summary[f"{tag}_spread"] = amplitude_spread(const)

    record("psk", psk)
    side = int(round(np.sqrt(M)))
    if side * side == M or M == 32:
        record("qam", baseline_constellation("QAM", M))
    for eta in p["etas"]:
        cfg = TrainConfig(epochs=p["epochs"], batch_size=p["batch_size"],
                          lr=p["lr"], seed=_child_seed(rng))
        model = train_isac_ae(eta, p["num_bits"], comm_var, radar_var, cfg,
                              samples_per_epoch=p["samples_per_epoch"])
        record("eta_{:g}".format(eta), extract_constellation(model))
    return summary


_RUNNERS = {
    "mi_mmse": _run_mi_mmse,
    "case1_rate": _run_case1_rate,
    "case1_roc": _run_case1_roc,
    "case1_beampattern": _run_case1_beampattern,
    "case1_aging": _run_case1_aging,
    "case2_convergence": _run_case2_convergence,
    "case2_snr": _run_case2_snr,
    "case3_sweep": _run_case3_sweep,
}


def run_experiment(cfg: dict, out_dir) -> RunRecord:
    """Execute a validated config and write artifacts plus the manifest."""
    kind = cfg["experiment"]
    params = dict(_DEFAULTS[kind])
    params.update(cfg.get("params", {}))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "run_record.json"
    # a manifest left by an earlier run must not vouch for this one
    manifest.unlink(missing_ok=True)
    rng = np.random.default_rng(cfg["seed"])
    files: list = []
    start = time.perf_counter()
    summary = _RUNNERS[kind](params, rng, out_dir, files)
    record = RunRecord(
        experiment=kind,
        seed=cfg["seed"],
        version=__version__,
        wall_time_s=time.perf_counter() - start,
        files=files,
        summary={k: (float(v) if isinstance(v, (int, float, np.floating))
                     else v) for k, v in summary.items()},
        config={"experiment": kind, "seed": cfg["seed"],
                "out": str(out_dir), "params": params},
    )
    # the manifest is the atomicity marker: written after every artifact,
    # and moved into place whole so that a failed write leaves none
    tmp = out_dir / "run_record.json.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(record), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, manifest)
    finally:
        tmp.unlink(missing_ok=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isackit", description="seeded experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--out", default=None,
                       help="override the output directory")
    val_p = sub.add_parser("validate", help="schema-check a config")
    val_p.add_argument("config")
    sub.add_parser("version", help="print the toolkit version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0

    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}",
              file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    diagnostics = validate_config(cfg)
    if args.command == "validate":
        for line in diagnostics:
            print(line)
        return 2 if diagnostics else 0

    if diagnostics:
        for line in diagnostics:
            print(f"error: {line}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = args.out or cfg.get("out", "results")
    try:
        record = run_experiment(cfg, out_dir)
    except Exception as exc:  # surface module errors with a nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("wrote {} artifact(s) to {} in {:.2f} s".format(
        len(record.files), out_dir, record.wall_time_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
