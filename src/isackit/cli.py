"""Seeded experiment runner.

Subcommands: `run <config>` executes one experiment and writes CSV artifacts
plus a run_record.json manifest; `validate <config>` checks the config schema
without executing; `version` prints the toolkit version.

Configs are JSON objects: {"experiment": <kind>, "seed": <int>,
"out": <dir, optional>, "params": {<experiment-specific>, optional}}.
The full parameter tables live in docs/config_schema.md. Every CSV value is
printed with 9 significant digits, and a (config, seed) pair reproduces its
CSVs byte for byte on one platform.

Each kind is one _Experiment record (runner, defaults, cross-field checks),
and each parameter name one _Rule (a closed range and its message) shared by
every kind that has it. validate_config and run_experiment read only these:
an experiment is a record, a runner, a docs/config_schema.md table and a config.

Runners compute their CSV tables and write nothing; run_experiment then
writes each CSV, and the manifest last, through a temporary file renamed into
place, so a failed run writes no CSV and leaves none half-written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import time
import typing
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ArrayGeometry, RicianParams, age_channel, sample_channel_matrix
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
from .waveform_learn import DEFAULT_RICIAN_FACTORS, QPSK, make_dataset, scenario_users

@dataclasses.dataclass
class RunRecord:
    """Manifest written after all artifacts: config echo, version, timing,
    emitted files, headline metrics, and the environment the run saw."""

    experiment: str
    seed: int
    version: str
    wall_time_s: float
    files: list
    summary: dict
    config: dict
    environment: dict


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _versions() -> dict:
    """Python, numpy, scipy and BLAS versions, looked up once per process.
    The scipy version comes from the package metadata, so that writing a
    record imports no scipy."""
    import importlib.metadata  # about 20 ms to import; only a finished run needs it

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _fmt(x) -> str:
    return "{:.9g}".format(float(x))


# Case I runs at unit power, so that snr_db is E|d|^2 / sigma^2 of the unit-
# modulus symbols; Case II at power 10, so that noise_var 1 is 10 dB
_CASE2_POWER = 10.0
# the amplitude of case1_roc's target echo; its GLRT reads the echo gain and
# the SNR only through |alpha|^2 ||v||^2 ||s||^2 / sigma^2, which
# snr_db_point sets
_CASE1_ECHO_GAIN = 0.3


def _noise_from_snr_db(power: float, snr_db: float) -> float:
    return power / (10.0 ** (snr_db / 10.0))


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


# ------------------------------------------------------------------ schema

# open ends as closed bounds: the float next to 0 or 1 for "above 0" or
# "below 1", the largest float for "no limit" (refusing inf and larger ints)
_ABOVE_0 = math.nextafter(0.0, 1.0)
_BELOW_1 = math.nextafter(1.0, 0.0)
_HUGE = sys.float_info.max


class _Rule(typing.NamedTuple):
    """A field check as data: a finite number (an integer if `integer`) in
    [lo, hi], or with `many` a nonempty list of them, and its diagnostic."""

    message: str
    lo: float = _ABOVE_0
    hi: float = _HUGE
    integer: bool = False
    many: bool = False

    def accepts(self, value) -> bool:
        if self.many != isinstance(value, list) or value == []:
            return False
        kinds = int if self.integer else (int, float)
        # bool is an int, and nan fails both comparisons
        return all(isinstance(v, kinds) and not isinstance(v, bool) and self.lo <= v <= self.hi
                   for v in (value if self.many else [value]))


_SEED = _Rule("must be a non-negative integer", 0, math.inf, integer=True)

# one rule per parameter name, shared by every experiment that has it
_RULES = {
    **dict.fromkeys(("quad_order", "num_antennas", "num_users", "frame_length",
                     "num_channels", "trials", "num_chains", "num_layers", "num_test",
                     "epochs", "batch_size", "samples_per_epoch"),
                    _Rule("must be a positive integer", 1, integer=True)),
    # a lone user's rate log(total / inter) divides its gain by noise_var
    # alone, and at unit-scale gains the quotient overflows near 1e-307
    "noise_var": _Rule("must be a number of at least 1e-300", 1e-300),
    # a PGA step size (init_step, or one that Adam moves by about lr per
    # minibatch) near 1e200 overflows ||F W||^2 in the first W step.
    # case3_sweep's lr shares the limit
    **dict.fromkeys(("lr", "init_step"),
                    _Rule("must be a positive number at most 1e6", hi=1e6)),
    # step-size training holds out at least one instance and trains on the rest
    "num_train": _Rule("must be an integer of at least 2", 2, integer=True),
    **dict.fromkeys(("weights", "etas"),
                    _Rule("must be a nonempty list of values in [0, 1]", 0.0, 1.0, many=True)),
    **dict.fromkeys(("target_ser", "target_pd", "target_pfa"),
                    _Rule("must lie strictly inside (0, 1)", hi=_BELOW_1)),
    # the SNR range every experiment is run at in the tests; 10^(snr/10)
    # overflows or reaches 0 near ±3080 dB
    "snr_db": _Rule("must be a nonempty list of numbers in [-60, 60] dB", -60.0, 60.0,
                    many=True),
    "snr_db_point": _Rule("must be a number in [-60, 60] dB", -60.0, 60.0),
    "weight": _Rule("must lie in [0, 1]", 0.0, 1.0),
    "target_angle_deg": _Rule("must be an angle in [-90, 90] degrees", -90.0, 90.0),
    "target_angles_deg": _Rule("must be a list of angles in [-90, 90] degrees", -90.0, 90.0,
                               many=True),
    "grid_points": _Rule("must be an integer of at least 16", 16, integer=True),
    "user_speed": _Rule("must be a nonnegative number", 0.0),
    "num_bits": _Rule("must be an integer in [1, 8]", 1, 8, integer=True),
}


def validate_config(cfg) -> list:
    """Schema diagnostics without execution; empty list means valid."""
    if not isinstance(cfg, dict):
        return ["config root must be a JSON object"]
    out = [f"{key}: unknown top-level field" for key in cfg
           if key not in ("experiment", "seed", "out", "params")]
    kind = cfg.get("experiment")
    spec = _EXPERIMENTS.get(kind) if isinstance(kind, str) else None
    if kind is None:
        out.append("experiment: missing required field")
    elif spec is None:
        out.append("experiment: unknown kind {!r} (expected one of: {})"
                   .format(kind, ", ".join(_EXPERIMENTS)))
    if "seed" not in cfg:
        out.append("seed: missing required field")
    elif not _SEED.accepts(cfg["seed"]):
        out.append(f"seed: {_SEED.message}")
    if "out" in cfg and not isinstance(cfg["out"], str):
        out.append("out: must be a string path")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        out.append("params: must be an object")
    elif spec is not None:
        invalid = False
        for name, value in params.items():
            if name not in spec.defaults:
                out.append(f"params.{name}: unknown parameter for {kind}")
            elif not _RULES[name].accepts(value):
                out.append(f"params.{name}: {_RULES[name].message}")
                invalid = True
        if spec.cross_checks and not invalid:
            out.extend(spec.cross_checks({**spec.defaults, **params}))
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


# standard errors between a case3 calibration target and its limit: with
# the skew and count terms of _calibration_margin, no draw misses a target
# inside the margin but by a chance of about 1e-9
_CALIBRATION_SIGMAS = 6.0


def _calibration_margin(trials: int, share: float, spread: float) -> float:
    """Rate by which a Monte-Carlo count over `trials` draws, of mean
    share * trials and variance spread * trials * share * (1 - share), may
    exceed its mean: _CALIBRATION_SIGMAS standard errors, a skew term that
    covers the heavier upper tail of a count with a small mean (as in
    Poisson quantile bounds), and one count."""
    z = _CALIBRATION_SIGMAS
    sd = np.sqrt(spread * trials * share * (1.0 - share))
    return (z * sd + spread * (z * z + 2.0) / 3.0 + 1.0) / trials


def _case3_cross_checks(p) -> list:
    """Operating points the calibration reaches on any draw. As the noise
    grows, the reference PSK errs on a binomial share of the trials around
    1 - 2^-num_bits (a trial whose noise points into its own Voronoi cone
    never errs), and its Pd, at the threshold drawn for target_pfa, tends
    to a share around target_pfa whose variance the drawn threshold
    doubles. Each target must stay a _calibration_margin inside its limit."""
    out = []
    n = p["trials"]
    ceiling = 1.0 - 2.0 ** -p["num_bits"]
    ser_limit = ceiling - _calibration_margin(n, ceiling, 1.0)
    if p["target_ser"] >= ser_limit:
        hint = "; no target is, so raise trials" if ser_limit <= 0 else ""
        out.append(f"params.target_ser: must be below {ser_limit:g}, 1 - 2^-num_bits "
                   f"({ceiling:g}) less the Monte-Carlo margin at {n} trials{hint}")
    pfa = p["target_pfa"]
    pd_floor = pfa + _calibration_margin(n, pfa, 2.0)
    if p["target_pd"] <= pd_floor:
        hint = "; no target is, so raise trials or lower target_pfa" if pd_floor >= 1 else ""
        out.append(f"params.target_pd: must exceed {pd_floor:g}, target_pfa "
                   f"({pfa:g}) plus the Monte-Carlo margin at {n} trials{hint}")
    return out


def load_config(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -------------------------------------------------------------- experiments
# Each runner maps (params, rng) to (tables, summary): tables maps a CSV name
# to its (header, rows), each row a tuple of strings.


def _rate_table(snr_grid, rates, key="{}_at_{:g}dB"):
    """rate.csv and its summary from rates(snr_db) -> ({method: rate}, extra),
    called once per SNR in grid order: one row and one summary entry
    key.format(method, snr_db) per rate, then the SNR's extra entries."""
    rows, summary = [], {}
    for snr_db in snr_grid:
        by_method, extra = rates(snr_db)
        for method, rate in by_method.items():
            rows.append((_fmt(snr_db), method, _fmt(rate)))
            summary[key.format(method, snr_db)] = rate
        summary.update(extra)
    return {"rate.csv": ("snr_db,method,sum_rate_bits", rows)}, summary


def _channel_mean(rates) -> float:
    """Mean over the channels as a left-to-right sum (np.mean sums pairwise)."""
    return sum(rates.tolist()) / len(rates)


def _run_mi_mmse(p, rng):
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
    tables = {"mi_mmse.csv": ("snr_db,input,mi_nats,mmse", rows)}
    return tables, {"grid_points": len(p["snr_db"]), "inputs": 3}


def _run_case1_rate(p, rng):
    ds = make_dataset(p["num_channels"], p["num_antennas"], p["num_users"],
                      p["frame_length"], rng)
    frames = {"reference": ds.X0.X,
              "tradeoff": tradeoff_design(ds.H, ds.D, ds.X0, p["weight"], 1.0).X}

    def rates(snr_db):
        noise = _noise_from_snr_db(1.0, snr_db)
        reports = {m: rate_report(ds.H, X, ds.D, noise) for m, X in frames.items()}
        reports["genie"] = genie_rate(ds.D, noise)
        return {m: _channel_mean(r.sum_rate) for m, r in reports.items()}, {}

    return _rate_table(p["snr_db"], rates)


def _run_case1_roc(p, rng):
    sample = make_dataset(1, p["num_antennas"], p["num_users"], p["frame_length"], rng)[0]
    geom = ArrayGeometry(p["num_antennas"])
    angle = np.deg2rad(p["target_angle_deg"])
    noise = _noise_from_snr_db(1.0, p["snr_db_point"])
    rows = []
    summary = {}
    for w in p["weights"]:
        X = tradeoff_design(sample.H, sample.D, sample.X0, w, 1.0).X
        h0 = simulate_target_echoes(X, angle, 0.0, noise, geom,
                                    p["trials"], rng)
        h1 = simulate_target_echoes(X, angle, _CASE1_ECHO_GAIN, noise, geom,
                                    p["trials"], rng)
        curve = roc_curve(glrt_statistics(h0, angle, X, noise, geom),
                          glrt_statistics(h1, angle, X, noise, geom))
        method = f"eta_{w:g}"
        for t, pfa, pd in zip(curve.thresholds, curve.pfa, curve.pd):
            rows.append((_fmt(t), _fmt(pfa), _fmt(pd), method))
        summary[f"pd_at_pfa_0.2_{method}"] = detection_at_false_alarm(curve, 0.2)
    return {"roc.csv": ("threshold,pfa,pd,method", rows)}, summary


def _run_case1_beampattern(p, rng):
    geom = ArrayGeometry(p["num_antennas"])
    targets = np.deg2rad(np.asarray(p["target_angles_deg"], dtype=float))
    template = directional_covariance(targets, 1.0, geom)
    sample = make_dataset(1, p["num_antennas"], p["num_users"], p["frame_length"],
                          rng, template=template)[0]
    trade = tradeoff_design(sample.H, sample.D, sample.X0, p["weight"], 1.0)
    angles = np.linspace(-np.pi / 2, np.pi / 2, p["grid_points"])
    covs = np.concatenate([template.matrix[None],
                           waveform_covariance(np.stack([sample.X0.X, trade.X]))])
    curve = transmit_beampattern(covs, angles, geom)
    rows = [(_fmt(a), method, _fmt(g))
            for method, gains in zip(("template", "reference", "tradeoff"), curve.gains)
            for a, g in zip(curve.angles, gains)]
    peak = angles[int(np.argmax(curve.gains[1]))]
    return ({"beampattern.csv": ("angle_rad,method,gain", rows)},
            {"reference_peak_deg": float(np.rad2deg(peak))})


def _run_case1_aging(p, rng):
    M, K, tau = p["num_antennas"], p["num_users"], p["frame_length"]
    geom = ArrayGeometry(M)
    users = scenario_users(K)
    alt_angles = np.linspace(-np.pi / 2.1, -np.pi / 18, K)
    alt_users = [RicianParams(rician_factor=u.rician_factor, departure_angle=a)
                 for u, a in zip(users, alt_angles)]
    template = reference_covariance_omni(1.0, M)

    n = p["num_channels"]
    H_old = sample_channel_matrix(users, geom, n, rng).entries
    H_new = age_channel(H_old, users, geom, p["user_speed"], rng)
    H_alt = sample_channel_matrix(alt_users, geom, n, rng).entries
    D = QPSK[rng.integers(0, 4, size=(n, K, tau))]

    def design(H):
        X0 = procrustes_waveform(template, H, D, tau)
        return tradeoff_design(H, D, X0, p["weight"], 1.0).X

    frames = {"matched": design(H_new), "aged": design(H_old),
              "topology": design(H_alt)}

    def rates(snr_db):
        noise = _noise_from_snr_db(1.0, snr_db)
        means = {m: _channel_mean(rate_report(H_new, X, D, noise).sum_rate)
                 for m, X in frames.items()}
        losses = {f"{m}_loss_pct_at_{snr_db:g}dB": 100.0 * (1.0 - means[m] / means["matched"])
                  for m in ("aged", "topology")}
        return means, losses

    return _rate_table(p["snr_db"], rates)


def _convergence_curves(p, noise_var, rng):
    train = make_pga_dataset(p["num_train"], p["num_antennas"],
                             p["num_chains"], p["num_users"], rng,
                             power=_CASE2_POWER, noise_var=noise_var)
    test = make_pga_dataset(p["num_test"], p["num_antennas"],
                            p["num_chains"], p["num_users"], rng,
                            power=_CASE2_POWER, noise_var=noise_var)
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


def _run_case2_convergence(p, rng):
    curves = _convergence_curves(p, p["noise_var"], rng)
    rows = []
    for method in ("pga", "unrolled_pga"):
        mean_by_layer = curves[method].mean(axis=0)
        for i, rate in enumerate(mean_by_layer, start=1):
            rows.append(("{:d}".format(i), method, _fmt(rate)))
    final_f = curves["pga"][:, -1]
    final_l = curves["unrolled_pga"][:, -1]
    return {"convergence.csv": ("layer,method,rate_nats", rows)}, {
        "fixed_final_rate_nats": float(final_f.mean()),
        "learned_final_rate_nats": float(final_l.mean()),
        "learned_wins_fraction": float(np.mean(final_l >= final_f)),
    }


def _run_case2_snr(p, rng):
    def rates(snr_db):
        noise = _noise_from_snr_db(_CASE2_POWER, snr_db)
        curves = _convergence_curves(p, noise, rng)
        return {m: float(c[:, -1].mean()) / np.log(2.0)
                for m, c in curves.items()}, {}

    return _rate_table(p["snr_db"], rates, key="{}_bits_at_{:g}dB")


def _run_case3_sweep(p, rng):
    M = 2 ** p["num_bits"]
    psk = baseline_constellation("PSK", M)
    comm_var = calibrate_comm_noise(psk, p["target_ser"], p["trials"], rng)
    radar_var, threshold = calibrate_radar_noise(
        psk, p["target_pd"], p["target_pfa"], p["trials"], rng)
    tables = {}
    summary = {"comm_noise_var": comm_var, "radar_noise_var": radar_var,
               "threshold": threshold}

    def record(tag, const):
        tables[f"constellation_{tag}.csv"] = (
            "label,re,im", [(str(m), _fmt(z.real), _fmt(z.imag))
                            for m, z in enumerate(const.points)])
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
    return tables, summary


class _Experiment(typing.NamedTuple):
    """An `isackit run` kind: its runner, parameter defaults and the checks
    between parameters, which run once each passes its _RULES entry."""

    run: Callable
    defaults: dict
    cross_checks: Callable | None = None


_EXPERIMENTS = {
    "mi_mmse": _Experiment(_run_mi_mmse, {
        "snr_db": [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0],
        "quad_order": 20,
    }),
    "case1_rate": _Experiment(_run_case1_rate, {
        "num_antennas": 8, "num_users": 2, "frame_length": 8,
        "num_channels": 50, "weight": 0.2,
        "snr_db": [-2.0, 2.0, 6.0, 10.0],
    }, _case1_cross_checks),
    "case1_roc": _Experiment(_run_case1_roc, {
        "num_antennas": 8, "num_users": 2, "frame_length": 8,
        "weights": [0.2, 0.5], "snr_db_point": 0.0, "trials": 20000,
        "target_angle_deg": 0.0,
    }, _case1_cross_checks),
    "case1_beampattern": _Experiment(_run_case1_beampattern, {
        "num_antennas": 10, "num_users": 2, "frame_length": 16,
        "weight": 0.2,
        "target_angles_deg": [-60.0, 0.0, 60.0], "grid_points": 361,
    }, _case1_cross_checks),
    "case1_aging": _Experiment(_run_case1_aging, {
        "num_antennas": 8, "num_users": 2, "frame_length": 8,
        "num_channels": 50, "weight": 0.2,
        "snr_db": [6.0], "user_speed": 2.0,
    }, _case1_cross_checks),
    "case2_convergence": _Experiment(_run_case2_convergence, {
        "num_antennas": 8, "num_chains": 3, "num_users": 2, "num_layers": 8,
        "num_train": 100, "num_test": 30,
        "noise_var": 1.0, "lr": 0.005, "epochs": 6, "batch_size": 50,
        "init_step": 0.05,
    }),
    "case2_snr": _Experiment(_run_case2_snr, {
        "num_antennas": 8, "num_chains": 3, "num_users": 2, "num_layers": 8,
        "num_train": 100, "num_test": 30,
        "lr": 0.005, "epochs": 6, "batch_size": 50, "init_step": 0.05,
        "snr_db": [-5.0, 0.0, 5.0, 10.0],
    }),
    "case3_sweep": _Experiment(_run_case3_sweep, {
        "num_bits": 4, "etas": [0.05, 0.7, 0.9], "epochs": 6,
        "batch_size": 200, "samples_per_epoch": 4000, "lr": 1e-3,
        "trials": 20000, "target_ser": 10 ** -0.49, "target_pd": 0.935,
        "target_pfa": 0.0085,
    }, _case3_cross_checks),
}


def _write_atomic(path: Path, write) -> None:
    """Fill a temporary file beside path with write(fh) and rename it into
    place, so that path holds the whole file or is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run_experiment(cfg: dict, out_dir) -> RunRecord:
    """Execute a validated config, then write its CSVs and the manifest:
    a runner that raises leaves out_dir as it was."""
    kind = cfg["experiment"]
    spec = _EXPERIMENTS[kind]
    params = {**spec.defaults, **cfg.get("params", {})}
    out_dir = Path(out_dir)
    rng = np.random.default_rng(cfg["seed"])
    start = time.perf_counter()
    tables, summary = spec.run(params, rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    # an earlier run's manifest must not vouch for the CSVs about to change
    manifest = out_dir / "run_record.json"
    manifest.unlink(missing_ok=True)
    for name, (header, rows) in tables.items():
        lines = [header, *(",".join(row) for row in rows)]
        _write_atomic(out_dir / name, lambda fh: fh.write("\n".join(lines) + "\n"))
    record = RunRecord(
        experiment=kind,
        seed=cfg["seed"],
        version=__version__,
        wall_time_s=time.perf_counter() - start,
        files=list(tables),
        summary={k: float(v) for k, v in summary.items()},
        config={"experiment": kind, "seed": cfg["seed"],
                "out": str(out_dir), "params": params},
        # the BLAS thread variables as this run sees them, None where unset
        environment={**_versions(), "blas_thread_vars": {
            name: os.environ.get(name) for name in _BLAS_THREAD_VARS}},
    )

    def write_manifest(fh):
        json.dump(dataclasses.asdict(record), fh, indent=2)
        fh.write("\n")

    _write_atomic(manifest, write_manifest)
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

    if args.command == "run" and args.seed is not None and isinstance(cfg, dict):
        cfg["seed"] = args.seed
    diagnostics = validate_config(cfg)
    if args.command == "validate":
        for line in diagnostics:
            print(line)
        return 2 if diagnostics else 0

    if diagnostics:
        for line in diagnostics:
            print(f"error: {line}", file=sys.stderr)
        return 2
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
