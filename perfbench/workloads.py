"""The four benchmark workloads, written against isackit's public API.

Each workload is a closed loop: one job starts when the previous one ends. A
round is one fixed pipeline of jobs whose inputs are drawn from the round's
seeded generator; `Recorder` times the library calls, keeps per-stage
samples, and counts the oracle checks that feed `fail_frac`. The checks run
outside the timed segments, so their cost never shows in the metrics.

Library calls go through module attributes (`cd.tradeoff_design`, not a
name imported here) so that the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import signal
import sys
import time
import traceback

import numpy as np
from isackit import channel
from isackit import classical_design as cd
from isackit import constellation_ae as ca
from isackit import hybrid_pga as hp
from isackit import metrics as mt
from isackit import neural as nn
from isackit import waveform_learn as wl
from probe import NOMINAL_S, Probe


PROBE_EVERY_S = 0.25  # host-speed probe period, wall seconds


class Recorder:
    """Timed segments, per-stage samples and oracle-check counts of a run.

    Each timed segment adds to three clocks: wall seconds, CPU seconds, and
    normalized seconds. Host-speed probes (probe.py) cut the segments into
    intervals: one when a segment starts and one when it ends, unless the
    last probe is fresher than PROBE_EVERY_S, and one every PROBE_EVERY_S
    inside a segment, from a SIGALRM timer. An interval's normalized time is
    its CPU seconds times NOMINAL_S over the mean of the probes at its two
    ends. The probes' own time is in no clock.

    With a tracer, spans are recorded only inside timed segments, so oracle
    checks that call the library stay out of the per-layer numbers, and the
    timer stays off, so no probe runs inside a span.
    """

    def __init__(self, probe: Probe):
        self.tracer = None
        self.body_s = 0.0
        self.body_cpu_s = 0.0
        self.body_norm_s = 0.0
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self._probe = probe
        self._probe_s = None
        self._probed_at = -np.inf
        self._mark = None  # (wall, cpu, probe seconds) where the open interval began
        self._segment_s = 0.0
        self._closing = False

    def _probe_now(self) -> float:
        """Probe seconds, measured afresh if the last probe is stale."""
        if time.perf_counter() - self._probed_at >= PROBE_EVERY_S:
            self._probe_s = self._probe.run()
            self._probed_at = time.perf_counter()
        return self._probe_s

    def _open(self) -> None:
        probe_s = self._probe_now()
        self._mark = (time.perf_counter(), time.process_time(), probe_s)

    def _close(self) -> None:
        """End the open interval at a probe, add it to the clocks, open the next."""
        wall, cpu = time.perf_counter(), time.process_time()
        wall0, cpu0, probe0 = self._mark
        probe_s = self._probe_now()
        self.body_s += wall - wall0
        self.body_cpu_s += cpu - cpu0
        self.body_norm_s += (cpu - cpu0) * NOMINAL_S / (0.5 * (probe0 + probe_s))
        self._segment_s += wall - wall0
        self._mark = (time.perf_counter(), time.process_time(), probe_s)

    def _on_timer(self, signum, frame) -> None:
        if not self._closing:  # a late tick must not re-enter _close
            self._closing = True
            try:
                self._close()
            finally:
                self._closing = False

    @contextlib.contextmanager
    def timed(self, stage=None):
        self._segment_s = 0.0
        self._open()
        if self.tracer is not None:
            self.tracer.recording = True
        else:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.recording = False
            else:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self._closing = True
            self._close()
            self._closing = False
        if stage is not None:
            self.samples.setdefault(stage, []).append(self._segment_s)

    def note(self, stage, value):
        self.samples.setdefault(stage, []).append(float(value))

    def check(self, ok, what: str) -> None:
        """Count one oracle check per element of `ok`."""
        ok = np.asarray(ok, dtype=bool).ravel()
        bad = int(ok.size - np.count_nonzero(ok))
        self.attempted += ok.size
        self.failed += bad
        if bad:
            print(f"check failed: {what} ({bad} of {ok.size})", file=sys.stderr)

    def run_job(self, job, *args) -> None:
        """Run one job; an exception counts as one failed operation."""
        try:
            job(*args)
        except Exception:  # the loop must go on and report the failure
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1


def _child_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _median(values) -> float:
    return float(np.median(values))


# ---------------------------------------------------------------- case 1


class Case1Classical:
    """Per-channel classical designs: a 10-weight trade-off sweep, one
    epsilon-constraint design, a rate report per design, one beampattern."""

    MIN_ROUNDS = 4  # 200 jobs per run, so ten lie beyond the p95
    SIZES = {"jobs": 50, "M": 16, "K": 4, "tau": 32, "weights": 10,
             "beampattern_angles": 181, "snr_db": 6.0}

    def __init__(self):
        s = self.SIZES
        self.power = 1.0
        self.weights = np.linspace(0.0, 1.0, s["weights"])
        self.noise = self.power / 10.0 ** (s["snr_db"] / 10.0)
        self.geom = channel.ArrayGeometry(s["M"])
        self.angles = np.linspace(-np.pi / 2, np.pi / 2, s["beampattern_angles"])

    def run_round(self, rng, rec: Recorder) -> None:
        s = self.SIZES
        with rec.timed():
            dataset = wl.make_dataset(s["jobs"], s["M"], s["K"], s["tau"], rng,
                                      total_power=self.power)
        for sample in dataset:
            rec.run_job(self._job, sample, rec)

    def _job(self, sample, rec: Recorder) -> None:
        H, D, X0 = sample.H, sample.D, sample.X0
        with rec.timed("design"):
            sweep = [cd.tradeoff_design(H, D, X0, w, self.power) for w in self.weights]
            # the bound sits halfway between the sweep's MUI extremes, so the
            # weight bisection always runs to its tolerance
            bound = 0.5 * (mt.mui_power(H, sweep[0].X, D) + mt.mui_power(H, sweep[-1].X, D))
            eps, slack = cd.epsilon_design(H, D, X0, bound, "sens_priority", self.power)
            reports = [mt.rate_report(H, d.X, D, self.noise) for d in sweep + [eps]]
            curve = mt.transmit_beampattern(mt.waveform_covariance(eps.X), self.angles,
                                            self.geom)
        self._check(sample, sweep, eps, bound, slack, reports, curve, rec)

    def _check(self, sample, sweep, eps, bound, slack, reports, curve, rec):
        Hm, D, X0 = sample.H.entries, sample.D, sample.X0.X
        tau = X0.shape[1]
        budget = tau * self.power
        energies = np.array([np.linalg.norm(d.X) ** 2 for d in sweep + [eps]])
        rec.check(np.abs(energies - budget) <= 1e-6 * budget, "trade-off power budget")
        gram = Hm.conj().T @ Hm
        residuals = []
        for w, d in zip(self.weights, sweep):
            A = w * gram + (1.0 - w) * np.eye(Hm.shape[1])
            B = w * Hm.conj().T @ D + (1.0 - w) * X0
            AX = A @ d.X
            mu = np.vdot(d.X, B - AX).real / np.linalg.norm(d.X) ** 2
            residuals.append(np.linalg.norm(AX + mu * d.X - B) / np.linalg.norm(B))
        rec.check(np.array(residuals) <= 1e-6, "stationarity (A + mu I) X = B")
        rec.check(0.0 <= slack <= 1e-4 * max(1.0, bound), "epsilon_design slack")
        rec.check(np.isfinite([r.sum_rate for r in reports]), "finite sum rates")
        rec.check(np.all(curve.gains >= -1e-9), "beampattern nonnegative")

    def stage_metrics(self, rec: Recorder) -> dict:
        lat = np.array(rec.samples["design"]) * 1e3
        return {"design_p50_ms": (float(np.percentile(lat, 50)), "ms"),
                "design_p95_ms": (float(np.percentile(lat, 95)), "ms"),
                "design_jobs": (lat.size, "count")}


# ---------------------------------------------------------------- case 2


class Case2Hybrid:
    """Unrolled hybrid PGA: step-size training on small minibatches, then one
    large test batch under the fixed and the learned schedule."""

    MIN_ROUNDS = 1
    SIZES = {"N": 64, "L": 4, "K": 4, "I": 8, "train": 50, "batch_size": 25,
             "epochs": 2, "test": 1000, "power": 10.0, "init_step": 0.05, "lr": 0.005}

    def run_round(self, rng, rec: Recorder) -> None:
        s = self.SIZES
        with rec.timed():
            train = hp.make_pga_dataset(s["train"], s["N"], s["L"], s["K"], rng,
                                        power=s["power"])
            test = hp.make_pga_dataset(s["test"], s["N"], s["L"], s["K"], rng,
                                       power=s["power"])
        with rec.timed("unroll_train"):
            learned = hp.train_step_sizes(train, s["I"], lr=s["lr"], epochs=s["epochs"],
                                          init_step=s["init_step"],
                                          batch_size=s["batch_size"], seed=_child_seed(rng))
        outputs = []
        with rec.timed("pga_eval"):
            for schedule in (hp.StepSchedule.fixed(s["init_step"], s["I"]), learned):
                outputs.append(hp.pga_run_batch(test.channels, test.F0, test.W0, schedule,
                                                test.power, test.noise_var))
        for F, W, rates in outputs:
            rec.check(np.max(np.abs(np.abs(F) - 1.0), axis=(1, 2)) <= 1e-9, "|F| = 1")
            power = np.linalg.norm(F @ W, axis=(1, 2)) ** 2
            rec.check(np.abs(power - test.power) <= 1e-9 * test.power, "||FW||^2 = P")
            rec.check(np.all(np.isfinite(rates), axis=1), "finite rates")

    def stage_metrics(self, rec: Recorder) -> dict:
        evaluated = 2 * self.SIZES["test"]
        return {"unroll_train_s": (_median(rec.samples["unroll_train"]), "s"),
                "pga_eval_per_s": (evaluated / _median(rec.samples["pga_eval"]),
                                   "instances/s")}


# ------------------------------------------------------------ learned nets


class LearnedTrain:
    """Waveform-net training with augmentation, per-frame inference, and a
    4-bit ISAC autoencoder."""

    MIN_ROUNDS = 1
    SIZES = {"samples": 1000, "M": 8, "K": 2, "tau": 8, "weight": 0.2, "epochs": 3,
             "batch_size": 32, "ae_bits": 4, "ae_steps": 400, "ae_batch": 200}

    def run_round(self, rng, rec: Recorder) -> None:
        s = self.SIZES
        with rec.timed():
            dataset = wl.make_dataset(s["samples"], s["M"], s["K"], s["tau"], rng)
        config = nn.TrainConfig(epochs=s["epochs"], batch_size=s["batch_size"],
                                seed=_child_seed(rng))
        with rec.timed("waveform_train"):
            model, history, (train_idx, _, test_idx) = wl.train_waveform_net(
                dataset, s["weight"], config, augment=True)
        rec.note("train_samples", len(history["train"]) * len(train_idx))
        frames = []
        for i in test_idx:
            with rec.timed("infer"):
                frames.append(wl.predict_waveform(model, dataset[i]))
        ae_config = nn.TrainConfig(epochs=1, batch_size=s["ae_batch"], seed=_child_seed(rng))
        with rec.timed("ae_train"):
            ae = ca.train_isac_ae(0.5, s["ae_bits"], 0.3, 0.5, ae_config,
                                  samples_per_epoch=s["ae_steps"] * s["ae_batch"])
        rec.check(history["val"][-1] < history["val"][0], "validation loss falls")
        energy = np.array([np.linalg.norm(f.X) ** 2 for f in frames])
        rec.check(energy <= (1.0 + 1e-9) * s["tau"], "frame inside the power ball")
        rec.check(all(np.all(np.isfinite(w)) for w in ae.encoder.weights),
                  "finite autoencoder weights")

    def stage_metrics(self, rec: Recorder) -> dict:
        s = self.SIZES
        rates = np.array(rec.samples["train_samples"]) / np.array(rec.samples["waveform_train"])
        return {"train_samples_per_s": (_median(rates), "samples/s"),
                "infer_p50_ms": (1e3 * _median(rec.samples["infer"]), "ms"),
                "ae_steps_per_s": (s["ae_steps"] / _median(rec.samples["ae_train"]), "steps/s")}


# --------------------------------------------------------- Monte Carlo


class McDetect:
    """Large vectorized Monte-Carlo kernels: MI/MMSE, calibration and
    evaluation of a PSK constellation, and a GLRT ROC."""

    MIN_ROUNDS = 1
    SIZES = {"mi_points": 64, "mi_snr": (1.0, 10.0), "mi_samples": 2500,
             "check_points": 16, "check_samples": 20000, "psk": 16,
             "calib_trials": 50_000, "trials": 100_000,
             "target_ser": 0.05, "target_pd": 0.935, "target_pfa": 0.0085,
             "glrt_M": 8, "glrt_tau": 16, "echoes_per_hypothesis": 25_000,
             "echo_gain": 0.3}

    def __init__(self):
        s = self.SIZES
        self.qam = ca.baseline_constellation("QAM", s["mi_points"]).points
        self.check_qam = ca.baseline_constellation("QAM", s["check_points"]).points
        self.psk = ca.baseline_constellation("PSK", s["psk"])
        self.geom = channel.ArrayGeometry(s["glrt_M"])
        # orthogonal unit-modulus probing frame, (1/tau) X X^H = I / M
        M, tau = s["glrt_M"], s["glrt_tau"]
        self.probe = np.exp(-2j * np.pi * np.outer(np.arange(M), np.arange(tau)) / tau)
        self.probe /= np.sqrt(M)

    def run_round(self, rng, rec: Recorder) -> None:
        s = self.SIZES
        for snr in s["mi_snr"]:
            with rec.timed("mimmse_point"):
                mt.awgn_mi_mmse(self.qam, snr, mc_samples=s["mi_samples"], rng=rng,
                                method="mc")
        self._check_mi(rng, rec)

        with rec.timed("calib"):
            comm_var = ca.calibrate_comm_noise(self.psk, s["target_ser"], s["calib_trials"],
                                               rng)
            radar_var, threshold = ca.calibrate_radar_noise(
                self.psk, s["target_pd"], s["target_pfa"], s["calib_trials"], rng)
            ser, pd, pfa = ca.evaluate_isac(self.psk, comm_var, radar_var, threshold,
                                            s["trials"], rng)
        # tolerances of the calibration round-trip tests
        rec.check(abs(ser - s["target_ser"]) < 0.005, "calibrated SER near target")
        rec.check(abs(pd - s["target_pd"]) < 0.02, "calibrated Pd near target")
        rec.check(abs(pfa - s["target_pfa"]) < 0.01, "calibrated Pfa near target")

        n = s["echoes_per_hypothesis"]
        with rec.timed("glrt"):
            stats = []
            for gain in (0.0, s["echo_gain"]):
                echoes = mt.simulate_target_echoes(self.probe, 0.0, gain, 1.0, self.geom,
                                                   n, rng)
                stats.append(mt.glrt_statistics(echoes, 0.0, self.probe, 1.0, self.geom))
                del echoes
            curve = mt.roc_curve(*stats)
        rec.check(curve.pd >= curve.pfa, "Pd >= Pfa along the ROC")

    def _check_mi(self, rng, rec: Recorder) -> None:
        # the tier-1 MC-vs-quadrature band (3e-3 at 10^6 samples), widened by
        # sqrt(10^6 / samples) so it keeps its width in standard errors
        s = self.SIZES
        tol = 3e-3 * np.sqrt(1e6 / s["check_samples"])
        for snr in s["mi_snr"]:
            quad = mt.awgn_mi_mmse(self.check_qam, snr, method="quadrature")
            mc = mt.awgn_mi_mmse(self.check_qam, snr, mc_samples=s["check_samples"],
                                 rng=rng, method="mc")
            rec.check([abs(quad.mutual_info - mc.mutual_info) < tol,
                       abs(quad.mmse - mc.mmse) < tol], "16-QAM MC agrees with quadrature")

    def stage_metrics(self, rec: Recorder) -> dict:
        echoes = 2 * self.SIZES["echoes_per_hypothesis"]
        return {"mimmse_point_s": (_median(rec.samples["mimmse_point"]), "s"),
                "calib_s": (_median(rec.samples["calib"]), "s"),
                "glrt_trials_per_s": (echoes / _median(rec.samples["glrt"]), "trials/s")}


WORKLOADS = {
    "case1_classical": Case1Classical,
    "case2_hybrid": Case2Hybrid,
    "learned_train": LearnedTrain,
    "mc_detect": McDetect,
}
