"""Autoencoder constellation design with a radar presence detector head.

A shared encoder maps K message bits to one complex symbol; a communication
decoder over the 2^K messages and a radar presence detector both end in a
linear layer, so they emit logits, and are trained jointly through the
weighted loss eta*BCE(detector) + (1-eta)*CE(decoder), each taken exactly from
the logits. The encoder batch is normalized to unit average symbol power
every step, so the trade-off shapes geometry rather than transmit power.

Evaluation compares constellations (learned or classical) under matched
receivers: minimum-distance decoding for SER, and the exact likelihood-ratio
statistic for presence detection, with noise levels calibrated against a
reference constellation rather than quoted SNRs. Both calibrations stop at
the resolution of their Monte-Carlo draws. The comm variance is an order
statistic: the noise draw is shared across candidate variances, so each
trial's error starts at one critical variance, and the target SER is reached
at the ceil(target * trials)-th smallest of them. The radar variance is found
by safeguarded Illinois steps inside a bracket that widens as far as the
target needs, and the search stops once Pd is within one count (1/trials) of
the target. Each raises a ValueError naming its target when no variance
reaches it.

A constellation is its points alone: message m is point m, and the bits of m
are its little-endian expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal
from .neural import (
    MlpModel,
    TrainConfig,
    adam_step,
    backward_pass,
    forward_pass,
    init_adam,
    init_mlp,
    predict,
)

_HIDDEN = (16, 32, 16)
# entries per block of the points x trials arrays of detection_statistic,
# ml_decode and calibrate_comm_noise: 512 KiB of float64, so a block and its
# temporaries stay near L2
_DETECT_BLOCK = 2 ** 16
# starting noise-variance bracket of the radar calibration, and the number
# of times each end may be halved (lo) or doubled (hi) to hold the target
_RADAR_BRACKET = (0.01, 4.0)
_BRACKET_GROWTH = 30


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power symbol set; message m is points[m]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1:
            raise ValueError("points must be a vector")
        if not abs(float(np.mean(np.abs(pts) ** 2)) - 1.0) <= 1e-6:
            raise ValueError("constellation points must carry unit average power")

    @property
    def size(self) -> int:
        return self.points.size


@dataclass
class IsacAutoencoder:
    """Encoder / communication decoder / radar detector triple."""

    encoder: MlpModel
    comm_decoder: MlpModel
    radar_detector: MlpModel
    weight: float

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")
        M = 2 ** self.encoder.input_dim
        if self.comm_decoder.output_dim != M or self.encoder.output_dim != 2:
            raise ValueError("head dimensions disagree with the message size")
        if self.radar_detector.output_dim != 1:
            raise ValueError("detector must end in a single unit")

    @property
    def num_bits(self) -> int:
        return self.encoder.input_dim


def message_bits(labels, num_bits: int) -> np.ndarray:
    """Little-endian bit expansion of message labels as +-1 inputs (2b - 1),
    shape (B, num_bits). No message maps to the zero vector, so the encoder
    output of every message moves with its first-layer weights even while
    the biases are zero."""
    labels = np.asarray(labels, dtype=int)
    j = np.arange(num_bits)
    return 2.0 * ((labels[:, None] >> j) & 1) - 1.0


def build_isac_ae(num_bits: int, weight: float,
                  rng: np.random.Generator) -> IsacAutoencoder:
    """Fresh triple with the shared (16, 32, 16) relu trunk. Every net ends
    in a linear layer: the encoder emits the (real, imag) symbol, the decoder
    2^num_bits message logits and the detector one presence logit."""
    acts = ["relu"] * len(_HIDDEN) + ["linear"]
    enc = init_mlp([num_bits, *_HIDDEN, 2], acts, rng)
    dec = init_mlp([2, *_HIDDEN, 2 ** num_bits], acts, rng)
    det = init_mlp([2, *_HIDDEN, 1], acts, rng)
    return IsacAutoencoder(enc, dec, det, weight)


# ------------------------------------------------------- power normalization


def normalize_symbols(raw: np.ndarray):
    """Scale a (B, 2) batch so the mean complex symbol power is one."""
    raw = np.atleast_2d(raw)
    scale = np.sqrt(np.mean(np.sum(raw ** 2, axis=1)))
    if scale <= 0:
        raise ValueError("all-zero encoder output cannot be normalized")
    return raw / scale, float(scale)


def normalize_vjp(symbols: np.ndarray, scale: float,
                  grad: np.ndarray) -> np.ndarray:
    """Backward pass of normalize_symbols given its output and scale."""
    coupling = np.mean(np.sum(grad * symbols, axis=1))
    return (grad - symbols * coupling) / scale


# ------------------------------------------------------------------- losses


def comm_loss(logits: np.ndarray, labels):
    """Cross-entropy of the communication decoder's (B, M) logits against
    integer message labels, log-sum-exp minus the label's logit; returns
    (value, gradient), the gradient (softmax - one-hot) / B."""
    z = np.atleast_2d(logits)
    B = z.shape[0]
    rows, labels = np.arange(B), np.asarray(labels, dtype=int)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    value = float(np.mean(np.log(total[:, 0]) - shifted[rows, labels]))
    grad = e / total
    grad[rows, labels] -= 1.0
    return value, grad / B


def radar_loss(logits: np.ndarray, flags):
    """Binary cross-entropy of the presence detector's logits z against the
    flags T, the mean of logaddexp(0, z) - T z; returns (value, gradient),
    the gradient (sigmoid(z) - T) / n with sigmoid(z) = exp(-logaddexp(0, -z)),
    which neither overflows nor warns."""
    z = np.asarray(logits, dtype=float)
    T = np.asarray(flags, dtype=float).reshape(z.shape)
    value = float(np.mean(np.logaddexp(0.0, z) - T * z))
    grad = (np.exp(-np.logaddexp(0.0, -z)) - T) / z.size
    return value, grad


# ----------------------------------------------------------------- training


def combined_step(ae: IsacAutoencoder, labels, T, noise_c, noise_r):
    """Loss and gradients of one training step with frozen randomness.

    noise_c/noise_r are pre-drawn (B, 2) noise matrices; T the presence
    flags. Returns (value, enc_grads, dec_grads, det_grads) so the whole
    chain stays finite-difference checkable.
    """
    raw, enc_cache = forward_pass(ae.encoder,
                                  message_bits(labels, ae.num_bits))
    x, scale = normalize_symbols(raw)
    T = np.asarray(T, dtype=float)
    y = x + noise_c
    z = T[:, None] * x + noise_r
    comm_logits, dec_cache = forward_pass(ae.comm_decoder, y)
    radar_logits, det_cache = forward_pass(ae.radar_detector, z)
    value_c, grad_c = comm_loss(comm_logits, labels)
    value_r, grad_r = radar_loss(radar_logits, T)
    value = ae.weight * value_r + (1.0 - ae.weight) * value_c
    dec_grads, gy = backward_pass(ae.comm_decoder, dec_cache,
                                  (1.0 - ae.weight) * grad_c)
    det_grads, gz = backward_pass(ae.radar_detector, det_cache,
                                  ae.weight * grad_r)
    gx = gy + T[:, None] * gz
    enc_grads, _ = backward_pass(ae.encoder, enc_cache,
                                 normalize_vjp(x, scale, gx))
    return value, enc_grads, dec_grads, det_grads


def train_isac_ae(weight: float, num_bits: int, comm_noise_var: float,
                  radar_noise_var: float, config: TrainConfig, *,
                  samples_per_epoch: int = 100_000) -> IsacAutoencoder:
    """Joint end-to-end training of the triple. Every step draws fresh
    messages, presence flags T ~ Bernoulli(1/2) and channel noise, so the
    decoder sees y = x + n_comm and the detector z = T*x + n_radar. With no
    dataset there is no validation score, so no early stopping."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    if config.early_stop_patience is not None:
        raise ValueError("train_isac_ae has no validation set: "
                         "early_stop_patience must be None")
    rng = np.random.default_rng(config.seed)
    ae = build_isac_ae(num_bits, weight, rng)
    states = {name: init_adam(net, lr=config.lr) for name, net in
              (("enc", ae.encoder), ("dec", ae.comm_decoder),
               ("det", ae.radar_detector))}
    steps = max(1, samples_per_epoch // config.batch_size)
    B = config.batch_size
    M = 2 ** num_bits
    for _ in range(config.epochs):
        for _ in range(steps):
            labels = rng.integers(0, M, size=B)
            T = rng.integers(0, 2, size=B)
            # (re, im) row by row: the stream order the nets were trained on
            noise_c = np.sqrt(comm_noise_var / 2.0) \
                * rng.standard_normal((B, 2))
            noise_r = np.sqrt(radar_noise_var / 2.0) \
                * rng.standard_normal((B, 2))
            _, enc_g, dec_g, det_g = combined_step(ae, labels, T,
                                                   noise_c, noise_r)
            adam_step(states["enc"], ae.encoder, enc_g)
            adam_step(states["dec"], ae.comm_decoder, dec_g)
            adam_step(states["det"], ae.radar_detector, det_g)
    return ae


def extract_constellation(ae: IsacAutoencoder) -> Constellation:
    """Encode every message and scale to unit average power with
    `normalize_symbols`, as every training batch is."""
    x, _ = normalize_symbols(predict(
        ae.encoder, message_bits(np.arange(2 ** ae.num_bits), ae.num_bits)))
    return Constellation(x[:, 0] + 1j * x[:, 1])


# ------------------------------------------------------------------ receivers


def _trial_blocks(trials: int, points: int):
    """Slices of the trials, each a block of about _DETECT_BLOCK entries of a
    (points, trials) array."""
    step = max(1, _DETECT_BLOCK // points)
    return [slice(start, start + step) for start in range(0, trials, step)]


def detection_statistic(z, points, noise_var: float) -> np.ndarray:
    """Exact log likelihood ratio of target presence for a known symbol set,
    logmeanexp_i(-|z - p_i|^2 / sigma^2) + |z|^2 / sigma^2. The |z|^2 terms
    cancel, leaving logmeanexp_i((2 Re(z conj p_i) - |p_i|^2) / sigma^2).
    Point-major: each block of trials is one real (M, 2) @ (2, trials)
    product, so the max and the sum of the log-sum-exp reduce across M
    contiguous rows."""
    z = np.ascontiguousarray(z, dtype=complex).reshape(-1)
    pts = np.asarray(points, dtype=complex).reshape(-1)
    zr = z.view(np.float64).reshape(-1, 2)
    gain = np.stack([pts.real, pts.imag], axis=1) * (2.0 / noise_var)
    bias = (-(pts.real ** 2 + pts.imag ** 2) / noise_var)[:, None]
    out = np.empty(z.size)
    for block in _trial_blocks(z.size, pts.size):
        e = gain @ zr[block].T  # (M, trials)
        e += bias
        peak = e.max(axis=0)
        e -= peak
        np.exp(e, out=e)
        out[block] = peak + np.log(e.sum(axis=0))
    return out - np.log(pts.size)


def ml_decode(y, points) -> np.ndarray:
    """Minimum-distance decision indices into the constellation array: the
    argmin of |y - p|^2 over a (trials, M) block of about _DETECT_BLOCK
    entries at a time."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    pts = np.asarray(points, dtype=complex).reshape(-1)
    out = np.empty(y.size, dtype=np.intp)
    for block in _trial_blocks(y.size, pts.size):
        out[block] = np.argmin(np.abs(y[block, None] - pts[None, :]) ** 2, axis=1)
    return out


def evaluate_isac(const: Constellation, comm_noise_var: float,
                  radar_noise_var: float, threshold: float, trials: int,
                  rng: np.random.Generator):
    """Monte-Carlo (SER, Pd, Pfa) under matched receivers."""
    pts = const.points
    idx = rng.integers(0, pts.size, size=trials)
    noise = np.sqrt(comm_noise_var) * complex_normal(trials, rng)
    ser = float(np.mean(ml_decode(pts[idx] + noise, pts) != idx))
    idx1 = rng.integers(0, pts.size, size=trials)
    n1 = np.sqrt(radar_noise_var) * complex_normal(trials, rng)
    n0 = np.sqrt(radar_noise_var) * complex_normal(trials, rng)
    s1 = detection_statistic(pts[idx1] + n1, pts, radar_noise_var)
    s0 = detection_statistic(n0, pts, radar_noise_var)
    pd = float(np.mean(s1 > threshold))
    pfa = float(np.mean(s0 > threshold))
    return ser, pd, pfa


# ----------------------------------------------------------------- baselines


def baseline_constellation(kind: str, size: int) -> Constellation:
    """Classical references: 'PSK' (uniform ring) or 'QAM' (square grid for
    square sizes, the 6x6-minus-corners cross for 32)."""
    if kind.upper() == "PSK":
        pts = np.exp(2j * np.pi * np.arange(size) / size)
    elif kind.upper() == "QAM":
        side = int(round(np.sqrt(size)))
        if side * side == size:
            lv = 2 * np.arange(side) - side + 1
            grid = lv[:, None] + 1j * lv[None, :]
            pts = grid.ravel()
        elif size == 32:
            lv = np.array([-5, -3, -1, 1, 3, 5])
            grid = (lv[:, None] + 1j * lv[None, :]).ravel()
            keep = ~((np.abs(grid.real) == 5) & (np.abs(grid.imag) == 5))
            pts = grid[keep]
        else:
            raise ValueError("QAM sizes: perfect squares or 32")
        pts = pts / np.sqrt(np.mean(np.abs(pts) ** 2))
    else:
        raise ValueError("kind must be 'QAM' or 'PSK'")
    return Constellation(pts)


# --------------------------------------------------------------- calibration


def calibrate_comm_noise(reference: Constellation, target_ser: float,
                         trials: int, rng: np.random.Generator) -> float:
    """Comm noise variance at which the reference constellation hits the
    target SER under ML decoding, on one draw of messages and unit noise
    u_n shared by every candidate variance.

    Voronoi cells are convex, so trial n (point p) is decoded wrongly exactly
    when the variance exceeds t_n^2, with t_n the smallest
    |q - p|^2 / (2 Re((q - p) conj(u_n))) over points q where the
    denominator is positive (infinite when there is none). The Monte-Carlo
    SER first reaches the target just above the k-th smallest t_n^2,
    k = ceil(target_ser * trials), which is returned."""
    if not 0.0 < target_ser < 1.0:
        raise ValueError("target_ser must lie strictly inside (0, 1)")
    pts = reference.points
    idx = rng.integers(0, pts.size, size=trials)
    unit = complex_normal(trials, rng)
    crit = np.empty(trials)
    u_re, u_im = unit.real.copy(), unit.imag.copy()
    for block in _trial_blocks(trials, pts.size):
        # q - p, point-major: (M, trials)
        d_re = pts.real[:, None] - pts.real[idx[block]]
        d_im = pts.imag[:, None] - pts.imag[idx[block]]
        toward = 2.0 * (d_re * u_re[block] + d_im * u_im[block])
        dist2 = d_re ** 2 + d_im ** 2
        t = np.divide(dist2, toward, out=np.full(toward.shape, np.inf),
                      where=toward > 0)
        crit[block] = t.min(axis=0) ** 2
    k = int(np.ceil(target_ser * trials))
    var = float(np.partition(crit, k - 1)[k - 1])
    if not np.isfinite(var):
        raise ValueError(f"target_ser is out of reach: the reference decodes "
                         f"fewer than {k} of the {trials} trials wrongly at "
                         f"any noise variance")
    return var


def _falling_root(miss, bracket, tol: float, field: str) -> float:
    """Noise variance at which miss(var), a Monte-Carlo estimate minus its
    target that falls as the variance grows, is within tol of zero: the
    bracket's lo is halved and its hi doubled, each at most _BRACKET_GROWTH
    times, until miss(lo) > 0 > miss(hi), and the bracket is then searched
    down to a floor of 2^-40 of its grown width.

    Each step is regula falsi, lo + (hi - lo) * f_lo / (f_lo - f_hi), with
    the other end's miss halved when the same end is kept twice (the
    Illinois step of Dowell and Jarratt, BIT 1971), so the search is
    superlinear where plain regula falsi stalls at one end. A step is
    clamped two floors inside the bracket, so that a root next to one end
    puts the step past it and the far end moves too, and a bisection follows
    a clamped step, each pair of steps that did not halve the bracket, and
    every step once the bracket is four floors wide or narrower. Returns the
    first variance with |miss| <= tol, or else, once the bracket is a floor
    wide, the last variance evaluated, an end of it.
    """
    lo, hi = bracket
    for _ in range(_BRACKET_GROWTH):
        f_lo = miss(lo)
        if abs(f_lo) <= tol:
            return lo
        if f_lo > 0:
            break
        lo /= 2.0
    else:
        raise ValueError(f"{field} is out of reach: the reference misses it "
                         f"down to noise variance {2.0 * lo:g}")
    for _ in range(_BRACKET_GROWTH):
        f_hi = miss(hi)
        if abs(f_hi) <= tol:
            return hi
        if f_hi < 0:
            break
        hi *= 2.0
    else:
        raise ValueError(f"{field} is out of reach: the reference misses it "
                         f"up to noise variance {hi / 2.0:g}")
    floor = (hi - lo) * 2.0 ** -40
    mark, steps, bisect = hi - lo, 0, False
    kept = 0  # +1 after lo moved last, -1 after hi did
    while hi - lo > floor:
        if bisect or hi - lo <= 4 * floor:
            var, bisect = 0.5 * (lo + hi), False
        else:
            var = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
            bisect = not lo + 2 * floor <= var <= hi - 2 * floor
            var = min(max(var, lo + 2 * floor), hi - 2 * floor)
        f = miss(var)
        if abs(f) <= tol:
            return var
        if f > 0:
            lo, f_lo = var, f
            if kept > 0:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = var, f
            if kept < 0:
                f_lo *= 0.5
            kept = -1
        steps += 1
        if steps == 2:
            bisect = bisect or hi - lo > 0.5 * mark
            mark, steps = hi - lo, 0
    return var


def calibrate_radar_noise(reference: Constellation, target_pd: float,
                          target_pfa: float, trials: int,
                          rng: np.random.Generator):
    """Radar noise variance at which the reference hits target_pd, to one
    Monte-Carlo count (1/trials), at the threshold pinned to target_pfa;
    returns (noise_var, threshold), the threshold found at that variance."""
    pts = reference.points
    idx = rng.integers(0, pts.size, size=trials)
    u1 = complex_normal(trials, rng)
    u0 = complex_normal(trials, rng)
    thresholds = {}

    def pd_miss(var):
        thr = np.quantile(detection_statistic(np.sqrt(var) * u0, pts, var),
                          1.0 - target_pfa)
        s1 = detection_statistic(pts[idx] + np.sqrt(var) * u1, pts, var)
        thresholds[var] = float(thr)
        return float(np.mean(s1 > thr)) - target_pd

    var = _falling_root(pd_miss, _RADAR_BRACKET, 1.0 / trials, "target_pd")
    return var, thresholds[var]


def amplitude_spread(const: Constellation) -> float:
    """stddev(|points|) / mean(|points|); 0 for exact constant modulus."""
    mags = np.abs(const.points)
    return float(np.std(mags) / np.mean(mags))
