"""Evaluation quantities shared by all case studies: multi-user interference,
SINR and sum rates, transmit beampatterns, GLRT detection and ROC curves,
and MI/MMSE curves for scalar AWGN inputs.

Rates: `sum_rate` is bits/symbol (log2); the hybrid-beamformer rates of
`hybrid_pga` are nats (natural log). Mutual information is computed in nats
internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, ChannelMatrix, complex_normal, steering_grid, steering_vector


# entries per block of simulate_target_echoes' noise draw, and per (q, M, M)
# chunk of the MI/MMSE kernel
_ECHO_BLOCK = 2 ** 16
_MI_BLOCK = 2 ** 18


@dataclass(frozen=True)
class RateReport:
    per_user_sinr: np.ndarray  # linear, (..., K) for leading (channel) axes
    sum_rate: float | np.ndarray  # bits/symbol: a float, or one per channel


@dataclass(frozen=True)
class BeampatternCurve:
    angles: np.ndarray  # radians
    gains: np.ndarray  # linear power, (..., A) for leading (covariance) axes

    def __post_init__(self):
        if len(self.angles) != self.gains.shape[-1]:
            raise ValueError("angles and gains must have equal length")


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray


@dataclass(frozen=True)
class MiMmsePoint:
    mutual_info: float  # nats
    mmse: float  # in [0, 1] for unit-power input


def _as_matrix(H) -> np.ndarray:
    if isinstance(H, ChannelMatrix):
        return H.entries
    return np.asarray(H, dtype=complex)


# --------------------------------------------------------------- MUI / rates


def _check_dims(H, X, D, x_name: str = "X") -> None:
    """Raise unless H (..., K, M), X (..., M, tau) and D (..., K, tau) agree
    in K, M, tau and in their leading axes: nothing broadcasts."""
    if X.shape[:-1] != H.shape[:-2] + H.shape[-1:] or D.shape != H.shape[:-1] + X.shape[-1:]:
        raise ValueError(f"dimension mismatch between H, D, {x_name}: shapes {H.shape}, "
                         f"{D.shape}, {X.shape}; K, M, tau and the leading axes must agree")


def _interference(H, X, D):
    """(H X - D, D) as complex arrays, once their dimensions agree."""
    Hm = _as_matrix(H)
    X = np.asarray(X, dtype=complex)
    D = np.asarray(D, dtype=complex)
    _check_dims(Hm, X, D)
    return Hm @ X - D, D


def mui_power(H, X, D) -> float | np.ndarray:
    """Multi-user interference power ||H X - D||_F^2 over the last two
    axes: a float for one channel, an array for a stack. Squared from the
    norm of the real and imaginary dot products, bit for bit
    np.linalg.norm(H X - D) ** 2 of one frame."""
    mui = _interference(H, X, D)[0]
    flat = mui.reshape(*mui.shape[:-2], -1)
    power = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)) ** 2
    return float(power) if power.ndim == 0 else power


def per_user_sinr(H, X, D, noise_var: float) -> np.ndarray:
    """Per-user SINR, (..., K), with expectations realized as averages over
    the frame columns; assumes D carries a unit-energy constellation."""
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    mui, D = _interference(H, X, D)
    # the row sums over tau: np.mean's own reduction and division, bit for bit
    tau = D.shape[-1]
    signal = np.add.reduce(np.abs(D) ** 2, axis=-1) / tau
    residual = np.add.reduce(np.abs(mui) ** 2, axis=-1) / tau
    return signal / (residual + noise_var)


def sum_rate(sinrs: np.ndarray) -> float | np.ndarray:
    """Achievable sum rate sum_k log2(1 + gamma_k) in bits/symbol over the
    last (users) axis: a float for one channel, an array for a stack."""
    rates = np.add.reduce(np.log2(1.0 + np.asarray(sinrs, dtype=float)), axis=-1)
    return float(rates) if rates.ndim == 0 else rates


def rate_report(H, X, D, noise_var: float) -> RateReport:
    gam = per_user_sinr(H, X, D, noise_var)
    return RateReport(per_user_sinr=gam, sum_rate=sum_rate(gam))


# ----------------------------------------------------- covariance / pattern


def waveform_covariance(X) -> np.ndarray:
    """Transmit covariance (1/tau_d) X X^H of an M x tau_d frame,
    Hermitian-symmetrized; one M x M matrix per frame of a (..., M, tau_d)
    stack."""
    X = np.asarray(X, dtype=complex)
    cov = (X @ X.conj().swapaxes(-1, -2)) / X.shape[-1]
    return 0.5 * (cov + cov.conj().swapaxes(-1, -2))


def _pattern_gains(V, C) -> np.ndarray:
    """Re v_a^H C v_a for each column v_a of V (M x A), one row of A gains per
    covariance of a (..., M, M) stack."""
    return np.einsum("ma,...mn,na->...a", V.conj(), C, V).real


def transmit_beampattern(cov, angles, geom: ArrayGeometry) -> BeampatternCurve:
    """P(theta) = v(theta)^H Sigma v(theta) on the given angle grid, with
    Sigma Hermitian-symmetrized; one row of gains per covariance of a
    (..., M, M) stack."""
    cov = np.asarray(cov, dtype=complex)
    cov = 0.5 * (cov + cov.conj().swapaxes(-1, -2))
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    V = steering_grid(angles, geom)  # M x A
    return BeampatternCurve(angles=angles, gains=_pattern_gains(V, cov))


# ------------------------------------------------------------ GLRT and ROC


def glrt_statistics(echoes, target_angle: float, X, noise_var: float,
                    geom: ArrayGeometry) -> np.ndarray:
    """GLRT statistic for a target at `target_angle` with unknown complex
    amplitude, one per echo of a (trials x M x tau_d) stack:
    |v^H Z s^H|^2 / (sigma^2 ||v||^2 ||s||^2), s = v^T X.

    Under H0 (echo = noise with per-entry variance sigma^2) the statistic is
    exponential with unit mean; larger values indicate a target."""
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    echoes = np.asarray(echoes, dtype=complex)
    X = np.asarray(X, dtype=complex)
    v = steering_vector(target_angle, geom)
    s = v @ X  # effective probing sequence v^T X, length tau_d
    s_norm = float(np.linalg.norm(s))
    if s_norm <= 0:
        raise ValueError("waveform has no energy toward target")
    inner = np.einsum("a,tab,b->t", v.conj(), echoes, s.conj())
    scale = np.sqrt(noise_var) * np.linalg.norm(v) * s_norm
    # scaled before squaring: |inner|^2 overflows from powers near 1e150
    return (np.abs(inner) / scale) ** 2


def simulate_target_echoes(X, target_angle: float, alpha: complex, noise_var: float,
                           geom: ArrayGeometry, trials: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Monostatic echoes Z = alpha * v v^T X + N, stacked over trials.
    alpha = 0 gives pure-noise (H0) echoes.

    The noise draws the real parts of every trial, then the imaginary parts,
    each straight into the output in blocks of about _ECHO_BLOCK entries:
    the same stream as two whole-array draws, without their temporaries."""
    X = np.asarray(X, dtype=complex)
    v = steering_vector(target_angle, geom)
    mean = alpha * np.outer(v, v @ X)
    echoes = np.empty((trials,) + mean.shape, dtype=complex)
    step = max(1, _ECHO_BLOCK // mean.size)
    for part in (echoes.real, echoes.imag):
        for start in range(0, trials, step):
            block = part[start:start + step]
            block[...] = rng.standard_normal(block.shape)
    echoes *= np.sqrt(noise_var / 2.0)
    echoes += mean
    return echoes


_ROC_THRESHOLDS = 201


def roc_curve(stats_h0, stats_h1) -> RocCurve:
    """Empirical ROC by sweeping a shared grid of _ROC_THRESHOLDS thresholds;
    exceedance is strict, so the lowest threshold yields (pfa, pd) = (1, 1)
    and the highest (0, 0)."""
    h0 = np.sort(np.asarray(stats_h0, dtype=float))
    h1 = np.sort(np.asarray(stats_h1, dtype=float))
    lo = min(h0[0], h1[0])
    hi = max(h0[-1], h1[-1])
    span = max(hi - lo, 1e-12)
    thresholds = np.linspace(lo - 1e-9 * span - 1e-12, hi, _ROC_THRESHOLDS)
    pfa = 1.0 - np.searchsorted(h0, thresholds, side="right") / len(h0)
    pd = 1.0 - np.searchsorted(h1, thresholds, side="right") / len(h1)
    return RocCurve(thresholds=thresholds, pfa=pfa, pd=pd)


def detection_at_false_alarm(curve: RocCurve, pfa_target: float) -> float:
    """Interpolated detection probability at the requested false-alarm rate."""
    order = np.argsort(curve.pfa)
    return float(np.interp(pfa_target, curve.pfa[order], curve.pd[order]))


# ------------------------------------------------------------------ MI/MMSE


def gaussian_mi_mmse(snr: float) -> MiMmsePoint:
    """Closed-form Gaussian-input reference: I = ln(1+snr), MMSE = 1/(1+snr)."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return MiMmsePoint(mutual_info=float(np.log1p(snr)), mmse=float(1.0 / (1.0 + snr)))


def _mi_mmse_on_noise(points, probs, snr, noise, weights):
    # noise: complex offsets n_q whose expectation is realized by `weights`.
    # Points of zero probability never occur and weigh nothing in p(y), so
    # the sums run over the support. With y = a x_i + n, the log posterior
    # weight of x_j, up to a term common to all j, is
    #     d_iqj = (t_qj - t_qi) + C_ij,
    #     t_qj = 2a Re(x_j conj n_q),  C_ij = log p_j - a^2 |x_i - x_j|^2,
    # and -log p(y) - log(pi) = |n_q|^2 - log S_iq with S_iq = sum_j e^d_iqj.
    # Nothing of order SNR cancels: the t terms are subtracted first, so
    # d_iqi is exactly log p_i, S_iq >= p_i > 0 needs no max pass, and
    # d_iqj <= |n_q|^2 + log p_j stays far from overflow. The (q, M, M)
    # tensors run in chunks of about _MI_BLOCK entries; one matmul against
    # [1, Re x, Im x] gives S and the posterior-mean numerators together.
    keep = probs > 0
    points, probs = points[keep], probs[keep]
    M = points.size
    a = np.sqrt(snr)
    xr = np.stack([points.real, points.imag])  # (2, M)
    diff = points[:, None] - points[None, :]
    C = np.log(probs) - a * a * (diff.real ** 2 + diff.imag ** 2)
    moments = np.vstack([np.ones(M), xr]).T  # (M, 3)
    gain = 2.0 * a * xr
    nz = np.ascontiguousarray(noise).view(np.float64).reshape(-1, 2)
    chunk = max(1, _MI_BLOCK // (M * M))
    mi_acc = 0.0
    mmse_acc = 0.0
    for start in range(0, nz.shape[0], chunk):
        n = nz[start:start + chunk]
        t = n @ gain  # (q, M)
        d = t[:, None, :] - t[:, :, None]  # (q, i, j)
        d += C
        np.exp(d, out=d)
        sums = (d.reshape(-1, M) @ moments).reshape(-1, M, 3)
        total = sums[:, :, 0]
        err_re = xr[0] - sums[:, :, 1] / total
        err_im = xr[1] - sums[:, :, 2] / total
        wz = weights[start:start + chunk]
        mi_acc += wz @ ((n[:, 0] ** 2 + n[:, 1] ** 2)[:, None] - np.log(total)) @ probs
        mmse_acc += wz @ (err_re ** 2 + err_im ** 2) @ probs
    # I = h(Y) - h(N) with h(N) = 1 + log(pi); the weights sum to one, so the
    # log(pi) of -log p(y) cancels that of h(N)
    return float(max(mi_acc - 1.0, 0.0)), float(np.clip(mmse_acc, 0.0, 1.0))


def awgn_mi_mmse(points, snr: float, probs=None, quad_order: int = 20,
                 mc_samples: int = 1_000_000, rng: np.random.Generator | None = None,
                 method: str = "auto") -> MiMmsePoint:
    """Mutual information (nats) and MMSE of a discrete unit-power input over
    the scalar complex AWGN channel y = sqrt(snr) x + n, n ~ CN(0, 1).

    Gauss-Hermite tensor quadrature (`quad_order` nodes per real dimension) is
    used up to 64 points; larger constellations fall back to Monte Carlo with
    `mc_samples` draws from `rng` (seeded Generator; default seed 0)."""
    points = np.asarray(points, dtype=complex).ravel()
    if probs is None:
        probs = np.full(points.size, 1.0 / points.size)
    else:
        probs = np.asarray(probs, dtype=float).ravel()
        if probs.shape != points.shape or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be a probability vector matching points")
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    if abs(float(np.sum(probs * np.abs(points) ** 2)) - 1.0) > 1e-6:
        raise ValueError("constellation must have unit average power")
    if method == "auto":
        method = "mc" if points.size > 64 else "quadrature"
    if method == "quadrature":
        t, w = np.polynomial.hermite.hermgauss(quad_order)
        # noise real/imag each N(0, 1/2): substitution leaves nodes unscaled
        noise = (t[:, None] + 1j * t[None, :]).ravel()
        weights = ((w[:, None] * w[None, :]) / np.pi).ravel()
    elif method == "mc":
        if rng is None:
            rng = np.random.default_rng(0)
        noise = complex_normal(mc_samples, rng)
        weights = np.full(mc_samples, 1.0 / mc_samples)
    else:
        raise ValueError(f"unknown method {method!r}")
    mi, mmse = _mi_mmse_on_noise(points, probs, snr, noise, weights)
    return MiMmsePoint(mutual_info=mi, mmse=mmse)
