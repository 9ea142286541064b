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

from .channel import ArrayGeometry, ChannelMatrix, complex_normal, steering_vector


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
    if not noise_var > 0:
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


# On the half-wavelength ULA, v(theta)_m = e^{j pi m sin theta}, so both
# beampattern kernels depend on a covariance or a weighting only through its
# M lag sums, in O(M A) work on A angles instead of O(M^2 A). The kernels
# contract with elementwise products and numpy reductions, not BLAS, so their
# bits depend neither on the BLAS thread count nor on the stack around a
# slice.


def _lag_table(angles, M: int) -> np.ndarray:
    """The lag table of an angle grid: cos(pi d sin theta_a) in rows d - 1 and
    sin(pi d sin theta_a) in rows M - 2 + d, for lags d = 1..M-1; the real and
    imaginary parts of e^{j pi d sin theta_a}, (2M - 2) x A, as powers of
    e^{j pi sin theta_a} formed by doubling, each a product of at most
    log2(M) factors."""
    powers = np.empty((M - 1, len(angles)), dtype=complex)
    powers[:1] = np.exp(1j * np.pi * np.sin(angles))
    done = 1
    while done < M - 1:  # rows done..2*done-1 are rows 0..done-1 times row done-1
        n = min(done, M - 1 - done)
        np.multiply(powers[:n], powers[done - 1], out=powers[done:done + n])
        done += n
    return np.concatenate([powers.real, powers.imag])


def _lag_gains(cov, table: np.ndarray) -> np.ndarray:
    """Re v_a^H C v_a on the grid of `table`, one row of A gains per
    covariance of a (..., M, M) stack: c_0 + 2 Re sum_{d>=1} c_d e^{-j pi d
    sin theta_a}, where c_d is the sum of the d-th subdiagonal of C's
    Hermitian part."""
    M = cov.shape[-1]
    lead = cov.shape[:-2]
    # reversing the columns and padding each row with M zeros puts lag m - n
    # of C in column M - 1 + m - n of an M x (2M - 1) skewed copy
    padded = np.zeros(lead + (M, 2 * M), dtype=complex)
    padded[..., :M] = cov[..., ::-1]
    skewed = padded.reshape(lead + (2 * M * M,))[..., :-M].reshape(lead + (M, 2 * M - 1))
    sums = np.add.reduce(skewed, axis=-2)
    lags = 0.5 * (sums[..., M - 1:] + sums[..., M - 1::-1].conj())
    parts = np.concatenate([lags[..., 1:].real, lags[..., 1:].imag], axis=-1)
    return lags[..., :1].real + 2.0 * np.add.reduce(parts[..., None] * table, axis=-2)


def _lag_toeplitz(weights, table: np.ndarray) -> np.ndarray:
    """V diag(w) V^H on the grid of `table` for real weights w (A,): the
    Hermitian Toeplitz matrix whose lag-d entry (row m, column m - d) is
    sum_a w_a e^{j pi d sin theta_a}."""
    M = table.shape[0] // 2 + 1
    sums = np.add.reduce(table * weights, axis=-1)
    lags = np.concatenate([[np.add.reduce(weights)], sums[:M - 1] + 1j * sums[M - 1:]])
    # entry (m, n) is lag m - n of the line of lags -(M-1)..M-1
    line = np.concatenate([lags[:0:-1].conj(), lags])
    step = line.strides[0]
    return np.lib.stride_tricks.as_strided(line[M - 1:], (M, M), (step, -step)).copy()


def transmit_beampattern(cov, angles, geom: ArrayGeometry) -> BeampatternCurve:
    """P(theta) = v(theta)^H Sigma v(theta) on the given angle grid, with
    Sigma Hermitian-symmetrized; one row of gains per covariance of a
    (..., M, M) stack.

    Computed from the lag sums: P(theta) = c_0 + 2 Re sum_{d>=1} c_d
    e^{-j pi d sin theta}, where c_d is the sum of the d-th subdiagonal of
    Sigma, in O(M A) work per covariance; a stack gives each slice's bytes,
    at any BLAS thread count. The sum rounds within 4 M eps sum_mn |Sigma_mn|
    of the gain, and so can fall below zero at a null of a PSD Sigma: a gain
    that lies below zero by no more than that bound reads 0."""
    cov = np.asarray(cov, dtype=complex)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    M = geom.num_antennas
    if cov.shape[-2:] != (M, M):
        raise ValueError(f"covariance must be {M} x {M}, got shape {cov.shape}")
    gains = _lag_gains(cov, _lag_table(angles, M))
    bound = 4.0 * M * np.finfo(float).eps * np.abs(cov).sum(axis=(-2, -1))[..., None]
    gains[(gains < 0.0) & (gains >= -bound)] = 0.0
    return BeampatternCurve(angles=angles, gains=gains)


# ------------------------------------------------------------ GLRT and ROC


def glrt_statistics(echoes, target_angle: float, X, noise_var: float,
                    geom: ArrayGeometry) -> np.ndarray:
    """GLRT statistic for a target at `target_angle` with unknown complex
    amplitude, one per echo of a (trials x M x tau_d) stack:
    |v^H Z s^H|^2 / (sigma^2 ||v||^2 ||s||^2), s = v^T X.

    Under H0 (echo = noise with per-entry variance sigma^2) the statistic is
    exponential with unit mean; larger values indicate a target. The echoes
    are contracted with the unit-norm weights conj(v)/||v|| and
    conj(s)/||s||, the second divided by sigma, so the statistic is finite
    wherever the echo is."""
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    echoes = np.asarray(echoes, dtype=complex)
    X = np.asarray(X, dtype=complex)
    v = steering_vector(target_angle, geom)
    s = v @ X  # effective probing sequence v^T X, length tau_d
    s_norm = float(np.linalg.norm(s))
    if s_norm <= 0:
        raise ValueError("waveform has no energy toward target")
    inner = np.einsum("a,tab,b->t", v.conj() / np.linalg.norm(v), echoes,
                      s.conj() / s_norm / np.sqrt(noise_var))
    return np.abs(inner) ** 2


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
    if not snr >= 0:
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
    `mc_samples` draws from `rng`, a seeded Generator that Monte Carlo
    requires."""
    points = np.asarray(points, dtype=complex).ravel()
    if probs is None:
        probs = np.full(points.size, 1.0 / points.size)
    else:
        probs = np.asarray(probs, dtype=float).ravel()
        if (probs.shape != points.shape or not np.all(probs >= 0)
                or not abs(probs.sum() - 1.0) <= 1e-9):
            raise ValueError("probs must be a probability vector matching points")
    if not snr >= 0:
        raise ValueError("snr must be nonnegative")
    if not abs(float(np.sum(probs * np.abs(points) ** 2)) - 1.0) <= 1e-6:
        raise ValueError("constellation points must have unit average power")
    if method == "auto":
        method = "mc" if points.size > 64 else "quadrature"
    if method == "quadrature":
        t, w = np.polynomial.hermite.hermgauss(quad_order)
        # noise real/imag each N(0, 1/2): substitution leaves nodes unscaled
        noise = (t[:, None] + 1j * t[None, :]).ravel()
        weights = ((w[:, None] * w[None, :]) / np.pi).ravel()
    elif method == "mc":
        if rng is None:
            raise ValueError("Monte Carlo MI/MMSE needs a seeded Generator rng")
        noise = complex_normal(mc_samples, rng)
        weights = np.full(mc_samples, 1.0 / mc_samples)
    else:
        raise ValueError(f"unknown method {method!r}")
    mi, mmse = _mi_mmse_on_noise(points, probs, snr, noise, weights)
    return MiMmsePoint(mutual_info=mi, mmse=mmse)
