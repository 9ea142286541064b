import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

from helpers import hybrid_sum_rate, pattern_gains
from isackit import metrics
from isackit.channel import ArrayGeometry, jakes_correlation, steering_grid, steering_vector
from isackit.classical_design import (
    CovarianceTemplate,
    WaveformDesign,
    epsilon_design,
    genie_rate,
)
from isackit.constellation_ae import Constellation
from isackit.hybrid_pga import StepSchedule, pga_run_batch
from isackit.metrics import (
    awgn_mi_mmse,
    detection_at_false_alarm,
    gaussian_mi_mmse,
    glrt_statistics,
    mui_power,
    per_user_sinr,
    rate_report,
    roc_curve,
    simulate_target_echoes,
    sum_rate,
    transmit_beampattern,
    waveform_covariance,
)

BPSK = np.array([1.0, -1.0], dtype=complex)
QPSK = np.exp(2j * np.pi * np.arange(4) / 4)
QAM16 = (np.array([-3, -1, 1, 3])[:, None] + 1j * np.array([-3, -1, 1, 3])).ravel() / np.sqrt(10)


# ---------------------------------------------------------------- MUI / SINR


def test_mui_zero_at_interference_free_point(rng):
    H = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    D = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    X = np.linalg.pinv(H) @ D  # least-norm solution, K <= M full rank
    assert mui_power(H, X, D) < 1e-9


def test_mui_identity_channel_zero_waveform():
    K, tau = 3, 7
    H = np.eye(K, dtype=complex)
    D = np.exp(1j * np.linspace(0, 5, K * tau)).reshape(K, tau)  # unit power
    assert np.isclose(mui_power(H, np.zeros((K, tau)), D), K * tau)


def test_mui_matches_double_loop_oracle(rng):
    H = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    X = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    D = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    acc = 0.0
    for k in range(3):
        for q in range(4):
            acc += abs(H[k] @ X[:, q] - D[k, q]) ** 2
    assert np.isclose(mui_power(H, X, D), acc)


def test_mui_dimension_mismatch():
    with pytest.raises(ValueError):
        mui_power(np.eye(2), np.zeros((3, 2)), np.zeros((2, 2)))


def test_sinr_genie_point(rng):
    H = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    D = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 8)))
    X = np.linalg.pinv(H) @ D
    gam = per_user_sinr(H, X, D, noise_var=0.5)
    assert np.allclose(gam, 2.0, atol=1e-9)


def test_sinr_zero_waveform():
    K, tau = 2, 6
    H = np.eye(K, 4, dtype=complex)
    D = np.exp(1j * np.linspace(0, 3, K * tau)).reshape(K, tau)
    gam = per_user_sinr(H, np.zeros((4, tau)), D, noise_var=0.3)
    assert np.allclose(gam, 1.0 / (1.0 + 0.3))


def test_sinr_matches_scalar_oracle(rng):
    K, M, tau = 3, 5, 6
    H = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
    X = rng.standard_normal((M, tau)) + 1j * rng.standard_normal((M, tau))
    D = rng.standard_normal((K, tau)) + 1j * rng.standard_normal((K, tau))
    gam = per_user_sinr(H, X, D, noise_var=0.7)
    for k in range(K):
        sig = np.mean([abs(D[k, q]) ** 2 for q in range(tau)])
        res = np.mean([abs(H[k] @ X[:, q] - D[k, q]) ** 2 for q in range(tau)])
        assert np.isclose(gam[k], sig / (res + 0.7))


def test_sinr_matches_mean_formula_bitwise(rng):
    # row sums divided by tau are what np.mean computes, so the rates of
    # every design keep their bits
    for K, M, tau in ((3, 5, 6), (4, 16, 32), (1, 2, 7)):
        H = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        X = rng.standard_normal((M, tau)) + 1j * rng.standard_normal((M, tau))
        D = rng.standard_normal((K, tau)) + 1j * rng.standard_normal((K, tau))
        ref = (np.mean(np.abs(D) ** 2, axis=1)
               / (np.mean(np.abs(H @ X - D) ** 2, axis=1) + 0.7))
        assert np.array_equal(per_user_sinr(H, X, D, noise_var=0.7), ref)


def test_sinr_noise_validation(rng):
    with pytest.raises(ValueError):
        per_user_sinr(np.eye(2), np.zeros((2, 2)), np.ones((2, 2)), noise_var=0.0)


def test_sum_rate_values():
    assert sum_rate(np.array([1.0, 1.0, 1.0, 1.0])) == 4.0
    assert sum_rate(np.array([0.0])) == 0.0
    assert np.isclose(sum_rate(np.array([3.0, 15.0])), 6.0)
    # one sum per channel of a stack, over its users
    assert np.array_equal(sum_rate(np.array([[1.0, 1.0], [3.0, 0.0], [0.0, 0.0]])),
                          [2.0, 2.0, 0.0])


def test_frame_norm_is_np_linalg_norm_of_each_frame_bitwise(rng):
    # the one frame norm of Case I: the MUI, the trade-off rescale, the
    # epsilon design's metrics, the template fit's step test and the power
    # check of WaveformDesign all read it
    for shape in ((7, 9), (3, 4, 5), (2, 5, 64, 64), (1, 1, 3)):
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        frames = X.reshape((-1,) + shape[-2:])
        expected = np.reshape([np.linalg.norm(x) for x in frames], shape[:-2])
        assert np.array_equal(metrics._frame_norm(X), expected)


def test_rate_report_stack_is_the_per_channel_loop_bitwise(rng):
    # (8, 3, 8, 8) has B = M = tau: only the last axes may be reduced
    for B, K, M, tau in ((9, 3, 5, 6), (40, 4, 16, 32), (1, 1, 2, 7), (8, 3, 8, 8)):
        H = rng.standard_normal((B, K, M)) + 1j * rng.standard_normal((B, K, M))
        X = rng.standard_normal((B, M, tau)) + 1j * rng.standard_normal((B, M, tau))
        D = rng.standard_normal((B, K, tau)) + 1j * rng.standard_normal((B, K, tau))
        report = rate_report(H, X, D, 0.7)
        loop = [rate_report(h, x, d, 0.7) for h, x, d in zip(H, X, D)]
        assert isinstance(loop[0].sum_rate, float)
        assert report.sum_rate.shape == (B,)
        assert np.array_equal(report.sum_rate, [r.sum_rate for r in loop])
        assert np.array_equal(report.per_user_sinr, np.stack([r.per_user_sinr for r in loop]))
        mui = [mui_power(h, x, d) for h, x, d in zip(H, X, D)]
        # one channel keeps the bits of the squared Frobenius norm
        assert mui == [float(np.linalg.norm(h @ x - d) ** 2) for h, x, d in zip(H, X, D)]
        assert mui_power(H, X, D).shape == (B,)
        assert np.allclose(mui_power(H, X, D), mui, rtol=1e-14, atol=0)


# ----------------------------------------------------------- hybrid sum rate
#
# `hybrid_sum_rate` is the per-instance oracle that tests/test_hybrid_pga.py
# checks the batched rates of `hybrid_pga` against; these tests check it.


def test_hybrid_rate_single_user(rng):
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    F = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    w = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    r = hybrid_sum_rate(h[None, :], F, w, noise_var=0.8)
    assert np.isclose(r, np.log(1 + abs(h.conj() @ F @ w[:, 0]) ** 2 / 0.8))


def test_hybrid_rate_orthogonal_unit_gains():
    # effective channels orthonormal: each user sees unit gain, no leakage
    F = np.eye(3, dtype=complex)
    W = np.eye(3, dtype=complex)
    h = np.eye(3, dtype=complex)
    assert np.isclose(hybrid_sum_rate(h, F, W, noise_var=1.0), 3 * np.log(2))


def test_hybrid_rate_matches_scalar_oracle(rng):
    N, L, K = 4, 2, 2
    h = rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N))
    F = rng.standard_normal((N, L)) + 1j * rng.standard_normal((N, L))
    W = rng.standard_normal((L, K)) + 1j * rng.standard_normal((L, K))
    acc = 0.0
    for k in range(K):
        sig = abs(h[k].conj() @ F @ W[:, k]) ** 2
        intf = sum(abs(h[k].conj() @ F @ W[:, j]) ** 2 for j in range(K) if j != k)
        acc += np.log(1 + sig / (intf + 0.5))
    assert np.isclose(hybrid_sum_rate(h, F, W, noise_var=0.5), acc)


def test_hybrid_rate_validation():
    # the rates of hybrid_pga refuse a zero noise and mismatched stages
    h = np.ones((1, 2, 4), dtype=complex)
    F = np.ones((1, 4, 2), dtype=complex)
    W = np.ones((1, 2, 2), dtype=complex)
    schedule = StepSchedule.fixed(0.1, 1)
    with pytest.raises(ValueError):
        pga_run_batch(h, F, W, schedule, 1.0, noise_var=0.0)
    with pytest.raises(ValueError):
        pga_run_batch(h, np.ones((1, 3, 2), dtype=complex), W, schedule, 1.0)


# ------------------------------------------------------ covariance / pattern


def test_covariance_orthogonal_rows():
    M, tau, P = 4, 8, 2.0
    # rows of a scaled unitary embedding: X X^H = tau * (P/M) I
    U = np.fft.fft(np.eye(tau)) / np.sqrt(tau)
    X = np.sqrt(P / M * tau) * U[:M, :]
    cov = waveform_covariance(X)
    assert np.allclose(cov, (P / M) * np.eye(M), atol=1e-10)


def test_covariance_rank_one(rng):
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    cov = waveform_covariance(x[:, None])
    assert np.allclose(cov, np.outer(x, x.conj()), atol=1e-12)
    assert np.linalg.matrix_rank(cov, tol=1e-9) == 1


def test_covariance_matches_triple_loop(rng):
    M, tau = 3, 5
    X = rng.standard_normal((M, tau)) + 1j * rng.standard_normal((M, tau))
    cov = waveform_covariance(X)
    for a in range(M):
        for b in range(M):
            acc = sum(X[a, q] * np.conj(X[b, q]) for q in range(tau)) / tau
            assert abs(cov[a, b] - acc) < 1e-12
    assert np.allclose(cov, cov.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(cov)) > -1e-10


@pytest.mark.parametrize("shape", [(3, 4, 6), (8, 8, 8)])
def test_covariance_stack_is_the_per_frame_loop(rng, shape):
    # (8, 8, 8) is B = M = tau, where reversing every axis raised no error
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    loop = []
    for x in X:
        cov = waveform_covariance(x)
        # one frame keeps the bits of the symmetrized (1/tau) X X^H
        ref = (x @ x.conj().T) / x.shape[1]
        assert cov.tobytes() == (0.5 * (ref + ref.conj().T)).tobytes()
        loop.append(cov)
    stacked = waveform_covariance(X)
    assert stacked.shape == shape[:2] + shape[1:2]
    assert np.allclose(stacked, loop, rtol=1e-14, atol=0)


def test_beampattern_isotropic():
    geom = ArrayGeometry(4)
    cov = (2.0 / 4) * np.eye(4, dtype=complex)
    curve = transmit_beampattern(cov, np.linspace(-np.pi / 2, np.pi / 2, 51), geom)
    assert np.allclose(curve.gains, 2.0, atol=1e-10)


def test_beampattern_coherent_peak():
    geom = ArrayGeometry(6)
    v0 = steering_vector(0.35, geom)
    curve = transmit_beampattern(np.outer(v0, v0.conj()), np.array([0.35]), geom)
    assert np.isclose(curve.gains[0], 36.0)


def test_beampattern_matches_quadratic_form(rng):
    geom = ArrayGeometry(5)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    cov = A @ A.conj().T
    angles = np.linspace(-1.2, 1.2, 7)
    curve = transmit_beampattern(cov, angles, geom)
    for i, th in enumerate(angles):
        v = steering_vector(th, geom)
        assert np.isclose(curve.gains[i], (v.conj() @ cov @ v).real)


@pytest.mark.parametrize("shape", [(3, 8, 8), (8, 8, 8)])
def test_beampattern_stack_is_the_per_slice_loop(rng, shape):
    # non-Hermitian inputs, so the symmetrization is exercised; (8, 8, 8) is
    # a stack as deep as M, where reversing every axis raises no error
    geom = ArrayGeometry(8)
    covs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    angles = np.linspace(-1.4, 1.4, 37)
    curve = transmit_beampattern(covs, angles, geom)
    assert curve.gains.shape == (shape[0], 37)
    loop = np.stack([transmit_beampattern(c, angles, geom).gains for c in covs])
    assert curve.gains.tobytes() == loop.tobytes()


def test_beampattern_average_equals_trace(rng):
    # uniform grid in sin(theta): off-diagonal terms integrate out for
    # half-wavelength spacing, leaving exactly trace(cov)
    geom = ArrayGeometry(6)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cov = A @ A.conj().T
    u = np.linspace(-1.0, 1.0, 4001)
    curve = transmit_beampattern(cov, np.arcsin(u), geom)
    avg = curve.gains.mean()
    assert abs(avg - np.trace(cov).real) < 0.02 * np.trace(cov).real


def test_lag_kernels_match_the_steering_grid_oracles(rng):
    # every M from 1 to 64, on a grid with both endpoints, against the einsum
    # of the Hermitian part and the product V diag(w) V^H. Tolerances, set
    # from the dtype: each gain sums M^2 terms |C_mn| and each Toeplitz entry
    # A terms |w_a|, and every term carries at most ~log2(M) + 2 roundings
    eps = np.finfo(float).eps
    angles = np.concatenate([[-np.pi / 2, np.pi / 2], rng.uniform(-np.pi / 2, np.pi / 2, 35)])
    for M in range(1, 65):
        V = steering_grid(angles, ArrayGeometry(M))
        table = metrics._lag_table(angles, M)
        covs = rng.standard_normal((3, M, M)) + 1j * rng.standard_normal((3, M, M))
        oracle = pattern_gains(V, 0.5 * (covs + covs.conj().swapaxes(-1, -2)))
        gains = metrics._lag_gains(covs, table)
        scale = np.abs(covs).sum(axis=(-2, -1))[:, None]
        assert np.all(np.abs(gains - oracle) <= 16 * M * eps * scale), M
        assert gains.tobytes() == np.stack([metrics._lag_gains(c, table) for c in covs]).tobytes()
        weights = rng.standard_normal(angles.size)
        G = metrics._lag_toeplitz(weights, table)
        assert np.array_equal(G, G.conj().T)
        assert np.all(np.abs(G - (V * weights) @ V.conj().T)
                      <= 16 * (M + angles.size) * eps * np.abs(weights).sum()), M


def test_beampattern_of_psd_covariance_is_nonnegative_at_its_nulls(rng):
    # v0 v0^H / M has exact nulls at sin theta = sin theta0 + 2k/M, where the
    # lag sums (and the einsum before them) round to either side of zero;
    # an indefinite covariance keeps its negative gains
    for M in (4, 8, 10, 16, 32):
        geom = ArrayGeometry(M)
        for _ in range(20):
            s0 = rng.uniform(-0.5, 0.5)
            v0 = steering_vector(np.arcsin(s0), geom)
            s = s0 + 2.0 * np.arange(1, M) / M
            nulls = np.arcsin(np.where(s > 1.0, s - 2.0, s))
            gains = transmit_beampattern(np.outer(v0, v0.conj()) / M, nulls, geom).gains
            assert np.all(gains >= 0.0) and np.all(gains <= 1e-12)
        assert np.all(transmit_beampattern(-np.eye(M), nulls, geom).gains == -M)


def test_beampattern_rejects_a_covariance_of_another_size():
    with pytest.raises(ValueError, match="4 x 4"):
        transmit_beampattern(np.eye(3), np.array([0.0]), ArrayGeometry(4))


# ------------------------------------------------------------------ GLRT/ROC


def test_glrt_zero_echo(rng):
    geom = ArrayGeometry(4)
    X = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    assert glrt_statistics(np.zeros((1, 4, 6)), 0.2, X, 1.0, geom)[0] == 0.0


def test_glrt_noise_free_divergence(rng):
    geom = ArrayGeometry(4)
    X = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    echoes = simulate_target_echoes(X, 0.2, alpha=0.5, noise_var=0.0, geom=geom,
                                    trials=1, rng=rng)
    t1 = glrt_statistics(echoes, 0.2, X, 1e-2, geom)[0]
    t2 = glrt_statistics(echoes, 0.2, X, 1e-4, geom)[0]
    assert np.isclose(t2 / t1, 100.0)


def test_glrt_null_distribution_unit_mean(rng):
    # under H0 the normalized statistic is Exp(1); check the empirical mean
    geom = ArrayGeometry(4)
    X = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    echoes = simulate_target_echoes(X, -0.3, alpha=0.0, noise_var=2.0, geom=geom,
                                    trials=100_000, rng=rng)
    stats = glrt_statistics(echoes, -0.3, X, 2.0, geom)
    assert 0.95 < stats.mean() < 1.05


def test_echoes_match_out_of_place_formula_bitwise(rng):
    # alpha * v v^T X plus sqrt(var/2) (N_re + 1j N_im), each part one
    # whole-array draw, N_re first: the blocked draw gives the same bits and
    # leaves the generator where the two draws leave it, for alpha 0 and not,
    # at one trial, within a block, at a block's edges and across blocks
    geom = ArrayGeometry(4)
    X = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    var, angle = 1.7, 0.4
    v = steering_vector(angle, geom)
    block = metrics._ECHO_BLOCK // X.size
    for alpha in (0.0, 0.3 - 0.2j):
        for trials in (1, 500, block - 1, block, block + 1, 2 * block + 7):
            mine = np.random.default_rng(9)
            echoes = simulate_target_echoes(X, angle, alpha, var, geom, trials,
                                            mine)
            r = np.random.default_rng(9)
            shape = (trials, 4, 8)
            noise = np.sqrt(var / 2.0) * (r.standard_normal(shape)
                                          + 1j * r.standard_normal(shape))
            oracle = alpha * np.outer(v, v @ X)[None, :, :] + noise
            assert np.array_equal(echoes.view(np.uint64),
                                  oracle.view(np.uint64))
            assert mine.standard_normal() == r.standard_normal()


@pytest.mark.parametrize("power", [1e200, 1e300])
def test_glrt_statistic_is_finite_at_large_powers(power, rng):
    # scaling X and the echoes by c and the noise variance by c^2 leaves the
    # statistic unchanged; |v^H Z s^H|^2 alone overflowed from powers near
    # 1e150, and the statistic read nan (inf / inf)
    geom = ArrayGeometry(4)
    X = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    echoes = simulate_target_echoes(X, 0.2, alpha=0.5, noise_var=1.0, geom=geom,
                                    trials=50, rng=rng)
    c = np.sqrt(power)
    unit = glrt_statistics(echoes, 0.2, X, 1.0, geom)
    scaled = glrt_statistics(c * echoes, 0.2, c * X, power, geom)
    assert np.all(np.isfinite(scaled))
    assert np.allclose(scaled, unit, rtol=1e-12, atol=0.0)


def test_glrt_zero_energy_waveform_rejected():
    geom = ArrayGeometry(3)
    with pytest.raises(ValueError, match="no energy"):
        glrt_statistics(np.ones((1, 3, 4)), 0.0, np.zeros((3, 4)), 1.0, geom)


def test_roc_endpoints_and_chance_line(rng):
    same = rng.standard_normal(5000)
    curve = roc_curve(same, same.copy())
    assert curve.pfa[0] == 1.0 and curve.pd[0] == 1.0
    assert curve.pfa[-1] == 0.0 and curve.pd[-1] == 0.0
    assert np.max(np.abs(curve.pd - curve.pfa)) < 1e-12


def test_roc_gaussian_oracle(rng):
    # H0 ~ N(0,1), H1 ~ N(3,1): Pd at Pfa=0.1 is Q(Qinv(0.1) - 3)
    n = 100_000
    h0 = rng.standard_normal(n)
    h1 = rng.standard_normal(n) + 3.0
    curve = roc_curve(h0, h1)
    pd = detection_at_false_alarm(curve, 0.1)
    oracle = norm.sf(norm.isf(0.1) - 3.0)
    assert abs(pd - oracle) < 0.02


@given(seed=st.integers(0, 2**31 - 1))
def test_roc_monotone_in_pfa(seed):
    r = np.random.default_rng(seed)
    curve = roc_curve(r.standard_normal(300), r.standard_normal(300) + 1.0)
    # thresholds ascend, so both series are nonincreasing
    assert np.all(np.diff(curve.pfa) <= 1e-15)
    assert np.all(np.diff(curve.pd) <= 1e-15)


# ------------------------------------------------------------------- MI/MMSE


def test_gaussian_closed_form():
    pt = gaussian_mi_mmse(1.0)
    assert np.isclose(pt.mutual_info, np.log(2.0), atol=1e-12)
    assert np.isclose(pt.mmse, 0.5, atol=1e-12)


def test_bpsk_high_snr_limits():
    pt = awgn_mi_mmse(BPSK, 200.0)
    assert abs(pt.mutual_info - np.log(2.0)) < 1e-6
    assert pt.mmse < 1e-6


def test_qpsk_matches_monte_carlo_oracle():
    # 4 chunks of 1e6 samples: the 1e-3 band then sits at roughly 4.4 sigma
    snr = 1.0
    pt = awgn_mi_mmse(QPSK, snr)
    r = np.random.default_rng(2024)
    n = 1_000_000
    se_sum, logpy_sum = 0.0, 0.0
    for _ in range(4):
        x = QPSK[r.integers(0, 4, n)]
        noise = (r.standard_normal(n) + 1j * r.standard_normal(n)) / np.sqrt(2)
        y = np.sqrt(snr) * x + noise
        d2 = np.abs(y[:, None] - np.sqrt(snr) * QPSK[None, :]) ** 2
        w = np.exp(-(d2 - d2.min(axis=1, keepdims=True)))
        w /= w.sum(axis=1, keepdims=True)
        xhat = w @ QPSK
        se_sum += np.sum(np.abs(x - xhat) ** 2)
        logpy_sum += np.sum(np.log(np.mean(np.exp(-d2), axis=1) / np.pi))
    mmse_mc = se_sum / (4 * n)
    mi_mc = -logpy_sum / (4 * n) - (1 + np.log(np.pi))
    assert abs(pt.mmse - mmse_mc) < 1e-3
    assert abs(pt.mutual_info - mi_mc) < 1e-3


def test_mc_fallback_agrees_with_quadrature():
    a = awgn_mi_mmse(QPSK, 2.0, method="quadrature")
    b = awgn_mi_mmse(QPSK, 2.0, method="mc", rng=np.random.default_rng(5))
    assert abs(a.mutual_info - b.mutual_info) < 3e-3
    assert abs(a.mmse - b.mmse) < 3e-3


def test_large_constellation_takes_mc_path(rng):
    pts = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    pts /= np.sqrt(np.mean(np.abs(pts) ** 2))
    pt = awgn_mi_mmse(pts, 1.0, mc_samples=20_000, rng=rng)
    assert 0.0 <= pt.mmse <= 1.0
    assert pt.mutual_info >= 0.0


@pytest.mark.parametrize("size, method", [(4, "mc"), (128, "auto")])
def test_monte_carlo_needs_a_generator(size, method):
    # a hidden default seed made any two such calls share one noise draw
    pts = np.exp(2j * np.pi * np.arange(size) / size)
    with pytest.raises(ValueError, match="rng"):
        awgn_mi_mmse(pts, 1.0, mc_samples=100, method=method)


def test_non_normalized_constellation_rejected():
    with pytest.raises(ValueError, match="unit average power"):
        awgn_mi_mmse(2.0 * BPSK, 1.0)


def test_i_mmse_derivative_identity():
    # complex-channel identity: dI/dgamma = MMSE(gamma), checked by centered
    # finite differences on a 0.01-wide linear-SNR step. Each Monte Carlo call
    # draws from a fresh seed-0 generator, so the three SNRs share noise draws.
    curves = [gaussian_mi_mmse]
    curves += [lambda snr, p=p: awgn_mi_mmse(p, snr) for p in (BPSK, QPSK)]
    curves += [lambda snr, p=p: awgn_mi_mmse(p, snr, mc_samples=20_000,
                                             rng=np.random.default_rng(0), method="mc")
               for p in (QPSK, QAM16)]
    for point_at in curves:
        for snr in (0.5, 1.0, 3.0):
            lo, hi, mid = point_at(snr - 0.005), point_at(snr + 0.005), point_at(snr)
            deriv = (hi.mutual_info - lo.mutual_info) / 0.01
            assert abs(deriv - mid.mmse) < 1e-2


def _mi_mmse_oracle(points, probs, snr, noise, weights):
    # the complex-distance form: (M, Q, M) distances, scipy logsumexp, and a
    # second exp pass for the posterior
    a = np.sqrt(snr)
    y = a * points[:, None] + noise[None, :]
    log_terms = np.log(probs) - np.abs(y[:, :, None] - a * points) ** 2
    log_norm = logsumexp(log_terms, axis=-1)
    w = probs[:, None] * weights[None, :]
    mi = -np.sum(w * (log_norm - np.log(np.pi))) - (1.0 + np.log(np.pi))
    xhat = np.exp(log_terms - log_norm[:, :, None]) @ points
    return mi, np.sum(w * np.abs(points[:, None] - xhat) ** 2)


def _kernel_noise(kind):
    # 12^2 Gauss-Hermite nodes, or 120 seeded normal draws
    if kind == "quadrature":
        t, w = np.polynomial.hermite.hermgauss(12)
        return ((t[:, None] + 1j * t[None, :]).ravel(),
                ((w[:, None] * w[None, :]) / np.pi).ravel())
    r = np.random.default_rng(8)
    noise = (r.standard_normal(120) + 1j * r.standard_normal(120)) / np.sqrt(2)
    return noise, np.full(120, 1.0 / 120)


def _maxwell_boltzmann_qam16():
    pts = QAM16 * np.sqrt(10)
    probs = np.exp(-0.1 * np.abs(pts) ** 2)
    probs /= probs.sum()
    return pts / np.sqrt(np.sum(probs * np.abs(pts) ** 2)), probs


@pytest.mark.parametrize("noise_kind", ["quadrature", "mc"])
@pytest.mark.parametrize("case", ["qam64", "qam256", "mb_qam16"])
@pytest.mark.parametrize("snr", [0.5, 3.0, 10.0])
def test_mi_mmse_kernel_matches_complex_logsumexp(noise_kind, case, snr):
    if case == "mb_qam16":
        pts, probs = _maxwell_boltzmann_qam16()
    else:
        side = 8 if case == "qam64" else 16
        lv = 2 * np.arange(side) - side + 1.0
        pts = (lv[:, None] + 1j * lv[None, :]).ravel()
        pts /= np.sqrt(np.mean(np.abs(pts) ** 2))
        probs = np.full(pts.size, 1.0 / pts.size)
    noise, weights = _kernel_noise(noise_kind)
    mi, mmse = metrics._mi_mmse_on_noise(pts, probs, snr, noise, weights)
    mi_o, mmse_o = _mi_mmse_oracle(pts, probs, snr, noise, weights)
    assert abs(mi - mi_o) <= 1e-12 * abs(mi_o)
    assert abs(mmse - mmse_o) <= 1e-12 * abs(mmse_o)


@pytest.mark.parametrize("points", [QPSK, QAM16], ids=["qpsk", "qam16"])
@pytest.mark.parametrize("snr_db", [100.0, 150.0, 200.0])
def test_mi_reaches_the_input_entropy_at_high_snr(points, snr_db):
    # I -> ln M and MMSE -> 0 as the SNR grows; the exponents are built from
    # symbol differences, so no term of order SNR cancels on the way
    pt = awgn_mi_mmse(points, 10.0 ** (snr_db / 10.0), method="quadrature")
    assert abs(pt.mutual_info - np.log(points.size)) <= 1e-9
    assert 0.0 <= pt.mmse <= 1e-9


@pytest.mark.parametrize("noise_kind", ["quadrature", "mc"])
@pytest.mark.parametrize("snr", [0.5, 3.0, 10.0, 1e4])
def test_mi_mmse_kernel_on_a_zero_probability_point(noise_kind, snr):
    # a corner of Maxwell-Boltzmann 16-QAM never sent: the kernel stays
    # finite, raises no floating-point error, and equals the oracle on the
    # support
    pts, probs = _maxwell_boltzmann_qam16()
    probs = probs.copy()
    probs[0] = 0.0
    probs /= probs.sum()
    pts = pts / np.sqrt(np.sum(probs * np.abs(pts) ** 2))
    noise, weights = _kernel_noise(noise_kind)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        mi, mmse = metrics._mi_mmse_on_noise(pts, probs, snr, noise, weights)
    support = probs > 0
    mi_o, mmse_o = _mi_mmse_oracle(pts[support], probs[support], snr, noise,
                                   weights)
    assert np.isfinite(mi) and np.isfinite(mmse)
    assert abs(mi - mi_o) <= 1e-12 * abs(mi_o)
    assert abs(mmse - mmse_o) <= 1e-12 * abs(mmse_o) + 1e-15
    point = awgn_mi_mmse(pts, snr, probs=probs)
    assert np.isfinite(point.mutual_info) and np.isfinite(point.mmse)


def test_gaussian_dominates_discrete_mmse():
    for snr_db in range(-10, 21, 3):
        snr = 10 ** (snr_db / 10)
        g = gaussian_mi_mmse(snr).mmse
        assert g >= awgn_mi_mmse(BPSK, snr).mmse - 1e-9
        assert g >= awgn_mi_mmse(QPSK, snr).mmse - 1e-9


# ----------------------------------------------------------------------- SER


def test_error_rates_trivial():
    a = np.array([0, 1, 2, 3])
    assert np.mean(a != a) == 0.0
    bits = np.array([0, 1, 0, 1])
    assert np.mean(bits != 1 - bits) == 1.0


def test_qpsk_ser_closed_form_oracle(rng):
    snr = 10.0  # 10 dB
    n = 1_000_000
    labels = rng.integers(0, 4, n)
    x = QPSK[labels]
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    y = np.sqrt(snr) * x + noise
    decided = np.argmin(np.abs(y[:, None] - np.sqrt(snr) * QPSK[None, :]) ** 2, axis=1)
    q = norm.sf(np.sqrt(snr))
    oracle = 2 * q - q**2
    measured = np.mean(labels != decided)
    assert abs(measured - oracle) < 3 * np.sqrt(oracle / n)


# ------------------------------------------------------------ range checks

_NAN = float("nan")
_H = np.array([[1.0, 0.5j], [0.2, -1.0]])
_D = np.ones((2, 4), dtype=complex)
_X = np.ones((2, 4), dtype=complex)  # unit power per antenna and column


@pytest.mark.parametrize("call, field", [
    (lambda: WaveformDesign(np.full((2, 2), _NAN), 1.0), "waveform X"),
    (lambda: WaveformDesign(_X, _NAN), "power budget"),
    (lambda: WaveformDesign(_X, _NAN, exact_power=False), "power budget"),
    (lambda: Constellation(np.array([_NAN, 1.0])), "constellation points"),
    (lambda: CovarianceTemplate(np.array([[1.0, _NAN], [_NAN, 1.0]]), 2.0),
     "covariance template"),
    (lambda: CovarianceTemplate(np.eye(2), _NAN), "power"),
    (lambda: jakes_correlation(_NAN), "user_speed"),
    (lambda: per_user_sinr(_H, _X, _D, _NAN), "noise_var"),
    (lambda: glrt_statistics(np.ones((1, 2, 4)), 0.0, _X, _NAN, ArrayGeometry(2)),
     "noise_var"),
    (lambda: genie_rate(_D, _NAN), "noise_var"),
    (lambda: pga_run_batch(np.ones((1, 1, 2)), np.ones((1, 2, 1)), np.ones((1, 1, 1)),
                           StepSchedule.fixed(0.1, 1), 1.0, _NAN), "noise_var"),
    (lambda: gaussian_mi_mmse(_NAN), "snr"),
    (lambda: awgn_mi_mmse([_NAN, 1.0], 1.0), "constellation points"),
    (lambda: awgn_mi_mmse(BPSK, _NAN), "snr"),
    (lambda: awgn_mi_mmse(BPSK, 1.0, probs=[_NAN, 0.5]), "probs"),
    (lambda: epsilon_design(_H, _D, _X, _NAN, "comm_priority", 1.0), "bound"),
], ids=["design_X", "design_power", "learned_design_power", "constellation",
        "template_matrix", "template_power", "aging_speed", "sinr_noise", "glrt_noise",
        "genie_noise", "pga_noise", "gaussian_snr", "awgn_points", "awgn_snr", "awgn_probs", "epsilon_bound"])
def test_nan_fails_every_range_check(call, field):
    with pytest.raises(ValueError, match=field):
        call()
