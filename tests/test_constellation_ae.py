"""Constellation autoencoder: loss oracles, gradient checks, receiver
closed forms, calibration round trips, and small training runs."""

import numpy as np
import pytest
from scipy.special import expit, log_expit, logsumexp, softmax
from scipy.stats import multivariate_normal, norm

from isackit import constellation_ae
from isackit.channel import complex_normal
from isackit.constellation_ae import (
    Constellation,
    IsacAutoencoder,
    amplitude_spread,
    baseline_constellation,
    build_isac_ae,
    calibrate_comm_noise,
    calibrate_radar_noise,
    combined_step,
    comm_loss,
    detection_statistic,
    evaluate_isac,
    extract_constellation,
    message_bits,
    ml_decode,
    normalize_symbols,
    normalize_vjp,
    radar_loss,
    train_isac_ae,
)
from isackit.neural import TrainConfig, predict


def qfunc(x):
    return norm.sf(x)


# ----------------------------------------------------------------- messages


def test_message_bits_little_endian():
    # bits enter as +-1 (2b - 1): 6 = 0b110, least significant bit first
    bits = message_bits([6], 3)
    assert np.array_equal(bits, [[-1.0, 1.0, 1.0]])


def test_message_bits_round_trip():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 32, size=50)
    bits = message_bits(labels, 5)
    back = ((bits + 1) / 2) @ (2 ** np.arange(5))
    assert np.array_equal(back.astype(int), labels)


def test_no_message_encodes_to_the_zero_input():
    # with 0/1 bits message 0 fed the zero vector, which a zero-bias encoder
    # maps to the zero symbol whatever its weights
    bits = message_bits(np.arange(2 ** 4), 4)
    assert np.all(np.abs(bits) == 1.0)


# ------------------------------------------------------------- loss oracles
# Both heads emit logits: the decoder (B, M) message logits, the detector one
# presence logit per row. The oracles below are scipy's log-softmax and
# log-sigmoid, and central differences in the logits.


def test_comm_loss_uniform_prediction_is_log_m():
    # equal logits, whatever their level, are the uniform prediction
    value, _ = comm_loss(np.full((5, 8), 3.7), np.arange(5))
    assert abs(value - np.log(8.0)) < 1e-12


def test_comm_loss_perfect_prediction_is_zero():
    logits = 50.0 * np.eye(4)[[2, 0, 3]]
    value, grad = comm_loss(logits, [2, 0, 3])
    assert abs(value) <= 1e-15
    assert np.max(np.abs(grad)) < 1e-20


def test_comm_loss_matches_direct_sum():
    rng = np.random.default_rng(1)
    logits = 4.0 * rng.standard_normal((6, 8))
    labels = rng.integers(0, 8, size=6)
    value, _ = comm_loss(logits, labels)
    oracle = -sum(logits[i, labels[i]] - logsumexp(logits[i])
                  for i in range(6)) / 6.0
    assert abs(value - oracle) < 1e-12


def test_comm_loss_softmax_gradient_fd():
    rng = np.random.default_rng(2)
    logits = 2.0 * rng.standard_normal((4, 5))
    labels = rng.integers(0, 5, size=4)
    _, grad = comm_loss(logits, labels)
    h = 1e-6
    for index in np.ndindex(logits.shape):
        up, down = logits.copy(), logits.copy()
        up[index] += h
        down[index] -= h
        fd = (comm_loss(up, labels)[0] - comm_loss(down, labels)[0]) / (2 * h)
        assert abs(grad[index] - fd) < 1e-8


def test_comm_loss_gradient_is_softmax_minus_one_hot():
    rng = np.random.default_rng(3)
    logits = 3.0 * rng.standard_normal((7, 6))
    labels = rng.integers(0, 6, size=7)
    _, grad = comm_loss(logits, labels)
    probs = 7 * grad + np.eye(6)[labels]
    assert np.allclose(probs, softmax(logits, axis=1), rtol=1e-12, atol=1e-15)
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-14)


def test_radar_loss_matched_and_uniform():
    # 50-nat margins on the right side, then zero logits
    value, grad = radar_loss(np.array([50.0, -50.0, 50.0]), np.array([1, 0, 1]))
    assert abs(value) <= 1e-15 and np.max(np.abs(grad)) < 1e-20
    value, _ = radar_loss(np.zeros(9), np.arange(9) % 2)
    assert abs(value - np.log(2.0)) < 1e-12


def test_radar_loss_matches_direct_sum_and_fd():
    rng = np.random.default_rng(4)
    logits = 3.0 * rng.standard_normal((11, 1))
    flags = rng.integers(0, 2, size=11)
    value, grad = radar_loss(logits, flags)
    assert grad.shape == logits.shape
    oracle = -np.mean([f * log_expit(z) + (1 - f) * log_expit(-z)
                       for z, f in zip(logits[:, 0], flags)])
    assert abs(value - oracle) < 1e-12
    assert np.allclose(grad[:, 0], (expit(logits[:, 0]) - flags) / 11,
                       rtol=1e-12, atol=1e-16)
    h = 1e-6
    for index in np.ndindex(logits.shape):
        up, down = logits.copy(), logits.copy()
        up[index] += h
        down[index] -= h
        fd = (radar_loss(up, flags)[0] - radar_loss(down, flags)[0]) / (2 * h)
        assert abs(grad[index] - fd) < 1e-8


def test_losses_are_exact_at_wrong_margins():
    # no probability clamp: a 50-nat wrong margin costs 50 nats, and the
    # gradient keeps its full size
    value, grad = comm_loss(np.array([[0.0, 50.0, 0.0, 0.0]] * 2), [0, 0])
    assert abs(value - 50.0) < 1e-12
    assert np.allclose(grad, [[-0.5, 0.5, 0.0, 0.0]] * 2, rtol=0, atol=1e-20)
    value, grad = radar_loss(np.array([-50.0, 50.0]), np.array([1, 0]))
    assert abs(value - 50.0) < 1e-12
    assert np.allclose(grad, [-0.5, 0.5], rtol=0, atol=1e-20)


def test_radar_loss_saturates_without_floating_point_warnings():
    # exp(800) overflows, so the logistic terms go through logaddexp; the
    # pytest configuration turns any warning into an error
    z = np.array([-800.0, 0.0, 800.0, -800.0, 800.0])
    T = np.array([0, 1, 1, 1, 0])
    value, grad = radar_loss(z, T)
    assert abs(value - (np.log(2.0) + 1600.0) / 5) < 1e-12
    assert grad.tolist() == [0.0, -0.1, 0.0, -0.2, 0.2]
    value, grad = comm_loss(np.array([[800.0, -800.0, 0.0]]), [1])
    assert value == 1600.0
    assert grad.tolist() == [[1.0, -1.0, 0.0]]


# ------------------------------------------------------------ normalization


def test_normalize_symbols_unit_power():
    rng = np.random.default_rng(5)
    raw = 3.0 * rng.standard_normal((40, 2))
    x, scale = normalize_symbols(raw)
    assert abs(np.mean(np.sum(x ** 2, axis=1)) - 1.0) < 1e-12
    assert np.allclose(raw / scale, x)
    with pytest.raises(ValueError):
        normalize_symbols(np.zeros((3, 2)))


def test_normalize_vjp_matches_fd():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((5, 2))
    A = rng.standard_normal((5, 2))

    def loss(r):
        x, _ = normalize_symbols(r)
        return float(np.sum(A * x))

    x, scale = normalize_symbols(raw)
    grad = normalize_vjp(x, scale, A)
    h = 1e-6
    for i, j in [(0, 0), (2, 1), (4, 0)]:
        rp = raw.copy()
        rm = raw.copy()
        rp[i, j] += h
        rm[i, j] -= h
        fd = (loss(rp) - loss(rm)) / (2 * h)
        assert abs(grad[i, j] - fd) < 1e-7 * max(1.0, abs(fd))


# ------------------------------------------------- end-to-end gradient flow


def _fd_combined(ae, param, index, labels, T, nc, nr, h=1e-6):
    old = param[index]
    param[index] = old + h
    up = combined_step(ae, labels, T, nc, nr)[0]
    param[index] = old - h
    down = combined_step(ae, labels, T, nc, nr)[0]
    param[index] = old
    return (up - down) / (2 * h)


def test_combined_step_gradients_match_fd():
    rng = np.random.default_rng(13)
    ae = build_isac_ae(2, 0.6, rng)
    data = np.random.default_rng(14)
    labels = data.integers(0, 4, size=6)
    T = data.integers(0, 2, size=6)
    nc = 0.4 * data.standard_normal((6, 2))
    nr = 0.5 * data.standard_normal((6, 2))
    _, enc_g, dec_g, det_g = combined_step(ae, labels, T, nc, nr)
    checks = [(ae.encoder.weights[0], enc_g[0][0]),
              (ae.encoder.weights[3], enc_g[3][0]),
              (ae.comm_decoder.weights[1], dec_g[1][0]),
              (ae.radar_detector.weights[2], det_g[2][0]),
              (ae.radar_detector.biases[3], det_g[3][1])]
    for param, grad in checks:
        flat = np.argmax(np.abs(grad))
        index = np.unravel_index(flat, grad.shape)
        fd = _fd_combined(ae, param, index, labels, T, nc, nr)
        assert abs(grad[index] - fd) < 1e-5 * max(1.0, abs(fd))


def test_combined_step_is_exact_at_wrong_margins():
    # both heads wrong by 50 nats on every row: the decoder's last bias puts
    # message 3 50 nats above the sent message 1, the detector's puts the
    # present target at logit -50; their weights are zero, so the margins
    # hold whatever the symbols
    eta, B = 0.5, 8
    ae = build_isac_ae(2, eta, np.random.default_rng(40))
    for head, bias in ((ae.comm_decoder, [0.0, 0.0, 0.0, 50.0]),
                       (ae.radar_detector, [-50.0])):
        head.weights[-1][...] = 0.0
        head.biases[-1][...] = bias
    data = np.random.default_rng(41)
    noise = 0.1 * data.standard_normal((2, B, 2))
    value, _, dec_g, det_g = combined_step(ae, np.ones(B, dtype=int),
                                           np.ones(B), *noise)
    assert abs(value - 50.0) < 1e-9
    assert np.allclose(dec_g[-1][1], [0.0, -(1 - eta), 0.0, 1 - eta],
                       rtol=0, atol=1e-9)
    assert np.allclose(det_g[-1][1], [-eta], rtol=0, atol=1e-9)


def test_encoder_gradient_is_alive():
    rng = np.random.default_rng(15)
    ae = build_isac_ae(2, 0.5, rng)
    data = np.random.default_rng(16)
    labels = data.integers(0, 4, size=32)
    T = data.integers(0, 2, size=32)
    nc = 0.3 * data.standard_normal((32, 2))
    nr = 0.4 * data.standard_normal((32, 2))
    _, enc_g, _, _ = combined_step(ae, labels, T, nc, nr)
    for dw, db in enc_g:
        assert np.max(np.abs(dw)) > 0
    assert sum(np.sum(dw ** 2) for dw, _ in enc_g) > 0


# ------------------------------------------------------------ constellation


def test_constellation_validation():
    with pytest.raises(ValueError):
        Constellation(np.array([2.0 + 0j, 0j]))
    with pytest.raises(ValueError):
        Constellation(np.array([[1j, 1.0 + 0j]]))
    ok = Constellation(np.array([1j, -1j]))
    assert ok.size == 2


def test_extract_constellation_unit_power_and_deterministic():
    rng = np.random.default_rng(17)
    ae = build_isac_ae(4, 0.5, rng)
    c1 = extract_constellation(ae)
    c2 = extract_constellation(ae)
    assert c1.size == 16
    assert abs(np.mean(np.abs(c1.points) ** 2) - 1.0) < 1e-9
    assert np.array_equal(c1.points, c2.points)


def test_baseline_psk_and_qam():
    psk = baseline_constellation("PSK", 32)
    assert np.allclose(np.abs(psk.points), 1.0)
    assert amplitude_spread(psk) < 1e-12
    qam = baseline_constellation("QAM", 32)
    assert qam.size == 32
    assert abs(np.mean(np.abs(qam.points) ** 2) - 1.0) < 1e-9
    corner = np.max(np.abs(qam.points.real)) + 1j * np.max(np.abs(qam.points.imag))
    dist = np.min(np.abs(qam.points - corner))
    assert dist > 0.1
    assert amplitude_spread(qam) > 0.15
    square = baseline_constellation("QAM", 16)
    lv = np.array([-3.0, -1.0, 1.0, 3.0])
    grid = (lv[:, None] + 1j * lv[None, :]).ravel()
    grid /= np.sqrt(np.mean(np.abs(grid) ** 2))
    assert np.allclose(sorted(square.points, key=lambda p: (p.real, p.imag)),
                       sorted(grid, key=lambda p: (p.real, p.imag)))
    with pytest.raises(ValueError):
        baseline_constellation("QAM", 12)
    with pytest.raises(ValueError):
        baseline_constellation("APSK", 16)


# -------------------------------------------------------------- receivers


def test_ml_decode_noiseless_is_exact():
    pts = baseline_constellation("QAM", 16).points
    idx = np.arange(16)
    assert np.array_equal(ml_decode(pts[idx], pts), idx)


def _ml_decode_oracle(y, pts):
    # the unblocked body: one (trials, M) matrix of squared distances
    return np.argmin(np.abs(y[:, None] - pts[None, :]) ** 2, axis=1)


@pytest.mark.parametrize("kind, size", [("PSK", 16), ("QAM", 64)])
def test_ml_decode_blocks_match_unblocked_argmin(kind, size):
    pts = baseline_constellation(kind, size).points
    block = constellation_ae._DETECT_BLOCK // size
    rng = np.random.default_rng(43)
    for n in (100_000, block - 1, block, block + 1):
        y = pts[rng.integers(0, size, n)] + 0.4 * complex_normal(n, rng)
        # 0 ties every PSK point and the four central QAM points
        y[::97] = 0.0
        assert np.array_equal(ml_decode(y, pts), _ml_decode_oracle(y, pts))


def test_qpsk_ser_matches_closed_form():
    const = baseline_constellation("PSK", 4)
    var = 0.5
    ser, _, _ = evaluate_isac(const, var, 1.0, 50.0, 200_000,
                              np.random.default_rng(18))
    gamma = 1.0 / var
    q = qfunc(np.sqrt(gamma))
    closed = 2 * q - q ** 2
    assert abs(ser - closed) < 0.004


def test_single_point_detection_matches_gaussian_closed_form():
    const = Constellation(np.array([1.0 + 0j]))
    var = 1.0
    pfa = 0.1
    rng = np.random.default_rng(19)
    h0 = np.sqrt(var / 2.0) * (rng.standard_normal(200_000)
                               + 1j * rng.standard_normal(200_000))
    thr = float(np.quantile(detection_statistic(h0, const.points, var),
                            1.0 - pfa))
    _, pd, pfa_hat = evaluate_isac(const, 0.1, var, thr, 200_000, rng)
    closed = qfunc(norm.isf(pfa) - np.sqrt(2.0 / var))
    assert abs(pd - closed) < 0.01
    assert abs(pfa_hat - pfa) < 0.01


def test_detection_statistic_blocking_is_invisible(monkeypatch):
    rng = np.random.default_rng(20)
    pts = baseline_constellation("PSK", 8).points
    z = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    monkeypatch.setattr(constellation_ae, "_DETECT_BLOCK", 64)
    a = detection_statistic(z, pts, 0.5)
    monkeypatch.setattr(constellation_ae, "_DETECT_BLOCK", 100000)
    b = detection_statistic(z, pts, 0.5)
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("kind, size", [("PSK", 8), ("QAM", 16)])
@pytest.mark.parametrize("var", [0.3, 2.0])
def test_detection_statistic_is_gaussian_mixture_llr(kind, size, var):
    # log( mean_i N(z; p_i, var) / N(z; 0, var) ) with circular complex
    # noise, i.e. a 2-D Gaussian of covariance var/2 * I on (Re, Im)
    pts = baseline_constellation(kind, size).points
    rng = np.random.default_rng(35)
    n = 300
    z = pts[rng.integers(0, size, n)] * rng.integers(0, 2, n) \
        + np.sqrt(var / 2.0) * (rng.standard_normal(n)
                                + 1j * rng.standard_normal(n))
    zr = np.column_stack([z.real, z.imag])
    cov = 0.5 * var * np.eye(2)
    h1 = np.mean([multivariate_normal([p.real, p.imag], cov).pdf(zr)
                  for p in pts], axis=0)
    h0 = multivariate_normal([0.0, 0.0], cov).pdf(zr)
    oracle = np.log(h1 / h0)
    stat = detection_statistic(z, pts, var)
    assert np.all(np.abs(stat - oracle) <= 1e-10 * np.abs(oracle))


def _detection_statistic_oracle(z, pts, noise_var):
    # the complex-distance form: logsumexp over the (trials, M) matrix of
    # -|z - p|^2 / sigma^2, plus |z|^2 / sigma^2
    d2 = np.abs(z[:, None] - pts[None, :]) ** 2
    return (logsumexp(-d2 / noise_var, axis=1) - np.log(pts.size)
            + np.abs(z) ** 2 / noise_var)


@pytest.mark.parametrize("kind, size", [("PSK", 2), ("PSK", 16), ("QAM", 16),
                                        ("QAM", 64), ("QAM", 256)])
@pytest.mark.parametrize("var", [1e-3, 0.01, 0.3, 10.0])
def test_detection_statistic_matches_complex_logsumexp(kind, size, var):
    # relative agreement, with an absolute floor of 1e-12 where the
    # statistic crosses zero (there the old form's cancellation of the
    # |z|^2 / sigma^2 terms, not the new form, sets the error). At var 1e-3
    # every exponent but the peak's underflows without the max pass.
    pts = baseline_constellation(kind, size).points
    rng = np.random.default_rng(40)
    n = 3000
    z = pts[rng.integers(0, size, n)] * rng.integers(0, 2, n) \
        + np.sqrt(var / 2.0) * (rng.standard_normal(n)
                                + 1j * rng.standard_normal(n))
    oracle = _detection_statistic_oracle(z, pts, var)
    stat = detection_statistic(z, pts, var)
    assert np.all(np.abs(stat - oracle)
                  <= 1e-12 * np.maximum(np.abs(oracle), 1.0))


def test_evaluate_isac_zero_noise_ser_and_warning():
    const = baseline_constellation("PSK", 8)
    with pytest.warns(UserWarning):
        ser, _, _ = evaluate_isac(const, 0.0, 1.0, 10.0, 1000,
                                  np.random.default_rng(21))
    assert ser == 0.0


# ------------------------------------------------------------- calibration


def test_calibrate_comm_noise_round_trip():
    const = baseline_constellation("PSK", 4)
    rng = np.random.default_rng(22)
    var = calibrate_comm_noise(const, 0.05, 50_000, rng)
    ser, _, _ = evaluate_isac(const, var, 1.0, 50.0, 100_000,
                              np.random.default_rng(23))
    assert abs(ser - 0.05) < 0.005


def test_calibrate_radar_noise_round_trip():
    const = baseline_constellation("PSK", 4)
    rng = np.random.default_rng(24)
    var, thr = calibrate_radar_noise(const, 0.6, 0.1, 30_000, rng)
    _, pd, pfa = evaluate_isac(const, 0.1, var, thr, 100_000,
                               np.random.default_rng(25))
    assert abs(pd - 0.6) < 0.02
    assert abs(pfa - 0.1) < 0.01


def _bisect_noise_oracle(metric, target, bracket):
    # the 40-step bisection the comm calibration used before its order
    # statistic: grow the bracket until it holds the target, then bisect
    lo, hi = bracket
    for _ in range(30):
        if metric(lo) <= target:
            break
        lo /= 2.0
    for _ in range(30):
        if metric(hi) >= target:
            break
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if metric(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind, size, target", [
    ("PSK", 2, 0.05), ("PSK", 2, 0.3236), ("PSK", 4, 0.05),
    ("PSK", 16, 10 ** -0.49), ("QAM", 16, 0.05)])
def test_comm_calibration_matches_bisection_oracle(kind, size, target):
    const = baseline_constellation(kind, size)
    trials = 50_000
    var = calibrate_comm_noise(const, target, trials,
                               np.random.default_rng(41))
    # the same draws, decoded by minimum distance at each candidate
    rng = np.random.default_rng(41)
    pts = const.points
    idx = rng.integers(0, size, size=trials)
    unit = (rng.standard_normal(trials)
            + 1j * rng.standard_normal(trials)) / np.sqrt(2.0)

    def ser_at(v):
        return np.mean(ml_decode(pts[idx] + np.sqrt(v) * unit, pts) != idx)

    oracle = _bisect_noise_oracle(ser_at, target, (1e-4, 4.0))
    assert abs(var - oracle) <= 1e-9 * oracle


def _calibrate_comm_noise_oracle(reference, target_ser, trials, rng):
    # the trial-major body: one (trials, M) matrix, minimum along its rows
    pts = reference.points
    idx = rng.integers(0, pts.size, size=trials)
    unit = complex_normal(trials, rng)
    diff = pts[None, :] - pts[idx, None]
    u = unit[:, None]
    toward = 2.0 * (diff.real * u.real + diff.imag * u.imag)
    dist2 = diff.real ** 2 + diff.imag ** 2
    t = np.divide(dist2, toward, out=np.full(toward.shape, np.inf),
                  where=toward > 0)
    crit = t.min(axis=1) ** 2
    k = int(np.ceil(target_ser * trials))
    return float(np.partition(crit, k - 1)[k - 1])


@pytest.mark.parametrize("kind, size, target, trials", [
    ("PSK", 2, 0.05, 50_000), ("PSK", 16, 10 ** -0.49, 50_000),
    ("QAM", 64, 0.05, 50_000), ("QAM", 256, 0.3, 1025)])
def test_comm_calibration_matches_trial_major_oracle(kind, size, target,
                                                     trials):
    # point-major blocks change where the minimum is taken, not its value
    const = baseline_constellation(kind, size)
    var = calibrate_comm_noise(const, target, trials,
                               np.random.default_rng(44))
    oracle = _calibrate_comm_noise_oracle(const, target, trials,
                                          np.random.default_rng(44))
    assert var == oracle


@pytest.mark.parametrize("size, pd, pfa, trials", [
    (16, 0.935, 0.0085, 50_000), (4, 0.6, 0.1, 30_000),
    (4, 0.13, 0.1, 30_000)])
def test_radar_calibration_stops_at_one_count(monkeypatch, size, pd, pfa,
                                              trials):
    const = baseline_constellation("PSK", size)
    # calibrate_radar_noise calls detection_statistic twice per Pd
    calls = []
    real = constellation_ae.detection_statistic

    def counting(z, points, noise_var):
        calls.append(noise_var)
        return real(z, points, noise_var)

    monkeypatch.setattr(constellation_ae, "detection_statistic", counting)
    var, thr = calibrate_radar_noise(const, pd, pfa, trials,
                                     np.random.default_rng(42))
    assert len(calls) % 2 == 0 and len(calls) // 2 <= 20
    assert calls[-1] == var
    monkeypatch.undo()
    # Pd and the threshold at the returned variance, on the same draws
    rng = np.random.default_rng(42)
    pts = const.points
    idx = rng.integers(0, size, size=trials)
    u1 = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials))
    u0 = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials))
    u1 /= np.sqrt(2.0)
    u0 /= np.sqrt(2.0)
    again = np.quantile(detection_statistic(np.sqrt(var) * u0, pts, var),
                        1.0 - pfa)
    s1 = detection_statistic(pts[idx] + np.sqrt(var) * u1, pts, var)
    assert thr == again
    assert abs(np.mean(s1 > thr) - pd) <= 1.0 / trials


def _falling_root_oracle(miss, bracket, tol, field):
    """The radar calibration's root search before it moved to
    roots.falling_root: bracket growth, then Illinois steps with a
    bisection after each pair of steps that did not halve the bracket."""
    lo, hi = bracket
    for _ in range(constellation_ae._BRACKET_GROWTH):
        f_lo = miss(lo)
        if abs(f_lo) <= tol:
            return lo
        if f_lo > 0:
            break
        lo /= 2.0
    else:
        raise ValueError(f"{field} is out of reach")
    for _ in range(constellation_ae._BRACKET_GROWTH):
        f_hi = miss(hi)
        if abs(f_hi) <= tol:
            return hi
        if f_hi < 0:
            break
        hi *= 2.0
    else:
        raise ValueError(f"{field} is out of reach")
    floor = (hi - lo) * 2.0 ** -40
    mark, steps, bisect = hi - lo, 0, False
    kept = 0
    while hi - lo > floor:
        if bisect:
            var = 0.5 * (lo + hi)
        else:
            var = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
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
        steps, bisect = steps + 1, False
        if steps == 2:
            bisect = hi - lo > 0.5 * mark
            mark, steps = hi - lo, 0
    return var


@pytest.mark.parametrize("size, pd, pfa, trials, seeds", [
    (16, 0.935, 0.0085, 50_000, range(1821, 1826)),
    (4, 0.13, 0.1, 30_000, range(38, 43)),  # the bracket grows past var 4
    (2, 0.9, 0.01, 2_000, range(5))])
def test_radar_calibration_matches_oracle_search(monkeypatch, size, pd, pfa,
                                                 trials, seeds):
    # the calibrated variance feeds every Case III constellation, which
    # follows its last digits: the shared search must not move it at all
    const = baseline_constellation("PSK", size)
    real = constellation_ae.detection_statistic
    searches = (constellation_ae._falling_root, _falling_root_oracle)
    for seed in seeds:
        results = []
        for search in searches:
            calls = []

            def counting(z, points, noise_var):
                calls.append(noise_var)
                return real(z, points, noise_var)

            monkeypatch.setattr(constellation_ae, "detection_statistic", counting)
            monkeypatch.setattr(constellation_ae, "_falling_root", search)
            var, thr = calibrate_radar_noise(const, pd, pfa, trials,
                                             np.random.default_rng(seed))
            results.append((var, thr, calls))
        (var, thr, calls), (var_o, thr_o, calls_o) = results
        assert var == var_o and thr == thr_o
        assert calls == calls_o
    if size == 4:
        assert var > constellation_ae._RADAR_BRACKET[1]


def test_calibration_grows_bracket_for_bpsk_ser():
    # BPSK reaches SER 0.3236 only beyond the starting bracket's var = 4
    const = baseline_constellation("PSK", 2)
    var = calibrate_comm_noise(const, 0.3236, 50_000,
                               np.random.default_rng(36))
    assert var > 4.0
    ser, _, _ = evaluate_isac(const, var, 1.0, 50.0, 100_000,
                              np.random.default_rng(37))
    assert abs(ser - 0.3236) < 0.005


def test_calibration_grows_bracket_for_radar_noise():
    # Pd 0.13 at Pfa 0.1 needs more radar noise than the starting var = 4
    const = baseline_constellation("PSK", 4)
    var, thr = calibrate_radar_noise(const, 0.13, 0.1, 30_000,
                                     np.random.default_rng(38))
    assert var > 4.0
    _, pd, pfa = evaluate_isac(const, 0.1, var, thr, 100_000,
                               np.random.default_rng(39))
    assert abs(pd - 0.13) < 0.02
    assert abs(pfa - 0.1) < 0.01


def test_calibration_bracket_errors():
    const = baseline_constellation("PSK", 4)
    # SER of QPSK tends to 3/4 and Pd to Pfa as the noise grows
    with pytest.raises(ValueError, match="target_ser"):
        calibrate_comm_noise(const, 0.97, 20_000, np.random.default_rng(26))
    with pytest.raises(ValueError, match="target_ser"):
        calibrate_comm_noise(const, 0.0, 20_000, np.random.default_rng(26))
    with pytest.raises(ValueError, match="target_pd"):
        calibrate_radar_noise(const, 0.05, 0.1, 20_000,
                              np.random.default_rng(27))


# ----------------------------------------------------------------- training


def test_train_rejects_bad_weight():
    cfg = TrainConfig(epochs=1, batch_size=10, lr=1e-3, seed=0)
    with pytest.raises(ValueError):
        train_isac_ae(1.5, 2, 0.1, 0.1, cfg, samples_per_epoch=20)
    with pytest.raises(ValueError):
        train_isac_ae(-0.1, 2, 0.1, 0.1, cfg, samples_per_epoch=20)


def test_train_rejects_early_stopping():
    # training draws fresh data every step: there is no validation score
    cfg = TrainConfig(epochs=1, batch_size=8, early_stop_patience=2)
    with pytest.raises(ValueError, match="early_stop_patience"):
        train_isac_ae(0.5, 2, 0.3, 0.5, cfg, samples_per_epoch=16)


@pytest.fixture(scope="module")
def tiny_trained():
    cfg = TrainConfig(epochs=8, batch_size=100, lr=1e-3, seed=28)
    return train_isac_ae(0.5, 2, 0.2, 0.4, cfg, samples_per_epoch=2000)


def test_training_reduces_combined_loss(tiny_trained):
    rng = np.random.default_rng(29)
    fresh = build_isac_ae(2, 0.5, np.random.default_rng(28))
    labels = rng.integers(0, 4, size=500)
    T = rng.integers(0, 2, size=500)
    nc = np.sqrt(0.2 / 2) * rng.standard_normal((500, 2))
    nr = np.sqrt(0.4 / 2) * rng.standard_normal((500, 2))
    before = combined_step(fresh, labels, T, nc, nr)[0]
    after = combined_step(tiny_trained, labels, T, nc, nr)[0]
    assert after < before


def test_training_deterministic_given_seed(tiny_trained):
    cfg = TrainConfig(epochs=8, batch_size=100, lr=1e-3, seed=28)
    again = train_isac_ae(0.5, 2, 0.2, 0.4, cfg, samples_per_epoch=2000)
    assert np.array_equal(extract_constellation(again).points,
                          extract_constellation(tiny_trained).points)


def test_trained_detector_logits_rise_with_target_presence(tiny_trained):
    rng = np.random.default_rng(30)
    x = extract_constellation(tiny_trained).points[rng.integers(0, 4, 2000)]
    noise = np.sqrt(0.4 / 2) * rng.standard_normal((2, 2000, 2))
    present = predict(tiny_trained.radar_detector,
                      np.column_stack([x.real, x.imag]) + noise[0])
    absent = predict(tiny_trained.radar_detector, noise[1])
    assert np.all(np.isfinite(present)) and np.all(np.isfinite(absent))
    assert np.mean(present) > np.mean(absent)


@pytest.fixture(scope="module")
def comm_trained():
    cfg = TrainConfig(epochs=40, batch_size=250, lr=1e-3, seed=31)
    return train_isac_ae(0.0, 4, 0.05, 0.5, cfg, samples_per_epoch=10_000)


def test_learned_points_pairwise_distinct(comm_trained):
    pts = extract_constellation(comm_trained).points
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, np.inf)
    assert diff.min() > 1e-3


def test_comm_only_training_approaches_qam(comm_trained):
    qam = baseline_constellation("QAM", 16)
    rng = np.random.default_rng(32)
    var = calibrate_comm_noise(qam, 0.05, 50_000, rng)
    learned = extract_constellation(comm_trained)
    ser_l, _, _ = evaluate_isac(learned, var, 1.0, 50.0, 50_000,
                                np.random.default_rng(33))
    ser_q, _, _ = evaluate_isac(qam, var, 1.0, 50.0, 50_000,
                                np.random.default_rng(33))
    assert ser_l <= 1.5 * ser_q


def test_radar_heavy_weight_tightens_amplitude_spread():
    comm_cfg = TrainConfig(epochs=15, batch_size=200, lr=1e-3, seed=34)
    radar_cfg = TrainConfig(epochs=15, batch_size=200, lr=1e-3, seed=34)
    comm = train_isac_ae(0.05, 3, 0.1, 0.5, comm_cfg, samples_per_epoch=6000)
    radar = train_isac_ae(0.95, 3, 0.1, 0.5, radar_cfg, samples_per_epoch=6000)
    spread_c = amplitude_spread(extract_constellation(comm))
    spread_r = amplitude_spread(extract_constellation(radar))
    assert spread_r < spread_c
