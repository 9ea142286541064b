"""Hybrid beamforming PGA: gradient oracles, projections, unrolled training.

The references are independent of the code under test: central finite
differences and per-instance evaluations of the rate formulas in `metrics`,
and B=1 slices of the same batch.
"""

import numpy as np
import pytest

from isackit.hybrid_pga import (
    PgaDataset,
    StepSchedule,
    grad_F_batch,
    grad_W_batch,
    make_pga_dataset,
    normalize_power,
    pga_run_batch,
    project_unit_modulus,
    train_step_sizes,
    unrolled_loss,
)
from isackit.metrics import hybrid_sum_rate, hybrid_sum_rate_bits


# ------------------------------------------------------------------ oracles


def fd_gradient(fun, X, h=1e-6):
    """Central-difference Wirtinger gradient dR/d(conj X) of a real-valued
    function: (dR/dRe + j dR/dIm)/2 entrywise."""
    g = np.zeros(X.shape, dtype=complex)
    for idx in np.ndindex(X.shape):
        for part, scale in ((1.0, 1.0), (1j, 1j)):
            Xp = X.copy()
            Xm = X.copy()
            Xp[idx] += h * part
            Xm[idx] -= h * part
            g[idx] += scale * (fun(Xp) - fun(Xm)) / (2 * h)
    return g / 2.0


def run(ds, schedule, power=None):
    return pga_run_batch(ds.channels, ds.F0, ds.W0, schedule,
                         ds.power if power is None else power, ds.noise_var)


def layer_states(ds, schedule):
    """(F, W) after each layer i, by rerunning the first i layers."""
    return [run(ds, StepSchedule(schedule.steps[:i]))[:2]
            for i in range(1, schedule.num_layers + 1)]


# Eight (N, L, K) shapes, including single-user and single-chain cases.
_SHAPES = [(4, 1, 1), (5, 1, 3), (3, 2, 1), (6, 3, 2),
           (2, 2, 2), (5, 3, 3), (4, 2, 3), (6, 1, 2)]


def test_grad_f_matches_finite_differences():
    rng = np.random.default_rng(11)
    for N, L, K in _SHAPES:
        ds = make_pga_dataset(2, N, L, K, rng)
        g = grad_F_batch(ds.channels, ds.F0, ds.W0, 1.0)
        for b in range(2):
            h, W = ds.channels[b], ds.W0[b]
            g_fd = fd_gradient(lambda Fp: hybrid_sum_rate_bits(h, Fp, W, 1.0),
                               ds.F0[b])
            assert np.linalg.norm(g[b] - g_fd) < 1e-5 * np.linalg.norm(g_fd)


def test_grad_w_matches_finite_differences():
    rng = np.random.default_rng(12)
    for N, L, K in _SHAPES:
        ds = make_pga_dataset(2, N, L, K, rng)
        g = grad_W_batch(ds.channels, ds.F0, ds.W0, 1.0)
        for b in range(2):
            h, F = ds.channels[b], ds.F0[b]
            g_fd = fd_gradient(lambda Wp: hybrid_sum_rate_bits(h, F, Wp, 1.0),
                               ds.W0[b])
            assert np.linalg.norm(g[b] - g_fd) < 1e-5 * np.linalg.norm(g_fd)


def test_gradients_zero_when_digital_stage_zero():
    rng = np.random.default_rng(13)
    ds = make_pga_dataset(3, 4, 2, 2, rng)
    W = np.zeros_like(ds.W0)
    assert np.all(grad_F_batch(ds.channels, ds.F0, W, 1.0) == 0)
    assert np.all(grad_W_batch(ds.channels, ds.F0, W, 1.0) == 0)


def test_single_user_closed_form():
    # K=1: no interference, gradient reduces to one signal term.
    rng = np.random.default_rng(14)
    ds = make_pga_dataset(3, 5, 2, 1, rng)
    gF = grad_F_batch(ds.channels, ds.F0, ds.W0, 1.0)
    gW = grad_W_batch(ds.channels, ds.F0, ds.W0, 1.0)
    for b in range(3):
        hv, F, W = ds.channels[b, 0], ds.F0[b], ds.W0[b]
        V = W @ W.conj().T
        Htilde = np.outer(hv, hv.conj())
        den = np.real(hv.conj() @ F @ V @ F.conj().T @ hv) + 1.0
        expected_F = Htilde @ F @ V / den / np.log(2.0)
        assert np.allclose(gF[b], expected_F, atol=1e-12)
        Hbar = F.conj().T @ Htilde @ F
        expected_W = (Hbar @ W / (np.real(np.trace(V @ Hbar)) + 1.0)
                      / np.log(2.0))
        assert np.allclose(gW[b], expected_W, atol=1e-12)


def test_noise_validation():
    rng = np.random.default_rng(15)
    ds = make_pga_dataset(2, 3, 2, 2, rng)
    with pytest.raises(ValueError):
        grad_F_batch(ds.channels, ds.F0, ds.W0, 0.0)
    with pytest.raises(ValueError):
        grad_W_batch(ds.channels, ds.F0, ds.W0, -1.0)
    with pytest.raises(ValueError):
        pga_run_batch(ds.channels, ds.F0, ds.W0, StepSchedule.fixed(0.05, 2),
                      ds.power, 0.0)


# -------------------------------------------------------------- projections


def test_unit_modulus_projection():
    F = np.array([[3.0 + 4.0j, 0.0], [1.0, -2.0j]])
    out = project_unit_modulus(F)
    assert np.allclose(out[0, 0], (3 + 4j) / 5)
    assert out[0, 1] == 1.0 + 0.0j
    assert np.allclose(np.abs(out), 1.0)
    assert np.allclose(project_unit_modulus(out), out)
    stack = project_unit_modulus(np.stack([F, 2.0 * F]))
    assert np.array_equal(stack[0], out) and np.allclose(stack[1], out)


def test_power_normalization():
    rng = np.random.default_rng(17)
    ds = make_pga_dataset(4, 4, 2, 3, rng, power=5.0)
    W = ds.W0 * np.array([0.5, 1.0, 3.0, 7.0])[:, None, None]
    Wn = normalize_power(ds.F0, W, 5.0)
    for b in range(4):
        assert abs(np.linalg.norm(ds.F0[b] @ Wn[b]) ** 2 - 5.0) < 1e-9
        # one instance alone gives the same result as inside the stack
        assert np.allclose(normalize_power(ds.F0[b], W[b], 5.0), Wn[b],
                           atol=1e-15)
    assert np.allclose(Wn, normalize_power(ds.F0, 7.0 * W, 5.0))
    with pytest.raises(ValueError, match="degenerate"):
        normalize_power(ds.F0[0], np.zeros_like(W[0]), 5.0)
    W[2] = 0.0
    with pytest.raises(ValueError, match="degenerate"):
        normalize_power(ds.F0, W, 5.0)


def test_dataset_init_is_feasible():
    rng = np.random.default_rng(18)
    ds = make_pga_dataset(6, 5, 3, 2, rng, power=4.0)
    assert np.max(np.abs(np.abs(ds.F0) - 1.0)) < 1e-12
    for b in range(6):
        assert abs(np.linalg.norm(ds.F0[b] @ ds.W0[b]) ** 2 - 4.0) < 1e-9


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule(np.empty((0, 2)))
    with pytest.raises(ValueError):
        StepSchedule(np.array([[np.inf, 0.0]]))
    sched = StepSchedule.fixed(0.05, 4)
    assert sched.num_layers == 4
    assert np.all(sched.steps == 0.05)


# ------------------------------------------------------------ pga_run_batch


def test_zero_steps_keep_init():
    rng = np.random.default_rng(19)
    ds = make_pga_dataset(3, 4, 2, 2, rng)
    F, W, rates = run(ds, StepSchedule(np.zeros((5, 2))))
    assert np.allclose(F, ds.F0, atol=1e-12)
    assert np.allclose(W, ds.W0, atol=1e-12)
    assert np.max(np.ptp(rates, axis=1)) < 1e-12


def test_constraints_hold_after_every_layer():
    rng = np.random.default_rng(20)
    ds = make_pga_dataset(3, 6, 3, 3, rng)
    for F, W in layer_states(ds, StepSchedule.fixed(0.05, 12)):
        assert np.max(np.abs(np.abs(F) - 1.0)) < 1e-12
        for b in range(3):
            assert abs(np.linalg.norm(F[b] @ W[b]) ** 2 - 10.0) < 1e-9


def test_rates_match_hybrid_sum_rate_every_layer():
    rng = np.random.default_rng(21)
    ds = make_pga_dataset(4, 6, 3, 2, rng, noise_var=0.5)
    sched = StepSchedule(0.03 + 0.04 * rng.random((6, 2)))
    _, _, rates = run(ds, sched)
    for i, (F, W) in enumerate(layer_states(ds, sched)):
        for b in range(4):
            ref = hybrid_sum_rate(ds.channels[b], F[b], W[b], ds.noise_var)
            assert abs(rates[b, i] - ref) <= 1e-10


def test_zero_digital_stage_raises():
    rng = np.random.default_rng(33)
    ds = make_pga_dataset(3, 4, 2, 2, rng)
    W0 = ds.W0.copy()
    W0[1] = 0.0
    with pytest.raises(ValueError, match="degenerate"):
        pga_run_batch(ds.channels, ds.F0, W0, StepSchedule.fixed(0.05, 3),
                      ds.power, ds.noise_var)


def test_fixed_step_trace_plateaus():
    # Constant steps settle only without inter-user coupling; multi-user
    # runs hover in limit cycles (see the learned-schedule comparison).
    # One instance per seed, drawn in the order h, F, W.
    draws = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
        F = np.exp(2j * np.pi * rng.random((8, 3)))
        W = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        draws.append((h / np.sqrt(2.0), F, W))
    h, F, W = (np.stack(x) for x in zip(*draws))
    _, _, rates = pga_run_batch(h, F, normalize_power(F, W, 10.0),
                                StepSchedule.fixed(0.05, 500), 10.0)
    assert np.max(np.abs(np.diff(rates, axis=1)[:, -5:])) < 1e-4


def test_ascent_sanity_across_snr():
    # Final rate beats layer 1 on nearly all instances at every tested SNR.
    rng = np.random.default_rng(22)
    wins = total = 0
    for snr_db in (-5.0, 0.0, 5.0, 10.0):
        power = 10.0 ** (snr_db / 10.0)
        ds = make_pga_dataset(10, 6, 3, 2, rng, power=power)
        _, _, rates = run(ds, StepSchedule.fixed(0.05, 60))
        wins += np.sum(rates[:, -1] >= rates[:, 0])
        total += len(ds)
    assert wins / total >= 0.95


def test_mean_final_rate_monotone_in_snr():
    # Same channels and initial phases at every SNR; only the budget moves.
    ds = make_pga_dataset(30, 6, 3, 2, np.random.default_rng(24))
    means = []
    for snr_db in (-5.0, 0.0, 5.0, 10.0):
        power = 10.0 ** (snr_db / 10.0)
        W0 = normalize_power(ds.F0, ds.W0, power)
        _, _, rates = pga_run_batch(ds.channels, ds.F0, W0,
                                    StepSchedule.fixed(0.05, 60), power)
        means.append(rates[:, -1].mean())
    assert np.all(np.diff(means) > 0)


# ------------------------------------------------------------------ batching


def test_batched_gradients_match_single():
    rng = np.random.default_rng(25)
    B, N, L, K = 7, 5, 3, 3
    ds = make_pga_dataset(B, N, L, K, rng)
    gF = grad_F_batch(ds.channels, ds.F0, ds.W0, 1.0)
    gW = grad_W_batch(ds.channels, ds.F0, ds.W0, 1.0)
    for b in range(B):
        one = ds.subset(slice(b, b + 1))
        assert np.allclose(gF[b], grad_F_batch(one.channels, one.F0, one.W0,
                                               1.0)[0], rtol=0, atol=1e-12)
        assert np.allclose(gW[b], grad_W_batch(one.channels, one.F0, one.W0,
                                               1.0)[0], rtol=0, atol=1e-12)


def test_batched_run_matches_single():
    rng = np.random.default_rng(26)
    ds = make_pga_dataset(5, 6, 3, 2, rng, power=10.0)
    sched = StepSchedule.fixed(0.05, 8)
    F, W, rates = run(ds, sched)
    for b in range(5):
        F1, W1, r1 = run(ds.subset(slice(b, b + 1)), sched)
        assert np.allclose(F[b], F1[0], rtol=0, atol=1e-12)
        assert np.allclose(W[b], W1[0], rtol=0, atol=1e-12)
        assert np.allclose(rates[b], r1[0], rtol=0, atol=1e-12)


# ------------------------------------------------------------ unrolled loss


def test_unrolled_loss_single_layer_reduction():
    rng = np.random.default_rng(27)
    ds = make_pga_dataset(6, 5, 2, 2, rng)
    sched = StepSchedule.fixed(0.05, 1)
    _, _, rates = pga_run_batch(ds.channels, ds.F0, ds.W0, sched,
                                ds.power, ds.noise_var)
    expected = -np.log(2.0) * rates[:, 0].mean()
    assert abs(unrolled_loss(sched, ds) - expected) < 1e-12


def test_unrolled_loss_zero_steps():
    rng = np.random.default_rng(28)
    ds = make_pga_dataset(4, 5, 2, 2, rng)
    I = 6
    base = np.array([hybrid_sum_rate(ds.channels[b], ds.F0[b], ds.W0[b],
                                     ds.noise_var) for b in range(4)])
    expected = -(np.log(1.0 + np.arange(1, I + 1)).sum() / I) * base.mean()
    assert abs(unrolled_loss(StepSchedule(np.zeros((I, 2))), ds)
               - expected) < 1e-12


def test_unrolled_loss_recomposition():
    rng = np.random.default_rng(29)
    ds = make_pga_dataset(5, 4, 2, 2, rng)
    sched = StepSchedule(0.05 + 0.01 * rng.random((7, 2)))
    acc = 0.0
    for b in range(5):
        _, _, trace = run(ds.subset(slice(b, b + 1)), sched)
        acc += (np.log(1.0 + np.arange(1, 8)) * trace[0]).sum() / 7.0
    assert abs(unrolled_loss(sched, ds) + acc / 5.0) < 1e-10


def test_unrolled_loss_empty_dataset():
    ds = PgaDataset(np.empty((0, 2, 4)), np.empty((0, 4, 2)),
                    np.empty((0, 2, 2)), 10.0, 1.0)
    with pytest.raises(ValueError, match="empty"):
        unrolled_loss(StepSchedule.fixed(0.05, 2), ds)


# ----------------------------------------------------------------- training


def test_training_descends():
    rng = np.random.default_rng(30)
    ds = make_pga_dataset(40, 6, 3, 2, rng)
    sched0 = StepSchedule.fixed(0.05, 4)
    sched = train_step_sizes(ds, 4, lr=0.005, epochs=5, batch_size=20)
    assert unrolled_loss(sched, ds) <= unrolled_loss(sched0, ds)


def test_training_validation_errors():
    rng = np.random.default_rng(31)
    ds = make_pga_dataset(4, 4, 2, 2, rng)
    with pytest.raises(ValueError, match="at least 1"):
        train_step_sizes(ds, 0)


def test_learned_schedule_beats_fixed_small_scale():
    # Paired comparison at matched layer count on held-out channels.
    rng = np.random.default_rng(32)
    train_ds = make_pga_dataset(60, 6, 3, 2, rng)
    test_ds = make_pga_dataset(30, 6, 3, 2, rng)
    I = 6
    learned = train_step_sizes(train_ds, I, lr=0.005, epochs=10,
                               batch_size=30)
    _, _, r_learned = pga_run_batch(test_ds.channels, test_ds.F0, test_ds.W0,
                                    learned, test_ds.power, test_ds.noise_var)
    _, _, r_fixed = pga_run_batch(test_ds.channels, test_ds.F0, test_ds.W0,
                                  StepSchedule.fixed(0.05, I),
                                  test_ds.power, test_ds.noise_var)
    assert r_learned[:, -1].mean() >= r_fixed[:, -1].mean()
