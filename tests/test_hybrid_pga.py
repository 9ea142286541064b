"""Hybrid beamforming PGA: gradient oracles, projections, unrolled training.

The references are independent of the code under test: central finite
differences and per-instance evaluations of the rate formula in `helpers`,
B=1 slices of the same batch, a frozen copy of the layer code as it
stood before its reciprocal, buffer and stacked-matmul rewrites, which the
code must match within roundoff, and a frozen copy of the step-size
training loop as it stood before it moved into `neural.minibatch_adam`,
which training must match bit for bit.
"""

import numpy as np
import pytest

from helpers import hybrid_sum_rate
from isackit.hybrid_pga import (
    PgaDataset,
    _batch_stats,
    StepSchedule,
    grad_F_batch,
    grad_W_batch,
    make_pga_dataset,
    normalize_power,
    pga_run_batch,
    project_unit_modulus,
    train_step_sizes,
    unrolled_loss,
    unrolled_loss_grad,
)
from isackit import hybrid_pga
from isackit.neural import adam_state, adam_update


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


def fd_step_gradient(schedule, ds, h=1e-6):
    """Central differences of `unrolled_loss` over each of the 2I steps."""
    g = np.zeros(schedule.steps.shape)
    for idx in np.ndindex(g.shape):
        hi = schedule.steps.copy()
        lo = schedule.steps.copy()
        hi[idx] += h
        lo[idx] -= h
        g[idx] = (unrolled_loss(StepSchedule(hi), ds)
                  - unrolled_loss(StepSchedule(lo), ds)) / (2 * h)
    return g


def old_project_unit_modulus(F):
    mag = np.abs(F)
    return np.where(mag > 0, F / np.where(mag > 0, mag, 1.0), 1.0 + 0.0j)


# ------------------------------------------------- frozen reference layer
#
# The layer, evaluation loop and reverse pass as they stood before the
# reciprocal, buffer and stacked-matmul rewrites, kept as an oracle that
# shares no kernel with the code under test: it contracts the L and K axes
# with einsum, divides by ln 2, |F| and the per-user totals through numpy's
# complex division, takes norms with np.linalg.norm, forms h.conj() in every
# statistics call and allocates fresh temporaries throughout. The code under
# test rounds differently, so outputs are compared within _ROUNDOFF of their
# largest entry; the measured gap is at most 6.7e-13.

_ROUNDOFF = 1e-11


def assert_within_roundoff(new, ref, tol=_ROUNDOFF):
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= tol * np.max(np.abs(ref))


_LN2 = float(np.log(2.0))


def ref_batch_stats(h, F, W, noise_var):
    hF = h.conj() @ F
    hFW = np.einsum("bkl,blj->bkj", hF, W)
    p = np.abs(hFW) ** 2
    total = p.sum(axis=2) + noise_var
    inter = total - np.einsum("bkk->bk", p)
    return hF, hFW, total, inter


def ref_offdiag(S):
    out = S.copy()
    idx = np.arange(S.shape[1])
    out[:, idx, idx] = 0.0
    return out


def ref_herm(X):
    return np.swapaxes(X.conj(), -2, -1)


def ref_grad_F(h, F, W, stats):
    hF, hFW, total, inter = stats
    V = np.einsum("blj,bmj->blm", W, W.conj())
    a = np.einsum("bkl,blm->bkm", hF, V)
    diag = np.einsum("bkk->bk", hFW)
    b = a - diag[:, :, None] * np.swapaxes(W.conj(), 1, 2)
    out = np.swapaxes(h, 1, 2) @ (a / total[:, :, None] - b / inter[:, :, None])
    return out / _LN2


def ref_grad_W(h, F, W, stats):
    hF, hFW, total, inter = stats
    out = np.einsum("bkl,bkj->blj", hF.conj(), hFW / total[:, :, None])
    out -= np.einsum("bkl,bkj->blj", hF.conj(),
                     ref_offdiag(hFW) / inter[:, :, None])
    return out / _LN2


def ref_project(F):
    mag = np.abs(F)
    return np.divide(F, mag, out=np.ones_like(F), where=mag > 0)


def ref_normalize_power(F, W, power):
    return np.sqrt(power) / np.linalg.norm(F @ W, axis=(-2, -1),
                                           keepdims=True) * W


def ref_layer(h, F, W, stats, mu_f, mu_w, power, noise_var):
    F1 = ref_project(F + mu_f * ref_grad_F(h, F, W, stats))
    mid = ref_batch_stats(h, F1, W, noise_var)
    gW = ref_grad_W(h, F1, W, mid)
    Wt = W + mu_w * gW
    W1 = ref_normalize_power(F1, Wt, power)
    return F1, W1, ref_batch_stats(h, F1, W1, noise_var), (mid, gW, Wt)


def ref_pga_run_batch(h, F0, W0, schedule, power, noise_var):
    F, W = F0, W0
    rates = np.empty((F.shape[0], schedule.num_layers))
    stats = ref_batch_stats(h, F, W, noise_var)
    for i, (mu_f, mu_w) in enumerate(schedule.steps):
        F, W, stats = ref_layer(h, F, W, stats, mu_f, mu_w, power,
                                noise_var)[:3]
        rates[:, i] = np.log(stats[2] / stats[3]).sum(axis=1)
    return F, W, rates


def ref_rate_z(h, stats):
    _, S, total, inter = stats
    M = S / total[:, :, None] - ref_offdiag(S) / inter[:, :, None]
    return np.swapaxes(h, 1, 2) @ M


def ref_grad_jvp(h, F, W, stats, Z, dF=None, dW=None):
    hF, S, total, inter = stats
    dS = 0.0
    if dF is not None:
        dS = (h.conj() @ dF) @ W
    if dW is not None:
        dS = dS + hF @ dW
    dp = 2.0 * (S.conj() * dS).real
    dT = dp.sum(axis=2)
    dQ = dT - np.diagonal(dp, axis1=1, axis2=2)
    dM = ((dS - S * (dT / total)[:, :, None]) / total[:, :, None]
          - ref_offdiag(dS - S * (dQ / inter)[:, :, None]) / inter[:, :, None])
    dZ = np.swapaxes(h, 1, 2) @ dM
    dgF = dZ @ ref_herm(W)
    dgW = ref_herm(F) @ dZ
    if dF is not None:
        dgW += ref_herm(dF) @ Z
    if dW is not None:
        dgF += Z @ ref_herm(dW)
    return dgF / _LN2, dgW / _LN2


def ref_unrolled_loss_grad(schedule, dataset):
    h, power, noise_var = dataset.channels, dataset.power, dataset.noise_var
    steps = schedule.steps
    I, B = schedule.num_layers, len(dataset)
    F, W = dataset.F0, dataset.W0
    states = [(F, W, ref_batch_stats(h, F, W, noise_var))]
    tape = []
    for mu_f, mu_w in steps:
        F, W, stats, inner = ref_layer(h, F, W, states[-1][2], mu_f, mu_w,
                                       power, noise_var)
        states.append((F, W, stats))
        tape.append(inner)
    weights = np.log(1.0 + np.arange(1, I + 1))
    rates = np.stack([np.log(s[2][2] / s[2][3]).sum(axis=1)
                      for s in states[1:]], axis=1)
    loss = float(-(rates @ weights).mean() / I)

    rate_bar = -2.0 * weights / (I * B)
    grad = np.empty((I, 2))
    Fb = Wb = 0.0
    Z1 = ref_rate_z(h, states[I][2])
    for i in reversed(range(I)):
        F, W, stats = states[i]
        F1, W1, _ = states[i + 1]
        mid, gW, Wt = tape[i]
        mu_f, mu_w = steps[i]
        Fb = Fb + rate_bar[i] * (Z1 @ ref_herm(W1))
        Wb = Wb + rate_bar[i] * (ref_herm(F1) @ Z1)
        Y = F1 @ Wt
        nrm = np.linalg.norm(Y, axis=(1, 2), keepdims=True)
        alpha = np.sum((Wb.conj() * Wt).real, axis=(1, 2), keepdims=True)
        scale = np.sqrt(power) / nrm
        Wtb = scale * (Wb - alpha / nrm ** 2 * (ref_herm(F1) @ Y))
        Fb = Fb - scale * alpha / nrm ** 2 * (Y @ ref_herm(Wt))
        grad[i, 1] = np.vdot(Wtb, gW).real
        dgF, dgW = ref_grad_jvp(h, F1, W, mid, ref_rate_z(h, mid), dW=Wtb)
        Fb = Fb + mu_w * dgF
        Wb = Wtb + mu_w * dgW
        gF = ref_grad_F(h, F, W, stats)
        mag = np.abs(F + mu_f * gF)
        Ftb = np.divide(Fb - F1 * (F1.conj() * Fb).real, mag,
                        out=np.zeros_like(Fb), where=mag > 0)
        grad[i, 0] = np.vdot(Ftb, gF).real
        if i == 0:
            break
        Z1 = ref_rate_z(h, stats)
        dgF, dgW = ref_grad_jvp(h, F, W, stats, Z1, dF=Ftb)
        Fb = Ftb + mu_f * dgF
        Wb = Wb + mu_f * dgW
    return loss, grad


def old_pga_run_batch(h, F, W, schedule, power, noise_var):
    """The loop as first written, on the frozen kernels: three statistics
    per layer (one inside each gradient, one for the rate) and the
    double-`where` projection."""
    rates = np.empty((F.shape[0], schedule.num_layers))
    for i, (mu_f, mu_w) in enumerate(schedule.steps):
        F = old_project_unit_modulus(
            F + mu_f * ref_grad_F(h, F, W, ref_batch_stats(h, F, W, noise_var)))
        gW = ref_grad_W(h, F, W, ref_batch_stats(h, F, W, noise_var))
        W = ref_normalize_power(F, W + mu_w * gW, power)
        _, _, total, inter = ref_batch_stats(h, F, W, noise_var)
        rates[:, i] = np.log(total / inter).sum(axis=1)
    return F, W, rates


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


def _grads(h, F, W, noise_var=1.0):
    """grad_F_batch and grad_W_batch at (F, W), from their statistics."""
    stats = _batch_stats(h.conj() @ F, W, noise_var)
    return grad_F_batch(h, W, stats), grad_W_batch(stats)


def test_grad_f_matches_finite_differences():
    rng = np.random.default_rng(11)
    for N, L, K in _SHAPES:
        ds = make_pga_dataset(2, N, L, K, rng)
        g = _grads(ds.channels, ds.F0, ds.W0)[0]
        for b in range(2):
            h, W = ds.channels[b], ds.W0[b]
            g_fd = fd_gradient(lambda Fp: hybrid_sum_rate(h, Fp, W, 1.0) / np.log(2.0),
                               ds.F0[b])
            assert np.linalg.norm(g[b] - g_fd) < 1e-5 * np.linalg.norm(g_fd)


def test_grad_w_matches_finite_differences():
    rng = np.random.default_rng(12)
    for N, L, K in _SHAPES:
        ds = make_pga_dataset(2, N, L, K, rng)
        g = _grads(ds.channels, ds.F0, ds.W0)[1]
        for b in range(2):
            h, F = ds.channels[b], ds.F0[b]
            g_fd = fd_gradient(lambda Wp: hybrid_sum_rate(h, F, Wp, 1.0) / np.log(2.0),
                               ds.W0[b])
            assert np.linalg.norm(g[b] - g_fd) < 1e-5 * np.linalg.norm(g_fd)


def test_gradients_zero_when_digital_stage_zero():
    rng = np.random.default_rng(13)
    ds = make_pga_dataset(3, 4, 2, 2, rng)
    W = np.zeros_like(ds.W0)
    gF, gW = _grads(ds.channels, ds.F0, W)
    assert np.all(gF == 0) and np.all(gW == 0)


def test_single_user_closed_form():
    # K=1: no interference, gradient reduces to one signal term.
    rng = np.random.default_rng(14)
    ds = make_pga_dataset(3, 5, 2, 1, rng)
    gF, gW = _grads(ds.channels, ds.F0, ds.W0)
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


def test_unit_modulus_projection_matches_old_formula_bitwise():
    rng = np.random.default_rng(16)
    F = rng.standard_normal((5, 7, 3)) + 1j * rng.standard_normal((5, 7, 3))
    F[0, 0, 0] = 0.0
    F[2, :, 1] = 0.0
    F[4] = 0.0
    F[3, 1, 2] = -0.0 - 0.0j
    F[1, 2, 0] = 1e-300 + 0.0j
    F[1, 3, 0] = -3.0
    F[1, 4, 0] = np.finfo(float).tiny * (1.0 - 1.0j)
    # Subnormal moduli, where 1/|F| overflows and the old formula returns
    # inf+nanj or inf+infj.
    F[1, 5, 0] = 5e-324 + 0.0j
    F[1, 6, 0] = 1e-310 + 1e-310j
    F[3, 0, 0] = -3e-320 + 4e-320j
    F[3, 0, 1] = -5e-324j
    out = project_unit_modulus(F)
    normal = np.abs(F) >= np.finfo(float).tiny
    with np.errstate(all="ignore"):
        assert np.array_equal(out[normal], old_project_unit_modulus(F)[normal])
    assert np.all(out[4] == 1.0 + 0.0j)
    assert np.all(out[F == 0] == 1.0 + 0.0j)
    sub = ~normal & (F != 0)
    assert np.count_nonzero(sub) == 4
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(np.abs(out[sub]) - 1.0)) <= 4 * np.finfo(float).eps
    assert out[1, 5, 0] == 1.0 and out[3, 0, 1] == -1.0j
    Fs = F[sub] * 2.0 ** 600
    assert np.allclose(out[sub], Fs / np.abs(Fs), rtol=0, atol=1e-15)
    # in place
    G = F.copy()
    assert project_unit_modulus(G, out=G) is G
    assert np.array_equal(G, out)


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


@pytest.mark.parametrize("power, size", [(1e-200, 1e100), (1e-300, 1.0), (1e300, 1e-100)])
def test_power_normalization_at_extreme_ratios(power, size):
    # power / ||F W||^2 under- or overflowed (to 0 at 1e-200 against the
    # 2.3e199 that a W step reached in a Case II run), and W with it
    ds = make_pga_dataset(3, 4, 2, 3, np.random.default_rng(17), power=1.0)
    Wn = normalize_power(ds.F0, size * ds.W0, power)
    sq = np.linalg.norm(ds.F0 @ Wn, axis=(1, 2)) ** 2
    assert np.allclose(sq, power, rtol=1e-12, atol=0.0)


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
    # Pins three seeded single-user draws, on which constant steps settle
    # by layer 500. It is not a property of K=1: on
    # make_pga_dataset(3, 8, 3, 1, default_rng(0)) one instance still moves
    # 2.4e-4 nats per layer there. Multi-user runs hover in limit cycles
    # (see the learned-schedule comparison).
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
    gF, gW = _grads(ds.channels, ds.F0, ds.W0)
    for b in range(B):
        one = ds.subset(slice(b, b + 1))
        gF1, gW1 = _grads(one.channels, one.F0, one.W0)
        assert np.allclose(gF[b], gF1[0], rtol=0, atol=1e-12)
        assert np.allclose(gW[b], gW1[0], rtol=0, atol=1e-12)


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


def test_blocked_run_matches_one_block_bitwise(monkeypatch):
    # Blocks of three instances, the last one shorter, give the bits of one
    # block of all eight.
    rng = np.random.default_rng(41)
    ds = make_pga_dataset(8, 6, 3, 2, rng, noise_var=0.7)
    sched = StepSchedule(0.02 + 0.06 * rng.random((5, 2)))
    one = run(ds, sched)
    per_instance = ds.channels[0].nbytes + ds.F0[0].nbytes
    monkeypatch.setattr(hybrid_pga, "_BLOCK_BYTES", 3 * per_instance)
    blocked = run(ds, sched)
    for a, b in zip(blocked, one):
        assert np.array_equal(a, b)


def test_run_matches_three_stats_loop_within_roundoff():
    rng = np.random.default_rng(34)
    for N, L, K in ((6, 3, 2), (4, 1, 1), (5, 2, 3)):
        ds = make_pga_dataset(7, N, L, K, rng, noise_var=0.7)
        sched = StepSchedule(0.02 + 0.06 * rng.random((9, 2)))
        new = run(ds, sched)
        old = old_pga_run_batch(ds.channels, ds.F0, ds.W0, sched, ds.power,
                                ds.noise_var)
        for a, b in zip(new, old):
            assert_within_roundoff(a, b)


# (B, N, L, K, I), the last at the perfbench size of Case II.
_REF_SHAPES = [(7, 6, 3, 2, 9), (5, 4, 1, 1, 3), (9, 5, 2, 3, 4),
               (200, 64, 4, 4, 8)]


@pytest.mark.parametrize("B,N,L,K,I", _REF_SHAPES)
def test_layer_matches_frozen_reference_within_roundoff(B, N, L, K, I,
                                                       monkeypatch):
    rng = np.random.default_rng(39 + N)
    ds = make_pga_dataset(B, N, L, K, rng, noise_var=0.7)
    sched = StepSchedule(0.02 + 0.06 * rng.random((I, 2)))
    new = run(ds, sched)
    ref = ref_pga_run_batch(ds.channels, ds.F0, ds.W0, sched, ds.power,
                            ds.noise_var)
    for a, b in zip(new, ref):
        assert_within_roundoff(a, b)
    loss, g = unrolled_loss_grad(sched, ds)
    ref_loss, ref_g = ref_unrolled_loss_grad(sched, ds)
    assert abs(loss - ref_loss) <= _ROUNDOFF * abs(ref_loss)
    assert_within_roundoff(g, ref_g)

    def train():
        return train_step_sizes(ds, I, epochs=2, batch_size=max(B // 3, 2),
                                seed=B).steps

    # Adam does not amplify the kernels' roundoff: training through either
    # gives the same steps within 1e-7 of the largest (measured at most
    # 1.6e-9, on the L = K = 1 shape)
    steps = train()
    monkeypatch.setattr(hybrid_pga, "pga_run_batch", ref_pga_run_batch)
    monkeypatch.setattr(hybrid_pga, "unrolled_loss_grad",
                        ref_unrolled_loss_grad)
    assert_within_roundoff(steps, train(), tol=1e-7)


def test_inputs_unchanged_and_outputs_fresh():
    rng = np.random.default_rng(38)
    ds = make_pga_dataset(12, 5, 3, 2, rng)
    before = [x.tobytes() for x in (ds.channels, ds.F0, ds.W0)]
    for I in (1, 2, 5):
        sched = StepSchedule(0.02 + 0.06 * rng.random((I, 2)))
        first, second = run(ds, sched), run(ds, sched)
        for a, b in zip(first, second):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)
        for out in first[:2]:
            assert not any(np.shares_memory(out, x)
                           for x in (ds.channels, ds.F0, ds.W0))
        (l1, g1), (l2, g2) = (unrolled_loss_grad(sched, ds) for _ in "12")
        assert l1 == l2 and np.array_equal(g1, g2)
        assert not np.shares_memory(g1, g2)
    s1, s2 = (train_step_sizes(ds, 3, epochs=2, batch_size=5).steps
              for _ in "12")
    assert np.array_equal(s1, s2) and not np.shares_memory(s1, s2)
    assert [x.tobytes() for x in (ds.channels, ds.F0, ds.W0)] == before


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


# Four (N, L, K, I) shapes, including K=1, L=1, I=1 and I=8.
_GRAD_SHAPES = [(4, 1, 1, 1), (5, 1, 3, 3), (3, 2, 1, 8), (6, 3, 2, 8),
                (5, 3, 3, 4)]


@pytest.mark.parametrize("N,L,K,I", _GRAD_SHAPES)
def test_step_gradient_matches_finite_differences(N, L, K, I):
    rng = np.random.default_rng(35 + I)
    ds = make_pga_dataset(4, N, L, K, rng, noise_var=0.8)
    sched = StepSchedule(0.02 + 0.05 * rng.random((I, 2)))
    loss, g = unrolled_loss_grad(sched, ds)
    assert loss == unrolled_loss(sched, ds)
    g_fd = fd_step_gradient(sched, ds)
    assert np.max(np.abs(g - g_fd)) <= 1e-6 * np.max(np.abs(g_fd))


def test_step_gradient_of_batch_is_mean_of_singles():
    rng = np.random.default_rng(36)
    B = 6
    ds = make_pga_dataset(B, 6, 3, 2, rng)
    sched = StepSchedule(0.03 + 0.04 * rng.random((8, 2)))
    _, g = unrolled_loss_grad(sched, ds)
    singles = [unrolled_loss_grad(sched, ds.subset(slice(b, b + 1)))[1]
               for b in range(B)]
    assert np.allclose(g, np.mean(singles, axis=0), rtol=0, atol=1e-12)


def test_step_gradient_validation():
    ds = PgaDataset(np.empty((0, 2, 4)), np.empty((0, 4, 2)),
                    np.empty((0, 2, 2)), 10.0, 1.0)
    with pytest.raises(ValueError, match="empty"):
        unrolled_loss_grad(StepSchedule.fixed(0.05, 2), ds)
    ds = make_pga_dataset(2, 3, 2, 2, np.random.default_rng(37),
                          noise_var=1.0)
    ds = PgaDataset(ds.channels, ds.F0, ds.W0, ds.power, 0.0)
    with pytest.raises(ValueError, match="noise_var"):
        unrolled_loss_grad(StepSchedule.fixed(0.05, 2), ds)


# ----------------------------------------------------------------- training


def test_training_descends():
    rng = np.random.default_rng(30)
    ds = make_pga_dataset(40, 6, 3, 2, rng)
    sched0 = StepSchedule.fixed(0.05, 4)
    sched = train_step_sizes(ds, 4, lr=0.005, epochs=5, batch_size=20)
    assert unrolled_loss(sched, ds) <= unrolled_loss(sched0, ds)


def test_training_takes_adam_steps():
    # One epoch of one minibatch is one Adam update from the initial steps:
    # with bias correction it moves each step size by lr (less lr*eps/|g|,
    # below 1e-9 here) against the sign of its gradient on that minibatch,
    # whatever the gradient's magnitude; SGD would move it by lr * g.
    rng = np.random.default_rng(40)
    ds = make_pga_dataset(20, 5, 2, 2, rng)
    learned = train_step_sizes(ds, 4, lr=0.01, epochs=1, batch_size=20,
                               init_step=0.05, seed=3)
    order = np.random.default_rng(3).permutation(20)
    _, g = unrolled_loss_grad(StepSchedule.fixed(0.05, 4),
                              ds.subset(order[2:]))
    assert np.min(np.abs(g)) > 0.1 and np.ptp(np.abs(g)) > 1.0
    assert np.allclose(learned.steps, 0.05 - 0.01 * np.sign(g), rtol=0,
                       atol=1e-9)


def frozen_train_step_sizes(dataset, num_layers, lr, epochs, init_step,
                            batch_size, seed):
    """`train_step_sizes` with its own minibatch loop, as it stood before the
    loop moved into `neural.minibatch_adam`. Returns the best and the last
    steps."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    n_val = max(1, int(round(0.1 * len(dataset))))
    val = dataset.subset(order[:n_val])
    tr = dataset.subset(order[n_val:])
    steps = np.full((num_layers, 2), float(init_step))
    adam = adam_state(steps.size, lr)
    best = np.inf
    best_steps = steps.copy()
    for _ in range(epochs):
        idx = rng.permutation(len(tr))
        for start in range(0, len(tr), batch_size):
            batch = tr.subset(idx[start:start + batch_size])
            grad = unrolled_loss_grad(StepSchedule(steps), batch)[1]
            adam_update(adam, steps.reshape(-1), grad.reshape(-1))
        current = unrolled_loss(StepSchedule(steps), val)
        if current < best:
            best = current
            best_steps = steps.copy()
    return best_steps, steps


# (instances, batch_size, epochs, lr, seed, best epoch before the last).
# 4 and 5 instances hold out one, though their tenth rounds to 0; the batch
# sizes 2, 3, 7, 8, 5 and 4 do not divide the training slices of 3, 4, 18,
# 27, 11 and 23.
_FROZEN_RUNS = [(4, 2, 3, 0.02, 0, False), (5, 3, 6, 0.05, 1, True),
                (20, 7, 3, 0.02, 2, False), (30, 8, 5, 0.05, 3, True),
                (12, 5, 6, 0.1, 4, True), (25, 4, 4, 0.05, 5, True)]


@pytest.mark.parametrize("B,batch_size,epochs,lr,seed,restores",
                         _FROZEN_RUNS)
def test_training_matches_frozen_loop_bitwise(B, batch_size, epochs, lr, seed,
                                              restores):
    ds = make_pga_dataset(B, 6, 3, 2, np.random.default_rng(50 + seed))
    best, last = frozen_train_step_sizes(ds, 4, lr, epochs, 0.05, batch_size,
                                         seed)
    learned = train_step_sizes(ds, 4, lr=lr, epochs=epochs, init_step=0.05,
                               batch_size=batch_size, seed=seed)
    assert learned.steps.tobytes() == best.tobytes()
    assert restores == (best.tobytes() != last.tobytes())


def test_training_validation_errors():
    rng = np.random.default_rng(31)
    ds = make_pga_dataset(4, 4, 2, 2, rng)
    with pytest.raises(ValueError, match="at least 1"):
        train_step_sizes(ds, 0)
    with pytest.raises(ValueError, match="at least 2 instances"):
        train_step_sizes(ds.subset([0]), 2)
    for kwargs, field in (({"batch_size": 0}, "batch_size"),
                          ({"epochs": 0}, "epochs"), ({"lr": 0.0}, "lr"),
                          ({"lr": float("nan")}, "lr")):
        with pytest.raises(ValueError, match=field):
            train_step_sizes(ds, 2, **kwargs)


@pytest.mark.parametrize("B", [2, 3, 4, 5])
def test_training_always_scores_held_out_instances(monkeypatch, B):
    # a tenth of up to 5 instances rounds to 0, and the schedules were then
    # scored on the instances they were trained on
    ds = make_pga_dataset(B, 4, 2, 2, np.random.default_rng(60 + B))
    trained, scored = set(), set()
    grad, loss = hybrid_pga.unrolled_loss_grad, hybrid_pga.unrolled_loss

    def record_grad(schedule, data):
        trained.update(h.tobytes() for h in data.channels)
        return grad(schedule, data)

    def record_loss(schedule, data):
        scored.update(h.tobytes() for h in data.channels)
        return loss(schedule, data)

    monkeypatch.setattr(hybrid_pga, "unrolled_loss_grad", record_grad)
    monkeypatch.setattr(hybrid_pga, "unrolled_loss", record_loss)
    train_step_sizes(ds, 2, epochs=2, batch_size=2)
    assert len(scored) == 1 and len(trained) == B - 1
    assert not scored & trained


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
