"""Projected gradient ascent for hybrid beamforming, plain and unrolled.

Every routine works on a batch of B independent instances: channels h
(B, K, N) with rows h_k, an analog stage F (B, N, L) with unit-modulus
entries, and a digital stage W (B, L, K) under the power budget
||F W||_F^2 = P_t. One instance is the B = 1 slice. Each layer takes a
gradient step on F, re-imposes the unit modulus by `project_unit_modulus`,
then a step on W at the updated F, re-imposing the budget by
`normalize_power`. The unrolled variant treats the per-layer step sizes as
2I learnable parameters trained by Adam (Kingma and Ba, ICLR 2015) on a
rate-weighted loss over intermediate layers, in `neural.minibatch_adam`,
the one minibatch loop and Adam update that also train the dense networks.
Adam moves each step size by about the learning rate per minibatch whatever
the loss curvature, so the learned steps do not amplify last-bit changes of
the data. The gradient is
exact: `unrolled_loss_grad` tapes one forward pass over the minibatch and
runs one hand-written reverse pass through every layer (rate term, power
renormalization, W step, unit-modulus projection, F step), so a minibatch
costs O(I) layer evaluations. The evaluation path `pga_run_batch` runs the
same layer code and keeps no tape. It runs the batch in blocks that fit in
a core's cache, each through every layer, and forms conj(h) once per block.

Every contraction is a stacked matmul: the two rate gradients share the
(B, K, K) factor M = S/total - offdiag(S)/inter of the cross-gains S, and
the squared norm of F W is a real dot of its float view with itself.
Internal rates are in nats; the closed-form gradients keep the 1/ln 2 factor
of the log2 formulation, folded into M, so they are exact gradients of the
rate in bits.
A complex array is divided by a real value as numpy's complex division
computes it, x * (1/c) with the reciprocal in real arithmetic, but without
that division's generic path: the bits are the same, up to the sign of zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal
from .neural import TrainConfig, adam_update, minibatch_adam

_LN2 = float(np.log(2.0))
_INV_LN2 = 1.0 / _LN2
# Below the smallest normal modulus, 1/|F| can overflow.
_TINY = np.finfo(float).tiny
_SUBNORMAL_SCALE = 2.0 ** 600


@dataclass(frozen=True)
class StepSchedule:
    """Per-layer step sizes, column 0 for F and column 1 for W."""

    steps: np.ndarray

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=float)
        object.__setattr__(self, "steps", steps)
        if steps.ndim != 2 or steps.shape[1] != 2 or steps.shape[0] < 1:
            raise ValueError("steps must be an I x 2 matrix with I >= 1")
        if not np.all(np.isfinite(steps)):
            raise ValueError("step sizes must be finite")

    @property
    def num_layers(self) -> int:
        return self.steps.shape[0]

    @classmethod
    def fixed(cls, step: float, num_layers: int) -> "StepSchedule":
        return cls(np.full((num_layers, 2), float(step)))


def _check_noise(noise_var: float):
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")


def project_unit_modulus(F, out=None) -> np.ndarray:
    """Entrywise phase projection F / |F|; zero entries map to 1+0j. `out`
    may be F itself. An entry of subnormal modulus, whose reciprocal can
    overflow, is first scaled by an exact power of two."""
    F = np.asarray(F, dtype=complex)
    inv = np.abs(F)
    small = inv < _TINY  # zero, or subnormal
    fix = None
    if small.any():
        Fs = F[small] * _SUBNORMAL_SCALE
        mag = np.abs(Fs)
        fix = np.divide(Fs, mag, out=np.ones_like(Fs), where=mag > 0)
        inv[small] = 1.0
    np.divide(1.0, inv, out=inv)
    out = np.multiply(F, inv, out=out)
    if fix is not None:
        out[small] = fix
    return out


def normalize_power(F, W, power: float) -> np.ndarray:
    """Rescale W so that ||F W||_F^2 equals the budget exactly, one norm per
    instance of the (..., N, L) and (..., L, K) stacks."""
    F = np.asarray(F, dtype=complex)
    W = np.asarray(W, dtype=complex)
    prod = F @ W
    sq = _re_inner(prod, prod)  # ||F W||^2
    if not np.all(sq > 0):
        raise ValueError("degenerate beamformer")
    # two roots: power / sq underflows to 0 at tiny budgets (1e-200)
    return np.sqrt(power) / np.sqrt(sq) * W


def _real_view(X) -> np.ndarray:
    """Float view (..., 2mn) of each matrix of a complex (..., m, n) stack
    (of a contiguous copy when X is not contiguous)."""
    X = np.ascontiguousarray(X)
    return X.reshape(X.shape[:-2] + (-1,)).view(float)


def _re_inner(X, Y) -> np.ndarray:
    """Re <X, Y> of each pair of matrices in two complex (..., m, n) stacks,
    shaped (..., 1, 1): a real dot of their float views."""
    return np.vecdot(_real_view(X), _real_view(Y))[..., None, None]


def _batch_stats(hF, W, noise_var):
    """Cross-gains and per-user totals for a batch, from hF = h^H F (B,K,L)
    and W (B,L,K) -> (hF, hFW (B,K,K), total (B,K), inter (B,K)). The
    interference sums the cross-gains, since total - p_kk would round to 0
    for one user once p/noise_var passes 1/eps."""
    hFW = hF @ W
    p = np.abs(hFW) ** 2
    inter = _offdiag(p).sum(axis=2) + noise_var
    total = inter + np.diagonal(p, axis1=1, axis2=2)
    return hF, hFW, total, inter


def _batch_rates(total, inter) -> np.ndarray:
    return np.log(total / inter).sum(axis=1)


def _offdiag(S) -> np.ndarray:
    """Copy of a (B, K, K) stack with its diagonals set to zero."""
    out = S.copy()
    idx = np.arange(S.shape[1])
    out[:, idx, idx] = 0.0
    return out


def _herm(X) -> np.ndarray:
    return np.swapaxes(X.conj(), -2, -1)


def _recip(x, scale=1.0) -> np.ndarray:
    """scale/x of a real (B, K) stack, shaped to scale the rows of (B, K, .)."""
    return (scale / x)[:, :, None]


def _rate_m(stats, scale=1.0) -> np.ndarray:
    """scale * (S/total - offdiag(S)/inter), row by row, from the
    `_batch_stats` (hF, S, total, inter)."""
    _, S, total, inter = stats
    M = S * _recip(total, scale)
    M -= _offdiag(S) * _recip(inter, scale)
    return M


def grad_F_batch(h, W, stats) -> np.ndarray:
    """Closed-form gradient of the sum rate (bits) wrt conj(F),
    h^T M W^H with M = `_rate_m` (the rank-1 structure of h_k h_k^H), from
    the `_batch_stats` `stats` at (F, W)."""
    # 1/ln 2 scales the (B, K, K) factor M, not the (B, N, L) product
    return np.swapaxes(h, 1, 2) @ (_rate_m(stats, _INV_LN2) @ _herm(W))


def grad_W_batch(stats) -> np.ndarray:
    """Closed-form gradient of the sum rate (bits) wrt conj(W),
    (h^H F)^H M with M = `_rate_m`, from the `_batch_stats` `stats` at
    (F, W)."""
    return _herm(stats[0]) @ _rate_m(stats, _INV_LN2)


def _layer(h, hc, F, W, stats, mu_f, mu_w, power, noise_var):
    """One PGA layer from (F, W), whose `_batch_stats` are `stats`; hc is
    conj(h). Returns the new (F, W), their statistics, and the small
    intermediates the reverse pass reads: statistics at (F', W), grad_W and
    the W step. The F step and the projection overwrite the fresh grad_F in
    place, so F' is a new array; the reverse pass recomputes grad_F and the
    F step. Statistics at (F', W') reuse h^H F'."""
    F1 = grad_F_batch(h, W, stats)
    F1 *= mu_f
    F1 += F
    project_unit_modulus(F1, out=F1)
    mid = _batch_stats(hc @ F1, W, noise_var)
    gW = grad_W_batch(mid)
    Wt = W + mu_w * gW
    W1 = normalize_power(F1, Wt, power)
    return F1, W1, _batch_stats(mid[0], W1, noise_var), (mid, gW, Wt)


# Bytes of h and F per block of pga_run_batch, so that a block's arrays stay
# in cache through all of its layers. On a 2-core AMD EPYC VM with 1 MiB of
# L2 per core, the evaluation at B=1000, N=64, L=K=4, I=8 took 18 ms in
# 1 MiB blocks, 21 ms in 512 KiB or 4 MiB blocks, and 32 ms as one block.
_BLOCK_BYTES = 1 << 20


def pga_run_batch(h, F0, W0, schedule: StepSchedule, power: float,
                  noise_var: float = 1.0):
    """Alternating projected ascent; F moves first, W sees the updated F.
    Returns the final (F, W) and the per-layer rates (nats) shaped (B, I).

    Instances are independent, so the batch runs in blocks of about
    _BLOCK_BYTES of h and F, each block through every layer; the results
    are bit for bit those of one block."""
    _check_noise(noise_var)
    F0 = np.asarray(F0, dtype=complex)
    W0 = np.asarray(W0, dtype=complex)
    B = F0.shape[0]
    F, W = np.empty_like(F0), np.empty_like(W0)
    rates = np.empty((B, schedule.num_layers))
    size = max(1, _BLOCK_BYTES * B // max(1, h.nbytes + F0.nbytes))
    for start in range(0, B, size):
        blk = slice(start, start + size)
        F[blk], W[blk], rates[blk] = _run_block(h[blk], F0[blk], W0[blk],
                                                schedule, power, noise_var)
    return F, W, rates


def _run_block(h, F, W, schedule, power, noise_var):
    """`pga_run_batch` on one block of instances."""
    hc = h.conj()
    rates = np.empty((F.shape[0], schedule.num_layers))
    # Layer i's rate statistics are the inputs of layer i+1's F gradient.
    stats = _batch_stats(hc @ F, W, noise_var)
    for i, (mu_f, mu_w) in enumerate(schedule.steps):
        F, W, stats = _layer(h, hc, F, W, stats, mu_f, mu_w, power,
                             noise_var)[:3]
        rates[:, i] = _batch_rates(stats[2], stats[3])
    return F, W, rates


# ------------------------------------------------------------ reverse pass
#
# Adjoints follow dL = Re sum(conj(Xbar) dX), i.e. Xbar = 2 dL/d(conj X).
# With M = S/total - offdiag(S)/inter (row-wise) and Z = h^T M, the rate
# gradients in nats are Z W^H wrt conj(F) and F^H Z wrt conj(W). The map
# X -> grad(X) has the real Hessian as Jacobian, which is symmetric, so the
# vector-Jacobian product of a gradient step is a directional derivative of
# the same gradient (Griewank & Walther, Evaluating Derivatives).


def _rate_z(h, stats) -> np.ndarray:
    return np.swapaxes(h, 1, 2) @ _rate_m(stats)


def _grad_jvp(h, hc, F, W, stats, Z, dF=None, dW=None):
    """Directional derivative of (grad_F_batch, grad_W_batch) at (F, W),
    with `_batch_stats` `stats` and `_rate_z` Z, along (dF, dW); a None
    direction is zero. hc is conj(h)."""
    hF, S, total, inter = stats
    dS = 0.0
    if dF is not None:
        dS = (hc @ dF) @ W
    if dW is not None:
        dS = dS + hF @ dW
    dp = 2.0 * (S.conj() * dS).real
    dT = dp.sum(axis=2)
    dQ = dT - np.diagonal(dp, axis1=1, axis2=2)
    dM = ((dS - S * (dT / total)[:, :, None]) * _recip(total)
          - _offdiag(dS - S * (dQ / inter)[:, :, None]) * _recip(inter))
    dZ = np.swapaxes(h, 1, 2) @ dM
    dgF = dZ @ _herm(W)
    dgW = _herm(F) @ dZ
    if dF is not None:
        dgW += _herm(dF) @ Z
    if dW is not None:
        dgF += Z @ _herm(dW)
    dgF *= _INV_LN2
    dgW *= _INV_LN2
    return dgF, dgW


# ---------------------------------------------------------------- datasets


@dataclass(frozen=True)
class PgaDataset:
    """Channel realizations with frozen per-instance initial beamformers,
    so that repeated loss evaluations see identical starting points."""

    channels: np.ndarray  # (B, K, N)
    F0: np.ndarray        # (B, N, L)
    W0: np.ndarray        # (B, L, K)
    power: float
    noise_var: float

    def __len__(self) -> int:
        return self.channels.shape[0]

    def subset(self, indices) -> "PgaDataset":
        return PgaDataset(self.channels[indices], self.F0[indices],
                          self.W0[indices], self.power, self.noise_var)


def make_pga_dataset(num: int, num_antennas: int, num_chains: int,
                     num_users: int, rng: np.random.Generator,
                     power: float = 10.0, noise_var: float = 1.0) -> PgaDataset:
    """Rayleigh channels h_k ~ CN(0, I); analog init with uniform phases,
    digital init Gaussian then power-normalized."""
    if num < 1:
        raise ValueError("num must be positive")
    B, N, L, K = num, num_antennas, num_chains, num_users
    h = complex_normal((B, K, N), rng)
    F0 = np.exp(2j * np.pi * rng.random((B, N, L)))
    W0 = (rng.standard_normal((B, L, K)) + 1j * rng.standard_normal((B, L, K)))
    W0 = normalize_power(F0, W0, power)
    return PgaDataset(h, F0, W0, float(power), float(noise_var))


def _layer_weights(num_layers: int) -> np.ndarray:
    return np.log(1.0 + np.arange(1, num_layers + 1))


def _weighted_loss(rates) -> float:
    """Negative layer-weighted mean of the (B, I) per-layer rates."""
    I = rates.shape[1]
    return float(-(rates @ _layer_weights(I)).mean() / I)


def unrolled_loss(schedule: StepSchedule, dataset: PgaDataset) -> float:
    """Negative layer-weighted mean rate, weights ln(1+i) for layer i."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    _, _, rates = pga_run_batch(dataset.channels, dataset.F0, dataset.W0,
                                schedule, dataset.power, dataset.noise_var)
    return _weighted_loss(rates)


def unrolled_loss_grad(schedule: StepSchedule,
                       dataset: PgaDataset) -> tuple[float, np.ndarray]:
    """`unrolled_loss` and its exact gradient wrt the I x 2 step matrix, from
    one taped forward pass and one reverse pass through the layers."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    h, power, noise_var = dataset.channels, dataset.power, dataset.noise_var
    _check_noise(noise_var)
    steps = schedule.steps
    I, B = schedule.num_layers, len(dataset)
    F = np.asarray(dataset.F0, dtype=complex)
    W = np.asarray(dataset.W0, dtype=complex)
    hc = h.conj()
    states = [(F, W, _batch_stats(hc @ F, W, noise_var))]
    tape = []
    for mu_f, mu_w in steps:
        F, W, stats, inner = _layer(h, hc, F, W, states[-1][2], mu_f, mu_w,
                                    power, noise_var)
        states.append((F, W, stats))
        tape.append(inner)
    rates = np.stack([_batch_rates(s[2][2], s[2][3]) for s in states[1:]],
                     axis=1)
    loss = _weighted_loss(rates)

    rate_bar = -2.0 * _layer_weights(I) / (I * B)  # d loss / d rate, times 2
    grad = np.empty((I, 2))
    Fb = Wb = 0.0
    Z1 = _rate_z(h, states[I][2])
    for i in reversed(range(I)):
        F, W, stats = states[i]
        F1, W1, _ = states[i + 1]
        mid, gW, Wt = tape[i]
        mu_f, mu_w = steps[i]
        # rate of layer i
        Fb = Fb + rate_bar[i] * (Z1 @ _herm(W1))
        Wb = Wb + rate_bar[i] * (_herm(F1) @ Z1)
        # W1 = sqrt(P) Wt / ||F1 Wt||
        Y = F1 @ Wt
        sq = _re_inner(Y, Y)
        alpha = _re_inner(Wb, Wt)
        scale = np.sqrt(power) / np.sqrt(sq)
        Wtb = scale * (Wb - alpha / sq * (_herm(F1) @ Y))
        Fb = Fb - scale * alpha / sq * (Y @ _herm(Wt))
        # Wt = W + mu_w grad_W(F1, W)
        grad[i, 1] = np.vdot(Wtb, gW).real
        dgF, dgW = _grad_jvp(h, hc, F1, W, mid, _rate_z(h, mid), dW=Wtb)
        Fb = Fb + mu_w * dgF
        Wb = Wtb + mu_w * dgW
        # F1 = Ft / |Ft| with Ft = F + mu_f gF, recomputed bit for bit:
        # keep the tangential part of the adjoint, divided by |Ft|
        gF = grad_F_batch(h, W, stats)
        inv = np.abs(F + mu_f * gF)
        np.divide(1.0, inv, out=inv, where=inv > 0)  # 0 where Ft = 0
        Ftb = Fb - F1 * (F1.conj() * Fb).real
        Ftb *= inv
        grad[i, 0] = np.vdot(Ftb, gF).real
        if i == 0:
            break
        Z1 = _rate_z(h, stats)
        dgF, dgW = _grad_jvp(h, hc, F, W, stats, Z1, dF=Ftb)
        Fb = Ftb + mu_f * dgF
        Wb = Wb + mu_f * dgW
    return loss, grad


_VAL_FRACTION = 0.1


def train_step_sizes(dataset: PgaDataset, num_layers: int, lr: float = 0.005,
                     epochs: int = 30, init_step: float = 0.05, *,
                     batch_size: int = 100, seed: int = 0) -> StepSchedule:
    """`neural.minibatch_adam` with learning rate `lr` on the 2I step sizes,
    the loop and Adam update that train the dense networks, with the exact
    reverse-mode gradient of `unrolled_loss` on each minibatch
    (`unrolled_loss_grad`).

    A seeded _VAL_FRACTION slice of the dataset, at least one instance, is
    held out for validation, and the best schedule on it is returned.
    """
    config = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)
    if num_layers < 1:
        raise ValueError("num_layers must be at least 1")
    if len(dataset) < 2:
        raise ValueError("dataset needs at least 2 instances, one to train on "
                         "and one held out")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    n_val = max(1, int(round(_VAL_FRACTION * len(dataset))))
    tr = dataset.subset(order[n_val:])
    val = dataset.subset(order[:n_val])
    steps = np.full((num_layers, 2), float(init_step))

    def step(idx, state):
        loss, grad = unrolled_loss_grad(StepSchedule(steps), tr.subset(idx))
        adam_update(state, steps.reshape(-1), grad.reshape(-1))
        return loss

    minibatch_adam(steps.reshape(-1), len(tr), step, config, rng,
                   lambda: unrolled_loss(StepSchedule(steps), val))
    return StepSchedule(steps)
