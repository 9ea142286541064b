"""Projected gradient ascent for hybrid beamforming, plain and unrolled.

Every routine works on a batch of B independent instances: channels h
(B, K, N) with rows h_k, an analog stage F (B, N, L) with unit-modulus
entries, and a digital stage W (B, L, K) under the power budget
||F W||_F^2 = P_t. One instance is the B = 1 slice. Each layer takes a
gradient step on F, re-imposes the unit modulus by `project_unit_modulus`,
then a step on W at the updated F, re-imposing the budget by
`normalize_power`. The unrolled variant treats the per-layer step sizes as
2I learnable parameters trained by SGD on a rate-weighted loss over
intermediate layers.

Internal rates are in nats; the closed-form gradients keep the 1/ln 2 factor
of the log2 formulation, so they are exact gradients of the rate in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LN2 = float(np.log(2.0))


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
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")


def project_unit_modulus(F) -> np.ndarray:
    """Entrywise phase projection; zero entries map to 1+0j."""
    F = np.asarray(F, dtype=complex)
    mag = np.abs(F)
    out = np.where(mag > 0, F / np.where(mag > 0, mag, 1.0), 1.0 + 0.0j)
    return out


def normalize_power(F, W, power: float) -> np.ndarray:
    """Rescale W so that ||F W||_F^2 equals the budget exactly, one norm per
    instance of the (..., N, L) and (..., L, K) stacks."""
    F = np.asarray(F, dtype=complex)
    W = np.asarray(W, dtype=complex)
    nrm = np.linalg.norm(F @ W, axis=(-2, -1), keepdims=True)
    if not np.all(nrm > 0):
        raise ValueError("degenerate beamformer")
    return np.sqrt(power) / nrm * W


def _batch_stats(h, F, W, noise_var):
    """Cross-gains and per-user totals for a batch: h (B,K,N), F (B,N,L),
    W (B,L,K) -> (hF (B,K,L), hFW (B,K,K), total (B,K), inter (B,K))."""
    hF = np.einsum("bkn,bnl->bkl", h.conj(), F)
    hFW = np.einsum("bkl,blj->bkj", hF, W)
    p = np.abs(hFW) ** 2
    total = p.sum(axis=2) + noise_var
    inter = total - np.einsum("bkk->bk", p)
    return hF, hFW, total, inter


def _batch_rates(total, inter) -> np.ndarray:
    return np.log(total / inter).sum(axis=1)


def grad_F_batch(h, F, W, noise_var: float) -> np.ndarray:
    """Closed-form gradient of the sum rate (bits) wrt conj(F), using the
    rank-1 structure of h_k h_k^H."""
    _check_noise(noise_var)
    hF, hFW, total, inter = _batch_stats(h, F, W, noise_var)
    V = np.einsum("blj,bmj->blm", W, W.conj())
    a = np.einsum("bkl,blm->bkm", hF, V)  # h_k^H F V
    diag = np.einsum("bkk->bk", hFW)
    # h_k^H F Vbar_k = h_k^H F V - (h_k^H F w_k) w_k^H
    b = a - diag[:, :, None] * np.swapaxes(W.conj(), 1, 2)
    out = np.einsum("bkn,bkl->bnl", h, a / total[:, :, None])
    out -= np.einsum("bkn,bkl->bnl", h, b / inter[:, :, None])
    return out / _LN2


def grad_W_batch(h, F, W, noise_var: float) -> np.ndarray:
    """Closed-form gradient of the sum rate (bits) wrt conj(W);
    Hbar_k = (F^H h_k)(h_k^H F) is rank one."""
    _check_noise(noise_var)
    hF, hFW, total, inter = _batch_stats(h, F, W, noise_var)
    hFW_z = hFW.copy()
    idx = np.arange(hFW.shape[1])
    hFW_z[:, idx, idx] = 0.0
    out = np.einsum("bkl,bkj->blj", hF.conj(), hFW / total[:, :, None])
    out -= np.einsum("bkl,bkj->blj", hF.conj(), hFW_z / inter[:, :, None])
    return out / _LN2


def pga_run_batch(h, F0, W0, schedule: StepSchedule, power: float,
                  noise_var: float = 1.0):
    """Alternating projected ascent; F moves first, W sees the updated F.
    Returns the final (F, W) and the per-layer rates (nats) shaped (B, I)."""
    _check_noise(noise_var)
    F = np.asarray(F0, dtype=complex)
    W = np.asarray(W0, dtype=complex)
    rates = np.empty((F.shape[0], schedule.num_layers))
    for i, (mu_f, mu_w) in enumerate(schedule.steps):
        F = project_unit_modulus(F + mu_f * grad_F_batch(h, F, W, noise_var))
        W = normalize_power(F, W + mu_w * grad_W_batch(h, F, W, noise_var),
                            power)
        _, _, total, inter = _batch_stats(h, F, W, noise_var)
        rates[:, i] = _batch_rates(total, inter)
    return F, W, rates


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
    h = (rng.standard_normal((B, K, N)) + 1j * rng.standard_normal((B, K, N)))
    h /= np.sqrt(2.0)
    F0 = np.exp(2j * np.pi * rng.random((B, N, L)))
    W0 = (rng.standard_normal((B, L, K)) + 1j * rng.standard_normal((B, L, K)))
    W0 = normalize_power(F0, W0, power)
    return PgaDataset(h, F0, W0, float(power), float(noise_var))


def unrolled_loss(schedule: StepSchedule, dataset: PgaDataset) -> float:
    """Negative layer-weighted mean rate, weights ln(1+i) for layer i."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    _, _, rates = pga_run_batch(dataset.channels, dataset.F0, dataset.W0,
                                schedule, dataset.power, dataset.noise_var)
    I = schedule.num_layers
    weights = np.log(1.0 + np.arange(1, I + 1))
    return float(-(rates @ weights).mean() / I)


def train_step_sizes(dataset: PgaDataset, num_layers: int, lr: float = 0.005,
                     epochs: int = 30, init_step: float = 0.05, *,
                     batch_size: int = 100, fd_step: float = 1e-5,
                     val_fraction: float = 0.1,
                     seed: int = 0) -> StepSchedule:
    """SGD on the 2I step sizes; gradients by central finite differences.

    A seeded slice of the dataset is held out for validation and the best
    schedule on it is returned (training loss when the slice is empty).
    """
    if num_layers < 1:
        raise ValueError("num_layers must be at least 1")
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    n_val = int(round(val_fraction * len(dataset)))
    val = dataset.subset(order[:n_val]) if n_val else None
    tr = dataset.subset(order[n_val:])
    if len(tr) == 0:
        tr, val = dataset, None

    phi = np.full((num_layers, 2), float(init_step))
    flat = phi.ravel()
    best = np.inf
    best_phi = phi.copy()

    def score(p):
        return unrolled_loss(StepSchedule(p.reshape(num_layers, 2)),
                             val if val is not None else tr)

    for _ in range(epochs):
        idx = rng.permutation(len(tr))
        for start in range(0, len(tr), batch_size):
            batch = tr.subset(idx[start:start + batch_size])
            grad = np.empty(flat.size)
            for p in range(flat.size):
                bump = np.zeros(flat.size)
                bump[p] = fd_step
                hi = unrolled_loss(
                    StepSchedule((flat + bump).reshape(num_layers, 2)), batch)
                lo = unrolled_loss(
                    StepSchedule((flat - bump).reshape(num_layers, 2)), batch)
                grad[p] = (hi - lo) / (2.0 * fd_step)
            flat -= lr * grad
        current = score(flat)
        if current < best:
            best = current
            best_phi = flat.reshape(num_layers, 2).copy()
    return StepSchedule(best_phi)
