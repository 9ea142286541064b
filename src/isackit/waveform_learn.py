"""Learning-based ISAC waveform prediction (Case Study I).

A dense network maps the stacked real/imaginary parts of (H, D, X0) to a
transmit frame, with a projection output layer enforcing the total power
budget and an unsupervised trade-off loss eta*MUI + (1-eta)*similarity. The
trained network replaces the per-frame optimization at prediction time.

`make_dataset` draws one `WaveformSample` stack: H (B, K, M), D (B, K, tau)
and X0 (B, M, tau) under one power budget. Every training-path function
(features, projection and its VJP, loss, augmentation) works on these stacks
with a leading batch axis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, ChannelMatrix, RicianParams, sample_channel_matrix
from .classical_design import (
    CovarianceTemplate,
    WaveformDesign,
    procrustes_waveform,
    reference_covariance_omni,
)
from .metrics import _check_dims
from .neural import MlpModel, TrainConfig, init_mlp, predict, train

DEFAULT_RICIAN_FACTORS = (1.5, 2.7, 1.2, 2.5)
QPSK = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))  # unit-power symbols of D


@dataclass(frozen=True)
class WaveformSample:
    """Channel, desired symbols and sensing reference: one instance (H K x M,
    D K x tau, X0 M x tau) or a stack of them with a leading batch axis.

    D is expected to hold unit-power symbols (QPSK in the experiments); shape
    agreement is enforced here, the power convention by the dataset maker. A
    stack has a length, and `stack[i]` is instance i.
    """

    H: ChannelMatrix
    D: np.ndarray
    X0: WaveformDesign

    def __post_init__(self):
        object.__setattr__(self, "D", np.asarray(self.D, dtype=complex))
        _check_dims(self.H.entries, self.X0.X, self.D, "X0")

    def __len__(self) -> int:
        if self.D.ndim != 3:
            raise TypeError("a single instance has no length")
        return len(self.D)

    def __getitem__(self, i) -> "WaveformSample":
        if self.D.ndim != 3:
            raise TypeError("a single instance cannot be indexed")
        # the stack's power check covered this frame; the weaker per-frame
        # check holds for both exact and learned stacks
        return WaveformSample(H=ChannelMatrix(self.H.entries[i]), D=self.D[i],
                              X0=WaveformDesign(self.X0.X[i], self.X0.power,
                                                exact_power=False))


def waveform_net_layers(num_antennas: int, num_users: int, frame_length: int):
    """Widths and activations of the waveform net, 2N -> 20N -> 10N ->
    2*M*tau with N = K*(M + tau) + M*tau complex features per instance."""
    M, K, tau = num_antennas, num_users, frame_length
    n = K * (M + tau) + M * tau
    return [2 * n, 20 * n, 10 * n, 2 * M * tau], ["relu", "relu", "tanh"]


def _stack_complex(A: np.ndarray) -> np.ndarray:
    """(B, r, c) complex -> (B, 2rc): [Re vec A, Im vec A], column-major vec."""
    v = np.swapaxes(np.asarray(A, dtype=complex), 1, 2).reshape(len(A), -1)
    return np.concatenate([v.real, v.imag], axis=1)


def unstack_waveform(rows: np.ndarray, num_antennas: int, frame_length: int) -> np.ndarray:
    """Inverse of the real/imag stacking used by build_features:
    (B, 2*M*tau) -> (B, M, tau)."""
    rows = np.asarray(rows, dtype=float)
    half = num_antennas * frame_length
    if rows.ndim != 2 or rows.shape[1] != 2 * half:
        raise ValueError("row length does not match the waveform shape")
    flat = rows[:, :half] + 1j * rows[:, half:]
    return np.swapaxes(flat.reshape(-1, frame_length, num_antennas), 1, 2)


def build_features(H: np.ndarray, D: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """One row per instance: [Re vec H, Im vec H, Re vec D, Im vec D,
    Re vec X0, Im vec X0], column-major vectorization throughout."""
    return np.concatenate([_stack_complex(H), _stack_complex(D), _stack_complex(X0)], axis=1)


def _budget_scale(raw: np.ndarray, budget: float):
    """Per-row energy of the raw outputs and the factor that pulls each row
    into the ball of radius sqrt(budget) (exactly 1 inside it)."""
    energy = np.einsum("bi,bi->b", raw, raw)
    return energy, np.sqrt(budget / np.maximum(energy, budget))


def power_projection(raw: np.ndarray, total_power: float, frame_length: int) -> np.ndarray:
    """Reassemble the complex frames (B, M, tau) and pull each one into the
    power ball ||X||^2 <= tau * total_power."""
    raw = np.asarray(raw, dtype=float)
    theta = unstack_waveform(raw, raw.shape[1] // (2 * frame_length), frame_length)
    _, scale = _budget_scale(raw, frame_length * total_power)
    return theta * scale[:, None, None]


def _projection_vjp(raw: np.ndarray, grad_X: np.ndarray, total_power: float,
                    frame_length: int) -> np.ndarray:
    """Pull gradients on the projected frames back to the raw output rows.

    grad_X holds the complex combinations dL/dRe + j*dL/dIm (B, M, tau); on
    the sphere the map is c*(I - r r^T/|r|^2) with c = sqrt(budget)/|r|.
    """
    raw = np.asarray(raw, dtype=float)
    g = _stack_complex(grad_X)
    budget = frame_length * total_power
    energy, scale = _budget_scale(raw, budget)
    radial = np.where(energy > budget,
                      np.einsum("bi,bi->b", raw, g) / np.maximum(energy, budget), 0.0)
    return scale[:, None] * (g - raw * radial[:, None])


def _sq_norm(z: np.ndarray):
    """||z||^2 of a real or complex array by numpy's pairwise sum of its
    squared real and imaginary parts: the same bits at any BLAS thread count,
    which a BLAS dot (np.vdot) does not promise on large arrays."""
    v = np.ascontiguousarray(z).reshape(-1)
    if np.iscomplexobj(v):
        v = v.view(v.real.dtype)
    return np.add.reduce(v * v)


def isac_waveform_loss(X, H, D, X0, weight: float):
    """Batch trade-off loss and its gradient with respect to each frame.

    loss = (1/B) sum_n [ eta*||H_n X_n - D_n||^2 + (1-eta)*||X_n - X0_n||^2 ];
    the gradient (B, M, tau) holds the complex combinations dL/dRe(X) +
    j*dL/dIm(X).
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    batch = len(X)
    if batch == 0:
        raise ValueError("empty batch")
    comm = H @ X - D
    sens = X - X0
    total = weight * _sq_norm(comm) + (1 - weight) * _sq_norm(sens)
    grad = (2.0 / batch) * (weight * np.swapaxes(H.conj(), 1, 2) @ comm + (1 - weight) * sens)
    return total / batch, grad


# ------------------------------------------------------------------- dataset


def scenario_users(num_users: int):
    """The Case I users: the first `num_users` of DEFAULT_RICIAN_FACTORS on
    departure angles evenly spaced over [-pi/3, pi/3] (broadside for a
    single user)."""
    if len(DEFAULT_RICIAN_FACTORS) < num_users:
        raise ValueError("need a Rician factor per user")
    angles = np.linspace(-np.pi / 3, np.pi / 3, num_users) if num_users > 1 else [0.0]
    return [RicianParams(rician_factor=factor, departure_angle=angle)
            for factor, angle in zip(DEFAULT_RICIAN_FACTORS, angles)]


def make_dataset(num_samples: int, num_antennas: int, num_users: int,
                 frame_length: int, rng: np.random.Generator,
                 total_power: float = 1.0, template: CovarianceTemplate | None = None):
    """Draw a stack of `num_samples` (H, D, X0) triples: the `scenario_users`
    channels, QPSK symbols, and a covariance-constrained reference waveform.

    `template` is a `CovarianceTemplate` of M antennas and power
    `total_power`, or None for the isotropic template (P/M) I; its square
    root is taken once for the whole dataset.
    """
    geom = ArrayGeometry(num_antennas)
    users = scenario_users(num_users)

    if template is None:
        template = reference_covariance_omni(total_power, num_antennas)
    elif template.num_antennas != num_antennas or template.power != total_power:
        raise ValueError("template must have num_antennas antennas and power total_power")

    H = sample_channel_matrix(users, geom, num_samples, rng)
    D = QPSK[rng.integers(0, 4, size=(num_samples, num_users, frame_length))]
    return WaveformSample(H=H, D=D, X0=procrustes_waveform(template, H, D, frame_length))


# the fewest samples whose 20% validation share rounds to at least one
_MIN_SAMPLES = 3


def split_dataset(num_samples: int, rng: np.random.Generator):
    """Seeded 60/20/20 train/validation/test index split."""
    perm = rng.permutation(num_samples)
    n_train = int(round(0.6 * num_samples))
    n_val = int(round(0.2 * num_samples))
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


# ------------------------------------------------------------------ training


_QPSK_PHASES = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])


def symmetry_augment(D: np.ndarray, X0: np.ndarray, rng: np.random.Generator):
    """Random column permutation plus per-column QPSK phase rotation, drawn
    independently for each instance of the (B, K, tau) / (B, M, tau) stacks.

    Both loss terms are column-separable, so the per-instance optimum maps
    along with (D, X0); the transformed instance is distributed exactly like
    a fresh draw sharing the same channel. Phases stay in the QPSK alphabet
    and the rotation is exact in floating point (re/im swaps and sign flips).
    """
    batch, _, tau = D.shape
    phases = _QPSK_PHASES[rng.integers(0, 4, (batch, tau))][:, None, :]
    perm = rng.permuted(np.tile(np.arange(tau), (batch, 1)), axis=1)[:, None, :]
    return (np.take_along_axis(D * phases, perm, axis=2),
            np.take_along_axis(X0 * phases, perm, axis=2))


def train_waveform_net(dataset, weight: float, config: TrainConfig,
                       augment: bool = False):
    """Unsupervised training of the waveform net on a 60/20/20 split of a
    `WaveformSample` stack.

    The net's parameters, Adam moments and matmuls are float32; the
    features, the projection and its VJP, and the loss stay float64, and
    the loss gradient is rounded to float32 where it enters the net.

    Returns (model, history, (train_idx, val_idx, test_idx)). config.seed
    draws the initial weights, then the split, then the seed of the training
    loop's shuffles and augmentation. Early stopping defaults to
    patience 20 when the config does not set one. With augment, each
    training batch passes through symmetry_augment before its features are
    formed; the validation set is left untouched.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    if len(dataset) < config.batch_size:
        raise ValueError("dataset smaller than one batch")
    if len(dataset) < _MIN_SAMPLES:
        raise ValueError(f"dataset needs at least {_MIN_SAMPLES} samples, "
                         "so that its 20% validation split is not empty")
    if config.early_stop_patience is None:
        config = dataclasses.replace(config, early_stop_patience=20)
    rng = np.random.default_rng(config.seed)
    H, D, X0, total_power = dataset.H.entries, dataset.D, dataset.X0.X, dataset.X0.power
    (_, K, M), tau = H.shape, D.shape[2]

    model = init_mlp(*waveform_net_layers(M, K, tau), rng, dtype=np.float32)
    features = build_features(H, D, X0)
    train_idx, val_idx, test_idx = split_dataset(len(dataset), rng)
    # train's shuffles and augmentation draw from a child seed of this stream
    config = dataclasses.replace(config, seed=int(rng.integers(0, 2 ** 31 - 1)))

    def batch(idx, loop_rng):
        rows = train_idx[idx]
        Hb, Db, X0b = H[rows], D[rows], X0[rows]
        if not augment:
            return features[rows], (Hb, Db, X0b)
        Db, X0b = symmetry_augment(Db, X0b, loop_rng)
        return build_features(Hb, Db, X0b), (Hb, Db, X0b)

    def loss_fn(out, aux):
        value, grad = isac_waveform_loss(
            power_projection(out, total_power, tau), *aux, weight)
        return value, _projection_vjp(out, grad, total_power, tau)

    model, history = train(model, len(train_idx), batch, loss_fn, config,
                           (features[val_idx], (H[val_idx], D[val_idx], X0[val_idx])))
    return model, history, (train_idx, val_idx, test_idx)


def predict_waveform(model: MlpModel, sample: WaveformSample) -> WaveformDesign:
    """Forward pass plus projection at the sample's power budget, for one
    instance or a stack; the power inequality always holds."""
    # one instance runs as a stack of one
    H, D, X0 = (a.reshape((-1,) + a.shape[-2:]) for a in (sample.H.entries, sample.D, sample.X0.X))
    raw = predict(model, build_features(H, D, X0))
    X = power_projection(raw, sample.X0.power, D.shape[-1]).reshape(sample.X0.X.shape)
    return WaveformDesign(X, sample.X0.power, exact_power=False)
