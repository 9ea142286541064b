"""Minimal dense-network engine: forward pass, exact reverse-mode gradients,
Adam, and seeded mini-batch training with early stopping.

The engine is real-valued float64 throughout; callers that work with complex
quantities stack real and imaginary parts into the feature vector. Losses are
pluggable: a loss callable receives (network outputs, auxiliary batch data)
and returns (scalar loss, gradient with respect to the outputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

ACTIVATIONS = ("linear", "relu", "tanh", "sigmoid", "softmax")


@dataclass
class MlpModel:
    weights: list  # weights[i]: (fan_in, fan_out)
    biases: list  # biases[i]: (fan_out,)
    activations: list  # activation tag per layer

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("layer lists must have equal length")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for i in range(len(self.weights) - 1):
            if self.weights[i].shape[1] != self.weights[i + 1].shape[0]:
                raise ValueError("consecutive layer dimensions must chain")

    @property
    def layers(self):
        return list(zip(self.weights, self.biases, self.activations))

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "MlpModel":
        return MlpModel([w.copy() for w in self.weights],
                        [b.copy() for b in self.biases],
                        list(self.activations))


def init_mlp(widths: Sequence[int], activations: Sequence[str],
             rng: np.random.Generator) -> MlpModel:
    """Uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    if len(activations) != len(widths) - 1:
        raise ValueError("need one activation per layer")
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, list(activations))


def _activate(z: np.ndarray, act: str) -> np.ndarray:
    if act == "linear":
        return z
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "tanh":
        return np.tanh(z)
    if act == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if act == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown activation {act!r}")


def _activation_vjp(grad: np.ndarray, out: np.ndarray, z: np.ndarray, act: str) -> np.ndarray:
    if act == "linear":
        return grad
    if act == "relu":
        return grad * (z > 0)
    if act == "tanh":
        return grad * (1.0 - out**2)
    if act == "sigmoid":
        return grad * out * (1.0 - out)
    if act == "softmax":
        # full softmax Jacobian product, row-wise
        inner = np.sum(grad * out, axis=1, keepdims=True)
        return out * (grad - inner)
    raise ValueError(f"unknown activation {act!r}")


def forward_pass(model: MlpModel, batch: np.ndarray):
    """Returns (output, cache) where cache holds per-layer pre-activations and
    activations for reuse by backward_pass."""
    a = np.atleast_2d(np.asarray(batch, dtype=float))
    if a.shape[1] != model.input_dim:
        raise ValueError("batch width does not match model input_dim")
    acts = [a]
    zs = []
    for W, b, act in model.layers:
        z = a @ W + b
        a = _activate(z, act)
        zs.append(z)
        acts.append(a)
    return a, (acts, zs)


def predict(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    out, _ = forward_pass(model, batch)
    return out


def backward_pass(model: MlpModel, cache, grad_output: np.ndarray):
    """Exact reverse-mode gradients. Returns (param_grads, grad_input) where
    param_grads is a list of (dW, db) matching model.layers."""
    acts, zs = cache
    grad = np.asarray(grad_output, dtype=float)
    if grad.shape != acts[-1].shape:
        raise ValueError("upstream gradient shape mismatch")
    param_grads = [None] * len(model.weights)
    for i in reversed(range(len(model.weights))):
        grad = _activation_vjp(grad, acts[i + 1], zs[i], model.activations[i])
        dW = acts[i].T @ grad
        db = grad.sum(axis=0)
        param_grads[i] = (dW, db)
        grad = grad @ model.weights[i].T
    return param_grads, grad


# ------------------------------------------------------------------- Adam


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)


def init_adam(model: MlpModel, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    first = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(model.weights, model.biases)]
    second = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(model.weights, model.biases)]
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                     first_moment=first, second_moment=second)


def adam_step(state: AdamState, model: MlpModel, param_grads) -> MlpModel:
    """Standard bias-corrected Adam update, applied in place."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for i, (dW, db) in enumerate(param_grads):
        mW, mb = state.first_moment[i]
        vW, vb = state.second_moment[i]
        mW += (1 - state.beta1) * (dW - mW)
        mb += (1 - state.beta1) * (db - mb)
        vW += (1 - state.beta2) * (dW**2 - vW)
        vb += (1 - state.beta2) * (db**2 - vb)
        model.weights[i] -= state.lr * (mW / c1) / (np.sqrt(vW / c2) + state.eps)
        model.biases[i] -= state.lr * (mb / c1) / (np.sqrt(vb / c2) + state.eps)
    return model


# ---------------------------------------------------------------- training


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    lr: float = 1e-3
    early_stop_patience: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("epochs/batch_size must be >= 1 and lr > 0")


def _index_aux(aux, idx):
    if isinstance(aux, tuple):
        return tuple(a[idx] for a in aux)
    return None if aux is None else aux[idx]


def train(model: MlpModel, inputs: np.ndarray, aux,
          loss_fn: Callable, config: TrainConfig,
          val_inputs: Optional[np.ndarray] = None, val_aux=None,
          batch_transform: Optional[Callable] = None):
    """Seeded shuffled mini-batch training with Adam.

    aux is None, an array, or a tuple of arrays, each indexed along its
    leading axis like `inputs`; loss_fn(outputs, aux_batch) -> (loss, grad
    wrt outputs) receives the rows of the batch. When a validation
    set and early_stop_patience are given, training stops after `patience`
    epochs without improvement; the best-scoring snapshot (validation when
    available, else training loss) is restored before returning.

    batch_transform(inputs_batch, aux_batch, rng) -> (inputs, aux), when
    given, rewrites each training batch before the forward pass (on-the-fly
    augmentation). Validation batches are never transformed.

    Returns (model, history) with history = {"train": [...], "val": [...]}.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError("empty dataset")
    n = inputs.shape[0]
    rng = np.random.default_rng(config.seed)
    state = init_adam(model, lr=config.lr)
    history = {"train": [], "val": []}
    best_score = np.inf
    best_snapshot = None
    stale = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_in, batch_aux = inputs[idx], _index_aux(aux, idx)
            if batch_transform is not None:
                batch_in, batch_aux = batch_transform(batch_in, batch_aux, rng)
            out, cache = forward_pass(model, batch_in)
            loss, grad_out = loss_fn(out, batch_aux)
            grads, _ = backward_pass(model, cache, grad_out)
            adam_step(state, model, grads)
            epoch_loss += loss * len(idx)
        train_loss = epoch_loss / n
        history["train"].append(train_loss)
        if val_inputs is not None:
            val_out = predict(model, val_inputs)
            val_loss, _ = loss_fn(val_out, val_aux)
            history["val"].append(val_loss)
            score = val_loss
        else:
            score = train_loss
        if score < best_score - 1e-15:
            best_score = score
            best_snapshot = model.copy()
            stale = 0
        else:
            stale += 1
            if config.early_stop_patience is not None and stale >= config.early_stop_patience:
                break
    if best_snapshot is not None:
        model.weights = best_snapshot.weights
        model.biases = best_snapshot.biases
    return model, history
