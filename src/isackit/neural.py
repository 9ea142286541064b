"""Minimal dense-network engine: forward pass, exact reverse-mode gradients,
one Adam update, and one seeded minibatch loop with early stopping.

The engine is real-valued float64 throughout; callers that work with complex
quantities stack real and imaginary parts into the feature vector. Losses are
pluggable: a loss callable receives (network outputs, auxiliary batch data)
and returns (scalar loss, gradient with respect to the outputs).

Each `MlpModel` keeps all of its parameters in one contiguous vector
`params`, laid out layer by layer as W0 (row-major), b0, W1, b1, ...; its
`weights[i]` and `biases[i]` are reshaped views into that vector, so writes
to either side are seen by the other, and they are updated in place.
`backward_pass` writes the gradients into one fresh vector of the same
layout per call and returns (dW, db) views of it; a view keeps its vector
alive for as long as the view lives, and two calls never share memory.
`adam_update` keeps its moments as two flat vectors and updates any flat
parameter vector block by block in place, with no parameter-sized
temporaries; `adam_step` applies it to a model's `params`. Its
decay rates and epsilon are the constants of Kingma and Ba (ICLR 2015);
only the learning rate is set per run.

`minibatch_adam` is the one loop over a finite training set: it shuffles,
batches, keeps the best-scoring snapshot, stops early and records the
history, and leaves each batch's gradient and Adam update to a closure of
its caller. `train` runs it on a model's params; `hybrid_pga` runs it on
the unrolled PGA step sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

ACTIVATIONS = ("linear", "relu", "tanh")


@dataclass
class MlpModel:
    """Dense network. The weights and biases given are copied into one new
    `params` vector; afterwards weights[i] and biases[i] are views of it."""

    weights: list  # weights[i]: (fan_in, fan_out)
    biases: list  # biases[i]: (fan_out,)
    activations: list  # activation tag per layer
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("layer lists must have equal length")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for W, b in zip(self.weights, self.biases):
            if np.ndim(W) != 2 or np.shape(b) != np.shape(W)[1:]:
                raise ValueError("weights must be (fan_in, fan_out) and biases (fan_out,)")
        for i in range(len(self.weights) - 1):
            if self.weights[i].shape[1] != self.weights[i + 1].shape[0]:
                raise ValueError("consecutive layer dimensions must chain")
        self.params = np.empty(sum(np.size(W) + np.size(b)
                                   for W, b in zip(self.weights, self.biases)))
        views = self.layer_views(self.params)
        for (W, b), (W_view, b_view) in zip(zip(self.weights, self.biases), views):
            W_view[...] = W
            b_view[...] = b
        self.weights = [W for W, _ in views]
        self.biases = [b for _, b in views]

    def layer_views(self, flat: np.ndarray):
        """(W, b)-shaped views, one pair per layer, of a flat vector laid out
        like `params`."""
        pairs, start = [], 0
        for W in self.weights:
            fan_in, fan_out = W.shape
            stop = start + fan_in * fan_out
            pairs.append((flat[start:stop].reshape(fan_in, fan_out),
                          flat[stop:stop + fan_out]))
            start = stop + fan_out
        return pairs

    @property
    def layers(self):
        return list(zip(self.weights, self.biases, self.activations))

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]


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
    raise ValueError(f"unknown activation {act!r}")


def _activation_vjp(grad: np.ndarray, out: np.ndarray, z: np.ndarray, act: str) -> np.ndarray:
    if act == "linear":
        return grad
    if act == "relu":
        return grad * (z > 0)
    if act == "tanh":
        return grad * (1.0 - out**2)
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
    param_grads is a list of (dW, db) matching model.layers: views of one
    fresh flat vector laid out like model.params."""
    acts, zs = cache
    grad = np.asarray(grad_output, dtype=float)
    if grad.shape != acts[-1].shape:
        raise ValueError("upstream gradient shape mismatch")
    param_grads = model.layer_views(np.empty(model.params.size))
    for i in reversed(range(len(model.weights))):
        grad = _activation_vjp(grad, acts[i + 1], zs[i], model.activations[i])
        dW, db = param_grads[i]
        np.matmul(acts[i].T, grad, out=dW)
        grad.sum(axis=0, out=db)
        grad = grad @ model.weights[i].T
    return param_grads, grad


# ------------------------------------------------------------------- Adam

# Elements per block of the in-place Adam update, chosen by measurement: on a
# 2-core VM with a 1 MiB L2 per core (one BLAS thread, best of 7), one update
# of a 2,337,728-element vector took 7.1 / 6.5 / 6.4 ms at blocks of 2^14 /
# 2^15 / 2^16 elements, 8.3 ms unblocked and 10.8 ms with whole-array
# temporaries. Blocks near 2^15 are about equally fast; all beat no blocking.
_ADAM_BLOCK = 1 << 15

# b1, b2 and eps of adam_update
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Learning rate, step count and flat moment vectors laid out like the
    vector that Adam updates (for `adam_step`, the model's params); the
    decay rates and epsilon are the module's _ADAM_* constants. `scratch`
    holds two blocks of work space."""

    lr: float = 1e-3
    step_count: int = 0
    first_moment: Optional[np.ndarray] = None
    second_moment: Optional[np.ndarray] = None
    scratch: Optional[np.ndarray] = None


def adam_state(size: int, lr: float = 1e-3) -> AdamState:
    """Zero moments and scratch space for Adam on a flat vector of `size`
    elements."""
    return AdamState(lr=lr, first_moment=np.zeros(size), second_moment=np.zeros(size),
                     scratch=np.empty((2, min(size, _ADAM_BLOCK))))


def init_adam(model: MlpModel, lr: float = 1e-3) -> AdamState:
    return adam_state(model.params.size, lr)


def _tiles(flat, param_grads, model: MlpModel) -> bool:
    """True when the (dW, db) pairs are views that tile `flat` in the layout
    of model.params, as backward_pass returns them."""
    if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64
            and flat.shape == model.params.shape and flat.flags.c_contiguous):
        return False
    address, start = flat.ctypes.data, 0
    grads = (g for pair in param_grads for g in pair)
    refs = (r for layer in zip(model.weights, model.biases) for r in layer)
    for g, ref in zip(grads, refs):
        if (getattr(g, "base", None) is not flat or g.shape != ref.shape
                or not g.flags.c_contiguous
                or g.ctypes.data != address + start * flat.itemsize):
            return False
        start += ref.size
    return True


def _flat_grad(model: MlpModel, param_grads) -> np.ndarray:
    """The flat gradient vector laid out like model.params: the one the pairs
    are views of when they tile it (as backward_pass returns them), else a
    fresh copy of the pairs."""
    if len(param_grads) != len(model.weights):
        raise ValueError("need one (dW, db) pair per layer")
    flat = getattr(param_grads[0][0], "base", None)
    if _tiles(flat, param_grads, model):
        return flat
    flat = np.empty_like(model.params)
    for (dW, db), (W_copy, b_copy) in zip(param_grads, model.layer_views(flat)):
        if np.shape(dW) != W_copy.shape or np.shape(db) != b_copy.shape:
            raise ValueError("gradient shapes must match the layers' (W, b) shapes")
        W_copy[...] = dW
        b_copy[...] = db
    return flat


def adam_update(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """Standard bias-corrected Adam update of the flat float64 vector
    `params` by the flat gradient `grad`, in place.

    Each block of _ADAM_BLOCK elements runs m += (1-b1)(g-m);
    v += (1-b2)(g^2-v); p -= lr (m/c1) / (sqrt(v/c2) + eps) in that
    operation order, so the result is bit for bit that of the same
    expressions on whole arrays.
    """
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - _ADAM_BETA1**t
    c2 = 1.0 - _ADAM_BETA2**t
    first, second = state.first_moment, state.second_moment
    for start in range(0, params.size, _ADAM_BLOCK):
        stop = min(start + _ADAM_BLOCK, params.size)
        g, m, v, p = grad[start:stop], first[start:stop], second[start:stop], params[start:stop]
        step, denom = state.scratch[0, :stop - start], state.scratch[1, :stop - start]
        np.subtract(g, m, out=step)
        np.multiply(step, 1 - _ADAM_BETA1, out=step)
        m += step
        np.square(g, out=step)
        np.subtract(step, v, out=step)
        np.multiply(step, 1 - _ADAM_BETA2, out=step)
        v += step
        np.divide(m, c1, out=step)
        np.multiply(step, state.lr, out=step)
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        np.add(denom, _ADAM_EPS, out=denom)
        np.divide(step, denom, out=step)
        p -= step


def adam_step(state: AdamState, model: MlpModel, param_grads) -> MlpModel:
    """`adam_update` of model.params, in place. param_grads is a list of
    (dW, db) pairs, one per layer."""
    adam_update(state, model.params, _flat_grad(model, param_grads))
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
        for name in ("epochs", "batch_size", "early_stop_patience"):
            value = getattr(self, name)
            if value is None and name == "early_stop_patience":
                continue
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be positive and finite")


def minibatch_adam(params: np.ndarray, n: int, step: Callable,
                   config: TrainConfig, rng: np.random.Generator,
                   score: Optional[Callable] = None) -> dict:
    """Seeded shuffled minibatch Adam on the flat vector `params`, in place.

    Each epoch draws rng.permutation(n) and passes its consecutive runs of
    config.batch_size row indices, one at a time, to step(idx, state),
    which applies one Adam update (`adam_update` or `adam_step` under
    `state`, made here with config.lr) and returns the batch's mean loss.
    An epoch scores score() when given, else its mean training loss. A
    strictly lower score than all before it snapshots `params`; training
    stops after config.early_stop_patience epochs without one. The best
    snapshot is restored before returning: the initial `params` when no
    epoch scores below inf.

    Returns the history {"train": epoch-mean losses, "val": scores}, with
    "val" empty when no score() is given.
    """
    state = adam_state(params.size, config.lr)
    history = {"train": [], "val": []}
    best, best_score, stale = params.copy(), np.inf, 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            total += step(idx, state) * len(idx)
        history["train"].append(total / n)
        if score is not None:
            history["val"].append(score())
        current = history["val" if score is not None else "train"][-1]
        if current < best_score:
            best_score, stale = current, 0
            np.copyto(best, params)
        else:
            stale += 1
            if config.early_stop_patience is not None and stale >= config.early_stop_patience:
                break
    params[...] = best
    return history


def _index_aux(aux, idx):
    if isinstance(aux, tuple):
        return tuple(a[idx] for a in aux)
    return None if aux is None else aux[idx]


def train(model: MlpModel, inputs: np.ndarray, aux,
          loss_fn: Callable, config: TrainConfig,
          val_inputs: Optional[np.ndarray] = None, val_aux=None,
          batch_transform: Optional[Callable] = None):
    """`minibatch_adam` on model.params, scored by the validation loss when
    a validation set is given (else by the training loss).

    aux is None, an array, or a tuple of arrays, each indexed along its
    leading axis like `inputs`; loss_fn(outputs, aux_batch) -> (loss, grad
    wrt outputs) receives the rows of the batch.

    batch_transform(inputs_batch, aux_batch, rng) -> (inputs, aux), when
    given, rewrites each training batch before the forward pass (on-the-fly
    augmentation). Validation batches are never transformed.

    Returns (model, history) with history = {"train": [...], "val": [...]}.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)

    def step(idx, state):
        batch_in, batch_aux = inputs[idx], _index_aux(aux, idx)
        if batch_transform is not None:
            batch_in, batch_aux = batch_transform(batch_in, batch_aux, rng)
        out, cache = forward_pass(model, batch_in)
        loss, grad_out = loss_fn(out, batch_aux)
        adam_step(state, model, backward_pass(model, cache, grad_out)[0])
        return loss

    def val_loss():
        return loss_fn(predict(model, val_inputs), val_aux)[0]

    history = minibatch_adam(model.params, len(inputs), step, config, rng,
                             None if val_inputs is None else val_loss)
    return model, history
