"""Minimal dense-network engine: forward pass, exact reverse-mode gradients,
one Adam update, and one seeded minibatch loop that scores every epoch on
held-out data and stops early.

The engine is real-valued and runs in the dtype of a model's parameters,
float32 or float64 (the default): the forward pass casts its inputs and the
backward pass its upstream gradient to that dtype, and the gradients, Adam
moments and scratch space take it too. Callers that work with complex
quantities stack real and imaginary parts into the feature vector. Losses are
pluggable: a loss callable receives (network outputs, auxiliary batch data)
and returns (scalar loss, gradient with respect to the outputs); it may
compute in float64 whatever the parameters' dtype.

Each `MlpModel` keeps all of its parameters in one contiguous vector
`params`, laid out layer by layer as W0 (row-major), b0, W1, b1, ...; its
`weights[i]` and `biases[i]` are reshaped views into that vector, so writes
to either side are seen by the other, and they are updated in place.
`forward_pass` caches the input and each layer's activation, computed over
its pre-activation (ReLU's mask out > 0 is z > 0; tanh' is 1 - out^2).
`backward_pass` returns the gradients as fresh (dW, db) pairs, one per
layer. Given an `AdamState`, `backward_pass` instead spends each layer's dW
and db on an Adam update as they are produced, in blocks of rows that stay
in cache, and forms no parameter-sized gradient; `train` takes its steps
this way. `adam_update` keeps its moments as two flat vectors and updates
any flat parameter vector block by block in place, with no parameter-sized
temporaries; `adam_step` applies it to a model's `params`, after copying
the pairs into one flat vector laid out like `params`. The fused step and
`adam_update` run one block kernel, so a fused step has the bits of
`backward_pass` followed by `adam_step`. Adam's decay rates and epsilon are
the constants of Kingma and Ba (ICLR 2015); only the learning rate is set
per run.

`minibatch_adam` is the one loop over a finite training set: it shuffles,
batches, scores every epoch on held-out data, keeps the best-scoring
snapshot, stops early and records the history, and leaves each batch's
gradient and Adam update to a closure of its caller. `train` runs it on a
model's params, with a `batch(idx, rng)` closure that forms (and may
augment) the training rows and a required validation set `val`;
`hybrid_pga` runs it on the unrolled PGA step sizes.
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
    `params` vector; afterwards weights[i] and biases[i] are views of it.
    `params` is float32 when every weight and bias given is float32, and
    float64 otherwise (integer arrays included)."""

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
        single = all(np.asarray(a).dtype == np.float32 for a in self.weights + self.biases)
        self.params = np.empty(sum(np.size(W) + np.size(b)
                                   for W, b in zip(self.weights, self.biases)),
                               dtype=np.float32 if single else np.float64)
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
             rng: np.random.Generator, dtype=np.float64) -> MlpModel:
    """Uniform init scaled by 1/sqrt(fan_in); biases start at zero. The
    weights are drawn in float64 and rounded to `dtype`, float32 or float64,
    so both precisions draw the same stream from rng."""
    if len(activations) != len(widths) - 1:
        raise ValueError("need one activation per layer")
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {np.dtype(dtype)}")
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        weights.append(W.astype(dtype, copy=False))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return MlpModel(weights, biases, list(activations))


def _activate(z: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return np.maximum(z, 0.0, out=z)
    if act == "tanh":
        return np.tanh(z, out=z)
    return z


def _activation_vjp(grad: np.ndarray, out: np.ndarray, act: str,
                    in_place: bool = False) -> np.ndarray:
    """The gradient at the pre-activation, read from the activation out;
    in_place writes it into grad."""
    into = grad if in_place else None
    if act == "relu":
        return np.multiply(grad, out > 0, out=into)
    if act == "tanh":
        return np.multiply(grad, 1.0 - out**2, out=into)
    return grad


def forward_pass(model: MlpModel, batch: np.ndarray):
    """Returns (output, cache): cache lists the input and each layer's
    activation, computed over its pre-activation, all in the dtype of
    model.params, to which the batch is cast."""
    a = np.atleast_2d(np.asarray(batch, dtype=model.params.dtype))
    if a.shape[1] != model.input_dim:
        raise ValueError("batch width does not match model input_dim")
    acts = [a]
    for W, b, act in model.layers:
        z = acts[-1] @ W
        z += b
        acts.append(_activate(z, act))
    return acts[-1], acts


def predict(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    out, _ = forward_pass(model, batch)
    return out


def backward_pass(model: MlpModel, cache, grad_output: np.ndarray,
                  adam: Optional[AdamState] = None):
    """Exact reverse-mode gradients, in the dtype of model.params, to which
    grad_output is cast. Returns (param_grads, grad_input) where
    param_grads is a list of fresh (dW, db) pairs matching model.layers.

    With `adam`, an AdamState for model.params, the gradients are spent on
    one `adam_update` of model.params instead, with the same bits, and
    nothing is returned. From the last layer to the first, the input
    gradient is formed while W still holds its old values (layer 0 skips
    it), then dW is produced in blocks of rows of about _ADAM_BLOCK
    elements in the state's scratch space and each block updates its rows
    of W and of both moments while it is in cache; db updates the biases
    the same way. No parameter-sized gradient is formed.
    """
    acts = cache
    grad = np.asarray(grad_output, dtype=model.params.dtype)
    if grad.shape != acts[-1].shape:
        raise ValueError("upstream gradient shape mismatch")
    if adam is None:
        param_grads = [None] * len(model.weights)
    else:
        c1, c2 = _adam_begin(adam)
    start, last = model.params.size, len(model.weights) - 1
    for i in reversed(range(len(model.weights))):
        start -= model.weights[i].size + model.biases[i].size
        # below the last layer, grad is the input gradient formed here
        grad = _activation_vjp(grad, acts[i + 1], model.activations[i],
                               in_place=i < last)
        grad_in = grad @ model.weights[i].T if adam is None or i > 0 else None
        if adam is None:
            param_grads[i] = (acts[i].T @ grad, grad.sum(axis=0))
        else:
            _adam_layer(adam, c1, c2, model.params, start, acts[i], grad)
        grad = grad_in
    if adam is None:
        return param_grads, grad


# ------------------------------------------------------------------- Adam

# Elements per block of the in-place Adam update, chosen by measurement: on a
# 2-core VM with a 1 MiB L2 per core (one BLAS thread, best of 7), one update
# of a 2,337,728-element vector took 7.1 / 6.5 / 6.4 ms at blocks of 2^14 /
# 2^15 / 2^16 elements, 8.3 ms unblocked and 10.8 ms with whole-array
# temporaries. Blocks near 2^15 are about equally fast; all beat no blocking.
# Those were float64 elements; a float32 block of 2^15 is half the bytes. On a
# 2-vCPU VM with a 2 MiB L2 per core (one BLAS thread, best of 7), the float32
# update of that vector took 8.2-10.2 ms at blocks of 2^15 to 2^17, within
# noise of each other (9.8-12.1 ms at 2^14), against 20-23 ms for float64; so
# one constant serves both dtypes.
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
    holds three blocks of work space: two for the update, one for a block
    of the gradient that `backward_pass` produces."""

    lr: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    scratch: np.ndarray
    step_count: int = 0


def adam_state(params: np.ndarray, lr: float = 1e-3) -> AdamState:
    """Zero flat moments and scratch space for Adam on the vector `params`,
    in its dtype."""
    size, dtype = params.size, params.dtype
    return AdamState(lr=lr, first_moment=np.zeros(size, dtype),
                     second_moment=np.zeros(size, dtype),
                     scratch=np.empty((3, min(size, _ADAM_BLOCK)), dtype))


def init_adam(model: MlpModel, lr: float = 1e-3) -> AdamState:
    return adam_state(model.params, lr)


def _flat_grad(model: MlpModel, param_grads) -> np.ndarray:
    """A fresh flat copy of the (dW, db) pairs, laid out like model.params."""
    if len(param_grads) != len(model.weights):
        raise ValueError("need one (dW, db) pair per layer")
    flat = np.empty_like(model.params)
    for (dW, db), (W_copy, b_copy) in zip(param_grads, model.layer_views(flat)):
        if np.shape(dW) != W_copy.shape or np.shape(db) != b_copy.shape:
            raise ValueError("gradient shapes must match the layers' (W, b) shapes")
        W_copy[...] = dW
        b_copy[...] = db
    return flat


def _adam_begin(state: AdamState):
    """Counts one Adam step; returns its bias corrections (c1, c2)."""
    state.step_count += 1
    t = state.step_count
    return 1.0 - _ADAM_BETA1**t, 1.0 - _ADAM_BETA2**t


def _adam_block(state: AdamState, c1: float, c2: float, params: np.ndarray,
                grad: np.ndarray, start: int) -> None:
    """One block of `adam_update`: params[start:start + grad.size] and its
    moments, in place, by the 1-D gradient block `grad`, with the operation
    order that `adam_update` states."""
    stop = start + grad.size
    m, v = state.first_moment[start:stop], state.second_moment[start:stop]
    step, denom = state.scratch[0, :grad.size], state.scratch[1, :grad.size]
    np.subtract(grad, m, out=step)
    np.multiply(step, 1 - _ADAM_BETA1, out=step)
    m += step
    np.square(grad, out=step)
    np.subtract(step, v, out=step)
    np.multiply(step, 1 - _ADAM_BETA2, out=step)
    v += step
    np.divide(m, c1, out=step)
    np.multiply(step, state.lr, out=step)
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    np.add(denom, _ADAM_EPS, out=denom)
    np.divide(step, denom, out=step)
    params[start:stop] -= step


def _adam_layer(state: AdamState, c1: float, c2: float, params: np.ndarray,
                start: int, a: np.ndarray, grad: np.ndarray) -> None:
    """The Adam update of one layer's (W, b), laid out from params[start],
    by dW = a.T @ grad and db = grad.sum(axis=0), each produced block by
    block in the state's scratch space."""
    fan_in, fan_out = a.shape[1], grad.shape[1]
    # blocks of two rows or more: numpy multiplies one row by a matrix with
    # another BLAS kernel (a matrix-vector product) whose sums differ in the
    # last bits from those of the whole product
    low = min(fan_in, 2)
    if state.scratch.shape[1] < low * fan_out:
        state.scratch = np.empty((3, low * fan_out), dtype=state.scratch.dtype)
    # whole multiples of 8 rows: on the waveform net at batch 32 (one BLAS
    # thread, 2-core VM), a fused step took 9.2-9.3 ms in blocks of 16 and
    # 32 rows and 9.7-10.0 ms in blocks of 17 and 34, whose matmuls end in
    # a nearly empty panel of rows
    rows = state.scratch.shape[1] // fan_out
    if rows > 8:
        rows -= rows % 8
    for r in range(0, fan_in, rows):
        first = min(r, fan_in - low)  # a one-row tail is formed with the row before it
        block = state.scratch[2, :(min(r + rows, fan_in) - first) * fan_out]
        np.matmul(a.T[first:r + rows], grad, out=block.reshape(-1, fan_out))
        _adam_block(state, c1, c2, params, block[(r - first) * fan_out:],
                    start + r * fan_out)
    block = state.scratch[2, :fan_out]
    grad.sum(axis=0, out=block)
    _adam_block(state, c1, c2, params, block, start + fan_in * fan_out)


def adam_update(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """Standard bias-corrected Adam update of the flat vector `params` by the
    flat gradient `grad`, in place, in the dtype of the state's moments
    (float32 or float64). The decay rates, epsilon, learning rate and bias
    corrections are Python floats, which take the arrays' dtype.

    Each block of _ADAM_BLOCK elements runs m += (1-b1)(g-m);
    v += (1-b2)(g^2-v); p -= lr (m/c1) / (sqrt(v/c2) + eps) in that
    operation order, so the result is bit for bit that of the same
    expressions on whole arrays, whatever the blocks.
    """
    c1, c2 = _adam_begin(state)
    for start in range(0, params.size, _ADAM_BLOCK):
        _adam_block(state, c1, c2, params, grad[start:start + _ADAM_BLOCK], start)


def adam_step(state: AdamState, model: MlpModel, param_grads) -> MlpModel:
    """`adam_update` of model.params, in place, by param_grads: one (dW, db)
    pair per layer, as `backward_pass` returns them, copied into one flat
    vector per call."""
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
                   score: Callable) -> dict:
    """Seeded shuffled minibatch Adam on the flat vector `params`, in place.

    Each epoch draws rng.permutation(n) and passes its consecutive runs of
    config.batch_size row indices, one at a time, to step(idx, state),
    which applies one Adam update under `state` (made here with
    config.lr; `adam_update`, or `backward_pass` given the state) and
    returns the batch's mean loss.
    Each epoch ends by scoring score(), a loss on held-out data. A strictly
    lower score than all before it snapshots `params`; training stops after
    config.early_stop_patience epochs without one. The best snapshot is
    restored before returning: the initial `params` when no epoch scores
    below inf.

    Returns the history {"train": epoch-mean losses, "val": scores}.
    """
    state = adam_state(params, config.lr)
    history = {"train": [], "val": []}
    best, best_score, stale = params.copy(), np.inf, 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            total += step(idx, state) * len(idx)
        current = score()
        history["train"].append(total / n)
        history["val"].append(current)
        if current < best_score:
            best_score, stale = current, 0
            np.copyto(best, params)
        else:
            stale += 1
            if config.early_stop_patience is not None and stale >= config.early_stop_patience:
                break
    params[...] = best
    return history


def train(model: MlpModel, n: int, batch: Callable, loss_fn: Callable,
          config: TrainConfig, val):
    """`minibatch_adam` on model.params over `n` training rows, scored by
    the loss on the validation set `val` = (inputs, aux).

    batch(idx, rng) -> (inputs, aux) forms the training rows idx, where any
    augmentation happens, with the loop's generator (seeded from
    config.seed); loss_fn(outputs, aux) -> (mean loss, gradient wrt the
    outputs) receives the outputs and the aux of a batch or of `val`.

    Returns (model, history) with history = {"train": [...], "val": [...]}.
    """
    if n < 1:
        raise ValueError("empty dataset")
    val_inputs, val_aux = val
    rng = np.random.default_rng(config.seed)

    def step(idx, state):
        inputs, aux = batch(idx, rng)
        out, cache = forward_pass(model, inputs)
        loss, grad_out = loss_fn(out, aux)
        backward_pass(model, cache, grad_out, adam=state)
        return loss

    def val_loss():
        return loss_fn(predict(model, val_inputs), val_aux)[0]

    history = minibatch_adam(model.params, n, step, config, rng, val_loss)
    return model, history
