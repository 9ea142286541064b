import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

from helpers import run_python
from isackit import constellation_ae, neural
from isackit.constellation_ae import comm_loss, train_isac_ae
from isackit.neural import (
    ACTIVATIONS,
    MlpModel,
    TrainConfig,
    _activation_vjp,
    adam_step,
    backward_pass,
    forward_pass,
    init_adam,
    init_mlp,
    predict,
    train,
)
from isackit.waveform_learn import (
    make_dataset,
    predict_waveform,
    train_waveform_net,
    waveform_net_layers,
)


def _squared_loss(out, target):
    diff = out - target
    return 0.5 * np.sum(diff**2), diff


def _fd_param_grads(model, batch, target, h=1e-6):
    grads = []
    for W in model.weights + model.biases:
        g = np.zeros_like(W)
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = W[idx]
            W[idx] = orig + h
            lp, _ = _squared_loss(predict(model, batch), target)
            W[idx] = orig - h
            lm, _ = _squared_loss(predict(model, batch), target)
            W[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads[: len(model.weights)], grads[len(model.weights):]


# ------------------------------------------------------------------ oracles
# The per-layer engine that the flat-buffer one replaced: fresh (dW, db)
# arrays per layer, and Adam as whole-array expressions on each layer's
# weights, biases and moments, all in the dtype of the model's params. The
# flat engine must give the same bits, at float32 as at float64.


def _oracle_backward_pass(model, cache, grad_output):
    acts, zs = cache
    grad = np.asarray(grad_output, dtype=model.params.dtype)
    if grad.shape != acts[-1].shape:
        raise ValueError("upstream gradient shape mismatch")
    param_grads = [None] * len(model.weights)
    for i in reversed(range(len(model.weights))):
        grad = _activation_vjp(grad, acts[i + 1], zs[i], model.activations[i])
        param_grads[i] = (acts[i].T @ grad, grad.sum(axis=0))
        grad = grad @ model.weights[i].T
    return param_grads, grad


def _oracle_adam_step(state, model, param_grads):
    state.step_count += 1
    t = state.step_count
    b1, b2, eps = neural._ADAM_BETA1, neural._ADAM_BETA2, neural._ADAM_EPS
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    first = model.layer_views(state.first_moment)
    second = model.layer_views(state.second_moment)
    for i, (dW, db) in enumerate(param_grads):
        (mW, mb), (vW, vb) = first[i], second[i]
        mW += (1 - b1) * (dW - mW)
        mb += (1 - b1) * (db - mb)
        vW += (1 - b2) * (dW**2 - vW)
        vb += (1 - b2) * (db**2 - vb)
        model.weights[i] -= state.lr * (mW / c1) / (np.sqrt(vW / c2) + eps)
        model.biases[i] -= state.lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
    return model


def _oracle_train(model, n, batch, loss_fn, config, val):
    """`train` as it stood with its own minibatch loop, before the loop moved
    into `minibatch_adam`, on the batch function and validation set of
    `train`. Its snapshot rule asked for an improvement of more than 1e-15,
    and a run with no finite score kept its last params."""
    rng = np.random.default_rng(config.seed)
    state = init_adam(model, lr=config.lr)
    history = {"train": [], "val": []}
    best_score = np.inf
    best = np.empty_like(model.params)
    stale = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_in, batch_aux = batch(idx, rng)
            out, cache = forward_pass(model, batch_in)
            loss, grad_out = loss_fn(out, batch_aux)
            grads, _ = backward_pass(model, cache, grad_out)
            adam_step(state, model, grads)
            epoch_loss += loss * len(idx)
        history["train"].append(epoch_loss / n)
        score, _ = loss_fn(predict(model, val[0]), val[1])
        history["val"].append(score)
        if score < best_score - 1e-15:
            best_score = score
            np.copyto(best, model.params)
            stale = 0
        else:
            stale += 1
            if config.early_stop_patience is not None and stale >= config.early_stop_patience:
                break
    if best_score < np.inf:
        model.params[...] = best
    return model, history


def _oracle_fused_backward_pass(model, cache, grad_output, adam=None):
    """`backward_pass` by the per-layer oracles: with `adam`, the oracle
    gradients spent on one oracle Adam step."""
    grads, grad_in = _oracle_backward_pass(model, cache, grad_output)
    if adam is None:
        return grads, grad_in
    _oracle_adam_step(adam, model, grads)


def _use_oracle_engine(monkeypatch):
    """Routes training through the per-layer oracles, also where
    constellation_ae imported the engine's names; `train`'s fused step
    becomes the oracle backward pass followed by the oracle Adam step."""
    for module in (neural, constellation_ae):
        monkeypatch.setattr(module, "backward_pass", _oracle_fused_backward_pass)
        monkeypatch.setattr(module, "adam_step", _oracle_adam_step)


def _param_bytes(*models):
    return [a.tobytes() for m in models for a in m.weights + m.biases]


def _assert_tiles_params(model):
    """weights[i] and biases[i] are views laid out W0, b0, W1, b1, ... in
    model.params (overwrites the parameters)."""
    model.params[:] = np.arange(model.params.size)
    flat = np.concatenate([a.ravel() for layer in zip(model.weights, model.biases)
                           for a in layer])
    assert np.array_equal(flat, np.arange(model.params.size))


def test_forward_zero_relu_net():
    model = MlpModel(
        [np.zeros((3, 4)), np.zeros((4, 2))],
        [np.zeros(4), np.zeros(2)],
        ["relu", "relu"],
    )
    out = predict(model, np.ones((5, 3)))
    assert np.all(out == 0.0)


def test_forward_identity_linear_layer():
    model = MlpModel([np.eye(4)], [np.zeros(4)], ["linear"])
    x = np.arange(12, dtype=float).reshape(3, 4)
    assert np.array_equal(predict(model, x), x)


def test_forward_softmax_rows_sum_to_one(rng):
    # a linear head emits logits; comm_loss's gradient B*g + one-hot recovers
    # their softmax, a distribution per row
    model = init_mlp([3, 6, 4], ["relu", "linear"], rng)
    logits = predict(model, rng.standard_normal((7, 3)))
    labels = rng.integers(0, 4, 7)
    _, grad = comm_loss(logits, labels)
    probs = 7 * grad + np.eye(4)[labels]
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(probs > 0.0)
    _, (acts, _) = forward_pass(model, rng.standard_normal((2, 3)))
    assert len(acts) == 3  # input + two layers


def test_backward_linear_closed_form(rng):
    # L = 0.5 ||XW - Y||^2 / 1: dW = X^T (XW - Y)
    model = init_mlp([4, 3], ["linear"], rng)
    X = rng.standard_normal((6, 4))
    Y = rng.standard_normal((6, 3))
    out, cache = forward_pass(model, X)
    grads, _ = backward_pass(model, cache, out - Y)
    expected = X.T @ (X @ model.weights[0] - Y)
    assert np.allclose(grads[0][0], expected, atol=1e-12)
    assert np.allclose(grads[0][1], (out - Y).sum(axis=0), atol=1e-12)


@pytest.mark.parametrize("acts", list(itertools.product(ACTIVATIONS, repeat=2)))
def test_backward_matches_finite_differences(acts, rng):
    model = init_mlp([4, 6, 5], list(acts), rng)
    batch = rng.standard_normal((3, 4))
    target = rng.uniform(0.1, 0.9, (3, 5))
    out, cache = forward_pass(model, batch)
    _, grad_out = _squared_loss(out, target)
    analytic, _ = backward_pass(model, cache, grad_out)
    fd_w, fd_b = _fd_param_grads(model, batch, target)
    for i in range(2):
        for a, f in ((analytic[i][0], fd_w[i]), (analytic[i][1], fd_b[i])):
            denom = max(np.linalg.norm(f), 1e-12)
            assert np.linalg.norm(a - f) / denom < 1e-5


def test_backward_input_gradient_matches_fd(rng):
    model = init_mlp([4, 5, 3], ["tanh", "tanh"], rng)
    batch = rng.standard_normal((2, 4))
    target = rng.uniform(0.2, 0.8, (2, 3))
    out, cache = forward_pass(model, batch)
    _, grad_out = _squared_loss(out, target)
    _, grad_in = backward_pass(model, cache, grad_out)
    h = 1e-6
    fd = np.zeros_like(batch)
    for i in range(batch.shape[0]):
        for j in range(batch.shape[1]):
            orig = batch[i, j]
            batch[i, j] = orig + h
            lp, _ = _squared_loss(predict(model, batch), target)
            batch[i, j] = orig - h
            lm, _ = _squared_loss(predict(model, batch), target)
            batch[i, j] = orig
            fd[i, j] = (lp - lm) / (2 * h)
    assert np.linalg.norm(grad_in - fd) / np.linalg.norm(fd) < 1e-5


def test_backward_zero_upstream_gives_zero_grads(rng):
    model = init_mlp([3, 4, 2], ["relu", "tanh"], rng)
    batch = rng.standard_normal((5, 3))
    _, cache = forward_pass(model, batch)
    grads, grad_in = backward_pass(model, cache, np.zeros((5, 2)))
    assert all(np.all(dW == 0) and np.all(db == 0) for dW, db in grads)
    assert np.all(grad_in == 0)


def test_backward_shape_mismatch(rng):
    model = init_mlp([3, 2], ["linear"], rng)
    _, cache = forward_pass(model, rng.standard_normal((4, 3)))
    with pytest.raises(ValueError):
        backward_pass(model, cache, np.zeros((4, 3)))


def test_softmax_cross_entropy_combined_gradient(rng):
    # comm_loss's logit gradient (p - onehot)/B pulled back through a linear
    # head must give the closed-form weight gradient X^T (p - onehot)/B
    model = init_mlp([3, 4], ["linear"], rng)
    batch = rng.standard_normal((6, 3))
    out, cache = forward_pass(model, batch)
    labels = rng.integers(0, 4, 6)
    _, grad_out = comm_loss(out, labels)
    grads, _ = backward_pass(model, cache, grad_out)
    direct = batch.T @ (softmax(out, axis=1) - np.eye(4)[labels]) / 6
    assert np.allclose(grads[0][0], direct, atol=1e-12)


def test_adam_zero_gradient_keeps_parameters(rng):
    model = init_mlp([3, 2], ["linear"], rng)
    before = MlpModel(model.weights, model.biases, model.activations)
    state = init_adam(model, lr=0.1)
    zero = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(model.weights, model.biases)]
    adam_step(state, model, zero)
    assert state.step_count == 1
    assert np.array_equal(model.weights[0], before.weights[0])
    assert np.array_equal(model.biases[0], before.biases[0])


def test_adam_constant_gradient_step_approaches_lr():
    # scalar recurrence oracle: with constant g, bias-corrected Adam step size
    # tends to lr * g / |g| = lr
    model = MlpModel([np.array([[1.0]])], [np.zeros(1)], ["linear"])
    state = init_adam(model, lr=0.01)
    g = [(np.array([[0.37]]), np.zeros(1))]
    prev = model.weights[0][0, 0]
    for _ in range(400):
        adam_step(state, model, g)
        step = prev - model.weights[0][0, 0]
        prev = model.weights[0][0, 0]
    assert abs(step - 0.01) < 1e-4
    assert state.step_count == 400


def test_adam_step_allocates_no_parameter_sized_temporaries(rng):
    model = init_mlp(*waveform_net_layers(8, 2, 8), rng)
    out, cache = forward_pass(model, rng.standard_normal((32, model.input_dim)))
    grads, _ = backward_pass(model, cache, rng.standard_normal(out.shape))
    state = init_adam(model)
    tracemalloc.start()
    try:
        adam_step(state, model, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one packed gradient vector, and nothing else parameter-sized
    assert model.params.nbytes > 15e6  # one whole-array temporary would be this size
    assert peak < model.params.nbytes + 1e6


def _three_adam_steps(model, x, step, rebuild):
    """Bytes of params and moments after three steps on the gradients of
    backward_pass, passed through rebuild(param_grads) first."""
    net = MlpModel(model.weights, model.biases, model.activations)
    state = init_adam(net, lr=0.05)
    for _ in range(3):
        out, cache = forward_pass(net, x)
        grads, _ = backward_pass(net, cache, out - 0.5)
        step(state, net, rebuild(grads))
    return [a.tobytes() for a in (net.params, state.first_moment, state.second_moment)]


@pytest.mark.parametrize("rebuild", [
    lambda g: g,  # the pairs backward_pass returns
    # fresh pairs, built like those of perfbench's selftest
    lambda g: [(np.ones_like(dW) * dW, np.ones_like(db) * db) for dW, db in g],
    lambda g: [g[0], (g[1][0].copy(), g[1][1].copy())],  # one pair replaced
    lambda g: [g[1], g[0]],  # the pairs out of layout order
], ids=["views", "fresh", "patched", "swapped"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_step_matches_oracle_bitwise(rebuild, dtype, rng):
    # two layers of one shape, so only the data addresses tell them apart
    model = init_mlp([4, 4, 4], ["tanh", "tanh"], rng, dtype=dtype)
    x = rng.standard_normal((6, 4))
    assert _three_adam_steps(model, x, adam_step, rebuild) == \
        _three_adam_steps(model, x, _oracle_adam_step, rebuild)


def _fused_and_unfused_steps(model, x, target, steps):
    """(params, both moments, step_count) after `steps` training steps on
    copies of model: the fused step, and backward_pass then adam_step."""
    runs = []
    for fused in (True, False):
        net = MlpModel(model.weights, model.biases, model.activations)
        state = init_adam(net, lr=0.05)
        for _ in range(steps):
            out, cache = forward_pass(net, x)
            if fused:
                assert backward_pass(net, cache, out - target, adam=state) is None
            else:
                adam_step(state, net, backward_pass(net, cache, out - target)[0])
        runs.append(([a.tobytes() for a in (net.params, state.first_moment,
                                             state.second_moment)], state.step_count))
    return runs


@pytest.mark.parametrize("widths", [[12, 300, 250, 7], [13, 257, 250, 7]],
                         ids=["ragged_tail", "one_row_tail"])
@pytest.mark.parametrize("block", [None, 200], ids=["default_block", "row_wider_than_block"])
@pytest.mark.parametrize("act", ACTIVATIONS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fused_step_matches_backward_then_adam_step_bitwise(dtype, act, block, widths, rng,
                                                           monkeypatch):
    # at blocks of 2^15 elements the 300 x 250 layer is updated in row blocks
    # of 128, 128 and 44, and the 257 x 250 one in 128, 128 and 1; at blocks
    # of 200 elements every row of the first two layers is wider than the
    # scratch space, which then holds two rows, so the 13-257-250-7 net ends
    # both of those layers in one row
    if block is not None:
        monkeypatch.setattr(neural, "_ADAM_BLOCK", block)
    model = init_mlp(widths, [act] * 3, rng, dtype=dtype)
    x = rng.standard_normal((9, widths[0]))
    target = rng.standard_normal((9, widths[-1]))
    fused, unfused = _fused_and_unfused_steps(model, x, target, steps=4)
    assert fused == unfused
    assert fused[1] == 4


def test_fused_step_allocates_no_parameter_sized_temporaries(rng):
    model = init_mlp(*waveform_net_layers(8, 2, 8), rng)
    out, cache = forward_pass(model, rng.standard_normal((32, model.input_dim)))
    upstream = rng.standard_normal(out.shape)
    state = init_adam(model)
    tracemalloc.start()
    try:
        backward_pass(model, cache, upstream, adam=state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.step_count == 1
    assert model.params.nbytes > 15e6  # the gradient vector would be this size
    assert peak < 1e6


_BENCHMARK_SIZE_WAVEFORM_DIGEST = """
import hashlib
import numpy as np
from isackit.neural import TrainConfig, init_mlp, train
from isackit.waveform_learn import make_dataset, train_waveform_net, waveform_net_layers

def digest(model, history):
    print(model.params.dtype, hashlib.sha256(model.params.tobytes()).hexdigest())
    print(np.array(history["train"]).tobytes().hex())
    print(np.array(history["val"]).tobytes().hex())

samples = make_dataset(1000, 8, 2, 8, np.random.default_rng(3))
digest(*train_waveform_net(
    samples, 0.2, TrainConfig(epochs=3, batch_size=32, seed=3), augment=True)[:2])

def mean_squared(out, target):
    diff = out - target
    return float(np.mean(diff ** 2)), 2 * diff / diff.size

widths, acts = waveform_net_layers(8, 2, 8)
data = np.random.default_rng(4)
X = data.standard_normal((520, widths[0]))
Y = np.tanh(data.standard_normal((520, widths[-1])))
digest(*train(init_mlp(widths, acts, data), 320, lambda idx, rng: (X[idx], Y[idx]),
              mean_squared, TrainConfig(epochs=2, batch_size=32, seed=4),
              (X[320:], Y[320:])))
"""


def test_fused_training_identical_across_blas_threads():
    # the waveform net at the sizes of the benchmark's learned_train workload
    # (1000 samples, batch 32, 3 epochs), which trains in float32, and a
    # float64 net of the same widths trained through `train` (320 rows,
    # batch 32, 2 epochs): at both precisions the row-block products and
    # updates give the same weights, training losses and validation losses
    # at 1 and 2 BLAS threads. The waveform net's validation loss sums 200
    # frames (12,800 complex entries of X - X0), past the size at which a
    # BLAS dot splits its sum between threads
    one = run_python(["-c", _BENCHMARK_SIZE_WAVEFORM_DIGEST], OPENBLAS_NUM_THREADS="1")
    two = run_python(["-c", _BENCHMARK_SIZE_WAVEFORM_DIGEST], OPENBLAS_NUM_THREADS="2")
    lines = one.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("float32 ") and lines[3].startswith("float64 ")
    assert one == two


def test_adam_step_rejects_wrong_layer_count(rng):
    model = init_mlp([3, 4, 2], ["relu", "linear"], rng)
    grads = [(np.zeros((3, 4)), np.zeros(4))]
    with pytest.raises(ValueError, match="one \\(dW, db\\) pair per layer"):
        adam_step(init_adam(model), model, grads)


def test_adam_step_copies_non_tiling_gradients_per_call(rng):
    model = init_mlp([3, 4, 2], ["relu", "linear"], rng)
    fresh = [(rng.standard_normal(W.shape), rng.standard_normal(b.shape))
             for W, b in zip(model.weights, model.biases)]
    first, second = neural._flat_grad(model, fresh), neural._flat_grad(model, fresh)
    assert first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, second)
    for (W, b), (dW, db) in zip(model.layer_views(first), fresh):
        assert np.array_equal(W, dW) and np.array_equal(b, db)
    state, before = init_adam(model), model.params.copy()
    # a transposed weight gradient, and a row that would broadcast
    for wrong in ([fresh[0], (fresh[1][0].T, fresh[1][1])],
                  [fresh[0], (fresh[1][0][:1], fresh[1][1])]):
        with pytest.raises(ValueError, match="gradient shapes"):
            adam_step(state, model, wrong)
    assert state.step_count == 0 and np.array_equal(model.params, before)


def _mean_squared_loss(out, target):
    diff = out - target
    return float(np.mean(diff**2)), 2 * diff / diff.size


def _rows(X, Y):
    """The batch function of a fixed dataset: rows idx of X and Y."""
    return lambda idx, rng: (X[idx], Y[idx])


def test_train_at_minimum_keeps_parameters(rng):
    model = init_mlp([2, 2], ["linear"], rng)
    before = MlpModel(model.weights, model.biases, model.activations)

    def flat_loss(out, aux):
        return 0.0, np.zeros_like(out)

    X = rng.standard_normal((8, 2))
    cfg = TrainConfig(epochs=3, batch_size=4, lr=0.1, seed=0)
    train(model, 8, _rows(X, X), flat_loss, cfg, (X, X))
    assert np.array_equal(model.weights[0], before.weights[0])


def test_train_quadratic_bowl_reaches_optimum(rng):
    # fit y = x A with a single linear layer; optimum loss is exactly 0
    A = rng.standard_normal((3, 2))
    X = rng.standard_normal((64, 3))
    Y = X @ A
    model = init_mlp([3, 2], ["linear"], rng)
    cfg = TrainConfig(epochs=600, batch_size=16, lr=0.02, seed=1)
    model, history = train(model, 64, _rows(X, Y), _mean_squared_loss, cfg, (X, Y))
    assert history["train"][-1] < 1e-6 or np.min(history["train"]) < 1e-6
    assert np.min(history["val"]) < 1e-6


def test_train_same_seed_same_history(rng):
    X = rng.standard_normal((32, 3))
    Y = rng.standard_normal((32, 2))
    runs = []
    for _ in range(2):
        model = init_mlp([3, 5, 2], ["tanh", "linear"], np.random.default_rng(11))
        cfg = TrainConfig(epochs=5, batch_size=8, lr=0.01, seed=42)
        _, history = train(model, 32, _rows(X, Y), _mean_squared_loss, cfg,
                           (X[:8], Y[:8]))
        runs.append(history)
    assert runs[0] == runs[1]


def test_train_empty_dataset_rejected(rng):
    model = init_mlp([3, 2], ["linear"], rng)
    X = np.zeros((0, 3))
    with pytest.raises(ValueError, match="empty"):
        train(model, 0, _rows(X, X), lambda o, a: (0.0, o), TrainConfig(1, 1), (X, X))


def test_train_batch_forms_each_epoch_from_one_permutation(rng):
    # batch(idx, rng) gets consecutive runs of one permutation of the rows per
    # epoch and the loop's own generator; the validation set bypasses it
    X = rng.standard_normal((32, 3))
    Y = rng.standard_normal((32, 2))
    calls, generators = [], set()

    def batch(idx, t_rng):
        calls.append(idx)
        generators.add(id(t_rng))
        assert isinstance(t_rng, np.random.Generator)
        return X[idx], Y[idx]

    model = init_mlp([3, 2], ["linear"], rng)
    cfg = TrainConfig(epochs=3, batch_size=8, lr=0.01, seed=0)
    train(model, 32, batch, _mean_squared_loss, cfg, (X, Y))
    # 4 batches per epoch, 3 epochs
    assert [len(idx) for idx in calls] == [8] * 12 and len(generators) == 1
    for epoch in range(3):
        assert sorted(np.concatenate(calls[4 * epoch:4 * epoch + 4])) == list(range(32))


def test_early_stopping_restores_best_snapshot(rng):
    # adversarial loss: improves for 3 epochs then worsens; best snapshot must
    # be the epoch-3 model, and training must stop before the epoch budget
    X = rng.standard_normal((16, 2))
    Y = X @ rng.standard_normal((2, 2))
    model = init_mlp([2, 2], ["linear"], rng)
    cfg = TrainConfig(epochs=200, batch_size=8, lr=0.05, early_stop_patience=5, seed=3)
    model, history = train(model, 16, _rows(X, Y), _mean_squared_loss, cfg, (X, Y))
    final_val, _ = _mean_squared_loss(predict(model, X), Y)
    assert np.isclose(final_val, np.min(history["val"]), atol=1e-12)
    assert len(history["val"]) < 200
    _assert_tiles_params(model)


# (epochs, batch_size, lr, patience, jitter); 6 and 13 do not divide the 40
# training rows. A jittered batch adds noise drawn from the loop's generator.
_ORACLE_RUNS = [(6, 6, 0.01, None, False),
                (6, 13, 0.01, None, False),
                (200, 8, 0.05, 5, False),
                (40, 8, 0.05, 3, True),
                (5, 40, 0.02, None, True)]


@pytest.mark.parametrize("epochs,batch_size,lr,patience,jitter", _ORACLE_RUNS)
def test_train_matches_frozen_loop_bitwise(epochs, batch_size, lr, patience, jitter):
    data = np.random.default_rng(batch_size)
    X = data.standard_normal((40, 3))
    Y = np.tanh(X @ data.standard_normal((3, 2)))

    def batch(idx, t_rng):
        rows = X[idx]
        return (rows + 0.01 * t_rng.standard_normal(rows.shape) if jitter else rows), Y[idx]

    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr,
                      early_stop_patience=patience, seed=epochs)
    runs = []
    for trainer in (train, _oracle_train):
        model = init_mlp([3, 6, 2], ["tanh", "linear"], np.random.default_rng(5))
        model, history = trainer(model, 40, batch, _mean_squared_loss, cfg,
                                 (X[:10] + 0.1, Y[:10]))
        runs.append((model.params.tobytes(), history))
    assert runs[0] == runs[1]
    if patience is not None:  # the early stop and the restore both happen
        scores = runs[0][1]["val"]
        assert len(scores) < epochs and np.argmin(scores) < len(scores) - 1


def test_train_without_a_finite_score_returns_the_initial_params(rng):
    model = init_mlp([3, 2], ["linear"], rng)
    before = model.params.copy()

    def nan_loss(out, aux):
        return np.nan, out

    X = rng.standard_normal((8, 3))
    _, history = train(model, 8, _rows(X, X), nan_loss,
                       TrainConfig(epochs=3, batch_size=4, lr=0.1), (X, X))
    assert np.isnan(history["val"]).all() and len(history["val"]) == 3
    assert np.array_equal(model.params, before)


def test_train_counts_a_tied_score_as_no_improvement(rng):
    # the loss reads 1 whatever the outputs, yet its gradient moves the
    # params: epoch 1 is the best, epochs 2 and 3 tie it and stop the run
    X = rng.standard_normal((8, 3))
    runs = []
    for epochs, patience in ((10, 2), (1, None)):
        model = init_mlp([3, 2], ["linear"], np.random.default_rng(3))
        cfg = TrainConfig(epochs=epochs, batch_size=4, lr=0.1,
                          early_stop_patience=patience)
        _, history = train(model, 8, _rows(X, X), lambda out, aux: (1.0, out), cfg, (X, X))
        runs.append((model.params.tobytes(), history["val"]))
    assert runs[0][1] == [1.0] * 3
    assert runs[0][0] == runs[1][0]


@pytest.mark.parametrize("kwargs,field", [
    ({"epochs": 0}, "epochs"),
    ({"batch_size": 0}, "batch_size"),
    ({"lr": 0.0}, "lr"),
    ({"lr": -1e-3}, "lr"),
    ({"lr": float("nan")}, "lr"),
    ({"lr": float("inf")}, "lr"),
    ({"early_stop_patience": 0}, "early_stop_patience"),
    ({"early_stop_patience": -2}, "early_stop_patience"),
    ({"epochs": 1.5}, "epochs"),
    ({"epochs": 2.0}, "epochs"),
    ({"epochs": True}, "epochs"),
    ({"epochs": None}, "epochs"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"batch_size": True}, "batch_size"),
    ({"early_stop_patience": 1.5}, "early_stop_patience"),
    ({"early_stop_patience": True}, "early_stop_patience"),
])
def test_train_config_rejects_bad_fields(kwargs, field):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{"epochs": 1, "batch_size": 1, **kwargs})


def test_train_config_accepts_numpy_integers():
    cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(3), early_stop_patience=np.int64(1))
    assert (cfg.epochs, cfg.batch_size, cfg.early_stop_patience) == (2, 3, 1)


# ------------------------------------------------------------ flat buffers


def test_init_and_copy_keep_weights_views_of_params(rng):
    model = init_mlp([3, 5, 2], ["relu", "linear"], rng)
    assert model.params.size == 3 * 5 + 5 + 5 * 2 + 2
    clone = MlpModel(model.weights, model.biases, model.activations)
    assert not np.shares_memory(clone.params, model.params)
    assert _param_bytes(clone) == _param_bytes(model)
    before = model.params.copy()
    _assert_tiles_params(clone)
    assert np.array_equal(model.params, before)
    _assert_tiles_params(model)


def test_model_copies_the_arrays_it_is_given():
    W = np.eye(2)
    model = MlpModel([W], [np.zeros(2)], ["linear"])
    model.weights[0][0, 1] = 5.0
    assert W[0, 1] == 0.0
    assert model.params[1] == 5.0


def test_backward_results_share_no_memory(rng):
    model = init_mlp([4, 6, 3], ["tanh", "linear"], rng)
    out, cache = forward_pass(model, rng.standard_normal((5, 4)))
    first, _ = backward_pass(model, cache, out)
    second, _ = backward_pass(model, cache, out)
    arrays = [[a for pair in grads for a in pair] for grads in (first, second)]
    for a in arrays[0]:
        for b in arrays[1] + [model.params]:
            assert not np.shares_memory(a, b)
    assert all(np.array_equal(a, b) for a, b in zip(*arrays))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_backward_matches_oracle_bitwise(dtype, rng):
    model = init_mlp([4, 6, 5, 3], ["relu", "tanh", "linear"], rng, dtype=dtype)
    out, cache = forward_pass(model, rng.standard_normal((7, 4)))
    upstream = rng.standard_normal(out.shape)
    grads, grad_in = backward_pass(model, cache, upstream)
    oracle, oracle_in = _oracle_backward_pass(model, cache, upstream)
    assert [a.tobytes() for pair in grads for a in pair] == \
        [a.tobytes() for pair in oracle for a in pair]
    assert grad_in.tobytes() == oracle_in.tobytes()


def _waveform_training():
    """Weights, history and predicted test frames of a small augmented
    waveform-net run (M=8, K=2, tau=8, 3 epochs), which trains in float32."""
    samples = make_dataset(100, 8, 2, 8, np.random.default_rng(21))
    cfg = TrainConfig(epochs=3, batch_size=16, seed=4)
    model, history, (_, _, test_idx) = train_waveform_net(samples, 0.2, cfg, augment=True)
    assert model.params.dtype == np.float32
    frames = [predict_waveform(model, samples[i]).X.tobytes() for i in test_idx]
    return _param_bytes(model), np.array(history["train"] + history["val"]).tobytes(), frames


def _ae_training():
    """Weights of a short autoencoder run, which trains in float64."""
    ae = train_isac_ae(0.5, 3, 0.3, 0.5, TrainConfig(epochs=1, batch_size=64, seed=2),
                       samples_per_epoch=64 * 60)
    assert all(net.params.dtype == np.float64
               for net in (ae.encoder, ae.comm_decoder, ae.radar_detector))
    return _param_bytes(ae.encoder, ae.comm_decoder, ae.radar_detector)


def test_training_matches_per_layer_oracle_bitwise(monkeypatch):
    # at both precisions: the float32 waveform net and the float64 autoencoder
    flat = _waveform_training(), _ae_training()
    _use_oracle_engine(monkeypatch)
    assert (_waveform_training(), _ae_training()) == flat


def test_model_validation():
    with pytest.raises(ValueError, match="chain"):
        MlpModel([np.zeros((3, 4)), np.zeros((5, 2))], [np.zeros(4), np.zeros(2)],
                 ["relu", "linear"])
    assert ACTIVATIONS == ("linear", "relu", "tanh")
    for act in ("swish", "sigmoid", "softmax"):
        with pytest.raises(ValueError, match="unknown activation"):
            MlpModel([np.zeros((3, 4))], [np.zeros(4)], [act])
    with pytest.raises(ValueError, match="biases"):
        MlpModel([np.zeros((3, 4))], [np.zeros(3)], ["linear"])


# --------------------------------------------------------------- precision


@pytest.mark.parametrize("W_dtype,b_dtype,expected", [
    (np.float32, np.float32, np.float32),
    (np.float32, np.float64, np.float64),
    (np.float64, np.float32, np.float64),
    (np.int64, np.int64, np.float64),
    (np.int32, np.float32, np.float64),
    (np.float16, np.float16, np.float64),
])
def test_params_are_float32_only_when_every_array_is(W_dtype, b_dtype, expected):
    # the second layer is float32 throughout; the first sets the dtype
    model = MlpModel([np.ones((3, 4), dtype=W_dtype), np.ones((4, 2), dtype=np.float32)],
                     [np.ones(4, dtype=b_dtype), np.ones(2, dtype=np.float32)],
                     ["relu", "linear"])
    assert model.params.dtype == expected
    assert all(a.dtype == expected for a in model.weights + model.biases)
    assert np.array_equal(model.params, np.ones(3 * 4 + 4 + 4 * 2 + 2))
    assert MlpModel(model.weights, model.biases, model.activations).params.dtype == expected


def test_init_mlp_rounds_one_float64_draw_to_its_dtype():
    rngs = [np.random.default_rng(9), np.random.default_rng(9)]
    single = init_mlp([3, 5, 2], ["relu", "linear"], rngs[0], dtype=np.float32)
    double = init_mlp([3, 5, 2], ["relu", "linear"], rngs[1])
    assert single.params.dtype == np.float32 and double.params.dtype == np.float64
    assert np.array_equal(single.params, double.params.astype(np.float32))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex128, np.bool_])
def test_init_mlp_rejects_other_dtypes(dtype, rng):
    with pytest.raises(ValueError, match=f"got {np.dtype(dtype).name}"):
        init_mlp([3, 2], ["linear"], rng, dtype=dtype)


def test_engine_computes_in_the_dtype_of_params(rng):
    # float64 inputs, upstream gradients and gradient pairs are cast to the
    # float32 params; nothing the engine makes is float64
    model = init_mlp([4, 6, 3], ["tanh", "linear"], rng, dtype=np.float32)
    x = rng.standard_normal((5, 4))
    out, (acts, zs) = forward_pass(model, x)
    assert all(a.dtype == np.float32 for a in [out, *acts, *zs])
    grads, grad_in = backward_pass(model, (acts, zs), rng.standard_normal(out.shape))
    assert all(dW.dtype == db.dtype == np.float32 for dW, db in grads)
    assert grad_in.dtype == np.float32
    state = init_adam(model)
    assert all(a.dtype == np.float32
               for a in (state.first_moment, state.second_moment, state.scratch))
    adam_step(state, model, [(dW.astype(float), db.astype(float)) for dW, db in grads])
    backward_pass(model, forward_pass(model, x)[1], np.ones(out.shape), adam=state)
    assert state.step_count == 2
    assert all(a.dtype == np.float32 for a in (model.params, state.first_moment,
                                               state.second_moment, state.scratch))
    assert all(np.shares_memory(W, model.params) for W in model.weights)
