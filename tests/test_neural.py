import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

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
    WaveformNetSpec,
    make_dataset,
    predict_waveform,
    train_waveform_net,
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
# weights, biases and moments. The flat engine must give the same bits.


def _oracle_backward_pass(model, cache, grad_output):
    acts, zs = cache
    grad = np.asarray(grad_output, dtype=float)
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


def _oracle_train(model, inputs, aux, loss_fn, config, val_inputs=None,
                  val_aux=None, batch_transform=None):
    """`train` as it stood with its own minibatch loop, before the loop moved
    into `minibatch_adam`. Its snapshot rule asked for an improvement of
    more than 1e-15, and a run with no finite score kept its last params."""
    inputs = np.asarray(inputs, dtype=float)
    n = inputs.shape[0]
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
            batch_in, batch_aux = inputs[idx], neural._index_aux(aux, idx)
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
            val_loss, _ = loss_fn(predict(model, val_inputs), val_aux)
            history["val"].append(val_loss)
            score = val_loss
        else:
            score = train_loss
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


def _use_oracle_engine(monkeypatch):
    """Routes training through the per-layer oracles, also where
    constellation_ae imported the engine's names."""
    for module in (neural, constellation_ae):
        monkeypatch.setattr(module, "backward_pass", _oracle_backward_pass)
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
    model = WaveformNetSpec(8, 2, 8).build(rng)
    out, cache = forward_pass(model, rng.standard_normal((32, model.input_dim)))
    grads, _ = backward_pass(model, cache, rng.standard_normal(out.shape))
    state = init_adam(model)
    tracemalloc.start()
    try:
        adam_step(state, model, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.params.nbytes > 15e6  # one whole-array temporary would be this size
    assert peak < 1e6


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
    lambda g: g,  # the views backward_pass returns
    # fresh pairs, built like those of perfbench's selftest
    lambda g: [(np.ones_like(dW) * dW, np.ones_like(db) * db) for dW, db in g],
    lambda g: [g[0], (g[1][0].copy(), g[1][1].copy())],  # one pair replaced
    lambda g: [g[1], g[0]],  # views of one vector, out of layout order
], ids=["views", "fresh", "patched", "swapped"])
def test_adam_step_matches_oracle_bitwise(rebuild, rng):
    # two layers of one shape, so only the data addresses tell them apart
    model = init_mlp([4, 4, 4], ["tanh", "tanh"], rng)
    x = rng.standard_normal((6, 4))
    assert _three_adam_steps(model, x, adam_step, rebuild) == \
        _three_adam_steps(model, x, _oracle_adam_step, rebuild)


def test_adam_step_rejects_wrong_layer_count(rng):
    model = init_mlp([3, 4, 2], ["relu", "linear"], rng)
    grads = [(np.zeros((3, 4)), np.zeros(4))]
    with pytest.raises(ValueError, match="one \\(dW, db\\) pair per layer"):
        adam_step(init_adam(model), model, grads)


def test_train_at_minimum_keeps_parameters(rng):
    model = init_mlp([2, 2], ["linear"], rng)
    before = MlpModel(model.weights, model.biases, model.activations)

    def flat_loss(out, aux):
        return 0.0, np.zeros_like(out)

    cfg = TrainConfig(epochs=3, batch_size=4, lr=0.1, seed=0)
    train(model, rng.standard_normal((8, 2)), None, flat_loss, cfg)
    assert np.array_equal(model.weights[0], before.weights[0])


def test_train_quadratic_bowl_reaches_optimum(rng):
    # fit y = x A with a single linear layer; optimum loss is exactly 0
    A = rng.standard_normal((3, 2))
    X = rng.standard_normal((64, 3))
    Y = X @ A
    model = init_mlp([3, 2], ["linear"], rng)

    def loss(out, target):
        diff = out - target
        return float(np.mean(diff**2)), 2 * diff / diff.size

    cfg = TrainConfig(epochs=600, batch_size=16, lr=0.02, seed=1)
    model, history = train(model, X, Y, loss, cfg)
    assert history["train"][-1] < 1e-6 or np.min(history["train"]) < 1e-6


def test_train_same_seed_same_history(rng):
    X = rng.standard_normal((32, 3))
    Y = rng.standard_normal((32, 2))

    def loss(out, target):
        diff = out - target
        return float(np.mean(diff**2)), 2 * diff / diff.size

    runs = []
    for _ in range(2):
        model = init_mlp([3, 5, 2], ["tanh", "linear"], np.random.default_rng(11))
        cfg = TrainConfig(epochs=5, batch_size=8, lr=0.01, seed=42)
        _, history = train(model, X, Y, loss, cfg)
        runs.append(history["train"])
    assert np.array_equal(runs[0], runs[1])


def test_train_empty_dataset_rejected(rng):
    model = init_mlp([3, 2], ["linear"], rng)
    with pytest.raises(ValueError, match="empty"):
        train(model, np.zeros((0, 3)), None, lambda o, a: (0.0, o), TrainConfig(1, 1))


def test_train_batch_transform_sees_every_training_batch(rng):
    X = rng.standard_normal((32, 3))
    Y = rng.standard_normal((32, 2))
    calls = []

    def passthrough(batch_in, batch_aux, t_rng):
        calls.append(batch_in.shape[0])
        assert isinstance(t_rng, np.random.Generator)
        return batch_in, batch_aux

    def loss(out, target):
        diff = out - target
        return float(np.mean(diff**2)), 2 * diff / diff.size

    model = init_mlp([3, 2], ["linear"], rng)
    cfg = TrainConfig(epochs=3, batch_size=8, lr=0.01, seed=0)
    train(model, X, Y, loss, cfg, val_inputs=X, val_aux=Y,
          batch_transform=passthrough)
    # 4 batches per epoch, 3 epochs; validation passes bypass the transform
    assert calls == [8] * 12


def test_train_indexes_tuple_aux_row_aligned(rng):
    # each array of a tuple aux is indexed with the same rows as the inputs
    X = np.column_stack([np.arange(12.0), rng.standard_normal(12)])
    aux = (np.arange(12), 10j * np.arange(12))
    seen = []

    def check(batch_in, batch_aux, t_rng):
        rows, scaled = batch_aux
        assert np.array_equal(batch_in[:, 0], rows)
        assert np.array_equal(scaled, 10j * rows)
        seen.extend(rows)
        return batch_in, batch_aux

    def loss(out, batch_aux):
        assert isinstance(batch_aux, tuple) and len(batch_aux) == 2
        return float(np.mean(out**2)), 2 * out / out.size

    model = init_mlp([2, 1], ["linear"], rng)
    cfg = TrainConfig(epochs=2, batch_size=5, lr=0.01, seed=0)
    train(model, X, aux, loss, cfg, val_inputs=X, val_aux=aux, batch_transform=check)
    assert sorted(seen) == sorted(list(range(12)) * 2)


def test_early_stopping_restores_best_snapshot(rng):
    # adversarial loss: improves for 3 epochs then worsens; best snapshot must
    # be the epoch-3 model, and training must stop before the epoch budget
    X = rng.standard_normal((16, 2))
    Y = X @ rng.standard_normal((2, 2))
    model = init_mlp([2, 2], ["linear"], rng)

    def loss(out, target):
        diff = out - target
        return float(np.mean(diff**2)), 2 * diff / diff.size

    cfg = TrainConfig(epochs=200, batch_size=8, lr=0.05, early_stop_patience=5, seed=3)
    model, history = train(model, X, Y, loss, cfg, val_inputs=X, val_aux=Y)
    final_val, _ = loss(predict(model, X), Y)
    assert np.isclose(final_val, np.min(history["val"]), atol=1e-12)
    assert len(history["val"]) < 200
    _assert_tiles_params(model)


def _mean_squared_loss(out, target):
    diff = out - target
    return float(np.mean(diff**2)), 2 * diff / diff.size


def _jitter(batch_in, batch_aux, t_rng):
    return batch_in + 0.01 * t_rng.standard_normal(batch_in.shape), batch_aux


# (epochs, batch_size, lr, patience, validation set, batch transform); 6 and
# 13 do not divide the 40 training rows
_ORACLE_RUNS = [(6, 6, 0.01, None, False, None),
                (6, 13, 0.01, None, True, None),
                (200, 8, 0.05, 5, True, None),
                (40, 8, 0.05, 3, False, _jitter),
                (5, 40, 0.02, None, True, _jitter)]


@pytest.mark.parametrize("epochs,batch_size,lr,patience,with_val,transform",
                         _ORACLE_RUNS)
def test_train_matches_frozen_loop_bitwise(epochs, batch_size, lr, patience,
                                           with_val, transform):
    data = np.random.default_rng(batch_size)
    X = data.standard_normal((40, 3))
    Y = np.tanh(X @ data.standard_normal((3, 2)))
    val = (X[:10] + 0.1, Y[:10]) if with_val else (None, None)
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr,
                      early_stop_patience=patience, seed=epochs)
    runs = []
    for trainer in (train, _oracle_train):
        model = init_mlp([3, 6, 2], ["tanh", "linear"], np.random.default_rng(5))
        model, history = trainer(model, X, Y, _mean_squared_loss, cfg, *val,
                                 batch_transform=transform)
        runs.append((model.params.tobytes(), history))
    assert runs[0] == runs[1]
    if patience is not None:  # the early stop and the restore both happen
        scores = runs[0][1]["val" if with_val else "train"]
        assert len(scores) < epochs and np.argmin(scores) < len(scores) - 1


def test_train_without_a_finite_score_returns_the_initial_params(rng):
    model = init_mlp([3, 2], ["linear"], rng)
    before = model.params.copy()

    def nan_loss(out, aux):
        return np.nan, out

    _, history = train(model, rng.standard_normal((8, 3)), None, nan_loss,
                       TrainConfig(epochs=3, batch_size=4, lr=0.1))
    assert np.isnan(history["train"]).all() and len(history["train"]) == 3
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
        _, history = train(model, X, None, lambda out, aux: (1.0, out), cfg)
        runs.append((model.params.tobytes(), history["train"]))
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


def test_backward_matches_oracle_bitwise(rng):
    model = init_mlp([4, 6, 5, 3], ["relu", "tanh", "linear"], rng)
    out, cache = forward_pass(model, rng.standard_normal((7, 4)))
    upstream = rng.standard_normal(out.shape)
    grads, grad_in = backward_pass(model, cache, upstream)
    oracle, oracle_in = _oracle_backward_pass(model, cache, upstream)
    assert [a.tobytes() for pair in grads for a in pair] == \
        [a.tobytes() for pair in oracle for a in pair]
    assert grad_in.tobytes() == oracle_in.tobytes()


def _waveform_training():
    """Weights, history and predicted test frames of a small augmented
    waveform-net run (M=8, K=2, tau=8, 3 epochs)."""
    samples = make_dataset(100, 8, 2, 8, np.random.default_rng(21))
    cfg = TrainConfig(epochs=3, batch_size=16, seed=4)
    model, history, (_, _, test_idx) = train_waveform_net(samples, 0.2, cfg, augment=True)
    frames = [predict_waveform(model, samples[i]).X.tobytes() for i in test_idx]
    return _param_bytes(model), np.array(history["train"] + history["val"]).tobytes(), frames


def _ae_training():
    ae = train_isac_ae(0.5, 3, 0.3, 0.5, TrainConfig(epochs=1, batch_size=64, seed=2),
                       samples_per_epoch=64 * 60)
    return _param_bytes(ae.encoder, ae.comm_decoder, ae.radar_detector)


def test_training_matches_per_layer_oracle_bitwise(monkeypatch):
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
