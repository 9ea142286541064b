import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from isackit import constellation_ae, neural
from isackit.constellation_ae import train_isac_ae
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
    model = init_mlp([3, 6, 4], ["relu", "softmax"], rng)
    out = predict(model, rng.standard_normal((7, 3)))
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9
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
    target = rng.uniform(0.1, 0.9, (3, 5))  # keep softmax/sigmoid targets interior
    out, cache = forward_pass(model, batch)
    _, grad_out = _squared_loss(out, target)
    analytic, _ = backward_pass(model, cache, grad_out)
    fd_w, fd_b = _fd_param_grads(model, batch, target)
    for i in range(2):
        for a, f in ((analytic[i][0], fd_w[i]), (analytic[i][1], fd_b[i])):
            denom = max(np.linalg.norm(f), 1e-12)
            assert np.linalg.norm(a - f) / denom < 1e-5


def test_sigmoid_saturates_without_floating_point_warnings():
    # exp(-z) overflows to inf below z = -709; the sigmoid is then exactly 0
    model = MlpModel([np.ones((1, 1))], [np.zeros(1)], ["sigmoid"])
    batch = np.array([[-800.0], [0.0], [800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, cache = forward_pass(model, batch)
        grads, _ = backward_pass(model, cache, np.ones_like(out))
    assert out.ravel().tolist() == [0.0, 0.5, 1.0]
    assert grads[0][1].tolist() == [0.25]


def test_backward_input_gradient_matches_fd(rng):
    model = init_mlp([4, 5, 3], ["tanh", "sigmoid"], rng)
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
    # upstream dL/dp = -onehot/p for CE; through the softmax VJP this must
    # collapse to (p - onehot)
    model = init_mlp([3, 4], ["softmax"], rng)
    batch = rng.standard_normal((6, 3))
    out, cache = forward_pass(model, batch)
    onehot = np.zeros_like(out)
    onehot[np.arange(6), rng.integers(0, 4, 6)] = 1.0
    grads, _ = backward_pass(model, cache, -onehot / out)
    direct = batch.T @ (out - onehot)
    assert np.allclose(grads[0][0], direct, atol=1e-9)


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
    model = init_mlp([4, 4, 4], ["tanh", "sigmoid"], rng)
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
    model = init_mlp([4, 6, 5, 3], ["relu", "softmax", "sigmoid"], rng)
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
    with pytest.raises(ValueError, match="unknown activation"):
        MlpModel([np.zeros((3, 4))], [np.zeros(4)], ["swish"])
    with pytest.raises(ValueError, match="biases"):
        MlpModel([np.zeros((3, 4))], [np.zeros(3)], ["linear"])
