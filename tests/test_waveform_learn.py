import itertools

import numpy as np
import pytest

from isackit import neural, waveform_learn
from isackit.channel import ChannelMatrix
from isackit.classical_design import WaveformDesign, procrustes_waveform, reference_covariance_omni
from isackit.metrics import mui_power, waveform_covariance
from isackit.neural import TrainConfig, init_mlp
from isackit.waveform_learn import (
    WaveformSample,
    build_features,
    isac_waveform_loss,
    make_dataset,
    power_projection,
    predict_waveform,
    split_dataset,
    symmetry_augment,
    train_waveform_net,
    unstack_waveform,
    waveform_net_layers,
    _projection_vjp,
)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_batch(rng, B=4, M=2, K=2, tau=3, power=1.0):
    """Stacks H (B,K,M), D (B,K,tau) and Procrustes references X0 (B,M,tau)."""
    H, D = _complex(rng, B, K, M), _complex(rng, B, K, tau)
    template = reference_covariance_omni(power, M)
    X0 = np.stack([procrustes_waveform(template, h, d, tau).X for h, d in zip(H, D)])
    return H, D, X0


def _rel(a, b):
    return np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b))


# ------------------------------------------------ per-instance oracles


def _vec(A):
    v = np.asarray(A, dtype=complex).flatten(order="F")
    return np.concatenate([v.real, v.imag])


def _features_oracle(H, D, X0):
    return np.stack([np.concatenate([_vec(h), _vec(d), _vec(x)])
                     for h, d, x in zip(H, D, X0)])


def _projection_oracle(raw, power, tau):
    out = []
    for row in raw:
        half = row.size // 2
        theta = (row[:half] + 1j * row[half:]).reshape(half // tau, tau, order="F")
        budget, energy = tau * power, np.linalg.norm(theta) ** 2
        out.append(theta if energy <= budget else np.sqrt(budget) * theta / np.sqrt(energy))
    return np.stack(out)


def _loss_oracle(X, H, D, X0, weight):
    total, grads = 0.0, []
    for x, h, d, x0 in zip(X, H, D, X0):
        comm, sens = h @ x - d, x - x0
        total += weight * np.linalg.norm(comm) ** 2 + (1 - weight) * np.linalg.norm(sens) ** 2
        grads.append((2.0 / len(X)) * (weight * h.conj().T @ comm + (1 - weight) * sens))
    return total / len(X), np.stack(grads)


def _vjp_oracle(raw, grad_X, power, tau):
    out = []
    for r, gx in zip(raw, grad_X):
        g, budget, energy = _vec(gx), tau * power, r @ r
        out.append(g if energy <= budget
                   else np.sqrt(budget / energy) * (g - r * (r @ g) / energy))
    return np.stack(out)


def _raw_rows(rng, M, tau, power, scales):
    """One raw output row per scale, at energy scale^2 * tau * power: rows
    with scale < 1 sit inside the power ball, the rest are pulled onto it."""
    raw = rng.standard_normal((len(scales), 2 * M * tau))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw * np.sqrt(tau * power) * np.asarray(scales)[:, None]


# ------------------------------------------------------------------ features


def test_feature_length_paper_dims(rng):
    M, K, tau = 16, 4, 10
    feats = build_features(_complex(rng, 1, K, M), _complex(rng, 1, K, tau),
                           _complex(rng, 1, M, tau))
    assert feats.shape == (1, 528)
    # the widths of the paper's net, not the 140 MB net itself
    widths, activations = waveform_net_layers(M, K, tau)
    assert widths[0] == 2 * (K * (M + tau) + M * tau) == feats.shape[1]
    assert widths == [528, 5280, 2640, 320]
    assert activations == ["relu", "relu", "tanh"]


def test_zero_sample_zero_features():
    feats = build_features(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)), np.zeros((2, 3, 4)))
    assert feats.shape == (2, 2 * (6 + 8 + 12))
    assert np.all(feats == 0.0)


def test_feature_order_roundtrip(rng):
    H, D, X0 = _random_batch(rng, B=3, M=3, K=2, tau=4)
    feats = build_features(H, D, X0)
    # X0 occupies the trailing 2*M*tau slots of every row
    back = unstack_waveform(feats[:, -24:], 3, 4)
    assert np.array_equal(back, X0)
    with pytest.raises(ValueError, match="length"):
        unstack_waveform(feats[:, -23:], 3, 4)


def test_features_match_per_instance_oracle(rng):
    H, D, X0 = _random_batch(rng, B=5, M=3, K=2, tau=4)
    assert np.array_equal(build_features(H, D, X0), _features_oracle(H, D, X0))


def test_sample_shape_mismatch(rng):
    H = ChannelMatrix(_complex(rng, 2, 3))
    X0 = WaveformDesign(np.eye(3, 5) * np.sqrt(5 / 3), 1.0)
    with pytest.raises(ValueError, match="shapes"):
        WaveformSample(H=H, D=np.zeros((2, 4)), X0=X0)
    with pytest.raises(ValueError, match="shapes"):
        WaveformSample(H=H, D=np.zeros((3, 5)), X0=X0)


def test_dataset_is_one_stack_of_instances(rng):
    ds = make_dataset(5, 3, 2, 4, rng, total_power=2.0)
    assert isinstance(ds.H, ChannelMatrix) and isinstance(ds.X0, WaveformDesign)
    assert ds.H.entries.shape == (5, 2, 3) and ds.D.shape == (5, 2, 4)
    assert ds.X0.X.shape == (5, 3, 4) and ds.X0.power == 2.0
    assert len(ds) == 5
    item = ds[3]
    assert item.H.entries.shape == (2, 3) and item.D.shape == (2, 4)
    assert item.X0.X.shape == (3, 4) and item.X0.power == 2.0
    assert np.array_equal(item.H.entries, ds.H.entries[3])
    assert np.array_equal(item.D, ds.D[3])
    assert np.array_equal(item.X0.X, ds.X0.X[3])
    assert np.array_equal(ds[-1].D, ds.D[4])
    items = list(ds)  # iteration stops at the end of the stack
    assert len(items) == 5 and np.array_equal(items[2].X0.X, ds.X0.X[2])
    with pytest.raises(IndexError):
        ds[5]
    for unbatched in (lambda: len(item), lambda: item[0]):
        with pytest.raises(TypeError, match="single instance"):
            unbatched()


def test_stacked_sample_shape_mismatch(rng):
    H = ChannelMatrix(_complex(rng, 4, 2, 3))
    X0 = WaveformDesign(np.tile(np.eye(3, 5), (4, 1, 1)) * np.sqrt(5 / 3), 1.0)
    WaveformSample(H=H, D=np.zeros((4, 2, 5)), X0=X0)
    with pytest.raises(ValueError, match="shapes"):
        WaveformSample(H=H, D=np.zeros((3, 2, 5)), X0=X0)
    with pytest.raises(ValueError, match="shapes"):
        WaveformSample(H=ChannelMatrix(_complex(rng, 2, 3)), D=np.zeros((2, 5)), X0=X0)


# ---------------------------------------------------------------- projection


def test_projection_inside_ball_unchanged(rng):
    tau, power = 4, 1.0
    raw = _raw_rows(rng, 2, tau, power, [np.sqrt(0.5)])
    X = power_projection(raw, power, tau)
    assert np.isclose(np.linalg.norm(X) ** 2, tau * power / 2)
    assert np.array_equal(X, unstack_waveform(raw, 2, tau))


def test_projection_boundary_scaling(rng):
    tau, power = 5, 2.0
    raw = _raw_rows(rng, 3, tau, power, [2.0, 3.0])
    X = power_projection(raw, power, tau)
    assert np.allclose(np.linalg.norm(X, axis=(1, 2)) ** 2, tau * power)


def test_projection_idempotent(rng):
    tau, power = 3, 1.0
    raw = 10 * rng.standard_normal((4, 2 * 2 * tau))
    once = power_projection(raw, power, tau)
    twice = power_projection(np.stack([_vec(x) for x in once]), power, tau)
    assert np.allclose(once, twice, atol=1e-12)


def test_projection_matches_per_instance_oracle(rng):
    # rows inside the ball, on its boundary and outside it in one batch
    tau, power = 4, 1.5
    raw = _raw_rows(rng, 3, tau, power, [0.3, 0.9, 1.0, 1.7, 6.0])
    batched = power_projection(raw, power, tau)
    oracle = _projection_oracle(raw, power, tau)
    assert np.array_equal(batched[:2], oracle[:2])  # inside: unscaled
    for b, o in zip(batched, oracle):
        assert _rel(b, o) <= 1e-12


def test_projection_vjp_matches_per_instance_oracle(rng):
    tau, power = 4, 1.5
    raw = _raw_rows(rng, 3, tau, power, [0.3, 0.9, 1.7, 6.0])
    grad_X = _complex(rng, 4, 3, tau)
    batched = _projection_vjp(raw, grad_X, power, tau)
    oracle = _vjp_oracle(raw, grad_X, power, tau)
    assert np.array_equal(batched[:2], oracle[:2])  # inside: identity map
    for b, o in zip(batched, oracle):
        assert _rel(b, o) <= 1e-12


# --------------------------------------------------------------------- loss


def test_loss_zero_at_each_extreme(rng):
    H, D = _complex(rng, 1, 2, 2), _complex(rng, 1, 2, 3)
    X = np.linalg.solve(H, D)
    value, _ = isac_waveform_loss(X, H, D, np.zeros((1, 2, 3)), 1.0)
    assert value <= 1e-20
    H, D, X0 = _random_batch(rng)
    value2, _ = isac_waveform_loss(X0, H, D, X0, 0.0)
    assert value2 <= 1e-20


def test_loss_matches_per_instance_oracle(rng):
    H, D, X0 = _random_batch(rng, B=6, M=3, K=2, tau=4)
    X = _complex(rng, 6, 3, 4)
    for weight in (0.0, 0.37, 1.0):
        value, grad = isac_waveform_loss(X, H, D, X0, weight)
        ref_value, ref_grad = _loss_oracle(X, H, D, X0, weight)
        assert abs(value - ref_value) <= 1e-12 * ref_value
        assert _rel(grad, ref_grad) <= 1e-12


def test_loss_sums_real_and_single_precision_inputs(rng):
    # the squared norms reinterpret complex entries as their real and
    # imaginary parts of the entries' own precision; real entries are summed
    # as they are (3 x 3 x 3 real floats: an odd count)
    H, D, X0 = _random_batch(rng, B=3, M=3, K=2, tau=3)
    X = _complex(rng, 3, 3, 3)
    for weight in (0.0, 0.37, 1.0):
        ref_value, _ = _loss_oracle(X, H, D, X0, weight)
        value, _ = isac_waveform_loss(*(a.astype(np.complex64) for a in (X, H, D, X0)),
                                      weight)
        assert abs(value - ref_value) <= 1e-5 * ref_value
        real = [a.real.copy() for a in (X, H, D, X0)]
        ref_value, _ = _loss_oracle(*real, weight)
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            value, _ = isac_waveform_loss(*(a.astype(dtype) for a in real), weight)
            assert abs(value - ref_value) <= rtol * ref_value


def test_loss_gradient_matches_fd(rng):
    H, D, X0 = _random_batch(rng, B=3)
    X = _complex(rng, 3, 2, 3)
    weight = 0.37
    _, grad = isac_waveform_loss(X, H, D, X0, weight)
    h = 1e-6
    fd = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        for part in (1.0, 1.0j):
            Xp, Xm = X.copy(), X.copy()
            Xp[idx] += part * h
            Xm[idx] -= part * h
            lp, _ = isac_waveform_loss(Xp, H, D, X0, weight)
            lm, _ = isac_waveform_loss(Xm, H, D, X0, weight)
            fd[idx] += part * (lp - lm) / (2 * h)
    for n in range(3):
        assert np.linalg.norm(fd[n] - grad[n]) / np.linalg.norm(fd[n]) < 1e-5


def test_loss_validation(rng):
    H, D, X0 = _random_batch(rng)
    with pytest.raises(ValueError, match="weight"):
        isac_waveform_loss(X0, H, D, X0, 1.5)
    with pytest.raises(ValueError, match="empty"):
        isac_waveform_loss(X0[:0], H[:0], D[:0], X0[:0], 0.5)


def test_projection_vjp_matches_fd(rng):
    # chain loss(project(raw)) for both the active and inactive branch
    H, D, X0 = _random_batch(rng, B=1, M=2, K=2, tau=3)
    weight = 0.6

    def chained(raw):
        X = power_projection(raw, 1.0, 3)
        value, grad = isac_waveform_loss(X, H, D, X0, weight)
        return value, _projection_vjp(raw, grad, 1.0, 3)

    h = 1e-7
    for scale in (0.2, 5.0):  # inside the ball / on the sphere
        raw = scale * rng.standard_normal((1, 12))
        _, vjp = chained(raw)
        fd = np.zeros((1, 12))
        for i in range(12):
            rp, rm = raw.copy(), raw.copy()
            rp[0, i] += h
            rm[0, i] -= h
            fd[0, i] = (chained(rp)[0] - chained(rm)[0]) / (2 * h)
        assert np.linalg.norm(fd - vjp) / np.linalg.norm(fd) < 1e-5


# ------------------------------------------------------------------- dataset


def test_make_dataset_contents(rng):
    samples = make_dataset(5, 3, 2, 4, rng, total_power=2.0)
    assert len(samples) == 5
    H, D, X0 = samples.H.entries, samples.D, samples.X0.X
    assert H.shape == (5, 2, 3) and D.shape == (5, 2, 4) and X0.shape == (5, 3, 4)
    assert np.allclose(np.abs(D), 1.0)  # unit-power symbols
    # the omnidirectional reference: (1/tau) X0 X0^H = (P/M) I
    assert all(np.allclose(waveform_covariance(s.X0.X), (2.0 / 3) * np.eye(3))
               for s in samples)
    assert np.allclose(np.linalg.norm(X0, axis=(1, 2)) ** 2 / 4, 2.0)
    again = make_dataset(5, 3, 2, 4, np.random.default_rng(1234), total_power=2.0)
    redo = make_dataset(5, 3, 2, 4, np.random.default_rng(1234), total_power=2.0)
    assert np.array_equal(again.D, redo.D)
    # a template passed in serves like the default isotropic one
    given = make_dataset(5, 3, 2, 4, np.random.default_rng(1234), total_power=2.0,
                         template=reference_covariance_omni(2.0, 3))
    assert np.array_equal(again.X0.X, given.X0.X)


@pytest.mark.parametrize("num, M, K, tau", [(1000, 8, 2, 8), (50, 16, 4, 32), (1, 3, 1, 5)])
def test_dataset_reference_matches_per_item_procrustes_bitwise(num, M, K, tau):
    # oracle: the stacked SVD against procrustes_waveform on each item alone
    ds = make_dataset(num, M, K, tau, np.random.default_rng(num + M), total_power=1.5)
    template = reference_covariance_omni(1.5, M)
    for i in range(num):
        X0 = procrustes_waveform(template, ds.H.entries[i], ds.D[i], tau).X
        assert X0.tobytes() == ds.X0.X[i].tobytes(), i


def test_make_dataset_validation(rng):
    with pytest.raises(ValueError, match="frame length"):
        make_dataset(2, 4, 2, 3, rng)
    with pytest.raises(ValueError, match="template must have"):
        make_dataset(2, 2, 2, 3, rng, template=reference_covariance_omni(1.0, 3))
    with pytest.raises(ValueError, match="template must have"):
        make_dataset(2, 2, 2, 3, rng, template=reference_covariance_omni(2.0, 2))
    with pytest.raises(ValueError, match="Rician factor"):
        make_dataset(2, 2, 6, 3, rng)


def test_split_dataset_partition():
    tr, va, te = split_dataset(100, np.random.default_rng(7))
    assert len(tr) == 60 and len(va) == 20 and len(te) == 20
    assert len(set(tr) | set(va) | set(te)) == 100
    tr2, _, _ = split_dataset(100, np.random.default_rng(7))
    assert np.array_equal(tr, tr2)


# ------------------------------------------------------------------ training


def test_training_descends(rng):
    samples = make_dataset(60, 2, 2, 3, rng)
    cfg = TrainConfig(epochs=8, batch_size=16, lr=1e-3, seed=0)
    model, history, split = train_waveform_net(samples, 0.5, cfg)
    assert history["train"][-1] < history["train"][0]
    assert len(split[0]) == 36
    # config.seed draws the initial weights, then the split
    seeded = np.random.default_rng(cfg.seed)
    init_mlp(*waveform_net_layers(2, 2, 3), seeded)
    assert all(np.array_equal(a, b) for a, b in zip(split, split_dataset(60, seeded)))


def test_training_loop_draws_from_a_child_seed(rng, monkeypatch):
    # the shuffles and augmentation of `train` draw from a seed taken from the
    # init stream after the split, not from a second copy of that stream
    samples = make_dataset(60, 2, 2, 3, rng)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=5)
    states, loop = [], neural.minibatch_adam

    def spy(params, n, step, config, loop_rng, score):
        states.append(loop_rng.bit_generator.state)
        return loop(params, n, step, config, loop_rng, score)

    monkeypatch.setattr(neural, "minibatch_adam", spy)
    train_waveform_net(samples, 0.5, cfg, augment=True)
    seeded = np.random.default_rng(cfg.seed)
    init_mlp(*waveform_net_layers(2, 2, 3), seeded)
    split_dataset(60, seeded)
    child = np.random.default_rng(int(seeded.integers(0, 2 ** 31 - 1)))
    assert states == [child.bit_generator.state]
    assert states[0] != np.random.default_rng(cfg.seed).bit_generator.state


def test_training_eta_zero_copies_reference(rng):
    # small-batch low-lr with patience: the val-checkpointed model
    # generalizes the copy map; short high-lr runs stall near 6%
    samples = make_dataset(800, 3, 2, 4, rng)
    cfg = TrainConfig(epochs=800, batch_size=32, lr=3e-4, seed=1,
                      early_stop_patience=60)
    model, history, (_, _, test_idx) = train_waveform_net(samples, 0.0, cfg)
    ratios = []
    for i in test_idx:
        X = predict_waveform(model, samples[i]).X
        X0 = samples[i].X0.X
        ratios.append(np.linalg.norm(X - X0) ** 2 / np.linalg.norm(X0) ** 2)
    assert np.mean(ratios) < 0.05


def test_training_rejects_small_dataset(rng):
    samples = make_dataset(4, 2, 2, 3, rng)
    with pytest.raises(ValueError, match="batch"):
        train_waveform_net(samples, 0.5, TrainConfig(epochs=1, batch_size=16))


def test_training_rejects_an_empty_validation_split(rng):
    # 20% of 2 samples rounds to none; 3 is the least that leaves one
    samples = make_dataset(2, 2, 1, 2, rng)
    with pytest.raises(ValueError, match="at least 3 samples"):
        train_waveform_net(samples, 0.5, TrainConfig(epochs=1, batch_size=1))
    _, history, (_, val_idx, _) = train_waveform_net(
        make_dataset(3, 2, 1, 2, rng), 0.5, TrainConfig(epochs=1, batch_size=1))
    assert len(val_idx) == 1 and np.isfinite(history["val"]).all()


def test_symmetry_augment_is_loss_invariant(rng):
    # column phases/permutations act on (D, X0) together, so the loss at the
    # mapped reference equals the loss at the original reference exactly
    ds = make_dataset(5, 4, 2, 5, rng)
    H, D, X0 = ds.H.entries, ds.D, ds.X0.X
    Dt, X0t = symmetry_augment(D, X0, rng)
    for n in range(5):
        for weight in (0.0, 0.3, 1.0):
            v0, _ = isac_waveform_loss(X0[n:n + 1], H[n:n + 1], D[n:n + 1], X0[n:n + 1], weight)
            vt, _ = isac_waveform_loss(X0t[n:n + 1], H[n:n + 1], Dt[n:n + 1], X0t[n:n + 1],
                                       weight)
            assert abs(v0 - vt) < 1e-12
    assert np.allclose(np.linalg.norm(X0t, axis=(1, 2)), np.linalg.norm(X0, axis=(1, 2)),
                       rtol=0, atol=1e-12)
    # the symbol alphabet survives the rotation
    assert Dt.shape == D.shape
    assert np.allclose(np.sort(np.abs(Dt).ravel()), np.sort(np.abs(D).ravel()))


def test_symmetry_augment_maps_columns_consistently(rng):
    # every transformed column must be (phase * original column) for both D
    # and X0, with a common phase and a common source column, per instance,
    # and the source columns must form a permutation. An instance may repeat
    # a column (its QPSK symbols and so its reference column coincide), so a
    # target column may have several candidate sources.
    ds = make_dataset(3, 3, 2, 4, rng)
    D, X0 = ds.D, ds.X0.X
    Dt, X0t = symmetry_augment(D, X0, np.random.default_rng(77))
    for n in range(3):
        sources = [{k for k in range(4) for phase in (1, 1j, -1, -1j)
                    if np.allclose(Dt[n, :, j], phase * D[n, :, k])
                    and np.allclose(X0t[n, :, j], phase * X0[n, :, k])}
                   for j in range(4)]
        assert any(all(perm[j] in sources[j] for j in range(4))
                   for perm in itertools.permutations(range(4)))


def test_pareto_over_weight(rng):
    # symmetry augmentation is what makes the MUI term generalize here;
    # without it the high-weight net wanders off X0 without zero-forcing.
    # The ordering holds on these seeded draws, not by a margin this test
    # establishes: changing only the augmentation draw order moved the
    # weight-0.5 vs 0.9 MUI gap from 0.139 (1.187 vs 1.048) to 0.102
    # (1.229 vs 1.127).
    samples = make_dataset(400, 4, 2, 4, rng)
    cfg = TrainConfig(epochs=120, batch_size=32, lr=1e-3, seed=2)
    avg_mui, avg_sens = [], []
    for weight in (0.1, 0.5, 0.9):
        model, _, (_, _, test_idx) = train_waveform_net(samples, weight, cfg,
                                                        augment=True)
        mui, sens = [], []
        for i in test_idx:
            X = predict_waveform(model, samples[i]).X
            mui.append(mui_power(samples[i].H, X, samples[i].D))
            sens.append(np.linalg.norm(X - samples[i].X0.X) ** 2)
        avg_mui.append(np.mean(mui))
        avg_sens.append(np.mean(sens))
    assert avg_mui[0] > avg_mui[1] > avg_mui[2]
    assert avg_sens[0] < avg_sens[1] < avg_sens[2]


def _test_set_metrics(model, samples, test_idx):
    """Mean MUI and mean sensing error ||X - X0||^2 of the predicted frames
    over the test split."""
    test = samples[test_idx]
    X = predict_waveform(model, test).X
    return (np.mean(mui_power(test.H, X, test.D)),
            np.mean(np.linalg.norm(X - test.X0.X, axis=(1, 2)) ** 2))


@pytest.mark.parametrize("seed", range(5))
def test_float32_training_keeps_the_quality_of_float64(seed, monkeypatch):
    # The waveform net trains in float32. The float64 reference is the same
    # run with init_mlp forced to float64: the same init draw, split and
    # shuffles. Over seeds 0-9 of this run the largest relative gap was
    # 7.9e-3 (sensing error, seed 9); five seeds agree within 2.3e-6, and
    # the rest diverge along the way (a rounding can flip a ReLU). In longer
    # runs (400 samples, 120 epochs, batch 32) gaps of up to 1.7e-2 were
    # seen, against MUI gaps of about 10% between the weights of
    # test_pareto_over_weight.
    samples = make_dataset(200, 4, 2, 4, np.random.default_rng(seed))
    cfg = TrainConfig(epochs=30, batch_size=16, seed=seed)
    runs = []
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(waveform_learn, "init_mlp",
                            lambda widths, acts, rng, dtype, forced=dtype:
                            init_mlp(widths, acts, rng, dtype=forced))
        model, _, (_, _, test_idx) = train_waveform_net(samples, 0.5, cfg, augment=True)
        assert model.params.dtype == dtype
        runs.append(_test_set_metrics(model, samples, test_idx))
    assert np.allclose(runs[0], runs[1], rtol=0.02, atol=0)


# ---------------------------------------------------------------- prediction


def test_prediction_power_and_determinism(rng):
    samples = make_dataset(3, 2, 2, 3, rng)
    model = init_mlp(*waveform_net_layers(2, 2, 3), rng)
    for s in samples:
        design = predict_waveform(model, s)
        assert np.linalg.norm(design.X) ** 2 / 3 <= 1.0 + 1e-9
        repeat = predict_waveform(model, s)
        assert np.array_equal(design.X, repeat.X)


# the float32 tolerance is 4 float32 epsilons (4.8e-7) on frame entries of
# magnitude at most sqrt(tau * P) = 2.4: one row and a stack of six take
# different BLAS kernels, whose sums differ in the last float32 bits (by at
# most 0.75 epsilon over 50 draws of this test)
@pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12),
                                        (np.float32, 4 * np.finfo(np.float32).eps)],
                         ids=["float64", "float32"])
def test_prediction_of_a_stack_matches_per_item(dtype, atol, rng):
    samples = make_dataset(6, 2, 2, 3, rng, total_power=2.0)
    model = init_mlp(*waveform_net_layers(2, 2, 3), rng, dtype=dtype)
    stacked = predict_waveform(model, samples)
    assert stacked.X.shape == (6, 2, 3) and stacked.power == 2.0
    assert stacked.X.dtype == np.complex128
    # the projection runs in float64 on the net's outputs, whatever their dtype
    energy = np.linalg.norm(stacked.X, axis=(1, 2)) ** 2
    assert np.all(energy <= 3 * 2.0 * (1 + 1e-9))
    for i in range(6):
        single = predict_waveform(model, samples[i]).X
        assert np.allclose(stacked.X[i], single, rtol=0, atol=atol)
