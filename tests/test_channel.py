import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import j0

from isackit.channel import (
    CARRIER_FREQ,
    SAMPLE_PERIOD,
    SPEED_OF_LIGHT,
    ArrayGeometry,
    ChannelMatrix,
    RicianParams,
    age_channel,
    jakes_correlation,
    complex_normal,
    sample_channel_matrix,
    steering_vector,
)


def test_steering_broadside_is_all_ones():
    geom = ArrayGeometry(num_antennas=4)
    v = steering_vector(0.0, geom)
    assert np.allclose(v, np.ones(4))


def test_steering_endfire_alternates_sign():
    geom = ArrayGeometry(num_antennas=4)
    v = steering_vector(np.pi / 2, geom)
    assert np.allclose(v, [1, -1, 1, -1], atol=1e-12)


def test_steering_matches_scalar_oracle():
    # element-wise oracle: exp(j*2*pi*0.5*m*sin(theta)) evaluated per entry
    geom = ArrayGeometry(num_antennas=8)
    theta = np.pi / 6
    v = steering_vector(theta, geom)
    for m in range(8):
        expected = np.exp(1j * 2 * np.pi * 0.5 * m * np.sin(theta))
        assert abs(v[m] - expected) < 1e-14


@given(
    theta=st.floats(-np.pi / 2, np.pi / 2),
    m=st.integers(1, 32),
)
def test_steering_entries_unit_magnitude(theta, m):
    v = steering_vector(theta, ArrayGeometry(m))
    assert v[0] == 1.0 + 0.0j
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0)


def test_rician_params_validation():
    with pytest.raises(ValueError):
        RicianParams(rician_factor=-0.1)
    with pytest.raises(ValueError):
        RicianParams(rician_factor=1.0, departure_angle=2.0)


@pytest.mark.parametrize("field", ["rician_factor", "departure_angle"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_rician_params_reject_non_finite_naming_the_field(field, value):
    # inf and nan pass the sign checks; drawing from them failed later with
    # a message that named no parameter
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        RicianParams(**{"rician_factor": 1.0, field: value})


def _user_draws(params, geom, n, rng):
    """n draws of one user's channel row, (n, M), from one batched draw."""
    return sample_channel_matrix([params], geom, n, rng).entries[:, 0, :]


def test_los_dominant_limit(rng):
    geom = ArrayGeometry(8)
    params = RicianParams(rician_factor=1e12, departure_angle=0.3)
    draws = _user_draws(params, geom, 1000, rng)
    hbar = steering_vector(0.3, geom)
    assert np.max(np.abs(draws - hbar)) < 1e-5


def test_pure_rayleigh_second_moment(rng):
    # K_h = 0: per-element E|h|^2 = 1, the unit gain; var of |h|^2 is 1
    geom = ArrayGeometry(4)
    params = RicianParams(rician_factor=0.0)
    pooled = np.abs(_user_draws(params, geom, 100_000, rng)) ** 2
    three_sigma = 3 * 1.0 / np.sqrt(pooled.size)
    assert abs(pooled.mean() - 1.0) < three_sigma


def test_rician_mean_is_weighted_los(rng):
    geom = ArrayGeometry(4)
    params = RicianParams(rician_factor=1.0, departure_angle=-0.4)
    n = 100_000
    draws = _user_draws(params, geom, n, rng)
    target = np.sqrt(0.5) * steering_vector(-0.4, geom)
    # scatter part has per-element complex variance 1/2
    three_sigma = 3 * np.sqrt(0.5 / n)
    err = np.abs(draws.mean(axis=0) - target)
    assert np.all(err < 3 * three_sigma)  # loose union bound over 4 elements


def test_channel_matrix_single_user_matches_user_draw():
    # oracle: the Rician formula for one user, written out on its own draw
    geom = ArrayGeometry(6)
    params = RicianParams(rician_factor=2.0, departure_angle=0.1)
    cm = sample_channel_matrix([params], geom, 3, np.random.default_rng(7))
    scatter = complex_normal((3, 1, 6), np.random.default_rng(7))[:, 0, :]
    direct = params.los_weight * steering_vector(0.1, geom) + params.scatter_weight * scatter
    assert cm.entries.shape == (3, 1, 6)
    assert np.max(np.abs(cm.entries[:, 0, :] - direct)) <= 1e-14


def test_channel_matrix_paper_shape(rng):
    users = [RicianParams(rician_factor=k + 1.0) for k in range(4)]
    cm = sample_channel_matrix(users, ArrayGeometry(16), 5, rng)
    assert cm.entries.shape == (5, 4, 16)


def test_channel_matrix_rows_follow_their_users(rng):
    # each row of the (num, K, M) stack is drawn with its own user's weights
    geom = ArrayGeometry(4)
    users = [RicianParams(rician_factor=1e12, departure_angle=0.5),
             RicianParams(rician_factor=0.0)]
    H = sample_channel_matrix(users, geom, 50_000, rng).entries
    assert np.max(np.abs(H[:, 0, :] - steering_vector(0.5, geom))) < 1e-5
    pooled = np.abs(H[:, 1, :]) ** 2
    assert abs(pooled.mean() - 1.0) < 3 * 1.0 / np.sqrt(pooled.size)


def test_channel_matrix_determinism():
    users = [RicianParams(rician_factor=1.5), RicianParams(rician_factor=2.7)]
    geom = ArrayGeometry(8)
    a = sample_channel_matrix(users, geom, 4, np.random.default_rng(99))
    b = sample_channel_matrix(users, geom, 4, np.random.default_rng(99))
    assert np.array_equal(a.entries, b.entries)


def test_channel_matrix_copies_and_freezes_its_entries(rng):
    H = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    before = H.copy()
    cm = ChannelMatrix(H)
    assert H.flags.writeable  # the caller's array is left as it was
    H[0, 0] = 99.0  # and later writes to it do not reach the object
    assert np.array_equal(cm.entries, before)
    with pytest.raises(ValueError, match="read-only"):
        cm.entries[0, 0] = 1.0


def test_channel_matrix_carries_its_gram_factorization(rng):
    """The K x K factor H H^H = V diag(g) V^H and the orthonormal basis Q =
    H^H V diag(g)^(-1/2) of range(H^H), so that H^H H = Q diag(g) Q^H, each
    within 1e-14 of its scale (measured worst 3.7e-15 over 200 seeds of
    these shapes), and Q = H^H V diag(g)^(-1/2) within 1e-13, as its error
    grows with the condition of H (worst 7.9e-15); computed once and
    read-only."""
    for K, M in ((2, 5), (4, 16), (3, 3), (4, 2)):
        H = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        cm = ChannelMatrix(H)
        g, V, Q = cm.gram_eigh
        assert cm.gram_eigh[2] is Q  # computed once
        n = min(K, M)
        assert g.shape == (n,) and V.shape == (K, n) and Q.shape == (M, n)
        assert np.all(np.diff(g) >= 0) and g[0] > 0
        scale = g[-1]
        assert np.abs(Q.conj().T @ Q - np.eye(n)).max() <= 1e-14
        assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-14
        assert np.abs((Q * g) @ Q.conj().T - H.conj().T @ H).max() <= 1e-14 * scale
        assert np.abs((V * g) @ V.conj().T - H @ H.conj().T).max() <= 1e-14 * scale
        assert np.abs(H.conj().T @ V / np.sqrt(g) - Q).max() <= 1e-13
        for stored in (g, V, Q):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0


def test_gram_factorization_drops_a_rank_deficiency(rng):
    """Two equal user rows: the zero singular value (1e-16 of the largest
    in floats) counts as 0, so g[0] is 0 and Q's first column is 0, and Q
    spans the same range as before."""
    H = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    H[1] = H[0]
    g, V, Q = ChannelMatrix(H).gram_eigh
    assert g[0] == 0.0 and not Q[:, 0].any() and g[1] > 0
    assert np.abs(Q[:, 1:].conj().T @ Q[:, 1:] - np.eye(2)).max() <= 1e-14
    assert np.abs((Q * g) @ Q.conj().T - H.conj().T @ H).max() <= 1e-14 * g[-1]
    g, V, Q = ChannelMatrix(np.zeros((2, 4))).gram_eigh
    assert not g.any() and not Q.any()


def test_stacked_gram_factorization_is_per_channel(rng):
    """One SVD for a stack gives each channel the bits of its own."""
    for shape in ((3, 2, 5), (5, 4, 16), (2, 4, 2)):
        H = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        H[0, 1] = H[0, 0]  # a rank-deficient channel in the stack
        stacked = ChannelMatrix(H).gram_eigh
        n = min(shape[1:])
        assert [a.shape for a in stacked] == [(shape[0], n), (shape[0], shape[1], n),
                                             (shape[0], shape[2], n)]
        for b in range(shape[0]):
            for a, own in zip(stacked, ChannelMatrix(H[b]).gram_eigh):
                assert np.array_equal(a[b], own)


def test_channel_matrix_rank_checked():
    with pytest.raises(ValueError, match="K x M"):
        ChannelMatrix(np.zeros(3))
    with pytest.raises(ValueError, match="K x M"):
        ChannelMatrix(np.zeros((2, 2, 2, 2)))


def test_channel_matrix_empty_users_rejected(rng):
    with pytest.raises(ValueError, match="no users"):
        sample_channel_matrix([], ArrayGeometry(4), 1, rng)


def _speed_for_argument(argument):
    # the user speed at which 2*pi*f_D*T_s, f_D = v*f_c/c, hits the argument
    return argument * SPEED_OF_LIGHT / (2 * np.pi * CARRIER_FREQ * SAMPLE_PERIOD)


def test_jakes_is_scipy_j0():
    assert jakes_correlation(0.0) == 1.0
    # exactly scipy's J0 at v times 2*pi*f_c*T_s/c; 2 m/s is the default
    per_speed = 2 * np.pi * CARRIER_FREQ * SAMPLE_PERIOD / SPEED_OF_LIGHT
    for speed in [0.5, 2.0, 7.3, 30.0, 120.0, 1e5]:
        assert jakes_correlation(speed) == j0(speed * per_speed)


def test_jakes_at_float_max_speed():
    # the argument is finite at every finite speed, and J0 tends to 0 as it
    # grows
    assert abs(jakes_correlation(sys.float_info.max)) < 1e-150


# NaN is one case of tests/test_metrics.py::test_nan_fails_every_range_check
@pytest.mark.parametrize("speed", [-1.0, float("inf")])
def test_jakes_rejects_a_negative_or_infinite_speed(speed):
    with pytest.raises(ValueError, match="user_speed"):
        jakes_correlation(speed)


# the argument 2*pi*(v*f_c/c)*T_s in that order, the form case1_aging's CSVs
# were first written with; one constant per speed gives the same bits here
@pytest.mark.parametrize("speed", [0.5, 2.0, 7.3, 30.0, 1e5])
def test_jakes_keeps_the_bits_of_the_speed_carrier_period_product(speed):
    arg = 2 * np.pi * (speed * CARRIER_FREQ / SPEED_OF_LIGHT) * SAMPLE_PERIOD
    assert jakes_correlation(speed) == float(j0(arg))


def test_jakes_first_bessel_zero():
    assert abs(jakes_correlation(_speed_for_argument(2.404826))) < 1e-4


def test_jakes_small_argument_series():
    arg = 0.08
    assert abs(jakes_correlation(_speed_for_argument(arg)) - (1 - arg**2 / 4)) < 1e-6


def test_age_channel_identity_when_static(rng):
    geom = ArrayGeometry(8)
    users = [RicianParams(rician_factor=2.0, departure_angle=0.2),
             RicianParams(rician_factor=0.5, departure_angle=-0.7)]
    prev = sample_channel_matrix(users, geom, 3, rng).entries
    out = age_channel(prev, users, geom, 0.0, np.random.default_rng(5))
    # at zero speed (chi = 1) the scattered part is unchanged, and the LoS
    # part turns by the phase drawn first from the same generator
    phases = np.random.default_rng(5).uniform(-np.pi, np.pi, size=(3, 2, 1))
    hbar = np.array([steering_vector(u.departure_angle, geom) for u in users])
    los = np.array([[u.los_weight] for u in users])
    assert np.allclose(out - los * np.exp(1j * phases) * hbar, prev - los * hbar,
                       rtol=0, atol=1e-12)
    assert not np.allclose(out, prev, atol=1e-3)  # the LoS part did turn


def test_age_channel_decorrelates_at_bessel_zero(rng):
    # chi ~ 0: aged scatter component must be nearly independent of the input
    geom = ArrayGeometry(4)
    users = [RicianParams(rician_factor=0.0)]  # pure scatter channel
    prev = sample_channel_matrix(users, geom, 100_000, rng).entries
    aged = age_channel(prev, users, geom, _speed_for_argument(2.404826), rng)
    num = np.abs(np.vdot(prev.ravel(), aged.ravel()))
    den = np.linalg.norm(prev) * np.linalg.norm(aged)
    assert num / den < 0.02


def test_age_channel_preserves_scatter_power(rng):
    geom = ArrayGeometry(4)
    users = [RicianParams(rician_factor=0.0)]
    speed = _speed_for_argument(1.0)  # chi ~ 0.7652
    prev = sample_channel_matrix(users, geom, 50_000, rng).entries
    pooled = np.abs(age_channel(prev, users, geom, speed, rng)) ** 2
    three_sigma = 3 * 1.0 / np.sqrt(pooled.size)
    assert abs(pooled.mean() - 1.0) < three_sigma


def test_age_channel_paper_speed_runs(rng):
    geom = ArrayGeometry(8)
    users = [RicianParams(rician_factor=1.5, departure_angle=0.1)]
    prev = sample_channel_matrix(users, geom, 2, rng).entries
    out = age_channel(prev, users, geom, 2.0, rng)
    assert out.shape == prev.shape
    assert np.all(np.isfinite(out))


def test_age_channel_matches_per_row_oracle(rng):
    # per-row formula with the phase and innovation drawn as the batch draws
    # them: one phase per row, then the CN innovations of the whole stack
    geom = ArrayGeometry(4)
    users = [RicianParams(rician_factor=1.5, departure_angle=0.4),
             RicianParams(rician_factor=2.7, departure_angle=-0.2)]
    speed = _speed_for_argument(1.0)
    prev = sample_channel_matrix(users, geom, 3, rng).entries
    out = age_channel(prev, users, geom, speed, np.random.default_rng(5))
    draw = np.random.default_rng(5)
    phases = draw.uniform(-np.pi, np.pi, size=(3, 2))
    innovation = complex_normal((3, 2, 4), draw)
    chi = jakes_correlation(speed)
    for b in range(3):
        for k, u in enumerate(users):
            hbar = steering_vector(u.departure_angle, geom)
            scatter = (prev[b, k] - u.los_weight * hbar) / u.scatter_weight
            row = (u.los_weight * np.exp(1j * phases[b, k]) * hbar
                   + u.scatter_weight * (chi * scatter + np.sqrt(1 - chi**2) * innovation[b, k]))
            assert np.max(np.abs(out[b, k] - row)) <= 1e-14


def test_age_channel_rejects_a_stack_of_other_users(rng):
    geom = ArrayGeometry(4)
    users = [RicianParams(rician_factor=1.0)] * 2
    with pytest.raises(ValueError, match="K users"):
        age_channel(np.zeros((5, 3, 4)), users, geom, 1.0, rng)


@pytest.mark.parametrize("speed", [-1.0, float("inf"), float("nan")])
def test_age_channel_rejects_a_bad_speed_before_drawing(rng, speed):
    geom = ArrayGeometry(4)
    users = [RicianParams(rician_factor=1.0)]
    prev = sample_channel_matrix(users, geom, 2, rng).entries
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="user_speed"):
        age_channel(prev, users, geom, speed, rng)
    assert rng.bit_generator.state == state
