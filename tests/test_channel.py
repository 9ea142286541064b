import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import j0

from isackit.channel import (
    SPEED_OF_LIGHT,
    AgingParams,
    ArrayGeometry,
    ChannelMatrix,
    RicianParams,
    age_channel,
    jakes_correlation,
    sample_channel_matrix,
    sample_user_channel,
    steering_vector,
)


def test_steering_broadside_is_all_ones():
    geom = ArrayGeometry(num_antennas=4, spacing=0.5)
    v = steering_vector(0.0, geom)
    assert np.allclose(v, np.ones(4))


def test_steering_endfire_alternates_sign():
    geom = ArrayGeometry(num_antennas=4, spacing=0.5)
    v = steering_vector(np.pi / 2, geom)
    assert np.allclose(v, [1, -1, 1, -1], atol=1e-12)


def test_steering_matches_scalar_oracle():
    # element-wise oracle: exp(j*2*pi*spacing*m*sin(theta)) evaluated per entry
    geom = ArrayGeometry(num_antennas=8, spacing=0.5)
    theta = np.pi / 6
    v = steering_vector(theta, geom)
    for m in range(8):
        expected = np.exp(1j * 2 * np.pi * 0.5 * m * np.sin(theta))
        assert abs(v[m] - expected) < 1e-14


@given(
    theta=st.floats(-np.pi / 2, np.pi / 2),
    m=st.integers(1, 32),
    spacing=st.floats(0.05, 4.0),
)
def test_steering_entries_unit_magnitude(theta, m, spacing):
    v = steering_vector(theta, ArrayGeometry(m, spacing))
    assert v[0] == 1.0 + 0.0j
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 0.5)
    with pytest.raises(ValueError):
        ArrayGeometry(4, 0.0)


def test_rician_params_validation():
    with pytest.raises(ValueError):
        RicianParams(rician_factor=-0.1)
    with pytest.raises(ValueError):
        RicianParams(rician_factor=1.0, large_scale_gain=0.0)
    with pytest.raises(ValueError):
        RicianParams(rician_factor=1.0, departure_angle=2.0)


def test_los_dominant_limit(rng):
    geom = ArrayGeometry(8)
    params = RicianParams(rician_factor=1e12, large_scale_gain=1.0, departure_angle=0.3)
    h = sample_user_channel(params, geom, rng)
    hbar = steering_vector(0.3, geom)
    assert np.max(np.abs(h - hbar)) < 1e-5


def test_pure_rayleigh_second_moment(rng):
    # K_h = 0, eta = 4: per-element E|h|^2 = 4; var of |h|^2 is eta^2
    geom = ArrayGeometry(4)
    params = RicianParams(rician_factor=0.0, large_scale_gain=4.0)
    n = 100_000
    draws = np.stack([sample_user_channel(params, geom, rng) for _ in range(n)])
    pooled = np.abs(draws) ** 2
    three_sigma = 3 * 4.0 / np.sqrt(pooled.size)
    assert abs(pooled.mean() - 4.0) < three_sigma


def test_rician_mean_is_weighted_los(rng):
    geom = ArrayGeometry(4)
    params = RicianParams(rician_factor=1.0, large_scale_gain=1.0, departure_angle=-0.4)
    n = 100_000
    draws = np.stack([sample_user_channel(params, geom, rng) for _ in range(n)])
    target = np.sqrt(0.5) * steering_vector(-0.4, geom)
    # scatter part has per-element complex variance 1/2
    three_sigma = 3 * np.sqrt(0.5 / n)
    err = np.abs(draws.mean(axis=0) - target)
    assert np.all(err < 3 * three_sigma)  # loose union bound over 4 elements


def test_channel_matrix_single_user_matches_user_draw():
    geom = ArrayGeometry(6)
    params = [RicianParams(rician_factor=2.0, departure_angle=0.1)]
    cm = sample_channel_matrix(params, geom, np.random.default_rng(7))
    direct = sample_user_channel(params[0], geom, np.random.default_rng(7))
    assert cm.entries.shape == (1, 6)
    assert np.array_equal(cm.entries[0], direct)


def test_channel_matrix_paper_shape(rng):
    users = [RicianParams(rician_factor=k + 1.0) for k in range(4)]
    cm = sample_channel_matrix(users, ArrayGeometry(16), rng)
    assert cm.entries.shape == (4, 16)


def test_channel_matrix_determinism():
    users = [RicianParams(rician_factor=1.5), RicianParams(rician_factor=2.7)]
    geom = ArrayGeometry(8)
    a = sample_channel_matrix(users, geom, np.random.default_rng(99))
    b = sample_channel_matrix(users, geom, np.random.default_rng(99))
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
    H = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    cm = ChannelMatrix(H)
    g, U = cm.gram_eigh
    assert cm.gram_eigh[1] is U  # computed once
    assert np.all(np.diff(g) >= 0)
    assert np.allclose((U * g) @ U.conj().T, H.conj().T @ H, atol=1e-12)
    assert np.allclose(U.conj().T @ U, np.eye(5), atol=1e-12)
    for stored in (g, U):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0.0


def test_channel_matrix_empty_users_rejected(rng):
    with pytest.raises(ValueError, match="no users"):
        sample_channel_matrix([], ArrayGeometry(4), rng)


def _aging_for_argument(argument, speed=2.0, carrier=3.2e9):
    # choose the sample period so 2*pi*f_D*T_s hits the requested argument
    f_d = speed * carrier / SPEED_OF_LIGHT
    return AgingParams(
        user_speed=speed,
        carrier_freq=carrier,
        sample_period=argument / (2 * np.pi * f_d),
        mobility_phase=0.0,
    )


def test_jakes_is_scipy_j0():
    aging = AgingParams(user_speed=0.0, carrier_freq=3.2e9, sample_period=1e-3)
    assert jakes_correlation(aging) == 1.0
    # exactly scipy's J0 at 2*pi*f_D*T_s, with f_D = v*f_c/c
    for speed, carrier, period in [(2.0, 3.2e9, 1e-3), (30.0, 28e9, 2e-4),
                                   (120.0, 2.4e9, 5e-3)]:
        aging = AgingParams(user_speed=speed, carrier_freq=carrier,
                            sample_period=period)
        f_d = speed * carrier / SPEED_OF_LIGHT
        assert jakes_correlation(aging) == j0(2 * np.pi * f_d * period)


def test_jakes_first_bessel_zero():
    aging = _aging_for_argument(2.404826)
    assert abs(jakes_correlation(aging)) < 1e-4


def test_jakes_small_argument_series():
    arg = 0.08
    aging = _aging_for_argument(arg)
    assert abs(jakes_correlation(aging) - (1 - arg**2 / 4)) < 1e-6


def test_age_channel_identity_when_static(rng):
    geom = ArrayGeometry(8)
    params = RicianParams(rician_factor=2.0, departure_angle=0.2)
    prev = sample_user_channel(params, geom, rng)
    aging = AgingParams(user_speed=0.0, carrier_freq=3.2e9, sample_period=1e-3, mobility_phase=0.0)
    out = age_channel(prev, params, geom, aging, rng)
    assert np.allclose(out, prev, atol=1e-12)


def test_age_channel_decorrelates_at_bessel_zero(rng):
    # chi ~ 0: aged scatter component must be nearly independent of the input
    geom = ArrayGeometry(4)
    params = RicianParams(rician_factor=0.0)  # pure scatter channel
    aging = _aging_for_argument(2.404826)
    n = 100_000
    prev = np.stack([sample_user_channel(params, geom, rng) for _ in range(n)])
    aged = np.stack([age_channel(prev[i], params, geom, aging, rng) for i in range(n)])
    num = np.abs(np.vdot(prev.ravel(), aged.ravel()))
    den = np.linalg.norm(prev) * np.linalg.norm(aged)
    assert num / den < 0.02


def test_age_channel_preserves_scatter_power(rng):
    geom = ArrayGeometry(4)
    params = RicianParams(rician_factor=0.0, large_scale_gain=2.0)
    aging = _aging_for_argument(1.0)  # chi ~ 0.7652
    n = 50_000
    prev = np.stack([sample_user_channel(params, geom, rng) for _ in range(n)])
    aged = np.stack([age_channel(prev[i], params, geom, aging, rng) for i in range(n)])
    pooled = np.abs(aged) ** 2
    three_sigma = 3 * 2.0 / np.sqrt(pooled.size)
    assert abs(pooled.mean() - 2.0) < three_sigma


def test_age_channel_paper_speed_runs(rng):
    geom = ArrayGeometry(8)
    params = RicianParams(rician_factor=1.5, departure_angle=0.1)
    prev = sample_user_channel(params, geom, rng)
    aging = AgingParams(user_speed=2.0, carrier_freq=3.2e9, sample_period=1e-3)
    out = age_channel(prev, params, geom, aging, rng)
    assert out.shape == prev.shape
    assert np.all(np.isfinite(out))


def test_aging_params_validation():
    with pytest.raises(ValueError):
        AgingParams(user_speed=-1.0, carrier_freq=1e9, sample_period=1e-3)
    with pytest.raises(ValueError):
        AgingParams(user_speed=1.0, carrier_freq=0.0, sample_period=1e-3)
    with pytest.raises(ValueError):
        AgingParams(user_speed=1.0, carrier_freq=1e9, sample_period=0.0)
    with pytest.raises(ValueError):
        AgingParams(user_speed=1.0, carrier_freq=1e9, sample_period=1e-3, mobility_phase=4.0)
