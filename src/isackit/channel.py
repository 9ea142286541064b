"""Propagation layer: uniform-linear-array steering, Rician user channels,
and Jakes-correlated channel aging.

Conventions: angles are radians from broadside, the antennas are half a
carrier wavelength apart, and every random quantity is drawn from an explicit
numpy Generator so that experiments replay bit-identically from their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s
# the aging scenario: a 3.2 GHz carrier and snapshots 1 ms apart
CARRIER_FREQ = 3.2e9  # Hz
SAMPLE_PERIOD = 1e-3  # s
# the Jakes argument 2*pi*f_D*T_s per unit speed, f_D = v*f_c/c: about 0.067 s/m
_JAKES_PER_SPEED = 2 * math.pi * CARRIER_FREQ * SAMPLE_PERIOD / SPEED_OF_LIGHT


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: `num_antennas` elements, half a wavelength apart."""

    num_antennas: int

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be at least 1")


@dataclass(frozen=True)
class RicianParams:
    """Per-user link of unit large-scale gain: Rician factor (LoS/scatter
    power ratio) and departure angle in [-pi/2, pi/2]."""

    rician_factor: float
    departure_angle: float = 0.0

    def __post_init__(self):
        for name in ("rician_factor", "departure_angle"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.rician_factor < 0:
            raise ValueError("rician_factor must be nonnegative")
        if not -np.pi / 2 <= self.departure_angle <= np.pi / 2:
            raise ValueError("departure_angle must lie in [-pi/2, pi/2]")

    @property
    def los_weight(self) -> float:
        k = self.rician_factor
        return float(np.sqrt(k / (k + 1.0)))

    @property
    def scatter_weight(self) -> float:
        return float(np.sqrt(1.0 / (self.rician_factor + 1.0)))


@dataclass(frozen=True)
class ChannelMatrix:
    """User channels, one row per user: K x M, or a stack B x K x M.

    An immutable value: `entries` is a read-only copy of the input, so a
    factorization computed from it stays valid for the object's lifetime.
    """

    entries: np.ndarray

    def __post_init__(self):
        ent = np.array(self.entries, dtype=complex)
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)
        if ent.ndim not in (2, 3):
            raise ValueError("channel matrix must be K x M or B x K x M")
        if not np.all(np.isfinite(ent)):
            raise ValueError("channel entries must be finite")

    @cached_property
    def gram_eigh(self):
        """(g, V, Q) per channel, n = min(K, M): the factor H H^H = V diag(g)
        V^H of the K x K Gram matrix (V K x n, g ascending) and the
        orthonormal basis Q = H^H V diag(g)^(-1/2) (M x n) of the range of
        H^H, so that H^H H = Q diag(g) Q^H. Computed on first use and
        read-only.

        The three come from one SVD H = V diag(sqrt g) Q^H, which keeps Q
        orthonormal to working precision however ill-conditioned H is (an
        eigh of H H^H squares the condition number). A singular value at or
        below max(K, M) eps times the largest counts as 0, as in
        `np.linalg.matrix_rank`: its g and its column of Q are 0, so a
        rank-deficient H adds no direction to the range."""
        V, s, Qh = np.linalg.svd(self.entries, full_matrices=False)
        s = s[..., ::-1]
        kept = s > s[..., -1:] * (max(self.entries.shape[-2:]) * np.finfo(float).eps)
        s = np.where(kept, s, 0.0)
        g = s * s
        V = np.ascontiguousarray(V[..., ::-1])
        Q = np.ascontiguousarray(np.swapaxes(Qh[..., ::-1, :].conj(), -1, -2)) * kept[..., None, :]
        for a in (g, V, Q):
            a.flags.writeable = False
        return g, V, Q


def steering_vector(theta: float, geom: ArrayGeometry) -> np.ndarray:
    """Array response at angle theta; element m is exp(j*pi*m*sin(theta)),
    the phase 2*pi*m*sin(theta)/2 of half-wavelength spacing."""
    m = np.arange(geom.num_antennas)
    return np.exp(1j * np.pi * m * np.sin(theta))


def steering_grid(angles, geom: ArrayGeometry) -> np.ndarray:
    """Steering vectors stacked column-wise over an angle grid (M x A)."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    m = np.arange(geom.num_antennas)
    return np.exp(1j * np.pi * np.outer(m, np.sin(angles)))


def complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """CN(0, 1) entries, real parts drawn first. Every CN(0, sigma^2) draw
    scales these but two: `simulate_target_echoes` fills its output in
    blocks, for memory; `train_isac_ae` draws (re, im) rows, for stream order."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z /= np.sqrt(2.0)
    return z


def _user_terms(users: Sequence[RicianParams], geom: ArrayGeometry):
    """LoS steering rows (K, M), LoS and scatter weights (K, 1) of the users."""
    if len(users) == 0:
        raise ValueError("no users")
    hbar = steering_grid([u.departure_angle for u in users], geom).T
    los = np.array([[u.los_weight] for u in users])
    scatter = np.array([[u.scatter_weight] for u in users])
    return hbar, los, scatter


def sample_channel_matrix(users: Sequence[RicianParams], geom: ArrayGeometry,
                          num: int, rng: np.random.Generator) -> ChannelMatrix:
    """`num` Rician draws of the user channels, stacked (num, K, M): row k is
    LoS steering plus a scattered CN(0, I) part, weighted by
    sqrt(K_h/(K_h+1)) and sqrt(1/(K_h+1)) of user k's Rician factor K_h."""
    hbar, los, scatter = _user_terms(users, geom)
    return ChannelMatrix(los * hbar + scatter * complex_normal((num,) + hbar.shape, rng))


def jakes_correlation(user_speed: float) -> float:
    """Temporal correlation J0(2*pi*f_D*T_s) of two snapshots SAMPLE_PERIOD
    apart, with Doppler f_D = v*f_c/c at the carrier CARRIER_FREQ and the
    user speed v (m/s). The argument is v times a constant, so it is finite
    for every finite speed.

    J0 is scipy.special's, loaded here on first call: scipy is loaded only by
    case1_aging (through `age_channel`) and by the tests."""
    if not 0.0 <= user_speed < math.inf:
        raise ValueError("user_speed must be a nonnegative finite number")
    # importing scipy.special costs about 0.24 s and 25 MB; only case1_aging needs it
    from scipy.special import j0

    return float(j0(user_speed * _JAKES_PER_SPEED))


def age_channel(prev: np.ndarray, users: Sequence[RicianParams], geom: ArrayGeometry,
                user_speed: float, rng: np.random.Generator) -> np.ndarray:
    """One aging step of a (..., K, M) channel stack at `user_speed` (m/s):
    rotate each row's LoS part by exp(j*theta'), with theta' drawn uniformly
    on [-pi, pi] per row, and evolve its scattered part as
    chi*old + sqrt(1-chi^2)*innovation, with chi = jakes_correlation(user_speed).

    Row k of `prev` must be an (unrotated) draw of `users[k]`; the LoS/scatter
    split is recovered from the known weights, which is exact under that
    precondition. The phases are drawn before the innovations.
    """
    prev = np.asarray(prev, dtype=complex)
    hbar, los, scatter = _user_terms(users, geom)
    if prev.shape[-2:] != hbar.shape:
        raise ValueError("prev must be (..., K, M) for K users and M antennas")
    chi = jakes_correlation(user_speed)  # |J0| <= 1 on the real line
    phase = rng.uniform(-np.pi, np.pi, size=prev.shape[:-1] + (1,))
    # a scatter weight that underflows to 0 leaves no scattered part to age
    htilde = np.divide(prev - los * hbar, scatter, out=np.zeros_like(prev), where=scatter > 0)
    htilde = chi * htilde + np.sqrt(1.0 - chi**2) * complex_normal(prev.shape, rng)
    return los * np.exp(1j * phase) * hbar + scatter * htilde
