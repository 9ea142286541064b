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
        """(g, U) with H^H H = U diag(g) U^H per channel, g ascending;
        computed on first use and read-only."""
        G = np.swapaxes(self.entries.conj(), -1, -2) @ self.entries
        g, U = np.linalg.eigh((G + np.swapaxes(G.conj(), -1, -2)) / 2)
        g.flags.writeable = False
        U.flags.writeable = False
        return g, U


@dataclass(frozen=True)
class AgingParams:
    """Mobility description for one aging step: user speed (m/s), carrier
    frequency (Hz) and the time between the two snapshots (s)."""

    user_speed: float
    carrier_freq: float
    sample_period: float

    def __post_init__(self):
        if not self.user_speed >= 0:
            raise ValueError("user_speed must be nonnegative")
        if not self.carrier_freq > 0:
            raise ValueError("carrier_freq must be positive")
        if not self.sample_period > 0:
            raise ValueError("sample_period must be positive")


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
    """CN(0, 1) entries: real parts drawn first, then imaginary parts."""
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


def jakes_correlation(aging: AgingParams) -> float:
    """Temporal correlation J0(2*pi*f_D*T_s) with Doppler f_D = v*f_c/c.

    J0 is scipy.special's, loaded here on first call: scipy is loaded only by
    case1_aging (through `age_channel`) and by the tests."""
    # importing scipy.special costs about 0.24 s and 25 MB; only case1_aging needs it
    from scipy.special import j0

    # 2*pi*v*f_c*T/c in that order on the mantissas, scaled by the exponents:
    # the bits of the plain product where no intermediate leaves the float
    # range, and an overflow only when the argument itself does (v*f_c may
    # overflow at a tiny T). J0 tends to 0 as its argument grows
    (v, ev), (f, ef), (t, et) = map(math.frexp, (aging.user_speed, aging.carrier_freq,
                                                 aging.sample_period))
    try:
        x = math.ldexp(2 * math.pi * (v * f / SPEED_OF_LIGHT) * t, ev + ef + et)
    except OverflowError:
        return 0.0
    return float(j0(x))


def age_channel(prev: np.ndarray, users: Sequence[RicianParams], geom: ArrayGeometry,
                aging: AgingParams, rng: np.random.Generator) -> np.ndarray:
    """One aging step of a (..., K, M) channel stack: rotate each row's LoS
    part by exp(j*theta'), with theta' drawn uniformly on [-pi, pi] per row,
    and evolve its scattered part as chi*old + sqrt(1-chi^2)*innovation.

    Row k of `prev` must be an (unrotated) draw of `users[k]`; the LoS/scatter
    split is recovered from the known weights, which is exact under that
    precondition. The phases are drawn before the innovations.
    """
    prev = np.asarray(prev, dtype=complex)
    hbar, los, scatter = _user_terms(users, geom)
    if prev.shape[-2:] != hbar.shape:
        raise ValueError("prev must be (..., K, M) for K users and M antennas")
    chi = jakes_correlation(aging)  # |J0| <= 1 on the real line
    phase = rng.uniform(-np.pi, np.pi, size=prev.shape[:-1] + (1,))
    # a scatter weight that underflows to 0 leaves no scattered part to age
    htilde = np.divide(prev - los * hbar, scatter, out=np.zeros_like(prev), where=scatter > 0)
    htilde = chi * htilde + np.sqrt(1.0 - chi**2) * complex_normal(prev.shape, rng)
    return los * np.exp(1j * phase) * hbar + scatter * htilde
