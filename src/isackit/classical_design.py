"""Sensing-centric and trade-off waveform designs for a MIMO dual-function
transmitter.

Covers the classical baselines: an omnidirectional covariance template, a
beampattern-matched directional template, the covariance-constrained MUI
minimizer (an orthogonal-Procrustes problem solved by one SVD), the weighted
radar/communication trade-off under a total power constraint (a trust-region
subproblem solved exactly through the secular equation), the epsilon-constraint
variants (`roots.falling_root` on the trade-off weight, returning the
feasible weight on a 2^-40 grid nearest the priority extreme), and
the zero-interference genie rate bound.

`ChannelMatrix` and `CovarianceTemplate` are immutable values that carry
their factorizations: the eigendecomposition of H^H H is computed once per
ChannelMatrix and shared by every trade-off and epsilon design on it (a
plain-array H is wrapped in one per call), and the Hermitian square root of a
template once per template, shared by every Procrustes design scaled by it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import ArrayGeometry, ChannelMatrix, steering_grid
from .metrics import RateReport, _as_matrix, sum_rate
from .roots import falling_root

@dataclass(frozen=True)
class CovarianceTemplate:
    """Target transmit covariance: Hermitian PSD with trace equal to power.

    An immutable value: `matrix` is a read-only copy of the input, and the
    Hermitian square root that `procrustes_waveform` scales by is computed
    once, on first use.
    """

    matrix: np.ndarray
    power: float

    def __post_init__(self):
        C = np.array(self.matrix, dtype=complex)
        C.flags.writeable = False
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValueError("covariance template must be square")
        if self.power <= 0:
            raise ValueError("power must be positive")
        if np.linalg.norm(C - C.conj().T) > 1e-8 * max(1.0, np.linalg.norm(C)):
            raise ValueError("covariance template must be Hermitian")
        if abs(np.trace(C).real - self.power) > 1e-8 * max(1.0, self.power):
            raise ValueError("trace must equal the power budget")
        if np.linalg.eigvalsh((C + C.conj().T) / 2).min() < -1e-8:
            raise ValueError("covariance template must be PSD")
        object.__setattr__(self, "matrix", C)

    @property
    def num_antennas(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Hermitian PSD square root F, F @ F = matrix (read-only)."""
        C = self.matrix
        lam, U = np.linalg.eigh((C + C.conj().T) / 2)
        F = (U * np.sqrt(np.maximum(lam, 0.0))) @ U.conj().T
        F.flags.writeable = False
        return F


@dataclass(frozen=True)
class WaveformDesign:
    """A space-time transmit frame X (M x tau_d), or a stack of them
    (B x M x tau_d), together with its power budget P.

    Solver frames meet the budget exactly, ||X||_F^2 = tau_d * P per frame. A
    learned frame is built with exact_power=False: its projection only
    promises ||X||_F^2 <= tau_d * P and may leave it inside the ball.
    """

    X: np.ndarray
    power: float
    exact_power: InitVar[bool] = True

    def __post_init__(self, exact_power):
        X = np.asarray(self.X, dtype=complex)
        if X.ndim not in (2, 3):
            raise ValueError("waveform must be a matrix or a stack of matrices")
        avg = np.linalg.norm(X, axis=(-2, -1)) ** 2 / X.shape[-1]
        if exact_power:
            violated = np.abs(avg - self.power) > 1e-6 * self.power
        else:
            violated = avg > (1 + 1e-6) * self.power
        if np.any(violated):
            raise ValueError("waveform violates the power budget")
        object.__setattr__(self, "X", X)

    @property
    def frame_length(self) -> int:
        return self.X.shape[-1]


# ------------------------------------------------------------- sensing-centric


def reference_covariance_omni(total_power: float, num_antennas: int) -> CovarianceTemplate:
    """Isotropic template (P/M) I: flat transmit beampattern."""
    C = (total_power / num_antennas) * np.eye(num_antennas, dtype=complex)
    return CovarianceTemplate(C, total_power)


def _project_psd_trace(C: np.ndarray, power: float) -> np.ndarray:
    # projection onto {C >= 0, tr C = power}: clip the spectrum and rebalance
    # the trace (closed form of the alternating clip / trace-shift loop)
    lam, U = np.linalg.eigh((C + C.conj().T) / 2)
    lam_sorted = np.sort(lam)[::-1]
    csum = np.cumsum(lam_sorted)
    # rho: the last index whose clipped value stays positive (0 if none)
    clipped = lam_sorted - (csum - power) / np.arange(1, len(lam) + 1)
    rho = int(np.flatnonzero(clipped > 0).max(initial=0))
    shift = (csum[rho] - power) / (rho + 1)
    lam = np.maximum(lam - shift, 0.0)
    return (U * lam) @ U.conj().T


# Beampattern matching: the fit grid (1-degree steps over [-90, 90]), the
# half-width of the mask around each target, and FISTA's iteration limit and
# relative stopping tolerance on the objective.
_PATTERN_GRID = np.deg2rad(np.arange(-90.0, 91.0))
_MASK_HALFWIDTH = np.deg2rad(5.0)
_FISTA_MAX_ITERS = 8000
_FISTA_TOL = 1e-13


def directional_covariance(target_angles, total_power: float,
                           geom: ArrayGeometry) -> CovarianceTemplate:
    """Least-squares beampattern matching over the PSD trace-power set.

    Fits v(theta)^H C v(theta) to a rectangular mask around each requested
    target by accelerated projected gradient descent (monotone-restart FISTA
    with backtracking). The mask height 4*M*P/n (n targets) sits well above
    the attainable gain, which makes the fit concentrate one dominant lobe
    per target instead of splitting into in-mask ripple.
    """
    targets = np.atleast_1d(np.asarray(target_angles, dtype=float))
    if targets.size == 0:
        raise ValueError("need at least one target direction")
    M = geom.num_antennas

    V = steering_grid(_PATTERN_GRID, geom)  # M x A
    dist = np.min(np.abs(_PATTERN_GRID[:, None] - targets[None, :]), axis=1)
    desired = np.where(dist <= _MASK_HALFWIDTH, 4.0 * total_power * M / targets.size, 0.0)

    def f_and_g(Cm):
        p = np.einsum("ma,mn,na->a", V.conj(), Cm, V).real
        r = p - desired
        return float(r @ r), (V * (2.0 * r)) @ V.conj().T

    C = reference_covariance_omni(total_power, M).matrix
    Z = C
    t = 1.0
    step = 1.0 / (2.0 * _PATTERN_GRID.size * M)
    prev_obj = np.inf
    for it in range(_FISTA_MAX_ITERS):
        fz, gz = f_and_g(Z)
        while True:  # backtracking on the local quadratic upper bound
            Cn = _project_psd_trace(Z - step * gz, total_power)
            move = Cn - Z
            obj, _ = f_and_g(Cn)
            if obj <= fz + np.vdot(gz, move).real + np.linalg.norm(move) ** 2 / (2 * step) + 1e-12:
                break
            step *= 0.5
        step *= 1.3
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if obj > prev_obj:  # restart momentum when it overshoots
            Z, t = Cn, 1.0
        else:
            Z, t = Cn + ((t - 1.0) / t_next) * (Cn - C), t_next
        if it >= 50 and abs(prev_obj - obj) <= _FISTA_TOL * max(1.0, obj):
            return CovarianceTemplate(Cn, total_power)
        C, prev_obj = Cn, obj
    raise RuntimeError(
        f"beampattern matching did not converge in {_FISTA_MAX_ITERS} iterations "
        f"(residual {prev_obj:.3e})")


def procrustes_waveform(template: CovarianceTemplate, H, D, tau_d: int) -> WaveformDesign:
    """MUI-optimal waveform under an exact covariance constraint, for one
    channel (H K x M, D K x tau_d) or a stack of them in one stacked SVD.

    Minimizes ||H X - D||_F over all X with (1/tau_d) X X^H equal to the
    template; the optimum is the polar factor of F H^H D scaled back through
    the Hermitian square root F of the template.
    """
    Hm = _as_matrix(H)
    D = np.asarray(D, dtype=complex)
    M = template.num_antennas
    if tau_d < M:
        raise ValueError("frame length must be at least the antenna count")
    if D.shape != Hm.shape[:-1] + (tau_d,):
        raise ValueError("D must be K x tau_d, with H's leading axes")
    F = template.sqrt
    U, _, Vh = np.linalg.svd(F @ np.swapaxes(Hm.conj(), -1, -2) @ D, full_matrices=False)
    X = np.sqrt(tau_d) * F @ U @ Vh
    return WaveformDesign(X, template.power)


# ----------------------------------------------------------------- trade-off

_EPS = np.finfo(float).eps

# epsilon_design resolves the weight to _WEIGHT_TOL. Its answers lie on the
# grid j / _WEIGHT_CELLS, the coarsest power-of-two grid no wider than the
# tolerance (2^-40), which is where a bisection of [0, 1] stops once its
# bracket is no wider than _WEIGHT_TOL.
_WEIGHT_TOL = 1e-12
_WEIGHT_CELLS = 2 ** math.ceil(-math.log2(_WEIGHT_TOL))


def _secular_solve(lam: np.ndarray, rho: np.ndarray, target: float) -> float:
    """Root of sum_i rho_i / (lam_i + mu)^2 = target on (-lam_min, inf).

    Newton iteration on psi(mu) = phi(mu)^(-1/2) - target^(-1/2) (More &
    Sorensen 1983). psi is increasing and concave on (-lam_min, inf), since
    psi'' <= 0 is Cauchy-Schwarz on the sums of rho / (lam + mu)^k, k = 2, 3,
    4; so Newton started left of the root rises monotonically and never
    passes it. The start is next to the pole, or further right where one term
    alone already reaches the target. It stops when phi meets the target to
    within a few ulps, or when a step no longer moves mu to the right, never
    on step size alone.
    """
    lam_min = lam.min()
    mu = max(-lam_min + 1e-14 * max(1.0, abs(lam_min)),
             float(np.max(np.sqrt(rho / target) - lam)))
    inv, terms = np.empty(lam.shape), np.empty(lam.shape)
    while True:
        np.divide(1.0, np.add(lam, mu, out=inv), out=inv)
        np.multiply(np.multiply(rho, inv, out=terms), inv, out=terms)
        value = float(np.add.reduce(terms))
        cubic = float(np.add.reduce(np.multiply(terms, inv, out=terms)))  # -phi'(mu) / 2
        # a few ulps of the target, plus what one ulp of mu moves phi by: on
        # a steep branch the float grid of mu cannot bring phi any closer
        if abs(value - target) <= 4.0 * _EPS * (target + 2.0 * cubic * abs(mu)):
            return mu
        if cubic == 0.0:
            raise RuntimeError(f"secular solve: phi' underflows to 0 at target {target:.3e}")
        # Newton step on psi, with psi' = phi^(-3/2) * cubic
        nxt = mu + value / cubic * (math.sqrt(value / target) - 1.0)
        if not nxt > mu:
            return mu
        mu = nxt


class _GramFactor(NamedTuple):
    """Validated trade-off inputs and the eigendecomposition H^H H = U g U^H.

    For every weight eta, A(eta) = eta H^H H + (1-eta) I has the eigenvectors
    U and the eigenvalues eta g + (1-eta), and U^H B(eta) is the same mix of
    U^H H^H D and U^H X0, so one factorization serves any number of weights.
    (g, U) is the `ChannelMatrix.gram_eigh` of the channel: an immutable
    value that carries its factorization, so every design on one
    ChannelMatrix shares one eigh.
    """

    H: np.ndarray
    D: np.ndarray
    X0: np.ndarray
    g: np.ndarray  # ascending
    U: np.ndarray
    UHD: np.ndarray  # U^H H^H D
    UX0: np.ndarray  # U^H X0


def _factor(H, D, X0, caller: str) -> _GramFactor:
    if not isinstance(H, ChannelMatrix):
        H = ChannelMatrix(H)
    Hm = H.entries
    if Hm.ndim != 2:
        raise ValueError(f"{caller} designs for one channel; index the stack")
    D = np.asarray(D, dtype=complex)
    X0m = X0.X if isinstance(X0, WaveformDesign) else np.asarray(X0, dtype=complex)
    if Hm.shape[1] != X0m.shape[0] or D.shape != (Hm.shape[0], X0m.shape[1]):
        raise ValueError("dimension mismatch between H, D, X0")
    g, U = H.gram_eigh
    return _GramFactor(Hm, D, X0m, g, U, (Hm @ U).conj().T @ D, U.conj().T @ X0m)


def _tradeoff_solve(f: _GramFactor, weight: float, total_power: float) -> np.ndarray:
    """Trade-off minimizer at one weight, from the shared factorization."""
    M, tau_d = f.X0.shape
    target = tau_d * total_power
    W = weight * f.UHD + (1.0 - weight) * f.UX0  # U^H B
    rho = np.linalg.norm(W, axis=1) ** 2
    rho_sum = rho.sum()
    if rho_sum == 0.0:  # W == 0
        warnings.warn("degenerate trade-off objective; returning a power-"
                      "feasible reference", stacklevel=3)
        X = f.X0 if np.linalg.norm(f.X0) > 0 else np.eye(M, tau_d, dtype=complex)
        return X * np.sqrt(target) / np.linalg.norm(X)

    lam = weight * f.g + (1.0 - weight)

    # hard case: no weight on the minimal eigenspace and the boundary value
    # already undershoots the budget; fill the gap inside that eigenspace,
    # along X0's part there (the limit as the weight goes to 1), or along its
    # first eigenvector when X0 has no part there
    lam_min = lam.min()
    min_space = lam - lam_min < 1e-12 * max(1.0, abs(lam_min))
    pos = ~min_space
    hard = rho[min_space].sum() < 1e-20 * max(1.0, rho_sum)
    if hard:  # the boundary sum matters only then
        boundary = float(np.sum(rho[pos] / (lam[pos] - lam_min) ** 2)) if pos.any() else 0.0
        hard = boundary <= target
    if hard:
        coeff = np.zeros_like(W)
        coeff[pos] = W[pos] / (lam[pos] - lam_min)[:, None]
        fill = np.where(min_space[:, None], f.UX0, 0.0)
        if not fill.any():
            fill[np.argmax(min_space)] = 1.0
        X = f.U @ (coeff + fill * np.sqrt((target - boundary) / np.linalg.norm(fill) ** 2))
    else:
        mu = _secular_solve(lam, rho, target)
        X = f.U @ (W / (lam + mu)[:, None])
    return X * np.sqrt(target) / np.linalg.norm(X)  # kill the solver's roundoff


def tradeoff_design(H, D, X0, weight: float, total_power: float) -> WaveformDesign:
    """Global minimizer of eta*||HX-D||^2 + (1-eta)*||X-X0||^2 on the power
    sphere ||X||_F^2 = tau_d * P.

    The stationarity system (A + mu I) X = B with A = eta H^H H + (1-eta) I is
    solved exactly: one eigendecomposition of H^H H, which A shares, then a
    monotone Newton iteration on the secular equation for the multiplier mu
    that meets the power budget.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    X = _tradeoff_solve(_factor(H, D, X0, "tradeoff_design"), weight, total_power)
    return WaveformDesign(X, total_power)


def epsilon_design(H, D, X0, bound: float, mode: str, total_power: float):
    """Epsilon-constraint designs through a root search on the trade-off
    weight.

    comm_priority: minimize MUI subject to ||X - X0||^2 <= bound.
    sens_priority: minimize ||X - X0||^2 subject to ||HX - D||^2 <= bound.
    Returns (design, slack) where slack = bound - achieved constraint value.

    The constrained metric worsens monotonically as the weight moves toward
    the priority extreme, so the answer is the trade-off design at the weight
    j / _WEIGHT_CELLS nearest that extreme that still meets the bound: what a
    bisection of [0, 1] down to _WEIGHT_TOL returns, bit for bit.

    The search is `roots.falling_root` on x, the grid index counted from the
    priority extreme, where the miss (constrained metric minus bound) falls
    as x grows. The design returned is the one solved at the last feasible
    weight, so no weight is solved twice, and every weight reuses one
    factorization of H^H H.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    if mode not in ("comm_priority", "sens_priority"):
        raise ValueError("mode must be comm_priority or sens_priority")
    f = _factor(H, D, X0, "epsilon_design")
    comm = mode == "comm_priority"

    def solve(x):
        j = _WEIGHT_CELLS - x if comm else x
        X = _tradeoff_solve(f, j / _WEIGHT_CELLS, total_power)
        return X, float(np.linalg.norm(X - f.X0 if comm else f.H @ X - f.D) ** 2)

    # x = 0 is the priority extreme, where the constrained metric is at its
    # worst, and x = _WEIGHT_CELLS the other extreme, where it is at its best
    X, value = solve(0)
    if value <= bound:
        return WaveformDesign(X, total_power), bound - value
    X_feas, achieved = solve(_WEIGHT_CELLS)
    if achieved > bound:
        raise ValueError(
            f"epsilon infeasible: minimal achievable constraint is {achieved:.6e}")

    def miss(x):
        nonlocal X_feas, achieved
        X, value = solve(x)
        if value <= bound:
            X_feas, achieved = X, value
        return value - bound

    falling_root(miss, 0, _WEIGHT_CELLS, value - bound, achieved - bound,
                 floor=1, tol=-1.0, snap=round)
    return WaveformDesign(X_feas, total_power), bound - achieved


def genie_rate(D, noise_var: float) -> RateReport:
    """Interference-free upper bound: SINR_k = E|D_kq|^2 / sigma^2."""
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    D = np.asarray(D, dtype=complex)
    gam = np.mean(np.abs(D) ** 2, axis=1) / noise_var
    return RateReport(per_user_sinr=gam, sum_rate=sum_rate(gam))
