"""Sensing-centric and trade-off waveform designs for a MIMO dual-function
transmitter.

Covers the classical baselines: an omnidirectional covariance template, a
beampattern-matched directional template, the covariance-constrained MUI
minimizer (an orthogonal-Procrustes problem solved by one SVD), the weighted
radar/communication trade-off under a total power constraint (a trust-region
subproblem solved exactly through the secular equation), the epsilon-constraint
variants (safeguarded Newton steps on a 2^-40 grid of the trade-off weight,
with the closed-form slope of the constrained metric, returning the feasible
weight nearest the priority extreme), and the zero-interference genie rate
bound.

The Procrustes and trade-off designs and the genie bound take one channel
(H K x M) or a stack (B x K x M, and B on D and X0) through one code path;
`epsilon_design` takes one channel, as its weight search is sequential.

`ChannelMatrix` is an immutable value that carries its factorization: the
eigendecomposition of H^H H is computed once per ChannelMatrix, one batched
eigh for a stack, and shared by every trade-off and epsilon design on it (a
plain-array H is wrapped in one per call). `CovarianceTemplate` carries only
its validated matrix; `procrustes_waveform` takes the template's Hermitian
square root per call, once for a whole stack of channels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .channel import ArrayGeometry, ChannelMatrix
from .metrics import (
    RateReport,
    _as_matrix,
    _check_dims,
    _frame_norm,
    _lag_gains,
    _lag_table,
    _lag_toeplitz,
    sum_rate,
)

@dataclass(frozen=True)
class CovarianceTemplate:
    """Target transmit covariance: Hermitian PSD with trace equal to power.

    An immutable value: `matrix` is a read-only copy of the input.
    """

    matrix: np.ndarray
    power: float

    def __post_init__(self):
        C = np.array(self.matrix, dtype=complex)
        C.flags.writeable = False
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValueError("covariance template must be square")
        if not self.power > 0:
            raise ValueError("power must be positive")
        # Frobenius norms through hypot: np.linalg.norm squares the entries,
        # which overflows from about 1e154
        skew, size = (np.hypot.reduce(np.abs(A).ravel(), initial=0.0)
                      for A in (C - C.conj().T, C))
        if not skew <= 1e-8 * size:
            raise ValueError("covariance template must be Hermitian")
        if not abs(np.trace(C).real - self.power) <= 1e-8 * self.power:
            raise ValueError("trace must equal the power budget")
        if not np.linalg.eigvalsh((C + C.conj().T) / 2).min() >= -1e-8 * self.power:
            raise ValueError("covariance template must be PSD")
        object.__setattr__(self, "matrix", C)

    @property
    def num_antennas(self) -> int:
        return self.matrix.shape[0]


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
        avg = _frame_norm(X) ** 2 / X.shape[-1]
        if exact_power:
            met = np.abs(avg - self.power) <= 1e-6 * self.power
        else:
            met = avg <= (1 + 1e-6) * self.power
        if not met.all():
            raise ValueError("waveform X violates the power budget")
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
# half-width of the mask around each target, FISTA's iteration limit, the
# relative slack of its sufficient-decrease test (a few roundings of the
# objective, which sums 181 squares), and the Frank-Wolfe gap, as a fraction
# of the objective, at which the fit stops.
_PATTERN_GRID = np.deg2rad(np.arange(-90.0, 91.0))
_MASK_HALFWIDTH = np.deg2rad(5.0)
_FISTA_MAX_ITERS = 8000
_DECREASE_SLACK = 1e-14
_GAP_TOL = 1e-9


def directional_covariance(target_angles, total_power: float,
                           geom: ArrayGeometry) -> CovarianceTemplate:
    """Least-squares beampattern matching over the PSD trace-power set.

    Fits v(theta)^H C v(theta) to a rectangular mask around each requested
    target by accelerated projected gradient descent (FISTA with
    backtracking, restarted whenever its momentum opposes the gradient step:
    O'Donoghue and Candes, "Adaptive Restart for Accelerated Gradient
    Schemes", 2015). The mask height 4*M*P/n (n targets) sits well above the
    attainable gain, which makes the fit concentrate one dominant lobe per
    target instead of splitting into in-mask ripple. The fit is homogeneous
    in P, so it runs at unit power and the template is scaled by P: its
    objective stays finite however large P is.

    Both kernels run on the lag sums of the half-wavelength ULA, in O(M A)
    work on the A grid angles: the gains are c_0 + 2 Re sum_{d>=1} c_d
    e^{-j pi d sin theta} with c_d the d-th subdiagonal sum of C, and the
    gradient 2 V diag(r) V^H of the residual r is the Hermitian Toeplitz
    matrix with lag-d entry 2 sum_a r_a e^{j pi d sin theta_a}. The fit stops
    on its Frank-Wolfe gap (Jaggi, ICML 2013) at unit power,
    Re<grad f(C), C> - lambda_min(grad f(C)) <= _GAP_TOL * f(C): the gap
    bounds f(C) - min f, and so the squared distance of the gains from the
    optimal gains.
    """
    targets = np.atleast_1d(np.asarray(target_angles, dtype=float))
    if targets.size == 0:
        raise ValueError("need at least one target direction")
    M = geom.num_antennas

    table = _lag_table(_PATTERN_GRID, M)
    dist = np.min(np.abs(_PATTERN_GRID[:, None] - targets[None, :]), axis=1)
    desired = np.where(dist <= _MASK_HALFWIDTH, 4.0 * M / targets.size, 0.0)

    C = reference_covariance_omni(1.0, M).matrix
    Z = C
    t = 1.0
    step = 1.0 / (2.0 * _PATTERN_GRID.size * M)
    for it in range(_FISTA_MAX_ITERS):
        r = _lag_gains(Z, table) - desired
        fz, gz = float(r @ r), _lag_toeplitz(2.0 * r, table)
        while True:  # backtracking on the local quadratic upper bound
            Cn = _project_psd_trace(Z - step * gz, 1.0)
            move = Cn - Z
            gains = _lag_gains(Cn, table)
            r = gains - desired
            obj = float(r @ r)
            bound = fz + np.vdot(gz, move).real + _frame_norm(move) ** 2 / (2 * step)
            if obj <= bound + _DECREASE_SLACK * fz:
                break
            step *= 0.5
        step *= 1.3
        # <grad f, Cn> = sum_a 2 r_a gains_a, less the least value of
        # <grad f, S> over the unit-trace PSD set
        gap = float(2.0 * r @ gains) - np.linalg.eigvalsh(_lag_toeplitz(2.0 * r, table))[0]
        if gap <= _GAP_TOL * obj:
            return CovarianceTemplate(total_power * Cn, total_power)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if np.vdot(Z - Cn, Cn - C).real > 0:  # restart: momentum opposes the step
            Z, t = Cn, 1.0
        else:
            Z, t = Cn + ((t - 1.0) / t_next) * (Cn - C), t_next
        C = Cn
    raise RuntimeError(
        f"beampattern matching did not converge in {_FISTA_MAX_ITERS} iterations "
        f"(Frank-Wolfe gap {gap / obj:.3e} of the objective {obj:.3e}, "
        f"tolerance {_GAP_TOL:.0e})")


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
    C = template.matrix
    lam, Q = np.linalg.eigh((C + C.conj().T) / 2)
    F = (Q * np.sqrt(np.maximum(lam, 0.0))) @ Q.conj().T
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
    """Root of sum_i rho_i / (lam_i + mu)^2 = target on (-lam[0], inf), for
    ascending lam.

    Newton iteration on psi(mu) = phi(mu)^(-1/2) - target^(-1/2) (More &
    Sorensen 1983). psi is increasing and concave on (-lam_min, inf), since
    psi'' <= 0 is Cauchy-Schwarz on the sums of rho / (lam + mu)^k, k = 2, 3,
    4; so Newton started left of the root rises monotonically and never
    passes it. The start is next to the pole, or further right where one term
    alone already reaches the target. It stops when phi meets the target to
    within a few ulps, or when a step no longer moves mu to the right, never
    on step size alone.
    """
    lam_min = lam[0]
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
    """Validated trade-off inputs and the eigendecomposition H^H H = U g U^H,
    of one channel or of each channel of a stack (leading axes on every field).

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


def _factor(H, D, X0) -> _GramFactor:
    if not isinstance(H, ChannelMatrix):
        H = ChannelMatrix(H)
    Hm = H.entries
    D = np.asarray(D, dtype=complex)
    X0m = X0.X if isinstance(X0, WaveformDesign) else np.asarray(X0, dtype=complex)
    _check_dims(Hm, X0m, D, "X0")
    g, U = H.gram_eigh
    return _GramFactor(Hm, D, X0m, g, U, (Hm @ U).conj().mT @ D, U.conj().mT @ X0m)


def _coefficients(out, W, rho, lam, UX0, target):
    """One channel's U^H X into `out`, for ascending lam. Returns the
    multiplier mu that meets the budget; nan in the hard case, where mu is
    -lam[0], on the pole."""
    rho_sum = rho.sum()
    # hard case: no weight on the minimal eigenspace and the boundary value
    # already undershoots the budget; fill the gap inside that eigenspace,
    # along X0's part there (the limit as the weight goes to 1), or along its
    # first eigenvector when X0 has no part there. W == 0 is a hard case
    # with boundary value 0: the minimizers put the whole budget there. The
    # eigenspace holds lam[0], and a float sum of its rho is at least rho[0],
    # so a rho[0] at or above the threshold rules the hard case out without
    # forming it. The threshold scales with the target, as rho does, so that
    # the design is homogeneous in (B, target); it stays above 0 at W == 0.
    lam_min = lam[0]
    floor = 1e-20 * max(target, rho_sum)
    if rho[0] < floor:
        min_space = lam - lam_min < 1e-12 * max(1.0, abs(lam_min))
        if rho[min_space].sum() < floor:
            pos = ~min_space
            boundary = float(np.sum(rho[pos] / (lam[pos] - lam_min) ** 2)) if pos.any() else 0.0
            if boundary <= target:
                coeff = np.zeros_like(W)
                coeff[pos] = W[pos] / (lam[pos] - lam_min)[:, None]
                fill = np.where(min_space[:, None], UX0, 0.0)
                if not fill.any():
                    fill[np.argmax(min_space)] = 1.0
                out[...] = coeff + fill * np.sqrt((target - boundary) / _frame_norm(fill) ** 2)
                return math.nan
    # rho / target against 1 has the same root, and phi' does not underflow
    # at small targets (1e-300)
    mu = _secular_solve(lam, rho / target, 1.0)
    np.divide(W, (lam + mu)[:, None], out=out)
    return mu


def _tradeoff_solve(f: _GramFactor, weight: float, total_power: float):
    """Trade-off minimizer at one weight for every channel of the shared
    factorization: a frame (M x tau_d) per channel, stacked like f.X0, and
    each channel's multiplier mu (nan in the hard case)."""
    tau_d = f.X0.shape[-1]
    target = tau_d * total_power
    W = weight * f.UHD + (1.0 - weight) * f.UX0  # U^H B
    rho = np.linalg.norm(W, axis=-1) ** 2  # of each row, not a frame norm
    # ascending like g, as weight lies in [0, 1]
    lam = weight * f.g + (1.0 - weight)
    coeff = np.empty_like(W)
    mu = np.empty(rho.shape[:-1])
    # one scalar Newton solve per channel (itertools.product costs less than np.ndindex)
    for i in itertools.product(*map(range, rho.shape[:-1])):
        mu[i] = _coefficients(coeff[i], W[i], rho[i], lam[i], f.UX0[i], target)
    X = f.U @ coeff
    # the rescale to the budget kills the solver's roundoff
    norm = _frame_norm(X)
    X *= np.sqrt(target)
    X /= norm[..., None, None]
    return X, mu


def _row_products(f: _GramFactor):
    """Per row i of P = U^H H^H D and Q = U^H X0 (one channel): ||P_i||^2,
    Re<P_i, Q_i> and ||Q_i||^2, the inner products `_metric_slope` reads."""
    P, Q = f.UHD, f.UX0
    return np.vecdot(P, P).real, np.vecdot(P, Q).real, np.vecdot(Q, Q).real


def _metric_slope(f: _GramFactor, rows, weight: float, mu: float, comm: bool) -> float:
    """d/d(weight) of one channel's constrained metric at its trade-off
    design: the sensing error ||X - X0||^2 if comm, else the MUI
    ||HX - D||^2, from the multiplier mu of the solve at that weight.

    In the eigenbasis, with P = U^H H^H D, Q = U^H X0, W = weight P +
    (1 - weight) Q, s = lam + mu and c = W / s (rows scaled), the budget
    sum ||c_i||^2 = tau_d P fixes mu' = [sum Re<c_i, W'_i> / s_i - sum rho_i
    (g_i - 1) / s_i^3] / sum rho_i / s_i^3, so c' = (W' - c (g - 1 + mu')) /
    s, and the MUI's slope is 2 sum g_i Re<c_i, c'_i> - 2 Re<c', P> and the
    sensing error's -2 Re<c', Q>. Every inner product above is a mix of
    the `_row_products` of f, which `rows` holds.
    """
    pp, pq, qq = rows
    v = 1.0 - weight
    s = weight * f.g + v + mu
    wp = weight * pp + v * pq  # Re<W_i, P_i>
    wq = weight * pq + v * qq  # Re<W_i, Q_i>
    n = (weight * wp + v * wq) / s ** 2  # ||c_i||^2
    a = (wp - wq) / s  # Re<c_i, W'_i>
    k = f.g - 1.0  # s' = k + mu'
    k += ((a / s).sum() - (n * k / s).sum()) / (n / s).sum()
    if comm:
        return float(-2.0 * ((pq - qq - k * wq / s) / s).sum())
    return float(2.0 * ((f.g * (a - k * n) - (pp - pq - k * wp / s)) / s).sum())


def tradeoff_design(H, D, X0, weight: float, total_power: float) -> WaveformDesign:
    """Global minimizer of eta*||HX-D||^2 + (1-eta)*||X-X0||^2 on the power
    sphere ||X||_F^2 = tau_d * P, for one channel or each channel of a stack.

    The stationarity system (A + mu I) X = B with A = eta H^H H + (1-eta) I is
    solved exactly: one eigendecomposition of H^H H, which A shares, then a
    monotone Newton iteration on the secular equation for the multiplier mu
    that meets the power budget.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    X, _ = _tradeoff_solve(_factor(H, D, X0), weight, total_power)
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

    The search is `_first_feasible_cell` on x, the grid index counted from
    the priority extreme, where the miss (constrained metric minus bound)
    falls as x grows. Its steps are Newton's, rounded to the grid, on the
    closed-form slope of the constrained metric (`_metric_slope`, from the
    multiplier that each solve finds), from the last weight solved; a
    bisection stands in where no slope exists (the hard case) and at weight
    1, where H^H H is singular, so sens_priority's Newton steps start at
    weight 0 and comm_priority's after a first bisection to weight 0.5. The
    design returned is the one solved at the last feasible weight, so no
    weight is solved twice, and every weight reuses one factorization of
    H^H H.
    """
    if not bound > 0:
        raise ValueError("bound must be positive")
    if mode not in ("comm_priority", "sens_priority"):
        raise ValueError("mode must be comm_priority or sens_priority")
    if _as_matrix(H).ndim != 2:
        raise ValueError("epsilon_design designs for one channel; index the stack")
    f = _factor(H, D, X0)
    comm = mode == "comm_priority"
    mus = {}  # the multiplier of every weight solved, by grid index x

    def solve(x):
        j = _WEIGHT_CELLS - x if comm else x
        X, mu = _tradeoff_solve(f, j / _WEIGHT_CELLS, total_power)
        mus[x] = float(mu)
        return X, float(_frame_norm(X - f.X0 if comm else f.H @ X - f.D) ** 2)

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

    rows = _row_products(f)

    def slope(x):
        # d miss / dx: the weight is x / _WEIGHT_CELLS, or 1 - that if comm.
        # None at weight 1 (comm's x = 0), where H^H H has rank K < M and the
        # slope says little about the root; at weight 0 A = I is well
        # conditioned
        if math.isnan(mus[x]) or (comm and x == 0):
            return None
        j = _WEIGHT_CELLS - x if comm else x
        d = _metric_slope(f, rows, j / _WEIGHT_CELLS, mus[x], comm) / _WEIGHT_CELLS
        return -d if comm else d

    _first_feasible_cell(miss, _WEIGHT_CELLS, value - bound, slope)
    return WaveformDesign(X_feas, total_power), bound - achieved


def _first_feasible_cell(miss, cells: int, f_lo: float, slope) -> int:
    """Least x in 1..cells with miss(x) <= 0, where miss falls as the
    integer x grows, f_lo = miss(0) > 0 >= miss(cells), and slope(x) is the
    slope of miss at a point it has evaluated (None where it has none).

    Each step is Newton's from the last point evaluated, rounded to the grid;
    a step shorter than half a cell moves one cell toward the root's side.
    Where the slope does not fall, or the rounded step leaves the open
    bracket or is longer than half the step before last, the step bisects
    instead (the safeguard of `rtsafe` in Press et al., Numerical Recipes).
    Every step is a cell or longer, so the second step after a one-cell
    step bisects, and no run of one-cell steps walks the grid.
    """
    lo, hi, x, f = 0, cells, 0, f_lo
    moved = (cells, cells)  # how far the last two steps went
    while hi - lo > 1:
        d = slope(x)
        t = x - f / d if d is not None and d < 0.0 else math.nan
        if lo <= t <= hi:
            t = round(t)
            if t == x:
                t = x + 1 if f > 0 else x - 1
        if not lo < t < hi or abs(t - x) > 0.5 * moved[0]:
            t = (lo + hi) // 2
        moved, x = (moved[1], abs(t - x)), t
        f = miss(x)
        if f > 0:
            lo = x
        else:
            hi = x
    return hi


def genie_rate(D, noise_var: float) -> RateReport:
    """Interference-free upper bound: SINR_k = E|D_kq|^2 / sigma^2 per channel."""
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    D = np.asarray(D, dtype=complex)
    gam = np.mean(np.abs(D) ** 2, axis=-1) / noise_var
    return RateReport(per_user_sinr=gam, sum_rate=sum_rate(gam))
