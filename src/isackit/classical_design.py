"""Sensing-centric and trade-off waveform designs for a MIMO dual-function
transmitter.

Covers the classical baselines: an omnidirectional covariance template, a
beampattern-matched directional template, the covariance-constrained MUI
minimizer (an orthogonal-Procrustes problem solved by one SVD), the weighted
radar/communication trade-off under a total power constraint (a trust-region
subproblem solved exactly through its secular equation, on the range of H^H:
K+1 poles, whatever the antenna count), the epsilon-constraint
variants (safeguarded Newton steps on a 2^-40 grid of the trade-off weight,
with the closed-form slope of the constrained metric, returning the feasible
weight nearest the priority extreme), and the zero-interference genie rate
bound.

The Procrustes and trade-off designs and the genie bound take one channel
(H K x M) or a stack (B x K x M, and B on D and X0) through one code path;
`epsilon_design` takes one channel, as its weight search is sequential.

`ChannelMatrix` is an immutable value that carries its factorization: the
K x K factor H H^H = V diag(g) V^H and the orthonormal basis Q of the range of
H^H, from one SVD of H per ChannelMatrix (one batched SVD for a stack), shared
by every trade-off and epsilon design on it (a plain-array H is wrapped in one
per call). `CovarianceTemplate` carries only
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


def _secular_solve(lam, rho, target: float) -> float:
    """Root of sum_i rho_i / (lam_i + mu)^2 = target on (-lam[0], inf), for
    ascending lam: the K+1 poles of a trade-off solve, as Python floats.

    Newton iteration on psi(mu) = phi(mu)^(-1/2) - target^(-1/2) (More &
    Sorensen 1983). psi is increasing and concave on (-lam_min, inf), since
    psi'' <= 0 is Cauchy-Schwarz on the sums of rho / (lam + mu)^k, k = 2, 3,
    4; so Newton started left of the root rises monotonically and never
    passes it. The start is next to the pole, or further right where one term
    alone already reaches the target. It stops when phi meets the target to
    within a few ulps, or when a step no longer moves mu to the right, never
    on step size alone.

    A step is a loop over the poles, which costs less than numpy calls on
    arrays of five; it sums the terms in order, as np.add.reduce does below
    8 terms, so it has the bits of the same iteration on arrays.
    """
    lam_min = lam[0]
    mu = -lam_min + 1e-14 * max(1.0, abs(lam_min))
    for l, r in zip(lam, rho):
        mu = max(mu, math.sqrt(r / target) - l)
    while True:
        value = cubic = 0.0  # phi(mu) and -phi'(mu) / 2
        for l, r in zip(lam, rho):
            inv = 1.0 / (l + mu)
            term = r * inv * inv
            value += term
            cubic += term * inv
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
    """Validated trade-off inputs and their parts on the range of H^H, of one
    channel or of each channel of a stack (leading axes on every field).

    With (g, V, Q) the `ChannelMatrix.gram_eigh` of the channel (H H^H = V
    diag(g) V^H, Q = H^H V diag(g)^(-1/2) an orthonormal basis of range(H^H),
    n = min(K, M) columns), A(eta) = eta H^H H + (1-eta) I has only the
    eigenvalues eta g + 1 - eta on range(H^H) and 1 - eta on its complement.
    B(eta) = eta H^H D + (1-eta) X0 is Q (eta P + (1-eta) R) on the range,
    with P = diag(g)^(1/2) V^H D = Q^H H^H D and R = Q^H X0, and (1-eta)
    X0perp on the complement, X0perp = X0 - Q R, as H^H D has no part there.
    So every weight's solve has K+1 rows: the complement first, with gain 0,
    then one per column of Q. The complement is missing where H has full
    rank M <= K: `first`, the index of the first row that exists, is then 1,
    and X0perp is 0. (g, V, Q) are the channel's, shared by every design on
    one ChannelMatrix; P, R and X0perp are formed per call.
    """

    H: np.ndarray
    D: np.ndarray
    X0: np.ndarray
    g: np.ndarray  # ascending
    Q: np.ndarray
    P: np.ndarray  # Q^H H^H D
    R: np.ndarray  # Q^H X0
    X0perp: np.ndarray  # X0 - Q R, 0 where the complement is missing
    rho_perp: np.ndarray  # ||X0perp||^2, formed from X0perp itself
    first: np.ndarray  # 0, or 1 where the complement is missing


def _factor(H, D, X0) -> _GramFactor:
    if not isinstance(H, ChannelMatrix):
        H = ChannelMatrix(H)
    Hm = H.entries
    D = np.asarray(D, dtype=complex)
    X0m = X0.X if isinstance(X0, WaveformDesign) else np.asarray(X0, dtype=complex)
    _check_dims(Hm, X0m, D, "X0")
    g, V, Q = H.gram_eigh
    R = Q.conj().mT @ X0m
    X0perp = X0m - Q @ R
    first = np.zeros(g.shape[:-1], dtype=int)
    if g.shape[-1] == Hm.shape[-1]:
        # the complement of range(H^H) is missing where H has rank M <= K:
        # g > 0, and g ascending, so its first entry tells
        first[g[..., 0] > 0] = 1
        X0perp[first == 1] = 0.0
    flat = X0perp.reshape(X0perp.shape[:-2] + (-1,))
    return _GramFactor(Hm, D, X0m, g, Q, (V * np.sqrt(g)[..., None, :]).conj().mT @ D, R,
                       X0perp, np.vecdot(flat, flat).real, first)


def _hard_case(lam, rho, target):
    """One channel's boundary value if its trade-off solve is the hard case,
    else None; lam (ascending) and rho are the poles and weights of the rows
    that exist, as Python floats.

    The hard case: no weight on the minimal eigenspace and the boundary
    value already undershoots the budget. W == 0 is a hard case with
    boundary value 0. The eigenspace holds lam[0], and a float sum of its rho
    is at least rho[0], so a rho[0] at or above the threshold rules the hard
    case out without forming it. The threshold scales with the target, as
    rho does, so that the design is homogeneous in (B, target); it stays
    above 0 at W == 0.
    """
    rho_sum = 0.0
    for r in rho:
        rho_sum += r
    floor = 1e-20 * max(target, rho_sum)
    if not rho[0] < floor:
        return None
    lam_min = lam[0]
    tol = 1e-12 * max(1.0, abs(lam_min))
    min_sum = boundary = 0.0
    for l, r in zip(lam, rho):
        if l - lam_min < tol:
            min_sum += r
        else:
            boundary += r / ((l - lam_min) * (l - lam_min))
    return boundary if min_sum < floor and boundary <= target else None


def _hard_case_frame(Q, W, R, X0perp, lam, lam_min: float, complement: bool,
                     boundary: float, target: float):
    """One channel's frame in the hard case, before its rescale, from the
    poles lam of its rows of Q: the least-norm solution on the rows above
    the minimal eigenvalue lam_min (1 - eta where the complement of
    range(H^H) exists), plus the rest of the budget inside the minimal
    eigenspace, along X0's part there (the limit as the weight goes to 1).
    Where X0 has no part there, the fill is a canonical direction: the
    longest column (I - Q Q^H) e_j, the j of the row of Q of least norm, if
    the complement exists, else the first minimal row of Q.

    X0perp is projected off range(H^H) again until a projection keeps at
    least half its norm ("twice is enough", Parlett, The Symmetric
    Eigenvalue Problem, 1980): where X0 lies in range(H^H), X0perp is
    roundoff, and only its second projection lies in the null space of H to
    working precision."""
    gap = lam - lam_min
    low = gap < 1e-12 * max(1.0, abs(lam_min))  # rows of Q in the minimal eigenspace
    coeff = np.divide(W, gap[:, None], out=np.zeros_like(W), where=~low[:, None])
    fill = np.where(low[:, None], R, 0.0)
    perp, size = X0perp, np.vdot(X0perp, X0perp).real
    while True:
        perp = perp - Q @ (Q.conj().T @ perp)
        kept, size = size, np.vdot(perp, perp).real
        if size >= 0.25 * kept:
            break
    if not (fill.any() or perp.any()):
        if complement:
            j = np.argmin(np.vecdot(Q, Q).real)  # the row of Q of least norm
            perp[:] = (-Q @ Q[j].conj())[:, None]
            perp[j] += 1.0
            size = np.vdot(perp, perp).real
        else:
            fill[np.argmax(low)] = 1.0
    t = math.sqrt((target - boundary) / (np.vdot(fill, fill).real + size))
    return Q @ (coeff + t * fill) + t * perp


def _tradeoff_solve(f: _GramFactor, weight: float, total_power: float):
    """Trade-off minimizer at one weight for every channel of the shared
    factorization: a frame (M x tau_d) per channel, stacked like f.X0, and
    each channel's multiplier mu (nan in the hard case).

    The stationarity system (A + mu I) X = B splits along range(H^H): X =
    Q diag(1/(eta g + 1 - eta + mu)) W + (1-eta) / (1-eta+mu) X0perp, with W
    = Q^H B = eta P + (1-eta) R, where mu is the root of the secular
    equation on the K+1 rows: poles 1 - eta and eta g + 1 - eta, weights
    (1-eta)^2 ||X0perp||^2 and the ||W_i||^2."""
    tau_d = f.X0.shape[-1]
    target = tau_d * total_power
    v = 1.0 - weight
    W = weight * f.P + v * f.R
    lam = weight * f.g + v  # ascending, as weight lies in [0, 1]
    shape = lam.shape[:-1]
    mu = np.empty(shape)
    # the coefficients of W and of X0perp, 1/(lam + mu) and (1-eta) /
    # (1-eta+mu); 0 where the complement is missing (its X0perp is 0) and in
    # the hard case, whose frame is formed below
    scale = np.zeros(lam.shape)
    cperp = np.zeros(shape)
    hard = {}
    lams, rhos = lam.tolist(), np.vecdot(W, W).real.tolist()
    perps, firsts = f.rho_perp.tolist(), f.first.tolist()
    # one scalar solve per channel, on Python floats (itertools.product
    # costs less than np.ndindex)
    for i in itertools.product(*map(range, shape)):
        lam_i, rho_i, perp, k = lams, rhos, perps, firsts
        for j in i:
            lam_i, rho_i, perp, k = lam_i[j], rho_i[j], perp[j], k[j]
        poles = ([v] + lam_i)[k:]
        weights = ([v * v * perp] + rho_i)[k:]
        boundary = _hard_case(poles, weights, target)
        if boundary is not None:
            mu[i] = math.nan
            hard[i] = poles[0], k == 0, boundary
            continue
        # rho / target against 1 has the same root, and phi' does not
        # underflow at small targets (1e-300)
        m = _secular_solve(poles, [r / target for r in weights], 1.0)
        mu[i] = m
        scale[i] = [1.0 / (l + m) for l in lam_i]
        if k == 0:
            cperp[i] = v / (v + m)
    X = f.Q @ (scale[..., None] * W)
    X += cperp[..., None, None] * f.X0perp
    for i, (lam_min, complement, boundary) in hard.items():
        X[i] = _hard_case_frame(f.Q[i], W[i], f.R[i], f.X0perp[i], lam[i], lam_min,
                                complement, boundary, target)
    # the rescale to the budget kills the solver's roundoff
    norm = _frame_norm(X)
    X *= np.sqrt(target)
    X /= norm[..., None, None]
    return X, mu


def _row_products(f: _GramFactor):
    """Per row i of one channel's solve, the rows that exist from f.first
    on: ||P_i||^2, Re<P_i, R_i> and ||R_i||^2 as lists of Python floats,
    the inner products `_metric_slope` reads. The complement is the row of
    P-products 0 and R-product ||X0perp||^2. Aggregating it into one row is
    exact: its directions share the gain 0 and enter the slope only through
    these sums."""
    P, R = f.P, f.R
    k = int(f.first)
    return (([0.0] + np.vecdot(P, P).real.tolist())[k:],
            ([0.0] + np.vecdot(P, R).real.tolist())[k:],
            ([float(f.rho_perp)] + np.vecdot(R, R).real.tolist())[k:])


def _metric_slope(f: _GramFactor, rows, weight: float, mu: float, comm: bool) -> float:
    """d/d(weight) of one channel's constrained metric at its trade-off
    design: the sensing error ||X - X0||^2 if comm, else the MUI
    ||HX - D||^2, from the multiplier mu of the solve at that weight.

    Row by row of the solve (the complement and the columns of Q), with P
    and R the rows of Q^H H^H D and Q^H X0, W = weight P + (1 - weight) R,
    s = lam + mu and c = W / s (rows scaled), the budget sum ||c_i||^2 =
    tau_d P fixes mu' = [sum Re<c_i, W'_i> / s_i - sum rho_i (g_i - 1) /
    s_i^3] / sum rho_i / s_i^3, so c' = (W' - c (g - 1 + mu')) / s, and the
    MUI's slope is 2 sum g_i Re<c_i, c'_i> - 2 Re<c', P> and the sensing
    error's -2 Re<c', R>. Every inner product above is a mix of the
    `_row_products` of f, which `rows` holds. Like the secular solve, it
    runs on Python floats, over at most K+1 rows.
    """
    v = 1.0 - weight
    g = ([0.0] + f.g.tolist())[int(f.first):]  # the complement's gain is 0
    terms = []
    sum_a = sum_n = sum_nk = 0.0
    for g_i, pp, pq, qq in zip(g, *rows):
        s = weight * g_i + v + mu
        wp = weight * pp + v * pq  # Re<W_i, P_i>
        wq = weight * pq + v * qq  # Re<W_i, R_i>
        n = (weight * wp + v * wq) / (s * s)  # ||c_i||^2
        a = (wp - wq) / s  # Re<c_i, W'_i>
        sum_a += a / s
        sum_n += n / s
        sum_nk += n * (g_i - 1.0) / s
        terms.append((g_i, pp, pq, qq, s, wp, wq, n, a))
    dmu = (sum_a - sum_nk) / sum_n  # mu'
    total = 0.0
    for g_i, pp, pq, qq, s, wp, wq, n, a in terms:
        k = g_i - 1.0 + dmu  # s'
        if comm:
            total += (pq - qq - k * wq / s) / s
        else:
            total += (g_i * (a - k * n) - (pp - pq - k * wp / s)) / s
    return -2.0 * total if comm else 2.0 * total


def tradeoff_design(H, D, X0, weight: float, total_power: float) -> WaveformDesign:
    """Global minimizer of eta*||HX-D||^2 + (1-eta)*||X-X0||^2 on the power
    sphere ||X||_F^2 = tau_d * P, for one channel or each channel of a stack.

    The stationarity system (A + mu I) X = B with A = eta H^H H + (1-eta) I is
    solved exactly on the range of H^H: A has only the K+1 distinct
    eigenvalues eta g + 1 - eta there and 1 - eta on its complement, so the
    channel's K x K factor serves every weight, and a monotone Newton
    iteration on the (K+1)-pole secular equation, on Python floats, finds the
    multiplier mu that meets the power budget.
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
    weight is solved twice, and every weight reuses the channel's factor and
    one set of its products with D and X0.
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
