import numpy as np
import pytest
from scipy.optimize import minimize

from helpers import pattern_gains
from isackit import classical_design
from isackit.channel import ArrayGeometry, ChannelMatrix, steering_grid
from isackit.classical_design import (
    CovarianceTemplate,
    WaveformDesign,
    _project_psd_trace,
    _secular_solve,
    directional_covariance,
    epsilon_design,
    genie_rate,
    procrustes_waveform,
    reference_covariance_omni,
    tradeoff_design,
)
from isackit.metrics import (
    mui_power,
    per_user_sinr,
    rate_report,
    transmit_beampattern,
    waveform_covariance,
)
from isackit.waveform_learn import make_dataset

GEOM2 = ArrayGeometry(2)


# ----------------------------------------------------------------- oracles


def _pattern_objective(C, desired, V):
    return float(np.sum((pattern_gains(V, C) - desired) ** 2))


def _grid_search_2x2(desired, V, power):
    """Exhaustive + polished search over 2x2 PSD matrices with fixed trace,
    through a Cholesky-style parameterization (scale-invariant)."""

    def build(x):
        L = np.array([[x[0], 0.0], [x[1] + 1j * x[2], x[3]]])
        C = L @ L.conj().T
        tr = np.trace(C).real
        if tr < 1e-12:
            return None
        return C * (power / tr)

    def obj(x):
        C = build(x)
        if C is None:
            return 1e18
        return _pattern_objective(C, desired, V)

    best_x, best_val = None, np.inf
    axis = np.linspace(-1.0, 1.0, 9)
    for x0 in axis[axis >= 0]:
        for x1 in axis:
            for x2 in axis:
                for x3 in axis[axis >= 0]:
                    val = obj((x0, x1, x2, x3))
                    if val < best_val:
                        best_val, best_x = val, (x0, x1, x2, x3)
    res = minimize(obj, best_x, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 40000,
                            "maxfev": 40000})
    return min(best_val, res.fun)


def _random_feasible_waveform(F, tau_d, rng):
    G = rng.standard_normal((tau_d, F.shape[0])) + 1j * rng.standard_normal((tau_d, F.shape[0]))
    Q = np.linalg.qr(G)[0][:, : F.shape[0]].conj().T  # Q Q^H = I_M
    return np.sqrt(tau_d) * F @ Q


def _eta_sweep_oracle(H, D, X0, bound, mode, power):
    """Dense sweep over the trade-off weight: best attainable priority
    objective among sweep points that satisfy the epsilon constraint."""

    def metrics_of(eta):
        X = tradeoff_design(H, D, X0, eta, power).X
        sens = float(np.linalg.norm(X - X0) ** 2)
        comm = mui_power(H, X, D)
        return comm, sens

    def feasible_objective(eta):
        comm, sens = metrics_of(eta)
        if mode == "comm_priority":
            return comm if sens <= bound else np.inf
        return sens if comm <= bound else np.inf

    grid = np.linspace(0.0, 1.0, 2001)
    vals = np.array([feasible_objective(e) for e in grid])
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    fine = np.linspace(lo, hi, 801)
    return float(min(feasible_objective(e) for e in fine))


def _bisect_secular(lam, rho, target):
    """200 bisection steps on sum_i rho_i / (lam_i + mu)^2 = target over its
    own bracket: from next to the pole out to a point whose distance from the
    pole is doubled until phi there falls below the target."""

    def phi(mu):
        return float(np.sum(rho / (lam + mu) ** 2))

    lam_min = lam.min()
    scale = max(1.0, abs(lam_min))
    lo = -lam_min + 1e-14 * scale
    hi = -lam_min + scale
    while phi(hi) > target:
        hi = -lam_min + (hi + lam_min) * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _secular_solve_bracketed(lam, rho, target):
    """_secular_solve as it was before its monotone form: a doubling search
    for a bracket, then Newton on phi^(-1/2) with a bisection fallback."""

    def phi(mu):
        return float(np.sum(rho / (lam + mu) ** 2))

    eps = np.finfo(float).eps
    lam_min = lam.min()
    scale = max(1.0, abs(lam_min))
    lo = -lam_min + 1e-14 * scale
    hi = -lam_min + scale
    grew = 0
    while phi(hi) > target:
        hi = -lam_min + (hi + lam_min) * 2.0
        grew += 1
        if grew > 200:
            raise RuntimeError("secular solve failed to bracket the root")
    mu = lo
    while True:
        inv = 1.0 / (lam + mu)
        terms = rho * inv * inv
        value = float(terms.sum())
        cubic = float((terms * inv).sum())
        if abs(value - target) <= 4.0 * eps * (target + 2.0 * cubic * abs(mu)):
            return mu
        if value > target:
            lo = mu
        else:
            hi = mu
        nxt = mu + value / cubic * (np.sqrt(value / target) - 1.0)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return mu
        mu = nxt


def _project_psd_trace_loop(C, power):
    """Spectrum clip of _project_psd_trace with the clip index found by a loop."""
    lam, U = np.linalg.eigh((C + C.conj().T) / 2)
    lam_sorted = np.sort(lam)[::-1]
    csum = np.cumsum(lam_sorted)
    rho = 0
    for i in range(len(lam)):
        if lam_sorted[i] - (csum[i] - power) / (i + 1) > 0:
            rho = i
    shift = (csum[rho] - power) / (rho + 1)
    lam = np.maximum(lam - shift, 0.0)
    return (U * lam) @ U.conj().T


def _epsilon_bisection(H, D, X0, bound, mode, power):
    """Epsilon-constraint design by bisecting the weight of the public
    tradeoff_design down to a 1e-12 wide interval, keeping the satisfied side."""

    def constraint(X):
        if mode == "comm_priority":
            return float(np.linalg.norm(X - X0) ** 2)
        return mui_power(H, X, D)

    best_eta = 1.0 if mode == "comm_priority" else 0.0
    X = tradeoff_design(H, D, X0, best_eta, power).X
    if constraint(X) <= bound:
        return X, bound - constraint(X)
    feas, infeas = 1.0 - best_eta, best_eta
    while abs(infeas - feas) > 1e-12:
        mid = 0.5 * (feas + infeas)
        if constraint(tradeoff_design(H, D, X0, mid, power).X) <= bound:
            feas = mid
        else:
            infeas = mid
    X = tradeoff_design(H, D, X0, feas, power).X
    return X, bound - constraint(X)


# ------------------------------------------------------------ omni template


def test_omni_template_matrix():
    tpl = reference_covariance_omni(1.0, 4)
    assert np.allclose(tpl.matrix, 0.25 * np.eye(4))
    assert np.isclose(np.trace(tpl.matrix).real, 1.0)


def test_omni_template_flat_beampattern():
    tpl = reference_covariance_omni(2.0, 8)
    curve = transmit_beampattern(tpl.matrix, np.linspace(-1.5, 1.5, 50),
                                 ArrayGeometry(8))
    assert np.allclose(curve.gains, 2.0, atol=1e-12)


def test_template_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        CovarianceTemplate(np.array([[1.0, 1.0], [0.0, 1.0]]), 2.0)
    with pytest.raises(ValueError, match="trace"):
        CovarianceTemplate(np.eye(2), 3.0)
    with pytest.raises(ValueError, match="PSD"):
        CovarianceTemplate(np.diag([3.0, -1.0]), 2.0)
    # the PSD tolerance is relative to the power, like the trace tolerance
    with pytest.raises(ValueError, match="PSD"):
        CovarianceTemplate(np.diag([1.0 + 1e-7, -1e-7]), 1.0)
    CovarianceTemplate(np.diag([1e8 + 0.5, -0.5]), 1e8)
    # the Hermitian test takes its norms through hypot: np.linalg.norm of C
    # overflowed at 1e300
    with pytest.raises(ValueError, match="Hermitian"):
        CovarianceTemplate(np.array([[1.0, 1e-6], [0.0, 1.0]]) * 5e299, 1e300)
    # every tolerance is relative to the template, also below unit power:
    # with floors of 1e-8 this matrix (neither Hermitian nor PSD, trace 0)
    # passed at power 1e-300
    with pytest.raises(ValueError, match="Hermitian"):
        CovarianceTemplate(np.array([[1e-9, 1e-9j], [0.0, -1e-9]]), 1e-300)
    with pytest.raises(ValueError, match="trace"):
        CovarianceTemplate(np.eye(2) * 1e-9, 1e-300)
    with pytest.raises(ValueError, match="PSD"):
        CovarianceTemplate(np.diag([2e-300, -1e-300]), 1e-300)


# ------------------------------------------------------- directional matching


def test_directional_single_target_peak():
    geom = ArrayGeometry(32)
    theta0 = np.deg2rad(17.0)
    tpl = directional_covariance([theta0], 1.0, geom)
    grid = np.deg2rad(np.arange(-90.0, 91.0))
    curve = transmit_beampattern(tpl.matrix, grid, geom)
    peak = grid[np.argmax(curve.gains)]
    assert abs(peak - theta0) <= np.deg2rad(1.0) + 1e-9


def test_directional_three_targets_local_maxima():
    geom = ArrayGeometry(16)
    targets = np.array([-np.pi / 3, 0.0, np.pi / 3])
    tpl = directional_covariance(targets, 1.0, geom)
    grid = np.deg2rad(np.linspace(-90.0, 90.0, 721))
    g = transmit_beampattern(tpl.matrix, grid, geom).gains
    interior = (g[1:-1] > g[:-2]) & (g[1:-1] > g[2:])
    peaks = grid[1:-1][interior]
    heights = g[1:-1][interior]
    top3 = np.sort(peaks[np.argsort(heights)[-3:]])
    assert np.all(np.abs(top3 - targets) <= np.deg2rad(2.0))


def test_directional_2x2_matches_grid_search_oracle():
    power = 1.0
    grid = np.deg2rad(np.arange(-90.0, 91.0))
    V = steering_grid(grid, GEOM2)
    desired = np.zeros(grid.shape)
    desired[np.abs(grid) <= np.deg2rad(5.0)] = 4.0 * power * 2.0
    oracle = _grid_search_2x2(desired, V, power)
    tpl = directional_covariance([0.0], power, GEOM2)
    ours = _pattern_objective(tpl.matrix, desired, V)
    assert abs(ours - oracle) <= 1e-6


def test_directional_requires_targets_and_converges(monkeypatch):
    with pytest.raises(ValueError, match="target"):
        directional_covariance([], 1.0, GEOM2)
    monkeypatch.setattr(classical_design, "_FISTA_MAX_ITERS", 2)
    with pytest.raises(RuntimeError, match="converge in 2 iterations .*Frank-Wolfe gap"):
        directional_covariance([0.3], 1.0, ArrayGeometry(8))


# target sets of the gap and uniqueness tests: the case1_beampattern
# default, two symmetric lobes, one lobe, and four lobes off the degree grid
_TARGET_SETS = (np.deg2rad([-60.0, 0.0, 60.0]), np.array([0.5, -0.5]), np.array([0.3]),
                np.array([-0.71, -0.17, 0.44, 0.87]))


def _template_gap(C, targets, M, grid=classical_design._PATTERN_GRID):
    """The Frank-Wolfe gap of a unit-power template and the fit's objective,
    from the steering-grid oracles: Re<grad f, C> - lambda_min(grad f), with
    grad f = 2 V diag(r) V^H for the residual r of the gains."""
    V = steering_grid(grid, ArrayGeometry(M))
    dist = np.min(np.abs(grid[:, None] - np.asarray(targets)[None, :]), axis=1)
    desired = np.where(dist <= np.deg2rad(5.0), 4.0 * M / len(targets), 0.0)
    gains = pattern_gains(V, C)
    r = gains - desired
    grad = (V * (2.0 * r)) @ V.conj().T
    return float(2.0 * r @ gains) - np.linalg.eigvalsh(grad)[0], float(r @ r)


@pytest.mark.parametrize("M", [4, 7, 16, 33, 64])
def test_directional_returns_within_its_gap_bound(M):
    # the oracle gap differs from the fit's own by rounding, which the
    # allowance of 1e-12 of the objective covers
    for targets in _TARGET_SETS:
        C = directional_covariance(targets, 1.0, ArrayGeometry(M)).matrix
        gap, obj = _template_gap(C, targets, M)
        assert gap <= (classical_design._GAP_TOL + 1e-12) * obj, (M, targets)


@pytest.mark.parametrize("M", [8, 32])
def test_directional_gains_unique_within_root_gap(monkeypatch, M):
    # f = ||gains - desired||^2 is strictly convex in the gains, so any
    # template C has ||gains(C) - gains*||^2 <= f(C) - f* <= gap(C): two fits
    # of the grid moved by one ulp agree within the sum of their root gaps
    geom = ArrayGeometry(M)
    grid = classical_design._PATTERN_GRID
    moved = np.nextafter(grid, np.inf)
    for targets in _TARGET_SETS[1:]:
        # no grid angle lies within 1e-9 of a mask edge, so the mask stays
        edge = np.abs(np.abs(grid[:, None] - targets) - np.deg2rad(5.0))
        assert edge.min() > 1e-9
        first = directional_covariance(targets, 1.0, geom).matrix
        with monkeypatch.context() as m:
            m.setattr(classical_design, "_PATTERN_GRID", moved)
            second = directional_covariance(targets, 1.0, geom).matrix
        assert not np.array_equal(first, second)
        V = steering_grid(grid, geom)
        bound = (np.sqrt(_template_gap(first, targets, M)[0])
                 + np.sqrt(_template_gap(second, targets, M, moved)[0]))
        assert np.linalg.norm(pattern_gains(V, first) - pattern_gains(V, second)) <= bound


def test_directional_template_is_the_unit_power_fit_scaled():
    # the fit runs at unit power, so its objective stays finite at 1e300
    # (where the backtracking once never ended) and 1e8 passes the PSD test
    geom = ArrayGeometry(8)
    unit = directional_covariance([0.5, -0.5], 1.0, geom).matrix
    for power in (1e-300, 3.0, 1e8, 1e300):
        tpl = directional_covariance([0.5, -0.5], power, geom)
        assert np.array_equal(tpl.matrix, power * unit) and tpl.power == power


def test_directional_output_is_valid_template():
    tpl = directional_covariance([0.5, -0.5], 3.0, ArrayGeometry(8))
    assert np.isclose(np.trace(tpl.matrix).real, 3.0, atol=1e-8)
    assert np.linalg.eigvalsh(tpl.matrix).min() >= -1e-10


def test_project_psd_trace_matches_loop(rng):
    for M in (1, 2, 5, 16):
        for _ in range(20):
            G = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
            C = G + G.conj().T
            power = rng.uniform(0.1, 3.0)
            assert np.array_equal(_project_psd_trace(C, power),
                                  _project_psd_trace_loop(C, power))


# ---------------------------------------------------------------- procrustes


def test_procrustes_covariance_constraint_zero_channel(rng):
    tpl = reference_covariance_omni(1.0, 4)
    H = np.zeros((2, 4))
    D = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    design = procrustes_waveform(tpl, H, D, 6)
    cov = waveform_covariance(design.X)
    assert np.linalg.norm(cov - tpl.matrix) <= 1e-8


def test_procrustes_beats_random_feasible_points(rng):
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    C = G @ G.conj().T
    C *= 1.0 / np.trace(C).real
    tpl = CovarianceTemplate(C, 1.0)
    H = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
    D = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
    design = procrustes_waveform(tpl, H, D, 2)
    ours = mui_power(H, design.X, D)
    lam, U = np.linalg.eigh(C)
    F = (U * np.sqrt(np.maximum(lam, 0))) @ U.conj().T
    rivals = [mui_power(H, _random_feasible_waveform(F, 2, rng), D)
              for _ in range(10000)]
    assert ours <= min(rivals) + 1e-9


def test_procrustes_rejects_short_frames(rng):
    tpl = reference_covariance_omni(1.0, 16)
    H = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    D = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
    with pytest.raises(ValueError, match="frame length"):
        procrustes_waveform(tpl, H, D, 10)


def test_procrustes_random_template_constraint(rng):
    for _ in range(5):
        M, K, tau = 3, 2, 7
        G = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        C = G @ G.conj().T
        C *= 2.0 / np.trace(C).real
        tpl = CovarianceTemplate(C, 2.0)
        H = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        D = rng.standard_normal((K, tau)) + 1j * rng.standard_normal((K, tau))
        design = procrustes_waveform(tpl, H, D, tau)
        assert np.linalg.norm(waveform_covariance(design.X) - C) <= 1e-8


# ----------------------------------------------------------------- trade-off


def _random_instance(rng, M=2, K=2, tau=4, power=1.0):
    H = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
    D = rng.standard_normal((K, tau)) + 1j * rng.standard_normal((K, tau))
    X0 = procrustes_waveform(reference_covariance_omni(power, M), H, D, tau).X
    return H, D, X0


def test_tradeoff_pure_sensing_rescales_reference(rng):
    H, D, X0 = _random_instance(rng)
    design = tradeoff_design(H, D, X0, 0.0, 1.0)
    scale = np.sqrt(4 * 1.0) / np.linalg.norm(X0)
    assert np.allclose(design.X, scale * X0, atol=1e-9)


def test_tradeoff_pure_comm_exact_inverse(rng):
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    D = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    Xstar = np.linalg.solve(H, D)
    power = np.linalg.norm(Xstar) ** 2 / 5
    X0 = np.zeros((3, 5), dtype=complex)
    design = tradeoff_design(H, D, X0 + 1e-30, 1.0, power)
    assert np.allclose(design.X, Xstar, atol=1e-6)
    assert mui_power(H, design.X, D) <= 1e-10


def test_tradeoff_two_point_oracle(rng):
    # 1x1 real: feasible set is exactly {+sqrt(P), -sqrt(P)}
    for _ in range(20):
        h = rng.standard_normal()
        d = rng.standard_normal()
        x0 = rng.standard_normal()
        eta = rng.uniform(0, 1)
        P = rng.uniform(0.2, 3.0)
        design = tradeoff_design(np.array([[h]]), np.array([[d]]),
                                 np.array([[x0]]), eta, P)

        def obj(x):
            return eta * abs(h * x - d) ** 2 + (1 - eta) * abs(x - x0) ** 2

        best = min((obj(s * np.sqrt(P)) for s in (1.0, -1.0)))
        assert obj(complex(design.X[0, 0])) <= best + 1e-9


def test_tradeoff_power_equality(rng):
    H, D, X0 = _random_instance(rng, M=3, K=2, tau=5)
    for eta in (0.0, 0.3, 0.7, 1.0):
        design = tradeoff_design(H, D, X0, eta, 2.5)
        assert abs(np.linalg.norm(design.X) ** 2 / 5 - 2.5) <= 1e-6 * 2.5


def test_tradeoff_pareto_monotone(rng):
    H, D, X0 = _random_instance(rng, M=4, K=3, tau=6)
    etas = np.linspace(0, 1, 11)
    mui = []
    sens = []
    for eta in etas:
        X = tradeoff_design(H, D, X0, eta, 1.0).X
        mui.append(mui_power(H, X, D))
        sens.append(np.linalg.norm(X - X0) ** 2)
    assert np.all(np.diff(mui) <= 1e-8)
    assert np.all(np.diff(sens) >= -1e-8)


def test_tradeoff_hard_case_fills_power(rng):
    # eta=1 with K < M: Gram matrix is singular and the least-squares optimum
    # undershoots the budget, so the null space must absorb the deficit
    H = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
    D = 0.01 * (rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
    design = tradeoff_design(H, D, np.zeros((3, 4)), 1.0, 5.0)
    assert abs(np.linalg.norm(design.X) ** 2 / 4 - 5.0) <= 1e-6 * 5.0
    assert mui_power(H, design.X, D) <= 1e-12


def test_tradeoff_continuous_at_weight_one():
    """K < M: the hard case at weight 1 fills the power deficit along the
    limit of the weights below it, X0's part in the null space of H."""
    for i in range(20):
        s = make_dataset(1, 16, 4, 32, np.random.default_rng(1234 + i))[0]
        X = {w: tradeoff_design(s.H, s.D, s.X0, w, 1.0).X
             for w in (1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 2.0 ** -40, 1.0)}
        sens = [np.linalg.norm(X[w] - s.X0.X) ** 2 for w in (1.0 - 1e-9, 1.0 - 2.0 ** -40)]
        ref = np.linalg.norm(X[1.0] - s.X0.X) ** 2
        assert np.allclose(sens, ref, rtol=1e-4, atol=0.0)
        assert np.linalg.norm(X[1.0] - X[1.0 - 1e-6]) <= 1e-6 * np.linalg.norm(X[1.0])


def test_tradeoff_zero_objective_is_the_hard_case():
    """D = X0 = 0 leaves W = 0 at every weight: the hard case with boundary
    value 0 spends the budget in the null space of H, the minimal
    eigenspace of A."""
    H = np.array([[1.0, 0.0]])
    for weight in (0.0, 0.5, 1.0):
        design = tradeoff_design(H, np.zeros((1, 3)), np.zeros((2, 3)), weight, 1.0)
        assert abs(np.linalg.norm(design.X) ** 2 / 3 - 1.0) <= 1e-12
        assert mui_power(H, design.X, np.zeros((1, 3))) == 0.0


def test_tradeoff_scipy_cross_check(rng):
    # free optimization over the sphere, compared on the objective
    H, D, X0 = _random_instance(rng, M=2, K=2, tau=3)
    eta, P, tau = 0.6, 1.0, 3

    def objective(z):
        X = (z[: 2 * tau * 2 // 2].reshape(2, tau)
             + 1j * z[2 * tau:].reshape(2, tau))
        X = X * np.sqrt(tau * P) / np.linalg.norm(X)
        return (eta * mui_power(H, X, D)
                + (1 - eta) * np.linalg.norm(X - X0) ** 2)

    best = np.inf
    for seed in range(8):
        z0 = np.random.default_rng(seed).standard_normal(2 * 2 * tau)
        res = minimize(objective, z0, method="Nelder-Mead",
                       options={"maxiter": 40000, "maxfev": 40000,
                                "xatol": 1e-10, "fatol": 1e-12})
        best = min(best, res.fun)
    design = tradeoff_design(H, D, X0, eta, P)
    ours = (eta * mui_power(H, design.X, D)
            + (1 - eta) * np.linalg.norm(design.X - X0) ** 2)
    assert ours <= best + 1e-6


def _secular_spectra(rng, M=16, K=4):
    """(lam, rho, target) triples at the case1 shape: the minimal eigenvalue
    1 - eta has multiplicity M - K. Generic targets, targets just below the
    boundary value with no weight on the minimal eigenspace, and targets just
    above it with a tiny weight there."""
    for trial in range(90):
        eta = rng.uniform(0.05, 0.95)
        g = np.concatenate([np.zeros(M - K), rng.uniform(0.5, 20.0, K)])
        lam = eta * g + (1.0 - eta)
        rho = rng.uniform(0.1, 10.0, M)
        gap = lam - lam.min()
        pos = gap > 0
        boundary = float(np.sum(rho[pos] / gap[pos] ** 2))
        if trial % 3 == 0:
            target = float(np.sum(rho / (gap + rng.uniform(0.01, 5.0)) ** 2))
        elif trial % 3 == 1:
            rho[~pos] = 0.0
            target = boundary * (1.0 - 10.0 ** rng.uniform(-9, -3))
        else:
            rho[~pos] = 10.0 ** rng.uniform(-14, -8)
            target = boundary * (1.0 + 10.0 ** rng.uniform(-9, -3))
        yield lam, rho, target


def test_secular_solve_matches_bisection_oracle(rng):
    for lam, rho, target in _secular_spectra(rng):
        mu = _secular_solve(lam, rho, target)
        ref = _bisect_secular(lam, rho, target)
        assert abs(mu - ref) <= 1e-12 * abs(ref)
    # unequal eigenvalues with a spread of scales, shifted negative
    for _ in range(30):
        lam = np.sort(rng.uniform(-3.0, 40.0, 7))
        rho = 10.0 ** rng.uniform(-3, 2, 7)
        target = float(np.sum(rho / (lam - lam[0] + rng.uniform(0.001, 10.0)) ** 2))
        mu = _secular_solve(lam, rho, target)
        ref = _bisect_secular(lam, rho, target)
        assert abs(mu - ref) <= 1e-12 * abs(ref)


def test_secular_solve_matches_bracketed_oracle(rng):
    """1,000 spectra: repeated minimal eigenvalues, shifts in [-5, 5], rho
    from 1e-16 to 1e3 and roots 1e-8 to 1e3 above the pole. The tolerance is
    relative to the larger of |mu| and the root's distance from the pole:
    a root near mu = 0 is fixed only to the roundoff of lam + mu."""
    for _ in range(1000):
        M = int(rng.integers(2, 17))
        lam = np.sort(rng.uniform(0.0, 30.0, M)) + rng.uniform(-5.0, 5.0)
        lam[:rng.integers(1, M)] = lam[0]
        rho = 10.0 ** rng.uniform(-16, 3, M)
        gap = 10.0 ** rng.uniform(-8, 3)
        target = float(np.sum(rho / (lam - lam[0] + gap) ** 2))
        mu = _secular_solve(lam, rho, target)
        ref = _secular_solve_bracketed(lam, rho, target)
        assert abs(mu - ref) <= 1e-12 * max(abs(ref), lam[0] + ref)


def test_secular_solve_names_the_target_it_cannot_step_from():
    # phi' underflows to 0 at the start, so no Newton step can be formed
    with pytest.raises(RuntimeError, match="target 1.000e-300"):
        _secular_solve(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 1e-300)


def test_tradeoff_kkt_optimality(rng):
    # global optimality on the sphere: (A + mu I) X = B with A + mu I PSD
    M, K, tau, P = 16, 4, 32, 1.0
    for _ in range(3):
        H, D, X0 = _random_instance(rng, M=M, K=K, tau=tau, power=P)
        gram = H.conj().T @ H
        for eta in np.linspace(0.0, 1.0, 10):
            X = tradeoff_design(H, D, X0, eta, P).X
            assert abs(np.linalg.norm(X) ** 2 - tau * P) <= 1e-12 * tau * P
            A = eta * gram + (1.0 - eta) * np.eye(M)
            B = eta * H.conj().T @ D + (1.0 - eta) * X0
            AX = A @ X
            mu = np.vdot(X, B - AX).real / np.linalg.norm(X) ** 2
            assert np.linalg.norm(AX + mu * X - B) <= 1e-10 * np.linalg.norm(B)
            lam_min = np.linalg.eigvalsh(A).min()
            assert mu >= -lam_min - 1e-10 * max(1.0, abs(lam_min))


@pytest.mark.parametrize("design", [
    lambda H, D, X0: tradeoff_design(H, D, X0, 0.5, 1.0),
    lambda H, D, X0: epsilon_design(H, D, X0, 1.0, "comm_priority", 1.0),
    lambda H, D, X0: epsilon_design(H, D, X0, 1.0, "sens_priority", 1.0),
], ids=["tradeoff", "epsilon_comm", "epsilon_sens"])
def test_tradeoff_and_epsilon_dimension_mismatch(rng, design):
    H, D, X0 = _random_instance(rng, M=3, K=2, tau=5)
    for args in ((H, D[:, :-1], X0), (H, D, X0[:, :-1]), (H[:, :-1], D, X0),
                 (H, D[:-1], X0)):
        with pytest.raises(ValueError, match="dimension mismatch between H, D, X0"):
            design(*args)


# ------------------------------------------------------------------- epsilon


def test_epsilon_inactive_equals_pure_comm(rng):
    H, D, X0 = _random_instance(rng)
    design, slack = epsilon_design(H, D, X0, np.inf, "comm_priority", 1.0)
    pure = tradeoff_design(H, D, X0, 1.0, 1.0)
    assert np.allclose(design.X, pure.X, atol=1e-9)
    assert slack == np.inf


def test_epsilon_boundary_matches_single_objective(rng):
    H, D, X0 = _random_instance(rng)
    floor_design = tradeoff_design(H, D, X0, 0.0, 1.0)
    floor = np.linalg.norm(floor_design.X - X0) ** 2
    design, slack = epsilon_design(H, D, X0, floor * (1 + 1e-9),
                                   "comm_priority", 1.0)
    achieved = np.linalg.norm(design.X - X0) ** 2
    assert abs(achieved - floor) <= 1e-6 * max(1.0, floor)


def test_epsilon_midrange_matches_eta_sweep(rng):
    H, D, X0 = _random_instance(rng)
    lo = np.linalg.norm(tradeoff_design(H, D, X0, 0.0, 1.0).X - X0) ** 2
    hi = np.linalg.norm(tradeoff_design(H, D, X0, 1.0, 1.0).X - X0) ** 2
    bound = 0.5 * (lo + hi)
    design, slack = epsilon_design(H, D, X0, bound, "comm_priority", 1.0)
    achieved = bound - slack
    assert 0 <= slack <= 1e-4 * max(1.0, bound)  # constraint active
    oracle = _eta_sweep_oracle(H, D, X0, bound, "comm_priority", 1.0)
    assert abs(mui_power(H, design.X, D) - oracle) <= 1e-4


def test_epsilon_sens_priority_midrange(rng):
    H, D, X0 = _random_instance(rng, M=3, K=2, tau=5)
    lo = mui_power(H, tradeoff_design(H, D, X0, 1.0, 1.0).X, D)
    hi = mui_power(H, tradeoff_design(H, D, X0, 0.0, 1.0).X, D)
    bound = 0.5 * (lo + hi)
    design, slack = epsilon_design(H, D, X0, bound, "sens_priority", 1.0)
    assert 0 <= slack <= 1e-4 * max(1.0, bound)
    oracle = _eta_sweep_oracle(H, D, X0, bound, "sens_priority", 1.0)
    assert abs(np.linalg.norm(design.X - X0) ** 2 - oracle) <= 1e-4


def test_epsilon_infeasible_raises(rng):
    H, D, X0 = _random_instance(rng)
    # a reference off the power sphere cannot be reproduced exactly, so a tiny
    # sensing budget is unreachable even at eta=0
    with pytest.raises(ValueError, match="epsilon infeasible"):
        epsilon_design(H, D, 1.5 * X0, 1e-12, "comm_priority", 1.0)
    with pytest.raises(ValueError, match="mode"):
        epsilon_design(H, D, X0, 1.0, "both", 1.0)


@pytest.mark.parametrize("mode", ["comm_priority", "sens_priority"])
def test_epsilon_matches_public_bisection(rng, mode):
    for M, K, tau in ((2, 2, 4), (3, 2, 5), (16, 4, 32)):
        H, D, X0 = _random_instance(rng, M=M, K=K, tau=tau)
        ends = [tradeoff_design(H, D, X0, eta, 1.0).X for eta in (0.0, 1.0)]
        if mode == "comm_priority":
            values = [np.linalg.norm(X - X0) ** 2 for X in ends]
        else:
            values = [mui_power(H, X, D) for X in ends]
        for bound in (0.5 * sum(values), 0.9 * values[0] + 0.1 * values[1],
                      2.0 * max(values)):
            design, slack = epsilon_design(H, D, X0, bound, mode, 1.0)
            X_ref, slack_ref = _epsilon_bisection(H, D, X0, bound, mode, 1.0)
            assert np.linalg.norm(design.X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)
            assert abs(slack - slack_ref) <= 1e-9 * max(1.0, bound)


def _epsilon_draws(rng, reps=5):
    """(H, D, X0, bound, mode) draws: `reps` instances at each of the shapes
    (M, K, tau) = (2, 2, 4), (3, 2, 5) and (16, 4, 32), both modes, and four
    bounds from the constraint values v0, v1 at weights 0 and 1: the mean,
    0.9 v0 + 0.1 v1, 0.1 v0 + 0.9 v1 and 2 max (the inactive case). When
    K < M the weight-1 design fills the power deficit along the limit of the
    weights below it, so the comm_priority sensing error is continuous there
    and the mixed bounds put generic roots inside (0, 1)."""
    for _ in range(reps):
        for M, K, tau in ((2, 2, 4), (3, 2, 5), (16, 4, 32)):
            H, D, X0 = _random_instance(rng, M=M, K=K, tau=tau)
            ends = [tradeoff_design(H, D, X0, eta, 1.0).X for eta in (0.0, 1.0)]
            for mode in ("comm_priority", "sens_priority"):
                if mode == "comm_priority":
                    v0, v1 = (np.linalg.norm(X - X0) ** 2 for X in ends)
                else:
                    v0, v1 = (mui_power(H, X, D) for X in ends)
                for bound in (0.5 * (v0 + v1), 0.9 * v0 + 0.1 * v1,
                              0.1 * v0 + 0.9 * v1, 2.0 * max(v0, v1)):
                    yield H, D, X0, bound, mode


def test_epsilon_design_is_the_bisection_bit_for_bit(rng):
    """The root search returns the weight a 40-step bisection returns, so the
    design and the slack are identical to the oracle's, not just close."""
    draws = list(_epsilon_draws(rng))
    assert len(draws) == 120
    for H, D, X0, bound, mode in draws:
        design, slack = epsilon_design(H, D, X0, bound, mode, 1.0)
        X_ref, slack_ref = _epsilon_bisection(H, D, X0, bound, mode, 1.0)
        assert np.array_equal(design.X, X_ref)
        assert slack == slack_ref


def test_epsilon_design_solve_counts(rng, monkeypatch):
    """Trade-off solves per epsilon_design call; a 40-step bisection needs 42.

    On the 50 case1 benchmark channels (M=16, K=4, tau=32, seed 211) with
    the bound halfway between the constrained metric at weights 0 and 1, the
    sens_priority mean must stay <= 9 and the max <= 13 (measured: mean
    8.06, max 9), and the comm_priority mean <= 11 and the max <= 15
    (measured: mean 9.62, max 11), where the search runs on the weight grid
    counted down from 1. Newton's steps start at weight 0 for sens_priority
    and, after a first bisection to weight 0.5, inside (0, 1) for
    comm_priority. On every draw of the bit-for-bit test, at most 18 solves
    (measured worst 16 on these draws and 16 over 4,800 draws of the same
    kind, seeds 1000-1039)."""
    calls = []  # the weight of every trade-off solve
    solve = classical_design._tradeoff_solve

    def counted(f, weight, power):
        calls.append(weight)
        return solve(f, weight, power)

    monkeypatch.setattr(classical_design, "_tradeoff_solve", counted)
    counts = {"sens_priority": [], "comm_priority": []}
    for s in make_dataset(50, 16, 4, 32, np.random.default_rng(211)):
        ends = [tradeoff_design(s.H, s.D, s.X0, eta, 1.0).X for eta in (0.0, 1.0)]
        bounds = {"sens_priority": 0.5 * sum(mui_power(s.H, X, s.D) for X in ends),
                  "comm_priority": 0.5 * sum(np.linalg.norm(X - s.X0.X) ** 2
                                             for X in ends)}
        for mode, bound in bounds.items():
            calls.clear()
            epsilon_design(s.H, s.D, s.X0, bound, mode, 1.0)
            counts[mode].append(len(calls))
            assert len(set(calls)) == len(calls)  # no weight solved twice
    sens, comm = counts["sens_priority"], counts["comm_priority"]
    assert np.mean(sens) <= 9 and max(sens) <= 13
    assert np.mean(comm) <= 11 and max(comm) <= 15
    for H, D, X0, bound, mode in _epsilon_draws(rng):
        calls.clear()
        epsilon_design(H, D, X0, bound, mode, 1.0)
        assert len(calls) <= 18
        assert len(set(calls)) == len(calls)


def _cell_search(miss, cells, slope):
    """_first_feasible_cell on the grid 0..cells, every evaluation of miss
    recorded, the two at the ends included."""
    seen = []

    def counted(x):
        seen.append(x)
        return miss(x)

    f_lo = counted(0)
    counted(cells)
    return classical_design._first_feasible_cell(counted, cells, f_lo, slope), seen


def _logistic(v):
    return 1.0 / (1.0 + np.exp((v - 0.1) / 0.01))


@pytest.mark.parametrize("miss, slope", [
    (lambda v: (1.0 + v) ** -4 - 1.37 ** -4, lambda v: -4.0 * (1.0 + v) ** -5),
    (lambda v: _logistic(v) - 0.935,
     lambda v: -_logistic(v) * (1.0 - _logistic(v)) / 0.01)])
def test_a_slope_takes_fewer_evaluations_than_bisection(miss, slope):
    # two smooth misses on a 2^40-cell grid over [0.01, 4]: Newton's steps
    # need 9 and 12 evaluations, a bisection 42, to the same cell
    cells = 2 ** 40
    width = 3.99 / cells
    x, seen = _cell_search(lambda x: miss(0.01 + x * width), cells,
                           lambda x: slope(0.01 + x * width) * width)
    x_bisect, seen_bisect = _cell_search(lambda x: miss(0.01 + x * width),
                                         cells, lambda x: None)
    assert x == x_bisect
    assert miss(0.01 + x * width) <= 0 < miss(0.01 + (x - 1) * width)
    assert len(seen) <= 12 < len(seen_bisect) == 42


def test_a_slope_within_a_cell_does_not_walk_the_grid():
    # exp(-2x) - 1e-300 on the integer grid 0..2^40: from the infeasible
    # side, Newton's step is half a cell at every point, so one-cell steps,
    # were they not followed by a bisection, would walk the 345 cells up to
    # the root (50 evaluations measured)
    def miss(x):
        return np.exp(-2.0 * x) - 1e-300

    def slope(x):
        return -2.0 * np.exp(-2.0 * x)

    x, seen = _cell_search(miss, 2 ** 40, slope)
    assert x == 346 and 345 in seen
    assert len(seen) <= 2 + 4 * 40


def test_a_zero_miss_at_newtons_point_steps_one_cell():
    # miss(x) = c - x: Newton's first point is c, where the miss is 0.0, so
    # its next point is c itself, an end of the bracket; the step moves one
    # cell to c - 1 and closes the bracket, rather than bisecting from c
    c = 3 * 2 ** 37
    x, seen = _cell_search(lambda x: float(c - x), 2 ** 40, lambda x: -1.0)
    assert x == c and seen == [0, 2 ** 40, c, c - 1]


@pytest.mark.parametrize("cells", [7, 1000, 2 ** 40])
@pytest.mark.parametrize("with_slope", [False, True])
def test_first_feasible_cell_on_a_step_miss(cells, with_slope):
    # a step miss on the integer grid 0..cells, feasible (<= 0) from cell c
    # on, with random heights on either side, and Newton's steps on the
    # slope of the infeasible side, which point past the jump at c: the
    # search returns c, evaluating each cell once
    rng = np.random.default_rng(cells)
    jumps = {1, 2, cells - 1, cells} | set(rng.integers(1, cells, 20).tolist())
    for c in sorted(jumps):
        a, b = 10.0 ** rng.uniform(-12, 2, 2)
        steep = rng.uniform(0, 1)

        def miss(x):
            return a + steep * (c - x) / cells if x < c else -b

        def slope(x):  # none on the flat feasible side
            return -steep / cells if with_slope and x < c else None

        x, seen = _cell_search(miss, cells, slope)
        inside = seen[2:]
        assert all(isinstance(v, int) and 0 < v < cells for v in inside)
        assert len(set(inside)) == len(inside)
        assert x == c and c - 1 in seen
        assert len(seen) <= 2 + 4 * np.log2(cells)


@pytest.mark.parametrize("mode", ["comm_priority", "sens_priority"])
def test_metric_slope_matches_central_differences(rng, mode):
    """The closed-form slope that steers epsilon_design's Newton steps is the
    derivative of the constrained metric of the solved designs: within 1e-6
    relative of a central difference with step 1e-5 in the weight (measured
    worst 1.4e-8 over 60 instances), at weights away from the hard case."""
    comm = mode == "comm_priority"
    for _ in range(3):
        for M, K, tau in ((2, 2, 4), (3, 2, 5), (16, 4, 32)):
            H, D, X0 = _random_instance(rng, M=M, K=K, tau=tau)
            f = classical_design._factor(H, D, X0)
            rows = classical_design._row_products(f)

            def metric(weight):
                X, mu = classical_design._tradeoff_solve(f, weight, 1.0)
                return float(np.linalg.norm(X - X0 if comm else H @ X - D) ** 2), float(mu)

            for weight in (0.1, 0.3, 0.7, 0.9):
                _, mu = metric(weight)
                assert np.isfinite(mu)  # not the hard case
                slope = classical_design._metric_slope(f, rows, weight, mu, comm)
                h = 1e-5
                central = (metric(weight + h)[0] - metric(weight - h)[0]) / (2 * h)
                assert abs(slope - central) <= 1e-6 * abs(central)


# --------------------------------------------------------------------- genie


def test_genie_rate_unit_power():
    D = np.exp(1j * np.pi / 4 * np.arange(12)).reshape(3, 4)
    report = genie_rate(D, 1.0)
    assert np.allclose(report.per_user_sinr, 1.0)
    assert np.isclose(report.sum_rate, 3.0)
    assert np.allclose(genie_rate(D, 0.1).per_user_sinr, 10.0)


def test_genie_matches_interference_free_construction(rng):
    D = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    report = genie_rate(D, 0.5)
    direct = per_user_sinr(np.eye(3), D, D, 0.5)
    assert np.allclose(report.per_user_sinr, direct)


# ------------------------------------------------------ shared invariants


def test_all_designs_nonnegative_beampattern(rng):
    geom = ArrayGeometry(4)
    H = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    D = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    omni = reference_covariance_omni(1.0, 4)
    designs = [
        procrustes_waveform(omni, H, D, 6),
        tradeoff_design(H, D, procrustes_waveform(omni, H, D, 6), 0.5, 1.0),
    ]
    grid = np.linspace(-np.pi / 2, np.pi / 2, 181)
    for design in designs:
        cov = waveform_covariance(design.X)
        assert transmit_beampattern(cov, grid, geom).gains.min() >= -1e-9


def test_waveform_design_validation():
    # a solver frame must meet the budget exactly; a learned frame only has
    # to stay inside the power ball
    with pytest.raises(ValueError, match="power"):
        WaveformDesign(np.eye(2), 5.0)
    with pytest.raises(ValueError, match="power"):
        WaveformDesign(np.eye(2), 0.5, exact_power=False)
    inside = np.eye(2, 4) * np.sqrt(2.0)  # ||X||^2 / tau = 1
    with pytest.raises(ValueError, match="power"):
        WaveformDesign(inside, 4.0)
    assert WaveformDesign(inside, 4.0, exact_power=False).frame_length == 4
    assert WaveformDesign(inside, 1.0).frame_length == 4


def test_waveform_design_stack_checks_power_per_frame():
    inside = np.eye(2, 4) * np.sqrt(2.0)  # ||X||^2 / tau = 1
    stack = np.stack([inside, inside])
    assert WaveformDesign(stack, 1.0).frame_length == 4
    stack[1] *= 0.5  # one frame inside the ball
    with pytest.raises(ValueError, match="power"):
        WaveformDesign(stack, 1.0)
    WaveformDesign(stack, 1.0, exact_power=False)
    stack[0] *= 3.0  # one frame outside it
    with pytest.raises(ValueError, match="power"):
        WaveformDesign(stack, 1.0, exact_power=False)
    with pytest.raises(ValueError, match="matrix"):
        WaveformDesign(np.ones(4), 1.0)


def test_per_channel_solvers_reject_a_stack():
    ds = make_dataset(3, 4, 2, 4, np.random.default_rng(5))
    with pytest.raises(ValueError, match="epsilon_design"):
        epsilon_design(ds.H, ds.D, ds.X0, 1.0, "comm_priority", 1.0)
    # one item of the stack is one channel
    epsilon_design(ds[0].H, ds[0].D, ds[0].X0, 1.0, "comm_priority", 1.0)


# ------------------------------------------- stacks against per-channel loops


def _edge_case_stack(rng, B=6, M=6, K=2, tau=8):
    """A (B, K, M) trade-off stack with K < M and, at weight 1: item 0 on a
    weak channel, whose least-squares frame overshoots the budget (the
    secular branch); item 1 with small symbols, whose frame undershoots it
    (the hard case); item 2 with D = X0 = 0, so W = 0 at every weight;
    item 3 with D = 0, so W = 0 at weight 1 only."""
    H = rng.standard_normal((B, K, M)) + 1j * rng.standard_normal((B, K, M))
    D = rng.standard_normal((B, K, tau)) + 1j * rng.standard_normal((B, K, tau))
    X0 = rng.standard_normal((B, M, tau)) + 1j * rng.standard_normal((B, M, tau))
    H[0] *= 0.05
    D[1] *= 0.01
    D[2] = X0[2] = 0.0
    D[3] = 0.0
    return H, D, X0


def _tradeoff_loop(H, D, X0, weight, power):
    return np.stack([tradeoff_design(h, d, x0, weight, power).X
                     for h, d, x0 in zip(H, D, X0)])


@pytest.mark.parametrize("weight", [0.0, 0.4, 1.0 - 2.0 ** -40, 1.0])
def test_tradeoff_stack_is_the_per_channel_loop_bitwise(rng, weight):
    H, D, X0 = _edge_case_stack(rng)
    stacked = tradeoff_design(H, D, X0, weight, 2.0).X
    assert np.array_equal(stacked, _tradeoff_loop(H, D, X0, weight, 2.0))
    # every frame spends the budget; where W = 0 the hard case puts it in
    # the null space of H, so no user sees interference
    assert np.allclose(np.linalg.norm(stacked, axis=(1, 2)) ** 2 / 8, 2.0,
                       rtol=1e-12, atol=0.0)
    mui = [mui_power(h, x, d) for h, x, d in zip(H, stacked, D)]
    assert mui[2] <= 1e-20
    if weight == 1.0:
        assert mui[0] > 1e-6 and mui[1] <= 1e-12  # secular, then hard case
        assert mui[3] <= 1e-20
    # a stack of one is the single channel
    assert np.array_equal(tradeoff_design(H[1:2], D[1:2], X0[1:2], weight, 2.0).X[0],
                          tradeoff_design(H[1], D[1], X0[1], weight, 2.0).X)


@pytest.mark.parametrize("weight", [0.0, 0.4, 1.0 - 2.0 ** -40, 1.0])
def test_tradeoff_is_homogeneous_in_the_budget(rng, weight):
    """D and X0 scaled by 2^k and the power by 4^k scale the design by 2^k
    bit for bit, for every power of 4 from 2^-300 to 2^300: the hard-case
    screen scales with the target (with an absolute floor it flagged
    generic channels below 2^-70)."""
    stacks = [_edge_case_stack(rng)]
    ds = make_dataset(20, 8, 2, 8, rng)
    stacks.append((ds.H, ds.D, ds.X0.X))
    for H, D, X0 in stacks:
        X = tradeoff_design(H, D, X0, weight, 2.0).X
        for k in range(-150, 151):
            c = 2.0 ** k
            assert np.array_equal(tradeoff_design(H, c * D, c * X0, weight, c * c * 2.0).X,
                                  c * X), k


@pytest.mark.parametrize("B, M, K, tau", [(50, 16, 4, 32), (50, 8, 2, 8), (1, 16, 4, 32)])
def test_tradeoff_dataset_stack_is_the_per_channel_loop_bitwise(B, M, K, tau):
    ds = make_dataset(B, M, K, tau, np.random.default_rng(B + M))
    for w in (0.0, 0.2, 0.7, 1.0):
        stacked = tradeoff_design(ds.H, ds.D, ds.X0, w, 1.0)
        assert stacked.X.shape == (B, M, tau)
        loop = np.stack([tradeoff_design(s.H, s.D, s.X0, w, 1.0).X for s in ds])
        assert np.array_equal(stacked.X, loop)


def test_genie_rate_stack_is_the_per_channel_loop_bitwise(rng):
    D = np.ones((5, 2, 8))
    report = genie_rate(D, 1.0)
    assert report.per_user_sinr.shape == (5, 2)
    assert np.array_equal(report.sum_rate, np.full(5, 2.0))
    D = rng.standard_normal((7, 3, 6)) + 1j * rng.standard_normal((7, 3, 6))
    report = genie_rate(D, 0.3)
    loop = [genie_rate(d, 0.3) for d in D]
    assert np.array_equal(report.per_user_sinr, np.stack([r.per_user_sinr for r in loop]))
    assert np.array_equal(report.sum_rate, [r.sum_rate for r in loop])
    assert isinstance(loop[0].sum_rate, float)


def test_stacks_with_mismatched_leading_axes_raise(rng):
    H, D, X0 = _edge_case_stack(rng)
    X = np.ones((6, 6, 8))
    for args in ((H[:2], D, X0), (H, D[:2], X0), (H, D, X0[:2]), (H[0], D, X0),
                 (H, D[0], X0), (H, D, X0[0]), (H, D, X0[None])):
        with pytest.raises(ValueError, match="leading axes"):
            tradeoff_design(*args, 0.5, 1.0)
    for args in ((H[:2], X, D), (H, X[:2], D), (H, X, D[:2]), (H[0], X, D),
                 (H, X[0], D), (H, X, D[0])):
        with pytest.raises(ValueError, match="leading axes"):
            rate_report(*args, 1.0)
        with pytest.raises(ValueError, match="leading axes"):
            mui_power(*args)


def test_procrustes_stack_meets_the_template_per_item(rng):
    M, K, tau, B = 3, 2, 5, 4
    G = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    C = G @ G.conj().T
    tpl = CovarianceTemplate(C * 2.0 / np.trace(C).real, 2.0)
    H = rng.standard_normal((B, K, M)) + 1j * rng.standard_normal((B, K, M))
    D = rng.standard_normal((B, K, tau)) + 1j * rng.standard_normal((B, K, tau))
    X = procrustes_waveform(tpl, H, D, tau).X
    assert X.shape == (B, M, tau)
    for x in X:
        assert np.allclose(x @ x.conj().T / tau, tpl.matrix, atol=1e-12)
    with pytest.raises(ValueError, match="D must be"):
        procrustes_waveform(tpl, H, D[:3], tau)


# ------------------------------------------- immutable inputs, one factorization


def test_covariance_template_copies_and_freezes_its_matrix():
    C = np.diag([0.75, 0.25]).astype(complex)
    tpl = CovarianceTemplate(C, 1.0)
    assert C.flags.writeable  # the caller's array is left as it was
    C[0, 0] = 99.0  # and later writes to it do not reach the template
    assert np.array_equal(tpl.matrix, np.diag([0.75, 0.25]))
    with pytest.raises(ValueError, match="read-only"):
        tpl.matrix[0, 0] = 0.0


def test_template_sqrt_matches_per_call_formula_bitwise(rng):
    """Procrustes designs, for one channel and for a stack, have the bits of
    the frozen formula: the Hermitian square root F of the template from one
    eigh, then sqrt(tau) F U V^H from the SVD of F H^H D."""
    geom = ArrayGeometry(6)
    templates = [reference_covariance_omni(2.0, 6),
                 directional_covariance([-0.5, 0.4], 2.0, geom)]
    for _ in range(3):
        G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        C = G @ G.conj().T
        templates.append(CovarianceTemplate(C * (2.0 / np.trace(C).real), 2.0))
    H = rng.standard_normal((4, 3, 6)) + 1j * rng.standard_normal((4, 3, 6))
    D = rng.standard_normal((4, 3, 8)) + 1j * rng.standard_normal((4, 3, 8))
    for tpl in templates:
        C = tpl.matrix
        lam, Q = np.linalg.eigh((C + C.conj().T) / 2)
        F = (Q * np.sqrt(np.maximum(lam, 0.0))) @ Q.conj().T
        for Hc, Dc in ((H, D), (H[1], D[1])):
            U, _, Vh = np.linalg.svd(F @ np.swapaxes(Hc.conj(), -1, -2) @ Dc,
                                     full_matrices=False)
            expected = np.sqrt(8) * F @ U @ Vh
            assert np.array_equal(procrustes_waveform(tpl, Hc, Dc, 8).X, expected)


def _case1_job(H, D, X0, weights):
    """The perfbench case1_classical job: a weight sweep, then a
    sens_priority epsilon design with the bound halfway between the sweep's
    MUI extremes."""
    sweep = [tradeoff_design(H, D, X0, w, 1.0) for w in weights]
    bound = 0.5 * (mui_power(H, sweep[0].X, D) + mui_power(H, sweep[-1].X, D))
    return sweep, epsilon_design(H, D, X0, bound, "sens_priority", 1.0)


def test_one_gram_eigh_per_channel(monkeypatch):
    """A case1 job factors its channel once: one SVD of the K x M channel,
    and no M x M eigendecomposition."""
    s = make_dataset(1, 16, 4, 32, np.random.default_rng(3))[0]
    H = ChannelMatrix(s.H.entries)  # no factorization cached yet
    calls = []
    for name in ("eigh", "svd"):
        def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, args[0].shape))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    _case1_job(H, s.D, s.X0, np.linspace(0.0, 1.0, 10))
    assert calls == [("svd", (4, 16))]


def test_channel_matrix_and_plain_array_designs_agree():
    """A ChannelMatrix and its entries as a plain array give the same
    designs and slacks, bit for bit."""
    for i in range(4):
        s = make_dataset(1, 8, 3, 10, np.random.default_rng(50 + i))[0]
        Hm = np.array(s.H.entries)
        by_matrix = _case1_job(s.H, s.D, s.X0, (0.0, 0.3, 0.9, 1.0))
        by_array = _case1_job(Hm, s.D, s.X0, (0.0, 0.3, 0.9, 1.0))
        for a, b in zip(by_matrix[0] + [by_matrix[1][0]], by_array[0] + [by_array[1][0]]):
            assert np.array_equal(a.X, b.X)
        assert by_matrix[1][1] == by_array[1][1]
        sens = [np.linalg.norm(d.X - s.X0.X) ** 2 for d in by_matrix[0]]
        bound = 0.5 * (sens[0] + sens[-1])
        comm_matrix = epsilon_design(s.H, s.D, s.X0, bound, "comm_priority", 1.0)
        comm_array = epsilon_design(Hm, s.D, s.X0, bound, "comm_priority", 1.0)
        assert np.array_equal(comm_matrix[0].X, comm_array[0].X)
        assert comm_matrix[1] == comm_array[1]


# ------------------------------------------ the M-dimensional oracle of the trade-off


def _numpy_secular_solve(lam, rho, target, steps=None):
    """`_secular_solve` as it ran on arrays: seven ufunc calls per Newton
    step into two buffers, its sums by np.add.reduce. Each Newton iterate is
    appended to `steps` if given."""
    lam_min = lam[0]
    mu = max(-lam_min + 1e-14 * max(1.0, abs(lam_min)),
             float(np.max(np.sqrt(rho / target) - lam)))
    inv, terms = np.empty(lam.shape), np.empty(lam.shape)
    eps = np.finfo(float).eps
    while True:
        np.divide(1.0, np.add(lam, mu, out=inv), out=inv)
        np.multiply(np.multiply(rho, inv, out=terms), inv, out=terms)
        value = float(np.add.reduce(terms))
        cubic = float(np.add.reduce(np.multiply(terms, inv, out=terms)))  # -phi'(mu) / 2
        if abs(value - target) <= 4.0 * eps * (target + 2.0 * cubic * abs(mu)):
            return mu
        if cubic == 0.0:
            raise RuntimeError(f"secular solve: phi' underflows to 0 at target {target:.3e}")
        nxt = mu + value / cubic * (np.sqrt(value / target) - 1.0)
        if not nxt > mu:
            return mu
        if steps is not None:
            steps.append(nxt)
        mu = nxt


def _mm_coefficients(out, W, rho, lam, UX0, target):
    """One channel's U^H X into `out` in the M-dimensional eigenbasis U of
    H^H H, for ascending lam; returns the multiplier mu, nan in the hard
    case, where the gap to the budget is filled inside the minimal
    eigenspace, along X0's part there or along its first eigenvector."""
    rho_sum = rho.sum()
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
                out[...] = coeff + fill * np.sqrt((target - boundary) / np.linalg.norm(fill) ** 2)
                return np.nan
    mu = _numpy_secular_solve(lam, rho / target, 1.0)
    np.divide(W, (lam + mu)[:, None], out=out)
    return mu


def _mm_tradeoff(H, D, X0, weight, power):
    """One channel's trade-off design in M dimensions, as it was solved
    before the range form: the eigendecomposition H^H H = U diag(g) U^H, the
    M-term secular equation and U @ coeff. Returns (X, mu)."""
    H, D, X0 = (np.asarray(a, dtype=complex) for a in (H, D, X0))
    G = H.conj().T @ H
    g, U = np.linalg.eigh((G + G.conj().T) / 2)
    UHD, UX0 = (H @ U).conj().T @ D, U.conj().T @ X0
    target = X0.shape[1] * power
    W = weight * UHD + (1.0 - weight) * UX0
    coeff = np.empty_like(W)
    mu = _mm_coefficients(coeff, W, np.linalg.norm(W, axis=1) ** 2, weight * g + (1.0 - weight),
                          UX0, target)
    X = U @ coeff
    return X * (np.sqrt(target) / np.linalg.norm(X)), mu


def _cn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_tradeoff_matches_the_m_by_m_oracle(rng):
    """The K+1-pole solve against the M-dimensional one: frames within
    1e-12 relative at weights 0 to 0.89, 1 - 2^-40 and 1 (measured worst
    1.3e-13, at (64, 4, 64) and weight 0.89), and the hard case at the same
    weights. At 1 - 2^-20 they differ by up to 1.7e-8 (measured), the
    M-dimensional form's own error there (see the extended-precision test
    below), so the bound is 1e-7."""
    for M, K, tau in ((16, 4, 32), (8, 3, 10), (4, 4, 4), (2, 3, 4), (64, 4, 64)):
        for _ in range(3):
            s = make_dataset(1, M, K, tau, rng)[0]
            f = classical_design._factor(s.H, s.D, s.X0)
            for w in (0.0, 0.1, 0.5, 0.89, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -40, 1.0):
                X, mu = classical_design._tradeoff_solve(f, w, 1.0)
                X_ref, mu_ref = _mm_tradeoff(s.H.entries, s.D, s.X0.X, w, 1.0)
                tol = 1e-7 if w == 1.0 - 2.0 ** -20 else 1e-12
                assert np.linalg.norm(X - X_ref) <= tol * np.linalg.norm(X_ref)
                assert np.isnan(mu) == np.isnan(mu_ref)


def _assert_optimal_as_the_oracle(H, D, X0, weight, power):
    """tradeoff_design's frame spends the budget, meets the KKT conditions
    of a global minimizer on the sphere ((A + mu I) X = B with A + mu I
    PSD, as in test_tradeoff_kkt_optimality) and reaches the M-dimensional
    oracle's objective, each within 1e-10 of its scale, and takes the
    oracle's branch (the hard case or the secular equation). Returns the
    frame and its multiplier."""
    H, D, X0 = (np.asarray(a, dtype=complex) for a in (H, D, X0))
    M, tau = X0.shape
    target = tau * power
    X, mu = classical_design._tradeoff_solve(classical_design._factor(H, D, X0), weight, power)
    assert np.array_equal(X, tradeoff_design(H, D, X0, weight, power).X)
    assert abs(np.linalg.norm(X) ** 2 - target) <= 1e-12 * target
    A = weight * H.conj().T @ H + (1.0 - weight) * np.eye(M)
    B = weight * H.conj().T @ D + (1.0 - weight) * X0
    lam = np.linalg.eigvalsh(A)
    AX = A @ X
    kkt_mu = np.vdot(X, B - AX).real / target
    assert np.linalg.norm(AX + kkt_mu * X - B) <= 1e-10 * max(np.linalg.norm(B),
                                                               lam[-1] * np.sqrt(target))
    assert kkt_mu >= -lam[0] - 1e-10 * max(1.0, lam[-1])

    def objective(Y):
        return (weight * np.linalg.norm(H @ Y - D) ** 2
                + (1.0 - weight) * np.linalg.norm(Y - X0) ** 2)

    X_ref, mu_ref = _mm_tradeoff(H, D, X0, weight, power)
    scale = (weight * (np.linalg.norm(H, 2) ** 2 * target + np.linalg.norm(D) ** 2)
             + (1.0 - weight) * (target + np.linalg.norm(X0) ** 2))
    assert abs(objective(X) - objective(X_ref)) <= 1e-10 * scale
    assert np.isnan(mu) == np.isnan(mu_ref)
    return X, mu


def test_tradeoff_hard_case_with_x0_in_the_range_at_weight_one(rng):
    """X0 = H^H C lies in range(H^H), so X0perp is roundoff. At weight 1
    with small symbols the hard case fills the budget along it, projected
    off the range until it lies in the null space of H, so HX = D holds to
    ||HX - D|| <= 8 eps ||H|| ||X|| (measured worst 3.4 eps over 200 seeds;
    25 eps with a single projection, 2.2 eps for the M-dimensional form).
    With X0 on the axes, X0perp is exactly 0 and the fill is the canonical
    direction (I - Q Q^H) e_j."""
    eps = np.finfo(float).eps
    for _ in range(5):
        H = _cn(rng, (2, 6))
        X0 = H.conj().T @ _cn(rng, (2, 5))
        X0 *= np.sqrt(5) / np.linalg.norm(X0)
        D = 0.01 * _cn(rng, (2, 5))
        X, mu = _assert_optimal_as_the_oracle(H, D, X0, 1.0, 1.0)
        assert np.isnan(mu)
        assert np.linalg.norm(H @ X - D) <= 8 * eps * np.linalg.norm(H, 2) * np.sqrt(5)
    H = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    X0 = np.zeros((3, 4))
    X0[:2] = 1.0
    X, mu = _assert_optimal_as_the_oracle(H, 0.01 * X0[:2], X0, 1.0, 1.0)
    assert np.isnan(mu) and mui_power(H, X, 0.01 * X0[:2]) <= 1e-30
    assert np.all(X[2] == X[2, 0]) and abs(X[2, 0]) > 0.0  # along e_2, in every column


def test_tradeoff_with_x0_in_the_range_below_weight_one(rng):
    """X0perp = 0 below weight 1: the complement's pole carries no weight.
    With D = 0 at weight 0.9 the boundary value undershoots the budget and
    the hard case fills along the complement; at weight 0.02 the secular
    equation has its root inside the gap."""
    H = _cn(rng, (2, 6))
    X0 = H.conj().T @ _cn(rng, (2, 5))
    X0 *= np.sqrt(5) / np.linalg.norm(X0)
    for D in (np.zeros((2, 5)), 0.1 * _cn(rng, (2, 5))):
        assert np.isnan(_assert_optimal_as_the_oracle(H, D, X0, 0.9, 1.0)[1])
        assert np.isfinite(_assert_optimal_as_the_oracle(H, D, X0, 0.02, 1.0)[1])
    H = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    X0 = np.zeros((3, 4))
    X0[:2] = 1.0
    for weight in (0.0, 0.3, 0.9, 1.0 - 2.0 ** -20):
        _assert_optimal_as_the_oracle(H, np.zeros((2, 4)), X0, weight, 1.0)


@pytest.mark.parametrize("K, M, tau", [(3, 6, 8), (3, 3, 4), (4, 3, 4)])
def test_tradeoff_with_two_equal_user_rows(rng, K, M, tau):
    """A rank-deficient H: users 0 and 1 share one channel. Its zero
    singular value drops out of Q, and the complement of range(H^H) grows
    by one (at (3, 3, 4) it exists only through that drop)."""
    for _ in range(3):
        H = _cn(rng, (K, M))
        H[1] = H[0]
        X0 = procrustes_waveform(reference_covariance_omni(1.0, M), H, _cn(rng, (K, tau)), tau).X
        for scale in (1.0, 0.01):
            D = scale * _cn(rng, (K, tau))
            for weight in (0.0, 0.5, 0.9, 1.0 - 2.0 ** -20, 1.0):
                _assert_optimal_as_the_oracle(H, D, X0, weight, 1.0)


@pytest.mark.parametrize("M, K, tau", [(2, 3, 4), (3, 3, 4), (3, 4, 6)])
def test_tradeoff_with_no_more_antennas_than_users(rng, M, K, tau):
    """M <= K and H of full rank M: range(H^H) is all of C^M, the
    complement's pole is missing, and the solve has K' = M rows."""
    for _ in range(3):
        s = make_dataset(1, M, K, tau, rng)[0]
        assert classical_design._factor(s.H, s.D, s.X0).first == 1
        for weight in (0.0, 0.3, 0.9, 1.0 - 2.0 ** -20, 1.0):
            _assert_optimal_as_the_oracle(s.H.entries, s.D, s.X0.X, weight, 1.0)


@pytest.mark.parametrize("K, M", [(2, 5), (3, 3), (3, 2)])
def test_tradeoff_with_zero_symbols_and_reference(rng, K, M):
    """D = X0 = 0 leaves W = 0: the hard case with boundary value 0 at every
    weight. The budget goes to the minimal eigenspace of A: the null space
    of H where it has one, else the weakest singular direction, along a
    canonical direction there."""
    H = _cn(rng, (K, M))
    for weight in (0.0, 0.5, 1.0):
        X, mu = _assert_optimal_as_the_oracle(H, np.zeros((K, 3)), np.zeros((M, 3)), weight, 1.0)
        assert np.isnan(mu)


def _longdouble_tradeoff(h, d, X0, weight, power):
    """One user's (K = 1) trade-off frame in np.longdouble, where g = ||h||^2
    and Q = h^H / ||h|| are explicit: the two-pole secular equation solved
    by bisection until the bracket cannot shrink. For weights below 1 with
    X0perp != 0, where the hard case cannot arise."""
    cld = np.clongdouble
    h, d, X0 = np.asarray(h, cld)[0], np.asarray(d, cld)[0], np.asarray(X0, cld)
    w = np.longdouble(weight)
    v = 1 - w
    target = np.longdouble(X0.shape[1]) * np.longdouble(power)
    g = np.sum(h.real ** 2 + h.imag ** 2)
    q = h.conj() / np.sqrt(g)
    R = q.conj() @ X0
    perp = X0 - np.outer(q, R)
    W = w * np.sqrt(g) * d + v * R
    rho0 = v * v * np.sum(perp.real ** 2 + perp.imag ** 2)
    rho1 = np.sum(W.real ** 2 + W.imag ** 2)
    lam1 = w * g + v

    def phi(mu):
        return rho0 / (v + mu) ** 2 + rho1 / (lam1 + mu) ** 2

    lo, hi = max(-v, np.sqrt(rho1 / target) - lam1), np.sqrt((rho0 + rho1) / target) - v
    while lo < (mid := (lo + hi) / 2) < hi:
        if phi(mid) > target:
            lo = mid
        else:
            hi = mid
    X = np.outer(q, W / (lam1 + hi)) + (v / (v + hi)) * perp
    return X * (np.sqrt(target) / np.sqrt(np.sum(X.real ** 2 + X.imag ** 2)))


def test_tradeoff_near_weight_one_in_extended_precision(rng):
    """Near weight 1 the MUI falls toward 0. Against a np.longdouble solve
    of one-user channels at weights 1 - 2^-10, 2^-20, 2^-30: the frame is
    within 4 eps of the extended-precision frame (measured worst 2.7 eps;
    the M-dimensional form's frames were 3.3e-12, 3.4e-9 and 3.5e-6 away),
    the sensing error within 1e-12 relative (measured worst 1.6e-13; the
    M-dimensional form's 7.6e-7 at 1 - 2^-30), and the MUI within what a
    frame e = 8 eps ||h|| ||X|| off can move it, 2 e sqrt(MUI) + e^2 (the
    MUI is then 1e-11 to 1e-23 of ||D||^2, and its last bits are those of
    the float64 frame)."""
    cld = np.clongdouble

    def sq(A):
        return np.sum(A.real ** 2 + A.imag ** 2)

    eps = np.finfo(float).eps
    for M, tau in ((4, 8), (8, 8), (16, 32)):
        for _ in range(4):
            s = make_dataset(1, M, 1, tau, rng)[0]
            h, d, X0 = (np.asarray(a, cld) for a in (s.H.entries, s.D, s.X0.X))
            for k in (10, 20, 30):
                w = 1.0 - 2.0 ** -k
                X_ld = _longdouble_tradeoff(h, d, X0, w, 1.0)
                X = np.asarray(tradeoff_design(s.H, s.D, s.X0, w, 1.0).X, cld)
                assert np.sqrt(sq(X - X_ld)) <= 4 * eps * np.sqrt(sq(X_ld))
                sens, sens_ld = sq(X - X0), sq(X_ld - X0)
                assert abs(sens - sens_ld) <= 1e-12 * sens_ld
                mui, mui_ld = sq(h @ X - d), sq(h @ X_ld - d)
                e = 8 * eps * np.sqrt(sq(h) * sq(X_ld))
                assert abs(mui - mui_ld) <= 2 * e * np.sqrt(mui_ld) + e * e


def test_secular_float_newton_matches_numpy_newton(rng):
    """On spectra of at most 7 poles, the float iteration returns the numpy
    iteration's mu bit for bit: both start alike and sum their terms in
    order, as np.add.reduce does below 8 terms. Newton steps, counted on
    the numpy iteration: at most 8 on generic targets (measured worst 5
    here, 6 over seeds 0-99), and at most 24 on targets just below or above
    the boundary value with next to no weight on the minimal pole, where
    Newton creeps away from the pole (measured worst 17 here, 18 over seeds
    0-99)."""
    generic, creeping = [], []
    for M, K in ((5, 4), (7, 4), (3, 2), (2, 1), (7, 1)):
        for trial, (lam, rho, target) in enumerate(_secular_spectra(rng, M, K)):
            steps = []
            mu = _numpy_secular_solve(lam, rho, target, steps)
            assert _secular_solve(lam.tolist(), rho.tolist(), target) == mu
            (generic if trial % 3 == 0 else creeping).append(len(steps))
    assert max(generic) <= 8 and max(creeping) <= 24
    # the spectra of the bracketed oracle's test, cut to 7 poles
    for _ in range(300):
        M = int(rng.integers(2, 8))
        lam = np.sort(rng.uniform(0.0, 30.0, M)) + rng.uniform(-5.0, 5.0)
        lam[:rng.integers(1, M)] = lam[0]
        rho = 10.0 ** rng.uniform(-16, 3, M)
        target = float(np.sum(rho / (lam - lam[0] + 10.0 ** rng.uniform(-8, 3)) ** 2))
        assert _secular_solve(lam.tolist(), rho.tolist(), target) == _numpy_secular_solve(
            lam, rho, target)
