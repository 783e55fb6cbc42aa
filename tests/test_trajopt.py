import logging
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from thermaldrift import trajopt
from thermaldrift.equilibrium import find_equilibrium
from thermaldrift.errors import (ConfigError, ConvergenceError,
                               VelocityFloorError)
from thermaldrift.integrate import rk4
from thermaldrift.limits import ActuatorLimits, default_limits
from thermaldrift.params import default_params
from thermaldrift.trajopt import (
    IX,
    PlannerConfig,
    TransitionProblem,
    extended_rates,
    extended_state,
    initial_guess,
    load_planner_config,
    rk4_step,
    solve_transition,
)

import transcription_oracle
from conftest import BETA, RADIUS, make_transition_problem
from model_oracle import rates_batch_rows, thermal_fixed_point


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def test_rk4_step_requires_positive_h(params):
    with pytest.raises(ValueError):
        rk4_step(params, np.zeros(IX.n), np.zeros(2), 0.0)


def test_rk4_fixed_point(params):
    """At a thermal fixed point with zero slew, the body states are exactly
    stationary, so RK4 must preserve them to machine level."""
    fp = thermal_fixed_point(params, RADIUS, BETA)
    st = fp.state(psi=0.3, X=1.0, Y=-2.0, s=0.0)
    x = np.array([st.Vx, st.Vy, st.r, st.psi, st.omega, st.dFz, st.X, st.Y,
                  fp.delta, fp.tau, fp.theta_r, 0.0])
    y = rk4_step(params, x, np.zeros(2), 0.05)
    for j in (IX.Vx, IX.Vy, IX.r, IX.omega, IX.dFz, IX.delta, IX.tau,
              IX.theta):
        assert abs(y[j] - x[j]) < 1e-10 * max(1.0, abs(x[j]))


def test_rk4_scalar_order():
    """Richardson order estimate on x' = lambda*x."""
    lam = -0.7
    f = lambda y: lam * y
    errs = []
    for h in (0.2, 0.1, 0.05):
        y, n = 1.0, int(round(2.0 / h))
        for _ in range(n):
            y = rk4(f, y, h)
        errs.append(abs(y - math.exp(lam * 2.0)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.9
    assert math.log2(errs[1] / errs[2]) >= 3.9


# ---------------------------------------------------------------------------
# batched model against the scalar model
# ---------------------------------------------------------------------------

P = default_params()
LIM = default_limits()
#: drift equilibria on both R = 15 m circles across the friction map's range
EQUILIBRIA = [find_equilibrium(P, sign * RADIUS, sign * BETA, theta)
              for sign in (1.0, -1.0)
              for theta in (0.0, 30.0, 60.0, 90.0, 120.0)]

_near = st.floats(0.8, 1.2)
_row = st.tuples(
    st.sampled_from(EQUILIBRIA), st.tuples(*[_near] * 6),
    st.floats(-math.pi, math.pi), st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0), st.floats(LIM.tau_min, LIM.tau_max),
    st.floats(0.0, 120.0), st.floats(0.0, 100.0),
    st.floats(LIM.ddelta_min, LIM.ddelta_max),
    st.floats(LIM.dtau_min, LIM.dtau_max))


@given(st.lists(_row, min_size=1, max_size=16))
@settings(max_examples=200, deadline=None)
def test_batched_rates_match_scalar_model(rows):
    """``_rates_batch`` over a stacked batch of in-domain extended states
    and slews equals ``extended_rates`` row by row.  The batch kernel's
    domain guards must be inactive here, so any difference is arithmetic."""
    X = np.empty((len(rows), IX.n))
    U = np.empty((len(rows), 2))
    for k, (eq, f, psi, px, py, tau, theta, s, ddelta, dtau) in \
            enumerate(rows):
        st0 = eq.state()
        delta = min(max(eq.delta * f[5], LIM.delta_min), LIM.delta_max)
        X[k] = [st0.Vx * f[0], st0.Vy * f[1], st0.r * f[2], psi,
                st0.omega * f[3], st0.dFz * f[4], px, py, delta, tau, theta,
                s]
        U[k] = [ddelta, dtau]
    batch = trajopt._rates_batch(X.T, P, U.T)
    for k in range(len(rows)):
        ref = extended_rates(X[k], P, U[k])
        assert np.all(np.abs(batch[:, k] - ref)
                      <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def _bits(a):
    """The float64 bit patterns of ``a``: == on them also tells -0.0 from
    0.0 and compares NaNs."""
    return np.ascontiguousarray(a).view(np.uint64)


def _corner_rows():
    """(X, U) rows, one per branch of the batched kernel, around the
    R = 15 m, 30 degC equilibrium: the front gripping and sliding at either
    sign of alpha_f, the rear rolling with the road (kappa_r = alpha_r = 0,
    so f == 0), the speed floor, and each axle load at either clip."""
    vp = P.vehicle
    eq = EQUILIBRIA[1]
    st0 = eq.state()
    base = np.array([st0.Vx, st0.Vy, st0.r, 0.3, st0.omega, st0.dFz, 1.0,
                     -2.0, eq.delta, eq.tau, 30.0, 5.0])
    heading = math.atan((st0.Vy + vp.a * st0.r) / st0.Vx)
    rows = []
    for alpha_f in (0.02, -0.02, 0.5, -0.5):
        rows.append(base.copy())
        rows[-1][IX.delta] = heading - alpha_f
    rows.append(base.copy())
    rows[-1][IX.Vx] = vp.Re * st0.omega
    rows[-1][IX.Vy] = vp.b * st0.r
    for j, value in ((IX.Vx, 0.5), (IX.Vx, -3.0), (IX.dFz, 2e4),
                     (IX.dFz, -2e4)):
        rows.append(base.copy())
        rows[-1][j] = value
    X = np.array(rows)
    U = np.tile([0.3, -800.0], (len(rows), 1))
    return X, U


CORNER_X, CORNER_U = _corner_rows()


def test_corner_rows_reach_every_branch():
    """The corner rows do what :func:`_corner_rows` says, by the kernel's
    own branch conditions."""
    vp, tp = P.vehicle, P.tire
    X = CORNER_X
    Vx = np.maximum(X[:, IX.Vx], 1.0)
    mg = vp.m * vp.g
    F_zf = np.clip(vp.b * mg / vp.L - X[:, IX.dFz], 1.0, mg)
    F_zr = np.clip(vp.a * mg / vp.L + X[:, IX.dFz], 1.0, mg)
    alpha_f = (np.arctan((X[:, IX.Vy] + vp.a * X[:, IX.r]) / Vx)
               - X[:, IX.delta])
    C_alpha = np.maximum(tp.C_alpha1 * F_zf + tp.C_alpha0, 1e3)
    slide = np.abs(np.tan(alpha_f)) > 3.0 * tp.mu_f * F_zf / C_alpha
    front = set(zip(np.sign(alpha_f)[:4], slide[:4]))
    assert front == {(1.0, False), (-1.0, False), (1.0, True), (-1.0, True)}
    rest = ((vp.Re * X[:, IX.omega] - Vx == 0.0)
            & (X[:, IX.Vy] - vp.b * X[:, IX.r] == 0.0))
    assert np.any(rest) and np.any(X[:, IX.Vx] < 1.0)
    for load in (F_zf, F_zr):
        assert np.any(load == 1.0) and np.any(load == mg)


_wide_row = st.tuples(
    st.floats(-3.0, 30.0), st.floats(-20.0, 20.0), st.floats(-3.0, 3.0),
    st.floats(-2.0 * math.pi, 2.0 * math.pi), st.floats(4.0, 400.0),
    st.floats(-2e4, 2e4), st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
    st.floats(-0.4, 0.4), st.floats(LIM.tau_min, LIM.tau_max),
    st.floats(0.0, 150.0), st.floats(0.0, 100.0),
    st.floats(LIM.ddelta_min, LIM.ddelta_max),
    st.floats(LIM.dtau_min, LIM.dtau_max),
    st.booleans())


@given(st.lists(_wide_row, min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_batched_rates_match_row_oracle(rows):
    """The components-first ``_rates_batch`` equals the row-last oracle
    bit for bit, on the corner rows followed by drawn ones.  The draws run
    past the speed floor and both load clips.  The steering column is drawn
    as the front slip angle, within 0.4 rad of either sign, so the front
    both grips and slides; with the last flag set, a row's rear rolls with
    the road (Vx = Re omega and Vy = b r, so f == 0)."""
    vp = P.vehicle
    drawn = np.array(rows, dtype=float)
    rest = drawn[:, -1] == 1.0
    drawn[rest, IX.Vx] = vp.Re * drawn[rest, IX.omega]
    drawn[rest, IX.Vy] = vp.b * drawn[rest, IX.r]
    drawn[:, IX.delta] = (np.arctan((drawn[:, IX.Vy] + vp.a * drawn[:, IX.r])
                                    / np.maximum(drawn[:, IX.Vx], 1.0))
                          - drawn[:, IX.delta])
    X = np.concatenate([CORNER_X, drawn[:, :IX.n]])
    U = np.concatenate([CORNER_U, drawn[:, IX.n:IX.n + 2]])
    got = trajopt._rates_batch(np.ascontiguousarray(X.T), P,
                               np.ascontiguousarray(U.T))
    assert np.array_equal(_bits(got.T), _bits(rates_batch_rows(X, P, U)))


# ---------------------------------------------------------------------------
# problem validation and configuration
# ---------------------------------------------------------------------------

def test_problem_validation(params):
    x0 = np.zeros(IX.n)
    with pytest.raises(ValueError):
        TransitionProblem(params=params, x_initial=x0, kappa_final=0.1,
                          beta_final=0.0, N=1)
    with pytest.raises(ValueError):
        TransitionProblem(params=params, x_initial=x0, kappa_final=0.1,
                          beta_final=0.0, h_min=0.2, h_max=0.1)
    with pytest.raises(ValueError):
        TransitionProblem(params=params, x_initial=x0, kappa_final=0.1,
                          beta_final=0.0, k_s=-1.0)
    with pytest.raises(ValueError):
        TransitionProblem(params=params, x_initial=np.zeros(5),
                          kappa_final=0.1, beta_final=0.0)


@pytest.mark.parametrize("weight", ["k_ddelta", "k_dtau", "k_s"])
def test_nan_cost_weight_rejected(params, weight):
    """A NaN weight fails the non-negativity check like a negative one."""
    with pytest.raises(ValueError, match="non-negative"):
        TransitionProblem(params=params, x_initial=np.zeros(IX.n),
                          kappa_final=0.1, beta_final=0.0,
                          **{weight: math.nan})


@pytest.mark.parametrize("bound", [f.name for f in fields(ActuatorLimits)])
def test_nan_actuator_limit_rejected(bound):
    """A NaN bound fails the ordering check like a bound out of order."""
    with pytest.raises(ValueError, match="out of order"):
        replace(default_limits(), **{bound: math.nan})


def test_transition_problem_defaults_are_planner_config(params):
    problem = TransitionProblem(params=params, x_initial=np.zeros(IX.n),
                                kappa_final=0.1, beta_final=0.0)
    cfg = PlannerConfig()
    settings = [f.name for f in fields(PlannerConfig)]
    for name in settings:
        assert getattr(problem, name) == getattr(cfg, name), name
    # the problem declares its boundary values and no setting of its own
    own = [f.name for f in fields(TransitionProblem) if f.name not in settings]
    assert own == ["params", "x_initial", "kappa_final", "beta_final",
                   "y_center_target"]


def test_planner_config_load(tmp_path):
    path = tmp_path / "planner.txt"
    path.write_text("k_ddelta 1e4\nk_dtau 100\nk_s 250\nn_steps 80\n"
                    "delta_max 40\ndelta_min -40\ntau_max 3.0\n")
    cfg = load_planner_config(path)
    assert cfg.k_ddelta == 1e4
    assert cfg.k_dtau == pytest.approx(1e-4)     # (kN m/s)^-2 -> (N m/s)^-2
    assert cfg.k_s == 250.0
    assert cfg.N == 80
    assert cfg.limits.delta_max == pytest.approx(math.radians(40.0))
    assert cfg.limits.tau_max == pytest.approx(3000.0)  # kN m -> N m
    # untouched keys keep their defaults
    assert cfg.limits.dtau_max == default_limits().dtau_max
    assert cfg.h_min == PlannerConfig().h_min


def test_planner_config_rejects_fractional_n_steps(tmp_path):
    path = tmp_path / "planner.txt"
    path.write_text("n_steps 80.7\n")
    with pytest.raises(ConfigError, match="planner.txt.*n_steps"):
        load_planner_config(path)


def test_planner_config_unknown_key(tmp_path):
    path = tmp_path / "planner.txt"
    path.write_text("k_z 3\n")
    with pytest.raises(ConfigError, match="k_z"):
        load_planner_config(path)


# ---------------------------------------------------------------------------
# transition solve (shared session fixture)
# ---------------------------------------------------------------------------

def test_transition_flips_direction(transition):
    problem, traj, _ = transition
    x0, xN = traj.states[0], traj.states[-1]
    beta0 = math.atan2(x0[IX.Vy], x0[IX.Vx])
    betaN = math.atan2(xN[IX.Vy], xN[IX.Vx])
    assert x0[IX.r] * xN[IX.r] < 0.0
    assert beta0 * betaN < 0.0
    assert betaN == pytest.approx(-BETA, abs=1e-6)


def test_extended_state_inverts_sample(transition):
    """Packing what the transition samples at a node gives back that node's
    extended state."""
    _, traj, _ = transition
    for s_k, x_k in zip(traj.s.tolist(), traj.states):
        assert np.array_equal(extended_state(*traj.sample(s_k)[:2]), x_k)


def test_transition_thermal_coupling(transition):
    """Temperature is integrated inside the same RK4 defects: it rises
    through the transition and stays within the map's validity range."""
    problem, traj, _ = transition
    theta = traj.states[:, IX.theta]
    assert theta[-1] > theta[0]
    assert np.all((theta >= 0.0) & (theta <= 120.0))


def test_transition_cost_breakdown(transition):
    _, traj, _ = transition
    assert traj.J == pytest.approx(traj.input_cost + traj.distance_cost)
    assert traj.J >= 0.0


def test_transition_converges_before_cap(transition):
    """n_outer counts the iterations of both solver phases, so an
    optimality phase stopped by its cap would make it at least the cap."""
    _, traj, _ = transition
    assert traj.n_outer < trajopt._IPM_MAX_ITER


def test_transition_sample_interpolates(transition):
    _, traj, _ = transition
    lo, hi = traj.s_span()
    state, inp, kappa = traj.sample(0.5 * (lo + hi))
    assert lo < state.s < hi
    assert state.e == 0.0


def test_no_transition_case(params):
    """Same curvature and sideslip as the initial circle with k_s = 0: the
    planner keeps holding the drift instead of flipping direction.  The cost
    is not zero — the tread heats over the horizon, so small steering and
    torque slews are needed to keep meeting the boundary conditions — but it
    stays an order of magnitude below a real direction-flipping transition,
    and the yaw rate never changes sign."""
    eq = find_equilibrium(params, RADIUS, BETA, 30.0)
    st = eq.state(psi=-eq.beta, X=0.0, Y=0.0, s=0.0)
    x0 = np.array([st.Vx, st.Vy, st.r, st.psi, st.omega, st.dFz, st.X, st.Y,
                   eq.delta, eq.tau, 30.0, 0.0])
    problem = TransitionProblem(params=params, x_initial=x0,
                                kappa_final=1.0 / RADIUS, beta_final=BETA,
                                k_s=0.0)
    traj = solve_transition(problem, guess=initial_guess(problem, x0))
    assert traj.n_outer < trajopt._IPM_MAX_ITER
    assert traj.terminal_residual < 1e-6
    assert traj.distance_cost == 0.0
    assert traj.J < 1e4
    r = traj.states[:, IX.r]
    assert np.all(r * r[0] > 0.0)
    beta = np.arctan2(traj.states[:, IX.Vy], traj.states[:, IX.Vx])
    assert np.max(np.abs(beta - BETA)) < math.radians(10.0)


@pytest.mark.slow
def test_larger_ks_does_not_lengthen(params, transition):
    _, base, _ = transition  # k_s = 200
    problem, x_target = make_transition_problem(params, k_s=2000.0)
    aggressive = solve_transition(problem,
                                  guess=initial_guess(problem, x_target))
    assert aggressive.n_outer < trajopt._IPM_MAX_ITER
    assert aggressive.transition_length <= base.transition_length + 1e-6


# ---------------------------------------------------------------------------
# Newton equations: banded LU against sparse references
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def iterates(params):
    """The criterion-6 transcription at its initial guess and at iterates
    five and twenty steps into the optimality phase: (transcription,
    {name: (z, lam, Newton diagonal)}); the twenty-step point, which only
    the polish test uses, has no diagonal."""
    problem, x_target = make_transition_problem(params)
    tr = trajopt._Transcription(problem)
    lb, ub = tr.bounds()
    z0 = np.clip(tr.pack(*initial_guess(problem, x_target)), lb, ub)
    feasible = trajopt._interior_point(tr, z0, feasibility=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajopt, "_IPM_MAX_ITER", 5)
        mid = trajopt._interior_point(tr, feasible.z)
        mp.setattr(trajopt, "_IPM_MAX_ITER", 20)
        capped = trajopt._interior_point(tr, feasible.z)
    assert not mid.converged and not capped.converged
    free = lb < ub
    il = np.flatnonzero(free & np.isfinite(lb))
    iu = np.flatnonzero(free & np.isfinite(ub))
    w = 1e-3 * tr.cost_hess()
    w[il] += mid.zl / (mid.z[il] - lb[il])
    w[iu] += mid.zu / (ub[iu] - mid.z[iu])
    w0 = 1e-3 * tr.cost_hess() + np.where(np.isfinite(lb) | np.isfinite(ub),
                                          1.0, 0.0)
    return tr, {"guess": (z0, np.zeros(tr.nc), w0),
                "mid-solve": (mid.z, mid.lam, w),
                "capped": (capped.z, capped.lam, None)}


def _sparse_jacobian(tr, z):
    """The constraint Jacobian in scaled coordinates as a scipy CSR matrix."""
    return scipy.sparse.csr_matrix(
        (tr.jac_data(tr.jacobian(z)), tr.jac_pattern()), shape=(tr.nc, tr.nz))


def _sparse_kkt(tr, z, w, hess):
    """The Newton matrix over the free variables, assembled with scipy."""
    lb, ub = tr.bounds()
    free = lb < ub
    stage, term = tr.hessian_pattern()
    rows = [np.arange(tr.nz), np.repeat(stage, stage.shape[1], axis=1).ravel(),
            np.repeat(term, term.size)]
    cols = [np.arange(tr.nz), np.tile(stage, (1, stage.shape[1])).ravel(),
            np.tile(term, term.size)]
    vals = [w, hess[0].ravel(), hess[1].ravel()]
    W = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(tr.nz, tr.nz)).tocsr()[free][:, free]
    J = _sparse_jacobian(tr, z)[:, free]
    return scipy.sparse.bmat([[W, J.T], [J, None]]).tocsc(), free


@pytest.mark.parametrize("point", ["guess", "mid-solve"])
def test_banded_kkt_matches_spsolve(iterates, point):
    """The banded LU with its h border solves the same Newton equations as
    scipy's sparse LU on the matrix assembled from ``jac_pattern`` and
    ``jac_data``."""
    tr, points = iterates
    z, lam, w = points[point]
    hess = tr.lagrangian_hessian(z, lam)
    rng = np.random.default_rng(7)
    r_z = rng.standard_normal(tr.nz)
    r_c = rng.standard_normal(tr.nc)

    kkt = trajopt._BandedKKT(tr)
    kkt.factor(tr.jacobian(z), w, hess)
    dz, lam_new = kkt.solve(r_z, r_c)

    K, free = _sparse_kkt(tr, z, w, hess)
    ref = scipy.sparse.linalg.spsolve(K, np.concatenate([r_z[free], r_c]))
    got = np.concatenate([dz[free], lam_new])
    assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)
    assert np.all(dz[~free] == 0.0)   # pinned x_0 and u_{N-1}


@pytest.mark.parametrize("point", ["guess", "mid-solve"])
def test_jacobian_matches_constraint_differences(iterates, point):
    """J v from the finite-difference blocks against a central difference of
    the constraints themselves along random directions."""
    tr, points = iterates
    z = points[point][0]
    J = _sparse_jacobian(tr, z)
    rng = np.random.default_rng(3)
    for _ in range(3):
        v = rng.standard_normal(tr.nz)
        t = 1e-6
        fd = (tr.constraints(z + t * v) - tr.constraints(z - t * v)) / (2 * t)
        assert np.max(np.abs(J @ v - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_lagrangian_hessian_matches_second_differences(iterates):
    """v^T H v from the Hessian blocks against a second difference of
    lam . constraints along random directions (within 1 %: the tire model
    is only piecewise smooth)."""
    tr, points = iterates
    z, lam, _ = points["mid-solve"]
    H, Ht = tr.lagrangian_hessian(z, lam)
    stage, term = tr.hessian_pattern()
    lb, ub = tr.bounds()
    free = lb < ub
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = np.where(free, rng.standard_normal(tr.nz), 0.0)
        quad = (np.einsum("ki,kij,kj->", v[stage], H, v[stage])
                + v[term] @ Ht @ v[term])
        t = 1e-3
        fd = (lam @ tr.constraints(z + t * v) - 2.0 * lam @ tr.constraints(z)
              + lam @ tr.constraints(z - t * v)) / t ** 2
        assert quad == pytest.approx(fd, rel=1e-2)


def test_rk4_batch_matches_oracle_on_hessian_stencil(iterates):
    """On the criterion-6 Hessian stencil five steps into the optimality
    phase (100 stages by 91 points), the components-first ``_rk4_batch``
    equals ``integrate.rk4`` over the row-last oracle bit for bit."""
    tr, points = iterates
    X, U, h = tr.unpack(points["mid-solve"][0])
    nc = trajopt._CURVED.size
    nv = nc + 3
    iu, ju = np.triu_indices(nv, 1)
    E = np.eye(nv) * 1e-4
    O = np.concatenate([np.zeros((1, nv)), E, -E, E[iu] + E[ju]])
    xb = np.repeat(X[:-1, None, :], O.shape[0], axis=1)
    xb[..., trajopt._CURVED] += (O[None, :, :nc]
                                 * trajopt._X_SCALE[trajopt._CURVED])
    ub = U[:, None, :] + O[None, :, nc:-1] * trajopt._U_SCALE
    hb = h + O[None, :, -1] * trajopt._H_SCALE
    ref = rk4(rates_batch_rows, xb, hb[..., None], tr.p.params, ub)
    got = trajopt._rk4_batch(tr.p.params,
                             np.ascontiguousarray(xb.transpose(2, 0, 1)),
                             np.ascontiguousarray(ub.transpose(2, 0, 1)), hb)
    assert np.array_equal(_bits(got.transpose(1, 2, 0)), _bits(ref))


@pytest.mark.parametrize("point", ["guess", "mid-solve", "optimum"])
def test_transcription_matches_oracle(iterates, transition, point):
    """The constraints, the Jacobian blocks D, E, Fh and G, and the Hessian
    blocks H and Ht, all taken from ``steps``, equal the bodies that built
    their own stencils bit for bit: at the criterion-6 initial guess, five
    steps into the optimality phase, and at the optimum.  J^T v from either
    set of blocks is bit-equal too, so the blocks' memory layout is the old
    one where a product's order of summation depends on it."""
    tr, points = iterates
    rng = np.random.default_rng(11)
    if point == "optimum":
        _, traj, _ = transition
        z = tr.pack(traj.states, traj.inputs, traj.h)
    else:
        z = points[point][0]
    lam = (points[point][1] if point == "mid-solve"
           else rng.standard_normal(tr.nc))
    assert np.array_equal(_bits(tr.constraints(z)),
                          _bits(transcription_oracle.constraints(tr, z)))
    jac = tr.jacobian(z)
    want = transcription_oracle.jacobian(tr, z)
    for name, got, ref in zip("D E Fh G".split(), jac, want):
        assert np.array_equal(_bits(got), _bits(ref)), name
    v = rng.standard_normal(tr.nc)
    assert np.array_equal(_bits(tr.jac_t_vec(jac, v)),
                          _bits(tr.jac_t_vec(want, v)))
    got = tr.lagrangian_hessian(z, lam)
    want = transcription_oracle.lagrangian_hessian(tr, z, lam)
    for name, a, b in zip(("H", "Ht"), got, want):
        assert np.array_equal(_bits(a), _bits(b)), name


@pytest.mark.parametrize("N", [100, 7])
@pytest.mark.parametrize("M", [1, 30, 91])
def test_blocked_steps_match_one_block(params, monkeypatch, N, M):
    """``steps`` under lane budgets that split the stages into 2, 3 and N
    blocks of whole stages (uneven where N allows) equals one call over
    all of them bit for bit, at the stencil sizes of the constraints, the
    Jacobian and the Hessian."""
    problem, x_target = make_transition_problem(params)
    problem = replace(problem, N=N)
    tr = trajopt._Transcription(problem)
    X, U, h = initial_guess(problem, x_target)
    rng = np.random.default_rng(N * M)
    scale = trajopt._STAGE_SCALE
    offsets = rng.uniform(-1e-3, 1e-3, (M, scale.size)) * scale
    sizes = []
    rk4_batch = trajopt._rk4_batch

    def recorded(params, x, u, hb):
        sizes.append(x.shape[1])
        return rk4_batch(params, x, u, hb)

    monkeypatch.setattr(trajopt, "_rk4_batch", recorded)
    monkeypatch.setattr(trajopt, "_STEP_LANES", N * M)
    want = tr.steps(X, U, h, offsets)
    assert sizes == [N]
    for blocks, lanes in ((2, M * math.ceil(N / 2)),
                          (3, M * math.ceil(N / 3)), (N, 1)):
        sizes.clear()
        monkeypatch.setattr(trajopt, "_STEP_LANES", lanes)
        got = tr.steps(X, U, h, offsets)
        assert len(sizes) == blocks and sum(sizes) == N
        assert np.array_equal(_bits(got), _bits(want)), blocks


def test_lagrangian_hessian_traced_peak(iterates):
    """One criterion-6 Hessian evaluation, stepped in stage blocks, peaks
    at under 5 MiB of traced allocations (7.8 MiB in one block)."""
    tr, points = iterates
    z, lam, _ = points["mid-solve"]
    tr.lagrangian_hessian(z, lam)
    tracemalloc.start()
    try:
        tr.lagrangian_hessian(z, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20


# ---------------------------------------------------------------------------
# terminal polish
# ---------------------------------------------------------------------------

def _shooting_step(problem, U, h):
    """One single-shooting Gauss-Newton step on the terminal conditions: a
    central difference of the whole batched rollout in every free scaled
    input and in h, then the least-norm step clipped to the box.  The
    polish took this step before it went through the transcription."""
    N = problem.N
    lim = problem.limits
    p_scale = np.append(np.tile(trajopt._U_SCALE, N), trajopt._H_SCALE)
    p = np.append(U.ravel(), h) / p_scale

    def terminal_states(P):
        x = np.repeat(problem.x_initial[:, None], P.shape[0], axis=1)
        Ub = P[:, :-1].reshape(-1, N, 2) * trajopt._U_SCALE
        for k in range(N):
            x = trajopt._rk4_batch(problem.params, x, Ub[:, k].T,
                                   P[:, -1] * trajopt._H_SCALE)
        return x.T

    def residual(xN):
        return trajopt._terminal_residual(problem, xN)

    idx = np.delete(np.arange(p.size), [2 * N - 2, 2 * N - 1])  # u_N pinned
    eps = 1e-6
    P = np.repeat(p[None, :], 2 * idx.size + 1, axis=0)
    P[1 + 2 * np.arange(idx.size), idx] += eps
    P[2 + 2 * np.arange(idx.size), idx] -= eps
    xN = terminal_states(P)
    Jg = np.column_stack([(residual(xN[1 + 2 * c]) - residual(xN[2 + 2 * c]))
                          / (2.0 * eps) for c in range(idx.size)])
    p[idx] += np.linalg.lstsq(Jg, -residual(xN[0]), rcond=None)[0]
    lo = np.append(np.tile([lim.ddelta_min, lim.dtau_min], N), problem.h_min)
    hi = np.append(np.tile([lim.ddelta_max, lim.dtau_max], N), problem.h_max)
    p = np.clip(p, lo / p_scale, hi / p_scale)
    return p[:-1].reshape(N, 2) * trajopt._U_SCALE, p[-1] * trajopt._H_SCALE


def test_polish_step_matches_single_shooting(iterates, monkeypatch):
    """At a solve capped at 20 iterations, one polish step through the
    transcription's Jacobian and banded KKT equals the single-shooting
    central-difference Gauss-Newton step in scaled (u, h)."""
    tr, points = iterates
    _, U, h = tr.unpack(points["capped"][0])
    monkeypatch.setattr(trajopt, "_POLISH_MAX_ITER", 1)
    _, U1, h1 = trajopt._polish(tr, U, h)
    U_ref, h_ref = _shooting_step(tr.p, U, h)

    def scaled_step(Un, hn):
        return np.append(((Un - U) / trajopt._U_SCALE).ravel(),
                         (hn - h) / trajopt._H_SCALE)

    got, ref = scaled_step(U1, h1), scaled_step(U_ref, h_ref)
    assert np.linalg.norm(ref) > 0.0
    assert np.linalg.norm(got - ref) <= 1e-5 * np.linalg.norm(ref)


def test_polish_leaving_model_domain_names_transition(params, monkeypatch):
    """A polish rollout that leaves the model's domain fails as the
    transition's convergence error, with the model's own message."""
    problem, x_target = make_transition_problem(params)
    guess = initial_guess(problem, x_target)

    def below_floor(*args):
        raise VelocityFloorError("Vx=0.457 m/s below the 0.5 m/s slip-model "
                                 "floor")

    monkeypatch.setattr(trajopt, "rk4_step", below_floor)
    with pytest.raises(ConvergenceError,
                       match=r"^transition rollout left the model domain "
                             r"after \d+ interior-point iterations: "
                             r"Vx=0\.457 m/s below"):
        solve_transition(problem, guess)


def test_capped_solve_is_polished(params, monkeypatch, caplog):
    """Stopped by a 20-iteration cap, the solve warns and still returns a
    plan on its terminal conditions whose states are the exact scalar RK4
    replay of its inputs."""
    monkeypatch.setattr(trajopt, "_IPM_MAX_ITER", 20)
    problem, x_target = make_transition_problem(params)
    with caplog.at_level(logging.WARNING, logger="thermaldrift.trajopt"):
        traj = solve_transition(problem, initial_guess(problem, x_target))
    assert "20-iteration cap" in caplog.text
    assert traj.terminal_residual < 1e-10
    replay = [problem.x_initial]
    for k in range(problem.N):
        replay.append(rk4_step(params, replay[-1], traj.inputs[k], traj.h))
    assert np.array_equal(np.array(replay), traj.states)
