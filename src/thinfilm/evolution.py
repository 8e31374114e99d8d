"""Mass-conservative implicit time stepping for the regularized flow

    u_t + d/dx [ f_eps(u) d/dx (u_xx + alpha^2 u + cos x) ] = 0,
    f_eps(z) = max(z, 0)^n + eps,

on the periodic grid.  Space is discretized in conservative flux form with
second-order stencils: nodal pressure p_i = (u_{i-1} - 2u_i + u_{i+1})/h^2
+ alpha^2 u_i + cos x_i and edge fluxes F_{i+1/2} = m_{i+1/2} (p_{i+1} -
p_i)/h with the mean edge mobility m_{i+1/2} = (f_eps(u_i) +
f_eps(u_{i+1}))/2, so the discrete mass h*sum(u) telescopes to a constant
at every step.  Time is variable-step BDF2: second order, and A-stable at
constant step, so the stiff fourth-order operator does not restrict dt.
With the step ratio omega = dt/dt_prev its step equation is

    v - u~ + dt' div F(v) = 0,
    u~ = ((1 + omega)^2 u_n - omega^2 u_{n-1}) / (1 + 2 omega),
    dt' = dt (1 + omega) / (1 + 2 omega),

which has the backward-Euler form with u~ in place of u_n.  u~ carries
u_n's mass, so the conservative structure is untouched.  A step without a
previous step (the first of a run, or step() on its own) is backward
Euler, omega = 0.  omega is held at or below OMEGA_MAX < 1 + sqrt(2), the
zero-stability bound of variable-step BDF2 (Grigorieff 1983).

Each step solves the nonlinear system by Newton iteration with an
analytically assembled Jacobian.  The pressure stencil couples each flux
divergence to five consecutive nodes, so the Jacobian is cyclic
pentadiagonal: banded with bandwidth 2 except for the periodic corners.
Listing the unknowns in the folded order 0, N-1, 1, N-2, ... puts any two
nodes within cyclic distance 2 of each other at most 4 positions apart,
so in that order the matrix is an ordinary band matrix of bandwidth 4,
corners included, and one dense banded LU (LAPACK gbsv) solves it.  A
step is accepted only if Newton converged, the iterate stayed positive
(when the run guards positivity), its local error estimate is within TOL,
and the energy did not increase beyond a round-off slack.

The step size is error-controlled (Hairer & Wanner, Solving ODEs II,
III.5; Soderlind 2002).  The last three accepted states are extrapolated
quadratically to the new time; this predictor is Newton's starting
iterate, and by Milne's device its gap to the BDF2 solution estimates the
local error,

    est = C max|v - pred| / (1 + max|u_n|),   C = 2/11,

BDF2's error constant over that of the extrapolation at constant step.
A step with est > TOL is rejected; otherwise the next dt is dt times
clip(0.9 (TOL/est)^(1/3), 0.2, OMEGA_MAX).  An error rejection shrinks dt
by the same factor, and a Newton, positivity or energy rejection halves
it, all within [dt_min, dt_max].  A step that needed a rejection does not
grow dt (Hairer & Wanner's facmax = 1), so a guard that fails above some
dt is not met again on the very next step.  The first step (backward
Euler) and the second (linear predictor) have no estimate, so they keep
dt0 and the estimate sizes every step from the third on.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy

from . import steady
from .functionals import DiagnosticsSample, Params, diagnostics_sample, energy
from .grid import Field, integrate


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, scipy.linalg._flapack, loaded on its
    own.  gbsv needs only this extension; importing it through
    scipy.linalg.lapack runs the scipy.linalg package init first, about
    0.3 s and 25 MB of start-up (its array-API layer alone pulls in
    numpy.f2py, numpy.testing and numpy.ma) that every command would pay."""
    dirs = [os.path.join(d, "linalg") for d in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", dirs)
    if spec is None:
        raise ImportError(f"no scipy.linalg._flapack extension in {os.pathsep.join(dirs)}",
                          name="scipy.linalg._flapack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dgbsv = _load_flapack().dgbsv


class NonConvergence(RuntimeError):
    """Newton (or the energy guard) kept failing all the way down to dt_min."""


class PositivityLoss(RuntimeError):
    """The positivity guard kept rejecting steps all the way down to dt_min."""


OMEGA_MAX = 2.0  # largest step ratio dt/dt_prev; below 1 + sqrt(2)
MILNE = 2.0 / 11.0  # local error of BDF2 per unit gap between solution and predictor
TOL = 1e-5  # local error tolerance per step, relative to 1 + max|u|
REJECTION_REASONS = ("newton", "positivity", "error", "energy")


def _same_time(a: float, b: float) -> bool:
    """a and b name the same time: a log time, or the time a step lands on."""
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping settings of a run.  Each field is also the run-file key
    of its name, typed by its annotation (int, float or tuple) and defaulting
    to its default; a field without a default is a required key."""

    t_end: float
    dt0: float = 1e-4
    dt_min: float = 1e-14
    dt_max: float = 8.0
    log_times: tuple = ()
    newton_tol: float = 1e-10
    newton_max: int = 12
    energy_slack: float = 1e-10  # allowed energy increase per step, times (1 + |E|)
    sample_every: int = 1  # record diagnostics every this many accepted steps

    def __post_init__(self):
        if not (0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise ValueError("require 0 < dt_min <= dt0 <= dt_max")
        if self.newton_tol <= 0 or self.newton_max < 1:
            raise ValueError("newton_tol must be positive, newton_max >= 1")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if any(t < 0 or t > self.t_end + 1e-12 for t in self.log_times):
            raise ValueError("log_times must lie in [0, t_end]")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.energy_slack < 0:
            raise ValueError(f"energy_slack must be nonnegative, got {self.energy_slack}")
        times = tuple(sorted(self.log_times))
        for a, b in zip(times, times[1:]):
            if _same_time(a, b):
                raise ValueError(f"log_times must not repeat a time, got {b} twice")
        object.__setattr__(self, "log_times", times)


@dataclass
class EvolutionState:
    t: float
    u: Field
    dt_current: float = 0.0
    enforce_positive: bool = False
    E: Optional[float] = None  # energy of u, if known; step() computes it when None
    u_prev: Optional[np.ndarray] = None  # values one accepted step back; None: no history
    dt_prev: float = 0.0  # length of the step from u_prev to u
    u_prev2: Optional[np.ndarray] = None  # values two accepted steps back
    dt_prev2: float = 0.0  # length of the step from u_prev2 to u_prev
    steps: int = 0  # accepted steps taken to reach this state
    solves: int = 0  # linear solves taken to reach this state
    rejections: dict = field(default_factory=lambda: dict.fromkeys(REJECTION_REASONS, 0))


def _next(a: np.ndarray) -> np.ndarray:
    """Periodic shift: entry i holds a[i+1]."""
    return np.concatenate((a[1:], a[:1]))


def _prev(a: np.ndarray) -> np.ndarray:
    """Periodic shift: entry i holds a[i-1]."""
    return np.concatenate((a[-1:], a[:-1]))


def _mobility(v: np.ndarray, params: Params) -> np.ndarray:
    return np.where(v > 0.0, v, 0.0) ** params.n + params.eps


def _gradients(v, h, alpha, cos_x):
    """Edge pressure gradients (p_{i+1} - p_i)/h via cascaded differences.

    Forming p first and differencing it amplifies round-off by 1/h^4 across
    the whole chain; successive differences of neighbouring values are exact
    (or nearly so) in floating point, which keeps the flux evaluation at
    relative precision.  Returns (ddu, gp) with ddu the nodal second
    differences.
    """
    du = _next(v) - v
    ddu = du - _prev(du)
    dddu = _next(ddu) - ddu
    dcos = _next(cos_x) - cos_x
    gp = dddu / h**3 + alpha**2 * du / h + dcos / h
    return ddu, gp


def _residual(v, u_old, dt, grid, params, cos_x):
    """G(v) = v - u_old + dt * div(F(v)); the step equation in u-units.

    Returns (G, p, m, F): the nodal pressure p = u_xx + alpha^2 u + cos x
    with the 3-point second difference, the edge mobilities
    m_{i+1/2} = (f_eps(v_i) + f_eps(v_{i+1}))/2 and the edge fluxes
    F[i] = m_{i+1/2} (p_{i+1} - p_i)/h between nodes i and i+1.
    """
    h = grid.h
    ddu, gp = _gradients(v, h, params.alpha, cos_x)
    f = _mobility(v, params)
    m = 0.5 * (f + _next(f))
    F = m * gp
    p = ddu / (h * h) + params.alpha**2 * v + cos_x
    return v - u_old + dt * (F - _prev(F)) / h, p, m, F


def _jacobian(v, p, m, dt, grid, params) -> np.ndarray:
    """Analytic Jacobian of the residual: cyclic pentadiagonal, returned as
    its five diagonals, row k + 2 holding J[i, (i + k) mod N] for k = -2..2."""
    h = grid.h
    a2 = params.alpha**2
    c = dt / h
    h2 = h * h
    h3 = h2 * h
    n = params.n
    # d f_eps / dv and its effect on the two edge mobilities adjacent to a node
    fp = np.where(v > 0.0, n * np.where(v > 0.0, v, 1.0) ** (n - 1.0), 0.0)
    dm_left = 0.5 * fp           # d m_{i+1/2} / d v_i
    dm_right = 0.5 * _next(fp)   # d m_{i+1/2} / d v_{i+1}
    gp = (_next(p) - p) / h  # pressure gradient on edge i

    # F_e couples v_{e-1}..v_{e+2}; row i sees edges i and i-1.
    m_prev = _prev(m)
    gp_prev = _prev(gp)
    d_m2 = c * m_prev / h3
    d_m1 = c * (-m / h3 - _prev(dm_left) * gp_prev - m_prev * (3.0 / h2 - a2) / h)
    d_0 = 1.0 + c * (dm_left * gp - _prev(dm_right) * gp_prev
                     + (m + m_prev) * (3.0 / h2 - a2) / h)
    d_p1 = c * (dm_right * gp + m * (a2 - 3.0 / h2) / h - m_prev / h3)
    d_p2 = c * m / h3
    return np.stack((d_m2, d_m1, d_0, d_p1, d_p2))


def _folded_band(N: int):
    """Folded ordering and band-storage positions for the cyclic solve.

    Returns (order, flat).  order = [0, N-1, 1, N-2, ...] lists the nodes in
    folded order.  The folded matrix has lower and upper bandwidths 4, and
    LAPACK gbsv factorises it in place in (2*4 + 4 + 1, N) = (13, N) band
    storage: A[r, c] sits in row 8 + r - c, column c, and rows 0-3 are
    workspace for the fill-in of the row pivoting.  flat[k + 2, i] is where
    J[i, (i + k) mod N] goes in that storage raveled in column-major
    (Fortran) order, the order gbsv takes without a copy.
    """
    i = np.arange(N)
    pos = np.minimum(2 * i, 2 * (N - i) - 1)  # place of node i in the folded order
    order = np.argsort(pos)
    padded = np.concatenate((pos[-2:], pos, pos[:2]))
    col = np.stack([padded[k:k + N] for k in range(5)])  # col[k + 2, i] = pos[i + k]
    return order, (8 + pos - col) + 13 * col  # row + 13 * column


def _solve_cyclic(diags, rhs, fold):
    """Solve J x = rhs for the cyclic pentadiagonal J given by its five
    diagonals (as `_jacobian` returns them), with fold = _folded_band(N).

    Scatters the diagonals into the (13, N) column-major band storage, calls
    LAPACK gbsv on it directly and un-permutes the solution.  Raises
    LinAlgError when gbsv reports an exactly zero pivot (singular J).
    """
    order, flat = fold
    N = rhs.shape[0]
    ab = np.zeros(13 * N)
    ab[flat] = diags
    _, _, y, info = dgbsv(4, 4, ab.reshape(N, 13).T, rhs[order],
                          overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"exactly singular: U[{info - 1}, {info - 1}] is zero")
    x = np.empty(N)
    x[order] = y
    return x


_FLOOR_SAFETY = 4.0


def _representability_floor(u_old, dt, grid, params) -> float:
    """Smallest residual magnitude attainable at the solution.

    The iterate carries at best eps * |u| of resolution; pushed through the
    implicit operator, whose norm grows like 16 dt max(f_eps)/h^4 along the
    fourth-difference chain, that resolution limit reappears as a residual
    of this size.  Newton cannot do better in double precision.
    """
    eps_m = float(np.finfo(float).eps)
    umax = float(np.abs(u_old).max())
    fmax = float(_mobility(u_old, params).max())
    return _FLOOR_SAFETY * eps_m * max(1.0, umax) * (1.0 + 16.0 * dt * fmax / grid.h**4)


def _bdf2_history(u, u_prev, omega):
    """(u~, dt'/dt) of the variable-step BDF2 step from u_prev and u with the
    step ratio omega: the step solves v - u~ + dt' div F(v) = 0.  The
    weights of u~ sum to one, so u~ has u's mass when u_prev does."""
    w = 1.0 + 2.0 * omega
    return ((1.0 + omega) ** 2 * u - omega**2 * u_prev) / w, (1.0 + omega) / w


def _predictor(state: EvolutionState, dt: float) -> np.ndarray:
    """The accepted states extrapolated to state.t + dt: quadratically
    through u, u_prev and u_prev2, or linearly through u and u_prev when
    u_prev2 is absent.  Written as u plus multiples of differences of
    states, so it has u's mass when they all do."""
    u, k1 = state.u.values, state.dt_prev
    if state.u_prev2 is None:
        return u + (dt / k1) * (u - state.u_prev)
    k2 = state.dt_prev2
    w1 = -dt * (dt + k1 + k2) / (k1 * k2)  # Lagrange weights of u_prev and u_prev2
    w2 = dt * (dt + k1) / ((k1 + k2) * k2)
    return u + w1 * (state.u_prev - u) + w2 * (state.u_prev2 - u)


def _newton(u_old, v, dt, grid, params, cos_x, fold, tol_abs, newton_max):
    """Newton iteration from the iterate v for v - u_old + dt div F(v) = 0,
    the step equation of backward Euler and, with u_old = u~ and dt = dt',
    of BDF2; fold = _folded_band(N).  Returns (v, converged, linear solves).

    Converged when the residual reaches newton_tol scale -- or, after at
    least one real update has absorbed the resolved physics, when it
    reaches the double-precision representability floor.  The floor is
    never applied to the unmoved initial iterate, so near-steady states
    still take their genuine relaxation step.
    """
    floor = max(tol_abs, _representability_floor(u_old, dt, grid, params))
    for it in range(newton_max):
        G, p, m, _ = _residual(v, u_old, dt, grid, params, cos_x)
        gmax = float(np.abs(G).max())
        if gmax <= tol_abs or (it > 0 and gmax <= floor):
            return v, True, it
        J = _jacobian(v, p, m, dt, grid, params)
        try:
            v_new = v + _solve_cyclic(J, -G, fold)
        except np.linalg.LinAlgError:  # exactly singular: no Newton update exists
            return v, False, it + 1
        if np.array_equal(v_new, v):  # update below the last ulp; cannot improve
            return v, bool(gmax <= floor), it + 1
        v = v_new
    G, _, _, _ = _residual(v, u_old, dt, grid, params, cos_x)
    return v, bool(np.abs(G).max() <= floor), newton_max


def _error_factor(est: float) -> float:
    """The step-size factor the estimate est asks for, 0.9 (TOL/est)^(1/3)
    but at least 0.2; unbounded when est = 0."""
    return max(0.9 * (TOL / est) ** (1.0 / 3.0), 0.2) if est > 0.0 else math.inf


def step(state: EvolutionState, config: SchemeConfig, params: Params,
         max_dt: Optional[float] = None, cos_x: Optional[np.ndarray] = None,
         fold=None) -> EvolutionState:
    """Advance one accepted BDF2 step, choosing dt by the local error.

    The step is backward Euler when state has no u_prev, and otherwise
    takes dt no larger than OMEGA_MAX * state.dt_prev.  max_dt caps the
    step too (run() passes the time left to the next log time).  A capped
    step that is accepted leaves the schedule's nominal dt as it was,
    unless its error estimate asks for less.  An error-test failure at
    dt_min accepts the step, so fixed-step runs (dt_min = dt_max) finish.

    The Newton convergence test is on the u-units residual,
    sup|v - u~ + dt' div F(v)| <= newton_tol (1 + sup|u|), i.e. the PDE-form
    residual scaled by dt', which keeps accept/reject behaviour uniform
    across step sizes.  The energy guard compares against state.E, stored
    by the previous accepted step, and evaluates it only when absent.
    cos_x = cos(grid.nodes) and fold = _folded_band(N) depend only on the
    grid; run() builds them once and passes them, and step() builds them
    when they are absent.  The returned state adds this step's accepted
    step, linear solves and rejections to state's counts.  Raises
    NonConvergence or PositivityLoss once dt_min is reached.
    """
    grid = state.u.grid
    if cos_x is None:
        cos_x = np.cos(grid.nodes)
    if fold is None:
        fold = _folded_band(grid.N)
    u_old = state.u.values
    scale = 1.0 + float(np.abs(u_old).max())
    tol_abs = config.newton_tol * scale
    E_old = state.E if state.E is not None else energy(state.u, params.alpha)
    mass_old = math.fsum(u_old.tolist())
    dt_nominal = min(state.dt_current if state.dt_current > 0 else config.dt0, config.dt_max)
    dt_cap = math.inf if max_dt is None else max_dt
    if state.u_prev is not None:
        dt_cap = min(dt_cap, OMEGA_MAX * state.dt_prev)
    at_dt_min = config.dt_min * (1.0 + 1e-12)
    has_estimate = state.u_prev2 is not None
    solves = state.solves
    rejections = dict(state.rejections)

    while True:
        dt = min(dt_nominal, dt_cap)
        if state.u_prev is None:
            u_tilde, dt_eff, pred = u_old, dt, u_old
        else:
            u_tilde, ratio = _bdf2_history(u_old, state.u_prev, dt / state.dt_prev)
            dt_eff = ratio * dt
            pred = _predictor(state, dt)
        v, converged, its = _newton(u_tilde, pred, dt_eff, grid, params, cos_x, fold,
                                    tol_abs, config.newton_max)
        solves += its
        # The conservative form makes sum(v) = sum(u~) = sum(u_old) an
        # identity of the step equation; re-impose it exactly so
        # linear-solver round-off cannot random-walk the mass over long runs.
        v = v - (math.fsum(v.tolist()) - mass_old) / grid.N
        est = 0.0
        if has_estimate:
            est = MILNE * float(np.abs(v - pred).max()) / scale
        reason = None
        if not converged:
            reason = "newton"
        elif state.enforce_positive and v.min() <= 0.0:
            reason = "positivity"
        elif est > TOL and dt > at_dt_min:
            reason = "error"
        else:
            u_new = Field(grid, v)
            E_new = energy(u_new, params.alpha)
            if E_new > E_old + config.energy_slack * (1.0 + abs(E_old)):
                reason = "energy"
        if reason is None:
            break
        rejections[reason] += 1
        if dt <= at_dt_min:
            if reason == "positivity":
                raise PositivityLoss(f"step rejected ({reason}) at dt_min = {config.dt_min}")
            raise NonConvergence(f"step rejected ({reason}) at dt_min = {config.dt_min}")
        shrink = _error_factor(est) if reason == "error" else 0.5
        dt_nominal = max(dt * shrink, config.dt_min)

    factor = _error_factor(est)
    if rejections != state.rejections:  # a step that needed a retry does not grow dt
        factor = min(factor, 1.0)
    if not has_estimate:  # a start-up step keeps the nominal dt
        dt_next = dt_nominal
    elif dt < dt_nominal:  # capped: keep the nominal dt unless the estimate asks for less
        dt_next = min(dt_nominal, dt * factor)
    else:
        dt_next = dt * min(factor, OMEGA_MAX)
    return EvolutionState(
        t=state.t + dt,
        u=u_new,
        dt_current=min(max(dt_next, config.dt_min), config.dt_max),
        enforce_positive=state.enforce_positive,
        E=E_new,
        u_prev=u_old,
        dt_prev=dt,
        u_prev2=state.u_prev,
        dt_prev2=state.dt_prev,
        steps=state.steps + 1,
        solves=solves,
        rejections=rejections,
    )


@dataclass
class TrajectoryRecord:
    """Everything a run produces: per-step diagnostics, snapshot fields at the
    requested log times, the reference minimizer, the entropy excess, and
    the solver's counts of steps, linear solves and rejections."""

    params: Params
    config: SchemeConfig
    samples: list
    snapshots: dict
    reference: steady.SteadyState
    ref_field: Field
    ref_shift: float  # added to the sampled minimizer to give ref_field the run's mass
    final: Field
    entropy_excess_max: float
    steps: int  # accepted steps
    solves: int  # linear solves, over accepted and rejected attempts
    rejections: dict  # rejected attempts by reason (REJECTION_REASONS)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])


def run(u0: Field, params: Params, config: SchemeConfig) -> TrajectoryRecord:
    """Integrate to t_end, recording diagnostics each accepted step (subject
    to sample_every) and snapshots exactly at the log times.

    eps = 0 needs nonnegative data: with exact zeros the dry set carries no
    mobility and stays inert (the positive-interior variant, used for
    steady-preservation runs); strictly positive data additionally keeps
    the positivity guard on, so a nonpositive Newton solution rejects the
    step.

    Distances are measured against the sampled minimizer shifted by the
    constant (M - h sum ref)/(2 pi): sampling leaves its discrete mass off
    the run's mass M by O(h^2), and dH1 is an H1 norm only for equal
    masses.  The shift leaves dH1 unchanged.
    """
    if u0.values.min() < -1e-13:
        raise ValueError("initial data must be nonnegative (eps = 0 included: "
                         "exact zeros are inert, negative values are not)")
    mass = integrate(u0)
    ref_state = steady.minimizer(params.alpha, mass)
    sampled = steady.evaluate(ref_state, u0.grid)
    ref_shift = (mass - integrate(sampled)) / (2.0 * np.pi)
    ref_field = Field(u0.grid, sampled.values + ref_shift)

    state = EvolutionState(
        t=0.0, u=u0, dt_current=config.dt0,
        enforce_positive=bool(u0.values.min() > 0.0),
        E=energy(u0, params.alpha),
    )
    samples = []

    def measure(st: EvolutionState) -> DiagnosticsSample:
        sample = diagnostics_sample(st.t, st.u, params, ref_field, st.E)
        samples.append(sample)
        return sample

    s_kad0 = measure(state).S_kad
    entropy_excess = 0.0

    snapshots = {}
    remaining = list(config.log_times)
    while remaining and _same_time(state.t, remaining[0]):
        snapshots[remaining.pop(0)] = state.u

    cos_x = np.cos(u0.grid.nodes)
    fold = _folded_band(u0.grid.N)
    steps_since_sample = 0
    while state.t < config.t_end and not _same_time(state.t, config.t_end):
        target = remaining[0] if remaining else config.t_end
        state = step(state, config, params, max_dt=target - state.t,
                     cos_x=cos_x, fold=fold)
        steps_since_sample += 1
        at_target = _same_time(state.t, target)
        if steps_since_sample >= config.sample_every or at_target:
            # a NaN excess (no Kadanoff entropy, or inf - inf) leaves the max as it was
            entropy_excess = max(entropy_excess, measure(state).S_kad - s_kad0)
            steps_since_sample = 0
        while remaining and _same_time(state.t, remaining[0]):
            snapshots[remaining.pop(0)] = state.u

    return TrajectoryRecord(
        params=params, config=config, samples=samples,
        snapshots=snapshots, reference=ref_state, ref_field=ref_field,
        ref_shift=ref_shift, final=state.u, entropy_excess_max=entropy_excess,
        steps=state.steps, solves=state.solves, rejections=state.rejections,
    )
