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
analytically assembled Jacobian.  The residual returns the edge mobilities
and edge pressure gradients it forms, and the Jacobian is built from them
(and f_eps') without differencing the pressure again; the pressure itself
is never formed.  The pressure stencil couples each flux divergence to
five consecutive nodes, so the Jacobian is cyclic pentadiagonal: banded
with bandwidth 2 except for the periodic corners.
Listing the unknowns in the folded order 0, N-1, 1, N-2, ... puts any two
nodes within cyclic distance 2 of each other at most 4 positions apart,
so in that order the matrix is an ordinary band matrix of bandwidth 4,
corners included, and one dense banded LU (LAPACK gbsv) solves it.  A
step is accepted only if Newton converged, the iterate stayed positive
(when the run guards positivity), its local error estimate is within TOL,
and the energy did not rise by more than ENERGY_SLACK (1 + |E|).

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

from . import steady
from .functionals import Params, diagnostics_sample, energy
from .grid import Field, integrate


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, scipy.linalg._flapack, loaded on its
    own.  gbsv needs only this extension; importing it through
    scipy.linalg.lapack runs the scipy.linalg package init first, about
    0.3 s and 25 MB of start-up (its array-API layer alone pulls in
    numpy.f2py, numpy.testing and numpy.ma) that every command would pay.
    SciPy's directories come from its import spec, so the scipy package init
    (which imports subprocess, sysconfig and SciPy's test helpers) does not
    run either.  A build whose extension finds its shared libraries only
    through that init (Windows wheels add their OpenBLAS DLL directory
    there) is loaded again after it."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    dirs = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", dirs)
    if spec is None:
        raise ImportError(f"no scipy.linalg._flapack extension in {os.pathsep.join(dirs)}",
                          name="scipy.linalg._flapack")

    def load():
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    try:
        return load()
    except ImportError:
        import scipy  # noqa: F401
        return load()


dgbsv = _load_flapack().dgbsv


class NonConvergence(RuntimeError):
    """Newton (or the energy guard) kept failing all the way down to dt_min."""


class PositivityLoss(RuntimeError):
    """The positivity guard kept rejecting steps all the way down to dt_min."""


OMEGA_MAX = 2.0  # largest step ratio dt/dt_prev; below 1 + sqrt(2)
MILNE = 2.0 / 11.0  # local error of BDF2 per unit gap between solution and predictor
TOL = 1e-5  # local error tolerance per step, relative to 1 + max|u|
# Newton residual tolerance, relative to 1 + max|u|.  It must stay far below
# TOL: Newton may accept the predictor unchanged, and that step's estimate reads 0.
NEWTON_TOL = 1e-10
NEWTON_MAX = 12  # Newton iterations per step attempt
ENERGY_SLACK = 1e-10  # allowed energy increase per step, times (1 + |E|)
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
    sample_every: int = 1  # record diagnostics every this many accepted steps

    def __post_init__(self):
        if not (0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise ValueError("require 0 < dt_min <= dt0 <= dt_max")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if any(t < 0 or t > self.t_end + 1e-12 for t in self.log_times):
            raise ValueError("log_times must lie in [0, t_end]")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
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
    # correctly rounded sum of the values, which every step re-imposes and
    # carries on; step() takes it from u when None
    u_sum: Optional[float] = None
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


def _residual(v, u_old, dt, grid, params, dcos):
    """G(v) = v - u_old + dt * div(F(v)); the step equation in u-units.
    dcos[i] = cos x_{i+1} - cos x_i.

    Returns (G, m, gp), the two edge quantities the Jacobian reuses: the
    edge mobilities m[i] = (f_eps(v_i) + f_eps(v_{i+1}))/2 and the edge
    pressure gradients gp[i] = (p_{i+1} - p_i)/h, so that the flux between
    nodes i and i+1 is F = m gp.  gp is formed by cascaded differences of
    v rather than by differencing the pressure p: forming p first amplifies
    its round-off by 1/h^4 across the whole chain, while successive
    differences of neighbouring values are exact (or nearly so) in floating
    point, which keeps the flux at relative precision.  The periodic
    neighbours are slices of one padded copy of v (and so of f_eps and of
    the differences) and of F.
    """
    h = grid.h
    N = v.shape[0]
    w = np.concatenate((v[-1:], v, v[:2]))  # w[i + 1] = v[i mod N], i = -1..N+1
    dw = w[1:] - w[:-1]  # dw[i + 1] = v[i+1] - v[i], i = -1..N
    ddu = dw[1:] - dw[:-1]  # ddu[i] = dw[i + 1] - dw[i], i = 0..N
    gp = (ddu[1:] - ddu[:-1]) / h**3 + params.alpha**2 * dw[1:N + 1] / h + dcos / h
    f = _mobility(w, params)
    m = 0.5 * (f[1:N + 1] + f[2:N + 2])
    F = m * gp
    F = np.concatenate((F[-1:], F))  # F[i + 1] = F_{i+1/2}, i = -1..N-1
    return v - u_old + dt * (F[1:] - F[:-1]) / h, m, gp


def _jacobian(v, m, gp, dt, grid, params) -> np.ndarray:
    """Analytic Jacobian of the residual from the edge mobilities m and
    pressure gradients gp that `_residual` returned for v: cyclic
    pentadiagonal, returned as its five diagonals, row k + 2 holding
    J[i, (i + k) mod N] for k = -2..2.

    Row i is c (F_i - F_{i-1}) differentiated, c = dt/h.  The flux
    F_e = m_e gp_e couples v_{e-1}..v_{e+2} through gp_e, whose stencil has
    the outer weights -+1/h^3 and the inner ones +-(3/h^2 - alpha^2)/h, so
    the shared terms mh = c m/h^3 and mg = c (3/h^2 - alpha^2) m/h make up
    all the gp derivatives; and it couples v_e, v_{e+1} through m_e, whose
    derivative in either is f_eps'/2, so q = c f_eps'/2 times gp_e makes up
    the mobility ones.
    """
    h = grid.h
    c = dt / h
    n = params.n
    pos = v > 0.0
    q = (0.5 * c * n) * np.where(pos, np.where(pos, v, 1.0) ** (n - 1.0), 0.0)
    mh = (c / h**3) * m
    mg = (c * (3.0 / (h * h) - params.alpha**2) / h) * m
    qg = q * gp
    mh_prev = _prev(mh)
    mg_prev = _prev(mg)
    J = np.empty((5, v.shape[0]))
    J[0] = mh_prev
    J[1] = -mh - _prev(qg) - mg_prev
    J[2] = 1.0 + qg - q * _prev(gp) + mg + mg_prev
    J[3] = _next(q) * gp - mg - mh_prev
    J[4] = mh
    return J


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
_EPS = float(np.finfo(float).eps)


def _representability_floor(u_old, dt, grid, params) -> float:
    """Smallest residual magnitude attainable at the solution.

    The iterate carries at best eps * |u| of resolution; pushed through the
    implicit operator, whose norm grows like 16 dt max(f_eps)/h^4 along the
    fourth-difference chain, that resolution limit reappears as a residual
    of this size.  Newton cannot do better in double precision.  f_eps is
    nondecreasing, so max(f_eps) is f_eps(max u_old).
    """
    umax = float(np.abs(u_old).max())
    fmax = max(float(u_old.max()), 0.0) ** params.n + params.eps
    return _FLOOR_SAFETY * _EPS * max(1.0, umax) * (1.0 + 16.0 * dt * fmax / grid.h**4)


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


def _grid_terms(grid):
    """The step inputs that depend only on the grid: (dcos, fold) with
    dcos = cos x_{i+1} - cos x_i and fold = _folded_band(N)."""
    cos_x = np.cos(grid.nodes)
    return _next(cos_x) - cos_x, _folded_band(grid.N)


def _newton(u_old, v, dt, grid, params, dcos, fold, tol_abs):
    """Newton iteration from the iterate v for v - u_old + dt div F(v) = 0,
    the step equation of backward Euler and, with u_old = u~ and dt = dt',
    of BDF2; dcos as for `_residual`, fold = _folded_band(N).  Returns
    (v, converged, linear solves).

    Converged when the residual reaches tol_abs -- or, after at
    least one real update has absorbed the resolved physics, when it
    reaches the double-precision representability floor.  The floor is
    never applied to the unmoved initial iterate, so near-steady states
    still take their genuine relaxation step.  The floor is evaluated only
    when a residual above tol_abs is tested against it.
    """
    def at_floor(gmax):
        return gmax <= tol_abs or gmax <= _representability_floor(u_old, dt, grid, params)

    for it in range(NEWTON_MAX):
        G, m, gp = _residual(v, u_old, dt, grid, params, dcos)
        gmax = float(np.abs(G).max())
        if gmax <= tol_abs or (it > 0 and at_floor(gmax)):
            return v, True, it
        J = _jacobian(v, m, gp, dt, grid, params)
        try:
            v_new = v + _solve_cyclic(J, -G, fold)
        except np.linalg.LinAlgError:  # exactly singular: no Newton update exists
            return v, False, it + 1
        if np.array_equal(v_new, v):  # update below the last ulp; cannot improve
            return v, at_floor(gmax), it + 1
        v = v_new
    G, _, _ = _residual(v, u_old, dt, grid, params, dcos)
    return v, at_floor(float(np.abs(G).max())), NEWTON_MAX


def _error_factor(est: float) -> float:
    """The step-size factor the estimate est asks for, 0.9 (TOL/est)^(1/3)
    but at least 0.2; unbounded when est = 0."""
    return max(0.9 * (TOL / est) ** (1.0 / 3.0), 0.2) if est > 0.0 else math.inf


def step(state: EvolutionState, config: SchemeConfig, params: Params,
         dcos: np.ndarray, fold, max_dt: Optional[float] = None) -> EvolutionState:
    """Advance one accepted BDF2 step, choosing dt by the local error.

    The step is backward Euler when state has no u_prev, and otherwise
    takes dt no larger than OMEGA_MAX * state.dt_prev.  max_dt caps the
    step too (run() passes the time left to the next log time).  A capped
    step that is accepted leaves the schedule's nominal dt as it was,
    unless its error estimate asks for less.  An error-test failure at
    dt_min accepts the step, so fixed-step runs (dt_min = dt_max) finish.

    The Newton convergence test is on the u-units residual,
    sup|v - u~ + dt' div F(v)| <= NEWTON_TOL (1 + sup|u|), i.e. the PDE-form
    residual scaled by dt', which keeps accept/reject behaviour uniform
    across step sizes.  The energy guard compares against state.E, stored
    by the previous accepted step, and evaluates it only when absent.  The
    mass re-imposition restores state.u_sum, so a run sums its first state
    once and every later step restores that same sum.
    (dcos, fold) = _grid_terms(grid) depend only on the grid; run() builds
    them once and passes them to every step.  The returned state adds this
    step's accepted step, linear solves and rejections to state's counts.
    Raises NonConvergence or PositivityLoss once dt_min is reached.
    """
    grid = state.u.grid
    u_old = state.u.values
    scale = 1.0 + float(np.abs(u_old).max())
    tol_abs = NEWTON_TOL * scale
    E_old = state.E if state.E is not None else energy(state.u, params.alpha)
    u_sum = state.u_sum if state.u_sum is not None else math.fsum(u_old.tolist())
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
        v, converged, its = _newton(u_tilde, pred, dt_eff, grid, params, dcos, fold, tol_abs)
        solves += its
        # The conservative form makes sum(v) = sum(u~) = sum(u_old) an
        # identity of the step equation; re-impose the carried sum exactly
        # so linear-solver round-off cannot random-walk the mass over long runs.
        v = v - (math.fsum(v.tolist()) - u_sum) / grid.N
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
            if E_new > E_old + ENERGY_SLACK * (1.0 + abs(E_old)):
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
        u_sum=u_sum,
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
    requested log times, the reference minimizer, and the solver's counts of
    steps, linear solves and rejections."""

    params: Params
    config: SchemeConfig
    samples: list
    snapshots: dict
    reference: steady.SteadyState
    ref_field: Field
    ref_shift: float  # added to the sampled minimizer to give ref_field the run's mass
    final: Field
    steps: int  # accepted steps
    solves: int  # linear solves, over accepted and rejected attempts
    rejections: dict  # rejected attempts by reason (REJECTION_REASONS)


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

    def measure(st: EvolutionState) -> None:
        samples.append(diagnostics_sample(st.t, st.u, params, ref_field, st.E))

    measure(state)

    snapshots = {}
    remaining = list(config.log_times)
    while remaining and _same_time(state.t, remaining[0]):
        snapshots[remaining.pop(0)] = state.u

    dcos, fold = _grid_terms(u0.grid)
    steps_since_sample = 0
    while state.t < config.t_end and not _same_time(state.t, config.t_end):
        target = remaining[0] if remaining else config.t_end
        state = step(state, config, params, dcos, fold, max_dt=target - state.t)
        steps_since_sample += 1
        at_target = _same_time(state.t, target)
        if steps_since_sample >= config.sample_every or at_target:
            measure(state)
            steps_since_sample = 0
        while remaining and _same_time(state.t, remaining[0]):
            snapshots[remaining.pop(0)] = state.u

    return TrajectoryRecord(
        params=params, config=config, samples=samples,
        snapshots=snapshots, reference=ref_state, ref_field=ref_field,
        ref_shift=ref_shift, final=state.u,
        steps=state.steps, solves=state.solves, rejections=state.rejections,
    )
