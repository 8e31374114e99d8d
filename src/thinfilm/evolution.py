"""Mass-conservative implicit time stepping for the regularized flow

    u_t + d/dx [ f_eps(u) d/dx (u_xx + alpha^2 u + cos x) ] = 0,
    f_eps(z) = max(z, 0)^n + eps,

on the periodic grid.  Space is discretized in conservative flux form with
second-order stencils: nodal pressure p_i = (u_{i-1} - 2u_i + u_{i+1})/h^2
+ alpha^2 u_i + cos x_i and edge fluxes F_{i+1/2} = m_{i+1/2} (p_{i+1} -
p_i)/h with the mean edge mobility m_{i+1/2} = (f_eps(u_i) + f_eps(u_{i+1}))/2
(functionals.flux_terms, which the dissipation D = h sum m gp^2 measures
too), so the discrete mass h*sum(u) telescopes to a constant at every
step.  Time is variable-step BDF2: second order, and A-stable at constant
step, so the stiff fourth-order operator does not restrict dt.
With the step ratio omega = dt/dt_prev its step equation is

    v - u~ + dt' div F(v) = 0,
    u~ = ((1 + omega)^2 u_n - omega^2 u_{n-1}) / (1 + 2 omega),
    dt' = dt (1 + omega) / (1 + 2 omega),

which has the backward-Euler form with u~ in place of u_n.  u~ carries
u_n's mass, so the conservative structure is untouched.  A step without a
previous step (the first of a run, or step() on its own) is backward
Euler, omega = 0.  omega is held at or below OMEGA_MAX < 1 + sqrt(2), the
zero-stability bound of variable-step BDF2 (Grigorieff 1983).

Each step solves the nonlinear system by a simplified Newton iteration with
an analytically assembled Jacobian.  The residual returns the edge
mobilities and pressure gradients it forms on the edges -1..N-1 of one copy
of u padded by two nodes on each side; the divergence and the Jacobian (with
functionals' partials of m) read every periodic neighbour as a slice of
them, and the pressure is never formed.  The pressure stencil couples each
flux divergence to five consecutive nodes, so the Jacobian is cyclic
pentadiagonal: banded with bandwidth 2 except for the periodic corners.
Listing the unknowns in the folded order 0, N-1, 1, N-2, ... puts any two
nodes within cyclic distance 2 of each other at most 4 positions apart, so
in that order the matrix is an ordinary band matrix of bandwidth 4, corners
included, and a dense banded LU (LAPACK gbtrf) factorises it.  The factor is
kept while the step matrix I + dt' K(v) keeps its dt': the updates of a
step, and those of the next steps while dt' repeats exactly (a run at
dt_max), solve with it (LAPACK gbtrs).  A fresh Jacobian and factor are
taken when an update cuts the residual by less than tenfold (Hairer &
Wanner, Solving ODEs II, IV.8; SciPy's BDF keeps its LU the same way).  A
step is accepted only if Newton converged, the iterate stayed positive (when
the run guards positivity) and its local error estimate is within TOL.

No step evaluates the scheme's energy E_h (functionals.energy).  For backward
Euler, E_h(v) = E_h(u_n) - dt D(v) - d.H d/2 with d = v - u_n and H the
Hessian of E_h (test the step equation with the pressure), so E_h falls when
alpha^2 <= sinc^2(h/2).  BDF2 is backward Euler from u~, which gives E_h(v)
<= E_h(u~) but not E_h(v) <= E_h(u_n); published variable-step BDF2 energy
laws hold for a modified energy under a step-ratio bound (Chen, Wang, Wang &
Wise, SIAM J. Numer. Anal. 57, 2019), and whether OMEGA_MAX meets it is
unchecked.  So E_h's fall is measured, not enforced: run() takes E_h once per
diagnostics block, the tests assert that it never rises on their runs, and
experiments.record_meta reports its largest rise (energy_rise_max).

The step size is error-controlled (Hairer & Wanner, Solving ODEs II,
III.5; Soderlind 2002).  The last three accepted states are extrapolated
quadratically to the new time; this predictor is Newton's starting
iterate, and by Milne's device its gap to the BDF2 solution estimates the
local error,

    est = C max|v - pred| / (1 + max|u_n|),   C = 2/11,

BDF2's error constant over that of the extrapolation at constant step.
A step with est > TOL is rejected; otherwise the next dt is dt times
clip(0.9 (TOL/est)^(1/3), 0.2, OMEGA_MAX).  An error rejection shrinks dt
by the same factor, and a Newton or positivity rejection halves it, all
within [dt_min, dt_max].  A step that needed a rejection does not grow dt
(Hairer & Wanner's facmax = 1), so a guard that fails above some dt is not
met again on the very next step.  The first step (backward Euler) and the
second (linear predictor) have no estimate, so they keep dt0 and the
estimate sizes every step from the third on.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import steady
from .functionals import (Params, diagnostics_sample, edge_cos_differences,
                          edge_mobility_partials, energy, flux_terms, largest_mobility)
from .grid import TWO_PI, Field, integrate


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, scipy.linalg._flapack, loaded on its
    own.  gbtrf and gbtrs need only this extension; importing it through
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


dgbtrf, dgbtrs = operator.attrgetter("dgbtrf", "dgbtrs")(_load_flapack())


class NonConvergence(RuntimeError):
    """Newton kept failing to converge all the way down to dt_min."""


class PositivityLoss(RuntimeError):
    """The positivity guard kept rejecting steps all the way down to dt_min."""


OMEGA_MAX = 2.0  # largest step ratio dt/dt_prev; below 1 + sqrt(2)
MILNE = 2.0 / 11.0  # local error of BDF2 per unit gap between solution and predictor
TOL = 1e-5  # local error tolerance per step, relative to 1 + max|u|
# Newton residual tolerance, relative to 1 + max|u|.  It must stay far below
# TOL: Newton may accept the predictor unchanged, and that step's estimate reads 0.
NEWTON_TOL = 1e-10
NEWTON_MAX = 12  # Newton iterations per step attempt
REJECTION_REASONS = ("newton", "positivity", "error")
DIAGNOSTICS_BLOCK = 8  # sampled states measured together by one diagnostics_sample call


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
        if any(t < 0 or t > self.t_end and not _same_time(t, self.t_end) for t in self.log_times):
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
    """A run at time t: its field u, the sum and Newton factor that step()
    carries from step to step, and up to two earlier accepted states.  The
    factor belongs to the run's grid and params."""

    t: float
    u: Field
    dt_current: float  # nominal size of the next step, at most the run's dt_max
    enforce_positive: bool
    u_sum: float  # correctly rounded sum of u's values, which every step re-imposes
    u_prev: Optional[np.ndarray] = None  # values one accepted step back; None: no history
    dt_prev: float = 0.0  # length of the step from u_prev to u
    u_prev2: Optional[np.ndarray] = None  # values two accepted steps back
    dt_prev2: float = 0.0  # length of the step from u_prev2 to u_prev
    steps: int = 0  # accepted steps taken to reach this state
    solves: int = 0  # linear solves (Newton updates) taken to reach this state
    factorizations: int = 0  # LU factorizations of Newton matrices taken to reach this state
    # (dt', LU factor) of the last step's Newton matrix, for a next step of the same dt'
    lu: tuple = (0.0, None)
    rejections: dict = field(default_factory=lambda: dict.fromkeys(REJECTION_REASONS, 0))


def _residual(v, u_old, dt, grid, params, dcos):
    """G(v) = v - u_old + dt * div(F(v)); the step equation in u-units.
    dcos = edge_cos_differences(grid).

    Returns (G, m, gp), the two edge quantities (flux_terms) the Jacobian
    reuses, on the N + 1 edges -1..N-1, so that the flux between nodes i
    and i+1 is F = m gp and node i's divergence is F[i + 1] - F[i].  The
    in-place steps keep this order of operations, which the oracles pin bit for bit.
    """
    h = grid.h
    m, gp = flux_terms(v, h, params, dcos)
    F = m * gp
    G = F[1:] - F[:-1]
    G *= dt
    G /= h
    G += v - u_old
    return G, m, gp


def _jacobian(v, m, gp, dt, grid, params) -> np.ndarray:
    """Analytic Jacobian of the residual from the edge mobilities m and
    pressure gradients gp on the edges -1..N-1 that `_residual` returned
    for v: cyclic pentadiagonal, returned as its five diagonals, row k + 2
    holding J[i, (i + k) mod N] for k = -2..2.

    Row i is c (F_i - F_{i-1}) differentiated, c = dt/h.  The flux
    F_e = m_e gp_e couples v_{e-1}..v_{e+2} through gp_e, whose stencil has
    the outer weights -+1/h^3 and the inner ones +-(3/h^2 - alpha^2)/h, so
    the shared terms mh = c m/h^3 and mg = c (3/h^2 - alpha^2) m/h make up
    all the gp derivatives; and it couples v_e, v_{e+1} through m_e, so
    ga = c dm/da gp and gb = c dm/db gp make up the mobility ones, with the
    partials taken on one copy of v padded by a node on each side.
    """
    h = grid.h
    c = dt / h
    da, db = edge_mobility_partials(np.concatenate((v[-1:], v, v[:1])), params, c)
    ga, gb = da * gp, db * gp  # out of place: da and db may share memory
    mh = (c / h**3) * m
    mg = (c * (3.0 / (h * h) - params.alpha**2) / h) * m
    J = np.empty((5, v.shape[0]))
    J[0] = mh[:-1]
    J[1] = -mh[1:] - ga[:-1] - mg[:-1]
    J[2] = 1.0 + ga[1:] - gb[:-1] + mg[1:] + mg[:-1]
    J[3] = gb[1:] - mg[1:] - mh[:-1]
    J[4] = mh[1:]
    return J


def _folded_band(N: int):
    """Folded ordering and band-storage positions for the cyclic solve.

    Returns (order, pos, flat).  order = [0, N-1, 1, N-2, ...] lists the
    nodes in folded order, and pos[i] is the place of node i in it, so that
    order[pos] = pos[order] = 0..N-1.  The folded matrix has lower and upper
    bandwidths 4, and LAPACK gbtrf factorises it in place in (2*4 + 4 + 1, N)
    = (13, N) band storage: A[r, c] sits in row 8 + r - c, column c, and rows
    0-3 are workspace for the fill-in of the row pivoting.  flat[k + 2, i] is
    where J[i, (i + k) mod N] goes in that storage raveled in column-major
    (Fortran) order, the order gbtrf takes without a copy.
    """
    i = np.arange(N)
    pos = np.minimum(2 * i, 2 * (N - i) - 1)
    order = np.empty_like(i)
    order[0::2] = i[:N // 2]
    order[1::2] = i[:N // 2 - 1:-1]  # N-1 down to N/2
    padded = np.concatenate((pos[-2:], pos, pos[:2]))
    col = np.stack([padded[k:k + N] for k in range(5)])  # col[k + 2, i] = pos[i + k]
    return order, pos, (8 + pos - col) + 13 * col  # row + 13 * column


def _factor(diags, fold):
    """LU factor of the cyclic pentadiagonal J given by its five diagonals
    (as `_jacobian` returns them), with fold = _folded_band(N), for `_solve`.

    Scatters the diagonals into the (13, N) column-major band storage and
    calls LAPACK gbtrf on it in place; returns (lu, piv).  Raises
    LinAlgError when gbtrf reports an exactly zero pivot (singular J).
    """
    N = diags.shape[1]
    ab = np.zeros(13 * N)
    ab[fold[2]] = diags
    lu, piv, info = dgbtrf(ab.reshape(N, 13).T, 4, 4, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"exactly singular: U[{info - 1}, {info - 1}] is zero")
    return lu, piv


def _solve(factor, rhs, fold):
    """Solve J x = rhs with factor = _factor(J's diagonals, fold): LAPACK
    gbtrs on rhs in folded order, then the solution gathered back to node
    order, x[i] = y[pos[i]]."""
    order, pos, _ = fold
    lu, piv = factor
    y, _ = dgbtrs(lu, 4, 4, rhs[order], piv, overwrite_b=True)
    return y[pos]


_FLOOR_SAFETY = 4.0
_EPS = float(np.finfo(float).eps)


def _representability_floor(u_old, dt, grid, params) -> float:
    """Smallest residual magnitude attainable at the solution.

    The iterate carries at best eps * |u| of resolution; pushed through the
    implicit operator, whose norm grows like 16 dt max(f_eps)/h^4 along the
    fourth-difference chain, that resolution limit reappears as a residual
    of this size.  Newton cannot do better in double precision.
    """
    hi, lo = float(u_old.max()), float(u_old.min())  # max |u_old| is max(hi, -lo)
    fmax = largest_mobility(hi, params)
    return _FLOOR_SAFETY * _EPS * max(1.0, hi, -lo) * (1.0 + 16.0 * dt * fmax / grid.h**4)


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
    dcos = edge_cos_differences(grid) and fold = _folded_band(N)."""
    return edge_cos_differences(grid), _folded_band(grid.N)


def _newton(u_old, v, dt, grid, params, dcos, fold, tol_abs, kept=None):
    """Simplified Newton iteration from the iterate v for v - u_old +
    dt div F(v) = 0, the step equation of backward Euler and, with u_old = u~
    and dt = dt', of BDF2; dcos as for `_residual`, fold = _folded_band(N).
    Returns (v, converged, updates, factorizations, factor).

    Each update solves with an LU factor of a Jacobian of this equation:
    kept, when given (taken at an earlier step with this same dt), or else
    one taken at the first iterate that needs an update; a fresh Jacobian
    and factor are taken at the current iterate whenever the last update
    cut the residual by less than tenfold.  A failed iteration is not
    restarted: step() rejects the attempt.  The returned factor is the last
    one taken or used (kept if none was taken).  v - solve(G) is the update
    v + solve(-G) bit for bit (negation commutes with the LU solve's
    roundings), and the oracles pin G and J bit for bit.

    Converged when the residual reaches tol_abs -- or, after at least one
    real update has absorbed the resolved physics, when it reaches the
    double-precision representability floor.  The floor is never applied to
    the unmoved initial iterate, so near-steady states still take their
    genuine relaxation step.
    """
    floor = max(tol_abs, _representability_floor(u_old, dt, grid, params))
    updates, factorizations, g_last, factor = 0, 0, math.inf, kept
    for it in range(NEWTON_MAX + 1):
        G, m, gp = _residual(v, u_old, dt, grid, params, dcos)
        gmax = float(np.abs(G).max())
        if gmax <= (floor if it else tol_abs):
            return v, True, updates, factorizations, factor
        if it == NEWTON_MAX:
            break
        updates += 1
        if factor is None or not gmax <= 0.1 * g_last:  # none held, a slow update, or NaN
            factorizations += 1
            try:
                factor = _factor(_jacobian(v, m, gp, dt, grid, params), fold)
            except np.linalg.LinAlgError:  # exactly singular: no Newton update exists
                break
        v_new = v - _solve(factor, G, fold)
        if (v_new == v).all():  # update below the last ulp; cannot improve
            return v, gmax <= floor, updates, factorizations, factor
        v, g_last = v_new, gmax
    return v, False, updates, factorizations, factor


def _error_factor(est: float) -> float:
    """The step-size factor the estimate est asks for, 0.9 (TOL/est)^(1/3)
    but at least 0.2; unbounded when est = 0."""
    return max(0.9 * (TOL / est) ** (1.0 / 3.0), 0.2) if est > 0.0 else math.inf


def step(state: EvolutionState, config: SchemeConfig, params: Params,
         dcos: np.ndarray, fold, max_dt: float) -> EvolutionState:
    """Advance one accepted BDF2 step, choosing dt by the local error.

    The step is backward Euler when state has no u_prev, and otherwise
    takes dt no larger than OMEGA_MAX * state.dt_prev.  max_dt caps the
    step too (run() passes the time left to the next log time).  A capped
    step that is accepted leaves the schedule's nominal dt as it was,
    unless its error estimate asks for less.  An error-test failure at
    dt_min accepts the step, so fixed-step runs (dt_min = dt_max) finish.

    Newton takes state's kept factor when this attempt's dt' equals its dt'
    exactly, and the returned state keeps the accepted attempt's factor.  A
    failed Newton, on a kept factor too, is a newton rejection, and halving dt
    changes dt', so the next attempt factorises afresh.  The Newton convergence
    test is on the u-units residual, sup|v - u~ + dt' div F(v)| <= NEWTON_TOL
    (1 + sup|u|), i.e. the PDE-form residual scaled by dt', which keeps
    accept/reject behaviour uniform across step sizes.  The mass
    re-imposition restores state.u_sum, so a run takes the correctly rounded
    sum of its first state once and every later step restores that same sum;
    it shifts only the nonzero nodes, so exact zeros stay zero.  run() builds
    (dcos, fold) = _grid_terms(grid) once for all its steps.  The returned
    state adds this step's accepted step, linear solves, factorizations and
    rejections to state's counts.
    Raises NonConvergence or PositivityLoss once dt_min is reached.
    """
    grid = state.u.grid
    u_old = state.u.values
    scale = 1.0 + float(np.abs(u_old).max())
    tol_abs = NEWTON_TOL * scale
    dt_nominal = state.dt_current
    dt_cap = max_dt if state.u_prev is None else min(max_dt, OMEGA_MAX * state.dt_prev)
    at_dt_min = config.dt_min * (1.0 + 1e-12)
    has_estimate = state.u_prev2 is not None
    solves, factorizations = state.solves, state.factorizations
    lu_dt, lu = state.lu
    rejections = dict(state.rejections)

    while True:
        dt = min(dt_nominal, dt_cap)
        if state.u_prev is None:
            u_tilde, dt_eff, pred = u_old, dt, u_old
        else:
            u_tilde, ratio = _bdf2_history(u_old, state.u_prev, dt / state.dt_prev)
            dt_eff = ratio * dt
            pred = _predictor(state, dt)
        v, converged, its, lus, lu = _newton(u_tilde, pred, dt_eff, grid, params, dcos, fold,
                                             tol_abs, lu if dt_eff == lu_dt else None)
        lu_dt = dt_eff
        solves += its
        factorizations += lus
        # The conservative form makes sum(v) = sum(u~) = sum(u_old) an
        # identity of the step equation; re-impose the carried sum so
        # linear-solver round-off cannot random-walk the mass over long runs.
        # The target is the run's correctly rounded sum, so it cannot drift;
        # v's own pairwise sum is within a few ulps of exact.
        # The shift goes to the nonzero nodes only, so an inert dry set stays
        # exactly 0; a guarded run's accepted v has no zeros, so there it is uniform.
        excess = float(v.sum()) - state.u_sum
        wet = v != 0.0
        v = np.where(wet, v - excess / np.count_nonzero(wet), v)
        est = MILNE * float(np.abs(v - pred).max()) / scale if has_estimate else 0.0
        reason = None
        if not converged:
            reason = "newton"
        elif state.enforce_positive and v.min() <= 0.0:
            reason = "positivity"
        elif est > TOL and dt > at_dt_min:
            reason = "error"
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
        u=Field(grid, v),
        dt_current=min(max(dt_next, config.dt_min), config.dt_max),
        enforce_positive=state.enforce_positive,
        u_sum=state.u_sum,
        u_prev=u_old,
        dt_prev=dt,
        u_prev2=state.u_prev,
        dt_prev2=state.dt_prev,
        steps=state.steps + 1,
        solves=solves,
        factorizations=factorizations,
        lu=(lu_dt, lu),
        rejections=rejections,
    )


@dataclass
class TrajectoryRecord:
    """Everything a run produces: the diagnostics table of its samples
    (functionals.DIAGNOSTICS_DTYPE), snapshot fields at the requested log
    times, the reference minimizer, and the solver's counts of steps, linear
    solves, factorizations and rejections."""

    params: Params
    config: SchemeConfig
    samples: np.ndarray
    snapshots: dict
    reference: steady.SteadyState
    ref_shift: float  # added to the sampled minimizer to give it the run's mass
    final: Field
    steps: int  # accepted steps
    solves: int  # linear solves (Newton updates), over accepted and rejected attempts
    factorizations: int  # LU factorizations of Newton matrices, over all attempts
    rejections: dict  # rejected attempts by reason (REJECTION_REASONS)


def run(u0: Field, params: Params, config: SchemeConfig) -> TrajectoryRecord:
    """Integrate to t_end, recording diagnostics each accepted step (subject
    to sample_every) and snapshots exactly at the log times.  The sampled
    states are measured DIAGNOSTICS_BLOCK at a time, and the rest at the
    end; a row's diagnostics do not depend on its block, so the table's rows
    are those a measurement of each state on its own gives.

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
    mass, grid = integrate(u0), u0.grid
    ref_state = steady.minimizer(params.alpha, mass)
    sampled = steady.evaluate(ref_state, grid)
    ref_shift = (mass - integrate(sampled)) / TWO_PI
    ref_field = Field(grid, sampled.values + ref_shift)

    state = EvolutionState(t=0.0, u=u0, dt_current=config.dt0,
                           enforce_positive=bool(u0.values.min() > 0.0),
                           u_sum=math.fsum(u0.values.tolist()))
    blocks = []
    pending = []  # (t, values) of the sampled states not yet measured

    def measure() -> None:
        ts, values = zip(*pending)
        U = np.stack(values)
        blocks.append(diagnostics_sample(ts, U, params, ref_field, energy(U, grid, params.alpha)))
        pending.clear()

    def sample(st: EvolutionState) -> None:
        pending.append((st.t, st.u.values))  # Field values are immutable: no copy
        if len(pending) >= DIAGNOSTICS_BLOCK:
            measure()

    sample(state)

    snapshots = {}
    remaining = list(config.log_times)
    while remaining and _same_time(state.t, remaining[0]):
        snapshots[remaining.pop(0)] = state.u

    dcos, fold = _grid_terms(grid)
    steps_since_sample = 0
    while state.t < config.t_end and not _same_time(state.t, config.t_end):
        target = remaining[0] if remaining else config.t_end
        state = step(state, config, params, dcos, fold, max_dt=target - state.t)
        steps_since_sample += 1
        at_target = _same_time(state.t, target)
        if steps_since_sample >= config.sample_every or at_target:
            sample(state)
            steps_since_sample = 0
        while remaining and _same_time(state.t, remaining[0]):
            snapshots[remaining.pop(0)] = state.u
    if pending:
        measure()

    return TrajectoryRecord(
        params=params, config=config, samples=np.concatenate(blocks),
        snapshots=snapshots, reference=ref_state, ref_shift=ref_shift, final=state.u,
        steps=state.steps, solves=state.solves, factorizations=state.factorizations,
        rejections=state.rejections,
    )
