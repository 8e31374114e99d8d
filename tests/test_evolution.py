"""Implicit integrator: stencils, Jacobian, step acceptance logic, runs."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from thinfilm import evolution, functionals, steady
from thinfilm.evolution import (
    MILNE,
    OMEGA_MAX,
    EvolutionState,
    NonConvergence,
    PositivityLoss,
    SchemeConfig,
    _folded_band,
    _grid_terms,
    _jacobian,
    _representability_floor,
    _residual,
    _solve_cyclic,
    run,
    step,
)
from thinfilm.functionals import Params, energy
from thinfilm.grid import Field, constant_field, integrate, make_grid

from oracles import derivative, record_table, residual_by_concatenation

TWO_PI = 2.0 * np.pi


def fig6_params(eps=1e-8):
    return Params(n=3.0, alpha=1.0, eps=eps)


def dense_cyclic(diags):
    """Dense matrix of five cyclic diagonals, J[i, (i + k) mod N] = diags[k + 2, i]."""
    N = diags.shape[1]
    J = np.zeros((N, N))
    i = np.arange(N)
    for k in range(-2, 3):
        J[i, (i + k) % N] += diags[k + 2]
    return J


def sparse_cyclic(diags):
    N = diags.shape[1]
    i = np.arange(N)
    cols = np.concatenate([(i + k) % N for k in range(-2, 3)])
    return sp.csc_matrix((diags.ravel(), (np.tile(i, 5), cols)), shape=(N, N))


def apply_cyclic(diags, x):
    return sum(diags[k + 2] * np.roll(x, -k) for k in range(-2, 3))


def edge_differences(a):
    """a_{i+1} - a_i on every edge."""
    return np.roll(a, -1) - a


def stencils(u, cos_x=None):
    """The nodal pressure p = (u_{i-1} - 2u_i + u_{i+1})/h^2 + u + cos x and
    _residual's edge fluxes F = m gp at the field u (n = 3, alpha = 1,
    eps = 0), after checking gp against p's edge differences over h to
    their round-off, which differencing p amplifies like 1/h^3."""
    g = u.grid
    v = u.values
    cos_x = np.cos(g.nodes) if cos_x is None else cos_x
    p = (np.roll(v, 1) - 2.0 * v + np.roll(v, -1)) / g.h**2 + v + cos_x
    _, m, gp = _residual(v, v, 1.0, g, fig6_params(0.0), edge_differences(cos_x))
    eps = np.finfo(float).eps
    round_off = 32 * eps * (1 + np.abs(v).max()) / g.h**3
    assert np.abs(gp - edge_differences(p) / g.h).max() <= round_off
    return p, m * gp


class TestPressure:
    def test_constant_field(self):
        g = make_grid(64)
        p, _ = stencils(constant_field(g, 2.0))
        assert np.abs(p - (2.0 + np.cos(g.nodes))).max() == 0.0

    def test_stencil_eigenvalue_on_cos(self):
        # second difference of cos x has symbol -(2 - 2 cos h)/h^2
        g = make_grid(64)
        p, _ = stencils(Field(g, np.cos(g.nodes)))
        lam_h = (2.0 - 2.0 * np.cos(g.h)) / g.h**2
        expected = (2.0 - lam_h) * np.cos(g.nodes)  # alpha^2 u + cos x = 2 cos x
        assert np.abs(p - expected).max() < 1e-12

    def test_minimizer_pressure_is_multiplier_on_interior(self):
        st = steady.minimizer(1.0, TWO_PI)
        errs = []
        for N in (256, 512):
            g = make_grid(N)
            p, _ = stencils(steady.evaluate(st, g))
            inside = np.abs(g.nodes) < st.tau - 3 * g.h
            err = np.abs(p[inside] - st.lam).max()
            assert err <= 0.3 * g.h**2
            errs.append(err)
        assert errs[0] / errs[1] > 3.0  # second order


class TestFlux:
    def test_constant_pressure_no_flux(self):
        # without the cos x term a constant field has constant pressure
        g = make_grid(64)
        _, F = stencils(constant_field(g, 1.5), cos_x=np.zeros(g.N))
        assert np.abs(F).max() == 0.0

    def test_unit_film_flux_formula(self):
        # u = 1, n = 3, eps = 0: m = 1 and F = (cos x_{i+1} - cos x_i)/h
        g = make_grid(128)
        _, F = stencils(constant_field(g, 1.0))
        cos = np.cos(g.nodes)
        expected = (np.roll(cos, -1) - cos) / g.h
        assert np.abs(F - expected).max() < 1e-13
        mid = g.nodes + g.h / 2
        assert np.abs(F + np.sin(mid)).max() < g.h**2 / 8

    def test_steady_flux_refines_at_second_order(self):
        st = steady.minimizer(1.0, TWO_PI)
        sup = {}
        for N in (256, 512, 1024):
            g = make_grid(N)
            _, F = stencils(steady.evaluate(st, g))
            edge_x = g.nodes + g.h / 2
            interior = np.abs(edge_x) < st.tau - 3 * g.h
            sup[N] = np.abs(F[interior]).max()
        for N in (256, 512):
            assert np.log2(sup[N] / sup[2 * N]) >= 1.8

    def test_divergence_telescopes(self):
        # with v = u_old and dt = 1 the residual is the flux divergence
        g = make_grid(64)
        v = 1.0 + 0.1 * np.random.default_rng(0).standard_normal(g.N)
        G, _, _ = _residual(v, v, 1.0, g, fig6_params(0.0), edge_differences(np.cos(g.nodes)))
        assert abs(g.h * G.sum()) < 1e-12


class TestPaddedResidual:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([16, 18, 256]), st.integers(0, 2**32 - 1),
           st.floats(0.0, 0.5), st.sampled_from([1.5, 2.0, 3.0]),
           st.sampled_from([0.0, 1e-8]), st.floats(1e-9, 10.0))
    def test_matches_concatenated_shifts(self, N, seed, dry, n, eps, dt):
        # bit for bit, on fields with dry nodes and negative ones too
        g = make_grid(N)
        rng = np.random.default_rng(seed)
        v = 1.0 + 0.5 * rng.standard_normal(N)
        v[rng.random(N) < dry] = 0.0
        u_old = v + 1e-3 * rng.standard_normal(N)
        params = Params(n, rng.uniform(0.3, 3.0), eps=eps)
        dcos, _ = _grid_terms(g)
        got = _residual(v, u_old, dt, g, params, dcos)
        want = residual_by_concatenation(v, u_old, dt, g, params, dcos)
        for a, b in zip(got, want):
            assert a.shape == (N,) and a.tobytes() == b.tobytes()


class TestJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        g = make_grid(32)
        v = 1.0 + 0.3 * rng.standard_normal(g.N)
        params = fig6_params()
        dcos = edge_differences(np.cos(g.nodes))
        dt = 1e-3
        G0, m, gp = _residual(v, v.copy(), dt, g, params, dcos)
        J = dense_cyclic(_jacobian(v, m, gp, dt, g, params))
        Jfd = np.zeros_like(J)
        for j in range(g.N):
            e = np.zeros(g.N)
            e[j] = 1e-7
            Gp, *_ = _residual(v + e, v, dt, g, params, dcos)
            Gm, *_ = _residual(v - e, v, dt, g, params, dcos)
            Jfd[:, j] = (Gp - Gm) / 2e-7
        scale = np.abs(J).max()
        assert np.abs(J - Jfd).max() <= 1e-6 * scale

    def test_pentadiagonal_cyclic_structure(self):
        g = make_grid(32)
        v = np.full(g.N, 1.0)
        params = fig6_params()
        _, m, gp = _residual(v, v, 1e-3, g, params, edge_differences(np.cos(g.nodes)))
        J = dense_cyclic(_jacobian(v, m, gp, 1e-3, g, params))
        for i in range(g.N):
            for j in range(g.N):
                dist = min(abs(i - j), g.N - abs(i - j))
                if dist > 2:
                    assert J[i, j] == 0.0


def fig6_newton_system(N, dt):
    """Jacobian and right-hand side of the second Newton iterate of a fig6-like
    step from a slightly perturbed unit film, with that step's floor."""
    g = make_grid(N)
    params = fig6_params()
    dcos = edge_differences(np.cos(g.nodes))
    u_old = 1.0 + 1e-3 * np.cos(g.nodes) + 5e-4 * np.sin(2 * g.nodes)
    v = u_old.copy()
    for it in range(2):
        G, m, gp = _residual(v, u_old, dt, g, params, dcos)
        J = _jacobian(v, m, gp, dt, g, params)
        if it == 0:
            v = v + _solve_cyclic(J, -G, _folded_band(N))
    return J, -G, _representability_floor(u_old, dt, g, params)


def assert_solves(diags, b, floor=None):
    """_solve_cyclic agrees with np.linalg.solve (N <= 256) to the accuracy the
    condition number allows, and leaves a residual within 2x of spsolve's or
    below floor (default: eps * |x| pushed through |J|, i.e. round-off)."""
    N = diags.shape[1]
    eps = np.finfo(float).eps
    x = _solve_cyclic(diags, b, _folded_band(N))
    if N <= 256:
        J = dense_cyclic(diags)
        x_ref = np.linalg.solve(J, b)
        assert np.abs(x - x_ref).max() <= 10 * eps * np.linalg.cond(J) * np.abs(x_ref).max()
    if floor is None:
        floor = 4 * eps * np.abs(diags).sum(axis=0).max() * np.abs(x).max()
    res = np.abs(apply_cyclic(diags, x) - b).max()
    res_sp = np.abs(apply_cyclic(diags, spsolve(sparse_cyclic(diags), b)) - b).max()
    assert res <= 2.0 * res_sp or res <= floor


class TestCyclicSolve:
    @pytest.mark.parametrize("N", [16, 18, 256, 4096])  # the fold differs for N = 0, 2 mod 4
    def test_random_systems(self, N):
        rng = np.random.default_rng(N)
        for _ in range(3):
            assert_solves(rng.standard_normal((5, N)), rng.standard_normal(N))

    @pytest.mark.parametrize("N", [16, 256, 4096])
    @pytest.mark.parametrize("dt", [1e-5, 1.0])
    def test_newton_systems(self, N, dt):
        # condition grows like dt/h^4, so at N=4096, dt=1 the solutions of two
        # backward-stable solvers differ visibly; their residuals do not
        assert_solves(*fig6_newton_system(N, dt))

    def test_singular_system_is_newton_failure(self, monkeypatch):
        N, dt = 16, 1e-3
        diags, rhs, _ = fig6_newton_system(N, dt)
        for k in range(-2, 3):
            diags[k + 2, (5 - k) % N] = 0.0  # column 5 of J is zero
        with pytest.raises(np.linalg.LinAlgError):
            _solve_cyclic(diags, rhs, _folded_band(N))
        monkeypatch.setattr(evolution, "_jacobian", lambda *args: diags)
        g = make_grid(N)
        u_old = 1.0 + 1e-3 * np.cos(g.nodes)
        v, converged, solves = evolution._newton(u_old, u_old, dt, g, fig6_params(),
                                                 edge_differences(np.cos(g.nodes)),
                                                 _folded_band(N), 1e-14)
        assert not converged
        assert solves == 1  # the one attempted solve
        assert np.array_equal(v, u_old)  # the last iterate, finite

    def test_floor_is_evaluated_only_when_tested(self, monkeypatch):
        floors = []
        real_floor = evolution._representability_floor

        def floor(*args):
            floors.append(real_floor(*args))
            return floors[-1]

        monkeypatch.setattr(evolution, "_representability_floor", floor)
        g = make_grid(64)
        u_old = 1.0 + 1e-3 * np.cos(g.nodes)
        args = (u_old, u_old, 1e-4, g, fig6_params(), *_grid_terms(g))
        _, converged, solves = evolution._newton(*args, 2e-10)
        assert converged and solves == 1 and floors == []  # one update met tol_abs
        # with tol_abs = 0 only the floor can end the iteration, after one update
        _, converged, solves = evolution._newton(*args, 0.0)
        assert converged and solves >= 1 and floors
        assert floors[0] == real_floor(u_old, 1e-4, g, fig6_params())


class TestStep:
    def test_mass_conserved_to_round_off(self):
        g = make_grid(256)
        terms = _grid_terms(g)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        state = EvolutionState(t=0.0, u=constant_field(g, 1.0), dt_current=cfg.dt0,
                               enforce_positive=True)
        m0 = integrate(state.u)
        for _ in range(50):
            state = step(state, cfg, params, *terms)
            assert abs(integrate(state.u) - m0) <= 1e-13 * m0

    def test_discrete_steadiness_small_dt(self):
        # sampled minimizer moves by O(dt * h^2 residual) per implicit step
        g = make_grid(256)
        terms = _grid_terms(g)
        u0 = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        params = fig6_params(eps=0.0)
        dt = 1e-7
        cfg = SchemeConfig(dt0=dt, dt_min=dt, dt_max=dt, t_end=dt)
        state = EvolutionState(t=0.0, u=u0, dt_current=dt)
        out = step(state, cfg, params, *terms)
        assert np.abs(out.u.values - u0.values).max() <= 1e-9

    def test_energy_decreases_from_uniform_film(self):
        g = make_grid(256)
        terms = _grid_terms(g)
        u0 = constant_field(g, 1.0)
        params = fig6_params()
        dt = 1e-4
        cfg = SchemeConfig(dt0=dt, dt_min=dt, dt_max=dt, t_end=dt)
        state = EvolutionState(t=0.0, u=u0, dt_current=dt, enforce_positive=True)
        out = step(state, cfg, params, *terms)
        assert energy(out.u, 1.0) < energy(u0, 1.0)

    def test_dt_follows_the_error_controller(self):
        g = make_grid(64)
        terms = _grid_terms(g)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-5, dt_min=1e-12, dt_max=1.0, t_end=1.0)
        state = EvolutionState(t=0.0, u=constant_field(g, 1.0), dt_current=cfg.dt0,
                               enforce_positive=True)
        # the two start-up steps have no estimate and keep dt0, also when
        # a log time shortens one
        capped = step(state, cfg, params, *terms, max_dt=cfg.dt0 / 4)
        assert capped.dt_prev == cfg.dt0 / 4 and capped.dt_current == cfg.dt0
        for _ in range(2):
            state = step(state, cfg, params, *terms)
            assert state.dt_prev == state.dt_current == cfg.dt0
        factors = []
        for _ in range(20):
            prev = state
            state = step(prev, cfg, params, *terms)
            dt = state.dt_prev
            est = (MILNE * np.abs(state.u.values - evolution._predictor(prev, dt)).max()
                   / (1.0 + np.abs(prev.u.values).max()))
            assert est <= evolution.TOL
            # est = 0: Newton accepted the predictor as it was
            factor = (min(max(0.9 * (evolution.TOL / est) ** (1.0 / 3.0), 0.2), OMEGA_MAX)
                      if est > 0.0 else OMEGA_MAX)
            assert state.dt_current == dt * factor
            factors.append(factor)
        assert factors[0] == OMEGA_MAX  # far below TOL, dt doubles
        assert factors[-1] < OMEGA_MAX  # and the estimate binds once dt is large

    def test_newton_tolerance_far_below_the_error_tolerance(self):
        # Newton may accept the predictor unchanged; that step's estimate reads
        # 0 and dt grows by OMEGA_MAX unchecked, which is safe only while Newton's
        # stopping slack is a negligible part of the error being controlled
        assert evolution.NEWTON_TOL <= 1e-3 * evolution.TOL

    def test_no_growth_after_a_rejection(self, monkeypatch):
        # the fifth attempt fails Newton: that step is taken at half its dt
        # and leaves dt as it is, though its estimate would double it
        real_newton = evolution._newton
        attempts = []

        def newton(*args):
            attempts.append(None)
            v, converged, solves = real_newton(*args)
            return v, converged and len(attempts) != 5, solves

        monkeypatch.setattr(evolution, "_newton", newton)
        g = make_grid(64)
        terms = _grid_terms(g)
        cfg = SchemeConfig(dt0=1e-5, dt_min=1e-12, dt_max=1.0, t_end=1.0)
        state = EvolutionState(t=0.0, u=constant_field(g, 1.0), dt_current=cfg.dt0,
                               enforce_positive=True)
        for _ in range(4):
            state = step(state, cfg, fig6_params(), *terms)
        assert state.dt_current == 4e-5 and not attempts[4:]
        state = step(state, cfg, fig6_params(), *terms)
        assert state.rejections["newton"] == 1
        assert state.dt_prev == 2e-5 and state.dt_current == 2e-5
        state = step(state, cfg, fig6_params(), *terms)
        assert state.dt_current == 4e-5  # the next step grows again

    def test_nonconvergence_at_dt_min(self, monkeypatch):
        monkeypatch.setattr(evolution, "NEWTON_MAX", 1)
        monkeypatch.setattr(evolution, "NEWTON_TOL", 1e-14)
        g = make_grid(64)
        terms = _grid_terms(g)
        params = fig6_params()
        # one Newton iteration cannot solve a huge step from rough data
        rough = constant_field(g, 1.0).values + 0.5 * np.cos(7 * g.nodes)
        cfg = SchemeConfig(dt0=10.0, dt_min=10.0, dt_max=10.0, t_end=10.0)
        state = EvolutionState(t=0.0, u=Field(g, rough), dt_current=10.0)
        with pytest.raises(NonConvergence):
            step(state, cfg, params, *terms)


class TestBDF2:
    def test_history_keeps_the_mass(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            u = 1.0 + 0.5 * rng.random(64)
            u_prev = 1.0 + 0.5 * rng.random(64)
            u_prev += (math.fsum(u) - math.fsum(u_prev)) / 64
            u_tilde, _ = evolution._bdf2_history(u, u_prev, rng.uniform(0.0, OMEGA_MAX))
            assert abs(math.fsum(u_tilde) - math.fsum(u)) <= 1e-14 * math.fsum(u)

    def test_run_sums_its_first_state_once(self, monkeypatch):
        # every step re-imposes and carries u0's sum: one fsum for u0, one
        # per step attempt
        g = make_grid(32)
        u0 = Field(g, 1.0 + 0.3 * np.cos(g.nodes) + 0.1 * np.sin(3 * g.nodes))
        total = math.fsum(u0.values.tolist())
        sums = []
        real_fsum = math.fsum

        def fsum(values):
            sums.append(real_fsum(values))
            return sums[-1]

        monkeypatch.setattr(evolution.math, "fsum", fsum)
        states = []
        real_step = evolution.step
        monkeypatch.setattr(evolution, "step", lambda *a, **k: states.append(real_step(*a, **k))
                            or states[-1])
        rec = run(u0, fig6_params(), SchemeConfig(dt0=1e-3, dt_max=0.05, t_end=1.0))
        assert len(sums) == 1 + rec.steps + sum(rec.rejections.values())
        assert sums[0] == total and all(s.u_sum == total for s in states)

    def test_predictor_keeps_the_mass(self):
        rng = np.random.default_rng(9)
        g = make_grid(64)
        for _ in range(50):
            u, u_prev, u_prev2 = (1.0 + 0.5 * rng.random(64) for _ in range(3))
            u_prev += (math.fsum(u) - math.fsum(u_prev)) / 64
            u_prev2 += (math.fsum(u) - math.fsum(u_prev2)) / 64
            # step() holds each step at or below OMEGA_MAX times the one before
            k2 = rng.uniform(1e-3, 1.0)
            k1 = k2 * rng.uniform(0.01, OMEGA_MAX)
            dt = k1 * rng.uniform(0.0, OMEGA_MAX)
            linear = EvolutionState(t=0.0, u=Field(g, u), u_prev=u_prev, dt_prev=k1)
            quadratic = EvolutionState(t=0.0, u=Field(g, u), u_prev=u_prev, dt_prev=k1,
                                       u_prev2=u_prev2, dt_prev2=k2)
            for state in (linear, quadratic):
                pred = evolution._predictor(state, dt)
                assert abs(math.fsum(pred) - math.fsum(u)) <= 1e-14 * math.fsum(u)

    def test_predictor_is_exact_on_quadratics(self):
        g = make_grid(16)
        a, b, c = (np.linspace(0.5, 1.5, 16) ** k for k in (1, 2, 3))

        def at(t):
            return a + b * t + c * t * t
        state = EvolutionState(t=0.7, u=Field(g, at(0.7)), u_prev=at(0.4), dt_prev=0.3,
                               u_prev2=at(0.2), dt_prev2=0.2)
        assert np.allclose(evolution._predictor(state, 0.5), at(1.2), rtol=1e-13, atol=0)
        line = EvolutionState(t=0.7, u=Field(g, a + b * 0.7), u_prev=a + b * 0.4, dt_prev=0.3)
        assert np.allclose(evolution._predictor(line, 0.5), a + b * 1.2, rtol=1e-13, atol=0)

    def test_error_rejection_shrinks_by_the_controller_factor(self, monkeypatch):
        dts = []
        real_predictor = evolution._predictor

        def predictor(state, dt):
            dts.append(dt)
            return real_predictor(state, dt)

        monkeypatch.setattr(evolution, "_predictor", predictor)
        g = make_grid(64)
        terms = _grid_terms(g)
        params = fig6_params()

        def third_step(cfg, tol):
            monkeypatch.setattr(evolution, "TOL", tol)
            state = EvolutionState(t=0.0, u=constant_field(g, 1.0), dt_current=cfg.dt0,
                                   enforce_positive=True)
            prev = step(step(state, cfg, params, *terms), cfg, params, *terms)
            dts.clear()
            state = step(prev, cfg, params, *terms)
            assert state.rejections["error"] == len(dts) - 1 >= 1
            est = (MILNE * np.abs(state.u.values - real_predictor(prev, dts[-1])).max()
                   / (1.0 + np.abs(prev.u.values).max()))
            return np.array(dts[1:]) / np.array(dts[:-1]), est

        ratios, _ = third_step(SchemeConfig(dt0=4e-4, dt_min=1e-9, dt_max=1.0, t_end=1.0),
                               1e-9)
        assert np.all((ratios > 0.2) & (ratios < 0.9) & (ratios != 0.5))
        # a far too small TOL: each rejection takes the clip's fifth, down to
        # dt_min, where the step is accepted although it fails the error test
        monkeypatch.setattr(evolution, "NEWTON_TOL", 1e-14)
        cfg = SchemeConfig(dt0=4e-4, dt_min=1e-5, dt_max=1.0, t_end=1.0)
        ratios, est = third_step(cfg, 1e-12)
        assert np.allclose(ratios[:-1], 0.2, rtol=1e-12) and len(ratios) >= 2
        assert dts[-1] == cfg.dt_min and est > 1e-12

    def test_fixed_step_run_finishes_past_the_error_test(self, monkeypatch):
        monkeypatch.setattr(evolution, "TOL", 1e-7)
        g = make_grid(64)
        terms = _grid_terms(g)
        params = fig6_params()
        u0 = Field(g, 1.0 + 0.2 * np.cos(3 * g.nodes))
        cfg = SchemeConfig(dt0=1e-3, dt_min=1e-3, dt_max=1e-3, t_end=0.02)
        state = EvolutionState(t=0.0, u=u0, dt_current=cfg.dt0, enforce_positive=True)
        ests = []
        for _ in range(20):
            prev, state = state, step(state, cfg, params, *terms)
            assert state.dt_prev == cfg.dt0
            if prev.u_prev2 is not None:
                gap = np.abs(state.u.values - evolution._predictor(prev, cfg.dt0)).max()
                ests.append(MILNE * gap / (1.0 + np.abs(prev.u.values).max()))
        assert min(ests) > 1e-7  # every step with an estimate failed the error test
        assert sum(state.rejections.values()) == 0
        rec = run(u0, params, cfg)
        assert rec.steps == 20 and sum(rec.rejections.values()) == 0

    def test_step_ratio_capped_after_clips_and_rejections(self, monkeypatch):
        omegas = []
        real_history = evolution._bdf2_history

        def history(u, u_prev, omega):
            omegas.append(omega)
            return real_history(u, u_prev, omega)

        real_newton = evolution._newton
        attempts = []

        def newton(*args):
            attempts.append(None)
            v, converged, solves = real_newton(*args)
            return v, converged and len(attempts) not in (16, 17), solves

        monkeypatch.setattr(evolution, "_bdf2_history", history)
        monkeypatch.setattr(evolution, "_newton", newton)
        g = make_grid(64)
        # 0.01 + 1e-6 leaves a 1e-6 remainder after a step lands on 0.01
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.05,
                           log_times=(0.0, 0.01, 0.01 + 1e-6, 0.02))
        rec = run(constant_field(g, 1.0), fig6_params(), cfg)
        assert rec.rejections["newton"] == 2
        assert len(attempts) == rec.steps + sum(rec.rejections.values())
        dts = np.diff(record_table(rec)["t"])
        i = int(np.argmin(dts))
        assert dts[i] < 2e-6  # the clipped step
        assert dts[i + 1] == pytest.approx(OMEGA_MAX * dts[i])  # the cap binds after it
        assert np.all(dts[1:] / dts[:-1] <= OMEGA_MAX * (1 + 1e-12))
        assert max(omegas) <= OMEGA_MAX
        assert min(omegas) < 1.0  # the rejections halved dt

    def test_lone_and_first_steps_are_backward_euler(self):
        g = make_grid(64)
        terms = _grid_terms(g)
        params = fig6_params()
        u0 = Field(g, 1.0 + 1e-2 * np.cos(g.nodes))
        dt = 1e-3
        cfg = SchemeConfig(dt0=dt, dt_min=1e-12, dt_max=1e-2, t_end=dt)
        tol = evolution.NEWTON_TOL * (1.0 + np.abs(u0.values).max())
        v, converged, _ = evolution._newton(u0.values, u0.values, dt, g, params,
                                            edge_differences(np.cos(g.nodes)),
                                            _folded_band(g.N), tol)
        assert converged
        v = v - (math.fsum(v) - math.fsum(u0.values)) / g.N
        lone = step(EvolutionState(t=0.0, u=u0, dt_current=dt, enforce_positive=True),
                    cfg, params, *terms)
        assert np.array_equal(lone.u.values, v)
        assert np.array_equal(run(u0, params, cfg).final.values, v)
        # the next step has history, so it is BDF2 and not backward Euler
        assert lone.u_prev is u0.values and lone.dt_prev == dt
        bdf2 = step(lone, cfg, params, *terms)
        be = step(EvolutionState(t=lone.t, u=lone.u, dt_current=dt, enforce_positive=True),
                  cfg, params, *terms)
        assert not np.array_equal(bdf2.u.values, be.u.values)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(0.2, 2.0), min_size=16, max_size=16))
    def test_mass_conserved_from_random_positive_data(self, values):
        g = make_grid(16)
        terms = _grid_terms(g)
        u0 = Field(g, np.array(values))
        cfg = SchemeConfig(dt0=1e-3, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        state = EvolutionState(t=0.0, u=u0, dt_current=cfg.dt0, enforce_positive=True)
        m0 = integrate(u0)
        for _ in range(5):
            state = step(state, cfg, fig6_params(), *terms)
            assert abs(integrate(state.u) - m0) <= 1e-13 * m0

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(0.2, 2.0), min_size=16, max_size=16))
    def test_energy_falls_from_random_positive_data(self, values):
        g = make_grid(16)
        terms = _grid_terms(g)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-3, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        state = EvolutionState(t=0.0, u=Field(g, np.array(values)), dt_current=cfg.dt0,
                               enforce_positive=True)
        attempts = []
        real_newton = evolution._newton

        def newton(*args):
            attempts.append(None)
            return real_newton(*args)

        E_old = energy(state.u, params.alpha)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "_newton", newton)
            for k in range(1, 6):
                state = step(state, cfg, params, *terms)
                assert state.E < E_old
                # no attempt was rejected but by the error test: the energy
                # guard, Newton and positivity never intervened
                assert len(attempts) == k + state.rejections["error"]
                E_old = state.E


def count_energy_calls(monkeypatch, inflate_call=None):
    """Replace evolution.energy by a counting wrapper; call number inflate_call
    (1-based) reports an energy increase of 1."""
    calls = []
    real = evolution.energy

    def counted(u, alpha):
        calls.append(u)
        return real(u, alpha) + (1.0 if len(calls) == inflate_call else 0.0)

    monkeypatch.setattr(evolution, "energy", counted)
    return calls


class TestEnergyReuse:
    def film_state(self):
        g = make_grid(64)
        u0 = Field(g, 1.0 + 1e-3 * np.cos(g.nodes))
        return EvolutionState(t=0.0, u=u0, dt_current=1e-4, enforce_positive=True)

    def test_one_energy_per_accepted_step(self, monkeypatch):
        calls = count_energy_calls(monkeypatch)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        state = self.film_state()
        terms = _grid_terms(state.u.grid)
        assert state.E is None
        for k in range(1, 16):
            state = step(state, cfg, params, *terms)
            assert len(calls) == 1 + k  # the first step also evaluates E_old
            assert state.E == energy(state.u, params.alpha)  # bit for bit

    def test_rejected_steps_add_their_energy_checks(self, monkeypatch):
        # step 1: a Newton failure (no energy check) then an accept;
        # step 2: the third energy call reports an increase, so one energy
        # rejection, then an accept; step 3: an accept
        calls = count_energy_calls(monkeypatch, inflate_call=3)
        real_newton = evolution._newton
        attempts = []

        def newton(*args):
            attempts.append(None)
            v, converged, solves = real_newton(*args)
            return v, converged and len(attempts) != 1, solves

        monkeypatch.setattr(evolution, "_newton", newton)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        state = self.film_state()
        terms = _grid_terms(state.u.grid)
        for _ in range(3):
            state = step(state, cfg, params, *terms)
        assert len(attempts) == 5
        assert len(calls) == 1 + 3 + 1
        assert state.E == energy(state.u, params.alpha)

    def test_run_evaluates_energy_once_per_step(self, monkeypatch):
        calls = count_energy_calls(monkeypatch)
        sample_calls = []
        real = functionals.energy

        def counted(u, alpha):
            sample_calls.append(u)
            return real(u, alpha)

        monkeypatch.setattr(functionals, "energy", counted)
        g = make_grid(64)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.05)
        rec = run(constant_field(g, 1.0), fig6_params(), cfg)
        assert len(calls) == len(rec.samples)  # the initial state plus one per step
        assert sample_calls == []  # the diagnostics reuse the accepted step's energy
        assert rec.samples[-1].E == real(rec.final, fig6_params().alpha)  # bit for bit

    def test_one_rfft_per_energy_and_sample(self, monkeypatch):
        # energy and dH1 each read their norms off one rfft, without a
        # transform back
        transforms = {"rfft": 0, "irfft": 0}
        for name in transforms:
            def counted(*args, _name=name, _real=getattr(np.fft, name), **kwargs):
                transforms[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        calls = count_energy_calls(monkeypatch)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.05)
        rec = run(constant_field(make_grid(64), 1.0), fig6_params(), cfg)
        assert len(rec.samples) > 10
        assert transforms == {"rfft": len(calls) + len(rec.samples), "irfft": 0}


class TestRun:
    def test_zero_t_end_single_sample(self):
        g = make_grid(64)
        u0 = constant_field(g, 1.0)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.0)
        rec = run(u0, fig6_params(), cfg)
        assert len(rec.samples) == 1
        s = rec.samples[0]
        assert s.t == 0.0
        assert s.E == energy(u0, 1.0)
        assert s.mass == integrate(u0)

    def test_eps_zero_dry_set_stays_inert(self):
        # positive-interior variant: fully dry edges carry no mobility, so
        # only the contact-adjacent node sees the (u_wet^3-small) edge leak
        g = make_grid(256)
        u0 = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        dry = u0.values == 0.0
        deep_dry = dry & np.roll(dry, 1) & np.roll(dry, -1)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.05)
        rec = run(u0, fig6_params(eps=0.0), cfg)
        assert np.abs(rec.final.values[deep_dry]).max() <= 1e-12
        assert np.abs(rec.final.values[dry]).max() <= 1e-7

    def test_run_builds_folded_band_once(self, monkeypatch):
        calls = []
        real = evolution._folded_band

        def counted(N):
            calls.append(N)
            return real(N)

        monkeypatch.setattr(evolution, "_folded_band", counted)
        g = make_grid(64)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.05)
        rec = run(constant_field(g, 1.0), fig6_params(), cfg)
        assert len(rec.samples) > 10
        assert calls == [64]

    def test_reference_shifted_to_run_mass(self):
        g = make_grid(64)
        u0 = constant_field(g, 1.0)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no unequal-mass warning from dH1
            rec = run(u0, fig6_params(), cfg)
        sampled = steady.evaluate(rec.reference, g)
        assert abs(integrate(sampled) - integrate(u0)) > 1e-6  # off by O(h^2)
        assert rec.ref_shift == (integrate(u0) - integrate(sampled)) / TWO_PI
        assert np.array_equal(rec.ref_field.values, sampled.values + rec.ref_shift)
        assert abs(integrate(rec.ref_field) - integrate(u0)) <= 1e-13

    def test_negative_data_rejected(self):
        g = make_grid(64)
        u0 = Field(g, np.cos(g.nodes))
        with pytest.raises(ValueError, match="nonnegative"):
            run(u0, fig6_params(), SchemeConfig(dt0=1e-4, dt_min=1e-6,
                                                dt_max=1e-2, t_end=1e-3))

    def test_snapshots_land_exactly_on_log_times(self):
        g = make_grid(128)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=0.03,
                           t_end=0.25, log_times=(0.0, 0.1, 0.25))
        rec = run(constant_field(g, 1.0), fig6_params(), cfg)
        assert set(rec.snapshots) == {0.0, 0.1, 0.25}
        ts = record_table(rec)["t"]
        for t_log in (0.1, 0.25):
            assert np.min(np.abs(ts - t_log)) <= 1e-12

    def test_mass_conservation_along_run(self):
        g = make_grid(128)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=0.01, t_end=0.5)
        rec = run(constant_field(g, 1.0), fig6_params(), cfg)
        masses = np.array([s.mass for s in rec.samples])
        assert np.abs(masses - masses[0]).max() <= 1e-11 * masses[0]

    def test_positivity_loss_on_rupturing_configuration(self, monkeypatch):
        # near-linear long-wave instability (eps dominates): mode 1 grows and
        # crosses zero; the guard must reject down to dt_min and raise
        g = make_grid(64)
        u0 = Field(g, 0.05 * (1.0 + 0.5 * np.cos(g.nodes)))
        params = Params(n=3.0, alpha=2.0, eps=1.0)
        monkeypatch.setattr(evolution, "ENERGY_SLACK", 1e30)
        cfg = SchemeConfig(dt0=0.05, dt_min=0.04, dt_max=0.05, t_end=20.0)
        with pytest.raises(PositivityLoss):
            run(u0, params, cfg)

    def test_h2_budget_grows_at_most_linearly(self):
        # discrete analogue of the int u_xx^2 <= A + B T bound: the running
        # integral of the curvature norm admits a linear fit at late times
        g = make_grid(128)
        terms = _grid_terms(g)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=0.02, t_end=4.0)
        st = EvolutionState(t=0.0, u=constant_field(g, 1.0), dt_current=cfg.dt0,
                            enforce_positive=True)
        times = [0.0]
        norms = [g.h * np.sum(derivative(st.u, 2).values ** 2)]
        while st.t < cfg.t_end:
            st = step(st, cfg, params, *terms)
            times.append(st.t)
            norms.append(g.h * np.sum(derivative(st.u, 2).values ** 2))
        times, norms = np.array(times), np.array(norms)
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * (norms[1:] + norms[:-1]) * np.diff(times))])
        late = times >= times[-1] / 2
        b, a = np.polyfit(times[late], cumulative[late], 1)
        fit = a + b * times[late]
        assert b > 0
        assert np.abs(cumulative[late] - fit).max() <= 0.1 * fit.max()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(dt0=1e-4, dt_min=1e-3, dt_max=1e-2, t_end=1.0)
        with pytest.raises(ValueError):
            SchemeConfig(dt0=1e-4, dt_min=1e-6, dt_max=1e-2, t_end=1.0,
                         log_times=(2.0,))
        with pytest.raises(ValueError, match="sample_every must be >= 1"):
            SchemeConfig(t_end=1.0, sample_every=0)
