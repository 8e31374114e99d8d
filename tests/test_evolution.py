"""Implicit integrator: stencils, Jacobian, step acceptance logic, runs."""

import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import thinfilm
from thinfilm import evolution, steady
from thinfilm.evolution import (
    MILNE,
    OMEGA_MAX,
    NonConvergence,
    PositivityLoss,
    SchemeConfig,
    _factor,
    _folded_band,
    _grid_terms,
    _jacobian,
    _representability_floor,
    _residual,
    _solve,
    run,
    step,
)
from thinfilm.functionals import Params, energy
from thinfilm.grid import Field, constant_field, integrate, make_grid

import oracles
from oracles import derivative, energy_by_dots, evolution_state, of_field, residual_by_shifts

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


def solve_cyclic(diags, b):
    """x with J x = b through the integrator's factor and solve."""
    fold = _folded_band(diags.shape[1])
    return _solve(_factor(diags, fold), b, fold)


def edge_differences(a):
    """a_{i+1} - a_i on the N + 1 edges i = -1..N-1, as flux_terms lists them."""
    d = np.roll(a, -1) - a
    return np.concatenate((d[-1:], d))


def stencils(u, cos_x=None):
    """The nodal pressure p = (u_{i-1} - 2u_i + u_{i+1})/h^2 + u + cos x and
    _residual's edge fluxes F = m gp on the edges 0..N-1 at the field u
    (n = 3, alpha = 1, eps = 0), after checking gp on the edges -1..N-1
    against p's edge differences over h to their round-off, which
    differencing p amplifies like 1/h^3."""
    g = u.grid
    v = u.values
    cos_x = np.cos(g.nodes) if cos_x is None else cos_x
    p = (np.roll(v, 1) - 2.0 * v + np.roll(v, -1)) / g.h**2 + v + cos_x
    _, m, gp = _residual(v, v, 1.0, g, fig6_params(0.0), edge_differences(cos_x))
    eps = np.finfo(float).eps
    round_off = 32 * eps * (1 + np.abs(v).max()) / g.h**3
    assert np.abs(gp - edge_differences(p) / g.h).max() <= round_off
    return p, (m * gp)[1:]


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
        # bit for bit, on fields with dry nodes of either sign and negative ones too
        g = make_grid(N)
        rng = np.random.default_rng(seed)
        v = 1.0 + 0.5 * rng.standard_normal(N)
        dry_nodes = rng.random(N) < dry
        v[dry_nodes] = np.where(rng.random(N) < 0.5, 0.0, -0.0)[dry_nodes]
        u_old = v + 1e-3 * rng.standard_normal(N)
        params = Params(n, rng.uniform(0.3, 3.0), eps=eps)
        dcos, _ = _grid_terms(g)
        got = _residual(v, u_old, dt, g, params, dcos)
        want = residual_by_shifts(v, u_old, dt, g, params, dcos[1:])
        assert got[0].shape == (N,) and got[0].tobytes() == want[0].tobytes()
        for a, b in zip(got[1:], want[1:]):  # edge -1 repeats edge N-1
            assert a.shape == (N + 1,) and a[1:].tobytes() == b.tobytes()
            assert a[0] == a[-1]


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

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("n", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_matches_rolled_shifts(self, N, n, eps):
        # bit for bit, on fields with dry zeros and negative nodes
        g = make_grid(N)
        rng = np.random.default_rng(N)
        v = 0.5 + 0.5 * rng.standard_normal(N)
        v[rng.random(N) < 0.2] = 0.0
        params = Params(n, rng.uniform(0.3, 3.0), eps=eps)
        dt = 10.0 ** rng.uniform(-6.0, 0.0)
        dcos, _ = _grid_terms(g)
        _, m, gp = _residual(v, v, dt, g, params, dcos)
        _, m0, gp0 = residual_by_shifts(v, v, dt, g, params, dcos[1:])
        got = _jacobian(v, m, gp, dt, g, params)
        want = oracles.jacobian_by_shifts(v, m0, gp0, dt, g, params)
        assert (v < 0.0).any() and (v == 0.0).any()
        assert np.array_equal(got, want)

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
            v = v + solve_cyclic(J, -G)
    return J, -G, _representability_floor(u_old, dt, g, params)


def assert_solves(diags, b, floor=None):
    """_factor then _solve agree with np.linalg.solve (N <= 256) to the
    accuracy the condition number allows, and leave a residual within 2x of
    spsolve's or below floor (default: eps * |x| pushed through |J|, i.e.
    round-off)."""
    N = diags.shape[1]
    eps = np.finfo(float).eps
    x = solve_cyclic(diags, b)
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

    @pytest.mark.parametrize("N", [16, 18, 64, 256, 4096])
    def test_folded_order_is_the_sort_of_the_places(self, N):
        # the closed-form order against its definition: nodes listed by
        # their place in the folded order, which only this reference sorts
        order, pos, _ = _folded_band(N)
        i = np.arange(N)
        assert np.array_equal(pos, np.minimum(2 * i, 2 * (N - i) - 1))
        assert np.array_equal(order, np.argsort(pos))
        assert order.dtype == np.argsort(pos).dtype
        assert np.array_equal(order[pos], i) and np.array_equal(pos[order], i)

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
        with pytest.raises(np.linalg.LinAlgError):  # the factor raises, before any solve
            _factor(diags, _folded_band(N))
        monkeypatch.setattr(evolution, "_jacobian", lambda *args: diags)
        g = make_grid(N)
        u_old = 1.0 + 1e-3 * np.cos(g.nodes)
        v, converged, solves, lus, _ = evolution._newton(u_old, u_old, dt, g, fig6_params(),
                                                         edge_differences(np.cos(g.nodes)),
                                                         _folded_band(N), 1e-14)
        assert not converged
        assert solves == 1 and lus == 1  # the one attempted update and its factorization
        assert np.array_equal(v, u_old)  # the last iterate, finite

    # u in [shift, shift + 3): max|u| from the maximum, then from the
    # minimum with mixed signs, then all negative, where f_eps(max u) is eps
    @pytest.mark.parametrize("shift", [-1.0, -2.0, -4.0])
    def test_floor_value(self, shift):
        # 4 eps max(1, max|u|) (1 + 16 dt f_eps(max u)/h^4), bit for bit
        g = make_grid(64)
        u = shift + 3.0 * np.random.default_rng(3).random(g.N)
        params, dt = Params(2.5, 1.0, eps=1e-8), 1e-3
        fmax = max(float(u.max()), 0.0) ** params.n + params.eps
        want = 4.0 * np.finfo(float).eps * max(1.0, float(np.abs(u).max())) * (
            1.0 + 16.0 * dt * fmax / g.h**4)
        assert _representability_floor(u, dt, g, params) == want

    def test_floor_is_evaluated_once_per_call(self, monkeypatch):
        floors = []
        real_floor = evolution._representability_floor

        def floor(*args):
            floors.append(real_floor(*args))
            return floors[-1]

        monkeypatch.setattr(evolution, "_representability_floor", floor)
        g = make_grid(64)
        u_old = 1.0 + 1e-3 * np.cos(g.nodes)
        args = (u_old, u_old, 1e-4, g, fig6_params(), *_grid_terms(g))
        _, converged, solves, *_ = evolution._newton(*args, 2e-10)
        assert converged and solves == 1 and len(floors) == 1  # one update met tol_abs
        # with tol_abs = 0 only the floor can end the iteration, after one update
        v, converged, solves, *_ = evolution._newton(*args, 0.0)
        assert converged and solves >= 1 and len(floors) == 2
        assert floors[1] == real_floor(u_old, 1e-4, g, fig6_params())
        # an initial iterate already at the floor still takes an update
        _, converged, solves, *_ = evolution._newton(u_old, v, *args[2:], 0.0)
        assert converged and solves >= 1 and len(floors) == 3


def fig6_like_run(k):
    """A fig6-like run (N 64, n 3, alpha 1, eps 1e-8) from a film with a
    mode-k perturbation.  Every k has the same grid and step sizes, and the
    run repeats dt' at dt_max."""
    g = make_grid(64)
    return run(Field(g, 1.0 + 0.1 * np.cos(k * g.nodes)), fig6_params(),
               SchemeConfig(dt0=1e-4, dt_max=0.05, t_end=5.0))


def run_digest(rec):
    return hashlib.sha256(rec.samples.tobytes() + rec.final.values.tobytes()).hexdigest()


def huge_factor(N):
    """The factor of 1e300 I: an update on it is below the last ulp, so an
    iteration that starts on it fails at once."""
    diags = np.zeros((5, N))
    diags[2] = 1e300
    return _factor(diags, _folded_band(N))


def record_jacobians(monkeypatch):
    """Wrap evolution._jacobian; the list gets each (iterate, dt) it is called at."""
    calls = []
    real = evolution._jacobian

    def jacobian(v, m, gp, dt, *args):
        calls.append((v, dt))
        return real(v, m, gp, dt, *args)

    monkeypatch.setattr(evolution, "_jacobian", jacobian)
    return calls


class TestKeptFactor:
    """The LU factor that a run keeps while dt' repeats (EvolutionState.lu)."""

    def test_distant_factor_converges_through_the_refresh(self, monkeypatch):
        # a strongly non-uniform v, and the factor of the Jacobian at u = 1
        # with the same dt
        dt = 1e-3
        g = make_grid(64)
        dcos, fold = _grid_terms(g)
        v = 1.0 + 0.5 * np.cos(g.nodes) + 0.3 * np.sin(3 * g.nodes)
        one = np.ones(g.N)
        _, m, gp = _residual(one, one, dt, g, fig6_params(), dcos)
        kept = _factor(_jacobian(one, m, gp, dt, g, fig6_params()), fold)
        fresh, converged, *_ = evolution._newton(v, v, dt, g, fig6_params(), dcos, fold, 0.0)
        assert converged
        jacobians = record_jacobians(monkeypatch)
        got, converged, updates, lus, factor = evolution._newton(
            v, v, dt, g, fig6_params(), dcos, fold, 0.0, kept)
        # an update on the kept factor cut the residual by less than tenfold: one
        # fresh Jacobian at a later iterate, and no second start from v
        assert converged and lus == len(jacobians) == 1 and updates <= evolution.NEWTON_MAX
        assert not np.array_equal(jacobians[0][0], v) and factor[0] is not kept[0]
        assert np.abs(got - fresh).max() <= _representability_floor(v, dt, g, fig6_params())

    def test_failing_kept_factor_fails_the_call(self, monkeypatch):
        g = make_grid(64)
        dcos, fold = _grid_terms(g)
        u_old = 1.0 + 0.1 * np.cos(g.nodes)
        tol = evolution.NEWTON_TOL * (1.0 + np.abs(u_old).max())
        jacobians = record_jacobians(monkeypatch)
        kept = huge_factor(g.N)
        v, converged, updates, lus, factor = evolution._newton(
            u_old, u_old, 1e-3, g, fig6_params(), dcos, fold, tol, kept)
        # one update on the kept factor that cannot move v ends the call: no
        # fresh Jacobian, and no second start from v
        assert not converged and updates == 1 and lus == len(jacobians) == 0
        assert np.array_equal(v, u_old) and factor is kept

    def test_failing_kept_factor_costs_one_rejection(self, monkeypatch):
        # the step rejects the attempt as newton and halves dt, which changes
        # dt', so the next attempt takes a fresh factor
        g = make_grid(64)
        dt = 1e-3
        params = fig6_params()
        cfg = SchemeConfig(dt0=dt, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        state = evolution_state(Field(g, 1.0 + 0.1 * np.cos(g.nodes)), dt, enforce_positive=True)
        kept = huge_factor(g.N)
        state.lu = (dt, kept)
        attempts = []  # (dt', kept) of every _newton call
        real_newton = evolution._newton
        monkeypatch.setattr(evolution, "_newton", lambda *args: attempts.append(
            (args[2], args[-1])) or real_newton(*args))
        out = step(state, cfg, params, *_grid_terms(g), max_dt=math.inf)
        assert attempts == [(dt, kept), (dt / 2, None)]
        assert out.rejections == dict(state.rejections, newton=1)
        assert out.t == dt / 2 and out.factorizations >= 1
        assert out.lu[0] == dt / 2 and out.lu[1] is not kept

    def test_kept_factor_only_at_an_equal_dt(self, monkeypatch):
        jacobians = record_jacobians(monkeypatch)
        made = {}  # id(LU array) -> (dt of its Jacobian, factor), kept alive
        real_factor = evolution._factor

        def factor(*args):
            lu = real_factor(*args)
            made[id(lu[0])] = (jacobians[-1][1], lu)
            return lu

        handed = []  # (dt, kept) of every _newton call
        real_newton = evolution._newton

        def newton(*args):
            handed.append((args[2], args[8] if len(args) > 8 else None))
            return real_newton(*args)

        monkeypatch.setattr(evolution, "_factor", factor)
        monkeypatch.setattr(evolution, "_newton", newton)
        rec = fig6_like_run(1)
        reused = [(dt, kept) for dt, kept in handed if kept is not None]
        assert len(reused) > rec.steps / 2 and rec.factorizations < rec.steps
        for dt, kept in reused:
            assert made[id(kept[0])][0] == dt  # bit for bit
        # a lone step without history factorises fresh
        g = make_grid(64)
        handed.clear()
        made.clear()
        state = evolution_state(Field(g, 1.0 + 0.1 * np.cos(g.nodes)), 1e-3, enforce_positive=True)
        out = step(state, SchemeConfig(dt0=1e-3, t_end=1.0), fig6_params(), *_grid_terms(g),
                   max_dt=math.inf)
        assert handed == [(1e-3, None)]
        assert out.factorizations == len(made) >= 1
        assert out.lu[0] == 1e-3 and id(out.lu[1][0]) in made

    def test_factor_refreshed_after_a_slow_update(self, monkeypatch):
        # an update that cut the residual by less than tenfold is followed by
        # an update on a fresh factor, never by one on the factor it used
        events = []  # ("call",), ("residual", max|G|), ("factor",), ("solve",), in order
        for name in ("_newton", "_residual", "_factor", "_solve"):
            real = getattr(evolution, name)

            def traced(*args, name=name, real=real):
                if name == "_newton":
                    events.append(("call",))
                out = real(*args)
                if name == "_residual":
                    events.append(("residual", float(np.abs(out[0]).max())))
                elif name != "_newton":
                    events.append((name[1:],))
                return out

            monkeypatch.setattr(evolution, name, traced)
        fig6_like_run(1)
        reused_after_a_cut = 0
        for kind, *value in events:
            if kind == "call":
                g_now = None
            elif kind == "residual":
                g_last, g_now, fresh = g_now, value[0], False
            elif kind == "factor":
                fresh = True
            elif not fresh and g_last is not None:  # a call's first update may take its kept factor
                assert g_now <= 0.1 * g_last
                reused_after_a_cut += 1
        assert reused_after_a_cut > 0

    def test_no_factor_crosses_runs(self):
        # two runs with the same grid and step sizes, back to back in this
        # process and each alone in a fresh one, record the same bits
        records = [fig6_like_run(k) for k in (1, 2)]
        assert all(rec.factorizations < rec.steps for rec in records)  # factors cross steps
        # and no attempt on a kept factor failed
        assert all(rec.rejections["newton"] == 0 for rec in records)
        src = os.path.dirname(os.path.dirname(thinfilm.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.dirname(__file__), src)))
        for k, rec in zip((1, 2), records):
            alone = subprocess.run(
                [sys.executable, "-c", "import test_evolution as t; "
                 f"print(t.run_digest(t.fig6_like_run({k})))"],
                env=env, capture_output=True, text=True, timeout=120)
            assert alone.returncode == 0, alone.stderr
            assert alone.stdout.strip() == run_digest(rec)


class TestStep:
    def test_mass_conserved_to_round_off(self):
        g = make_grid(256)
        terms = _grid_terms(g)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        state = evolution_state(constant_field(g, 1.0), cfg.dt0, enforce_positive=True)
        m0 = integrate(state.u)
        for _ in range(50):
            state = step(state, cfg, params, *terms, max_dt=math.inf)
            assert abs(integrate(state.u) - m0) <= 1e-13 * m0

    def test_discrete_steadiness_small_dt(self):
        # sampled minimizer moves by O(dt * h^2 residual) per implicit step
        g = make_grid(256)
        terms = _grid_terms(g)
        u0 = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        params = fig6_params(eps=0.0)
        dt = 1e-7
        cfg = SchemeConfig(dt0=dt, dt_min=dt, dt_max=dt, t_end=dt)
        state = evolution_state(u0, dt)
        out = step(state, cfg, params, *terms, max_dt=math.inf)
        assert np.abs(out.u.values - u0.values).max() <= 1e-9

    def test_energy_decreases_from_uniform_film(self):
        g = make_grid(256)
        terms = _grid_terms(g)
        u0 = constant_field(g, 1.0)
        params = fig6_params()
        dt = 1e-4
        cfg = SchemeConfig(dt0=dt, dt_min=dt, dt_max=dt, t_end=dt)
        state = evolution_state(u0, dt, enforce_positive=True)
        out = step(state, cfg, params, *terms, max_dt=math.inf)
        assert of_field(energy, out.u, 1.0) < of_field(energy, u0, 1.0)

    def test_dt_follows_the_error_controller(self):
        g = make_grid(64)
        terms = _grid_terms(g)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-5, dt_min=1e-12, dt_max=1.0, t_end=1.0)
        state = evolution_state(constant_field(g, 1.0), cfg.dt0, enforce_positive=True)
        # the two start-up steps have no estimate and keep dt0, also when
        # a log time shortens one
        capped = step(state, cfg, params, *terms, max_dt=cfg.dt0 / 4)
        assert capped.dt_prev == cfg.dt0 / 4 and capped.dt_current == cfg.dt0
        for _ in range(2):
            state = step(state, cfg, params, *terms, max_dt=math.inf)
            assert state.dt_prev == state.dt_current == cfg.dt0
        factors = []
        for _ in range(20):
            prev = state
            state = step(prev, cfg, params, *terms, max_dt=math.inf)
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
            v, converged, *rest = real_newton(*args)
            return v, converged and len(attempts) != 5, *rest

        monkeypatch.setattr(evolution, "_newton", newton)
        g = make_grid(64)
        terms = _grid_terms(g)
        cfg = SchemeConfig(dt0=1e-5, dt_min=1e-12, dt_max=1.0, t_end=1.0)
        state = evolution_state(constant_field(g, 1.0), cfg.dt0, enforce_positive=True)
        for _ in range(4):
            state = step(state, cfg, fig6_params(), *terms, max_dt=math.inf)
        assert state.dt_current == 4e-5 and not attempts[4:]
        state = step(state, cfg, fig6_params(), *terms, max_dt=math.inf)
        assert state.rejections["newton"] == 1
        assert state.dt_prev == 2e-5 and state.dt_current == 2e-5
        state = step(state, cfg, fig6_params(), *terms, max_dt=math.inf)
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
        state = evolution_state(Field(g, rough), 10.0)
        with pytest.raises(NonConvergence):
            step(state, cfg, params, *terms, max_dt=math.inf)


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
        # every step re-imposes and carries u0's sum: one fsum, for u0; the
        # steps compare their own pairwise sums against it
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
        assert rec.steps > 0 and len(states) == rec.steps
        assert sums == [total] and all(s.u_sum == total for s in states)

    def test_run_hands_step_a_complete_first_state(self, monkeypatch):
        g = make_grid(32)
        u0 = Field(g, 1.0 + 0.3 * np.cos(g.nodes) + 0.1 * np.sin(3 * g.nodes))
        states = []
        real_step = evolution.step
        monkeypatch.setattr(evolution, "step", lambda state, *a, **k: states.append(state)
                            or real_step(state, *a, **k))
        cfg = SchemeConfig(dt0=1e-3, dt_max=0.05, t_end=0.01)
        run(u0, fig6_params(), cfg)
        first, built = states[0], evolution_state(u0, cfg.dt0, True)
        assert first.u_sum == math.fsum(u0.values.tolist())
        assert (first.u_sum, first.dt_current, first.enforce_positive) == (
            built.u_sum, built.dt_current, built.enforce_positive)

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
            linear = evolution_state(Field(g, u), k1, u_prev=u_prev, dt_prev=k1)
            quadratic = evolution_state(Field(g, u), k1, u_prev=u_prev,
                                        dt_prev=k1, u_prev2=u_prev2, dt_prev2=k2)
            for state in (linear, quadratic):
                pred = evolution._predictor(state, dt)
                assert abs(math.fsum(pred) - math.fsum(u)) <= 1e-14 * math.fsum(u)

    def test_predictor_is_exact_on_quadratics(self):
        g = make_grid(16)
        a, b, c = (np.linspace(0.5, 1.5, 16) ** k for k in (1, 2, 3))

        def at(t):
            return a + b * t + c * t * t
        state = evolution_state(Field(g, at(0.7)), 0.3, t=0.7, u_prev=at(0.4),
                                dt_prev=0.3, u_prev2=at(0.2), dt_prev2=0.2)
        assert np.allclose(evolution._predictor(state, 0.5), at(1.2), rtol=1e-13, atol=0)
        line = evolution_state(Field(g, a + b * 0.7), 0.3, t=0.7, u_prev=a + b * 0.4, dt_prev=0.3)
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
            state = evolution_state(constant_field(g, 1.0), cfg.dt0, enforce_positive=True)
            prev = step(step(state, cfg, params, *terms, max_dt=math.inf), cfg, params, *terms,
                        max_dt=math.inf)
            dts.clear()
            state = step(prev, cfg, params, *terms, max_dt=math.inf)
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
        state = evolution_state(u0, cfg.dt0, enforce_positive=True)
        ests = []
        for _ in range(20):
            prev, state = state, step(state, cfg, params, *terms, max_dt=math.inf)
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
            v, converged, *rest = real_newton(*args)
            return v, converged and len(attempts) not in (16, 17), *rest

        monkeypatch.setattr(evolution, "_bdf2_history", history)
        monkeypatch.setattr(evolution, "_newton", newton)
        g = make_grid(64)
        # 0.01 + 1e-6 leaves a 1e-6 remainder after a step lands on 0.01
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.05,
                           log_times=(0.0, 0.01, 0.01 + 1e-6, 0.02))
        rec = run(constant_field(g, 1.0), fig6_params(), cfg)
        assert rec.rejections["newton"] == 2
        assert len(attempts) == rec.steps + sum(rec.rejections.values())
        dts = np.diff(rec.samples["t"])
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
        v, converged, *_ = evolution._newton(u0.values, u0.values, dt, g, params,
                                             edge_differences(np.cos(g.nodes)),
                                             _folded_band(g.N), tol)
        assert converged
        v = v - (math.fsum(v) - math.fsum(u0.values)) / g.N
        lone = step(evolution_state(u0, dt, enforce_positive=True),
                    cfg, params, *terms, max_dt=math.inf)
        assert np.array_equal(lone.u.values, v)
        assert np.array_equal(run(u0, params, cfg).final.values, v)
        # the next step has history, so it is BDF2 and not backward Euler
        assert lone.u_prev is u0.values and lone.dt_prev == dt
        bdf2 = step(lone, cfg, params, *terms, max_dt=math.inf)
        be = step(evolution_state(lone.u, dt, enforce_positive=True, t=lone.t),
                  cfg, params, *terms, max_dt=math.inf)
        assert not np.array_equal(bdf2.u.values, be.u.values)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(0.2, 2.0), min_size=16, max_size=16))
    def test_mass_conserved_from_random_positive_data(self, values):
        g = make_grid(16)
        terms = _grid_terms(g)
        u0 = Field(g, np.array(values))
        cfg = SchemeConfig(dt0=1e-3, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        state = evolution_state(u0, cfg.dt0, enforce_positive=True)
        m0 = integrate(u0)
        for _ in range(5):
            state = step(state, cfg, fig6_params(), *terms, max_dt=math.inf)
            assert abs(integrate(state.u) - m0) <= 1e-13 * m0

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(0.2, 2.0), min_size=16, max_size=16))
    def test_energy_falls_from_random_positive_data(self, values):
        g = make_grid(16)
        terms = _grid_terms(g)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-3, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        state = evolution_state(Field(g, np.array(values)), cfg.dt0, enforce_positive=True)
        attempts = []
        real_newton = evolution._newton

        def newton(*args):
            attempts.append(None)
            return real_newton(*args)

        E_old = of_field(energy, state.u, params.alpha)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "_newton", newton)
            for k in range(1, 6):
                state = step(state, cfg, params, *terms, max_dt=math.inf)
                E_new = of_field(energy, state.u, params.alpha)
                assert E_new < E_old
                # no attempt was rejected but by the error test: Newton and
                # positivity never intervened
                assert len(attempts) == k + state.rejections["error"]
                E_old = E_new


def count_energy_calls(monkeypatch):
    """Replace evolution.energy by a counting wrapper; returns the list of
    the blocks it was called with."""
    calls = []
    real = evolution.energy

    def counted(U, grid, alpha):
        calls.append(U)
        return real(U, grid, alpha)

    monkeypatch.setattr(evolution, "energy", counted)
    return calls


class TestEnergyReuse:
    def test_step_computes_no_energy(self, monkeypatch):
        calls = count_energy_calls(monkeypatch)
        params = fig6_params()
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=1.0)
        g = make_grid(64)
        state = evolution_state(Field(g, 1.0 + 1e-3 * np.cos(g.nodes)), 1e-4,
                                enforce_positive=True)
        terms = _grid_terms(g)
        for _ in range(15):
            state = step(state, cfg, params, *terms, max_dt=math.inf)
        assert state.steps == 15 and calls == []

    def test_run_evaluates_energy_once_per_diagnostics_block(self, monkeypatch):
        calls = count_energy_calls(monkeypatch)
        measured = []
        real_sample = evolution.diagnostics_sample
        monkeypatch.setattr(evolution, "diagnostics_sample",
                            lambda ts, U, *a: measured.append(U) or real_sample(ts, U, *a))
        g = make_grid(64)
        params = fig6_params()
        for sample_every in (1, 3):
            calls.clear()
            measured.clear()
            cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.3,
                               sample_every=sample_every)
            rec = run(constant_field(g, 1.0), params, cfg)
            # one block call per measure(), on the very block the diagnostics
            # take: the full blocks, then the remainder
            k, block = len(rec.samples), evolution.DIAGNOSTICS_BLOCK
            assert k > block and k % block != 0
            assert len(calls) == len(measured) == k // block + 1
            assert all(c is m for c, m in zip(calls, measured))
            # the E column is each sampled row's E_h on its own, bit for bit
            per_row = [energy_by_dots(Field(g, r), params.alpha) for r in np.concatenate(measured)]
            assert rec.samples["E"].tobytes() == np.array(per_row).tobytes()

    def test_no_transform_in_a_run(self, monkeypatch):
        # the 3-point energy and the 3-point dH1 of each diagnostics block
        # take no transform
        transforms = {"rfft": 0, "irfft": 0}
        for name in transforms:
            def counted(*args, _name=name, _real=getattr(np.fft, name), **kwargs):
                transforms[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        calls = count_energy_calls(monkeypatch)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.05)
        rec = run(constant_field(make_grid(64), 1.0), fig6_params(), cfg)
        assert len(rec.samples) > 10 and sum(len(U) for U in calls) == len(rec.samples)
        assert transforms == {"rfft": 0, "irfft": 0}


class TestRun:
    def test_zero_t_end_single_sample(self):
        g = make_grid(64)
        u0 = constant_field(g, 1.0)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.0)
        rec = run(u0, fig6_params(), cfg)
        assert len(rec.samples) == 1
        s = rec.samples[0]
        assert s["t"] == 0.0
        assert s["E"] == of_field(energy, u0, 1.0)
        assert s["mass"] == integrate(u0)

    def test_eps_zero_dry_set_stays_inert(self):
        # positive-interior variant: fully dry edges carry no mobility, so
        # only the contact-adjacent node sees the (u_wet^3-small) edge leak,
        # and the mass re-imposition leaves the other zeros exactly 0
        g = make_grid(256)
        u0 = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        dry = u0.values == 0.0
        deep_dry = dry & np.roll(dry, 1) & np.roll(dry, -1)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.05)
        rec = run(u0, fig6_params(eps=0.0), cfg)
        assert deep_dry.any()
        assert np.all(rec.final.values[deep_dry] == 0.0)
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

    def test_no_sort_in_a_run(self, monkeypatch):
        # the folded order is built in closed form: nothing a run calls sorts
        def refuse(*args, **kwargs):
            raise AssertionError("a run called a sort")

        monkeypatch.setattr(np, "argsort", refuse)
        monkeypatch.setattr(np, "sort", refuse)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.05,
                           log_times=(0.0, 0.01, 0.05))
        rec = run(constant_field(make_grid(64), 1.0), fig6_params(), cfg)
        assert rec.steps > 10 and len(rec.snapshots) == 3

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
        shifted = sampled.values + rec.ref_shift
        assert abs(integrate(Field(g, shifted)) - integrate(u0)) <= 1e-13
        # the distances are measured against the shifted minimizer, bit for bit
        assert rec.samples["dLinf"][0] == np.abs(u0.values - shifted).max()

    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_samples_do_not_depend_on_the_block_size(self, monkeypatch, sample_every):
        # the run measures its sampled states DIAGNOSTICS_BLOCK at a time and
        # the remainder at the end; one state per call records the same bits
        g = make_grid(32)
        u0 = Field(g, 1.0 + 0.3 * np.cos(g.nodes) + 0.1 * np.sin(3 * g.nodes))
        cfg = SchemeConfig(dt0=1e-3, dt_max=0.05, t_end=0.7, sample_every=sample_every,
                           log_times=(0.0, 0.01, 0.1, 0.3, 0.7))
        sizes = []
        real = evolution.diagnostics_sample
        monkeypatch.setattr(evolution, "diagnostics_sample",
                            lambda ts, *a: sizes.append(len(ts)) or real(ts, *a))
        tables = {}
        for block in (8, 1):
            monkeypatch.setattr(evolution, "DIAGNOSTICS_BLOCK", block)
            sizes.clear()
            tables[block] = run(u0, fig6_params(), cfg).samples, list(sizes)
        (table, sizes8), (table1, sizes1) = tables[8], tables[1]
        k = len(table)
        assert k % 8 != 0 and k > 8
        assert table.tobytes() == table1.tobytes()
        assert sizes8 == [8] * (k // 8) + [k % 8] and sizes1 == [1] * k

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
        ts = rec.samples["t"]
        for t_log in (0.1, 0.25):
            assert np.min(np.abs(ts - t_log)) <= 1e-12

    def test_log_time_that_run_treats_as_t_end(self):
        # a log time within the relative 1e-12 of _same_time past t_end is t_end
        # to run(), so the config takes it; one further past is refused
        for t_end in (10.0, 1000.0, 1e6):
            assert SchemeConfig(t_end=t_end, log_times=(t_end * (1 + 5e-13),)).log_times
            with pytest.raises(ValueError, match="log_times must lie in"):
                SchemeConfig(t_end=t_end, log_times=(t_end * (1 + 2e-12),))
        g = make_grid(16)
        t_log = 10.0 * (1 + 5e-13)
        rec = run(constant_field(g, 1.0), fig6_params(),
                  SchemeConfig(dt0=1e-3, t_end=10.0, log_times=(t_log,)))
        assert list(rec.snapshots) == [t_log] and rec.snapshots[t_log] is rec.final

    def test_mass_conservation_along_run(self):
        g = make_grid(128)
        cfg = SchemeConfig(dt0=1e-4, dt_min=1e-12, dt_max=0.01, t_end=0.5)
        rec = run(constant_field(g, 1.0), fig6_params(), cfg)
        masses = rec.samples["mass"]
        assert np.abs(masses - masses[0]).max() <= 1e-11 * masses[0]

    def test_positivity_loss_on_rupturing_configuration(self):
        # near-linear long-wave instability (eps dominates): mode 1 grows and
        # crosses zero; the guard must reject down to dt_min and raise
        g = make_grid(64)
        u0 = Field(g, 0.05 * (1.0 + 0.5 * np.cos(g.nodes)))
        params = Params(n=3.0, alpha=2.0, eps=1.0)
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
        st = evolution_state(constant_field(g, 1.0), cfg.dt0, enforce_positive=True)
        times = [0.0]
        norms = [g.h * np.sum(derivative(st.u, 2).values ** 2)]
        while st.t < cfg.t_end:
            st = step(st, cfg, params, *terms, max_dt=math.inf)
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
