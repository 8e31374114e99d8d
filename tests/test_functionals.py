"""Energy, dissipation, entropy, and the analytic bounds of tests/oracles.py."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinfilm.functionals import (
    Params,
    diagnostics_sample,
    dissipation,
    energy,
    entropy,
    read_diagnostics_csv,
    write_diagnostics_csv,
)
from thinfilm.grid import Field, constant_field, distances, integrate, make_grid
from thinfilm import evolution, steady
from thinfilm.evolution import SchemeConfig, run

from oracles import (
    coercivity_bound,
    derivative,
    diagnostics_sample_per_call,
    dissipation_by_masks,
    dissipation_two_stencil,
    energy_fourier,
    energy_lower_bound,
    spectrum,
    taylor_gap,
)
from test_grid import random_smooth_field

TWO_PI = 2.0 * np.pi


def random_nonnegative_mass_field(grid, rng, M, roughness=0.5):
    """Random nonnegative field of mass exactly M (after rescaling)."""
    vals = np.abs(1.0 + roughness * random_smooth_field(grid, rng).values)
    vals *= M / (grid.h * vals.sum())
    return Field(grid, vals)


class TestParams:
    def test_validation(self):
        Params(3.0, 1.0, eps=0.0)
        for bad in (dict(n=0.0), dict(alpha=-1.0), dict(eps=-1e-9)):
            kw = dict(n=3.0, alpha=1.0, eps=0.0)
            kw.update(bad)
            with pytest.raises(ValueError):
                Params(**kw)
        # a third positional argument (once the mass) never lands in eps
        with pytest.raises(TypeError):
            Params(3.0, 1.0, 2 * np.pi)


class TestEnergy:
    def test_constant(self):
        g = make_grid(64)
        c, alpha = 0.7, 1.3
        assert energy(constant_field(g, c), alpha) == pytest.approx(
            -(alpha**2) * np.pi * c**2, abs=1e-12)

    def test_one_plus_cos_alpha_one(self):
        g = make_grid(128)
        u = Field(g, 1.0 + np.cos(g.nodes))
        assert energy(u, 1.0) == pytest.approx(-TWO_PI, abs=1e-10)

    @pytest.mark.parametrize("alpha,M", [(0.5, 20.0), (1.0, TWO_PI)])
    def test_minimizer_beats_random_competitors(self, alpha, M):
        g = make_grid(1024)
        ustar = steady.evaluate(steady.minimizer(alpha, M), g)
        e_star = energy(ustar, alpha)
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = random_nonnegative_mass_field(g, rng, M)
            assert energy(v, alpha) > e_star


class TestEnergyFourier:
    def test_constant_only_zero_mode(self):
        # only the zero mode: E = -alpha^2 M^2 / (4 pi)
        g = make_grid(64)
        M, alpha = 4.0, 1.2
        u = constant_field(g, M / TWO_PI)
        assert energy_fourier(u, alpha, M) == pytest.approx(
            -(alpha**2) * M**2 / (4 * np.pi), rel=1e-13)

    def test_mean_plus_cos_alpha_one(self):
        # p = +-1 quadratic term dies at alpha = 1; linear part gives -pi
        g = make_grid(64)
        M = 5.0
        u = Field(g, M / TWO_PI + np.cos(g.nodes))
        assert energy_fourier(u, 1.0, M) == pytest.approx(
            -(M**2) / (4 * np.pi) - np.pi, rel=1e-13)

    def test_mass_mismatch_rejected(self):
        g = make_grid(64)
        with pytest.raises(ValueError, match="mass"):
            energy_fourier(constant_field(g, 1.0), 1.0, 1.0)

    def test_cross_oracle_random_fields(self):
        g = make_grid(256)
        rng = np.random.default_rng(12)
        for _ in range(50):
            u = random_smooth_field(g, rng, max_mode=40)
            alpha = rng.uniform(0.3, 2.0)
            a = energy(u, alpha)
            b = energy_fourier(u, alpha, integrate(u))
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


class TestDissipation:
    def test_constant_field(self):
        # derivatives vanish, residual is -sin x: D = c^n * pi
        g = make_grid(256)
        c = 2.0
        p = Params(3.0, 1.0, eps=0.0)
        assert dissipation(constant_field(g, c), p, 1e-6) == pytest.approx(
            c**3 * np.pi, rel=1e-10)

    def test_minimizer_near_zero(self):
        g = make_grid(2048)
        u = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        p = Params(3.0, 1.0, eps=0.0)
        assert dissipation(u, p, 1e-6) <= 1e-6

    def test_smooth_film_exact(self):
        g = make_grid(256)
        u = steady.evaluate(steady.minimizer(0.5, 20.0), g)
        p = Params(3.0, 0.5, eps=0.0)
        assert dissipation(u, p, 1e-6) <= 1e-8

    def test_all_dry_returns_zero(self):
        g = make_grid(64)
        p = Params(3.0, 1.0, eps=0.0)
        # the default delta, 1e-7 max u, is 0 here: the positivity set is empty
        for delta in (1e-6, None):
            assert dissipation(constant_field(g, 0.0), p, delta) == 0.0

    def test_bad_delta(self):
        g = make_grid(64)
        with pytest.raises(ValueError, match="delta"):
            dissipation(constant_field(g, 1.0), Params(3.0, 1.0, eps=0.0), 0.0)


def oracle_fields(N):
    """A smooth random field, one with white noise and a strong Nyquist mode
    (both positive), and the sampled alpha = 1 hanging drop of mass 2 pi,
    C^{1,1} at its contact points and an equilibrium of the flow."""
    g = make_grid(N)
    rng = np.random.default_rng(N)
    smooth = random_smooth_field(g, rng).values
    noisy = rng.standard_normal(N) + 2.0 * (-1.0) ** np.arange(N) + np.cos(g.nodes)
    return {"smooth": Field(g, smooth - smooth.min() + 0.5),
            "nyquist": Field(g, noisy - noisy.min() + 0.5),
            "drop": steady.evaluate(steady.minimizer(1.0, TWO_PI), g)}


@pytest.mark.parametrize("N", [16, 256, 4096])
@pytest.mark.parametrize("kind", ["smooth", "nyquist", "drop"])
class TestAgainstOracles:
    """The one-transform energy and dH1 and the fused dissipation stencil
    against the transform-and-back derivative and the two-stencil form."""

    def test_energy(self, N, kind):
        u = oracle_fields(N)[kind]
        g, v = u.grid, u.values
        ux = derivative(u, 1).values
        # energy's derivative drops the Nyquist mode, energy_fourier keeps it
        nyquist = np.pi * (N // 2) ** 2 * abs(spectrum(u)[N // 2]) ** 2
        for alpha in (0.5, 1.0, 1.7):
            E = energy(u, alpha)
            by_derivative = (0.5 * g.h * np.sum(ux * ux - alpha**2 * v * v)
                             - g.h * np.dot(v, np.cos(g.nodes)))
            assert abs(E - by_derivative) <= 1e-12 * abs(by_derivative)
            by_fourier = energy_fourier(u, alpha, integrate(u)) - nyquist
            assert abs(E - by_fourier) <= 1e-12 * abs(by_fourier)

    def test_h1_distance(self, N, kind):
        fields = oracle_fields(N)
        u = fields[kind]
        g = u.grid
        for other in fields.values():
            w = Field(g, other.values + (integrate(u) - integrate(other)) / TWO_PI)
            ref = math.sqrt(g.h * np.sum(derivative(Field(g, u.values - w.values), 1).values ** 2))
            assert abs(distances(u, w)[0] - ref) <= 1e-12 * ref
            with pytest.warns(UserWarning, match="unequal mass"):
                distances(u, Field(g, w.values + 1e-3))

    def test_dissipation(self, N, kind):
        # relative to D, or at an equilibrium, where u_xxx + u_x - sin x
        # cancels to round-off in either form, to what the stencil cancels:
        # the forcing's own dissipation h sum u^n sin^2 x over the wet set
        u = oracle_fields(N)[kind]
        params = Params(3.0, 1.0, eps=0.0)
        v = u.values
        ref = dissipation_two_stencil(u, params)
        forcing = u.grid.h * np.sum((v**3 * np.sin(u.grid.nodes) ** 2)[v > 1e-7 * v.max()])
        assert abs(dissipation(u, params) - ref) <= 1e-9 * max(ref, forcing)


class TestEntropy:
    def test_constant_one(self):
        res = entropy(constant_field(make_grid(64), 1.0), 1.5)
        assert type(res) is float
        assert res == pytest.approx(TWO_PI, rel=1e-13)

    def test_constant_four(self):
        res = entropy(constant_field(make_grid(64), 4.0), 1.5)
        assert res == pytest.approx(np.pi / 4, rel=1e-13)

    def test_dry_region_flags_infinite(self):
        g = make_grid(256)
        u = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        assert entropy(u, 1.5) == math.inf

    def test_monotone_in_field(self):
        g = make_grid(64)
        rng = np.random.default_rng(13)
        lo = Field(g, rng.uniform(0.5, 1.0, g.N))
        hi = Field(g, lo.values + rng.uniform(0.1, 1.0, g.N))
        for beta in (0.5, 1.0, 1.5):
            assert entropy(lo, beta) > entropy(hi, beta)

    def test_beta_guard(self):
        with pytest.raises(ValueError, match="beta"):
            entropy(constant_field(make_grid(32), 1.0), 0.0)


class TestEnergyLowerBound:
    def test_formula_value(self):
        M = TWO_PI
        expected = -np.pi**3 / 2 - TWO_PI - 0.5
        assert energy_lower_bound(M, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_small_mass_limit(self):
        assert abs(energy_lower_bound(1e-12, 1.0)) < 1e-11

    def test_bounds_random_fields(self):
        g = make_grid(256)
        rng = np.random.default_rng(14)
        for _ in range(100):
            alpha = rng.choice([0.5, 1.0, 1.3])
            M = rng.uniform(0.5, 15.0)
            v = random_nonnegative_mass_field(g, rng, M)
            assert energy(v, alpha) >= energy_lower_bound(M, alpha)


class TestCoercivityBound:
    def test_zero_gap(self):
        assert coercivity_bound(0.0, 0.5) == 0.0

    def test_reference_value(self):
        assert coercivity_bound(0.375, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_alpha_guard(self):
        with pytest.raises(ValueError, match="alpha"):
            coercivity_bound(1.0, 1.0)

    def test_negative_gap_guard(self):
        with pytest.raises(ValueError):
            coercivity_bound(-1e-3, 0.5)


class TestTaylorGap:
    def test_identity_is_exact(self):
        g = make_grid(256)
        for alpha, M in ((0.5, 20.0), (1.0, TWO_PI)):
            st = steady.minimizer(alpha, M)
            u = steady.evaluate(st, g)
            assert taylor_gap(u, u, alpha, st.lam) == 0.0

    def test_film_reference_with_bump(self):
        g = make_grid(256)
        st = steady.minimizer(0.5, 20.0)
        u = steady.evaluate(st, g)
        bump = np.cos(3 * g.nodes) - np.cos(5 * g.nodes)  # mass preserving
        v = Field(g, u.values + 0.3 * bump)
        assert taylor_gap(v, u, 0.5, st.lam) <= 1e-8

    def test_film_reference_with_random_field(self):
        g = make_grid(256)
        st = steady.minimizer(0.5, 20.0)
        u = steady.evaluate(st, g)
        rng = np.random.default_rng(15)
        for _ in range(5):
            v = random_nonnegative_mass_field(g, rng, 20.0)
            e_v = energy(v, 0.5)
            assert taylor_gap(v, u, 0.5, st.lam) <= 1e-8 * (1.0 + abs(e_v))

    def test_droplet_reference_residual_shrinks(self):
        # kinked references are aliasing-limited; the residual must at least
        # shrink under refinement and stay small
        st = steady.minimizer(1.0, TWO_PI)
        residuals = []
        for N in (256, 1024):
            g = make_grid(N)
            u = steady.evaluate(st, g)
            core = np.abs(g.nodes) < 0.8 * st.tau
            bump = np.where(core, (np.cos(g.nodes * np.pi / (0.8 * st.tau)) + 1.0) ** 2, 0.0)
            bump -= bump.mean()
            v = Field(g, u.values + 0.1 * bump)
            residuals.append(taylor_gap(v, u, 1.0, st.lam))
        assert residuals[0] < 5e-3
        assert residuals[1] < residuals[0] / 4


class TestInvariantProperties:
    def test_convexity_along_lines_below_alpha_one(self):
        g = make_grid(128)
        rng = np.random.default_rng(16)
        for _ in range(10):
            alpha = rng.uniform(0.1, 0.95)
            u = random_nonnegative_mass_field(g, rng, 5.0)
            v = random_nonnegative_mass_field(g, rng, 5.0)
            mid = Field(g, 0.5 * (u.values + v.values))
            assert energy(mid, alpha) <= 0.5 * energy(u, alpha) + 0.5 * energy(v, alpha) + 1e-10


class TestDiagnosticsCsv:
    def test_round_trip(self, tmp_path):
        g = make_grid(64)
        params = Params(3.0, 1.0, eps=1e-8)
        ref = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        ref = Field(g, ref.values + (TWO_PI - integrate(ref)) / TWO_PI)  # u's mass, as run() does
        u = constant_field(g, 1.0)
        s = diagnostics_sample(0.0, u, params, ref)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv([s], path)
        back = read_diagnostics_csv(path)
        assert back["t"][0] == 0.0
        assert back["E"][0] == s.E
        assert back["mass"][0] == s.mass
        assert back["S_kad"][0] == s.S_kad
        assert back["dH1"][0] == s.dH1

    def test_other_nine_column_header_refused(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("t,E,D,mass,S_kad,S_bf,dH1,dL2,dLinf\n" + ",".join(["1"] * 9) + "\n")
        with pytest.raises(ValueError, match="expected header"):
            read_diagnostics_csv(path)

    def test_entropy_columns_nan_below_their_beta(self):
        g = make_grid(32)
        u = constant_field(g, 1.0)
        s = diagnostics_sample(0.0, u, Params(1.8, 1.0), u)  # beta_bf < 0 < beta_kad
        assert math.isnan(s.S_bf)
        assert s.S_kad == pytest.approx(TWO_PI)


H1_WARNING = ("h1_distance called on fields of unequal mass; "
              "the H1-equivalence argument needs a mean-zero difference")


def sample_field(kind, N, seed):
    """A positive field, or one with a run of nodes set below the
    dissipation's delta ("masked": finite entropies) or to zero ("dry":
    infinite ones), the run's length and place drawn from seed."""
    rng = np.random.default_rng(seed)
    g = make_grid(N)
    v = 0.5 + rng.random(N)
    if kind != "wet":
        start, length = rng.integers(N), rng.integers(1, N)
        v[(start + np.arange(length)) % N] = 0.0 if kind == "dry" else 1e-9 * rng.random()
    return Field(g, v)


class TestSampleMatchesPerCallOracle:
    """The shared min, the grid's sin x and the one difference u - ref leave
    every diagnostics column bit for bit as each call made it alone."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["wet", "masked", "dry"]), st.sampled_from([16, 18, 256]),
           st.integers(0, 2**32 - 1), st.sampled_from([1.8, 2.5, 3.0, 4.0]),
           st.floats(0.3, 3.0))
    def test_bit_for_bit(self, kind, N, seed, n, alpha):
        u = sample_field(kind, N, seed)
        other = sample_field("wet", N, seed + 1)
        ref = Field(u.grid, other.values + (integrate(u) - integrate(other)) / TWO_PI)
        params = Params(n, alpha, eps=0.0)
        for E in (None, -1.5):
            got = diagnostics_sample(0.25, u, params, ref, E)
            want = diagnostics_sample_per_call(0.25, u, params, ref, E)
            assert (np.array(list(vars(got).values())).tobytes()
                    == np.array(list(vars(want).values())).tobytes())
        if kind == "dry":
            assert got.S_kad == math.inf
        for delta in (None, 1e-9, 0.6):
            assert dissipation(u, params, delta) == dissipation_by_masks(u, params, delta)

    def test_grid_keeps_sin_x(self):
        g = make_grid(256)
        assert g.sin_nodes.tobytes() == np.sin(g.nodes).tobytes()
        assert not g.sin_nodes.flags.writeable

    def test_run_with_a_reference_off_in_mass_warns_verbatim(self, monkeypatch):
        # the benchmark counts these warnings by their text; the run takes
        # u0's mass 1e-3 too high, and shifts its reference to that mass
        g = make_grid(16)
        u0 = Field(g, 1.0 + 0.1 * np.cos(g.nodes))
        monkeypatch.setattr(evolution, "integrate",
                            lambda u: integrate(u) + (1e-3 if u is u0 else 0.0))
        cfg = SchemeConfig(dt0=1e-3, dt_min=1e-12, dt_max=1e-2, t_end=3e-3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = run(u0, Params(3.0, 1.0), cfg)
        assert [str(w.message) for w in caught] == [H1_WARNING] * len(rec.samples)
