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
    edge_cos_differences,
    edge_mobility,
    edge_mobility_partials,
    energy,
    entropy,
    largest_mobility,
    read_diagnostics_csv,
    write_diagnostics_csv,
)
from thinfilm.grid import Field, constant_field, integrate, make_grid
from thinfilm import evolution, steady
from thinfilm.evolution import SchemeConfig, run

from oracles import (
    coercivity_bound,
    derivative,
    diagnostics_sample_per_call,
    discrete_film,
    dissipation_by_shifts,
    energy_fourier,
    energy_lower_bound,
    energy_spectral,
    energy_three_point,
    h1_distance,
    h1_distance_fourier,
    h1_distance_spectral,
    of_field,
    pressure_three_point,
    spectrum,
    taylor_gap,
)
from test_grid import field_distances, random_smooth_field

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


class TestEdgeMobility:
    """The mobility law and the partials that the Newton Jacobian takes."""

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_partials_match_central_differences(self, n, eps):
        params = Params(n, 1.0, eps=eps)
        W = 0.2 + np.random.default_rng(int(2 * n)).random(33)  # positive, off the kink at 0
        a, b = W[:-1], W[1:]

        def m(a, b):  # the mobility of each edge (a, b) on its own
            return edge_mobility(np.stack((a, b), axis=-1), params)[:, 0]

        d = 1e-6
        da, db = edge_mobility_partials(W, params)
        np.testing.assert_allclose(da, (m(a + d, b) - m(a - d, b)) / (2 * d), rtol=1e-6)
        np.testing.assert_allclose(db, (m(a, b + d) - m(a, b - d)) / (2 * d), rtol=1e-6)
        scaled = edge_mobility_partials(W, params, 3.0)
        np.testing.assert_allclose(scaled, (3.0 * da, 3.0 * db), rtol=1e-15)

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_partials_vanish_at_dry_and_negative_nodes(self, n, eps):
        rng = np.random.default_rng(int(2 * n))
        W = rng.standard_normal(64)
        W[rng.random(64) < 0.2] = 0.0
        W[:2] = 0.0, -0.0
        da, db = edge_mobility_partials(W, Params(n, 1.0, eps=eps))
        dry = W <= 0.0
        assert (W < 0.0).any() and (W > 0.0).any()
        assert (da[dry[:-1]] == 0.0).all() and (db[dry[1:]] == 0.0).all()

    @pytest.mark.parametrize("shift", [-2.0, -0.5, 1.0])
    def test_largest_mobility_bounds_the_edges(self, shift):
        W = shift + np.random.default_rng(5).random(64)
        params = Params(2.5, 1.0, eps=1e-8)
        top = largest_mobility(float(W.max()), params)
        assert type(top) is float and edge_mobility(W, params).max() <= top
        assert edge_mobility(np.full(2, W.max()), params)[0] == pytest.approx(top, rel=1e-15)


class TestEnergy:
    def test_constant(self):
        g = make_grid(64)
        c, alpha = 0.7, 1.3
        assert of_field(energy, constant_field(g, c), alpha) == pytest.approx(
            -(alpha**2) * np.pi * c**2, abs=1e-12)

    def test_one_plus_cos_alpha_one(self):
        # cos x is an eigenvector of the 3-point second difference with
        # eigenvalue -sinc^2(h/2), so h sum (D+ cos x)^2 = pi sinc^2(h/2):
        # E_h = -2 pi - pi (1 - sinc^2(h/2))/2, the continuous -2 pi up to O(h^2)
        g = make_grid(128)
        u = Field(g, 1.0 + np.cos(g.nodes))
        assert of_field(energy, u, 1.0) == pytest.approx(
            -TWO_PI - np.pi * (1.0 - sinc2_half(g.h)) / 2, abs=1e-10)

    def test_second_order_in_h(self):
        # E_h - E = O(h^2) on a smooth field: the gap falls fourfold per doubling
        gaps = []
        for N in (64, 128, 256):
            g = make_grid(N)
            u = Field(g, 1.0 + np.cos(g.nodes) + 0.3 * np.sin(2 * g.nodes))
            gaps.append(of_field(energy, u, 0.5) - energy_spectral(u, 0.5))
        assert [a / b for a, b in zip(gaps, gaps[1:])] == pytest.approx([4.0, 4.0], rel=1e-2)

    @pytest.mark.parametrize("alpha,M", [(0.5, 20.0), (1.0, TWO_PI)])
    def test_minimizer_beats_random_competitors(self, alpha, M):
        g = make_grid(1024)
        ustar = steady.evaluate(steady.minimizer(alpha, M), g)
        e_star = of_field(energy, ustar, alpha)
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = random_nonnegative_mass_field(g, rng, M)
            assert of_field(energy, v, alpha) > e_star


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
            a = of_field(energy, u, alpha)
            b = energy_fourier(u, alpha, integrate(u), three_point=True)
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


def sinc2_half(h):
    """sinc^2(h/2), sinc z = sin z / z: the 3-point second difference's
    eigenvalue on cos x is -sinc^2(h/2)."""
    return (math.sin(h / 2) / (h / 2)) ** 2


class TestDissipation:
    def test_constant_field(self):
        # the differences vanish, gp = (cos x_{i+1} - cos x_i)/h
        # = -sinc(h/2) sin x_{i+1/2}: D = c^n pi sinc^2(h/2)
        g = make_grid(256)
        c = 2.0
        p = Params(3.0, 1.0, eps=0.0)
        assert of_field(dissipation, constant_field(g, c), p) == pytest.approx(
            c**3 * np.pi * sinc2_half(g.h), rel=1e-10)

    def test_minimizer_near_zero(self):
        g = make_grid(2048)
        u = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        p = Params(3.0, 1.0, eps=0.0)
        assert of_field(dissipation, u, p) <= 1e-6

    def test_smooth_film_exact(self):
        # the discrete film M/2pi + cos x/(sinc^2(h/2) - alpha^2) has a
        # constant 3-point pressure; the sampled film M/2pi + cos x/(1 -
        # alpha^2) is off it by O(h^2) and reads 5e-7 here
        g = make_grid(256)
        p = Params(3.0, 0.5, eps=0.0)
        assert of_field(dissipation, discrete_film(g, 0.5, 20.0), p) <= 1e-15

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
    def test_rate_of_the_three_point_energy(self, N, alpha):
        # the semi-discrete flow u_t = -div F lowers E_h at the rate D: E_h's
        # gradient is -p, and summation by parts turns h p . div F into
        # -h sum m gp^2; E_h is quadratic, so a centred difference of it
        # along -div F is exact up to round-off
        g = make_grid(N)
        rng = np.random.default_rng(N)
        params = Params(3.0, alpha, eps=0.0)
        dcos = edge_cos_differences(g)
        smooth = random_smooth_field(g, rng).values
        for v in (0.5 + rng.random(N), smooth - smooth.min() + 0.1):
            div_F, _, _ = evolution._residual(v, v, 1.0, g, params, dcos)
            D = of_field(dissipation, Field(g, v), params)
            assert abs(g.h * np.dot(pressure_three_point(v, g, alpha), div_F) + D) <= 1e-13 * D
            delta = 1e-6
            slope = (energy_three_point(v - delta * div_F, g, alpha)
                     - energy_three_point(v + delta * div_F, g, alpha)) / (2.0 * delta)
            assert abs(slope + D) <= 1e-9 * D

    def test_all_dry_returns_zero(self):
        g = make_grid(64)
        p = Params(3.0, 1.0, eps=0.0)
        # the mobility max(u, 0)^n + eps is 0 on every edge
        assert of_field(dissipation, constant_field(g, 0.0), p) == 0.0


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
    """The 3-point energy and dH1 and the block dissipation against rolled
    shifts, the Fourier-side sums and the residual's per-call edge terms;
    the spectral oracles against the transform-and-back derivative."""

    def test_energy(self, N, kind):
        u = oracle_fields(N)[kind]
        for alpha in (0.5, 1.0, 1.7):
            E = of_field(energy, u, alpha)
            by_shifts = energy_three_point(u.values, u.grid, alpha)
            assert abs(E - by_shifts) <= 1e-12 * abs(by_shifts)
            by_fourier = energy_fourier(u, alpha, integrate(u), three_point=True)
            assert abs(E - by_fourier) <= 1e-12 * abs(by_fourier)

    def test_spectral_energy(self, N, kind):
        # the continuous functional's oracle against the transform-and-back
        # derivative, and against energy_fourier less its Nyquist term,
        # which the spectral derivative drops
        u = oracle_fields(N)[kind]
        g, v = u.grid, u.values
        ux = derivative(u, 1).values
        nyquist = np.pi * (N // 2) ** 2 * abs(spectrum(u)[N // 2]) ** 2
        for alpha in (0.5, 1.0, 1.7):
            E = energy_spectral(u, alpha)
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
            got = field_distances(u, w)[0]
            by_shifts = h1_distance(u, w)
            assert abs(got - by_shifts) <= 1e-12 * by_shifts
            by_fourier = h1_distance_fourier(u, w)
            assert abs(got - by_fourier) <= 1e-12 * by_fourier
            with pytest.warns(UserWarning, match="unequal mass"):
                field_distances(u, Field(g, w.values + 1e-3))

    def test_spectral_h1_distance(self, N, kind):
        # the spectral dH1 oracle against the transform-and-back derivative
        fields = oracle_fields(N)
        u = fields[kind]
        g = u.grid
        for other in fields.values():
            w = Field(g, other.values + (integrate(u) - integrate(other)) / TWO_PI)
            ref = math.sqrt(g.h * np.sum(derivative(Field(g, u.values - w.values), 1).values ** 2))
            assert abs(h1_distance_spectral(u, w) - ref) <= 1e-12 * ref

    def test_dissipation(self, N, kind):
        # h sum m gp^2 with the edge terms of the step's residual, bit for bit
        u = oracle_fields(N)[kind]
        params = Params(3.0, 1.0, eps=0.0)
        assert of_field(dissipation, u, params) == dissipation_by_shifts(u, params)


class TestEntropy:
    def test_constant_one(self):
        u = constant_field(make_grid(64), 1.0)
        res = entropy(u.values[None], u.grid, 1.5)
        assert res.shape == (1,) and res.dtype == np.float64
        assert res[0] == pytest.approx(TWO_PI, rel=1e-13)

    def test_constant_four(self):
        res = of_field(entropy, constant_field(make_grid(64), 4.0), 1.5)
        assert res == pytest.approx(np.pi / 4, rel=1e-13)

    def test_dry_region_flags_infinite(self):
        g = make_grid(256)
        u = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        assert of_field(entropy, u, 1.5) == math.inf

    def test_monotone_in_field(self):
        g = make_grid(64)
        rng = np.random.default_rng(13)
        lo = Field(g, rng.uniform(0.5, 1.0, g.N))
        hi = Field(g, lo.values + rng.uniform(0.1, 1.0, g.N))
        for beta in (0.5, 1.0, 1.5):
            assert of_field(entropy, lo, beta) > of_field(entropy, hi, beta)

    def test_beta_guard(self):
        with pytest.raises(ValueError, match="beta"):
            of_field(entropy, constant_field(make_grid(32), 1.0), 0.0)


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
            assert energy_spectral(v, alpha) >= energy_lower_bound(M, alpha)


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

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_three_point_bound_holds_and_is_attained(self, alpha):
        # E_h about the discrete film against dH1 for mean-zero differences:
        # random ones stay inside the bound, and mode 1, where the 3-point
        # symbol is smallest, attains it to round-off
        N = 64
        g = make_grid(N)
        film = discrete_film(g, alpha, 50.0)
        rng = np.random.default_rng(17)
        for d in [*rng.standard_normal((20, N)), np.cos(g.nodes)]:
            u = Field(g, film.values + (d - d.mean()))
            dh1 = field_distances(u, film)[0]
            gap = of_field(energy, u, alpha) - of_field(energy, film, alpha)
            bound = coercivity_bound(gap, alpha, N)
            assert dh1 <= bound * (1.0 + 1e-12)
        assert dh1 == pytest.approx(bound, rel=1e-12)


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
            e_v = energy_spectral(v, 0.5)
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
            assert (energy_spectral(mid, alpha)
                    <= 0.5 * energy_spectral(u, alpha) + 0.5 * energy_spectral(v, alpha) + 1e-10)


class TestDiagnosticsCsv:
    def test_round_trip(self, tmp_path):
        g = make_grid(64)
        params = Params(3.0, 1.0, eps=1e-8)
        ref = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
        ref = Field(g, ref.values + (TWO_PI - integrate(ref)) / TWO_PI)  # u's mass, as run() does
        u = constant_field(g, 1.0)
        U = u.values[None]
        table = diagnostics_sample([0.0], U, params, ref, energy(U, g, params.alpha))
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(table, path)
        back = read_diagnostics_csv(path)
        assert back.dtype == table.dtype
        assert back.tobytes() == table.tobytes()

    def test_other_nine_column_header_refused(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("t,E,D,mass,S_kad,S_bf,dH1,dL2,dLinf\n" + ",".join(["1"] * 9) + "\n")
        with pytest.raises(ValueError, match="expected header"):
            read_diagnostics_csv(path)

    def test_entropy_columns_nan_below_their_beta(self):
        g = make_grid(32)
        u = constant_field(g, 1.0)
        # beta_bf < 0 < beta_kad
        U = u.values[None]
        s, = diagnostics_sample([0.0], U, Params(1.8, 1.0), u, energy(U, g, 1.0))
        assert math.isnan(s["S_bf"])
        assert s["S_kad"] == pytest.approx(TWO_PI)


H1_WARNING = ("h1_distance called on fields of unequal mass; "
              "the H1-equivalence argument needs a mean-zero difference")


def sample_field(kind, N, seed):
    """A positive field, or one with a run of nodes set to values below
    1e-9 ("masked": finite entropies) or to zero ("dry": infinite ones),
    the run's length and place drawn from seed."""
    rng = np.random.default_rng(seed)
    g = make_grid(N)
    v = 0.5 + rng.random(N)
    if kind != "wet":
        start, length = rng.integers(N), rng.integers(1, N)
        v[(start + np.arange(length)) % N] = 0.0 if kind == "dry" else 1e-9 * rng.random()
    return Field(g, v)


class TestSampleMatchesPerCallOracle:
    """The edge terms the dissipation shares with the residual and the one
    difference u - ref leave every diagnostics column bit for bit as each
    call made it alone."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["wet", "masked", "dry"]), st.sampled_from([16, 18, 256]),
           st.integers(0, 2**32 - 1), st.sampled_from([1.8, 2.5, 3.0, 4.0]),
           st.floats(0.3, 3.0))
    def test_bit_for_bit(self, kind, N, seed, n, alpha):
        u = sample_field(kind, N, seed)
        other = sample_field("wet", N, seed + 1)
        ref = Field(u.grid, other.values + (integrate(u) - integrate(other)) / TWO_PI)
        params = Params(n, alpha, eps=0.0)
        for E in (of_field(energy, u, alpha), -1.5):
            got, = diagnostics_sample([0.25], u.values[None], params, ref, [E])
            assert got.tobytes() == diagnostics_sample_per_call(0.25, u, params, ref, E).tobytes()
        if kind == "dry":
            assert got["S_kad"] == math.inf

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


def block_row(kind, N, seed, mass):
    """A row of a diagnostics block: "wet", "masked" or "dry" as in
    sample_field, scaled to the given mass; "heavy", a wet row of twice that
    mass; or "empty", every node zero or one tiny negative value."""
    if kind == "empty":
        return np.full(N, 0.0 if seed % 2 else -1e-14)
    u = sample_field("wet" if kind == "heavy" else kind, N, seed)
    return u.values * ((2.0 if kind == "heavy" else 1.0) * mass / integrate(u))


class TestBlockDiagnostics:
    """diagnostics_sample on a block of k rows: each row as the per-call
    oracle measures it on its own, and as the block with k = 1 does."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(["wet", "masked", "dry", "heavy", "empty"]),
                              st.integers(0, 2**32 - 1)), min_size=1, max_size=8),
           st.sampled_from([16, 18, 256]), st.sampled_from([1.8, 2.5, 3.0, 4.0]),
           st.floats(0.3, 3.0))
    def test_rows_as_measured_alone(self, rows, N, n, alpha):
        g = make_grid(N)
        other = sample_field("wet", N, rows[0][1] + 1)
        ref = Field(g, other.values * (5.0 / integrate(other)))
        params = Params(n, alpha, eps=0.0)
        U = np.array([block_row(kind, N, seed, integrate(ref)) for kind, seed in rows])
        ts = [0.25 * i for i in range(len(rows))]
        Es = [-1.5 + i for i in range(len(rows))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            block = diagnostics_sample(ts, U, params, ref, Es)
        # one warning per row off ref's mass, in the benchmark's words, and
        # no NumPy RuntimeWarning from a dry row
        off = sum(abs(integrate(Field(g, v)) - integrate(ref)) > 1e-10 for v in U)
        assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, H1_WARNING)] * off
        assert len(block) == len(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for i, (got, v) in enumerate(zip(block, U)):
                alone = diagnostics_sample(ts[i:i + 1], U[i:i + 1], params, ref, Es[i:i + 1])
                assert got.tobytes() == alone.tobytes()
                want = diagnostics_sample_per_call(ts[i], Field(g, v), params, ref, Es[i])
                for name in ("t", "E", "D", "mass", "S_bf", "S_kad", "dLinf"):
                    assert got[name].tobytes() == want[name].tobytes(), name
                for name in ("dH1", "dL2"):
                    assert abs(got[name] - want[name]) <= 1e-15 * abs(want[name]), name
