"""Droplet profiles, the mass/contact-point bijection, minimizers, catalog."""

import os
import subprocess
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies
from scipy.integrate import quad

import thinfilm
from thinfilm import steady
from thinfilm.cli import main
from thinfilm.experiments import cmd_catalog, massmap_table
from thinfilm.functionals import Params, dissipation, energy
from thinfilm.grid import Field, make_grid
from thinfilm.steady import (
    catalog,
    evaluate,
    hanging_drop,
    mass_of_tau,
    minimizer,
    particular_solution,
    sitting_drop,
    smooth_film,
    tau_from_mass,
)

from oracles import (
    contact_curvature,
    drop_height,
    el_residual,
    mass_slope,
    profile_curvature,
    profile_nonnegative,
    profile_slope,
    support_interval,
    symmetry_roots_check,
)

TWO_PI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)


def _slope(branch, alpha, tau):
    """dM/dtau from the contact curvature, as the Newton inversion takes it."""
    return steady._mass_slope(branch, alpha, tau, steady._contact(branch, alpha, tau)[1])


class TestParticularSolution:
    def test_alpha_one_at_half_pi(self):
        u0, _ = particular_solution(1.0, np.pi / 2)
        assert u0 == pytest.approx(-np.pi / 4, rel=1e-15)

    def test_alpha_half_at_zero(self):
        # u0 = (cos x - cos(alpha x))/(1 - alpha^2) vanishes at x = 0 for every alpha
        u0, du0 = particular_solution(0.5, 0.0)
        assert u0 == 0.0
        assert du0 == 0.0

    def test_alpha_two_at_pi(self):
        # (cos pi - cos 2pi)/(1 - 4) = 2/3
        u0, _ = particular_solution(2.0, np.pi)
        assert u0 == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_derivative_alpha_one(self):
        _, du0 = particular_solution(1.0, np.pi / 2)
        assert du0 == pytest.approx(-0.5, rel=1e-15)

    def test_vectorized(self):
        x = np.linspace(-1, 1, 5)
        u0, du0 = particular_solution(0.5, x)
        assert u0.shape == du0.shape == (5,)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_matches_difference_form_away_from_one(self, alpha):
        x = np.linspace(-np.pi, np.pi, 101)
        u0, du0 = particular_solution(alpha, x)
        c = 1.0 / (1.0 - alpha**2)
        assert np.abs(u0 - c * (np.cos(x) - np.cos(alpha * x))).max() <= 1e-14
        assert np.abs(du0 - c * (alpha * np.sin(alpha * x) - np.sin(x))).max() <= 1e-14

    def test_alpha_guard(self):
        with pytest.raises(ValueError):
            particular_solution(0.0, 1.0)


class TestScalarArrayContract:
    """A scalar goes through `math` and gives Python floats, an array goes
    through NumPy and gives arrays, and the two paths agree."""

    @pytest.mark.parametrize("scalar", [float, np.float64, np.array],
                             ids=["float", "float64", "0-d array"])
    def test_scalar_in_python_floats_out(self, scalar):
        tau = scalar(1.3)
        assert [type(v) for v in particular_solution(SQRT2, tau)] == [float] * 2
        for branch in ("hanging", "sitting"):
            assert [type(v) for v in steady._drop_coefficients(branch, SQRT2, tau)] == [float] * 4
            assert type(mass_of_tau(SQRT2, tau, branch)) is float
        for drop in (hanging_drop(SQRT2, tau), sitting_drop(SQRT2, tau)):
            values = (drop.tau, drop.A, drop.lam, drop.mass, drop.offset, *support_interval(drop))
            assert [type(v) for v in values] == [float] * 7

    @pytest.mark.parametrize("alpha", [0.5, 1.0, SQRT2, 3.0])
    def test_scalar_and_array_paths_agree(self, alpha):
        # down to h = 1e-3, through both sides of the small-drop series' threshold
        def agree(fn, taus):
            array = np.array(fn(taus))
            scalar = np.array([fn(float(t)) for t in taus]).T
            for a, s in zip(array, scalar):
                # relative; to the largest size where the quantity changes sign
                ref = np.abs(a).max() if a.min() < 0.0 < a.max() else np.abs(a)
                assert np.all(np.abs(s - a) <= 1e-14 * ref)

        hanging = np.linspace(1e-3, np.pi / max(alpha, 1.0) - 1e-3, 101)
        agree(lambda x: particular_solution(alpha, x), hanging)
        agree(lambda t: steady._drop_coefficients("hanging", alpha, t), hanging)
        masses = steady._drop_coefficients("hanging", alpha, hanging)[2]
        scalar = np.array([mass_of_tau(alpha, float(t)) for t in hanging])
        assert np.all(np.abs(scalar - masses) <= 1e-14 * masses)
        if alpha > 1.0:
            sitting = np.linspace(1e-3, np.pi - 1e-3, 101)
            sitting = sitting[np.abs(np.sin(alpha * (np.pi - sitting))) >= 1e-8]
            agree(lambda t: steady._drop_coefficients("sitting", alpha, t), sitting)


class TestHangingDrop:
    def test_hand_computed_case(self):
        # alpha=1, tau=pi/2: A = -1/2 and u(0) = pi/4 - 1/2
        p = hanging_drop(1.0, np.pi / 2)
        assert p.A == pytest.approx(-0.5, rel=1e-14)
        assert p.value(0.0) == pytest.approx(np.pi / 4 - 0.5, rel=1e-14)

    @pytest.mark.parametrize("alpha,tau", [(1.0, 0.5), (1.0, 2.8), (0.5, 2.0),
                                           (SQRT2, 1.5), (2.0, 1.2)])
    def test_zero_contact_angle(self, alpha, tau):
        p = hanging_drop(alpha, tau)
        for s in (-1.0, 1.0):
            assert abs(p.value(s * tau)) <= 1e-12
            assert abs(profile_slope(p, s * (tau - 1e-16))) <= 1e-12

    def test_matches_resolvent_closed_form_alpha_one(self):
        # independent closed form: -1/2 (x sin x - tau sin tau)
        #                          + 1/2 (1 + tau cot tau)(cos tau - cos x)
        tau = 2.2
        p = hanging_drop(1.0, tau)
        xs = np.linspace(-tau, tau, 301)
        ref = (-0.5 * (xs * np.sin(xs) - tau * np.sin(tau))
               + 0.5 * (1 + tau / np.tan(tau)) * (np.cos(tau) - np.cos(xs)))
        assert np.abs(p.value(xs) - ref).max() < 1e-13

    def test_out_of_range_tau(self):
        with pytest.raises(ValueError, match="tau"):
            hanging_drop(1.0, 3.2)
        with pytest.raises(ValueError, match="tau"):
            hanging_drop(2.0, 2.0)  # needs alpha * tau < pi

    def test_mass_against_adaptive_quadrature(self):
        p = hanging_drop(1.0, 2.0)
        oracle, err = quad(lambda x: p._raw(np.asarray(x)), -2.0, 2.0,
                           epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-11
        assert p.mass == pytest.approx(oracle, abs=1e-10)
        # frozen value from the adaptive oracle (also matches the closed form)
        assert p.mass == pytest.approx(1.748112154432818, abs=1e-12)

    def test_positive_and_symmetric_decreasing(self):
        p = hanging_drop(1.0, 2.4)
        xs = np.linspace(0.0, 2.4, 2001)[1:-1]
        vals = p.value(xs)
        assert vals.min() > 0
        assert np.all(np.diff(vals) < 0)
        assert symmetry_roots_check(p)

    def test_one_sided_curvature_and_multiplier(self):
        for alpha, tau in ((1.0, 2.0), (0.5, 2.5), (SQRT2, 1.8)):
            p = hanging_drop(alpha, tau)
            assert contact_curvature(p) > 0
            assert p.lam > np.cos(tau)


@pytest.mark.parametrize("branch,alpha,tau", [("hanging", 0.5, 2.5), ("hanging", 1.0, 2.0),
                                               ("hanging", SQRT2, 1.8), ("sitting", 2.0, 1.0)])
def test_oracle_derivatives_match_differences_of_value(branch, alpha, tau):
    # the oracle slope and curvature are closed forms written apart from
    # value(); fourth-order central differences of value() check them
    p = hanging_drop(alpha, tau) if branch == "hanging" else sitting_drop(alpha, tau)
    a, b = support_interval(p)
    k = 1e-3
    x = a + k * np.arange(20, int((b - a) / k) - 19)
    u = {j: p.value(x + j * k) for j in (-2, -1, 0, 1, 2)}
    slope = (u[-2] - 8 * u[-1] + 8 * u[1] - u[2]) / (12 * k)
    curvature = (-u[-2] + 16 * u[-1] - 30 * u[0] + 16 * u[1] - u[2]) / (12 * k * k)
    assert np.abs(profile_slope(p, x) - slope).max() <= 1e-10
    assert np.abs(profile_curvature(p, x) - curvature).max() <= 1e-7


class TestSittingDrop:
    def test_contact_conditions(self):
        p = sitting_drop(SQRT2, 1.0)
        assert abs(p.value(p.tau)) <= 1e-12
        assert abs(profile_slope(p, p.tau + 1e-15)) <= 1e-12
        assert abs(p.value(TWO_PI - p.tau)) <= 1e-12

    def test_requires_alpha_above_one(self):
        with pytest.raises(ValueError, match="alpha > 1"):
            sitting_drop(1.0, 1.0)

    def test_resonant_contact_rejected(self):
        tau_res = np.pi * (1.0 - 1.0 / SQRT2)
        with pytest.raises(ValueError, match="resonant"):
            sitting_drop(SQRT2, tau_res)

    def test_dissipation_of_valid_drop(self):
        # tau = 0.5 lies on the nonnegative part of the branch
        p = sitting_drop(SQRT2, 0.5)
        g = make_grid(2048)
        u = evaluate(p, g)
        assert u.values.min() >= -1e-13
        d = dissipation(u, Params(3.0, SQRT2, eps=0.0), 1e-7 * u.values.max())
        assert d <= 1e-6

    def test_dissipation_of_spec_sample(self):
        # tau = 1.0 gives a sign-changing solution of the contact problem;
        # it still solves the steady ODE, so the dissipation stays tiny
        p = sitting_drop(SQRT2, 1.0)
        g = make_grid(2048)
        u = Field(g, p.value(g.nodes))
        d = dissipation(u, Params(3.0, SQRT2, eps=0.0), 1e-6)
        assert d <= 1e-6

    def test_symmetry(self):
        assert symmetry_roots_check(sitting_drop(SQRT2, 1.0))
        assert symmetry_roots_check(sitting_drop(SQRT2, 0.4))


def _quad(fn, a, b):
    val, err = quad(lambda x: float(fn(np.asarray(x))), a, b,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err <= 1e-13 * (1.0 + abs(val))
    return val


ALPHAS_NEAR_ONE = [1.0 + s * d for d in (1e-9, 1e-7, 1e-5, 1e-3) for s in (-1.0, 1.0)]


class TestClosedFormOracle:
    """Closed-form mass and energy against adaptive quadrature of the profile."""

    @pytest.mark.parametrize("branch,alpha,tau", [
        ("hanging", 0.5, 0.5), ("hanging", 0.5, 2.0), ("hanging", 0.5, 3.0),
        ("hanging", 1.0, 0.5), ("hanging", 1.0, 2.0), ("hanging", 1.0, 3.0),
        *[("hanging", alpha, tau) for alpha in ALPHAS_NEAR_ONE for tau in (0.5, 2.0, 3.0)],
        ("hanging", SQRT2, 0.3), ("hanging", SQRT2, 1.2), ("hanging", SQRT2, 2.1),
        ("hanging", 2.0, 0.3), ("hanging", 2.0, 0.9), ("hanging", 2.0, 1.5),
        # sitting drops on the nonnegative part of the branch
        ("sitting", SQRT2, 0.2), ("sitting", SQRT2, 0.5), ("sitting", SQRT2, 0.9),
        ("sitting", 2.0, 0.3), ("sitting", 2.0, 1.0), ("sitting", 2.0, 1.5),
    ])
    def test_mass_and_energy(self, branch, alpha, tau):
        p = hanging_drop(alpha, tau) if branch == "hanging" else sitting_drop(alpha, tau)
        a, b = support_interval(p)

        def density(x):
            u, ux = p.value(x), profile_slope(p, x)
            return 0.5 * (ux * ux - alpha**2 * u * u) - u * np.cos(x)

        m_ref = _quad(p.value, a, b)
        e_ref = _quad(density, a, b)
        e = steady._make_state(f"{branch}_drop", (p,)).energy
        assert abs(p.mass - m_ref) <= 1e-12 * (1.0 + abs(m_ref))
        assert abs(e - e_ref) <= 1e-11 * (1.0 + abs(e_ref))

    @pytest.mark.parametrize("tau", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [1e-9, 1e-8, 1e-7])
    def test_continuous_across_alpha_one(self, d, tau):
        # M, E and dM/dtau are smooth in alpha, so their second difference
        # across alpha = 1 is round-off plus f''(alpha) d^2 (|f''| <= 2.7e3 (1 + |f|)
        # at tau = 3, next to the pole of M)
        def quantities(alpha):
            p = hanging_drop(alpha, tau)
            return np.array([p.mass, steady._make_state("hanging_drop", (p,)).energy,
                             _slope("hanging", alpha, tau)])

        mid = quantities(1.0)
        second = quantities(1.0 - d) - 2.0 * mid + quantities(1.0 + d)
        assert np.all(np.abs(second) <= (1e-12 + 1e4 * d * d) * (1.0 + np.abs(mid)))


def _mp_mass(branch, alpha, h):
    """Droplet mass at half-width h: the closed form of
    `steady._drop_coefficients` in 50-digit arithmetic, whose cancellation
    of M ~ h^5 from O(h) terms it survives."""
    with mpmath.workdps(50):
        return float(_mp_mass_mp(branch, alpha, h))


def _mp_mass_mp(branch, alpha, h):
    """`_mp_mass` as an mpf, at the caller's working precision."""
    a, h, sign = mpmath.mpf(alpha), mpmath.mpf(h), 1 if branch == "hanging" else -1
    sin, cos = mpmath.sin, mpmath.cos
    if a == 1:
        u0, du0 = -h * sin(h) / 2, -(sin(h) + h * cos(h)) / 2
    else:
        u0 = (cos(h) - cos(a * h)) / (1 - a * a)
        du0 = (a * sin(a * h) - sin(h)) / (1 - a * a)
    A = sign * du0 / (a * sin(a * h))
    lam = -a * a * (sign * u0 + A * cos(a * h))
    return 2 * (h * lam - sign * sin(h)) / (a * a)


def _mp_cos_moment(branch, alpha, h):
    """int u cos x over a droplet's support at half-width h, by 50-digit
    quadrature of the profile `_mp_mass` integrates in closed form."""
    with mpmath.workdps(50):
        a, h, sign = mpmath.mpf(alpha), mpmath.mpf(h), 1 if branch == "hanging" else -1
        sin, cos = mpmath.sin, mpmath.cos
        if a == 1:
            u0 = lambda y: -y * sin(y) / 2  # noqa: E731
        else:
            u0 = lambda y: (cos(y) - cos(a * y)) / (1 - a * a)  # noqa: E731
        A = sign * mpmath.diff(u0, h) / (a * sin(a * h))
        K = sign * u0(h) + A * cos(a * h)
        # cos x = sign cos y in the support-centred coordinate y
        return float(mpmath.quad(lambda y: (sign * u0(y) + A * cos(a * y) - K) * sign * cos(y),
                                 [-h, 0, h]))


SMALL_DROP_CASES = [
    ("hanging", 0.5), ("hanging", 1.0), ("hanging", SQRT2), ("hanging", 3.0),
    ("sitting", SQRT2), ("sitting", 3.0),
]


class TestSmallDrops:
    """Masses, cos moments and mass slopes of small drops, all ~ h^5 or h^4
    and formed from O(h) terms by the closed forms, keep their relative
    accuracy."""

    @staticmethod
    def _points(branch):
        hs = np.array([1e-3, 1e-2, 0.05, 0.2])
        taus = hs if branch == "hanging" else np.pi - hs
        return taus, taus if branch == "hanging" else np.pi - taus  # the h the code sees

    @pytest.mark.parametrize("branch,alpha", SMALL_DROP_CASES)
    def test_mass_against_mpmath(self, branch, alpha):
        taus, h_used = self._points(branch)
        want = np.array([_mp_mass(branch, alpha, h) for h in h_used])
        scalar = np.array([mass_of_tau(alpha, float(t), branch) for t in taus])
        array = steady._drop_coefficients(branch, alpha, taus)[2]
        for got in (scalar, array):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("branch,alpha", SMALL_DROP_CASES)
    def test_cos_moment_against_mpmath(self, branch, alpha):
        taus, h_used = self._points(branch)
        want = np.array([_mp_cos_moment(branch, alpha, h) for h in h_used])
        make = hanging_drop if branch == "hanging" else sitting_drop
        scalar = np.array([steady._cos_moment(make(alpha, float(t))) for t in taus])
        array = steady._small_drop(steady._SMALL_DROP_COS, alpha, h_used, np.sin)
        for got in (scalar, array):
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("branch,alpha", SMALL_DROP_CASES)
    def test_mass_slope_against_mpmath(self, branch, alpha):
        taus, h_used = self._points(branch)
        sign = 1 if branch == "hanging" else -1  # dh/dtau
        for t, h in zip(taus, h_used):
            with mpmath.workdps(50):
                want = sign * float(mpmath.diff(lambda x: _mp_mass_mp(branch, alpha, x), h))
            got = _slope(branch, alpha, float(t))
            assert got == pytest.approx(want, rel=1e-14, abs=0)


class TestMassMap:
    def test_vanishing_mass_limit(self):
        assert mass_of_tau(1.0, 1e-4) < 1e-8

    def test_monotone_samples(self):
        m = [mass_of_tau(1.0, t) for t in (2.0, 2.5, 3.0)]
        assert m[0] < m[1] < m[2]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, SQRT2])
    def test_strictly_increasing_on_grid(self, alpha):
        taus = np.linspace(1e-3, np.pi / max(alpha, 1.0) - 1e-3, 100)
        masses = np.array([mass_of_tau(alpha, t) for t in taus])
        assert np.all(np.diff(masses) > 0)

    def test_derivative_positive_fd_oracle(self):
        d = 1e-6
        dm = (mass_of_tau(1.0, 3.0 + d) - mass_of_tau(1.0, 3.0 - d)) / (2 * d)
        assert dm > 0

    def test_sitting_branch(self):
        m = mass_of_tau(SQRT2, 0.5, branch="sitting")
        p = sitting_drop(SQRT2, 0.5)
        assert m == p.mass
        with pytest.raises(ValueError, match="branch"):
            mass_of_tau(1.0, 1.0, branch="bogus")


class TestMassSlope:
    """The dM/dtau that the Newton inversion steps on, from the contact curvature."""

    @pytest.mark.parametrize("branch,alpha", [
        ("hanging", 0.5), ("hanging", 1.0), ("hanging", SQRT2), ("hanging", 2.0),
        ("hanging", 3.0), ("sitting", SQRT2), ("sitting", 2.0), ("sitting", 3.0),
    ])
    def test_matches_central_differences(self, branch, alpha):
        top = np.pi / max(alpha, 1.0) if branch == "hanging" else np.pi
        d = 1e-5
        for tau in top * np.array([0.2, 0.4, 0.6, 0.8]):
            fd = (mass_of_tau(alpha, tau + d, branch)
                  - mass_of_tau(alpha, tau - d, branch)) / (2.0 * d)
            assert _slope(branch, alpha, tau) == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("branch,alpha", [
        *(("hanging", a) for a in (0.2, 0.5, 1.0, SQRT2, 2.0, 3.0, 4.5, 5.0)),
        *(("sitting", a) for a in (1.2, SQRT2, 1.7, 2.5, 3.3, 4.6)),
    ])
    def test_contact_identity_matches_the_a_prime_form(self, branch, alpha):
        # 2 u''(h) (1 - z cot z)/alpha^2 against the oracle's A'(h) form on
        # 4001 contact points, leaving out small drops (the series serves
        # them) and resonant points.  Sitting alphas are not integers: there
        # h -> pi is a removable 0/0 of A, where both forms lose digits alike
        # (3.5e-7 apart at alpha = 2).  The worst gap, 6.3e-12 at alpha = 2.5,
        # lies next to a zero of dM/dtau, where u'' = -5.6e-6 cancels lam = 0.37.
        top = np.pi / max(alpha, 1.0) if branch == "hanging" else np.pi
        for tau in np.linspace(1e-6, top - 1e-6, 4001):
            h = steady._centre(branch, float(tau))[0]
            if h * max(alpha, 1.0) < steady._SMALL_DROP or abs(np.sin(alpha * h)) < 1e-6:
                continue
            want = mass_slope(branch, alpha, float(tau))
            assert abs(_slope(branch, alpha, float(tau)) - want) <= 1e-11 * abs(want)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(alpha=strategies.floats(0.2, 5.0), frac=strategies.floats(0.0, 1.0 - 1e-9))
    def test_hanging_mass_map_is_monotone(self, alpha, frac):
        # beyond the small drops the contact curvature is positive, and with
        # 0 < alpha h < pi so is 1 - z cot z: M rises with the contact point
        lo, hi = steady._SMALL_DROP / max(alpha, 1.0), np.pi / max(alpha, 1.0)
        tau = lo + frac * (hi - lo)
        _, curvature = steady._contact("hanging", alpha, tau)
        assert curvature > 0.0
        assert steady._mass_slope("hanging", alpha, tau, curvature) > 0.0


class TestTauFromMass:
    def test_large_mass_pushes_tau_to_pi(self):
        assert tau_from_mass(1.0, 1e4) > 3.1

    def test_film_boundary_for_alpha_half(self):
        M_boundary = TWO_PI / 0.75
        tau = tau_from_mass(0.5, M_boundary - 1e-9)
        assert abs(tau - np.pi) < 1e-2

    def test_round_trips(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            alpha = rng.choice([0.5, 1.0, SQRT2, 2.0])
            hi = np.pi / max(alpha, 1.0) - 1e-3
            M = mass_of_tau(alpha, rng.uniform(0.3, hi))
            back = mass_of_tau(alpha, tau_from_mass(alpha, M))
            assert abs(back - M) <= 1e-10 * (1.0 + M)

    @staticmethod
    def _counted_inversion(monkeypatch, alpha, M):
        """tau_from_mass(alpha, M) and its number of mass evaluations: the
        upper bracket end plus the Newton iterates."""
        real = steady._drop_coefficients
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(steady, "_drop_coefficients", counted)
        return tau_from_mass(alpha, M), len(calls)

    @pytest.mark.parametrize("M", [1.0, 6.0, 12.0])
    def test_newton_evaluation_count(self, monkeypatch, M):
        tau, calls = self._counted_inversion(monkeypatch, SQRT2, M)
        assert calls <= 12
        assert abs(mass_of_tau(SQRT2, tau) - M) <= 2e-13 * (1.0 + M)

    @pytest.mark.parametrize("M", [1e-55, 1e-40, 1e-12, 1.0])
    def test_small_mass_evaluation_count(self, monkeypatch, M):
        # tiny drops take Newton steps on the small-drop slope, not bisections
        tau, calls = self._counted_inversion(monkeypatch, 1.0, M)
        assert calls <= 20
        assert abs(mass_of_tau(1.0, tau) - M) <= 2e-13 * M

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(alpha=strategies.floats(0.3, 3.0), log_m=strategies.floats(-15.0, 3.0))
    def test_round_trip_property(self, alpha, log_m):
        M = 10.0 ** log_m
        assume(not steady._film_branch(alpha, M))
        tau = tau_from_mass(alpha, M)
        # one ulp of tau: near the pole of M(tau) at alpha ~ 3 and M beyond
        # about 30 it moves M by more than 2e-13 M
        ulp = abs(_slope("hanging", alpha, tau)) * np.spacing(tau)
        assert abs(mass_of_tau(alpha, tau) - M) <= 2e-13 * M + ulp

    def test_film_branch_rejected(self):
        with pytest.raises(ValueError, match="film"):
            tau_from_mass(0.5, 20.0)

    def test_unreachable_mass(self):
        with pytest.raises(ValueError, match="range"):
            tau_from_mass(1.0, 1e15)  # beyond the bracketed branch
        with pytest.raises(ValueError, match="positive"):
            tau_from_mass(1.0, -1.0)


class TestAlphaRange:
    """Droplet states exist only where their closed forms were measured to
    hold 1e-12 relative accuracy; elsewhere they are refused."""

    @pytest.mark.parametrize("alpha", [0.2, 5.0])
    def test_mass_accurate_at_range_ends(self, alpha):
        top = np.pi / max(alpha, 1.0)
        for tau in np.linspace(1e-3, 0.999 * top, 40):
            want = _mp_mass("hanging", alpha, tau)
            assert abs(mass_of_tau(alpha, tau) - want) <= 1e-12 * want

    @pytest.mark.parametrize("alpha", [0.15, 6.0])
    def test_refused_just_outside(self, alpha):
        for call in (lambda: hanging_drop(alpha, 0.1), lambda: tau_from_mass(alpha, 1.0),
                     lambda: minimizer(alpha, 1.0), lambda: massmap_table(alpha)):
            with pytest.raises(ValueError, match="alpha"):
                call()

    def test_film_needs_no_drop_closed_form(self):
        st = minimizer(1e-100, 7.0)  # M (1 - alpha^2) >= 2 pi: a smooth film
        assert st.kind == "smooth_film" and st.mass == 7.0

    @pytest.mark.parametrize("alpha,accepted", [
        ("1e-4", False), ("1e-100", False), ("1e-150", False), ("1e-155", False),
        ("1e-200", False), ("0.2", True), ("5", True), ("100", False), ("1e308", False),
    ])
    def test_steady_command(self, tmp_path, capsys, alpha, accepted):
        # every finite alpha > 0 gives an accurate drop or a one-line refusal
        out_csv = tmp_path / "st.csv"
        code = main(["steady", "--alpha", alpha, "--mass", "1", "--out", str(out_csv)])
        out, err = capsys.readouterr()
        if accepted:
            assert code == 0
            tau = float(out.split("tau=")[1].split()[0])
            assert abs(_mp_mass("hanging", float(alpha), tau) - 1.0) <= 1e-12
        else:
            assert code == 1
            assert err.startswith("thinfilm: error: droplet states need 0.2 <= alpha <= 5")
            assert not out_csv.exists()


class TestMinimizer:
    def test_touchdown_film_at_branch_boundary(self):
        st = minimizer(0.5, TWO_PI / 0.75)
        assert st.kind == "smooth_film"
        assert abs(st.value(np.pi)) <= 1e-13
        assert abs(st.value(-np.pi)) <= 1e-13

    def test_alpha_one_always_hanging(self):
        assert minimizer(1.0, TWO_PI).kind == "hanging_drop"
        assert minimizer(1.0, 50.0).kind == "hanging_drop"

    def test_alpha_above_one_always_hanging(self):
        assert minimizer(2.0, 30.0).kind == "hanging_drop"

    @pytest.mark.parametrize("alpha", [1.0 - 1e-8, 1.0 - 3e-9])
    def test_alpha_next_to_one(self, alpha):
        st = minimizer(alpha, 3.0)
        assert st.kind == "hanging_drop"
        assert abs(st.mass - 3.0) <= 2e-13 * (1.0 + 3.0)

    @pytest.mark.parametrize("M", [1.0, 1e6])
    def test_no_smooth_film_at_alpha_one(self, M):
        with pytest.raises(ValueError):
            smooth_film(1.0, M)

    def test_strictly_positive_film(self):
        st = minimizer(0.5, 20.0)
        assert st.kind == "smooth_film"
        xs = np.linspace(-np.pi, np.pi, 1001)
        assert st.value(xs).min() > 0

    def test_pointwise_monotone_in_mass(self):
        for alpha, masses in ((1.0, (1.0, 3.0, 8.0)), (0.5, (2.0, 5.0, 9.0))):
            states = [minimizer(alpha, M) for M in masses]
            xs = np.linspace(-np.pi, np.pi, 4001)
            for lo, hi in zip(states, states[1:]):
                support = lo.value(xs) > 0
                assert np.all(hi.value(xs)[support] > lo.value(xs)[support])

    def test_variational_inequality_on_dry_set(self):
        # lambda >= max cos over the dry set, i.e. lambda >= cos(tau)
        for alpha, M in ((1.0, 2.0), (1.0, TWO_PI), (SQRT2, 5.0)):
            st = minimizer(alpha, M)
            assert st.lam >= np.cos(st.tau)

    def test_branch_continuity(self):
        M_boundary = TWO_PI / 0.75
        tau = tau_from_mass(0.5, M_boundary - 1e-7)
        drop = hanging_drop(0.5, tau)
        film = smooth_film(0.5, M_boundary)
        xs = np.linspace(-np.pi, np.pi, 20001)
        assert np.abs(drop.value(xs) - film.value(xs)).max() <= 1e-6


class TestCatalog:
    @pytest.mark.parametrize("M", [1.0, TWO_PI, 10.0])
    def test_alpha_one_unique(self, M):
        assert len(catalog(1.0, M, steady._sitting_sample(1.0))) == 1

    def test_alpha_sqrt2_large_mass(self):
        states = catalog(SQRT2, 10.0, steady._sitting_sample(SQRT2))
        assert len(states) >= 2
        e_min = [s.energy for s in states if s.is_minimizer][0]
        for s in states:
            if not s.is_minimizer:
                assert s.energy > e_min

    def test_alpha_sqrt2_small_mass(self):
        states = catalog(SQRT2, 1.0, steady._sitting_sample(SQRT2))
        assert len(states) == 1
        assert states[0].kind == "hanging_drop"

    def test_sitting_samples_checked_once(self, monkeypatch, tmp_path):
        # a whole catalog sweep builds one sample of the sitting branch
        real_sample = steady._sitting_sample

        def sample(a):
            built.append(a)
            return real_sample(a)

        monkeypatch.setattr(steady, "_sitting_sample", sample)
        for alpha in (SQRT2, 3.0):
            built = []
            sweep = cmd_catalog(alpha, 1.0, 12.0, tmp_path / "catalog.csv", num=45)
            assert len(sweep) == 45 and built == [alpha]

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_shared_sample_is_order_independent(self, alpha):
        # the sitting branch is non-monotone in tau at these alphas; with one
        # sample passed through masses in any order, every catalog equals
        # the one built from a fresh sample
        masses = list(np.linspace(0.5, 20.0, 14))
        fresh = {M: catalog(alpha, M, steady._sitting_sample(alpha)) for M in masses}
        order = np.random.default_rng(7).permutation(len(masses))
        for seq in (masses, masses[::-1], [masses[i] for i in order]):
            sample = steady._sitting_sample(alpha)
            for M in seq:
                assert catalog(alpha, M, sample) == fresh[M]

    def test_alpha_below_one_film_only(self):
        states = catalog(0.5, 10.0, steady._sitting_sample(0.5))
        assert len(states) == 1
        assert states[0].kind == "smooth_film"

    def test_mass_consistency(self):
        for st in catalog(SQRT2, 8.0, steady._sitting_sample(SQRT2)):
            assert sum(c.mass for c in st.components) == pytest.approx(st.mass, abs=1e-10)
            assert st.mass == pytest.approx(8.0, abs=1e-8)

    def test_two_droplet_direct_construction(self):
        # the continuum of two-droplet states is reachable only for very
        # lopsided mass splits, so build one directly from its components
        hang = hanging_drop(SQRT2, 0.3)
        sit = sitting_drop(SQRT2, 0.5)
        assert hang.tau < sit.tau  # disjoint supports
        state = steady._make_state("two_droplet", (hang, sit))
        assert state.mass == pytest.approx(hang.mass + sit.mass, rel=1e-14)
        g = make_grid(2048)
        u = evaluate(state, g)
        assert u.values.min() >= -1e-13
        d = dissipation(u, Params(3.0, SQRT2, eps=0.0), 1e-7 * u.values.max())
        assert d <= 1e-6
        assert el_residual(state, g) <= 1e-10


# (kind, tau1, tau2, energy) of every entry, recorded from the quadrature-based
# implementation, which inverted the mass map by bisection (alpha = 4.5 from
# the sampled nonnegativity check, before the contact curvature replaced it);
# for alpha >= 1.7 the sitting branch is non-monotone in tau, and at alpha = 3
# and 4.5 its nonnegative part is two separate runs (the sitting drops at
# alpha = 4.5 come from both)
FROZEN_CATALOGS = {
    (SQRT2, 10.0): [
        ("hanging_drop", 2.0826273868523124, None, -29.82474982913673),
        ("sitting_drop", None, 0.6551883387973181, -15.581201556903164),
        ("smooth_film", None, None, -14.344697982394644),
    ],
    (2.0, 12.0): [
        ("hanging_drop", 1.550108867745537, None, -101.87954037599775),
        ("sitting_drop", None, 1.5476694924332293, -81.50932976948802),
        ("smooth_film", None, None, -45.313024834867555),
        ("two_droplet", 1.4242250641891008, 1.5449232027149158, -67.0612351437416),
        ("two_droplet", 1.4840605446817827, 1.5414353794769466, -56.26643723363004),
        ("two_droplet", 1.508934774769795, 1.5368579258699975, -49.137373963589496),
        ("two_droplet", 1.5226681943003073, 1.53058352346142, -45.674898930089256),
    ],
    (3.0, 12.0): [
        ("hanging_drop", 1.0451155724034233, None, -320.563047644041),
        ("sitting_drop", None, 1.0428351985784436, -149.06970370094655),
        ("smooth_film", None, None, -102.93605358269882),
        ("two_droplet", 1.0277817482942726, 1.0423293318304547, -124.44696489082605),
        ("two_droplet", 1.0371158871326216, 1.0416907308496048, -109.1048187988487),
        ("two_droplet", 1.0403875411780104, 1.0408592513233734, -103.04456610584299),
    ],
    (4.5, 0.2): [
        ("hanging_drop", 0.687354894161763, None, -0.4838567190389561),
        ("sitting_drop", None, 1.684504389573714, 0.006521556740200232),
        ("two_droplet", 0.6259889583380122, 1.6708382093765164, -0.003108277235837946),
        ("two_droplet", 0.6544391163554558, 1.6481264956939432, -0.021392813429804848),
        ("two_droplet", 0.6666095005032667, 1.5980520624236143, -0.04838956580306791),
        ("two_droplet", 0.6734376623147622, 2.421611108543245, -0.1122674252861655),
        ("two_droplet", 0.6778219597132236, 2.416441958697577, -0.14521196044480855),
        ("two_droplet", 0.6808792565549665, 2.4080131527625492, -0.18975958462459683),
        ("two_droplet", 0.68313427139226, 2.391646781393097, -0.24591211796612128),
        ("two_droplet", 0.6848667799348731, 2.342678114043499, -0.3136773389684254),
    ],
}


class TestNonnegativityCheck:
    @pytest.mark.parametrize("branch,alpha,tau", [
        ("hanging", 0.5, 2.0), ("hanging", SQRT2, 1.3), ("sitting", 2.0, 1.2),
        ("sitting", 3.0, 0.9)])
    def test_raw_is_the_slope_pair_formula(self, branch, alpha, tau):
        # _raw, with the stored offset, is the formula of (u0, u0') bit for bit
        p = hanging_drop(alpha, tau) if branch == "hanging" else sitting_drop(alpha, tau)
        h = steady._centre(branch, tau)[0]
        y = np.linspace(-1.2 * h, 1.2 * h, 1001)
        assert np.array_equal(p._raw(y), drop_height(p, y))

    @pytest.mark.parametrize("npts", [513, 4097])
    @pytest.mark.parametrize("alpha", [SQRT2, 2.0, 3.0])
    def test_half_support_agrees_with_the_whole(self, alpha, npts):
        # a drop is even in y, so _raw on the npts // 2 + 1 points of [0, h]
        # gives the verdict of the whole-support oracle; every drop the
        # sitting sample keeps (contact curvature >= 0) passes it
        def half_support(p):
            h = steady._centre(p.branch, p.tau)[0]
            return bool(p._raw(np.linspace(0.0, h, npts // 2 + 1)).min() >= -1e-12)

        taus, masses = steady._sitting_sample(alpha)
        taus, masses = taus[::10], masses[::10]
        keep = np.abs(np.sin(alpha * (np.pi - taus))) >= 1e-8
        verdicts = set()
        for tau, M in zip(taus[keep], masses[keep]):
            p = sitting_drop(alpha, tau)
            verdict = half_support(p)
            assert verdict == profile_nonnegative(p, npts)
            assert verdict or np.isnan(M)
            verdicts.add(verdict)
        assert verdicts == {True, False}
        for frac in (0.1, 0.5, 0.95):
            p = hanging_drop(alpha, frac * np.pi / alpha)
            assert half_support(p) == profile_nonnegative(p, npts)

    @pytest.mark.parametrize("alpha", [SQRT2, 2.0, 3.0, 5.0])
    def test_contact_curvature_decides_nonnegativity(self, alpha):
        # a census of every non-resonant sample drop against the sampled
        # full-support oracle: a drop with contact curvature >= 0 is
        # nonnegative, so a disagreement is a drop of negative curvature
        # whose dip below zero falls between the oracle's points
        taus, masses = steady._sitting_sample(alpha)
        _, curvature = steady._contact("sitting", alpha, taus)
        assert np.array_equal(np.isnan(masses), ~(curvature >= 0.0))
        keep = np.abs(np.sin(alpha * (np.pi - taus))) >= 1e-8
        verdicts = np.array([profile_nonnegative(sitting_drop(alpha, t)) for t in taus[keep]])
        flat = curvature[keep] >= 0.0
        assert np.all(verdicts[flat])
        assert np.all(curvature[keep][verdicts != flat] < 0.0)
        assert (verdicts != flat).mean() < 0.01
        assert flat.any() and not verdicts.all()

    @pytest.mark.parametrize("alpha,tau", [(SQRT2, 0.3), (SQRT2, 1.5), (3.0, 0.9),
                                           (3.0, 2.0), (5.0, 2.5)])
    def test_contact_curvature_is_the_profiles(self, alpha, tau):
        # lam + cos(pi - tau) is the one-sided u'' of the closed-form profile
        curvature = steady._contact("sitting", alpha, tau)[1]
        assert type(curvature) is float
        assert curvature == pytest.approx(contact_curvature(sitting_drop(alpha, tau)),
                                          rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("alpha", [SQRT2, 3.0, 5.0])
    def test_root_curvature_comes_from_the_inversion(self, monkeypatch, alpha):
        # the sitting lookup reads its root's curvature off _invert_mass, so
        # no contact point is evaluated twice, and that curvature is the root's
        sample = steady._sitting_sample(alpha)
        finite = sample[1][np.isfinite(sample[1])]
        real = steady._contact
        seen = []

        def contact(branch, a, tau):
            seen.append(tau)
            return real(branch, a, tau)

        monkeypatch.setattr(steady, "_contact", contact)
        found = 0
        for M in np.geomspace(1.01 * finite.min(), 0.99 * finite.max(), 9):
            seen.clear()
            tau = steady._sitting_tau_for_mass(alpha, M, sample)
            assert len(seen) == len(set(seen))
            if tau is not None and tau in seen:
                found += 1
                assert real("sitting", alpha, tau)[1] >= 0.0
        assert found >= 5

    @pytest.mark.parametrize("alpha", [SQRT2, 3.0, 5.0])
    def test_no_bracket_spans_a_pole(self, alpha):
        # every bracket the sitting scan can take is a pair of neighbouring
        # finite samples; each pair lies on one side of every resonant contact
        # point, where sin(alpha (pi - tau)) changes sign and M(tau) has a pole
        taus, masses = steady._sitting_sample(alpha)
        pairs = np.flatnonzero(np.isfinite(masses[:-1]) & np.isfinite(masses[1:]))
        sides = np.sign(np.sin(alpha * (np.pi - taus)))
        assert pairs.size and np.all(sides[pairs] == sides[pairs + 1])
        finite = masses[np.isfinite(masses)]
        for M in np.geomspace(1.01 * finite.min(), 0.99 * finite.max(), 7):
            f = masses - M
            brackets = np.flatnonzero(f[:-1] * f[1:] <= 0)
            assert brackets.size and np.all(sides[brackets] == sides[brackets + 1])


def _state_at(alpha, M, kind, tau1, tau2):
    if kind == "smooth_film":
        return steady._make_state(kind, (smooth_film(alpha, M),))
    comps = tuple(make(alpha, tau) for make, tau in ((hanging_drop, tau1), (sitting_drop, tau2))
                  if tau is not None)
    return steady._make_state(kind, comps)


@pytest.mark.parametrize("alpha,M", list(FROZEN_CATALOGS))
def test_frozen_catalog(alpha, M):
    states = catalog(alpha, M, steady._sitting_sample(alpha))
    assert [s.kind for s in states] == [row[0] for row in FROZEN_CATALOGS[alpha, M]]
    for st, (kind, tau1, tau2, e) in zip(states, FROZEN_CATALOGS[alpha, M]):
        taus = [c.tau for c in st.components if c.tau is not None]
        assert taus == pytest.approx([t for t in (tau1, tau2) if t is not None], abs=1e-12)
        assert abs(st.mass - M) <= 2e-13 * (1.0 + M)
        # the recorded taus carry mass residuals of up to 1.2e-11, which move
        # E by lambda dM (6e-10 at alpha = 3), so the energies are checked on
        # states rebuilt at those taus
        assert _state_at(alpha, M, kind, tau1, tau2).energy == pytest.approx(e, abs=1e-11)


class TestCatalogCsv:
    def test_schema_and_round_trip(self, tmp_path):
        # the catalog CSV is the one `thinfilm catalog` writes: one mass here
        path = tmp_path / "catalog.csv"
        [(M, states)] = cmd_catalog(SQRT2, 10.0, 10.0, path, num=1)
        assert M == 10.0
        lines = path.read_text().splitlines()
        assert lines[0] == "M,kind,tau1,tau2,mass1,mass2,lambda1,lambda2,energy,is_minimizer"
        assert len(lines) == len(states) + 1
        first = lines[1].split(",")
        assert first[:2] == ["10", "hanging_drop"]
        assert float(first[2]) == states[0].tau  # 17 digits round-trip
        assert float(first[8]) == states[0].energy
        assert first[9] == "1"


class TestElResidual:
    def test_profiles_satisfy_equation(self):
        g = make_grid(1024)
        for alpha, M in ((0.5, 1.0), (1.0, TWO_PI), (SQRT2, 10.0)):
            st = minimizer(alpha, M)
            assert el_residual(st, g) <= 1e-10

    def test_film_multiplier(self):
        st = minimizer(0.5, 20.0)
        assert st.lam == pytest.approx(0.25 * 20.0 / TWO_PI, rel=1e-14)
        assert el_residual(st, make_grid(1024)) <= 1e-10

    def test_perturbed_coefficient_detected(self):
        prof = hanging_drop(1.0, 2.0)
        # breaks the EL equation: the offset moves with A, as zero height needs
        bad = replace(prof, A=prof.A + 0.01, offset=prof.offset + 0.01 * np.cos(2.0))
        state = steady.SteadyState("hanging_drop", (bad,), 1.0, bad.mass, 0.0)
        assert el_residual(state, make_grid(1024)) > 1e-3


class TestEnergyOrdering:
    def test_minimizer_energy_decreases_with_mass_alpha_one(self):
        masses = np.linspace(1.0, 12.0, 12)
        energies = [minimizer(1.0, M).energy for M in masses]
        assert np.all(np.diff(energies) < 0)

    def test_profile_energy_matches_field_energy(self):
        # quadrature on the support against the spectral field energy
        g = make_grid(4096)
        for alpha, M in ((1.0, TWO_PI), (0.5, 20.0)):
            st = minimizer(alpha, M)
            e_field = energy(evaluate(st, g), alpha)
            assert st.energy == pytest.approx(e_field, abs=5e-7)


def _python(code: str, first: str = "") -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this package, with the
    directory first, if given, ahead of it on the module search path."""
    src = os.path.dirname(os.path.dirname(thinfilm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (first, src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_leaves_out_optimize_integrate_and_sparse():
    # each of these adds to interpreter start-up time and memory; no command
    # needs one.  evolution loads gbsv from scipy.linalg._flapack alone, so the
    # scipy package init, the scipy.linalg package, its array-API layer and
    # what that layer pulls in from NumPy stay out too.
    unused = ("scipy", "scipy.linalg", "scipy._lib._array_api", "numpy.f2py",
              "numpy.testing", "numpy.ma")
    code = ("import sys, thinfilm.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'integrate'], "
            f"['scipy', 'sparse']) or m in {unused!r})); "
            "import scipy.linalg, thinfilm.evolution; "
            "print(thinfilm.evolution.dgbsv is scipy.linalg.lapack.dgbsv)")
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[]", "True"]


def test_steady_modules_load_neither_scipy_nor_the_integrator():
    # the package root re-exports nothing, so the steady-state modules
    # import without scipy and without thinfilm.evolution
    run = _python("import sys, thinfilm, thinfilm.grid, thinfilm.functionals, thinfilm.steady; "
                  "print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy' or m == 'thinfilm.evolution'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[]"]


def test_lapack_extension_that_needs_the_scipy_init_loads_after_it(tmp_path):
    # a scipy package whose extension loads only once the package init has
    # run, as on builds that set up their library paths there
    linalg = tmp_path / "scipy" / "linalg"
    linalg.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    (linalg / "_flapack.py").write_text(
        "import sys\n"
        "if 'scipy' not in sys.modules:\n"
        "    raise ImportError('DLL load failed')\n"
        "dgbsv = 'loaded after the scipy init'\n")
    run = _python("import thinfilm.evolution as e; print(e.dgbsv)", first=str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "loaded after the scipy init"


def test_missing_lapack_extension_names_the_directory_searched(tmp_path):
    # a scipy package without the extension, found ahead of the real one
    elsewhere = tmp_path / "scipy"
    elsewhere.mkdir()
    (elsewhere / "__init__.py").write_text("")
    run = _python("import thinfilm.evolution", first=str(tmp_path))
    assert run.returncode == 1
    assert (f"ImportError: no scipy.linalg._flapack extension in "
            f"{os.path.join(elsewhere, 'linalg')}") in run.stderr
