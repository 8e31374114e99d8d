"""Droplet profiles, the mass/contact-point bijection, minimizers, catalog."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies
from scipy.integrate import quad

import thinfilm
from thinfilm import steady
from thinfilm.experiments import cmd_catalog
from thinfilm.functionals import Params, dissipation, energy
from thinfilm.grid import Field, make_grid
from thinfilm.steady import (
    catalog,
    el_residual,
    evaluate,
    hanging_drop,
    mass_of_tau,
    minimizer,
    particular_solution,
    sitting_drop,
    smooth_film,
    symmetry_roots_check,
    tau_from_mass,
)

TWO_PI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)


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
            assert [type(v) for v in steady._drop_coefficients(branch, SQRT2, tau)] == [float] * 3
            assert type(mass_of_tau(SQRT2, tau, branch)) is float
        for drop in (hanging_drop(SQRT2, tau), sitting_drop(SQRT2, tau)):
            assert [type(v) for v in (drop.A, drop.lam, drop.mass, drop.offset)] == [float] * 4

    @pytest.mark.parametrize("alpha", [0.5, 1.0, SQRT2, 3.0])
    def test_scalar_and_array_paths_agree(self, alpha):
        # from tau = 0.1 up: below it the small-drop cancellation of M
        # amplifies single-ulp differences
        def agree(fn, taus):
            array = np.array(fn(taus))
            scalar = np.array([fn(float(t)) for t in taus]).T
            for a, s in zip(array, scalar):
                # relative; to the largest size where the quantity changes sign
                ref = np.abs(a).max() if a.min() < 0.0 < a.max() else np.abs(a)
                assert np.all(np.abs(s - a) <= 1e-14 * ref)

        hanging = np.linspace(0.1, np.pi / max(alpha, 1.0) - 1e-3, 101)
        agree(lambda x: particular_solution(alpha, x), hanging)
        agree(lambda t: steady._drop_coefficients("hanging", alpha, t), hanging)
        masses = steady._drop_coefficients("hanging", alpha, hanging)[2]
        scalar = np.array([mass_of_tau(alpha, float(t)) for t in hanging])
        assert np.all(np.abs(scalar - masses) <= 1e-14 * masses)
        if alpha > 1.0:
            sitting = np.linspace(0.1, np.pi - 0.1, 101)
            sitting = sitting[~steady._resonant(alpha, sitting)]
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
            assert abs(p.slope(s * (tau - 1e-16))) <= 1e-12

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
        oracle, err = quad(lambda x: p._raw(np.asarray(x), 0), -2.0, 2.0,
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
            assert p.contact_curvature() > 0
            assert p.lam > np.cos(tau)


class TestSittingDrop:
    def test_contact_conditions(self):
        p = sitting_drop(SQRT2, 1.0)
        assert abs(p.value(p.tau)) <= 1e-12
        assert abs(p.slope(p.tau + 1e-15)) <= 1e-12
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
        a, b = p.support_interval()

        def density(x):
            u, ux = p.value(x), p.slope(x)
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
                             steady._mass_slope("hanging", alpha, tau)])

        mid = quantities(1.0)
        second = quantities(1.0 - d) - 2.0 * mid + quantities(1.0 + d)
        assert np.all(np.abs(second) <= (1e-12 + 1e4 * d * d) * (1.0 + np.abs(mid)))


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
    """The closed-form dM/dtau that the Newton inversion steps on."""

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
            assert steady._mass_slope(branch, alpha, tau) == pytest.approx(fd, rel=1e-7)


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

    @pytest.mark.parametrize("M", [1.0, 6.0, 12.0])
    def test_newton_evaluation_count(self, monkeypatch, M):
        # the two bracket ends plus the Newton iterates
        real = steady.mass_of_tau
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(steady, "mass_of_tau", counted)
        tau = tau_from_mass(SQRT2, M)
        assert len(calls) <= 12
        assert abs(real(SQRT2, tau) - M) <= 2e-13 * (1.0 + M)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(alpha=strategies.floats(0.3, 3.0), log_m=strategies.floats(-3.0, 3.0))
    def test_round_trip_property(self, alpha, log_m):
        M = 10.0 ** log_m
        assume(not steady._film_branch(alpha, M))
        tau = tau_from_mass(alpha, M)
        # one ulp of tau: near the pole of M(tau) at alpha ~ 3 and M beyond
        # about 30 it moves M by more than 2e-13 (1 + M)
        ulp = abs(steady._mass_slope("hanging", alpha, tau)) * np.spacing(tau)
        assert abs(mass_of_tau(alpha, tau) - M) <= 2e-13 * (1.0 + M) + ulp

    def test_film_branch_rejected(self):
        with pytest.raises(ValueError, match="film"):
            tau_from_mass(0.5, 20.0)

    def test_unreachable_mass(self):
        with pytest.raises(ValueError, match="range"):
            tau_from_mass(1.0, 1e15)  # beyond the bracketed branch
        with pytest.raises(ValueError, match="positive"):
            tau_from_mass(1.0, -1.0)


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
        assert len(catalog(1.0, M)) == 1

    def test_alpha_sqrt2_large_mass(self):
        states = catalog(SQRT2, 10.0)
        assert len(states) >= 2
        e_min = [s.energy for s in states if s.is_minimizer][0]
        for s in states:
            if not s.is_minimizer:
                assert s.energy > e_min

    def test_alpha_sqrt2_small_mass(self):
        states = catalog(SQRT2, 1.0)
        assert len(states) == 1
        assert states[0].kind == "hanging_drop"

    def test_sitting_samples_checked_once(self, monkeypatch):
        # one catalog() call checks the nonnegativity of each sample drop
        # of the sitting branch at most once
        real = steady._profile_nonnegative
        checked = []

        def recorded(prof, npts=4097):
            if npts == 513:
                checked.append(prof.tau)
            return real(prof, npts)

        monkeypatch.setattr(steady, "_profile_nonnegative", recorded)
        assert len(catalog(SQRT2, 10.0)) == 3
        assert checked and len(checked) == len(set(checked))

    def test_alpha_below_one_film_only(self):
        states = catalog(0.5, 10.0)
        assert len(states) == 1
        assert states[0].kind == "smooth_film"

    def test_mass_consistency(self):
        for st in catalog(SQRT2, 8.0):
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
# implementation, which inverted the mass map by bisection; for alpha >= 1.7
# the sitting branch is non-monotone in tau, and at alpha = 3 its nonnegative
# part is two separate runs
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
}


def _state_at(alpha, M, kind, tau1, tau2):
    if kind == "smooth_film":
        return steady._make_state(kind, (smooth_film(alpha, M),))
    comps = tuple(make(alpha, tau) for make, tau in ((hanging_drop, tau1), (sitting_drop, tau2))
                  if tau is not None)
    return steady._make_state(kind, comps)


@pytest.mark.parametrize("alpha,M", list(FROZEN_CATALOGS))
def test_frozen_catalog(alpha, M):
    states = catalog(alpha, M)
    assert [s.kind for s in states] == [row[0] for row in FROZEN_CATALOGS[alpha, M]]
    for st, (kind, tau1, tau2, e) in zip(states, FROZEN_CATALOGS[alpha, M]):
        taus = [c.tau for c in st.components if c.tau is not None]
        assert taus == pytest.approx([t for t in (tau1, tau2) if t is not None], abs=1e-12)
        assert abs(st.mass - M) <= 2e-13 * (1.0 + M)
        # the recorded taus carry mass residuals of up to 1.2e-11, which move
        # E by lambda dM (6e-10 at alpha = 3), so the energies are checked on
        # states rebuilt at those taus
        assert _state_at(alpha, M, kind, tau1, tau2).energy == pytest.approx(e, abs=1e-11)


class TestNonSymmetricFilms:
    def test_integer_alpha_family_solves_equation(self):
        # u = M/2pi - cos x/(k^2-1) + A cos kx + B sin kx stays a steady
        # profile for integer alpha = k > 1 and small (A, B)
        film = smooth_film(2.0, 12.0, A=0.05, B=-0.03)
        state = steady.SteadyState("smooth_film", (film,), 2.0, 12.0, 0.0)
        assert el_residual(state, make_grid(1024)) <= 1e-10

    def test_guards(self):
        with pytest.raises(ValueError, match="integer"):
            smooth_film(SQRT2, 12.0, A=0.05)
        with pytest.raises(ValueError, match="2pi"):
            smooth_film(2.0, 1.0, A=0.05)
        with pytest.raises(ValueError, match="nonnegative"):
            smooth_film(2.0, 12.0, A=5.0)

    def test_excluded_from_catalog(self):
        for st in catalog(2.0, 12.0):
            for comp in st.components:
                if isinstance(comp, steady.FilmProfile):
                    assert comp.A == 0.0 and comp.B == 0.0


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
        bad = replace(prof, A=prof.A + 0.01)  # breaks the EL equation
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


def test_import_leaves_out_optimize_integrate_and_sparse():
    # each of these adds to interpreter start-up time and memory; the package needs none
    src = os.path.dirname(os.path.dirname(thinfilm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, thinfilm; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'integrate'], "
            "['scipy', 'sparse'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
