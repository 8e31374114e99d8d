"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The two long trajectories (the t = 1000 uniform-film run
and the exponential-decay run) are shared module fixtures; everything else
is seconds.
"""

import dataclasses

import numpy as np
import pytest

from thinfilm import evolution, steady
from thinfilm.evolution import SchemeConfig, run
from thinfilm.experiments import rates_powerlaw, record_meta, saddle_onset
from thinfilm.functionals import Params, diagnostics_sample, dissipation, energy
from thinfilm.grid import Field, constant_field, distances, integrate, make_grid

from oracles import (
    coercivity_bound,
    contact_curvature,
    discrete_film,
    el_residual,
    energy_fourier,
    linf_distance,
    of_field,
    profile_slope,
)
from test_grid import random_smooth_field

TWO_PI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)
PAPER_TIMES = (0.0, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)
# error of the logged dLinf of the backward-Euler schedule (dt_max = 0.5, a
# doubling every 5 accepts) that BDF2 replaced, at PAPER_TIMES[1:], measured
# against a BDF2 run with a 16 times finer schedule
BE_DLINF_ERROR = (1.0e-5, 1.5e-4, 1.7e-2, 7.1e-3, 2.6e-4, 1.9e-5)


def report(num, description, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


# ---------------------------------------------------------------------------
# shared trajectories

@pytest.fixture(scope="module")
def fig6_record():
    """alpha=1, n=3, u0=1, N=256, t_end=1e3 with the paper's seven log times,
    on the default step schedule (what `thinfilm evolve` runs)."""
    g = make_grid(256)
    params = Params(n=3.0, alpha=1.0, eps=1e-8)
    cfg = SchemeConfig(dt0=1e-5, t_end=1e3, log_times=PAPER_TIMES)
    return run(constant_field(g, 1.0), params, cfg)


@pytest.fixture(scope="module")
def decay_record():
    """alpha=0.5, M=20, u0 = M/(2pi): exponential approach to the positive
    film, and the sampled states (k, N), one row per diagnostics row.

    The run extends a little past the time the energy gap reaches 1e-10;
    the criterion-8 trajectory is the part up to that crossing.
    """
    g = make_grid(1024)
    M = 20.0
    params = Params(n=3.0, alpha=0.5, eps=0.0)
    cfg = SchemeConfig(dt0=1e-4, dt_min=1e-14, dt_max=0.02, t_end=0.8)
    states = []

    def kept(ts, U, *args):
        states.append(U.copy())
        return diagnostics_sample(ts, U, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "diagnostics_sample", kept)
        rec = run(constant_field(g, M / TWO_PI), params, cfg)
    return rec, np.concatenate(states)


@pytest.fixture(scope="module")
def film_run_10():
    """alpha=1, n=3, u0=1, N=256, t_end=10 for the conservation criteria."""
    g = make_grid(256)
    params = Params(n=3.0, alpha=1.0, eps=1e-8)
    cfg = SchemeConfig(dt0=1e-5, dt_min=1e-14, dt_max=0.01, t_end=10.0)
    return run(constant_field(g, 1.0), params, cfg)


# ---------------------------------------------------------------------------

def test_criterion_01_minimizer_correctness():
    rng = np.random.default_rng(101)
    grid = make_grid(1024)
    xs = np.linspace(-np.pi, np.pi, 4001)
    by_alpha = {0.5: [], 1.0: [], SQRT2: []}
    ok = True
    for k in range(20):
        alpha = (0.5, 1.0, SQRT2)[k % 3]
        M = rng.uniform(0.3, 8.0 if alpha == 0.5 else 30.0)
        state = steady.minimizer(alpha, M)
        prof = state.components[0]
        by_alpha[alpha].append(state)
        ok &= abs(prof.value(prof.tau)) <= 1e-12
        ok &= abs(prof.value(-prof.tau)) <= 1e-12
        ok &= abs(profile_slope(prof, prof.tau - 1e-16)) <= 1e-12
        ok &= abs(profile_slope(prof, -(prof.tau - 1e-16))) <= 1e-12
        ok &= el_residual(state, grid) <= 1e-10
        ok &= prof.lam > np.cos(prof.tau)
        ok &= contact_curvature(prof) > 0
    for states in by_alpha.values():
        states.sort(key=lambda s: s.mass)
        for lo, hi in zip(states, states[1:]):
            support = lo.value(xs) > 0
            ok &= bool(np.all(hi.value(xs)[support] > lo.value(xs)[support]))
    report(1, "minimizer contact/EL/multiplier/monotonicity checks", ok)


def test_criterion_02_energy_cross_oracle():
    g = make_grid(256)
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        u = random_smooth_field(g, rng, max_mode=40)
        alpha = rng.uniform(0.3, 2.0)
        a = of_field(energy, u, alpha)
        b = energy_fourier(u, alpha, integrate(u), three_point=True)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    report(2, f"E_h vs its Fourier-side sum relative gap {worst:.2e} <= 1e-9",
           worst <= 1e-9)


def test_criterion_03_catalog_dissipation():
    g = make_grid(2048)
    worst = 0.0
    for alpha in (0.5, 1.0, SQRT2):
        sample = steady._sitting_sample(alpha)
        for M in (1.0, TWO_PI, 10.0):
            for state in steady.catalog(alpha, M, sample):
                u = steady.evaluate(state, g)
                params = Params(3.0, alpha, eps=0.0)
                U = u.values[None]
                d = dissipation(U, g, params)[0]
                worst = max(worst, d)
    report(3, f"catalog dissipation worst {worst:.2e} <= 1e-6", worst <= 1e-6)


def test_criterion_04_mass_conservation(film_run_10):
    masses = film_run_10.samples["mass"]
    drift = np.abs(masses - masses[0]).max() / masses[0]
    report(4, f"relative mass drift {drift:.2e} <= 1e-11 at every step",
           drift <= 1e-11)


def test_criterion_05_energy_monotone_and_matches_dissipation(film_run_10):
    t, E, D = (film_run_10.samples[name] for name in ("t", "E", "D"))
    monotone = bool(np.all(np.diff(E) <= 1e-10 * (1.0 + np.abs(E[:-1]))))
    drop = E[0] - E[-1]
    integral = float(np.trapezoid(D, t))
    match = abs(drop - integral) <= 0.2 * drop
    report(5, f"E non-increasing; drop {drop:.4f} vs int D dt {integral:.4f}",
           monotone and match)


def test_criterion_06_figure6_reproduction(fig6_record):
    rec = fig6_record
    have_snapshots = set(rec.snapshots) == set(PAPER_TIMES)
    dlinf = []
    t = rec.samples["t"]
    for t_log in PAPER_TIMES:
        i = int(np.argmin(np.abs(t - t_log)))
        dlinf.append(rec.samples["dLinf"][i])
    monotone = bool(np.all(np.diff(dlinf) < 0))
    final_ok = dlinf[-1] <= 0.05
    report(6, f"seven snapshots, dLinf monotone, dLinf(1e3)={dlinf[-1]:.4f} <= 0.05",
           have_snapshots and monotone and final_ok)


def test_criterion_07_power_law_lower_bound(fig6_record):
    rep = rates_powerlaw(fig6_record.samples, record_meta(fig6_record), "")
    ok = rep.violations == 0 and rep.envelope_residual <= 0.10
    report(7, f"rate-bound violations {rep.violations} = 0, "
              f"entropy envelope residual {rep.envelope_residual:.3f} <= 0.10", ok)


def _crossing_index(rec):
    """First sample where the gap E_h - E_h* reaches 1e-10 (criterion-8
    endpoint), E_h* the energy of the scheme's film equilibrium."""
    g = rec.final.grid
    film = discrete_film(g, 0.5, integrate(rec.final))
    gap = rec.samples["E"] - of_field(energy, film, 0.5)
    below = np.nonzero(gap <= 1e-10)[0]
    return (int(below[0]) if below.size else None), gap


def test_criterion_08_exponential_convergence(decay_record):
    rec, _ = decay_record
    mu = (1.0 - 0.25) * rec.reference.value(np.pi) ** 3
    stop, gap = _crossing_index(rec)
    reached = stop is not None
    if reached:
        tt, gg = rec.samples["t"][1:stop + 1], gap[1:stop + 1]
        window = tt >= tt[-1] / 10.0
        slope = np.polyfit(tt[window], np.log(gg[window]), 1)[0]
    else:
        slope = 0.0
    report(8, f"gap reached 1e-10; fitted slope {slope:.2f} <= -1.5 mu = {-1.5 * mu:.2f}",
           reached and slope <= -1.5 * mu)


def test_criterion_09_coercivity_along_trajectory(decay_record):
    """dH1(u, u*_h) <= sqrt(2 (E_h(u) - E_h(u*_h)) / c) at every sample up
    to the criterion-8 crossing, u*_h the scheme's film equilibrium and dH1
    the 3-point seminorm of grid.distances.

    E_h is quadratic and u*_h is its critical point at the run's mass, so
    for delta = u - u*_h of mean zero, with delta_hat(p) its mean-normalized
    coefficients over all N modes,

        E_h(u) - E_h(u*_h) = pi sum_p (lambda_p - alpha^2) |delta_hat(p)|^2,
        dH1^2 = 2 pi sum_p lambda_p |delta_hat(p)|^2,

    lambda_p = (4/h^2) sin^2(p h/2), the symbol of the 3-point second
    difference.  For p != 0, lambda_p >= lambda_1 = sinc^2(h/2), so
    lambda_p - alpha^2 >= (1 - alpha^2/sinc^2(h/2)) lambda_p, and the bound
    holds with c = 1 - alpha^2/sinc^2(h/2) (oracles.coercivity_bound with
    N), the Nyquist mode included.  Mode 1 attains it; c is the continuous
    1 - alpha^2 up to O(h^2).
    """
    rec, states = decay_record
    g = rec.final.grid
    stop, gap = _crossing_index(rec)
    dh1 = distances(states[:stop + 1], discrete_film(g, 0.5, integrate(rec.final)))[0]
    worst = max(d - coercivity_bound(max(e, 0.0), 0.5, g.N) for d, e in zip(dh1, gap))
    report(9, f"max(dH1 - coercivity bound) = {worst:.2e} <= 1e-12", worst <= 1e-12)


def test_criterion_10_spatial_convergence():
    sols = {}
    for N in (128, 256, 512):
        g = make_grid(N)
        u0 = Field(g, 3.0 + np.cos(g.nodes))
        params = Params(3.0, 0.5, eps=0.0)
        cfg = SchemeConfig(dt0=1e-3, dt_min=1e-3, dt_max=1e-3, t_end=1.0,
                           sample_every=1000)
        sols[N] = run(u0, params, cfg).final.values
    d1 = np.sqrt((TWO_PI / 128) * np.sum((sols[128] - sols[256][::2]) ** 2))
    d2 = np.sqrt((TWO_PI / 256) * np.sum((sols[256] - sols[512][::2]) ** 2))
    ratio = d1 / d2
    report(10, f"L2 difference shrink factor {ratio:.2f} >= 3.5 per doubling",
           ratio >= 3.5)


def test_criterion_11_steady_preservation():
    # eps = 0 positive-interior variant: the dry set carries no mobility
    g = make_grid(4096)
    u0 = steady.evaluate(steady.minimizer(1.0, TWO_PI), g)
    params = Params(3.0, 1.0, eps=0.0)
    cfg = SchemeConfig(dt0=1e-3, dt_min=1e-14, dt_max=0.05, t_end=10.0,
                       log_times=tuple(float(k) for k in range(11)), sample_every=10)
    rec = run(u0, params, cfg)
    drift = max(linf_distance(snap, u0) for snap in rec.snapshots.values())
    drift = max(drift, linf_distance(rec.final, u0))
    energies = rec.samples["E"]
    assert np.abs(energies - energies[0]).max() <= 1e-8  # diagnostics stay flat
    report(11, f"sup drift from sampled minimizer {drift:.2e} <= 1e-6 over [0, 10]",
           drift <= 1e-6)


def test_criterion_12_catalog_structure():
    onset = saddle_onset(SQRT2, 1.0, 12.0)
    onset_ok = 0.8 * TWO_PI <= onset <= 1.2 * TWO_PI
    ordering_ok = True
    sample = steady._sitting_sample(SQRT2)
    for M in np.linspace(1.0, 12.0, 23):
        states = steady.catalog(SQRT2, float(M), sample)
        e_min = [s.energy for s in states if s.is_minimizer][0]
        for s in states:
            if not s.is_minimizer:
                ordering_ok &= s.energy > e_min
    report(12, f"saddle onset M*={onset:.3f} in [0.8, 1.2] x 2pi; minimizer lowest",
           onset_ok and ordering_ok)


def logged_dlinf(rec):
    t = rec.samples["t"]
    return np.array([rec.samples["dLinf"][int(np.argmin(np.abs(t - t_log)))]
                     for t_log in PAPER_TIMES[1:]])


def test_criterion_13_time_refinement(fig6_record, monkeypatch):
    # level j divides dt0 and dt_max by 2^j and the local error tolerance by
    # 8^j (a step's error is O(dt^3)): the whole step schedule refined, not
    # just its cap
    base, tol = fig6_record.config, evolution.TOL
    levels = [logged_dlinf(fig6_record)]
    for j in (1, 2):
        monkeypatch.setattr(evolution, "TOL", tol / 8**j)
        cfg = dataclasses.replace(base, dt0=base.dt0 / 2**j, dt_max=base.dt_max / 2**j,
                                  sample_every=10**9)
        levels.append(logged_dlinf(run(constant_field(make_grid(256), 1.0),
                                       fig6_record.params, cfg)))
    d0, d1, d2 = levels
    order = np.log2(np.abs(d0 - d1).max() / np.abs(d1 - d2).max())
    error = np.abs(d0 - d1) * 2**order / (2**order - 1)  # Richardson estimate
    for t, value, err, be in zip(PAPER_TIMES[1:], d0, error, BE_DLINF_ERROR):
        print(f"  t = {t:g}: dLinf = {value:.6f}, estimated error {err:.1e} "
              f"(backward Euler {be:.1e})")
    report(13, f"observed time order {order:.2f} >= 1.7; estimated dLinf error at "
               f"or below backward Euler's at every log time",
           order >= 1.7 and bool(np.all(error <= BE_DLINF_ERROR)))


# ---------------------------------------------------------------------------
# module-level examples that ride on the same big trajectory

def test_fig6_rate_slope_bracket(fig6_record):
    rep = rates_powerlaw(fig6_record.samples, record_meta(fig6_record), "")
    assert -1.0 <= rep.fitted_exponent <= -0.25


def test_fig6_h1_distance_monotone_at_log_times(fig6_record):
    rec = fig6_record
    t = rec.samples["t"]
    dh1 = [rec.samples["dH1"][int(np.argmin(np.abs(t - t_log)))] for t_log in PAPER_TIMES]
    assert np.all(np.diff(dh1) < 0)


def test_fig6_final_state_nearly_symmetric(fig6_record):
    vals = fig6_record.final.values
    mirrored = vals[(-np.arange(vals.size)) % vals.size]
    assert np.abs(vals - mirrored).max() <= 1e-4


def test_fig6_energy_never_rises(fig6_record):
    # no step guards E_h, so the run's record shows that it fell: every
    # sample is a step of fig6's default schedule
    E = fig6_record.samples["E"]
    assert len(E) == fig6_record.steps + 1
    rise = record_meta(fig6_record)["energy_rise_max"]
    assert rise == max(0.0, float(np.diff(E).max()))
    assert rise <= 1e-10 * (1.0 + abs(E[0]))


def test_fig6_entropy_excess_tracks_linear_envelope(fig6_record):
    rec = fig6_record
    t, s_kad = rec.samples["t"], rec.samples["S_kad"]
    assert record_meta(rec)["entropy_excess_max"] == pytest.approx(np.max(s_kad - s_kad[0]),
                                                                   rel=1e-12)
    pos = t > 0
    K0 = np.max((s_kad[pos] - s_kad[0]) / t[pos])
    assert np.all(s_kad[pos] <= s_kad[0] + K0 * t[pos] + 1e-9)
