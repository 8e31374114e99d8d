"""Test oracles: independent evaluations and analytic bounds that the
tests compare the package against.  No command runs them."""

import math
import warnings
from typing import Optional

import numpy as np

from thinfilm.evolution import TrajectoryRecord, _mobility, _next, _prev
from thinfilm.functionals import DIAGNOSTICS_HEADER, DiagnosticsSample, Params, energy
from thinfilm.grid import Field, PeriodicGrid, _check_same_grid, integrate, slope_square_sum
from thinfilm.steady import (
    DropletProfile,
    FilmProfile,
    Profile,
    SteadyState,
    _centre,
    particular_solution,
)


def derivative(u: Field, order: int) -> Field:
    """Discrete Fourier derivative of order 1, 2 or 3.

    Works on the half spectrum of the real field: rfft gives the modes
    p = 0..N/2 (the negative ones are their conjugates), each is multiplied
    by (i p)^order, and irfft returns the real derivative.  The Nyquist
    mode p = N/2 is dropped for odd orders (its odd derivative has no real
    representative on the grid); even orders keep it with the -p^2
    multiplier.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    N = u.grid.N
    mult = (1j * np.arange(N // 2 + 1)) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    return Field(u.grid, np.fft.irfft(mult * np.fft.rfft(u.values), N))


def _fd1(v: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered first derivative (periodic)."""
    N = v.shape[0]
    w = np.concatenate((v[-2:], v, v[:2]))  # w[i + 2] = v[i mod N]
    return (-w[4:N + 4] + 8 * w[3:N + 3] - 8 * w[1:N + 1] + w[0:N]) / (12 * h)


def _fd3(v: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered third derivative (periodic)."""
    N = v.shape[0]
    w = np.concatenate((v[-3:], v, v[:3]))  # w[i + 3] = v[i mod N]
    return (w[0:N] - 8 * w[1:N + 1] + 13 * w[2:N + 2]
            - 13 * w[4:N + 4] + 8 * w[5:N + 5] - w[6:N + 6]) / (8 * h**3)


def dissipation_two_stencil(u: Field, params: Params, delta=None) -> float:
    """dissipation() with u_xxx and alpha^2 u_x from two separate fourth-order
    stencils, summed over the nodes at which u and its neighbours up to two
    nodes away all exceed delta (default 1e-7 max u)."""
    v = u.values
    if delta is None:
        delta = 1e-7 * float(v.max())
    active = np.ones(u.grid.N, dtype=bool)
    for s in range(-2, 3):
        active &= np.roll(v > delta, s)
    h = u.grid.h
    res = _fd3(v, h) + params.alpha**2 * _fd1(v, h) - np.sin(u.grid.nodes)
    return float(h * np.sum(v[active] ** params.n * res[active] ** 2))


def fourier_coeff(u: Field, p: int) -> complex:
    """Mean-normalized Fourier coefficient u_hat(p) = (1/2pi) h sum u_i exp(-i p x_i).

    Only resolved modes |p| < N/2 are allowed (aliasing guard); with this
    normalization u_hat(0) is the mean of u.
    """
    p = int(p)
    if abs(p) >= u.grid.N // 2:
        raise ValueError(f"mode p={p} not resolved on N={u.grid.N} (need |p| < N/2)")
    phase = np.exp(-1j * p * u.grid.nodes)
    return complex(np.dot(u.values, phase) / u.grid.N)


def wavenumbers(N: int) -> np.ndarray:
    """The integer wavenumbers of an N-point grid in FFT mode order, Nyquist at -N/2."""
    return np.rint(np.fft.fftfreq(N, d=1.0 / N)).astype(int)


def spectrum(u: Field) -> np.ndarray:
    """All N mean-normalized coefficients in FFT mode order (see wavenumbers)."""
    k = wavenumbers(u.grid.N)
    sign = np.where(k % 2 == 0, 1.0, -1.0)  # exp(i k pi) for the -pi grid offset
    return sign * np.fft.fft(u.values) / u.grid.N


def energy_fourier(u: Field, alpha: float, M: float) -> float:
    """Independent Fourier-side evaluation of the energy,

        E = pi sum_{p != 0} (p^2 - alpha^2) |u_hat(p)|^2
            - alpha^2 M^2 / (4 pi) - pi (u_hat(1) + u_hat(-1)).

    Requires mass(u) = M within 1e-10.  Serves as the cross-oracle for
    energy(); the two agree to round-off on resolved fields.
    """
    if abs(integrate(u) - M) > 1e-10:
        raise ValueError("mass(u) does not match M within 1e-10")
    coeffs = spectrum(u)
    k = wavenumbers(u.grid.N)
    nonzero = k != 0
    quad = np.pi * np.sum((k[nonzero] ** 2 - alpha**2) * np.abs(coeffs[nonzero]) ** 2)
    linear = np.pi * np.real(coeffs[k == 1][0] + coeffs[k == -1][0])
    return float(quad - alpha**2 * M**2 / (4.0 * np.pi) - linear)


def energy_lower_bound(M: float, alpha: float) -> float:
    """Explicit lower bound for E on nonnegative fields of mass M:
    -alpha^4 pi M^2 / 8 - (1 + alpha^2/(4 pi)) M."""
    return float(-(alpha**4) * np.pi * M**2 / 8.0 - (1.0 + alpha**2 / (4.0 * np.pi)) * M)


def coercivity_bound(delta_e: float, alpha: float) -> float:
    """Distance bound d_H1(u, u*) <= sqrt(2 dE / (1 - alpha^2)), alpha < 1 only."""
    if alpha >= 1:
        raise ValueError("explicit coercivity bound requires alpha < 1")
    if delta_e < 0:
        raise ValueError("energy gap must be nonnegative")
    return float(np.sqrt(2.0 * delta_e / (1.0 - alpha**2)))


def taylor_gap(v: Field, ustar: Field, alpha: float, lam: float) -> float:
    """Residual of the exact quadratic expansion of E about a critical point:

        E(v) - E(u*) - int_{Z(u*)} v (lam - cos x) dx
             - 1/2 int ((v - u*)_x^2 - alpha^2 (v - u*)^2) dx.

    The expansion is exact in the continuum because E is quadratic; the
    residual measures discretization plus implementation error only.
    """
    _check_same_grid(v, ustar)
    x = v.grid.nodes
    h = v.grid.h
    zero_set = ustar.values <= 0.0
    w = Field(v.grid, v.values - ustar.values)
    wx = derivative(w, 1).values
    quad = 0.5 * h * np.sum(wx * wx - alpha**2 * w.values * w.values)
    lin = h * np.sum(v.values[zero_set] * (lam - np.cos(x[zero_set])))
    return float(abs(energy(v, alpha) - energy(ustar, alpha) - lin - quad))


def record_table(record: TrajectoryRecord) -> np.ndarray:
    """The diagnostics series as the same structured array read_diagnostics_csv
    returns, without a filesystem round trip."""
    return np.array([tuple(vars(s).values()) for s in record.samples],
                    dtype=[(name, float) for name in DIAGNOSTICS_HEADER.split(",")])


def support_interval(prof: DropletProfile):
    """A drop's support: (-tau, tau) hanging, (tau, 2pi - tau) sitting."""
    if prof.branch == "hanging":
        return (-prof.tau, prof.tau)
    return (prof.tau, 2.0 * np.pi - prof.tau)


def _on_support(prof: DropletProfile, x, formula):
    """formula(y) at the support-centred coordinate y of x inside the
    drop's support and 0 outside; a float for a scalar x."""
    y, inside = prof._coords(x)
    out = np.where(inside, formula(y), 0.0)
    return out if out.ndim else float(out)


def _drop_curvature(prof: DropletProfile, y):
    """u'' of the drop's formula at y, continued past the support."""
    a = prof.alpha
    sign = _centre(prof.branch, prof.tau)[1]
    # u0'' = -cos y - alpha^2 u0, from the equation u0 solves
    return (-sign * (np.cos(y) + a * a * particular_solution(a, y)[0])
            - prof.A * a * a * np.cos(a * y))


def drop_height(prof: DropletProfile, y):
    """The drop's formula sign u0(y) + A cos(alpha y) - K at y, continued
    past the support, with u0 and K read off the (u0, u0') pair that
    `particular_solution` returns."""
    a = prof.alpha
    h, sign = _centre(prof.branch, prof.tau)
    offset = sign * particular_solution(a, h)[0] + prof.A * math.cos(a * h)
    return sign * particular_solution(a, y)[0] + prof.A * np.cos(a * y) - offset


def mass_slope(branch: str, alpha: float, tau: float) -> float:
    """dM/dtau of a drop that is not small (scalar tau), through A'(h) alone.

    With y, h, A and K as in `steady._drop_coefficients` and p = sign u0,
    the contact conditions give du/dh = A'(h) (cos(alpha y) - cos(alpha h))
    on the support, so

        dM/dh = A'(h) (2 sin(alpha h)/alpha - 2 h cos(alpha h)),
        A'(h) = (p''(h) sin(alpha h) - alpha p'(h) cos(alpha h)) / (alpha sin^2(alpha h)),

    with p'' = -sign cos h - alpha^2 p from the equation; dh/dtau = sign.
    On small drops it loses accuracy as eps/h^2.
    """
    h, sign = _centre(branch, tau)
    u0, du0 = particular_solution(alpha, h)
    dp, d2p = sign * du0, -sign * (math.cos(h) + alpha**2 * u0)
    sin_a, cos_a = math.sin(alpha * h), math.cos(alpha * h)
    dA = (d2p * sin_a - alpha * dp * cos_a) / (alpha * sin_a * sin_a)
    return sign * 2.0 * dA * (sin_a / alpha - h * cos_a)


def profile_nonnegative(prof: DropletProfile, npts: int = 4097) -> bool:
    """Whether a drop is >= -1e-12 at npts equispaced points of its whole
    support [-h, h], both halves evaluated."""
    h = _centre(prof.branch, prof.tau)[0]
    return bool(drop_height(prof, np.linspace(-h, h, npts)).min() >= -1e-12)


def profile_slope(prof: DropletProfile, x):
    """u'(x) of a drop from its closed form, 0 off the support."""
    a = prof.alpha
    sign = _centre(prof.branch, prof.tau)[1]
    return _on_support(prof, x, lambda y: sign * particular_solution(a, y)[1]
                       - prof.A * a * np.sin(a * y))


def profile_curvature(prof: Profile, x):
    """u''(x) from the closed form: a drop's on its support (0 off it), a
    film's everywhere."""
    if isinstance(prof, FilmProfile):
        out = -prof.amplitude * np.cos(np.asarray(x, dtype=float))
        return out if out.ndim else float(out)
    return _on_support(prof, x, lambda y: _drop_curvature(prof, y))


def contact_curvature(prof: DropletProfile) -> float:
    """One-sided u'' at the contact points, from inside the support."""
    return float(_drop_curvature(prof, _centre(prof.branch, prof.tau)[0]))


def el_residual(state: SteadyState, grid: PeriodicGrid) -> float:
    """Sup-norm Euler-Lagrange residual |u'' + alpha^2 u + cos x - lam| over
    interior positivity-set nodes (at least 3h away from contact points),
    using the exact profile second derivative."""
    x = grid.nodes
    h = grid.h
    worst = 0.0
    for comp in state.components:
        if isinstance(comp, FilmProfile):
            mask = np.ones(grid.N, dtype=bool)
        else:
            y, inside = comp._coords(x)
            mask = inside & (np.abs(y) <= _centre(comp.branch, comp.tau)[0] - 3 * h)
        if not mask.any():
            continue
        res = (profile_curvature(comp, x[mask]) + state.alpha**2 * comp.value(x[mask])
               + np.cos(x[mask]) - comp.lam)
        worst = max(worst, float(np.abs(res).max()))
    return worst


def symmetry_roots_check(profile: Profile, npts: int = 4096) -> bool:
    """Both contact points share their cosine (the two roots of the contact
    quadratic coincide) and the profile is even: max |u(x) - u(-x)| <= 1e-12."""
    if isinstance(profile, DropletProfile):
        c1, c2 = support_interval(profile)
        if abs(math.cos(c1) - math.cos(c2)) > 1e-12:
            return False
    xs = np.linspace(-np.pi, np.pi, npts, endpoint=False)
    asym = np.abs(profile.value(xs) - profile.value(-xs)).max()
    return bool(asym <= 1e-12)


# ---------------------------------------------------------------------------
# the step and sample kernels as each call formed its own shifts, masks,
# sin x and differences; the package's forms must match them bit for bit

def residual_by_concatenation(v, u_old, dt, grid, params, dcos):
    """evolution._residual with each periodic shift its own concatenation."""
    h = grid.h
    du = _next(v) - v
    ddu = du - _prev(du)
    gp = (_next(ddu) - ddu) / h**3 + params.alpha**2 * du / h + dcos / h
    f = _mobility(v, params)
    m = 0.5 * (f + _next(f))
    F = m * gp
    return v - u_old + dt * (F - _prev(F)) / h, m, gp


def h1_distance(u: Field, v: Field) -> float:
    """||u_x - v_x||_2, warning (in the package's words) on unequal masses."""
    _check_same_grid(u, v)
    if abs(integrate(u) - integrate(v)) > 1e-10:
        warnings.warn("h1_distance called on fields of unequal mass; "
                      "the H1-equivalence argument needs a mean-zero difference")
    return math.sqrt(u.grid.h * slope_square_sum(np.fft.rfft(u.values - v.values)))


def l2_distance(u: Field, v: Field) -> float:
    _check_same_grid(u, v)
    d = u.values - v.values
    return math.sqrt(u.grid.h * np.dot(d, d))


def linf_distance(u: Field, v: Field) -> float:
    _check_same_grid(u, v)
    return float(np.abs(u.values - v.values).max())


def dissipation_by_masks(u: Field, params: Params, delta: Optional[float] = None) -> float:
    """functionals.dissipation deciding the all-wet case from its wet mask
    and forming sin x on every call."""
    v = u.values
    if delta is None:
        delta = 1e-7 * float(v.max())
        if delta <= 0.0:
            return 0.0
    if delta <= 0:
        raise ValueError("delta must be positive")
    wet = v > delta
    if not wet.any():
        return 0.0
    if wet.all():
        active = slice(None)
    else:
        dry = ~wet
        near_dry = dry.copy()
        for s in (1, 2):
            near_dry |= np.roll(dry, s) | np.roll(dry, -s)
        active = wet & ~near_dry
        if not active.any():
            return 0.0
    h = u.grid.h
    a2 = params.alpha**2
    c0 = 1.0 / (8.0 * h**3)
    c1 = a2 / (12.0 * h) - 1.0 / h**3
    c2 = 13.0 / (8.0 * h**3) - 2.0 * a2 / (3.0 * h)
    N = v.shape[0]
    w = np.concatenate((v[-3:], v, v[:3]))
    res = (c0 * (w[0:N] - w[6:N + 6]) + c1 * (w[1:N + 1] - w[5:N + 5])
           + c2 * (w[2:N + 2] - w[4:N + 4]) - np.sin(u.grid.nodes))
    return float(h * np.sum(v[active] ** params.n * res[active] ** 2))


def entropy_by_mask(u: Field, beta: float) -> float:
    """functionals.entropy testing every node against the dry threshold."""
    if (u.values <= 10.0 ** (-300.0 / beta)).any():
        return math.inf
    return float(u.grid.h * np.sum(u.values ** (-beta)))


def diagnostics_sample_per_call(t: float, u: Field, params: Params, ref: Field,
                                E: Optional[float] = None) -> DiagnosticsSample:
    """functionals.diagnostics_sample with every column from its own call."""
    bf, kad = params.n - 2.0, params.n - 1.5
    return DiagnosticsSample(
        t=t,
        E=energy(u, params.alpha) if E is None else E,
        D=dissipation_by_masks(u, params),
        mass=integrate(u),
        S_bf=entropy_by_mask(u, bf) if bf > 0 else math.nan,
        S_kad=entropy_by_mask(u, kad) if kad > 0 else math.nan,
        dH1=h1_distance(u, ref),
        dL2=l2_distance(u, ref),
        dLinf=linf_distance(u, ref),
    )


def write_table_per_cell(path, header: str, rows) -> None:
    """grid.write_table choosing each cell's format by its own type."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join([c if isinstance(c, str) else f"{c:.17g}" for c in row]) + "\n")
