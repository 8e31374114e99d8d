"""Test oracles: independent evaluations and analytic bounds that the
tests compare the package against.  No command runs them."""

import math
import warnings
from typing import Optional

import numpy as np

from thinfilm.evolution import EvolutionState
from thinfilm.functionals import DIAGNOSTICS_DTYPE, Params
from thinfilm.grid import Field, PeriodicGrid, integrate
from thinfilm.steady import (
    DropletProfile,
    FilmProfile,
    Profile,
    SteadyState,
    _centre,
    _invert_mass,
    particular_solution,
)


def _next(a: np.ndarray) -> np.ndarray:
    """Periodic shift: entry i holds a[i+1]."""
    return np.roll(a, -1)


def _prev(a: np.ndarray) -> np.ndarray:
    """Periodic shift: entry i holds a[i-1]."""
    return np.roll(a, 1)


def _check_same_grid(u: Field, v: Field):
    if u.grid.N != v.grid.N:
        raise ValueError("fields live on different grids")


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


def slope_square_sum(coeffs: np.ndarray):
    """sum_i (D v)_i^2 for the real N-point samples v with coeffs = rfft(v)
    along the last axis, one sum per row of a block of rfft rows, where D is
    the discrete Fourier first derivative: each mode p < N/2 is multiplied
    by i p, and the Nyquist mode p = N/2 is dropped (its odd derivative has
    no real representative on the grid).  By Parseval this is
    (2/N) sum_{0<p<N/2} p^2 |coeffs_p|^2, one BLAS dot product per row."""
    N = 2 * (coeffs.shape[-1] - 1)
    d = np.arange(1, N // 2) * coeffs[..., 1:N // 2]
    return 2.0 / N * np.vecdot(d, d).real


def energy_spectral(u: Field, alpha: float) -> float:
    """The continuous energy E(u) of the sampled field by spectral derivative
    plus trapezoid quadrature, both read off one rfft: int u_x^2 by Parseval
    (slope_square_sum) and, as cos x_i = -cos(2 pi i/N) on the grid,
    int u cos x = -h Re rfft(u)[1].  Exact for trigonometric polynomials of
    degree < N/2; the reference for the tests of the continuous functional."""
    v = u.values
    h = u.grid.h
    coeffs = np.fft.rfft(v)
    return (0.5 * h * (float(slope_square_sum(coeffs)) - alpha**2 * float(np.dot(v, v)))
            + h * float(coeffs[1].real))


def energy_fourier(u: Field, alpha: float, M: float, three_point: bool = False) -> float:
    """Independent Fourier-side evaluation of the energy,

        E = pi sum_{p != 0} (lambda_p - alpha^2) |u_hat(p)|^2
            - alpha^2 M^2 / (4 pi) - pi (u_hat(1) + u_hat(-1)),

    with lambda_p = p^2, the continuous E of the trigonometric interpolant
    (Nyquist mode included), or with three_point the symbol of the 3-point
    second difference, lambda_p = (4/h^2) sin^2(p h/2), which makes it the
    scheme's E_h.  Requires mass(u) = M within 1e-10.
    """
    if abs(integrate(u) - M) > 1e-10:
        raise ValueError("mass(u) does not match M within 1e-10")
    coeffs = spectrum(u)
    k = wavenumbers(u.grid.N)
    nonzero = k != 0
    h = u.grid.h
    lam = (4.0 / h**2) * np.sin(k * h / 2.0) ** 2 if three_point else k**2
    quad = np.pi * np.sum((lam[nonzero] - alpha**2) * np.abs(coeffs[nonzero]) ** 2)
    linear = np.pi * np.real(coeffs[k == 1][0] + coeffs[k == -1][0])
    return float(quad - alpha**2 * M**2 / (4.0 * np.pi) - linear)


def pressure_three_point(v: np.ndarray, grid: PeriodicGrid, alpha: float) -> np.ndarray:
    """The scheme's nodal pressure p_i = (v_{i-1} - 2v_i + v_{i+1})/h^2 +
    alpha^2 v_i + cos x_i."""
    return (_prev(v) - 2.0 * v + _next(v)) / grid.h**2 + alpha**2 * v + np.cos(grid.nodes)


def energy_three_point(v: np.ndarray, grid: PeriodicGrid, alpha: float) -> float:
    """E_h = h sum [(v_{i+1} - v_i)^2/(2h^2) - alpha^2 v_i^2/2 - v_i cos x_i],
    the energy whose gradient (in the h-weighted inner product) is minus
    pressure_three_point."""
    h = grid.h
    dv = _next(v) - v
    return float(h * np.sum(dv**2 / (2.0 * h**2) - 0.5 * alpha**2 * v**2 - v * np.cos(grid.nodes)))


def energy_by_dots(u: Field, alpha: float) -> float:
    """E_h of the one field u from three np.dot sums, in the order of
    operations of functionals.energy, whose np.vecdot rows match it bit for bit."""
    v, h = u.values, u.grid.h
    d = np.concatenate((v[1:], v[:1])) - v
    return h * (0.5 * (float(np.dot(d, d)) / (h * h) - alpha**2 * float(np.dot(v, v)))
                - float(np.dot(v, np.cos(u.grid.nodes))))


def discrete_film(grid: PeriodicGrid, alpha: float, M: float) -> Field:
    """The scheme's film equilibrium of mass M, M/(2 pi) + cos x/(sinc^2(h/2)
    - alpha^2): cos x is an eigenvector of the 3-point second difference
    with eigenvalue -sinc^2(h/2), so its 3-point pressure is constant."""
    s = (math.sin(grid.h / 2) / (grid.h / 2)) ** 2
    return Field(grid, M / (2.0 * math.pi) + np.cos(grid.nodes) / (s - alpha**2))


def energy_lower_bound(M: float, alpha: float) -> float:
    """Explicit lower bound for E on nonnegative fields of mass M:
    -alpha^4 pi M^2 / 8 - (1 + alpha^2/(4 pi)) M."""
    return float(-(alpha**4) * np.pi * M**2 / 8.0 - (1.0 + alpha**2 / (4.0 * np.pi)) * M)


def coercivity_bound(delta_e: float, alpha: float, N: Optional[int] = None) -> float:
    """Distance bound d_H1(u, u*) <= sqrt(2 dE / c), alpha < 1 only: for the
    continuous E, c = 1 - alpha^2; with N, for the scheme's E_h on N nodes
    about its film equilibrium and the 3-point dH1 (grid.distances),
    c = 1 - alpha^2/sinc^2(h/2), h = 2 pi/N (derived in test_acceptance's
    criterion 9)."""
    if alpha >= 1:
        raise ValueError("explicit coercivity bound requires alpha < 1")
    if delta_e < 0:
        raise ValueError("energy gap must be nonnegative")
    c = 1.0 - alpha**2 if N is None else 1.0 - alpha**2 / np.sinc(1.0 / N) ** 2  # h/2 = pi/N
    return float(np.sqrt(2.0 * delta_e / c))


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
    return float(abs(energy_spectral(v, alpha) - energy_spectral(ustar, alpha) - lin - quad))


def of_field(block_fn, u: Field, arg):
    """block_fn(U, grid, arg), the energy, the dissipation or an entropy, of
    u alone, a block with k = 1: its one value."""
    return block_fn(u.values[None], u.grid, arg)[0]


def evolution_state(u: Field, dt_current: float, enforce_positive: bool = False,
                    t: float = 0.0, **history) -> EvolutionState:
    """An EvolutionState of u at time t whose u_sum is the expression run()
    gives its first state; history holds u_prev, dt_prev, u_prev2 and
    dt_prev2."""
    return EvolutionState(t=t, u=u, dt_current=dt_current, enforce_positive=enforce_positive,
                          u_sum=math.fsum(u.values.tolist()), **history)


def min_value_sampled(state: SteadyState) -> float:
    """min u of a steady state over 8193 equispaced points of [-pi, pi]."""
    return float(np.min(state.value(np.linspace(-np.pi, np.pi, 8193))))


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


def sitting_tau_by_scan(alpha: float, M: float, taus, masses) -> Optional[float]:
    """The sitting lookup as a scan of every sample interval: the first
    interval between two finite samples across which M(tau) - M changes sign
    or vanishes, (M_i - M)(M_i+1 - M) <= 0 in index order, is solved by
    `_invert_mass` from the linear interpolant, and its root is kept if its
    contact curvature is >= 0 (else the next such interval is tried)."""
    f = masses - M
    for i in np.flatnonzero(f[:-1] * f[1:] <= 0):
        lo, hi = float(taus[i]), float(taus[i + 1])
        f_lo, f_hi = float(f[i]), float(f[i + 1])
        if f_lo == 0.0:
            return lo
        start = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        tau, _, curvature = _invert_mass("sitting", alpha, M, lo, hi, f_lo, start)
        if curvature >= 0.0:
            return float(tau)
    return None


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
# the step and sample kernels as each call formed its own shifts, cos x
# and differences; the package's forms must match them bit for bit

def residual_by_shifts(v, u_old, dt, grid, params, dcos):
    """evolution._residual with each periodic shift its own roll, and m and
    gp on the N edges 0..N-1; dcos holds cos x_{i+1} - cos x_i on those
    edges."""
    h = grid.h
    du = _next(v) - v
    ddu = du - _prev(du)
    gp = (_next(ddu) - ddu) / h**3 + params.alpha**2 * du / h + dcos / h
    f = np.where(v > 0.0, v, 0.0) ** params.n + params.eps
    m = 0.5 * (f + _next(f))
    F = m * gp
    return v - u_old + dt * (F - _prev(F)) / h, m, gp


def jacobian_by_shifts(v, m, gp, dt, grid, params):
    """The Jacobian of residual_by_shifts in v, as the five diagonals
    k = -2..2 (row k + 2 holds J[i, (i + k) mod N]), from its m and gp on
    the N edges 0..N-1, with each periodic shift its own roll.  Row i is
    c (F_i - F_{i-1}) differentiated, c = dt/h, F = m gp: gp's stencil
    gives mh = c m/h^3 and mg = c (3/h^2 - alpha^2) m/h, and the mean
    mobility m = (f_eps(v_i) + f_eps(v_{i+1}))/2 gives q = c f_eps'(v)/2,
    its derivative in either end node."""
    h = grid.h
    c = dt / h
    n = params.n
    pos = v > 0.0
    q = (0.5 * c * n) * np.where(pos, np.where(pos, v, 1.0) ** (n - 1.0), 0.0)
    mh = (c / h**3) * m
    mg = (c * (3.0 / (h * h) - params.alpha**2) / h) * m
    return np.stack((
        _prev(mh),
        -mh - _prev(q * gp) - _prev(mg),
        1.0 + q * gp - q * _prev(gp) + mg + _prev(mg),
        _next(q) * gp - mg - _prev(mh),
        mh,
    ))


def h1_distance(u: Field, v: Field) -> float:
    """sqrt(h sum ((d_{i+1} - d_i)/h)^2) of d = u - v, the 3-point H1
    seminorm, warning (in the package's words) on unequal masses."""
    _check_same_grid(u, v)
    if abs(integrate(u) - integrate(v)) > 1e-10:
        warnings.warn("h1_distance called on fields of unequal mass; "
                      "the H1-equivalence argument needs a mean-zero difference")
    d = u.values - v.values
    dd = _next(d) - d
    return math.sqrt(float(np.dot(dd, dd)) / u.grid.h)


def h1_distance_fourier(u: Field, v: Field) -> float:
    """h1_distance as its Fourier-side sum, sqrt(2 pi sum_p lambda_p
    |d_hat(p)|^2) over all N modes of d = u - v, with the symbol of the
    3-point second difference, lambda_p = (4/h^2) sin^2(p h/2)."""
    _check_same_grid(u, v)
    k = wavenumbers(u.grid.N)
    lam = (4.0 / u.grid.h**2) * np.sin(k * u.grid.h / 2.0) ** 2
    d = spectrum(Field(u.grid, u.values - v.values))
    return math.sqrt(2.0 * math.pi * float(np.sum(lam * np.abs(d) ** 2)))


def h1_distance_spectral(u: Field, v: Field) -> float:
    """||D(u - v)||_2 with D the discrete Fourier first derivative, by
    Parseval on one rfft (slope_square_sum): the spectral dH1 that the
    3-point one approximates to O(h^2) on smooth fields."""
    _check_same_grid(u, v)
    return math.sqrt(u.grid.h * float(slope_square_sum(np.fft.rfft(u.values - v.values))))


def l2_distance(u: Field, v: Field) -> float:
    _check_same_grid(u, v)
    d = u.values - v.values
    return math.sqrt(u.grid.h * np.dot(d, d))


def linf_distance(u: Field, v: Field) -> float:
    _check_same_grid(u, v)
    return float(np.abs(u.values - v.values).max())


def dissipation_by_shifts(u: Field, params: Params) -> float:
    """functionals.dissipation, h sum m gp^2, with m and gp from
    residual_by_shifts and the forcing's differences from their own
    cos x."""
    cos_x = np.cos(u.grid.nodes)
    _, m, gp = residual_by_shifts(u.values, u.values, 1.0, u.grid, params,
                                  _next(cos_x) - cos_x)
    return float(u.grid.h * np.sum(m * gp**2))


def entropy_by_mask(u: Field, beta: float) -> float:
    """functionals.entropy testing every node against the dry threshold."""
    if (u.values <= 10.0 ** (-300.0 / beta)).any():
        return math.inf
    return float(u.grid.h * np.sum(u.values ** (-beta)))


def diagnostics_sample_per_call(t: float, u: Field, params: Params, ref: Field,
                                E: float) -> np.void:
    """functionals.diagnostics_sample with every column from its own call:
    one row of a diagnostics table."""
    bf, kad = params.n - 2.0, params.n - 1.5
    return np.array((
        t,
        E,
        dissipation_by_shifts(u, params),
        integrate(u),
        entropy_by_mask(u, bf) if bf > 0 else math.nan,
        entropy_by_mask(u, kad) if kad > 0 else math.nan,
        h1_distance(u, ref),
        l2_distance(u, ref),
        linf_distance(u, ref),
    ), DIAGNOSTICS_DTYPE)[()]


def write_table_per_cell(path, header: str, rows) -> None:
    """grid.write_table choosing each cell's format by its own type."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join([c if isinstance(c, str) else f"{c:.17g}" for c in row]) + "\n")
