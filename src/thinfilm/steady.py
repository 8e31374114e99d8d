"""Closed-form steady states with zero dissipation.

On its positivity set every such state solves the mass-constrained
Euler-Lagrange equation

    u'' + alpha^2 u + cos x = lambda,

whose general even solution is lambda/alpha^2 + u0(x) + A cos(alpha x)
with the particular solution, in a product form that cancels nowhere,

    u0(x) = (cos x - cos(alpha x)) / (1 - alpha^2) = -sin(s x) r(x) / (2 s),
    s = (1 + alpha)/2,  d = (1 - alpha)/2,  r(x) = sin(d x)/d,

with r(x) = x at alpha = 1, where u0 = -x sin(x)/2.  Droplet profiles are
pinned down by zero height and zero slope at their contact points (zero
contact angle), which fixes A and lambda in terms of the contact point tau.
The droplet mass M(tau) is a closed form in u0, and its slope is one in the
contact curvature u''(h) = lam - sign cos h (h, sign as below, z = alpha h):
dM/dh = 2 u''(h) (1 - z cot z)/alpha^2, positive on the hanging branch (a
small drop's M, dM/dtau and int u cos x, which the closed forms build from
cancelling terms, come from Taylor series); the map is inverted by Newton
steps kept inside a sign-change bracket.  Drops are built only for
0.2 <= alpha <= 5, where the closed forms were measured to hold 1e-12
relative accuracy.

Energies need no quadrature either: integrating u_x^2 by parts over the
support (u vanishes at the contact points, or the film is periodic) and
substituting u'' = lambda - alpha^2 u - cos x gives

    E = int (u_x^2/2 - alpha^2 u^2/2 - u cos x) = -(lambda M + int u cos x) / 2.

Four kinds of states exist: smooth films (positive up to touchdown
zeroes), hanging drops (dry cap at the top, the energy minimizers),
sitting drops (alpha > 1 only, dry cap at the bottom), and two-droplet
states combining a hanging and a sitting drop with disjoint supports.

A drop is written in the coordinate y centred on its support (-h, h):
y = x and h = tau on the hanging branch, y = x - pi and h = pi - tau on the
sitting one, where cos x = -cos y.  There it is sign u0(y) + A cos(alpha y) - K
with sign = +1 (hanging) or -1 (sitting): the even combination, and the
only one that satisfies both contact conditions.

Each closed form is written once: a scalar (a float, an np.float64 or a 0-d
array) goes through `math` and gives Python floats, for the Newton steps on
one contact point; an ndarray goes through NumPy and gives arrays.  Profile
values (`value`) have only the NumPy path, as every caller samples a grid
(`evaluate`): a scalar x gives a 0-d array or an np.float64.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .grid import TWO_PI, Field, PeriodicGrid


def _with_trig(x):
    """x with the sine and cosine that suit it: a Python float and `math`'s
    for a scalar (a float, an np.float64 or a 0-d array), a float array and
    NumPy's for anything with dimensions."""
    if isinstance(x, (float, int)) or getattr(x, "ndim", 1) == 0:
        return float(x), math.sin, math.cos
    return np.asarray(x, dtype=float), np.sin, np.cos


def _sin_ratio(d: float, x):
    """sin(d x)/d, continued by its limit x at d = 0."""
    x, sin, _ = _with_trig(x)
    return sin(d * x) / d if d else x


def particular_solution(alpha: float, x):
    """Particular solution u0 = (cos x - cos(alpha x))/(1 - alpha^2) of
    u'' + alpha^2 u + cos x = 0, and its derivative, in the product form of
    the module docstring (-x sin(x)/2 at alpha = 1); returns (u0, u0').

    A scalar x gives Python floats, through `math`; an array x gives
    arrays, through NumPy.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x, sin, cos = _with_trig(x)
    alpha = float(alpha)
    s = 0.5 * (1.0 + alpha)
    r = _sin_ratio(0.5 * (1.0 - alpha), x)
    u0 = -sin(s * x) * r / (2.0 * s)
    du0 = -(alpha * cos(s * x) * r + sin(x)) / (2.0 * s)
    return u0, du0


def _centre(branch: str, tau):
    """Half-width h of a droplet's support and the sign with cos x = sign cos y
    in the support-centred coordinate y (see the module docstring)."""
    return (tau, 1.0) if branch == "hanging" else (np.pi - tau, -1.0)


@dataclass(frozen=True)
class DropletProfile:
    """Symbolic droplet steady state: height and slope vanish at the contact
    points, and the Euler-Lagrange equation holds with multiplier lam on the
    support.  branch is "hanging" (support (-tau, tau)) or "sitting"
    (support (tau, 2pi - tau), alpha > 1 only)."""

    branch: str
    alpha: float
    tau: float
    A: float
    lam: float
    mass: float
    offset: float  # K in u = sign u0(y) + A cos(alpha y) - K, zero at y = +-h

    def _coords(self, x):
        """Support-centred coordinate y in [-pi, pi) of x, and the mask |y| < h."""
        h, sign = _centre(self.branch, self.tau)
        y = np.mod(np.asarray(x, dtype=float) + (np.pi if sign > 0 else 0.0), TWO_PI) - np.pi
        return y, np.abs(y) < h

    def _raw(self, y):
        """Profile at y, continued past the support."""
        sign = _centre(self.branch, self.tau)[1]
        u0 = particular_solution(self.alpha, y)[0]
        return sign * u0 + self.A * np.cos(self.alpha * y) - self.offset

    def value(self, x):
        y, inside = self._coords(x)
        out = np.zeros_like(y)
        out[inside] = self._raw(y[inside])
        return out


# Taylor coefficients of M S and C S for the hanging drop, with M its mass,
# C = int u cos x its cos moment and S = sin(alpha h)/(alpha h): the one of
# h^(5 + 2k) is row k, a polynomial in alpha^2 (lowest power first), from a
# computer-algebra series expansion.  Both functions are entire in h (the
# pole at alpha h = pi sits in S), so on h max(alpha, 1) < _SMALL_DROP the
# eight mass rows leave M within 4.1e-15 relative and the ten moment rows
# leave C within 3.2e-17, while the closed forms there lose up to eps/h^4.
_SMALL_DROP = 0.75
_SMALL_DROP_MASS = (
    (2 / 45,),
    (-1 / 315, -1 / 315),
    (1 / 11340, 1 / 4050, 1 / 11340),
    (-1 / 748440, -1 / 138600, -1 / 138600, -1 / 748440),
    (1 / 77837760, 1 / 8845200, 1 / 4586400, 1 / 8845200, 1 / 77837760),
    (-1 / 11675664000, -1 / 898128000, -1 / 285768000, -1 / 285768000, -1 / 898128000,
     -1 / 11675664000),
    (1 / 2381835456000, 1 / 132324192000, 1 / 28500595200, 1 / 17489001600,
     1 / 28500595200, 1 / 132324192000, 1 / 2381835456000),
    (-1 / 633568231296000, -1 / 26620513920000, -1 / 4140968832000, -1 / 1720094745600,
     -1 / 1720094745600, -1 / 4140968832000, -1 / 26620513920000, -1 / 633568231296000),
)
_SMALL_DROP_COS = (
    (2 / 45,),
    (-2 / 315, -1 / 315),
    (2 / 4725, 1 / 2025, 1 / 11340),
    (-8 / 467775, -17 / 467775, -1 / 69300, -1 / 748440),
    (4 / 8513505, 68 / 42567525, 191 / 170270100, 1 / 4422600, 1 / 77837760),
    (-2 / 212837625, -2 / 42567525, -1 / 19348875, -31 / 1702701000, -1 / 449064000,
     -1 / 11675664000),
    (2 / 13956067125, 97 / 97692469875, 103 / 65128313250, 13 / 15029610750,
     383 / 2084106024000, 1 / 66162096000, 1 / 2381835456000),
    (-16 / 9280784638125, -1 / 63134589375, -1283 / 37123138552500,
     -1009 / 37123138552500, -53 / 5939702168400, -503 / 395980144560000,
     -1 / 13310256960000, -1 / 633568231296000),
    (4 / 238206805711875, 424 / 2143861251406875, 139 / 245012714446500,
     139 / 228678533483400, 19609 / 68603560045020000, 23 / 366863957460000,
     71 / 11087444047680000, 1 / 3501298120320000, 1 / 212878925715456000),
    (-4 / 29585285269414875, -2 / 1006302220048125, -358 / 49308808782358125,
     -12049 / 1183411410776595000, -1207 / 185633162474760000,
     -6431 / 3155763762070920000, -29 / 90596088863280000, -113 / 4590201835739520000,
     -1 / 1165765545584640000, -1 / 88131875246198784000),
)


def _small_drop(rows, alpha: float, h, sin, slope: bool = False):
    """F(h) = h^5 g(h^2) / S(h), where g(x) = sum_k P_k(alpha^2) x^k with P_k
    row k of rows (_SMALL_DROP_MASS or _SMALL_DROP_COS): a small hanging
    drop's mass or cos moment, a float or an array like h (with the sin
    `_with_trig` picks for it); with slope=True, dF/dh of a float h instead.

    With z = alpha h and q = z/sin z, dF/dh = h^4 q (g (6 - z cot z) + 2 x g'(x))
    at x = h^2, from d(log q)/dh = (1 - z cot z)/h.
    """
    b, x = alpha * alpha, h * h
    g = dg = 0.0
    for row in reversed(rows):
        c = 0.0
        for coeff in reversed(row):
            c = c * b + coeff
        if slope:
            dg = dg * x + g
        g = g * h * h + c
    z = alpha * h
    if not slope:
        return g * h**5 * alpha * h / sin(z)
    sin_z = math.sin(z)
    return h**4 * z / sin_z * (g * (6.0 - z * math.cos(z) / sin_z) + 2.0 * x * dg)


def _drop_coefficients(branch: str, alpha: float, tau):
    """(A, lam, M, K) of the droplet with contact point tau: Python floats
    for a scalar tau, through `math`; arrays for an array tau, through NumPy.

    With y, h and sign as in `_centre`, the drop is sign u0(y) +
    A cos(alpha y) - K on |y| < h.  Zero slope at y = h gives
    A = sign u0'(h) / (alpha sin(alpha h)), zero height gives
    K = sign u0(h) + A cos(alpha h), and lam = -alpha^2 K.  Integrating
    u'' + alpha^2 u + sign cos y = lam over the support, where u' vanishes
    at both ends, gives M = 2 (h lam - sign sin h) / alpha^2.  That M ~ h^5
    is a difference of O(h) terms, so where h max(alpha, 1) < _SMALL_DROP it
    is read from `_small_drop` instead.
    """
    tau, sin, cos = _with_trig(tau)
    alpha = float(alpha)
    h, sign = _centre(branch, tau)
    u0, du0 = particular_solution(alpha, h)
    A = sign * du0 / (alpha * sin(alpha * h))
    K = sign * u0 + A * cos(alpha * h)
    lam = -alpha**2 * K
    M = 2.0 * (h * lam - sign * sin(h)) / alpha**2
    if isinstance(h, float):
        if h < _SMALL_DROP and alpha * h < _SMALL_DROP:  # h max(alpha, 1), without a call
            M = sign * _small_drop(_SMALL_DROP_MASS, alpha, h, sin)
        return A, lam, M, K
    small = h * max(alpha, 1.0) < _SMALL_DROP
    M[small] = sign * _small_drop(_SMALL_DROP_MASS, alpha, h[small], sin)
    return A, lam, M, K


def _sine_remainder(z: float) -> float:
    """(z - sin z)/z^3; for |z| < 1/2, where the difference loses more than
    two digits, its Taylor series sum_k (-z^2)^k/(2k + 3)!, whose first
    omitted term (k = 8) is below 2e-17."""
    if abs(z) < 0.5:
        return sum((-z * z) ** k / math.factorial(2 * k + 3) for k in range(8))
    return (z - math.sin(z)) / z**3


def _cos_moment(prof: DropletProfile) -> float:
    """int u cos x over the support of a droplet, in the y, h of `_centre`.

    int cos(alpha y) cos y = r(2h)/2 + sin(2 s h)/(2 s), and the sum-to-product
    identities turn int u0 cos y, whose terms cancel as alpha -> 1, into
    d h^3 (z - sin z)/(s z^3) + (2 cos((1 + s) h) r(h) - sin 2h)/(8 s^2)
    with z = (alpha - 1) h (s, d and r as in the module docstring).  A sitting
    drop is minus the hanging one of the same h and cos x = -cos y, so both
    branches have the same moment; that C ~ h^5 is a difference of O(h)
    terms, so where h max(alpha, 1) < _SMALL_DROP it is read from
    `_small_drop` instead.
    """
    alpha = prof.alpha
    h, sign = _centre(prof.branch, prof.tau)
    if h < _SMALL_DROP and alpha * h < _SMALL_DROP:
        return _small_drop(_SMALL_DROP_COS, alpha, h, math.sin)
    s, d = 0.5 * (1.0 + alpha), 0.5 * (1.0 - alpha)
    u0_cos = (_sine_remainder((alpha - 1.0) * h) * d * h**3 / s
              + (2.0 * math.cos((1.0 + s) * h) * _sin_ratio(d, h) - math.sin(2.0 * h))
              / (8.0 * s * s))
    a_cos = 0.5 * _sin_ratio(d, 2.0 * h) + math.sin(2.0 * s * h) / (2.0 * s)
    return u0_cos + sign * (prof.A * a_cos - 2.0 * prof.offset * math.sin(h))


def _contact(branch: str, alpha: float, tau):
    """(M, u'') of the droplet with contact point tau, u'' = lam - sign cos h
    its curvature at the contact points (h and sign as in `_centre`), from
    the Euler-Lagrange equation at u = 0.  Floats for a scalar tau, arrays
    for an array.

    The drop meets its dry cap with zero height and slope, so where this
    curvature is negative the drop dips below zero next to its contact
    points; on the sitting branch that marks every negative mass too
    (M < 0 needs lam < -sin(h)/h < -cos h).  Where it is >= 0 the drop is
    taken as nonnegative: on 2001 contact points at each of 61 alphas in
    (1, 5] no such sitting drop fell below -1e-12 at 4097 points of its
    support.  The curvature also gives dM/dtau (see `_mass_slope`).
    """
    tau, _, cos = _with_trig(tau)
    h, sign = _centre(branch, tau)
    _, lam, M, _ = _drop_coefficients(branch, alpha, tau)
    return M, lam - sign * cos(h)


def _mass_slope(branch: str, alpha: float, tau: float, curvature: float) -> float:
    """dM/dtau of a droplet (scalar tau) from its contact curvature u''(h),
    as `_contact` gives it.

    With y, h and A as in `_drop_coefficients`, z = alpha h and p = sign u0,
    zero slope at y = h gives A = p'(h)/(alpha sin z), so p'' = -sign cos h -
    alpha^2 p gives A'(h) = u''(h)/(alpha sin z); zero height then gives
    du/dh = A'(h) (cos(alpha y) - cos z) on the support, and

        dM/dh = A'(h) (2 sin z - 2 z cos z)/alpha = 2 u''(h) (1 - z cot z)/alpha^2,

    with dh/dtau = sign.  Where h max(alpha, 1) < _SMALL_DROP, u'' ~ h^3
    cancels, and the slope is `_small_drop`'s derivative of the mass series (a
    sitting drop's mass is minus the hanging one's at h = pi - tau, so both
    branches take it with a plus sign).
    """
    h, sign = _centre(branch, tau)
    if h < _SMALL_DROP and alpha * h < _SMALL_DROP:  # h max(alpha, 1), without a call
        return _small_drop(_SMALL_DROP_MASS, alpha, h, math.sin, slope=True)
    z = alpha * h
    return sign * 2.0 * curvature * (1.0 - z / math.tan(z)) / alpha**2


# The droplet closed forms lose relative accuracy as about
# eps max(alpha, 1/alpha)^2: A ~ 1/alpha^2 as alpha -> 0, and a support of
# width < pi/alpha as alpha grows.  Against 50-digit mpmath on 600 contact
# points of the hanging branch (up to 0.999 of its end, past which the
# rounding of alpha tau dominates at every alpha), the worst relative mass
# error is 7.5e-13 at alpha = 0.2 and 6.8e-13 at 5, but 1.7e-12 at 0.15 and
# 1.1e-12 at 6; drops outside this range are refused.
_DROP_ALPHA_MIN, _DROP_ALPHA_MAX = 0.2, 5.0


def _check_drop_alpha(alpha: float) -> None:
    """Refuse an alpha outside [_DROP_ALPHA_MIN, _DROP_ALPHA_MAX] (NaN included)."""
    if not _DROP_ALPHA_MIN <= alpha <= _DROP_ALPHA_MAX:
        raise ValueError(f"droplet states need {_DROP_ALPHA_MIN:g} <= alpha <= "
                         f"{_DROP_ALPHA_MAX:g}, where their closed forms hold 1e-12 "
                         f"relative accuracy; got alpha={alpha:g}")


def _checked_coefficients(branch: str, alpha: float, tau):
    """`_drop_coefficients` of a scalar tau on the branch "hanging" or
    "sitting", refusing an alpha or tau it does not hold and a resonant
    sitting contact point."""
    _check_drop_alpha(alpha)
    if branch == "hanging":
        if not 0.0 < tau < np.pi / max(alpha, 1.0):
            raise ValueError("tau out of range: need 0 < tau < pi/max(alpha, 1)")
    elif branch == "sitting":
        if alpha <= 1.0:
            raise ValueError("sitting drops require alpha > 1")
        if not 0.0 < tau < np.pi:
            raise ValueError("tau out of range: need 0 < tau < pi")
        if abs(math.sin(alpha * (np.pi - tau))) < 1e-8:  # A blows up
            raise ValueError("resonant contact point: sin(alpha (pi - tau)) ~ 0")
    return _drop_coefficients(branch, alpha, tau)


def hanging_drop(alpha: float, tau: float) -> DropletProfile:
    """Hanging-drop profile u = u0(x) + A cos(alpha x) - u0(tau) - A cos(alpha tau)
    on |x| < tau, zero outside, with A = u0'(tau)/(alpha sin(alpha tau))."""
    return DropletProfile("hanging", alpha, float(tau),
                          *_checked_coefficients("hanging", alpha, tau))


def sitting_drop(alpha: float, tau: float) -> DropletProfile:
    """Sitting-drop profile on (tau, 2pi - tau), even about the top x = pi,
    for alpha > 1 only; A = -u0'(pi - tau)/(alpha sin(alpha(pi - tau))) blows
    up at resonant contact points where sin(alpha(pi - tau)) = 0."""
    return DropletProfile("sitting", alpha, float(tau),
                          *_checked_coefficients("sitting", alpha, tau))


@dataclass(frozen=True)
class FilmProfile:
    """Smooth film u = M/(2pi) + cos(x)/(1 - alpha^2), with lam = alpha^2 M/(2pi)."""

    alpha: float
    mass: float

    @property
    def mean(self) -> float:
        return self.mass / TWO_PI

    @property
    def amplitude(self) -> float:
        return 1.0 / (1.0 - self.alpha**2)

    @property
    def lam(self) -> float:
        return self.alpha**2 * self.mass / TWO_PI

    @property
    def tau(self) -> Optional[float]:
        return None

    def value(self, x):
        return self.mean + self.amplitude * np.cos(np.asarray(x, dtype=float))


def smooth_film(alpha: float, M: float) -> FilmProfile:
    """Smooth-film steady profile of mass M; nonnegative iff M |1-alpha^2| >= 2pi."""
    if alpha <= 0 or M <= 0:
        raise ValueError("alpha and M must be positive")
    # min u = M/(2pi) - 1/|1 - alpha^2| (slack as in _film_branch); refuses alpha = 1
    if M * abs(1.0 - alpha**2) < TWO_PI * (1.0 - 1e-12):
        raise ValueError("film of this mass is not nonnegative: need M |1 - alpha^2| >= 2pi")
    return FilmProfile(alpha, M)


Profile = Union[DropletProfile, FilmProfile]


def _profile_energy(prof: Profile) -> float:
    """E = -(lam M + int u cos x)/2 (see the module docstring)."""
    if isinstance(prof, FilmProfile):
        cos_moment = np.pi * prof.amplitude
    else:
        cos_moment = _cos_moment(prof)
    return float(-0.5 * (prof.lam * prof.mass + cos_moment))


@dataclass(frozen=True)
class SteadyState:
    """A zero-dissipation steady state: one or two profiles plus bookkeeping.

    kind is one of smooth_film, hanging_drop, sitting_drop, two_droplet.
    Two-droplet states carry (hanging, sitting) components with disjoint
    supports; they are steady but generally not critical points.
    """

    kind: str
    components: tuple
    alpha: float
    mass: float
    energy: float
    is_minimizer: bool = False

    def value(self, x):
        out = self.components[0].value(x)
        for comp in self.components[1:]:
            out = out + comp.value(x)
        return out

    @property
    def lam(self) -> float:
        if len(self.components) != 1:
            raise ValueError("two-droplet states have one multiplier per component")
        return self.components[0].lam

    @property
    def tau(self) -> Optional[float]:
        return self.components[0].tau


def _make_state(kind: str, components: tuple, is_minimizer: bool = False) -> SteadyState:
    energy = sum(_profile_energy(c) for c in components)
    mass = sum(c.mass for c in components)
    return SteadyState(kind, components, components[0].alpha, mass, energy, is_minimizer)


def evaluate(obj, grid: PeriodicGrid) -> Field:
    """Sample a profile or steady state onto a grid (exact zeros off-support)."""
    return Field(grid, obj.value(grid.nodes))


def mass_of_tau(alpha: float, tau: float) -> float:
    """Hanging-drop mass M(tau), the closed-form integral of the profile
    over its support (-tau, tau); strictly increasing in tau."""
    return _checked_coefficients("hanging", alpha, tau)[2]


# small enough that masses within ~1e-9 of the film-boundary value stay
# reachable (dM/dtau is O(10) at the right end of the bracket)
_TAU_MARGIN = 1e-12


def _film_branch(alpha: float, M: float) -> bool:
    # relative slack so masses within round-off of the touchdown boundary
    # land on the film branch consistently
    return alpha < 1 and M * (1 - alpha**2) >= TWO_PI * (1.0 - 1e-12)


def _invert_mass(branch: str, alpha: float, M: float, lo: float, hi: float,
                 f_lo: float, tau: float):
    """Solve M(tau) = M on [lo, hi], across which M(tau) - M changes sign
    (f_lo = M(lo) - M), by Newton iteration from the start point tau.

    The steps are Newton steps on log M(tau) = log M, with the slope
    dM/dtau / M(tau): the same root, but the step follows the power-law
    rise of M at small tau and its pole at tau = pi/alpha (alpha >= 1) far
    better than a step on M itself.  Every iterate shrinks the bracket, and a
    step that would leave it is replaced by bisection.  The iteration runs on
    past the first point within 1e-13 M plus four ulps of tau's worth of
    mass, |dM/dtau| ulp(tau) (at most 1e-12 M), until |M(tau) - M| stops
    decreasing (or the bracket is exhausted), so it ends at the converged
    root; returns (tau, |M(tau) - M|, u''(tau)) for the best point seen.
    lo itself is never evaluated: its curvature is returned as 0.0, which
    holds as ">= 0" for a finite point of `_sitting_sample`.  A 1e-12 M
    gate is too loose where the round-off of M(tau) itself is near 1e-13 M
    (2.6e-13 M at alpha = 0.3, M = 0.013): the run could end 2e-13 M off
    beside closer points.  Each iterate takes M and the contact curvature
    from one `_contact` call.
    """
    tol = 1e-12 * M
    best, best_err, best_tol, best_curvature = lo, abs(f_lo), tol, 0.0
    while hi - lo > 2.0 * math.ulp(hi):
        m, curvature = _contact(branch, alpha, tau)
        f = m - M
        err = abs(f)
        if err >= best_err and best_err <= best_tol:
            break
        slope = _mass_slope(branch, alpha, tau, curvature)
        if err < best_err:
            best, best_err, best_curvature = tau, err, curvature
            best_tol = min(tol, 1e-13 * M + 4.0 * abs(slope) * math.ulp(tau))
        if (f < 0) == (f_lo < 0):
            lo, f_lo = tau, f
        else:
            hi = tau
        nxt = tau - m * math.log1p(f / M) / slope if m > 0 and slope else math.nan
        if nxt == tau and err <= tol:  # the step rounds to zero
            break
        tau = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return best, best_err, best_curvature


def tau_from_mass(alpha: float, M: float) -> float:
    """Invert the hanging-branch mass map by Newton iteration on dM/dtau
    from the contact curvature, safeguarded by a bracket (see `_invert_mass`).

    For alpha < 1 masses with M (1 - alpha^2) >= 2pi belong to the
    smooth-film branch and are rejected; the caller must branch first.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    if _film_branch(alpha, M):
        raise ValueError("mass belongs to the smooth-film branch for this alpha")
    lo, hi = _TAU_MARGIN, np.pi / max(alpha, 1.0) - _TAU_MARGIN
    # M(lo) from the leading term of its series, (2/45) lo^5: at lo = 1e-12 the
    # rest is a factor 1 + O(1e-24), below round-off
    m_lo = _SMALL_DROP_MASS[0][0] * lo**5
    m_hi = mass_of_tau(alpha, hi)
    if not m_lo < M < m_hi:
        raise ValueError(f"mass {M} outside achievable range ({m_lo:g}, {m_hi:g})")
    # a small drop has M ~ (2/45) tau^5: start from that, not from mid-bracket,
    # whose bisections toward a tiny tau would take most of the iterations
    start = (22.5 * M) ** 0.2
    if start * max(alpha, 1.0) >= _SMALL_DROP:
        start = 0.5 * (lo + hi)
    tau, err, _ = _invert_mass("hanging", alpha, M, lo, hi, m_lo - M, start)
    if err > 1e-9 * M:  # interval exhausted short of the tolerance
        raise RuntimeError("mass inversion stalled before reaching the mass tolerance")
    return tau


def minimizer(alpha: float, M: float) -> SteadyState:
    """The unique nonnegative energy minimizer of mass M.

    Smooth film for alpha < 1 with M (1 - alpha^2) >= 2pi (touchdown at
    x = +-pi exactly at the boundary), hanging drop otherwise.
    """
    if alpha <= 0 or M <= 0:
        raise ValueError("alpha and M must be positive")
    if _film_branch(alpha, M):
        return _make_state("smooth_film", (smooth_film(alpha, M),), is_minimizer=True)
    tau = tau_from_mass(alpha, M)
    return _make_state("hanging_drop", (hanging_drop(alpha, tau),), is_minimizer=True)


def _sitting_sample(alpha: float):
    """The sitting branch on a fixed 2001-point grid of contact points, for
    one alpha: (taus, M(taus), runs), M NaN where the contact curvature of
    `_contact` is negative.  Across a resonant contact point, where
    sin(alpha (pi - tau)) = 0, lam runs to -inf on one side, so the NaNs
    part the finite samples there and no bracket spans the pole.  runs are
    the (first, last, falling) sample indices, in tau order, of stretches of
    finite samples over which M strictly rises or falls: two neighbouring
    intervals share a run where their steps' product is > 0.  (A NumPy sign
    or isnan pass here raised the peak resident memory by about 0.1 MB.)  A
    mass sweep builds one and passes it to every catalog() call of that
    alpha.  None for alpha <= 1, which has no sitting branch."""
    if alpha <= 1.0:
        return None
    taus = np.linspace(1e-6, np.pi - 1e-6, 2001)
    masses, curvature = _contact("sitting", alpha, taus)
    masses = np.where(curvature >= 0.0, masses, np.nan)
    del curvature
    steps = np.diff(masses)  # NaN on an interval that touches a NaN
    # joined[i]: intervals i - 1 and i both rise or both fall (never at the ends)
    joined = np.zeros(masses.size, dtype=bool)
    np.greater(steps[1:] * steps[:-1], 0.0, out=joined[1:-1])
    finite = steps == steps  # False on NaN
    firsts = np.flatnonzero(np.where(joined[:-1], False, finite)).tolist()
    lasts = np.flatnonzero(np.where(joined[1:], False, finite)).tolist()
    runs = [(i, j + 1, bool(steps[i] < 0.0)) for i, j in zip(firsts, lasts)]
    return taus, masses, runs


def _sitting_tau_for_mass(alpha: float, M: float, sample) -> Optional[float]:
    """Contact point of a nonnegative sitting drop of mass M, if one exists.

    M(tau) is not monotone on the sitting branch, so it is read off
    `sample = _sitting_sample(alpha)`: the first interval between finite
    samples with (M_i - M)(M_i+1 - M) <= 0 is solved by `_invert_mass` from
    the linear interpolant, and its root is kept if its contact curvature is
    >= 0 (else the next such interval is tried).  Within a strictly monotone
    run such intervals are contiguous, and a run has one only if its end
    masses bracket M (every sample mass is above 1e-3, so no product
    underflows); bisection finds the first.
    """
    taus, masses, runs = sample
    for first, last, falling in runs:
        low, high = (masses[last], masses[first]) if falling else (masses[first], masses[last])
        if not low <= M <= high:
            continue
        if falling:
            i = bisect.bisect_left(masses, -M, first, last + 1, key=operator.neg)
        else:
            i = bisect.bisect_left(masses, M, first, last + 1)
        for i in range(max(i - 1, first), last):
            f_lo, f_hi = float(masses[i] - M), float(masses[i + 1] - M)
            if not f_lo * f_hi <= 0:
                break
            lo, hi = float(taus[i]), float(taus[i + 1])
            if f_lo == 0.0:
                return lo
            start = lo + (hi - lo) * f_lo / (f_lo - f_hi)
            tau, _, curvature = _invert_mass("sitting", alpha, M, lo, hi, f_lo, start)
            if curvature >= 0.0:
                return float(tau)
    return None


CATALOG_SPLITS = 9  # interior mass splits sampled for two-droplet states


def catalog(alpha: float, M: float, sample) -> list:
    """All constructible zero-dissipation steady states of total mass M.

    Always contains the minimizer.  For alpha > 1 it adds, when they exist:
    the lone sitting drop of mass M, the smooth film (M (alpha^2-1) >= 2pi),
    and two-droplet states sampled on an equispaced grid of CATALOG_SPLITS
    interior mass splits, keeping only pairs with disjoint supports.  Every
    sitting drop has contact curvature >= 0 (see `_contact`).  A split's
    sitting drop is looked up first, its hanging drop only if that exists.
    Entries carry their energies; for alpha <= 1 the minimizer is provably
    the only entry.  sample is `_sitting_sample(alpha)`: a caller with many
    masses at one alpha builds it once and passes it to every call.
    """
    states = [minimizer(alpha, M)]
    if alpha <= 1.0:
        return states
    tau_s = _sitting_tau_for_mass(alpha, M, sample)
    if tau_s is not None:
        states.append(_make_state("sitting_drop", (sitting_drop(alpha, tau_s),)))
    if M * (alpha**2 - 1) >= TWO_PI:
        states.append(_make_state("smooth_film", (smooth_film(alpha, M),)))
    for k in range(1, CATALOG_SPLITS + 1):
        m_hang = M * k / (CATALOG_SPLITS + 1)
        tau2 = _sitting_tau_for_mass(alpha, M - m_hang, sample)
        if tau2 is None:
            continue
        tau1 = tau_from_mass(alpha, m_hang)  # in range: (M - m_hang)/9 <= m_hang < M
        if tau1 < tau2:
            pair = (hanging_drop(alpha, tau1), sitting_drop(alpha, tau2))
            states.append(_make_state("two_droplet", pair))
    return states
