"""Energy, dissipation and entropy functionals, and the analytic bounds
used both as run-time diagnostics and as test oracles.

The energy

    E(u) = 1/2 int (u_x^2 - alpha^2 u^2) dx - int u cos x dx

is the Lyapunov functional of the flow; its formal rate of decrease is the
dissipation D(u) = int_{u>0} u^n (u_xxx + alpha^2 u_x - sin x)^2 dx.  The
entropy family S_beta(u) = int u^(-beta) dx controls positivity: along
solutions it grows at most linearly, which is what limits how fast dry
regions can form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .grid import (
    Field,
    derivative,
    h1_distance,
    integrate,
    l2_distance,
    linf_distance,
    read_table,
    spectrum,
    write_table,
    _check_same_grid,
)


@dataclass(frozen=True)
class Params:
    """Model parameters: mobility exponent n, geometric constant alpha, and
    Bernis-Friedman regularization strength eps (keyword only).  The mass
    is not a parameter: the field it is used with fixes it."""

    n: float
    alpha: float
    eps: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        if self.n <= 0 or self.alpha <= 0 or self.eps < 0:
            raise ValueError("require n > 0, alpha > 0, eps >= 0")


def energy(u: Field, alpha: float) -> float:
    """E(u) by spectral derivative plus trapezoid quadrature."""
    ux = derivative(u, 1).values
    v = u.values
    h = u.grid.h
    return float(0.5 * h * np.sum(ux * ux - alpha**2 * v * v)
                 - h * np.dot(v, np.cos(u.grid.nodes)))


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
    k = np.rint(u.grid.modes).astype(int)
    nonzero = k != 0
    quad = np.pi * np.sum((k[nonzero] ** 2 - alpha**2) * np.abs(coeffs[nonzero]) ** 2)
    linear = np.pi * np.real(coeffs[k == 1][0] + coeffs[k == -1][0])
    return float(quad - alpha**2 * M**2 / (4.0 * np.pi) - linear)


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


def dissipation(u: Field, params: Params, delta: Optional[float] = None) -> float:
    """D(u) restricted to the positivity set {u > delta}.

    The integrand is evaluated only at nodes at circular distance >= 3h
    from any node with u <= delta, so the derivative stencils never reach
    across a contact kink.  Derivatives here are high-order centered
    differences rather than global trigonometric ones: a C^{1,1} profile
    leaves an O(1) Dirichlet-kernel tail in its global spectral third
    derivative over the whole wet set, which would swamp the integral no
    matter how fine the grid.  delta defaults to 1e-7 * max(u).
    """
    v = u.values
    if delta is None:
        delta = 1e-7 * float(v.max())
    if delta <= 0:
        raise ValueError("delta must be positive")
    wet = v > delta
    if not wet.any():
        return 0.0
    if wet.all():
        active = wet
    else:
        dry = ~wet
        near_dry = dry.copy()
        for s in (1, 2):
            near_dry |= np.roll(dry, s) | np.roll(dry, -s)
        active = wet & ~near_dry
        if not active.any():
            return 0.0
    h = u.grid.h
    res = _fd3(v, h) + params.alpha**2 * _fd1(v, h) - np.sin(u.grid.nodes)
    return float(h * np.sum(v[active] ** params.n * res[active] ** 2))


def default_entropy_floor(beta: float) -> float:
    # keeps the clamped value <= 1e300 instead of overflowing
    return max(10.0 ** (-300.0 / beta), 5e-324)


@dataclass(frozen=True)
class EntropyResult:
    """Clamped entropy value plus a flag marking that the true value is +inf
    (some node at or below the clamp floor, e.g. a dry region)."""

    value: float
    infinite: bool

    def __float__(self):
        return math.inf if self.infinite else self.value


def entropy(u: Field, beta: float, floor: Optional[float] = None) -> EntropyResult:
    """S_beta(u) = h sum max(u_i, floor)^(-beta).

    beta = n - 3/2 is Kadanoff's entropy, beta = n - 2 the Bernis-Friedman
    one.  Infinite entropy is meaningful (steady states with dry regions
    have it), so it is surfaced as a flag rather than an overflow.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if floor is None:
        floor = default_entropy_floor(beta)
    if floor <= 0:
        raise ValueError("floor must be positive")
    clamped = np.maximum(u.values, floor)
    value = float(u.grid.h * np.sum(clamped ** (-beta)))
    return EntropyResult(value, bool((u.values <= floor).any()))


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


@dataclass(frozen=True)
class DiagnosticsSample:
    """One time-stamped diagnostics record along a trajectory; its fields
    are the diagnostics.csv columns, in order.

    S_bf and S_kad are the Bernis-Friedman (beta = n - 2) and Kadanoff
    (beta = n - 3/2) entropies: inf on a dry set, NaN where beta <= 0.
    Distances are measured against the reference minimizer of the
    trajectory's mass.
    """

    t: float
    E: float
    D: float
    mass: float
    S_bf: float
    S_kad: float
    dH1: float
    dL2: float
    dLinf: float


DIAGNOSTICS_HEADER = ",".join(fl.name for fl in fields(DiagnosticsSample))


def diagnostics_sample(t: float, u: Field, params: Params, ref: Field,
                       E: Optional[float] = None) -> DiagnosticsSample:
    """Measure the full diagnostics set for state u at time t; E is the
    energy of u when the caller already has it, and is computed otherwise."""
    bf, kad = params.n - 2.0, params.n - 1.5
    return DiagnosticsSample(
        t=t,
        E=energy(u, params.alpha) if E is None else E,
        D=dissipation(u, params),
        mass=integrate(u),
        S_bf=float(entropy(u, bf)) if bf > 0 else math.nan,
        S_kad=float(entropy(u, kad)) if kad > 0 else math.nan,
        dH1=h1_distance(u, ref),
        dL2=l2_distance(u, ref),
        dLinf=linf_distance(u, ref),
    )


def write_diagnostics_csv(samples, path) -> None:
    # vars, not dataclasses.astuple: astuple deep-copies every sample
    write_table(path, DIAGNOSTICS_HEADER, (vars(s).values() for s in samples))


def read_diagnostics_csv(path) -> np.ndarray:
    """Diagnostics series as a structured array with the CSV column names."""
    return read_table(path, DIAGNOSTICS_HEADER)
