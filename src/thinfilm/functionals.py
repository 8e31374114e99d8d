"""Energy, dissipation and entropy functionals, and the diagnostics record
a run writes at each sample.

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

from .grid import Field, distances, integrate, read_table, slope_square_sum, write_table


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
    """E(u) by spectral derivative plus trapezoid quadrature, both read off
    one rfft: int u_x^2 by Parseval (slope_square_sum) and, as cos x_i =
    -cos(2 pi i/N) on the grid, int u cos x = -h Re rfft(u)[1]."""
    v = u.values
    h = u.grid.h
    coeffs = np.fft.rfft(v)
    return (0.5 * h * (slope_square_sum(coeffs) - alpha**2 * float(np.dot(v, v)))
            + h * float(coeffs[1].real))


def dissipation(u: Field, params: Params, delta: Optional[float] = None,
                u_min: Optional[float] = None) -> float:
    """D(u) restricted to the positivity set {u > delta}.

    The integrand is evaluated only at nodes at circular distance >= 3h
    from any node with u <= delta, so the derivative stencils never reach
    across a contact kink.  Derivatives here are high-order centered
    differences rather than global trigonometric ones: a C^{1,1} profile
    leaves an O(1) Dirichlet-kernel tail in its global spectral third
    derivative over the whole wet set, which would swamp the integral no
    matter how fine the grid.  u_xxx + alpha^2 u_x is one antisymmetric
    7-point stencil, the sum of the fourth-order centered differences of both
    terms, applied to one periodically padded copy of u; the forcing sin x
    is the grid's sin_nodes.  delta defaults to 1e-7 * max(u); when
    max(u) <= 0 the positivity set is empty and D = 0.  An explicit delta
    must be positive.  u_min is min(u) when the caller has it, and is
    computed otherwise: when it exceeds delta every node is active and no
    mask is formed.
    """
    v = u.values
    if delta is None:
        delta = 1e-7 * float(v.max())
        if delta <= 0.0:  # max u <= 0: the positivity set is empty
            return 0.0
    if delta <= 0:
        raise ValueError("delta must be positive")
    if (float(v.min()) if u_min is None else u_min) > delta:
        active = slice(None)  # a view of every node, not a boolean gather
    else:
        wet = v > delta
        if not wet.any():
            return 0.0
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
    w = np.concatenate((v[-3:], v, v[:3]))  # w[i + 3] = v[i mod N]
    res = (c0 * (w[0:N] - w[6:N + 6]) + c1 * (w[1:N + 1] - w[5:N + 5])
           + c2 * (w[2:N + 2] - w[4:N + 4]) - u.grid.sin_nodes)
    return float(h * np.sum(v[active] ** params.n * res[active] ** 2))


def entropy(u: Field, beta: float, u_min: Optional[float] = None) -> float:
    """S_beta(u) = h sum u_i^(-beta); inf when some node is at or below
    10^(-300/beta), past which one term alone would exceed 1e300 (a dry
    region has such nodes).  u_min is min(u) when the caller has it, and is
    computed otherwise.

    beta = n - 3/2 is Kadanoff's entropy, beta = n - 2 the Bernis-Friedman
    one.  Infinite entropy is meaningful: steady states with dry regions
    have it.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if (float(u.values.min()) if u_min is None else u_min) <= 10.0 ** (-300.0 / beta):
        return math.inf
    return float(u.grid.h * np.sum(u.values ** (-beta)))


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
    energy of u when the caller already has it, and is computed otherwise.
    One min(u) serves the dissipation's and the entropies' tests, and one
    difference u - ref the three distances."""
    bf, kad = params.n - 2.0, params.n - 1.5
    u_min = float(u.values.min())
    dH1, dL2, dLinf = distances(u, ref)
    return DiagnosticsSample(
        t=t,
        E=energy(u, params.alpha) if E is None else E,
        D=dissipation(u, params, u_min=u_min),
        mass=integrate(u),
        S_bf=entropy(u, bf, u_min) if bf > 0 else math.nan,
        S_kad=entropy(u, kad, u_min) if kad > 0 else math.nan,
        dH1=dH1,
        dL2=dL2,
        dLinf=dLinf,
    )


def write_diagnostics_csv(samples, path) -> None:
    # vars, not dataclasses.astuple: astuple deep-copies every sample
    write_table(path, DIAGNOSTICS_HEADER, (vars(s).values() for s in samples))


def read_diagnostics_csv(path) -> np.ndarray:
    """Diagnostics series as a structured array with the CSV column names."""
    return read_table(path, DIAGNOSTICS_HEADER)
