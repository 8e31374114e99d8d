"""Energy, dissipation and entropy functionals, and the diagnostics table
a run writes, one row per sample.

The energy

    E(u) = 1/2 int (u_x^2 - alpha^2 u^2) dx - int u cos x dx

is the Lyapunov functional of the flow; its formal rate of decrease is the
dissipation D(u) = int_{u>0} u^n (u_xxx + alpha^2 u_x - sin x)^2 dx.  The
entropy family S_beta(u) = int u^(-beta) dx controls positivity: along
solutions it grows at most linearly, which is what limits how fast dry
regions can form.

The energy takes one field; the run needs it at every step attempt.  The
dissipation, the entropies and the distances take a block (k, N) of sampled
states and return one value per row, each in one row-wise NumPy pass, so a
sample pays a share of each call's fixed cost; a single field is a block
with k = 1, and a row's values do not depend on its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (Field, PeriodicGrid, distances, read_table, slope_square_sum, table_dtype,
                   write_table)


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
    return (0.5 * h * (float(slope_square_sum(coeffs)) - alpha**2 * float(np.dot(v, v)))
            + h * float(coeffs[1].real))


def dissipation(U: np.ndarray, grid: PeriodicGrid, params: Params) -> np.ndarray:
    """D of each row u of the block U (k, N), restricted to its positivity
    set {u > delta}, delta = 1e-7 max(u); an array of k.

    The integrand is evaluated only at nodes at circular distance >= 3h
    from any node with u <= delta, so the derivative stencils never reach
    across a contact kink.  Derivatives here are high-order centered
    differences rather than global trigonometric ones: a C^{1,1} profile
    leaves an O(1) Dirichlet-kernel tail in its global spectral third
    derivative over the whole wet set, which would swamp the integral no
    matter how fine the grid.  u_xxx + alpha^2 u_x is one antisymmetric
    7-point stencil, the sum of the fourth-order centered differences of both
    terms, applied to one periodically padded copy of U, less the forcing
    sin x at the grid's nodes.  A row with max(u) <= 0 has an empty
    positivity set and D = 0.  A row whose minimum exceeds its delta has
    every node active, and only the other rows form masks, one row at a time.
    """
    delta = 1e-7 * U.max(axis=1)
    full = U.min(axis=1) > delta
    h = grid.h
    a2 = params.alpha**2
    c0 = 1.0 / (8.0 * h**3)
    c1 = a2 / (12.0 * h) - 1.0 / h**3
    c2 = 13.0 / (8.0 * h**3) - 2.0 * a2 / (3.0 * h)
    N = U.shape[1]
    W = np.concatenate((U[:, -3:], U, U[:, :3]), axis=1)  # W[:, i + 3] = U[:, i mod N]
    res = (c0 * (W[:, 0:N] - W[:, 6:N + 6]) + c1 * (W[:, 1:N + 1] - W[:, 5:N + 5])
           + c2 * (W[:, 2:N + 2] - W[:, 4:N + 4]) - np.sin(grid.nodes))
    D = np.zeros(U.shape[0])
    D[full] = h * np.sum(U[full] ** params.n * res[full] ** 2, axis=1)
    for i in np.flatnonzero(~full & (delta > 0.0)):  # max u <= 0: D stays 0
        dry = U[i] <= delta[i]
        active = ~(dry | np.roll(dry, 1) | np.roll(dry, -1) | np.roll(dry, 2) | np.roll(dry, -2))
        D[i] = h * np.sum(U[i][active] ** params.n * res[i][active] ** 2)
    return D


def entropy(U: np.ndarray, grid: PeriodicGrid, beta: float) -> np.ndarray:
    """S_beta of each row u of the block U (k, N), h sum u_i^(-beta); an
    array of k, inf in a row whose minimum is at or below
    10^(-300/beta), past which one term alone would exceed 1e300 (a dry
    region has such nodes).

    beta = n - 3/2 is Kadanoff's entropy, beta = n - 2 the Bernis-Friedman
    one.  Infinite entropy is meaningful: steady states with dry regions
    have it.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    finite = U.min(axis=1) > 10.0 ** (-300.0 / beta)
    S = np.full(U.shape[0], math.inf)
    S[finite] = grid.h * np.sum(U[finite] ** (-beta), axis=1)
    return S


DIAGNOSTICS_HEADER = "t,E,D,mass,S_bf,S_kad,dH1,dL2,dLinf"
# One float column per diagnostics.csv column.  S_bf and S_kad are the Bernis-Friedman
# (beta = n - 2) and Kadanoff (beta = n - 3/2) entropies: inf on a dry set, NaN where beta <= 0.
DIAGNOSTICS_DTYPE = table_dtype(DIAGNOSTICS_HEADER)


def diagnostics_sample(ts, U: np.ndarray, params: Params, ref: Field, Es) -> np.ndarray:
    """Measure the full diagnostics set of the block of k states U (k, N),
    row i at time ts[i] with energy Es[i] (which the run carries from step
    to step): a diagnostics table (DIAGNOSTICS_DTYPE) of k rows, in order.

    Each column is one row-wise NumPy pass over the block: one row sum
    gives the masses, and one difference U - ref (one rfft along the rows)
    the three distances.  No row's values depend on the other rows, so a
    single state is a block with k = 1.
    """
    grid = ref.grid
    bf, kad = params.n - 2.0, params.n - 1.5
    table = np.empty(U.shape[0], DIAGNOSTICS_DTYPE)
    table["t"] = ts
    table["E"] = Es
    table["D"] = dissipation(U, grid, params)
    table["mass"] = grid.h * U.sum(axis=1)
    table["S_bf"] = entropy(U, grid, bf) if bf > 0 else math.nan
    table["S_kad"] = entropy(U, grid, kad) if kad > 0 else math.nan
    table["dH1"], table["dL2"], table["dLinf"] = distances(U, ref)
    return table


def write_diagnostics_csv(table: np.ndarray, path) -> None:
    write_table(path, DIAGNOSTICS_HEADER, table.tolist())


def read_diagnostics_csv(path) -> np.ndarray:
    """The diagnostics table of a diagnostics.csv (DIAGNOSTICS_DTYPE)."""
    return read_table(path, DIAGNOSTICS_HEADER)
