"""Energy, dissipation and entropy functionals, and the diagnostics table
a run writes, one row per sample.

The energy

    E(u) = 1/2 int (u_x^2 - alpha^2 u^2) dx - int u cos x dx

is the Lyapunov functional of the flow; its formal rate of decrease is the
dissipation D(u) = int_{u>0} u^n (u_xxx + alpha^2 u_x - sin x)^2 dx.  Both
are measured as the scheme discretizes them: energy() is the 3-point E_h,
whose gradient term is half the square of grid.distances' dH1 seminorm,
dissipation() the rate at which the scheme's flux (flux_terms) lowers it.
The entropy family S_beta(u) = int u^(-beta) dx controls positivity: along
solutions it grows at most linearly, which limits how fast dry sets form.

The energy, the dissipation, the entropies and the distances take a block
(k, N) of sampled states and return one value per row, each in one row-wise
NumPy pass, so a sample pays a share of each call's fixed cost; a single
field is a block with k = 1, and a row's values do not depend on its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, PeriodicGrid, distances, read_table, table_dtype, write_table


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


def energy(U: np.ndarray, grid: PeriodicGrid, alpha: float) -> np.ndarray:
    """The scheme's energy E_h = h sum [(u_{i+1} - u_i)^2/(2h^2) - alpha^2 u_i^2/2
    - u_i cos x_i] of each row u of the block U (k, N), an array of k: E up to
    O(h^2), with minus the 3-point pressure as its gradient, so the scheme's flux
    lowers it at the rate D (Grun & Rumpf, Numer. Math. 87, 2000)."""
    h = grid.h
    dU = np.concatenate((U[:, 1:], U[:, :1]), axis=1) - U
    return h * (0.5 * (np.vecdot(dU, dU) / (h * h) - alpha**2 * np.vecdot(U, U))
                - np.vecdot(U, np.cos(grid.nodes)))


def edge_cos_differences(grid: PeriodicGrid) -> np.ndarray:
    """dcos[i + 1] = cos x_{i+1} - cos x_i on the N + 1 edges i = -1..N-1
    (periodic): the forcing's part of the edge pressure gradient, h gp."""
    cos_x = np.cos(grid.nodes)
    c = np.concatenate((cos_x[-1:], cos_x, cos_x[:1]))  # c[i + 1] = cos x_{i mod N}
    return c[1:] - c[:-1]


def edge_mobility(W: np.ndarray, params: Params) -> np.ndarray:
    """m = (f_eps(a) + f_eps(b))/2 with f_eps(z) = max(z, 0)^n + eps, the scheme's
    mobility, on the edge of each two consecutive entries a, b along W's last axis."""
    f = np.maximum(W, 0.0)  # -0.0 where where(W > 0, W, 0) has +0.0; f += eps equalises them
    f **= params.n
    f += params.eps
    m = f[..., :-1] + f[..., 1:]
    m *= 0.5
    return m


def edge_mobility_partials(W: np.ndarray, params: Params, scale: float = 1.0):
    """(dm/da, dm/db) times scale on the edges of edge_mobility(W, params):
    f_eps'/2 at the edge's end node a or b, as (0.5 scale n) z^(n-1) and
    exactly 0 at z <= 0.  Views of one nodal array: form products out of place."""
    pos = W > 0.0
    q = (0.5 * scale * params.n) * np.where(pos, np.where(pos, W, 1.0) ** (params.n - 1.0), 0.0)
    return q[..., :-1], q[..., 1:]


def largest_mobility(hi: float, params: Params) -> float:
    """f_eps(hi), nondecreasing in hi: the largest edge mobility of a field with max hi."""
    return max(hi, 0.0) ** params.n + params.eps


def flux_terms(V: np.ndarray, h: float, params: Params, dcos: np.ndarray):
    """The scheme's edge terms (m, gp) of each row v of V (..., N) on the
    N + 1 edges i = -1..N-1 (edge -1 is edge N-1), entry i + 1 on the edge
    from node i to i+1, so that the flux there is F = m gp; dcos =
    edge_cos_differences(grid).  m = edge_mobility of v_i and v_{i+1}, and
    gp = (p_{i+1} - p_i)/h, a second-order u_xxx + alpha^2 u_x - sin x, with
    the 3-point pressure p_i = (v_{i-1} - 2v_i + v_{i+1})/h^2 + alpha^2 v_i +
    cos x_i.  gp is formed by cascaded differences of v, not by differencing
    p: forming p first amplifies its round-off by 1/h^4, while differences of
    neighbouring values are exact (or nearly so), which keeps the flux at
    relative precision.  The periodic neighbours are slices of one copy of
    each row padded by two nodes.  The in-place steps keep this order of
    operations, which the oracles pin bit for bit."""
    W = np.concatenate((V[..., -2:], V, V[..., :2]), axis=-1)  # W[..., i + 2] = v[i mod N]
    dW = W[..., 1:] - W[..., :-1]  # dW[..., i + 2] = v[i+1] - v[i], i = -2..N
    ddu = dW[..., 1:] - dW[..., :-1]  # ddu[..., i + 1] = v[i+1] - 2v[i] + v[i-1], i = -1..N
    gp = ddu[..., 1:] - ddu[..., :-1]
    gp /= h**3
    a = params.alpha**2 * dW[..., 1:-1]
    a /= h
    gp += a
    gp += dcos / h
    return edge_mobility(W[..., 1:-1], params), gp


def dissipation(U: np.ndarray, grid: PeriodicGrid, params: Params) -> np.ndarray:
    """D of each row u of the block U (k, N) as the scheme dissipates it,
    h sum m gp^2 on the edges 0..N-1 of flux_terms(u): an array of k.  It is
    the rate at which the semi-discrete flow u_t = -div(m gp) lowers E_h
    (energy), so it reads zero at the scheme's equilibria.  With eps = 0 it
    is D on the positivity set: the mobility vanishes at a contact point, so
    a dry set needs no cutoff or mask, and a row with max(u) <= 0 has D = 0."""
    m, gp = flux_terms(U, grid.h, params, edge_cos_differences(grid))
    return grid.h * np.sum(m[..., 1:] * gp[..., 1:]**2, axis=-1)


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
    row i at time ts[i] with energy Es[i] (run() passes energy(U, ...)): a
    diagnostics table (DIAGNOSTICS_DTYPE) of k rows, in order.

    Each column is one row-wise NumPy pass over the block: one row sum
    gives the masses, and one difference U - ref the three distances.  No
    row's values depend on the other rows, so a single state is a block
    with k = 1.
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
