"""Periodic grid and field primitives.

Everything downstream works on a uniform N-point discretization of the
circle [-pi, pi).  Quadrature is the periodic trapezoid rule (h * sum of
nodal values), which is spectrally accurate on this grid.  The diagnostics
norms (the energy's int u_x^2 and dH1) use the discrete Fourier first
derivative D, exact for resolved trigonometric polynomials, and are
Parseval sums on one rfft: h sum (D v)_i^2 is a weighted sum of the squared
half-spectrum, with no transform back (see slope_square_sum).  The time
integrator deliberately does not use this operator -- it has its own
compact stencils so that its Jacobian stays banded (see evolution.py).

Fields with kinks (droplet profiles are C^{1,1} at their contact points)
are differentiated spectrally only up to first order for norm purposes;
higher derivatives of such fields are meaningful only away from the kinks
and are restricted accordingly by the callers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class PeriodicGrid:
    """Uniform nodes x_i = -pi + i*h, i = 0..N-1, with spacing h = 2*pi/N,
    and sin_nodes = sin x_i, the forcing term of the dissipation."""

    N: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)
    sin_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N % 2 != 0 or self.N < 16:
            raise ValueError("N must be even >= 16")
        h = TWO_PI / self.N
        nodes = -np.pi + h * np.arange(self.N)
        sin_nodes = np.sin(nodes)
        nodes.setflags(write=False)
        sin_nodes.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "sin_nodes", sin_nodes)

    def __eq__(self, other):
        return isinstance(other, PeriodicGrid) and other.N == self.N

    def __hash__(self):
        return hash(("PeriodicGrid", self.N))


def make_grid(N: int) -> PeriodicGrid:
    return PeriodicGrid(int(N))


@dataclass(frozen=True, eq=False)
class Field:
    """Real nodal samples of a function on a PeriodicGrid, immutable after
    construction."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.N,):
            raise ValueError(f"values must have shape ({self.grid.N},), got {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def mass(self) -> float:
        return integrate(self)


def constant_field(grid: PeriodicGrid, c: float) -> Field:
    return Field(grid, np.full(grid.N, float(c)))


def integrate(u: Field) -> float:
    """Periodic trapezoid rule; exact for trigonometric polynomials of degree < N."""
    return float(u.grid.h * u.values.sum())


def slope_square_sum(coeffs: np.ndarray) -> float:
    """sum_i (D v)_i^2 for the real N-point samples v with coeffs = rfft(v),
    where D is the discrete Fourier first derivative: each mode p < N/2 is
    multiplied by i p, and the Nyquist mode p = N/2 is dropped (its odd
    derivative has no real representative on the grid).  By Parseval this
    is (2/N) sum_{0<p<N/2} p^2 |coeffs_p|^2."""
    N = 2 * (coeffs.shape[0] - 1)
    d = np.arange(1, N // 2) * coeffs[1:N // 2]
    return 2.0 / N * float(np.vdot(d, d).real)


def _check_same_grid(u: Field, v: Field):
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")


def distances(u: Field, v: Field) -> tuple:
    """(dH1, dL2, dLinf) of u from v, all three from the one difference
    d = u - v: dH1 = ||d_x||_2, the L2 norm of the derivative difference,
    dL2 = ||d||_2 and dLinf = max |d|.

    dH1 is equivalent to the full H1 distance only when u and v share their
    mass (mean-zero difference); unequal masses are allowed but warned about.
    """
    _check_same_grid(u, v)
    if abs(integrate(u) - integrate(v)) > 1e-10:  # perfbench counts this warning by its text
        warnings.warn("h1_distance called on fields of unequal mass; "
                      "the H1-equivalence argument needs a mean-zero difference")
    d = u.values - v.values
    h = u.grid.h
    return (math.sqrt(h * slope_square_sum(np.fft.rfft(d))), math.sqrt(h * np.dot(d, d)),
            float(np.abs(d).max()))


def write_table(path, header: str, rows) -> None:
    """The layout of every CSV table: the header line, then one line per
    row, numbers with 17 significant digits and strings as they are.

    Every row is formatted with one format string, built from the first
    row: `%s` for its str cells and `%.17g` for the others.  A later row
    whose length or str cells differ from the first row's raises TypeError,
    so no number is written as a string.
    """
    with open(path, "w") as f:
        f.write(header + "\n")
        fmt = None
        for row in rows:
            row = tuple(row)
            if fmt is None:
                text = [i for i, c in enumerate(row) if isinstance(c, str)]
                fmt = ",".join(["%s" if i in text else "%.17g" for i in range(len(row))]) + "\n"
            if text and not all(isinstance(row[i], str) for i in text):
                raise TypeError(f"{path}: row {row!r} has a number in a column of strings")
            f.write(fmt % row)


def read_table(path, header: str) -> np.ndarray:
    """A numeric write_table table as a structured array named by its
    columns; a file with another header is refused."""
    with open(path) as f:
        got = f.readline().strip()
    if got != header:
        raise ValueError(f"{path}: expected header {header!r}, got {got!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1,
                      dtype=[(name, float) for name in header.split(",")])


def write_field_csv(u: Field, path) -> None:
    """Snapshot table: header `x,u`, one row per node."""
    write_table(path, "x,u", zip(u.grid.nodes, u.values))


def read_field_csv(path) -> Field:
    data = read_table(path, "x,u")
    grid = make_grid(len(data))
    if not np.allclose(data["x"], grid.nodes, rtol=0.0, atol=1e-12):
        raise ValueError("node column does not match a uniform [-pi, pi) grid")
    return Field(grid, data["u"])
