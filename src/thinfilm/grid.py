"""Periodic grid and field primitives.

Everything downstream works on a uniform N-point discretization of the
circle [-pi, pi).  Quadrature is the periodic trapezoid rule (h * sum of
nodal values), which is spectrally accurate on this grid; differentiation
for diagnostics is discrete Fourier, exact for resolved trigonometric
polynomials.  The time integrator deliberately does not use these
operators -- it has its own compact stencils so that its Jacobian stays
banded (see evolution.py).

Fields with kinks (droplet profiles are C^{1,1} at their contact points)
are differentiated spectrally only up to first order for norm purposes;
higher spectral derivatives of such fields are meaningful only away from
the kinks and are restricted accordingly by the callers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class PeriodicGrid:
    """Uniform nodes x_i = -pi + i*h, i = 0..N-1, with spacing h = 2*pi/N."""

    N: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N % 2 != 0 or self.N < 16:
            raise ValueError("N must be even >= 16")
        h = TWO_PI / self.N
        nodes = -np.pi + h * np.arange(self.N)
        nodes.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", nodes)

    def __eq__(self, other):
        return isinstance(other, PeriodicGrid) and other.N == self.N

    def __hash__(self):
        return hash(("PeriodicGrid", self.N))


def make_grid(N: int) -> PeriodicGrid:
    return PeriodicGrid(int(N))


@dataclass(frozen=True, eq=False)
class Field:
    """Real nodal samples of a function on a PeriodicGrid.

    Immutable after construction.  A field flagged nonnegative must not dip
    below -1e-13 (round-off slack for profiles that vanish on dry regions).
    """

    grid: PeriodicGrid
    values: np.ndarray
    nonnegative: bool = False

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.N,):
            raise ValueError(f"values must have shape ({self.grid.N},), got {vals.shape}")
        if self.nonnegative and vals.min() < -1e-13:
            raise ValueError("field flagged nonnegative has values below -1e-13")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def mass(self) -> float:
        return integrate(self)


def constant_field(grid: PeriodicGrid, c: float) -> Field:
    return Field(grid, np.full(grid.N, float(c)), nonnegative=c >= 0.0)


def integrate(u: Field) -> float:
    """Periodic trapezoid rule; exact for trigonometric polynomials of degree < N."""
    return float(u.grid.h * u.values.sum())


def l2_norm(u: Field) -> float:
    return float(np.sqrt(u.grid.h * np.dot(u.values, u.values)))


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


def _check_same_grid(u: Field, v: Field):
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")


def h1_distance(u: Field, v: Field) -> float:
    """L2 norm of the derivative difference, d(u,v) = ||u_x - v_x||_2.

    Equivalent to the full H1 distance only when u and v share their mass
    (mean-zero difference); unequal masses are allowed but warned about.
    """
    _check_same_grid(u, v)
    if abs(integrate(u) - integrate(v)) > 1e-10:
        warnings.warn("h1_distance called on fields of unequal mass; "
                      "the H1-equivalence argument needs a mean-zero difference")
    diff = Field(u.grid, u.values - v.values)
    return l2_norm(derivative(diff, 1))


def l2_distance(u: Field, v: Field) -> float:
    _check_same_grid(u, v)
    return l2_norm(Field(u.grid, u.values - v.values))


def linf_distance(u: Field, v: Field) -> float:
    _check_same_grid(u, v)
    return float(np.abs(u.values - v.values).max())


def write_table(path, header: str, rows) -> None:
    """The layout of every CSV table: the header line, then one line per
    row, numbers with 17 significant digits and strings as they are."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join([c if isinstance(c, str) else f"{c:.17g}" for c in row]) + "\n")


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
