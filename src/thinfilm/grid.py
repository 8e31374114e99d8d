"""Periodic grid and field primitives.

Everything downstream works on a uniform N-point discretization of the
circle [-pi, pi).  Quadrature is the periodic trapezoid rule (h * sum of
nodal values), which is spectrally accurate on this grid.  The one
derivative is the scheme's forward difference (u_{i+1} - u_i)/h.  The
energy, the dissipation and the time integrator build compact stencils
from it, so that the Jacobian stays banded (functionals.flux_terms,
evolution.py), and the distance dH1 (distances) is its seminorm, whose
square is twice the energy's gradient term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class PeriodicGrid:
    """Uniform nodes x_i = -pi + i*h, i = 0..N-1, with spacing h = 2*pi/N.
    Two grids compare by identity; grids of one N have the same nodes."""

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


def constant_field(grid: PeriodicGrid, c: float) -> Field:
    return Field(grid, np.full(grid.N, float(c)))


def integrate(u: Field) -> float:
    """Periodic trapezoid rule; exact for trigonometric polynomials of degree < N."""
    return float(u.grid.h * u.values.sum())


def distances(U: np.ndarray, ref: Field) -> tuple:
    """(dH1, dL2, dLinf) of each row of the block U (k, N) from ref, three
    arrays of k, all from the one difference D = U - ref, row by row:
    dH1 = sqrt(h sum_i ((D_{i+1} - D_i)/h)^2), the forward-difference H1
    seminorm whose square is the gradient term of the scheme's energy,
    dL2 = ||D||_2 and dLinf = max |D|.

    dH1 is equivalent to the full H1 distance only when a row and ref share
    their mass (mean-zero difference); unequal masses are allowed but warned
    about, once per row.
    """
    if U.shape[1] != ref.grid.N:
        raise ValueError("fields live on different grids")
    h = ref.grid.h
    for _ in np.flatnonzero(np.abs(h * U.sum(axis=1) - integrate(ref)) > 1e-10):
        # perfbench counts this warning by its text
        warnings.warn("h1_distance called on fields of unequal mass; "
                      "the H1-equivalence argument needs a mean-zero difference")
    D = U - ref.values
    dD = np.concatenate((D[:, 1:], D[:, :1]), axis=1) - D
    return np.sqrt(np.vecdot(dD, dD) / h), np.sqrt(h * np.vecdot(D, D)), np.abs(D).max(axis=1)


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


def table_dtype(header: str) -> np.dtype:
    """The structured dtype of a numeric table: one float column per header name."""
    return np.dtype([(name, float) for name in header.split(",")])


def read_table(path, header: str) -> np.ndarray:
    """A numeric write_table table as a structured array (table_dtype(header)),
    parsed from the one handle that checked its header; another header is refused."""
    with open(path) as f:
        got = f.readline().strip()
        if got != header:
            raise ValueError(f"{path}: expected header {header!r}, got {got!r}")
        return np.loadtxt(f, delimiter=",", ndmin=1, dtype=table_dtype(header))


def write_field_csv(u: Field, path) -> None:
    """Snapshot table: header `x,u`, one row per node."""
    write_table(path, "x,u", zip(u.grid.nodes, u.values))


def read_field_csv(path) -> Field:
    data = read_table(path, "x,u")
    grid = make_grid(len(data))
    if not np.allclose(data["x"], grid.nodes, rtol=0.0, atol=1e-12):
        raise ValueError("node column does not match a uniform [-pi, pi) grid")
    return Field(grid, data["u"])
