"""Grid, quadrature, spectral differentiation, distances, Fourier coefficients,
and the CSV table layout."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinfilm.grid import (
    Field,
    constant_field,
    distances,
    integrate,
    make_grid,
    read_field_csv,
    read_table,
    write_field_csv,
    write_table,
)

from oracles import derivative, fourier_coeff, spectrum, wavenumbers, write_table_per_cell

TWO_PI = 2.0 * np.pi


def random_smooth_field(grid, rng, max_mode=20, scale=1.0):
    """Band-limited random field (trig polynomial, exactly resolved)."""
    vals = np.full(grid.N, rng.normal())
    for p in range(1, max_mode + 1):
        vals += scale * rng.normal() / p * np.cos(p * grid.nodes)
        vals += scale * rng.normal() / p * np.sin(p * grid.nodes)
    return Field(grid, vals)


class TestMakeGrid:
    def test_spacing_n16(self):
        g = make_grid(16)
        assert g.h == pytest.approx(np.pi / 8, abs=0)

    def test_nodes_n256(self):
        g = make_grid(256)
        assert g.nodes[0] == -np.pi
        assert g.nodes[-1] == pytest.approx(np.pi - TWO_PI / 256, rel=1e-15)

    @pytest.mark.parametrize("bad", [15, 17, 14, 8, 0, -4])
    def test_rejects_odd_or_tiny(self, bad):
        with pytest.raises(ValueError, match="even"):
            make_grid(bad)


class TestIntegrate:
    def test_constant(self):
        assert integrate(constant_field(make_grid(64), 1.0)) == pytest.approx(TWO_PI, rel=1e-15)

    def test_cosine_vanishes(self):
        g = make_grid(64)
        assert abs(integrate(Field(g, np.cos(g.nodes)))) < 1e-14

    def test_one_plus_cos(self):
        g = make_grid(64)
        assert integrate(Field(g, 1.0 + np.cos(g.nodes))) == pytest.approx(TWO_PI, abs=1e-13)

    def test_linearity(self):
        g = make_grid(128)
        rng = np.random.default_rng(3)
        u, v = random_smooth_field(g, rng), random_smooth_field(g, rng)
        lhs = integrate(Field(g, 2.5 * u.values - 0.7 * v.values))
        assert lhs == pytest.approx(2.5 * integrate(u) - 0.7 * integrate(v), abs=1e-12)

    def test_rotation_invariance(self):
        g = make_grid(128)
        u = random_smooth_field(g, np.random.default_rng(4))
        for shift in (1, 17, 64):
            assert integrate(Field(g, np.roll(u.values, shift))) == pytest.approx(
                integrate(u), abs=1e-13)


def dense_dft_derivative(v, orders, block=256):
    """Spectral derivatives of real samples v by dense DFT sums over the modes
    p = -N/2+1..N/2, the Nyquist mode p = N/2 dropped for odd orders and kept
    with -p^2 for even ones.  The twiddles come from exact integer phases
    (p j mod N) and are built a block of modes at a time to bound memory."""
    N = v.shape[0]
    j = np.arange(N)
    out = {order: np.zeros(N) for order in orders}
    for start in range(-N // 2 + 1, N // 2 + 1, block):
        p = np.arange(start, min(start + block, N // 2 + 1))
        w = np.exp(2j * np.pi * (np.outer(p, j) % N) / N)  # w[p, j] = exp(i p x_j), up to a phase
        coeff = (w.conj() @ v) / N
        for order in orders:
            mult = (1j * p) ** order
            if order % 2 == 1:
                mult[p == N // 2] = 0.0
            out[order] += np.real((mult * coeff) @ w)
    return out


class TestDerivative:
    def test_sin_to_cos(self):
        g = make_grid(64)
        d = derivative(Field(g, np.sin(g.nodes)), 1)
        assert np.abs(d.values - np.cos(g.nodes)).max() < 1e-12

    def test_third_derivative_of_cos(self):
        # round-off amplifies like k_max^3, so keep the grid modest
        g = make_grid(32)
        d = derivative(Field(g, np.cos(g.nodes)), 3)
        assert np.abs(d.values - np.sin(g.nodes)).max() < 1e-12

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_constant_maps_to_zero(self, order):
        d = derivative(constant_field(make_grid(32), 4.2), order)
        assert np.abs(d.values).max() < 1e-13

    def test_bad_order(self):
        with pytest.raises(ValueError):
            derivative(constant_field(make_grid(32), 1.0), 4)

    def test_integral_of_derivative_vanishes(self):
        g = make_grid(256)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = random_smooth_field(g, rng)
            for order in (1, 2, 3):
                assert abs(integrate(derivative(u, order))) < 1e-12 * g.N

    @pytest.mark.parametrize("N", [16, 256, 4096])
    def test_matches_dense_dft(self, N):
        g = make_grid(N)
        rng = np.random.default_rng(N)
        # white noise carries every mode, the alternating term a strong Nyquist one
        vals = rng.standard_normal(N) + 2.0 * (-1.0) ** np.arange(N) + np.cos(g.nodes)
        ref = dense_dft_derivative(vals, (1, 2, 3))
        for order in (1, 2, 3):
            got = derivative(Field(g, vals), order).values
            assert np.abs(got - ref[order]).max() <= 1e-12 * np.abs(got).max()


class TestDistances:
    def test_h1_identity(self):
        g = make_grid(64)
        u = Field(g, np.cos(g.nodes))
        assert distances(u, u) == (0.0, 0.0, 0.0)

    def test_h1_cos_vs_zero(self):
        g = make_grid(64)
        u = Field(g, np.cos(g.nodes))
        z = constant_field(g, 0.0)
        assert distances(u, z)[0] == pytest.approx(np.sqrt(np.pi), abs=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="grids"):
            distances(constant_field(make_grid(32), 1.0), constant_field(make_grid(64), 1.0))

    def test_unequal_mass_warns(self):
        g = make_grid(32)
        with pytest.warns(UserWarning, match="unequal mass"):
            distances(constant_field(g, 1.0), constant_field(g, 2.0))

    def test_l2_linf(self):
        g = make_grid(64)
        u = Field(g, np.cos(g.nodes))
        z = constant_field(g, 0.0)
        _, l2, linf = distances(u, z)
        assert l2 == pytest.approx(np.sqrt(np.pi), rel=1e-13)
        assert linf == pytest.approx(1.0, rel=1e-13)


class TestFourier:
    def test_constant_mean(self):
        assert fourier_coeff(constant_field(make_grid(32), 1.0), 0) == pytest.approx(1.0)

    def test_cosine_pair(self):
        g = make_grid(64)
        u = Field(g, np.cos(g.nodes))
        assert fourier_coeff(u, 1) == pytest.approx(0.5, abs=1e-14)
        assert fourier_coeff(u, -1) == pytest.approx(0.5, abs=1e-14)

    def test_sin_3x(self):
        g = make_grid(64)
        u = Field(g, np.sin(3 * g.nodes))
        assert fourier_coeff(u, 3) == pytest.approx(-0.5j, abs=1e-14)

    @pytest.mark.parametrize("p", [16, -16, 40])
    def test_aliasing_guard(self, p):
        with pytest.raises(ValueError, match="resolved"):
            fourier_coeff(constant_field(make_grid(32), 1.0), p)

    def test_spectrum_matches_direct_coefficients(self):
        g = make_grid(64)
        u = random_smooth_field(g, np.random.default_rng(6))
        coeffs = spectrum(u)
        k = wavenumbers(g.N)
        for p in (-5, -1, 0, 2, 9):
            assert coeffs[k == p][0] == pytest.approx(fourier_coeff(u, p), abs=1e-13)

    def test_parseval(self):
        rng = np.random.default_rng(7)
        g = make_grid(128)
        for _ in range(20):
            u = random_smooth_field(g, rng, max_mode=50)
            lhs = g.h * np.sum(u.values**2)
            rhs = TWO_PI * np.sum(np.abs(spectrum(u)) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_h1_distance_matches_fourier_sum(self):
        rng = np.random.default_rng(8)
        g = make_grid(128)
        for _ in range(10):
            u = random_smooth_field(g, rng)
            v = random_smooth_field(g, rng)
            # equalize masses so no warning fires
            v = Field(g, v.values - (integrate(v) - integrate(u)) / TWO_PI)
            du = spectrum(u) - spectrum(v)
            k = wavenumbers(g.N)
            ref = np.sqrt(TWO_PI * np.sum(k[k != 0] ** 2 * np.abs(du[k != 0]) ** 2))
            assert distances(u, v)[0] == pytest.approx(ref, rel=1e-10)


class TestFieldAndCsv:
    def test_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            Field(make_grid(32), np.zeros(31))

    def test_values_immutable(self):
        u = constant_field(make_grid(32), 1.0)
        with pytest.raises(ValueError):
            u.values[0] = 2.0

    def test_csv_round_trip_exact(self, tmp_path):
        g = make_grid(64)
        u = random_smooth_field(g, np.random.default_rng(9))
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        back = read_field_csv(path)
        assert back.grid.N == 64
        assert np.array_equal(back.values, u.values)  # 17 digits round-trip doubles

    def test_snapshot_bytes_are_17g_of_the_values(self, tmp_path):
        g = make_grid(256)
        u = random_smooth_field(g, np.random.default_rng(10))
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(g.nodes, u.values))
        assert path.read_bytes() == ("x,u\n" + rows).encode()

    def test_csv_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0\n")
        with pytest.raises(ValueError, match="header"):
            read_field_csv(path)


class TestTable:
    def test_layout_of_numbers_and_strings(self, tmp_path):
        # the layout the snapshot, diagnostics, massmap and catalog writers
        # always had: 17 significant digits, nan and inf spelled out, the
        # integer flag as 1, strings verbatim
        path = tmp_path / "t.csv"
        write_table(path, "M,kind,tau,energy,flag",
                    [(6.0, "hanging_drop", math.nan, -math.inf, 1),
                     (np.float64(0.1), "two_droplet", 1.0 / 3.0, 2.5e-300, 0)])
        assert path.read_text() == ("M,kind,tau,energy,flag\n"
                                    "6,hanging_drop,nan,-inf,1\n"
                                    "0.10000000000000001,two_droplet,"
                                    "0.33333333333333331,2.5e-300,0\n")

    def test_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = np.column_stack([rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40),
                                rng.random(40)])
        rows[3, 0], rows[5, 1] = math.nan, math.inf
        path = tmp_path / "t.csv"
        write_table(path, "a,b", rows)
        back = read_table(path, "a,b")
        assert back.dtype.names == ("a", "b")
        assert np.array_equal(back["a"], rows[:, 0], equal_nan=True)
        assert np.array_equal(back["b"], rows[:, 1])

    def test_single_row_is_one_dimensional(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, "a,b", [(1.0, 2.0)])
        back = read_table(path, "a,b")
        assert back.shape == (1,) and back["b"][0] == 2.0

    def test_wrong_header_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, "a,b", [(1.0, 2.0)])
        with pytest.raises(ValueError, match="expected header 'b,a', got 'a,b'"):
            read_table(path, "b,a")


CELLS = {
    "str": st.text(st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",))),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "np": st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    "int": st.integers(-10**15, 10**15),
}


@st.composite
def typed_rows(draw):
    """Rows that all share one column pattern of str, float, NumPy float and int cells."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    return draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=8))


class TestTableFormat:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(typed_rows())
    def test_matches_per_cell_format(self, tmp_path_factory, rows):
        d = tmp_path_factory.mktemp("table")
        write_table(d / "got.csv", "h", rows)
        write_table_per_cell(d / "want.csv", "h", rows)
        assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()

    @pytest.mark.parametrize("second", [(1.0, 2.0), ("x", "y"), ("x",), ("x", 2.0, 3.0),
                                        (np.float64(1.0), 2.0)])
    def test_other_cell_pattern_refused(self, tmp_path, second):
        # the first row fixes one str column and one number column
        with pytest.raises(TypeError):
            write_table(tmp_path / "t.csv", "a,b", [("x", 1.0), second])
