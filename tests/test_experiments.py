"""Run configuration, CLI commands, CSV outputs, rate post-processing."""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from thinfilm import evolution, experiments, steady
from thinfilm.cli import main
from thinfilm.evolution import SchemeConfig, _same_time
from thinfilm.experiments import (
    ConfigError,
    InvariantViolation,
    ModeError,
    build_initial,
    catalog_sweep,
    cmd_catalog,
    cmd_evolve,
    cmd_massmap,
    cmd_rates,
    _line_fit,
    default_eps,
    massmap_table,
    parse_run_config,
    rates_exponential,
    rates_powerlaw,
    record_meta,
    saddle_onset,
)
from thinfilm.functionals import (DIAGNOSTICS_HEADER, Params, diagnostics_sample,
                                  read_diagnostics_csv)
from thinfilm.grid import Field, integrate, make_grid, read_field_csv, read_table

from oracles import record_table

TWO_PI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)

BASE_CONFIG = """\
# short uniform-film run
N = 128
n = 3
alpha = 1.0
t_end = 0.5
init = constant:1.0
dt0 = 1e-4
dt_max = 0.01
log_times = 0, 0.25, 0.5
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRunConfig:
    def test_parse_round_trip(self, tmp_path):
        cfg = parse_run_config(write_config(tmp_path))
        assert cfg.N == 128 and cfg.n == 3.0 and cfg.alpha == 1.0
        assert cfg.scheme.log_times == (0.0, 0.25, 0.5)
        assert cfg.eps is None  # auto
        assert cfg.scheme.dt_min == 1e-14  # default

    @pytest.mark.parametrize("missing", ["N", "n", "alpha", "t_end", "init"])
    def test_missing_required_key_named(self, tmp_path, missing):
        lines = [l for l in BASE_CONFIG.splitlines()
                 if not l.startswith(missing + " ")]
        with pytest.raises(ConfigError, match=f"missing config key: {missing}"):
            parse_run_config(write_config(tmp_path, "\n".join(lines)))

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (example,) = [block for block in readme.split("```")[1::2] if "\ninit = " in block]
        cfg = parse_run_config(write_config(tmp_path, example))
        assert (cfg.N, cfg.n, cfg.alpha, cfg.init, cfg.eps) == (256, 3.0, 1.0, "constant:1.0", None)
        assert cfg.scheme.t_end == 1000.0 and len(cfg.scheme.log_times) == 7

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_run_config(write_config(tmp_path, BASE_CONFIG + "bogus = 1\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_run_config(write_config(tmp_path, "N 128\n"))

    @pytest.mark.parametrize("line", ["t_end = nan", "dt_max = inf", "alpha = nan",
                                      "eps = -inf", "log_times = 0, nan, 0.5"])
    def test_non_finite_value_rejected(self, tmp_path, line):
        key = line.split()[0]
        lines = [l for l in BASE_CONFIG.splitlines() if not l.startswith(key + " ")]
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_run_config(write_config(tmp_path, "\n".join(lines + [line])))

    @pytest.mark.parametrize("line, message", [
        ("t_end = abc", "config key t_end must be a number, got 'abc'"),
        ("N = 2.5", "config key N must be an integer, got '2.5'"),
        ("log_times = 0, x, 0.5", "config key log_times must be a number, got 'x'"),
    ])
    def test_non_numeric_value_names_key(self, tmp_path, line, message):
        key = line.split()[0]
        lines = [l for l in BASE_CONFIG.splitlines() if not l.startswith(key + " ")]
        with pytest.raises(ConfigError) as exc:
            parse_run_config(write_config(tmp_path, "\n".join(lines + [line])))
        assert str(exc.value) == message

    def test_default_eps_scaling(self):
        assert default_eps(TWO_PI, 3.0) == pytest.approx(1e-8)
        assert default_eps(2 * TWO_PI, 3.0) == pytest.approx(8e-8)

    def test_build_initial_variants(self, tmp_path):
        cfg = parse_run_config(write_config(tmp_path))
        u = build_initial(cfg)
        assert np.all(u.values == 1.0)

        mini_cfg = BASE_CONFIG.replace("constant:1.0", f"minimizer:{TWO_PI}")
        cfg = parse_run_config(write_config(tmp_path, mini_cfg))
        u = build_initial(cfg)
        ref = steady.evaluate(steady.minimizer(1.0, TWO_PI), make_grid(128))
        assert np.array_equal(u.values, ref.values)

        bad = BASE_CONFIG.replace("constant:1.0", "bogus")
        with pytest.raises(ConfigError, match="init"):
            build_initial(parse_run_config(write_config(tmp_path, bad)))

    @pytest.mark.parametrize("init, message", [
        ("constant:abc", "config key init must be a number, got 'abc'"),
        ("constant:nan", "config key init must be finite, got nan"),
        ("minimizer:nan", "config key init must be finite, got nan"),
    ])
    def test_init_number_checked_like_other_keys(self, tmp_path, init, message):
        cfg = parse_run_config(write_config(tmp_path, BASE_CONFIG.replace("constant:1.0", init)))
        with pytest.raises(ConfigError) as exc:
            build_initial(cfg)
        assert str(exc.value) == message

    def test_sample_every_below_one_refused(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            parse_run_config(write_config(tmp_path, BASE_CONFIG + "sample_every = 0\n"))
        assert str(exc.value) == "sample_every must be >= 1"


REQUIRED_KEYS = ("N", "n", "alpha", "t_end", "init")
NUMERIC_KEYS = ("N", "n", "alpha", "t_end", "eps", "dt0", "dt_min", "dt_max", "log_times",
                "sample_every")
KNOWN_KEYS = NUMERIC_KEYS + ("init",)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def distinct_times(times):
    """No two of the sorted times name the same time (SchemeConfig refuses that)."""
    return not any(_same_time(a, b) for a, b in zip(times, times[1:]))


@st.composite
def valid_run_files(draw):
    """(text, scheme values, eps) of a valid run file holding the required
    keys and any subset of the optional ones.  The dt ranges are disjoint
    around the defaults, so every subset keeps dt_min <= dt0 <= dt_max."""
    t_end = draw(finite(0.0, 1e3))
    optional = draw(st.fixed_dictionaries({}, optional={
        "dt0": finite(1e-14, 0.5),
        "dt_min": finite(1e-16, 1e-14),
        "dt_max": finite(0.5, 10.0),
        "log_times": st.lists(finite(0.0, 1.0), max_size=5).map(
            lambda fs: tuple(sorted(f * t_end for f in fs))).filter(distinct_times),
        "sample_every": st.integers(1, 100),
        "eps": st.one_of(st.just("auto"), finite(0.0, 1.0)),
    }))
    lines = ["N = 64", "n = 3", "alpha = 1.0", "init = constant:1.0", f"t_end = {t_end!r}"]
    for key, value in optional.items():
        text = ", ".join(map(repr, value)) if key == "log_times" else str(value)
        lines.append(f"{key} = {text}")
    eps = optional.pop("eps", "auto")
    return "\n".join(lines) + "\n", dict(optional, t_end=t_end), None if eps == "auto" else eps


@st.composite
def refused_lines(draw):
    """(key, run-file text) with one refusal: a required key missing, an
    unknown key, or a non-numeric or non-finite value."""
    how = draw(st.sampled_from(["missing", "unknown", "non-numeric", "non-finite"]))
    if how == "unknown":
        key = draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(
            lambda k: k not in KNOWN_KEYS))
        return key, BASE_CONFIG + f"{key} = 1\n"
    key = draw(st.sampled_from(REQUIRED_KEYS if how == "missing" else NUMERIC_KEYS))
    lines = [l for l in BASE_CONFIG.splitlines() if not l.startswith(key + " ")]
    if how == "non-numeric":
        value = draw(st.from_regex(r"[a-z]{1,6}", fullmatch=True).filter(
            lambda v: v not in ("inf", "nan", "infinity", "auto")))
        lines.append(f"{key} = {value}")
    elif how == "non-finite":
        lines.append(f"{key} = {draw(st.sampled_from(['nan', 'inf', '-inf']))}")
    return key, "\n".join(lines) + "\n"


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestRunConfigProperties:
    @PROPERTY_SETTINGS
    @given(valid_run_files())
    def test_valid_file_parses_to_same_scheme(self, tmp_path, case):
        text, scheme_values, eps = case
        cfg = parse_run_config(write_config(tmp_path, text))
        assert cfg.scheme == SchemeConfig(**scheme_values)
        assert (cfg.N, cfg.n, cfg.alpha, cfg.init, cfg.eps) == (64, 3.0, 1.0, "constant:1.0", eps)

    @PROPERTY_SETTINGS
    @given(refused_lines())
    def test_every_refusal_names_its_key(self, tmp_path, case):
        key, text = case
        with pytest.raises(ConfigError) as exc:
            parse_run_config(write_config(tmp_path, text))
        assert f"key: {key}" in str(exc.value) or f"key {key} " in str(exc.value)


class TestMassmap:
    def test_alpha_one(self, tmp_path):
        out = tmp_path / "mm.csv"
        table = cmd_massmap(1.0, out, num=200)
        assert np.all(np.diff(table[:, 0]) > 0)
        assert np.all(np.diff(table[:, 1]) > 0)
        assert table[-1, 0] == pytest.approx(np.pi - 1e-3)
        assert table[-1, 1] > 1e3
        text = out.read_text().splitlines()
        assert text[0] == "tau,M"
        assert len(text) == 201

    def test_alpha_two_tau_capped(self):
        table = massmap_table(2.0, num=50)
        assert table[-1, 0] < np.pi / 2

    def test_alpha_half_limit_mass(self):
        table = massmap_table(0.5, num=200)
        limit = TWO_PI / 0.75
        assert abs(table[-1, 1] - limit) <= 0.01 * limit


class TestCatalogSweep:
    def test_writes_rows_and_orders_energies(self, tmp_path):
        out = tmp_path / "cat.csv"
        sweep = cmd_catalog(SQRT2, 5.5, 8.0, out, num=6)
        text = out.read_text().splitlines()
        assert text[0].startswith("M,kind,tau1,tau2")
        assert len(text) > 7  # at least some saddle rows beyond the minimizers
        for M, states in sweep:
            assert states[0].is_minimizer

    @pytest.mark.parametrize("alpha, lo, hi", [(SQRT2, 5.5, 8.0), (0.5, 5.0, 12.0)])
    def test_rows_put_each_component_in_its_columns(self, tmp_path, alpha, lo, hi):
        out = tmp_path / "cat.csv"
        cmd_catalog(alpha, lo, hi, out, num=4)
        slots = {"hanging_drop": (True, False), "smooth_film": (True, False),
                 "sitting_drop": (False, True), "two_droplet": (True, True)}
        kinds = set()
        with open(out) as f:
            for row in csv.DictReader(f):
                kinds.add(row["kind"])
                first, second = slots[row["kind"]]
                for col in ("mass1", "lambda1"):
                    assert (row[col] != "nan") == first
                for col in ("tau2", "mass2", "lambda2"):
                    assert (row[col] != "nan") == second
                assert (row["tau1"] != "nan") == (row["kind"] in ("hanging_drop", "two_droplet"))
                total = sum(float(row[c]) for c in ("mass1", "mass2") if row[c] != "nan")
                assert total == pytest.approx(float(row["M"]), rel=1e-12)
                assert row["is_minimizer"] in ("0", "1")
        assert len(kinds) >= 2

    def test_saddle_onset_location(self):
        onset = saddle_onset(SQRT2, 5.0, 8.0)
        assert 0.8 * TWO_PI <= onset <= 1.2 * TWO_PI

    @pytest.mark.parametrize("alpha", [1.2, SQRT2])
    def test_onset_is_the_film_threshold(self, alpha):
        # every sitting drop is heavier here, so the film comes first
        assert saddle_onset(alpha, 1.0, 30.0) == pytest.approx(TWO_PI / (alpha**2 - 1.0),
                                                               rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.2, SQRT2, 2.0, 3.0, 4.5, 5.0])
    def test_second_catalog_entry_starts_at_the_onset(self, alpha):
        onset = saddle_onset(alpha, 1e-3, 30.0)
        sample = steady._sitting_sample(alpha)
        assert len(steady.catalog(alpha, onset, sample)) >= 2
        assert len(steady.catalog(alpha, onset * (1.0 - 1e-9), sample)) == 1

    def test_onset_clipped_and_refused_outside_the_bracket(self):
        assert saddle_onset(SQRT2, 7.0, 8.0) == 7.0
        with pytest.raises(ValueError, match="inside the bracket"):
            saddle_onset(SQRT2, 1.0, 6.0)
        with pytest.raises(ValueError, match="empty bracket"):
            saddle_onset(SQRT2, 8.0, 5.0)
        with pytest.raises(ValueError, match="alpha <= 1"):
            saddle_onset(1.0, 1.0, 12.0)
        with pytest.raises(ValueError, match="alpha"):
            saddle_onset(6.0, 0.01, 12.0)

    def test_sweep_and_onset_reach_steady_through_module_attributes(self, tmp_path,
                                                                    monkeypatch):
        # the benchmark times these layers by replacing the module attributes,
        # so the sweep and the onset search must look each one up there
        calls = {}
        for name in ("catalog", "tau_from_mass", "mass_of_tau"):
            def counted(*args, _real=getattr(steady, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(steady, name, counted)
        cmd_catalog(SQRT2, 1.0, 12.0, tmp_path / "cat.csv", num=45)
        saddle_onset(SQRT2, 1.0, 12.0)
        assert sorted(calls) == ["catalog", "mass_of_tau", "tau_from_mass"]
        assert calls["catalog"] == 45  # the sweep; the onset needs no catalog

    def test_hanging_inversions_only_under_a_sitting_drop(self, monkeypatch):
        # one inversion per mass for the minimizer, then one per mass split
        # whose sitting part has a sitting drop: the other splits need no
        # hanging drop (inverting first took 450 calls here)
        masses = np.linspace(1.0, 12.0, 45)
        sample = steady._sitting_sample(SQRT2)
        splits = steady.CATALOG_SPLITS + 1
        sitting = sum(steady._sitting_tau_for_mass(SQRT2, M - M * k / splits, sample) is not None
                      for M in masses for k in range(1, splits))
        calls = []

        def counted(*args, _real=steady.tau_from_mass):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(steady, "tau_from_mass", counted)
        catalog_sweep(SQRT2, masses)
        assert len(calls) == 45 + sitting == 103

    def test_alpha_one_sweep_single_decreasing_branch(self, tmp_path):
        sweep = cmd_catalog(1.0, 1.0, 10.0, tmp_path / "cat1.csv", num=8)
        energies = []
        for M, states in sweep:
            assert len(states) == 1
            energies.append(states[0].energy)
        assert np.all(np.diff(energies) < 0)


class TestEvolveCommand:
    def test_outputs_and_round_trip(self, tmp_path):
        outdir = tmp_path / "out"
        record = cmd_evolve(write_config(tmp_path), outdir)
        names = sorted(os.listdir(outdir))
        assert "diagnostics.csv" in names and "meta.json" in names
        snaps = [n for n in names if n.startswith("snapshot_")]
        assert len(snaps) == 3

        meta = json.loads((outdir / "meta.json").read_text())
        u0 = build_initial(parse_run_config(write_config(tmp_path)))
        assert meta["N"] == u0.grid.N
        assert meta["mass"] == integrate(u0)  # exactly: the t = 0 sample's mass
        data = read_diagnostics_csv(outdir / "diagnostics.csv")
        params = Params(meta["n"], meta["alpha"], eps=meta["eps"])
        g = make_grid(meta["N"])
        ref = steady.evaluate(steady.minimizer(meta["alpha"], meta["mass"]), g)
        ref = Field(g, ref.values + meta["reference"]["shift"])  # the run's mass-consistent reference
        # re-reading a snapshot and re-running diagnostics reproduces the row
        for t_key, fname in meta["snapshots"].items():
            t = float(t_key)
            u = read_field_csv(outdir / fname)
            s = diagnostics_sample(t, u, params, ref)
            i = int(np.argmin(np.abs(data["t"] - t)))
            assert abs(data["t"][i] - t) <= 1e-12
            for col, val in (("E", s.E), ("D", s.D), ("mass", s.mass),
                             ("dH1", s.dH1), ("dL2", s.dL2), ("dLinf", s.dLinf),
                             ("S_kad", s.S_kad), ("S_bf", s.S_bf)):
                assert abs(data[col][i] - val) <= 1e-12 * max(1.0, abs(val))

    def test_meta_counts_steps_solves_and_rejections(self, tmp_path, monkeypatch):
        # TOL = 1e-8 brings error rejections, and a forced Newton failure
        # on the fifth attempt halves one step
        attempts, solves = [], []
        real_newton, real_solve = evolution._newton, evolution._solve_cyclic

        def newton(*args):
            attempts.append(None)
            v, converged, its = real_newton(*args)
            return v, converged and len(attempts) != 5, its

        def solve(*args):
            solves.append(None)
            return real_solve(*args)

        monkeypatch.setattr(evolution, "_newton", newton)
        monkeypatch.setattr(evolution, "_solve_cyclic", solve)
        monkeypatch.setattr(evolution, "TOL", 1e-8)
        record = cmd_evolve(write_config(tmp_path), tmp_path / "out")
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["steps"] == record.steps == len(record.samples) - 1
        assert meta["linear_solves"] == len(solves)
        rejections = meta["rejections"]
        assert set(rejections) == {"newton", "positivity", "energy", "error"}
        assert rejections["newton"] == 1 and rejections["error"] > 0
        assert sum(rejections.values()) == len(attempts) - meta["steps"]

    def test_in_memory_table_matches_csv(self, tmp_path):
        outdir = tmp_path / "out"
        record = cmd_evolve(write_config(tmp_path), outdir)
        disk = read_diagnostics_csv(outdir / "diagnostics.csv")
        mem = record_table(record)
        assert disk.dtype.names == tuple(DIAGNOSTICS_HEADER.split(","))
        for col in disk.dtype.names:  # bit for bit
            assert np.array_equal(disk[col], mem[col], equal_nan=True)
        meta = json.loads((outdir / "meta.json").read_text())
        for t_key, fname in meta["snapshots"].items():
            u = read_field_csv(outdir / fname)
            assert np.array_equal(u.values, record.snapshots[float(t_key)].values)


@pytest.fixture(scope="module")
def droplet_traj(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("droplet")
    outdir = tmp / "out"
    cfg = BASE_CONFIG.replace("t_end = 0.5", "t_end = 2.0")
    cmd_evolve(write_config(tmp, cfg), outdir)
    return outdir


@pytest.fixture(scope="module")
def film_traj(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("film")
    outdir = tmp / "out"
    cfg = ("N = 128\nn = 3\nalpha = 0.5\nt_end = 2.0\n"
           "init = constant:3.1830988618379067\n"
           "eps = 0\ndt0 = 1e-4\ndt_max = 0.01\n")
    cmd_evolve(write_config(tmp, cfg), outdir)
    return outdir


class TestRates:
    def test_powerlaw_on_droplet_trajectory(self, droplet_traj, tmp_path):
        out = tmp_path / "rates.json"
        report = cmd_rates(droplet_traj, "powerlaw", out)
        assert report.violations == 0
        assert report.K0 >= 0
        saved = json.loads(out.read_text())
        assert saved["violations"] == 0
        assert saved["mode"] == "powerlaw"

    def test_exponential_on_film_trajectory(self, film_traj):
        report = cmd_rates(film_traj, "exponential")
        meta = json.loads((film_traj / "meta.json").read_text())
        mini = steady.minimizer(0.5, meta["mass"])  # mass is 20 up to round-off
        mu = 0.75 * mini.value(np.pi) ** 3
        assert report.mu == pytest.approx(mu, rel=1e-6)
        # fitted up to the gap's minimum, before its O(h^4) plateau
        assert report.fitted_exponent <= -1.5 * report.mu
        assert report.slope_ratio == pytest.approx(
            report.fitted_exponent / (2 * report.mu), rel=1e-12)

    def test_line_fit_reports_as_polyfit_did(self, droplet_traj, film_traj, monkeypatch):
        fits = [(droplet_traj, rates_powerlaw), (film_traj, rates_exponential)]
        got = [fit(*experiments._load_trajectory(traj)) for traj, fit in fits]
        monkeypatch.setattr(experiments, "_line_fit",
                            lambda x, y: tuple(float(c) for c in np.polyfit(x, y, 1)))
        want = [fit(*experiments._load_trajectory(traj)) for traj, fit in fits]
        for a, b in zip(got, want):
            assert a.violations == b.violations
            for name in ("S0", "K0", "fitted_exponent", "slope_ratio"):
                assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12, nan_ok=True)
            assert a.envelope_residual == pytest.approx(b.envelope_residual, rel=1e-9,
                                                        nan_ok=True)

    def test_mode_mismatch_refused_both_ways(self, droplet_traj, film_traj):
        with pytest.raises(ModeError, match="dry set"):
            cmd_rates(droplet_traj, "exponential")
        with pytest.raises(ModeError, match="strictly positive"):
            cmd_rates(film_traj, "powerlaw")

    def test_touchdown_film_reports_slope_only(self, tmp_path):
        # start at the touchdown film itself (quadratic zero at +-pi)
        outdir = tmp_path / "out"
        M_touch = TWO_PI / 0.75
        cfg = (f"N = 128\nn = 3\nalpha = 0.5\nt_end = 1.0\n"
               f"init = minimizer:{M_touch:.17g}\n"
               "dt0 = 1e-4\ndt_max = 0.01\n")
        cmd_evolve(write_config(tmp_path, cfg), outdir)
        report = cmd_rates(outdir, "powerlaw")
        assert report.violations == 0
        assert not report.lower_bound_series
        assert report.theoretical_exponent == pytest.approx(-1.0)  # -2/(2 beta - 1)
        with pytest.raises(ModeError):
            cmd_rates(outdir, "exponential")

    @pytest.mark.parametrize("mode, cfg", [
        ("powerlaw", BASE_CONFIG.replace("log_times = 0, 0.25, 0.5", "log_times = 0")),
        ("exponential", "N = 128\nn = 3\nalpha = 0.5\nt_end = 0.5\n"
                        "init = constant:3.1830988618379067\neps = 0\ndt0 = 1e-4\n"),
    ])
    @pytest.mark.parametrize("t_end, late", [("0", 0), ("1e-4", 1)])
    def test_too_short_trajectory_exit_one(self, tmp_path, capsys, mode, cfg, t_end, late):
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, cfg.replace("t_end = 0.5", f"t_end = {t_end}"))
        assert main(["evolve", "--config", str(cfg), "--outdir", str(outdir)]) == 0
        assert np.sum(read_diagnostics_csv(outdir / "diagnostics.csv")["t"] > 0) == late
        out = tmp_path / "rates.json"
        assert main(["rates", "--traj", str(outdir), "--mode", mode, "--out", str(out)]) == 1
        assert f"a rate fit needs at least 2 samples, got {late}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_exponential_gap_minimum_at_first_sample_refused(self):
        # the gap rises after t = 1, so the fit would stop at one sample
        data = np.zeros(4, dtype=[(name, float) for name in DIAGNOSTICS_HEADER.split(",")])
        data["t"] = [0.0, 1.0, 2.0, 3.0]
        data["E"] = -1.0 + np.array([1.0, 1e-3, 2e-3, 3e-3])
        meta = {"alpha": 0.5, "n": 3.0,
                "reference": {"kind": "smooth_film", "min_value": 0.5, "energy": -1.0}}
        with pytest.raises(ValueError, match="at least 2 samples, got 1"):
            rates_exponential(data, meta)

    def test_doctored_trajectory_flags_violations(self, droplet_traj, tmp_path):
        copy = tmp_path / "doctored"
        os.makedirs(copy)
        lines = (droplet_traj / "diagnostics.csv").read_text().splitlines()
        header = lines[0].split(",")
        i_dh1 = header.index("dH1")
        out = [lines[0]]
        for line in lines[1:]:
            cols = line.split(",")
            cols[i_dh1] = f"{float(cols[i_dh1]) / 1e6:.17g}"
            out.append(",".join(cols))
        (copy / "diagnostics.csv").write_text("\n".join(out) + "\n")
        (copy / "meta.json").write_text((droplet_traj / "meta.json").read_text())
        with pytest.raises(InvariantViolation, match="violate"):
            cmd_rates(copy, "powerlaw")


class TestLineFit:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(1.05, 3.0), min_size=7, max_size=40), st.floats(1e-3, 1e3),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.sampled_from([-1.0, 1.0]),
           st.floats(0.0, 0.1), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_polyfit(self, ratios, t0, slope, intercept, sign, noise, seed, logs):
        # windows like the rate fits': 8 or more increasing times spanning at
        # least a factor 1.05^7, or their logarithms
        x = t0 * np.cumprod([1.0, *ratios])
        if logs:
            x = np.log(x)
        rng = np.random.default_rng(seed)
        line = intercept + sign * slope * x
        y = line + noise * np.abs(line) * rng.standard_normal(x.size)
        got = _line_fit(x, y)
        want = np.polyfit(x, y, 1)
        assert all(isinstance(c, float) for c in got)
        # relative to each coefficient plus what round-off of y can move it by
        # in either method: max|y| over the span of x, and max|y|
        y_max = np.abs(y).max()
        for a, b, scale in zip(got, want, (y_max / np.ptp(x), y_max)):
            assert abs(a - b) <= 1e-12 * (abs(b) + scale)


class TestCli:
    def test_full_pipeline_exit_codes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outdir = str(tmp_path / "out")
        assert main(["evolve", "--config", str(cfg), "--outdir", outdir]) == 0
        assert main(["rates", "--traj", outdir, "--mode", "powerlaw",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert main(["rates", "--traj", outdir, "--mode", "exponential"]) == 1
        assert main(["massmap", "--alpha", "1.0", "--num", "25",
                     "--out", str(tmp_path / "mm.csv")]) == 0
        assert main(["steady", "--alpha", "0.5", "--mass", "20", "--N", "64",
                     "--out", str(tmp_path / "st.csv")]) == 0
        field = read_field_csv(tmp_path / "st.csv")
        assert field.grid.N == 64
        want = steady.evaluate(steady.minimizer(0.5, 20.0), make_grid(64))
        assert np.array_equal(field.values, want.values)
        # a tiny mass gets its own contact point, not the bracket's end
        assert main(["steady", "--alpha", "1", "--mass", "1e-12", "--N", "64",
                     "--out", str(tmp_path / "tiny.csv")]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        tau = float(line.split("tau=")[1].split()[0])
        energy = float(line.split("energy=")[1])
        # 50-digit mpmath (the energy with quadrature of u cos x)
        assert tau == pytest.approx(7.420555023725397e-3, rel=1e-9)
        assert energy == pytest.approx(-9.9999344473679478e-13, rel=1e-14, abs=0)
        assert read_field_csv(tmp_path / "tiny.csv").values.max() > 0.0

    def test_missing_config_key_exit_one(self, tmp_path):
        bad = write_config(tmp_path, "N = 128\nn = 3\nt_end = 1\ninit = constant:1\n")
        assert main(["evolve", "--config", str(bad), "--outdir", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("extra, message", [
        ("init = constant:0\n", "alpha and M must be positive"),
        ("edge_mobility = arithmetic\n", "unknown config key: edge_mobility"),
        ("tol = 1e-5\n", "unknown config key: tol"),
        ("newton_tol = 1e-10\n", "unknown config key: newton_tol"),
        ("newton_max = 12\n", "unknown config key: newton_max"),
        ("energy_slack = 1e-10\n", "unknown config key: energy_slack"),
        ("log_times = 0.005, 0.005, 0.01\n", "log_times must not repeat a time, got 0.005 twice"),
    ])
    def test_refused_config_exit_one(self, tmp_path, capsys, extra, message):
        lines = [l for l in BASE_CONFIG.splitlines() if not l.startswith(extra.split()[0] + " ")]
        bad = write_config(tmp_path, "\n".join(lines) + "\n" + extra)
        outdir = tmp_path / "x"
        assert main(["evolve", "--config", str(bad), "--outdir", str(outdir)]) == 1
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("argv", [
        ["massmap", "--alpha", "1.0", "--num", "0"],
        ["catalog", "--alpha", "1.5", "--mass-min", "1", "--mass-max", "12", "--num", "0"],
    ])
    def test_empty_table_request_exit_one(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:  # argparse usage errors exit directly
            main(argv + ["--out", str(out)])
        assert exc.value.code == 1
        assert "must be at least" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_exit_one(self, tmp_path, capsys):
        bad = write_config(tmp_path, BASE_CONFIG + "t_end = 0.002\n")
        outdir = tmp_path / "x"
        assert main(["evolve", "--config", str(bad), "--outdir", str(outdir)]) == 1
        assert "run.cfg:10: config key t_end given twice (first on line 5)" \
            in capsys.readouterr().err
        assert not outdir.exists()

    def test_non_finite_config_exit_one(self, tmp_path):
        bad = write_config(tmp_path, BASE_CONFIG.replace("t_end = 0.5", "t_end = nan"))
        outdir = tmp_path / "x"
        assert main(["evolve", "--config", str(bad), "--outdir", str(outdir)]) == 1
        assert not outdir.exists()

    def test_non_numeric_config_exit_one(self, tmp_path, capsys):
        bad = write_config(tmp_path, BASE_CONFIG + "sample_every = x\n")
        outdir = tmp_path / "x"
        assert main(["evolve", "--config", str(bad), "--outdir", str(outdir)]) == 1
        assert "config key sample_every must be an integer, got 'x'" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("argv", [
        ["massmap", "--alpha", "nan"],
        ["steady", "--alpha", "1.0", "--mass", "inf"],
        ["catalog", "--alpha", "1.5", "--mass-min", "nan", "--mass-max", "12"],
        ["catalog", "--alpha", "1.5", "--mass-min", "1", "--mass-max", "inf"],
    ])
    def test_non_finite_argument_exit_one(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:  # argparse usage errors exit directly
            main(argv + ["--out", str(out)])
        assert exc.value.code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_violation_exit_two(self, tmp_path):
        # doctor a trajectory so the measured distance undercuts the bound
        cfg = write_config(tmp_path, BASE_CONFIG.replace("t_end = 0.5", "t_end = 2.0"))
        outdir = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--outdir", str(outdir)]) == 0
        lines = (outdir / "diagnostics.csv").read_text().splitlines()
        header = lines[0].split(",")
        i = header.index("dH1")
        doctored = [lines[0]]
        for line in lines[1:]:
            cols = line.split(",")
            cols[i] = "1e-300"
            doctored.append(",".join(cols))
        (outdir / "diagnostics.csv").write_text("\n".join(doctored) + "\n")
        assert main(["rates", "--traj", str(outdir), "--mode", "powerlaw"]) == 2

    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "mm.csv"
        table = cmd_massmap(1.0, out, num=25)
        lines = out.read_text().splitlines()[1:]
        for (tau, M), line in zip(table, lines):
            s_tau, s_m = line.split(",")
            assert float(s_tau) == tau
            assert float(s_m) == M
        back = read_table(out, "tau,M")
        assert np.array_equal(back["tau"], table[:, 0])
        assert np.array_equal(back["M"], table[:, 1])
