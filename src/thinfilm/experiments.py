"""Reproduction and verification harness behind the command-line interface.

Four commands: the mass/contact-point map of the hanging branch, the
steady-state energy catalog over a mass sweep, a config-driven evolution
run that writes snapshots plus diagnostics, and rate post-processing that
checks the proven convergence-rate bounds against a recorded trajectory.

Rate checks come in two flavours.  When the minimizer has a dry region
(hanging drop) the distance from it obeys the power-law lower bound

    dH1(t) >= (1/sqrt(pi)) * (L / (S0 + K0 t))^(1/beta),

with L the dry-set length, beta = n - 3/2, and (S0, K0) a linear envelope
of the Kadanoff entropy; a valid trajectory never dips below the bound.
When the minimizer is strictly positive the gap E - E* decays like
exp(-2 mu t), mu = (1 - alpha^2) (min u*)^n, and its fitted late-time slope
is reported against 2 mu; E* is the E_h of the scheme's film (film_energy_h).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field as dataclass_field, fields
from typing import Optional

import numpy as np

from . import steady
from .evolution import SchemeConfig, TrajectoryRecord, run
from .functionals import Params, read_diagnostics_csv, write_diagnostics_csv
from .grid import (TWO_PI, Field, constant_field, integrate, make_grid, read_field_csv,
                   write_field_csv, write_table)


class ConfigError(ValueError):
    """Malformed or incomplete run-configuration file."""


class ModeError(ValueError):
    """Rate mode incompatible with the trajectory's minimizer."""


class InvariantViolation(RuntimeError):
    """A checked theorem-backed invariant failed (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# run configuration (flat key = value file)

@dataclass(frozen=True)
class RunConfig:
    """A parsed run file.  Its keys are these fields (all but `scheme`) and
    the SchemeConfig fields, under the same names and with the same
    defaults; a field without a default is a required key."""

    N: int
    n: float
    alpha: float
    init: str
    scheme: SchemeConfig
    eps: Optional[float] = None  # "auto": the scaled default 1e-8 (M/2pi)^n


def _number(key: str, text: str, kind=float):
    """text as a finite number of type kind, or a ConfigError naming key."""
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key} must be {what}, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {value}")
    return value


def _config_value(fl, text: str):
    """A run-file value converted to the type annotated on its field."""
    if fl.type == "str":
        return text
    if fl.type == "tuple":
        return tuple(_number(fl.name, tok) for tok in text.replace(",", " ").split())
    return _number(fl.name, text, int if fl.type == "int" else float)


def parse_run_config(path) -> RunConfig:
    raw, first_line = {}, {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: config key {key} given twice "
                                  f"(first on line {first_line[key]})")
            raw[key], first_line[key] = value, lineno
    if raw.get("eps") == "auto":
        del raw["eps"]
    keys = [fl for fl in fields(RunConfig) + fields(SchemeConfig) if fl.name != "scheme"]
    known = {fl.name for fl in keys}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key: {key}")
    for fl in keys:
        if fl.default is MISSING and fl.name not in raw:
            raise ConfigError(f"missing config key: {fl.name}")
    values = {fl.name: _config_value(fl, raw[fl.name]) for fl in keys if fl.name in raw}
    scheme = SchemeConfig(**{fl.name: values.pop(fl.name)
                             for fl in fields(SchemeConfig) if fl.name in values})
    return RunConfig(scheme=scheme, **values)


def build_initial(cfg: RunConfig) -> Field:
    g = make_grid(cfg.N)
    kind, _, arg = cfg.init.partition(":")
    if kind == "constant":
        if not arg:
            raise ConfigError("init = constant:<value> needs a value")
        return constant_field(g, _number("init", arg))
    if kind == "minimizer":
        if not arg:
            raise ConfigError("init = minimizer:<mass> needs a mass")
        return steady.evaluate(steady.minimizer(cfg.alpha, _number("init", arg)), g)
    if kind == "file":
        u = read_field_csv(arg)
        if u.grid.N != cfg.N:
            raise ConfigError(f"field file has N={u.grid.N}, config says N={cfg.N}")
        return u
    raise ConfigError(f"unknown init kind {cfg.init!r} "
                      "(expected constant:c, file:path or minimizer:M)")


def default_eps(mass: float, n: float) -> float:
    return 1e-8 * (mass / TWO_PI) ** n


# ---------------------------------------------------------------------------
# massmap

def massmap_table(alpha: float, num: int) -> np.ndarray:
    """Columns (tau, M) along the hanging branch; both strictly increasing."""
    steady._check_drop_alpha(alpha)
    hi = np.pi / max(alpha, 1.0) - 1e-3
    taus = np.linspace(1e-3, hi, num)
    masses = steady._drop_coefficients("hanging", alpha, taus)[2]
    return np.column_stack([taus, masses])


def cmd_massmap(alpha: float, out, num: int) -> np.ndarray:
    table = massmap_table(alpha, num)
    if not np.all(np.diff(table[:, 1]) > 0):
        raise InvariantViolation("mass map is not strictly increasing in tau")
    write_table(out, "tau,M", table)
    return table


# ---------------------------------------------------------------------------
# catalog sweep

CATALOG_HEADER = "M,kind,tau1,tau2,mass1,mass2,lambda1,lambda2,energy,is_minimizer"


def _catalog_row(M: float, state: steady.SteadyState) -> tuple:
    """A CATALOG_HEADER row: the hanging drop or film fills the 1 columns,
    the sitting drop the 2 columns, and an absent component leaves NaN."""
    cols = [(math.nan,) * 3, (math.nan,) * 3]
    for comp in state.components:
        sitting = getattr(comp, "branch", None) == "sitting"
        cols[sitting] = (math.nan if comp.tau is None else comp.tau, comp.mass, comp.lam)
    (tau1, mass1, lam1), (tau2, mass2, lam2) = cols
    return (M, state.kind, tau1, tau2, mass1, mass2, lam1, lam2, state.energy,
            int(state.is_minimizer))


def catalog_sweep(alpha: float, masses) -> list:
    """[(M, [SteadyState, ...]), ...] over the mass grid, all from one
    sample of the sitting branch."""
    sample = steady._sitting_sample(alpha)
    return [(float(M), steady.catalog(alpha, float(M), sample)) for M in masses]


def cmd_catalog(alpha: float, mass_min: float, mass_max: float, out, num: int) -> list:
    if mass_min >= mass_max:
        raise ValueError(f"empty bracket: mass_min={mass_min:g} >= mass_max={mass_max:g}")
    sweep = catalog_sweep(alpha, np.linspace(mass_min, mass_max, num))
    write_table(out, CATALOG_HEADER,
                (_catalog_row(M, st) for M, states in sweep for st in states))
    for _, states in sweep:
        mins = [s for s in states if s.is_minimizer]
        others = [s for s in states if not s.is_minimizer]
        if others and min(o.energy for o in others) <= mins[0].energy:
            raise InvariantViolation("a non-minimizer catalog entry has energy "
                                     "at or below the minimizer")
    return sweep


def saddle_onset(alpha: float, lo: float, hi: float) -> float:
    """Smallest mass with a second catalog entry (an empirical proxy for
    where the saddle branch starts), or lo if that is below lo: the lighter
    of the film threshold 2pi/(alpha^2 - 1) and the lightest sitting drop of
    the catalog's sample.  A two-droplet state needs a lighter sitting drop,
    so it never comes first.  Refuses lo > hi, an alpha without sitting
    drops, and an onset above hi."""
    if lo > hi:
        raise ValueError(f"empty bracket: lo={lo:g} > hi={hi:g}")
    steady._check_drop_alpha(alpha)
    sample = steady._sitting_sample(alpha)
    if sample is None:
        raise ValueError("no saddle branch for alpha <= 1")
    # fmin skips the NaNs of the sample
    onset = float(np.fmin(TWO_PI / (alpha**2 - 1.0), np.fmin.reduce(sample[1])))
    if onset > hi:
        raise ValueError("no saddle branch inside the bracket")
    return max(lo, onset)


# ---------------------------------------------------------------------------
# evolve

def _min_value(ref: steady.SteadyState) -> float:
    """min u of a minimizer: 0 off a drop's support, mean - |amplitude| for a film."""
    film = ref.components[0]
    return 0.0 if ref.kind == "hanging_drop" else film.mean - abs(film.amplitude)


def record_meta(record: TrajectoryRecord) -> dict:
    """meta.json content for a finished run (also used in-memory by tests)."""
    ref = record.reference
    s_kad = record.samples["S_kad"].tolist()
    return {
        "N": record.final.grid.N, "n": record.params.n, "alpha": record.params.alpha,
        "eps": record.params.eps, "mass": float(record.samples["mass"][0]),
        "t_end": record.config.t_end,
        "reference": {
            "kind": ref.kind,
            "tau": ref.tau,
            "lambda": ref.lam,
            "energy": ref.energy,
            "min_value": _min_value(ref),
            "shift": record.ref_shift,  # added to the sampled minimizer for the distances
        },
        # starting at 0.0 skips a NaN excess (no Kadanoff entropy, or inf - inf);
        # Python floats, as NumPy would warn on inf - inf
        "entropy_excess_max": max([0.0, *(s - s_kad[0] for s in s_kad)]),
        "steps": record.steps,
        "linear_solves": record.solves,
        "factorizations": record.factorizations,
        "rejections": record.rejections,
    }


def cmd_evolve(config_path, outdir) -> TrajectoryRecord:
    cfg = parse_run_config(config_path)
    u0 = build_initial(cfg)
    eps = default_eps(integrate(u0), cfg.n) if cfg.eps is None else cfg.eps
    made = not os.path.isdir(outdir)
    os.makedirs(outdir, exist_ok=True)  # before the run: refuse an outdir that cannot be made
    try:
        record = run(u0, Params(n=cfg.n, alpha=cfg.alpha, eps=eps), cfg.scheme)
    except ValueError:  # refused inputs leave no directory; a failed run leaves it empty
        if made:
            os.rmdir(outdir)
        raise
    write_diagnostics_csv(record.samples, os.path.join(outdir, "diagnostics.csv"))
    snapshot_files = {}
    for i, (t, field) in enumerate(sorted(record.snapshots.items())):
        name = f"snapshot_{i:03d}_t{t:.10g}.csv"
        write_field_csv(field, os.path.join(outdir, name))
        snapshot_files[f"{t:.17g}"] = name
    meta = record_meta(record)
    meta["init"] = cfg.init
    meta["snapshots"] = snapshot_files
    with open(os.path.join(outdir, "meta.json"), "w") as f:
        f.write(json.dumps(meta, indent=1))  # one write: json.dump writes each chunk
    return record


# ---------------------------------------------------------------------------
# rates

@dataclass
class RateReport:
    """Outcome of a rate check on one trajectory.

    S0/K0 are the fitted entropy envelope intercept/slope (power-law mode).
    violations counts samples where the measured distance undercuts the
    proven lower bound; a valid run has zero.  fitted_exponent is the
    late-time log-log slope of dH1 (power-law) or the slope of log(E - E*)
    versus t, with E* the E_h of the scheme's film equilibrium (exponential).
    """

    trajectory: str
    mode: str
    S0: float = math.nan
    K0: float = math.nan
    envelope_residual: float = math.nan
    lower_bound_series: list = dataclass_field(default_factory=list)
    measured_series: list = dataclass_field(default_factory=list)
    violations: int = 0
    fitted_exponent: float = math.nan
    theoretical_exponent: float = math.nan
    mu: float = math.nan
    slope_ratio: float = math.nan

    def write_json(self, path) -> None:
        with open(path, "w") as f:
            # shallow: asdict would deep-copy every (t, value) pair of the series;
            # one write: json.dump writes each encoder chunk on its own
            f.write(json.dumps({fl.name: getattr(self, fl.name) for fl in fields(self)}, indent=1))


def _fit_window(t: np.ndarray) -> np.ndarray:
    """Late-time window: the last decade of logged times, widened backwards
    if it holds fewer than 8 samples.  A line through fewer than two
    samples measures nothing, so such a series is refused."""
    if len(t) < 2:
        raise ValueError(f"a rate fit needs at least 2 samples, got {len(t)}")
    mask = t >= t[-1] / 10.0
    if mask.sum() < 8:
        mask = np.zeros_like(mask)
        mask[-8:] = True
    return mask


def _load_trajectory(traj_dir):
    data = read_diagnostics_csv(os.path.join(traj_dir, "diagnostics.csv"))
    with open(os.path.join(traj_dir, "meta.json")) as f:
        meta = json.load(f)
    return data, meta


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """(slope, intercept) of the least-squares line through the points
    (x, y), from sums centred on the means of x and y."""
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    dx = x - x_mean
    slope = float(np.dot(dx, y - y_mean) / np.dot(dx, dx))
    return slope, y_mean - slope * x_mean


def _series(t, values) -> list:
    return [(float(a), float(b)) for a, b in zip(t, values)]


def rates_powerlaw(data, meta, trajectory: str) -> RateReport:
    n = float(meta["n"])
    beta = n - 1.5
    if beta <= 0:
        raise ModeError("power-law bound needs n > 3/2")
    ref = meta["reference"]
    dry = ref["kind"] == "hanging_drop" and ref["tau"] is not None
    # touchdown film: quadratic zero, bound exponent -2/(2 beta - 1), but its
    # constants are non-constructive, so only the fitted slope is reported
    touchdown = ref["kind"] == "smooth_film" and ref["min_value"] <= 1e-12
    if not (dry or touchdown):
        raise ModeError("power-law mode needs a minimizer with a dry set; "
                        "this trajectory's minimizer is strictly positive, "
                        "use the exponential mode")
    t = data["t"]
    pos = t > 0
    tp, dp = t[pos], data["dH1"][pos]
    window = _fit_window(tp)
    report = RateReport(
        trajectory=trajectory, mode="powerlaw", measured_series=_series(tp, dp),
        fitted_exponent=_line_fit(np.log(tp[window]), np.log(dp[window]))[0],
        theoretical_exponent=-1.0 / beta if dry else -2.0 / (2.0 * beta - 1.0),
    )
    if touchdown:
        return report

    L = 2.0 * (np.pi - float(ref["tau"]))
    Sp = data["S_kad"][pos]
    if not np.all(np.isfinite(Sp)):
        raise ModeError("trajectory entropy is not finite; cannot fit an envelope")
    K0, S0 = _line_fit(tp[window], Sp[window])
    K0 = max(K0, 0.0)
    envelope = S0 + K0 * tp
    bound = (L / envelope) ** (1.0 / beta) / np.sqrt(np.pi)
    report.S0, report.K0 = S0, K0
    report.envelope_residual = float(np.max(np.maximum(Sp - envelope, 0.0) / envelope))
    report.lower_bound_series = _series(tp, bound)
    report.violations = int(np.sum(dp < bound))
    return report


def film_energy_h(N: int, alpha: float, M: float) -> float:
    """E_h of the scheme's film equilibrium M/(2 pi) + cos x/(s - alpha^2) of
    mass M on N nodes, s = sinc^2(h/2): the field of constant 3-point pressure."""
    s = (math.sin(math.pi / N) / (math.pi / N)) ** 2
    return -math.pi / (2.0 * (s - alpha**2)) - alpha**2 * M**2 / (4.0 * math.pi)


def rates_exponential(data, meta, trajectory: str) -> RateReport:
    ref = meta["reference"]
    if ref["kind"] != "smooth_film" or ref["min_value"] <= 1e-12:
        raise ModeError("exponential mode needs a strictly positive minimizer; "
                        "this trajectory's minimizer has a dry set or touchdown, "
                        "use the power-law mode")
    alpha, n = float(meta["alpha"]), float(meta["n"])
    mu = (1.0 - alpha**2) * ref["min_value"] ** n
    e_star = film_energy_h(int(meta["N"]), alpha, float(meta["mass"]))

    t = data["t"]
    gap = data["E"] - e_star
    keep = (t > 0) & (gap > 1e-13 * max(1.0, abs(e_star)))
    tp, gp = t[keep], gap[keep]
    window = _fit_window(tp)
    slope = _line_fit(tp[window], np.log(gp[window]))[0]
    return RateReport(
        trajectory=trajectory, mode="exponential", measured_series=_series(tp, gp),
        violations=0, fitted_exponent=slope, theoretical_exponent=-2.0 * mu,
        mu=float(mu), slope_ratio=float(slope / (2.0 * mu)),
    )


def cmd_rates(traj_dir, mode: str, out=None) -> RateReport:
    data, meta = _load_trajectory(traj_dir)
    if mode == "powerlaw":
        report = rates_powerlaw(data, meta, trajectory=str(traj_dir))
    elif mode == "exponential":
        report = rates_exponential(data, meta, trajectory=str(traj_dir))
    else:
        raise ModeError(f"unknown mode {mode!r} (powerlaw or exponential)")
    if out is not None:
        report.write_json(out)
    if report.violations:
        raise InvariantViolation(
            f"{report.violations} samples violate the distance lower bound")
    return report
