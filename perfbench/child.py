"""One benchmark repetition in a fresh interpreter.

Usage (normally started by run.py, one child at a time):

    python3 perfbench/child.py --inputs DIR --out DIR --spawn T [--trace]

DIR/workload.json names the workload and holds its generated inputs.  T is
the parent's CLOCK_MONOTONIC reading just before the child was started, so
setup_s covers interpreter start-up and the imports a `thinfilm` command
pays.  The child calls the public `thinfilm.experiments` entry points the
CLI dispatches to, checks the outputs it wrote against the acceptance
tolerances, and writes result.json to --out, with spans.json when traced
and events.bin (hooked-call entry and exit times) when not.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

TWO_PI = 2.0 * math.pi
FIG6_TIMES = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
H1_WARNING = "h1_distance called on fields of unequal mass"


def _load_csv(path):
    """Numeric CSV with a header line -> dict of column name -> array."""
    import numpy as np
    with open(path) as f:
        names = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def _snapshots(traj: Path) -> dict:
    """{t: snapshot path} as listed in meta.json."""
    with open(traj / "meta.json") as f:
        meta = json.load(f)
    return {float(t): traj / name for t, name in meta["snapshots"].items()}


def _same_times(got, want) -> bool:
    got = sorted(got)
    return len(got) == len(want) and all(
        abs(a - b) <= 1e-12 * max(1.0, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# workloads: each looks its entry points up on the module at call time, so
# the traced run's wrappers are the ones called.

def run_fig6(exp, spec, out: Path):
    exp.cmd_evolve(spec["config"], out / "traj")
    exp.cmd_rates(out / "traj", "powerlaw", out / "rates.json")


def check_fig6(spec, out: Path, _):
    traj = out / "traj"
    snaps = _snapshots(traj)
    diag = _load_csv(traj / "diagnostics.csv")
    mass = diag["mass"]
    i_end = int(abs(diag["t"] - 1000.0).argmin())
    with open(out / "rates.json") as f:
        violations = int(json.load(f)["violations"])
    values = {
        "snapshots": len(snaps),
        "dLinf_1000": float(diag["dLinf"][i_end]),
        "mass_drift": float(abs(mass - mass[0]).max() / mass[0]),
        "rate_violations": violations,
    }
    gates = {
        "snapshots": _same_times(snaps, FIG6_TIMES) and all(p.is_file() for p in snaps.values()),
        "dLinf_1000": values["dLinf_1000"] <= 0.05,
        "mass_drift": values["mass_drift"] <= 1e-11,
        "rate_violations": violations == 0,
    }
    return values, gates


def run_catalog(exp, spec, out: Path):
    exp.cmd_catalog(spec["alpha"], spec["mass_min"], spec["mass_max"],
                    out / "catalog.csv", num=spec["num"])
    return exp.saddle_onset(spec["alpha"], spec["onset_lo"], spec["onset_hi"])


def check_catalog(spec, out: Path, onset):
    minimizers = {}
    with open(out / "catalog.csv") as f:
        header = f.readline().strip().split(",")
        i_min = header.index("is_minimizer")
        for line in f:
            row = line.strip().split(",")
            minimizers.setdefault(row[0], []).append(int(row[i_min]))
    values = {
        "masses": len(minimizers),
        "entries": sum(len(v) for v in minimizers.values()),
        "onset": float(onset),
    }
    gates = {
        "masses": len(minimizers) == spec["num"]
                  and all(sum(v) == 1 for v in minimizers.values()),
        "onset": 0.8 * TWO_PI <= onset <= 1.2 * TWO_PI,
    }
    return values, gates


WORKLOADS = {
    "fig6": (run_fig6, check_fig6),
    "catalog": (run_catalog, check_catalog),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    out = Path(args.out)
    src = Path(__file__).resolve().parent.parent / "src"

    import numpy  # noqa: F401  (paid by every thinfilm command)
    import thinfilm
    import thinfilm.cli  # noqa: F401  (what `thinfilm <command>` imports)
    from thinfilm import experiments

    if Path(thinfilm.__file__).resolve().parent != (src / "thinfilm").resolve():
        raise SystemExit(f"imported thinfilm from {thinfilm.__file__}, not from {src}")
    spec = json.loads((Path(args.inputs) / "workload.json").read_text())
    run_workload, check = WORKLOADS[spec["workload"]]

    tracer = events = None
    if args.trace:
        from layertrace import ROOT_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
    else:
        from layertrace import EventLog
        events = EventLog()

    result = {"ok": False, "error": None, "traced": args.trace}
    result["setup_s"] = time.monotonic() - args.spawn
    try:
        with warnings.catch_warnings(record=args.trace) as caught:
            if args.trace:
                warnings.simplefilter("always")
                root = tracer.begin(ROOT_SPAN)
                t0 = time.perf_counter()
                returned = run_workload(experiments, spec, out)
                result["solve_s"] = time.perf_counter() - t0
                tracer.end(root)
            else:
                events.start()
                returned = run_workload(experiments, spec, out)
                result["solve_s"] = events.stop()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values, gates = check(spec, out, returned)
        result["checks"] = values
        result["failed_checks"] = [k for k, ok in gates.items() if not ok]
        result["ok"] = not result["failed_checks"]
    except Exception:  # a raising repetition is a failed operation, not a crash
        result["error"] = traceback.format_exc()
    if tracer is not None:
        result["h1_mass_warnings"] = sum(H1_WARNING in str(w.message) for w in caught or ())
        tracer.dump(out / "spans.json")
    elif "solve_s" in result:
        events.dump(out / "events.bin")
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
