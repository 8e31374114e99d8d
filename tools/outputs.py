"""Write the outputs that identity checks compare, or compare two such sets.

    python tools/outputs.py write DIR
    python tools/outputs.py compare DIR_A DIR_B

`write` runs the `thinfilm` commands of the checkout this script sits in
(its `src/`) inside DIR, with paths relative to DIR, so two checkouts give
the same bytes wherever their output directories are:

* evolve: fig6 (alpha 1, N 256, u0 = 1, t 1000, the paper's log times) and
  its power-law rates; a dry start (minimizer of mass 3, eps 0, N 128,
  t 10); alpha 3 (N 128, t 5); an alpha 0.5 film (N 64, mass 20,
  sample_every 3) and its exponential rates;
* catalog at alpha 3 over masses 1..12, and 20 shifted sweeps of 45
  masses: alpha sqrt 2 over 1..12, 2 and 3 over 0.5..20, 1.2 over 1..30 and
  4.5 over 0.1..30, each shifted by 0, 1/4, 1/2 and 3/4 of a mass step (the
  benchmark's catalog seeds shift the sqrt 2 sweep by a fraction of a step);
* massmap at alpha 1, sqrt 2 and 0.3;
* steady at alpha 1, M = 2 pi (N 256).

It also runs tests/test_acceptance.py and keeps its ACCEPTANCE lines in
acceptance.txt, and every command's stdout in stdout.txt.  It prints one
SHA-256 per file, then the ACCEPTANCE lines.

`compare` lists the files only one side has, and for each file whose bytes
differ the largest relative difference per column (CSV), per key (JSON,
list indices folded to [*]) or the differing lines (text).  It exits 1
when any file differs or exists on one side only, and 0 otherwise, so a
script can check identity by its exit status.

Digests depend on the NumPy and SciPy build: compare two checkouts on one
host.  Nothing here is a test, and no digest is gated.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FIG6_TIMES = "0, 0.01, 0.1, 1, 10, 100, 1000"
RUNS = {
    "fig6": "N = 256\nn = 3\nalpha = 1.0\nt_end = 1000\ninit = constant:1.0\neps = 1e-8\n"
            f"dt0 = 1e-5\nlog_times = {FIG6_TIMES}\n",
    "dry": "N = 128\nn = 3\nalpha = 1.0\nt_end = 10\ninit = minimizer:3.0\neps = 0\n"
           "log_times = 0, 1, 10\n",
    "alpha3": "N = 128\nn = 3\nalpha = 3.0\nt_end = 5\ninit = constant:1.0\n"
              "log_times = 0, 1, 5\n",
    "film": "N = 64\nn = 3\nalpha = 0.5\nt_end = 2.0\ninit = constant:3.1830988618379067\n"
            "eps = 0\ndt0 = 1e-4\ndt_max = 0.01\nsample_every = 3\nlog_times = 0, 2\n",
}
SQRT2 = "1.4142135623730951"
CATALOG_SWEEPS = [(SQRT2, 1.0, 12.0), ("2.0", 0.5, 20.0), ("3.0", 0.5, 20.0),
                  ("1.2", 1.0, 30.0), ("4.5", 0.1, 30.0)]
CATALOG_SHIFTS = (0.0, 0.25, 0.5, 0.75)  # fractions of the step (hi - lo)/44


def _shifted_catalog(alpha: str, lo: float, hi: float, q: float) -> list:
    shift = q * (hi - lo) / 44
    return ["catalog", "--alpha", alpha, "--mass-min", repr(lo + shift),
            "--mass-max", repr(hi + shift), "--out", f"catalog/{alpha}_{lo:g}_{hi:g}_{q:g}.csv"]


COMMANDS = [
    *(["evolve", "--config", f"{name}.cfg", "--outdir", name] for name in RUNS),
    ["rates", "--traj", "fig6", "--mode", "powerlaw", "--out", "fig6/rates.json"],
    ["rates", "--traj", "film", "--mode", "exponential", "--out", "film/rates.json"],
    ["catalog", "--alpha", "3.0", "--mass-min", "1", "--mass-max", "12",
     "--out", "catalog_3.0.csv"],
    *(_shifted_catalog(*sweep, q) for sweep in CATALOG_SWEEPS for q in CATALOG_SHIFTS),
    *(["massmap", "--alpha", a, "--out", f"massmap_{a}.csv"] for a in ("1.0", SQRT2, "0.3")),
    ["steady", "--alpha", "1.0", "--mass", "6.283185307179586", "--N", "256",
     "--out", "steady.csv"],
]


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run(args, cwd) -> str:
    done = subprocess.run(args, cwd=cwd, env=_env(), capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return done.stdout


def write(out: Path) -> None:
    (out / "catalog").mkdir(parents=True, exist_ok=True)
    for name, text in RUNS.items():
        (out / f"{name}.cfg").write_text(text)
    stdout = [_run([sys.executable, "-m", "thinfilm.cli", *args], out) for args in COMMANDS]
    (out / "stdout.txt").write_text("".join(stdout))
    pytest = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                             "tests/test_acceptance.py"],
                            cwd=ROOT, env=_env(), capture_output=True, text=True)
    # -s interleaves the progress dots with the printed lines
    lines = [ln[ln.index("ACCEPTANCE"):] for ln in pytest.stdout.splitlines()
             if "ACCEPTANCE" in ln]
    (out / "acceptance.txt").write_text("".join(ln + "\n" for ln in lines))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    print("\n".join(lines))
    if pytest.returncode != 0:
        sys.exit(f"tests/test_acceptance.py exited {pytest.returncode}")


def _rel(a, b) -> float:
    """|a - b| relative to the larger magnitude; 0 for equal values (NaNs
    and infinities included), inf when only one of them is finite."""
    if a == b or (a != a and b != b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _csv_columns(path: Path) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _json_leaves(obj, key="") -> list:
    """(key, value) of every leaf, list indices folded to [*]."""
    if isinstance(obj, dict):
        return [kv for k, v in obj.items() for kv in _json_leaves(v, f"{key}.{k}" if key else k)]
    if isinstance(obj, list):
        return [kv for v in obj for kv in _json_leaves(v, f"{key}[*]")]
    return [(key, obj)]


def _worst(pairs) -> dict:
    """Largest relative difference per key over (key, a, b), with a
    non-number counted as a change of inf unless it is equal."""
    worst = {}
    for key, a, b in pairs:
        try:
            d = _rel(float(a), float(b))
        except (TypeError, ValueError):
            d = 0.0 if a == b else math.inf
        worst[key] = max(worst.get(key, 0.0), d)
    return worst


def _differences(pa: Path, pb: Path) -> list:
    if pa.suffix == ".csv":
        ca, cb = _csv_columns(pa), _csv_columns(pb)
        if list(ca) != list(cb) or any(len(ca[k]) != len(cb[k]) for k in ca):
            return [f"columns or row counts differ: {list(ca)} vs {list(cb)}"]
        worst = _worst((k, a, b) for k in ca for a, b in zip(ca[k], cb[k]))
    elif pa.suffix == ".json":
        la, lb = (_json_leaves(json.loads(p.read_text())) for p in (pa, pb))
        if [k for k, _ in la] != [k for k, _ in lb]:
            return ["keys or list lengths differ"]
        worst = _worst((k, a, b) for (k, a), (_, b) in zip(la, lb))
    else:
        a, b = pa.read_text().splitlines(), pb.read_text().splitlines()
        return [f"- {x}\n  + {y}" for x, y in zip(a, b) if x != y] + (
            [f"line counts differ: {len(a)} vs {len(b)}"] if len(a) != len(b) else [])
    return [f"{k}: {d:.3g}" for k, d in worst.items() if d > 0.0] or ["equal values, other bytes"]


def compare(a: Path, b: Path) -> int:
    files = {p.relative_to(d) for d in (a, b) for p in d.rglob("*") if p.is_file()}
    differing = 0
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            print(f"{rel}: only in {a if pa.is_file() else b}")
            differing += 1
        elif pa.read_bytes() != pb.read_bytes():
            print(f"{rel}:")
            for line in _differences(pa, pb):
                print(f"  {line}")
            differing += 1
    print(f"{len(files) - differing} of {len(files)} files identical")
    return 1 if differing else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(Path(argv[1]).resolve())
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    sys.exit(__doc__.split("\n\n")[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
