#!/usr/bin/env python3
"""thinfilm benchmark: cold-process repetitions of two workloads.

    python3 perfbench/run.py --workload {fig6,catalog} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  The
load is a closed loop with one client: one single-threaded child process
at a time, each a fresh interpreter, so imports and the package's
module-level caches are paid as a `thinfilm` command pays them.  A
repetition that raises or misses an acceptance check counts as failed.

--trace 0 reports the end-to-end metrics.  solve_s is the floor of the
run: the hooked calls' entries and exits cut every repetition's workload
call into the same short pieces, and solve_s sums each piece's shortest
time over the repetitions.  setup_s and peak_rss_mb are medians.
--trace 1 alternates untraced and traced children and reports per-layer
metrics from the median traced child (spans recorded by layertrace.py);
trace.overhead_s is the median traced minus the median untraced solve time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from importlib import metadata
from pathlib import Path

from layertrace import load_pieces

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

MIN_REPS = 5          # untraced children per run, even past --seconds
MIN_TRACE_PAIRS = 2   # (untraced, traced) pairs per traced run
DEADLINE_S = 150.0    # start no child after this
RUN_LIMIT_S = 170.0   # kill a child still running at this point; runs must end by 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FIG6_LOG_TIMES = "0, 0.01, 0.1, 1, 10, 100, 1000"


# ---------------------------------------------------------------------------
# inputs: seed 0 is the paper's, other seeds perturb them

def _fig6_field(rng: random.Random, path: Path, N: int = 256) -> None:
    """Uniform film plus a mass-preserving mode-1..3 perturbation of sup
    amplitude 1e-3, written as an `x,u` snapshot file."""
    h = 2.0 * math.pi / N
    xs = [-math.pi + h * i for i in range(N)]
    coeffs = [(k, rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in (1, 2, 3)]
    pert = [sum(a * math.cos(k * x) + b * math.sin(k * x) for k, a, b in coeffs) for x in xs]
    mean = math.fsum(pert) / N
    scale = 1e-3 / max(abs(p - mean) for p in pert)
    with open(path, "w") as f:
        f.write("x,u\n")
        for x, p in zip(xs, pert):
            f.write(f"{x:.17g},{1.0 + scale * (p - mean):.17g}\n")


def make_inputs(workload: str, seed: int, d: Path) -> dict:
    rng = random.Random(seed)
    d.mkdir(parents=True)
    if workload == "fig6":
        init = "constant:1.0"
        if seed:
            _fig6_field(rng, d / "u0.csv")
            init = f"file:{d / 'u0.csv'}"
        (d / "run.cfg").write_text(
            f"N = 256\nn = 3\nalpha = 1.0\nt_end = 1000\ninit = {init}\n"
            f"eps = 1e-8\ndt0 = 1e-5\nlog_times = {FIG6_LOG_TIMES}\n")
        spec = {"workload": workload, "config": str(d / "run.cfg"), "init": init}
    else:
        num, lo, hi = 45, 1.0, 12.0
        shift = rng.random() * (hi - lo) / (num - 1) if seed else 0.0
        spec = {"workload": workload, "alpha": math.sqrt(2.0), "num": num,
                "mass_min": lo + shift, "mass_max": hi + shift,
                "onset_lo": lo + shift, "onset_hi": hi + shift}
    (d / "workload.json").write_text(json.dumps(spec))
    return spec


# ---------------------------------------------------------------------------
# children

def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(inputs: Path, rep_dir: Path, traced: bool, cpu: int, env: dict,
              timeout: float, log) -> dict:
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(CHILD), "--inputs", str(inputs), "--out", str(rep_dir)]
    if traced:
        cmd.append("--trace")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawn", repr(spawn)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout,
                              preexec_fn=functools.partial(os.sched_setaffinity, 0, {cpu}))
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": "child timed out"}
    result_path = rep_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        result = {"ok": False, "traced": traced,
                  "error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    else:
        result = json.loads(result_path.read_text())
        if traced and result["ok"]:
            with open(rep_dir / "spans.json") as f:
                result["trace"] = json.load(f)
        elif result["ok"]:
            result["pieces"] = load_pieces(rep_dir / "events.bin")
    shutil.rmtree(rep_dir)
    if result.get("error"):
        log(result["error"])
    return result


class Floor:
    """Shortest time of each piece of the workload call over a run's
    untraced repetitions.  The host's slow spells last from seconds to
    minutes, longer than one repetition, but every repetition meets fast
    moments; the summed piece minima are the solve time with the slow
    spells filtered out, and stay steady from run to run."""

    def __init__(self):
        self.signature = None
        self.mins = None
        self.mismatched = 0

    def add(self, signature: bytes, pieces) -> None:
        if self.mins is None:
            self.signature, self.mins = signature, array("d", pieces)
        elif signature != self.signature:
            self.mismatched += 1  # a different call sequence: not the same pieces
        else:
            self.mins = array("d", map(min, self.mins, pieces))

    def total(self) -> float:
        return math.fsum(self.mins)


def run_reps(inputs: Path, work: Path, seconds: float, trace: bool, log) -> tuple:
    """Children back to back while the next one is expected to finish within
    `seconds` (by the median child so far), and at least the minimum count.
    Children of each kind take the allowed CPUs in turn: a neighbour on the
    host often slows one CPU while the other runs fast, and the Floor then
    finds each piece's fast time on either.  Returns the results and the
    Floor of the untraced ones."""
    env = child_env()
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    results, durations = [], []
    floor = Floor()
    while True:
        elapsed = time.monotonic() - start
        plain = sum(not r["traced"] for r in results)
        traced = len(results) - plain
        enough = (min(plain, traced) >= MIN_TRACE_PAIRS) if trace else plain >= MIN_REPS
        expected_end = elapsed + (statistics.median(durations) if durations else 0.0)
        if (enough and expected_end > seconds) or elapsed >= DEADLINE_S:
            return results, floor
        want_trace = trace and traced < plain
        cpu = cpus[(traced if want_trace else plain) % len(cpus)]
        t0 = time.monotonic()
        r = run_child(inputs, work / f"rep{len(results):03d}", want_trace, cpu, env,
                      RUN_LIMIT_S - elapsed, log)
        durations.append(time.monotonic() - t0)
        if "pieces" in r:
            floor.add(*r.pop("pieces"))
        results.append(r)
        log(f"rep {len(results)}{' traced' if want_trace else ''} cpu {cpu}: "
            + (f"setup {r['setup_s']:.3f} s, solve {r['solve_s']:.3f} s, "
               f"rss {r['peak_rss_mb']:.1f} MB, checks {json.dumps(r['checks'])}"
               if r["ok"] else f"FAILED {r.get('failed_checks') or r.get('error')}"))


# ---------------------------------------------------------------------------
# metrics

def _percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return sorted_vals[max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1)]


def end_to_end(ok: list, floor: Floor, log) -> dict:
    solves = [r["solve_s"] for r in ok]
    log(f"solve time per repetition: median {statistics.median(solves):.6g} s, "
        f"min {min(solves):.6g} s; floor over {len(floor.mins)} pieces")
    if floor.mismatched:
        raise RuntimeError(f"{floor.mismatched} of {len(ok)} repetitions made a different "
                           "sequence of hooked calls, so their pieces do not line up")
    return {
        "solve_s": (floor.total(), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "thinfilm").rglob("*.py")))


def per_layer(ok: list) -> tuple:
    from layertrace import ROOT_SPAN, SPAN_NAMES, summarize

    plain = [r for r in ok if not r["traced"]]
    traced = sorted((r for r in ok if r["traced"]), key=lambda r: r["solve_s"])
    rep = traced[(len(traced) - 1) // 2]  # the median traced child, lower middle
    print(f"per-layer metrics from the median of {len(traced)} traced children")
    spans = rep["trace"]["spans"]
    summary = summarize(spans)
    root = summary.pop(ROOT_SPAN)
    metrics = {}
    for name in SPAN_NAMES:
        rec = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.s"] = (rec["s"], "s")
        metrics[f"{name}.self_s"] = (rec["self_s"], "s")
    steps = sorted(summary.get("evolution.step", {"durations": []})["durations"])
    metrics["evolution.step.ms_p50"] = (1e3 * _percentile(steps, 50) if steps else 0.0, "ms")
    metrics["evolution.step.ms_p99"] = (1e3 * _percentile(steps, 99) if steps else 0.0, "ms")
    n_steps = metrics["evolution.step.calls"][0]
    metrics["evolution.solves_per_step"] = (
        metrics["evolution.linsolve.calls"][0] / n_steps if n_steps else 0.0, "ratio")
    metrics["experiments.write.bytes"] = (rep["trace"]["bytes_written"], "bytes")
    metrics["grid.h1_mass_warnings"] = (rep["h1_mass_warnings"], "count")
    root_s = root["s"]
    metrics["trace.solve_s"] = (root_s, "s")
    metrics["trace.remainder_s"] = (root["self_s"], "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r["solve_s"] for r in traced)
        - statistics.median(r["solve_s"] for r in plain), "s")
    metrics["trace.missing_hooks"] = (len(rep["trace"]["missing"]), "count")
    metrics["src.lines"] = (src_lines(), "lines")
    # self times partition the root span; anything else means broken nesting
    covered = root["self_s"] + sum(summary[n]["self_s"] for n in summary)
    if abs(covered - root_s) > 1e-9 * max(1.0, root_s):
        raise RuntimeError(f"layer self times sum to {covered}, traced solve_s is {root_s}")
    return metrics, rep["trace"]["missing"]


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
        "child_threads": {v: child_env()[v] for v in THREAD_VARS},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("fig6", "catalog"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "thinfilm" / "__init__.py").is_file():
        print(f"perfbench: no thinfilm package under {SRC}", file=sys.stderr)
        return 2

    def log(msg):
        print(msg, flush=True)

    compileall.compile_dir(str(SRC / "thinfilm"), quiet=1)  # children start from bytecode
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        spec = make_inputs(args.workload, args.seed, work / "inputs")
        log(f"perfbench workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace}")
        log("env " + json.dumps(environment()))
        log("inputs " + json.dumps(spec))
        results, floor = run_reps(work / "inputs", work, args.seconds, bool(args.trace), log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    ok = [r for r in results if r["ok"]]
    failed = len(results) - len(ok)
    kinds = {r["traced"] for r in ok}
    if not ok or (args.trace and kinds != {False, True}):
        metrics = {}
    elif args.trace:
        metrics, missing = per_layer(ok)
        if missing:
            log("missing hooks: " + ", ".join(missing))
    else:
        metrics = end_to_end(ok, floor, log)
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}" + ("" if args.trace else f"  (over {len(ok)})"))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
