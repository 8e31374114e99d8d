"""Layer spans for the traced benchmark run, recorded from outside the program.

The tracer replaces module attributes of the `thinfilm` package with timing
wrappers.  Each call becomes a span (name, start, end, parent index) kept in
memory and written out once the repetition ends.  Only attributes looked up
at call time are affected, so each hook names the module *through which the
caller reaches the callable* (for example `spsolve` as bound in
`thinfilm.evolution`).  A hook whose attribute no longer exists is reported
as missing and skipped, so a refactor that removes it costs its layer
numbers, never the run.

The untraced repetitions use the same hooks through `EventLog`, which keeps
only the time of every hooked call's entry and exit.  Consecutive events cut
the workload call into short pieces that are the same from one repetition
to the next; `run.py` sums each piece's shortest time over a run's
repetitions.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import json
import os
import time
from array import array

# (module, attribute, span name).  The span name is the layer metric prefix.
HOOKS = (
    ("thinfilm.experiments", "build_initial", "experiments.build_initial"),
    ("thinfilm.experiments", "run", "evolution.run"),
    ("thinfilm.evolution", "step", "evolution.step"),
    ("thinfilm.evolution", "spsolve", "evolution.linsolve"),
    ("thinfilm.evolution", "energy", "functionals.energy_guard"),
    ("thinfilm.evolution", "diagnostics_sample", "functionals.diagnostics_sample"),
    ("thinfilm.steady", "minimizer", "steady.minimizer"),
    ("thinfilm.steady", "catalog", "steady.catalog"),
    ("thinfilm.steady", "tau_from_mass", "steady.tau_from_mass"),
    ("thinfilm.steady", "mass_of_tau", "steady.mass_of_tau"),
    ("thinfilm.experiments", "cmd_rates", "experiments.rates"),
)

# Files opened for writing from these modules form the output layer.
WRITE_SPAN = "experiments.write"
WRITE_MODULES = ("thinfilm.grid", "thinfilm.functionals", "thinfilm.steady",
                 "thinfilm.experiments")

ROOT_SPAN = "workload"
SPAN_NAMES = tuple(name for _, _, name in HOOKS) + (WRITE_SPAN,)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []
        self.bytes_written = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def install(self) -> None:
        self.missing.extend(install_hooks(self.wrap))
        for modname in WRITE_MODULES:
            try:
                mod = importlib.import_module(modname)
            except ModuleNotFoundError:
                self.missing.append(f"{modname}.open")
                continue
            mod.open = self._open

    def _open(self, file, mode="r", *args, **kwargs):
        f = builtins.open(file, mode, *args, **kwargs)
        if not any(c in mode for c in "wax+"):
            return f
        return _TracedFile(self, f, file)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "missing": self.missing,
                       "bytes_written": self.bytes_written}, f)


def install_hooks(wrap) -> list:
    """Replace every HOOKS attribute by wrap(span name, callable); return the
    hooks that no longer exist."""
    missing = []
    for modname, attr, name in HOOKS:
        mod = importlib.import_module(modname)
        if not hasattr(mod, attr):
            missing.append(f"{modname}.{attr}")
            continue
        setattr(mod, attr, wrap(name, getattr(mod, attr)))
    return missing


class EventLog:
    """Entry and exit times of the hooked calls, bracketed by the start and
    end of the workload call.  `ids` says which hook each event belongs to
    (k on entry, ~k on exit), so runs can check that every repetition cut
    its call into the same pieces."""

    def __init__(self):
        self.ids = array("i")
        self.times = array("d")
        install_hooks(self.wrap)  # a missing hook only makes the pieces coarser

    def wrap(self, name: str, fn):
        k = SPAN_NAMES.index(name)
        ids, times, now = self.ids, self.times, time.perf_counter

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            ids.append(k)
            times.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ids.append(~k)
                times.append(now())
        return marked

    def start(self) -> None:
        self.times.append(time.perf_counter())

    def stop(self) -> float:
        """Close the workload call; return its duration."""
        self.times.append(time.perf_counter())
        return self.times[-1] - self.times[0]

    def dump(self, path) -> None:
        with open(path, "wb") as f:
            f.write(len(self.ids).to_bytes(8, "little"))
            self.ids.tofile(f)
            self.times.tofile(f)


def load_pieces(path) -> tuple:
    """(event ids as bytes, piece durations) from an EventLog dump."""
    with open(path, "rb") as f:
        n = int.from_bytes(f.read(8), "little")
        ids = f.read(n * array("i").itemsize)
        times = array("d")
        times.frombytes(f.read())
    return ids, array("d", (b - a for a, b in zip(times, times[1:])))


class _TracedFile:
    """File proxy whose span runs from open to close, formatting included."""

    def __init__(self, tracer: Tracer, f, path):
        self._tracer = tracer
        self._f = f
        self._path = path
        self._span = tracer.begin(WRITE_SPAN)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._span is None:
            return
        self._f.close()
        self._tracer.bytes_written += os.path.getsize(self._path)
        self._tracer.end(self._span)
        self._span = None


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds (duration minus the
    time covered by direct children).  Self times of all spans, the root's
    included, add up to the root's duration."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        rec["calls"] += 1
        rec["s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - child_time[i]
        rec["durations"].append(t1 - t0)
    return out
