"""The benchmark's layer hooks (perfbench/layertrace.py HOOKS) still name
callables of the package, so a refactor cannot drop a layer's numbers
without a failing test.  The hook table is read, not edited."""

import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The linear-solve hook still names scipy's spsolve, which the step no
# longer calls; re-pointing it is a change to the benchmark itself.
KNOWN_MISSING = {("thinfilm.evolution", "spsolve")}


def benchmark_hooks():
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace.HOOKS


def test_every_hook_names_a_package_callable():
    src = (ROOT / "src" / "thinfilm").resolve()
    hooks = benchmark_hooks()
    assert len(hooks) > len(KNOWN_MISSING)
    for module, attr, span in hooks:
        if (module, attr) in KNOWN_MISSING:
            continue
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{span}: {module}.{attr} no longer exists"
        assert Path(inspect.getsourcefile(fn)).resolve().parent == src, (
            f"{span}: {module}.{attr} is not defined in the package")
