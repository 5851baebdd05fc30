"""The benchmark's tracer still finds every layer it wraps.

`perfbench/tracer.py` replaces each of its targets at every binding site and
refuses to run if one is missing or if anything else (a table, a closure, a
default argument) still refers to an original. This runs that installation
in a fresh process, reading `perfbench/` without changing it, so a renamed
target or a stray reference fails here and not only in a traced benchmark
run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_INSTALL = """
import importlib
import sys

sys.path[:0] = [{perfbench!r}, {src!r}]
from tracer import TARGETS, Tracer

for module in sorted({{module for module, _ in TARGETS}}):
    importlib.import_module("colexjump." + module)
tracer = Tracer()
tracer.install()
tracer.uninstall()
print(len(TARGETS), "targets installed")
"""


def test_benchmark_tracer_installs_on_every_target():
    script = _INSTALL.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("targets installed")
