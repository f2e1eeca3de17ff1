"""The benchmark's tracer still finds every srlab function it wraps.

bench/tracing.py binds functions by module and name, so renaming or deleting
one breaks every `--trace 1` run; this catches it without running a workload.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_child_starts(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "bench/child.py", "--trace", str(trace), "ready"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    bindings = set(json.loads(trace.read_text())["bindings"])
    for module, attr, _ in _tracing().TARGETS.values():
        assert f"{module}.{attr}" in bindings, f"the tracer never bound {module}.{attr}"


def _tracing():
    """bench/tracing.py, which is not on the import path."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing
