"""The benchmark runs end to end and its tracer still reaches the layers it
reports: a rename that unhooks a traced binding fails here instead of
silently zeroing a layer.  Reads ``perfbench/`` and changes nothing there."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_translate_large_run():
    argv = [
        sys.executable,
        "perfbench/run.py",
        "--workload", "translate-large",
        "--seed", "0",
        "--seconds", "1",
        "--trace", "1",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["surface.parse_term.calls"]["value"] > 0
    assert metrics["translate.instantiate_template.calls"]["value"] > 0


def test_traced_laws_acceptance_run():
    """The law checks reach ``gen_term`` through the module-level name that
    the tracer wraps, so a generator that bypassed it would read 0 here."""
    argv = [
        sys.executable,
        "perfbench/run.py",
        "--workload", "laws-acceptance",
        "--seed", "0",
        "--seconds", "1",
        "--trace", "1",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["laws.gen_term.calls"]["value"] > 0


def test_traced_subst_wide_run():
    """Each kernel operation is reached through the name the tracer wraps,
    ``substitute``'s image weakening included."""
    argv = [
        sys.executable,
        "perfbench/run.py",
        "--workload", "subst-wide",
        "--seed", "0",
        "--seconds", "1",
        "--trace", "1",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    for layer in ("substitute", "weaken", "rename", "infer"):
        assert metrics[f"terms.{layer}.calls"]["value"] > 0, layer
