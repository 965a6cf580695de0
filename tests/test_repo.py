"""Repository-level contracts: the checkout tracks no file that .gitignore
lists, such as generated C or saved test output, and every library name
the benchmark's tracer patches still exists."""

import importlib
import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

import chowops

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_ignored_file_is_tracked():
    out = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout == ""


def test_benchmark_trace_targets_exist():
    # a name deleted from the library would otherwise surface only as a
    # crash of `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for mod_name, attr, _ in layers.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr))
    for mod_name, cls_name, attr, _ in layers.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(getattr(cls, attr))
    # benchmark records carry the backend name; compare.py refuses to
    # compare records whose names differ
    assert chowops.kernel_backend == "fallback"
