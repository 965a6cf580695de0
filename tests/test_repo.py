"""Repository-level contracts: the checkout tracks no file that .gitignore
lists, such as generated C or saved test output; every library module is
imported by the CLI, so none is reached only by the tests; and every
library name the benchmark's tracer patches still exists."""

import importlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chowops
from chowops.chow import restriction_map
from chowops.groups import FiniteGroup

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_ignored_file_is_tracked():
    out = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout == ""


def test_every_library_module_is_imported_by_the_cli():
    # in a fresh interpreter, so that the test suite's own imports do not
    # count
    src = Path(chowops.__file__).resolve().parent
    code = ("import sys, chowops.cli; print(' '.join(sorted("
            "m for m in sys.modules if m.startswith('chowops'))))")
    env = dict(os.environ, PYTHONPATH=str(src.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    modules = {f"chowops.{path.stem}" for path in src.glob("*.py")
               if path.stem != "__init__"} | {"chowops"}
    assert modules <= set(out.stdout.split())


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
    # the map counter reads the ring map's generator images and the
    # rings' generators and relations
    G = FiniteGroup.from_abelian([2, 2])
    tracer = layers.Tracer()
    tracer._count_matrix((restriction_map(G, [0, 1], 2), 2), None)
    assert tracer.counts["chow.matrix_calls"] == 1
    # benchmark records carry the backend name; compare.py refuses to
    # compare records whose names differ
    assert chowops.kernel_backend == "fallback"
