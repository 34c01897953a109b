import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["shappaths", "shappaths.models", "shappaths.explain",
                                    "shappaths.subgroup", "shappaths.viz"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_cli_import_loads_no_process_pool():
    """Every command pays the CLI's import; Kernel SHAP's workers need only
    os and mmap, so neither process-pool package is loaded."""
    src = str(Path(importlib.import_module("shappaths").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, shappaths.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_tracer_finds_the_names_it_wraps(tmp_path):
    """perfbench/launch.py wraps package functions by the names callers use
    (``best_split`` on models.tree, ``train_tree`` on cli); a rename must
    fail here, not leave a layer of the traced benchmark empty."""
    root = Path(__file__).resolve().parents[1]
    src = str(Path(importlib.import_module("shappaths").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    names = set()
    for label, argv in [("simulate", ["simulate", "--n", "80"]),
                        ("train", ["train", "--model", "tree"])]:
        spans = tmp_path / f"{label}.spans.json"
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "launch.py"), str(spans),
                               "guard", label, "--", *argv, "--out", str(tmp_path / "run")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        names |= {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"models.best_split", "models.train_tree"} <= names
