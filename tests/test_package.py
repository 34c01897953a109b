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


def _env() -> dict:
    """The environment of a fresh interpreter that finds this package first."""
    src = str(Path(importlib.import_module("shappaths").__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_process_pool():
    """Every command pays the CLI's import; Kernel SHAP's workers need only
    os and mmap, so neither process-pool package is loaded."""
    out = _python("import sys, shappaths.cli; "
                  "print([m for m in ('multiprocessing', 'concurrent.futures') "
                  "if m in sys.modules])")
    assert out.stdout.strip() == "[]"


LAYERS = ("data", "models", "explain", "subgroup", "viz")
_PRINT_LOADED = ("; print(json.dumps([m.split('.')[1] if m.startswith('shappaths.') else m "
                 "for m in sys.modules if m in ('numpy', 'numpy.random', 'numpy.ma') "
                 "or m.startswith('shappaths.')]))")


def _loaded_after(code: str) -> set[str]:
    """numpy, numpy.random, numpy.ma and the shappaths layers in sys.modules
    after ``code``."""
    out = _python("import json, sys; " + code + _PRINT_LOADED)
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["shappaths", "shappaths.cli"])
def test_import_loads_no_numpy_and_no_layer(module):
    """Each of the pipeline's ten processes pays this import."""
    assert _loaded_after(f"import {module}") & {"numpy", *LAYERS} == set()


@pytest.fixture(scope="module")
def tree_run(tmp_path_factory) -> Path:
    """A tiny simulated run with a tree trained and explained."""
    from shappaths.cli import main

    out = tmp_path_factory.mktemp("layers") / "run"
    for argv in (["simulate", "--n", "80"], ["train", "--model", "tree"],
                 ["explain", "--model", "tree"], ["cluster", "--source", "tree"]):
        assert main([*argv, "--out", str(out)]) == 0, argv
    return out


@pytest.mark.parametrize("argv, not_loaded", [
    (["report"], {"numpy", *LAYERS}),
    (["train", "--model", "tree"], {"explain", "subgroup", "viz"}),
    (["explain", "--model", "tree"], {"subgroup", "viz", "numpy.random"}),
    (["cluster", "--source", "tree"], {"models", "viz"}),
    (["embed", "--source", "tree"], {"models"}),
    (["waterfall", "--clustered", "--source", "tree"], {"data", "models"}),
    (["bar", "--source", "tree"], {"data", "models", "subgroup", "numpy.random"}),
    (["heatmap", "--source", "tree"], {"models"}),
], ids=["report", "train", "explain", "cluster", "embed", "waterfall-clustered", "bar",
        "heatmap"])
def test_each_command_loads_only_the_layers_it_runs(tree_run, argv, not_loaded):
    """No command loads numpy.ma either: numpy's first np.unique does, at
    about 6 ms per process."""
    code = (f"from shappaths.cli import main; "
            f"assert main({[*argv, '--out', str(tree_run)]!r}) == 0")
    assert _loaded_after(code) & (not_loaded | {"numpy.ma"}) == set()


def test_sampled_coalitions_and_idx_labels_load_no_numpy_ma(tmp_path):
    """The two other paths that took np.unique: Kernel SHAP's sampled
    coalitions (`explain` of an MLP on many features) and `load --idx`."""
    import struct

    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + bytes(range(16)))
    labels.write_bytes(struct.pack(">II", 0x801, 4) + bytes([7, 3, 7, 1]))
    code = ("import numpy as np; "
            "from shappaths.explain.kernel_shap import sample_coalitions; "
            "from shappaths.data import load_idx_images; "
            "assert sample_coalitions(10, 30, np.random.default_rng(0))[0].shape[0] > 20; "
            f"assert load_idx_images({str(images)!r}, {str(labels)!r}).class_names "
            "== ('1', '3', '7')")
    assert "numpy.ma" not in _loaded_after(code)


def test_tracer_finds_the_names_it_wraps(tmp_path):
    """perfbench/launch.py wraps package functions by the names callers use
    (``best_split`` on models.tree, ``train_tree`` on cli, ``loss_and_grads``
    on models.mlp, ``Mlp.predict_margin``); a rename must fail here, not
    leave a layer of the traced benchmark empty. The CLI binds each
    command's names before it runs; that binding must keep the tracer's
    wrappers in place."""
    root = Path(__file__).resolve().parents[1]
    names = set()
    for label, argv in [("simulate", ["simulate", "--n", "80"]),
                        ("train", ["train", "--model", "tree"]),
                        ("explain", ["explain", "--model", "tree"]),
                        ("train_mlp", ["train", "--model", "mlp"]),
                        ("explain_mlp", ["explain", "--model", "mlp"]),
                        ("bar", ["bar", "--source", "tree"])]:
        spans = tmp_path / f"{label}.spans.json"
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "launch.py"), str(spans),
                               "guard", label, "--", *argv, "--out", str(tmp_path / "run")],
                              env=_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        names |= {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"data.simulate", "models.best_split", "models.train_tree", "explain.tree_shap",
            "explain.tensor_io", "viz.render", "models.loss_and_grads",
            "models.predict_margin.mlp"} <= names
