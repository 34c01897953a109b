import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from shappaths import _DEFINED_IN, cli


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


LAYERS = tuple(f"shappaths.{layer}" for layer in ("data", "models", "explain", "subgroup", "viz"))
SUBPACKAGES = LAYERS[1:]
# no command after `explain` calls into these
EXPLAINERS = {"shappaths.explain.kernel_shap", "shappaths.explain.tree_shap", "shappaths.workers"}
UNUSED_BY_PLOTS = EXPLAINERS | {"shappaths.subgroup.hdbscan"}
_PRINT_LOADED = ("; print(json.dumps([m for m in sys.modules "
                 "if m in ('numpy', 'numpy.random', 'numpy.ma', 'dataclasses') "
                 "or m.startswith('shappaths.')]))")
# what a plot that does no array work leaves out
NO_ARRAYS = {"numpy", "dataclasses", "shappaths.data", "shappaths.models", "shappaths.subgroup",
             *UNUSED_BY_PLOTS}
# and a plot drawn from a written summary, which opens no tensor
NO_TENSORS = NO_ARRAYS | {"shappaths.explain", "shappaths.explain.reader",
                          "shappaths.explain.tensor"}


def _loaded_after(code: str) -> set[str]:
    """numpy, numpy.random, numpy.ma, dataclasses and the shappaths modules in
    sys.modules after ``code``."""
    out = _python("import json, sys; " + code + _PRINT_LOADED)
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["shappaths", "shappaths.cli"])
def test_import_loads_no_numpy_and_no_layer(module):
    """Each of the pipeline's ten processes pays this import."""
    assert _loaded_after(f"import {module}") & {"numpy", *LAYERS} == set()


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_import_loads_no_submodule(package):
    """A subpackage loads each of its modules on first use of one of its names."""
    assert _loaded_after(f"import {package}") == {package}


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
    (["train", "--model", "tree"], {"shappaths.explain", "shappaths.subgroup", "shappaths.viz"}),
    (["explain", "--model", "tree"], {"shappaths.subgroup", "shappaths.viz", "numpy.random"}),
    (["cluster", "--source", "tree"], {"shappaths.models", "shappaths.viz", *EXPLAINERS}),
    (["embed", "--source", "tree"], {"shappaths.data", "shappaths.models", *UNUSED_BY_PLOTS}),
    (["waterfall", "--source", "tree"], NO_ARRAYS),
    (["waterfall", "--clustered", "--source", "tree"],
     {"shappaths.data", "shappaths.models", *UNUSED_BY_PLOTS}),
    (["bar", "--source", "tree"], NO_TENSORS),
    (["heatmap", "--source", "tree"], NO_TENSORS),
], ids=["report", "train", "explain", "cluster", "embed", "waterfall", "waterfall-clustered",
        "bar", "heatmap"])
def test_each_command_loads_only_the_layers_it_runs(tree_run, argv, not_loaded):
    """Each command loads only the modules whose names it calls: `bar`, the
    classical `waterfall` and `heatmap` load neither numpy nor dataclasses
    (which loads inspect), `bar` and `heatmap` no module of
    shappaths.explain, and `embed`, which colours by cluster here,
    reads no dataset. No command loads numpy.ma either:
    numpy's first np.unique does, at about 6 ms per process."""
    code = (f"from shappaths.cli import main; "
            f"assert main({[*argv, '--out', str(tree_run)]!r}) == 0")
    assert _loaded_after(code) & (not_loaded | {"numpy.ma"}) == set()


_EXPORTS_ARE_THE_DEFINITIONS = """
import importlib
from shappaths import _DEFINED_IN

def defined(name):
    return getattr(importlib.import_module(_DEFINED_IN[name], "shappaths"), name)

for module in ("explain.tree_shap", "explain.kernel_shap", "subgroup.hdbscan"):
    importlib.import_module(f"shappaths.{module}")
from shappaths import tree_shap, kernel_shap, hdbscan
assert [tree_shap, kernel_shap, hdbscan] == [defined(n) for n in ("tree_shap", "kernel_shap",
                                                                   "hdbscan")]
for package in ("shappaths", *SUBPACKAGES):
    exported = importlib.import_module(package)
    for name in exported.__all__:
        assert getattr(exported, name) is defined(name), (package, name)
print("ok")
"""


@pytest.mark.parametrize("before", [[], ["cluster", "--source", "tree"]],
                         ids=["fresh", "after-cluster"])
def test_functions_named_like_their_modules_stay_functions(tree_run, before):
    """Importing a module sets it as an attribute of its package, under the
    name of the function it defines (``tree_shap``, ``kernel_shap``,
    ``hdbscan``); the top-level package still exports the function, and no
    subpackage exports the module in its place."""
    code = f"SUBPACKAGES = {SUBPACKAGES!r}\n"
    if before:
        code += ("from shappaths.cli import main\n"
                 f"assert main({[*before, '--out', str(tree_run)]!r}) == 0\n")
    assert _python(code + _EXPORTS_ARE_THE_DEFINITIONS).stdout.splitlines()[-1] == "ok"


def _global_names(fn) -> set[str]:
    """The names that ``fn``, its nested code and every cli function it
    reaches (through the names it loads) look up."""
    names, seen, todo = set(), set(), [fn.__code__]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        todo += [const for const in code.co_consts if isinstance(const, types.CodeType)]
        for name in code.co_names:
            names.add(name)
            helper = vars(cli).get(name)
            if isinstance(helper, types.FunctionType) and helper.__module__ == cli.__name__:
                todo.append(helper.__code__)
    return names


@pytest.mark.parametrize("command", sorted(cli.COMMANDS) + sorted(cli.BRANCHES))
def test_each_command_binds_every_name_it_calls(command):
    """A name a command calls but does not bind is a NameError on a branch
    that may never run in the tests (``load --idx-images`` for one); a name
    it binds but never calls loads a module for nothing.
    So the check is static, over the code objects. A branch in
    ``cli.BRANCHES`` (``waterfall --clustered``) binds its own names, and
    the walk from its command does not enter it."""
    run, _, names = {**cli.COMMANDS, **cli.BRANCHES}[command]
    assert _global_names(run) & set(_DEFINED_IN) == set(names.split())


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
