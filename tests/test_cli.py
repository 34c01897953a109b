import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from shappaths.cli import FLAGS, _overrides, build_parser, main
from shappaths.manifest import DEFAULT_CONFIG, DEFAULT_DATASET, config_hash, resolve_config

CFG = {
    "seed": 13,
    "dataset": {"source": "simulate", "n_samples": 240, "n_features": 5},
    "models": {"tree": {"max_depth": 4, "min_leaf": 4},
               "boosted": {"n_rounds": 10, "max_depth": 2},
               "mlp": {"hidden": [12], "epochs": 25, "learning_rate": 0.1}},
    "explain": {"on": "test", "background_size": 30, "n_coalitions": 30},
    "cluster": {"source": "boosted", "min_cluster_size": 6},
}


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG))
    return path


def run(cfg_file, out, *argv):
    return main([argv[0], "--config", str(cfg_file), "--out", str(out), *argv[1:]])


def test_simulate_byte_identical(cfg_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(cfg_file, a, "simulate") == 0
    assert run(cfg_file, b, "simulate") == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "dataset.json").read_bytes() == (b / "dataset.json").read_bytes()


def test_explain_before_train_names_expected_path(cfg_file, tmp_path, capsys):
    out = tmp_path / "r"
    assert run(cfg_file, out, "simulate") == 0
    assert run(cfg_file, out, "explain", "--model", "tree") == 3
    err = capsys.readouterr().err
    assert "model_tree.json" in err


def test_train_before_dataset_is_missing_artifact(cfg_file, tmp_path):
    assert run(cfg_file, tmp_path / "r2", "train") == 3


def test_config_hash_mismatch_rejected(cfg_file, tmp_path):
    out = tmp_path / "r"
    assert run(cfg_file, out, "simulate") == 0
    other = dict(CFG)
    other["seed"] = 14
    other_file = tmp_path / "other.json"
    other_file.write_text(json.dumps(other))
    assert run(other_file, out, "simulate") == 2


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sede": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


def test_hash_ignores_plot_settings():
    base = resolve_config(CFG, {})
    tweaked = resolve_config(CFG, {"plots": {"top_n": 3}})
    assert config_hash(base) == config_hash(tweaked)
    semantic = resolve_config(CFG, {"seed": 99})
    assert config_hash(base) != config_hash(semantic)


def test_full_pipeline_artifacts_and_report(cfg_file, tmp_path):
    out = tmp_path / "run"
    for cmd in (["simulate"], ["train"], ["explain"], ["cluster"], ["embed"],
                ["waterfall", "--source", "tree", "--sample", "0", "--class-index", "0"],
                ["waterfall", "--clustered"],
                ["bar", "--source", "tree"], ["bar", "--source", "boosted"],
                ["bar", "--source", "mlp"], ["heatmap"], ["report"]):
        assert run(cfg_file, out, *cmd) == 0, f"command failed: {cmd}"

    manifest = json.loads((out / "manifest.json").read_text())
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"tree", "boosted", "mlp"}
    for kind in ("tree", "boosted", "mlp"):
        assert (out / f"shap_{kind}.csv").exists()
        rows = metrics[kind]["classes"]
        assert [r["class"] for r in rows] == ["class_1", "class_2", "class_3"]
        assert sum(r["support"] for r in rows) == 72  # 30% of 240
    svgs = list(out.glob("*.svg"))
    assert len(svgs) >= 4
    assert (out / "clusters.csv").exists()
    report = (out / "report.html").read_text()
    assert "<table>" in report and "accuracy" in report
    assert report.count("<svg") == len(svgs)
    # clusters.csv sample ids reference test rows of the dataset
    meta = json.loads((out / "dataset.json").read_text())
    ids = [int(line.split(",")[0])
           for line in (out / "clusters.csv").read_text().splitlines()[1:]]
    assert ids == meta["split"]["test"]
    # regenerating the report is byte-deterministic
    before = (out / "report.html").read_bytes()
    assert run(cfg_file, out, "report") == 0
    assert (out / "report.html").read_bytes() == before


def test_end_to_end_determinism(cfg_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        for cmd in (["simulate"], ["train"], ["explain"], ["cluster"]):
            assert run(cfg_file, out, *cmd) == 0
    for name in ("dataset.csv", "model_boosted.json", "shap_boosted.csv",
                 "clusters.csv", "purity.json", "metrics.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("stages")
    mb.pop("stages")
    assert ma == mb  # identical manifests modulo timings


def test_report_incomplete_run(cfg_file, tmp_path):
    out = tmp_path / "r"
    assert run(cfg_file, out, "simulate") == 0
    assert run(cfg_file, out, "report") == 3


def test_csv_load_pipeline(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["x1,x2,label"]
    for _ in range(80):
        a, b = rng.normal(), rng.normal()
        rows.append(f"{a},{b},{'hi' if a > 0 else 'lo'}")
    data_file = tmp_path / "data.csv"
    data_file.write_text("\n".join(rows) + "\n")
    cfg = {"seed": 1,
           "dataset": {"source": "csv", "path": str(data_file), "target": "label",
                       "scale": True, "train_fraction": 0.75},
           "models": {"tree": {"max_depth": 3, "min_leaf": 2}},
           "cluster": {"source": "tree", "min_cluster_size": 5}}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    for cmd in (["load"], ["train"], ["explain"], ["cluster"], ["report"]):
        assert run(cfg_file, out, *cmd) == 0
    meta = json.loads((out / "dataset.json").read_text())
    assert meta["scaling"] is not None
    assert meta["class_names"] == ["hi", "lo"] or meta["class_names"] == ["lo", "hi"]


def test_simulate_flag_overrides(tmp_path):
    out = tmp_path / "r"
    assert main(["simulate", "--n", "60", "--p", "4", "--seed", "5",
                 "--out", str(out)]) == 0
    meta = json.loads((out / "dataset.json").read_text())
    assert meta["n"] == 60 and meta["p"] == 4


def test_env_var_output_root(cfg_file, tmp_path, monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv("SHAPPATHS_OUT", str(root))
    assert main(["simulate", "--config", str(cfg_file)]) == 0
    runs = list(root.iterdir())
    assert len(runs) == 1
    assert (runs[0] / "dataset.csv").exists()
    expected = config_hash(resolve_config(CFG, {}))[:12]
    assert runs[0].name == expected


def test_cluster_source_must_be_configured(cfg_file, tmp_path):
    cfg = dict(CFG)
    cfg["cluster"] = {"source": "mlp"}
    cfg["models"] = {"tree": {"max_depth": 3}}
    f = tmp_path / "c.json"
    f.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(f), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_non_finite_cell_rejected(tmp_path, capsys, bad):
    rows = ["x1,x2,label", "0.5,1.0,hi", f"{bad},2.0,lo", "1.5,-1.0,hi", "0.1,0.2,lo"]
    data_file = tmp_path / "data.csv"
    data_file.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    assert main(["load", "--csv", str(data_file), "--target", "label",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{data_file}:3: non-finite feature cell" in err
    assert not (out / "dataset.csv").exists()


@pytest.mark.parametrize("damage", [lambda b: b[:40], lambda b: b"\xff\xfe" + b[2:]],
                         ids=["truncated", "not-utf8"])
def test_damaged_manifest_is_config_error(cfg_file, tmp_path, capsys, damage):
    out = tmp_path / "r"
    assert run(cfg_file, out, "simulate") == 0
    manifest = out / "manifest.json"
    manifest.write_bytes(damage(manifest.read_bytes()))
    assert run(cfg_file, out, "explain") == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# the flag table, resuming from the stored config, damaged run artifacts

def _readme_cli_block() -> list[list[str]]:
    """The commands of the sh block under the README's CLI heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0]) for line in block.splitlines() if line.strip()]


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    commands = _readme_cli_block()
    assert [argv[0] for argv in commands] == ["shappaths"] * len(commands)
    assert "--config" not in sum(commands, [])  # later commands resume the stored config
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = argv[1:]
        if "--n" in argv:  # small n keeps the test fast; everything else as written
            argv[argv.index("--n") + 1] = "150"
        assert main(argv) == 0, f"{argv}: {capsys.readouterr().err}"
    assert (tmp_path / "run" / "report.html").exists()


def test_source_selects_the_tensor_on_a_resumed_run(cfg_file, tmp_path):
    out = tmp_path / "r"
    for cmd in (["simulate"], ["train"], ["explain"]):
        assert run(cfg_file, out, *cmd) == 0
    assert run(cfg_file, out, "cluster", "--source", "tree") == 0
    assert json.loads((out / "purity.json").read_text())["source"] == "tree"
    assert main(["cluster", "--out", str(out), "--source", "mlp"]) == 0
    assert json.loads((out / "purity.json").read_text())["source"] == "mlp"


@pytest.mark.parametrize("damage", [lambda b: b[:40], lambda b: b"\xff\xfe" + b[2:]],
                         ids=["truncated", "not-utf8"])
def test_damaged_manifest_without_config_is_config_error(cfg_file, tmp_path, capsys, damage):
    out = tmp_path / "r"
    assert run(cfg_file, out, "simulate") == 0
    manifest = out / "manifest.json"
    manifest.write_bytes(damage(manifest.read_bytes()))
    assert main(["train", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "Traceback" not in err


def _cut_last_row(b: bytes) -> bytes:
    return b[: b.rindex(b"\n", 0, len(b) - 1) + 1]


CUTS = {"half": lambda b: b[: len(b) // 2],
        "in-last-cell": lambda b: b[:-3],      # drops the line break and a character
        "whole-row": _cut_last_row}


@pytest.mark.parametrize("name,cut", [("shap_boosted.csv", c) for c in CUTS]
                         + [("shap_boosted.json", "half")])
def test_truncated_shap_tensor_exits_2(cfg_file, tmp_path, capfd, name, cut):
    out = tmp_path / "r"
    for cmd in (["simulate"], ["train", "--model", "boosted"], ["explain", "--model", "boosted"]):
        assert run(cfg_file, out, *cmd) == 0
    path = out / name
    path.write_bytes(CUTS[cut](path.read_bytes()))
    capfd.readouterr()
    assert main(["cluster", "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "explain"])
@pytest.mark.parametrize("name,cut", [("dataset.csv", c) for c in CUTS]
                         + [("dataset.json", "half")])
def test_truncated_dataset_exits_2(cfg_file, tmp_path, capfd, name, cut, command):
    out = tmp_path / "r"
    assert run(cfg_file, out, "simulate") == 0
    path = out / name
    path.write_bytes(CUTS[cut](path.read_bytes()))
    capfd.readouterr()
    assert main([command, "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert str(path) in err and "Traceback" not in err


def _last_commas(b: bytes) -> tuple[int, int]:
    last = b.rindex(b",")
    return b.rindex(b",", 0, last), last


CLUSTER_DAMAGE = {"id,label": lambda b: b[: _last_commas(b)[1]],
                  "id,": lambda b: b[: _last_commas(b)[0] + 1],
                  "id": lambda b: b[: _last_commas(b)[0]],
                  "in-stability": lambda b: b[:-3],
                  "whole-row": _cut_last_row,
                  "bad-stability": lambda b: b[: _last_commas(b)[1]] + b",x\n",
                  "not-utf8": lambda b: b[:-3] + b"\xff\n"}


@pytest.mark.parametrize("command", [["embed"], ["waterfall", "--clustered"], ["heatmap"]],
                         ids=["embed", "waterfall", "heatmap"])
@pytest.mark.parametrize("damage", list(CLUSTER_DAMAGE))
def test_damaged_clusters_exits_2(cfg_file, tmp_path, capfd, damage, command):
    out = tmp_path / "r"
    for cmd in (["simulate"], ["train", "--model", "boosted"], ["explain", "--model", "boosted"],
                ["cluster"]):
        assert run(cfg_file, out, *cmd) == 0
    path = out / "clusters.csv"
    path.write_bytes(CLUSTER_DAMAGE[damage](path.read_bytes()))
    capfd.readouterr()
    assert main([*command, "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert str(path) in err and "Traceback" not in err


def _lookup(config: dict, path: str):
    for key in path.split("."):
        config = config[key]
    return config


@pytest.mark.parametrize("flag,command", [(f, c) for f in FLAGS if f.path for c in f.commands],
                         ids=lambda v: getattr(v, "name", v))
def test_flag_table_row_sets_its_config_key(flag, command):
    if command != "load":
        companions = []
    elif flag.path in ("dataset.images", "dataset.labels"):
        companions = ["--idx-images", "images", "--idx-labels", "labels"]
    else:
        companions = ["--csv", "data.csv"]
    value = [] if flag.kwargs.get("action") == "store_true" else \
        [{int: "3", float: "0.25"}.get(flag.kwargs.get("type"), "v")]
    args = build_parser().parse_args([command, *companions, flag.name, *value])
    config = resolve_config({}, _overrides(args))
    defaults = DEFAULT_CONFIG
    if flag.path.startswith("dataset."):
        defaults = {"dataset": DEFAULT_DATASET[config["dataset"]["source"]]}
    assert _lookup(config, flag.path) == getattr(args, flag.dest)
    assert _lookup(config, flag.path) != _lookup(defaults, flag.path)


def test_selectors_stay_out_of_the_config():
    for argv in (["cluster", "--source", "tree"], ["train", "--model", "mlp"],
                 ["waterfall", "--clustered"], ["report", "--out", "x"]):
        assert _overrides(build_parser().parse_args(argv)) == {}


@pytest.mark.parametrize("argv", [
    ["explain", "--on", "all"], ["explain", "--background", "5"],
    ["explain", "--coalitions", "20"], ["cluster", "--min-cluster-size", "8"],
    ["cluster", "--min-samples", "2"], ["train", "--n", "60"], ["explain", "--scale"]],
    ids=" ".join)
def test_flags_that_cannot_take_effect_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("kind", ["tree", "boosted"])
@pytest.mark.parametrize("bad", [{"min_leaf": 0}, {"max_depth": -1}], ids=["min_leaf", "max_depth"])
def test_bad_tree_hyperparameters_exit_2(tmp_path, capsys, kind, bad):
    cfg = {"dataset": {"n_samples": 120, "n_features": 4}, "models": {kind: bad},
           "cluster": {"source": kind}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run(cfg_path, out, "simulate") == 0
    assert run(cfg_path, out, "train") == 2
    assert "max_depth must be >= 0 and min_leaf >= 1" in capsys.readouterr().err
    assert not (out / f"model_{kind}.json").exists()


@pytest.mark.parametrize("command", ["simulate", "load"])
@pytest.mark.parametrize("kind,key", [("tree", "depth"), ("boosted", "min_leaves"),
                                      ("mlp", "bogus")])
def test_unknown_model_parameter_rejected(tmp_path, capsys, command, kind, key):
    data_file = tmp_path / "data.csv"
    data_file.write_text("x1,x2,target\n0.5,1.0,a\n1.5,0.0,b\n")
    cfg = {"models": {kind: {key: 0}}, "cluster": {"source": kind}}
    if command == "load":
        cfg["dataset"] = {"source": "csv", "path": str(data_file)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(cfg_path, tmp_path / "run", command) == 2
    err = capsys.readouterr().err
    assert f"models.{kind}" in err and key in err
    assert "Traceback" not in err
