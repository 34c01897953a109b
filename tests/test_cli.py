import copy
import csv
import hashlib
import json
import os
import re
import shlex
import shutil
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from shappaths.cli import FLAGS, _load_dataset, _open_run, _overrides, build_parser, main
from shappaths.data import load_csv, read_csv
from shappaths.explain import load_tensor
from shappaths.errors import ConfigError, NumericalError
from shappaths.explain.reader import TensorReader
from shappaths.manifest import (DEFAULT_CONFIG, DEFAULT_DATASET, RunManifest, config_hash,
                                read_manifest, resolve_config)
from shappaths.viz import PlotSpec, classical_waterfall
from shappaths.workers import run_forked
from util import QUOTED_CLASSES, QUOTED_FEATURES

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


def test_train_in_an_empty_run_names_the_dataset_file(cfg_file, tmp_path, capsys):
    out = tmp_path / "r"
    assert run(cfg_file, out, "train") == 3
    assert f"expected {out / 'dataset.csv'} " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["heatmap"], ["waterfall", "--clustered"]])
def test_clusters_before_cluster_names_the_clusters_file(cfg_file, tmp_path, capsys, argv):
    """Each names the file of `cluster`'s that it reads: the heatmap draws
    the cluster means, the clustered waterfall groups by the labels."""
    out = tmp_path / "r"
    for cmd in (["simulate"], ["train", "--model", "tree"], ["explain", "--model", "tree"]):
        assert run(cfg_file, out, *cmd) == 0, cmd
    capsys.readouterr()
    assert run(cfg_file, out, *argv, "--source", "tree") == 3
    name = "cluster_means.json" if argv == ["heatmap"] else "clusters.csv"
    assert f"expected {out / name} (run `shappaths cluster` first)" in capsys.readouterr().err


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
        assert (out / f"shap_{kind}.csv").exists() and (out / f"shap_{kind}.f64").exists()
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
    for name in ("dataset.csv", "model_boosted.json", "shap_boosted.csv", "shap_boosted.f64",
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
    assert run(cfg_file, out, "train", "--model", "tree") == 0
    assert run(cfg_file, out, "report") == 3  # trained, but no SHAP tensor yet


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


QUOTED_TARGET = 'the "class",\nsaid'


def _quoted_run(tmp_path) -> Path:
    """A run loaded from a CSV whose names hold a delimiter, a quote and a
    line break, with a tree trained and explained."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, len(QUOTED_FEATURES)))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5)
    path = tmp_path / "quoted.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([QUOTED_FEATURES[0], QUOTED_TARGET, *QUOTED_FEATURES[1:]])
        writer.writerows([repr(row[0]), QUOTED_CLASSES[c], *map(repr, row[1:])]
                         for row, c in zip(X.tolist(), y))
    out = tmp_path / "run"
    assert main(["load", "--csv", str(path), "--target", QUOTED_TARGET, "--out", str(out)]) == 0
    for cmd in (["train", "--model", "tree"], ["explain", "--model", "tree"]):
        assert main([*cmd, "--out", str(out)]) == 0, cmd
    return out


def test_quoted_names_survive_the_reload(tmp_path):
    """Names holding a delimiter, a quote and a line break, read back by
    train and explain as `load` ingested them."""
    out = _quoted_run(tmp_path)
    ingested = load_csv(tmp_path / "quoted.csv", QUOTED_TARGET)
    reloaded, _ = _load_dataset(_open_run(build_parser().parse_args(["train", "--out",
                                                                     str(out)])))
    assert reloaded.feature_names == ingested.feature_names == QUOTED_FEATURES
    assert reloaded.class_names == ingested.class_names
    assert set(reloaded.class_names) == set(QUOTED_CLASSES)
    assert np.array_equal(reloaded.labels, ingested.labels)
    assert np.array_equal(reloaded.features.view(np.uint64), ingested.features.view(np.uint64))
    shap = json.loads((out / "shap_tree.json").read_text(encoding="utf-8"))
    assert (shap["feature_names"], shap["class_names"]) == \
        (list(QUOTED_FEATURES), list(ingested.class_names))


def test_classical_waterfall_under_a_quoted_header_draws_the_asked_row(tmp_path):
    """The tensor's header spans lines and holds a lone \\r; the streaming
    reader skips it whole and draws the row --sample names, as the csv
    module reads that row."""
    out = _quoted_run(tmp_path)
    assert main(["waterfall", "--source", "tree", "--sample", "1", "--class-index", "1",
                 "--out", str(out)]) == 0
    shap = json.loads((out / "shap_tree.json").read_text(encoding="utf-8"))
    with open(out / "shap_tree.csv", newline="", encoding="utf-8") as fh:
        header, _, row, *_ = csv.reader(fh)
    assert header[1] == f"{QUOTED_FEATURES[0]}|{shap['class_names'][0]}"
    k = len(shap["class_names"])
    expected = classical_waterfall([float(v) for v in row[1:]][1::k], shap["base"][1],
                                   QUOTED_FEATURES, f"sample {row[0]}, {shap['class_names'][1]}",
                                   PlotSpec())
    assert (out / "waterfall_tree_s1_c1.svg").read_bytes() == expected.encode("utf-8")


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


@pytest.mark.parametrize("name,cut", [("shap_boosted.f64", c) for c in CUTS]
                         + [("shap_boosted.json", "half")])
def test_truncated_shap_tensor_exits_2(cfg_file, tmp_path, capfd, name, cut):
    out = tmp_path / "r"
    for cmd in (["simulate"], ["train", "--model", "boosted"], ["explain", "--model", "boosted"]):
        assert run(cfg_file, out, *cmd) == 0
    path = out / name
    shap = json.loads((out / "shap_boosted.json").read_text())
    row_bytes = 8 * (1 + shap["p"] * shap["k"])  # the body holds no line breaks
    cuts = {**CUTS, "whole-row": lambda b: b[:-row_bytes]} if name.endswith(".f64") else CUTS
    path.write_bytes(cuts[cut](path.read_bytes()))
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


@pytest.mark.parametrize("command", [["embed"], ["waterfall", "--clustered"]],
                         ids=["embed", "waterfall"])
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


def _small_run(tmp_path, n_samples, **dataset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "dataset": {**CFG["dataset"], "n_samples": n_samples,
                                                  **dataset},
                               "cluster": {"source": "boosted", "min_cluster_size": 15}}))
    out = tmp_path / "r"
    for cmd in (["simulate"], ["train", "--model", "boosted"], ["explain", "--model", "boosted"]):
        assert run(cfg, out, *cmd) == 0
    return cfg, out


def test_clustered_waterfall_of_one_cluster_is_drawn(tmp_path):
    """One cluster at --top-n 1 pools two segments, which span one axis."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"n_samples": 160}, "models": {"mlp": {}},
                               "cluster": {"source": "mlp"}}))
    out = tmp_path / "r"
    for cmd in (["simulate"], ["train"], ["explain"], ["cluster"]):
        assert run(cfg, out, *cmd) == 0, cmd
    assert json.loads((out / "purity.json").read_text())["n_clusters"] == 1
    assert main(["waterfall", "--clustered", "--top-n", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "waterfall_clustered_mlp.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows][::2] == ["anchor", "rest"] and len(rows) == 3
    assert len({row[2] for row in rows}) == 3 and {row[3] for row in rows} == {"0.0"}


def test_heatmap_without_clusters_draws_the_noise_footnote(tmp_path, capfd):
    # 12 explained rows, fewer than min_cluster_size: HDBSCAN finds no cluster
    cfg, out = _small_run(tmp_path, 40)
    assert run(cfg, out, "cluster") == 0
    capfd.readouterr()
    assert main(["heatmap", "--out", str(out)]) == 0
    assert "heatmap: 0 clusters" in capfd.readouterr().out
    svg = (out / "heatmap.svg").read_text(encoding="utf-8")
    assert "noise: 12 samples excluded" in svg and 'class="cell"' not in svg


@pytest.mark.parametrize("train_fraction,n_explained", [(0.87, 2), (0.94, 1)])
def test_embed_of_fewer_than_3_rows_exits_2(tmp_path, capfd, train_fraction, n_explained):
    _, out = _small_run(tmp_path, 15, train_fraction=train_fraction)
    capfd.readouterr()
    assert main(["embed", "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert f"has {n_explained}" in err and "Traceback" not in err
    assert not (out / "embed.csv").exists()


def test_stage_records_only_a_clean_exit(tmp_path):
    manifest = RunManifest(tmp_path / "r", resolve_config({}), "test")
    with manifest.stage("ok") as same:
        assert same is manifest
    with pytest.raises(RuntimeError), manifest.stage("failed"):
        raise RuntimeError("stage failed")
    saved = json.loads(manifest.path.read_text(encoding="utf-8"))["stages"]
    assert list(saved) == ["ok"] and saved["ok"]["seconds"] >= 0


def test_a_save_that_fails_partway_leaves_the_previous_manifest(tmp_path, monkeypatch):
    """The state goes to a temporary file that replaces manifest.json only
    once it is whole; a failed write leaves the old file and no temporary."""
    manifest = RunManifest(tmp_path / "r", resolve_config({}), "test")
    manifest.record_stage("first", 1.0)
    before = manifest.path.read_bytes()

    def torn_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:200])
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError, match="no space left"):
        manifest.record_stage("second", 2.0)
    assert manifest.path.read_bytes() == before
    assert list(read_manifest(manifest.path)["stages"]) == ["first"]
    assert [path.name for path in manifest.run_dir.iterdir()] == ["manifest.json"]


MANIFEST_DAMAGE = {"cut": lambda b: b[:300], "no-config": lambda b: b"{}\n"}


@pytest.mark.parametrize("damage", list(MANIFEST_DAMAGE))
@pytest.mark.parametrize("ingest", ["simulate", "load"])
def test_only_simulate_or_load_starts_afresh_over_a_damaged_manifest(tree_run, tmp_path, capfd,
                                                                      ingest, damage):
    out = tmp_path / "run"
    shutil.copytree(tree_run, out)
    path = out / "manifest.json"
    path.write_bytes(MANIFEST_DAMAGE[damage](path.read_bytes()))
    capfd.readouterr()
    for command in ("train", "explain", "cluster", "bar", "heatmap", "report"):
        assert main([command, "--out", str(out)]) == 2, command
        err = capfd.readouterr().err
        assert err.startswith(f"error: run manifest {path} ") and err.endswith(
            "; run `shappaths simulate` or `load` to start the run afresh\n"), err
    csv_path = tmp_path / "input.csv"
    shutil.copy(tree_run / "dataset.csv", csv_path)
    argv = {"simulate": ["simulate", "--n", "120"],
            "load": ["load", "--csv", str(csv_path), "--target", "__target__"]}[ingest]
    assert main([*argv, "--out", str(out)]) == 0
    assert capfd.readouterr().err.endswith("; starting the run afresh\n")
    assert set(read_manifest(path)["artifacts"]) == {"dataset_csv", "dataset_manifest"}
    assert main(["train", "--out", str(out)]) == 0


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


def _small_csv(tmp_path) -> Path:
    rng = np.random.default_rng(2)
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,target\n" + "".join(
        f"{a},{b},{'hi' if a > 0 else 'lo'}\n" for a, b in rng.normal(size=(40, 2))))
    return path


TYPOS = {"dataset.n_sample": {"dataset": {"n_sample": 100}},
         "explain.n_coalition": {"explain": {"n_coalition": 10}},
         "explain.methods.tre": {"explain": {"methods": {"tre": "tree"}}},
         "cluster.min_size": {"cluster": {"min_size": 5}},
         "plots.topn": {"plots": {"topn": 3}}}


@pytest.mark.parametrize("command", ["simulate", "load"])
@pytest.mark.parametrize("key", list(TYPOS))
def test_unknown_key_in_any_config_block_rejected(tmp_path, capsys, command, key):
    cfg = copy.deepcopy(TYPOS[key])
    if command == "load":
        cfg.setdefault("dataset", {}).update(source="csv", path=str(_small_csv(tmp_path)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(cfg_path, tmp_path / "run", command) == 2
    err = capsys.readouterr().err
    assert f"unknown config key {key!r}" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


MALFORMED = {"dataset": ({"dataset": 5}, "must be a JSON object"),
             "models.tree": ({"models": {"tree": 5}}, "must be a JSON object"),
             "explain": ({"explain": []}, "must be a JSON object"),
             "seed": ({"seed": "x"}, "must be an integer"),
             "dataset.n_samples": ({"dataset": {"n_samples": "x"}}, "must be an integer"),
             "explain.background_size": ({"explain": {"background_size": "x"}},
                                         "must be an integer"),
             "explain.n_coalitions": ({"explain": {"n_coalitions": 2.5}}, "must be an integer")}


@pytest.mark.parametrize("command", ["simulate", "load"])
@pytest.mark.parametrize("key", list(MALFORMED))
def test_malformed_config_shape_rejected(tmp_path, capsys, command, key):
    cfg, problem = MALFORMED[key]
    argv = ["--csv", str(_small_csv(tmp_path))] if command == "load" else []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(cfg_path, tmp_path / "run", command, *argv) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r} {problem}" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


OUT_OF_RANGE = {
    ("cluster.min_cluster_size", 1): ({"cluster": {"min_cluster_size": 1}},
                                      "must be at least 2, not 1"),
    ("cluster.min_cluster_size", 0): ({"cluster": {"min_cluster_size": 0}},
                                      "must be at least 2, not 0"),
    ("cluster.min_samples", 0): ({"cluster": {"min_samples": 0}},
                                 "must be at least 1 or null, not 0"),
    ("explain.methods.mlp", "foo"): ({"explain": {"methods": {"mlp": "foo"}}},
                                     "must be tree or kernel, not 'foo'"),
    ("explain.methods.tree", "Tree"): ({"explain": {"methods": {"tree": "Tree"}}},
                                       "must be tree or kernel, not 'Tree'"),
}


@pytest.mark.parametrize("command", ["simulate", "load"])
@pytest.mark.parametrize("case", list(OUT_OF_RANGE), ids=str)
def test_out_of_range_config_value_rejected_before_hashing(tmp_path, capsys, command, case):
    cfg, problem = OUT_OF_RANGE[case]
    argv = ["--csv", str(_small_csv(tmp_path))] if command == "load" else []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(cfg_path, tmp_path / "run", command, *argv) == 2
    err = capsys.readouterr().err
    assert f"config key {case[0]!r} {problem}" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_config_range_limits_are_admitted():
    resolve_config({"cluster": {"min_cluster_size": 2, "min_samples": 1},
                    "explain": {"methods": {"tree": "kernel", "mlp": "tree"}}})


@pytest.mark.parametrize("layer, ok", [
    ({"dataset": {"half_width": 5}}, True),      # an integer is a number
    ({"cluster": {"min_samples": None}}, True),
    ({"cluster": {"min_samples": 3}}, True),
    ({"models": {"mlp": {"hidden": []}}, "cluster": {"source": "mlp"}}, True),
    ({"seed": True}, False),                     # a bool is not an integer
    ({"dataset": {"n_samples": 1500.0}}, False),
    ({"dataset": {"stratified": 1}}, False),
    ({"dataset": {"half_width": "5"}}, False),
    ({"cluster": {"min_samples": 2.0}}, False),
    ({"models": {"mlp": {"hidden": [8, "x"]}}}, False),
    ({"explain": {"methods": {"mlp": 1}}}, False),
    ({"dataset": {"source": "csv", "path": 3}}, False),
])
def test_config_scalars_take_the_type_of_their_default(layer, ok):
    if ok:
        resolve_config(layer)
    else:
        with pytest.raises(ConfigError, match="must be"):
            resolve_config(layer)


@pytest.mark.parametrize("size", [0, -3])
def test_background_size_below_one_exits_2(tmp_path, capsys, size):
    cfg = {"dataset": {"n_samples": 120, "n_features": 4},
           "models": {"mlp": {"hidden": [4], "epochs": 2}},
           "explain": {"background_size": size}, "cluster": {"source": "mlp"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run(cfg_path, out, "simulate") == 0
    assert run(cfg_path, out, "train") == 0
    assert run(cfg_path, out, "explain") == 2
    err = capsys.readouterr().err
    assert f"background size must be at least 1, got {size}" in err
    assert "Traceback" not in err


def _missing_csv(tmp_path):
    return tmp_path / "missing.csv", "load"


def _non_utf8_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"x1,label\n0.5,hi\n1.5,\xff\n")
    return path, "load"


def _out_under_a_file(tmp_path):
    (tmp_path / "F").write_text("")
    return tmp_path / "F" / "sub", "simulate"


@pytest.mark.parametrize("unusable", [_missing_csv, _non_utf8_csv, _out_under_a_file],
                         ids=["missing-csv", "non-utf8-csv", "out-under-a-file"])
def test_unusable_path_exits_2_naming_it(tmp_path, capsys, unusable):
    path, command = unusable(tmp_path)
    if command == "load":
        argv = ["load", "--csv", str(path), "--target", "label", "--out", str(tmp_path / "run")]
    else:
        argv = ["simulate", "--n", "80", "--out", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_size_too_large_for_memory_exits_2(tmp_path, capsys):
    # 10^13 x 10 floats is far past the 128 TiB user address space, so the
    # allocation fails at once under any overcommit setting
    assert main(["simulate", "--n", "10000000000000", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


def test_feature_matrix_beyond_physical_memory_exits_2(tmp_path):
    """simulate refuses a feature matrix larger than the machine's physical
    memory before it allocates it, so a host that overcommits cannot grant
    it and then fill it. The child's address space is capped, so without
    the check numpy's own MemoryError fails this test instead."""
    import resource
    import subprocess
    import sys

    import shappaths

    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        pytest.skip("os.sysconf cannot tell the physical memory here")
    n = physical // (8 * 10) + 1  # just past it at the default 10 features
    cap = min(2 << 30, physical // 2)
    src = Path(shappaths.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "shappaths", "simulate", "--n", str(n),
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory: Unable to allocate")
    assert "physical memory" in proc.stderr and proc.stderr.count("\n") == 1


def test_failed_first_stage_leaves_its_directory_free(tmp_path, capsys):
    """A run directory whose manifest lists no artifact holds nothing to
    protect, so a new config replaces it; one artifact pins the config."""
    out = str(tmp_path / "run")
    assert main(["simulate", "--n", "10000000000000", "--out", out]) == 2
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["artifacts"] == {}
    assert main(["simulate", "--n", "80", "--out", out]) == 0
    capsys.readouterr()
    assert main(["simulate", "--n", "90", "--out", out]) == 2
    assert "was created with a different config" in capsys.readouterr().err


def test_interrupt_ends_in_one_line(tmp_path, capsys, monkeypatch):
    import shappaths.cli as cli

    def interrupted(spec):
        raise KeyboardInterrupt

    # main binds the command's names before it runs; the patched one must stay
    monkeypatch.setattr(cli, "simulate", interrupted)
    assert main(["simulate", "--n", "80", "--out", str(tmp_path / "run")]) == 130
    assert capsys.readouterr().err == "interrupted\n"


# ---------------------------------------------------------------------------
# train fits each kind in its own forked worker; the count never changes a byte

@pytest.fixture()
def cpus(monkeypatch):
    """Sets the CPUs this process may run on and counts the forks."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)

    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        forks.clear()
        return forks

    return set_count


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _without_stages(out: Path) -> tuple[dict, list[str]]:
    """The manifest without its timings, and the names of its stages."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return manifest, list(manifest.pop("stages"))


@pytest.mark.parametrize("count, argv, forked", [
    (1, [], 0), (2, [], 2), (2, ["--model", "boosted"], 0)],
    ids=["one-cpu", "two-cpus", "one-kind"])
def test_train_bytes_do_not_depend_on_the_worker_count(cpus, cfg_file, tmp_path, capsys,
                                                       count, argv, forked):
    """One worker per kind only for several kinds on several CPUs; the
    models, metrics, manifest and printed lines are those of one process."""
    outputs = []
    for workers in (1, count):
        out = tmp_path / f"run{len(outputs)}"
        assert run(cfg_file, out, "simulate") == 0
        capsys.readouterr()
        forks = cpus(workers)
        assert run(cfg_file, out, "train", *argv) == 0
        assert len(forks) == (forked if workers == count else 0)
        models = sorted(out.glob("model_*.json"))
        outputs.append((capsys.readouterr(), _without_stages(out), [m.name for m in models],
                        [path.read_bytes() for path in [*models, out / "metrics.json"]]))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][2]) == (1 if argv else 3)
    _assert_no_child_left()


def test_failing_kind_exits_4_after_recording_the_kinds_before_it(cpus, cfg_file, tmp_path,
                                                                   monkeypatch, capfd):
    """boosted, the second kind, fails in a worker: the same exit code,
    message, printed lines and manifest as the sequential loop, which
    records tree and never reaches mlp."""
    import shappaths.cli as cli

    def diverges(*args, **kwargs):
        raise NumericalError("training loss became non-finite at round 3")

    monkeypatch.setattr(cli, "train_boosted", diverges)
    outputs = []
    for count in (1, 2):
        out = tmp_path / f"cpus{count}"
        assert run(cfg_file, out, "simulate") == 0
        capfd.readouterr()
        forks = cpus(count)
        assert run(cfg_file, out, "train") == 4
        assert len(forks) == 2 * (count - 1)
        outputs.append((capfd.readouterr(), _without_stages(out)))
    assert outputs[0] == outputs[1]
    (printed, err), (manifest, stages) = outputs[0]
    assert printed.startswith("train tree: test accuracy") and printed.count("\n") == 1
    assert err == "error: training loss became non-finite at round 3\n"
    assert stages == ["simulate", "train.tree"]
    assert set(manifest["artifacts"]) == {"dataset_csv", "dataset_manifest", "model_tree"}
    _assert_no_child_left()


def test_worker_killed_by_a_signal_exits_4_naming_its_kind(cpus, cfg_file, tmp_path,
                                                         monkeypatch, capfd):
    import shappaths.cli as cli

    def killed(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli, "train_mlp", killed)
    out = tmp_path / "run"
    assert run(cfg_file, out, "simulate") == 0
    cpus(2)
    assert run(cfg_file, out, "train") == 4
    assert "error: train worker failed: mlp was killed by signal 9" in capfd.readouterr().err
    _, stages = _without_stages(out)
    assert stages == ["simulate", "train.tree", "train.boosted"]
    _assert_no_child_left()


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_failure_in_the_parents_kind_stops_every_worker(cpus, cfg_file, tmp_path,
                                                       monkeypatch, capfd, exc):
    """tree, the first kind, fits in this process: its failure (or an
    interrupt) kills and reaps the workers, which would otherwise sleep
    for a minute, before it propagates."""
    import shappaths.cli as cli

    def fails(*args, **kwargs):
        raise exc("the parent's kind failed")

    def sleeps(*args, **kwargs):
        time.sleep(60)

    monkeypatch.setattr(cli, "train_tree", fails)
    monkeypatch.setattr(cli, "train_boosted", sleeps)
    monkeypatch.setattr(cli, "train_mlp", sleeps)
    out = tmp_path / "run"
    assert run(cfg_file, out, "simulate") == 0
    capfd.readouterr()
    forks = cpus(2)
    start = time.monotonic()
    if exc is KeyboardInterrupt:
        assert run(cfg_file, out, "train") == 130
        assert capfd.readouterr().err == "interrupted\n"
    else:
        with pytest.raises(RuntimeError, match="the parent's kind failed"):
            run(cfg_file, out, "train")
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    assert _without_stages(out)[1] == ["simulate"]
    _assert_no_child_left()


def test_interrupted_worker_leaves_the_report_to_the_parent(capfd):
    """Ctrl-C reaches every process of the group; only the parent says so."""
    def interrupted():
        raise KeyboardInterrupt

    def fails():
        raise ValueError("bad value")

    own, quiet, loud = run_forked("test worker", {"own": lambda: 1, "quiet": interrupted,
                                                  "loud": fails})
    assert own == 1
    assert str(quiet) == "test worker failed: quiet exited with status 1"
    assert str(loud) == "test worker failed: loud exited with status 1"
    assert capfd.readouterr().err == "test worker, loud: ValueError: bad value\n"
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# artifact digests: every damage to a finished run is caught by its reader

TREE_RUN = {"seed": 3, "dataset": {"n_samples": 200, "n_features": 4},
            "models": {"tree": {"max_depth": 3, "min_leaf": 4}},
            "cluster": {"source": "tree", "min_cluster_size": 5}}
SVGS = ["scatter.svg", "waterfall_tree_s0_c0.svg", "waterfall_clustered_tree.svg",
        "bar_tree.svg", "heatmap.svg"]
READER = {"dataset.csv": "train", "dataset.json": "train", "model_tree.json": "explain",
          "shap_tree.json": "cluster", "shap_tree.f64": "cluster", "clusters.csv": "embed",
          "summary_tree.json": "bar", "cluster_means.json": "heatmap",
          "metrics.json": "report", "purity.json": "report",
          **{name: "report" for name in SVGS}}


def _flip_mid_byte(path: Path) -> bytes:
    b = path.read_bytes()
    i = len(b) // 2
    return b[:i] + bytes([b[i] ^ 0xFF]) + b[i + 1:]


def _first_number_to_nan(path: Path) -> bytes:
    """The file with its first decimal number, or its first float64 in a
    binary body, made a NaN."""
    b = path.read_bytes()
    if path.suffix == ".f64":
        return np.array([np.nan]).astype("<f8").tobytes() + b[8:]
    damaged = re.sub(rb"\d+\.\d+", b"nan", b, count=1)
    assert damaged != b, "no decimal number to replace"
    return damaged


DAMAGE = {"half": lambda path: path.read_bytes()[: path.stat().st_size // 2], "delete": None,
          "flip-byte": _flip_mid_byte, "nan": _first_number_to_nan}


@pytest.fixture(scope="module")
def tree_run(tmp_path_factory) -> Path:
    """A finished tree-only run: every command, once."""
    root = tmp_path_factory.mktemp("tree_run")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TREE_RUN))
    out = root / "run"
    for cmd in (["simulate"], ["train"], ["explain"], ["cluster"], ["embed"], ["waterfall"],
                ["waterfall", "--clustered"], ["bar"], ["heatmap"], ["report"]):
        assert run(cfg_path, out, *cmd) == 0, cmd
    return out


def test_every_artifact_has_its_digest(tree_run):
    manifest = json.loads((tree_run / "manifest.json").read_text())
    assert set(manifest["digests"]) == set(manifest["artifacts"])
    for name, filename in manifest["artifacts"].items():
        data = (tree_run / filename).read_bytes()
        assert manifest["digests"][name] == hashlib.sha256(data).hexdigest(), name
    assert {f for f in manifest["artifacts"].values() if f.endswith(".svg")} == set(SVGS)


@pytest.mark.parametrize("damage", list(DAMAGE))
@pytest.mark.parametrize("name", list(READER))
def test_damaged_artifact_is_caught_by_its_reader(tree_run, tmp_path, capfd, name, damage):
    out = tmp_path / "run"
    shutil.copytree(tree_run, out)
    path = out / name
    if DAMAGE[damage] is None:
        path.unlink()
    else:
        path.write_bytes(DAMAGE[damage](path))
    capfd.readouterr()
    assert main([READER[name], "--out", str(out)]) == (3 if damage == "delete" else 2)
    err = capfd.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("flag, message", [("--sample", "sample {n} out of range [0, {n})"),
                                           ("--class-index",
                                            "class_index {k} out of range [0, {k})")])
def test_waterfall_out_of_range_fails_before_a_row_is_read(tree_run, tmp_path, capfd,
                                                           monkeypatch, flag, message):
    out = tmp_path / "run"
    shutil.copytree(tree_run, out)
    shap = json.loads((out / "shap_tree.json").read_text())

    def no_rows(self, start, count):
        raise AssertionError("a row was read")

    monkeypatch.setattr(TensorReader, "_read", no_rows)
    capfd.readouterr()
    value = shap["n"] if flag == "--sample" else shap["k"]
    assert main(["waterfall", flag, str(value), "--out", str(out)]) == 2
    assert capfd.readouterr().err == f"error: {message.format(**shap)}\n"


def _record_digest(out: Path, name: str) -> None:
    """Record artifact ``name``'s present digest, as if its stage had written it so."""
    manifest = json.loads((out / "manifest.json").read_text())
    data = (out / manifest["artifacts"][name]).read_bytes()
    manifest["digests"][name] = hashlib.sha256(data).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))


@pytest.mark.parametrize("command", ["cluster", "waterfall"])
@pytest.mark.parametrize("change", [-8, -3, 5, 8], ids=["value-short", "3-short", "5-long",
                                                        "value-long"])
def test_float64_body_of_the_wrong_length_exits_2(tree_run, tmp_path, capfd, command, change):
    """A body whose digest was recorded but which does not hold n rows of
    1 + p*k values ends in one line that names it."""
    out = tmp_path / "run"
    shutil.copytree(tree_run, out)
    path = out / "shap_tree.f64"
    body = path.read_bytes()
    path.write_bytes(body[:change] if change < 0 else body + body[:change])
    _record_digest(out, "shap_tree_f64")
    capfd.readouterr()
    assert main([command, "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"error: {path} holds {len(body) + change} bytes, not the "
                          f"{len(body)} of ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["cluster", "embed", "waterfall"])
def test_run_from_before_the_float64_body_asks_to_explain_again(tree_run, tmp_path, capfd,
                                                                 command):
    out = tmp_path / "run"
    shutil.copytree(tree_run, out)
    manifest = json.loads((out / "manifest.json").read_text())
    for block in ("artifacts", "digests"):
        del manifest[block]["shap_tree_f64"]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    (out / "shap_tree.f64").unlink()
    capfd.readouterr()
    assert main([command, "--out", str(out)]) == 3
    assert capfd.readouterr().err == (f"error: missing artifact: expected {out / 'shap_tree.f64'} "
                                      "(run `shappaths explain --model tree` again)\n")


@pytest.mark.parametrize("command, name, remedy", [
    ("bar", "summary_tree.json", "explain --model tree"),
    ("heatmap", "cluster_means.json", "cluster")], ids=["bar", "heatmap"])
def test_run_from_before_the_summaries_names_its_remedy(tree_run, tmp_path, capfd, command,
                                                       name, remedy):
    """A run directory from before `explain` and `cluster` wrote the plot
    summaries lacks both; each plot names the stage to run again."""
    out = tmp_path / "run"
    shutil.copytree(tree_run, out)
    manifest = json.loads((out / "manifest.json").read_text())
    for block in ("artifacts", "digests"):
        for artifact in ("summary_tree", "cluster_means"):
            del manifest[block][artifact]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    for path in ("summary_tree.json", "cluster_means.json"):
        (out / path).unlink()
    capfd.readouterr()
    assert main([command, "--out", str(out)]) == 3
    assert capfd.readouterr().err == (f"error: missing artifact: expected {out / name} "
                                      f"(run `shappaths {remedy}` again)\n")


def test_cluster_means_are_numpys_over_the_explained_rows(tree_run):
    """`cluster` writes the mean of every raw feature over the explained
    rows, globally and per cluster, as numpy takes it over the rows'
    column-indexed (Fortran-ordered) copy, to the bit."""
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64).tolist()

    meta = json.loads((tree_run / "dataset.json").read_text())
    X = read_csv(tree_run / "dataset.csv", meta["class_names"]).features
    ids = load_tensor(tree_run / "shap_tree.json", tree_run / "shap_tree.f64").sample_ids
    labels = np.array([int(line.split(",")[1]) for line in
                       (tree_run / "clusters.csv").read_text().splitlines()[1:]])
    columns = list(range(meta["p"]))
    written = json.loads((tree_run / "cluster_means.json").read_text())
    present = sorted(set(labels.tolist()) - {-1})
    assert len(present) >= 2 and written["cluster_ids"] == present
    assert written["noise"] == int((labels == -1).sum())
    assert bits(written["global"]) == bits(X[ids][:, columns].mean(axis=0))
    assert [bits(row) for row in written["clusters"]] == \
        [bits(X[ids[labels == c]][:, columns].mean(axis=0)) for c in present]


def test_no_command_reads_the_tensor_csv(cfg_file, tmp_path):
    """The CSV of each tensor is an export: with all of them deleted after
    `explain`, every later command writes the same bytes."""
    kept, deleted = tmp_path / "kept", tmp_path / "deleted"
    for cmd in (["simulate"], ["train"], ["explain"]):
        assert run(cfg_file, kept, *cmd) == 0, cmd
    shutil.copytree(kept, deleted)
    exports = {path.name for path in deleted.glob("shap_*.csv")}
    assert exports == {"shap_tree.csv", "shap_boosted.csv", "shap_mlp.csv"}
    for name in exports:
        (deleted / name).unlink()
    for out in (kept, deleted):
        for cmd in (["cluster"], ["embed"], ["waterfall", "--source", "mlp", "--class-index", "1"],
                    ["waterfall", "--clustered"], ["bar", "--source", "tree"], ["bar"],
                    ["bar", "--source", "mlp"], ["heatmap"], ["report"]):
            assert run(cfg_file, out, *cmd) == 0, (out.name, cmd)
    assert {path.name for path in kept.iterdir()} - {p.name for p in deleted.iterdir()} == exports
    for path in deleted.iterdir():
        if path.name != "manifest.json":
            assert path.read_bytes() == (kept / path.name).read_bytes(), path.name
    assert _without_stages(deleted) == _without_stages(kept)


@pytest.mark.parametrize("command", ["train", "explain", "cluster", "embed", "report"])
def test_run_without_digests_asks_for_a_rerun(tree_run, tmp_path, capfd, command):
    out = tmp_path / "run"
    shutil.copytree(tree_run, out)
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["digests"]  # as versions before digests wrote it
    manifest_path.write_text(json.dumps(manifest, indent=1))
    capfd.readouterr()
    assert main([command, "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert str(manifest_path) in err and "re-run" in err and "Traceback" not in err


def _strip_digests(out: Path) -> None:
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["digests"]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))


# damage -> the commands that mend it, re-run in place
RECOVERY = {
    "delete-metrics": (lambda out: (out / "metrics.json").unlink(), [["train"]]),
    "cut-metrics": (lambda out: (out / "metrics.json").write_bytes(
        (out / "metrics.json").read_bytes()[:40]), [["train"]]),
    "no-digests": (_strip_digests,
                   [["simulate"], ["train"], ["explain"], ["cluster"], ["embed"],
                    ["waterfall"], ["waterfall", "--clustered"], ["bar"], ["heatmap"]]),
}


@pytest.mark.parametrize("damage", list(RECOVERY))
def test_rerunning_the_writing_stage_mends_the_run(tree_run, tmp_path, damage):
    out = tmp_path / "run"
    shutil.copytree(tree_run, out)
    apply, commands = RECOVERY[damage]
    apply(out)
    for cmd in commands:
        assert main([cmd[0], "--out", str(out), *cmd[1:]]) == 0, cmd
    assert main(["report", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["digests"]) == set(manifest["artifacts"])
    assert json.loads((out / "metrics.json").read_text()) == \
        json.loads((tree_run / "metrics.json").read_text())


# ---------------------------------------------------------------------------
# commands that save one run at once

_AT_THE_SIGNAL = """
import os, sys, time
from shappaths.cli import main
out, label, *argv = sys.argv[1:]
open(os.path.join(out, f"ready-{label}"), "w").close()
while not os.path.exists(os.path.join(out, "go")):
    time.sleep(0.0005)
sys.exit(main([*argv, "--out", out]))
"""


def _released_together(out: Path, commands: dict) -> list[tuple[int, str]]:
    """(exit code, stderr) of each command (label -> argv) on the run ``out``,
    each in its own interpreter, released together once all have imported
    the CLI."""
    import subprocess
    import sys

    import shappaths

    src = Path(shappaths.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    procs = [subprocess.Popen([sys.executable, "-c", _AT_THE_SIGNAL, str(out), label, *argv],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
             for label, argv in commands.items()]
    try:
        deadline = time.monotonic() + 60
        while not all((out / f"ready-{label}").exists() for label in commands):
            assert time.monotonic() < deadline and all(p.poll() is None for p in procs)
            time.sleep(0.001)
        (out / "go").touch()
        errors = [proc.communicate(timeout=60)[1].decode() for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=10)
    return [(proc.returncode, error) for proc, error in zip(procs, errors)]


def test_concurrent_bars_each_keep_their_chart(three_kinds_run, tmp_path):
    """Three `bar --source` processes, released together once each has
    imported the CLI, save one manifest; every chart ends up listed and
    digested, and every reader exits 0."""
    sources = ("tree", "boosted", "mlp")
    for round_ in range(25):
        out = tmp_path / f"round{round_}"
        shutil.copytree(three_kinds_run, out)
        codes, errors = zip(*_released_together(
            out, {source: ["bar", "--source", source] for source in sources}))
        assert list(codes) == [0, 0, 0], (round_, errors)
        manifest = read_manifest(out / "manifest.json")
        for source in sources:
            name = f"bar_{source}_svg"
            assert manifest["artifacts"].get(name) == f"bar_{source}.svg", (round_, name)
            digest = hashlib.sha256((out / f"bar_{source}.svg").read_bytes()).hexdigest()
            assert manifest["digests"][name] == digest, (round_, name)
        assert [f"bar.{s}" in manifest["stages"] for s in sources] == [True] * 3, round_


def test_concurrent_trains_each_keep_their_metrics(tmp_path):
    """`train --model tree` and `train --model mlp`, released together, both
    land in metrics.json: each adds its kind to the file as it is under the
    run directory's lock, rather than rewriting the one it read at start."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "dataset": {"n_samples": 200, "n_features": 4},
                               "models": {"tree": {}, "mlp": {"epochs": 20}},
                               "cluster": {"source": "tree"}}))
    start = tmp_path / "start"
    assert run(cfg, start, "simulate") == 0
    for round_ in range(10):
        out = tmp_path / f"round{round_}"
        shutil.copytree(start, out)
        codes, errors = zip(*_released_together(
            out, {kind: ["train", "--model", kind] for kind in ("tree", "mlp")}))
        assert list(codes) == [0, 0], (round_, errors)
        metrics = json.loads((out / "metrics.json").read_text())
        assert sorted(metrics) == ["mlp", "tree"], round_
        manifest = read_manifest(out / "manifest.json")
        digest = hashlib.sha256((out / "metrics.json").read_bytes()).hexdigest()
        assert manifest["digests"]["metrics"] == digest, round_
        assert [f"model_{k}" in manifest["artifacts"] for k in ("tree", "mlp")] == [True] * 2
