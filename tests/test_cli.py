import json

import numpy as np
import pytest

from shappaths.cli import main
from shappaths.manifest import config_hash, resolve_config

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
