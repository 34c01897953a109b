"""Command-line pipeline: simulate/load -> train -> explain -> cluster ->
embed -> plots -> report, with seeded, resumable, hash-checked runs.

Every flag is declared once, in ``FLAGS``; the parser and the config
overrides are both built from that table. A run's config is fixed by the
command that creates it (simulate or load): defaults, then --config (JSON),
then flags. A later command whose --out directory already holds a manifest
starts from the config stored there unless --config is given; a different
pipeline config is rejected either way. Artifacts land in one run
directory (--out, else $SHAPPATHS_OUT/<config-hash>, else
./runs/<config-hash>). Exit codes: 0 success, 2 config or data error (an
artifact whose bytes differ from the digest recorded when its stage
finished included, and a size too large for memory), 3 missing upstream
artifact, 4 numerical failure, 130 interrupted.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import _DEFINED_IN, __version__
from .errors import (ConfigError, DataError, MissingArtifactError, NumericalError,
                     ShappathsError)
from .manifest import (DEFAULT_MODELS, ENV_OUT, DamagedManifestError, RunManifest,
                       artifact_file, config_hash, read_manifest, resolve_config)


# ---------------------------------------------------------------------------
# the names each command calls

# Each command imports only the modules whose names it calls: its entry in
# ``COMMANDS``, or a branch's in ``BRANCHES``, binds the names it lists into
# this module before it runs, each from its defining module in the package's
# one table, and any other reader (the benchmark's tracer, a test's
# monkeypatch) resolves a name on first access through the module
# ``__getattr__``. Binding never replaces a name already bound.

def _resolve(name: str):
    module = importlib.import_module(_DEFINED_IN[name], __package__)
    return module if name == "np" else getattr(module, name)


def __getattr__(name):
    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, _resolve(name))


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERICAL = 4
EXIT_INTERRUPTED = 130


# ---------------------------------------------------------------------------
# the flag table

class Flag(NamedTuple):
    name: str                   # option string
    path: str | None            # dotted config key it sets; None for a selector
    kwargs: dict                # add_argument keyword arguments
    commands: tuple[str, ...]   # subcommands that take it
    implies: tuple = ()         # (path, value) pairs also set when it is given

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


MODEL_KINDS = tuple(DEFAULT_MODELS)
INGEST = ("simulate", "load")
READERS = ("cluster", "embed", "waterfall", "bar", "heatmap")
ALL = (*INGEST, "train", "explain", *READERS, "report")

# Flags that set the hashed config are taken only by the commands that
# create a run; the plots block is outside the hash, so the plotting
# commands keep theirs.
FLAGS = [
    Flag("--config", None, {"help": "JSON config file"}, ALL),
    Flag("--out", None, {"help": "run directory"}, ALL),
    Flag("--seed", "seed", {"type": int}, ALL),
    Flag("--n", "dataset.n_samples", {"type": int, "help": "number of samples"}, ("simulate",)),
    Flag("--p", "dataset.n_features", {"type": int, "help": "number of features"},
         ("simulate",)),
    Flag("--half-width", "dataset.half_width", {"type": float}, ("simulate",)),
    Flag("--csv", "dataset.path", {"help": "CSV file with a header row"}, ("load",),
         (("dataset.source", "csv"),)),
    Flag("--target", "dataset.target", {"help": "target column name"}, ("load",)),
    Flag("--idx-images", "dataset.images", {}, ("load",), (("dataset.source", "idx"),)),
    Flag("--idx-labels", "dataset.labels", {}, ("load",)),
    Flag("--train-fraction", "dataset.train_fraction", {"type": float}, INGEST),
    Flag("--stratified", "dataset.stratified", {"action": "store_true"}, INGEST),
    Flag("--scale", "dataset.scale", {"action": "store_true"}, INGEST),
    Flag("--model", None, {"choices": [*MODEL_KINDS, "all"], "default": "all"},
         ("train", "explain")),
    Flag("--source", None, {"choices": MODEL_KINDS,
                            "help": "SHAP tensor to read (default: cluster.source)"}, READERS),
    Flag("--clustered", None, {"action": "store_true"}, ("waterfall",)),
    Flag("--sample", "plots.waterfall_sample", {"type": int, "help": "sample position (classical)"},
         ("waterfall",)),
    Flag("--class-index", "plots.waterfall_class", {"type": int}, ("waterfall",)),
    Flag("--top-n", "plots.top_n", {"type": int}, ("waterfall", "bar", "heatmap")),
]


# ---------------------------------------------------------------------------
# config plumbing

def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load_file_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        loaded = _read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return loaded


def _overrides(args) -> dict:
    """The config keys set by the flags given on the command line."""
    over: dict = {}
    for flag in FLAGS:
        value = getattr(args, flag.dest, None)
        if flag.path is None or value is None or value is False:
            continue  # a selector, or not given (False: a switch left off)
        for path, v in ((flag.path, value), *flag.implies):
            *parents, key = path.split(".")
            node = over
            for name in parents:
                node = node.setdefault(name, {})
            node[key] = v
    return over


def _stored_state(run_dir: Path, command: str) -> dict | None:
    """The state in the run's manifest.json, read once per command; None when
    there is none. simulate and load start afresh over one that cannot be
    read; any other command stops there."""
    path = run_dir / "manifest.json"
    if not path.exists():
        return None
    try:
        return read_manifest(path)
    except DamagedManifestError as exc:
        if command not in INGEST:
            raise
        print(f"{command}: {exc.args[0]}; starting the run afresh", file=sys.stderr)
        return None


def _open_run(args) -> RunManifest:
    """The run of --out, else of the config's hash."""
    base = _load_file_config(args.config)
    stored = None
    if args.out:
        run_dir = Path(args.out)
        stored = _stored_state(run_dir, args.command)
        if stored is not None and not args.config:
            base = stored["config"]  # resume the run
    config = resolve_config(base, _overrides(args))
    if not args.out:
        run_dir = Path(os.environ.get(ENV_OUT, "runs")) / config_hash(config)[:12]
        stored = _stored_state(run_dir, args.command)
    return RunManifest(run_dir, config, __version__, stored)


# ---------------------------------------------------------------------------
# dataset artifact IO

def _load_dataset(manifest: RunManifest) -> tuple[Dataset, dict]:
    hint = "run `shappaths simulate` or `load` first"
    csv_path = manifest.require("dataset_csv", hint=hint)
    meta = _read_json(manifest.require("dataset_manifest", hint=hint))
    return read_csv(csv_path, meta["class_names"]), meta


# ---------------------------------------------------------------------------
# commands

_INGEST_SOURCES = {"simulate": ("simulate",), "load": ("csv", "idx")}


def cmd_ingest(args) -> int:
    """simulate or load: write the run's dataset and its train/test split."""
    manifest = _open_run(args)
    config = manifest.config
    ds_cfg = config["dataset"]
    source = ds_cfg["source"]
    if source not in _INGEST_SOURCES[args.command]:
        raise ConfigError(f"{args.command} cannot ingest dataset.source {source!r} "
                          f"(it takes {' or '.join(_INGEST_SOURCES[args.command])})")
    with manifest.stage(args.command):
        if source == "simulate":
            spec = SimulationSpec(n_samples=ds_cfg["n_samples"],
                                  n_features=ds_cfg["n_features"],
                                  domain_half_width=ds_cfg["half_width"],
                                  seed=config["seed"]).resolved()
            ds = simulate(spec)
            provenance = {"source": "simulate", "seed": config["seed"],
                          "noise_coefficients": spec.noise_coefficients.tolist()}
        elif source == "csv":
            ds = load_csv(ds_cfg["path"], ds_cfg["target"])
            provenance = {"source": "csv", "path": str(ds_cfg["path"]),
                          "target": ds_cfg["target"]}
        else:
            ds = load_idx_images(ds_cfg["images"], ds_cfg["labels"])
            provenance = {"source": "idx", "images": str(ds_cfg["images"]),
                          "labels": str(ds_cfg["labels"])}
        scaling = None
        if ds_cfg["scale"]:
            ds, scaling = min_max_scale(ds)
        train_idx, test_idx = split_indices(
            ds.labels, SplitSpec(train_fraction=ds_cfg["train_fraction"],
                                 stratified=ds_cfg["stratified"], seed=config["seed"]))
        write_csv(ds, manifest.set_artifact("dataset_csv"),
                  target_column_name="__target__")
        meta = {
            "n": ds.n, "p": ds.p, "k": ds.k,
            "feature_names": list(ds.feature_names),
            "class_names": list(ds.class_names),
            "scaling": scaling.to_dict() if scaling else None,
            "split": {"train": train_idx.tolist(), "test": test_idx.tolist()},
            "provenance": provenance,
        }
        _write_json(manifest.set_artifact("dataset_manifest"), meta)
        print(f"dataset: n={ds.n} p={ds.p} k={ds.k} "
              f"(train {train_idx.size} / test {test_idx.size}) -> {manifest.run_dir}")
    return EXIT_OK


def _train_one(kind: str, params: dict, train: Dataset, seed: int):
    if kind == "tree":
        return train_tree(train, **params)
    if kind == "boosted":
        return train_boosted(train, **params)
    if kind == "mlp":
        p = dict(params)
        hidden = tuple(p.pop("hidden", ()))
        return train_mlp(train, (train.p, *hidden, train.k), seed=seed, **p)
    raise ConfigError(f"unknown model kind {kind!r}")


def _selected_kinds(args, manifest: RunManifest) -> list[str]:
    configured = list(manifest.config["models"].keys())
    if args.model == "all":
        return configured
    if args.model not in configured:
        raise ConfigError(f"model {args.model!r} is not configured (have {configured})")
    return [args.model]


def cmd_train(args) -> int:
    """Fit, save and evaluate each selected kind, then record them in config order.

    With more than one kind and at least 2 CPUs, each kind is fitted in its
    own forked worker; the artifacts, stage times, metrics and printed
    lines are the same as from the sequential loop, and so is the first
    failing kind's error, raised after the kinds before it are recorded.
    """
    from .workers import cpu_count, run_forked

    manifest = _open_run(args)
    ds, meta = _load_dataset(manifest)
    train = ds.take(meta["split"]["train"])
    test = ds.take(meta["split"]["test"])
    try:  # only train writes metrics.json, so one that fails its check starts afresh
        metrics = _read_json(manifest.require("metrics")) if manifest.has("metrics") else {}
    except (MissingArtifactError, DataError) as exc:
        print(f"train: {exc}; starting the metrics afresh", file=sys.stderr)
        metrics = {}
    kinds = _selected_kinds(args, manifest)

    def fit(kind: str):
        """(the kind's metrics entry, the seconds it took to fit, save and evaluate)."""
        start = time.perf_counter()
        model = _train_one(kind, manifest.config["models"][kind], train,
                           manifest.config["seed"])
        save_model(model, manifest.run_dir / artifact_file(f"model_{kind}"))
        report = evaluate(model, test)
        return ({"accuracy": report.accuracy, "classes": report.as_rows()},
                time.perf_counter() - start)

    def fit_or_error(kind: str):
        try:
            return fit(kind)
        except Exception as exc:  # raised below, in config order
            return exc

    if len(kinds) > 1 and cpu_count() >= 2:
        # the first kind fits in this process, so its error is raised at once
        fitted = run_forked("train worker", {
            kind: partial(fit if kind == kinds[0] else fit_or_error, kind) for kind in kinds})
    else:
        fitted = map(fit, kinds)  # lazy: a kind that raises stops the loop below
    for kind, outcome in zip(kinds, fitted):
        if isinstance(outcome, Exception):
            raise outcome
        metrics[kind], seconds = outcome
        manifest.set_artifact(f"model_{kind}")
        print(f"train {kind}: test accuracy {metrics[kind]['accuracy']:.3f}")
        manifest.record_stage(f"train.{kind}", seconds)
    _write_json(manifest.set_artifact("metrics"), metrics)
    manifest.save()
    return EXIT_OK


def cmd_explain(args) -> int:
    manifest = _open_run(args)
    ds, meta = _load_dataset(manifest)
    cfg = manifest.config["explain"]
    rows = np.arange(meta["n"]) if cfg["on"] == "all" \
        else np.array(meta["split"][cfg["on"]], dtype=int)
    X = ds.features[rows]
    train_rows = np.array(meta["split"]["train"], dtype=int)
    for kind in _selected_kinds(args, manifest):
        method = cfg["methods"][kind]
        model_path = manifest.require(f"model_{kind}",
                                      hint=f"run `shappaths train --model {kind}` first")
        model = load_model(model_path)
        with manifest.stage(f"explain.{kind}"):
            if method == "tree":
                tensor = tree_shap(model, X, feature_names=ds.feature_names,
                                   class_names=ds.class_names, sample_ids=rows)
            else:  # resolve_config admits only tree and kernel
                background = sample_background(ds.features[train_rows],
                                               size=cfg["background_size"],
                                               seed=manifest.config["seed"])
                tensor = kernel_shap(model, X, background,
                                     n_coalitions=cfg["n_coalitions"],
                                     seed=manifest.config["seed"],
                                     feature_names=ds.feature_names,
                                     class_names=ds.class_names, sample_ids=rows)
            save_tensor(tensor, *(manifest.set_artifact(f"shap_{kind}{ext}")
                                  for ext in ("", "_csv", "_f64")))
            _write_json(manifest.set_artifact(f"summary_{kind}"), shap_summary(tensor))
            gap = np.abs(tensor.values.sum(axis=1)
                         - (model.predict_margin(X) - tensor.base)).max()
            print(f"explain {kind} [{method}]: n={tensor.n} "
                  f"max additivity gap {gap:.2e}")
    return EXIT_OK


def _read_tensor(args, manifest: RunManifest, read):
    """The --source model (default: cluster.source) and its tensor, opened by ``read``."""
    kind = args.source or manifest.config["cluster"]["source"]
    hint = f"run `shappaths explain --model {kind}`"
    return kind, read(manifest.require(f"shap_{kind}", hint=f"{hint} first"),
                      manifest.require(f"shap_{kind}_f64", hint=f"{hint} again"))


def _read_summary(args, manifest: RunManifest) -> tuple[str, dict]:
    """The --source model (default: cluster.source) and its tensor's summary."""
    kind = args.source or manifest.config["cluster"]["source"]
    again = "again" if manifest.has(f"shap_{kind}") else "first"
    path = manifest.require(f"summary_{kind}", hint=f"run `shappaths explain --model {kind}` "
                                                    f"{again}")
    return kind, _read_json(path)


def _write_rows(path: Path, header: list[str], sample_ids, rows) -> None:
    """A CSV of one row of string cells per sample, led by its id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["sample_id", *header]) + "\n")
        for sid, row in zip(sample_ids, rows):
            fh.write(",".join([str(int(sid)), *row]) + "\n")


def cmd_cluster(args) -> int:
    manifest = _open_run(args)
    ds, _ = _load_dataset(manifest)
    source, tensor = _read_tensor(args, manifest, load_tensor)
    cfg = manifest.config["cluster"]
    with manifest.stage("cluster"):
        labeling = hdbscan(flatten(tensor),
                           HdbscanParams(min_cluster_size=cfg["min_cluster_size"],
                                         min_samples=cfg["min_samples"]))
        _write_rows(manifest.set_artifact("clusters"), ["label", "stability"],
                    tensor.sample_ids,
                    ([str(int(lab)), "" if lab == -1 else repr(float(labeling.stability[lab]))]
                     for lab in labeling.labels))
        _write_json(manifest.set_artifact("cluster_means"),
                    cluster_means(ds.features[tensor.sample_ids], labeling.labels))
        truth = ds.labels[tensor.sample_ids]
        report = cluster_purity(labeling, truth)
        _write_json(manifest.set_artifact("purity"),
                    {"source": source,
                     "n_clusters": labeling.n_clusters,
                     "noise": report.noise_count,
                     "purity": report.purity.tolist(),
                     "majority_class": [ds.class_names[c] for c in report.majority_class],
                     "contingency": report.contingency.tolist(),
                     "class_names": list(ds.class_names)})
        print(f"cluster [{source}]: {labeling.n_clusters} clusters, "
              f"{labeling.n_noise} noise points")
    return EXIT_OK


def _load_labeling(manifest: RunManifest) -> ClusterLabeling:
    path = manifest.require("clusters", hint="run `shappaths cluster` first")
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    stabilities = {int(lab): float(stab) for _, lab, stab in rows if stab}
    n_clusters = max(stabilities, default=-1) + 1
    return ClusterLabeling(labels=np.array([int(lab) for _, lab, _ in rows]), n_clusters=n_clusters,
                           stability=np.array([stabilities.get(c, 0.0) for c in range(n_clusters)]))


def cmd_embed(args) -> int:
    manifest = _open_run(args)
    source, tensor = _read_tensor(args, manifest, load_tensor)
    if tensor.n < 3:
        raise DataError(f"embed needs at least 3 explained rows for a 2-D embedding; "
                        f"shap_{source} has {tensor.n}")
    with manifest.stage("embed"):
        flat = flatten(tensor)
        model = pca_fit(flat, r=2)
        scores = pca_transform(model, flat)
        path = manifest.set_artifact("embedding")
        _write_rows(path, [f"pc{i + 1}" for i in range(scores.shape[1])], tensor.sample_ids,
                    ([repr(float(v)) for v in row] for row in scores))
        if manifest.has("clusters"):
            colors, names = _load_labeling(manifest), None
            title = f"SHAP embedding [{source}] by cluster"
        else:
            ds, _ = BRANCHES["embed by class"](manifest)
            colors, names = ds.labels[tensor.sample_ids], list(ds.class_names)
            title = f"SHAP embedding [{source}] by class"
        svg = pca_scatter(scores, colors, _plot_spec(manifest), label_names=names,
                          title=title)
        _write_text(manifest.set_artifact("scatter_svg"), svg)
        print(f"embed [{source}]: wrote {path.name} and scatter.svg")
    return EXIT_OK


def _plot_spec(manifest: RunManifest) -> PlotSpec:
    plots = manifest.config["plots"]
    return PlotSpec(width=plots["width"], height=plots["height"], top_n=plots["top_n"])


def cmd_waterfall(args) -> int:
    manifest = _open_run(args)
    spec = _plot_spec(manifest)
    if args.clustered:
        return BRANCHES["waterfall --clustered"](args, manifest, spec)
    source, tensor = _read_tensor(args, manifest, TensorReader)
    sample = manifest.config["plots"]["waterfall_sample"]
    class_index = manifest.config["plots"]["waterfall_class"]
    with manifest.stage("waterfall.classical"):
        svg = classical_waterfall(*waterfall_row(tensor, sample, class_index), spec)
        name = f"waterfall_{source}_s{sample}_c{class_index}"
        _write_text(manifest.set_artifact(f"{name}_svg"), svg)
        print(f"waterfall [{source}]: sample {sample}, class {class_index}")
    return EXIT_OK


def _clustered_waterfall(args, manifest: RunManifest, spec: PlotSpec) -> int:
    source, tensor = _read_tensor(args, manifest, load_tensor)
    labeling = _load_labeling(manifest)
    with manifest.stage("waterfall.clustered"):
        paths = build_paths(tensor, labeling, top_n=spec.top_n)
        projected, _ = project_paths(paths, r=2)
        footnote = (f"noise: {labeling.n_noise} samples excluded"
                    if labeling.n_noise else "")
        svg = render_paths(projected, spec, feature_names=tensor.feature_names,
                           footnote=footnote)
        name = f"waterfall_clustered_{source}"
        _write_text(manifest.set_artifact(f"{name}_svg"), svg)
        _write_text(manifest.set_artifact(f"{name}_csv"),
                    paths_to_csv(projected, feature_names=tensor.feature_names))
        print(f"waterfall [{source}]: {len(projected)} clustered paths")
    return EXIT_OK


def cmd_bar(args) -> int:
    manifest = _open_run(args)
    source, summary = _read_summary(args, manifest)
    with manifest.stage(f"bar.{source}"):
        svg = stacked_bar(summary, _plot_spec(manifest))
        _write_text(manifest.set_artifact(f"bar_{source}_svg"), svg)
        print(f"bar [{source}]: wrote bar_{source}.svg")
    return EXIT_OK


def cmd_heatmap(args) -> int:
    manifest = _open_run(args)
    again = "again" if manifest.has("clusters") else "first"
    means = _read_json(manifest.require("cluster_means", hint=f"run `shappaths cluster` {again}"))
    _, summary = _read_summary(args, manifest)
    spec = _plot_spec(manifest)
    with manifest.stage("heatmap"):
        columns = summary["order"][: spec.top_n]
        svg = cluster_heatmap(means, columns, [summary["feature_names"][j] for j in columns],
                              spec=spec)
        _write_text(manifest.set_artifact("heatmap_svg"), svg)
        print(f"heatmap: {len(means['cluster_ids'])} clusters x {len(columns)} features")
    return EXIT_OK


def cmd_report(args) -> int:
    manifest = _open_run(args)
    missing = [name for name in ("dataset_manifest", "metrics") if not manifest.has(name)]
    tensors = [k for k in manifest.config["models"] if manifest.has(f"shap_{k}")]
    if not tensors:
        missing.append("shap_<model>")
    if missing:
        raise MissingArtifactError(
            manifest.run_dir / "manifest.json",
            hint="incomplete run, missing stages: " + ", ".join(missing))
    with manifest.stage("report"):
        html = _render_report(manifest)
        path = manifest.set_artifact("report")
        _write_text(path, html)
        print(f"report: {path}")
    return EXIT_OK


def _render_report(manifest: RunManifest) -> str:
    from html import escape

    metrics = _read_json(manifest.require("metrics"))
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'><title>shappaths report</title>",
        "<style>body{font-family:Helvetica,Arial,sans-serif;margin:2em;}"
        "table{border-collapse:collapse;margin:1em 0;}"
        "td,th{border:1px solid #ccc;padding:4px 10px;text-align:right;}"
        "th{background:#f5f5f5;}td:first-child,th:first-child{text-align:left;}"
        "h2{margin-top:1.6em;}</style></head><body>",
        f"<h1>shappaths run {manifest.hash[:12]}</h1>",
        "<h2>Model performance</h2>",
    ]
    for kind in manifest.config["models"]:
        if kind not in metrics:
            continue
        entry = metrics[kind]
        parts.append(f"<h3>{kind}</h3><table><tr><th>class</th><th>precision</th>"
                     "<th>recall</th><th>support</th></tr>")
        for row in entry["classes"]:
            parts.append(f"<tr><td>{escape(str(row['class']))}</td>"
                         f"<td>{row['precision']:.2f}</td>"
                         f"<td>{row['recall']:.2f}</td><td>{row['support']}</td></tr>")
        support = sum(r["support"] for r in entry["classes"])
        parts.append(f"<tr><td>accuracy</td><td></td>"
                     f"<td>{entry['accuracy']:.2f}</td><td>{support}</td></tr></table>")
    if manifest.has("purity"):
        purity = _read_json(manifest.require("purity"))
        parts.append(f"<h2>Subgroups ({purity['source']} SHAP)</h2>")
        parts.append(f"<p>{purity['n_clusters']} clusters, {purity['noise']} noise "
                     "samples.</p><table><tr><th>cluster</th><th>size</th>"
                     "<th>majority class</th><th>purity</th></tr>")
        for c, row in enumerate(purity["contingency"]):
            parts.append(f"<tr><td>{c}</td><td>{sum(row)}</td>"
                         f"<td>{escape(str(purity['majority_class'][c]))}</td>"
                         f"<td>{purity['purity'][c]:.2f}</td></tr>")
        parts.append("</table>")
    parts.append("<h2>Plots</h2>")
    for name, filename in sorted(manifest.state["artifacts"].items()):
        if filename.endswith(".svg"):
            svg = manifest.require(name).read_text(encoding="utf-8")
            parts.append(f"<div>{svg}</div>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# parser and entry point

class Command(NamedTuple):
    run: object     # the function it runs
    help: str
    names: str      # the package names it calls, bound before it runs

    def __call__(self, *args):
        for name in self.names.split():
            globals().setdefault(name, _resolve(name))
        return self.run(*args)


_INGEST_NAMES = ("SimulationSpec simulate load_csv load_idx_images min_max_scale split_indices "
                 "SplitSpec write_csv")

COMMANDS = {
    "simulate": Command(cmd_ingest, "generate the synthetic dataset", _INGEST_NAMES),
    "load": Command(cmd_ingest, "load a CSV or IDX dataset", _INGEST_NAMES),
    "train": Command(cmd_train, "train configured models",
                     "read_csv train_tree train_boosted train_mlp save_model evaluate"),
    "explain": Command(cmd_explain, "compute SHAP tensors",
                       "read_csv np load_model tree_shap sample_background kernel_shap "
                       "save_tensor shap_summary"),
    "cluster": Command(cmd_cluster, "HDBSCAN over a flattened SHAP tensor",
                       "read_csv load_tensor hdbscan flatten HdbscanParams cluster_means "
                       "cluster_purity"),
    "embed": Command(cmd_embed, "PCA embedding of a flattened SHAP tensor",
                     "load_tensor flatten pca_fit pca_transform ClusterLabeling np pca_scatter "
                     "PlotSpec"),
    "waterfall": Command(cmd_waterfall, "classical or clustered waterfall plot",
                         "PlotSpec TensorReader classical_waterfall waterfall_row"),
    "bar": Command(cmd_bar, "stacked mean-|SHAP| bars", "stacked_bar PlotSpec"),
    "heatmap": Command(cmd_heatmap, "cluster-mean heatmap of raw features",
                       "PlotSpec cluster_heatmap"),
    "report": Command(cmd_report, "single-page HTML summary", ""),
}

# branches that call names the rest of their command does not
BRANCHES = {
    "waterfall --clustered": Command(_clustered_waterfall, "clustered waterfall paths",
                                     "load_tensor ClusterLabeling np build_paths project_paths "
                                     "render_paths paths_to_csv"),
    "embed by class": Command(_load_dataset, "the dataset, for its classes", "read_csv"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shappaths",
        description="SHAP tensors, subgroup discovery, and waterfall paths")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=command.help)
                for name, command in COMMANDS.items()}
    for flag in FLAGS:
        for name in flag.commands:
            commands[name].add_argument(flag.name, **flag.kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ShappathsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MissingArtifactError):
            return EXIT_MISSING
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_CONFIG
    except OSError as exc:  # a missing input, or an --out that cannot be a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size no machine can hold; numpy names it
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
