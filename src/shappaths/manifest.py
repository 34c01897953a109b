"""Run configuration, config hashing, and the per-run artifact manifest.

A run is one output directory. Its manifest records the semantic config
hash, artifact paths relative to the directory, the SHA-256 of every
artifact as it was when its stage finished, and per-stage timings;
resuming a directory with a different config is an error. Two runs from
the same config produce byte-identical artifacts and manifests except for
the timing block.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import time
from pathlib import Path

from .errors import ConfigError, DataError, MissingArtifactError

try:
    import fcntl
except ImportError:  # no flock: saves are merged without a lock
    fcntl = None

ENV_OUT = "SHAPPATHS_OUT"

DEFAULT_DATASET = {
    "simulate": {"source": "simulate", "n_samples": 1500, "n_features": 10,
                 "half_width": 5.0, "scale": False,
                 "train_fraction": 0.7, "stratified": False},
    "csv": {"source": "csv", "path": None, "target": "target", "scale": False,
            "train_fraction": 0.7, "stratified": False},
    "idx": {"source": "idx", "images": None, "labels": None, "scale": False,
            "train_fraction": 0.7, "stratified": False},
}

DEFAULT_MODELS = {
    "tree": {"max_depth": 7, "min_leaf": 5},
    "boosted": {"n_rounds": 80, "learning_rate": 0.3, "lam": 1.0,
                "max_depth": 3, "min_leaf": 1},
    "mlp": {"hidden": [32, 16], "epochs": 150, "batch_size": 32,
            "learning_rate": 0.05},
}

DEFAULT_CONFIG = {
    "seed": 0,
    "dataset": DEFAULT_DATASET["simulate"],
    "models": DEFAULT_MODELS,
    "explain": {"on": "test", "background_size": 100, "n_coalitions": 2048,
                "methods": {"tree": "tree", "boosted": "tree", "mlp": "kernel"}},
    "cluster": {"source": "boosted", "min_cluster_size": 15, "min_samples": None},
    "plots": {"top_n": 9, "width": 760, "height": 520,
              "waterfall_sample": 0, "waterfall_class": 0},
}


# what a key whose default is null takes besides null
_NULLABLE = {"dataset.path": str, "dataset.images": str, "dataset.labels": str,
             "cluster.min_samples": int}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _is_a(value, kind: type) -> bool:
    """JSON typing: a bool is no number, and an integer is also a number."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_keys(layer: dict, defaults: dict, prefix: str = "") -> None:
    """Every key of ``layer``, at any depth, must be a key of ``defaults``,
    hold a JSON object wherever the default is one, and otherwise hold a
    value of the default's type: an int default takes only integers, a
    float default any number, and a null default null or the type
    _NULLABLE names."""
    for key, value in layer.items():
        name = prefix + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name!r} must be a JSON object, "
                                  f"not {value!r}")
            _check_keys(value, default, f"{name}.")
        elif isinstance(default, list):  # models.mlp.hidden, the only list
            if not isinstance(value, list) or not all(_is_a(v, int) for v in value):
                raise ConfigError(f"config key {name!r} must be a list of integers, "
                                  f"not {value!r}")
        elif default is None:
            if value is not None and not _is_a(value, _NULLABLE[name]):
                raise ConfigError(f"config key {name!r} must be "
                                  f"{_TYPE_NAMES[_NULLABLE[name]]} or null, not {value!r}")
        elif not _is_a(value, type(default)):
            raise ConfigError(f"config key {name!r} must be "
                              f"{_TYPE_NAMES[type(default)]}, not {value!r}")


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(file_config: dict | None = None,
                   overrides: dict | None = None) -> dict:
    """Defaults <- config file <- flag overrides, with structural checks."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for layer in (file_config or {}, overrides or {}):
        dataset = layer.get("dataset", {})  # not an object: _check_keys names it
        source = dataset.get("source", merged["dataset"]["source"]) \
            if isinstance(dataset, dict) else merged["dataset"]["source"]
        if not isinstance(source, str) or source not in DEFAULT_DATASET:
            raise ConfigError(f"unknown dataset source {source!r}")
        _check_keys(layer, {**DEFAULT_CONFIG, "dataset": DEFAULT_DATASET[source]})
        if "dataset" in layer:
            base = merged["dataset"] if merged["dataset"]["source"] == source \
                else DEFAULT_DATASET[source]
            merged["dataset"] = _merge(base, layer["dataset"])
        if "models" in layer:
            requested = layer["models"]
            current = merged["models"]
            merged["models"] = {
                kind: _merge(current.get(kind, DEFAULT_MODELS[kind]), params)
                for kind, params in requested.items()}
        for key in ("explain", "cluster", "plots"):
            if key in layer:
                merged[key] = _merge(merged[key], layer[key])
        if "seed" in layer:
            merged["seed"] = layer["seed"]
    if merged["dataset"]["source"] == "csv" and not merged["dataset"]["path"]:
        raise ConfigError("csv dataset needs a path")
    if merged["dataset"]["source"] == "idx" and not (
            merged["dataset"]["images"] and merged["dataset"]["labels"]):
        raise ConfigError("idx dataset needs images and labels paths")
    if merged["explain"]["on"] not in ("test", "train", "all"):
        raise ConfigError("explain.on must be test, train, or all")
    for kind, method in merged["explain"]["methods"].items():
        if method not in ("tree", "kernel"):
            raise ConfigError(f"config key 'explain.methods.{kind}' must be "
                              f"tree or kernel, not {method!r}")
    cluster = merged["cluster"]
    if cluster["min_cluster_size"] < 2:
        raise ConfigError(f"config key 'cluster.min_cluster_size' must be at least 2, "
                          f"not {cluster['min_cluster_size']!r}")
    if cluster["min_samples"] is not None and cluster["min_samples"] < 1:
        raise ConfigError(f"config key 'cluster.min_samples' must be at least 1 or null, "
                          f"not {cluster['min_samples']!r}")
    if merged["cluster"]["source"] not in merged["models"]:
        raise ConfigError(f"cluster.source {merged['cluster']['source']!r} "
                          f"is not a configured model")
    return merged


def config_hash(config: dict) -> str:
    """Hash of the pipeline-semantic config.

    The "plots" block is render-time only (its values are baked into plot
    file names instead), so exploring plot variants never invalidates a
    run directory.
    """
    semantic = {k: v for k, v in config.items() if k != "plots"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# the artifacts not written to <stem>.<ext> (a name ending in _csv, _svg or
# _f64) or to <name>.json (every other name)
_FILES = {"dataset_manifest": "dataset.json", "clusters": "clusters.csv",
          "embedding": "embed.csv", "report": "report.html"}


def artifact_file(name: str) -> str:
    """The file artifact ``name`` is written to, in the run directory."""
    stem, _, ext = name.rpartition("_")
    return _FILES.get(name) or (f"{stem}.{ext}" if ext in ("csv", "svg", "f64")
                                else f"{name}.json")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class DamagedManifestError(ConfigError):
    """A manifest.json that holds no run state; only the commands that
    start a run can replace it, and the message names them."""

    def __str__(self):
        return f"{self.args[0]}; run `shappaths simulate` or `load` to start the run afresh"


def read_manifest(path: Path) -> dict:
    """The state stored in a run's manifest.json; a damaged file is a DamagedManifestError."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DamagedManifestError(f"run manifest {path} is not valid JSON: {exc}")
    if not isinstance(state, dict) or not isinstance(state.get("config"), dict):
        raise DamagedManifestError(f"run manifest {path} holds no config object")
    return state


@contextlib.contextmanager
def _locked(directory: Path):
    """Hold an exclusive ``flock`` on ``directory`` itself, where fcntl exists:
    a lock file would outlive a save that fails."""
    if fcntl is None:
        yield
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the lock


class RunManifest:
    """The mutable manifest.json of one run directory.

    ``stored`` is the state read from that manifest.json (see
    :func:`read_manifest`), or None where the run starts afresh: there is
    none, or it is damaged and the command may replace it.
    """

    def __init__(self, run_dir: Path, config: dict, version: str,
                 stored: dict | None = None):
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / "manifest.json"
        self.config = config
        self.hash = config_hash(config)
        self._written: set[str] = set()  # artifacts to digest at the next save
        # what this command set, applied over the stored manifest at every save
        self._own: dict[str, dict] = {"artifacts": {}, "digests": {}, "stages": {}}
        if stored is not None and stored.get("config_hash") != self.hash \
                and stored.get("artifacts"):
            raise ConfigError(
                f"run directory {self.run_dir} was created with a different "
                f"config (hash {stored.get('config_hash', '?')[:12]} != "
                f"{self.hash[:12]}); use a fresh directory")
        if stored is not None and stored.get("config_hash") == self.hash:
            self.state = stored
            self.state.setdefault("digests", {})
        else:
            # a new run, one over a damaged manifest, or one whose first stage
            # failed before it wrote any artifact: that manifest protects
            # nothing, so a new config replaces it
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self.state = {"version": version, "config_hash": self.hash,
                          "config": config, "artifacts": {}, "digests": {}, "stages": {}}
            self.save()

    def save(self) -> None:
        """Write manifest.json, with the digest of every artifact written since.

        Under a lock on the run directory, the stored manifest is read again
        and this command's own artifacts, digests and stages are applied to
        it, so commands that save one run at once lose none of each other's
        changes. The state goes to a temporary file in the run directory,
        which then replaces manifest.json in one rename: a reader sees the
        old manifest or the new one, and a save that fails leaves the old one.
        """
        for name in self._written:
            self._own["digests"][name] = _sha256(self.run_dir / self._own["artifacts"][name])
        self._written.clear()
        with _locked(self.run_dir):
            try:
                stored = read_manifest(self.path)
            except (FileNotFoundError, DamagedManifestError):
                stored = None
            if stored is not None and stored.get("config_hash") == self.hash:
                self.state = stored
            for key, changes in self._own.items():
                self.state.setdefault(key, {}).update(changes)
            ordered = {"version": self.state["version"],
                       "config_hash": self.state["config_hash"],
                       "config": self.state["config"],
                       "artifacts": dict(sorted(self.state["artifacts"].items())),
                       "digests": dict(sorted(self.state["digests"].items())),
                       "stages": self.state["stages"]}
            tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(ordered, fh, indent=1, sort_keys=False)
                    fh.write("\n")
                os.replace(tmp, self.path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise

    def set_artifact(self, name: str) -> Path:
        """The path to write artifact ``name`` to; the next save digests it."""
        filename = self.state["artifacts"][name] = self._own["artifacts"][name] = \
            artifact_file(name)
        self._written.add(name)
        return self.run_dir / filename

    def require(self, name: str, hint: str = "") -> Path:
        """The path of artifact ``name``, once its bytes match the recorded digest."""
        filename = self.state["artifacts"].get(name)
        path = self.run_dir / (filename or artifact_file(name))
        if filename is None or not path.exists():
            raise MissingArtifactError(path, hint=hint)
        digest = self.state["digests"].get(name)
        if digest is None:
            raise DataError(f"{path} has no digest in {self.path} (a run directory from "
                            f"before digests were recorded); re-run the stage that writes it")
        if _sha256(path) != digest:
            raise DataError(f"{path} differs from the digest recorded when its stage "
                            f"finished; re-run the stage that writes it")
        return path

    def has(self, name: str) -> bool:
        """Whether the manifest lists artifact ``name``."""
        return name in self.state["artifacts"]

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time the block; record the timing and save only if it exits cleanly."""
        start = time.perf_counter()
        yield self
        self.record_stage(name, time.perf_counter() - start)

    def record_stage(self, name: str, seconds: float) -> None:
        """Record the timing of a stage that finished cleanly, and save."""
        self.state["stages"][name] = self._own["stages"][name] = {"seconds": round(seconds, 6)}
        self.save()
