"""Run configuration, config hashing, and the per-run artifact manifest.

A run is one output directory. Its manifest records the semantic config
hash, artifact paths relative to the directory, and per-stage timings;
resuming a directory with a different config is an error. Two runs from
the same config produce byte-identical artifacts and manifests except for
the timing block.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from pathlib import Path

from .errors import ConfigError, MissingArtifactError

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

_TOP_KEYS = set(DEFAULT_CONFIG.keys())


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
        unknown = set(layer.keys()) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" in layer:
            source = layer["dataset"].get("source", merged["dataset"].get("source"))
            if source not in DEFAULT_DATASET:
                raise ConfigError(f"unknown dataset source {source!r}")
            base = merged["dataset"] if merged["dataset"].get("source") == source \
                else DEFAULT_DATASET[source]
            merged["dataset"] = _merge(base, layer["dataset"])
        if "models" in layer:
            requested = layer["models"]
            bad = set(requested) - set(DEFAULT_MODELS)
            if bad:
                raise ConfigError(f"unknown model kinds: {sorted(bad)}")
            for kind, params in requested.items():
                bad = set(params or {}) - set(DEFAULT_MODELS[kind])
                if bad:
                    raise ConfigError(f"unknown models.{kind} parameters: {sorted(bad)}")
            current = merged["models"]
            merged["models"] = {
                kind: _merge(current.get(kind, DEFAULT_MODELS[kind]), params or {})
                for kind, params in requested.items()}
        for key in ("explain", "cluster", "plots"):
            if key in layer:
                merged[key] = _merge(merged[key], layer[key])
        if "seed" in layer:
            merged["seed"] = int(layer["seed"])
    if merged["dataset"]["source"] == "csv" and not merged["dataset"]["path"]:
        raise ConfigError("csv dataset needs a path")
    if merged["dataset"]["source"] == "idx" and not (
            merged["dataset"]["images"] and merged["dataset"]["labels"]):
        raise ConfigError("idx dataset needs images and labels paths")
    if merged["explain"]["on"] not in ("test", "train", "all"):
        raise ConfigError("explain.on must be test, train, or all")
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


def read_manifest(path: Path) -> dict:
    """The state stored in a run's manifest.json; a damaged file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"run manifest {path} is not valid JSON: {exc}")
    if not isinstance(state, dict) or not isinstance(state.get("config"), dict):
        raise ConfigError(f"run manifest {path} holds no config object")
    return state


class RunManifest:
    """The mutable manifest.json of one run directory."""

    def __init__(self, run_dir: Path, config: dict, version: str):
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / "manifest.json"
        self.config = config
        self.hash = config_hash(config)
        if self.path.exists():
            self.state = read_manifest(self.path)
            if self.state.get("config_hash") != self.hash:
                raise ConfigError(
                    f"run directory {self.run_dir} was created with a different "
                    f"config (hash {self.state.get('config_hash', '?')[:12]} != "
                    f"{self.hash[:12]}); use a fresh directory")
        else:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self.state = {"version": version, "config_hash": self.hash,
                          "config": config, "artifacts": {}, "stages": {}}
            self.save()

    def save(self) -> None:
        ordered = {"version": self.state["version"],
                   "config_hash": self.state["config_hash"],
                   "config": self.state["config"],
                   "artifacts": dict(sorted(self.state["artifacts"].items())),
                   "stages": self.state["stages"]}
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(ordered, fh, indent=1, sort_keys=False)
            fh.write("\n")

    def set_artifact(self, name: str, filename: str) -> Path:
        self.state["artifacts"][name] = filename
        return self.run_dir / filename

    def require(self, name: str, hint: str = "") -> Path:
        filename = self.state["artifacts"].get(name)
        if filename is None or not (self.run_dir / filename).exists():
            expected = self.run_dir / (filename or f"{name}.json")
            raise MissingArtifactError(expected, hint=hint)
        return self.run_dir / filename

    def has(self, name: str) -> bool:
        filename = self.state["artifacts"].get(name)
        return filename is not None and (self.run_dir / filename).exists()

    def record_stage(self, name: str, seconds: float) -> None:
        self.state["stages"][name] = {"seconds": round(seconds, 6)}

    def stage(self, name: str):
        manifest = self

        class _Timer:
            def __enter__(self):
                self.start = time.perf_counter()
                return manifest

            def __exit__(self, exc_type, exc, tb):
                if exc_type is None:
                    manifest.record_stage(name, time.perf_counter() - self.start)
                    manifest.save()
                return False

        return _Timer()
