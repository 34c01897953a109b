"""Versioned JSON serialization for all three model kinds.

Floats are written with Python's shortest round-trip representation, so
a loaded model predicts bit-for-bit what the saved one did. Each model
class is imported for the kind being read or written, so saving or loading
a tree loads neither the boosting nor the MLP module.
"""

from __future__ import annotations

import importlib
import json
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ModelIOError

if TYPE_CHECKING:
    from .tree import DecisionTree

SCHEMA_VERSION = 1
KINDS = {"tree": "DecisionTree", "boosted": "BoostedEnsemble", "mlp": "Mlp"}


def _model_class(kind: str) -> type:
    """The class of ``kind``, loaded on first use through the package's exports."""
    return getattr(importlib.import_module("..", __package__), KINDS[kind])


def _tree_payload(tree: DecisionTree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": [None if np.isnan(t) else t for t in tree.threshold],
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "cover": tree.cover.tolist(),
        "value": tree.value.tolist(),
        "n_features": tree.n_features,
    }


def _tree_from_payload(d: dict) -> DecisionTree:
    return _model_class("tree")(
        feature=np.array(d["feature"], dtype=int),
        threshold=np.array([np.nan if t is None else t for t in d["threshold"]], dtype=float),
        left=np.array(d["left"], dtype=int),
        right=np.array(d["right"], dtype=int),
        cover=np.array(d["cover"], dtype=float),
        value=np.array(d["value"], dtype=float),
        n_features=int(d["n_features"]),
    )


def model_to_dict(model) -> dict:
    kind = {name: kind for kind, name in KINDS.items()}.get(type(model).__name__)
    if kind is None or not isinstance(model, _model_class(kind)):
        raise ModelIOError(f"cannot serialize {type(model).__name__}")
    if kind == "tree":
        return {"schema_version": SCHEMA_VERSION, "kind": "tree",
                "tree": _tree_payload(model)}
    if kind == "boosted":
        return {"schema_version": SCHEMA_VERSION, "kind": "boosted",
                "base_score": model.base_score.tolist(),
                "learning_rate": model.learning_rate,
                "lam": model.lam,
                "max_depth": model.max_depth,
                "n_features": model.n_features,
                "train_loss": list(model.train_loss),
                "rounds": [[_tree_payload(t) for t in r] for r in model.rounds]}
    return {"schema_version": SCHEMA_VERSION, "kind": "mlp",
            "layer_sizes": list(model.layer_sizes),
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases]}


def _model_from_payload(d: dict):
    try:
        version = d["schema_version"]
        if version != SCHEMA_VERSION:
            raise ModelIOError(f"unsupported schema version {version}, "
                               f"expected {SCHEMA_VERSION}")
        kind = d["kind"]
        if kind not in KINDS:
            raise ModelIOError(f"unknown model kind {kind!r}")
        if kind == "tree":
            return _tree_from_payload(d["tree"])
        if kind == "boosted":
            return _model_class(kind)(
                base_score=np.array(d["base_score"], dtype=float),
                rounds=[[_tree_from_payload(t) for t in r] for r in d["rounds"]],
                learning_rate=float(d["learning_rate"]),
                lam=float(d["lam"]),
                max_depth=int(d["max_depth"]),
                n_features=int(d["n_features"]),
                train_loss=[float(x) for x in d["train_loss"]])
        return _model_class(kind)(layer_sizes=tuple(int(s) for s in d["layer_sizes"]),
                                  weights=[np.array(w, dtype=float) for w in d["weights"]],
                                  biases=[np.array(b, dtype=float) for b in d["biases"]])
    except ModelIOError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelIOError(f"corrupt model payload: {exc}") from exc


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, separators=(",", ":"))


def load_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelIOError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelIOError(f"corrupt model file {path}: expected a JSON object")
    return _model_from_payload(payload)
