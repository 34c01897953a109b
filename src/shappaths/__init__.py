"""shappaths: multi-class SHAP tensors, subgroup discovery, waterfall paths.

Train an interpretable-to-opaque classifier line-up on one margin
interface, compute per-class SHAP value tensors (exact TreeSHAP for tree
models, Kernel SHAP for anything else), discover prediction subgroups by
clustering the flattened tensors with HDBSCAN, and render classical and
high-dimensional waterfall plots as deterministic SVG.

The names below are loaded on first use (PEP 562), so importing the
package loads neither numpy nor any layer.
"""

import importlib

__version__ = "0.1.0"

_LAYER_OF = {name: layer for layer, names in {
    ".data": "Dataset ScalingMeta SimulationSpec SplitSpec load_csv load_idx_images "
             "min_max_scale simulate write_csv",
    ".explain": "Background ShapTensor flatten kernel_shap load_tensor mean_abs "
                "sample_background save_tensor tree_shap unflatten_values",
    ".models": "BoostedEnsemble DecisionTree EvalReport Mlp evaluate load_model save_model "
               "train_boosted train_mlp train_tree",
    ".subgroup": "ClusterLabeling HdbscanParams PcaModel cluster_purity hdbscan pca_fit "
                 "pca_transform",
}.items() for name in names.split()}

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAYER_OF[name], __name__), name)
    globals()[name] = value
    return value
