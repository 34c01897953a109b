"""shappaths: multi-class SHAP tensors, subgroup discovery, waterfall paths.

Train an interpretable-to-opaque classifier line-up on one margin
interface, compute per-class SHAP value tensors (exact TreeSHAP for tree
models, Kernel SHAP for anything else), discover prediction subgroups by
clustering the flattened tensors with HDBSCAN, and render classical and
high-dimensional waterfall plots as deterministic SVG.
"""

__version__ = "0.1.0"

from .data import (Dataset, ScalingMeta, SimulationSpec, SplitSpec, load_csv,
                   load_idx_images, min_max_scale, simulate, write_csv)
from .explain import (Background, ShapTensor, flatten, kernel_shap, load_tensor, mean_abs,
                      sample_background, save_tensor, tree_shap, unflatten_values)
from .models import (BoostedEnsemble, DecisionTree, EvalReport, Mlp, evaluate, load_model,
                     save_model, train_boosted, train_mlp, train_tree)
from .subgroup import (ClusterLabeling, HdbscanParams, PcaModel, cluster_purity,
                       hdbscan, pca_fit, pca_transform)

__all__ = [
    "Background", "BoostedEnsemble", "ClusterLabeling", "Dataset", "DecisionTree",
    "EvalReport", "HdbscanParams", "Mlp", "PcaModel", "ScalingMeta", "ShapTensor",
    "SimulationSpec", "SplitSpec", "cluster_purity", "evaluate", "flatten", "hdbscan",
    "kernel_shap", "load_csv", "load_idx_images", "load_model", "load_tensor", "mean_abs",
    "min_max_scale", "pca_fit", "pca_transform", "sample_background", "save_model",
    "save_tensor", "simulate", "train_boosted", "train_mlp", "train_tree",
    "tree_shap", "unflatten_values", "write_csv",
]
