"""SHAP tensors: exact TreeSHAP for trees, Kernel SHAP for everything else."""

from .kernel_shap import kernel_shap, kernel_weight, sample_background, sample_coalitions
from .tensor import (Background, ShapTensor, flat_column_names, flatten, load_tensor,
                     mean_abs, save_tensor, unflatten_values)
from .tree_shap import shap_values_tree, tree_shap

__all__ = [
    "Background", "ShapTensor", "flat_column_names", "flatten", "kernel_shap",
    "kernel_weight", "load_tensor", "mean_abs", "sample_background", "sample_coalitions",
    "save_tensor", "shap_values_tree", "tree_shap", "unflatten_values",
]
