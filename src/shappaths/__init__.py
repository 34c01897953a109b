"""shappaths: multi-class SHAP tensors, subgroup discovery, waterfall paths.

Train an interpretable-to-opaque classifier line-up on one margin
interface, compute per-class SHAP value tensors (exact TreeSHAP for tree
models, Kernel SHAP for anything else), discover prediction subgroups by
clustering the flattened tensors with HDBSCAN, and render classical and
high-dimensional waterfall plots as deterministic SVG.

Every public name of the layers is exported here and loaded on first use
(PEP 562), so importing the package loads neither numpy nor any layer.
"""

import importlib
import sys

__version__ = "0.1.0"

# The one name -> defining-module table. The package, each subpackage and
# the CLI load a name from the module listed here, and from nothing else.
_DEFINED_IN = {name: module for module, names in {
    "numpy": "np",  # bound by the CLI only
    ".data": "Dataset ScalingMeta SimulationSpec SplitSpec load_csv load_idx_images "
             "min_max_scale read_csv simulate split_indices write_csv",
    ".explain.kernel_shap": "kernel_shap kernel_weight sample_background sample_coalitions",
    ".explain.reader": "TensorReader column_means descending mean_abs pairwise_sum "
                       "rank_features",
    ".explain.tensor": "Background ShapTensor flat_column_names flatten load_tensor save_tensor "
                       "unflatten_values",
    ".explain.tree_shap": "shap_values_tree tree_shap",
    ".models.boosted": "BoostedEnsemble log_loss softmax train_boosted",
    ".models.io": "load_model model_to_dict save_model",
    ".models.metrics": "EvalReport evaluate",
    ".models.mlp": "Mlp init_mlp loss_and_grads train_mlp",
    ".models.tree": "DecisionTree train_tree",
    ".subgroup.hdbscan": "CondensedTree HdbscanParams Points condensed_tree core_distances "
                         "hdbscan minimum_spanning_tree mutual_reachability pairwise_distances "
                         "single_linkage",
    ".subgroup.pca": "PcaModel pca_fit pca_transform",
    ".subgroup.purity": "ClusterLabeling PurityReport cluster_purity",
    ".viz.charts": "cluster_heatmap dataset_rows pca_scatter stacked_bar",
    ".viz.paths": "REMAINDER ProjectedPath WaterfallPath build_paths paths_to_csv "
                  "project_paths render_paths",
    ".viz.svg": "Canvas PALETTE",
    ".viz.waterfall": "PlotSpec classical_waterfall waterfall_entries waterfall_row",
}.items() for name in names.split()}


def _exports(package: str):
    """``__all__`` and a PEP 562 ``__getattr__`` for ``package``.

    They cover the table's names defined below ``package``, each loaded
    from its module on first access. A name that equals its module's (say
    ``tree_shap`` in ``.explain.tree_shap``) is left out below the top
    level: once that module is imported, Python sets the package attribute
    of that name to the module, so the package could not serve the function.
    """
    prefix = package[len(__name__):] + "."
    names = sorted(name for name, module in _DEFINED_IN.items()
                   if module.startswith(prefix) and module != prefix + name)
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in names:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(_DEFINED_IN[name], __name__)
        value = namespace[name] = getattr(module, name)
        return value

    return names, __getattr__


__all__, __getattr__ = _exports(__name__)
