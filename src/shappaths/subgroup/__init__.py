"""Embedding and subgroup discovery over flattened SHAP matrices."""

from .hdbscan import (ClusterLabeling, CondensedTree, HdbscanParams, Points, condensed_tree,
                      core_distances, hdbscan, minimum_spanning_tree,
                      mutual_reachability, pairwise_distances, single_linkage)
from .pca import PcaModel, pca_fit, pca_transform
from .purity import PurityReport, cluster_purity

__all__ = [
    "ClusterLabeling", "CondensedTree", "HdbscanParams", "PcaModel", "Points", "PurityReport",
    "cluster_purity", "condensed_tree", "core_distances", "hdbscan",
    "minimum_spanning_tree", "mutual_reachability", "pairwise_distances",
    "pca_fit", "pca_transform", "single_linkage",
]
