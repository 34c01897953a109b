"""Classifiers sharing one per-class margin interface.

Every model exposes ``predict_margin(X) -> (n, k)`` raw scores and
``predict_class(X)`` as their argmax (lowest index wins ties), plus
``n_features`` / ``n_classes``. Decision-tree margins are leaf
class-frequency vectors; the boosted ensemble and the network report
logits.
"""

from .boosted import BoostedEnsemble, log_loss, softmax, train_boosted
from .io import load_model, model_to_dict, save_model
from .metrics import EvalReport, evaluate
from .mlp import Mlp, init_mlp, loss_and_grads, train_mlp
from .tree import DecisionTree, train_tree

__all__ = [
    "BoostedEnsemble", "DecisionTree", "EvalReport", "Mlp", "evaluate", "init_mlp",
    "load_model", "log_loss", "loss_and_grads", "model_to_dict", "save_model", "softmax",
    "train_boosted", "train_mlp", "train_tree",
]
