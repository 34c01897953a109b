"""Classifiers sharing one per-class margin interface.

Every model exposes ``predict_margin(X) -> (n, k)`` raw scores and
``predict_class(X)`` as their argmax (lowest index wins ties), plus
``n_features`` / ``n_classes``. Decision-tree margins are leaf
class-frequency vectors; the boosted ensemble and the network report
logits.

Importing this package loads nothing: each name in ``__all__`` is loaded
from its module on first use (PEP 562).
"""

from .. import _exports

__all__, __getattr__ = _exports(__name__)
