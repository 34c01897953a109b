"""Embedding and subgroup discovery over flattened SHAP matrices.

Importing this package loads nothing: each name in ``__all__`` is loaded
from its module on first use (PEP 562). ``hdbscan`` is not re-exported
here, because once its module is loaded that name on this package is the
module; take the function from ``shappaths`` or from ``.hdbscan``.
"""

from .. import _exports

__all__, __getattr__ = _exports(__name__)
