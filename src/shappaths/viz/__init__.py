"""Deterministic SVG renderings of SHAP explanations.

Importing this package loads nothing: each name in ``__all__`` is loaded
from its module on first use (PEP 562).
"""

from .. import _exports

__all__, __getattr__ = _exports(__name__)
