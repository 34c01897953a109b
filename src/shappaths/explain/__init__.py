"""SHAP tensors: exact TreeSHAP for trees, Kernel SHAP for everything else.

Importing this package loads nothing: each name in ``__all__`` is loaded
from its module on first use (PEP 562). ``kernel_shap`` and ``tree_shap``
are not re-exported here, because once their modules are loaded those
names on this package are the modules; take the functions from
``shappaths`` or from ``.kernel_shap`` and ``.tree_shap``.
"""

from .. import _exports

__all__, __getattr__ = _exports(__name__)
