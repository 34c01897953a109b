import importlib

import pytest


@pytest.mark.parametrize("module", ["shappaths", "shappaths.models", "shappaths.explain",
                                    "shappaths.subgroup", "shappaths.viz"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
