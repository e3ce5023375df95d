"""Every public name a module declares in ``__all__`` must exist.

A class deleted from a module but left in its ``__all__`` would otherwise
pass every test until somebody ran ``from qihe.<module> import *``.
"""

import importlib

import pytest


@pytest.mark.parametrize("module", ["qcore", "thermo", "protocols", "coding", "cli", "verify"])
def test_every_declared_export_exists(module):
    mod = importlib.import_module(f"qihe.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
