"""Every public name a module declares in ``__all__`` must exist, and be
exported by the package where the module is a library module, and so must
every name the benchmark's workloads call on the package.

A class deleted from a module but left in its ``__all__`` would otherwise
pass every test until somebody ran ``from qihe.<module> import *``.
"""

import importlib
import re
from pathlib import Path

import pytest

import qihe


@pytest.mark.parametrize("module", ["qcore", "thermo", "protocols", "coding", "cli", "verify"])
def test_every_declared_export_exists(module):
    mod = importlib.import_module(f"qihe.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["qcore", "thermo", "protocols", "coding"])
def test_the_package_exports_every_library_name(module):
    """The package re-exports each library module's ``__all__``, so a name
    is listed once, in its module, and none is left out of ``qihe``."""
    mod = importlib.import_module(f"qihe.{module}")
    missing = [name for name in mod.__all__ if getattr(qihe, name, None) is not getattr(mod, name)]
    assert missing == []


def test_every_name_the_benchmark_calls_exists():
    """The timed workloads call the library as ``q.<name>`` with ``q = qihe``;
    removing one of those names from the package would break the benchmark."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    names = set(re.findall(r"\bq\.([A-Za-z_]\w*)", source))
    assert {"measure_computational", "typical_subspace"} <= names
    assert sorted(name for name in names if not hasattr(qihe, name)) == []
