"""Every public name a module declares in ``__all__`` must exist, and be
exported by the package where the module is a library module, and so must
every name the benchmark's workloads call on the package.

A class deleted from a module but left in its ``__all__`` would otherwise
pass every test until somebody ran ``from qihe.<module> import *``.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import qihe


_MODULES = [f"qihe.{name}" for name in ("qcore", "thermo", "protocols", "coding", "cli", "verify")]


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


def test_no_public_callable_takes_a_cap():
    """The dense cap is resolved by ``qcore.max_dimension`` alone, so no public
    function or value type takes a ``max_dim``, and a blocked alphabet keeps none."""
    public = [getattr(mod, name) for mod in map(importlib.import_module, _MODULES)
              for name in mod.__all__]
    takers = [obj for obj in public if callable(obj)
              and not (isinstance(obj, type) and issubclass(obj, Exception))
              and "max_dim" in inspect.signature(obj).parameters]
    assert takers == []
    blocked = qihe.block_alphabet(qihe.zero_plus_alphabet(), 2)
    assert "max_dim" not in {f.name for f in dataclasses.fields(blocked)}
    assert "max_dim" not in vars(blocked)
