"""Every name in a module's __all__ exists, so a deleted helper cannot
leave its export behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import arith_lg

MODULES = sorted(info.name for info in pkgutil.iter_modules(arith_lg.__path__, "arith_lg."))


def test_every_module_is_checked():
    assert "arith_lg.exactla" in MODULES and len(MODULES) >= 15


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
