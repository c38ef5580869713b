"""Every name a module exports in ``__all__`` exists.

``from vpcalib.<module> import *`` raises on a stale entry, and nothing
else imports one, so a name deleted from a module but left in its
``__all__`` would otherwise go unnoticed.
"""

import importlib
import pkgutil

import pytest

import vpcalib

# __main__ runs the command line when it is imported
MODULES = ["vpcalib"] + [
    f"vpcalib.{info.name}" for info in pkgutil.iter_modules(vpcalib.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
