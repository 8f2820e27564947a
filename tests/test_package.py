"""The package's public namespace."""

import types

import cvteleport


def test_all_matches_init_bindings():
    # a name dropped from __init__'s imports but left in __all__ (or the
    # reverse) breaks ``from cvteleport import *`` or hides a public name
    exported = cvteleport.__all__
    assert len(set(exported)) == len(exported)
    assert all(hasattr(cvteleport, name) for name in exported)
    bound = {
        name
        for name, value in vars(cvteleport).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound

