"""``entport.__all__`` names exactly the public names the package binds."""

import types

import entport


def test_all_is_sorted():
    assert entport.__all__ == sorted(entport.__all__)


def test_all_is_every_public_name_that_is_not_a_module():
    bound = {
        name
        for name, value in vars(entport).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(entport.__all__) == bound
    assert len(entport.__all__) == len(bound)


def test_every_name_in_all_resolves():
    namespace = {}
    exec("from entport import *", namespace)
    assert [name for name in entport.__all__ if name not in namespace] == []
