"""The package surface is the five library modules' __all__ lists, declared
once in each module and re-exported as they stand."""

import inspect

import kbonacci
from kbonacci import algebra, errors, recurrence, spectral, substitution

MODULES = (algebra, errors, recurrence, spectral, substitution)


def test_all_is_the_module_lists_concatenated():
    assert kbonacci.__all__ == [name for mod in MODULES for name in mod.__all__]
    assert len(set(kbonacci.__all__)) == len(kbonacci.__all__)


def test_every_name_is_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(kbonacci, name) is getattr(mod, name), (mod.__name__, name)


def test_errors_all_is_every_error_class_it_defines():
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.KbonacciError) and obj.__module__ == errors.__name__
    }
    assert sorted(errors.__all__) == sorted(defined)


def test_no_private_or_future_names_exported():
    exported = [*kbonacci.__all__, *(name for mod in MODULES for name in mod.__all__)]
    assert not [name for name in exported if name.startswith("_") or name == "annotations"]
    namespace = {}
    exec("from kbonacci import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(kbonacci.__all__)
