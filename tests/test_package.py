"""The lazy ``ssse`` namespace: what a fresh import loads, and what every name resolves to."""

import importlib

import pytest

import ssse
from helpers import run_fresh

_LOADED = "sorted(m for m in sys.modules if m.startswith('ssse.'))"


def test_import_loads_no_submodule():
    assert run_fresh(f"import sys, ssse; print({_LOADED})").strip() == "[]"


def test_a_name_loads_only_its_owner_and_what_the_owner_imports():
    code = f"import sys, ssse; ssse.SsseError; print({_LOADED})"
    assert run_fresh(code).strip() == "['ssse.errors']"


@pytest.mark.parametrize("name", ["models", "evaluation", "cli", "_splitmix"])
def test_a_submodule_resolves_after_a_bare_import(name):
    code = f"import ssse; print(ssse.{name}.__name__)"
    assert run_fresh(code).strip() == f"ssse.{name}"


@pytest.mark.parametrize("name", ssse.__all__)
def test_every_public_name_is_its_owner_modules_object(name):
    owner = importlib.import_module(f"ssse.{ssse._OWNER[name]}")
    assert getattr(ssse, name) is vars(owner)[name]


@pytest.mark.parametrize("name, owner", [
    ("RatioCheck", "models"), ("fisher_hessian_ratio_check", "models"), ("grad", "models"),
    ("make_parallel_planes_binary", "data"), ("make_separable_subspace", "data"),
    ("performance_similarity", "evaluation"),
])
def test_a_name_only_the_tests_call_is_not_in_the_package(name, owner):
    assert name not in ssse.__all__ and name not in ssse._OWNER
    assert not hasattr(ssse, name)
    assert not hasattr(importlib.import_module(f"ssse.{owner}"), name)


def test_star_import_and_dir_cover_all_public_names():
    namespace = {}
    exec("from ssse import *", namespace)
    assert set(ssse.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(ssse, name) for name in ssse.__all__)
    assert set(ssse.__all__) <= set(dir(ssse))
    assert ssse.__all__ == sorted(set(ssse.__all__))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ssse.no_such_name
    assert not hasattr(ssse, "no_such_name")
    with pytest.raises(ImportError):
        exec("from ssse import no_such_name", {})
