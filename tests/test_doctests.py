"""The docstring examples of every qlike module run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import qlike

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(qlike.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module("qlike." + name))
    assert result.failed == 0, result


def test_scalar_docstring_has_examples():
    from qlike import scalars
    assert doctest.testmod(scalars).attempted >= 2


def test_forms_docstring_has_examples():
    from qlike import forms
    assert doctest.testmod(forms).attempted >= 2


def test_structures_docstring_has_examples():
    from qlike import structures
    assert doctest.testmod(structures).attempted >= 2


def test_polymatrix_docstring_has_examples():
    from qlike import polymatrix
    assert doctest.testmod(polymatrix).attempted >= 2


def test_embedding_docstring_has_examples():
    from qlike import embedding
    assert doctest.testmod(embedding).attempted >= 2


def test_orbit_docstring_has_examples():
    from qlike import orbit
    assert doctest.testmod(orbit).attempted >= 3
