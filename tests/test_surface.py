"""The public surface: every advertised name exists, and the package
re-exports only names that their modules advertise."""

import ast
import importlib
import inspect

import pytest

import qmp

MODULES = ["qcore", "bloch", "kinematics", "unitary_recon", "dissipative_recon", "measures"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"qmp.{name}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_imports_only_advertised_names():
    tree = ast.parse(inspect.getsource(qmp))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert sorted(node.module for node in imports) == sorted(MODULES)
    for node in imports:
        advertised = importlib.import_module(f"qmp.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in advertised] == []
