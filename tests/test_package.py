"""The package surface: ``import obstruct`` loads no layer, each public name
loads the module that defines it on first use, and the package imports only
the standard library.  The load checks each run in a fresh interpreter,
since this process has already imported every layer."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import obstruct

SRC = Path(__file__).resolve().parents[1] / "src" / "obstruct"


def fresh(code):
    """`code` run by a new interpreter; the value it prints, read back."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


@pytest.mark.parametrize("statement,loaded", [
    ("import obstruct", ["obstruct"]),
    ("from obstruct import density", ["obstruct", "obstruct._record", "obstruct.numtheory"]),
], ids=["import-obstruct", "from-obstruct-import-density"])
def test_a_name_loads_only_its_layer(statement, loaded):
    """The package's modules, and dataclasses, that `statement` loads."""
    code = ("import sys\nbefore = set(sys.modules)\n" + statement + "\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.split('.')[0] in ('obstruct', 'dataclasses')))")
    assert fresh(code) == loaded


def test_star_import_binds_each_name_from_its_layer():
    """`from obstruct import *` binds exactly `__all__`, each name to the
    object that its defining layer holds."""
    code = ("import sys\nns = {}\nexec('from obstruct import *', ns)\n"
            "print(sorted((n, v.__module__, getattr(sys.modules[v.__module__], n) is v)\n"
            "             for n, v in ns.items() if n != '__builtins__'))")
    want = sorted((n, getattr(obstruct, n).__module__, True) for n in obstruct.__all__)
    assert fresh(code) == want


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'not_a_name'"):
        obstruct.not_a_name


def test_runtime_imports_only_the_standard_library():
    """pyproject declares no dependencies: every absolute import in the
    package names a standard-library module."""
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - sys.stdlib_module_names) == []
    assert {"fractions", "math"} <= imported  # the scan reached the layers
