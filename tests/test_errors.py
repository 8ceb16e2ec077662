"""One catch site for OS failures: ``errors.error_prefix`` turns an OSError
into an IoFailure that names the path once, and ``cli.main`` is the only
other code that catches one, as the last resort for what escapes."""

import ast
import builtins
import errno
import gzip
import os
from pathlib import Path

import pytest

from gbmseg.errors import IoFailure, error_prefix

SRC = Path(__file__).resolve().parents[1] / "src" / "gbmseg"


def _names_os_error(node: ast.expr) -> bool:
    """An except clause's type names OSError, an alias or a builtin subclass."""
    names = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(isinstance(n, ast.Name) and isinstance(getattr(builtins, n.id, None), type)
               and issubclass(getattr(builtins, n.id), OSError) for n in names)


def _os_error_catchers(node: ast.AST, module: str, where: str):
    """``<module>.<function>`` for each except clause below ``node`` that
    names an OSError, by the innermost function that holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler) and child.type is not None \
                and _names_os_error(child.type):
            yield where
        inner = (f"{module}.{child.name}"
                 if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)
        yield from _os_error_catchers(child, module, inner)


def test_only_error_prefix_and_main_catch_os_error():
    sites = [site for path in sorted(SRC.glob("*.py"))
             for site in _os_error_catchers(ast.parse(path.read_text(encoding="utf-8")),
                                            path.stem, path.stem)]
    assert sorted(sites) == ["cli.main", "errors.error_prefix"]


@pytest.mark.parametrize("clause, caught", [
    ("except OSError:", True),
    ("except (ValueError, OSError) as err:", True),
    ("except FileNotFoundError:", True),
    ("except IOError:", True),
    ("except ValueError:", False),
    ("except Exception:", False),
])
def test_guard_sees_every_spelling_of_an_os_error(clause, caught):
    tree = ast.parse(f"def f():\n    try:\n        pass\n    {clause}\n        pass\n")
    assert list(_os_error_catchers(tree, "m", "m")) == (["m.f"] if caught else [])


def test_os_error_becomes_io_failure_naming_the_path_once():
    with pytest.raises(IoFailure) as caught, error_prefix("out/x.nii.gz"):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "out/x.nii.gz")
    assert str(caught.value) == "out/x.nii.gz: No such file or directory"
    assert isinstance(caught.value.__cause__, FileNotFoundError)


def test_os_error_without_strerror_keeps_its_text():
    with pytest.raises(IoFailure, match=r"^in\.nii\.gz: Not a gzipped file$"), \
            error_prefix("in.nii.gz"):
        raise gzip.BadGzipFile("Not a gzipped file")
