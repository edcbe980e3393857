"""Every annotation in ``repro`` resolves.

The package uses postponed annotations (``from __future__ import
annotations``), so a name that an annotation mentions but the module never
imports costs nothing at run time and fails only when something asks for
the hints: ``typing.get_type_hints``, a dataclass introspector, a doc
builder.  This test asks for every one of them.  Names a module imports
only for typing, under ``if TYPE_CHECKING:``, are supplied from that block.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import typing

import pytest

import repro

#: Modules whose import runs a program, not a library.
SKIP = {"repro.__main__"}


def _module_names() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name not in SKIP:
            names.append(info.name)
    return sorted(names)


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _typing_only_names(module) -> dict[str, object]:
    """The names ``module`` imports under ``if TYPE_CHECKING:``."""
    tree = ast.parse(inspect.getsource(module))
    names: dict[str, object] = {}
    for node in tree.body:
        if not (isinstance(node, ast.If) and _is_type_checking(node.test)):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.ImportFrom):
                source = importlib.import_module(
                    importlib.util.resolve_name(
                        "." * stmt.level + (stmt.module or ""),
                        module.__package__,
                    )
                    if stmt.level
                    else stmt.module
                )
                for alias in stmt.names:
                    names[alias.asname or alias.name] = getattr(
                        source, alias.name
                    )
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    top = alias.name.partition(".")[0]
                    target = alias.asname or top
                    names[target] = importlib.import_module(
                        alias.name if alias.asname else top
                    )
    return names


def _targets(module):
    """``(qualified name, object)`` for each function, class and method the
    module defines (not the ones it imports)."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield from _class_targets(name, obj)


def _class_targets(qualname: str, cls):
    yield qualname, cls
    for name, attr in vars(cls).items():
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        if isinstance(attr, property):
            for part, fn in (("fget", attr.fget), ("fset", attr.fset)):
                if fn is not None:
                    yield f"{qualname}.{name}.{part}", fn
        elif inspect.isfunction(attr):
            yield f"{qualname}.{name}", attr
        elif inspect.isclass(attr) and attr.__module__ == cls.__module__:
            yield from _class_targets(f"{qualname}.{name}", attr)


@pytest.mark.parametrize("module_name", _module_names())
def test_annotations_resolve(module_name):
    module = importlib.import_module(module_name)
    localns = _typing_only_names(module)
    failures = []
    for qualname, obj in _targets(module):
        try:
            typing.get_type_hints(obj, localns=localns)
        except Exception as exc:  # noqa: BLE001 - report every failure
            failures.append(f"{qualname}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)
