"""The public surface: each module's ``__all__`` is the one list of its public
names, every listed name is defined where it is listed, the package
namespace holds only its submodules and ``__version__``, every error class
is raised or subclassed somewhere in the package, and every name that the
benchmark tracer wraps still resolves."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import cyclesync
from cyclesync import errors

MODULES = sorted(m.name for m in pkgutil.iter_modules(cyclesync.__path__)
                 if not m.name.startswith("_"))


def test_package_imports():
    importlib.reload(cyclesync)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cyclesync.{name}")
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert not missing, f"cyclesync.{name}.__all__ names missing attributes {missing}"


def test_package_namespace_holds_only_submodules():
    for name in MODULES:
        importlib.import_module(f"cyclesync.{name}")
    assert isinstance(cyclesync.__version__, str)
    extra = sorted(key for key, value in vars(cyclesync).items()
                   if not key.startswith("_")
                   and not (isinstance(value, types.ModuleType)
                            and value.__name__ == f"cyclesync.{key}"))
    assert not extra, f"the package namespace re-exports {extra}"


def _defined_names(module) -> set:
    """Names bound at module level by a def, a class or an assignment."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_defined_there(name):
    module = importlib.import_module(f"cyclesync.{name}")
    imported = sorted(set(getattr(module, "__all__", ())) - _defined_names(module))
    assert not imported, f"cyclesync.{name}.__all__ lists names defined elsewhere: {imported}"


def _raised_or_subclassed() -> set:
    """Names raised as ``raise Name(...)`` or listed as a base class anywhere in the package."""
    names = set()
    for info in pkgutil.iter_modules(cyclesync.__path__):
        module = importlib.import_module(f"cyclesync.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                exprs = [node.exc.func]
            elif isinstance(node, ast.ClassDef):
                exprs = node.bases
            else:
                continue
            names.update(e.id if isinstance(e, ast.Name) else e.attr for e in exprs
                         if isinstance(e, (ast.Name, ast.Attribute)))
    return names


def test_every_error_class_is_raised_or_subclassed():
    classes = [name for name, value in vars(errors).items()
               if inspect.isclass(value) and value.__module__ == errors.__name__]
    dead = sorted(set(classes) - _raised_or_subclassed())
    assert classes and not dead, f"cyclesync.errors classes nothing raises or subclasses: {dead}"


def _tracer_targets() -> list:
    """Every "module:attr[.method]" that bench/tracer.py wraps, read from its TARGETS."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [target for targets, _ in tracer.TARGETS.values() for target in targets]


@pytest.mark.parametrize("target", _tracer_targets())
def test_traced_name_resolves(target):
    module_name, attr = target.split(":")
    owner = importlib.import_module(module_name)
    *cls_names, name = attr.split(".")
    for cls_name in cls_names:
        owner = getattr(owner, cls_name, None)
        assert owner is not None, f"{target}: {module_name} has no {cls_name}"
    # the tracer reads methods off the class dict and functions off the module
    found = owner.__dict__.get(name) if cls_names else getattr(owner, name, None)
    assert callable(found) or isinstance(found, classmethod), f"{target} does not resolve"
