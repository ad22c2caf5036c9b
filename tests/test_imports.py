"""Import layout: modules of the package import each other at the top of a
file only, so the import graph has no cycle hidden inside a function, the
package imports nothing but the standard library and itself, the test
oracles take no private name from the package, every name a module
exports in ``__all__`` resolves, and the certificates name no eigenvalue
scan."""

import ast
import importlib
import pathlib
import sys

import slindef

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "slindef"


def function_local_package_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0
                    or (node.module or "").split(".")[0] == "slindef"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "slindef"
                    for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_package_import_inside_a_function():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 7
    found = [hit for path in paths for hit in function_local_package_imports(path)]
    # stdlib imports inside functions (concurrent.futures) stay allowed
    assert found == []


def test_runtime_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            foreign.extend(f"{path.name}:{node.lineno} {name}"
                           for name in names
                           if name.split(".")[0] not in
                           sys.stdlib_module_names | {"slindef"})
    assert foreign == []


def test_oracles_use_no_private_package_name():
    # perfbench's pointwise check imports tests/oracles.py, so a private name
    # it took from the package would break that check when the name goes
    path = SRC.parents[1] / "tests" / "oracles.py"
    tree = ast.parse(path.read_text(), str(path))
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "slindef"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_every_exported_name_resolves():
    modules = [slindef] + [importlib.import_module(f"slindef.{path.stem}")
                           for path in sorted(SRC.glob("*.py"))
                           if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_certificates_never_consult_the_eigenvalue_scan():
    # the certificates are independent evidence against the scans, as the
    # module docstring says, so the module names neither scan
    path = SRC / "certificates.py"
    tree = ast.parse(path.read_text(), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names.isdisjoint({"find_real_eigenvalues",
                             "find_complex_eigenvalues"})
