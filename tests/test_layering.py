"""Module boundaries inside the package, read from the source with ``ast``.

No module imports or reads another module's underscore name; the private
modules ``_kernels`` and ``_tables`` are exempt.  The dense engine
``statevec`` sits below ``dfs`` and imports nothing from it.
"""

import ast
import pathlib

import qdq

SOURCE = pathlib.Path(qdq.__file__).parent
PRIVATE_MODULES = {"_kernels", "_tables"}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}


def _imports(tree):
    """(source module, name, local name) per imported name; source None for a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "qdq" and not module.startswith("qdq."):
                    continue
                module = module.removeprefix("qdq").lstrip(".")
            for alias in node.names:
                yield module or None, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qdq."):
                    yield None, alias.name.removeprefix("qdq."), alias.asname or alias.name


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _violations(name, tree):
    found = []
    submodules = {}
    for module, imported, local in _imports(tree):
        if module is None:
            submodules[local] = imported
            if _private(imported) and imported not in PRIVATE_MODULES:
                found.append(f"{name} imports module {imported}")
        elif module != name and module not in PRIVATE_MODULES and _private(imported):
            found.append(f"{name} imports {module}.{imported}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = submodules.get(node.value.id)
            if module and module != name and module not in PRIVATE_MODULES and _private(node.attr):
                found.append(f"{name} reads {module}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    found = [v for name, tree in _modules().items() for v in _violations(name, tree)]
    assert found == []


def test_statevec_imports_nothing_from_dfs():
    sources = {module or imported for module, imported, _ in _imports(_modules()["statevec"])}
    assert "dfs" not in sources


def test_the_checks_see_a_private_read_and_a_dfs_import():
    tree = ast.parse(
        "from . import dfs, statevec\n"
        "from .stabilizer import _row\n"
        "statevec._index_masks\n"
    )
    assert _violations("dfs", tree) == [
        "dfs imports stabilizer._row",
        "dfs reads statevec._index_masks",
    ]
    assert "dfs" in {module or imported for module, imported, _ in _imports(tree)}
