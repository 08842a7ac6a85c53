"""Import and dead-code hygiene: every module-level or local import in the
package and the tests is used, either in the code or by name in the module's
__all__; a name a package module imports only to list in its __all__ is
imported from that module by someone; and every function, class and method
of the package is referenced by code outside the tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "colorcut").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
# code that may use the package; the benchmark's own tests do not count
USERS = PACKAGE + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)

# code that may import a package module's names: the package, the benchmark and the tests
IMPORTERS = sorted([*PACKAGE, *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tests").glob("*.py")])

# package names with no caller outside the tests, and why they stay
FORMAT_WRITER = "README format writer: every documented format's writer output re-parses"
UNREFERENCED_ALLOWED = {
    "formats.write_cmc": FORMAT_WRITER,
    "formats.write_cnf": FORMAT_WRITER,
    "formats.parse_gadget_map": "reads what `reduce` writes; stays until witness decoding calls it",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_detector():
    source = "import os\nimport sys as system\nfrom x import a, b\n__all__ = ['b']\nprint(a)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def reexports(source: str) -> set[str]:
    """Names the module imports and lists in its __all__ but never reads."""
    imported, read, listed = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed.update(ast.literal_eval(node.value))
    return (imported & listed) - read


def taken_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name a source takes from a package module:
    `from colorcut.<module> import name`, `from .<module> import name`, or
    an attribute read `<module>.name`."""
    taken = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 0 and node.module.startswith("colorcut."):
                module = node.module.removeprefix("colorcut.")
            elif node.level == 1:
                module = node.module
            else:
                continue
            taken.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            taken.add((node.value.id, node.attr))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            taken.add((node.value.attr, node.attr))
    return taken


def unclaimed_reexports(package: dict[str, str], importers: list[str]) -> list[str]:
    """`module.name` for each name a package module other than __init__
    imports only to list in its __all__ while no importer takes it from
    that module."""
    taken = set().union(*(taken_names(source) for source in importers))
    return [
        f"{module}.{name}"
        for module, source in package.items()
        if module != "__init__"
        for name in sorted(reexports(source))
        if (module, name) not in taken
    ]


def test_reexport_detector():
    package = {
        "__init__": "from .m import a\n__all__ = ['a']\n",
        "m": "from .n import a, b, c, d, e\n__all__ = ['a', 'b', 'c', 'd', 'e']\nprint(c)\n",
        "n": "a = b = c = d = e = 1\n",
    }
    importers = [
        *package.values(),
        "from colorcut.m import d\n",
        "from colorcut import m\nprint(m.e)\n",
    ]
    assert unclaimed_reexports(package, importers) == ["m.b"]


def test_no_unclaimed_reexports():
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    importers = [path.read_text(encoding="utf-8") for path in IMPORTERS]
    assert unclaimed_reexports(package, importers) == []


def referenced_names(tree) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{sub.name}", sub


def unreferenced(package: dict[str, str], users: list[str]) -> list[str]:
    """Qualified names of definitions in the package sources that nothing in
    the user sources reads, apart from the definition's own body. Dunder
    methods are called implicitly and never count."""
    names = Counter()
    for source in users:
        names.update(referenced_names(ast.parse(source)))
    found = []
    for module, source in package.items():
        for qualname, node in definitions(ast.parse(source)):
            short = qualname.rsplit(".", 1)[-1]
            if short.startswith("__") and short.endswith("__"):
                continue
            if names[short] - referenced_names(node)[short] == 0:
                found.append(f"{module}.{qualname}")
    return found


def test_unreferenced_detector():
    package = {
        "m": "def used():\n    pass\n\n"
        "def dead():\n    dead()\n\n"
        "class C:\n    def __init__(self):\n        self.go()\n\n"
        "    def go(self):\n        pass\n\n"
        "    def idle(self):\n        pass\n"
    }
    users = [*package.values(), "used()\nC()\n"]
    assert unreferenced(package, users) == ["m.dead", "m.C.idle"]


def test_no_unreferenced_package_code():
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    users = [path.read_text(encoding="utf-8") for path in USERS]
    # an entry that gains a caller leaves the allowlist
    assert sorted(unreferenced(package, users)) == sorted(UNREFERENCED_ALLOWED)
