"""Every module of the package references each name it imports, a solve loads only its own,
and README's Layout names every module."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equindex"
# __init__.py imports names only to export them
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# the modules a solve loads, and the ones the package loads only on first use
SOLVE_MODULES = ("series", "charclasses", "localization", "index", "cli")
FIRST_USE = {"algebra", "oracles"}
README = PACKAGE.parent.parent / "README.md"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never references, ``__future__`` aside.

    A reference is any use of the bare name, annotations included; ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd()\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def eager_imports(source: str, modules: set[str]) -> list[str]:
    """The imports of ``modules`` that ``source`` makes outside a function body.

    Such an import runs when the module loads.  An import names every dotted part of its
    path, so ``from . import algebra``, ``from .algebra import X`` and ``import
    equindex.algebra`` all name ``algebra``.
    """
    found = set()
    nodes = [ast.parse(source)]
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            nodes.extend(ast.iter_child_nodes(node))
            continue
        found.update(f"{name} (line {node.lineno})"
                     for path in paths for name in modules & set(path.split(".")))
    return sorted(found)


def test_the_check_finds_an_eager_import():
    source = ("from . import algebra\nfrom .series import QSeries\nif TYPE_CHECKING:\n"
              "    from .oracles import euler_class\nclass A:\n    import equindex.algebra\n"
              "    def f(self):\n        from .algebra import CohClass\n"
              "async def g():\n    from .oracles import naive_inverse\n")
    assert eager_imports(source, FIRST_USE) == [
        "algebra (line 1)", "algebra (line 6)", "oracles (line 4)"]


@pytest.mark.parametrize("name", SOLVE_MODULES)
def test_no_solve_module_loads_the_algebra_or_the_oracles(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert eager_imports(source, FIRST_USE) == []


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The ``_name`` functions, classes and methods ``sources`` define and never read.

    A read is a bare name or an attribute in Load context, in any of the sources; dunder
    methods are read by the interpreter, so they are left out.
    """
    defined, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_the_check_finds_an_unread_private_definition():
    box = "class _Box:\n    def _peek(self): pass\n    def __len__(self): return 0\n"
    sources = [box + "def _orphan(): pass\ndef _used(): pass\n_Box()._peek = None\n",
               "from a import _used\n_used()\n"]
    assert unread_private_definitions(sources) == ["_orphan", "_peek"]


def test_every_private_definition_is_read():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_definitions(sources) == []


def layout_modules(readme: str) -> list[str]:
    """The ``.py`` names that open an entry of the fenced block under README's ``## Layout``.

    An entry is indented by two spaces; its continuation lines are indented further.
    """
    block = readme.split("\n## Layout\n", 1)[1].split("```")[1]
    return sorted(re.findall(r"^  (\w+\.py) ", block, re.MULTILINE))


def test_the_check_reads_the_layout_entries():
    readme = ("# p\n\n```\n  z.py  before\n```\n\n## Layout\n\n```\nsrc/p/\n  b.py   one,\n"
              "         c.py in its text\n  a.py   two\n```\n\n```\n  d.py  after\n```\n")
    assert layout_modules(readme) == ["a.py", "b.py"]


# the mutation runner copies only src, tests and pyproject.toml, so this test skips in its copy
@pytest.mark.skipif(not README.exists(), reason="no README.md beside the tests")
def test_the_readme_layout_names_every_module():
    assert layout_modules(README.read_text(encoding="utf-8")) == [path.name for path in MODULES]
