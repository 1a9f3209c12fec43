"""Every name imported into a lindreach module is used there, and every
public top-level function or class, and every public method or property of
a class, is reached.

The package __init__ is left out of the import check: its imports are the
public API.
"""

import ast
from pathlib import Path

import pytest

import lindreach

INIT = Path(lindreach.__file__)
MODULES = sorted(p for p in INIT.parent.glob("*.py") if p.name != "__init__.py")

# public names that neither __init__ exports nor any module uses, and why
# each stays
KEPT = {
    "superop_from_action": "the loop reference closed forms are tested "
                           "against; a layer bench/tracer.py measures",
    "mixture_vs_semigroup_error": "acceptance criterion 10",
    "gamma_span_criterion": "acceptance criterion 13",
    "lowering_jump": "acceptance criteria 06 and 07",
    "unital_fixed_point_check": "the unitality test the unital no-go "
                                "(ROADMAP item 3) builds on",
    "bilinear_dissipator": "the only non-Hermitian Kossakowski input to _gksl",
    "path_sample_to_json": "the CLI tests write path files with it",
    "haar_unitary": "acceptance criterion 11 and the sampled orbit-span "
                    "reference in tests/test_hormander.py",
}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    assert _unused_imports("import os\nimport numpy as np\nnp.eye(2)\n") == [
        "os (line 1)"]


def _unreached(init: str, sources: list[str]) -> list[str]:
    """Public top-level functions and classes, and public methods and
    properties of those classes (as Class.name), defined in sources whose
    name init does not import and no source uses as a name or an
    attribute."""
    exported = {alias.asname or alias.name for node in ast.walk(ast.parse(init))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = [ast.parse(source) for source in sources]
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    defined = {}
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            defined.update((f"{node.name}.{m.name}", m.name) for m in node.body
                           if isinstance(m, ast.FunctionDef))
    return sorted(qualified for qualified, name in defined.items()
                  if not name.startswith("_") and name not in exported | used)


def test_every_public_name_is_reached():
    sources = [p.read_text() for p in MODULES]
    assert _unreached(INIT.read_text(), sources) == sorted(KEPT)


def test_unreached_function_is_reported():
    sources = [p.read_text() for p in MODULES]
    orphan = "def orphan(rho):\n    return rho\n"
    assert _unreached(INIT.read_text(), sources + [orphan]) == sorted(
        [*KEPT, "orphan"])
    assert _unreached("from .m import f\n",
                      ["def f():\n    return g, ser.h, C().m\n",
                       "def g(): pass\ndef h(): pass\ndef k(): pass\n"
                       "def _p(): pass\n",
                       "class C:\n    def m(self): pass\n"
                       "    @property\n    def n(self): pass\n"
                       "    def _q(self): pass\n"]) == ["C.n", "k"]
