import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "crfe").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=str,
)


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import and never read in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nimport math\nprint(math.pi)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["line 1: c"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes, per module name, that no
    source reads by name (as an ast.Name or an ast.Attribute)."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def test_checker_sees_an_unread_private_definition():
    assert unread_private_definitions({
        "a.py": "def _used(): pass\ndef _twin(): return _used()\nclass _Gone: pass\n",
        "b.py": "_Gone = 1\n",  # binding a name is no read of it
    }) == ["a.py: _twin", "a.py: _Gone"]
    assert unread_private_definitions({
        "a.py": "def _f(): pass\nclass _C: pass\ndef public(): pass\ndef __dir__(): pass\n",
        "b.py": "import a\nprint(a._f, a._C)\n",
    }) == []


def test_no_private_definition_is_read_only_by_tests():
    package = ROOT / "src" / "crfe"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert unread_private_definitions(sources) == []


def private_reads_of(module: str, sources: dict[str, str], allowed=()) -> list[str]:
    """Private names of ``module`` outside ``allowed`` that another source
    reads: imported from the module, or read as an attribute of its name."""
    found = []
    for name, source in sources.items():
        if name == f"{module}.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == module):
                names = [node.attr]
            else:
                continue
            found += [f"{name}: {n}" for n in names
                      if n.startswith("_") and not n.startswith("__") and n not in allowed]
    return found


def test_checker_sees_a_private_read_of_another_module():
    assert private_reads_of("a", {
        "a.py": "def _f(): pass\n_f()\n",
        "b.py": "from .a import _f, g, _h\nfrom .c import _f\n",
        "c.py": "from . import a\na._k()\nprint(a.public, a.__name__, x._f)\n",
        "d.py": "from crfe.a import _f, _ok\n",
    }, allowed=("_ok",)) == ["b.py: _f", "b.py: _h", "c.py: _k", "d.py: _f"]


# per package module, the private names other package modules read, and
# which modules read them: the entries each module opens to the others,
# so how sets are grouped into solves, how eliminations share their models
# and how a split is scored stay inside their own modules
PRIVATE_READS = {
    "classifier": {"_cv_accuracies": {"harness"}, "_train_sets": {"selection"}},
    "conformal": {"_calibrations": {"metrics"}, "_nonconformity": {"metrics"}},
    "data": {"_labels_below": {"classifier", "conformal", "metrics", "selection"},
             "_write_json": {"cli", "harness"}},
    "metrics": {"_evaluate": {"harness"}},
    "selection": {"_lockstep": {"harness"}},
}


def test_private_reads_across_package_modules_are_the_table():
    package = ROOT / "src" / "crfe"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    table: dict = {}
    for module in (p.stem for p in package.glob("*.py")):
        for entry in private_reads_of(module, sources):
            reader, name = entry.split(".py: ")
            table.setdefault(module, {}).setdefault(name, set()).add(reader)
    assert table == PRIVATE_READS


def test_only_the_training_entry_of_classifier_is_read_elsewhere():
    # how training sets are grouped into solves, and the row-order streams
    # they read, stay inside classifier.py; its two training entries are
    # _train_sets and _cv_accuracies, the baseline's chained CV folds
    package = ROOT / "src" / "crfe"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert private_reads_of("classifier", sources,
                            allowed=("_train_sets", "_cv_accuracies")) == []


def test_only_the_lockstep_entry_of_selection_is_read_elsewhere():
    # how eliminations share their models stays inside selection.py
    package = ROOT / "src" / "crfe"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert private_reads_of("selection", sources, allowed=("_lockstep",)) == []


def callers_of(fn: str, sources: dict[str, str]) -> list[str]:
    """The sources that call ``fn``, by its bare name or as an attribute."""
    return [name for name, source in sources.items()
            if any(isinstance(node, ast.Call)
                   and fn in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                   for node in ast.walk(ast.parse(source)))]


def test_only_classifier_calls_train_ova():
    # the drivers train through _train_sets alone; train_ova is its
    # one-job form for callers outside the package
    assert callers_of("f", {
        "a.py": "f(1)\n", "b.py": "import m\nm.f()\n", "c.py": "from m import f\ng(f)\n",
    }) == ["a.py", "b.py"]
    package = ROOT / "src" / "crfe"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))
               if p.name != "classifier.py"}
    assert callers_of("train_ova", sources) == []
