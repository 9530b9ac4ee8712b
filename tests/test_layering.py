"""The package-internal import graph: the normal-form stack
words -> classify -> folner never imports the two test oracles, the
diagram model and the literal rewriting."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thompsonf"


def internal_imports(path):
    """Names of the package modules that the module at `path` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "thompsonf":
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            if parts:
                found.add(parts[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "thompsonf" and len(parts) > 1:
                    found.add(parts[1])
    return found


def import_graph():
    return {p.stem: internal_imports(p) for p in sorted(PACKAGE.glob("*.py"))}


def test_every_module_has_its_place():
    # a new module joins the verb path or the oracles by an edit here
    assert set(import_graph()) == {
        "__init__", "__main__", "cli", "classify", "deletion_report", "diagrams",
        "folner", "rewriting", "words",
    }


def test_normal_form_stack_stands_on_words():
    graph = import_graph()
    assert graph["words"] == set()
    assert graph["diagrams"] == {"words"}
    assert graph["rewriting"] == {"words"}
    assert graph["classify"] == {"words"}
    assert graph["folner"] == {"classify", "deletion_report", "words"}
    assert graph["deletion_report"] == set()


def test_only_the_front_ends_import_diagrams():
    graph = import_graph()
    importers = {name for name, imports in graph.items() if "diagrams" in imports}
    assert importers == {"cli"}


def stdlib_imports(name):
    """The top-level modules that the package module `name` imports by
    absolute name, besides `__future__`."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - {"__future__"}


def test_diagrams_imports_three_small_stdlib_modules():
    # the oracle and lemma-del benchmark workers import diagrams during their
    # timed set-up, so a heavier stdlib import would show in it
    assert stdlib_imports("diagrams") == {"functools", "itertools", "operator"}


def test_words_imports_five_small_stdlib_modules():
    # every CLI child and benchmark worker imports words at start-up
    assert stdlib_imports("words") == {"re", "bisect", "itertools", "operator", "typing"}


def test_no_module_imports_rewriting():
    graph = import_graph()
    assert not [name for name, imports in graph.items() if "rewriting" in imports]


def test_folner_reads_one_private_classify_name():
    # the check passes only decide; a failing check's lines come from the
    # public oracles in classify
    tree = ast.parse((PACKAGE / "folner.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "classify"}
    read |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "classify"
             for alias in node.names}
    assert {"check_closures", "check_partition", "class_values"} <= read
    assert {name for name in read if name.startswith("_")} == {"_CLOSURE_RULES"}


def test_only_the_deletion_report_imports_dataclasses():
    # the other value types are slotted words._Value classes
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.add(path.stem)
    assert importers == {"deletion_report"}


def test_only_words_sets_fields_through_object_setattr():
    # _Value.__init__ is the one constructor of the read-only value types
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                callers.add(path.stem)
    assert callers == {"words"}


def test_only_value_defines_equality_and_hash():
    # the value types compare and hash by their fields, in words._Value alone
    bases, defined = {}, {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
                names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                names.update(target.id for item in node.body if isinstance(item, ast.Assign)
                             for target in item.targets if isinstance(target, ast.Name))
                defined[node.name] = names & {"__eq__", "__hash__"}
    values = {"_Value"}
    while grown := {name for name, b in bases.items() if b & values} - values:
        values |= grown
    assert values == {"_Value", "Word", "DivisorSet", "SubgraphStats", "Diagram",
                      "CanonicalDiagram"}
    assert {name: defined[name] for name in values if defined[name]} == {
        "_Value": {"__eq__", "__hash__"}
    }


def test_graph_reader_sees_every_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from . import a, b\nfrom .c import x\nfrom .d.e import y\n"
        "import thompsonf.f\nfrom thompsonf.g import z\nimport os\nfrom os import path\n"
        "def f():\n    from . import h\n"
    )
    assert internal_imports(module) == {"a", "b", "c", "d", "f", "g", "h"}
