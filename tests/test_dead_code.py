"""No dead code in the package: every function, class and method defined in
`src/askgraph` is referenced somewhere in `src/askgraph`, as a name, as an
attribute or as an import of the package's `__init__`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "askgraph"
# referenced only by the tests: the record builder they build corpora with
ALLOWED = {"Corpus.from_records"}


def definitions(tree: ast.AST, scope: str = "") -> dict[str, str]:
    """Each function, class and method under `tree`, by qualified name
    (`Class.method`), mapped to its plain name."""
    found = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[scope + node.name] = node.name
            found.update(definitions(node, f"{scope}{node.name}."))
        else:
            found.update(definitions(node, scope))
    return found


def references(tree: ast.AST, module: str) -> set[str]:
    """The names `tree` reads: every name and attribute, and the names the
    package's `__init__` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and module == "__init__":
            names.update(alias.name for alias in node.names)
    return names


def dead_code(src: Path = SRC) -> list[str]:
    """The qualified names, `module.Class.method`, that nothing references."""
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined.update({f"{path.stem}.{k}": v for k, v in definitions(tree).items()})
        used |= references(tree, path.stem)
    return sorted(
        qualified for qualified, name in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
        and qualified.partition(".")[2] not in ALLOWED
    )


def test_every_definition_is_referenced():
    assert dead_code() == []


def test_the_check_finds_an_unreferenced_definition(tmp_path):
    """The check reads the sources it is pointed at: a copy of the package
    with one more class and method, which nothing calls, fails it."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "corpus.py", "a", encoding="utf-8") as fh:
        fh.write("\n\nclass Orphan:\n    def helper(self):\n        return 1\n")
    assert dead_code(tmp_path) == ["corpus.Orphan", "corpus.Orphan.helper"]
