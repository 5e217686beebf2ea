"""Every public function, class and method in `src/smokecurate` is reached:
something in `src/` outside its own definition, or in `bench/`, names it.

The match is by name, as `ast` sees it: an identifier, an attribute, an
imported name or a string constant equal to the name (the bench wraps
functions by their names). Code only tests reach belongs in the tests.

The README's "Library layout" table has one row per module, so a module
added or deleted cannot leave it stale.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Library-only API (no command or stage calls them), as the README lists it
LIBRARY_ONLY = {"read_window", "read_original", "explain_pick"}
# click calls these on the parameter types and groups that define them
CLICK_PROTOCOL = {"convert", "invoke"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, _FUNCTIONS))


def _exempt(node) -> bool:
    name = node.name
    if name.startswith("_") or name in LIBRARY_ONLY or name in CLICK_PROTOCOL:
        return True  # `_private` and `__dunder__` names alike
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in {"command", "group"}
               for d in node.decorator_list)


def unreached(src: Path, bench: Path) -> list[str]:
    """`module.name` of each public definition under `src` that nothing in
    `src` outside that definition, and nothing in `bench`, names."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sorted(src.rglob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    for p in bench.rglob("*.py"):
        uses.update(_names(ast.parse(p.read_text(), str(p))))
    return [f"{p.stem}.{node.name}" for p, tree in trees.items()
            for node in _definitions(tree)
            if not _exempt(node)
            and uses[node.name] == Counter(_names(node))[node.name]]


def test_every_public_name_is_reached():
    assert unreached(ROOT / "src" / "smokecurate", ROOT / "bench") == []


def layout_rows(readme: str) -> list[str]:
    """The module named by each row of the README's "Library layout" table."""
    table = readme.split("## Library layout", 1)[1].split("\n\n")[1]
    return re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)


def test_readme_layout_has_one_row_per_module():
    modules = {p.stem for p in (ROOT / "src" / "smokecurate").rglob("*.py")}
    assert sorted(layout_rows((ROOT / "README.md").read_text())) == \
        sorted(modules - {"__init__"})
