"""Every public function, class and method in `src/smokecurate` is reached:
something in `src/` outside its own definition, or in `bench/`, names it.
And every defaulted parameter of one, and every defaulted field of a
dataclass, is set: some call in `src/` or `bench/` passes it, by keyword or
by position. And every field of a public dataclass is read: something in
`src/` or `bench/` names it as an attribute or a string constant.

The match is by name, as `ast` sees it: an identifier, an attribute, an
imported name or a string constant equal to the name (the bench wraps
functions by their names). A call to a class is a call to its `__init__`.
Code only tests reach, and settings only tests set, belong in the tests.

The README's "Library layout" table has one row per module, so a module
added or deleted cannot leave it stale, and every code name the README
cites resolves, so a name renamed or deleted cannot stay in its prose. Each
of the README's key invariants names a test that exists. And the packages
`src/` imports from outside the standard library are exactly the runtime
dependencies `pyproject.toml` declares.

Every function the bench's tracer wraps (`bench/tracing.py`'s
`WRAP_TARGETS`) resolves, so a `src/` change that drops one fails here,
not only in a traced benchmark run.
"""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Library-only API (no command or stage calls them), as the README lists it
LIBRARY_ONLY = {"read_original", "explain_pick", "sample_point"}
# click calls these on the parameter types and groups that define them
CLICK_PROTOCOL = {"convert", "invoke"}
# defaulted parameters that no call in `src/` or `bench/` sets, with the reason
UNSET_BY_DESIGN = {
    # `sample_point` is library-only (`sample_series` applies the point's
    # rule itself), so only library callers pass it a mode
    "sample_point(mode)",
}
# dataclass fields that nothing in `src/` or `bench/` reads, with the reason
UNREAD_BY_DESIGN = {
    # `explain_pick` returns them, and it is library-only: only tests read them
    "RankedCandidate.candidate",
    "RankedCandidate.selected",
    # `bench/workloads.py` passes `scan_cache` the `canonical` and `drift`
    # grids that only this label uses, so only a benchmark change can drop it
    "ScanRecord.geometry_class",
}

# `bench/tracing.py` wrap targets that name nothing in `src/`, with the reason
STALE_WRAP_TARGETS = {
    # gone from `src/`; a traced run counts them in `trace.missing_targets`
    # until a benchmark change drops them (ROADMAP item 1)
    "smokecurate.archive.parse_granule",
    "smokecurate.indexer.julian_to_calendar",
}

# standard-library names the README cites that are neither a module name
# nor named by the code in `src/`, `bench/` or `tests/`
README_STDLIB_NAMES: set[str] = set()

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node: ast.AST, bare: bool = True):
    """The attributes and string constants `node` names, and with `bare`
    its identifiers and imported names too."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value
        elif bare and isinstance(n, ast.Name):
            yield n.id
        elif bare and isinstance(n, ast.alias):
            yield n.name


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


def _defaulted(node) -> dict[str, int | None]:
    """Each defaulted parameter of a function definition, mapped to its
    position as a bound call counts it (the bound `self` or `cls` is
    position 0 of a method), or to None for a keyword-only one."""
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    params = {p.arg: i for i, p in enumerate(positional) if i >= first}
    params.update((p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None)
    return params


def _sets(call: ast.Call, param: str, position: int | None, bound: int) -> bool:
    """Whether `call` passes `param`; `bound` arguments precede its own."""
    if any(k.arg in (param, None) for k in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return (bound + len(call.args) > position
            or any(isinstance(x, ast.Starred) for x in call.args))


def _fields(node: ast.ClassDef) -> dict[str, int]:
    """Each field of a dataclass that has a default, mapped to its position
    in the generated `__init__` (no dataclass with a defaulted field has a
    dataclass base, so the class's own fields are all it takes)."""
    fields = [s for s in node.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return {f.target.id: i for i, f in enumerate(fields) if f.value is not None}


def _functions(tree: ast.Module):
    """(the name its callers call, defaulted parameters, bound arguments) of
    each module-level function and method, and each dataclass's generated
    `__init__`: a class's `__init__` is called by the class's name, and every
    method but a staticmethod has one bound argument."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield node.name, _defaulted(node), 0
        elif isinstance(node, ast.ClassDef):
            if any(_callee(d) == "dataclass" for d in node.decorator_list):
                yield node.name, _fields(node), 0
            for m in node.body:
                if isinstance(m, _FUNCTIONS):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in m.decorator_list)
                    yield (node.name if m.name == "__init__" else m.name,
                           _defaulted(m), int(not static))


def _callee(node: ast.expr) -> str | None:
    """The name a call, or a decorator with or without arguments, uses."""
    f = node.func if isinstance(node, ast.Call) else node
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def unset(src: Path, bench: Path) -> list[str]:
    """`name(param)` of each defaulted parameter of a public function or
    method, or defaulted field of a public dataclass, under `src` that no
    call in `src` or `bench` passes."""
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(src.rglob("*.py"))]
    calls: dict[str | None, list[ast.Call]] = {}
    for tree in trees + [ast.parse(p.read_text(), str(p))
                         for p in sorted(bench.rglob("*.py"))]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                calls.setdefault(_callee(n), []).append(n)
    return [f"{name}({param})" for tree in trees
            for name, defaulted, bound in _functions(tree) if not name.startswith("_")
            for param, position in defaulted.items()
            if not any(_sets(c, param, position, bound)
                       for c in calls.get(name, []))]


def test_every_defaulted_parameter_is_set():
    assert sorted(unset(ROOT / "src" / "smokecurate", ROOT / "bench")) == \
        sorted(UNSET_BY_DESIGN)


def _dataclass_fields(tree: ast.Module):
    """(class, field) of each field of each public dataclass in a module."""
    for node in tree.body:
        if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and any(_callee(d) == "dataclass" for d in node.decorator_list)):
            yield from ((node.name, s.target.id) for s in node.body
                        if isinstance(s, ast.AnnAssign)
                        and isinstance(s.target, ast.Name))


def unread(src: Path, bench: Path) -> list[str]:
    """`Class.field` of each field of a public dataclass under `src` that
    nothing in `src` or `bench` reads as an attribute or a string constant."""
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(src.rglob("*.py"))]
    names = {name for tree in trees + [ast.parse(p.read_text(), str(p))
                                       for p in sorted(bench.rglob("*.py"))]
             for name in _names(tree, bare=False)}
    return [f"{cls}.{field}" for tree in trees
            for cls, field in _dataclass_fields(tree) if field not in names]


def test_every_dataclass_field_is_read():
    assert sorted(unread(ROOT / "src" / "smokecurate", ROOT / "bench")) == \
        sorted(UNREAD_BY_DESIGN)


def test_readme_names_the_library_only_api():
    readme = (ROOT / "README.md").read_text()
    sentence = readme.split("Library-only API", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", sentence.split(".", 1)[0])) == LIBRARY_ONLY


def layout_rows(readme: str) -> list[str]:
    """The module named by each row of the README's "Library layout" table."""
    table = readme.split("## Library layout", 1)[1].split("\n\n")[1]
    return re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)


def test_readme_layout_has_one_row_per_module():
    modules = {p.stem for p in (ROOT / "src" / "smokecurate").rglob("*.py")}
    assert sorted(layout_rows((ROOT / "README.md").read_text())) == \
        sorted(modules - {"__init__"})


def _code_names(paths) -> set[str]:
    """Every name the code in `paths` defines or uses: its identifiers,
    attributes, imported names and string constants, and the names of its
    definitions, parameters and keyword arguments."""
    names = set()
    for p in paths:
        tree = ast.parse(p.read_text(), str(p))
        names.update(part for name in _names(tree) for part in name.split("."))
        for n in ast.walk(tree):
            if isinstance(n, (*_FUNCTIONS, ast.ClassDef)):
                names.add(n.name)
            elif isinstance(n, (ast.arg, ast.keyword)) and n.arg:
                names.add(n.arg)
    return names


def stale_readme_names(readme: str, root: Path) -> list[str]:
    """Each name in a backticked span of `readme` (fenced blocks aside) that
    has a `_` or is CamelCase, yet is no name the code under `src/`,
    `bench/` or `tests/` defines or uses, no module or repository file name
    and no entry of README_STDLIB_NAMES."""
    code = [p for d in ("src", "bench", "tests") for p in (root / d).rglob("*.py")]
    known = (_code_names(code) | {p.stem for p in code}
             | {p.stem for p in root.iterdir()}
             | set(sys.stdlib_module_names) | README_STDLIB_NAMES)
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.MULTILINE | re.DOTALL)
    cited = {word for span in re.findall(r"`([^`\n]+)`", prose)
             for word in re.findall(r"[A-Za-z_]\w*", span)
             if "_" in word or re.search(r"[a-z][A-Z]", word)}
    return sorted(cited - known)


def test_readme_code_names_resolve():
    assert stale_readme_names((ROOT / "README.md").read_text(), ROOT) == []


def third_party_imports(src: Path) -> set[str]:
    """The top-level package of each absolute import under `src` that is
    neither in the standard library nor `smokecurate` itself."""
    tops = set()
    for p in src.rglob("*.py"):
        for n in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(n, ast.Import):
                tops.update(a.name.split(".")[0] for a in n.names)
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                tops.add(n.module.split(".")[0])
    return tops - set(sys.stdlib_module_names) - {"smokecurate"}


def test_imports_are_the_declared_dependencies():
    """Each declared runtime dependency is imported, and nothing else from
    outside the standard library is, so a package installed on one machine
    cannot become an undeclared dependency (each one's import name is its
    distribution name)."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", d).group().lower().replace("-", "_")
                for d in project["dependencies"]}
    assert third_party_imports(ROOT / "src" / "smokecurate") == declared


def wrap_targets(tracing: Path) -> list[tuple[str, str]]:
    """The (owner, attribute) of each entry of `WRAP_TARGETS` in `tracing`,
    the owner a module or `module:Class`."""
    for node in ast.parse(tracing.read_text(), str(tracing)).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["WRAP_TARGETS"]):
            return [(e.elts[0].value, e.elts[1].value)
                    for e in node.value.elts]
    raise AssertionError(f"{tracing} assigns no WRAP_TARGETS")


def test_every_bench_wrap_target_resolves():
    missing = []
    for owner_path, attr in wrap_targets(ROOT / "bench" / "tracing.py"):
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if not hasattr(getattr(owner, cls) if cls else owner, attr):
            missing.append(f"{owner_path}.{attr}")
    assert sorted(missing) == sorted(STALE_WRAP_TARGETS)


def invariant_tests(readme: str) -> list[list[str]]:
    """The tests each bullet of the README's "Key invariants" list names."""
    section = readme.split("Key invariants", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"^- ", section, flags=re.MULTILINE)[1:]
    return [re.findall(r"`(test_\w+)`", bullet) for bullet in bullets]


def test_each_readme_invariant_names_a_test_that_exists():
    defined = {n.name for p in (ROOT / "tests").rglob("test_*.py")
               for n in ast.walk(ast.parse(p.read_text(), str(p)))
               if isinstance(n, _FUNCTIONS) and n.name.startswith("test_")}
    named = invariant_tests((ROOT / "README.md").read_text())
    assert named and all(named)
    assert sorted({t for ts in named for t in ts} - defined) == []
