"""Rules checked on the package source itself."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).parent.parent / "src" / "toricarcs"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants raise exceptions instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree):
    """Names a module imports and never reads, __all__ counting as a read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_package_modules_import_no_unused_name():
    # __init__ imports to re-export, so it is the one module left out
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_unused_import_rule_sees_a_name_that_is_never_read():
    tree = ast.parse("from fractions import Fraction\nimport math\nfrom .lattice import INF\nx = math.pi\n")
    assert _unused_imports(tree) == [(1, "Fraction"), (3, "INF")]


def _callers(tree, name):
    """(function, line) per call of name, as a bare name or as an attribute, sorted by line.

    The function is the innermost def around the call, or None outside any.
    """
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return sorted(found, key=lambda place: place[1])


def _calls(tree, name):
    """The lines where a module calls name, as a bare name or as an attribute."""
    return [line for _, line in _callers(tree, name)]


def _calls_in_package(name):
    return [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in _calls(ast.parse(path.read_text(encoding="utf-8"), str(path)), name)
    ]


def test_no_package_module_calls_pairing():
    # pairing checks both vectors at the public boundary; inside, _dot works on int tuples
    assert _calls_in_package("pairing") == []


def test_only_cones_calls_dual_generators():
    # a double description belongs to a cone, an intersection or a homogenized polyhedron
    assert [place for place in _calls_in_package("dual_generators") if place[0] != "cones.py"] == []


def test_only_the_level_cone_and_sing_walk_a_face_lattice_in_ideals():
    # ideals reads two face lattices: the level cone's, walked once per ideal, and the chart's in sing
    tree = ast.parse((SRC / "ideals.py").read_text(encoding="utf-8"))
    callers = {"_level_cone", "sing_components"}
    assert [place for place in _callers(tree, "_face_keys") if place[0] not in callers] == []


def test_caller_rule_names_the_innermost_function_around_each_call():
    source = (
        "from .cones import _face_keys\n"
        "_face_keys(w, 1)\n"
        "def outer(w):\n"
        "    def inner():\n"
        "        return cones._face_keys(w, 2)\n"
        "    return _face_keys(w, 3), inner\n"
        "class C:\n"
        "    def method(self, w):\n"
        "        return [_face_keys(x, 4) for x in w]\n"
        "def named(w):\n"
        "    return _face_keys\n"
    )
    assert _callers(ast.parse(source), "_face_keys") == [(None, 2), ("inner", 5), ("outer", 6), ("method", 9)]


def test_call_rule_sees_a_bare_and_an_attribute_call():
    source = (
        "from .lattice import pairing\n"
        "from . import lattice\n"
        "f = pairing\n"
        "pairing(v, u)\n"
        "lattice.pairing(v, u)\n"
        "g = lattice.pairing\n"
        "h = pairing_table(v)\n"
    )
    assert _calls(ast.parse(source), "pairing") == [4, 5]


def _unnamed_definitions(trees, readme):
    """Functions, methods and classes that nothing names but their own def.

    A name counts as used when it appears as a Name, an Attribute, an
    imported name or an __all__ string in any of the trees, or as a word of
    the README text.  Dunders are left out: the language calls them.
    """
    defined = {}
    named = set()
    for where, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, (where, node.lineno))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named |= {alias.name.split(".")[-1] for alias in node.names}
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                named |= {elt.value for elt in node.value.elts}
    named |= set(re.findall(r"\w+", readme))
    return [
        f"{where}:{line} {name}"
        for (where, line), name in sorted((place, name) for name, place in defined.items())
        if not (name.startswith("__") and name.endswith("__")) and name not in named
    ]


def test_package_defines_nothing_unnamed():
    # a def that nothing in src/ or README names is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SRC.glob("*.py"))}
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    assert _unnamed_definitions(trees, readme) == []


def test_unnamed_definition_rule_sees_a_dead_def():
    source = (
        "__all__ = ['exported']\n"
        "def exported(): return helper()\n"
        "def helper(): pass\n"
        "def imported(): pass\n"
        "def documented(): pass\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    def __repr__(self): return ''\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "Box().used()\n"
    )
    trees = {"m.py": ast.parse(source), "n.py": ast.parse("from .m import imported\n")}
    found = _unnamed_definitions(trees, "Call `documented()` first.")
    assert found == ["m.py:6 dead", "m.py:10 unused"]


# the caches perfbench reads with cache_info() and cache_clear(); entries may be
# removed from this set, and none added
HARNESS_CACHES = {"hilbert_basis_dual", "_stratum_quotient", "_face_quotient_cached"}


def _memoized(tree):
    """Functions a module wraps in functools.lru_cache or functools.cache.

    A decorated function counts by its name; any other use of either name,
    such as lru_cache(maxsize=None)(f), counts as "line <n>".
    """
    def is_cache(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name in ("lru_cache", "cache")

    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if is_cache(target):
                    found.append(node.name)
                    decorators.add(target)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and is_cache(node) and node not in decorators:
            found.append(f"line {node.lineno}")
    return found


def test_package_caches_only_what_the_benchmark_reads():
    found = [
        f"{path.name} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _memoized(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if name not in HARNESS_CACHES
    ]
    assert found == []


def test_cache_rule_sees_every_memoized_function():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(x): return x\n"
        "@functools.cache\n"
        "def b(x): return x\n"
        "def c(x): return x\n"
        "d = lru_cache(maxsize=8)(c)\n"
    )
    assert _memoized(ast.parse(source)) == ["a", "b", "line 8"]
