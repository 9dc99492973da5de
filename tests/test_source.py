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


def test_no_package_module_calls_rank_of():
    # a cone holds its rank as Cone.dim, so no module eliminates to learn it; rank_of stays public
    assert _calls_in_package("rank_of") == []


def test_no_package_module_calls_push_dual():
    # push_dual checks its character at the public boundary; inside, QuotientLattice._push
    # takes the int tuple of a character known to vanish on the subspace
    assert _calls_in_package("push_dual") == []


def test_only_cones_calls_dual_generators():
    # a double description belongs to a cone, an intersection or a homogenized polyhedron
    assert [place for place in _calls_in_package("dual_generators") if place[0] != "cones.py"] == []


def test_only_cones_calls_face_at():
    # whether rays are all the rays of a face is decided once, by Cone._is_face
    assert [place for place in _calls_in_package("_face_at") if place[0] != "cones.py"] == []


def test_only_the_level_cone_and_sing_walk_a_face_lattice_in_ideals():
    # ideals reads two face lattices: the level cone's, walked once per ideal, and the chart's in sing
    tree = ast.parse((SRC / "ideals.py").read_text(encoding="utf-8"))
    callers = {"_level_cone", "sing_components"}
    assert [place for place in _callers(tree, "_face_keys") if place[0] not in callers] == []


def test_incidence_readers_make_no_zero_test_of_their_own():
    # dual_generators returns the rays on each wall, and a Cone keeps its dual rays' walls:
    # these functions read that incidence and never recompute it with _dot.  In cones.py
    # __init__ names Cone's, FaceRef's and Fan's constructors alike, and faces is Cone.faces.
    readers = {
        "cones.py": {"__init__", "faces", "face_from_indices", "_hilbert_of_pointed", "hilbert_basis_dual"},
        "ideals.py": {"_level_cone", "sing_components"},
    }
    found = []
    for module, names in readers.items():
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        assert names <= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        found += [(module, *place) for place in _callers(tree, "_dot") if place[0] in names]
    assert found == []


def test_arcs_derives_a_stratum_in_one_builder():
    # the stratum record is the one place arcs takes a stratum's quotient; every orbit
    # reader (labels, quotient, classify_hom, dominates, orbit_poset) reads the record
    tree = ast.parse((SRC / "arcs.py").read_text(encoding="utf-8"))
    assert [owner for owner, _ in _callers(tree, "_stratum_quotient")] == ["_build_stratum"]


def test_only_solve_and_polar_vertices_build_fractions():
    # series keep the int coefficients they are given; the rational steps are the
    # back-substitution of solve_linear and the vertices p x / s of polar_polytope
    found = [
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner, _ in _callers(ast.parse(path.read_text(encoding="utf-8"), str(path)), "Fraction")
    ]
    assert ("lattice.py", "solve_linear") in found
    assert set(found) <= {("lattice.py", "solve_linear"), ("ideals.py", "polar_polytope")}


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


def _bare_wrappers(tree):
    """Module-level functions whose body is one return of a method call on the first parameter.

    The call must pass the function's other parameters through unchanged, as
    bare names in their order; a docstring before the return is allowed.
    """
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        params = [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
        if len(body) != 1 or not isinstance(body[0], ast.Return) or not params:
            continue
        call = body[0].value
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
            continue
        if getattr(call.func.value, "id", None) != params[0]:
            continue
        passed = list(call.args) + [k.value for k in call.keywords]
        if all(isinstance(a, ast.Name) for a in passed) and [a.id for a in passed] == params[1:]:
            found.append(f"{node.name}:{node.lineno}")
    return found


def test_package_defines_no_bare_wrapper():
    # a function that only calls its first argument's method is a second name for that method
    found = [
        f"{path.name} {place}"
        for path in sorted(SRC.glob("*.py"))
        for place in _bare_wrappers(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_wrapper_rule_sees_a_bare_wrapper():
    source = (
        "def faces(c):\n"
        "    return c.faces()\n"
        "def contains(c, v):\n"
        "    \"Whether v is in c.\"\n"
        "    return c.contains(v)\n"
        "def swapped(c, v, w):\n"
        "    return c.between(w, v)\n"
        "def scaled(c, v):\n"
        "    return c.contains(2 * v)\n"
        "def of_other(c, v):\n"
        "    return v.contains(c)\n"
        "def checked(c, v):\n"
        "    check(v)\n"
        "    return c.contains(v)\n"
        "def plain(c):\n"
        "    return faces(c)\n"
        "class Cone:\n"
        "    def hull(self):\n"
        "        return self.faces()\n"
    )
    assert _bare_wrappers(ast.parse(source)) == ["faces:1", "contains:3"]


IDENTITY_METHODS = ("__eq__", "__hash__", "__reduce__")


def _identity_overrides(trees):
    """"<module> <class>.<method>" per identity method a subclass of _Record defines or assigns.

    A class is a record when one of its bases, by name, is _Record or a
    record, in any of the trees.
    """
    classes = [(where, node) for where, tree in trees.items() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    records, grown = {"_Record"}, True
    while grown:
        grown = False
        for _, node in classes:
            bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
            if node.name not in records and bases & records:
                records.add(node.name)
                grown = True
    found = []
    for where, node in classes:
        if node.name == "_Record" or node.name not in records:
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [getattr(target, "id", None) for target in item.targets]
            else:
                continue
            found += [f"{where} {node.name}.{name}" for name in names if name in IDENTITY_METHODS]
    return sorted(found)


def test_records_take_their_identity_from_the_base():
    # _Record compares, hashes and pickles every record by its fields; TruncatedSeries
    # hashes its own, as its terms field is a dict
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert _identity_overrides(trees) == ["series.py TruncatedSeries.__hash__"]


def test_identity_rule_sees_a_planted_override():
    source = (
        "class _Record:\n"
        "    def __eq__(self, other): return True\n"
        "class Vector(_Record):\n"
        "    def __eq__(self, other): return True\n"
        "    def norm(self): pass\n"
        "class Twin(Vector):\n"
        "    __reduce__ = object.__reduce__\n"
        "class Plain:\n"
        "    def __hash__(self): return 0\n"
    )
    trees = {"m.py": ast.parse(source), "n.py": ast.parse("class Series(lattice._Record):\n    def __hash__(self): return 0\n")}
    assert _identity_overrides(trees) == ["m.py Twin.__reduce__", "m.py Vector.__eq__", "n.py Series.__hash__"]


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
