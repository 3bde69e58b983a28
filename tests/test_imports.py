"""Static checks on the imports of the package.

No linter is a dependency of the project, so these walk the syntax tree of
each module in ``src/folsing`` with the standard library's ``ast``:

- a name bound by a module-level ``import`` must be read somewhere in the
  module (annotations written as strings included) or be listed in
  ``__all__``;
- no module imports numpy when it is itself imported.  The exact core never
  computes with floats, and a cold command should not pay for numpy; the
  functions that do compute with it import it in their bodies;
- only ``fatou._census_kernel`` and ``fatou.orbit_census``, which vectorize
  the census across grid points, and ``towers._chosen_root``, which finds
  the roots of a minimal polynomial, import numpy at all (an
  ``if TYPE_CHECKING:`` block aside), so the numpy boundary cannot creep
  back into the scalar code;
- every function, method or class of the package, undecorated or a class
  or static method, is referenced by name somewhere in ``src``, ``tests``
  or ``perfbench``, so dead definitions do not pile up.  Other decorated
  ones (click commands, properties) are reached through their decorators;
  dunders through Python itself;
- no module probes a scalar for ``is_zero``, ``inverse``,
  ``as_gaussian_or_none`` or ``sort_key`` with ``getattr`` or
  ``hasattr``.  Every exact scalar of the core has the methods it needs,
  and ints and Fractions are converted where they enter the library, so
  the methods are called directly;
- the builtins ``exec``, ``eval`` and ``compile`` are called only inside
  ``fatou._orbit_kernel``, which compiles the orbit loops from an int and
  a bool, so generated code stays in one place;
- no module but ``scalars`` touches the attributes ``_a``, ``_b`` and
  ``_d`` of a GaussianRational.  Others read the triple through
  ``scalars.gaussian_triple`` and build one with ``scalars._triple`` or,
  from a triple in lowest terms, ``scalars._lowest``;
- ``scalars.gaussian_triple`` is named only in ``poly._Triples``, the
  coefficient kernel that ``poly.compose`` and the ``normalforms`` solvers
  compute with, and in ``local._residues``, which maps Q(i) to a prime
  field.  So the integer format of Q(i) has one home for series arithmetic;
- arithmetic is chosen by testing ``type(c) is GaussianRational`` over
  many coefficients only in ``poly._kernel``, so one function decides how
  exact coefficients are represented in hot loops;
- ``normalforms._OnlineComposition`` is constructed only inside
  ``normalforms.solve_conjugacy``, so every series solver (the center
  manifold and the saddle-node preparation included) is a pattern of the
  one conjugacy engine, whose answers ``conjugacy_residual`` certifies;
- no module calls ``json.dump`` or ``json.dumps``: ``jsonio.dumps`` is the
  package's one JSON emitter, so every document has the same layout.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "folsing"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module):
    """Module-level import bindings as {name: line}."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotation_nodes(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotation_nodes(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _used_names(ast.parse(n.value, mode="eval"))
    return used


def _exported(tree: ast.Module):
    """The names of a literal ``__all__``; one computed at run time, as the
    package's is, exempts no import."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported(tree)
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in _imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nimport sys\nfrom typing import List, Dict\n"
                    "__all__ = ['Dict']\n\n"
                    "def f(x: 'List[int]'):\n    return sys.argv\n")
    assert unused_imports(path) == ["m.py:1 os"]


def _import_time_nodes(body):
    """Statements run when the module is imported: function bodies and
    ``if TYPE_CHECKING:`` blocks excluded, class bodies included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            yield from _import_time_nodes(node.orelse)
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_nodes(getattr(node, field, []))


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == "numpy" for name in names)


def import_time_numpy(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}"
            for node in _import_time_nodes(tree.body) if _imports_numpy(node)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_at_import_time(path):
    assert import_time_numpy(path) == []


def test_checker_flags_import_time_numpy(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n    import numpy as np\n"
                    "try:\n    from numpy import roots\n"
                    "except ImportError:\n    roots = None\n"
                    "class C:\n    import numpy.linalg\n"
                    "def f():\n    import numpy as np\n    return np\n")
    assert import_time_numpy(path) == ["m.py:5", "m.py:9"]


# (module file, enclosing function) allowed to import numpy
NUMPY_HOMES = {("fatou.py", "_census_kernel"), ("fatou.py", "orbit_census"),
               ("towers.py", "_chosen_root")}


def numpy_imports_outside_homes(path: Path):
    """Imports of numpy outside ``NUMPY_HOMES``, ``if TYPE_CHECKING:``
    blocks excluded."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _imports_numpy(node) and (path.name, function) not in NUMPY_HOMES:
            out.append(f"{path.name}:{node.lineno}")
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            children = node.orelse
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, function)

    visit(tree, None)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_only_in_its_homes(path):
    assert numpy_imports_outside_homes(path) == []


def test_checker_flags_numpy_outside_its_homes(tmp_path):
    source = ("from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "import numpy.linalg\n"
              "def orbit_census():\n    import numpy as np\n    return np\n"
              "def helper():\n    from numpy import roots\n    return roots\n"
              "def _census_kernel():\n"
              "    def inner():\n        import numpy\n    return inner\n")
    elsewhere = tmp_path / "m.py"
    elsewhere.write_text(source)
    assert numpy_imports_outside_homes(elsewhere) == [
        "m.py:4", "m.py:6", "m.py:9", "m.py:13"]
    home = tmp_path / "fatou.py"
    home.write_text(source)
    assert numpy_imports_outside_homes(home) == [
        "fatou.py:4", "fatou.py:9", "fatou.py:13"]


def _definitions(tree: ast.Module):
    """Non-dunder functions, methods and classes, undecorated or decorated
    only as class or static methods, as {name: line}."""
    out = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and all(isinstance(d, ast.Name)
                        and d.id in ("classmethod", "staticmethod")
                        for d in node.decorator_list)
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            out.setdefault(node.name, node.lineno)
    return out


def _references(tree: ast.Module):
    """Names a module reads, imports, reaches as attributes or spells as an
    identifier string (``getattr(obj, "name")``, tables of names to patch)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier()):
            out.add(node.value)
    return out


def unreferenced_definitions(defining, referencing):
    used = set()
    for path in referencing:
        used |= _references(ast.parse(path.read_text(), filename=str(path)))
    out = []
    for path in defining:
        tree = ast.parse(path.read_text(), filename=str(path))
        out.extend(f"{path.name}:{line} {name}" for name, line in
                   sorted(_definitions(tree).items(), key=lambda item: item[1])
                   if name not in used)
    return out


def test_no_unreferenced_definitions():
    referencing = [p for d in ("src", "tests", "perfbench")
                   for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_definitions(MODULES, referencing) == []


def test_checker_flags_an_unreferenced_definition(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import functools\n"
                    "class Dead:\n    def live(self):\n        return 1\n"
                    "    def __eq__(self, other):\n        return True\n"
                    "    @property\n    def prop(self):\n        return 2\n"
                    "def helper():\n    return Live().live()\n"
                    "def by_string():\n    return 3\n"
                    "class Live:\n    pass\n"
                    "    @classmethod\n    def make(cls):\n        return cls()\n"
                    "getattr(Live, 'by_string')\n")
    assert unreferenced_definitions([path], [path]) == [
        "m.py:2 Dead", "m.py:10 helper", "m.py:17 make"]


SCALAR_METHODS = {"is_zero", "inverse", "as_gaussian_or_none", "sort_key"}


def duck_typed_scalar_probes(path: Path):
    """``getattr`` or ``hasattr`` calls that name a scalar method."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} {node.args[1].value}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in SCALAR_METHODS]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_duck_typed_scalar_methods(path):
    assert duck_typed_scalar_probes(path) == []


def test_checker_flags_a_duck_typed_scalar_method(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(c):\n"
                    "    z = getattr(c, 'is_zero', None)\n"
                    "    if hasattr(c, 'inverse'):\n        return c\n"
                    "    t = getattr(c, 'tower', None)\n"
                    "    j = getattr(c, 'to_json', None)\n"
                    "    k = c.sort_key() if hasattr(c, 'sort_key') else 0\n"
                    "    return getattr(c, \"as_gaussian_or_none\")()\n")
    assert duck_typed_scalar_probes(path) == [
        "m.py:2 is_zero", "m.py:3 inverse", "m.py:7 sort_key",
        "m.py:8 as_gaussian_or_none"]


CODE_BUILTINS = {"exec", "eval", "compile"}
# (module file, enclosing function) allowed to generate code
GENERATED_CODE_HOME = ("fatou.py", "_orbit_kernel")


def generated_code_calls(path: Path):
    """Calls of ``exec``, ``eval`` or ``compile`` (bare or as an attribute of
    ``builtins``) outside ``GENERATED_CODE_HOME``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "builtins"):
                name = func.attr
            if (name in CODE_BUILTINS
                    and (path.name, function) != GENERATED_CODE_HOME):
                out.append(f"{path.name}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_generated_code_only_in_the_orbit_kernel(path):
    assert generated_code_calls(path) == []


def test_checker_flags_generated_code_elsewhere(tmp_path):
    source = ("import builtins\nimport re\n"
              "exec('x = 1')\n"
              "def _orbit_kernel():\n    return eval('1')\n"
              "def g():\n    pattern = re.compile('a')\n"
              "    return builtins.compile('1', 'f', 'eval')\n")
    elsewhere = tmp_path / "m.py"
    elsewhere.write_text(source)
    assert generated_code_calls(elsewhere) == [
        "m.py:3 exec", "m.py:5 eval", "m.py:8 compile"]
    home = tmp_path / "fatou.py"
    home.write_text(source)
    assert generated_code_calls(home) == ["fatou.py:3 exec",
                                          "fatou.py:8 compile"]


TRIPLE_ATTRIBUTES = {"_a", "_b", "_d"}
TRIPLE_HOME = "scalars.py"


def private_triple_reads(path: Path):
    """Attribute accesses ``obj._a``, ``obj._b`` or ``obj._d`` outside
    ``TRIPLE_HOME``."""
    if path.name == TRIPLE_HOME:
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted((node.lineno, node.col_offset, node.attr)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in TRIPLE_ATTRIBUTES)
    return [f"{path.name}:{line} {attr}" for line, _, attr in found]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_triple_read_only_in_scalars(path):
    assert private_triple_reads(path) == []


def test_checker_flags_a_private_triple_read(tmp_path):
    source = ("from scalars import gaussian_triple\n"
              "def f(z, w):\n"
              "    a, b, d = gaussian_triple(z)\n"
              "    w._d = d\n"
              "    return z._a + z._b + z._re + getattr(z, 'a')\n")
    elsewhere = tmp_path / "m.py"
    elsewhere.write_text(source)
    assert private_triple_reads(elsewhere) == [
        "m.py:4 _d", "m.py:5 _a", "m.py:5 _b"]
    home = tmp_path / "scalars.py"
    home.write_text(source)
    assert private_triple_reads(home) == []


def _named_outside(path: Path, homes, matches):
    """"file:line name" for every node for which ``matches`` returns a name,
    unless a function or class that encloses it is one of the (module file,
    name) pairs of ``homes``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []

    def visit(node, home):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and (path.name, node.name) in homes):
            home = True
        name = matches(node)
        if name and not home:
            out.append((node.lineno, node.col_offset, name))
        for child in ast.iter_child_nodes(node):
            visit(child, home)

    visit(tree, False)
    return [f"{path.name}:{line} {name}" for line, _, name in sorted(out)]


# (module file, enclosing function or class) allowed to read triples
TRIPLE_READERS = {("poly.py", "_Triples"), ("local.py", "_residues")}


def _gaussian_triple_name(node):
    if isinstance(node, ast.Name) and node.id == "gaussian_triple":
        return node.id
    if isinstance(node, ast.Attribute) and node.attr == "gaussian_triple":
        return node.attr
    return None


def gaussian_triple_uses(path: Path):
    """Reads of ``gaussian_triple`` outside ``TRIPLE_READERS``; imports
    bind the name without reading it."""
    return _named_outside(path, TRIPLE_READERS, _gaussian_triple_name)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_gaussian_triple_only_in_its_readers(path):
    assert gaussian_triple_uses(path) == []


def test_checker_flags_a_gaussian_triple_elsewhere(tmp_path):
    source = ("from scalars import gaussian_triple\n"
              "import scalars\n"
              "class _Triples:\n"
              "    lift = staticmethod(gaussian_triple)\n"
              "    def divide(t, s):\n        return gaussian_triple(s)\n"
              "def _residues(c):\n    return scalars.gaussian_triple(c)\n"
              "def helper(c):\n    return gaussian_triple(c)\n")
    elsewhere = tmp_path / "m.py"
    elsewhere.write_text(source)
    assert gaussian_triple_uses(elsewhere) == [
        "m.py:4 gaussian_triple", "m.py:6 gaussian_triple",
        "m.py:8 gaussian_triple", "m.py:10 gaussian_triple"]
    poly = tmp_path / "poly.py"
    poly.write_text(source)
    assert gaussian_triple_uses(poly) == [
        "poly.py:8 gaussian_triple", "poly.py:10 gaussian_triple"]
    local = tmp_path / "local.py"
    local.write_text(source)
    assert gaussian_triple_uses(local) == [
        "local.py:4 gaussian_triple", "local.py:6 gaussian_triple",
        "local.py:10 gaussian_triple"]


KERNEL_CHOICE_HOME = ("poly.py", "_kernel")


COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)


def _tests_gaussian_type(node) -> bool:
    """``type(x) is GaussianRational`` or ``is not``, either way round."""
    if not (isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)):
        return False
    sides = [node.left, *node.comparators]
    return (any(isinstance(x, ast.Call) and isinstance(x.func, ast.Name)
                and x.func.id == "type" for x in sides)
            and any(isinstance(x, ast.Name) and x.id == "GaussianRational"
                    for x in sides))


def _type_test_over_many(node):
    if isinstance(node, COMPREHENSIONS) and any(
            map(_tests_gaussian_type, ast.walk(node))):
        return "type-is-GaussianRational"
    return None


def kernel_choices(path: Path):
    """Comprehensions that test ``type(c) is GaussianRational`` over many
    coefficients, outside ``KERNEL_CHOICE_HOME``.  One scalar's type test,
    as in a coercion, is not a choice of arithmetic."""
    return _named_outside(path, {KERNEL_CHOICE_HOME}, _type_test_over_many)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_arithmetic_chosen_only_by_the_kernel(path):
    assert kernel_choices(path) == []


def test_checker_flags_a_kernel_choice(tmp_path):
    source = ("def _kernel(polys):\n"
              "    return all(type(c) is GaussianRational for c in polys)\n"
              "def compose(polys):\n"
              "    if all(type(c) is GaussianRational for c in polys):\n"
              "        return 1\n"
              "    if type(polys[0]) is not GaussianRational:\n"
              "        return 2\n"
              "    return [GaussianRational is type(c) for c in polys]\n")
    elsewhere = tmp_path / "m.py"
    elsewhere.write_text(source)
    assert kernel_choices(elsewhere) == [
        "m.py:2 type-is-GaussianRational", "m.py:4 type-is-GaussianRational",
        "m.py:8 type-is-GaussianRational"]
    poly = tmp_path / "poly.py"
    poly.write_text(source)
    assert kernel_choices(poly) == ["poly.py:4 type-is-GaussianRational",
                                    "poly.py:8 type-is-GaussianRational"]


ENGINE_HOME = ("normalforms.py", "solve_conjugacy")


def _engine_construction(node):
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name == "_OnlineComposition":
            return name
    return None


def engine_constructions(path: Path):
    """Calls of ``_OnlineComposition`` outside ``ENGINE_HOME``."""
    return _named_outside(path, {ENGINE_HOME}, _engine_construction)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_online_composition_built_only_by_the_engine(path):
    assert engine_constructions(path) == []


def test_checker_flags_an_online_composition_elsewhere(tmp_path):
    source = ("class _OnlineComposition:\n"
              "    def copy(self):\n"
              "        return _OnlineComposition()\n"
              "def solve_conjugacy(field):\n"
              "    return _OnlineComposition(field)\n"
              "def center_manifold_series(field):\n"
              "    engine = _OnlineComposition(field)\n"
              "    return normalforms._OnlineComposition(engine)\n")
    elsewhere = tmp_path / "m.py"
    elsewhere.write_text(source)
    assert engine_constructions(elsewhere) == [
        "m.py:3 _OnlineComposition", "m.py:5 _OnlineComposition",
        "m.py:7 _OnlineComposition", "m.py:8 _OnlineComposition"]
    home = tmp_path / "normalforms.py"
    home.write_text(source)
    assert engine_constructions(home) == [
        "normalforms.py:3 _OnlineComposition",
        "normalforms.py:7 _OnlineComposition",
        "normalforms.py:8 _OnlineComposition"]


JSON_EMITTERS = {"dump", "dumps"}


def json_emitter_calls(path: Path):
    """Calls of ``json.dump``/``json.dumps`` and imports of either name
    from ``json``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and node.func.attr in JSON_EMITTERS):
            found.append((node.lineno, f"json.{node.func.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend((node.lineno, f"from json import {alias.name}")
                         for alias in node.names
                         if alias.name in JSON_EMITTERS)
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_jsonio_writer_is_the_one_emitter(path):
    assert json_emitter_calls(path) == []


def test_checker_flags_a_json_emitter(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import json\n"
                    "from json import dumps as text, loads\n"
                    "def f(doc, fh):\n"
                    "    json.dump(doc, fh)\n"
                    "    return json.loads(json.dumps(doc)), text\n")
    assert json_emitter_calls(path) == [
        "m.py:2 from json import dumps", "m.py:4 json.dump",
        "m.py:5 json.dumps"]
