"""Static checks on the package source, stdlib ast only, and two checks of
what a plain `import pengeom` loads: its modules, and the names the
benchmark's tracer wraps."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pengeom"
BENCH_TRACER = SRC.parents[1] / "bench" / "tracer.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.
    __future__ imports are directives, not names, and are skipped."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def _defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read_names(node, modules) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
            names.add(n.attr)
    return names


def _unread(sources: dict[str, str], checked) -> list[str]:
    """"module.name" for every module-level function, class or constant
    whose name checked accepts and that no statement of any module reads,
    other than the one that defines it (so recursion does not keep a dead
    helper alive). A read is a loaded name or an attribute of one of the
    modules, as in analysis.helper; np.dot reads no dot."""
    statements = [
        (module, node) for module, text in sorted(sources.items())
        for node in ast.parse(text).body
    ]
    reads = [_read_names(node, sources.keys()) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        for name in _defined_names(node):
            if checked(name) and not any(name in r for j, r in enumerate(reads) if j != i):
                dead.append(f"{module}.{name}")
    return dead


def unread_privates(sources: dict[str, str]) -> list[str]:
    """The unread _private names (see _unread)."""
    return _unread(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def unexported_unread_publics(sources: dict[str, str], exported) -> list[str]:
    """The unread public names that are not exported (see _unread). sources
    leaves out __init__, whose re-export alone keeps no name alive."""
    return _unread(sources, lambda name: not name.startswith("_") and name not in exported)


def assigned_literal(source: str, name: str):
    """The literal a top-level statement assigns to name (a module's
    __all__, the tracer's WRAPPED), read off the source; None if none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


# the brute-force face grid and its hull faces (the test oracle for the
# model faces), the signed permutations of the equivariance tests, the
# rational LinearProgram builder, and the Fraction elimination and exposed
# vertices that the integer ones are checked against live in
# tests/oracles.py; no module of the package may define, import, read or
# export them
ORACLE_NAMES = frozenset({
    "enumerate_exposed_faces", "hull_face", "BRUTE_FORCE_FACE_LIMIT",
    "SignedPermutation", "signed_permutations", "nonneg_lp",
    "fraction_rref", "exposed_primal_vertices"})


def oracle_references(source: str) -> list[str]:
    """Oracle names the module defines, imports, reads (as a name or an
    attribute) or lists as a string, such as an __all__ entry."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in ORACLE_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in ORACLE_NAMES:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in ORACLE_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.Constant) and node.value in ORACLE_NAMES:
            found.append(node.value)
        else:
            found += [name for name in _defined_names(node) if name in ORACLE_NAMES]
    return found


# the one linear program left in the package is the gauge LP, built in
# solvers; the accessibility sweeps and the region figure read the zero
# region's vertices, the basis-pursuit certificate is the gauge LP's dual,
# and a face test runs phase 1 alone on its integer rows (lp.lp_feasible)
LP_BUILDERS = frozenset({"solvers._gauge_lp"})


def lp_constructions(module: str, source: str) -> list[str]:
    """"module.function" for every call of LinearProgram, named by the
    top-level function or class around it ("module.<module>" at top
    level)."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "LinearProgram":
                    found.append(f"{module}.{owner}")
    return found


# the l1 and sup faces are model faces of (s, ..., s) and (1, 0, ..., 0);
# "box" and "crosspoly" only tag them for the JSON form, so no code may
# branch on the tags to list vertices a second way
FACE_TAGS = frozenset({"box", "crosspoly"})
FACE_TAG_OWNERS = frozenset({
    "geometry.sign_to_cube_face", "geometry.sign_to_crosspolytope_face",
    "geometry.Face.to_json_dict", "geometry.Face.sign_vector"})


def _owners(module: str, source: str, match) -> list[str]:
    """"module.function" (or "module.Class.method") around every node that
    match accepts, "module" at top level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if match(child):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), module)
    return found


def face_tag_literals(module: str, source: str) -> list[str]:
    """"module.function" (or "module.Class.method") around every string
    literal "box" or "crosspoly", "module" at top level."""
    return _owners(module, source, lambda n: isinstance(n, ast.Constant) and n.value in FACE_TAGS)


# the 3^p sign points are the slope branch of the cached primal-ball vertex
# list; no per-question path may enumerate them again
SIGN_POINT_READERS = frozenset({"norms.primal_ball_vertices"})


def name_readers(module: str, source: str, name: str) -> list[str]:
    """"module.function" (or "module.Class.method") around every load of
    name or attribute access to it, "module" at top level."""
    return _owners(module, source, lambda n: (
        isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name
        or isinstance(n, ast.Attribute) and n.attr == name))


def runtime_readers(module: str, source: str, name: str) -> list[str]:
    """name_readers with every annotation removed first: the functions that
    build or test values through name, not those that only declare a type."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
        elif isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
    return name_readers(module, ast.unparse(tree), name)


# exact.clear_denominators is the one place a list of rationals becomes
# integers over its least common denominator
LCM_READERS = frozenset({"exact.clear_denominators"})

# lp.py pivots on one integer tableau, which one phase 1 builds for both
# the two-phase solve and the feasibility test; Fractions are made only
# where an optimal tableau is read off into an LPResult (x, value, dual)
LP_CLASSES = ("LinearProgram", "LPResult", "_Tableau")
LP_FRACTION_READERS = frozenset({"lp._optimum"})
TABLEAU_BUILDERS = frozenset({"lp._phase_one"})
PHASE_ONE_READERS = frozenset({"lp._solve_standard", "lp.lp_feasible"})

# geometry's face test hands lp_feasible integer rows and reads integer
# weights back: it takes nothing else from lp and builds no LinearProgram
GEOMETRY_LP_IMPORTS = ["lp_feasible"]


def imported_from(source: str, module: str) -> list[str]:
    """Names a source imports from the package module, relative or absolute,
    with the module itself for an import of the whole module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, f"pengeom.{module}"):
                found += [a.name for a in node.names]
            elif node.module in (None, "pengeom"):
                found += [a.name for a in node.names if a.name == module]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == f"pengeom.{module}"]
    return found


def row_swaps(module: str, source: str) -> list[str]:
    """"module.function" around every swap of two entries of one list,
    A[i], A[j] = A[j], A[i]: the step every elimination loop takes."""
    def swap(n):
        if not (isinstance(n, ast.Assign) and len(n.targets) == 1):
            return False
        left, right = n.targets[0], n.value
        return (isinstance(left, ast.Tuple) and isinstance(right, ast.Tuple)
                and len(left.elts) == len(right.elts) == 2
                and all(isinstance(e, ast.Subscript) for e in left.elts + right.elts)
                and [ast.unparse(e) for e in left.elts] == [ast.unparse(e) for e in right.elts[::-1]])
    return _owners(module, source, swap)


def stack_merges(module: str, source: str) -> list[str]:
    """"module.function" around every while loop that pops a list in its
    body: the merge step of a stack-based pool-adjacent-violators loop."""
    def merge(n):
        return isinstance(n, ast.While) and any(
            isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute) and c.func.attr == "pop"
            for c in ast.walk(n))
    return _owners(module, source, merge)


# basis pursuit reads the l1 witness pair, so in analysis one integer
# kernel step builds every non-uniqueness witness; the Fraction
# kernel_basis is only exported, and no module of the package reads it
WITNESS_KERNEL_READERS = frozenset({"analysis._witness_pair"})

# the norm arithmetic lives in norms: elsewhere only the float prox and the
# figure caption branch on the l1 or sup kind, and solvers defines no norm
# class of its own
NORM_KIND_READERS = frozenset({"solvers._prox_for", "svg._norm_caption"})
SOLVER_CLASSES = ("Certificate", "Solution", "SolverOptions")

# every tol-0 certificate, basis pursuit's included, comes from one integer
# builder; besides it only kkt_certify's float path builds a Certificate
CERTIFICATE_BUILDERS = frozenset({"solvers._certificate", "solvers.kkt_certify"})


# only norms turns a label into a dual-ball face, through one kind dispatch
# that dual_ball_faces maps and the sweeps' hit faces reuse; the sweeps in
# analysis read the integer level table, never the face list
FACE_BUILDERS = ("model_to_face", "sign_to_cube_face", "sign_to_crosspolytope_face")
LABEL_FACE_READERS = frozenset({"norms._label_face"})


# the figures read D's vertices, duals and tight sets from the one cached
# zero region; none rebuilds a piece of it from the norm
FIGURE_REBUILDERS = ("exposed_primal_vertices", "subdifferential_face", "dual_norm_value",
                     "zero_region")

# every face's blocks and codimension come from one walk over a label's
# levels, which alone reads the block dimension; the sweeps' integer levels
# come straight from those blocks, never through a Face, the label -> face
# dispatch or a Fraction cleared back to integers
BLOCK_DIM_READERS = frozenset({"geometry._model_blocks"})
LEVEL_DETOURS = ("_label_face", "dual_ball_faces", "clear_denominators", "Face", "Fraction")

# a dual-ball level is its labels, one vertex table and one index, and a
# face's vertex count is its number of ids: only a Face counts its vertices
# from its blocks
BLOCK_COUNT_READERS = frozenset({"geometry.Face._vertex_count"})

# the screen's numpy products are the one K'v: only the screen's images
# (geometry._Images, which the level and face screens share) read the
# kernel's integer columns, and its float view only to pick the regime and
# project a prefix of rows; the kernel keeps no second basis or image memo
KERNEL_COLUMN_READERS = frozenset({"geometry._Images.extend", "geometry._Images.exact_rows"})
KERNEL_FLOAT_READERS = frozenset({"geometry._Images.__init__", "geometry._Images.extend"})
KERNEL_SECOND_IMAGES = frozenset({"image", "_images", "integer_basis"})

# a level's vertices are one rank table and one lookup of weights: only the
# lookup itself (geometry._Level and norms._dual_ball_level, which shares a
# pattern's ranks with each norm) and the screen's projection
# (geometry._Images) read the ranks or the weights, so no reader keeps a
# second vertex table
LEVEL_TABLE_ATTRS = ("ranks", "lookup", "float_lookup")
LEVEL_TABLE_READERS = frozenset({"geometry._Level.vertex_rows", "geometry._Images.__init__",
                                 "geometry._Images.extend", "norms._dual_ball_level"})

# every report and CLI payload becomes JSON through one encoder: in analysis
# and cli only it writes a rational as a string, and besides the report base
# only the two reports whose layout departs from their fields define
# to_json_dict
JSON_MODULES = ("analysis", "cli")
RAT_STR_READERS = frozenset({"analysis._json"})
JSON_DICT_DEFINERS = frozenset({
    "analysis._Report", "analysis.UniquenessReport", "analysis.GenericityReport"})


def attribute_readers(module: str, source: str, attr: str) -> list[str]:
    """"module.function" (or "module.Class.method") around every load of
    the attribute attr, "module" at top level; assignments to it and plain
    names do not count."""
    return _owners(module, source, lambda n: (
        isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and n.attr == attr))


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .exact import rank, vec as v\n"
        "def f(x: np.ndarray):\n"
        "    return rank(x)\n"
    )
    assert unused_imports(source) == ["os", "v"]


def test_checker_flags_an_unread_private():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_unused: int = 0\n"
            "def _walk(n):\n"
            "    return _walk(n - 1) if n else 0\n"
            "class _Box:\n"
            "    pass\n"
            "def _helper():\n"
            "    return _LIMIT\n"
        ),
        "b": "from a import _helper\nimport a\nx = _helper() + a._Box.size\n",
    }
    assert unread_privates(sources) == ["a._unused", "a._walk"]


def test_modules_use_every_name_they_import():
    # __init__ imports names to re-export them
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_privates(sources) == []


def test_checker_flags_an_unexported_unread_public():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "SPARE: int = 0\n"
            "def walk(n):\n"
            "    return walk(n - 1) if n else LIMIT\n"
            "class Box:\n"
            "    pass\n"
            "def shown():\n"
            "    return 1\n"
            "def _helper():\n"
            "    return Box\n"
        ),
        "b": "from a import walk\n_x = walk(2)\n",
    }
    assert unexported_unread_publics(sources, {"shown"}) == ["a.SPARE"]
    del sources["b"]
    assert unexported_unread_publics(sources, {"shown"}) == ["a.SPARE", "a.walk"]
    init = "from .a import shown\n__all__ = [\"shown\", \"walk\"]\n"
    assert assigned_literal(init, "__all__") == ["shown", "walk"]
    assert unexported_unread_publics(sources, assigned_literal(init, "__all__")) == ["a.SPARE"]
    # an attribute is a read only off a module of the package
    sources = {"a": "def dot(u, v):\n    return 0\n", "b": "import numpy as np\n_x = np.dot(1, 2)\n"}
    assert unexported_unread_publics(sources, set()) == ["a.dot"]
    sources["b"] += "import a\n_y = a.dot(1, 2)\n"
    assert unexported_unread_publics(sources, set()) == []


def bench_imports() -> set[str]:
    """The names the benchmark's scripts import from the package by name,
    and those its tracer wraps by name. Those scripts change only with the
    benchmark, so a name they import or wrap is as public as an export."""
    wrapped = {name for _, name in assigned_literal(BENCH_TRACER.read_text(), "WRAPPED")}
    return wrapped | {a.name for path in BENCH_TRACER.parent.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pengeom")
                      for a in node.names}


def test_every_public_name_is_exported_or_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    exported = assigned_literal((SRC / "__init__.py").read_text(), "__all__")
    assert exported
    # exact.dot: the benchmark's checks import it; exact.solve_exact: they
    # import it and the tracer wraps it; exact.rowspace_preimage: the tracer
    # wraps it; nothing in the package reads any of them
    assert unexported_unread_publics(sources, exported) == [
        "exact.dot", "exact.solve_exact", "exact.rowspace_preimage"]
    assert unexported_unread_publics(sources, {*exported, *bench_imports()}) == []


def test_checker_flags_an_oracle_reference():
    source = (
        "from .geometry import Face, hull_face as hull\n"
        "from . import geometry\n"
        "faces = geometry.enumerate_exposed_faces(())\n"
        "def signed_permutations():\n"
        "    return Face, nonneg_lp\n"
        "BRUTE_FORCE_FACE_LIMIT = 4\n"
        "__all__ = ['Face', 'SignedPermutation']\n"
        "doc = 'hull_face and SignedPermutation'\n"
    )
    assert sorted(oracle_references(source)) == sorted([
        "hull_face", "enumerate_exposed_faces", "signed_permutations", "nonneg_lp",
        "BRUTE_FORCE_FACE_LIMIT", "SignedPermutation"])


def test_product_paths_never_reach_the_brute_force_faces():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"geometry.py", "lp.py", "__init__.py"}
    found = {p.name: oracle_references(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_checker_flags_an_lp_construction():
    source = (
        "from .lp import LinearProgram\n"
        "from . import lp\n"
        "ZERO = LinearProgram(c=(0,))\n"
        "def _gauge_lp(X):\n"
        "    return lp.LinearProgram(c=(1,))\n"
        "def region(X):\n"
        "    def inner():\n"
        "        return lp.LinearProgram(c=())\n"
        "    return inner, LinearProgram\n"
        "class Cert:\n"
        "    def build(self):\n"
        "        return LinearProgram(c=())\n"
    )
    assert lp_constructions("solvers", source) == [
        "solvers.<module>", "solvers._gauge_lp", "solvers.region", "solvers.Cert"]


def test_linear_programs_are_built_in_one_place():
    built = {c for p in SRC.glob("*.py") for c in lp_constructions(p.stem, p.read_text())}
    assert built == LP_BUILDERS


def test_checker_flags_a_face_tag_literal():
    source = (
        'KIND = "box"\n'
        'def vertices(face):\n'
        '    """Cube ("box") faces."""\n'
        '    if face.kind == "crosspoly":\n'
        '        return ()\n'
        'class Face:\n'
        '    def to_json_dict(self):\n'
        '        return {"kind": "box", "label": "a box"}\n'
    )
    assert face_tag_literals("m", source) == ["m", "m.vertices", "m.Face.to_json_dict"]


def test_face_tags_stay_in_the_sign_face_constructors():
    found = {site for p in SRC.glob("*.py") for site in face_tag_literals(p.stem, p.read_text())}
    assert found == FACE_TAG_OWNERS


def test_checker_flags_a_name_reader():
    source = (
        "from .norms import points\n"
        "ALL = points\n"
        "def points(norm):\n"
        "    return ()\n"
        "def witness(norm):\n"
        "    return [x for _, x in norms.points(norm)]\n"
        "class Figure:\n"
        "    def draw(self, points=None):\n"
        "        return points()\n"
    )
    assert name_readers("m", source, "points") == ["m", "m.witness", "m.Figure.draw"]


def test_only_the_primal_ball_vertices_read_the_sign_points():
    found = {site for p in SRC.glob("*.py")
             for site in name_readers(p.stem, p.read_text(), "unit_sphere_sign_points")}
    assert found == SIGN_POINT_READERS


def test_checker_flags_a_runtime_reader():
    source = (
        "from fractions import Fraction\n"
        "class Result:\n"
        "    value: Fraction | None = None\n"
        "def pivot(a: list[Fraction]) -> Fraction:\n"
        "    return a[0]\n"
        "def read(b):\n"
        "    return Fraction(b, 2)\n"
    )
    assert runtime_readers("m", source, "Fraction") == ["m.read"]


def test_lp_pivots_on_one_integer_tableau():
    source = (SRC / "lp.py").read_text()
    classes = tuple(n.name for n in ast.parse(source).body if isinstance(n, ast.ClassDef))
    assert classes == LP_CLASSES
    assert set(runtime_readers("lp", source, "Fraction")) == LP_FRACTION_READERS


def test_one_phase_one_serves_both_programs():
    source = (SRC / "lp.py").read_text()
    assert set(runtime_readers("lp", source, "_Tableau")) == TABLEAU_BUILDERS
    assert set(name_readers("lp", source, "_phase_one")) == PHASE_ONE_READERS


def test_checker_flags_an_import_from_a_module():
    source = (
        "from .lp import OPTIMAL, lp_feasible\n"
        "from . import lp, exact\n"
        "import pengeom.lp\n"
        "from pengeom.lp import LinearProgram as LP\n"
        "from .exact import vec\n"
    )
    assert imported_from(source, "lp") == [
        "OPTIMAL", "lp_feasible", "lp", "pengeom.lp", "LinearProgram"]


def test_face_tests_hand_the_lp_integer_rows():
    source = (SRC / "geometry.py").read_text()
    assert imported_from(source, "lp") == GEOMETRY_LP_IMPORTS
    assert lp_constructions("geometry", source) == []
    fraction_readers = set(runtime_readers("geometry", source, "Fraction"))
    assert {"geometry.DesignKernel._weights", "geometry._segment_weight",
            "geometry.DesignKernel._hit"}.isdisjoint(fraction_readers)
    assert {"geometry._Hit.point", "geometry._Hit.z"} <= fraction_readers


# an accessibility row is finished in integers, from the face hit to its
# tol-0 verdict: the hit solves X'z = point through the integer core of the
# solve map, whose only Fraction reader is the solve map's own front end,
# and the row builds its response witness from X's integer rows and
# certifies it by the integer verdict that basis pursuit's tol-0 checks
# read too; every exact Certificate reads the same integer terms. The zero
# region solves its start vertices through the integer core as well, and
# forms Fractions only for its finished vertices
ROW_DETOURS = ("vec", "matvec", "rowspace_preimage", "_exact_check")
INTEGER_SOLVE_READERS = frozenset({"exact._SolveMap.solve", "geometry.DesignKernel._hit",
                                   "norms._zero_region"})
INTEGER_SOLVE_FRACTION_READERS = frozenset({"exact._SolveMap.solve", "norms._zero_region"})
VERDICT_READERS = frozenset({"analysis._route_sweep", "analysis.check_uniqueness_bp",
                             "solvers.bp_certificate_holds", "solvers._polisher.polish"})
TERMS_READERS = frozenset({"solvers._verdict", "solvers._certificate"})


def test_an_accessibility_row_is_finished_in_integers():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    detours = {site for module in ("analysis", "geometry") for name in ROW_DETOURS
               for site in name_readers(module, sources[module], name)}
    assert {"analysis._route_sweep", "geometry.DesignKernel._hit"}.isdisjoint(detours)
    readers = {site for module, source in sources.items()
               for site in name_readers(module, source, "integer_solve")}
    assert readers == INTEGER_SOLVE_READERS
    fraction_readers = {site for module, source in sources.items()
                        for site in runtime_readers(module, source, "Fraction")}
    assert readers & fraction_readers == INTEGER_SOLVE_FRACTION_READERS
    assert {site for module, source in sources.items()
            for site in name_readers(module, source, "_verdict")} == VERDICT_READERS
    assert {site for module, source in sources.items()
            for site in name_readers(module, source, "_terms")} == TERMS_READERS


def test_one_helper_clears_denominators():
    found = {site for p in SRC.glob("*.py") for site in name_readers(p.stem, p.read_text(), "lcm")}
    assert found == LCM_READERS


def test_checker_flags_a_row_swap():
    source = (
        "def rank(A, r, piv):\n"
        "    A[r], A[piv] = A[piv], A[r]\n"
        "    a, b = b, a\n"
        "    A[r], A[piv] = A[r], A[piv]\n"
        "class M:\n"
        "    def rref(self, A, i):\n"
        "        for c in range(3):\n"
        "            A[i], A[c] = A[c], A[i]\n"
    )
    assert row_swaps("exact", source) == ["exact.rank", "exact.M.rref"]


def test_exact_linear_algebra_has_one_elimination_loop():
    # rank, the integer kernel, solve_exact and rowspace_preimage all read
    # the one fraction-free Gauss-Jordan loop
    assert row_swaps("exact", (SRC / "exact.py").read_text()) == ["exact._eliminate"]


def test_checker_flags_a_stack_merge():
    source = (
        "def _pava(d):\n"
        "    sums = []\n"
        "    for x in d:\n"
        "        while sums and sums[-1] <= x:\n"
        "            x += sums.pop()\n"
        "        sums.append(x)\n"
        "def countdown(n):\n"
        "    while n:\n"
        "        n -= 1\n"
        "class FloatProx:\n"
        "    def pool(self, d, s):\n"
        "        for x in d:\n"
        "            while s and s[-1] > x:\n"
        "                s.pop()\n"
    )
    assert stack_merges("solvers", source) == ["solvers._pava", "solvers.FloatProx.pool"]


def test_solvers_have_one_pava_loop():
    # the exact prox_slope and the float route's prox both read one
    # sort-and-PAVA core, so no float copy of the loop forks off
    assert stack_merges("solvers", (SRC / "solvers.py").read_text()) == ["solvers._pava"]


def momentum_loops(module: str, source: str) -> list[str]:
    """"module.function" around every loop that takes a square root in its
    body: the momentum update t' = (1 + sqrt(1 + 4 t^2)) / 2 of a FISTA
    loop."""
    def momentum(n):
        return isinstance(n, (ast.While, ast.For)) and any(
            isinstance(c, ast.Call) and getattr(c.func, "attr", getattr(c.func, "id", None)) == "sqrt"
            for c in ast.walk(n))
    return _owners(module, source, momentum)


def test_checker_flags_a_momentum_loop():
    source = (
        "import math\n"
        "def _fista(x, t):\n"
        "    while x:\n"
        "        t = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))\n"
        "def _polish(xs):\n"
        "    for x in xs:\n"
        "        t = (1 + sqrt(1 + 4 * x * x)) / 2\n"
        "def _step(t):\n"
        "    return math.sqrt(t)\n"
    )
    assert momentum_loops("solvers", source) == ["solvers._fista", "solvers._polish"]


def test_solvers_have_one_fista_loop():
    # solve_penalized and the fits' exact polish run one FISTA loop, which
    # calls the polish, so no second copy of the iteration forks off
    assert momentum_loops("solvers", (SRC / "solvers.py").read_text()) == ["solvers._fista"]


def test_a_fit_has_one_exact_route():
    # the polish in solvers._fista, whose first piece is the zero piece, is
    # the one exact route of a fit: analysis builds no Solution and tests
    # no response against the dual ball beside it
    source = (SRC / "analysis.py").read_text()
    assert runtime_readers("analysis", source, "Solution") == []
    assert name_readers("analysis", source, "dual_ratio") == []


# the dual norm's loop, a prefix sum of the sorted magnitudes against the
# weights', lives on the norm's form: dual_value on Fractions and floats,
# dual_ratio in integers, the one exact dual-ball test, which only the
# verdict's terms read
PREFIX_LOOPS = frozenset({"norms._NormForm.dual_value", "norms._NormForm.dual_ratio"})
DUAL_RATIO_READERS = frozenset({"solvers._terms"})


def sorted_prefix_loops(module: str, source: str) -> list[str]:
    """"module.function" of every function that sorts magnitudes (sorted,
    sort or argsort over a call of abs) and forms prefix sums (accumulate,
    cumsum, or += in a loop): the dual norm's prefix-ratio loop."""
    def named(n, names):
        return isinstance(n, ast.Call) and getattr(n.func, "attr", getattr(n.func, "id", None)) in names

    def sorts_magnitudes(n):
        return named(n, ("sorted", "sort", "argsort")) and any(
            getattr(c, "id", getattr(c, "attr", None)) == "abs" for c in ast.walk(n))

    def prefix_sum(n):
        return named(n, ("accumulate", "cumsum")) or isinstance(n, (ast.For, ast.While)) and any(
            isinstance(c, ast.AugAssign) and isinstance(c.op, ast.Add) for c in ast.walk(n))
    return sorted(set(_owners(module, source, sorts_magnitudes)) & set(_owners(module, source, prefix_sum)))


def test_checker_flags_a_sorted_prefix_loop():
    source = (
        "import itertools\n"
        "def _verdict(S, den, form):\n"
        "    g, _, prefix = form.integers\n"
        "    a = 0\n"
        "    for m, q in zip(sorted(map(abs, S), reverse=True), prefix):\n"
        "        a += m\n"
        "        if a * g > den * q:\n"
        "            return False\n"
        "    return True\n"
        "def _dual(x, w):\n"
        "    return max(itertools.accumulate(np.sort(np.abs(x))[::-1]) / w)\n"
        "def _value(x, w):\n"
        "    return sum(map(operator.mul, w, sorted(map(abs, x), reverse=True)))\n"
        "def _pool(order, d):\n"
        "    s = 0\n"
        "    for x in sorted(d):\n"
        "        s += x\n"
    )
    assert sorted_prefix_loops("solvers", source) == ["solvers._dual", "solvers._verdict"]


def test_norm_arithmetic_lives_in_norms():
    found = {site for p in SRC.glob("*.py") if p.stem != "norms"
             for kind in ("L1", "SUP") for site in runtime_readers(p.stem, p.read_text(), kind)}
    assert found == NORM_KIND_READERS
    loops = {site for p in SRC.glob("*.py") for site in sorted_prefix_loops(p.stem, p.read_text())}
    assert loops == PREFIX_LOOPS
    readers = {site for p in SRC.glob("*.py") for site in name_readers(p.stem, p.read_text(), "dual_ratio")}
    assert readers == DUAL_RATIO_READERS
    source = (SRC / "solvers.py").read_text()
    classes = tuple(n.name for n in ast.parse(source).body if isinstance(n, ast.ClassDef))
    assert classes == SOLVER_CLASSES


def test_one_builder_forms_every_exact_certificate():
    found = {site for p in SRC.glob("*.py")
             for site in runtime_readers(p.stem, p.read_text(), "Certificate")}
    assert found == CERTIFICATE_BUILDERS


def test_one_witness_recipe_takes_the_kernel_step():
    source = (SRC / "analysis.py").read_text()
    assert set(name_readers("analysis", source, "_integer_kernel")) == WITNESS_KERNEL_READERS
    found = {site for p in SRC.glob("*.py") for site in name_readers(p.stem, p.read_text(), "kernel_basis")}
    assert found == set()


# a sign row's tol-0 l1 certificate already certifies its bp response, so
# the bp test, the l1 verdict on X'z, is read only where a bp witness pair
# or point is certified, beside the route sweep's own verdict; both
# accessibility tables are one route sweep, which finishes every row
BP_CERTIFICATE_READERS = frozenset({"analysis.check_uniqueness_bp", "solvers.bp_certificate_holds"})
TABLE_ENTRY_POINTS = frozenset({"analysis.accessible_sign_vectors", "analysis.accessible_slope_models"})


def test_one_sweep_finishes_every_accessibility_row():
    found = {site for p in SRC.glob("*.py") for site in name_readers(p.stem, p.read_text(), "_verdict")}
    assert found - {"analysis._route_sweep", "solvers._polisher.polish"} == BP_CERTIFICATE_READERS
    source = (SRC / "analysis.py").read_text()
    readers = {site for name in ("kkt_certify", "replace") for site in name_readers("analysis", source, name)}
    assert readers & TABLE_ENTRY_POINTS == set()


def test_only_norms_turns_labels_into_faces():
    # geometry defines the constructors and __init__ re-exports them
    found = {site for p in SRC.glob("*.py") if p.stem not in ("geometry", "__init__")
             for name in FACE_BUILDERS for site in runtime_readers(p.stem, p.read_text(), name)}
    assert found == LABEL_FACE_READERS
    assert name_readers("analysis", (SRC / "analysis.py").read_text(), "dual_ball_faces") == []


def test_levels_come_from_one_block_walk():
    found = {site for p in SRC.glob("*.py") for site in name_readers(p.stem, p.read_text(), "_block_dim")}
    assert found == BLOCK_DIM_READERS
    source = (SRC / "norms.py").read_text()
    detours = {site for name in LEVEL_DETOURS for site in name_readers("norms", source, name)}
    assert "norms._weight_free_level" not in detours


def test_checker_flags_an_attribute_reader():
    source = (
        "class Kernel:\n"
        "    def __init__(self, rows):\n"
        "        self.columns = rows\n"
        "    def image(self, v):\n"
        "        return v @ self.columns\n"
        "def weights(columns):\n"
        "    return len(columns)\n"
        "TOP = Kernel(()).columns\n"
    )
    assert attribute_readers("m", source, "columns") == ["m.Kernel.image", "m"]


def test_a_level_counts_vertices_by_their_ids():
    found = {site for p in SRC.glob("*.py")
             for site in name_readers(p.stem, p.read_text(), "_block_vertex_count")}
    assert found == BLOCK_COUNT_READERS


def test_the_screen_product_is_the_only_kernel_image():
    geometry = importlib.import_module("pengeom.geometry")
    exact = importlib.import_module("pengeom.exact")
    kernel = geometry.DesignKernel(exact.RationalMatrix.from_rows([[1, 2, 0], [0, 1, 1]]))
    assert [name for name in KERNEL_SECOND_IMAGES if hasattr(kernel, name)] == []
    for attr, readers in (("columns", KERNEL_COLUMN_READERS), ("float_columns", KERNEL_FLOAT_READERS)):
        found = {site for p in SRC.glob("*.py")
                 for site in attribute_readers(p.stem, p.read_text(), attr)}
        assert found == readers, attr


def test_a_level_reads_its_vertices_through_one_lookup():
    found = {site for p in SRC.glob("*.py") for attr in LEVEL_TABLE_ATTRS
             for site in attribute_readers(p.stem, p.read_text(), attr)}
    assert found == LEVEL_TABLE_READERS


def test_figures_read_the_zero_region_object():
    source = (SRC / "svg.py").read_text()
    assert [site for name in FIGURE_REBUILDERS for site in name_readers("svg", source, name)] == []


def test_import_loads_the_figures_without_xml():
    # svg escapes its own text, so the package import pulls in neither
    # xml.sax nor the urllib.request it loads
    code = ("import sys, pengeom; "
            "print(sorted(m for m in ('pengeom.svg', 'xml.sax', 'urllib.request') "
            "if m in sys.modules))")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "['pengeom.svg']"


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # bench/tracer.py wraps each (module, function) of WRAPPED by name,
    # reads the vertex cache's counters and sizes each gauge LP by its rows;
    # tier-1 never runs a traced benchmark, so a pruned name would otherwise
    # break only those runs
    wrapped = assigned_literal(BENCH_TRACER.read_text(), "WRAPPED")
    assert wrapped
    missing = [f"{module}.{name}" for module, name in wrapped
               if not callable(getattr(importlib.import_module(f"pengeom.{module}"), name, None))]
    assert missing == []
    geometry = importlib.import_module("pengeom.geometry")
    assert callable(geometry._materialized_vertices.cache_info)
    lp = importlib.import_module("pengeom.lp")
    assert {"c", "a_eq", "a_ub"} <= {f.name for f in dataclasses.fields(lp.LinearProgram)}


def test_reports_have_one_json_encoder():
    found = {site for module in JSON_MODULES
             for site in name_readers(module, (SRC / f"{module}.py").read_text(), "rat_str")}
    assert found == RAT_STR_READERS
    tree = ast.parse((SRC / "analysis.py").read_text())
    definers = {f"analysis.{c.name}" for c in tree.body if isinstance(c, ast.ClassDef)
                for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "to_json_dict"}
    assert definers == JSON_DICT_DEFINERS
