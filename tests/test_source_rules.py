"""Rules about the library source that its behaviour tests cannot see."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "demazure").glob("*.py")
)


def test_no_assert_statements():
    assert {p.name for p in SOURCES} >= {"algebra.py", "lattice.py"}
    # ``python -O`` strips asserts, so a check written as one silently
    # disappears; invariants are stated in comments and tested instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"


# cli.main maps each DemazureError onto its exit code and lets any other
# exception through, so each error the library raises on purpose must be a
# typed DemazureError that names what is wrong.  The exception is
# internal: lattice raises it on input that its callers never pass.
INTERNAL_RAISES = {
    ("lattice.py", "mat_inverse"),
}


def bare_raises(tree):
    """Line numbers of the `raise ValueError` / `raise TypeError` in a tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
            lines.add(node.lineno)
    return lines


def test_no_bare_value_or_type_errors():
    assert {p.name for p in SOURCES} >= {"divisors.py", "algebra.py",
                                         "cli.py", "lattice.py"}
    found = []
    internal = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        lines = bare_raises(tree)
        for func in ast.walk(tree):
            if (isinstance(func, ast.FunctionDef)
                    and (path.name, func.name) in INTERNAL_RAISES):
                internal.append((path.name, func.name, len(bare_raises(func))))
                lines -= bare_raises(func)
        found += [f"{path.name}:{n}" for n in sorted(lines)]
    assert not found, f"bare ValueError/TypeError in the library: {found}"
    assert sorted(internal) == sorted((f, g, 1) for f, g in INTERNAL_RAISES)


def test_no_permutation_loops():
    # a search over every ordering of the rays is factorial in their
    # number; such loops belong in the tests, as oracles
    assert {p.name for p in SOURCES} >= {"orbits.py"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            else:
                continue
            if "permutations" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"itertools.permutations in the library: {found}"


def test_orbits_takes_cone_lattices_from_the_fan():
    # a cone's saturated lattice depends on the cone only, so the fan
    # computes it once; a Smith form in orbits.py would redo it per root
    assert {p.name for p in SOURCES} >= {"orbits.py"}
    path = next(p for p in SOURCES if p.name == "orbits.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        else:
            continue
        if "smith_normal_form" in names:
            found.append(f"{path.name}:{node.lineno}")
    assert not found, f"smith_normal_form in orbits.py: {found}"


def _names_in(func):
    """The names and attribute names that a function's body mentions."""
    return ({n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)})


def test_classify_and_solve_use_no_matrix_algebra():
    # classes are orbits of (ray index, pairings) under the ray
    # permutations, and a matrix that permutes the spanning rays is
    # unimodular, so neither needs a transpose, an inverse or a determinant
    assert {p.name for p in SOURCES} >= {"orbits.py"}
    path = next(p for p in SOURCES if p.name == "orbits.py")
    funcs = {node.name: node
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.FunctionDef)}
    classify = funcs["classify_roots"]
    found = sorted(_names_in(classify)
                   & {"transpose", "mat_vec", "mat_inverse", "det"})
    assert not found, f"classify_roots uses {found}"
    # the union-find was a pair of nested functions
    nested = [n.name for n in ast.walk(classify)
              if isinstance(n, ast.FunctionDef) and n is not classify]
    assert not nested, f"functions inside classify_roots: {nested}"
    assert "det" not in _names_in(funcs["_solve"]), "_solve computes det"


def test_the_symmetry_search_inverts_no_matrix():
    # the base inverse is read off the facet normals of the base cone's
    # dual, scaled to integers, so the search takes no determinant, no
    # inverse and no Fraction; det and mat_inverse stay in lattice.py,
    # which the benchmark's tracer wraps
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"orbits.py", "lattice.py"}
    funcs = {n.name: n for n in ast.walk(trees["orbits.py"])
             if isinstance(n, ast.FunctionDef)}
    for name in ("_search_chain", "_base_inverse", "_solve"):
        found = sorted(_names_in(funcs[name])
                       & {"det", "mat_inverse", "Fraction"})
        assert not found, f"{name} uses {found}"
    defined = {n.name for n in trees["lattice.py"].body
               if isinstance(n, ast.FunctionDef)}
    assert defined >= {"det", "mat_inverse"}


def test_classify_never_expands_the_group():
    # a classify job needs |G| and the orbits of a generating set, both
    # read off the stabilizer chain; fan_automorphisms builds all of G,
    # 46,080 automorphisms on (P^1)^6
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"cli.py", "orbits.py"}
    for name, func in (("cli.py", "_cmd_classify"),
                       ("orbits.py", "classify_roots")):
        node = next(n for n in ast.walk(trees[name])
                    if isinstance(n, ast.FunctionDef) and n.name == func)
        assert "fan_automorphisms" not in _names_in(node), \
            f"{func} expands the automorphism group"


def test_no_box_scans():
    # scanning a box tests every point of it against the rows, most of them
    # outside the region; lattice points are lifted coordinate by
    # coordinate instead, and the scan is a test oracle
    named = {"lattice.py", "roots.py"}
    assert {p.name for p in SOURCES} >= named
    found = []
    for path in SOURCES:
        if path.name not in named:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            else:
                continue
            if "product" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"itertools.product in the lattice-point code: {found}"


@pytest.mark.parametrize("name", ["fan.py", "orbits.py"])
def test_fan_reads_integers_with_as_int(name):
    # int() truncates: the cone index 1.5 was read as ray 1, and the
    # character (1/2, 0) had the image (0, 0); as_int raises
    # InvalidInteger for a value that is not an integer
    assert {p.name for p in SOURCES} >= {name}
    path = next(p for p in SOURCES if p.name == name)
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "int"
    ]
    assert not found, f"int() calls in {name}: {found}"


def test_render_is_the_one_report_writer():
    # serialize.render writes every report; a json.dump(s) with an indent
    # would be a second writer beside it, running CPython's pure-Python
    # encoder
    assert {p.name for p in SOURCES} >= {"serialize.py", "cli.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert not found, f"indented json.dump(s) in the library: {found}"


def test_traced_names_resolve():
    # the benchmark's tracer wraps these names by lookup, so a traced run
    # crashes on one that was renamed or deleted; catch that here instead
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = [node.module if isinstance(node, ast.ImportFrom) else a.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names]
    assert not [m for m in imported if m and m.startswith("demazure")]
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, qualname, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"demazure.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = vars(getattr(module, owner_name) if owner_name else module)
        if not callable(owner.get(attr)):
            missing.append(f"{module_name}.{qualname}")
    assert len(tracing.TARGETS) > 50
    assert not missing, f"traced names missing from demazure: {missing}"


def test_fan_checks_share_one_wall_certificate():
    # build_fan and fan_diagnostics skip the pair loop on one certificate,
    # Fan.certified_complete; a second copy of its wall logic in
    # serialize.py could certify an input that build_fan rejects
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"fan.py", "serialize.py"}
    for name, func in (("fan.py", "build_fan"),
                       ("serialize.py", "fan_diagnostics")):
        node = next(n for n in ast.walk(trees[name])
                    if isinstance(n, ast.FunctionDef) and n.name == func)
        assert "certified_complete" in _names_in(node), \
            f"{func} does not call Fan.certified_complete"
    found = sorted(_names_in(trees["serialize.py"])
                   & {"walls", "facets", "supplied", "dual_pair", "dot"})
    assert not found, f"wall logic in serialize.py: {found}"


def test_a_fan_pair_is_checked_one_way():
    # intersection_defect decides a pair by containment, by a lone ray or
    # by one dual; a second certificate from the cones' facet normals
    # beside them (Cone.face_normal served the former one) would be a
    # second routine for the same fact
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"fan.py", "lattice.py"}

    def methods(tree, cls):
        node = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.ClassDef) and n.name == cls)
        return {n.name: n for n in node.body
                if isinstance(n, ast.FunctionDef)}

    check = methods(trees["fan.py"], "Fan")["intersection_defect"]
    found = sorted(_names_in(check) & {"face_normal", "facets", "dual_pair"})
    assert not found, f"Fan.intersection_defect uses {found}"
    assert "face_normal" not in methods(trees["lattice.py"], "Cone"), \
        "lattice.Cone defines face_normal"


def test_root_existence_is_read_off_the_root_regions():
    # admits_g_structure asks each root region for a point that passes
    # condition (2); the flats of the ray matroid, one integer program
    # each, were a second algorithm for the same fact.  Region.feasible's
    # reduction modulo a recession direction is the one Smith form in
    # lattice.py besides the invariant factors
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"orbits.py", "lattice.py"}
    funcs = {n.name: n for n in ast.walk(trees["orbits.py"])
             if isinstance(n, ast.FunctionDef)}
    assert "_flats" not in funcs, "orbits.py defines _flats"
    found = sorted(_names_in(funcs["admits_g_structure"])
                   & {"integer_feasible", "extension_in_fan"})
    assert not found, f"admits_g_structure uses {found}"

    def callers(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from callers(child, owner + (child.name,))
                continue
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", None) == "smith_normal_form":
                yield ".".join(owner)
            yield from callers(child, owner)

    assert set(callers(trees["lattice.py"], ())) == {
        "Region.feasible", "invariant_factors"}


def test_every_dual_is_one_elimination_read_in_integers():
    # every dual reads a basis off one elimination of [G | I] and inserts
    # the other generators by double description, in integers (Fractions
    # would normalize every entry by a gcd); no walk over subsets of the
    # generators is left
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"lattice.py"}
    funcs = {n.name: n for n in ast.walk(trees["lattice.py"])
             if isinstance(n, ast.FunctionDef)}
    assert "_facet_normals" not in funcs
    for name in ("_dual_of_primitive", "_insert"):
        names = _names_in(funcs[name])
        assert "Fraction" not in names, f"{name} uses Fraction"
        assert "combinations" not in names, f"{name} uses combinations"
    eliminations = [
        node.lineno for node in ast.walk(funcs["_dual_of_primitive"])
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_echelon"]
    assert len(eliminations) == 1, f"calls of _echelon: {eliminations}"


def test_condition2_is_checked_only_off_convex_support():
    # condition (2) follows from (1) on a fan whose support is convex, so
    # each library function that calls check_condition2 first asks the
    # fan (Fan.has_convex_support); the CLI reaches condition (2) only
    # through those functions, so a caller cannot drop the skip or add a
    # second one
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"cli.py", "roots.py", "orbits.py"}
    callers = set()
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            if any(isinstance(node, ast.Call)
                   and "check_condition2" in _names_in(node.func)
                   for node in ast.walk(func)):
                callers.add(f"{name}:{func.name}")
                assert "has_convex_support" in _names_in(func), \
                    f"{name}:{func.name} checks condition (2) on every fan"
    assert callers >= {"roots.py:roots_of_fan", "orbits.py:_verified",
                       "orbits.py:admits_g_structure"}
    assert "check_condition2" not in _names_in(trees["cli.py"]), \
        "cli.py checks condition (2)"


def _functions_using(tree, test):
    """The names of the innermost functions holding a node that passes
    `test`, with "<module>" for a node outside every function."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, ast.FunctionDef)
                     else owner)
            if test(child):
                found.add(inner)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_the_wall_table_is_indexed_by_subsets_once():
    # the walls keyed by the (n - 1)-subsets of the cones' keys, key - {i},
    # are built in one place, the wall walk of fan._cone_duals, which
    # hands them to the Fan; Fan.walls, certified_complete and is_complete
    # read that one table, and only _zero_set_walls reads walls off a dual
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"fan.py", "serialize.py", "orbits.py"}

    def subset_of_a_key(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.right, ast.Set))

    found = {f"{name}:{func}" for name, tree in trees.items()
             for func in _functions_using(tree, subset_of_a_key)}
    assert found == {"fan.py:_cone_duals"}, found
    funcs = {n.name: n for n in ast.walk(trees["fan.py"])
             if isinstance(n, ast.FunctionDef)}
    for name in ("walls", "certified_complete", "is_complete"):
        names = _names_in(funcs[name])
        assert not names & {"_inc", "opposite_normals", "_cone_duals"}, \
            f"{name} builds walls of its own"
    readers = {f"{name}:{func}" for name, tree in trees.items()
               for func in _functions_using(
                   tree, lambda node: isinstance(node, ast.Attribute)
                   and node.attr == "_zero_set_walls")}
    assert readers == {"fan.py:walls"}, readers


def test_root_regions_are_built_by_one_helper():
    # roots.py and orbits.py build each root region on the fan's integer
    # rays through roots._root_region, the one user of the private
    # Region constructor outside lattice.py
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"roots.py", "orbits.py", "lattice.py"}

    def names(*wanted):
        return lambda node: ((isinstance(node, ast.Name)
                              and node.id in wanted)
                             or (isinstance(node, ast.Attribute)
                                 and node.attr in wanted))

    for name in ("roots.py", "orbits.py"):
        users = _functions_using(trees[name], names("Region"))
        assert users <= {"_root_region", "<module>"}, (name, users)
    private = {f"{name}:{func}" for name, tree in trees.items()
               for func in _functions_using(tree, names("_of_integer_rows"))}
    assert private == {"roots.py:_root_region", "lattice.py:feasible"}, \
        private
    users = {f"{name}:{func}" for name, tree in trees.items()
             for func in _functions_using(tree, names("_root_region"))}
    assert users == {"roots.py:roots_of_fan",
                     "orbits.py:admits_g_structure"}, users


def test_each_cone_lattice_fact_is_read_in_one_place():
    # smoothness and the saturated basis come from one reading per cone,
    # Fan._lattice: the containment in a unimodular supplied cone's key,
    # else one Smith form; the unimodular cones are listed by key, with
    # no face table, and the walls off the zero sets are decoded by
    # Cone.facets alone
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"fan.py", "orbits.py", "cli.py"}
    assert "invariant_factors" not in _names_in(trees["fan.py"]), \
        "fan.py reads invariant factors beside Fan._lattice"
    funcs = {n.name: n for n in ast.walk(trees["fan.py"])
             if isinstance(n, ast.FunctionDef)}
    assert "face_sets" not in _names_in(funcs["unimodular_cones"]), \
        "unimodular_cones builds face tables"
    assert "_inc" not in _names_in(funcs["_zero_set_walls"]), \
        "_zero_set_walls decodes zero sets of its own"
    users = {f"{name}:{func}" for name, tree in trees.items()
             for func in _functions_using(
                 tree, lambda node: isinstance(node, (ast.Name, ast.Attribute))
                 and "unimodular_cones" in (getattr(node, "id", None),
                                            getattr(node, "attr", None)))}
    assert users == {"fan.py:_lattice"}, users
    assert any(isinstance(op, ast.LtE) for node in ast.walk(funcs["_lattice"])
               if isinstance(node, ast.Compare) for op in node.ops), \
        "Fan._lattice tests no key for containment"


def test_a_coloring_is_checked_by_one_tangent_cone():
    # ColoredDivisor.__init__ tests one pointed cone, spanned by the tail
    # and the differences v - v_z, where it folded Minkowski sums, 2(k - 1)
    # cones and duals for k chosen points; coherent_check lifts that cone
    # to sigma-tilde instead of building the differences again
    path = next(p for p in SOURCES if p.name == "divisors.py")
    tree = ast.parse(path.read_text(), str(path))
    funcs = {n.name: n for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef)}
    init = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
                and n.name == "ColoredDivisor").body
    init = next(n for n in init if isinstance(n, ast.FunctionDef)
                and n.name == "__init__")
    assert "minkowski" not in _names_in(init), \
        "ColoredDivisor.__init__ folds Minkowski sums"
    check = funcs["coherent_check"]
    assert "tangent" in _names_in(check), "coherent_check lifts no tangent"
    loops = [n for n in ast.walk(check)
             if isinstance(n, (ast.For, ast.comprehension))]
    found = [f"{path.name}:{node.lineno}"
             for loop in loops for node in ast.walk(loop)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "vsub"]
    assert not found, f"coherent_check builds differences: {found}"


@pytest.mark.parametrize("name", ["divisors.py", "algebra.py"])
def test_rational_input_is_read_with_as_fraction(name):
    # Fraction("a") raises a bare ValueError and Fraction(None) a
    # TypeError; as_fraction raises InvalidInteger, and it takes a
    # Fraction or an int without its general reader, as algebra._number
    # did before it was folded in.  A one-argument Fraction() is left only
    # on constants
    assert {p.name for p in SOURCES} >= {name}
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text(), str(path))
    assert "_number" not in {n.name for n in ast.walk(tree)
                             if isinstance(n, ast.FunctionDef)}
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "Fraction"
        and len(node.args) == 1 and not node.keywords
        and not isinstance(node.args[0], ast.Constant)
    ]
    assert not found, f"one-argument Fraction() calls in {name}: {found}"


def readme_exit_rows():
    """{code: meaning} of the exit-code table in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text[text.index("Exit codes:"):].splitlines()[4:]
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        code, meaning = line.strip("|").split("|", 1)
        rows[int(code)] = meaning
    return rows


def test_exit_codes_match_the_readme_table():
    # an error class with a fixed exit code names it; the others exit with
    # their command family's code, 3 (fan) or 7 (divisor)
    from demazure import errors

    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type)
               and issubclass(cls, errors.DemazureError)}
    assert errors.DemazureError.exit_code is None
    codes = {cls.exit_code for cls in classes.values()} - {None}
    rows = readme_exit_rows()
    assert set(rows) <= {0, 3, 7} | codes
    assert codes <= set(rows)
    for code, meaning in rows.items():
        for name in set(re.findall(r"`(\w+)`", meaning)) & set(classes):
            own = classes[name].exit_code
            assert own == code or own is None and code in (3, 7), \
                f"{name} is in README row {code}, its exit_code is {own}"
    for name, cls in classes.items():
        if cls.exit_code is not None:
            assert f"`{name}`" in rows[cls.exit_code], name


def test_the_cli_grammar_and_exit_codes_are_written_once():
    # the table COMMANDS holds the grammar: argparse is built from it in
    # one loop, and main maps every DemazureError in one except clause
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), str(path))
    main = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert len([n for n in ast.walk(main)
                if isinstance(n, ast.ExceptHandler)]) == 1
    table_loops = [n for n in ast.walk(tree) if isinstance(n, ast.For)
                   and "COMMANDS" in ast.unparse(n.iter)]
    inside = {id(node) for loop in table_loops for node in ast.walk(loop)}
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and getattr(n.func, "attr", None) == "add_argument"]
    assert len(table_loops) == 1 and calls
    assert all(id(call) in inside for call in calls), \
        [call.lineno for call in calls if id(call) not in inside]


def test_the_lnd_image_is_written_from_integers():
    # _cmd_lnd writes exp(sD)f from Flow.integer_image's (d, {key: n});
    # reading it back through Flow.at (formerly Flow.wrap) built one
    # Fraction per term only for the writer to split it into [num, den]
    # again, by encode_rational
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert set(trees) >= {"cli.py", "serialize.py"}
    funcs = {(name, n.name): n for name, tree in trees.items()
             for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    lnd = _names_in(funcs["cli.py", "_cmd_lnd"])
    assert "image_to_json" in lnd, "_cmd_lnd does not call image_to_json"
    found = sorted(lnd & {"wrap", "at"})
    assert not found, f"_cmd_lnd builds the image as an element: {found}"
    for name in ("element_to_json", "image_to_json"):
        found = sorted(_names_in(funcs["serialize.py", name])
                       & {"encode_rational", "Fraction"})
        assert not found, f"{name} uses {found}"
