"""Docstring references and imports: every :func:`name` in a library
docstring names a function that its module defines or imports, and every
name a library module imports is used in it (the package's __init__
imports exactly its __all__), and every private top-level function is
used by library code, and every field table a function binds to a local
name is read in it, so neither a reference, an import, a helper nor a
table binding outlives the code it serves (helpers only tests need live
in tests/oracles.py); that tests/oracles.py imports no private name of
sl2q.products, so no oracle leans on the code it checks; that the checks
read their parameter generator only through the sampler, so drawing a
loop's batches ahead keeps the draws; and every failure part of each check
is named by a test that runs that check, so no failure path goes
untested."""

import ast
import re
from pathlib import Path

import sl2q
from sl2q.checks import ALL_CHECKS
from sl2q.field import Field

FUNC_REF = re.compile(r":func:`~?([\w.]+)`")


def docstrings(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def imported_names(tree: ast.Module) -> set[str]:
    # every name the module's top-level imports bind, __future__ aside
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def functions_in_scope(tree: ast.Module) -> set[str]:
    # the module's own top-level functions and every name it imports
    return imported_names(tree) | {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_docstring_function_references_resolve():
    refs, stale = 0, []
    for path in sorted(Path(sl2q.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = functions_in_scope(tree)
        for doc in docstrings(tree):
            for name in FUNC_REF.findall(doc):
                refs += 1
                if name not in scope:
                    stale.append(f"{path.name}: {name}")
    assert refs, "no :func: reference found; the pattern is stale"
    assert not stale


def test_every_import_is_used():
    unused = []
    for path in sorted(Path(sl2q.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = imported_names(tree)
        if path.name == "__init__.py":
            [exported] = [ast.literal_eval(node.value) for node in tree.body
                          if isinstance(node, ast.Assign)
                          and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
            assert imported == set(exported)
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused


def test_every_private_function_is_used():
    # a top-level _name function of a library module is live when some
    # library code outside its own definition names it
    paths = sorted(Path(sl2q.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    defs = [node for tree in trees for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")]
    assert defs, "no private function found; the lint is stale"
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, id(node))
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    dead = []
    for fn in defs:
        own = {id(node) for node in ast.walk(fn)}
        if not any(name == fn.name and i not in own for name, i in refs):
            dead.append(fn.name)
    assert not dead


def test_oracles_import_nothing_private_from_products():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "sl2q.products"
             for alias in node.names]
    assert names, "oracles.py imports nothing from sl2q.products; the lint is stale"
    assert not [name for name in names if name.startswith("_")]


SAMPLERS = {"_take", "_take_rounds"}


def test_parameter_rng_is_read_only_through_the_sampler():
    # trace_formulas draws all of a loop's batches before it compares them,
    # which makes the draws of a batch-by-batch loop only while nothing else
    # reads the generator: so every read of the parameter generator that a
    # check binds from _formula_samples is the first argument of a sampler
    # call, or the operand of an identity test (`is None` draws nothing)
    tree = ast.parse((Path(sl2q.__file__).parent / "checks.py").read_text())
    found, reads, stray = set(), 0, []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        rngs = {node.targets[0].elts[1].id for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "_formula_samples"}
        if not rngs:
            continue
        found.add(fn.name)
        allowed = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in SAMPLERS:
                allowed.add(id(node.args[0]))
            elif isinstance(node, ast.Compare) and all(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                allowed.update(id(x) for x in (node.left, *node.comparators))
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in rngs and isinstance(node.ctx, ast.Load):
                reads += 1
                if id(node) not in allowed:
                    stray.append(f"{fn.name}: line {node.lineno}")
    assert {"check_conjugation_formulas", "check_trace_formulas"} <= found, "the lint is stale"
    assert reads
    assert not stray


# the arithmetic tables of a Field (_add, _mul, _sq, ...), not its cache
FIELD_TABLES = {name for name in Field.__slots__
                if name.startswith("_") and not name.startswith("__") and name != "_cache"}


def table_bindings(fn: ast.FunctionDef):
    # (name, table) for each local name an assignment in fn binds to a field
    # table, as in `mul, add = F._mul, F._add` or `sq = F._sq`
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        pairs = (zip(target.elts, value.elts)
                 if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                 else [(target, value)])
        for t, v in pairs:
            if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr in FIELD_TABLES:
                yield t.id, v.attr


def test_every_field_table_binding_is_read():
    bound, unread = 0, []
    for path in sorted(Path(sl2q.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for name, table in table_bindings(fn):
                bound += 1
                if name not in read:
                    unread.append(f"{path.name}: {fn.name} binds {name} = F.{table}")
    assert bound, "no field table binding found; the lint is stale"
    assert not unread


# failure parts that no test can reach, by check: each fails only when the
# field tables are wrong
UNREACHABLE_PARTS = {
    ("even_char_bounds", "upper_upper_traces"):
        "squaring is a bijection of GF(2^m), so the q traces i*i that "
        "upper_upper_family has pinned are all of GF(q)",
    ("min_class_bounds", "row_slopes"):
        "each slope is nonzero by the class it is read off: r - 1/r as r*r != 1 "
        "for a D class, w*w - 4 (and w for even q) as x*x - w*x + 1 is "
        "irreducible for a W class, and u != 0 for a U representative",
    ("odd_char_bounds", "companion_companion_traces"):
        "checked once per field: an odd field has (q + 1)/2 squares, 0 among "
        "them, and -4 is a non-square where W(0) exists, as x*x + 1 is then "
        "irreducible and -1 a non-square",
}
# a part as a test names it: {"part": "name", ...} or ["part"] == "name"
PART_REF = re.compile(r'"part"(?::|\]\s*==)\s*"(\w+)"')


def literal_strings(node: ast.expr) -> set[str]:
    # the strings an expression of literals and conditional expressions takes
    if isinstance(node, ast.IfExp):
        return literal_strings(node.body) | literal_strings(node.orelse)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def failure_parts() -> set[tuple[str, str]]:
    # (check, part) for every part a check can fail: a `part=` argument, a
    # literal or a name bound to literals, or the first argument of a
    # nested function whose first parameter is `part` (value_set_counts'
    # flag)
    tree = ast.parse((Path(sl2q.__file__).parent / "checks.py").read_text())
    out, unresolved = set(), []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("check_")):
            continue
        check = fn.name.removeprefix("check_")
        bound: dict[str, set[str]] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.setdefault(target.id, set()).update(literal_strings(node.value))
        flags = {node.name for node in ast.walk(fn)
                 if isinstance(node, ast.FunctionDef) and node.args.args
                 and node.args.args[0].arg == "part"}
        for node in ast.walk(fn):
            if isinstance(node, ast.keyword) and node.arg == "part":
                arg = node.value
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in flags
                  and node.args):
                arg = node.args[0]
            else:
                continue
            names = bound.get(arg.id, set()) if isinstance(arg, ast.Name) else literal_strings(arg)
            if not names:
                unresolved.append(f"{fn.name}: line {node.lineno}")
            out.update((check, name) for name in names)
    assert not unresolved, "a part the lint cannot read"
    return out


def checks_run(node: ast.AST) -> set[str]:
    # the checks a test or a parameter set runs: by a check_<name> function
    # it names, or by a check's name as a string (ALL_CHECKS[check])
    out = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)):
            name = n.id if isinstance(n, ast.Name) else n.attr
            if name.startswith("check_") and name.removeprefix("check_") in ALL_CHECKS:
                out.add(name.removeprefix("check_"))
        elif isinstance(n, ast.Constant) and n.value in ALL_CHECKS:
            out.add(n.value)
    return out


def parts_named_by_tests() -> set[tuple[str, str]]:
    # (check, part) for each part that a test asserts while it runs that
    # check: its body alone, or its body with one parameter set of a
    # literal parametrize list
    named = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        if path == Path(__file__):
            continue
        source = path.read_text()
        for fn in ast.parse(source).body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_")):
                continue
            body = (checks_run(ast.Module(fn.body, [])),
                    set(PART_REF.findall(ast.get_source_segment(source, fn))))
            params = [p for d in fn.decorator_list
                      if isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "parametrize"
                      and len(d.args) > 1 and isinstance(d.args[1], (ast.List, ast.Tuple))
                      for p in d.args[1].elts]
            units = [(body[0] | checks_run(p),
                      body[1] | set(PART_REF.findall(ast.get_source_segment(source, p))))
                     for p in params] or [body]
            named.update((check, part) for checks, parts in units
                         for check in checks for part in parts)
    return named


def test_every_failure_part_is_named_by_a_test():
    parts = failure_parts()
    assert {check for check, _ in parts} >= {"value_set_counts", "min_class_bounds"}, \
        "the lint is stale"
    named = parts_named_by_tests()
    assert set(UNREACHABLE_PARTS) <= parts - named, "an exception is stale"
    assert parts - named - set(UNREACHABLE_PARTS) == set()
