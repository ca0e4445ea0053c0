"""The package's public surface, read from the source with `ast`.

A module imports only names it uses, and every name `padicdyn/__init__.py`
exports, by import or served on first use, is used by some other module of
the package, unless KEEP names the paper claim it serves; so is every public
method and property of an exported class, unless KEEP_MEMBERS names its
claim.  One function inverts a unit mod p^N, padic.py alone defines the
arithmetic on (valuation, unit) pairs, the Newton step of x0 and of the
Gibbs field u, and the Hensel lift moduli, one writes JSON to stdout, and the
open Ball alone tests ball membership.  Sums and comparisons find the order
of a residue below p^N by galloping, never by one division per power of p.
The process-wide memos live in cli.py alone, and every one is cleared before
each test.
Every CLI subcommand names one `_cmd_*` body, read from the built parser.
"""
import argparse
import ast
from pathlib import Path

from padicdyn import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "padicdyn"
CONFTEST = Path(__file__).resolve().parent / "conftest.py"

# exported names no other module uses, each with the claim that needs it
KEEP = {
    "log_p": "acceptance criterion 1: exp_p and log_p are mutually inverse",
    "partition_fn": "Z_n normalises mu_h^(n), and ROADMAP item 4 reads ord_p Z_n",
}

# public methods and properties of exported classes that no module calls,
# each with the claim that needs it; instance attributes are not members here
KEEP_MEMBERS = {
    "RepellerGeometry.subshift_metric":
        "acceptance criterion 7: the shift coding is an isometry",
    "RepellerGeometry.incidence_matrix":
        "the repeller is coded by the full 2-shift (ROADMAP item 8)",
    "GibbsField.with_component":
        "acceptance criterion 9: perturbed fields fail compatibility",
    "PadicNumber.norm":
        "acceptance criterion 1: |.|_p is multiplicative and ultrametric",
    "MapParams.radius":
        "acceptance criteria 4 and 6: |g'(x1)|_p = 1/r, and k scales distances "
        "on the repeller balls by 1/r, r = |b - 1|_p",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> dict[str, ast.Module]:
    return {path.name: _tree(path) for path in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    return names


def _exports(tree: ast.Module) -> set[str]:
    """The names __init__.py exports: those its top-level `from .module
    import` statements bind, and the Gibbs and symbolic names its module
    __getattr__ serves on first use (_ON_FIRST_USE)."""
    names = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names}
    lazy = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "_ON_FIRST_USE")
    return names.union(*ast.literal_eval(lazy).values())


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_unused_imports():
    unused = {
        name: sorted(_imported(tree) - _used(tree))
        for name, tree in _modules().items() if name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}


def test_every_export_has_a_caller_or_a_claim():
    modules = _modules()
    exported = _exports(modules.pop("__init__.py"))
    used = set().union(*(_used(tree) for tree in modules.values()))
    assert sorted(exported - used - set(KEEP)) == []
    # a kept name that gains a caller leaves KEEP
    assert sorted(set(KEEP) & used) == []
    assert set(KEEP) <= exported


def _members(modules: dict[str, ast.Module], classes: set[str]) -> set[str]:
    """Class.member for every public method and property of the classes."""
    return {
        f"{node.name}.{item.name}"
        for tree in modules.values() for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in classes
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def test_every_member_has_a_caller_or_a_claim():
    modules = _modules()
    exported = _exports(modules.pop("__init__.py"))
    members = _members(modules, exported)
    used = set().union(*(_used(tree) for tree in modules.values()))
    uncalled = {member for member in members if member.split(".")[1] not in used}
    assert sorted(uncalled - set(KEEP_MEMBERS)) == []
    # a kept member that gains a caller leaves KEEP_MEMBERS
    assert sorted(set(KEEP_MEMBERS) - uncalled) == []


def _is_inverse(node: ast.AST) -> bool:
    """A call pow(base, -1, modulus), positional or by keyword."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow"):
        return False
    exponents = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "exp"]
    for exponent in exponents:
        try:
            if ast.literal_eval(exponent) == -1:
                return True
        except ValueError:
            pass
    return False


def _enclosing(tree: ast.Module, matches) -> list[str]:
    """The innermost function around each node for which matches(node) holds,
    a method as Class.method."""
    found = []

    def visit(node: ast.AST, where: str, cls: str = "") -> None:
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(where)
            if isinstance(child, ast.ClassDef):
                visit(child, where, f"{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls + child.name)
            else:
                visit(child, where, cls)

    visit(tree, "<module>")
    return found


def _found_in_package(matches) -> dict[str, list[str]]:
    found = {name: _enclosing(tree, matches) for name, tree in _modules().items()}
    return {name: where for name, where in found.items() if where}


def test_one_way_to_invert():
    assert _found_in_package(_is_inverse) == {"padic.py": ["_inv_unit"]}


# padic's rules on (valuation, unit) pairs, which the operators of
# PadicNumber, the map kernels and the Gibbs kernels share
PAIR_RULES = {"_sum", "_times", "_minus", "_divide", "_ZERO", "_ONE"}


def _defines(tree: ast.Module) -> set[str]:
    """Names a module binds by def, class or assignment, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_one_home_for_the_pair_rules():
    defined = {name: sorted(_defines(tree) & PAIR_RULES)
               for name, tree in _modules().items()}
    assert {name: rules for name, rules in defined.items() if rules} == {
        "padic.py": sorted(PAIR_RULES)}


# padic's Newton step to the fixed point of a quotient P/M of polynomials,
# which solves both x0 of g (fixedpoints) and the Gibbs field u (gibbs), and
# the Horner pass it runs
NEWTON_STEP = {"_horner", "_newton_step"}


def _doubles_in_a_loop(node: ast.AST) -> bool:
    """A while or for loop that doubles a name: k = 2 * k, also inside a call
    such as min(2 * k, N), k = k * 2, k = k << 1, k *= 2 or k <<= 1."""
    if not isinstance(node, (ast.While, ast.For)):
        return False

    def doubled(expr: ast.AST, name: str) -> bool:
        return any(isinstance(n, ast.BinOp) and (
            isinstance(n.op, ast.Mult)
            and sorted([ast.unparse(n.left), ast.unparse(n.right)]) == sorted(["2", name])
            or isinstance(n.op, ast.LShift)
            and [ast.unparse(n.left), ast.unparse(n.right)] == [name, "1"])
            for n in ast.walk(expr))

    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and doubled(stmt.value, t.id) for t in stmt.targets):
            return True
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name) and (
                (type(stmt.op), ast.unparse(stmt.value)) in ((ast.Mult, "2"), (ast.LShift, "1"))):
            return True
    return False


def test_one_newton_step_and_one_lift_schedule():
    defined = {name: sorted(_defines(tree) & NEWTON_STEP)
               for name, tree in _modules().items()}
    assert {name: found for name, found in defined.items() if found} == {
        "padic.py": sorted(NEWTON_STEP)}
    # no other Newton step of a fixed point: fixedpoints solves x0 with
    # padic's; the Newton on k^n(x) = x of symbolic is out of its reach, since
    # k^n is no quotient of fixed-degree polynomials
    steps = {name: sorted(n for n in _defines(tree) if "newton" in n.lower())
             for name, tree in _modules().items()}
    assert {name: found for name, found in steps.items() if found} == {
        "padic.py": ["_newton_step"], "symbolic.py": ["newton"]}
    # the doubling moduli p^2, p^4, ..., p^N of a Hensel lift are built once,
    # per context, and _inv_unit and sqrt_both loop over them
    assert _found_in_package(_doubles_in_a_loop) == {"padic.py": ["PrimeContext.__init__"]}


def _calls(name: str):
    """A matcher for a call of the bare name `name`."""
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def test_orders_below_p_to_the_n_are_galloped():
    # _sum and diff_valuation take the order of a residue below p^N from
    # _order; _vp, one division per power of p, is left to the unbounded
    # ints of from_rational
    assert _found_in_package(_calls("_order")) == {"padic.py": ["_sum", "diff_valuation"]}
    assert _found_in_package(_calls("_vp")) == {
        "padic.py": ["PrimeContext.from_rational", "PrimeContext.from_rational"]}


def _passes_closed(node: ast.AST) -> bool:
    """A call Ball(...) with a third argument or a closed= keyword."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Ball"
            and (len(node.args) > 2 or any(kw.arg == "closed" for kw in node.keywords)))


def _orders_a_norm_diff(node: ast.AST) -> bool:
    """A <, <=, > or >= comparison with a norm_diff(...) operand."""
    if not (isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)):
        return False
    return any(isinstance(operand, ast.Call) and ast.unparse(operand.func) == "norm_diff"
               for operand in [node.left, *node.comparators])


def test_one_way_to_test_ball_membership():
    # every ball is open, and membership is Ball.contains, not a norm compared
    assert _found_in_package(_passes_closed) == {}
    assert _found_in_package(_orders_a_norm_diff) == {}


def _writes_stdout(node: ast.AST) -> bool:
    """A json.dumps call, a print call without file=, or a use of sys.stdout."""
    if isinstance(node, ast.Call):
        func = ast.unparse(node.func)
        return func == "json.dumps" or (
            func == "print" and all(kw.arg != "file" for kw in node.keywords))
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"


def test_one_stdout_writer():
    # cli._emit alone formats and prints: one json.dumps, one print
    assert _found_in_package(_writes_stdout) == {"cli.py": ["_emit", "_emit"]}


def _is_lru_cache(decorator: ast.AST) -> bool:
    """@functools.lru_cache, with or without arguments."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Attribute) and decorator.attr == "lru_cache"
            and isinstance(decorator.value, ast.Name)
            and decorator.value.id == "functools") or (
        isinstance(decorator, ast.Name) and decorator.id == "lru_cache")


def _memos() -> set[str]:
    """module.function for every lru_cache-decorated function of the package."""
    return {
        f"{name[:-3]}.{node.name}"
        for name, tree in _modules().items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_lru_cache(d) for d in node.decorator_list)
    }


def _cleared_by_fixture() -> set[str]:
    """module.function for every module.function.cache_clear() in cold_memos."""
    fixture = next(node for node in ast.walk(_tree(CONFTEST))
                   if isinstance(node, ast.FunctionDef) and node.name == "cold_memos")
    return {
        f"{call.func.value.value.id}.{call.func.value.attr}"
        for call in ast.walk(fixture)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "cache_clear"
        and isinstance(call.func.value, ast.Attribute)
        and isinstance(call.func.value.value, ast.Name)
    }


def test_every_memo_is_cleared_before_each_test():
    memos = _memos()
    assert memos == {"cli._context", "cli._pair", "cli._couplings"}
    assert sorted(memos - _cleared_by_fixture()) == []


def _names_a_memo(node: ast.AST) -> bool:
    """functools.lru_cache or functools.cache, imported or read."""
    names = {"lru_cache", "cache"}
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in names for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def test_no_memo_outside_the_cli():
    # a derived value lives on the object it derives from (cached_property);
    # the process keeps objects in cli.py alone
    assert _found_in_package(_names_a_memo).keys() <= {"cli.py"}


def test_every_subcommand_names_one_body():
    parser = cli.build_parser()
    subs = next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))
    runs = {name: sub.get_default("run") for name, sub in subs.choices.items()}
    assert sorted(name for name, run in runs.items() if run is None) == []
    bodies = sorted(name for name in vars(cli) if name.startswith("_cmd_"))
    assert sorted(run.__name__ for run in runs.values()) == bodies
