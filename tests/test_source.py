import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import kroncave
from kroncave.conjectures import SCANS
from kroncave.partitions import conjugate

PACKAGE = Path(kroncave.__file__).resolve().parent

# Modules that no command needs at import time: a scan imports the process
# pool when it starts one, and records are NamedTuples. Importing them at
# module level puts their start-up cost on every command.
PARALLEL_ONLY = ("concurrent.futures", "multiprocessing", "dataclasses")


def package_trees():
    """(file name, syntax tree) of every module in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def package_nodes(matches):
    """file:line of every syntax node in the package for which matches(node) holds."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in package_trees()
        for node in ast.walk(tree)
        if matches(node)
    ]


def test_package_has_no_assert_statements():
    """Invariant checks are explicit exceptions, so they still run under python -O."""
    found = package_nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, found


def unused_imports(tree):
    """(line, name) for each name an import binds that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_package_modules_import_only_what_they_use():
    """An import nothing reads is dead weight on every command's start-up.

    __init__.py is left out: its imports are the package's exports.
    """
    found = [
        f"{name}:{line} {unused}"
        for name, tree in package_trees()
        if name != "__init__.py"
        for line, unused in unused_imports(tree)
    ]
    assert not found, found


def reads_environment(node):
    """os.environ or os.getenv, as an attribute or a name imported from os."""
    names = ("environ", "getenv")
    if isinstance(node, ast.Attribute):
        return node.attr in names and isinstance(node.value, ast.Name) and node.value.id == "os"
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in names for alias in node.names)
    return False


def test_package_reads_no_environment_variable():
    """Flags and arguments are the only settings, so no variable can change an answer."""
    found = package_nodes(reads_environment)
    assert not found, found


def module_level_imports(tree):
    """(line, imported names) for each import that runs when the module is imported.

    Function bodies run later, so imports inside them are left out; class
    bodies and top-level if/try blocks run at import time and are walked.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, [f"{node.module}.{alias.name}" for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_import_of_parallel_only_modules():
    found = [
        f"{name}:{line}"
        for name, tree in package_trees()
        for line, names in module_level_imports(tree)
        if any(n == m or n.startswith(m + ".") for n in names for m in PARALLEL_ONLY)
    ]
    assert not found, sorted(found)


FOOTPRINT_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import kroncave, kroncave.cli
from kroncave.conjectures import check_payload, scan
sequential = scan("midpoint-reduced", 4).canonical_json()
assert check_payload("schur_lr", ((2,), (2,))).passed
print(sorted(m for m in ("concurrent.futures.process", "multiprocessing", "dataclasses",
                         "inspect") if m in sys.modules))
print(scan("midpoint-reduced", 4, jobs=2).canonical_json() == sequential)
"""


def test_serial_commands_load_no_process_pool():
    """Importing the package and running serial checks loads no pool modules.

    python -I ignores PYTHONPATH, so the script puts the package on sys.path
    itself. The parallel scan, run last, gives the same canonical bytes.
    """
    proc = subprocess.run(
        [sys.executable, "-I", "-c", FOOTPRINT_SCRIPT, str(PACKAGE.parent)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


# The functions that may name the character row store: every class sum reads
# a row through _row_on or _full_row, so there is one path through a row.
ROW_STORE_USERS = {"_row_on", "_full_row", "_packed_table", "clear_caches"}


def uses_outside(tree, name, allowed):
    """Lines where name is read or written outside the functions in allowed.

    A module-level assignment to name, which creates it, is left out.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        named = (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and (node.asname or node.name) == name)
        )
        if named and function not in allowed:
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for statement in tree.body:
        if isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            targets = getattr(statement, "targets", [])
        if targets and all(isinstance(t, ast.Name) and t.id == name for t in targets):
            continue
        visit(statement, None)
    return found


def test_character_rows_are_read_only_through_row_on():
    found = [
        f"{name}:{line}"
        for name, tree in package_trees()
        for line in uses_outside(tree, "_ROWS", ROW_STORE_USERS)
    ]
    assert not found, found


ROW_NAMES = {spelling for name in SCANS for spelling in (name, name.replace("_", "-"))}


def compares_to_a_row_name(node):
    """A comparison with a SCANS row name, spelled with '_' or '-', as a string literal."""
    operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
    return any(isinstance(o, ast.Constant) and o.value in ROW_NAMES for o in operands)


def test_no_module_branches_on_a_row_name():
    """What a scan row needs is a fact of its SCANS entry, so a new row is one edit."""
    found = package_nodes(compares_to_a_row_name)
    assert not found, found


def test_every_larger_side_is_a_rule_on_the_parts():
    """A row's larger side is a rule on a payload's parts alone: it takes one
    parameter, no ring and no cache, and returns the partitions whose product
    check_payload computes. So no rule can thread the cache through itself."""
    for name, row in SCANS.items():
        params = inspect.signature(row.larger).parameters
        assert list(params) == ["parts"], (name, list(params))
        payloads, _ = row.payloads(6, row.ring.same_size, 3)
        for parts in payloads:
            factors = row.larger(parts)
            assert type(factors) is tuple and factors, (name, parts)
            for p in factors:
                assert type(p) is tuple, (name, parts, p)
                conjugate(p)  # raises ValueError unless p is a partition


# The only functions that read or write a persistent cache: the engine's
# stable product, and the scan that puts its pool workers' records.
CACHE_CALLERS = {
    ("coefficients.py", "reduced_tensor_decompose"),
    ("conjectures.py", "scan"),
}


def cache_calls(tree):
    """(enclosing function, line) of each get/put call on a name that holds
    a cache: one spelled with "cache", or a scan's view."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "put")
            and isinstance(node.func.value, ast.Name)
            and ("cache" in node.func.value.id.lower() or node.func.value.id == "view")
        ):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def test_only_the_stable_product_and_the_scan_touch_a_cache():
    found = {(name, function) for name, tree in package_trees() for function, _ in cache_calls(tree)}
    assert found == CACHE_CALLERS


def test_single_triple_functions_take_no_cache():
    """A cache holds whole stable products, so nothing reads or writes one triple."""
    params = {
        node.name: [a.arg for a in (*node.args.args, *node.args.kwonlyargs)]
        for _, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("reduced_kronecker", "check_murnaghan_littlewood")
    }
    assert params == {
        "reduced_kronecker": ["lam", "mu", "nu"],
        "check_murnaghan_littlewood": ["budget"],
    }


REPO = Path(__file__).resolve().parent.parent


def referenced_names(tree):
    """Every name a module reads, reads as an attribute, or imports from elsewhere.

    A def, class or assignment binds its name without reading it, so the
    module that defines a name does not count as using it.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used():
    """Each name the package exports is used by a package module, a demo or README.

    An export that nothing in the project uses is an API kept alive only by
    its own tests.
    """
    tree = dict(package_trees())["__init__.py"]
    exports = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    used = set()
    for name, module in package_trees():
        if name != "__init__.py":
            used |= referenced_names(module)
    for demo in sorted((REPO / "demos").glob("*.py")):
        used |= referenced_names(ast.parse(demo.read_text(), filename=str(demo)))
    readme = set(re.findall(r"\w+", (REPO / "README.md").read_text()))
    unused = [name for name in exports if name not in used and name not in readme]
    assert not unused, unused


def test_padded_tableau_counts_have_one_path():
    """Every padded count comes from partitions.padded_syt_count, in closed
    form, never from the hook formula run on a built padded shape."""
    found = [path.name for path in sorted(PACKAGE.glob("*.py")) if "syt_count(pad(" in path.read_text()]
    assert not found, found


def test_the_partition_rule_has_one_home():
    """Only partitions.conjugate says what a partition is; every other module
    validates through it, so no module has a rule of its own to drift."""
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "partitions.py" and "not a partition" in path.read_text()
    ]
    assert not found, found


def test_lr_coefficient_reaches_neither_lr_expand_nor_its_walk():
    """lr_coefficient is the oracle that tests compare lr_expand against, so it
    stays independent of the walk and of the rule that orients it."""
    tree = dict(package_trees())["coefficients.py"]
    function = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "lr_coefficient"
    )
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(function)}
    assert not names & {"lr_expand", "_lr_walk"}, sorted(names & {"lr_expand", "_lr_walk"})
