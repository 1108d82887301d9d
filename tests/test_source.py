"""Source-level rules for the package."""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "descentlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips assert statements, so an invariant check written
    # as one would silently vanish; raise an exception instead.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_the_package_sources_are_found():
    assert any(p.name == "processes.py" for p in SOURCES)


# The exact invariant checks made as a cache grows or a gate is built; each
# must raise ArithmeticError, whatever the interpreter's optimization level.
CHECKS = [
    ("families.py", "_next_count"),
    ("families.py", "_next_row"),
    ("families.py", "_power_sum_recurrence"),
    ("families.py", "_next_sums"),
    ("families.py", "two_jump_split"),
    ("batch.py", "_gates"),
    ("processes.py", "_StageTable._next_parts"),
    ("processes.py", "exact_marginal"),
]


def _function(path, qualname):
    node = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for name in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


@pytest.mark.parametrize("module, qualname", CHECKS, ids=lambda v: v)
def test_invariant_checks_raise_arithmetic_errors(module, qualname):
    path = next(p for p in SOURCES if p.name == module)
    raised = [node.exc for node in ast.walk(_function(path, qualname))
              if isinstance(node, ast.Raise)]
    assert any(isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ArithmeticError"
               for exc in raised), f"{module}:{qualname} raises no ArithmeticError"


def _reached_names(path, qualname):
    """Every name and attribute read in the function, and in the module's
    own functions it reaches by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, names = [_function(path, qualname)], set()
    while todo:
        for node in ast.walk(todo.pop()):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name is None:
                continue
            if name in defs and name not in names:
                todo.append(defs[name])
            names.add(name)
    return names


# Row means and moment tables read the power sums that each family's store
# grows by recurrence; a rebuilt triangle would hold every row to n (about
# 0.3 GB for derangements at n = 1000).
NO_ROWS = [
    ("families.py", "row_means"),
    ("families.py", "_Store._next_mean"),
    ("moments.py", "moment_table"),
    ("moments.py", "fourth_moment_scan"),
    ("moments.py", "involution_lambda_recurrence_residual"),
    ("moments.py", "derangement_lambda_recurrence_residual"),
]


@pytest.mark.parametrize("module, qualname", NO_ROWS, ids=lambda v: v)
def test_means_and_moment_tables_build_no_rows(module, qualname):
    path = next(p for p in SOURCES if p.name == module)
    used = _reached_names(path, qualname) & {"rolled_rows", "_next_row", "descent_triangle",
                                             "triangle_row_pmf"}
    assert not used, f"{module}:{qualname} reaches {sorted(used)}"


# ``clt`` and the condition scans step two rolling rows through
# ``families.rolled_rows``; a ``descent_triangle`` would hold every row to
# the largest n they read.
ROLLED = [
    ("diagnostics.py", "clt_table"),
    ("diagnostics.py", "condition_scan"),
]


@pytest.mark.parametrize("module, qualname", ROLLED, ids=lambda v: v)
def test_clt_tables_and_condition_scans_read_no_store(module, qualname):
    path = next(p for p in SOURCES if p.name == module)
    used = _reached_names(path, qualname) & {"descent_triangle", "triangle_row_pmf", "_STORES"}
    assert not used, f"{module}:{qualname} reaches {sorted(used)}"


# The composition law factors over ending positions, and a sum of
# independent terms is the same walk with every step of lag 1: one fold,
# ``families._position_moments``, owns that recurrence for the identity
# sums, the psi-variance check and the binary-sum moments, so no reader
# keeps a hand-written copy.  The derangement drift moments E[A^r] are to
# read it next.
FOLD_READERS = [
    ("diagnostics.py", "identity_check"),
    ("diagnostics.py", "psi_variance_check"),
    ("compositions.py", "binary_sum_moments"),
]


@pytest.mark.parametrize("module, qualname", FOLD_READERS, ids=lambda v: v)
def test_position_sums_read_the_one_fold(module, qualname):
    path = next(p for p in SOURCES if p.name == module)
    assert "_position_moments" in _reached_names(path, qualname)


def test_the_hand_written_product_sum_is_gone():
    defined = {node.name for tree in _trees().values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert "_product_sum" not in defined and "_position_moments" in defined


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in SOURCES}


def _callers(tree, name, arg=None):
    """The innermost function around each call of ``name`` in the tree (with
    ``arg``, only the calls whose first argument reads as it)."""
    def called(node):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)) and (
            arg is None or node.args and ast.unparse(node.args[0]) == arg)

    return [owner for _, owner in _owners(tree, called)]


# Rows come from one place: ``families.rolled_rows`` steps two rows through
# the recurrence and keeps none.  When the family store kept every row asked
# for, ``triangle --family derangement --n 1000`` peaked at 394 MB.
def test_rows_are_built_by_rolled_rows_alone():
    callers = {module: _callers(tree, "_next_row") for module, tree in _trees().items()}
    assert {m: c for m, c in callers.items() if c} == {"families.py": ["rolled_rows"]}


# Only the readers of row entries roll rows: means, moments and the lambda
# checks read the power sums in each family's store.
def test_only_the_readers_of_row_entries_roll_rows():
    callers = {module: sorted(_callers(tree, "rolled_rows")) for module, tree in _trees().items()}
    assert {m: c for m, c in callers.items() if c} == {
        "cli.py": ["cmd_triangle"],
        "diagnostics.py": ["clt_table", "condition_scan", "identity_check"],
        "families.py": ["descent_triangle"],
    }


def test_the_family_store_keeps_no_rows():
    store = _function(next(p for p in SOURCES if p.name == "families.py"), "_Store")
    names = {node.attr for node in ast.walk(store) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in store.body if isinstance(node, ast.FunctionDef)}
    assert "rows" not in names


def test_nothing_reads_stored_rows():
    reads = [(module, node.lineno) for module, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "through"
             and getattr(node.value, "attr", None) == "rows"]
    assert not reads, f".rows.through read at {reads}"


def test_batch_finals_calls_no_np_where():
    # The batch kernel picks each replicate's jump type by arithmetic on
    # the type flag, not by a masked select: over 2**16 int64 lanes on
    # 2 vCPUs, ``np.where(two, a, b)`` took about 350 us (355 and 347 us in
    # two measurements) against 95-97 us for ``b + (a - b) * two``, while
    # one elementwise op took 15-35 us.
    path = next(p for p in SOURCES if p.name == "batch.py")
    calls = [node.lineno for node in ast.walk(_function(path, "batch_finals"))
             if isinstance(node, ast.Call)
             and "where" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    assert not calls, f"batch_finals calls where() at lines {calls}"


def _owners(tree, match):
    """(line, qualified name of the innermost function or class) of each
    node in the tree that ``match`` accepts."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((child.lineno, owner))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def _str_calls(path):
    """(line, owner) of each call of ``str``, or ``str`` passed to a call."""
    def calls_str(node):
        return isinstance(node, ast.Call) and any(
            getattr(f, "id", None) == "str" for f in (node.func, *node.args))

    return _owners(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), calls_str)


# What a recorded run prints is formed in ``processes``, which owns the run's
# walk, by these functions alone; only the CLI calls ``_run_text``.
RUN_TEXT = {"_run_text", "_ratio_text", "_StageTable.alpha_text"}


def test_only_the_cli_calls_str():
    # CPython refuses ``str`` of an int past its digit limit (4300 digits by
    # default) unless the process lifts it, as ``cli.main`` does; so the
    # library formats nothing, and exact values of any size stay usable.
    # The one exception is the CLI's own output of a recorded run, formed in
    # ``processes`` by ``RUN_TEXT``, which no public function reaches.
    offenders = {p.name: [line for line, owner in _str_calls(p)
                          if p.name != "processes.py" or owner not in RUN_TEXT]
                 for p in SOURCES if p.name != "cli.py"}
    assert not any(offenders.values()), f"str() calls outside cli.py: {offenders}"
    callers = {module: _callers(tree, "_run_text") for module, tree in _trees().items()}
    assert {m: c for m, c in callers.items() if c} == {
        "cli.py": ["_sim_chunk", "cmd_decompose"]}
    path = next(p for p in SOURCES if p.name == "processes.py")
    tree = _trees()["processes.py"]
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    reaching = [name for name in public
                if {"_run_text", "_ratio_text", "alpha_text"} & _reached_names(path, name)]
    assert not reaching, f"public names of processes that form text: {reaching}"


def _imported_packages(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_only_families_imports_threading():
    # The per-index caches grow, and lock, in one place: ``families._Grown``.
    offenders = [p.name for p in SOURCES
                 if p.name != "families.py" and "threading" in _imported_packages(p)]
    assert not offenders, f"modules importing threading: {offenders}"


def _imported_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_only_the_engines_import_the_exact_draw_constant():
    # The exact test ``u * den < c * 2**64`` is written once, in
    # ``rng.Jump.draw``; the scalar process and the batch engine's ceilings
    # are the only other places 2**64 may enter a draw.
    allowed = {"rng.py", "processes.py", "batch.py"}
    offenders = [p.name for p in SOURCES
                 if p.name not in allowed and "TWO64" in _imported_names(p)]
    assert not offenders, f"modules importing TWO64: {offenders}"


def _private_definitions(tree):
    """(name, defining statement) of each module-level name with one
    leading underscore: functions, classes and assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _loaded_names(nodes):
    return {n.id for top in nodes for n in ast.walk(top)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _imported_from(tree, module):
    """{local name: imported name} of the relative imports from ``module``."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module == module
            for alias in node.names}


def test_every_private_module_name_is_read_in_the_package():
    # A helper that lost its last caller stays behind unnoticed.  A name
    # counts as read when its own module reads it outside its definition,
    # or another module imports it and reads it.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in SOURCES}
    loaded = {module: _loaded_names([tree]) for module, tree in trees.items()}
    through_imports = {
        module: {name for other, tree in trees.items() if other != module
                 for local, name in _imported_from(tree, module).items()
                 if local in loaded[other]}
        for module in trees}
    stale = [f"{module}.{name}" for module, tree in trees.items()
             for name, node in _private_definitions(tree)
             if name not in through_imports[module]
             and name not in _loaded_names(n for n in tree.body if n is not node)]
    assert not stale, f"private names nothing in the package reads: {stale}"


def test_only_rng_writes_the_splitmix64_constants():
    # The golden-ratio increment and the finalizer's two multipliers are
    # written once, in ``rng.py``; the batch engine and any lane-packed or
    # vectorized form import them, so no copy can drift.
    from descentlab.rng import GOLDEN, MIX_MULTIPLIERS

    constants = {GOLDEN, *MIX_MULTIPLIERS}

    def written(path):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        return {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in constants}

    assert written(next(p for p in SOURCES if p.name == "rng.py")) == constants
    offenders = {p.name: sorted(map(hex, written(p))) for p in SOURCES if p.name != "rng.py"}
    assert not any(offenders.values()), f"SplitMix64 constants outside rng.py: {offenders}"


LIBRARY = {"families", "compositions", "processes", "moments", "diagnostics", "batch"}


def _load_time_imports(path):
    """The package modules that ``path`` imports as it loads: every import
    statement outside a function body."""
    todo, names = list(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body), set()
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else
                         [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            names.update(m.split(".")[1] for m in modules
                         if m.startswith("descentlab."))
    return names


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_the_package_and_the_cli_load_no_library_module(name):
    # A command's start-up pays for the modules it runs and no others:
    # ``import descentlab`` resolves its names on first use, and each CLI
    # command imports its own modules when it runs.
    path = next(p for p in SOURCES if p.name == name)
    loaded = _load_time_imports(path) & LIBRARY
    assert not loaded, f"{name} imports {sorted(loaded)} as it loads"


def test_only_batch_imports_numpy():
    offenders = [p.name for p in SOURCES
                 if p.name != "batch.py" and "numpy" in _imported_packages(p)]
    assert not offenders, f"modules importing numpy: {offenders}"


def test_no_module_imports_dataclasses():
    # ``@dataclass`` execs each class's methods as the module loads, about a
    # millisecond a class, on every CLI command's start-up; records are
    # ``NamedTuple``s or small slotted classes.
    offenders = [p.name for p in SOURCES if "dataclasses" in _imported_packages(p)]
    assert not offenders, f"modules importing dataclasses: {offenders}"


# The output encoding is written once: ``cli._write`` streams every table,
# in CSV, TSV or JSON, a row at a time.
def test_only_the_table_writer_calls_json_dumps():
    callers = _callers(_trees()["cli.py"], "dumps")
    assert callers and set(callers) == {"_write"}, f"json.dumps called from {callers}"


def test_the_cli_defines_no_table_class():
    tree = _trees()["cli.py"]
    assert "Table" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def test_the_triangle_command_builds_no_text():
    # its rows go to the writer; no f-string, join, write or dumps of its own
    triangle = _function(next(p for p in SOURCES if p.name == "cli.py"), "cmd_triangle")
    built = [node.lineno for node in ast.walk(triangle)
             if isinstance(node, ast.JoinedStr)
             or isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                 "write", "join", "dumps", "format")]
    assert not built, f"cmd_triangle builds text at lines {built}"


# Each family's recurrence has one owner, its term table ``families._TERMS``:
# the processes' stage laws and the two-jump split read each lag's law and
# weight off it (``families._LAGS``).  When each kind's law was written out
# by hand in ``_stage_law``, and the split's weight as m - 1 or 1, the
# recurrence was stated three times.
def _compared_members(module, qualname, enum):
    """The members of ``enum`` that a comparison in the function names,
    directly or through a module global bound to the member."""
    mod = importlib.import_module(f"descentlab.{module[:-3]}")
    aliases = {name: value.name for name, value in vars(mod).items() if isinstance(value, enum)}
    path = next(p for p in SOURCES if p.name == module)
    return {aliases.get(n.id, n.id) if isinstance(n, ast.Name) else n.attr
            for node in ast.walk(_function(path, qualname)) if isinstance(node, ast.Compare)
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id in aliases
            or isinstance(n, ast.Attribute) and n.attr in enum.__members__}


def test_the_stage_laws_and_the_split_have_no_per_kind_branch():
    from descentlab.tags import Family, ProcessKind

    assert _compared_members("processes.py", "_stage_law", ProcessKind) == set()
    assert _compared_members("families.py", "two_jump_split", Family) <= {"EULERIAN"}
    defined = {name for name, _ in _private_definitions(_trees()["processes.py"])}
    assert not defined & {"_succ", "_ident", "_STEP"}
    assert "_lag_law" in _reached_names(next(p for p in SOURCES if p.name == "processes.py"),
                                        "_stage_law")


# A command's preconditions and output have one owner, ``cli.main``: it
# refuses an ``--n`` below the first row or stage and opens ``--out`` before
# any command works, then hands the file to ``cmd_*(args, out)``.  When each
# command opened ``--out`` itself, ``moments --family derangement --n 600``
# computed its whole table (0.37 s on 2 vCPUs) before refusing an unwritable
# path.
def test_only_main_opens_the_out_file():
    assert _callers(_trees()["cli.py"], "_open_out", "args.out") == ["main"]


def test_only_main_checks_the_first_row_in_the_cli():
    assert _callers(_trees()["cli.py"], "_reaching") == ["main"]


# What a recorded run prints has one owner: ``processes._run_text`` turns the
# run's walk into each part's x, alpha and gamma text and the residual text,
# and the CLI's audit row and ``decompose`` table stream them.  When the CLI
# built the audit row from the walk itself, the x text, the gamma expansion
# and the residual were each written twice, there and in ``processes``.
def test_a_recorded_run_prints_through_one_function():
    trees = _trees()
    cli = trees["cli.py"]
    private = {name for name in _imported_from(cli, "processes").values()
               if name.startswith("_")}
    assert private == {"_run_text"}
    attributes = {node.attr for node in ast.walk(cli) if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_") and not node.attr.startswith("__")}
    assert not attributes, f"cli.py reads private attributes {attributes}"
    caches = [node.lineno for node in cli.body
              if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, (
                  ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
                  ast.Call))]
    assert not caches, f"cli.py keeps module-level state at lines {caches}"

    def shifts(node):
        return isinstance(node, ast.Attribute) and node.attr in ("shift_num", "shift_den")

    def owners(find):
        found = {module: sorted(set(find(tree))) for module, tree in trees.items()}
        return {module: names for module, names in found.items() if names}

    # x from a part's shift, the factors' expansion and the residual: each in
    # one function, read as numbers by ``_records`` and as text by ``_run_text``
    assert owners(lambda tree: [o for _, o in _owners(tree, shifts)]) == {
        "processes.py": ["_walked"]}
    assert owners(lambda tree: _callers(tree, "_telescoped_sum")) == {
        "processes.py": ["_walked", "reconstruct"]}
    assert owners(lambda tree: _callers(tree, "_walked")) == {
        "processes.py": ["_records", "_run_text"]}


def test_every_command_takes_its_args_and_out_file():
    tree = _trees()["cli.py"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_emit" not in functions
    commands = {name: [a.arg for a in node.args.args] for name, node in functions.items()
                if name.startswith("cmd_")}
    assert len(commands) == 6
    assert all(params == ["args", "out"] for params in commands.values()), commands


# The first-row refusal is written once, in ``families._reaching``; an engine
# that checks ``n_min`` itself words the refusal its own way.
FIRST_ROW = [
    ("processes.py", "simulate"),
    ("processes.py", "exact_marginal"),
    ("batch.py", "batch_finals"),
    ("moments.py", "_row_sums"),
]


@pytest.mark.parametrize("module, qualname", FIRST_ROW, ids=lambda v: v)
def test_engines_leave_the_first_row_check_to_reaching(module, qualname):
    path = next(p for p in SOURCES if p.name == module)
    compared = [node.lineno for node in ast.walk(_function(path, qualname))
                if isinstance(node, ast.Compare)
                and "n_min" in {getattr(n, "attr", None) for n in ast.walk(node)}]
    assert not compared, f"{module}:{qualname} compares with n_min at lines {compared}"
    assert "_reaching" in _reached_names(path, qualname)
