"""The runtime is pure standard library: networkx and hypothesis are test-only.

Its records are NamedTuples, so the CLI never imports dataclasses.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import hyperzagreb
from hyperzagreb.enumeration import labeled_oracle, trees, unicyclic_graphs
from hyperzagreb.families import CATALOG
from hyperzagreb.graphs import classical_indices
from hyperzagreb.rooted import FormTables, form_tables
from hyperzagreb.transforms import join_vs_identify
from hyperzagreb.verify import closed_form_audit, lemma_suite, verify_class

PACKAGE = pathlib.Path(hyperzagreb.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def test_src_imports_only_stdlib_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "hyperzagreb" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def test_src_modules_use_every_name_they_import():
    # __init__ imports only to re-export; every other module must read each
    # name it binds by an import (annotations count, __future__ does not)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


def test_src_reads_every_private_module_name():
    # a module-level _function, _Class or _CONSTANT that nothing in src/
    # reads is a leftover helper; __dunder__ names are not private
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined.update((name, f"{path.name}:{node.lineno}") for name in names
                           if name.startswith("_") and not name.startswith("__"))
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert len(defined) >= 10
    assert [f"{where}: {name}" for name, where in defined.items() if name not in read] == []


def test_src_has_no_assert_statement():
    # python -O strips assert statements, so a guard in src/ raises
    # AssertionError explicitly and holds under every optimization level
    asserts = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        asserts += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)]
    assert asserts == []


def _reads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_src_defines_no_public_name_only_tests_reach():
    # a public function or class must be imported from its module by other
    # src/ code or by perfbench/, or read by code of its own module that is
    # reached; a public method must be named as an attribute there.  The
    # tests' own references (graph predicates, an edge-list writer) live in
    # tests/reference.py, not in src/.
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(p.read_text(), str(p)) for p in sorted(PERFBENCH.glob("*.py"))]
    assert len(bench) >= 5
    users = [tree for stem, tree in modules.items() if stem != "__init__"] + bench
    attributes = {n.attr for tree in users for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unreached = []
    for stem, tree in modules.items():
        roots = set()
        for user in users:
            for n in ast.walk(user):
                if isinstance(n, ast.ImportFrom) and n.module in (stem, f"hyperzagreb.{stem}"):
                    roots |= {alias.name for alias in n.names}
                elif isinstance(n, ast.Attribute) and stem in (
                        getattr(n.value, "id", None), getattr(n.value, "attr", None)):
                    roots.add(n.attr)
        defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        todo = list(roots.union(*(_reads(n) for n in tree.body if n not in defs.values())))
        reached = set()
        while todo:
            name = todo.pop()
            if name in defs and name not in reached:
                reached.add(name)
                todo += _reads(defs[name])
        for name, node in defs.items():
            if not name.startswith("_") and name not in reached:
                unreached.append(f"{stem}.{name}")
            if isinstance(node, ast.ClassDef):
                unreached += [f"{stem}.{name}.{m.name}" for m in node.body
                              if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                              and m.name not in attributes]
    assert unreached == []


# The builders that write a Graph's sorted rows themselves; every other
# graph goes through make_graph, which validates its edges.
ROW_WRITERS = {
    "graphs.make_graph",
    "rooted.form_graph",
    "codec.decode_graph6",
    "families.cycle_with_stars",
}


def graph_calls(node, owner):
    """The innermost enclosing function of each direct Graph(...) call below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            f = child.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "Graph":
                yield owner
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from graph_calls(child, inner)


def test_only_the_row_writers_call_graph():
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        callers += [f"{path.stem}.{owner}" for owner in graph_calls(tree, "<module>")]
    assert sorted(callers) == sorted(ROW_WRITERS)


# Methods of random.Random whose algorithms Python's reproducibility promise
# does not cover; the lemma suite's pinned bytes read only getrandbits and
# random().
UNPINNED_DRAWS = {"randrange", "randint", "sample", "choice", "choices", "shuffle", "uniform"}


def test_src_calls_no_unpinned_draw():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in UNPINNED_DRAWS:
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert calls == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site .pth files, which may import anything, out of the check
    src = os.path.dirname(PACKAGE)
    code = "import sys, hyperzagreb.cli; print({'dataclasses', 'inspect'} & set(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.PIPE, text=True, check=True)
    assert proc.stdout == "set()\n"


# One record of every type src/ defines, built through the public calls.
RECORDS = {
    "RankEntry": lambda: verify_class("trees", 8).entries[0],
    "VerdictReport": lambda: verify_class("trees", 8),
    "CheckResult": lambda: lemma_suite(1, 20).checks[0],
    "SuiteReport": lambda: lemma_suite(1, 20),
    "AuditRow": lambda: closed_form_audit(15, 16).rows[0],
    "AuditReport": lambda: closed_form_audit(15, 16),
    "ScaleCheck": lambda: closed_form_audit(15, 16).scale_check,
    "Tie": lambda: verify_class("unicyclic", 15).ties[0],
    "OracleResult": lambda: labeled_oracle(5, "trees"),
    "ClassRecord": lambda: next(trees(6)),
    "ClosedFormPoly": lambda: CATALOG["C_3(1,n-4)"].poly,
    "Core": lambda: CATALOG["C_3(1,n-4)"].core,
    "CatalogEntry": lambda: CATALOG["C_3(1,n-4)"],
    "ZagrebIndices": lambda: classical_indices(CATALOG["S_n"].core.build(5)),
    "JoinIdentifyPair": lambda: join_vs_identify(*[CATALOG["S_n"].core.build(4), 1] * 2),
    "FormTables": lambda: form_tables(6),
    "Graph": lambda: CATALOG["S_n"].core.build(5),
}


def test_records_hold_every_record_type():
    # a NamedTuple class of src/ missing here would skip the test below
    defined = set()
    for info in pkgutil.iter_modules(hyperzagreb.__path__, "hyperzagreb."):
        if info.name != "hyperzagreb.__main__":  # importing it runs the CLI
            module = importlib.import_module(info.name)
            defined |= {name for name, obj in vars(module).items()
                        if isinstance(obj, type) and issubclass(obj, tuple)
                        and hasattr(obj, "_fields") and obj.__module__ == module.__name__}
    assert defined == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_and_hashable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in type(record).__annotations__:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert hash(record) == hash(record)


def test_form_tables_compare_by_identity_and_print_short():
    # every class record refers to its registry, so a registry compares and
    # hashes as an object, and a record's repr never dumps the registry
    a, b = form_tables(6), form_tables(6)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a) != hash(b)
    record = next(unicyclic_graphs(15))  # its registry is form_tables(13)
    assert isinstance(record.tables, FormTables) and len(record.tables.ids_by_size) - 1 == 13
    assert len(repr(record)) < 300
