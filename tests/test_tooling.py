"""The names the benchmark harness looks up on the package: every traced
layer function and family generator exists, every workload check runs, one
seed-0 pass of each workload keeps its outcome table, the tracer installs
and restores its wrappers, and the public names that only the tracer's
layer table reaches are pinned.  The benchmark modules are read from their
files and left as they are.  Also four lints the repository
has no tool for: no library or test module imports a name it never uses,
every private function, class and method of the library is read somewhere in
it outside its own body, every helper function and class of the tests is
read somewhere in them outside its own body, and every public function,
class, method and property of the library is read by the library (the CLI
included, the package's re-exports not) or by the benchmark."""
import ast
import importlib.util
import sys
from collections import Counter, defaultdict
from functools import partial
from pathlib import Path

import pytest

import matroidwb as mw
from matroidwb.census import _instance_seed
from matroidwb.constructions import uniform

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
LIBRARY = Path(mw.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def bench():
    modules = {}
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        for name in ("tracing", "workloads"):
            spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARK / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
    finally:
        sys.dont_write_bytecode = saved
    return modules


def test_every_traced_name_exists(bench):
    tracing = bench["tracing"]
    for layer, (modname, names) in tracing.LAYERS.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), (layer, modname, name)
    for name in tracing.FAMILY_GENERATORS:
        assert callable(getattr(mw.classifiers, name, None)), name
        assert getattr(mw, name) is getattr(mw.classifiers, name)


def test_every_workload_check_runs_on_u24(bench):
    workloads = bench["workloads"]
    M = uniform(2, 4)
    for name, check in workloads.CHECKS.items():
        result = check(mw, M, 0)
        assert workloads.outcome(name, result) in workloads.DECIDED, name
        assert workloads.fingerprint(result) == workloads.fingerprint(check(mw, M, 0))


def test_every_workload_yields_instances(bench):
    workloads = bench["workloads"]
    for name, workload in workloads.WORKLOADS.items():
        group, inst_id, index, M, checks = next(iter(workload(mw)))
        assert index == 0 and set(checks) <= set(workloads.CHECKS), name


# outcome counts per family:check of one seed-0 pass, as the harness's
# outcome table reports them
OUTCOME_TABLES = {
    "census-hpp": {
        "lpm6:hpp": {"Holds": 617, "Inconclusive": 7},
        "lpm6:rayleigh": {"Holds": 624},
        "sp7-3:hpp": {"Fails": 5, "Holds": 3, "Inconclusive": 6},
        "sp7-3:rayleigh": {"Holds": 9, "Inconclusive": 5},
    },
    "census-structure": {
        "bc5:balanced": {"Holds": 174},
        "bc5:negcorr": {"Holds": 174},
        "bc5:paving": {"Fails": 28, "Holds": 8, "Holds (sparse)": 138},
        "bc5:positroid": {"Holds": 174},
        "sp8-4:balanced": {"Holds": 6},
        "sp8-4:negcorr": {"Holds": 6},
        "sp8-4:paving": {"Holds (sparse)": 6},
        "sp8-4:positroid": {"Fails": 1, "Holds": 5},
    },
}


@pytest.mark.parametrize("name", sorted(OUTCOME_TABLES))
def test_one_seed_0_pass_keeps_the_outcome_table(bench, name):
    """A speed-up must not change an outcome: one pass of the workload with
    the harness's instance seeds gives the pinned counts."""
    workloads = bench["workloads"]
    table = defaultdict(Counter)
    for group, _, index, M, checks in workloads.WORKLOADS[name](mw):
        for check in checks:
            result = workloads.CHECKS[check](mw, M, _instance_seed(0, index))
            table[f"{group}:{check}"][workloads.outcome(check, result)] += 1
    assert table == OUTCOME_TABLES[name]


def test_tracer_records_spans_and_restores(bench):
    tracing = bench["tracing"]
    originals = {
        (modname, name): getattr(importlib.import_module(modname), name)
        for modname, names in tracing.LAYERS.values()
        for name in names
    }
    init = mw.core.Matroid.__init__
    tracer = tracing.Tracer()
    with tracer:
        assert mw.hpp_verdict is not originals[("matroidwb.analysis", "hpp_verdict")]
        bench["workloads"].CHECKS["hpp"](mw, uniform(2, 4), 0)
        list(mw.sparse_paving_family(5, 2))
    totals = tracing.layer_totals(tracer.spans)
    assert {"analysis.verdict", "core.build", "classifiers.enumerate"} <= set(totals)
    assert set(totals) <= set(tracing.layer_names())
    for (modname, name), fn in originals.items():
        assert getattr(importlib.import_module(modname), name) is fn
    assert mw.hpp_verdict is originals[("matroidwb.analysis", "hpp_verdict")]
    assert mw.core.Matroid.__init__ is init


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in the module that no
    expression of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unread_name():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(path)") == ["argv", "os"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in LIBRARY.glob("*.py") if p.name != "__init__.py"))
def test_library_module_has_no_unused_import(module):
    assert unused_imports((LIBRARY / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_module_has_no_unused_import(module):
    assert unused_imports((TESTS / module).read_text()) == []


def _definitions(tree: ast.Module, private: bool):
    """The private (one leading underscore, not dunder) or the public
    top-level functions and classes of a module, and the methods and
    properties of its classes that are the same."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                    and d.name.startswith("_") == private and not d.name.endswith("__")):
                yield d


def _reads(node: ast.AST) -> Counter:
    """Loads of a bare name and attribute accesses, by name."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute))


def unread(sources: dict[str, str], definitions, outside: Counter = None) -> list[str]:
    """`module:name` for every definition that `definitions(tree)` yields for
    a module, read nowhere in the modules outside its own body and not
    counted in `outside`."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter(outside))
    return sorted(
        f"{module}:{d.name}"
        for module, tree in trees.items()
        for d in definitions(tree)
        if reads[d.name] - _reads(d)[d.name] <= 0)


PRIVATE = partial(_definitions, private=True)
PUBLIC = partial(_definitions, private=False)


def test_dead_helpers_finds_an_unread_helper():
    src = (
        "def _used():\n    return 1\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n"
        "class C:\n    def _m(self):\n        return _used()\n    def __len__(self):\n        return 0\n")
    assert unread({"a.py": src, "b.py": "import a\n"}, PRIVATE) == ["a.py:_m", "a.py:_recursive"]


def test_every_private_library_helper_is_read():
    sources = {p.name: p.read_text() for p in LIBRARY.glob("*.py")}
    assert unread(sources, PRIVATE) == []


def _test_helpers(tree: ast.Module):
    """The top-level functions and classes of a test module that are not
    tests, `Test*` classes or fixtures."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("Test"):
            yield node
        if (isinstance(node, ast.FunctionDef) and not node.name.startswith("test")
                and not any("fixture" in ast.unparse(d) for d in node.decorator_list)):
            yield node


def test_every_test_helper_is_read():
    src = (
        "import pytest\n"
        "def reference(k):\n    return reference(k - 1)\n"
        "def used():\n    return 1\n"
        "@pytest.fixture\ndef data():\n    return used()\n"
        "class Leftover:\n    pass\n"
        "class TestThing:\n    def test_it(self, data):\n        assert data\n")
    assert unread({"a.py": src}, _test_helpers) == ["a.py:Leftover", "a.py:reference"]
    assert unread({p.name: p.read_text() for p in TESTS.glob("*.py")}, _test_helpers) == []


# lpm_recursive_build builds every lattice path matroid from loops, coloops
# and principal extensions; the Construction certificates of ROADMAP item 2
# start from it, and until they land nothing but tests reaches it
UNREAD_PUBLIC_NAMES = ["constructions.py:lpm_recursive_build"]


def test_unread_public_names_finds_an_unread_name():
    src = (
        "def used():\n    return 1\ndef unused():\n    return used()\n"
        "class Looked:\n    def method(self):\n        return self.size\n"
        "    @property\n    def size(self):\n        return 0\n    def __len__(self):\n"
        "        return 0\n")
    assert unread({"a.py": src}, PUBLIC) == ["a.py:Looked", "a.py:method", "a.py:unused"]
    assert unread({"a.py": src}, PUBLIC, Counter(["Looked", "method"])) == ["a.py:unused"]


def test_every_public_library_name_is_read_by_the_library_or_the_benchmark(bench):
    sources = {p.name: p.read_text() for p in LIBRARY.glob("*.py") if p.name != "__init__.py"}
    benchmark = sum((_reads(ast.parse(p.read_text())) for p in BENCHMARK.glob("*.py")), Counter())
    traced = Counter(name for _, names in bench["tracing"].LAYERS.values() for name in names)
    assert unread(sources, PUBLIC, benchmark + traced) == UNREAD_PUBLIC_NAMES


# public names that only benchmark/tracing.py's LAYERS reaches: neither the
# library nor any other benchmark file reads them.  The next benchmark
# revision drops them from LAYERS and then from the library; until then this
# list may shrink but must not grow
TRACED_ONLY = [
    "core.circuits",
    "core.isomorphism",
    "core.two_separation",
    "poly.pair_decomposition",
    "sos.sos_certificate_orthant",
]


def test_the_names_only_the_tracer_reaches_are_pinned(bench):
    sources = {p.name: p.read_text() for p in LIBRARY.glob("*.py") if p.name != "__init__.py"}
    benchmark = sum((_reads(ast.parse(p.read_text())) for p in BENCHMARK.glob("*.py")
                     if p.name != "tracing.py"), Counter())
    unread_names = set(unread(sources, PUBLIC, benchmark))
    traced = [(modname.rsplit(".", 1)[1], name)
              for modname, names in bench["tracing"].LAYERS.values() for name in names]
    assert [f"{m}.{n}" for m, n in sorted(traced) if f"{m}.py:{n}" in unread_names] == TRACED_ONLY
