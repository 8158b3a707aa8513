"""The package's modules import one another without a cycle, check without
``assert``, and define no module-level name or method that nothing calls;
``import eigentrack`` alone loads none of them."""
import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import eigentrack

PACKAGE = Path(eigentrack.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# names no program code uses, each kept on purpose
UNCALLED_ALLOWED = {
    # the paper's forward-point set; the acceptance tests use it as their oracle
    "grid.forward_points",
    # the reader of surrogate.csv, kept for answering queries from a run's files
    "reports.read_surrogate_csv",
}


def imported_modules(source: str, modules: set[str]) -> set[str]:
    """Which of the package's ``modules`` ``source`` imports anywhere: at
    module level, inside functions and under ``TYPE_CHECKING`` alike."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from . import fem" and "from eigentrack import fem" name the module fem
            base = "eigentrack" if node.level else ""
            base = ".".join(part for part in (base, node.module) if part)
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("eigentrack."))
    return found & modules


def import_graph() -> dict[str, set[str]]:
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {p.stem for p in paths}
    return {p.stem: imported_modules(p.read_text(), modules - {p.stem}) for p in paths}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as a closed path, or None (depth-first search)."""
    state: dict[str, str] = {}   # "open" while on the current path, then "done"
    path: list[str] = []

    def visit(node):
        state[node] = "open"
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (cycle := visit(nxt)):
                return cycle
        path.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state and (cycle := visit(node)):
            return cycle
    return None


def used_names(node: ast.AST) -> Counter:
    """How often ``node`` uses each name: as a variable, as an attribute, or
    as a dotted string such as perfbench's ``"SnapshotProvider.get"``."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.update(parts)
    return found


def definitions(tree: ast.Module):
    """``(qualified name, node)`` of each module-level function, class and
    assigned name of ``tree`` and of each method of its classes, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name, definition in found:
            last = name.rpartition(".")[2]
            if not (last.startswith("__") and last.endswith("__")):
                yield name, definition


def uncalled_names(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module.name`` of each definition of ``modules`` (name -> source), as
    ``definitions`` lists them, that neither they nor ``others`` use outside
    that definition."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        used += used_names(tree)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in definitions(tree)
        if used[name.rpartition(".")[2]] <= used_names(node)[name.rpartition(".")[2]]
    )


def test_scan_sees_every_form_of_import():
    source = (
        "import eigentrack\n"
        "import eigentrack.fem\n"
        "def f():\n"
        "    from eigentrack.grid import ParamPoint\n"
        "    from eigentrack import config, numpy\n"
        "    from . import cli\n"
        "    from .reports import emit_reports\n"
    )
    modules = {"fem", "grid", "config", "cli", "reports", "surrogate"}
    assert imported_modules(source, modules) == modules - {"surrogate"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_module_imports_have_no_cycle():
    graph = import_graph()
    assert {"config", "fem", "grid"} <= graph["eigensolver"]
    assert find_cycle(graph) is None


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements: a check must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_scan_flags_every_uncalled_public_name():
    modules = {
        "a": (
            "import b\n"
            "class Used: pass\n"
            "class Unused: pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else Used()\n"
            "def _private(): pass\n"
        ),
        "b": "def by_attribute(): pass\ndef by_string(): pass\nx = 1\n",
    }
    others = ["import b\nb.by_attribute()\nTARGETS = [('b', 'by_string')]\n"]
    assert uncalled_names(modules, others) == ["a.Unused", "a._private", "a.recursive", "b.x"]
    assert uncalled_names(modules, []) == [
        "a.Unused", "a._private", "a.recursive", "b.by_attribute", "b.by_string", "b.x"
    ]


def test_scan_flags_uncalled_methods_and_private_names():
    modules = {
        "a": (
            "_LIMIT = 3\n"
            "_unused_constant: int = 4\n"
            "class Shape:\n"
            "    def __init__(self): self.n = _LIMIT\n"
            "    def area(self): return self.n\n"
            "    def _helper(self): pass\n"
            "    @property\n"
            "    def size(self): return self.area()\n"
            "def _private(): pass\n"
            "def _called(): return Shape().size\n"
            "_called()\n"
        ),
    }
    assert uncalled_names(modules, []) == [
        "a.Shape._helper", "a._private", "a._unused_constant"
    ]


def test_every_public_name_has_a_caller():
    # a caller in the package or the benchmark harness; a test alone keeps
    # nothing alive
    assert PERFBENCH.is_dir()
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert set(uncalled_names(modules, others)) == UNCALLED_ALLOWED


def test_package_import_loads_no_module():
    src = str(PACKAGE.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import eigentrack\n"
        "print(sorted(m for m in sys.modules if m.startswith('eigentrack.') or m == 'numpy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
