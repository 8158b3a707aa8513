"""The package's modules import one another without a cycle, and check
without ``assert``."""
import ast
from pathlib import Path

import eigentrack

PACKAGE = Path(eigentrack.__file__).resolve().parent


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
