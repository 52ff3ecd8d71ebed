"""Every name a package module imports is used in it or listed in __all__,
every package function reads each of its parameters, and every public
function or class of the package is named somewhere."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trajcurate"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, `from __future__` excepted."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return used


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nfrom dataclasses import dataclass, field\n"
                     "__all__ = ['os']\n@dataclass\nclass A:\n    x: int = 0\n")
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"field"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# (module, function, parameter) kept though never read: `sim.rollout`'s scene,
# which callers pass positionally.
UNREAD_PARAMETERS_ALLOWED = {("sim.py", "rollout", "scene")}


def _is_stub(func: ast.FunctionDef) -> bool:
    body = func.body
    return (len(body) == 1 and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and body[0].value.value is Ellipsis)


def unread_parameters(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(function, parameter, line) of each parameter a function never reads,
    `self` and `cls` aside, nested functions included. Skipped: `...`-bodied
    stubs such as Protocol methods."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child)
                continue
            if not _is_stub(child):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                reads = {n.id for n in ast.walk(child)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend((child.name, p.arg, child.lineno) for p in params
                             if p.arg not in reads and p.arg not in ("self", "cls"))
            visit(child)

    visit(tree)
    return found


def test_checker_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    return a + sum(c)\n"
                     "class P:\n    def m(self, x): ...\n"
                     "    def n(self, y):\n        def inner(z):\n            return 0\n"
                     "        return inner\n")
    assert unread_parameters(tree) == [("f", "b", 1), ("f", "d", 1), ("f", "e", 1),
                                       ("n", "y", 5), ("inner", "z", 6)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [(func, param, line) for func, param, line in unread_parameters(tree)
              if (path.name, func, param) not in UNREAD_PARAMETERS_ALLOWED]
    assert not unread, f"{path.name} has parameters its functions never read: {unread}"


BENCH = PACKAGE.parent.parent / "bench"

# Public names nothing calls yet, with the reason each is kept: entry points
# that the unbuilt curation stage of ROADMAP item 3 is to call, and gradient
# oracles that serve the tests alone.
ENTRY_POINT, TEST_ORACLE = "ROADMAP item 3 entry point", "test oracle"
UNCALLED_ALLOWED = {
    "collect_demos": ENTRY_POINT,
    "save_dataset": ENTRY_POINT,
    "load_dataset": ENTRY_POINT,
    "edit_initial_scene": ENTRY_POINT,
    "propose_instructions": ENTRY_POINT,
    "sample_to_episode": ENTRY_POINT,
    "episode_to_sample": ENTRY_POINT,
    "autodiff_grad": TEST_ORACLE,
    "finite_diff_grad": TEST_ORACLE,
}


def named(tree: ast.Module) -> set[str]:
    """Every name a module reads, imports or writes as a dotted string, such
    as the "EncoderModel.encode" boundaries of bench/spans.py. The strings of
    `__all__` declare names rather than use them, so they do not count."""
    out = set()

    def visit(node):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return out


def uncalled_public_names(package: dict[str, ast.Module],
                          others: list[ast.Module]) -> set[str]:
    """Public top-level functions and classes of `package` that no module,
    their own included, names outside their definition."""
    seen = set().union(*map(named, [*package.values(), *others]))
    return {node.name for tree in package.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in seen}


def test_checker_flags_an_uncalled_public_name():
    package = {"a.py": ast.parse("__all__ = ['f', 'g']\ndef f():\n    pass\n"
                                 "def g():\n    return f()\ndef _p():\n    pass\n"
                                 "class C:\n    pass\nclass D:\n    pass\n"
                                 "class E:\n    def m(self):\n        pass\n"),
               "b.py": ast.parse("from a import C\n")}
    others = [ast.parse("BOUNDARIES = (('a', 'E.m'),)\n")]
    assert uncalled_public_names(package, others) == {"g", "D"}


def test_every_public_name_has_a_caller():
    """A public function or class that nothing names is dead code, unless the
    allowlist above gives it a reason. A listed name that gains a caller
    leaves the list, so the list only shrinks."""
    package = {p.name: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(PACKAGE.glob("*.py"))}
    others = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(BENCH.glob("*.py"))]
    uncalled = uncalled_public_names(package, others)
    allowed = set(UNCALLED_ALLOWED)
    assert not uncalled - allowed, f"public names nothing names: {sorted(uncalled - allowed)}"
    assert not allowed - uncalled, f"allowlisted names with a caller: {sorted(allowed - uncalled)}"
