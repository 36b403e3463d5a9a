"""Every parameter of a package function is read by its body: a parameter
that nothing reads is an option that does nothing."""

import ast
from pathlib import Path

import onewave
from onewave.scenario import CHECKS

SRC = Path(onewave.__file__).parent

# Expression nodes implement eval(t, x, xi) and d(var) whether or not they
# depend on each argument; a check takes the context whether or not it
# reads it.
EXPR_INTERFACE = {"eval", "d"}
CHECK_FUNCTIONS = {run.__name__ for run, _ in CHECKS.values()}


def _is_static(fn) -> bool:
    return any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
               for dec in fn.decorator_list)


def unread_parameters(path: Path) -> list:
    """'file:line function(parameter)' for each parameter of a def in
    ``path`` that no statement of its body (nested defs included) reads;
    a method's self or cls is not counted."""
    tree = ast.parse(path.read_text())
    owner = {child: node for node in ast.walk(tree)
             for child in ast.iter_child_nodes(node)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        if isinstance(owner[fn], ast.ClassDef):
            if path.name == "expr.py" and fn.name in EXPR_INTERFACE:
                continue
            if not _is_static(fn):
                params = params[1:]
        if path.name == "scenario.py" and fn.name in CHECK_FUNCTIONS:
            params = [p for p in params if p != "ctx"]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [f"{path.name}:{fn.lineno} {fn.name}({p})"
                  for p in params if p not in read]
    return found


def test_every_parameter_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in unread_parameters(path)] == []


def test_scan_finds_an_unread_parameter(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(a, b, *, c=1):\n    return a + c\n\n\n"
                   "class K:\n    def m(self, x):\n        return 0\n\n"
                   "    @staticmethod\n    def s(y):\n        return y\n")
    assert unread_parameters(src) == ["mod.py:1 f(b)", "mod.py:6 m(x)"]
