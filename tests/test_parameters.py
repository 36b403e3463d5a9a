"""Every parameter of a package function is read by its body: a parameter
that nothing reads is an option that does nothing.  Every def, method,
dataclass field and self attribute of the package is loaded somewhere in
the package or the benchmark: a name that only tests load is surface that
no program path reads."""

import ast
import importlib.util
from pathlib import Path

import onewave
from onewave.scenario import CHECKS

SRC = Path(onewave.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

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


# Loaded by the tests only, and kept for them: the reader of the trajectory
# format (docs/format.md) and two reference oracles.
TEST_ONLY = {
    "read_trajectory": "reads back what io.write_trajectory writes",
    "eval_raw": "the unmollified rough coefficient, the tests' oracle",
    "moment": "mollifier moments from the sampled kernel, the tests' oracle",
}


def _is_dataclass(cls) -> bool:
    names = [ast.unparse(d.func if isinstance(d, ast.Call) else d)
             for d in cls.decorator_list]
    return any(name.split(".")[-1] == "dataclass" for name in names)


def defined_names(path: Path) -> list:
    """('file:line', name) for each top-level def, method, dataclass field
    and self attribute in ``path``; dunder names are the language's."""
    tree = ast.parse(path.read_text())
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found.append((item.lineno, item.name))
                elif _is_dataclass(node) and isinstance(item, ast.AnnAssign):
                    found.append((item.lineno, item.target.id))
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"]
    return [(f"{path.name}:{line}", name) for line, name in found
            if not name.startswith("__")]


def loaded_names(path: Path) -> set:
    """Every name ``path`` loads: a Name, an Attribute, or an identifier
    string (getattr's argument), except the strings of ``__all__``."""
    tree = ast.parse(path.read_text())
    exported = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                and "__all__" in [getattr(t, "id", None) for t in stmt.targets]
                for node in ast.walk(stmt.value)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in exported:
            names.add(node.value)
    return names


def bench_span_names() -> set:
    """The last component of each path bench/spans.py wraps or counts."""
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {path.split(".")[-1] for _, _, path, *_ in
            spans.SPANS + spans.COUNTERS}


def test_every_definition_is_loaded():
    # name-based, so a floor: a name loaded for another object (to_json,
    # norm) hides an unread one
    programs = sorted(SRC.glob("*.py")) + sorted(
        p for p in BENCH.glob("*.py") if not p.name.startswith("test_"))
    loaded = bench_span_names().union(*map(loaded_names, programs))
    unread = [(where, name) for path in sorted(SRC.glob("*.py"))
              for where, name in defined_names(path) if name not in loaded]
    assert sorted(name for _, name in unread) == sorted(TEST_ONLY), unread
