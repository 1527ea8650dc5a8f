"""No dead module-level names and no unused parameters in the package.

Every function, class and assigned name at the top level of a
``src/qeuclid`` module must appear as a word somewhere in ``src/``,
``tests/`` or ``perfbench/`` besides the line that defines it: a name that
nothing reads, imports, exports or names is dead code.

Likewise every defaulted parameter of a ``src/qeuclid`` function, method
or constructor must be set by at least one call in those trees, by
keyword, by position or through ``*``/``**``: a default that no call
overrides is a constant.  Calls are matched by name (a constructor by its
class name), so a name shared by two definitions counts the calls of both.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qeuclid"
TREES = ("src", "tests", "perfbench")


def _sources():
    for top in TREES:
        yield from (ROOT / top).rglob("*.py")


def _defined_names(tree: ast.Module):
    """(name, line) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, sub.lineno


def test_every_module_level_name_is_used():
    words: dict[str, set] = {}  # word -> {(file, line)}
    for path in _sources():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for word in re.findall(r"\w+", line):
                words.setdefault(word, set()).add((path, lineno))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _defined_names(ast.parse(path.read_text())):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not words.get(name, set()) - {(path, lineno)}:
                dead.append(f"{path.name}:{lineno} {name}")
    assert not dead, "defined but never used:\n  " + "\n  ".join(dead)


def _calls() -> dict[str, list]:
    """Callee name -> (positional count, keywords) of each call.  The count
    is None for a call with ``*args`` and the keywords None for ``**kwargs``:
    either may set any parameter."""
    calls: dict[str, list] = {}
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append(
                (None if starred else len(node.args), None if None in keywords else keywords)
            )
    return calls


def _defaulted_parameters(node: ast.AST, owner: str | None = None):
    """(callee name, line, parameter, index among the call's positional
    arguments or None) of each defaulted parameter of each function below
    ``node``.  A method's ``self`` or ``cls`` is bound and takes no
    positional argument; ``__init__`` is called by its class name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(
                isinstance(dec, ast.Name) and dec.id == "staticmethod"
                for dec in child.decorator_list
            )
            bound = 1 if owner and not static else 0
            name = owner if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                yield name, child.lineno, arg.arg, index - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, child.lineno, arg.arg, None
            yield from _defaulted_parameters(child)
        else:
            yield from _defaulted_parameters(child, owner)


def test_every_defaulted_parameter_is_set_by_a_call():
    calls = _calls()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno, param, index in _defaulted_parameters(ast.parse(path.read_text())):
            if not any(
                count is None
                or keywords is None
                or param in keywords
                or (index is not None and count > index)
                for count, keywords in calls.get(name, ())
            ):
                unused.append(f"{path.name}:{lineno} {name}({param})")
    assert not unused, "defaulted but never set by a call:\n  " + "\n  ".join(unused)
