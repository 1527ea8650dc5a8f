"""No dead module-level names in the package.

Every function, class and assigned name at the top level of a
``src/qeuclid`` module must appear as a word somewhere in ``src/``,
``tests/`` or ``perfbench/`` besides the line that defines it: a name that
nothing reads, imports, exports or names is dead code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qeuclid"


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
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
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
