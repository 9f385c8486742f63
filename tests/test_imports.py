import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    return sorted((*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")))


def test_no_unused_imports():
    """No file under src/ or tests/ imports a name it never uses.  perfbench/
    is left out: its reference import loads modules only to time the import."""
    unused = []
    for path in _sources():
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if isinstance(node, ast.Import | ast.ImportFrom) and not future:
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert unused == []


def test_no_unused_private_names():
    """Every ``_``-prefixed function, class or assigned name defined under
    src/ is loaded, or read as an attribute, somewhere in src/: a private
    helper nothing calls is dead code.  Dunder names and a bare ``_`` are
    exempt."""
    paths = sorted(ROOT.glob("src/**/*.py"))
    nodes = [(path, node) for path in paths for node in ast.walk(ast.parse(path.read_text()))]
    used = {n.id for _, n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used |= {n.attr for _, n in nodes if isinstance(n, ast.Attribute)}
    unused = []
    for path, node in nodes:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        else:
            continue
        dunder = name.startswith("__") and name.endswith("__")
        if name.startswith("_") and name != "_" and not dunder and name not in used:
            unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert unused == []


def test_sources_parse_at_the_oldest_supported_python():
    """Every file under src/ or tests/ is valid syntax at the version that
    pyproject.toml's requires-python names, whichever Python runs the test."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    for path in _sources():
        ast.parse(path.read_text(), str(path), feature_version=(int(major), int(minor)))
