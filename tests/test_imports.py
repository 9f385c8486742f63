import ast
from pathlib import Path


def test_no_unused_imports():
    """No file under src/ or tests/ imports a name it never uses.  perfbench/
    is left out: its reference import loads modules only to time the import."""
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted((*root.glob("src/**/*.py"), *root.glob("tests/*.py"))):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if isinstance(node, ast.Import | ast.ImportFrom) and not future:
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    assert unused == []
