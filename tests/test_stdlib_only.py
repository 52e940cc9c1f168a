"""The runtime is pure standard library: networkx and hypothesis are test-only."""

import ast
import pathlib
import sys

import hyperzagreb

PACKAGE = pathlib.Path(hyperzagreb.__file__).parent


def test_src_imports_only_stdlib_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "hyperzagreb" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
