"""The package's public surface: exports that resolve, and no settings read
from the environment."""

import ast
import importlib
from pathlib import Path

import wittkit

SRC = Path(wittkit.__file__).parent


def test_all_names_resolve_without_duplicates():
    assert len(wittkit.__all__) == len(set(wittkit.__all__))
    missing = [name for name in wittkit.__all__ if not hasattr(wittkit, name)]
    assert missing == []


def test_every_module_all_resolves():
    stale = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"wittkit.{path.stem}")
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), path.name
        stale += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    assert stale == []


def test_no_module_reads_the_environment():
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name in ("environ", "getenv", "environb", "getenvb"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
