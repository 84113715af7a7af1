"""Guard against regrowth of library code that no command reaches.

Every public top-level function or class in ``src/anderson2p`` must be
referenced by other package code or exported by ``__init__``.  Code that
only the tests use belongs in ``tests/oracles.py`` or in the one test file
that uses it.  References are matched by name, over every ``Name`` and
``Attribute`` node outside the definition itself.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anderson2p"

#: kept only because ``perfbench/spans.py`` resolves every name in its
#: ``TARGETS``; they go together with those entries
TRACED_ONLY = {
    ("classify", "singular_at_spectral"),
    ("resolvent", "green_spectral"),
}


def _unreferenced() -> set[tuple[str, str]]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public, used = [], set()
    for module, tree in trees.items():
        for top in tree.body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                public.append((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return {(m, name) for m, name in public if name not in used | exported}


def test_every_public_definition_is_reached_by_the_package():
    assert _unreferenced() == TRACED_ONLY
