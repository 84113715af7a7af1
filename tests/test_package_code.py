"""Guard against regrowth of library code that no command reaches.

Every public top-level function or class in ``src/anderson2p``, and every
public method of a public class, must be referenced by other package code
or exported by ``__init__``.  Code that only the tests use belongs in
``tests/oracles.py`` or in the one test file that uses it.  References are
matched by name, over every ``Name`` and ``Attribute`` node outside the
definition itself.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anderson2p"

#: kept only because ``perfbench/spans.py`` resolves every name in its
#: ``TARGETS``; they go together with those entries
TRACED_ONLY = {
    ("classify", "singular_at_spectral"),
    ("msa", "SubboxSpectra.singular_centers"),
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
            if not _is_public_def(top):
                _collect_names(top, set(), used)
                continue
            public.append((module, top.name))
            if isinstance(top, ast.FunctionDef):
                _collect_names(top, {top.name}, used)
                continue
            for member in top.body:
                if _is_public_def(member) and isinstance(member, ast.FunctionDef):
                    public.append((module, f"{top.name}.{member.name}"))
                    _collect_names(member, {top.name, member.name}, used)
                else:
                    _collect_names(member, {top.name}, used)
            for node in top.decorator_list + top.bases:
                _collect_names(node, {top.name}, used)
    return {(m, name) for m, name in public
            if name.rsplit(".", 1)[-1] not in used | exported}


def _is_public_def(node: ast.AST) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def _collect_names(tree: ast.AST, own: set[str], used: set[str]) -> None:
    """Add to ``used`` every name ``tree`` refers to, apart from ``own``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name not in own:
            used.add(name)


def test_every_public_definition_is_reached_by_the_package():
    assert _unreferenced() == TRACED_ONLY
