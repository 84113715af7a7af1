"""Guard against regrowth of library code that no command reaches.

Every top-level function or class in ``src/anderson2p``, and every method
of a class, private ones included, must be referenced by other package
code or exported by ``__init__``; only special methods (``__init__``,
``__post_init__``, ...) are exempt, as Python calls them.  So a deleted
caller cannot leave a private helper behind.  Code that only the tests use
belongs in ``tests/oracles.py`` or in the one test file that uses it.
References are matched by name outside the definition itself: a top-level
definition over every ``Name`` and ``Attribute`` node, a method over
``Attribute`` nodes only, since a local variable of the same name does not
reach it.

The record format is written once: ``records.Record.to_record`` serializes
every report dataclass from its fields, so no other class may define a
``to_record`` of its own (``config.ConfigError``, a stderr error record and
not a dataclass, is the one exception).
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
    defined, names, attributes = [], set(), set()
    for module, tree in trees.items():
        for top in tree.body:
            if not _is_checked_def(top):
                _collect_names(top, set(), names, attributes)
                continue
            defined.append((module, top.name))
            if isinstance(top, ast.FunctionDef):
                _collect_names(top, {top.name}, names, attributes)
                continue
            for member in top.body:
                if _is_checked_def(member) and isinstance(member, ast.FunctionDef):
                    defined.append((module, f"{top.name}.{member.name}"))
                    _collect_names(member, {top.name, member.name}, names, attributes)
                else:
                    _collect_names(member, {top.name}, names, attributes)
            for node in top.decorator_list + top.bases:
                _collect_names(node, {top.name}, names, attributes)
    unreferenced = set()
    for module, name in defined:
        owner, _, method = name.rpartition(".")
        reached = attributes if owner else names | attributes | exported
        if (method or name) not in reached:
            unreferenced.add((module, name))
    return unreferenced


def _is_checked_def(node: ast.AST) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _collect_names(tree: ast.AST, own: set[str], names: set[str],
                   attributes: set[str]) -> None:
    """Add to ``names`` every ``Name`` and to ``attributes`` every
    ``Attribute`` that ``tree`` refers to, apart from ``own``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in own:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            attributes.add(node.attr)


#: the one-sample cases of the batched steps, which no package code calls
#: since ``msa-verify --check inductive-step`` decides its seeds in batches;
#: ``perfbench/spans.py`` traces both, and the tests compare every batch
#: with them
ONE_SAMPLE = {
    ("msa", "count_singular_subboxes"),
    ("msa", "inductive_ns_step"),
}


def test_every_definition_is_reached_by_the_package():
    assert _unreferenced() == TRACED_ONLY | ONE_SAMPLE


def _traced() -> set[tuple[str, str]]:
    """The ``(module, attribute path)`` pairs of ``perfbench/spans.py``'s
    ``TARGETS`` in ``anderson2p``, read from its source."""
    tree = ast.parse((PACKAGE.parents[1] / "perfbench" / "spans.py").read_text())
    [targets] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    return {(module.removeprefix("anderson2p."), name) for module, name in pairs
            if module.startswith("anderson2p.")}


def test_allowances_are_traced():
    # an allowance outlives the tracer entry it was made for otherwise
    assert TRACED_ONLY | ONE_SAMPLE <= _traced()


#: the classes allowed a ``to_record`` of their own
SERIALIZERS = {("records", "Record"), ("config", "ConfigError")}


def test_one_record_serializer():
    defining = {(p.stem, node.name)
                for p in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(p.read_text()))
                if isinstance(node, ast.ClassDef)
                and any(isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and m.name == "to_record" for m in node.body)}
    assert defining == SERIALIZERS


def _functions_referring_to(name: str) -> set[tuple[str, str]]:
    """The ``(module, function)`` pairs of the package whose code refers
    to ``name`` as a ``Name`` or an ``Attribute``; a method as
    ``Class.method``, module-level code as ``<module>``."""
    found = set()
    for p in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(p.read_text()).body:
            defs = [(getattr(top, "name", "<module>"), top)]
            if isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{m.name}", m) for m in top.body
                        if isinstance(m, ast.FunctionDef)]
            for qualname, node in defs:
                if any(getattr(sub, "id", None) == name or getattr(sub, "attr", None) == name
                       for sub in ast.walk(node)):
                    found.add((p.stem, qualname))
    return found


def test_dominance_certificate_has_one_caller():
    # the certificate decides only non-singularity below the counter's
    # threshold: a parent reports its boundary maximum, and a resonance
    # question reads eigenvalues it does not bound
    assert _functions_referring_to("dominance_certified") == {("msa", "singular_subbox_counts")}
