"""Source hygiene checks that need nothing beyond the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nodalq"


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module-level imports of ``path`` and never used.

    ``from __future__`` imports bind no name.  A name counts as used when
    it appears anywhere in the module as an identifier, which includes
    annotations and the base of an attribute access.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_module_imports():
    # the package's __init__ imports only to re-export
    found = {
        p.name: unused_imports(p)
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def unreferenced_private_definitions(paths) -> list[str]:
    """Module-level ``_private`` functions and classes of ``paths`` that no
    module among them uses: by name, as an attribute or in an import."""
    defined, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (
                node.name.startswith("_") and not node.name.startswith("__")
            ):
                defined.append(f"{path.name}:{node.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [d for d in defined if d.split(":")[1] not in used]


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_definitions(sorted(SRC.glob("*.py"))) == []


def test_src_imports_only_the_standard_library():
    # the install promises no dependencies; relative imports stay inside
    # the package
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def linear_lookups(path: Path) -> list[str]:
    """Places in ``path`` that find a position by scanning the quiver:
    ``vertices.index(`` calls, and loops or comprehensions over some
    ``.arrows`` that test an arrow's ``.name`` for equality."""
    text = path.read_text(encoding="utf-8")
    found = [f"line {k}: vertices.index(" for k, line in enumerate(text.splitlines(), 1)
             if "vertices.index(" in line]
    tree = ast.parse(text, filename=str(path))
    scans = [(node.iter, node.body) for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.AsyncFor))]
    scans += [(gen.iter, gen.ifs) for gen in ast.walk(tree) if isinstance(gen, ast.comprehension)]
    for over, tests in scans:
        if not any(isinstance(n, ast.Attribute) and n.attr == "arrows" for n in ast.walk(over)):
            continue
        for n in (n for t in tests for n in ast.walk(t)):
            if isinstance(n, ast.Compare) and any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in n.ops) and any(
                    isinstance(side, ast.Attribute) and side.attr == "name"
                    for side in (n.left, *n.comparators)):
                found.append(f"line {n.lineno}: a scan of arrows for a name")
    return found


def test_src_uses_quiver_index_maps():
    # positions come from Quiver.vertex_index, arrow_index and arrow_ends
    found = {p.name: linear_lookups(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: places for name, places in found.items() if places} == {}


def name_incidence(path: Path) -> list[str]:
    """Places in ``path`` that work out incidence from names: calls of
    ``in_arrows``, ``out_arrows`` or ``arrow``, and loops or
    comprehensions over some ``.arrows`` that read an arrow's ``.source``
    or ``.target``; each is given with its top-level definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for top in tree.body:
        where = getattr(top, "name", "module")
        scans = [(node.iter, node.target, node) for node in ast.walk(top)
                 if isinstance(node, (ast.For, ast.AsyncFor))]
        scans += [(gen.iter, gen.target, node) for node in ast.walk(top)
                  if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp))
                  for gen in node.generators]
        for over, target, scope in scans:
            if not any(isinstance(n, ast.Attribute) and n.attr == "arrows" for n in ast.walk(over)):
                continue
            bound = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
            found += [f"{where}:{n.lineno}: {n.value.id}.{n.attr}" for n in ast.walk(scope)
                      if isinstance(n, ast.Attribute) and n.attr in ("source", "target")
                      and isinstance(n.value, ast.Name) and n.value.id in bound]
        found += [f"{where}:{n.lineno}: {n.func.attr}(" for n in ast.walk(top)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in ("in_arrows", "out_arrows", "arrow")]
    return sorted(set(found))


def test_reps_reads_arrow_incidence_by_position():
    # inside reps an arrow or a vertex is a position: incidence comes from
    # Quiver.arrows_out, arrows_in and arrow_ends, names only from the
    # caller of a public entry point
    assert name_incidence(SRC / "reps.py") == []


def test_src_solves_off_the_reduced_rows():
    # Matrix.rref builds a whole echelon Matrix; the library reads
    # Matrix._reduced instead, and rref stays only as public API
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "rref"]
    assert calls == []


def test_src_forms_morphisms_only_at_the_public_api():
    # inside the library a module map is its flat coordinates; only the
    # public API that hands out Morphism objects forms or composes them
    public = {"HomSpace", "identity_morphism", "compose_morphisms", "combine_morphisms"}
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if getattr(top, "name", None) in public:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("Morphism", "compose_morphisms"):
                        uses.append(f"{path.name}:{node.lineno}: {name}(")
                elif isinstance(node, ast.Attribute) and node.attr == "basis":
                    uses.append(f"{path.name}:{node.lineno}: .basis")
    assert uses == []
