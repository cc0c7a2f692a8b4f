"""Text formats: the datum language and presentation emitters.

The datum language is line oriented.  ``#`` starts a comment, blank
lines are ignored, and ids consist of letters, digits, underscores and
parentheses (apostrophes are reserved for derived names in emitted
presentations and never occur in input):

    vertices v1 v2 v3
    arrow a : v1 -> v2     # name : source -> target
    glue v1 v3
    blow v2

Serialization is canonical: one vertices line, then arrows, gluings and
blow-ups in stored order, so parse and serialize are mutually inverse
and a second canonicalization is byte-stable.
"""

from __future__ import annotations

import json
import re

from .construct import GluedVertexMap, NodalDatum
from .quiver import Arrow, Commutation, MonomialZero, Path, Presentation, Quiver


class DatumSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DatumSemanticError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"->|:|[A-Za-z0-9_()]+")
_ID = re.compile(r"[A-Za-z0-9_()]+\Z")


def _tokenize(text: str, lineno: int):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise DatumSyntaxError(
                f"unexpected character {text[pos]!r}", lineno, pos + 1
            )
        tokens.append((m.group(), pos + 1))
        pos = m.end()
    return tokens


def parse_datum(text: str) -> NodalDatum:
    """Parse the datum language; errors carry line and column."""
    vertices: list[str] = []
    vset = set()
    arrows: list[Arrow] = []
    anames = set()
    glues: list[tuple[str, str]] = []
    blows: list[str] = []

    def need_id(tok, lineno):
        word, col = tok
        if not _ID.match(word):
            raise DatumSyntaxError(f"expected an id, got {word!r}", lineno, col)
        return word, col

    def need_vertex(tok, lineno):
        word, col = need_id(tok, lineno)
        if word not in vset:
            raise DatumSemanticError(f"unknown vertex {word!r}", lineno, col)
        return word

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        head, hcol = tokens[0]
        rest = tokens[1:]
        if head == "vertices":
            if not rest:
                raise DatumSyntaxError("vertices line needs at least one id", lineno, hcol)
            for tok in rest:
                word, col = need_id(tok, lineno)
                if word in vset:
                    raise DatumSemanticError(f"duplicate vertex {word!r}", lineno, col)
                vset.add(word)
                vertices.append(word)
        elif head == "arrow":
            if (
                len(rest) != 5
                or rest[1][0] != ":"
                or rest[3][0] != "->"
            ):
                raise DatumSyntaxError(
                    "expected: arrow <name> : <source> -> <target>", lineno, hcol
                )
            name, ncol = need_id(rest[0], lineno)
            if name in anames:
                raise DatumSemanticError(f"duplicate arrow {name!r}", lineno, ncol)
            src = need_vertex(rest[2], lineno)
            tgt = need_vertex(rest[4], lineno)
            anames.add(name)
            arrows.append(Arrow(name, src, tgt))
        elif head == "glue":
            if len(rest) != 2:
                raise DatumSyntaxError("expected: glue <vertex> <vertex>", lineno, hcol)
            glues.append((need_vertex(rest[0], lineno), need_vertex(rest[1], lineno)))
        elif head == "blow":
            if len(rest) != 1:
                raise DatumSyntaxError("expected: blow <vertex>", lineno, hcol)
            blows.append(need_vertex(rest[0], lineno))
        else:
            raise DatumSyntaxError(f"unknown directive {head!r}", lineno, hcol)
    base = Quiver(tuple(vertices), tuple(arrows))
    return NodalDatum(base, tuple(glues), tuple(blows))


def serialize_datum(d: NodalDatum) -> str:
    lines = []
    if d.base.vertices:
        lines.append("vertices " + " ".join(d.base.vertices))
    for a in d.base.arrows:
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}")
    for i, j in d.glue_pairs:
        lines.append(f"glue {i} {j}")
    for v in d.blow_vertices:
        lines.append(f"blow {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presentation output

def relation_strings(pres: Presentation) -> tuple[str, ...]:
    """Canonically ordered renderings: zero words first, then
    commutations, each side written with a middle dot."""
    out = [f"{'·'.join(w)} = 0" for w in pres.zero_words()]
    out.extend(
        f"{'·'.join(lhs)} = {'·'.join(rhs)}" for lhs, rhs in pres.commutation_pairs()
    )
    return tuple(out)


def _emit_text(pres: Presentation) -> str:
    lines = ["vertices: " + ", ".join(pres.quiver.vertices)]
    lines.append("arrows:")
    for a in pres.quiver.arrows:
        lines.append(f"  {a.name} : {a.source} -> {a.target}")
    rels = relation_strings(pres)
    if rels:
        lines.append("relations:")
        lines.extend(f"  {r}" for r in rels)
    else:
        lines.append("relations: none")
    return "\n".join(lines) + "\n"


def _emit_json(pres: Presentation) -> str:
    obj = {
        "vertices": list(pres.quiver.vertices),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target}
            for a in pres.quiver.arrows
        ],
        "relations": [
            {"kind": "zero", "word": list(w)} for w in pres.zero_words()
        ]
        + [
            {"kind": "commutation", "lhs": list(l), "rhs": list(r)}
            for l, r in pres.commutation_pairs()
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def _emit_dot(pres: Presentation, vmap) -> str:
    merged = set()
    clusters = []
    if vmap is not None:
        hits = {}
        for v, names in sorted(vmap.vertex_map.items()):
            if len(names) == 2:
                clusters.append(names)
            for n in names:
                hits[n] = hits.get(n, 0) + 1
        merged = {n for n, c in hits.items() if c > 1}
    clustered = {n for pair in clusters for n in pair}
    lines = ["digraph presentation {", "  rankdir=LR;"]
    for v in pres.quiver.vertices:
        if v in clustered:
            continue
        attr = " [shape=box]" if v in merged else ""
        lines.append(f'  "{v}"{attr};')
    for k, pair in enumerate(clusters):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append("    style=dashed;")
        for n in pair:
            lines.append(f'    "{n}";')
        lines.append("  }")
    for a in pres.quiver.arrows:
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_presentation(pres: Presentation, fmt: str = "text", vmap=None) -> str:
    """Render a presentation as text, json or dot.

    The dot format marks merged vertices with boxes and groups the two
    halves of a blown vertex in a dashed cluster when the vertex map
    from the construction is supplied.
    """
    if vmap is not None and not isinstance(vmap, GluedVertexMap):
        raise TypeError("vmap must be the vertex map returned by the construction")
    if fmt == "text":
        return _emit_text(pres)
    if fmt == "json":
        return _emit_json(pres)
    if fmt == "dot":
        return _emit_dot(pres, vmap)
    raise ValueError(f"unknown format {fmt!r}")


def _typed(x, kind: str, where: str):
    """``x``, when it has the json type that the schema gives ``where``."""
    if not isinstance(x, {"an object": dict, "an array": list, "a string": str}[kind]):
        raise ValueError(f"{where} in presentation json must be {kind}")
    return x


def _ids(x, where: str) -> tuple[str, ...]:
    return tuple(_typed(v, "a string", f"{where}[{k}]")
                 for k, v in enumerate(_typed(x, "an array", where)))


def presentation_from_json(text: str) -> Presentation:
    """Inverse of the json emitter.  Malformed input raises ValueError:
    for a field of the wrong json type (``docs/presentation.schema.json``)
    the message names the field."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid json: {e}") from None
    try:
        obj = _typed(obj, "an object", "the top level")
        vertices = _ids(obj["vertices"], "vertices")
        arrows = []
        for k, a in enumerate(_typed(obj["arrows"], "an array", "arrows")):
            a = _typed(a, "an object", f"arrows[{k}]")
            arrows.append(Arrow(*(_typed(a[f], "a string", f"arrows[{k}].{f}")
                                  for f in ("name", "source", "target"))))
        q = Quiver(vertices, tuple(arrows))
        rels = set()
        for k, r in enumerate(_typed(obj["relations"], "an array", "relations")):
            r = _typed(r, "an object", f"relations[{k}]")
            if r["kind"] == "zero":
                rels.add(MonomialZero(Path(q, _ids(r["word"], f"relations[{k}].word"))))
            elif r["kind"] == "commutation":
                rels.add(Commutation(Path(q, _ids(r["lhs"], f"relations[{k}].lhs")),
                                     Path(q, _ids(r["rhs"], f"relations[{k}].rhs"))))
            else:
                raise ValueError(f"unknown relation kind {r['kind']!r}")
    except KeyError as e:
        raise ValueError(f"missing key {e.args[0]!r} in presentation json") from None
    return Presentation(q, frozenset(rels))
