"""Building nodal presentations from a hereditary quiver and operation data.

A datum is a finite acyclic quiver together with a set of unordered
vertex pairs to glue and a set of vertices to blow up; all operated
vertices must be pairwise distinct.  Gluing ``{i, j}`` merges the two
vertices and imposes the zero relations ``a.b = 0`` for every arrow
``a`` leaving one of them and every arrow ``b`` entering the other.
Blowing up ``i`` splits it into ``i'`` and ``i''``, duplicates every
incident arrow and every relation touching those arrows, and imposes
the commutations ``a'.b' = a''.b''`` for every arrow ``a`` leaving and
every arrow ``b`` entering ``i``.

The resulting presentation does not depend on the order of operations;
internally gluings are applied first and blow-ups in sorted vertex
order so that derived ids come out canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import (
    Arrow,
    Commutation,
    MonomialZero,
    Path,
    Presentation,
    Quiver,
)


class InvalidDatum(ValueError):
    pass


class NonNilpotentCycle(RuntimeError):
    pass


@dataclass(frozen=True)
class NodalDatum:
    base: Quiver
    glue_pairs: tuple[tuple[str, str], ...] = ()
    blow_vertices: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class GluedVertexMap:
    """Where each base vertex and arrow ends up in the built presentation.

    Values are tuples: a single id normally, the shared merged id for a
    glued vertex, and the primed pair for a blown vertex.  Arrows
    incident to blown vertices map to all their primed copies.
    """

    vertex_map: dict
    arrow_map: dict

    def vertex_names(self, v: str) -> tuple[str, ...]:
        return self.vertex_map[v]

    def arrow_names(self, a: str) -> tuple[str, ...]:
        return self.arrow_map[a]


def merged_vertex_id(i: str, j: str) -> str:
    return f"({i} {j})"


def _prime(name: str, marks: str) -> str:
    # wrap already-derived names so a''-style ids never collide when an
    # arrow joins two blown vertices
    if name.endswith("'"):
        name = f"({name})"
    return name + marks


def validate(d: NodalDatum) -> ValidationReport:
    problems = []
    operated = []
    for pair in d.glue_pairs:
        if len(pair) != 2:
            problems.append(f"glue pair {pair!r} must have exactly two vertices")
            continue
        i, j = pair
        if i == j:
            problems.append(f"glue pair ({i}, {j}) repeats a vertex")
        for v in pair:
            if not d.base.has_vertex(v):
                problems.append(f"glue vertex {v!r} is not in the base quiver")
        operated.extend(pair)
    for v in d.blow_vertices:
        if not d.base.has_vertex(v):
            problems.append(f"blow vertex {v!r} is not in the base quiver")
        operated.append(v)
    seen = set()
    for v in operated:
        if v in seen:
            problems.append(f"vertex {v!r} is used by more than one operation")
        seen.add(v)
    if not d.base.is_acyclic():
        problems.append("base quiver has an oriented cycle")
    for a in d.base.arrows:
        if a.source == a.target:
            problems.append(f"base quiver has a loop {a.name!r}")
    return ValidationReport(not problems, tuple(problems))


def _remap(r, q: Quiver, rename=lambda a: a):
    """The relation ``r`` rebuilt over ``q`` with its arrows renamed."""
    if isinstance(r, MonomialZero):
        return MonomialZero(Path(q, tuple(map(rename, r.path.arrows))))
    return Commutation(
        Path(q, tuple(map(rename, r.lhs.arrows))),
        Path(q, tuple(map(rename, r.rhs.arrows))),
    )


def glue_presentation(pres: Presentation, i: str, j: str, merged_id=None):
    """Merge vertices ``i`` and ``j`` of a presentation.

    Returns the new presentation plus per-step vertex and arrow maps.
    """
    q = pres.quiver
    if i == j:
        raise InvalidDatum("cannot glue a vertex to itself")
    if not q.has_vertex(i) or not q.has_vertex(j):
        raise InvalidDatum(f"glue pair ({i}, {j}) not in quiver")
    m = merged_id if merged_id is not None else merged_vertex_id(i, j)
    while q.has_vertex(m):
        m = f"({m})"

    def vmap(v: str) -> str:
        return m if v in (i, j) else v

    vertices = []
    for v in q.vertices:
        if v == i:
            vertices.append(m)
        elif v != j:
            vertices.append(v)
    arrows = tuple(Arrow(a.name, vmap(a.source), vmap(a.target)) for a in q.arrows)
    new_q = Quiver(tuple(vertices), arrows)

    rels = {_remap(r, new_q) for r in pres.relations}
    # kill every passage through the merged vertex that crosses sides
    for out_v, in_v in ((i, j), (j, i)):
        for a in q.out_arrows(out_v):
            for b in q.in_arrows(in_v):
                rels.add(MonomialZero(Path(new_q, (a.name, b.name))))

    vertex_map = {v: (vmap(v),) for v in q.vertices}
    arrow_map = {a.name: (a.name,) for a in q.arrows}
    return Presentation(new_q, frozenset(rels)), vertex_map, arrow_map


def blow_presentation(pres: Presentation, v: str):
    """Split vertex ``v`` into a primed pair, duplicating what touches it."""
    q = pres.quiver
    if not q.has_vertex(v):
        raise InvalidDatum(f"blow vertex {v!r} not in quiver")
    if any(a.source == v and a.target == v for a in q.arrows):
        raise InvalidDatum(f"cannot blow up {v!r}: it carries a loop")
    v1, v2 = _prime(v, "'"), _prime(v, "''")
    vertices = []
    for u in q.vertices:
        if u == v:
            vertices.extend([v1, v2])
        else:
            vertices.append(u)

    incident = {a.name for a in q.arrows if v in (a.source, a.target)}
    arrows = []
    arrow_map = {}
    for a in q.arrows:
        if a.name in incident:
            copies = tuple(
                Arrow(_prime(a.name, marks), u if a.source == v else a.source,
                      u if a.target == v else a.target)
                for u, marks in ((v1, "'"), (v2, "''"))
            )
            arrows.extend(copies)
            arrow_map[a.name] = tuple(c.name for c in copies)
        else:
            arrows.append(a)
            arrow_map[a.name] = (a.name,)
    new_q = Quiver(tuple(vertices), tuple(arrows))

    # each relation once per copy; one untouched by v comes out the same
    # both times and the set keeps one
    rels = set()
    for marks in ("'", "''"):
        def rename(a, marks=marks):
            return _prime(a, marks) if a in incident else a

        rels.update(_remap(r, new_q, rename) for r in pres.relations)
    # the two copies of any passage through v agree
    for a in q.out_arrows(v):
        for b in q.in_arrows(v):
            rels.add(
                Commutation(
                    Path(new_q, (_prime(a.name, "'"), _prime(b.name, "'"))),
                    Path(new_q, (_prime(a.name, "''"), _prime(b.name, "''"))),
                )
            )

    vertex_map = {u: ((v1, v2) if u == v else (u,)) for u in q.vertices}
    return Presentation(new_q, frozenset(rels)), vertex_map, arrow_map


def build_presentation(d: NodalDatum):
    """Apply all gluings, then all blow-ups (sorted), composing the maps."""
    report = validate(d)
    if not report.ok:
        raise InvalidDatum("; ".join(report.problems))
    pres = Presentation(d.base, frozenset())
    vmap = {v: (v,) for v in d.base.vertices}
    amap = {a.name: (a.name,) for a in d.base.arrows}

    def compose_maps(old, step):
        return {k: tuple(n for x in names for n in step[x]) for k, names in old.items()}

    for i, j in d.glue_pairs:
        pres, vstep, astep = glue_presentation(pres, i, j)
        vmap = compose_maps(vmap, vstep)
        amap = compose_maps(amap, astep)
    for v in sorted(d.blow_vertices):
        pres, vstep, astep = blow_presentation(pres, v)
        vmap = compose_maps(vmap, vstep)
        amap = compose_maps(amap, astep)
    return pres, GluedVertexMap(vmap, amap)


# ---------------------------------------------------------------------------
# dimension of the presented algebra

def _live_walks(pres: Presentation, cap: int):
    """All paths carrying no zero subword, as (word, source, target) triples.

    Walks are grown in application order; the stored word is the written
    (reversed) order.  Raises NonNilpotentCycle when a live path longer
    than ``cap`` shows up.
    """
    q = pres.quiver
    zero_apps = {tuple(reversed(w)) for w in pres.zero_words()}
    out = {v: [a for a in q.arrows if a.source == v] for v in q.vertices}
    walks = []  # application-order tuples of arrow names
    stack = [((), v) for v in q.vertices]  # (walk, current endpoint)
    while stack:
        walk, end = stack.pop()
        for a in out[end]:
            nw = walk + (a.name,)
            if len(nw) > cap:
                raise NonNilpotentCycle(
                    f"a relation-free path exceeded the length cap {cap}"
                )
            dead = False
            for z in zero_apps:
                if len(nw) >= len(z) and nw[-len(z):] == z:
                    dead = True
                    break
            if not dead:
                walks.append(nw)
                stack.append((nw, a.target))
    triples = [((), v, v) for v in q.vertices]
    for w in walks:
        src = q.arrow(w[0]).source
        tgt = q.arrow(w[-1]).target
        triples.append((tuple(reversed(w)), src, tgt))
    return triples


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def dimension(pres: Presentation, max_path_length: int = 64) -> int:
    """Dimension of the presented algebra over any coefficient field.

    Counts paths with no zero subword, then quotients by all multiples
    ``u.(lhs - rhs).w`` of the commutation relations.  Each such
    multiple is a difference of two path basis vectors (or a single one,
    when the other side dies on a zero subword), so the quotient rank is
    computed exactly by unifying path classes.
    """
    if max_path_length < 0:
        raise ValueError(f"max_path_length must be nonnegative, got {max_path_length}")
    triples = _live_walks(pres, max_path_length)
    index = {(w, s): k for k, (w, s, t) in enumerate(triples)}
    n = len(triples)
    uf = _UnionFind(n + 1)  # extra node for the zero class
    zero_node = n
    rank = 0
    comms = pres.commutation_pairs()
    if comms:
        q = pres.quiver
        ends = {}
        for lhs, rhs in comms:
            src = q.arrow(lhs[-1]).source
            tgt = q.arrow(lhs[0]).target
            ends[(lhs, rhs)] = (src, tgt)
        for (lhs, rhs), (src, tgt) in ends.items():
            lefts = [(w, s, t) for (w, s, t) in triples if s == tgt]
            rights = [(w, s, t) for (w, s, t) in triples if t == src]
            for uw, us, ut in lefts:
                for ww, ws, wt in rights:
                    a = index.get((uw + lhs + ww, ws), zero_node)
                    b = index.get((uw + rhs + ww, ws), zero_node)
                    if a == b:
                        continue
                    if uf.union(a, b):
                        rank += 1
    return n - rank
