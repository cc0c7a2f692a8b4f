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

``dimension`` counts a basis of any presentation with zero and
commutation relations: the normal words of the completed rewriting
system (Farkas, Feustel and Green, "Synergy in the theories of Gröbner
bases and path algebras", Canad. J. Math. 1993), without listing paths.
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


def _inessential_order(q: Quiver, i: str, j: str):
    """The ordering (s, t) of the pair with no arrows into s and none out
    of t, trying (i, j) first; None when neither ordering has that."""
    for s, t in ((i, j), (j, i)):
        if not q.in_arrows(s) and not q.out_arrows(t):
            return s, t
    return None


def _built_once(pres: Presentation, build, *args):
    """``build(pres, *args)``, built once per presentation object and
    arguments and kept on ``pres``; each call gets fresh copies of the
    vertex and arrow maps, and a build that raises keeps nothing."""
    key = (build, *args)
    got = pres._derived.get(key)
    if got is None:
        got = pres._derived[key] = build(pres, *args)
    new, vertex_map, arrow_map = got
    return new, dict(vertex_map), dict(arrow_map)


def glue_presentation(pres: Presentation, i: str, j: str, merged_id=None):
    """Merge vertices ``i`` and ``j`` of a presentation.

    Returns the new presentation plus per-step vertex and arrow maps.
    One presentation object is built per base object and arguments.
    """
    return _built_once(pres, _glue, i, j, merged_id)


def _glue(pres: Presentation, i: str, j: str, merged_id):
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
    """Split vertex ``v`` into a primed pair, duplicating what touches it;
    one presentation object is built per base object and vertex."""
    return _built_once(pres, _blow, v)


def _blow(pres: Presentation, v: str):
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

    # each step's base is new here, so nothing is kept on it
    for i, j in d.glue_pairs:
        pres, vstep, astep = _glue(pres, i, j, None)
        vmap = compose_maps(vmap, vstep)
        amap = compose_maps(amap, astep)
    for v in sorted(d.blow_vertices):
        pres, vstep, astep = _blow(pres, v)
        vmap = compose_maps(vmap, vstep)
        amap = compose_maps(amap, astep)
    return pres, GluedVertexMap(vmap, amap)


# ---------------------------------------------------------------------------
# dimension of the presented algebra
#
# Words here are those of ``Presentation._relation_words``: arrow positions
# in written order, the arrow applied last first.  Paths are read alike.

def _avoiding(words):
    """The step function of the automaton that reads paths avoiding ``words``.

    A state is the longest suffix of the word read so far that is a
    proper prefix of one of ``words``; ``()`` is the start state.  A step
    returns None once the word read contains one of ``words``.
    """
    words = set(words)
    prefixes = {()} | {w[:k] for w in words for k in range(len(w))}

    def step(s, a):
        t = s + (a,)
        if any(t[k:] in words for k in range(len(t))):
            return None
        while t not in prefixes:
            t = t[1:]
        return t

    return step


def _live_graph(q: Quiver, step, refusal: str):
    """The (vertex, state) pairs reached by the paths that ``step`` reads
    back from the vertex where they end; successors before predecessors,
    and each pair's successors.  Raises NonNilpotentCycle, saying
    ``refusal``, if they form a cycle."""
    into, ends = q.arrows_in, q.arrow_ends
    succ = {}
    order = []

    def visit(node):
        v, s = node
        succ[node] = [(ends[a][0], t) for a in into[v] if (t := step(s, a)) is not None]
        return iter(succ[node])

    for start in ((v, ()) for v in range(len(into))):
        if start in succ:
            continue
        on_path = {start}
        stack = [(start, visit(start))]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                on_path.discard(node)
                order.append(node)
            elif nxt in on_path:
                raise NonNilpotentCycle(refusal)
            elif nxt not in succ:
                on_path.add(nxt)
                stack.append((nxt, visit(nxt)))
    return order, succ


def _zero_free(pres: Presentation, refusal: str):
    """The zero words of ``pres`` and the live graph of the paths that
    contain none of them; see ``_live_graph``."""
    zeros = [lhs for lhs, rhs in pres._relation_words if rhs is None]
    return zeros, *_live_graph(pres.quiver, _avoiding(zeros), refusal)


def _contains(w: tuple, u: tuple) -> bool:
    n = len(u)
    return any(w[i:i + n] == u for i in range(len(w) - n + 1))


def _complete(zeros, commutations) -> dict:
    """A complete rewriting system for the zero words and commutations.

    Returns the rules as a map from left side to right side, None
    standing for zero.  All zero rules go in first; each commutation is
    oriented from its larger side to its smaller one by degree-lex order,
    and Knuth–Bendix completion with interreduction resolves overlaps
    and inclusions.  A left side is added only when irreducible, so it
    contains no zero word, and the longest zero-free path bounds its
    length: the completion terminates.
    """
    rules = dict.fromkeys(zeros)

    def normal_form(w):
        while w is not None:
            hit = next(((i, j) for i in range(len(w)) for j in range(i + 1, len(w) + 1)
                        if w[i:j] in rules), None)
            if hit is None:
                return w
            i, j = hit
            r = rules[w[i:j]]
            w = None if r is None else w[:i] + r + w[j:]
        return None

    def overlaps(l1, r1, l2, r2):
        # l1 = x.y and l2 = y.z with y, x and z nonempty: x.y.z rewrites
        # to r1.z and to x.r2
        for k in range(1, min(len(l1), len(l2))):
            if l1[-k:] == l2[:k]:
                yield (None if r1 is None else r1 + l2[k:],
                       None if r2 is None else l1[:-k] + r2)

    pending = list(commutations)
    while pending:
        u, v = map(normal_form, pending.pop())
        if u == v:
            continue
        if u is None or (v is not None and (len(u), u) < (len(v), v)):
            u, v = v, u
        pending += [(lhs, rules.pop(lhs)) for lhs in list(rules) if _contains(lhs, u)]
        rules[u] = v
        for lhs, rhs in list(rules.items()):
            if rhs is not None and _contains(rhs, u):
                rules[lhs] = rhs = normal_form(rhs)
            pending += overlaps(u, v, lhs, rhs)
            if lhs != u:
                pending += overlaps(lhs, rhs, u, v)
    return rules


def dimension(pres: Presentation, max_path_length: int = 64) -> int:
    """Dimension of the presented algebra over any coefficient field.

    The relations are monomials and binomials ``p = q``, so a complete
    rewriting system for them (Knuth–Bendix completion under degree-lex
    order) has only coefficients ±1, and the algebra has the paths that
    contain no left side of a rule as a basis, trivial paths included.
    They are counted by a dynamic program over (vertex, automaton state)
    pairs, without listing any path.

    Raises NonNilpotentCycle when some path containing no zero relation
    is longer than ``max_path_length``, including when there are
    infinitely many of them.
    """
    if max_path_length < 0:
        raise ValueError(f"max_path_length must be nonnegative, got {max_path_length}")
    refusal = f"a relation-free path exceeded the length cap {max_path_length}"
    zeros, order, succ = _zero_free(pres, refusal)
    longest = {}
    for node in order:
        longest[node] = max((longest[m] + 1 for m in succ[node]), default=0)
    if max(longest.values(), default=0) > max_path_length:
        raise NonNilpotentCycle(refusal)
    commutations = [(l, r) for l, r in pres._relation_words if r is not None]
    if commutations:
        rules = _complete(zeros, commutations)
        order, succ = _live_graph(pres.quiver, _avoiding(rules), refusal)
    count = {}
    for node in order:
        count[node] = 1 + sum(count[m] for m in succ[node])
    return sum(count[(v, ())] for v in range(len(pres.quiver.vertices)))
