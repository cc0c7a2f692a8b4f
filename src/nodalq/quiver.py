"""Quivers, paths, relations and presentations.

A quiver is a finite directed multigraph with named vertices and named
arrows.  Paths compose the way functions do: the word ``a1 a2 ... ak``
means "apply ``ak`` first", so consecutive arrows must satisfy
``target(a[t+1]) == source(a[t])``.  Empty paths act as the identity at
their base vertex.

A presentation is a quiver together with a finite set of relations of
two kinds: monomial zero relations (a path is declared zero) and
commutation relations (two parallel paths are declared equal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union


class QuiverError(ValueError):
    pass


class UnknownVertex(QuiverError):
    pass


class NonComposable(QuiverError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    """Vertices and arrows, with the positions that validating them finds:
    ``vertex_index`` and ``arrow_index`` map names to positions (two maps,
    because a vertex and an arrow may share a name), and ``arrow_ends``
    holds the (source, target) vertex positions of each arrow.

    ``arrows_out`` and ``arrows_in`` hold, per vertex position, the
    positions of the arrows leaving and entering it, in arrow order; the
    name-level ``out_arrows`` and ``in_arrows`` and the graph walks read
    them.  Each is built on first read, so validating costs nothing more."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    vertex_index: dict = field(init=False, repr=False, compare=False)
    arrow_index: dict = field(init=False, repr=False, compare=False)
    arrow_ends: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        at: dict[str, int] = {}
        for k, v in enumerate(self.vertices):
            if v in at:
                raise QuiverError(f"duplicate vertex id {v!r}")
            at[v] = k
        named: dict[str, int] = {}
        ends = []
        for k, a in enumerate(self.arrows):
            if a.name in named:
                raise QuiverError(f"duplicate arrow id {a.name!r}")
            named[a.name] = k
            if a.source not in at:
                raise UnknownVertex(f"arrow {a.name!r}: unknown source {a.source!r}")
            if a.target not in at:
                raise UnknownVertex(f"arrow {a.name!r}: unknown target {a.target!r}")
            ends.append((at[a.source], at[a.target]))
        object.__setattr__(self, "vertex_index", at)
        object.__setattr__(self, "arrow_index", named)
        object.__setattr__(self, "arrow_ends", tuple(ends))

    @cached_property
    def arrows_out(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex position, the positions of the arrows leaving it."""
        return self._incident(0)

    @cached_property
    def arrows_in(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex position, the positions of the arrows entering it."""
        return self._incident(1)

    def _incident(self, end: int) -> tuple[tuple[int, ...], ...]:
        at = [[] for _ in self.vertices]
        for k, ends in enumerate(self.arrow_ends):
            at[ends[end]].append(k)
        return tuple(map(tuple, at))

    def arrow(self, name: str) -> Arrow:
        k = self.arrow_index.get(name)
        if k is None:
            raise QuiverError(f"unknown arrow {name!r}")
        return self.arrows[k]

    def has_vertex(self, v: str) -> bool:
        return v in self.vertex_index

    def in_arrows(self, v: str) -> tuple[Arrow, ...]:
        if v not in self.vertex_index:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return tuple(self.arrows[a] for a in self.arrows_in[self.vertex_index[v]])

    def out_arrows(self, v: str) -> tuple[Arrow, ...]:
        if v not in self.vertex_index:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return tuple(self.arrows[a] for a in self.arrows_out[self.vertex_index[v]])

    def is_acyclic(self) -> bool:
        # iterative DFS with colors; loops and multi-arrows allowed
        out, ends = self.arrows_out, self.arrow_ends
        color = [0] * len(self.vertices)  # 0 white, 1 gray, 2 black
        for root in range(len(self.vertices)):
            if color[root]:
                continue
            stack = [(root, iter(out[root]))]
            color[root] = 1
            while stack:
                v, it = stack[-1]
                a = next(it, None)
                if a is None:
                    color[v] = 2
                    stack.pop()
                    continue
                nxt = ends[a][1]
                if color[nxt] == 1:
                    return False
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(out[nxt])))
        return True

    def undirected_components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the underlying undirected graph.

        Vertices inside a component keep quiver order; components are
        ordered by their first vertex.
        """
        out, into, ends = self.arrows_out, self.arrows_in, self.arrow_ends
        seen = [False] * len(self.vertices)
        comps = []
        for v in range(len(self.vertices)):
            if seen[v]:
                continue
            seen[v] = True
            comp = [v]
            for u in comp:  # grows as the walk finds vertices
                for a in out[u] + into[u]:
                    for w in ends[a]:
                        if not seen[w]:
                            seen[w] = True
                            comp.append(w)
            comps.append(tuple(map(self.vertices.__getitem__, sorted(comp))))
        return tuple(comps)


def _induced_quiver(q: Quiver, vertices) -> Quiver:
    vs = tuple(v for v in q.vertices if v in vertices)
    keep = set(vs)
    arrows = tuple(a for a in q.arrows if a.source in keep and a.target in keep)
    return Quiver(vs, arrows)


@dataclass(frozen=True)
class Path:
    """A path in a quiver, stored as the written word of arrow names.

    ``arrows[0]`` is applied last.  Empty paths need a ``base`` vertex.
    """

    quiver: Quiver
    arrows: tuple[str, ...]
    base: Union[str, None] = None

    def __post_init__(self) -> None:
        if not self.arrows:
            if self.base is None:
                raise QuiverError("empty path needs a base vertex")
            if self.base not in self.quiver.vertex_index:
                raise UnknownVertex(f"unknown vertex {self.base!r}")
            return
        objs = [self.quiver.arrow(n) for n in self.arrows]
        for t in range(len(objs) - 1):
            if objs[t + 1].target != objs[t].source:
                raise NonComposable(
                    f"arrows {self.arrows[t + 1]!r} and {self.arrows[t]!r} do not compose"
                )

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def source(self) -> str:
        if not self.arrows:
            return self.base  # type: ignore[return-value]
        return self.quiver.arrow(self.arrows[-1]).source

    @property
    def target(self) -> str:
        if not self.arrows:
            return self.base  # type: ignore[return-value]
        return self.quiver.arrow(self.arrows[0]).target


def empty_path(q: Quiver, v: str) -> Path:
    return Path(q, (), v)


def compose(p: Path, q: Path) -> Path:
    """The path written ``p . q``, meaning ``q`` is applied first."""
    if p.quiver != q.quiver:
        raise NonComposable("paths live in different quivers")
    if q.target != p.source:
        raise NonComposable(
            f"target {q.target!r} of right factor differs from source {p.source!r} of left factor"
        )
    if not p.arrows and not q.arrows:
        return Path(p.quiver, (), p.base)
    return Path(p.quiver, p.arrows + q.arrows)


@dataclass(frozen=True)
class MonomialZero:
    """A path of length >= 2 declared to be zero."""

    path: Path

    def __post_init__(self) -> None:
        if self.path.length < 2:
            raise QuiverError("zero relations must have length >= 2")


@dataclass(frozen=True)
class Commutation:
    """Two parallel paths of length >= 2 declared to be equal."""

    lhs: Path
    rhs: Path

    def __post_init__(self) -> None:
        if self.lhs.length < 2 or self.rhs.length < 2:
            raise QuiverError("commutation relations need length >= 2 on both sides")
        if self.lhs.quiver != self.rhs.quiver:
            raise QuiverError("commutation sides live in different quivers")
        if (self.lhs.source, self.lhs.target) != (self.rhs.source, self.rhs.target):
            raise QuiverError("commutation sides must be parallel")
        if self.lhs.arrows == self.rhs.arrows:
            raise QuiverError("commutation sides must differ")


@dataclass(frozen=True)
class Presentation:
    quiver: Quiver
    relations: frozenset

    def __post_init__(self) -> None:
        for r in self.relations:
            if isinstance(r, MonomialZero):
                if r.path.quiver != self.quiver:
                    raise QuiverError("relation path lives in a different quiver")
            elif isinstance(r, Commutation):
                if r.lhs.quiver != self.quiver:
                    raise QuiverError("relation path lives in a different quiver")
            else:
                raise QuiverError(f"unknown relation kind {type(r).__name__}")

    @cached_property
    def _key(self) -> tuple:
        """Its hash and what the dataclass equality compared.  Every
        relation path lies in ``quiver``, so the class, word and base of
        its paths decide a relation."""
        q = self.quiver
        arrows = tuple((type(a), a.name, a.source, a.target) for a in q.arrows)
        relations = frozenset(
            (type(r),) + tuple((type(p), p.arrows, p.base) for p in (
                (r.path,) if isinstance(r, MonomialZero) else (r.lhs, r.rhs)))
            for r in self.relations)
        key = (type(q), q.vertices, arrows, relations)
        return hash(key), key

    @cached_property
    def _relation_words(self) -> tuple:
        """The relations as pairs of words over arrow positions: the zero
        words in ``zero_words`` order with None as the second word, then
        the pairs of ``commutation_pairs``."""
        index = self.quiver.arrow_index

        def positions(word):
            return tuple(map(index.__getitem__, word))

        return tuple([(positions(w), None) for w in self.zero_words()] + [
            (positions(lhs), positions(rhs)) for lhs, rhs in self.commutation_pairs()])

    @cached_property
    def _derived(self) -> dict:
        """The presentations ``construct`` glued or blew up from this one,
        keyed by operation and arguments."""
        return {}

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._key[0]

    def zero_words(self) -> tuple[tuple[str, ...], ...]:
        ws = sorted(r.path.arrows for r in self.relations if isinstance(r, MonomialZero))
        return tuple(ws)

    def commutation_pairs(self) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
        ps = sorted(
            (r.lhs.arrows, r.rhs.arrows)
            for r in self.relations
            if isinstance(r, Commutation)
        )
        return tuple(ps)


def hereditary(q: Quiver) -> Presentation:
    return Presentation(q, frozenset())


# ---------------------------------------------------------------------------
# underlying graph shapes

ALINE = "ALine"
ACYCLE = "ACycle"
DYNKIN_D = "DynkinD"
DYNKIN_E = "DynkinE"
EUCLIDEAN_D = "EuclideanD"
EUCLIDEAN_E = "EuclideanE"
OTHER = "Other"


@dataclass(frozen=True)
class ComponentShape:
    label: str
    vertices: tuple[str, ...]
    index: Union[int, None] = None  # Dynkin/Euclidean subscript where meaningful

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class ShapeReport:
    components: tuple[ComponentShape, ...]
    acyclic: bool


def _legs(adj: dict[str, list[str]], center: str) -> Union[list[int], None]:
    """Lengths of the simple paths hanging off ``center``; None if branched."""
    lengths = []
    for start in adj[center]:
        prev, cur, steps = center, start, 1
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if len(nxt) == 0:
                break
            if len(nxt) > 1:
                return None  # another branch point on this leg
            prev, cur = cur, nxt[0]
            steps += 1
        lengths.append(steps)
    return sorted(lengths)


def _component_shape(vertices: tuple[str, ...], edges: list[tuple[str, str]]) -> ComponentShape:
    n = len(vertices)
    loops = [e for e in edges if e[0] == e[1]]
    if loops:
        if n == 1 and len(edges) == 1:
            return ComponentShape(ACYCLE, vertices, 1)
        return ComponentShape(OTHER, vertices)
    pair_counts: dict[frozenset, int] = {}
    for e in edges:
        pair_counts[frozenset(e)] = pair_counts.get(frozenset(e), 0) + 1
    if any(c > 1 for c in pair_counts.values()):
        if n == 2 and len(edges) == 2:
            return ComponentShape(ACYCLE, vertices, 2)
        return ComponentShape(OTHER, vertices)
    # simple graph from here on
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    degs = {v: len(adj[v]) for v in vertices}
    e = len(edges)
    if e == n and all(d == 2 for d in degs.values()):
        return ComponentShape(ACYCLE, vertices, n)
    if e != n - 1:
        return ComponentShape(OTHER, vertices)
    # tree
    branch = [v for v in vertices if degs[v] >= 3]
    if not branch:
        return ComponentShape(ALINE, vertices, n)
    if len(branch) == 1:
        c = branch[0]
        legs = _legs(adj, c)
        if legs is None:
            return ComponentShape(OTHER, vertices)
        if degs[c] == 3:
            a, b, k = legs
            if (a, b) == (1, 1):
                return ComponentShape(DYNKIN_D, vertices, n)
            if legs == [1, 2, 2]:
                return ComponentShape(DYNKIN_E, vertices, 6)
            if legs == [1, 2, 3]:
                return ComponentShape(DYNKIN_E, vertices, 7)
            if legs == [1, 2, 4]:
                return ComponentShape(DYNKIN_E, vertices, 8)
            if legs == [2, 2, 2]:
                return ComponentShape(EUCLIDEAN_E, vertices, 6)
            if legs == [1, 3, 3]:
                return ComponentShape(EUCLIDEAN_E, vertices, 7)
            if legs == [1, 2, 5]:
                return ComponentShape(EUCLIDEAN_E, vertices, 8)
            return ComponentShape(OTHER, vertices)
        if degs[c] == 4 and legs == [1, 1, 1, 1]:
            return ComponentShape(EUCLIDEAN_D, vertices, 4)
        return ComponentShape(OTHER, vertices)
    if len(branch) == 2 and all(degs[v] == 3 for v in branch):
        # both branch vertices must carry two length-1 leaf legs
        for c in branch:
            leaves = [w for w in adj[c] if degs[w] == 1]
            if len(leaves) != 2:
                return ComponentShape(OTHER, vertices)
        return ComponentShape(EUCLIDEAN_D, vertices, n - 1)
    return ComponentShape(OTHER, vertices)


def underlying_shape(q: Quiver) -> ShapeReport:
    """Classify each underlying undirected component as a graph shape.

    Labels: ALine (path graph A_n), ACycle (cycle, including a single
    loop and a double edge), DynkinD, DynkinE, EuclideanD, EuclideanE,
    Other.  Orientation is ignored except for the global ``acyclic``
    flag.
    """
    vs, ends, out = q.vertices, q.arrow_ends, q.arrows_out
    shapes = []
    for comp in q.undirected_components():
        edges = [(vs[ends[a][0]], vs[ends[a][1]])
                 for k in map(q.vertex_index.__getitem__, comp) for a in out[k]]
        shapes.append(_component_shape(comp, edges))
    return ShapeReport(tuple(shapes), q.is_acyclic())
