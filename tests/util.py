"""Shared fixtures: quiver builders, random data generators and the
oracles the fast paths are compared against.

The path-counting oracle walks the quiver directly with a memoized DFS
and never touches the construction code, so an agreement is meaningful.
The dimension oracle lists every path with no zero subword and unifies
the path classes that the commutation relations identify.
The decomposition oracle peels one summand at a time off what is left,
restarting from the first catalog class after every split.  The
top-rank oracles are ``decompose`` and ``is_isomorphic`` before arrow
ranks pruned their Hom solves: every class that fits the dimension
vector, simples included, and every pair of equal dimension vectors is
decided by the rank of the radical pairing.  They read that rank from
``top_rank_by_residues``, which composes the blocks of every pair of
Hom basis elements where the library pairs flat coordinates.  The
isomorphism and indecomposability oracles sweep every coefficient
vector on a hom basis, up to a cap, instead of reading the top of an
endomorphism ring.  The tops oracle is ``is_isomorphic`` before it
compared simple multiplicities first: it reads the tops of the whole
modules, simple summands included.
The closure oracle is the unpruned extension enumerator: it builds every
nonzero extension class of every direct sum of smaller classes.  The
scan oracle builds every matrix tuple of every dimension vector.  Both
decide each candidate by probing every smaller class as a summand, never
by the End-ring certificate the enumerators under test use, and count
simple summands from kernel and image bases, never by the rank formula
of ``simple_summand_multiplicity``.  The local oracle is ``_is_local``
before its Fitting shifts and radical chain read the flat End basis: it
forms every shift as ``Matrix`` blocks of a ``Morphism``.
The dispatch oracle is the field kernel that the single reduction rule
of ``nodalq.linalg`` replaced: field objects with per-element method
tables, called entry by entry.
The Hom oracle is the intertwining solver that slice-built systems
replaced: it places every coefficient through an index closure and
finds positions by scanning the quiver.
The splitting oracles build the idempotent f.(g.f)^-1.g and take its
kernel, and strip simples one split at a time, where the library takes
ker g and one kernel complement per vertex.  The idempotent oracle
searches its split pairs with its own copy of the pair search.
The stripping and pull-back oracles are the library versions before both
went through one restriction with ``None`` for an untouched vertex: one
restriction per stripped vertex against identity bases elsewhere, and a
pull-back that places every arrow by which glued copy it touches.
The incidence oracles are the quiver walks and push-forwards before they
read the arrow positions of ``Quiver.arrows_out`` and ``arrows_in``:
scans of the arrows for a vertex name, graph walks over name-keyed dicts,
and gluings and blow-ups that look every arrow up by name.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from nodalq import (
    Arrow,
    BudgetExceeded,
    Commutation,
    HomSpace,
    Matrix,
    Morphism,
    MonomialZero,
    NodalDatum,
    NonNilpotentCycle,
    Path,
    Presentation,
    Quiver,
    Representation,
    SearchSpaceTooLarge,
    blow_presentation,
    glue_presentation,
)
from nodalq.linalg import SUPPORTED_PRIMES, all_matrices
from nodalq.quiver import UnknownVertex
from nodalq.reps import (
    ShapeMismatch,
    _columns_matrix,
    _compositions,
    _kernel_and_image,
    _section,
    _top_rank,
    _weighted_multisets,
    check_relations,
    combine_morphisms,
    compose_morphisms,
    direct_sum,
    has_summand,
    hom_space,
    identity_morphism,
    path_matrix,
    simple_representation,
    split_summand,
)


def line_quiver(n, orientations=None, prefix="v"):
    """A line on n vertices; orientations[k] truthy points edge k forward."""
    vs = tuple(f"{prefix}{k}" for k in range(n))
    arrows = []
    for k in range(n - 1):
        fwd = True if orientations is None else bool(orientations[k])
        u, w = vs[k], vs[k + 1]
        arrows.append(Arrow(f"{prefix}a{k}", u, w) if fwd else Arrow(f"{prefix}a{k}", w, u))
    return Quiver(vs, tuple(arrows))


def worked_example_datum():
    q = Quiver(
        ("v1", "v2", "v3", "v4", "v5", "v6", "v7"),
        (
            Arrow("a1", "v1", "v2"),
            Arrow("a2", "v2", "v3"),
            Arrow("a3", "v3", "v4"),
            Arrow("a4", "v5", "v4"),
            Arrow("a5", "v3", "v6"),
            Arrow("a6", "v6", "v7"),
        ),
    )
    return NodalDatum(q, (("v2", "v4"), ("v5", "v7")), ("v6",))


def exceptional_datum(n, m, l, case="one", flip=0):
    """One essential gluing on a line with the stated tail parameters.

    Vertices are y0..y{N-1}; the glued pair sits at positions m+1 and
    m+1+n.  Edges not fixed by the configuration alternate direction,
    shifted by ``flip``, to exercise the arbitrary-orientation clause.
    """
    size = m + n + l + 3
    pi, pj = m + 1, m + 1 + n
    vs = tuple(f"y{k}" for k in range(size))
    one = case == "one"
    arrows = []
    idx = 0
    for k in range(size - 1):
        u, w = vs[k], vs[k + 1]
        if k == pi - 1:
            arrows.append(Arrow("beta", u, w) if one else Arrow("beta", w, u))
        elif k == pi and n == 1:
            arrows.append(Arrow("alpha", w, u) if one else Arrow("alpha", u, w))
        elif k == pi:
            arrows.append(Arrow("a1", w, u) if one else Arrow("a1", u, w))
        elif k == pj - 1:
            arrows.append(Arrow("an", w, u) if one else Arrow("an", u, w))
        elif k == pj:
            arrows.append(Arrow("gamma", w, u) if one else Arrow("gamma", u, w))
        else:
            if (idx + flip) % 2 == 0:
                arrows.append(Arrow(f"t{idx}", u, w))
            else:
                arrows.append(Arrow(f"t{idx}", w, u))
            idx += 1
    q = Quiver(vs, tuple(arrows))
    return NodalDatum(q, ((vs[pi], vs[pj]),), ())


def super_datum(m, l, case="one"):
    """Two essential gluings: an (n=3) configuration plus the gluing of
    the middle path edge's endpoints.  The middle edge orientation is
    forced; the other way around the second gluing would be inessential."""
    left = [f"e{k}" for k in range(m)]
    right = [f"f{k}" for k in range(l)]
    vs = tuple(left + ["ti", "i", "x1", "x2", "j", "tj"] + right)
    one = case == "one"
    arrows = []
    idx = 0
    for k in range(len(vs) - 1):
        u, w = vs[k], vs[k + 1]
        if w == "i":
            arrows.append(Arrow("beta", u, w) if one else Arrow("beta", w, u))
        elif u == "i":
            arrows.append(Arrow("a1", w, u) if one else Arrow("a1", u, w))
        elif u == "x1":
            arrows.append(Arrow("a2", w, u) if one else Arrow("a2", u, w))
        elif u == "x2":
            arrows.append(Arrow("a3", w, u) if one else Arrow("a3", u, w))
        elif u == "j":
            arrows.append(Arrow("gamma", w, u) if one else Arrow("gamma", u, w))
        else:
            arrows.append(Arrow(f"t{idx}", u, w))
            idx += 1
    q = Quiver(vs, tuple(arrows))
    return NodalDatum(q, (("i", "j"), ("x1", "x2")), ())


# ---------------------------------------------------------------------------
# independent dimension oracle

def count_paths(q):
    """Number of paths of the acyclic quiver, trivial ones included."""
    outs = {v: [] for v in q.vertices}
    for a in q.arrows:
        outs[a.source].append(a.target)
    memo = {}

    def from_vertex(v):
        if v not in memo:
            memo[v] = None  # cycle guard
            memo[v] = 1 + sum(from_vertex(w) for w in outs[v])
        if memo[v] is None:
            raise ValueError("quiver has an oriented cycle")
        return memo[v]

    return sum(from_vertex(v) for v in q.vertices)


def count_paths_from(q, v):
    """Nonempty paths starting at ``v``."""
    outs = {u: [] for u in q.vertices}
    for a in q.arrows:
        outs[a.source].append(a.target)
    memo = {}

    def from_vertex(u):
        if u not in memo:
            memo[u] = 1 + sum(from_vertex(w) for w in outs[u])
        return memo[u]

    return from_vertex(v) - 1


def count_paths_into(q, v):
    """Nonempty paths ending at ``v``."""
    rev = Quiver(q.vertices, tuple(Arrow(a.name, a.target, a.source) for a in q.arrows))
    return count_paths_from(rev, v)


# ---------------------------------------------------------------------------
# dimension by listing paths, the reference for normal-word counting

def _live_walks(pres, cap):
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
            dead = False
            for z in zero_apps:
                if len(nw) >= len(z) and nw[-len(z):] == z:
                    dead = True
                    break
            if dead:
                continue
            if len(nw) > cap:
                raise NonNilpotentCycle(
                    f"a relation-free path exceeded the length cap {cap}"
                )
            walks.append(nw)
            stack.append((nw, a.target))
    triples = [((), v, v) for v in q.vertices]
    for w in walks:
        src = q.arrow(w[0]).source
        tgt = q.arrow(w[-1]).target
        triples.append((tuple(reversed(w)), src, tgt))
    return triples


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def dimension_by_paths(pres, max_path_length=64):
    """The algebra dimension by listing paths.

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


# ---------------------------------------------------------------------------
# randomized data for the dimension laws and the recognizer suites

def random_dag(rng, max_vertices=8, density=0.35, prefix="n"):
    n = rng.randint(2, max_vertices)
    vs = tuple(f"{prefix}{k}" for k in range(n))
    arrows = []
    idx = 0
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            arrows.append(Arrow(f"{prefix}e{idx}", vs[a], vs[b]))
            idx += 1
    if not arrows:
        arrows.append(Arrow(f"{prefix}e0", vs[0], vs[1]))
    return Quiver(vs, tuple(arrows))


def random_glue_datum(rng, max_vertices=8):
    q = random_dag(rng, max_vertices)
    vs = list(q.vertices)
    rng.shuffle(vs)
    r = rng.randint(1, len(vs) // 2)
    pairs = tuple((vs[2 * k], vs[2 * k + 1]) for k in range(r))
    return NodalDatum(q, pairs, ())


def random_blow_datum(rng, max_vertices=8):
    q = random_dag(rng, max_vertices)
    v = rng.choice(q.vertices)
    return NodalDatum(q, (), (v,))


def random_line_glue_datum(rng):
    """Gluing-only datum over a randomly oriented line quiver."""
    n = rng.randint(3, 9)
    q = line_quiver(n, orientations=tuple(rng.randint(0, 1) for _ in range(n - 1)))
    vs = list(q.vertices)
    rng.shuffle(vs)
    r = rng.randint(1, (n - 1) // 2)
    pairs = tuple((vs[2 * k], vs[2 * k + 1]) for k in range(r))
    return NodalDatum(q, pairs, ())


def random_quasi_gentle_datum(rng):
    """Gluing-only data on disjoint consistently oriented lines, pairs
    drawn without repetition: every glued vertex keeps at most one
    in-arrow and one out-arrow in the base, so the quasi-gentle test
    accepts and the built presentation satisfies the gentle axioms."""
    parts = rng.randint(1, 3)
    vs = []
    arrows = []
    for p in range(parts):
        n = rng.randint(2, 5)
        comp = [f"p{p}v{k}" for k in range(n)]
        vs.extend(comp)
        arrows.extend(
            Arrow(f"p{p}a{k}", comp[k], comp[k + 1]) for k in range(n - 1)
        )
    q = Quiver(tuple(vs), tuple(arrows))
    pool = list(vs)
    rng.shuffle(pool)
    r = rng.randint(1, max(1, len(pool) // 4))
    pairs = tuple((pool[2 * k], pool[2 * k + 1]) for k in range(r))
    return NodalDatum(q, pairs, ())


def random_degree_violation_datum(rng):
    """A single essential gluing that merges a two-in vertex with another
    vertex carrying an in-arrow, so the merged vertex has three or more
    in-arrows and the gentle degree axiom must fail."""
    # component one: a zigzag with an interior sink s
    left = rng.randint(1, 3)
    right = rng.randint(1, 3)
    c1 = [f"z{k}" for k in range(left + 1 + right)]
    sink = c1[left]
    arrows = [Arrow(f"za{k}", c1[k], c1[k + 1]) for k in range(left)]
    arrows += [Arrow(f"za{k + left}", c1[k + 1], c1[k]) for k in range(left, left + right)]
    # component two: a forward line; glue the sink to a non-source vertex
    n = rng.randint(2, 5)
    c2 = [f"w{k}" for k in range(n)]
    arrows += [Arrow(f"wa{k}", c2[k], c2[k + 1]) for k in range(n - 1)]
    other = c2[rng.randint(1, n - 1)]
    q = Quiver(tuple(c1 + c2), tuple(arrows))
    return NodalDatum(q, ((sink, other),), ())


def _paths_of_length(q, v, n):
    """Written words of every path of length n starting at v, with their targets."""
    out = [((), v)]
    for _ in range(n):
        out = [((a.name,) + w, a.target) for w, end in out for a in q.arrows
               if a.source == end]
    return out


def random_presentation(rng):
    """A presentation on 1-4 vertices and 1-5 arrows, loops and oriented
    cycles allowed, with up to four zero words of length 2-4 and up to
    three commutations between parallel paths of lengths 2-4 each.  Half
    of them also kill every path of one length from 3 to 5, which makes
    an algebra with loops finite dimensional more often."""
    vs = tuple(f"x{k}" for k in range(rng.randint(1, 4)))
    q = Quiver(vs, tuple(Arrow(f"a{k}", rng.choice(vs), rng.choice(vs))
                         for k in range(rng.randint(1, 5))))
    rels = set()
    for _ in range(rng.randint(0, 4)):
        walks = _paths_of_length(q, rng.choice(vs), rng.randint(2, 4))
        if walks:
            rels.add(MonomialZero(Path(q, rng.choice(walks)[0])))
    if rng.random() < 0.5:
        n = rng.randint(3, 5)
        walks = [w for v in vs for w, _ in _paths_of_length(q, v, n)]
        if len(walks) <= 64:
            rels.update(MonomialZero(Path(q, w)) for w in walks)
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(vs)
        left = _paths_of_length(q, v, rng.randint(2, 4))
        right = _paths_of_length(q, v, rng.randint(2, 4))
        pairs = [(lw, rw) for lw, lt in left for rw, rt in right if lt == rt and lw != rw]
        if pairs:
            lw, rw = rng.choice(pairs)
            rels.add(Commutation(Path(q, lw), Path(q, rw)))
    return Presentation(q, frozenset(rels))


def seeded(seed):
    return random.Random(seed)


# ---------------------------------------------------------------------------
# simple summands by kernel and image bases, the reference for the rank
# formula; ``simple_summand_multiplicity`` before it, kept as it was
# apart from its name

def simple_summand_multiplicity_by_kernels(m: Representation, v: str) -> int:
    """Multiplicity of the one-dimensional representation at ``v`` as a
    direct summand: the part of the joint out-kernel sticking out of the
    joint in-image."""
    if m.dim(v) == 0:
        return 0
    kernel, image = _kernel_and_image(m, v)
    return kernel.hstack(image).rank() - image.ncols


# ---------------------------------------------------------------------------
# the summand-probe decision, the reference for the End-ring certificate

def is_new_indecomposable_by_probes(m, catalog, same_dimvec) -> bool:
    if m.total > 1:
        if any(simple_summand_multiplicity_by_kernels(m, v) for v in m.pres.quiver.vertices):
            return False
        for u in catalog:
            if u.total < m.total and all(a <= b for a, b in zip(u.dims, m.dims)):
                if has_summand(m, u):
                    return False
    for u in same_dimvec:
        if has_summand(m, u):
            return False
    return True


# ---------------------------------------------------------------------------
# isomorphism and indecomposability by capped sweeps, the references for
# the End-ring top

def is_isomorphic_by_sweep(m, n, cap: int = 2 ** 20) -> bool:
    """Exact isomorphism test by searching for an invertible morphism.

    Over a finite field every coefficient vector on a hom basis is
    tried.  Over the rationals the determinant product is a polynomial
    of per-variable degree at most the total dimension, so scanning the
    integer grid 0..total per coordinate is still conclusive.  Raises
    SearchSpaceTooLarge instead of sampling when the grid passes ``cap``.
    """
    if m.pres != n.pres or m.field != n.field:
        raise ShapeMismatch("comparison needs a common presentation and field")
    if m.dims != n.dims:
        return False
    if m.total == 0:
        return True
    hom = hom_space(m, n)
    if hom.dim == 0:
        return False
    if m.field.size is not None:
        if m.field.size ** hom.dim > cap:
            raise SearchSpaceTooLarge(
                f"{m.field.size}^{hom.dim} candidate morphisms exceed the cap {cap}"
            )
        values = tuple(m.field.elements())
    else:
        if (m.total + 1) ** hom.dim > cap:
            raise SearchSpaceTooLarge(
                f"{m.total + 1}^{hom.dim} grid points exceed the cap {cap}"
            )
        values = tuple(range(m.total + 1))
    for coeffs in itertools.product(values, repeat=hom.dim):
        if all(c == 0 for c in coeffs):
            continue
        if combine_morphisms(hom, coeffs).is_isomorphism():
            return True
    return False


def is_indecomposable_by_sweep(m, cap: int = 2 ** 20) -> bool:
    """Exact indecomposability test.

    Cheap certificates first (dimension one, a splitting simple, a
    one-dimensional endomorphism ring); after that, over a finite field
    every endomorphism is tried against being a proper idempotent.  Over
    the rationals there is no such finite sweep, so the undecided case
    raises SearchSpaceTooLarge.
    """
    if m.total == 0:
        return False
    if m.total == 1:
        return True
    for v in m.pres.quiver.vertices:
        if simple_summand_multiplicity_by_kernels(m, v):
            return False  # total > 1, so a splitting simple is proper
    end = hom_space(m, m)
    if end.dim == 1:
        return True
    if m.field.size is None:
        raise SearchSpaceTooLarge(
            "idempotent sweep needs a finite field; decide over GF(p)"
            " or use catalog decomposition"
        )
    if m.field.size ** end.dim > cap:
        raise SearchSpaceTooLarge(
            f"{m.field.size}^{end.dim} endomorphisms exceed the cap {cap}"
        )
    ident = identity_morphism(m)
    values = tuple(m.field.elements())
    for coeffs in itertools.product(values, repeat=end.dim):
        e = combine_morphisms(end, coeffs)
        if e.is_zero() or e == ident:
            continue
        if compose_morphisms(e, e) == e:
            return False
    return True


# ---------------------------------------------------------------------------
# decomposition by peeling, the reference for the multiplicity pairing

def decompose_by_peeling(m, catalog) -> tuple[int, ...]:
    counts = [0] * len(catalog)
    cur = m
    while cur.total > 0:
        for k, u in enumerate(catalog):
            if u.total > cur.total:
                continue
            nxt = split_summand(cur, u)
            if nxt is not None:
                counts[k] += 1
                cur = nxt
                break
        else:
            raise ValueError(
                "catalog does not cover a summand of the representation"
                f" (stuck at dimension vector {cur.dims})"
            )
    return tuple(counts)


# ---------------------------------------------------------------------------
# the top rank by residues of composed blocks, the reference for the flat
# pairing; ``_top_rank`` and ``_residue`` before the pairing read flat
# coordinates, kept as they were apart from the first name

def _residue(m, g, f) -> list:
    """Coordinates in E(m) of the residue of g.f, from the per-vertex
    blocks of two morphisms composing to an endomorphism of m; only the
    weighted entries of g.f are formed."""
    top = m._top
    mod = m.field.modulus
    out = [m.field.coerce(0)] * top.dim
    for (v, i, j), w in zip(top.entries, top.weights):
        left, right = g[v].rows[i], f[v].rows
        x = sum(a * right[k][j] for k, a in enumerate(left)) % mod
        if x:
            out = [o + x * y for o, y in zip(out, w)]
    return [o % mod for o in out]


def top_rank_by_residues(m: Representation, n: Representation) -> int:
    """dim Hom(m, n)/rad(m, n): f is radical exactly when every g.f with
    g in Hom(n, m) is radical in End(m), so this is the rank of
    f -> (residue of g.f)_g over bases of Hom(m, n) and Hom(n, m)."""
    into = hom_space(m, n)
    if not into.basis:
        return 0
    back = hom_space(n, m)
    # _residue reduces its coordinates, so the pairing needs no coercion
    return Matrix(m.field, into.dim, back.dim * m._top.dim, tuple([
        tuple([x for g in back.basis for x in _residue(m, g.blocks, f.blocks)])
        for f in into.basis
    ])).rank()


# ---------------------------------------------------------------------------
# the local test on Morphism blocks, the reference for the flat one;
# ``_fitting_power`` and ``_is_local`` before the Fitting shifts and the
# radical chain read the flat End basis, kept as they were apart from the
# second name

def _fitting_power(block: Matrix) -> Matrix:
    """``block`` raised to a power at least its size, by squaring: its
    kernel and image have stopped changing there."""
    size = 1
    while size < block.nrows:
        block = block * block
        size *= 2
    return block


def is_local_by_matrices(m):
    """Whether End(m) is local, that is m indecomposable: True, False, or
    None over QQ where the top has dimension above one.

    Over GF(p) two cheap certificates come first.  By Fitting's lemma an
    endomorphism h splits m as ker h^N + im h^N, so a shift b - λ of an
    End basis element b that is neither nilpotent nor invertible proves
    End not local.  If every b has a nilpotent shift, End = k.1 + J with
    J the span of those shifts.  Local needs J nilpotent, seen as the
    chain m > Jm > J^2 m > ... reaching zero.  Then the products of
    elements of J span a nilpotent ideal, which misses 1 and so is J
    itself: J is the radical, End/J is the prime field, and m is
    absolutely indecomposable.

    A b with no nilpotent shift (a residue field larger than GF(p)), a
    chain that stalls, or the field QQ leaves it to the top, a product
    of matrix rings over division rings, which is local exactly when it
    is a division ring.  Over GF(p) that means a field: the top is
    commutative, and x -> x^p - x, which fixes one copy of GF(p) in each
    field factor of a commutative top, has a one-dimensional kernel.
    """
    end = m._end
    if end.dim <= 1:
        return end.dim == 1  # the zero module has End 0
    field = m.field
    if field.size is None:
        return True if m._top.dim == 1 else None
    ones = [Matrix.identity(field, d) for d in m.dims]
    nilpotent = []
    for b in end.basis:
        for lam in field.elements():
            h = [x - one.scale(lam) for x, one in zip(b.blocks, ones)]
            power = [_fitting_power(x) for x in h]
            if all(x.is_zero() for x in power):
                nilpotent.append(h)
                break
            if not all(x.is_invertible() for x in power):
                return False
    if len(nilpotent) == end.dim:
        layer = ones  # per vertex, a column basis of J^k m
        while any(w.ncols for w in layer):
            below = []
            for v, w in enumerate(layer):
                span = Matrix.zeros(field, m.dims[v], 0)
                for h in nilpotent:
                    span = span.hstack(h[v] * w)
                below.append(span.column_space_basis())
            if sum(w.ncols for w in below) == sum(w.ncols for w in layer):
                break
            layer = below
        else:
            return True
    # the residues of the End basis span the top
    basis = [b.blocks for b in end.basis]
    if any(_residue(m, a, b) != _residue(m, b, a)
           for a, b in itertools.combinations(basis, 2)):
        return False
    frobenius = []
    for b in basis:
        power = b
        for _ in range(field.size - 2):
            power = [x * y for x, y in zip(power, b)]
        frobenius.append([x - y for x, y in zip(_residue(m, power, b), _residue(m, ones, b))])
    return Matrix.from_rows(field, frobenius).rank() == m._top.dim - 1


# ---------------------------------------------------------------------------
# decomposition and isomorphism by the top rank alone, the references for
# the arrow-rank pruning

def decompose_by_top_rank(m, catalog) -> tuple[int, ...]:
    counts = [0] * len(catalog)
    left = list(m.dims)
    for k, u in sorted(enumerate(catalog), key=lambda ku: -ku[1].total):
        if not any(left):
            break
        # a zero class has a zero top and counts nothing
        if u.total == 0 or any(a > b for a, b in zip(u.dims, left)):
            continue
        counts[k] = top_rank_by_residues(u, m) // u._top.dim
        left = [a - counts[k] * b for a, b in zip(left, u.dims)]
    if any(left):
        raise ValueError(
            "catalog does not cover a summand of the representation"
            f" (stuck at dimension vector {tuple(left)})"
        )
    return tuple(counts)


def is_isomorphic_by_top_rank(m, n) -> bool:
    if m.pres != n.pres or m.field != n.field:
        raise ShapeMismatch("comparison needs a common presentation and field")
    if m.dims != n.dims:
        return False
    if m.total == 0:
        return True
    rank = top_rank_by_residues(m, n)
    return rank > 0 and 2 * rank == m._top.dim + n._top.dim


# ---------------------------------------------------------------------------
# isomorphism from the tops of the whole modules, the reference for the
# simple-free reduction; ``is_isomorphic`` before it compared simple
# multiplicities and read tops of the rest only, kept as it was apart
# from its name

def is_isomorphic_by_tops(m: Representation, n: Representation) -> bool:
    """Exact isomorphism test from the tops of the endomorphism rings.

    Isomorphic modules have equal dimension vectors and arrow ranks, so
    modules differing there are told apart without a Hom solve.
    Otherwise, with a_i and b_i the multiplicities of U_i in m and in n,
    dim E(m) + dim E(n) - 2 dim Hom(m, n)/rad is the sum of (a_i - b_i)^2
    d_i, which vanishes exactly when m and n are isomorphic.
    """
    if m.pres != n.pres or m.field != n.field:
        raise ShapeMismatch("comparison needs a common presentation and field")
    if m.dims != n.dims or m._ranks != n._ranks:
        return False
    if m.total == 0:
        return True
    rank = _top_rank(m, n)
    return rank > 0 and 2 * rank == m._top.dim + n._top.dim


# ---------------------------------------------------------------------------
# splitting by an idempotent and stripping one simple at a time, the
# references for the kernel complements

def _inverse_morphism(f: Morphism) -> Morphism:
    return Morphism(f.target, f.source, tuple(b.inverse() for b in f.blocks))


def _find_split_by_pairs(m: Representation, u: Representation):
    """A pair (f, g) with g.f invertible on ``u``, or None.

    Exact for indecomposable ``u``: its endomorphism ring is local, so
    if a copy of ``u`` splits off then already some pair of hom basis
    elements composes to an automorphism.
    """
    if any(du > dm for du, dm in zip(u.dims, m.dims)):
        return None
    into = hom_space(u, m)
    if not into.basis:
        return None
    back = hom_space(m, u)
    for f in into.basis:
        for g in back.basis:
            if compose_morphisms(g, f).is_isomorphism():
                return f, g
    return None


def split_summand_by_idempotent(m: Representation, u: Representation):
    """Split one copy of the indecomposable ``u`` off ``m``; returns the
    complement representation, or None when ``u`` is not a summand."""
    pair = _find_split_by_pairs(m, u)
    if pair is None:
        return None
    f, g = pair
    h = compose_morphisms(g, f)
    e = compose_morphisms(f, compose_morphisms(_inverse_morphism(h), g))
    field = m.field
    q = m.pres.quiver
    bases = []
    for vi in range(len(q.vertices)):
        vecs = e.blocks[vi].nullspace()
        bases.append(_columns_matrix(field, m.dims[vi], vecs))
    dims = tuple(b.ncols for b in bases)
    mats = []
    for (si, ti), ma in zip(q.arrow_ends, m.mats):
        restricted = bases[ti].solve(ma * bases[si])
        if restricted is None:
            raise RuntimeError("idempotent complement is not arrow-stable")
        mats.append(restricted)
    return Representation(m.pres, field, dims, tuple(mats))


def strip_simple_summands_by_splitting(m: Representation, vertices):
    """Split off every one-dimensional summand sitting at the given
    vertices; returns the stripped representation and per-vertex counts."""
    counts = {v: 0 for v in vertices}
    cur = m
    for v in vertices:
        # splitting a summand off creates no new simple summand
        # (Krull-Schmidt), so the multiplicity counts every split at v
        simple = simple_representation(m.pres, m.field, v)
        for _ in range(simple_summand_multiplicity_by_kernels(cur, v)):
            cur = split_summand_by_idempotent(cur, simple)
            counts[v] += 1
    return cur, counts


def _restricted_at_every_vertex(m: Representation, bases) -> Representation:
    """``m`` on the arrow-stable subspaces spanned by the columns of
    ``bases``, one matrix per vertex, in the coordinates of those columns."""
    mats = []
    for (si, ti), ma in zip(m.pres.quiver.arrow_ends, m.mats):
        restricted = bases[ti].solve(ma * bases[si])
        if restricted is None:
            raise RuntimeError("subspaces are not arrow-stable")
        mats.append(restricted)
    return Representation(m.pres, m.field, tuple(b.ncols for b in bases), tuple(mats))


def strip_simple_summands_vertex_by_vertex(m: Representation, vertices):
    """Split off every one-dimensional summand sitting at the given
    vertices; returns the stripped representation and per-vertex counts.

    At v the simples span a complement of I in K + I, for K the joint
    out-kernel and I the joint in-image.  The rest lives on I plus a
    complement of K + I, which holds the in-image and meets K inside I.
    """
    counts = dict.fromkeys(vertices, 0)
    q = m.pres.quiver
    for v in counts:
        if not q.has_vertex(v):
            raise ShapeMismatch(f"no vertex {v!r}")
        if not m.dim(v):
            continue
        kernel, image = _kernel_and_image(m, v)
        rest = image.hstack(_section(m.field, m.dim(v), kernel.hstack(image)))
        counts[v] = m.dim(v) - rest.ncols
        if counts[v]:
            bases = [Matrix.identity(m.field, d) for d in m.dims]
            bases[q.vertex_index[v]] = rest
            m = _restricted_at_every_vertex(m, bases)
    return m, counts


def glue_restrict_by_arrow_cases(
    n: Representation, base_pres: Presentation, i: str, j: str
) -> Representation:
    """Pull a representation of the glued presentation back to the base.

    Only defined for an inessential pair.  At the merged vertex the
    source-role copy receives the space modulo the joint kernel of the
    starting arrows and the sink-role copy the joint image of the ending
    arrows; induced maps use a deterministic section and echelon
    subspace coordinates.  On representations pushed forward from a base
    representation without one-dimensional summands at the pair, this
    recovers that representation on the nose.
    """
    bq = base_pres.quiver
    ordering = None
    for s, t in ((i, j), (j, i)):
        if not bq.in_arrows(s) and not bq.out_arrows(t):
            ordering = (s, t)
            break
    if ordering is None:
        raise ShapeMismatch(f"pair ({i!r}, {j!r}) is not inessential in the base")
    s, t = ordering
    glued, vmap, _ = glue_presentation(base_pres, i, j)
    if n.pres != glued:
        raise ShapeMismatch(
            "representation does not live over the glued form of this base"
        )
    field = n.field
    w = vmap[i][0]
    dw = n.dim(w)
    kernel, image = _kernel_and_image(n, w)
    section = _section(field, dw, kernel)

    dims = []
    for v in bq.vertices:
        if v == s:
            dims.append(dw - kernel.ncols)
        elif v == t:
            dims.append(image.ncols)
        else:
            dims.append(n.dim(v))
    mats = []
    for a in bq.arrows:
        na = n.mat(a.name)
        if a.source == s and a.target == t:
            solved = image.solve(na * section)
        elif a.source == s:
            solved = na * section
        elif a.target == t:
            solved = image.solve(na)
        else:
            solved = na
        if solved is None:
            raise RuntimeError("ending arrow image escaped the joint image")
        mats.append(solved)
    return Representation(base_pres, field, tuple(dims), tuple(mats))


# ---------------------------------------------------------------------------
# name-level incidence oracles: the quiver walks and push-forwards before
# they read Quiver.arrows_out, arrows_in and arrow_ends

def in_arrows_by_scan(q: Quiver, v: str):
    if v not in q.vertex_index:
        raise UnknownVertex(f"unknown vertex {v!r}")
    return tuple(a for a in q.arrows if a.target == v)


def out_arrows_by_scan(q: Quiver, v: str):
    if v not in q.vertex_index:
        raise UnknownVertex(f"unknown vertex {v!r}")
    return tuple(a for a in q.arrows if a.source == v)


def is_acyclic_by_names(q: Quiver) -> bool:
    # iterative DFS with colors; loops and multi-arrows allowed
    out = {v: [] for v in q.vertices}
    for a in q.arrows:
        out[a.source].append(a.target)
    color = {v: 0 for v in q.vertices}  # 0 white, 1 gray, 2 black
    for root in q.vertices:
        if color[root]:
            continue
        stack = [(root, iter(out[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[v] = 2
                stack.pop()
            elif color[nxt] == 1:
                return False
            elif color[nxt] == 0:
                color[nxt] = 1
                stack.append((nxt, iter(out[nxt])))
    return True


def undirected_components_by_names(q: Quiver):
    """Connected components of the underlying undirected graph.

    Vertices inside a component keep quiver order; components are
    ordered by their first vertex.
    """
    adj = {v: set() for v in q.vertices}
    for a in q.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen: set[str] = set()
    comps = []
    for v in q.vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(tuple(x for x in q.vertices if x in comp))
    return tuple(comps)


def glue_blocks_by_names(m: Representation, i: str, j: str, merged_id):
    glued, vmap, _ = glue_presentation(m.pres, i, j, merged_id)
    q = m.pres.quiver
    gq = glued.quiver
    w = vmap[i][0]
    di, dj = m.dim(i), m.dim(j)
    gdims = []
    for gv in gq.vertices:
        if gv == w:
            gdims.append(di + dj)
        else:
            gdims.append(m.dim(gv))
    field = m.field
    z = field.coerce(0)

    def part_offset(v):
        # the i part sits above the j part in the merged space
        return 0 if v == i else di

    mats = []
    for a in q.arrows:
        src, tgt = a.source, a.target
        block = m.mat(a.name)
        nr = di + dj if tgt in (i, j) else m.dim(tgt)
        nc = di + dj if src in (i, j) else m.dim(src)
        r0 = part_offset(tgt) if tgt in (i, j) else 0
        c0 = part_offset(src) if src in (i, j) else 0
        grid = [[z] * nc for _ in range(nr)]
        for r in range(block.nrows):
            grid[r0 + r][c0:c0 + block.ncols] = block.rows[r]
        mats.append(Matrix(field, nr, nc, tuple(tuple(row) for row in grid)))
    return Representation(glued, field, tuple(gdims), tuple(mats))


def glue_induce_by_names(m: Representation, i: str, j: str, merged_id=None) -> Representation:
    q = m.pres.quiver
    if any({a.source, a.target} <= {i, j} for a in q.arrows):
        raise ShapeMismatch(
            f"arrows between {i!r} and {j!r} need glue_induce_inessential"
        )
    return glue_blocks_by_names(m, i, j, merged_id)


def blow_induce_by_names(m: Representation, v: str) -> Representation:
    blown, vmap, amap = blow_presentation(m.pres, v)
    bq = blown.quiver
    old_of = {}
    for name, copies in amap.items():
        for c in copies:
            old_of[c] = name
    dims = []
    for bv in bq.vertices:
        dims.append(m.dim(v) if bv in vmap[v] else m.dim(bv))
    mats = tuple(m.mat(old_of[a.name]) for a in bq.arrows)
    return Representation(blown, m.field, tuple(dims), mats)


# ---------------------------------------------------------------------------
# unpruned closure oracle

def extension_candidates(pres, field, base, v, budget):
    """All one-step extensions of ``base`` by a simple submodule at ``v``.

    The new coordinate is row zero of the space at ``v``; arrows into
    ``v`` acquire an unknown top row, arrows out of ``v`` a forced zero
    column.  Relations ending at ``v`` translate into linear constraints
    on the unknown rows, and extensions differing by a coboundary give
    isomorphic modules, so only coset representatives get built.
    """
    q = pres.quiver
    ins = [a for a in q.arrows if a.target == v]
    widths = [base.dim(a.source) for a in ins]
    unknowns = sum(widths)
    if unknowns == 0:
        return []
    offsets = []
    pos = 0
    for wdt in widths:
        offsets.append(pos)
        pos += wdt
    slot = {a.name: k for k, a in enumerate(ins)}
    zero, mod = field.coerce(0), field.modulus

    rows = []

    def word_part(word, sign):
        # contribution of the word's unknown top row: r[word0] . base(rest)
        k = slot[word[0]]
        if len(word) > 1:
            cols = path_matrix(base, word[1:])
        else:
            cols = Matrix.identity(field, widths[k])
        return k, cols, sign

    constraints = []
    for w in pres.zero_words():
        if q.arrow(w[0]).target == v:
            constraints.append([word_part(w, 1)])
    for lhs, rhs in pres.commutation_pairs():
        if q.arrow(lhs[0]).target == v:
            constraints.append([word_part(lhs, 1), word_part(rhs, -1)])
    for parts in constraints:
        width_cols = parts[0][1].ncols
        for c in range(width_cols):
            row = [zero] * unknowns
            for k, cols, sign in parts:
                for r in range(cols.nrows):
                    idx = offsets[k] + r
                    term = cols.rows[r][c]
                    if sign < 0:
                        term = -term
                    row[idx] = (row[idx] + term) % mod
            rows.append(tuple(row))
    system = Matrix(field, len(rows), unknowns, tuple(rows))
    cocycles = system.nullspace()

    cobounds = []
    dv = base.dim(v)
    for t in range(dv):
        vec = [zero] * unknowns
        for k, a in enumerate(ins):
            mat = base.mat(a.name)
            for c in range(mat.ncols):
                vec[offsets[k] + c] = mat.rows[t][c]
        cobounds.append(tuple(vec))

    # extend the coboundary row space to the full cocycle space; the
    # extension vectors then enumerate the cosets exactly once
    reduced = Matrix(field, len(cobounds), unknowns, tuple(cobounds))
    rr, pivots = reduced.rref()
    basis_rows = [rr.rows[k] for k in range(len(pivots))]
    ext_basis = []
    for z in cocycles:
        cur = list(z)
        for row in basis_rows + ext_basis:
            pc = next((c for c, x in enumerate(row) if x != zero), None)
            if pc is not None and cur[pc] != zero:
                factor = cur[pc] * field.inv(row[pc]) % mod
                cur = [
                    (x - factor * y) % mod for x, y in zip(cur, row)
                ]
        if any(x != zero for x in cur):
            ext_basis.append(tuple(cur))
    if len(ext_basis) > budget:
        raise BudgetExceeded(
            f"{len(ext_basis)} independent extension directions at {v!r},"
            f" over the budget {budget}"
        )

    out = []
    vi = q.vertices.index(v)
    new_dims = tuple(d + 1 if k == vi else d for k, d in enumerate(base.dims))
    for coeffs in itertools.product(field.elements(), repeat=len(ext_basis)):
        if all(c == zero for c in coeffs):
            continue
        rvec = [zero] * unknowns
        for c, bvec in zip(coeffs, ext_basis):
            if c != zero:
                rvec = [
                    (x + c * y) % mod for x, y in zip(rvec, bvec)
                ]
        mats = []
        for a, bm in zip(q.arrows, base.mats):
            if a.target == v and a.source == v:
                k = slot[a.name]
                top = (zero,) + tuple(
                    rvec[offsets[k] + c] for c in range(widths[k])
                )
                body = tuple(
                    (zero,) + bm.rows[r] for r in range(bm.nrows)
                )
                mats.append(Matrix(field, bm.nrows + 1, bm.ncols + 1, (top,) + body))
            elif a.target == v:
                k = slot[a.name]
                top = tuple(rvec[offsets[k] + c] for c in range(widths[k]))
                mats.append(
                    Matrix(field, bm.nrows + 1, bm.ncols, (top,) + bm.rows)
                )
            elif a.source == v:
                body = tuple(
                    (zero,) + bm.rows[r] for r in range(bm.nrows)
                )
                mats.append(Matrix(field, bm.nrows, bm.ncols + 1, body))
            else:
                mats.append(bm)
        out.append(Representation(pres, field, new_dims, tuple(mats)))
    return out


def unpruned_candidates(pres, field, catalog, total, budget):
    """Every nonzero extension class, by each simple, of each direct sum
    of ``catalog`` classes with total dimension ``total - 1``."""
    entries = [(k, u.total) for k, u in enumerate(catalog)]
    for picks in _weighted_multisets(entries, total - 1):
        base = catalog[picks[0]]
        for k in picks[1:]:
            base = direct_sum(base, catalog[k])
        for v in pres.quiver.vertices:
            yield from extension_candidates(pres, field, base, v, budget)


def closure_catalog(pres, field, max_total, budget):
    """Catalog and candidates examined, testing every extension class."""
    catalog = [simple_representation(pres, field, v) for v in pres.quiver.vertices]
    examined = len(catalog)
    for total in range(2, max_total + 1):
        found = []
        for m in unpruned_candidates(pres, field, catalog, total, budget):
            examined += 1
            same = [u for u in found if u.dims == m.dims]
            if is_new_indecomposable_by_probes(m, catalog, same):
                found.append(m)
        catalog.extend(found)
    return catalog, examined


# ---------------------------------------------------------------------------
# exhaustive scan oracle

def _support_connected(q, dims) -> bool:
    support = {v for v, d in zip(q.vertices, dims) if d > 0}
    if len(support) <= 1:
        return True
    adj = {v: set() for v in support}
    for a in q.arrows:
        if a.source in support and a.target in support:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
    seen = set()
    stack = [next(iter(support))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == support


def scan_catalog(pres, field, max_total, budget):
    if field.size is None:
        raise SearchSpaceTooLarge("exhaustive scans need a finite field")
    q = pres.quiver
    arrow_idx = [
        (q.vertices.index(a.source), q.vertices.index(a.target)) for a in q.arrows
    ]
    catalog = []
    examined = 0
    for total in range(1, max_total + 1):
        for dims in _compositions(total, len(q.vertices)):
            if not _support_connected(q, dims):
                continue
            cost = sum(dims[si] * dims[ti] for si, ti in arrow_idx)
            if cost > budget:
                raise BudgetExceeded(
                    f"dimension vector {dims} needs {cost} matrix entries,"
                    f" over the budget {budget}"
                )
            spaces = [
                tuple(all_matrices(field, dims[ti], dims[si]))
                for si, ti in arrow_idx
            ]
            found_here = []
            for mats in itertools.product(*spaces):
                examined += 1
                m = Representation(pres, field, dims, mats)
                if not check_relations(m)[0]:
                    continue
                if is_new_indecomposable_by_probes(m, catalog, found_here):
                    found_here.append(m)
            catalog.extend(found_here)
    return catalog, examined


# ---------------------------------------------------------------------------
# the Hom oracle: hom_space before its systems were built by slices, kept
# as it was apart from its name

def hom_space_by_uidx(m: Representation, n: Representation) -> HomSpace:
    """Solve the intertwining equations f.mat(a) = mat(a).f exactly."""
    if m.pres != n.pres or m.field != n.field:
        raise ShapeMismatch("hom spaces need a common presentation and field")
    q = m.pres.quiver
    field = m.field
    z, mod = field.coerce(0), field.modulus
    offsets = []
    pos = 0
    for v in q.vertices:
        offsets.append(pos)
        pos += n.dim(v) * m.dim(v)
    unknowns = pos

    def uidx(vi, i, j):
        return offsets[vi] + i * m.dims[vi] + j

    rows = []
    for a in q.arrows:
        si = q.vertices.index(a.source)
        ti = q.vertices.index(a.target)
        ma, na = m.mat(a.name), n.mat(a.name)
        for i in range(n.dims[ti]):
            for j in range(m.dims[si]):
                row = [z] * unknowns
                for k in range(m.dims[ti]):
                    row[uidx(ti, i, k)] = ma.rows[k][j]
                for k in range(n.dims[si]):
                    col = uidx(si, k, j)
                    row[col] = (row[col] - na.rows[i][k]) % mod
                rows.append(tuple(row))
    system = Matrix(field, len(rows), unknowns, tuple(rows))
    basis = []
    for vec in system.nullspace():
        blocks = []
        for vi, v in enumerate(q.vertices):
            nd, md = n.dims[vi], m.dims[vi]
            block_rows = tuple(
                tuple(vec[uidx(vi, i, j)] for j in range(md)) for i in range(nd)
            )
            blocks.append(Matrix(field, nd, md, block_rows))
        basis.append(Morphism(m, n, tuple(blocks)))
    return HomSpace(m, n, tuple(basis))


# ---------------------------------------------------------------------------
# the dispatch oracle: the field kernel before the single reduction rule,
# kept with only its names changed.  Field objects carry per-element method
# tables, and the matrix calls them entry by entry.

@dataclass(frozen=True)
class DispatchPrimeField:
    p: int

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_PRIMES:
            raise ValueError(f"characteristic must be one of {SUPPORTED_PRIMES}, got {self.p}")

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    @property
    def size(self):
        return self.p

    def elements(self):
        return tuple(range(self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


@dataclass(frozen=True)
class DispatchRationalField:
    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    @property
    def size(self):
        return None  # infinite

    def __repr__(self) -> str:
        return "QQ"


@dataclass(frozen=True)
class DispatchMatrix:
    field: object
    nrows: int
    ncols: int
    rows: tuple  # tuple of row tuples; empty dims give empty structure

    @staticmethod
    def from_rows(field, rows: Sequence[Sequence]) -> "DispatchMatrix":
        coerced = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        nrows = len(coerced)
        ncols = len(coerced[0]) if nrows else 0
        for r in coerced:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return DispatchMatrix(field, nrows, ncols, coerced)

    @staticmethod
    def zeros(field, nrows: int, ncols: int) -> "DispatchMatrix":
        z = field.zero()
        return DispatchMatrix(field, nrows, ncols, tuple((z,) * ncols for _ in range(nrows)))

    @staticmethod
    def identity(field, n: int) -> "DispatchMatrix":
        z, o = field.zero(), field.one()
        return DispatchMatrix(
            field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __add__(self, other: "DispatchMatrix") -> "DispatchMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        f = self.field
        return DispatchMatrix(
            f,
            self.nrows,
            self.ncols,
            tuple(
                tuple(f.add(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: "DispatchMatrix") -> "DispatchMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        f = self.field
        return DispatchMatrix(
            f,
            self.nrows,
            self.ncols,
            tuple(
                tuple(f.sub(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __mul__(self, other: "DispatchMatrix") -> "DispatchMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        z = f.zero()
        out = []
        for i in range(self.nrows):
            ri = self.rows[i]
            row = []
            for j in range(other.ncols):
                s = z
                for k in range(self.ncols):
                    s = f.add(s, f.mul(ri[k], other.rows[k][j]))
                row.append(s)
            out.append(tuple(row))
        return DispatchMatrix(f, self.nrows, other.ncols, tuple(out))

    def scale(self, c) -> "DispatchMatrix":
        f = self.field
        c = f.coerce(c)
        return DispatchMatrix(
            f, self.nrows, self.ncols, tuple(tuple(f.mul(c, x) for x in r) for r in self.rows)
        )

    def transpose(self) -> "DispatchMatrix":
        return DispatchMatrix(
            self.field,
            self.ncols,
            self.nrows,
            tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)),
        )

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for r in self.rows for x in r)

    def hstack(self, other: "DispatchMatrix") -> "DispatchMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return DispatchMatrix(
            self.field,
            self.nrows,
            self.ncols + other.ncols,
            tuple(r1 + r2 for r1, r2 in zip(self.rows, other.rows)),
        )

    def vstack(self, other: "DispatchMatrix") -> "DispatchMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return DispatchMatrix(self.field, self.nrows + other.nrows, self.ncols, self.rows + other.rows)

    def rref(self) -> tuple["DispatchMatrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot column indices."""
        f = self.field
        z = f.zero()
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            sel = None
            for r in range(pr, len(rows)):
                if rows[r][pc] != z:
                    sel = r
                    break
            if sel is None:
                continue
            rows[pr], rows[sel] = rows[sel], rows[pr]
            inv = f.inv(rows[pr][pc])
            rows[pr] = [f.mul(inv, x) for x in rows[pr]]
            for r in range(len(rows)):
                if r != pr and rows[r][pc] != z:
                    c = rows[r][pc]
                    rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[r], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == len(rows):
                break
        return DispatchMatrix(f, self.nrows, self.ncols, tuple(tuple(r) for r in rows)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> tuple[tuple, ...]:
        """Basis of the right kernel, one vector per free column.

        The basis is in echelon convention: vector ``t`` has a one in
        the ``t``-th free column and zeros in the other free columns.
        """
        f = self.field
        R, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [f.zero()] * self.ncols
            v[fc] = f.one()
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(R.rows[r][fc])
            basis.append(tuple(v))
        return tuple(basis)

    def column_space_basis(self) -> "DispatchMatrix":
        """DispatchMatrix whose columns are the pivot columns (echelon convention)."""
        # row space of the transpose = column space; its pivot rows give
        # an echelon basis
        R, piv = self.transpose().rref()
        rows = [R.rows[i] for i in range(len(piv))]
        if not rows:
            return DispatchMatrix.zeros(self.field, self.nrows, 0)
        return DispatchMatrix(self.field, len(rows), self.nrows, tuple(rows)).transpose()

    def solve(self, b: "DispatchMatrix"):
        """One solution ``x`` of ``self @ x = b`` or None (column-wise)."""
        if b.nrows != self.nrows:
            raise ValueError("shape mismatch in solve")
        f = self.field
        aug = self.hstack(b)
        R, pivots = aug.rref()
        n = self.ncols
        # inconsistent if a pivot lands in the b-part
        for pc in pivots:
            if pc >= n:
                return None
        z = f.zero()
        cols = []
        for j in range(b.ncols):
            x = [z] * n
            for r, pc in enumerate(pivots):
                x[pc] = R.rows[r][n + j]
            cols.append(x)
        return DispatchMatrix(f, b.ncols, n, tuple(tuple(c) for c in cols)).transpose()

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "DispatchMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        aug = self.hstack(DispatchMatrix.identity(self.field, self.nrows))
        R, pivots = aug.rref()
        if len(pivots) != self.nrows or any(p >= self.nrows for p in pivots):
            raise ValueError("matrix is singular")
        rows = tuple(r[self.nrows:] for r in R.rows)
        return DispatchMatrix(self.field, self.nrows, self.nrows, rows)
