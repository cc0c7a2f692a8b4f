"""Exact finite-dimensional representations of presented path algebras.

A representation assigns a dimension to every vertex and a matrix over
an exact field to every arrow; the matrix of an arrow maps the source
space into the target space, acting on column vectors.  A written word
``a.b`` therefore evaluates to the product ``mat(a) * mat(b)`` with
``b`` applied first.

On top of the basics (hom spaces, direct sums, summand splitting) the
module carries the three change-of-vertex operators used to move
representations along gluings and blow-ups, a Krull-Schmidt
decomposition against a catalog of indecomposables, and two exhaustive
enumeration strategies for such catalogs over a finite field.

Isomorphism, indecomposability and multiplicities are all read off the
top E(m) = End(m)/rad End(m), with the radical computed exactly.  Write
m = U_1^a_1 + ... + U_r^a_r with pairwise non-isomorphic indecomposables
U_i, and d_i for the dimension of the division ring E(U_i).  Then E(m)
is the product of the matrix rings M_a_i(E(U_i)), of dimension sum
a_i^2 d_i, and Hom(m, n) modulo its radical has dimension sum a_i b_i
d_i (Auslander, Reiten and Smalo, Representation Theory of Artin
Algebras, ch. I).

The rank of every arrow matrix, kept on the representation object, is a
cheaper invariant: base change keeps it and it adds over direct sums.
So ``is_isomorphic`` tells modules of different ranks apart, and
``decompose`` skips a class whose ranks do not fit into what is left,
without solving a Hom space; both count the simples without one too,
and ``is_isomorphic`` reads tops only of what is left without them.
The enumerators are:

* ``scan`` meets every matrix tuple per dimension vector up to base
  change, with one arrow in normal form and each relation checked as
  soon as its arrows are fixed, and keeps one representative per
  isomorphism class, which is exact but only affordable while the entry
  count stays small;
* ``closure`` grows the catalog by one total dimension at a time,
  realizing every candidate as an extension of a known direct sum by a
  simple submodule, so single large matrices never get enumerated.
  Ext^1 of a direct sum is the sum of the Ext^1 of its summands, so one
  basis per (class, vertex) is computed once, and extension classes that
  visibly split are pruned before any Hom space is solved.

Both enumerators decide a candidate m by ``_is_local``, whose Fitting
certificates settle nearly every candidate from End alone; a simple
summand at v, counted as d - rk A - rk B + rk AB for A the arrows out of
v stacked and B the arrows into v joined, rejects it first.  Then only
classes of its own dimension vector, End dimension and arrow ranks can
be isomorphic to it, and such a class u is isomorphic to m exactly when
some basis vector of Hom(u, m) is invertible at every vertex: one Hom
solve per probe, exact and never sampled.  End, its top, the local
verdict and the arrow ranks are kept on the representation object, so a
catalog class pays for them once.  Every map is read as the flat vector
``hom_space`` solves for, cut per vertex by ``_blocks``; ``Morphism``
objects are formed only for callers of the public API.  Likewise an
arrow or a vertex is its position, with incidence read off
``Quiver.arrows_out``, ``arrows_in`` and ``arrow_ends``; names are
resolved only by the public functions that take them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import gt, mul
from typing import NamedTuple

from .construct import (
    _arrow_graph,
    _avoiding,
    _inessential_order,
    _live_graph,
    blow_presentation,
    glue_presentation,
)
from .linalg import Matrix, all_matrices, block_diag, rank_forms, similarity_forms
from .quiver import NonComposable, Presentation


class ShapeMismatch(ValueError):
    pass


class SearchSpaceTooLarge(RuntimeError):
    pass


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Representation:
    """Matrices over an exact field attached to a presentation's quiver.

    ``dims`` aligns with ``pres.quiver.vertices`` and ``mats`` with
    ``pres.quiver.arrows``; relation satisfaction is checked separately
    by ``check_relations`` so that raw candidates can be filtered.
    """

    pres: Presentation
    field: object
    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        q = self.pres.quiver
        if len(self.dims) != len(q.vertices):
            raise ShapeMismatch("one dimension per vertex required")
        if any(d < 0 for d in self.dims):
            raise ShapeMismatch("dimensions must be nonnegative")
        if len(self.mats) != len(q.arrows):
            raise ShapeMismatch("one matrix per arrow required")
        for a, (si, ti), m in zip(q.arrows, q.arrow_ends, self.mats):
            if m.field != self.field:
                raise ShapeMismatch(f"matrix of {a.name!r} is over the wrong field")
            want = (self.dims[ti], self.dims[si])
            if m.shape != want:
                raise ShapeMismatch(
                    f"matrix of {a.name!r} has shape {m.shape}, expected {want}"
                )

    def dim(self, v: str) -> int:
        k = self.pres.quiver.vertex_index.get(v)
        if k is None:
            raise ValueError(f"no vertex named {v!r}")
        return self.dims[k]

    def mat(self, name: str) -> Matrix:
        k = self.pres.quiver.arrow_index.get(name)
        if k is None:
            raise KeyError(f"no arrow named {name!r}")
        return self.mats[k]

    @property
    def total(self) -> int:
        return sum(self.dims)

    @cached_property
    def _end(self) -> "HomSpace":
        """``hom_space(self, self)``, solved once per object."""
        return hom_space(self, self)

    @cached_property
    def _top(self) -> "_Top":
        """``_top_of(self)``, which the local test of a candidate rarely needs."""
        return _top_of(self)

    @cached_property
    def _local(self):
        """``_is_local(self)``, decided once per object."""
        return _is_local(self)

    @cached_property
    def _ranks(self) -> tuple[int, ...]:
        """The rank of every arrow matrix: kept by base change and
        additive over direct sums, so a summand's ranks fit into the
        module's."""
        return tuple(x.rank() for x in self.mats)


def make_representation(pres: Presentation, field, dims, mats) -> Representation:
    """Build a representation from dicts; omitted vertices get dimension
    zero and omitted arrows the zero matrix.  A name the quiver lacks, or
    a row list holding entries for an arrow with a zero-dimensional end,
    raises ShapeMismatch."""
    q = pres.quiver
    for v in dims:
        if v not in q.vertex_index:
            raise ShapeMismatch(f"no vertex {v!r}")
    for name in mats:
        if name not in q.arrow_index:
            raise ShapeMismatch(f"no arrow {name!r}")
    dt = tuple(dims.get(v, 0) for v in q.vertices)

    def lookup(a, si, ti):
        nr, nc = dt[ti], dt[si]
        got = mats.get(a.name)
        if got is None:
            return Matrix.zeros(field, nr, nc)
        if isinstance(got, Matrix):
            return got
        if nr == 0 or nc == 0:
            # row lists cannot carry a zero shape, so they may hold no entry
            if any(map(len, got)):
                raise ShapeMismatch(
                    f"matrix of {a.name!r} has entries, but its shape {(nr, nc)} holds none")
            return Matrix.zeros(field, nr, nc)
        return Matrix.from_rows(field, got)

    return Representation(
        pres, field, dt, tuple(lookup(a, *ends) for a, ends in zip(q.arrows, q.arrow_ends)))


def zero_representation(pres: Presentation, field) -> Representation:
    return make_representation(pres, field, {}, {})


def simple_representation(pres: Presentation, field, v: str) -> Representation:
    return make_representation(pres, field, {v: 1}, {})


def direct_sum(m: Representation, n: Representation) -> Representation:
    if m.pres != n.pres or m.field != n.field:
        raise ShapeMismatch("summands must live over the same presentation and field")
    dims = tuple(a + b for a, b in zip(m.dims, n.dims))
    mats = tuple(
        block_diag(m.field, [ma, na]) for ma, na in zip(m.mats, n.mats)
    )
    return Representation(m.pres, m.field, dims, mats)


def path_matrix(m: Representation, word: tuple[str, ...], source=None) -> Matrix:
    """Evaluate a written word; the last arrow of the word acts first, so
    each arrow must end where the one before it in the word starts."""
    if not word:
        if source is None:
            raise ValueError("an empty word needs an explicit source vertex")
        return Matrix.identity(m.field, m.dim(source))
    q = m.pres.quiver
    out = m.mat(word[0])
    for left, right in zip(word, word[1:]):
        factor = m.mat(right)
        if q.arrow_ends[q.arrow_index[right]][1] != q.arrow_ends[q.arrow_index[left]][0]:
            raise NonComposable(f"arrows {right!r} and {left!r} do not compose")
        out = out * factor
    return out


def _relations(pres: Presentation) -> list:
    """The relations as pairs of words over arrow positions, zero words
    first with None as the second word, then the commutation pairs."""
    index = pres.quiver.arrow_index

    def positions(word):
        return tuple(map(index.__getitem__, word))

    return [(positions(w), None) for w in pres.zero_words()] + [
        (positions(lhs), positions(rhs)) for lhs, rhs in pres.commutation_pairs()]


def check_relations(m: Representation):
    """Return (ok, problems) for the presentation's relations."""
    arrows = m.pres.quiver.arrows

    def written(word):
        return '·'.join(arrows[k].name for k in word)

    problems = []
    for lhs, rhs in _relations(m.pres):
        if rhs is None:
            if not _word_product(m.mats, lhs).is_zero():
                problems.append(f"word {written(lhs)} does not vanish")
        elif _word_product(m.mats, lhs) != _word_product(m.mats, rhs):
            problems.append(f"words {written(lhs)} and {written(rhs)} differ")
    return (not problems, tuple(problems))


# ---------------------------------------------------------------------------
# morphisms and hom spaces

@dataclass(frozen=True)
class Morphism:
    """A family of per-vertex matrices intertwining two representations."""

    source: Representation
    target: Representation
    blocks: tuple[Matrix, ...]

    def block(self, v: str) -> Matrix:
        k = self.source.pres.quiver.vertex_index.get(v)
        if k is None:
            raise ValueError(f"no vertex named {v!r}")
        return self.blocks[k]

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def is_isomorphism(self) -> bool:
        return self.source.dims == self.target.dims and all(
            b.is_invertible() for b in self.blocks
        )


@dataclass(frozen=True)
class HomSpace:
    """Hom(source, target) with a basis of morphisms.

    ``_flat`` holds each basis element's flat coordinates, the form every
    reader inside the module takes.  ``hom_space`` keeps only those
    vectors and forms ``basis`` from them on its first read."""

    source: Representation
    target: Representation
    basis: tuple[Morphism, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_flat", tuple(
            tuple(x for b in f.blocks for row in b.rows for x in row) for f in self.basis))

    def __getattr__(self, name):
        # reached only while a solved space has not formed its basis
        if name != "basis" or "_flat" not in self.__dict__:
            raise AttributeError(name)
        m, n = self.source, self.target
        object.__setattr__(self, "basis", tuple([Morphism(m, n, tuple([
            Matrix(m.field, nd, md, b)
            for b, nd, md in zip(_blocks(m.dims, n.dims, vec), n.dims, m.dims)
        ])) for vec in self._flat]))
        return self.basis

    @property
    def dim(self) -> int:
        return len(self._flat)


def identity_morphism(m: Representation) -> Morphism:
    blocks = tuple(Matrix.identity(m.field, d) for d in m.dims)
    return Morphism(m, m, blocks)


def compose_morphisms(g: Morphism, f: Morphism) -> Morphism:
    if f.target != g.source:
        raise ShapeMismatch("morphisms do not compose")
    blocks = tuple(gb * fb for gb, fb in zip(g.blocks, f.blocks))
    return Morphism(f.source, g.target, blocks)


def combine_morphisms(hom: HomSpace, coeffs) -> Morphism:
    field = hom.source.field
    cs = [field.coerce(c) for c in coeffs]
    if len(cs) != len(hom.basis):
        raise ShapeMismatch("one coefficient per basis element required")
    blocks = []
    for k, (nd, md) in enumerate(zip(hom.target.dims, hom.source.dims)):
        acc = Matrix.zeros(field, nd, md)
        for c, f in zip(cs, hom.basis):
            if c:
                acc = acc + f.blocks[k].scale(c)
        blocks.append(acc)
    return Morphism(hom.source, hom.target, tuple(blocks))


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """Solve the intertwining equations f.mat(a) = mat(a).f exactly.

    The unknowns are the entries of the blocks f_v, row by row, block
    after block.  The equation at entry (i, j) of arrow a: s -> t reads
    (row i of f_t) . (column j of m.mat(a)) = (row i of n.mat(a)) .
    (column j of f_s), so its row holds one slice of each side.
    """
    if m.pres != n.pres or m.field != n.field:
        raise ShapeMismatch("hom spaces need a common presentation and field")
    q = m.pres.quiver
    field = m.field
    z, mod = field.coerce(0), field.modulus
    *offsets, pos = itertools.accumulate(map(mul, n.dims, m.dims), initial=0)  # block starts
    zero = [z] * pos
    rows = []
    for (si, ti), ma, na in zip(q.arrow_ends, m.mats, n.mats):
        ms, mt, ns = m.dims[si], m.dims[ti], n.dims[si]
        cols = list(zip(*ma.rows)) if mt else [()] * ms
        ft, fs = offsets[ti], offsets[si]
        for i, nrow in enumerate(na.rows):
            neg = [-x % mod for x in nrow]
            start = ft + i * mt
            for j, col in enumerate(cols):
                row = zero[:]
                row[start:start + mt] = col
                if si == ti:  # a loop: both sides meet in f_s
                    for k, x in enumerate(neg):
                        c = fs + k * ms + j
                        row[c] = (row[c] + x) % mod
                else:
                    row[fs + j:fs + j + ns * ms:ms] = neg
                rows.append(tuple(row))
    hom = object.__new__(HomSpace)
    object.__setattr__(hom, "source", m)
    object.__setattr__(hom, "target", n)
    object.__setattr__(hom, "_flat", Matrix(field, len(rows), pos, tuple(rows)).nullspace())
    return hom


def _blocks(mdims, ndims, vec) -> list:
    """The blocks f_v, as row tuples, of a flat map f: m -> n for m and n
    of dimension vectors ``mdims`` and ``ndims``, every vertex included."""
    blocks, pos = [], 0
    for nd, md in zip(ndims, mdims):
        blocks.append(tuple([vec[pos + i * md:pos + i * md + md] for i in range(nd)]))
        pos += nd * md
    return blocks


@lru_cache(maxsize=1024)
def _positions(mdims, ndims) -> tuple:
    """``_blocks`` of the flat positions of maps m -> n and n -> m; kept,
    since the top rank meets few pairs of dimension vectors many times
    (120 pairs in 2,183 calls of a functor bench pass)."""
    size = sum(map(mul, mdims, ndims))
    return _blocks(mdims, ndims, range(size)), _blocks(ndims, mdims, range(size))


# ---------------------------------------------------------------------------
# summands and decomposition

def _columns_matrix(field, height, cols) -> Matrix:
    rows = tuple(tuple(c[i] for c in cols) for i in range(height))
    return Matrix(field, height, len(cols), rows)


def _joined(m: Representation, k: int):
    """The arrows out of vertex ``k`` stacked, then the arrows into it
    joined, each as (matrix, rank), or (None, 0) where there is none; a
    single arrow's rank is the one kept on ``m``.  The two are yielded in
    turn, so a caller done after the first pays nothing for the second."""
    q = m.pres.quiver
    for picked, join in ((q.arrows_out[k], Matrix.vstack), (q.arrows_in[k], Matrix.hstack)):
        if len(picked) == 1:
            yield m.mats[picked[0]], m._ranks[picked[0]]
        elif picked:
            x = functools.reduce(join, [m.mats[j] for j in picked])
            yield x, x.rank()
        else:
            yield None, 0


def _kernel_and_image(m: Representation, v: str):
    """Column bases of the joint kernel of the arrows out of ``v`` and of
    the joint image of the arrows into ``v``."""
    dv = m.dim(v)
    (a, _), (b, _) = _joined(m, m.pres.quiver.vertex_index[v])
    kernel = Matrix.identity(m.field, dv) if a is None else _columns_matrix(
        m.field, dv, a.nullspace())
    image = Matrix.zeros(m.field, dv, 0) if b is None else b.column_space_basis()
    return kernel, image


def simple_summand_multiplicity(m: Representation, v: str) -> int:
    """Multiplicity of the one-dimensional representation at ``v`` as a
    direct summand: the part of the joint out-kernel K sticking out of
    the joint in-image I, dim (K + I) - dim I.

    With A the arrows out of v stacked and B the arrows into v joined,
    K = ker A and I = im B, and K meets I in B(ker AB), of dimension
    rk B - rk AB.  So the multiplicity is d - rk A - rk B + rk AB."""
    d = m.dim(v)
    if d == 0:
        return 0
    sides = _joined(m, m.pres.quiver.vertex_index[v])
    a, rank_a = next(sides)
    if rank_a == d:
        return 0
    b, rank_b = next(sides)
    if rank_b == d:
        return 0
    return d - rank_a - rank_b + ((a * b).rank() if rank_a and rank_b else 0)


def has_simple_summand_at(m: Representation, v: str) -> bool:
    return simple_summand_multiplicity(m, v) > 0


def _find_split(m: Representation, u: Representation):
    """The first pair (f, g), as blocks, with g.f invertible on ``u``, or None.

    Exact for indecomposable ``u``: its endomorphism ring is local, so
    if a copy of ``u`` splits off then already some pair of hom basis
    elements composes to an automorphism.
    """
    if u.total == 0:
        raise ShapeMismatch("the zero representation is not a valid probe")
    if any(du > dm for du, dm in zip(u.dims, m.dims)):
        return None
    into = hom_space(u, m)
    if not into.dim:
        return None
    back = [_blocks(m.dims, u.dims, g) for g in hom_space(m, u)._flat]
    for f in (_blocks(u.dims, m.dims, f) for f in into._flat):
        for g in back:
            if all(_invertible(m.field, _int_product(x, y, m.field.modulus))
                   for x, y in zip(g, f)):
                return f, g
    return None


def has_summand(m: Representation, u: Representation) -> bool:
    """Whether the indecomposable ``u`` is a direct summand of ``m``."""
    return _find_split(m, u) is not None


def _restricted(m: Representation, bases) -> Representation:
    """``m`` on the arrow-stable subspaces spanned by the columns of
    ``bases``, one matrix per vertex, in the coordinates of those columns;
    None keeps the whole space at its vertex."""
    mats = []
    for (si, ti), ma in zip(m.pres.quiver.arrow_ends, m.mats):
        if bases[si] is not None:
            ma = ma * bases[si]
        if bases[ti] is not None:
            ma = bases[ti].solve(ma)
            if ma is None:
                raise RuntimeError("subspaces are not arrow-stable")
        mats.append(ma)
    dims = tuple(d if b is None else b.ncols for d, b in zip(m.dims, bases))
    return Representation(m.pres, m.field, dims, tuple(mats))


def split_summand(m: Representation, u: Representation):
    """Split one copy of the indecomposable ``u`` off ``m``; returns the
    complement, ``m`` on ker g for g.f invertible (m = im f + ker g), or
    None when ``u`` is not a summand."""
    pair = _find_split(m, u)
    if pair is None:
        return None
    return _restricted(m, [_columns_matrix(m.field, d, Matrix(m.field, len(g), d, g).nullspace())
                           for d, g in zip(m.dims, pair[1])])


def strip_simple_summands(m: Representation, vertices):
    """Split off every one-dimensional summand sitting at the given
    vertices; returns the stripped representation and per-vertex counts.

    At v the simples span a complement of I in K + I, for K the joint
    out-kernel and I the joint in-image.  The rest lives on I plus a
    complement of K + I, which holds the in-image and meets K inside I.
    The simples at v lie in K, which the arrows out of v kill, so
    stripping them changes K and I at no other vertex, and one
    restriction strips every vertex at once.
    """
    counts = dict.fromkeys(vertices, 0)
    q = m.pres.quiver
    bases = [None] * len(m.dims)
    for v in counts:
        if not q.has_vertex(v):
            raise ShapeMismatch(f"no vertex {v!r}")
        if not m.dim(v):
            continue
        kernel, image = _kernel_and_image(m, v)
        rest = image.hstack(_section(m.field, m.dim(v), kernel.hstack(image)))
        counts[v] = m.dim(v) - rest.ncols
        if counts[v]:  # with no simple, rest is another basis of the whole space
            bases[q.vertex_index[v]] = rest
    return _restricted(m, bases), counts


# ---------------------------------------------------------------------------
# endomorphism rings and their tops: isomorphism, indecomposability and
# multiplicities

def _int_product(a, b, modulus):
    """Product of two matrices given as row lists, reduced by ``modulus``."""
    return [[sum(map(mul, row, col)) % modulus for col in zip(*b)] for row in a]


def _radical(m) -> tuple[tuple, ...]:
    """Coordinates on the basis of ``m._end`` that span rad End(m).

    Over QQ the radical is the kernel of the trace form (a, b) -> Tr(ab)
    (Dickson).  Over GF(p) that kernel I_0 only starts the descent of
    Rónyai (J. Symbolic Comput. 9, 1990) and Cohen, Ivanyos and Wales
    (JPAA 117-118, 1997): I_i keeps the a in I_(i-1) with g_i(ab) = 0
    for every End basis element b, where g_i(x) = (Tr(x~^(p^i)) mod
    p^(i+1)) / p^i for the lift x~ of x with entries in [0, p).  g_i is
    linear on the ideal I_(i-1), and I_i is the radical from the first
    level i with p^(i+1) above the total dimension on.
    """
    field, p = m.field, m.field.size
    flat = m._end._flat
    basis = [_blocks(m.dims, m.dims, f) for f in flat]
    turned = [[x for block in f for col in zip(*block) for x in col] for f in basis]
    # Tr(ab) is the sum over v, j, k of a_v[j][k] b_v[k][j]
    coords = Matrix.from_rows(field, [
        [sum(x * y for x, y in zip(a, b)) for b in turned] for a in flat]).nullspace()
    level = 1
    while coords and p is not None and p ** level <= m.total:
        ideal = [[[[sum(c * f[v][i][j] for c, f in zip(y, basis)) % p for j in range(d)]
                   for i in range(d)] for v, d in enumerate(m.dims)] for y in coords]
        values = []
        for f in basis:
            row = []
            for a in ideal:
                trace = 0
                for av, fv in zip(a, f):
                    power = _int_product(av, fv, p)
                    for _ in range(level):  # raise to the p-th power level times
                        base = power
                        for _ in range(p - 1):
                            power = _int_product(power, base, p ** (level + 1))
                    trace += sum(power[i][i] for i in range(len(power)))
                row.append(trace % p ** (level + 1) // p ** level)
            values.append(row)
        kernel = Matrix.from_rows(field, values).nullspace()
        coords = tuple(tuple(sum(z * y[t] for z, y in zip(k, coords)) % p
                             for t in range(len(basis))) for k in kernel)
        level += 1
    return coords


class _Top(NamedTuple):
    """The residue map End(m) -> E(m) = End(m)/rad End(m), onto ``dim``
    coordinates: coordinate k of the residue of an endomorphism h is the
    sum of h_v[i][j] * w[k] over the pairs ((v, i, j), w) of ``entries``
    and ``weights``."""

    dim: int
    entries: tuple[tuple[int, int, int], ...]
    weights: tuple[tuple, ...]


def _top_of(m) -> _Top:
    """The residue map of End(m), for any basis of ``m._end``: the End
    coordinates of h are its entries at the pivot positions of the
    flattened basis times the inverse of the basis restricted to them,
    and the functionals vanishing on the radical take them onto E(m)."""
    field, n = m.field, m._end.dim
    positions = {c: (v, i, j) for v, block in enumerate(_positions(m.dims, m.dims)[0])
                 for i, row in enumerate(block) for j, c in enumerate(row)}
    flat = Matrix(field, n, len(positions), m._end._flat)
    pivots = sorted(flat._reduced())
    square = Matrix(field, n, n, tuple(tuple(row[c] for c in pivots) for row in flat.rows))
    rad = _radical(m)
    quotient = Matrix(field, len(rad), n, rad).nullspace()
    weights = square.inverse() * _columns_matrix(field, n, quotient)
    return _Top(len(quotient), tuple(positions[c] for c in pivots), weights.rows)


def _functionals(m: Representation, n: Representation, gs):
    """Per flat g: n -> m in ``gs``, the functionals on the flat coordinates
    of f: m -> n giving each coordinate of the residue of g.f in E(m): entry
    (i, j) of g_v.f_v is the sum over k of g_v[i][k] f_v[k][j], weighted by
    the top's weight at (v, i, j)."""
    top = m._top
    size = sum(map(mul, n.dims, m.dims))
    at_f, at_g = _positions(m.dims, n.dims)
    for g in gs:
        rows = [[0] * size for _ in range(top.dim)]
        for (v, i, j), w in zip(top.entries, top.weights):
            for a, f_row in zip(at_g[v][i], at_f[v]):  # g_v[i][k] and f_v[k] over k
                if g[a]:
                    for row, y in zip(rows, w):
                        row[f_row[j]] += g[a] * y
        yield rows


def _top_rank(m: Representation, n: Representation) -> int:
    """dim Hom(m, n)/rad(m, n): f is radical exactly when every g.f with
    g in Hom(n, m) is radical in End(m), so this is the rank of
    f -> (residue of g.f)_g over bases of Hom(m, n) and Hom(n, m), a
    set of dot products with ``_functionals``."""
    into = hom_space(m, n)
    if not into.dim:
        return 0
    back = hom_space(n, m)
    functionals = [row for rows in _functionals(m, n, back._flat) for row in rows]
    mod = m.field.modulus
    return Matrix(m.field, into.dim, len(functionals), tuple([
        tuple([sum(map(mul, f, row)) % mod for row in functionals]) for f in into._flat
    ])).rank()


def _nilpotent(block, p) -> bool:
    """Whether a square block of residues mod ``p``, as a row list, is
    nilpotent: raised by squaring to a power at least its size, where
    its kernel and image have stopped changing, it is zero."""
    size = 1
    while size < len(block):
        block = _int_product(block, block, p)
        size *= 2
    return not any(map(any, block))


def _invertible(field, block) -> bool:
    return Matrix(field, len(block), len(block), block).rank() == len(block)


def _is_local(m):
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
    absolutely indecomposable.  Both certificates read the blocks of the
    flat End basis as residue rows.

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
    p = field.size
    nilpotent = []  # per nilpotent shift, its blocks
    for vec in end._flat:
        blocks = [b for b in _blocks(m.dims, m.dims, vec) if b]
        for lam in range(p):
            h = [tuple([r[:i] + ((r[i] - lam) % p,) + r[i + 1:] for i, r in enumerate(b)])
                 for b in blocks]
            # an invertible block is not nilpotent, so an invertible h
            # moves on to the next shift
            if all(_invertible(field, x) for x in h):
                continue
            if not all(_nilpotent(x, p) for x in h):
                return False
            nilpotent.append(h)
            break
    if len(nilpotent) == end.dim:
        sizes = [len(b) for b in nilpotent[0]]
        # per vertex, the rows of a basis of J^k m, from J^0 m = m
        layer = [[[int(i == j) for j in range(d)] for i in range(d)] for d in sizes]
        while any(layer):
            below = []
            for v, (d, w) in enumerate(zip(sizes, layer)):
                images = tuple([tuple([sum(map(mul, row, x)) % p for row in h[v]])
                                for h in nilpotent for x in w])
                below.append(list(Matrix(field, len(images), d, images)._reduced().values()))
            if sum(map(len, below)) == sum(map(len, layer)):
                break
            layer = below
        else:
            return True
    # the residues of the End basis span the top; a's functionals take b to that of a.b
    basis = list(zip(_functionals(m, m, end._flat), end._flat))
    if any([sum(map(mul, r, b)) % p for r in fa] != [sum(map(mul, r, a)) % p for r in fb]
           for (fa, a), (fb, b) in itertools.combinations(basis, 2)):
        return False
    one, = _functionals(m, m, [[int(i == j) for d in m.dims for i in range(d) for j in range(d)]])
    frobenius = []
    for _, b in basis:
        blocks = power = _blocks(m.dims, m.dims, b)
        for _ in range(p - 1):  # up to b^p
            power = [_int_product(x, y, p) for x, y in zip(power, blocks)]
        power = [x - y for x, y in zip((x for w in power for row in w for x in row), b)]
        frobenius.append([sum(map(mul, r, power)) % p for r in one])
    return Matrix.from_rows(field, frobenius).rank() == m._top.dim - 1


def decompose(m: Representation, catalog) -> tuple[int, ...]:
    """Multiplicities of the catalog classes in ``m``.

    The catalog must list pairwise non-isomorphic indecomposables over
    the presentation and field of ``m`` and cover every summand of
    ``m``; a leftover no class accounts for is an error, never a silent
    drop.

    The classes are visited once, largest total dimension first.  What
    is left of ``m`` once the classes counted so far are split off keeps
    its dimension vector and its arrow ranks, the ranks of ``m`` minus
    those of the counted summands, since ranks add over direct sums.  A
    class whose dimensions or ranks do not fit into what is left is no
    summand of it and counts 0 without a Hom solve; the walk stops when
    nothing is left.  The multiplicity of any other class u is
    ``_top_rank(u, m)`` / dim E(u): Hom(u, m) modulo its radical is a
    vector space of that dimension over the division ring E(u), whatever
    the field and residue degree.

    The simples, the classes of total dimension one with zero arrows,
    are counted last and without a Hom solve: when no arrow rank is left
    the rest is semisimple, and the simple at v occurs ``left[v]``
    times.  Otherwise some summand is not covered, and the simples are
    counted by ``simple_summand_multiplicity`` so that the refusal names
    the same leftover dimension vector.
    """
    # simples and pruned classes meet no Hom solve to check them
    for u in {(id(u.pres), id(u.field)): u for u in catalog}.values():
        if u.pres != m.pres or u.field != m.field:
            raise ShapeMismatch("catalog classes must live over the presentation and field of m")
    totals = [u.total for u in catalog]
    counts = [0] * len(catalog)
    left, ranks = list(m.dims), list(m._ranks)
    simples = []  # (class index, vertex index)
    # reverse keeps the catalog order among equal totals
    for k in sorted(range(len(catalog)), key=totals.__getitem__, reverse=True):
        if not any(left):
            break
        u = catalog[k]
        # a zero class has a zero top and counts nothing
        if not totals[k] or any(map(gt, u.dims, left)) or any(map(gt, u._ranks, ranks)):
            continue
        if totals[k] == 1 and not any(u._ranks):
            simples.append((k, u.dims.index(1)))
            continue
        counts[k] = _top_rank(u, m) // u._top.dim
        left = [a - counts[k] * b for a, b in zip(left, u.dims)]
        ranks = [a - counts[k] * b for a, b in zip(ranks, u._ranks)]
    vertices = m.pres.quiver.vertices
    for k, v in simples:
        counts[k] = simple_summand_multiplicity(m, vertices[v]) if any(ranks) else left[v]
        left[v] -= counts[k]
    if any(left):
        raise ValueError(
            "catalog does not cover a summand of the representation"
            f" (stuck at dimension vector {tuple(left)})"
        )
    return tuple(counts)


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Exact isomorphism test from the tops of the endomorphism rings of
    the parts without simple summands.

    Isomorphic modules have equal dimension vectors, arrow ranks and
    simple multiplicities, read off ranks by
    ``simple_summand_multiplicity``, so modules differing there are told
    apart without a Hom solve, and two semisimple modules agreeing there
    are isomorphic.  Otherwise, by Krull-Schmidt, m and n are isomorphic
    exactly when their parts m', n' without simple summands are, each
    split off by one ``strip_simple_summands`` restriction.  With a_i
    and b_i the multiplicities of U_i in m' and in n', dim E(m') +
    dim E(n') - 2 dim Hom(m', n')/rad is the sum of (a_i - b_i)^2 d_i,
    which vanishes exactly when m' and n' are isomorphic.
    """
    if m.pres != n.pres or m.field != n.field:
        raise ShapeMismatch("comparison needs a common presentation and field")
    if m.dims != n.dims or m._ranks != n._ranks:
        return False
    vertices = m.pres.quiver.vertices
    simples = [simple_summand_multiplicity(m, v) for v in vertices]
    if simples != [simple_summand_multiplicity(n, v) for v in vertices]:
        return False
    if sum(simples) == m.total:
        return True
    if any(simples):
        held = [v for v, c in zip(vertices, simples) if c]
        m, n = strip_simple_summands(m, held)[0], strip_simple_summands(n, held)[0]
    rank = _top_rank(m, n)
    return rank > 0 and 2 * rank == m._top.dim + n._top.dim


def is_indecomposable(m: Representation) -> bool:
    """Exact indecomposability test: whether End(m) is local.

    A splitting simple settles it first, also over QQ, and ``_is_local``
    decides the rest over GF(p).  Over QQ a top of dimension above one
    is left undecided, and that raises SearchSpaceTooLarge.
    """
    if m.total <= 1:
        return m.total == 1
    if any(has_simple_summand_at(m, v) for v in m.pres.quiver.vertices):
        return False  # total > 1, so a splitting simple is proper
    if m._local is None:
        raise SearchSpaceTooLarge(
            f"End(m)/rad has dimension {m._top.dim} over QQ; decide over GF(p)"
            " or use catalog decomposition"
        )
    return m._local


# ---------------------------------------------------------------------------
# moving representations along gluings and blow-ups

def _glue_blocks(m: Representation, i: str, j: str, merged_id):
    glued, _, _ = glue_presentation(m.pres, i, j, merged_id)
    ki, kj = m.pres.quiver.vertex_index[i], m.pres.quiver.vertex_index[j]
    di, dj = m.dims[ki], m.dims[kj]
    offset = {ki: 0, kj: di}  # the i part sits above the j part in the merged space
    z = m.field.coerce(0)
    mats = []
    for (si, ti), block in zip(m.pres.quiver.arrow_ends, m.mats):
        nr = di + dj if ti in offset else m.dims[ti]
        nc = di + dj if si in offset else m.dims[si]
        r0, c0 = offset.get(ti, 0), offset.get(si, 0)
        grid = [[z] * nc for _ in range(nr)]
        for r, row in enumerate(block.rows):
            grid[r0 + r][c0:c0 + block.ncols] = row
        mats.append(Matrix(m.field, nr, nc, tuple(map(tuple, grid))))
    # gluing puts the merged vertex where i was and drops j
    dims = tuple(di + dj if k == ki else d for k, d in enumerate(m.dims) if k != kj)
    return Representation(glued, m.field, dims, tuple(mats))


def glue_induce(m: Representation, i: str, j: str, merged_id=None) -> Representation:
    """Push a representation through the gluing of ``i`` and ``j``.

    The merged space stacks the ``i`` part above the ``j`` part; each
    arrow matrix lands in the block addressed by its endpoints, so the
    imposed zero relations hold automatically.  Arrows running between
    the two vertices are rejected here; use the inessential variant for
    pairs that carry them.
    """
    at = m.pres.quiver.vertex_index
    pair = {at.get(i), at.get(j)}
    if any({si, ti} <= pair for si, ti in m.pres.quiver.arrow_ends):
        raise ShapeMismatch(
            f"arrows between {i!r} and {j!r} need glue_induce_inessential"
        )
    return _glue_blocks(m, i, j, merged_id)


def glue_induce_inessential(
    m: Representation, i: str, j: str, merged_id=None
) -> Representation:
    """Same construction restricted to an inessential pair, where one
    ordering has no arrows into the first vertex and none out of the
    second; arrows from one glued vertex to the other are allowed and
    become nilpotent loops."""
    if _inessential_order(m.pres.quiver, i, j) is None:
        raise ShapeMismatch(f"pair ({i!r}, {j!r}) is not inessential here")
    return _glue_blocks(m, i, j, merged_id)


def blow_induce(m: Representation, v: str) -> Representation:
    """Push a representation through the blow-up of ``v``: both primed
    copies inherit the space at ``v`` and the matrices of the incident
    arrows, so all duplicated relations and commutations hold."""
    blown, _, _ = blow_presentation(m.pres, v)
    k = m.pres.quiver.vertex_index[v]
    # blowing up puts the two copies of v, and of each arrow at v, in place
    dims = tuple(d for u, d in enumerate(m.dims) for _ in range(1 + (u == k)))
    mats = tuple(x for ends, x in zip(m.pres.quiver.arrow_ends, m.mats)
                 for _ in range(1 + (k in ends)))
    return Representation(blown, m.field, dims, mats)


def _section(field, dim, span_cols: Matrix) -> Matrix:
    """Deterministic section of space -> space/span: the standard basis
    vectors at the non-pivot coordinates of the spanning columns."""
    pivots = span_cols.transpose()._reduced()
    free = [k for k in range(dim) if k not in pivots]
    z, o = field.coerce(0), field.coerce(1)
    return Matrix(field, dim, len(free), tuple(
        tuple(o if r == f else z for f in free) for r in range(dim)))


def glue_restrict_inessential(
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

    Gluing keeps the arrows and their order, so ``n`` is first read over
    the base with the whole merged space at both copies, then restricted.
    That is arrow-stable: nothing enters s, and every arrow into t lands
    in the joint image.
    """
    bq = base_pres.quiver
    ordering = _inessential_order(bq, i, j)
    if ordering is None:
        raise ShapeMismatch(f"pair ({i!r}, {j!r}) is not inessential in the base")
    s, t = ordering
    glued, vmap, _ = glue_presentation(base_pres, i, j)
    if n.pres != glued:
        raise ShapeMismatch(
            "representation does not live over the glued form of this base"
        )
    w = vmap[i][0]
    dw = n.dim(w)
    kernel, image = _kernel_and_image(n, w)
    bases = [None] * len(bq.vertices)
    bases[bq.vertex_index[s]] = _section(n.field, dw, kernel)
    bases[bq.vertex_index[t]] = image
    dims = tuple(dw if v in (s, t) else n.dim(v) for v in bq.vertices)
    return _restricted(Representation(base_pres, n.field, dims, n.mats), bases)


# ---------------------------------------------------------------------------
# exhaustive enumeration of indecomposables

@dataclass(frozen=True)
class EnumerationResult:
    classes: tuple[Representation, ...]
    max_total: int
    method: str
    examined: int
    tested: int = 0

    @property
    def count(self) -> int:
        return len(self.classes)


def _compositions(total, parts):
    """Dimension vectors of a total in lexicographic order; the bars of a
    stars-and-bars picture come out of ``combinations`` in that order."""
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1,) + bars + (slots,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _is_isomorphic_to_indecomposable(m, u) -> bool:
    """Whether ``m`` is isomorphic to the indecomposable ``u`` of its
    dimension vector, from one Hom solve: exactly when some basis element
    of Hom(u, m) is invertible at every vertex.  For an isomorphism
    phi: u -> m the maps that are not isomorphisms form phi.rad End(u),
    End(u) being local, and no basis lies in that proper subspace."""
    return any(all(_invertible(m.field, b) for b in _blocks(u.dims, m.dims, vec))
               for vec in hom_space(u, m)._flat)


def _is_new_indecomposable(m, same_dimvec) -> bool:
    """Whether ``m`` is indecomposable and isomorphic to no module of
    ``same_dimvec``, indecomposables of its dimension vector; exact over
    GF(p).  Classes of another End dimension or other arrow ranks are
    skipped: isomorphic modules have equal End dimensions and arrow
    ranks.  Each other class costs one Hom solve."""
    if not is_indecomposable(m):
        return False
    return not any(
        _is_isomorphic_to_indecomposable(m, u) for u in same_dimvec
        if u._end.dim == m._end.dim and u._ranks == m._ranks
    )


def _word_product(mats, word):
    """A written word over arrow positions; its last arrow acts first."""
    out = mats[word[0]]
    for k in word[1:]:
        out = out * mats[k]
    return out


def _orbit_tuples(field, shapes, ends, relations):
    """Matrix tuples, in arrow order, meeting every orbit of the base
    change group prod GL(d_v) and satisfying the relations.

    The arrow with the most entries, the first in arrow order on ties,
    runs over one normal form per orbit of the base change at its ends:
    rank forms, or similarity forms for a loop.  The other arrows run
    over all matrices, streamed.  Arrows are fixed in that order by an
    explicit stack of generators, and a relation is checked as soon as
    its last arrow is fixed, so a prefix that breaks one is never
    extended.  Relations are pairs of words over arrow positions, the
    second None for a zero relation.
    """
    n = len(shapes)
    if n == 0:
        yield ()
        return
    first = max(range(n), key=lambda k: shapes[k][0] * shapes[k][1])
    order = [first] + [k for k in range(n) if k != first]
    step = {k: i for i, k in enumerate(order)}
    checks = [[] for _ in order]  # per step, the relations it completes
    for lhs, rhs in relations:
        checks[max(step[k] for k in lhs + (rhs or ()))].append((lhs, rhs))
    si, ti = ends[first]
    if si == ti:
        forms = similarity_forms(field, shapes[first][0])
    else:
        forms = rank_forms(field, *shapes[first])
    mats = [None] * n
    stack = [forms]
    while stack:
        level = len(stack) - 1
        for mat in stack[-1]:
            mats[order[level]] = mat
            if all(
                _word_product(mats, lhs).is_zero() if rhs is None
                else _word_product(mats, lhs) == _word_product(mats, rhs)
                for lhs, rhs in checks[level]
            ):
                break
        else:
            stack.pop()
            continue
        if level == n - 1:
            yield tuple(mats)
        else:
            stack.append(all_matrices(field, *shapes[order[level + 1]]))


def _connected_support(ends, dims) -> bool:
    """Whether the vertices of nonzero dimension are connected through
    the arrows between them, ``ends`` holding each arrow's (source,
    target) positions; a walk from the first of them."""
    support = {k for k, d in enumerate(dims) if d}
    seen, stack = set(), [min(support)]
    while stack:
        k = stack.pop()
        if k not in seen:
            seen.add(k)
            stack += [t if s == k else s for s, t in ends
                      if k in (s, t) and s in support and t in support]
    return seen == support


def _scan_catalog(pres, field, max_total, budget):
    """Catalog, matrix tuples examined and tuples built; see
    ``enumerate_indecomposables``."""
    if field.size is None:
        raise SearchSpaceTooLarge("exhaustive scans need a finite field")
    q = pres.quiver
    ends = q.arrow_ends
    relations = _relations(pres)
    catalog = []
    examined = tested = 0
    for total in range(1, max_total + 1):
        for dims in _compositions(total, len(q.vertices)):
            if not _connected_support(ends, dims):
                continue
            shapes = [(dims[ti], dims[si]) for si, ti in ends]
            cost = sum(r * c for r, c in shapes)
            if cost > budget:
                raise BudgetExceeded(
                    f"dimension vector {dims} needs {cost} matrix entries,"
                    f" over the budget {budget}"
                )
            examined += field.size ** cost
            found_here = []
            for mats in _orbit_tuples(field, shapes, ends, relations):
                tested += 1
                m = Representation(pres, field, dims, mats)
                if _is_new_indecomposable(m, found_here):
                    found_here.append(m)
            catalog.extend(found_here)
    return catalog, examined, tested


def _weighted_multisets(entries, target):
    """Multisets over (index, weight) entries with weights summing to
    target, as nondecreasing index tuples in lexicographic order.  The
    walk keeps its own stack, so its depth is not bounded by recursion."""
    stack = [(0, target, ())]
    while stack:
        start, left, picks = stack.pop()
        if left == 0:
            yield picks
            continue
        stack.extend((k, left - entries[k][1], picks + (k,))
                     for k in reversed(range(start, len(entries)))
                     if entries[k][1] <= left)


def _ext_basis(base, v) -> Matrix:
    """Rows: coset representatives of a basis of Ext^1(base, S_v), for
    ``v`` a vertex position.

    An extension by the simple at ``v`` is given by the top rows it adds
    to the arrows into ``v``, concatenated in arrow order.  Relations
    ending at ``v`` make these rows a cocycle; the rows of ``base``'s own
    arrows into ``v`` span the coboundaries, and cocycles differing by a
    coboundary give isomorphic extensions.
    """
    q = base.pres.quiver
    field = base.field
    zero, mod = field.coerce(0), field.modulus
    ins = q.arrows_in[v]
    offsets = {}
    unknowns = 0
    for a in ins:
        offsets[a] = unknowns
        unknowns += base.dims[q.arrow_ends[a][0]]
    # relations whose words end at v, each word as its unknown top row
    # times the rest of the word
    constraints = [[(lhs, 1)] if rhs is None else [(lhs, 1), (rhs, -1)]
                   for lhs, rhs in _relations(base.pres) if lhs[0] in offsets]
    rows = []
    for parts in constraints:
        mats = [(offsets[w[0]], _word_product(base.mats, w[1:]), sign) for w, sign in parts]
        for c in range(mats[0][1].ncols):
            row = [zero] * unknowns
            for off, cols, sign in mats:
                for r in range(cols.nrows):
                    row[off + r] += sign * cols.rows[r][c]
            rows.append(tuple(x % mod for x in row))
    cocycles = Matrix(field, len(rows), unknowns, tuple(rows)).nullspace()
    span = [sum((base.mats[a].rows[t] for a in ins), ()) for t in range(base.dims[v])]
    rank = Matrix(field, len(span), unknowns, tuple(span)).rank()
    basis = []
    for z in cocycles:
        grown = span + basis + [z]
        if Matrix(field, len(grown), unknowns, tuple(grown)).rank() > rank + len(basis):
            basis.append(z)
    return Matrix(field, len(basis), unknowns, tuple(basis))


def _extend(base, v, rvec):
    """The extension of ``base`` by S_v, for ``v`` a vertex position,
    whose new basis vector comes first at ``v`` and whose arrows into
    ``v`` gain the top rows ``rvec``, concatenated in arrow order; arrows
    out of ``v`` kill the new vector."""
    z = base.field.coerce(0)
    pos = 0
    mats = []
    for (si, ti), bm in zip(base.pres.quiver.arrow_ends, base.mats):
        rows = bm.rows
        if si == v:
            rows = tuple((z,) + r for r in rows)
        if ti == v:
            top = tuple(rvec[pos:pos + bm.ncols])
            pos += bm.ncols
            rows = ((z,) + top if si == v else top,) + rows
        mats.append(Matrix(base.field, bm.nrows + (ti == v), bm.ncols + (si == v), rows))
    dims = tuple(d + (u == v) for u, d in enumerate(base.dims))
    return Representation(base.pres, base.field, dims, tuple(mats))


def _echelon_forms(field, r, e):
    """The r x e reduced row echelon matrices of rank r, one per
    r-dimensional subspace of the e-dimensional space over ``field``."""
    for pivots in itertools.combinations(range(e), r):
        free = [(i, c) for i in range(r) for c in range(pivots[i] + 1, e)
                if c not in pivots]
        for vals in itertools.product(field.elements(), repeat=len(free)):
            rows = [[int(c == pc) for c in range(e)] for pc in pivots]
            for (i, c), x in zip(free, vals):
                rows[i][c] = x
            yield Matrix.from_rows(field, rows)


def _closure_catalog(pres, field, max_total, budget):
    """Catalog, candidates examined and candidates tested; see
    ``enumerate_indecomposables`` for the pruning rule."""
    if field.size is None:
        raise SearchSpaceTooLarge("extension enumeration needs a finite field")
    out, head, word = _arrow_graph(pres)
    _live_graph(out, head, _avoiding(word(w) for w in pres.zero_words()),
                "closure extends by simple submodules only, so it misses the modules on"
                " which a cycle of arrows acts non-nilpotently; use method='scan'")
    q = pres.quiver
    catalog = [simple_representation(pres, field, v) for v in q.vertices] if max_total else []
    examined = tested = len(catalog)
    ext = []  # per class, per vertex position v, _ext_basis(class, v)
    for total in range(2, max_total + 1):
        found = []
        ext += [[_ext_basis(u, v) for v in range(len(q.vertices))] for u in catalog[len(ext):]]
        entries = [(k, u.total) for k, u in enumerate(catalog)]
        for picks in _weighted_multisets(entries, total - 1):
            groups = [(k, picks.count(k)) for k in sorted(set(picks))]
            base = None
            for v, name in enumerate(q.vertices):
                dirs = sum(r * ext[k][v].nrows for k, r in groups)
                if dirs > budget:
                    raise BudgetExceeded(
                        f"{dirs} independent extension directions at {name!r},"
                        f" over the budget {budget}"
                    )
                examined += field.size ** dirs - 1
                # a zero or dependent component splits a summand off
                if any(r > ext[k][v].nrows for k, r in groups):
                    continue
                if base is None:
                    base = catalog[picks[0]]
                    for k in picks[1:]:
                        base = direct_sum(base, catalog[k])
                choices = [_echelon_forms(field, r, ext[k][v].nrows) for k, r in groups]
                for pick in itertools.product(*choices):
                    # one component per summand of base, in its order: picks
                    # is sorted, so the copies of a class sit together as in
                    # groups; rvec then lays them out arrow by arrow, as base does
                    comps = [iter(row) for (k, _), c in zip(groups, pick)
                             for row in (c * ext[k][v]).rows]
                    rvec = [x for a in q.arrows_in[v] for k, it in zip(picks, comps)
                            for x in itertools.islice(it, catalog[k].dims[q.arrow_ends[a][0]])]
                    m = _extend(base, v, rvec)
                    tested += 1
                    same = [u for u in found if u.dims == m.dims]
                    if _is_new_indecomposable(m, same):
                        found.append(m)
        catalog.extend(found)
    return catalog, examined, tested


def enumerate_indecomposables(
    pres: Presentation,
    field,
    max_total: int,
    budget: int = 16,
    method: str = "scan",
) -> EnumerationResult:
    """One representative per isomorphism class of indecomposables with
    total dimension up to ``max_total``, over a finite field.

    ``scan`` tries every matrix tuple per dimension vector and refuses
    dimension vectors needing more than ``budget`` matrix entries.
    ``closure`` builds each candidate as an extension of smaller classes
    by a simple submodule, which reaches totals far beyond the scan;
    there ``budget`` caps the independent extension directions.  Both
    refuse loudly rather than returning a partial catalog.  ``closure``
    raises NonNilpotentCycle when the zero relations leave an oriented
    cycle of paths: a module on which such a cycle acts non-nilpotently
    may have no simple submodule, and closure would miss it silently.

    ``examined`` counts the candidates considered: every matrix tuple,
    p^(matrix entries) per dimension vector, for ``scan``; for
    ``closure`` the simples plus every nonzero class in
    Ext^1(B_1 + ... + B_n, S_v), over all direct sums and vertices.
    ``tested`` counts the candidates built and tested.  ``scan`` builds
    only tuples whose largest arrow (the first in arrow order on ties)
    is in normal form: a rank form [[I_r, 0], [0, 0]], or for a loop the
    block-diagonal companion matrix of an invariant factor chain.  Base
    change at the arrow's ends takes any tuple to one of these, so every
    isomorphism class is still met.  The other arrows run over all
    matrices, and a relation is checked as soon as its last arrow is
    fixed, so tuples breaking it are never built.  ``closure``
    prunes, exactly, a class whose component on some summand B_k is zero
    (B_k splits off) or whose components on a repeated summand B_k^r are
    linearly dependent (a base change of B_k^r splits a copy off), and
    builds one class per r-dimensional span of components, since
    GL_r acting on B_k^r gives isomorphic extensions.

    Each tested candidate is kept when ``_is_local`` finds it
    indecomposable and it matches no class found before it.
    """
    if max_total < 0:
        raise ValueError(f"max_total must be nonnegative, got {max_total}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if method == "scan":
        classes, examined, tested = _scan_catalog(pres, field, max_total, budget)
    elif method == "closure":
        classes, examined, tested = _closure_catalog(pres, field, max_total, budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    return EnumerationResult(tuple(classes), max_total, method, examined, tested)


def random_representation(pres: Presentation, field, rng, max_dim: int = 2):
    """A random representation of a relation-free presentation."""
    if pres.relations:
        raise ShapeMismatch("random sampling only fills relation-free shapes")
    dims = tuple(rng.randrange(max_dim + 1) for _ in pres.quiver.vertices)
    mats = []
    for si, ti in pres.quiver.arrow_ends:
        nr, nc = dims[ti], dims[si]
        if nr == 0 or nc == 0:
            mats.append(Matrix.zeros(field, nr, nc))
        elif field.size is not None:
            mats.append(Matrix.from_rows(field, [
                [rng.randrange(field.size) for _ in range(nc)] for _ in range(nr)]))
        else:
            mats.append(Matrix.from_rows(field, [
                [rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]))
    return Representation(pres, field, dims, tuple(mats))
