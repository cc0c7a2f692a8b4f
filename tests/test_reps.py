from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

from nodalq import (
    GF,
    QQ,
    Arrow,
    BudgetExceeded,
    HomSpace,
    Matrix,
    Morphism,
    NodalDatum,
    NonNilpotentCycle,
    Quiver,
    Representation,
    SearchSpaceTooLarge,
    ShapeMismatch,
    blow_induce,
    build_presentation,
    check_relations,
    combine_morphisms,
    compose_morphisms,
    decompose,
    direct_sum,
    enumerate_indecomposables,
    glue_induce,
    glue_restrict_inessential,
    has_simple_summand_at,
    has_summand,
    hereditary,
    hom_space,
    identity_morphism,
    is_indecomposable,
    is_isomorphic,
    make_representation,
    parse_datum,
    path_matrix,
    random_representation,
    simple_representation,
    simple_summand_multiplicity,
    split_summand,
    strip_simple_summands,
    validate,
    zero_representation,
)

from nodalq.linalg import all_matrices, block_diag, rank_forms, similarity_forms
from nodalq.quiver import NonComposable, QuiverError
from nodalq.reps import (
    _compositions,
    _connected_support,
    _glue_blocks,
    _is_isomorphic_to_indecomposable,
    _is_new_indecomposable,
    _radical,
    _top_rank,
    _weighted_multisets,
)
from util import (
    _support_connected,
    blow_induce_by_names,
    closure_catalog,
    decompose_by_peeling,
    decompose_by_top_rank,
    glue_blocks_by_names,
    glue_induce_by_names,
    glue_restrict_by_arrow_cases,
    hom_space_by_uidx,
    is_indecomposable_by_sweep,
    is_isomorphic_by_sweep,
    is_isomorphic_by_top_rank,
    is_isomorphic_by_tops,
    is_local_by_matrices,
    is_new_indecomposable_by_probes,
    line_quiver,
    random_blow_datum,
    random_glue_datum,
    scan_catalog,
    seeded,
    simple_summand_multiplicity_by_kernels,
    split_summand_by_idempotent,
    strip_simple_summands_by_splitting,
    strip_simple_summands_vertex_by_vertex,
    top_rank_by_residues,
    unpruned_candidates,
)

F2 = GF(2)
F3 = GF(3)

A2 = hereditary(line_quiver(2))
A3 = hereditary(line_quiver(3))


def _dual_numbers():
    pres, _ = build_presentation(NodalDatum(line_quiver(2), (("v0", "v1"),), ()))
    return pres


def _exceptional_100():
    q = Quiver(
        ("b", "i", "j", "g"),
        (Arrow("beta", "b", "i"), Arrow("alpha", "j", "i"), Arrow("gamma", "g", "j")),
    )
    pres, _ = build_presentation(NodalDatum(q, (("i", "j"),), ()))
    return pres


def test_representation_validation():
    with pytest.raises(ShapeMismatch):
        make_representation(A2, F2, {"v0": 1, "v1": 1}, {"va0": [[1, 1]]})
    m = make_representation(A2, F2, {"v0": 1}, {})
    assert m.mat("va0").shape == (0, 1)
    assert m.total == 1


def test_make_representation_refuses_unknown_names_and_stray_entries():
    # an unknown vertex or arrow name is refused, not dropped, and so is
    # a row list holding entries for an arrow with a zero-dimensional end
    with pytest.raises(ShapeMismatch, match=r"^no vertex '3'$"):
        make_representation(A2, F2, {"v0": 1, "3": 5}, {})
    with pytest.raises(ShapeMismatch, match=r"^no arrow 'typo'$"):
        make_representation(A2, F2, {"v0": 1, "v1": 1}, {"typo": [[1]]})
    for dims in ({"v1": 1}, {"v0": 1}, {}):
        with pytest.raises(ShapeMismatch, match=r"^matrix of 'va0' has entries"):
            make_representation(A2, F2, dims, {"va0": [[1]]})
    # row lists without entries still give the zero matrix
    assert make_representation(A2, F2, {"v1": 2}, {"va0": [[], []]}).mat("va0").shape == (2, 0)
    assert make_representation(A2, F2, {"v0": 2}, {"va0": []}).mat("va0").shape == (0, 2)
    with pytest.raises(ShapeMismatch, match=r"^no vertex 'x'$"):
        simple_representation(A2, F2, "x")


def test_check_relations_reports():
    pres = _dual_numbers()
    ok, problems = check_relations(
        make_representation(pres, F2, {"(v0 v1)": 2}, {"va0": [[0, 0], [1, 0]]})
    )
    assert ok and problems == ()
    bad, problems = check_relations(
        make_representation(pres, F2, {"(v0 v1)": 1}, {"va0": [[1]]})
    )
    assert not bad and "does not vanish" in problems[0]


def test_path_matrix_orders_factors():
    m = make_representation(
        A3, F3, {"v0": 1, "v1": 1, "v2": 1}, {"va0": [[2]], "va1": [[2]]}
    )
    assert path_matrix(m, ("va1", "va0")).rows == ((1,),)
    assert path_matrix(m, (), source="v0").rows == ((1,),)
    with pytest.raises(ValueError):
        path_matrix(m, ())


def test_path_matrix_refuses_a_word_that_does_not_compose():
    # va0: v0 -> v1 and va1: v1 -> v2, so va0 after va1 is no path,
    # although the 1 x 1 matrices multiply
    m = make_representation(
        A3, F3, {"v0": 1, "v1": 1, "v2": 1}, {"va0": [[2]], "va1": [[2]]}
    )
    for word, pair in ((("va0", "va1"), "'va1' and 'va0'"),
                       (("va1", "va0", "va0"), "'va0' and 'va0'")):
        with pytest.raises(NonComposable, match=f"^arrows {pair} do not compose$"):
            path_matrix(m, word)
    loop = make_representation(FREE_LOOP, F3, {"x": 2}, {"a": [[0, 0], [1, 0]]})
    assert path_matrix(loop, ("a", "a")).is_zero()


def test_hom_space_dimensions_on_a2():
    s0 = simple_representation(A2, F2, "v0")
    s1 = simple_representation(A2, F2, "v1")
    p = make_representation(A2, F2, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    assert len(hom_space(s0, s0).basis) == 1
    assert len(hom_space(s0, s1).basis) == 0
    assert len(hom_space(s1, s0).basis) == 0
    assert len(hom_space(p, p).basis) == 1
    assert len(hom_space(s1, p).basis) == 1  # socle inclusion
    assert len(hom_space(p, s0).basis) == 1  # top projection
    assert len(hom_space(p, s1).basis) == 0  # the socle is not a quotient
    assert len(hom_space(s0, p).basis) == 0


def _random_quiver(rng):
    """A quiver on one to three vertices whose arrows may be loops or
    parallel to one another."""
    vs = tuple(f"x{k}" for k in range(rng.randint(1, 3)))
    arrows = tuple(Arrow(f"e{k}", rng.choice(vs), rng.choice(vs))
                   for k in range(rng.randint(1, 4)))
    return Quiver(vs, arrows)


def _assert_same_hom_basis(m, n):
    got, want = hom_space(m, n), hom_space_by_uidx(m, n)
    assert len(got.basis) == len(want.basis), (m, n)
    for f, g in zip(got.basis, want.basis):
        assert (f.source, f.target) == (m, n)
        assert [(b.shape, b.rows) for b in f.blocks] == [(b.shape, b.rows) for b in g.blocks], (
            m, n)
        assert all(b.field == m.field for b in f.blocks)


def test_hom_space_matches_uidx_oracle():
    rng = seeded(20261019)
    fields = [GF(p) for p in (2, 3, 5, 7)] + [QQ]
    seen = {"loop": 0, "parallel": 0, "zero vertex": 0, "nonzero hom": 0}
    for _ in range(150):
        q = _random_quiver(rng)
        pres = hereditary(q)
        field = rng.choice(fields)
        m, n = (random_representation(pres, field, rng, max_dim=3) for _ in range(2))
        if rng.random() < 0.3:
            n = direct_sum(m, n)
        _assert_same_hom_basis(m, n)
        _assert_same_hom_basis(n, m)
        _assert_same_hom_basis(m, m)
        seen["loop"] += any(a.source == a.target for a in q.arrows)
        ends = [(a.source, a.target) for a in q.arrows]
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["zero vertex"] += 0 in m.dims or 0 in n.dims
        seen["nonzero hom"] += hom_space(m, n).dim > 0
    assert min(seen.values()) > 20, seen
    for name, field, bound in (("except_100", F2, 5), ("blown_chain", F3, 4)):
        classes = enumerate_indecomposables(
            _corpus_presentation(name), field, bound, method="closure").classes
        assert len(classes) > 5
        for m, n in itertools.product(classes, repeat=2):
            _assert_same_hom_basis(m, n)


def test_hom_space_contract_holds_before_and_after_the_basis_is_formed():
    # a solved space forms its basis on first read, a hand-built one has
    # it from the start; dim, equality, hash, repr and immutability agree
    m = make_representation(A2, F3, {"v0": 2, "v1": 1}, {"va0": [[1, 2]]})
    n = direct_sum(m, simple_representation(A2, F3, "v1"))
    oracle = hom_space_by_uidx(m, n)
    built = HomSpace(m, n, oracle.basis)
    assert built.dim == len(oracle.basis) > 1
    solved = hom_space(m, n)
    assert solved.dim == built.dim  # before the first read of basis
    for space in (solved, hom_space(m, n)):
        with pytest.raises(FrozenInstanceError):
            space.basis = oracle.basis
        with pytest.raises(FrozenInstanceError):
            del space.basis
    assert hom_space(m, n) == built and built == hom_space(m, n)  # equality reads basis
    assert [[b.rows for b in f.blocks] for f in solved.basis] == [
        [b.rows for b in f.blocks] for f in oracle.basis]
    assert solved.basis is solved.basis and solved.dim == built.dim
    assert hash(solved) == hash(built) and repr(solved) == repr(built)
    assert repr(built).startswith("HomSpace(source=Representation(")
    assert hom_space(n, m) != built
    for space in (solved, built, hom_space(n, m)):
        for name in ("source", "target", "basis", "dim"):
            with pytest.raises(FrozenInstanceError):
                setattr(space, name, None)
    assert hom_space(m, m).dim == HomSpace(m, m, hom_space(m, m).basis).dim
    empty = hom_space(simple_representation(A2, F3, "v0"), simple_representation(A2, F3, "v1"))
    assert empty.dim == 0 and empty.basis == () and empty == HomSpace(empty.source, empty.target, ())


def test_index_maps_keep_vertices_and_arrows_apart():
    # the arrow named "a" is a loop at the vertex named "b", and the arrow
    # named "b" runs from the vertex named "a" to it
    q = Quiver(("a", "b"), (Arrow("b", "a", "b"), Arrow("a", "b", "b")))
    assert q.vertex_index == {"a": 0, "b": 1}
    assert q.arrow_index == {"b": 0, "a": 1}
    assert q.arrow_ends == ((0, 1), (1, 1))
    assert q.arrow("a") == Arrow("a", "b", "b") and q.arrow("b") == Arrow("b", "a", "b")
    pres = hereditary(q)
    m = make_representation(pres, F3, {"a": 1, "b": 2}, {"b": [[1], [2]], "a": [[0, 1], [0, 0]]})
    assert (m.dim("a"), m.dim("b")) == (1, 2)
    assert m.mat("a").rows == ((0, 1), (0, 0)) and m.mat("b").rows == ((1,), (2,))
    f = identity_morphism(m)
    assert f.block("a").shape == (1, 1) and f.block("b").shape == (2, 2)
    assert path_matrix(m, ("a", "b")).rows == ((2,), (0,))
    with pytest.raises(QuiverError):
        q.arrow("c")
    with pytest.raises(ValueError):
        m.dim("c")
    with pytest.raises(KeyError):
        m.mat("c")
    with pytest.raises(ValueError):
        f.block("c")


def test_morphism_algebra():
    p = make_representation(A2, F3, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    ident = identity_morphism(p)
    assert compose_morphisms(ident, ident).blocks == ident.blocks
    hom = hom_space(p, p)
    doubled = combine_morphisms(hom, [2])
    assert doubled.blocks[0].rows == ((2,),)


def test_combine_morphisms_coerces_coefficients_exactly():
    p = make_representation(A2, F3, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    hom = hom_space(p, p)
    # 1/2 is 2 in GF(3), and 1/3 has no residue there
    assert combine_morphisms(hom, [Fraction(1, 2)]).blocks[0].rows == ((2,),)
    with pytest.raises(ValueError, match=r"Fraction\(1, 3\)"):
        combine_morphisms(hom, [Fraction(1, 3)])


def test_simple_summand_detection():
    pres = _dual_numbers()
    v = "(v0 v1)"
    free = make_representation(pres, F2, {v: 2}, {"va0": [[0, 0], [1, 0]]})
    assert simple_summand_multiplicity(free, v) == 0
    assert not has_simple_summand_at(free, v)
    mixed = direct_sum(free, simple_representation(pres, F2, v))
    assert simple_summand_multiplicity(mixed, v) == 1
    stripped, counts = strip_simple_summands(mixed, (v,))
    assert counts == {v: 1}
    assert stripped.dims == free.dims
    assert is_isomorphic(stripped, free)


def test_simple_summand_rank_formula_matches_kernel_oracle():
    # random modules plus a simple repeated up to three times, base
    # changed; quivers with loops, parallel arrows and vertices of
    # dimension zero, and vertices with no, one and several arrows in
    # and out
    rng = seeded(20261022)
    fields = [F2, F3, GF(5), QQ]
    seen = dict.fromkeys(("loop", "parallel", "zero vertex", "repeated simple", "positive"), 0)
    for side in ("in", "out"):
        seen.update({(side, arity): 0 for arity in ("none", "one", "several")})
    for trial in range(200):
        q = _random_quiver(rng)
        pres = hereditary(q)
        field = fields[trial % len(fields)]
        u = random_representation(pres, field, rng, max_dim=2)
        v, copies = rng.choice(q.vertices), rng.randint(0, 3)
        m = u
        for _ in range(copies):
            m = direct_sum(m, simple_representation(pres, field, v))
        m = _base_changed(m, rng)
        for w in q.vertices:
            got = simple_summand_multiplicity(m, w)
            assert got == simple_summand_multiplicity_by_kernels(m, w), (m, w)
            assert got == simple_summand_multiplicity_by_kernels(u, w) + copies * (w == v)
            seen["positive"] += got > 0
            for side, arrows in (("in", q.in_arrows(w)), ("out", q.out_arrows(w))):
                seen[side, ("none", "one", "several")[min(len(arrows), 2)]] += m.dim(w) > 0
        seen["repeated simple"] += copies > 1
        seen["loop"] += any(a.source == a.target for a in q.arrows)
        ends = [(a.source, a.target) for a in q.arrows]
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["zero vertex"] += 0 in m.dims
    assert min(seen.values()) > 20, seen


def test_strip_simple_summands_at_several_vertices(monkeypatch):
    simple = {v: simple_representation(A3, F3, v) for v in A3.quiver.vertices}
    interval = make_representation(A3, F3, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    m = interval
    for v in ("v0", "v2", "v0", "v1"):
        m = direct_sum(m, simple[v])
    m = _base_changed(m, seeded(3))
    calls, solves = [], []
    monkeypatch.setattr("nodalq.reps.hom_space",
                        lambda a, b: calls.append((a, b)) or hom_space(a, b))
    solve = Matrix.solve
    monkeypatch.setattr(Matrix, "solve", lambda a, b: solves.append(a) or solve(a, b))

    def strip(m, vertices):
        # one restriction: a solve per arrow into a vertex that lost a simple
        solves.clear()
        stripped, counts = strip_simple_summands(m, vertices)
        assert len(solves) == sum(counts.get(a.target, 0) > 0 for a in A3.quiver.arrows)
        return stripped, counts

    stripped, counts = strip(m, ("v0", "v1", "v2"))
    assert counts == {"v0": 2, "v1": 1, "v2": 1} and len(solves) == 2
    assert calls == []  # kernels and images alone count and split the simples
    assert is_isomorphic(stripped, interval)
    stripped, counts = strip(m, ("v2",))
    assert counts == {"v2": 1} and stripped.dims == (3, 2, 0)
    stripped, counts = strip(interval, ("v0", "v1", "v2"))
    assert not any(counts.values()) and solves == [] and stripped == interval


def test_summand_split_and_decompose():
    s0 = simple_representation(A3, F2, "v0")
    s2 = simple_representation(A3, F2, "v2")
    interval = make_representation(
        A3, F2, {"v0": 1, "v1": 1}, {"va0": [[1]]}
    )
    m = direct_sum(direct_sum(interval, s2), s0)
    assert has_summand(m, interval)
    assert not has_summand(m, simple_representation(A3, F2, "v1"))
    rest = split_summand(m, s2)
    assert rest is not None and rest.dim("v2") == 0
    catalog = [s0, simple_representation(A3, F2, "v1"), s2, interval]
    assert decompose(m, catalog) == (1, 0, 1, 1)
    with pytest.raises(ValueError):
        decompose(m, [s0])  # catalog cannot cover the interval


def test_split_summand_refuses_a_zero_probe_like_has_summand():
    m = make_representation(A2, F3, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    for n in (m, zero_representation(A2, F3)):
        for probe in (has_summand, split_summand):
            with pytest.raises(ShapeMismatch,
                               match=r"^the zero representation is not a valid probe$"):
                probe(n, zero_representation(A2, F3))


def test_kernel_complements_match_splitting_oracles():
    # split_summand keeps m on ker g and strip_simple_summands on one
    # complement per vertex; the oracles build the idempotent
    # f.(g.f)^-1.g and split one simple at a time
    rng = seeded(20261020)
    fields = [F2, F3, GF(5), QQ]
    seen = {"split": 0, "no split": 0, "stripped": 0, "loop": 0, "parallel": 0,
            "zero vertex": 0}
    for trial in range(160):
        q = _random_quiver(rng)
        pres = hereditary(q)
        field = fields[trial % len(fields)]
        u, rest = (random_representation(pres, field, rng, max_dim=d) for d in (1, 2))
        simples = [simple_representation(pres, field, v)
                   for v in rng.choices(q.vertices, k=rng.randint(0, 2))]
        m = direct_sum(u, rest)
        for x in simples:
            m = direct_sum(m, x)
        m = _base_changed(m, rng)
        for probe in [u, rest] + simples:
            if probe.total == 0:
                continue
            got, want = split_summand(m, probe), split_summand_by_idempotent(m, probe)
            assert got == want, (m, probe)
            seen["no split" if got is None else "split"] += 1
        vertices = rng.sample(q.vertices, rng.randint(1, len(q.vertices)))
        vertices.append(rng.choice(vertices))  # a vertex listed twice
        got, counts = strip_simple_summands(m, vertices)
        assert (got, counts) == strip_simple_summands_vertex_by_vertex(m, vertices)
        want, want_counts = strip_simple_summands_by_splitting(m, vertices)
        assert counts == want_counts, (m, vertices)
        assert is_isomorphic(got, want), (m, vertices)
        assert not any(simple_summand_multiplicity(got, v) for v in vertices)
        seen["stripped"] += any(counts.values())
        seen["loop"] += any(a.source == a.target for a in q.arrows)
        ends = [(a.source, a.target) for a in q.arrows]
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["zero vertex"] += 0 in m.dims
        for strip in (strip_simple_summands, strip_simple_summands_vertex_by_vertex,
                      strip_simple_summands_by_splitting):
            with pytest.raises(ShapeMismatch, match=r"^no vertex 'x'$"):
                strip(m, (q.vertices[0], "x"))
    assert min(seen.values()) > 20, seen


def _outcome(f, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def test_pull_back_matches_arrow_case_oracle():
    # glue_restrict_inessential restricts the unglued module once; the
    # oracle places every arrow by which glued copy it touches
    rng = seeded(20261021)
    fields = [F2, F3, GF(5), QQ]
    seen = {"pulled back": 0, "not inessential": 0, "foreign": 0, "stripped": 0,
            "loop": 0, "parallel": 0, "zero vertex": 0}
    for trial in range(120):
        q = _random_quiver(rng)
        pres = hereditary(q)
        field = fields[trial % len(fields)]
        m = _base_changed(random_representation(pres, field, rng, max_dim=2), rng)
        for i, j in itertools.permutations(q.vertices, 2):
            pushed = _glue_blocks(m, i, j, None)
            (w,) = set(pushed.pres.quiver.vertices) - set(q.vertices)
            stripped, counts = strip_simple_summands(pushed, (w,))
            seen["stripped"] += counts[w] > 0
            for n, pair in itertools.product((m, pushed, stripped), ((i, j), (j, i))):
                got = _outcome(glue_restrict_inessential, n, pres, *pair)
                assert got == _outcome(glue_restrict_by_arrow_cases, n, pres, *pair), (
                    n, pair)
                if isinstance(got, Representation):
                    seen["pulled back"] += 1
                else:
                    assert got[0] is ShapeMismatch, got
                    seen["not inessential" if "inessential" in got[1] else "foreign"] += 1
        seen["loop"] += any(a.source == a.target for a in q.arrows)
        ends = [(a.source, a.target) for a in q.arrows]
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["zero vertex"] += 0 in m.dims
    assert min(seen.values()) > 20, seen


def test_push_forwards_match_name_oracles():
    # the gluing and the blow-up place arrows by position; the oracles
    # look every arrow and vertex up by name
    rng = seeded(20261022)
    fields = [F2, F3, QQ]
    seen = {"glued": 0, "between": 0, "blown": 0, "loop at blown": 0, "unknown": 0,
            "loop": 0, "parallel": 0, "zero vertex": 0}
    for trial in range(150):
        q = _random_quiver(rng)
        m = _base_changed(random_representation(hereditary(q), fields[trial % 3], rng), rng)
        names = q.vertices + ("absent",)
        for i, j in itertools.product(names, repeat=2):
            assert _outcome(_glue_blocks, m, i, j, None) == _outcome(
                glue_blocks_by_names, m, i, j, None), (m, i, j)
            got = _outcome(glue_induce, m, i, j)
            assert got == _outcome(glue_induce_by_names, m, i, j), (m, i, j)
            if isinstance(got, Representation):
                seen["glued"] += 1
            else:
                seen["between" if got[0] is ShapeMismatch else "unknown"] += 1
        for v in names:
            got = _outcome(blow_induce, m, v)
            assert got == _outcome(blow_induce_by_names, m, v), (m, v)
            if isinstance(got, Representation):
                seen["blown"] += 1
            else:
                seen["loop at blown" if "loop" in got[1] else "unknown"] += 1
        seen["loop"] += any(a.source == a.target for a in q.arrows)
        ends = [(a.source, a.target) for a in q.arrows]
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["zero vertex"] += 0 in m.dims
    assert min(seen.values()) > 20, seen


def test_equal_presentations_built_apart_are_interchangeable():
    # modules over equal presentations built apart are compared and
    # decomposed as if they shared one; neither side is rebuilt
    pres, twin = (_corpus_presentation("blown_chain") for _ in range(2))
    assert pres == twin and pres is not twin
    catalog = enumerate_indecomposables(pres, F2, 4, method="closure").classes
    for k, c in enumerate(catalog):
        moved = Representation(twin, F2, c.dims, c.mats)
        assert moved._top.dim == c._top.dim
        assert is_isomorphic(moved, c) and is_isomorphic(c, moved)
        counts = decompose(direct_sum(moved, moved), catalog)
        assert counts == tuple(2 * (j == k) for j in range(len(catalog)))
        assert moved.pres is twin and c.pres is pres


def test_a_module_over_a_twin_presentation_solves_its_end_ring_once(monkeypatch):
    # the first comparison solves Hom both ways and End(moved); later ones
    # reuse the End ring and top cached on moved
    pres, twin = (_corpus_presentation("blown_chain") for _ in range(2))
    catalog = enumerate_indecomposables(pres, F2, 4, method="closure").classes
    c = max(catalog, key=lambda u: u.total)
    assert c._top.dim
    moved = Representation(twin, F2, c.dims, c.mats)
    calls = []
    monkeypatch.setattr("nodalq.reps.hom_space",
                        lambda m, n: calls.append((m, n)) or hom_space(m, n))
    for solves in (3, 2, 2):
        calls.clear()
        assert is_isomorphic(moved, c)
        assert len(calls) == solves
    assert [(m, n) for m, n in calls if m is n] == []


def _random_invertible(field, n, rng):
    while True:
        if field.size is None:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[rng.randrange(field.size) for _ in range(n)] for _ in range(n)]
        g = Matrix.from_rows(field, rows)
        if g.is_invertible():
            return g


def _base_changed(m, rng):
    """An isomorphic copy of ``m``: a random base change at every vertex."""
    q = m.pres.quiver
    g = [_random_invertible(m.field, d, rng) for d in m.dims]
    mats = tuple(
        g[q.vertices.index(a.target)] * x * g[q.vertices.index(a.source)].inverse()
        for a, x in zip(q.arrows, m.mats)
    )
    return Representation(m.pres, m.field, m.dims, mats)


def _decomposition_cases():
    """(catalog, picked class indices) pairs: closure catalogs of the
    functor fixtures (base and target) and of super_00 over GF(2) and
    GF(3), with 1-4 random picks each; the GF(4)- and GF(9)-residue
    Kronecker classes twice; and one catalog over QQ."""
    shapes = [(_corpus_presentation("super_00"), 4)]
    for name, bound in (("glued_a2", 2), ("kronecker_glue", 4), ("blown_chain", 4)):
        base = parse_datum((Path(__file__).resolve().parent.parent / "data"
                            / f"{name}.datum").read_text()).base
        shapes += [(_corpus_presentation(name), bound),
                   (hereditary(base), len(base.vertices))]
    rng = seeded(7)
    cases = []
    for pres, bound in shapes:
        for field in (F2, F3):
            catalog = enumerate_indecomposables(
                pres, field, bound, budget=64, method="closure").classes
            for _ in range(10):
                picks = rng.randint(1, 4)
                cases.append((catalog, [rng.randrange(len(catalog)) for _ in range(picks)]))
            larger = [k for k, u in enumerate(catalog) if u._top.dim > 1]
            if larger:
                cases.append((catalog, [larger[0]] * 2 + [rng.randrange(len(catalog))]))
    # over QQ the free module of the dual numbers has End dimension 2 and
    # no finite shift sweep; its top is QQ
    dual = _dual_numbers()
    v = "(v0 v1)"
    rational = (simple_representation(dual, QQ, v),
                make_representation(dual, QQ, {v: 2}, {"va0": [[0, 0], [1, 0]]}))
    cases.append((rational, [1, 0, 1]))
    return cases, rng


def test_decompose_matches_peeling_oracle():
    cases, rng = _decomposition_cases()
    assert any(u.field == F2 and u.dims == (2, 2) and u._top.dim > 1
               and picks.count(k) == 2
               for catalog, picks in cases for k, u in enumerate(catalog))
    for catalog, picks in cases:
        m = catalog[picks[0]]
        for k in picks[1:]:
            m = direct_sum(m, catalog[k])
        m = _base_changed(m, rng)
        want = tuple(picks.count(k) for k in range(len(catalog)))
        assert decompose(m, catalog) == decompose_by_peeling(m, catalog) == want
        # without one picked class the catalog leaves a summand uncovered
        short = [u for k, u in enumerate(catalog) if k != picks[-1]]
        with pytest.raises(ValueError) as oracle:
            decompose_by_peeling(m, short)
        with pytest.raises(ValueError) as fast:
            decompose(m, short)
        assert str(fast.value) == str(oracle.value)


def test_decompose_skips_a_zero_class():
    # a zero class has a zero top: it counts 0 and leaves the refusal as is
    s1, s2 = (simple_representation(A2, F2, v) for v in ("v0", "v1"))
    zero = zero_representation(A2, F2)
    with pytest.raises(ValueError, match=r"stuck at dimension vector \(0, 1\)"):
        decompose(direct_sum(s1, s2), [zero, s1])
    assert decompose(direct_sum(s1, s2), [zero, s1, s2]) == (0, 1, 1)


FREE_LOOP = hereditary(Quiver(("x",), (Arrow("a", "x", "x"),)))


def _a3_intervals(field):
    """The six interval modules of A3, the simples at positions 0, 3, 5."""
    return [make_representation(A3, field, {f"v{k}": 1 for k in range(i, j + 1)},
                                {f"va{k}": [[1]] for k in range(i, j)})
            for i in range(3) for j in range(i, 3)]


def _rank_pruning_catalogs():
    """(catalog, description) pairs over GF(2), GF(3), GF(5) and QQ:
    closure catalogs of corpus and hereditary presentations, free-loop
    scan catalogs whose total-one classes besides the simple act by a
    nonzero loop, and hand-built catalogs over QQ, each with a zero
    class in front."""
    closure = [("kronecker_glue", F2, 4), ("blown_chain", F2, 4), ("super_00", F3, 3),
               ("kronecker_glue", F3, 3), ("glued_a2", GF(5), 3)]
    catalogs = [(enumerate_indecomposables(_corpus_presentation(name), field, bound,
                                           budget=64, method="closure").classes, name)
                for name, field, bound in closure]
    catalogs += [(enumerate_indecomposables(pres, field, bound, budget=64, method="closure")
                  .classes, name) for pres, name, field, bound in
                 ((A3, "A3", GF(5), 3), (KRONECKER, "Kronecker", GF(5), 2))]
    catalogs += [(enumerate_indecomposables(FREE_LOOP, field, bound).classes, "free loop")
                 for field, bound in ((F2, 3), (F3, 2), (GF(5), 2))]
    loops = [make_representation(FREE_LOOP, QQ, {"x": d}, {"a": rows}) for d, rows in
             ((1, [[0]]), (1, [[1]]), (1, [[-2]]), (2, [[0, 0], [1, 0]]), (2, [[0, 1], [-1, 0]]))]
    catalogs += [(_a3_intervals(QQ), "A3 over QQ"), (loops, "free loop over QQ")]
    return [((zero_representation(c[0].pres, c[0].field),) + tuple(c), name)
            for c, name in catalogs]


def test_rank_pruning_matches_top_rank_oracles():
    # base-changed sums of catalog classes decompose, compare and refuse
    # exactly as they did when every fitting class was probed
    rng = seeded(12)
    loops_seen = unequal = 0
    for catalog, name in _rank_pruning_catalogs():
        loops_seen += sum(u.total == 1 and any(u._ranks) for u in catalog)
        made = []
        for _ in range(8):
            picks = [rng.randrange(1, len(catalog)) for _ in range(rng.randint(1, 4))]
            m = catalog[picks[0]]
            for k in picks[1:]:
                m = direct_sum(m, catalog[k])
            m = _base_changed(m, rng)
            if m.total <= 4:  # the Hom solves of an isomorphism test grow fast
                made += [m, _base_changed(m, rng)]
            want = tuple(picks.count(k) for k in range(len(catalog)))
            assert decompose(m, catalog) == decompose_by_top_rank(m, catalog) == want, name
            # without one picked class the catalog leaves a summand uncovered
            short = [u for k, u in enumerate(catalog) if k != picks[-1]]
            with pytest.raises(ValueError) as oracle:
                decompose_by_top_rank(m, short)
            with pytest.raises(ValueError) as fast:
                decompose(m, short)
            assert str(fast.value) == str(oracle.value), name
        made += [u for u in catalog if u.total <= 2]
        for m, n in itertools.product(made, repeat=2):
            if m.dims == n.dims:
                assert is_isomorphic(m, n) == is_isomorphic_by_top_rank(m, n), name
                unequal += m._ranks != n._ranks
    assert loops_seen == 9 and unequal >= 50, (loops_seen, unequal)


def test_flat_top_rank_matches_residue_oracle():
    # random modules with loops, parallel arrows and zero-dimensional
    # vertices, some pushed through a blow-up so that they satisfy
    # commutations, and direct sums repeating a summand
    rng = seeded(16)
    fields = [F2, F3, GF(5), QQ]
    seen = dict.fromkeys(("loop", "parallel", "zero vertex", "commutation", "repeated",
                          "top rank"), 0)
    for trial in range(100):
        q = _random_quiver(rng)
        if trial % 3 == 0:  # a vertex m with arrows in and out, to blow up
            q = Quiver(q.vertices + ("m",), q.arrows + (
                Arrow("p", rng.choice(q.vertices), "m"), Arrow("r", "m", rng.choice(q.vertices))))
        field = fields[trial % len(fields)]
        m, n = (random_representation(hereditary(q), field, rng, max_dim=2) for _ in range(2))
        if rng.random() < 0.5:
            n = direct_sum(m, m) if rng.random() < 0.5 else direct_sum(direct_sum(m, n), m)
            seen["repeated"] += 1
        if "m" in q.vertices:
            m, n = blow_induce(m, "m"), blow_induce(n, "m")
            seen["commutation"] += bool(m.pres.commutation_pairs())
        seen["loop"] += any(a.source == a.target for a in q.arrows)
        ends = [(a.source, a.target) for a in q.arrows]
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["zero vertex"] += 0 in m.dims or 0 in n.dims
        for a, b in ((m, n), (n, m), (m, m)):
            rank = _top_rank(a, b)
            assert rank == top_rank_by_residues(a, b), (a, b)
            seen["top rank"] += rank > 0
    assert min(seen.values()) >= 30, seen
    # a loop carrying the companion matrix of x^2 + x + 1 over GF(2):
    # E(u) is GF(4), of dimension 2
    u = make_representation(FREE_LOOP, F2, {"x": 2}, {"a": [[0, 1], [1, 1]]})
    s = make_representation(FREE_LOOP, F2, {"x": 1}, {"a": [[1]]})
    sums = [u, s, direct_sum(u, u), direct_sum(u, s), direct_sum(direct_sum(u, s), u)]
    assert u._top.dim == 2
    for a, b in itertools.product(sums, repeat=2):
        assert _top_rank(a, b) == top_rank_by_residues(a, b)
    assert [_top_rank(u, b) for b in sums] == [2, 0, 4, 2, 4]


def test_arrow_ranks_are_kept_by_base_change_and_add_over_sums():
    # loops, parallel arrows and vertices of dimension zero
    shapes = [FREE_LOOP, TWO_LOOPS, KRONECKER3,
              hereditary(Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"),
                                                  Arrow("c", "2", "2"), Arrow("d", "3", "2"))))]
    rng = seeded(4)
    zero_dims = 0
    for pres in shapes:
        for field in (F2, F3, GF(5), QQ):
            for _ in range(6):
                m, n = (random_representation(pres, field, rng, max_dim=3) for _ in range(2))
                zero_dims += 0 in m.dims
                assert _base_changed(m, rng)._ranks == m._ranks
                assert direct_sum(m, n)._ranks == tuple(a + b for a, b in zip(m._ranks, n._ranks))
    assert zero_dims > 10


def test_ranks_spare_the_hom_solves_they_decide(monkeypatch):
    # decompose solves no Hom space for a simple summand, nor for a class
    # whose arrow ranks do not fit; is_isomorphic solves none for modules
    # of different arrow ranks
    catalog = _a3_intervals(F2)
    s0, s1 = (simple_representation(A3, F2, v) for v in ("v0", "v1"))
    m = _base_changed(direct_sum(direct_sum(catalog[2], s1), s0), seeded(3))
    j2 = make_representation(_dual_numbers(), F2, {"(v0 v1)": 2}, {"va0": [[0, 0], [1, 0]]})
    split = make_representation(_dual_numbers(), F2, {"(v0 v1)": 2}, {})
    calls = []
    monkeypatch.setattr("nodalq.reps.hom_space",
                        lambda a, b: calls.append((a, b)) or hom_space(a, b))
    assert decompose(m, catalog) == (1, 0, 1, 1, 0, 0)
    # Hom(I, m), Hom(m, I) and End(I) for the interval I = catalog[2]
    # alone; the interval on v0, v1 fits the dimensions left, (1, 1, 0),
    # but not the ranks left, (0, 0)
    assert len(calls) == 3
    assert all(catalog[2] in pair for pair in calls)
    calls.clear()
    assert not is_isomorphic(j2, split) and not is_isomorphic(split, j2)
    assert calls == []


def _random_like(m, rng):
    """A random module of the dimension vector of ``m``."""
    q, field = m.pres.quiver, m.field
    mats = {}
    for a, (si, ti) in zip(q.arrows, q.arrow_ends):
        nr, nc = m.dims[ti], m.dims[si]
        if nr and nc:
            mats[a.name] = [[rng.randrange(field.size) if field.size else rng.randint(-1, 1)
                             for _ in range(nc)] for _ in range(nr)]
    return make_representation(m.pres, field, dict(zip(q.vertices, m.dims)), mats)


def _sum_of(parts):
    m = parts[0]
    for u in parts[1:]:
        m = direct_sum(m, u)
    return m


def _simple_free_pairs(rng):
    """Pairs of equal dimension vectors: base-changed copies of random
    modules with one to three simples added, repeating some; the same
    summands in another order; random modules of the same dimension
    vector; semisimple pairs; pairs of equal ranks and different simple
    multiplicities on a loop; and sums around the GF(4)-residue
    Kronecker point.  Random quivers have loops, parallel arrows and
    zero-dimensional vertices, over GF(2), GF(3), GF(5) and QQ."""
    fields = [F2, F3, GF(5), QQ]
    pairs = []
    for trial in range(100):
        pres = hereditary(_random_quiver(rng))
        field = fields[trial % len(fields)]
        simples = [simple_representation(pres, field, v) for v in pres.quiver.vertices]
        # exact tops over QQ grow fast with the dimension
        u, v = (random_representation(pres, field, rng, max_dim=1 + bool(field.size))
                for _ in range(2))
        added = [rng.choice(simples) for _ in range(rng.randint(1, 3))]
        m = _sum_of([u] + added)
        pairs += [(m, _base_changed(m, rng)),
                  (m, _base_changed(_sum_of(added[::-1] + [u]), rng)),
                  (m, _random_like(m, rng)), (u, _random_like(u, rng)),
                  (_sum_of([u, v]), _base_changed(_sum_of([v, u]), rng))]
        semisimple = [rng.choice(simples) for _ in range(rng.randint(1, 4))]
        pairs.append((_sum_of(semisimple), _sum_of(semisimple[::-1])))
        loops = [a for a in pres.quiver.arrows if a.source == a.target]
        if loops:
            # a Jordan block on a loop and the loop acting by 1 plus the
            # simple: equal ranks, simple multiplicities 0 and 1
            a = rng.choice(loops)
            j2, split = (make_representation(pres, field, {a.source: 2}, {a.name: rows})
                         for rows in ([[0, 0], [1, 0]], [[1, 0], [0, 0]]))
            pairs.append((direct_sum(u, j2), _base_changed(direct_sum(split, u), rng)))
    # a = I and b the companion matrix of x^2 + x + 1 or of x^2 + 1 over
    # GF(2): the first is the GF(4) point, E of dimension 2
    gf4, other = (make_representation(KRONECKER, F2, {"1": 2, "2": 2},
                                      {"a": [[1, 0], [0, 1]], "b": b})
                  for b in ([[0, 1], [1, 1]], [[0, 1], [1, 0]]))
    s1, s2 = (simple_representation(KRONECKER, F2, v) for v in ("1", "2"))
    for rest, added in (([gf4], [s1, s2, s1]), ([gf4, gf4], [s1]), ([gf4, other], [s2])):
        for _ in range(3):
            m = _sum_of(rest + added)
            pairs += [(m, _base_changed(_sum_of(added + rest[::-1]), rng)),
                      (m, _sum_of([other] * len(rest) + added))]
    return pairs


def test_isomorphism_through_the_simple_free_part_matches_top_oracles():
    seen = dict.fromkeys(("loop", "parallel", "zero vertex", "repeated simples", "semisimple",
                          "simples differ", "rest isomorphic", "rest not isomorphic",
                          "GF(4) point", "GF(2)", "GF(3)", "GF(5)", "QQ"), 0)
    for m, n in _simple_free_pairs(seeded(19)):
        if m.dims != n.dims:
            continue
        want = is_isomorphic_by_tops(m, n)
        assert is_isomorphic(m, n) is want is is_isomorphic_by_top_rank(m, n), (m, n)
        q = m.pres.quiver
        seen[str(m.field)] += 1
        seen["loop"] += any(s == t for s, t in q.arrow_ends)
        seen["parallel"] += len(set(q.arrow_ends)) < len(q.arrow_ends)
        seen["zero vertex"] += 0 in m.dims
        seen["GF(4) point"] += m.pres == KRONECKER and m.total >= 4
        counts = [[simple_summand_multiplicity_by_kernels(x, v) for v in q.vertices]
                  for x in (m, n)]
        seen["repeated simples"] += max(counts[0]) > 1 and sum(map(bool, counts[0])) > 1
        if m._ranks != n._ranks:
            continue
        if counts[0] != counts[1]:
            seen["simples differ"] += 1
        elif sum(counts[0]) == m.total:
            seen["semisimple"] += 1
        else:
            seen["rest isomorphic" if want else "rest not isomorphic"] += 1
    assert min(seen.values()) >= 12, seen


def test_isomorphism_solves_hom_spaces_of_simple_free_modules_only(monkeypatch):
    # semisimple pairs and pairs whose simple multiplicities differ are
    # decided without a Hom solve; every other solve sees the parts
    # without simple summands
    rng = seeded(5)
    s0, s1, s2 = (simple_representation(A3, F2, v) for v in ("v0", "v1", "v2"))
    interval = make_representation(A3, F2, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    j2 = make_representation(FREE_LOOP, F3, {"x": 2}, {"a": [[0, 0], [1, 0]]})
    split = make_representation(FREE_LOOP, F3, {"x": 2}, {"a": [[1, 0], [0, 0]]})
    calls = []
    monkeypatch.setattr("nodalq.reps.hom_space",
                        lambda a, b: calls.append((a, b)) or hom_space(a, b))
    assert is_isomorphic(_sum_of([s0, s1, s0, s2]), _sum_of([s2, s0, s0, s1]))
    assert not is_isomorphic(j2, split) and not is_isomorphic(split, j2)
    assert j2._ranks == split._ranks and calls == []
    m = _sum_of([interval, s2, s0, s2])
    assert is_isomorphic(m, _base_changed(_sum_of([s2, s0, interval, s2]), rng))
    assert calls and all(x.dims == interval.dims for pair in calls for x in pair)
    calls.clear()
    # the loop acting by 1 and by 2, each plus the simple: only the two
    # loops are compared
    one, two = (make_representation(FREE_LOOP, F3, {"x": 1}, {"a": [[c]]}) for c in (1, 2))
    s = simple_representation(FREE_LOOP, F3, "x")
    assert not is_isomorphic(direct_sum(one, s), direct_sum(s, two))
    assert calls and all(x.total == 1 for pair in calls for x in pair)
    for a, b in _simple_free_pairs(rng)[::5]:
        if a.dims == b.dims:
            is_isomorphic(a, b)
    assert len(calls) > 100
    assert all(simple_summand_multiplicity_by_kernels(x, v) == 0
               for pair in calls for x in pair for v in x.pres.quiver.vertices)


def test_decompose_refuses_a_catalog_over_another_presentation():
    s1, s2 = (simple_representation(A2, F2, v) for v in ("v0", "v1"))
    with pytest.raises(ShapeMismatch):
        decompose(direct_sum(s1, s2), [s1, simple_representation(_dual_numbers(), F2, "(v0 v1)")])
    other = [make_representation(hereditary(line_quiver(2, prefix="w")), F2, {v: 1}, {})
             for v in ("w0", "w1")]
    with pytest.raises(ShapeMismatch):
        decompose(direct_sum(s1, s2), other)
    with pytest.raises(ShapeMismatch):
        decompose(direct_sum(s1, s2), [simple_representation(A2, F3, "v0"), s2])


def test_isomorphism_distinguishes_jordan_blocks():
    pres = _dual_numbers()
    v = "(v0 v1)"
    j2 = make_representation(pres, F2, {v: 2}, {"va0": [[0, 0], [1, 0]]})
    split = make_representation(pres, F2, {v: 2}, {})
    assert not is_isomorphic(j2, split)
    other = make_representation(pres, F2, {v: 2}, {"va0": [[0, 1], [0, 0]]})
    assert is_isomorphic(j2, other)
    assert is_isomorphic(zero_representation(pres, F2), zero_representation(pres, F2))


def test_isomorphism_over_the_rationals():
    p = make_representation(A2, QQ, {"v0": 1, "v1": 1}, {"va0": [[2]]})
    q = make_representation(A2, QQ, {"v0": 1, "v1": 1}, {"va0": [[-3]]})
    assert is_isomorphic(p, q)
    s = make_representation(A2, QQ, {"v0": 1, "v1": 1}, {})
    assert not is_isomorphic(p, s)


def test_search_caps_raise_instead_of_guessing():
    pres = _dual_numbers()
    v = "(v0 v1)"
    j2 = make_representation(pres, F2, {v: 2}, {"va0": [[0, 0], [1, 0]]})
    stacked = direct_sum(j2, j2)  # no simple summands, endo dimension 4
    with pytest.raises(SearchSpaceTooLarge):
        is_isomorphic_by_sweep(stacked, stacked, cap=2)
    with pytest.raises(SearchSpaceTooLarge):
        is_indecomposable_by_sweep(stacked, cap=2)
    # the library reads both answers off the top and has no cap
    assert is_isomorphic(stacked, stacked)
    assert not is_indecomposable(stacked)


def test_formerly_capped_cases_are_decided():
    # S^5 at one vertex: End is M_5(GF(2)), 2^25 endomorphisms
    s = simple_representation(A2, F2, "v0")
    five = direct_sum(s, direct_sum(s, direct_sum(s, direct_sum(s, s))))
    twisted = _base_changed(five, seeded(5))
    with pytest.raises(SearchSpaceTooLarge):
        is_isomorphic_by_sweep(five, twisted)
    assert is_isomorphic(five, twisted)
    assert not is_indecomposable(five)
    # the free module of the dual numbers over QQ: End is QQ[x]/x^2, local
    dual = _dual_numbers()
    free = make_representation(dual, QQ, {"(v0 v1)": 2}, {"va0": [[0, 0], [1, 0]]})
    with pytest.raises(SearchSpaceTooLarge):
        is_indecomposable_by_sweep(free)
    assert is_indecomposable(free)
    # P^3 over QQ for P = (QQ -> QQ): Hom dimension 9 and 7^9 grid points
    p = make_representation(A2, QQ, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    cube = direct_sum(p, direct_sum(p, p))
    twisted = _base_changed(cube, seeded(9))
    with pytest.raises(SearchSpaceTooLarge):
        is_isomorphic_by_sweep(cube, twisted)
    assert is_isomorphic(cube, twisted)
    split = direct_sum(direct_sum(p, p), make_representation(A2, QQ, {"v0": 1, "v1": 1}, {}))
    assert not is_isomorphic(cube, split)


def test_indecomposability_basics():
    assert not is_indecomposable(zero_representation(A2, F2))
    assert is_indecomposable(simple_representation(A2, F2, "v0"))
    p = make_representation(A2, F2, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    assert is_indecomposable(p)
    assert not is_indecomposable(direct_sum(p, p))
    split = make_representation(A2, F2, {"v0": 1, "v1": 1}, {})
    assert not is_indecomposable(split)


def test_random_representation_is_seed_deterministic():
    a = random_representation(A3, F2, seeded(99), max_dim=3)
    b = random_representation(A3, F2, seeded(99), max_dim=3)
    assert a.dims == b.dims and a.mats == b.mats
    assert max(a.dims) <= 3
    with pytest.raises(ShapeMismatch):
        random_representation(_dual_numbers(), F2, seeded(1))


# ---------------------------------------------------------------------------
# enumeration goldens


def test_enumerate_dual_numbers():
    r = enumerate_indecomposables(_dual_numbers(), F2, 2)
    assert r.count == 2
    assert sorted(sum(c.dims) for c in r.classes) == [1, 2]


def test_enumerate_a2():
    r = enumerate_indecomposables(A2, F2, 2)
    assert r.count == 3
    assert sorted(c.dims for c in r.classes) == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_a3_both_methods_agree():
    scan = enumerate_indecomposables(A3, F2, 3, method="scan")
    closure = enumerate_indecomposables(A3, F2, 3, method="closure")
    assert scan.count == 6 and closure.count == 6
    assert sorted(c.dims for c in scan.classes) == sorted(c.dims for c in closure.classes)
    assert scan.method == "scan" and closure.method == "closure"


def test_enumerate_is_deterministic():
    a = enumerate_indecomposables(A3, F2, 3)
    b = enumerate_indecomposables(A3, F2, 3)
    assert [c.dims for c in a.classes] == [c.dims for c in b.classes]
    assert [c.mats for c in a.classes] == [c.mats for c in b.classes]


def test_enumerate_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        enumerate_indecomposables(A2, F2, 8, budget=4)


def test_compositions_keep_the_recursive_order():
    # the order of dimension vectors decides the CLI's class numbering
    def recursive(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in recursive(total - first, parts - 1):
                yield (first,) + rest

    for total in range(7):
        for parts in range(1, 6):
            assert list(_compositions(total, parts)) == list(recursive(total, parts))


def test_weighted_multisets_keep_the_recursive_order():
    # the order of multisets decides the closure's class numbering
    def recursive(entries, target):
        def rec(start, left):
            if left == 0:
                yield ()
                return
            for k in range(start, len(entries)):
                w = entries[k][1]
                if w <= left:
                    for rest in rec(k, left - w):
                        yield (k,) + rest

        yield from rec(0, target)

    rng = seeded(20261018)
    for _ in range(300):
        entries = [(k, rng.randint(1, 4)) for k in range(rng.randint(0, 6))]
        target = rng.randint(0, 9)
        assert list(_weighted_multisets(entries, target)) == list(recursive(entries, target))


def _corpus_presentation(name):
    text = (Path(__file__).resolve().parent.parent / "data" / f"{name}.datum").read_text()
    return build_presentation(parse_datum(text))[0]


def test_methods_agree_at_total_zero_on_the_corpus():
    # at bound 0 there is no indecomposable to find and no candidate to
    # consider; closure used to hand back the simples
    built = 0
    for path in sorted((Path(__file__).resolve().parent.parent / "data").glob("*.datum")):
        d = parse_datum(path.read_text())
        if not validate(d).ok:
            continue
        pres = build_presentation(d)[0]
        built += 1
        for field in (F2, F3):
            for method in ("scan", "closure"):
                got = enumerate_indecomposables(pres, field, 0, method=method)
                assert (got.classes, got.examined, got.tested) == ((), 0, 0), (path.name, method)
    assert built == 10


def test_closure_pruning_matches_unpruned_oracle():
    cases = [
        (_corpus_presentation("except_100"), F2, 5),
        (_corpus_presentation("super_00"), F2, 4),
        (_corpus_presentation("blown_chain"), F2, 5),
        (_corpus_presentation("kronecker_glue"), F3, 4),
    ]
    for seed in range(32):
        make = random_glue_datum if seed % 2 == 0 else random_blow_datum
        pres, _ = build_presentation(make(seeded(seed), max_vertices=5))
        cases.append((pres, F2 if seed % 4 < 2 else F3, 4 if seed % 3 else 3))
    for pres, field, bound in cases:
        got = enumerate_indecomposables(pres, field, bound, budget=64, method="closure")
        want, examined = closure_catalog(pres, field, bound, 64)
        assert (got.count, got.examined) == (len(want), examined)
        for c in got.classes:
            matches = [w for w in want if w.dims == c.dims and has_summand(w, c)]
            assert len(matches) == 1, c.dims


def test_closure_refuses_a_cycle_that_need_not_act_nilpotently():
    # one free loop: the loop acting by 1, and the GF(4) point at bound 2,
    # have no simple submodule, so closure cannot build them
    free_loop = hereditary(Quiver(("1",), (Arrow("x", "1", "1"),)))
    with pytest.raises(NonNilpotentCycle, match="closure.*method='scan'"):
        enumerate_indecomposables(free_loop, F2, 2, method="closure")
    assert enumerate_indecomposables(free_loop, F2, 2, method="scan").count == 5


def test_closure_counts_tested_candidates():
    pres = _exceptional_100()
    r = enumerate_indecomposables(pres, F2, 7, budget=64, method="closure")
    assert (r.count, r.examined, r.tested) == (17, 5472, 114)
    # the largest Ext^1 direction count up to bound 7 is 6
    with pytest.raises(BudgetExceeded):
        enumerate_indecomposables(pres, F2, 7, budget=5, method="closure")
    assert enumerate_indecomposables(pres, F2, 7, budget=6, method="closure").count == 17
    # the scan builds only tuples with one arrow in normal form whose
    # relations hold
    scan = enumerate_indecomposables(A3, F2, 3)
    assert (scan.count, scan.examined, scan.tested) == (6, 33, 25)
    assert scan.tested < scan.examined
    scan = enumerate_indecomposables(pres, F2, 4)
    assert (scan.count, scan.examined, scan.tested) == (13, 75258, 145)
    # commutation relations prune early too
    scan = enumerate_indecomposables(_corpus_presentation("blown_chain"), F2, 4)
    assert (scan.count, scan.examined, scan.tested) == (11, 344, 148)


def test_scan_normal_forms_match_exhaustive_oracle():
    cases = [
        (_corpus_presentation("except_100"), F2, 4, 16),
        (_corpus_presentation("kronecker_glue"), F3, 4, 16),
        (_corpus_presentation("glued_a2"), F2, 4, 16),  # a loop only
        (_corpus_presentation("super_00"), F2, 3, 16),
        (_corpus_presentation("blown_chain"), F2, 4, 16),
    ]
    for seed in range(32):
        make = random_glue_datum if seed % 2 == 0 else random_blow_datum
        pres, _ = build_presentation(make(seeded(seed), max_vertices=5))
        cases.append((pres, F2 if seed % 4 < 2 else F3, 3, 9))
    for pres, field, bound, budget in cases:
        got = enumerate_indecomposables(pres, field, bound, budget=budget)
        want, examined = scan_catalog(pres, field, bound, budget)
        assert (got.count, got.examined) == (len(want), examined)
        for c in got.classes:
            matches = [w for w in want if w.dims == c.dims and has_summand(w, c)]
            assert len(matches) == 1, c.dims


def test_normal_forms_meet_every_orbit_once():
    # brute force over the group: every matrix is similar to exactly one
    # similarity form and equivalent to exactly one rank form
    def invertible(field, n):
        return [g for g in all_matrices(field, n, n) if g.is_invertible()]

    for field, n in ((F2, 1), (F2, 2), (F2, 3), (F3, 1), (F3, 2)):
        group = invertible(field, n)
        inverse = {g: g.inverse() for g in group}
        forms = list(similarity_forms(field, n))
        hits = {m: 0 for m in all_matrices(field, n, n)}
        for f in forms:
            for m in {g * f * inverse[g] for g in group}:
                hits[m] += 1
        assert set(hits.values()) == {1}, (field, n)
        # q, q^2 + q and q^3 + q^2 + q classes
        assert len(forms) == sum(field.size ** k for k in range(1, n + 1))
    # beyond brute force: up to n = 3 the characteristic polynomial (as
    # its values) and the degree of the minimal polynomial decide the
    # similarity class, so the q^3 + q^2 + q forms must differ there
    def det(m):
        total = 0
        for perm in itertools.permutations(range(m.nrows)):
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            prod = 1
            for i, j in enumerate(perm):
                prod *= m.rows[i][j]
            total += sign * prod
        return total % m.field.size

    def invariant(a):
        ident = Matrix.identity(a.field, a.nrows)
        powers = (ident, a, a * a)
        span = Matrix(a.field, 3, a.nrows ** 2, tuple(sum(m.rows, ()) for m in powers))
        return tuple(det(ident.scale(t) - a) for t in a.field.elements()), span.rank()

    for field, n in ((F3, 3), (GF(5), 2), (GF(5), 3)):
        forms = list(similarity_forms(field, n))
        assert len(forms) == sum(field.size ** k for k in range(1, n + 1))
        assert len({invariant(f) for f in forms}) == len(forms), (field, n)
    shapes = [(F2, n, n) for n in (1, 2, 3)] + [(F3, 1, 1), (F3, 2, 2)]
    shapes += [(F2, 2, 3), (F2, 3, 2), (F3, 1, 2), (F3, 2, 1), (F2, 0, 2)]
    for field, nr, nc in shapes:
        left, right = invertible(field, nr), invertible(field, nc)
        hits = {m: 0 for m in all_matrices(field, nr, nc)}
        for f in rank_forms(field, nr, nc):
            for m in {x * h for x in {g * f for g in left} for h in right}:
                hits[m] += 1
        assert set(hits.values()) == {1}, (field, nr, nc)


def test_scan_normalises_large_arrows():
    # dims (4, 4) has 7^16 matrices; its rank forms leave 5 to build
    r = enumerate_indecomposables(A2, GF(7), 8, budget=16)
    assert r.count == 3
    assert r.examined == sum(
        7 ** (a * (t - a)) for t in range(1, 9) for a in range(t + 1)
    )


def test_scan_support_walk_matches_connectivity_oracle():
    # every dimension vector up to total 4 of the corpus quivers, glued
    # and unglued
    seen = {True: 0, False: 0}
    for path in sorted((Path(__file__).resolve().parent.parent / "data").glob("*.datum")):
        if path.stem == "invalid":
            continue
        datum = parse_datum(path.read_text())
        for q in (build_presentation(datum)[0].quiver, datum.base):
            for total in range(1, 5):
                for dims in _compositions(total, len(q.vertices)):
                    want = _support_connected(q, dims)
                    assert _connected_support(q.arrow_ends, dims) is want, (path.stem, dims)
                    seen[want] += 1
    assert min(seen.values()) > 500, seen


def test_end_ring_certificate_agrees_with_summand_probes():
    cases = [
        (_corpus_presentation("except_100"), F2, 5),
        (_corpus_presentation("super_00"), F2, 4),
        (_corpus_presentation("blown_chain"), F3, 4),
        (_corpus_presentation("kronecker_glue"), F2, 5),
        (_corpus_presentation("kronecker_glue"), F3, 4),
    ]
    for seed in range(16):
        make = random_glue_datum if seed % 2 == 0 else random_blow_datum
        pres, _ = build_presentation(make(seeded(seed), max_vertices=5))
        cases.append((pres, F2 if seed % 4 < 2 else F3, 4))
    tally = {True: 0, False: 0, None: 0}
    swept = 0
    for k, (pres, field, total) in enumerate(cases):
        catalog, _ = closure_catalog(pres, field, total - 1, 64)
        verdicts = {True: [], False: [], None: []}
        for m in unpruned_candidates(pres, field, catalog, total, 64):
            verdicts[m._local].append(m)
            assert is_local_by_matrices(m) is m._local, m.dims
        for local, ms in verdicts.items():
            tally[local] += len(ms)
        # nearly every unpruned candidate splits: check a sample of those
        split = seeded(k).sample(verdicts[False], min(20, len(verdicts[False])))
        for local, ms in ((True, verdicts[True]), (False, split)):
            for m in ms:
                # the catalog holds every smaller indecomposable, so the
                # probes decide indecomposability exactly
                assert is_new_indecomposable_by_probes(m, catalog, ()) is local, m.dims
                try:
                    sweep = is_indecomposable_by_sweep(m, cap=2 ** 10)
                except SearchSpaceTooLarge:
                    continue
                assert sweep is local, m.dims
                swept += 1
    assert tally[True] > 100 and tally[False] > 1000 and tally[None] == 0, tally
    assert swept > 300, swept


def test_end_ring_certificate_decides_or_falls_back(monkeypatch):
    kronecker = hereditary(Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"))))
    # a = I, b = the companion matrix of x^2 + x + 1: End is GF(4), a
    # field, so the module is indecomposable but not absolutely so
    quadratic = make_representation(
        kronecker, F2, {"1": 2, "2": 2}, {"a": [[1, 0], [0, 1]], "b": [[0, 1], [1, 1]]})
    assert hom_space(quadratic, quadratic).dim == 2
    assert quadratic._local is True and quadratic._top.dim == 2
    assert is_local_by_matrices(quadratic) is True
    catalog = enumerate_indecomposables(kronecker, F2, 4, budget=64, method="closure")
    assert sum(has_summand(c, quadratic) for c in catalog.classes if c.dims == (2, 2)) == 1
    # split modules: End(S + S) is a full matrix ring, and End(P + S)
    # holds the projection onto P
    s1 = simple_representation(A2, F2, "v0")
    assert direct_sum(s1, s1)._local is False
    p1 = make_representation(A2, F2, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    assert direct_sum(p1, simple_representation(A2, F2, "v1"))._local is False
    # a basis of End(S + S) = M_2(GF(3)) in which every element is a
    # scalar plus a nilpotent: the radical chain stalls, and the top,
    # M_2(GF(3)) itself, is not commutative
    twice = direct_sum(*[simple_representation(A2, F3, "v0")] * 2)
    rebased = HomSpace(twice, twice, tuple(
        Morphism(twice, twice, (Matrix.from_rows(F3, rows), Matrix.zeros(F3, 0, 0)))
        for rows in ([[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [2, 0]])
    ))
    monkeypatch.setattr("nodalq.reps.hom_space", lambda m, n: rebased)
    assert twice._local is False and is_local_by_matrices(twice) is False
    monkeypatch.undo()
    # the dual numbers as a module over themselves: End is local of dimension 2
    free = make_representation(_dual_numbers(), F3, {"(v0 v1)": 2}, {"va0": [[0, 0], [1, 0]]})
    assert hom_space(free, free).dim == 2
    assert free._local is True
    assert p1._local is True


KRONECKER = hereditary(Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"))))
KRONECKER3 = hereditary(
    Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"), Arrow("c", "1", "2"))))
TWO_LOOPS = hereditary(Quiver(("x",), (Arrow("a", "x", "x"), Arrow("b", "x", "x"))))
ZIGZAG = hereditary(line_quiver(3, orientations=(1, 0)))


def _brute_radical(m):
    """The coefficient vectors on the End basis of {x in End(m) : xy is
    nilpotent for every y in End(m)}, the largest nilpotent ideal, by
    listing End(m)."""
    p = m.field.size
    end = hom_space(m, m)
    coeffs = list(itertools.product(range(p), repeat=end.dim))
    elements = [[b.rows for b in combine_morphisms(end, c).blocks] for c in coeffs]

    def mul(a, b):
        return [[sum(x * y for x, y in zip(r, c)) % p for c in zip(*b)] for r in a]

    def nilpotent(x):
        for block in x:
            power = block
            for _ in range(len(block) - 1):
                power = mul(power, block)
            if any(any(r) for r in power):
                return False
        return True

    return {c for c, x in zip(coeffs, elements) if nilpotent(x) and all(
        nilpotent([mul(a, b) for a, b in zip(x, y)]) for y in elements)}


def _trace_form_kernel_dimension(m):
    end = hom_space(m, m)
    gram = [[sum(sum(b.rows[i][i] for i in range(b.nrows))
                 for b in compose_morphisms(f, g).blocks) for g in end.basis]
            for f in end.basis]
    return end.dim - Matrix.from_rows(m.field, gram).rank()


def test_radical_matches_brute_force_nilpotent_ideal():
    # repeated summands and totals divisible by p make the trace form
    # degenerate beyond the radical, so the levels above 0 must act:
    # Kronecker modules of dimensions (1, 1) twice, (1, 2) once and
    # twice, and (2, 3), all with End = GF(p) per summand
    rng = seeded(5)
    modules = []
    for p in (2, 3, 5):
        for pres in (KRONECKER, TWO_LOOPS):
            for _ in range(6):
                u = random_representation(pres, GF(p), rng, max_dim=2)
                modules += [u, direct_sum(u, u)]
    point = make_representation(KRONECKER, F2, {"1": 1, "2": 1}, {"a": [[1]]})
    line = make_representation(KRONECKER, F3, {"1": 1, "2": 2}, {"a": [[1], [0]], "b": [[0], [1]]})
    plane = make_representation(KRONECKER, GF(5), {"1": 2, "2": 3},
                                {"a": [[1, 0], [0, 1], [0, 0]], "b": [[0, 0], [1, 0], [0, 1]]})
    modules += [direct_sum(point, point), line, direct_sum(line, line), plane]
    degenerate = {2: 0, 3: 0, 5: 0}
    checked = 0
    for m in modules:
        p = m.field.size
        if m.total == 0 or p ** hom_space(m, m).dim > 300:
            continue
        rad, want = _radical(m), _brute_radical(m)
        assert p ** len(rad) == len(want) and set(rad) <= want, (p, m.dims)
        degenerate[p] += _trace_form_kernel_dimension(m) > len(rad)
        checked += 1
    assert all(degenerate.values()) and checked > 40, (degenerate, checked)


def test_top_decides_like_the_sweep_oracles():
    rng = seeded(11)
    pairs, singles = [], []
    for field in (F2, F3, GF(5), QQ):
        for pres in (KRONECKER, KRONECKER3, TWO_LOOPS, ZIGZAG):
            for _ in range(4):
                u = random_representation(pres, field, rng, max_dim=2)
                v = random_representation(pres, field, rng, max_dim=2)
                singles += [u, direct_sum(u, v), direct_sum(u, u)]
                pairs += [(u, v), (u, _base_changed(u, rng)),
                          (direct_sum(u, v), _base_changed(direct_sum(v, u), rng))]
    # base-changed sums of catalog classes, with residue fields GF(4) and
    # GF(9) among them; a sum of two GF(9) classes can leave every Fitting
    # shift invertible, and then only the Frobenius test splits it
    for field in (F2, F3):
        catalog = enumerate_indecomposables(KRONECKER, field, 4, budget=64, method="closure").classes
        wide = [k for k, u in enumerate(catalog) if u._top.dim > 1]
        draws = [[rng.randrange(len(catalog)) for _ in range(rng.randint(1, 3))]
                 for _ in range(12)]
        for picks in draws + [list(two) for two in itertools.combinations(wide, 2)] * 4:
            m = catalog[picks[0]]
            for k in picks[1:]:
                m = direct_sum(m, catalog[k])
            m = _base_changed(m, rng)
            assert decompose(m, catalog) == tuple(picks.count(k) for k in range(len(catalog)))
            n = rng.choice([u for u in catalog if u.dims == catalog[picks[0]].dims])
            for k in picks[1:]:
                n = direct_sum(n, catalog[k])
            singles.append(m)
            pairs += [(m, _base_changed(m, rng)), (m, n)]
    seen = {("ind", True): 0, ("ind", False): 0, ("iso", True): 0, ("iso", False): 0}
    for m in singles:
        try:
            want = is_indecomposable_by_sweep(m, cap=2 ** 10)
        except SearchSpaceTooLarge:
            continue
        assert is_indecomposable(m) is want, (m.field, m.dims)
        seen["ind", want] += 1
    for m, n in pairs:
        try:
            want = is_isomorphic_by_sweep(m, n, cap=2 ** 10)
        except SearchSpaceTooLarge:
            continue
        assert is_isomorphic(m, n) is want, (m.field, m.dims)
        seen["iso", want] += 1
    assert min(seen.values()) > 50, seen


def test_frobenius_splits_a_commutative_top_of_two_fields(monkeypatch):
    # the Kronecker modules a = I, b = the companion matrix of x^2 + 1 or
    # of x^2 + x + 2 over GF(3) are two GF(9)-points, and End of their sum
    # is GF(9) x GF(9); in a basis of elements with both components
    # outside GF(3) every Fitting shift is invertible, so only the
    # Frobenius test on the top sees the two field factors
    c1, c2 = Matrix.from_rows(F3, [[0, 2], [1, 0]]), Matrix.from_rows(F3, [[0, 1], [1, 2]])
    m = direct_sum(*(make_representation(KRONECKER, F3, {"1": 2, "2": 2},
                                         {"a": [[1, 0], [0, 1]], "b": c}) for c in (c1, c2)))
    one = Matrix.identity(F3, 2)

    def element(alpha, beta, gamma, delta):
        x = block_diag(F3, [one.scale(alpha) + c1.scale(beta), one.scale(gamma) + c2.scale(delta)])
        return Morphism(m, m, (x, x))

    rebased = HomSpace(m, m, tuple(element(*c) for c in
                                   ((0, 1, 0, 1), (1, 1, 0, 1), (0, 1, 1, 1), (0, 1, 0, 2))))
    assert hom_space(m, m).dim == 4
    for f in rebased.basis:  # each is an endomorphism of m
        assert all(f.block("2") * m.mat(a) == m.mat(a) * f.block("1") for a in ("a", "b"))
    monkeypatch.setattr("nodalq.reps.hom_space", lambda m, n: rebased)
    assert m._top.dim == 4 and m._local is False
    assert is_local_by_matrices(m) is False


def test_one_solve_probe_agrees_with_isomorphism_and_summand_tests():
    # each class against a base-changed copy of itself and against every
    # other class of its dimension vector; the Kronecker catalogs hold
    # classes with residue fields GF(4) and GF(9)
    rng = seeded(18)
    cases = [(KRONECKER, F2, 4), (KRONECKER, F3, 4), (_corpus_presentation("except_100"), F2, 4),
             (_corpus_presentation("kronecker_glue"), F3, 4),
             (_corpus_presentation("blown_chain"), F2, 4)]
    seen = {True: 0, False: 0, "wide": 0}
    for pres, field, bound in cases:
        catalog = enumerate_indecomposables(pres, field, bound, budget=64, method="closure").classes
        for u in catalog:
            others = [n for n in catalog if n.dims == u.dims and n is not u]
            for m, want in [(_base_changed(u, rng), True)] + [(n, False) for n in others]:
                assert _is_isomorphic_to_indecomposable(m, u) is want, (field, u.dims)
                assert is_isomorphic(m, u) is want and has_summand(m, u) is want
                seen[want] += 1
                seen["wide"] += u._top.dim > 1
    assert seen[True] > 50 and seen[False] > 100 and seen["wide"] > 20, seen


def test_is_new_indecomposable_matches_probe_oracle():
    # the closure oracle's candidates, decided both ways against the
    # classes found before them
    cases = [(_corpus_presentation("except_100"), F2, 4), (_corpus_presentation("super_00"), F3, 3),
             (_corpus_presentation("kronecker_glue"), F3, 3),
             (_corpus_presentation("blown_chain"), F2, 4), (KRONECKER, F2, 4), (KRONECKER, F3, 4)]
    seen = {"new": 0, "isomorphic": 0, "split": 0}
    for pres, field, total in cases:
        catalog, _ = closure_catalog(pres, field, total - 1, 64)
        found = []
        for m in unpruned_candidates(pres, field, catalog, total, 64):
            same = [u for u in found if u.dims == m.dims]
            new = _is_new_indecomposable(m, same)
            assert new is is_new_indecomposable_by_probes(m, catalog, same), m.dims
            if new:
                found.append(m)
            seen["new" if new else "isomorphic" if m._local else "split"] += 1
    assert min(seen.values()) > 20, seen


def test_each_surviving_probe_solves_one_hom_space(monkeypatch):
    # the points (1, 0), (0, 1), (1, 1) and (1, 2) of the projective line
    # over GF(3) as Kronecker modules; m = (2, 1) is the point (1, 2).
    # Only the points whose two arrows both have rank one survive the
    # rank filter, and each costs Hom(point, m) alone
    def point(a, b):
        return make_representation(KRONECKER, F3, {"1": 1, "2": 1}, {"a": [[a]], "b": [[b]]})

    p10, p01, p11, p12 = (point(*ab) for ab in ((1, 0), (0, 1), (1, 1), (1, 2)))
    m = point(2, 1)
    for x in (p10, p01, p11, p12, m):  # End, ranks and the local verdict, solved up front
        assert x._local is True and x._ranks
    calls = []
    monkeypatch.setattr("nodalq.reps.hom_space",
                        lambda a, b: calls.append((a, b)) or hom_space(a, b))
    assert _is_new_indecomposable(m, [p10, p01, p11])
    assert calls == [(p11, m)]
    calls.clear()
    assert not _is_new_indecomposable(m, [p10, p11, p12, p01])
    assert calls == [(p11, m), (p12, m)]


def test_enumerate_representatives_are_certified():
    r = enumerate_indecomposables(_exceptional_100(), F2, 4, method="closure")
    assert r.count == 13
    for c in r.classes:
        ok, _ = check_relations(c)
        assert ok
        assert is_indecomposable(c)
    for a, b in itertools.combinations(r.classes, 2):
        assert not is_isomorphic(a, b)


# ---------------------------------------------------------------------------
# an independent catalog oracle for the glued loop algebra
#
# Modules are triples (B, L, C) with L the loop matrix, L^2 = 0 and
# L B = 0.  Conjugating L to its canonical square-zero form of rank r
# (which any isomorphism preserves) and zeroing the first r rows of B
# meets every iso class, so scanning those shapes is exhaustive.


def _canonical_square_zero(dm, r):
    rows = [[0] * dm for _ in range(dm)]
    for i in range(r):
        rows[r + i][i] = 1
    return rows


def _all_entry_grids(nr, nc, zero_rows=0):
    free = (nr - zero_rows) * nc
    for bits in itertools.product((0, 1), repeat=free):
        rows = [[0] * nc for _ in range(zero_rows)]
        it = iter(bits)
        for _ in range(nr - zero_rows):
            rows.append([next(it) for _ in range(nc)])
        yield rows


def _oracle_catalog_size(pres, total_bound):
    count = 0
    for db in range(total_bound + 1):
        for dm in range(total_bound + 1 - db):
            for dg in range(total_bound + 1 - db - dm):
                if db + dm + dg == 0:
                    continue
                for r in range(dm // 2 + 1):
                    bucket = []
                    for bm in _all_entry_grids(dm, db, zero_rows=r):
                        for cm in _all_entry_grids(dm, dg):
                            m = make_representation(
                                pres,
                                F2,
                                {"b": db, "(i j)": dm, "g": dg},
                                {
                                    "beta": bm,
                                    "alpha": _canonical_square_zero(dm, r),
                                    "gamma": cm,
                                },
                            )
                            if is_indecomposable_by_sweep(m) and not any(
                                is_isomorphic_by_sweep(m, o) for o in bucket
                            ):
                                bucket.append(m)
                    count += len(bucket)
    return count


def test_enumerate_glued_loop_matches_independent_oracle():
    pres = _exceptional_100()
    for bound in (3, 4, 5):
        got = enumerate_indecomposables(pres, F2, bound, method="closure").count
        assert got == _oracle_catalog_size(pres, bound)


def test_enumerate_glued_loop_growth_is_frozen():
    # oracle-verified counts: 13, 15, 16, 17, then stable through 13
    pres = _exceptional_100()
    counts = {
        b: enumerate_indecomposables(pres, F2, b, method="closure").count
        for b in (4, 5, 6, 7, 8)
    }
    assert counts == {4: 13, 5: 15, 6: 16, 7: 17, 8: 17}


def test_glued_loop_has_indecomposables_of_totals_5_6_7():
    # the growth table above made explicit: indecomposables of totals 5,
    # 6 and 7 exist, so the catalog cannot settle before bound 7
    pres = _exceptional_100()
    witnesses = [
        (
            {"b": 1, "(i j)": 2, "g": 2},
            [[1], [0]],
            [[0, 1], [0, 0]],
            [[1, 0], [0, 1]],
        ),
        (
            {"b": 1, "(i j)": 3, "g": 1},
            [[1], [0], [0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[1], [1], [0]],
        ),
        (
            {"b": 1, "(i j)": 3, "g": 2},
            [[1], [0], [0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[1, 0], [1, 0], [0, 1]],
        ),
        (
            {"b": 1, "(i j)": 4, "g": 2},
            [[1], [0], [0], [0]],
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
            [[1, 0], [0, 0], [1, 0], [0, 1]],
        ),
    ]
    totals = []
    for dims, beta, alpha, gamma in witnesses:
        m = make_representation(
            pres, F2, dims, {"beta": beta, "alpha": alpha, "gamma": gamma}
        )
        ok, problems = check_relations(m)
        assert ok, problems
        assert is_indecomposable(m), dims
        totals.append(m.total)
    assert totals == [5, 5, 6, 7]


def test_enumerate_glued_kronecker():
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "3", "2")))
    pres, _ = build_presentation(NodalDatum(q, (("1", "3"),), ()))
    r = enumerate_indecomposables(pres, F2, 4, budget=64)
    # 2 simples, 2 of defect one, 3 rational points in dimension (1,1),
    # their length-two extensions and the quadratic point at (2,2)
    assert r.count == 11
    by_dims = sorted(c.dims for c in r.classes)
    assert by_dims.count((1, 1)) == 3
    assert by_dims.count((2, 2)) == 4
