from __future__ import annotations

import itertools

import pytest

from nodalq import (
    Arrow,
    Commutation,
    InvalidDatum,
    MonomialZero,
    NodalDatum,
    NonNilpotentCycle,
    Path,
    Presentation,
    Quiver,
    blow_presentation,
    build_presentation,
    dimension,
    glue_presentation,
    hereditary,
    merged_vertex_id,
    parse_datum,
    relation_strings,
    validate,
)

from util import (
    count_paths,
    count_paths_from,
    count_paths_into,
    dimension_by_paths,
    line_quiver,
    random_blow_datum,
    random_glue_datum,
    random_presentation,
    seeded,
    worked_example_datum,
)

# Frozen golden values.  The relation strings were derived by hand from
# the construction recipe (cross zero relations at each merged vertex,
# duplicated relations plus one commutation per blow-up) and the
# dimensions against the path-counting oracle in util.py.
WORKED_RELATIONS = (
    "a2·a3 = 0",
    "a2·a4 = 0",
    "a4·a6' = 0",
    "a4·a6'' = 0",
    "a6'·a5' = a6''·a5''",
)
WORKED_VERTICES = ("v1", "(v2 v4)", "v3", "(v5 v7)", "v6'", "v6''")
WORKED_DIMENSION = 24


def test_worked_example_golden():
    pres, vmap = build_presentation(worked_example_datum())
    assert pres.quiver.vertices == WORKED_VERTICES
    assert relation_strings(pres) == WORKED_RELATIONS
    assert dimension(pres) == WORKED_DIMENSION
    assert vmap.vertex_map["v2"] == ("(v2 v4)",)
    assert vmap.vertex_map["v6"] == ("v6'", "v6''")
    assert vmap.arrow_map["a5"] == ("a5'", "a5''")
    assert vmap.arrow_map["a1"] == ("a1",)


def test_glue_then_adjacent_blow_ups_golden():
    # the second blow-up re-primes arrow b, which the first already split,
    # and duplicates the commutation the first one imposed
    d = parse_datum(
        "vertices 1 2 3 4 5\n"
        "arrow a : 1 -> 2\n"
        "arrow b : 2 -> 3\n"
        "arrow c : 3 -> 4\n"
        "arrow d : 4 -> 5\n"
        "glue 1 5\n"
        "blow 2\n"
        "blow 3\n"
    )
    pres, vmap = build_presentation(d)
    assert pres.quiver.vertices == ("(1 5)", "2'", "2''", "3'", "3''", "4")
    assert vmap.arrow_map["b"] == ("(b')'", "(b')''", "(b'')'", "(b'')''")
    assert relation_strings(pres) == (
        "a'·d = 0",
        "a''·d = 0",
        "(b')'·a' = (b'')'·a''",
        "(b')''·a' = (b'')''·a''",
        "c'·(b'')' = c''·(b'')''",
        "c'·(b')' = c''·(b')''",
    )
    assert dimension(pres) == 25


def test_glued_line_gives_dual_numbers():
    d = NodalDatum(line_quiver(2), (("v0", "v1"),), ())
    pres, _ = build_presentation(d)
    assert pres.quiver.vertices == ("(v0 v1)",)
    assert relation_strings(pres) == ("va0·va0 = 0",)
    assert dimension(pres) == 2


def test_blown_chain_golden():
    q = Quiver(("1", "i", "2"), (Arrow("a", "1", "i"), Arrow("b", "i", "2")))
    pres, vmap = build_presentation(NodalDatum(q, (), ("i",)))
    assert pres.quiver.vertices == ("1", "i'", "i''", "2")
    assert relation_strings(pres) == ("b'·a' = b''·a''",)
    assert dimension(pres) == 9
    assert vmap.vertex_map["i"] == ("i'", "i''")


def test_merged_id_collisions_rewrap():
    assert merged_vertex_id("v2", "v4") == "(v2 v4)"
    q = Quiver(("(a b)", "a", "b"), (Arrow("x", "a", "(a b)"),))
    pres, _, _ = glue_presentation(hereditary(q), "a", "b")
    # the natural name is taken by an existing vertex, so it re-wraps
    assert "((a b))" in pres.quiver.vertices


def test_gluing_and_blowing_up_build_one_presentation_per_base():
    base = hereditary(line_quiver(3))
    for build, args in ((glue_presentation, ("v0", "v2")), (glue_presentation, ("v0", "v2", "w")),
                        (blow_presentation, ("v1",))):
        first = build(base, *args)
        again = build(base, *args)
        assert again[0] is first[0]
        # the maps are the caller's to change
        again[1].clear()
        again[2]["va0"] = ("x",)
        third = build(base, *args)
        assert third[1:] == first[1:] and third[1] is not first[1]
        # an equal base built apart has no stored result: an uncached build
        fresh = build(hereditary(line_quiver(3)), *args)
        assert fresh[0] is not first[0] and fresh[1:] == first[1:]
        assert (fresh[0].quiver, fresh[0].relations) == (first[0].quiver, first[0].relations)
    assert glue_presentation(base, "v0", "v2", "w")[0].quiver.vertices == ("w", "v1")
    # a result is a base of its own
    glued = glue_presentation(base, "v0", "v2")[0]
    assert blow_presentation(glued, "v1")[0] is blow_presentation(glued, "v1")[0]


def test_a_refused_gluing_or_blow_up_is_refused_again():
    base = hereditary(line_quiver(2))
    looped = glue_presentation(base, "v0", "v1")[0]  # va0 becomes a loop
    for _ in range(2):
        with pytest.raises(InvalidDatum, match="carries a loop"):
            blow_presentation(looped, "(v0 v1)")
        with pytest.raises(InvalidDatum, match="to itself"):
            glue_presentation(base, "v0", "v0")
        with pytest.raises(InvalidDatum, match="not in quiver"):
            blow_presentation(base, "v7")


def test_validate_reports_problems():
    q = line_quiver(4)
    ok = validate(NodalDatum(q, (("v0", "v2"),), ("v3",)))
    assert ok.ok and ok.problems == ()
    bad = validate(
        NodalDatum(q, (("v0", "v0"), ("v0", "nope")), ("v0", "v9"))
    )
    assert not bad.ok
    text = " ".join(bad.problems)
    assert "repeats a vertex" in text
    assert "nope" in text and "v9" in text
    assert "more than one operation" in text
    cyc = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    rep = validate(NodalDatum(cyc, (), ()))
    assert not rep.ok and "oriented cycle" in rep.problems[0]


def test_build_raises_on_invalid():
    with pytest.raises(InvalidDatum):
        build_presentation(NodalDatum(line_quiver(2), (("v0", "v0"),), ()))


def test_blow_respects_primed_names():
    # an arrow name that already ends in a prime gets wrapped first
    q = Quiver(("1", "i"), (Arrow("a'", "1", "i"),))
    pres, _, _ = blow_presentation(hereditary(q), "i")
    names = sorted(a.name for a in pres.quiver.arrows)
    assert names == ["(a')'", "(a')''"]


def test_dimension_detects_free_cycles():
    loop = Quiver(("x",), (Arrow("l", "x", "x"),))
    with pytest.raises(NonNilpotentCycle):
        dimension(hereditary(loop))
    pres, _ = build_presentation(worked_example_datum())
    with pytest.raises(NonNilpotentCycle):
        dimension(pres, max_path_length=1)


def test_dimension_cap_bounds_only_zero_free_paths():
    # b·a is the only path longer than 1, and it is zero
    q = Quiver(("x", "y", "z"), (Arrow("a", "x", "y"), Arrow("b", "y", "z")))
    pres = Presentation(q, frozenset({MonomialZero(Path(q, ("b", "a")))}))
    assert dimension(pres, max_path_length=1) == 5
    assert dimension_by_paths(pres, max_path_length=1) == 5
    with pytest.raises(NonNilpotentCycle, match="length cap 0"):
        dimension(pres, max_path_length=0)


def _outcome(dim, pres, cap):
    try:
        return dim(pres, cap)
    except NonNilpotentCycle as e:
        return str(e)


def test_dimension_matches_path_listing_oracle():
    # values and refusals, on general presentations (loops, cycles,
    # commutations of unequal lengths) and on built gluings and blow-ups
    rng = seeded(20261018)
    # two nilpotent loops whose commutations rewrite in a cycle when
    # oriented by plain lex instead of degree-lex
    q = Quiver(("x",), (Arrow("a", "x", "x"), Arrow("b", "x", "x")))
    loops = {MonomialZero(Path(q, w)) for w in itertools.product("ab", repeat=4)}
    loops |= {Commutation(Path(q, tuple(lw)), Path(q, tuple(rw)))
              for lw, rw in (("ab", "bbb"), ("aba", "ba"), ("bb", "bab"))}
    cases = [Presentation(q, frozenset(loops))]
    cases += [random_presentation(rng) for _ in range(1000)]
    cases += [build_presentation(random_glue_datum(rng))[0] for _ in range(150)]
    cases += [build_presentation(random_blow_datum(rng))[0] for _ in range(150)]
    for pres in cases:
        for cap in (0, 1, 2, 3, 64):
            want = _outcome(dimension_by_paths, pres, cap)
            assert _outcome(dimension, pres, cap) == want, (cap, pres)


def test_dimension_of_a_long_diamond_chain():
    # 18,874,214 paths: listing them is out of reach, counting is not
    k = 20
    vs = ["v0"]
    arrows = []
    for t in range(k):
        a, b, c, d = f"v{t}", f"b{t}", f"c{t}", f"v{t + 1}"
        vs += [b, c, d]
        arrows += [Arrow(f"p{t}", a, b), Arrow(f"q{t}", a, c),
                   Arrow(f"r{t}", b, d), Arrow(f"s{t}", c, d)]
    d = NodalDatum(Quiver(tuple(vs), tuple(arrows)), (), ("v1",))
    pres, _ = build_presentation(d)
    expected = (
        count_paths(d.base)
        + count_paths_into(d.base, "v1")
        + count_paths_from(d.base, "v1")
        + 1
    )
    assert expected == 18_874_214
    assert dimension(pres) == expected


def test_gluing_dimension_law_on_random_data():
    rng = seeded(20260818)
    for _ in range(25):
        d = random_glue_datum(rng)
        pres, _ = build_presentation(d)
        expected = count_paths(d.base) - len(d.glue_pairs)
        assert dimension(pres) == expected


def test_blow_dimension_law_on_random_data():
    rng = seeded(20260819)
    for _ in range(25):
        d = random_blow_datum(rng)
        v = d.blow_vertices[0]
        pres, _ = build_presentation(d)
        expected = (
            count_paths(d.base)
            + count_paths_into(d.base, v)
            + count_paths_from(d.base, v)
            + 1
        )
        assert dimension(pres) == expected


def test_gluing_keeps_inner_arrows():
    # a pair joined by an arrow: the arrow becomes a loop, the law holds
    d = NodalDatum(line_quiver(3), (("v0", "v1"),), ())
    pres, _ = build_presentation(d)
    loops = [a for a in pres.quiver.arrows if a.source == a.target]
    assert len(loops) == 1
    assert dimension(pres) == count_paths(d.base) - 1
