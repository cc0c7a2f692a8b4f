from __future__ import annotations

import pytest

from nodalq import (
    GF,
    Arrow,
    NodalDatum,
    Quiver,
    ShapeMismatch,
    blow_induce,
    blow_presentation,
    build_presentation,
    check_relations,
    direct_sum,
    glue_induce,
    glue_induce_inessential,
    glue_presentation,
    glue_restrict_inessential,
    hereditary,
    is_isomorphic,
    make_representation,
    random_representation,
    simple_representation,
    strip_simple_summands,
)

from util import line_quiver, seeded

F2 = GF(2)
F3 = GF(3)

A2 = hereditary(line_quiver(2))
ZIGZAG = hereditary(
    Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "3", "2")))
)
CHAIN = hereditary(
    Quiver(("1", "i", "2"), (Arrow("a", "1", "i"), Arrow("b", "i", "2")))
)


def test_glue_blocks_are_laid_out_in_call_order():
    m = make_representation(
        ZIGZAG, F2, {"1": 1, "2": 1, "3": 2}, {"a": [[1]], "b": [[0, 1]]}
    )
    fm = glue_induce(m, "1", "3")
    assert fm.pres.quiver.vertices == ("(1 3)", "2")
    assert fm.dim("(1 3)") == 3
    # the i part of the call comes first, so a reads the left column
    assert fm.mat("a").rows == ((1, 0, 0),)
    assert fm.mat("b").rows == ((0, 0, 1),)


def test_push_forwards_build_one_target_quiver_each(monkeypatch):
    # the target presentation is built once per base presentation and
    # operation, however often a module is pushed along it
    pres = hereditary(Quiver(("1", "i", "2"), (Arrow("a", "1", "i"), Arrow("b", "i", "2"))))
    m = make_representation(pres, F3, {"1": 1, "i": 2, "2": 1}, {"a": [[1], [2]], "b": [[0, 1]]})
    built = []
    monkeypatch.setattr("nodalq.construct.Quiver",
                        lambda *args: built.append(args) or Quiver(*args))
    glued = [glue_induce(m, "1", "2").pres for _ in range(50)]
    blown = [blow_induce(m, "i").pres for _ in range(50)]
    assert len(built) == 2
    assert all(p is glued[0] for p in glued) and all(p is blown[0] for p in blown)


def test_glue_induce_needs_cross_free_pairs():
    m = make_representation(A2, F2, {"v0": 1, "v1": 1}, {"va0": [[1]]})
    with pytest.raises(ShapeMismatch):
        glue_induce(m, "v0", "v1")  # the connecting arrow needs stripping first
    fm = glue_induce_inessential(m, "v0", "v1")
    ok, problems = check_relations(fm)
    assert ok, problems


def test_glue_images_always_satisfy_relations():
    rng = seeded(4)
    for trial in range(30):
        field = F2 if trial % 2 else F3
        m = random_representation(ZIGZAG, field, rng, max_dim=3)
        fm = glue_induce(m, "1", "3")
        ok, problems = check_relations(fm)
        assert ok, problems


def test_blow_images_duplicate_and_commute():
    m = make_representation(
        CHAIN, F2, {"1": 1, "i": 2, "2": 1}, {"a": [[1], [0]], "b": [[0, 1]]}
    )
    fm = blow_induce(m, "i")
    assert fm.pres.quiver.vertices == ("1", "i'", "i''", "2")
    assert fm.dim("i'") == fm.dim("i''") == 2
    assert fm.mat("a'") == fm.mat("a''") == m.mat("a")
    ok, problems = check_relations(fm)
    assert ok, problems
    rng = seeded(5)
    for _ in range(20):
        r = random_representation(CHAIN, F2, rng, max_dim=3)
        ok, problems = check_relations(blow_induce(r, "i"))
        assert ok, problems


def test_glue_functor_is_additive():
    rng = seeded(6)
    m = random_representation(ZIGZAG, F2, rng, max_dim=2)
    n = random_representation(ZIGZAG, F2, rng, max_dim=2)
    both = glue_induce(direct_sum(m, n), "1", "3")
    apart = direct_sum(glue_induce(m, "1", "3"), glue_induce(n, "1", "3"))
    assert is_isomorphic(both, apart)


def test_restriction_inverts_induction_literally():
    # stripping first makes the round trip the identity on the nose
    rng = seeded(7)
    for trial in range(30):
        field = F2 if trial % 2 else F3
        m = random_representation(A2, field, rng, max_dim=3)
        stripped, _ = strip_simple_summands(m, ("v0", "v1"))
        fm = glue_induce_inessential(stripped, "v0", "v1")
        back = glue_restrict_inessential(fm, A2, "v0", "v1")
        assert back.dims == stripped.dims
        assert back.mats == stripped.mats


def test_restriction_on_unstripped_input_matches_up_to_iso():
    m = direct_sum(
        make_representation(A2, F2, {"v0": 1, "v1": 1}, {"va0": [[1]]}),
        simple_representation(A2, F2, "v0"),
    )
    stripped, counts = strip_simple_summands(m, ("v0", "v1"))
    assert counts["v0"] == 1
    fm = glue_induce_inessential(m, "v0", "v1")
    back = glue_restrict_inessential(fm, A2, "v0", "v1")
    # the simple at the source is invisible after the round trip
    assert is_isomorphic(back, stripped)


def test_restriction_checks_the_call_order():
    m = simple_representation(A2, F2, "v1")
    fm = glue_induce_inessential(m, "v0", "v1")
    with pytest.raises(ShapeMismatch):
        glue_restrict_inessential(fm, A2, "v1", "v0")


def test_restriction_requires_inessential_pairs():
    m = make_representation(
        ZIGZAG, F2, {"1": 1, "2": 1, "3": 1}, {"a": [[1]], "b": [[1]]}
    )
    fm = glue_induce(m, "1", "3")
    with pytest.raises(ShapeMismatch):
        glue_restrict_inessential(fm, ZIGZAG, "1", "3")


def test_blow_functor_reflects_isomorphism():
    rng = seeded(8)
    pairs = 0
    while pairs < 10:
        m = random_representation(CHAIN, F2, rng, max_dim=2)
        n = random_representation(CHAIN, F2, rng, max_dim=2)
        if m.dims != n.dims:
            continue
        pairs += 1
        same = is_isomorphic(m, n)
        assert is_isomorphic(blow_induce(m, "i"), blow_induce(n, "i")) == same


def test_glue_simple_images_coincide():
    si = simple_representation(ZIGZAG, F2, "1")
    sj = simple_representation(ZIGZAG, F2, "3")
    assert is_isomorphic(glue_induce(si, "1", "3"), glue_induce(sj, "1", "3"))


def test_presentation_builders_agree_with_functors():
    # the functor target presentation equals the constructed one
    m = simple_representation(ZIGZAG, F2, "2")
    fm = glue_induce(m, "1", "3")
    pres, _, _ = glue_presentation(ZIGZAG, "1", "3")
    assert fm.pres == pres
    bm = blow_induce(simple_representation(CHAIN, F2, "1"), "i")
    bpres, _, _ = blow_presentation(CHAIN, "i")
    assert bm.pres == bpres
