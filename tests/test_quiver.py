from __future__ import annotations

import itertools

import pytest

from nodalq import (
    Arrow,
    Commutation,
    MonomialZero,
    Path,
    Presentation,
    Quiver,
    compose,
    empty_path,
    hereditary,
    underlying_shape,
)
from nodalq.quiver import (
    ACYCLE,
    ALINE,
    DYNKIN_D,
    DYNKIN_E,
    EUCLIDEAN_D,
    EUCLIDEAN_E,
    OTHER,
    NonComposable,
    QuiverError,
    UnknownVertex,
)

from util import (
    in_arrows_by_scan,
    is_acyclic_by_names,
    line_quiver,
    out_arrows_by_scan,
    random_presentation,
    seeded,
    undirected_components_by_names,
    underlying_shape_by_names,
)


def _star(center, leaves):
    vs = (center,) + tuple(leaves)
    arrows = tuple(Arrow(f"a{k}", leaf, center) for k, leaf in enumerate(leaves))
    return Quiver(vs, arrows)


def _cycle(n, back_edges=()):
    vs = tuple(f"c{k}" for k in range(n))
    arrows = []
    for k in range(n):
        u, w = vs[k], vs[(k + 1) % n]
        if k in back_edges:
            u, w = w, u
        arrows.append(Arrow(f"a{k}", u, w))
    return Quiver(vs, tuple(arrows))


def test_quiver_rejects_bad_data():
    with pytest.raises(QuiverError):
        Quiver(("1", "1"), ())
    with pytest.raises(QuiverError):
        Quiver(("1",), (Arrow("a", "1", "1"), Arrow("a", "1", "1")))
    with pytest.raises(UnknownVertex):
        Quiver(("1",), (Arrow("a", "1", "2"),))


def test_arrow_lookup_and_degrees():
    q = line_quiver(3)
    assert q.arrow("va0").target == "v1"
    assert [a.name for a in q.in_arrows("v1")] == ["va0"]
    assert [a.name for a in q.out_arrows("v1")] == ["va1"]
    loop = Quiver(("x",), (Arrow("l", "x", "x"),))
    assert [a.name for a in loop.in_arrows("x")] == ["l"]
    assert [a.name for a in loop.out_arrows("x")] == ["l"]


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def test_incidence_and_walks_match_name_oracles():
    # arrows_out/arrows_in against a scan of arrow_ends; the name-level
    # lookups and the graph walks against their versions over names
    rng = seeded(20261022)
    seen = dict.fromkeys(("loop", "parallel", "isolated", "acyclic", "cyclic", "split"), 0)
    for _ in range(400):
        vs = tuple(f"v{k}" for k in range(rng.randint(1, 7)))
        forward = rng.random() < 0.4  # arrows only from earlier to later vertices
        arrows = []
        for k in range(rng.randint(0, 9)):
            s, t = rng.choice(vs), rng.choice(vs)
            if forward and vs.index(s) >= vs.index(t):
                continue
            arrows.append(Arrow(f"a{k}", s, t))
        q = Quiver(vs, tuple(arrows))
        assert "arrows_out" not in vars(q) and "arrows_in" not in vars(q)
        ends = q.arrow_ends
        assert q.arrows_out == tuple(
            tuple(a for a, (s, _) in enumerate(ends) if s == v) for v in range(len(vs)))
        assert q.arrows_in == tuple(
            tuple(a for a, (_, t) in enumerate(ends) if t == v) for v in range(len(vs)))
        for v in vs + ("absent",):
            assert _outcome(q.in_arrows, v) == _outcome(in_arrows_by_scan, q, v)
            assert _outcome(q.out_arrows, v) == _outcome(out_arrows_by_scan, q, v)
        acyclic = q.is_acyclic()
        assert acyclic == is_acyclic_by_names(q)
        comps = q.undirected_components()
        assert comps == undirected_components_by_names(q)
        assert underlying_shape(q) == underlying_shape_by_names(q)
        seen["loop"] += any(s == t for s, t in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["isolated"] += any(not (q.arrows_out[v] or q.arrows_in[v]) for v in range(len(vs)))
        seen["acyclic" if acyclic else "cyclic"] += 1
        seen["split"] += len(comps) > 1
    assert min(seen.values()) > 30, seen


def test_acyclicity_and_components():
    assert line_quiver(4).is_acyclic()
    assert not _cycle(3).is_acyclic()
    assert _cycle(3, back_edges=(1,)).is_acyclic()
    two = Quiver(("a", "b", "c"), (Arrow("e", "a", "b"),))
    comps = two.undirected_components()
    assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c"]]


def test_path_composition_is_right_to_left():
    q = line_quiver(3)
    p = Path(q, ("va1", "va0"))  # va0 applied first
    assert p.source == "v0" and p.target == "v2"
    with pytest.raises(NonComposable):
        Path(q, ("va0", "va1"))
    e = empty_path(q, "v1")
    assert compose(Path(q, ("va1",)), e).arrows == ("va1",)
    assert compose(e, Path(q, ("va0",))).arrows == ("va0",)
    with pytest.raises(NonComposable):
        compose(Path(q, ("va0",)), Path(q, ("va1",)))


def test_presentation_orders_relations():
    q = Quiver(("1",), (Arrow("a", "1", "1"), Arrow("b", "1", "1")))
    rels = frozenset(
        {
            MonomialZero(Path(q, ("b", "a"))),
            MonomialZero(Path(q, ("a", "a"))),
            Commutation(Path(q, ("a", "b")), Path(q, ("b", "b"))),
        }
    )
    p = Presentation(q, rels)
    assert p.zero_words() == (("a", "a"), ("b", "a"))
    assert p.commutation_pairs() == ((("a", "b"), ("b", "b")),)


def _fields_equal(a, b):
    """The comparison of a plain dataclass ``Presentation``."""
    return (a.quiver, a.relations) == (b.quiver, b.relations)


def _assert_identity_agrees(a, b):
    want = _fields_equal(a, b)
    assert (a == b) is want and (b == a) is want and (a != b) is not want
    if want:
        assert hash(a) == hash(b)
    return want


def test_presentation_identity_agrees_with_field_comparison():
    # each seed built twice gives equal presentations on distinct quivers,
    # and dropping a relation gives one on the same quiver object
    made = [random_presentation(seeded(k)) for k in range(40) for _ in range(2)]
    twins = sum(_assert_identity_agrees(a, b) for a, b in zip(made[::2], made[1::2]))
    assert twins == 40 and all(a is not b for a, b in zip(made[::2], made[1::2]))
    made += [Presentation(p.quiver, p.relations - {min(p.relations, key=repr)})
             for p in made[::2] if p.relations]
    assert len(made) > 100
    equal = sum(_assert_identity_agrees(a, b) for a, b in itertools.combinations(made, 2))
    assert equal == twins, equal
    assert made[0] != (made[0].quiver, made[0].relations)


def test_presentation_identity_tells_near_misses_apart():
    def square(vertices=("1", "2", "3"), names="abcd"):
        a, b, c, d = names
        one, two, three = vertices
        return Quiver(vertices, (Arrow(a, one, two), Arrow(b, two, three),
                                 Arrow(c, one, two), Arrow(d, two, three)))

    def rels(q, swap=False, more=False, base=None):
        lhs, rhs = Path(q, ("b", "a")), Path(q, ("d", "c"))
        out = {Commutation(rhs, lhs) if swap else Commutation(lhs, rhs),
               MonomialZero(Path(q, ("d", "a"), base))}
        if more:
            out.add(MonomialZero(Path(q, ("b", "c"))))
        return frozenset(out)

    q = square()
    p = Presentation(q, rels(q))
    reordered = Quiver(q.vertices, q.arrows[1:] + q.arrows[:1])
    renamed = square(("1", "2", "4"))
    misses = [
        Presentation(q, rels(q, swap=True)),
        Presentation(q, rels(q, more=True)),
        Presentation(reordered, rels(reordered)),
        Presentation(renamed, rels(renamed)),
        Presentation(q, rels(q, base="1")),  # a base the dataclass compared
    ]
    assert not any(_assert_identity_agrees(p, x) for x in misses)
    rebuilt = square()
    assert _assert_identity_agrees(p, Presentation(rebuilt, rels(rebuilt)))


def test_hereditary_has_no_relations():
    p = hereditary(line_quiver(3))
    assert p.zero_words() == () and p.commutation_pairs() == ()


def test_shapes_on_the_named_families():
    assert underlying_shape(line_quiver(1)).components[0].label == ALINE
    assert underlying_shape(line_quiver(5)).components[0].label == ALINE
    assert underlying_shape(_cycle(4, back_edges=(2,))).components[0].label == ACYCLE
    # parallel arrows make a two-vertex cycle graph
    kron = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    assert underlying_shape(kron).components[0].label == ACYCLE
    assert underlying_shape(_star("c", ["p1", "p2", "p3"])).components[0].label == DYNKIN_D
    # D_n for larger n: a line with one extra leaf at the second vertex
    q = line_quiver(5)
    dn = Quiver(
        q.vertices + ("u",), q.arrows + (Arrow("x", "u", "v1"),)
    )
    assert underlying_shape(dn).components[0].label == DYNKIN_D

    def tree(legs):
        vs = ["c"]
        arrows = []
        for leg, ln in enumerate(legs):
            prev = "c"
            for k in range(ln):
                v = f"l{leg}_{k}"
                vs.append(v)
                arrows.append(Arrow(f"e{leg}_{k}", prev, v))
                prev = v
        return Quiver(tuple(vs), tuple(arrows))

    assert underlying_shape(tree((2, 2, 1))).components[0].label == DYNKIN_E  # E6
    assert underlying_shape(tree((3, 2, 1))).components[0].label == DYNKIN_E  # E7
    assert underlying_shape(tree((4, 2, 1))).components[0].label == DYNKIN_E  # E8
    assert underlying_shape(_star("c", ["p1", "p2", "p3", "p4"])).components[0].label == EUCLIDEAN_D
    assert underlying_shape(tree((2, 2, 2))).components[0].label == EUCLIDEAN_E  # E6~
    assert underlying_shape(tree((3, 3, 1))).components[0].label == EUCLIDEAN_E  # E7~
    assert underlying_shape(tree((5, 2, 1))).components[0].label == EUCLIDEAN_E  # E8~
    assert underlying_shape(tree((5, 3, 1))).components[0].label == OTHER
    assert underlying_shape(_star("c", ["p1", "p2", "p3", "p4", "p5"])).components[0].label == OTHER


def test_shape_report_spans_components():
    q = Quiver(
        ("a", "b", "c", "d", "e"),
        (Arrow("x", "a", "b"), Arrow("y", "c", "d"), Arrow("z", "d", "e"), Arrow("w", "c", "e")),
    )
    rep = underlying_shape(q)
    labels = sorted(c.label for c in rep.components)
    assert labels == [ACYCLE, ALINE]
    assert rep.acyclic
