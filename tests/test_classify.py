from __future__ import annotations

import importlib
import itertools
from pathlib import Path

import pytest

from nodalq import (
    FINITE,
    NON_WILD_UNRESOLVED,
    TAME,
    WILD,
    Arrow,
    CyclicQuiver,
    ExceptionalParams,
    InvalidDatum,
    NodalDatum,
    NotTypeA,
    Quiver,
    build_presentation,
    classify,
    detect_exceptional,
    detect_super_exceptional,
    exceptional_type,
    gabriel_type,
    is_gentle_presentation,
    is_inessential,
    is_quasi_gentle,
    parse_datum,
    strip_inessential,
    tits_witness,
    validate,
)
from nodalq.classify import UnknownPair

from util import (
    classify_by_restripping,
    detect_exceptional_by_restripping,
    detect_super_exceptional_by_restripping,
    exceptional_datum,
    is_quasi_gentle_by_restripping,
    line_quiver,
    random_blow_datum,
    random_degree_violation_datum,
    random_glue_datum,
    random_line_glue_datum,
    random_quasi_gentle_datum,
    seeded,
    super_datum,
    worked_example_datum,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _glue(q, *pairs):
    return NodalDatum(q, tuple(pairs), ())


# ---------------------------------------------------------------------------
# hereditary shapes

def test_gabriel_type_families():
    assert gabriel_type(line_quiver(4)).verdict == FINITE
    star = Quiver(
        ("c", "p1", "p2", "p3"),
        (Arrow("a", "p1", "c"), Arrow("b", "p2", "c"), Arrow("d", "p3", "c")),
    )
    assert gabriel_type(star).verdict == FINITE
    kron = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    assert gabriel_type(kron).verdict == TAME
    wide = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"), Arrow("c", "1", "2")))
    assert gabriel_type(wide).verdict == WILD
    cyc = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    with pytest.raises(CyclicQuiver):
        gabriel_type(cyc)


def test_gabriel_combines_components():
    q = Quiver(
        ("1", "2", "a", "b", "c"),
        (
            Arrow("x", "1", "2"),
            Arrow("y", "a", "b"),
            Arrow("z", "b", "c"),
            Arrow("w", "a", "c"),
        ),
    )
    r = gabriel_type(q)
    assert r.verdict == TAME
    assert len([t for t in r.trace if "component" in t]) == 2


def test_tits_witness_value():
    assert tits_witness(2, 1, 1) == -1
    assert tits_witness(1, 0, 0) == 1
    assert tits_witness(0, 0, 0) == 0


# ---------------------------------------------------------------------------
# inessential gluings

def test_inessential_detection_and_stripping():
    # endpoint to endpoint on a forward line: source and sink
    d = _glue(line_quiver(3), ("v0", "v2"))
    assert is_inessential(d, ("v0", "v2"))
    assert is_inessential(d, ("v2", "v0"))  # order insensitive
    stripped = strip_inessential(d)
    assert stripped.glue_pairs == ()
    # interior gluing is essential
    e = _glue(line_quiver(4), ("v1", "v3"))
    assert not is_inessential(e, ("v1", "v3"))
    assert strip_inessential(e).glue_pairs == e.glue_pairs
    with pytest.raises(UnknownPair):
        is_inessential(d, ("v0", "v1"))


def test_inessential_gluing_can_still_relate():
    # the A2 endpoint gluing imposes a relation yet stays inessential
    d = _glue(line_quiver(2), ("v0", "v1"))
    assert is_inessential(d, ("v0", "v1"))
    pres, _ = build_presentation(d)
    assert pres.zero_words() == (("va0", "va0"),)


# ---------------------------------------------------------------------------
# gentle and quasi-gentle

def test_gentle_accepts_dual_numbers():
    pres, _ = build_presentation(_glue(line_quiver(2), ("v0", "v1")))
    assert is_gentle_presentation(pres).ok


def test_gentle_rejects_three_in_arrows():
    # two-in sink glued onto a vertex with an in-arrow: degree axiom fails
    q = Quiver(
        ("a", "s", "b", "w1", "w2"),
        (Arrow("x", "a", "s"), Arrow("y", "b", "s"), Arrow("z", "w1", "w2")),
    )
    pres, _ = build_presentation(_glue(q, ("s", "w2")))
    rep = is_gentle_presentation(pres)
    assert not rep.ok
    assert any("in-arrows" in p or "arrows" in p for p in rep.problems)


def test_gentle_counts_loops_on_both_sides():
    pres, _ = build_presentation(_glue(line_quiver(3), ("v0", "v1")))
    # merged vertex carries a loop, one more in-arrow would be too many
    rep = is_gentle_presentation(pres)
    assert rep.ok


def test_quasi_gentle_on_operated_vertices():
    assert is_quasi_gentle(_glue(line_quiver(4), ("v1", "v3")))
    # a two-in line vertex breaks the condition when operated
    zig = line_quiver(4, orientations=(1, 0, 1))  # v0 -> v1 <- v2 -> v3
    assert not is_quasi_gentle(_glue(zig, ("v1", "v3")))


def test_wide_inessential_gluing_is_not_gentle():
    # gluing a two-out source onto a two-in sink stays inessential, so
    # the datum is quasi-gentle and the type is unchanged, but the built
    # presentation shares a second arrow between zero relations and the
    # gentle axioms reject it
    q = line_quiver(6, orientations=(0, 1, 1, 1, 0))
    d = _glue(q, ("v1", "v4"))
    assert is_inessential(d, ("v1", "v4"))
    assert is_quasi_gentle(d)
    pres, _ = build_presentation(d)
    assert not is_gentle_presentation(pres).ok
    assert classify(d).verdict == FINITE


def test_random_quasi_gentle_agreement():
    rng = seeded(7)
    for _ in range(20):
        d = random_quasi_gentle_datum(rng)
        assert is_quasi_gentle(d)
        pres, _ = build_presentation(d)
        assert is_gentle_presentation(pres).ok
    for _ in range(20):
        d = random_degree_violation_datum(rng)
        pres, _ = build_presentation(d)
        assert not is_gentle_presentation(pres).ok


# ---------------------------------------------------------------------------
# exceptional configurations

def test_detect_exceptional_across_cases_and_orientations():
    for case in ("one", "two"):
        for flip in (0, 1):
            d = exceptional_datum(2, 1, 1, case, flip)
            det = detect_exceptional(d)
            assert det
            p = det.params
            assert (p.n, p.m, p.l, p.case, p.is_super) == (2, 1, 1, case, False)


def test_detect_exceptional_mirrored_roles():
    # list the pair in the other order: parameters must not change
    d = exceptional_datum(2, 1, 0)
    swapped = NodalDatum(d.base, ((d.glue_pairs[0][1], d.glue_pairs[0][0]),), ())
    a, b = detect_exceptional(d), detect_exceptional(swapped)
    assert a and b and a.params == b.params


def test_detect_exceptional_refusals_note_why():
    # no tail at i: the endpoint gluing is inessential, nothing remains
    d = _glue(line_quiver(3), ("v0", "v2"))
    det = detect_exceptional(d)
    assert not det and det.notes
    # two gluings are out of scope for the single-pair detector
    d2 = super_datum(0, 0)
    assert not detect_exceptional(d2)


def test_detect_super_exceptional():
    for case in ("one", "two"):
        d = super_datum(1, 0, case)
        det = detect_super_exceptional(d)
        assert det and det.params.is_super
        assert (det.params.n, det.params.m, det.params.l) == (3, 1, 0)
    # same base but the second pair off the middle edge: not super
    d = super_datum(0, 0)
    wrong = NodalDatum(d.base, (d.glue_pairs[0], ("ti", "tj")), ())
    assert not detect_super_exceptional(wrong)


def test_exceptional_type_tables():
    def t(n, m, l):
        return exceptional_type(ExceptionalParams(n, m, l, "one", False)).verdict

    assert t(1, 0, 0) == FINITE
    assert t(9, 0, 0) == FINITE
    assert t(3, 1, 0) == FINITE
    assert t(1, 3, 0) == FINITE
    assert t(2, 0, 1) == FINITE
    assert t(4, 1, 0) == TAME
    assert t(2, 2, 0) == TAME
    assert t(1, 4, 0) == TAME
    assert t(3, 0, 1) == TAME
    assert t(5, 1, 0) == WILD
    assert t(1, 5, 0) == WILD
    assert t(2, 1, 1) == WILD
    assert t(1, 0, 2) == WILD

    def s(m, l):
        return exceptional_type(ExceptionalParams(3, m, l, "one", True)).verdict

    assert s(0, 0) == FINITE
    assert s(1, 0) == TAME
    assert s(0, 1) == TAME
    assert s(1, 1) == WILD
    assert s(2, 0) == WILD


# ---------------------------------------------------------------------------
# the full pipeline

def test_classify_worked_example_is_not_type_a():
    with pytest.raises(NotTypeA):
        classify(worked_example_datum())


def test_classify_hereditary_fallthrough():
    tri = Quiver(
        ("c1", "c2", "c3"),
        (Arrow("a", "c1", "c2"), Arrow("b", "c2", "c3"), Arrow("c", "c1", "c3")),
    )
    r = classify(NodalDatum(tri, (), ()))
    assert r.verdict == TAME
    assert any("hereditary" in t for t in r.trace)


def test_classify_stripped_gluing_traces():
    r = classify(_glue(line_quiver(2), ("v0", "v1")))
    assert r.verdict == FINITE
    assert any("inessential" in t for t in r.trace)


def test_classify_quasi_gentle_component():
    r = classify(_glue(line_quiver(4), ("v1", "v3")))
    assert r.verdict == NON_WILD_UNRESOLVED
    assert any("quasi-gentle" in t for t in r.trace)


def test_classify_exceptional_points():
    assert classify(exceptional_datum(1, 0, 0)).verdict == FINITE
    assert classify(exceptional_datum(4, 1, 0)).verdict == TAME
    assert classify(exceptional_datum(1, 1, 1)).verdict == WILD
    assert classify(super_datum(0, 0)).verdict == FINITE
    assert classify(super_datum(2, 0)).verdict == WILD


def test_classify_combines_components():
    # one quasi-gentle glued line next to a hereditary tame cycle graph
    line = line_quiver(4)
    kron_side = Quiver(("k1", "k2"), (Arrow("ka", "k1", "k2"), Arrow("kb", "k1", "k2")))
    q = Quiver(line.vertices + kron_side.vertices, line.arrows + kron_side.arrows)
    r = classify(_glue(q, ("v1", "v3")))
    assert r.verdict == NON_WILD_UNRESOLVED
    assert any("finite or tame" in t or "unresolved" in t for t in r.trace)


def test_classify_rejects_non_type_a_component():
    star = Quiver(
        ("c", "p1", "p2", "p3"),
        (Arrow("a", "p1", "c"), Arrow("b", "p2", "c"), Arrow("d", "p3", "c")),
    )
    with pytest.raises(NotTypeA):
        classify(NodalDatum(star, (("p1", "p2"),), ()))


def test_classify_wild_fallback_for_unmatched_configurations():
    # an essential gluing that is neither quasi-gentle nor exceptional:
    # a two-in vertex merged with a path neighbour two steps away
    q = Quiver(
        ("a", "s", "b", "t", "u"),
        (
            Arrow("x", "a", "s"),
            Arrow("y", "b", "s"),
            Arrow("z", "s", "t"),
            Arrow("w", "t", "u"),
        ),
    )
    with pytest.raises(NotTypeA):
        # the base component is a D-shaped tree, refused upfront
        classify(_glue(q, ("s", "u")))


# ---------------------------------------------------------------------------
# one preparation per public call, against the rules that re-prepared

RULES = (
    (classify, classify_by_restripping),
    (is_quasi_gentle, is_quasi_gentle_by_restripping),
    (detect_exceptional, detect_exceptional_by_restripping),
    (detect_super_exceptional, detect_super_exceptional_by_restripping),
)


def _classifier_data():
    """The corpus, 300 data from each random generator, every single- and
    doubly-glued shape over small parameters, and those shapes spoiled
    by a second gluing, a blow-up or an overlapping pair."""
    data = [parse_datum(p.read_text(encoding="utf-8")) for p in sorted(DATA.glob("*.datum"))]
    rng = seeded(20261022)
    for gen in (random_glue_datum, random_blow_datum, random_line_glue_datum,
                random_quasi_gentle_datum):
        data += [gen(rng) for _ in range(300)]
    shapes = [exceptional_datum(n, m, l, case, flip)
              for n, m, l in itertools.product(range(1, 5), range(3), range(3))
              for case in ("one", "two") for flip in (0, 1)]
    shapes += [super_datum(m, l, case)
               for m, l in itertools.product(range(3), repeat=2) for case in ("one", "two")]
    data += shapes
    for k, d in enumerate(shapes):
        first = d.glue_pairs[0]
        free = [v for v in d.base.vertices if v not in first]
        if k % 5 == 0:
            # every second pair, listed after and before the first
            for pair in itertools.combinations(free, 2):
                data.append(NodalDatum(d.base, (first, pair), ()))
                data.append(NodalDatum(d.base, (pair, first), ()))
        data.append(NodalDatum(d.base, d.glue_pairs, (free[-1],)))
        data.append(NodalDatum(d.base, (first, (first[0], free[0])), ()))
    return data


def _outcome(rule, d):
    """What ``rule`` answers on ``d``, or the type and message it raises."""
    try:
        return rule(d)
    except Exception as e:
        return type(e), str(e)


def test_classifier_matches_restripping_oracle():
    # verdicts and traces, detections with their parameters and notes,
    # and refusals with their messages, as before one preparation per call
    data = _classifier_data()
    assert len(data) >= 1000
    seen = dict.fromkeys((FINITE, TAME, WILD, NON_WILD_UNRESOLVED, NotTypeA, InvalidDatum,
                          "super", "off the middle", "n != 3", "blow-ups"), 0)
    for d in data:
        got = [_outcome(rule, d) for rule, _ in RULES]
        assert got == [_outcome(oracle, d) for _, oracle in RULES], d
        verdict, det = got[0], got[3]
        seen[verdict[0] if isinstance(verdict, tuple) else verdict.verdict] += 1
        if isinstance(det, tuple):
            continue
        seen["super"] += bool(det)
        seen["off the middle"] += any("middle cycle arrow" in n for n in det.notes)
        seen["n != 3"] += any("needs n=3" in n for n in det.notes)
        seen["blow-ups"] += any("blow-ups" in n for n in det.notes)
    assert min(seen.values()) >= 5, seen


def test_each_public_call_prepares_its_datum_once(monkeypatch):
    # classify and every public rule validate, guard and strip once; the
    # private rules read that prepared datum
    module = importlib.import_module("nodalq.classify")
    prepare = module._stripped
    calls = []
    monkeypatch.setattr(module, "_stripped", lambda d: calls.append(d) or prepare(d))
    for d in _classifier_data()[::3]:
        for rule, _ in RULES:
            calls.clear()
            _outcome(rule, d)
            assert calls == [d], (rule.__name__, d)


def test_each_public_call_shapes_its_base_once(monkeypatch):
    # the type-A guard's shapes serve every rule; only gabriel_type shapes
    # a quiver again, its own, and reads acyclicity off that report
    module = importlib.import_module("nodalq.classify")
    shape, hereditary_type, acyclic = module.underlying_shape, module.gabriel_type, Quiver.is_acyclic
    calls = []
    monkeypatch.setattr(module, "underlying_shape",
                        lambda q: calls.append("shape") or shape(q))
    monkeypatch.setattr(module, "gabriel_type",
                        lambda q: calls.append("gabriel") or hereditary_type(q))
    monkeypatch.setattr(Quiver, "is_acyclic", lambda q: calls.append("acyclic") or acyclic(q))
    for d in _classifier_data()[::3]:
        for rule, _ in RULES:
            calls.clear()
            _outcome(rule, d)
            want = validate(d).ok + calls.count("gabriel")
            assert calls.count("shape") == want, (rule.__name__, d)
    for q in (line_quiver(3), Quiver(("x",), (Arrow("l", "x", "x"),))):
        calls.clear()
        try:
            gabriel_type(q)
        except CyclicQuiver:
            pass
        assert calls == ["shape", "acyclic"], q
