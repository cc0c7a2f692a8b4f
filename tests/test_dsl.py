from __future__ import annotations

import json
import re

import pytest

from nodalq import (
    Arrow,
    DatumSemanticError,
    DatumSyntaxError,
    NodalDatum,
    Quiver,
    build_presentation,
    emit_presentation,
    hereditary,
    parse_datum,
    presentation_from_json,
    relation_strings,
    serialize_datum,
)

from nodalq.dsl import _tokenize
from util import seeded, tokenize_by_characters, worked_example_datum

SAMPLE = """\
# a comment line
vertices a b c   # trailing comment
arrow f : a -> b
arrow g : b -> c
glue a c
blow b
"""


def test_parse_collects_everything():
    d = parse_datum(SAMPLE)
    assert d.base.vertices == ("a", "b", "c")
    assert [x.name for x in d.base.arrows] == ["f", "g"]
    assert d.glue_pairs == (("a", "c"),)
    assert d.blow_vertices == ("b",)


def test_parse_errors_carry_positions():
    with pytest.raises(DatumSyntaxError) as err:
        parse_datum("vertices a\nnonsense b\n")
    assert "line 2" in str(err.value)
    assert err.value.line == 2 and err.value.col == 1
    with pytest.raises(DatumSyntaxError) as err:
        parse_datum("vertices a'b\n")
    assert "unexpected character" in str(err.value)
    with pytest.raises(DatumSyntaxError):
        parse_datum("arrow f a -> b\n")
    with pytest.raises(DatumSemanticError) as err:
        parse_datum("vertices a\nglue a z\n")
    assert "unknown vertex 'z'" in str(err.value)
    with pytest.raises(DatumSemanticError):
        parse_datum("vertices a a\n")
    with pytest.raises(DatumSemanticError):
        parse_datum("vertices a b\narrow f : a -> b\narrow f : a -> b\n")


def _tokens(tokenize, text):
    """The tokens of ``text``, or the type, message and position of the
    error that ``tokenize`` raises on it."""
    try:
        return tokenize(text, 7)
    except Exception as e:
        return type(e), str(e), e.line, e.col


def test_tokenizer_matches_character_loop_oracle():
    # the regex pass skips exactly the characters that str.isspace skips,
    # Unicode spaces included, and names the same unexpected character
    space = re.compile(r"\s")
    assert all(bool(space.match(c)) == c.isspace() for c in map(chr, range(0x110000)))
    pieces = ["a", "Z9", "_", "(", ")", "v1", "->", ":", "-", ">", " ", "  ", "\t", "\x0b",
              "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u3000", "\u200b", "@", "'",
              "#", "\xe9", "\u0663", "\u2212", "\U0001f600"]
    rng = seeded(20261025)
    seen = {"tokens": 0, "error": 0}
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        want = _tokens(tokenize_by_characters, text)
        assert _tokens(_tokenize, text) == want, repr(text)
        seen["error" if isinstance(want, tuple) else "tokens"] += 1
    assert min(seen.values()) >= 500, seen


def test_datum_errors_share_their_form():
    for error in (DatumSyntaxError, DatumSemanticError):
        e = error("unknown vertex 'x'", 3, 5)
        assert isinstance(e, ValueError) and error.__bases__ == (ValueError,)
        assert (str(e), e.line, e.col) == ("line 3, column 5: unknown vertex 'x'", 3, 5)


def test_round_trip_is_canonical():
    d = parse_datum(SAMPLE)
    text = serialize_datum(d)
    assert parse_datum(text) == d
    assert serialize_datum(parse_datum(text)) == text
    assert text == (
        "vertices a b c\n"
        "arrow f : a -> b\n"
        "arrow g : b -> c\n"
        "glue a c\n"
        "blow b\n"
    )


def test_relation_strings_order_and_glyphs():
    pres, _ = build_presentation(worked_example_datum())
    rels = relation_strings(pres)
    assert rels == (
        "a2·a3 = 0",
        "a2·a4 = 0",
        "a4·a6' = 0",
        "a4·a6'' = 0",
        "a6'·a5' = a6''·a5''",
    )


def test_text_emission():
    pres, _ = build_presentation(worked_example_datum())
    out = emit_presentation(pres, "text")
    assert out.startswith("vertices: v1, (v2 v4), v3, (v5 v7), v6', v6''\n")
    assert "  a6'·a5' = a6''·a5''" in out
    plain = emit_presentation(hereditary(Quiver(("x",), ())), "text")
    assert "relations: none" in plain


def test_json_emission_round_trips():
    pres, _ = build_presentation(worked_example_datum())
    text = emit_presentation(pres, "json")
    obj = json.loads(text)
    assert obj["vertices"][1] == "(v2 v4)"
    assert {r["kind"] for r in obj["relations"]} == {"zero", "commutation"}
    again = presentation_from_json(text)
    assert again == pres
    with pytest.raises(ValueError):
        presentation_from_json("not json")
    with pytest.raises(ValueError):
        presentation_from_json(json.dumps({"vertices": []}))


def test_json_of_the_wrong_shape_names_the_field():
    good = {"vertices": ["a", "b"], "arrows": [{"name": "x", "source": "a", "target": "b"}],
            "relations": []}
    cases = [
        ("[]", "the top level"),
        ("5", "the top level"),
        (json.dumps(dict(good, vertices=5)), "vertices"),
        (json.dumps(dict(good, arrows=[5])), "arrows[0]"),
        (json.dumps(dict(good, vertices=[[1], "b"])), "vertices[0]"),
    ]
    for text, field in cases:
        with pytest.raises(ValueError, match=re.escape(f"{field} in presentation json must be")):
            presentation_from_json(text)
    assert presentation_from_json(json.dumps(good)).quiver.vertices == ("a", "b")


def test_dot_marks_operated_vertices():
    pres, vmap = build_presentation(worked_example_datum())
    dot = emit_presentation(pres, "dot", vmap)
    assert '"(v2 v4)" [shape=box]' in dot
    assert "cluster_0" in dot and "style=dashed" in dot
    assert '"v6\'"' in dot
    assert '"v3" -> "v6\'" [label="a5\'"]' in dot
    bare = emit_presentation(pres, "dot")
    assert "cluster" not in bare and "shape=box" not in bare


def test_unknown_format_is_an_error():
    d = NodalDatum(Quiver(("x", "y"), (Arrow("e", "x", "y"),)), (), ())
    pres, vmap = build_presentation(d)
    with pytest.raises(ValueError):
        emit_presentation(pres, "yaml")
    with pytest.raises(TypeError):
        emit_presentation(pres, "dot", vmap="wrong")
