import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nodalq import (
    GF,
    Arrow,
    Quiver,
    blow_induce,
    glue_induce,
    hereditary,
    make_representation,
    simple_representation,
)
from nodalq.cli import _build_parser, _reflects, run_cli

DATA = Path(__file__).resolve().parent.parent / "data"


def path(name: str) -> str:
    return str(DATA / name)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok_and_problem(capsys):
    code, out, _ = run(capsys, "check", path("worked_example.datum"))
    assert code == 0 and out == "ok\n"
    code, out, _ = run(capsys, "check", path("invalid.datum"))
    assert code == 1
    assert "problem: glue pair (u1, u1) repeats a vertex" in out


def test_present_text_json_dot(capsys):
    code, out, _ = run(capsys, "present", path("worked_example.datum"))
    assert code == 0
    assert "a6'·a5' = a6''·a5''" in out
    code, out, _ = run(
        capsys, "present", path("worked_example.datum"), "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["vertices"][1] == "(v2 v4)"
    assert len(obj["relations"]) == 5
    code, out, _ = run(
        capsys, "present", path("worked_example.datum"), "--format", "dot"
    )
    assert code == 0
    assert '"(v2 v4)" [shape=box]' in out and "style=dashed" in out


def test_classify_verdicts(capsys):
    expected = {
        "except_100.datum": "Finite",
        "super_00.datum": "Finite",
        "kronecker_glue.datum": "Tame",
        "hereditary_atilde.datum": "Tame",
        "wild_point.datum": "Wild",
        "quasi_gentle.datum": "NonWildUnresolved",
        "glued_a2.datum": "Finite",
        "blown_chain.datum": "NonWildUnresolved",
    }
    for name, verdict in expected.items():
        code, out, _ = run(capsys, "classify", path(name))
        assert code == 0, name
        assert out.splitlines()[0] == verdict, name


def test_classify_error_exit_codes(capsys):
    code, _, err = run(capsys, "classify", path("invalid.datum"))
    assert code == 1 and "repeats a vertex" in err
    code, _, err = run(capsys, "classify", path("not_type_a.datum"))
    assert code == 2
    assert "base must have only line or cycle components" in err
    # nilpotency is not decidable for the blown-up datum, same guard applies
    code, _, err = run(capsys, "classify", path("worked_example.datum"))
    assert code == 2


def test_dimension_and_truncation_guard(capsys):
    code, out, _ = run(capsys, "dimension", path("worked_example.datum"))
    assert code == 0 and out == "24\n"
    code, _, err = run(
        capsys, "dimension", path("worked_example.datum"), "--max-path-length", "1"
    )
    assert code == 3 and "length cap" in err


def test_enumerate_output_and_budget(capsys):
    code, out, _ = run(
        capsys, "enumerate", path("glued_a2.datum"),
        "--field", "2", "--max-dim", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices: (1 2)"
    assert lines[1] == "class 1: 1"
    assert lines[2] == "class 2: 2"
    assert lines[-1].startswith("total: 2 classes up to total dimension 2 over GF(2)")
    code, _, err = run(
        capsys, "enumerate", path("glued_a2.datum"),
        "--field", "2", "--max-dim", "4", "--budget", "1",
    )
    assert code == 3 and "budget" in err


# stdout of the exhaustive scan before it enumerated normal forms
ENUMERATE_GOLDEN = {
    ("except_100.datum", "2"): """\
vertices: b, (i j), g
class 1: 0 0 1
class 2: 0 1 0
class 3: 1 0 0
class 4: 0 1 1
class 5: 0 2 0
class 6: 1 1 0
class 7: 0 2 1
class 8: 0 2 1
class 9: 1 1 1
class 10: 1 2 0
class 11: 0 2 2
class 12: 1 2 1
class 13: 1 2 1
total: 13 classes up to total dimension 4 over GF(2) (method scan, 75258 candidates)
""",
    ("kronecker_glue.datum", "3"): """\
vertices: (1 3), 2
class 1: 0 1
class 2: 1 0
class 3: 1 1
class 4: 1 1
class 5: 1 1
class 6: 1 1
class 7: 1 2
class 8: 2 1
class 9: 2 2
class 10: 2 2
class 11: 2 2
class 12: 2 2
class 13: 2 2
class 14: 2 2
class 15: 2 2
total: 15 classes up to total dimension 4 over GF(3) (method scan, 8198 candidates)
""",
    ("glued_a2.datum", "2"): """\
vertices: (1 2)
class 1: 1
class 2: 2
total: 2 classes up to total dimension 4 over GF(2) (method scan, 66066 candidates)
""",
}


# kronecker_glue over GF(2) reaches modules whose End ring is GF(4),
# which the End-ring certificate leaves to the summand probes
CLOSURE_GOLDEN = {
    ("except_100.datum", "2", "7"): """\
vertices: b, (i j), g
class 1: 1 0 0
class 2: 0 1 0
class 3: 0 0 1
class 4: 1 1 0
class 5: 0 2 0
class 6: 0 1 1
class 7: 1 2 0
class 8: 1 1 1
class 9: 0 2 1
class 10: 0 2 1
class 11: 1 2 1
class 12: 1 2 1
class 13: 0 2 2
class 14: 1 2 2
class 15: 1 3 1
class 16: 1 3 2
class 17: 1 4 2
total: 17 classes up to total dimension 7 over GF(2) (method closure, 5472 candidates)
""",
    ("blown_chain.datum", "2", "7"): """\
vertices: 1, i', i'', 2
class 1: 1 0 0 0
class 2: 0 1 0 0
class 3: 0 0 1 0
class 4: 0 0 0 1
class 5: 1 1 0 0
class 6: 1 0 1 0
class 7: 0 1 0 1
class 8: 0 0 1 1
class 9: 0 1 1 1
class 10: 1 1 1 0
class 11: 1 1 1 1
total: 11 classes up to total dimension 7 over GF(2) (method closure, 6392 candidates)
""",
    ("kronecker_glue.datum", "2", "6"): """\
vertices: (1 3), 2
class 1: 1 0
class 2: 0 1
class 3: 1 1
class 4: 1 1
class 5: 1 1
class 6: 2 1
class 7: 1 2
class 8: 2 2
class 9: 2 2
class 10: 2 2
class 11: 2 2
class 12: 3 2
class 13: 2 3
class 14: 3 3
class 15: 3 3
class 16: 3 3
class 17: 3 3
class 18: 3 3
total: 18 classes up to total dimension 6 over GF(2) (method closure, 2946 candidates)
""",
}


def test_enumerate_scan_output_is_frozen(capsys):
    for (name, p), want in ENUMERATE_GOLDEN.items():
        code, out, _ = run(
            capsys, "enumerate", path(name), "--field", p, "--max-dim", "4",
            "--method", "scan",
        )
        assert code == 0 and out == want, name


def test_enumerate_closure_output_is_frozen(capsys):
    for (name, p, bound), want in CLOSURE_GOLDEN.items():
        code, out, _ = run(
            capsys, "enumerate", path(name), "--field", p, "--max-dim", bound,
            "--method", "closure",
        )
        assert code == 0 and out == want, name


def test_negative_numeric_inputs_are_invalid(capsys, monkeypatch):
    code, _, err = run(
        capsys, "enumerate", path("glued_a2.datum"),
        "--field", "2", "--max-dim", "2", "--budget", "-1",
    )
    assert code == 1 and "budget must be nonnegative, got -1" in err
    code, _, err = run(
        capsys, "enumerate", path("glued_a2.datum"), "--field", "2", "--max-dim", "-1"
    )
    assert code == 1 and "max_total must be nonnegative, got -1" in err
    code, _, err = run(
        capsys, "dimension", path("glued_a2.datum"), "--max-path-length", "-5"
    )
    assert code == 1 and "max_path_length must be nonnegative, got -5" in err
    code, out, err = run(capsys, "functors-selftest", "--trials", "-1")
    assert code == 1 and out == "" and "--trials must be nonnegative, got -1" in err
    monkeypatch.setenv("NODALQ_ENUM_BUDGET", "-2")
    code, _, err = run(
        capsys, "enumerate", path("glued_a2.datum"), "--field", "2", "--max-dim", "2"
    )
    assert code == 1 and "budget must be nonnegative, got -2" in err
    # zero stays a valid budget and length cap: they refuse with exit 3
    code, _, err = run(
        capsys, "enumerate", path("glued_a2.datum"),
        "--field", "2", "--max-dim", "2", "--budget", "0",
    )
    assert code == 3 and "over the budget 0" in err
    code, _, err = run(
        capsys, "dimension", path("glued_a2.datum"), "--max-path-length", "0"
    )
    assert code == 3 and "length cap 0" in err


def test_enumerate_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("NODALQ_ENUM_BUDGET", "1")
    code, _, err = run(
        capsys, "enumerate", path("glued_a2.datum"), "--field", "2", "--max-dim", "4"
    )
    assert code == 3 and "budget" in err
    monkeypatch.setenv("NODALQ_ENUM_BUDGET", "lots")
    code, _, err = run(
        capsys, "enumerate", path("glued_a2.datum"), "--field", "2", "--max-dim", "2"
    )
    assert code == 1 and "NODALQ_ENUM_BUDGET" in err


def test_enumerate_rejects_bad_field(capsys):
    code, _, err = run(
        capsys, "enumerate", path("glued_a2.datum"), "--field", "6", "--max-dim", "2"
    )
    assert code == 1 and "characteristic" in err


def test_usage_and_io_errors(capsys):
    code, _, err = run(capsys)
    assert code == 1
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "check", path("missing.datum"))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "enumerate", path("glued_a2.datum"), "--field", "2")
    assert code == 1 and "usage error" in err


def test_one_parser_serves_every_call(capsys):
    # a refused cap must not stick to the next call's defaults
    calls = [
        ("dimension", "--max-path-length"),
        ("dimension", path("worked_example.datum"), "--max-path-length", "1"),
        ("dimension", path("worked_example.datum")),
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 3, 0]
    assert "usage error" in shared[0][2]
    assert "length cap 1" in shared[1][2]
    assert shared[2][1] == "24\n"


def test_enumerate_methods_agree_on_an_empty_datum(tmp_path, capsys):
    # a datum with no vertex passes check; both methods list no class
    empty = tmp_path / "empty.datum"
    empty.write_text("", encoding="utf-8")
    assert run(capsys, "check", str(empty)) == (0, "ok\n", "")
    for bound in range(4):
        for budget in ([], ["--budget", "0"]):
            want = (0, "vertices: \ntotal: 0 classes up to total dimension"
                       f" {bound} over GF(2) (method {{}}, 0 candidates)\n", "")
            for method in ("scan", "closure"):
                got = run(capsys, "enumerate", str(empty), "--field", "2",
                          "--max-dim", str(bound), "--method", method, *budget)
                assert got == (want[0], want[1].format(method), want[2]), (bound, method)


def test_syntax_error_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.datum"
    bad.write_text("vertices a\nglue a\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1 and "line 2" in err


def test_functors_selftest(capsys):
    code, out, _ = run(capsys, "functors-selftest", "--trials", "3", "--seed", "7")
    assert code == 0
    assert out.startswith("selftest passed:")
    code, out, _ = run(capsys, "functors-selftest", "--trials", "10", "--seed", "1")
    assert code == 0
    assert out == "selftest passed: 100 checks\n"
    code, out, _ = run(capsys, "functors-selftest", "--trials", "25", "--seed", "42")
    assert code == 0
    assert out == "selftest passed: 250 checks\n"


def test_selftest_reflection_check_sees_non_isomorphic_sources():
    # equal push-forwards of non-isomorphic representations must fail
    # the check, for the blow-up and for a glued pair
    field = GF(2)
    chain = hereditary(Quiver(("1", "i", "2"), (Arrow("a", "1", "i"), Arrow("b", "i", "2"))))
    m1, m2 = simple_representation(chain, field, "i"), simple_representation(chain, field, "1")
    f = blow_induce(m1, "i")
    assert not _reflects(m1, m2, f, f, None)
    sources = hereditary(Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "3", "2"))))
    m1 = simple_representation(sources, field, "2")
    m2 = make_representation(sources, field, {"1": 1, "2": 1}, {"a": [[1]]})
    f = glue_induce(m1, "1", "3")
    assert not _reflects(m1, m2, f, f, ("1", "3"))


def test_functors_selftest_reports_each_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        "nodalq.cli.check_relations", lambda m: (False, ("word x does not vanish",))
    )
    code, out, _ = run(capsys, "functors-selftest", "--trials", "1", "--seed", "0")
    assert code == 1
    expected = [
        f"trial 0: {case} broke relations on the {which} representation:"
        " word x does not vanish"
        for case in ("inessential gluing", "essential gluing", "blow-up")
        for which in ("first", "second")
    ]
    assert out.splitlines() == expected + ["selftest FAILED: 6 of 10 checks"]


def test_enumerate_long_line_within_a_small_recursion_limit(tmp_path, nodalq_on_path):
    # enumeration must not recurse once per vertex
    n = 300
    lines = ["vertices " + " ".join(f"v{k}" for k in range(n))]
    lines += [f"arrow a{k} : v{k} -> v{k + 1}" for k in range(n - 1)]
    datum = tmp_path / "line.datum"
    datum.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = (
        "import sys; sys.setrecursionlimit(150)\n"
        "from nodalq.cli import run_cli\n"
        f"sys.exit(run_cli(['enumerate', {str(datum)!r}, '--field', '2', '--max-dim', '1']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "total: 300 classes" in proc.stdout


def test_enumerate_closure_high_bound_within_a_small_recursion_limit(tmp_path, nodalq_on_path):
    # the closure must not recurse once per summand of a direct sum
    datum = tmp_path / "point.datum"
    datum.write_text("vertices v\n", encoding="utf-8")
    code = (
        "import sys; sys.setrecursionlimit(150)\n"
        "from nodalq.cli import run_cli\n"
        f"sys.exit(run_cli(['enumerate', {str(datum)!r}, '--field', '2',"
        " '--max-dim', '200', '--method', 'closure']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "total: 1 classes" in proc.stdout


def test_dimension_long_line_within_a_small_recursion_limit(tmp_path, nodalq_on_path):
    # counting paths must not recurse once per arrow of a path
    n = 300
    lines = ["vertices " + " ".join(f"v{k}" for k in range(n))]
    lines += [f"arrow a{k} : v{k} -> v{k + 1}" for k in range(n - 1)]
    datum = tmp_path / "line.datum"
    datum.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = (
        "import sys; sys.setrecursionlimit(150)\n"
        "from nodalq.cli import run_cli\n"
        f"sys.exit(run_cli(['dimension', {str(datum)!r}, '--max-path-length', '400']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{n * (n + 1) // 2}\n"


def test_console_script_entry(nodalq_on_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nodalq", "classify", path("except_100.datum")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "Finite"
    proc = subprocess.run(
        ["nodalq", "dimension", path("glued_a2.datum")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "2\n"


@st.composite
def _datums(draw):
    """Datum text over a few declared vertices: arrows running forward in
    declaration order, so the base is acyclic, gluings and blow-ups on
    distinct vertices, and at most one stray line (junk, or a directive
    on any vertices) inserted anywhere."""
    vs = draw(st.lists(st.sampled_from(["1", "2", "3", "4", "a", "(u)", "x_1"]),
                       min_size=1, max_size=5, unique=True))
    pair = st.tuples(st.sampled_from(vs), st.sampled_from(vs))
    lines = ["vertices " + " ".join(vs)]
    for k, ends in enumerate(draw(st.lists(pair, max_size=6))):
        s, t = sorted(ends, key=vs.index)
        if s != t:
            lines.append(f"arrow a{k} : {s} -> {t}")
    order = draw(st.permutations(vs))
    glued = draw(st.integers(0, len(vs) // 2))
    lines += [f"glue {order[2 * k]} {order[2 * k + 1]}" for k in range(glued)]
    blown = draw(st.integers(0, len(vs) - 2 * glued))
    lines += [f"blow {b}" for b in order[2 * glued:2 * glued + blown]]
    stray = st.one_of(
        st.text(alphabet="vertices arowglub:->#()12_\t'é", max_size=24),
        pair.map(lambda e: f"arrow z : {e[0]} -> {e[1]}"),
        pair.map(lambda e: f"glue {e[0]} {e[1]}"),
        st.sampled_from(vs).map(lambda b: f"blow {b}"),
    )
    for pos, text in draw(st.lists(st.tuples(st.integers(0, len(lines)), stray),
                                   max_size=1)):
        lines.insert(pos, text)
    return "\n".join(lines) + "\n"


_COMMANDS = st.sampled_from([
    ["check"], ["present"], ["present", "--format", "json"],
    ["present", "--format", "dot"], ["classify"], ["dimension"],
    ["dimension", "--max-path-length", "0"], ["dimension", "--max-path-length", "1"],
    ["dimension", "--max-path-length", "3"],
    ["enumerate", "--field", "2", "--max-dim", "2"],
    ["enumerate", "--field", "3", "--max-dim", "3", "--method", "closure"],
])


@settings(derandomize=True, database=None, max_examples=150, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_datums(), command=_COMMANDS)
def test_generated_data_keep_the_exit_code_contract(tmp_path, capsys, text, command):
    datum = tmp_path / "fuzz.datum"
    datum.write_text(text, encoding="utf-8")
    code = run_cli([command[0], str(datum), *command[1:]])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in captured.out + captured.err
