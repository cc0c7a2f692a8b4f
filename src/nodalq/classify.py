"""Representation-type decision for nodal data over type A bases.

The decision procedure: strip gluings that provably never change the
representation type, then classify component by component.  A component
whose presentation keeps no relations is hereditary and falls to the
classical Dynkin/Euclidean dichotomy.  A component whose operated
vertices all have at most one in-arrow and one out-arrow is quasi-gentle
and therefore not wild, but the finite-vs-tame split is out of scope and
reported as NonWildUnresolved.  A component formed by one essential
gluing on a line, with the merged vertex sitting on an n-arrow cycle and
carrying two mandatory pendant tails, is decided by the (n, m, l) lookup
tables; the variant with a second essential gluing of the middle cycle
arrow's endpoints (n = 3) has its own table.  Everything else is wild.

Verdicts combine across components by worst case; an unresolved
component absorbs tame ones because the join cannot be certified tame.

Each public entry prepares its datum once: it validates it, requires a
line/cycle base and strips the inessential gluings, keeping the shapes
of the base.  The private rules read a prepared datum and those shapes
and never prepare again; the operations on a component of one, over
the same base, are prepared as they stand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import InvalidDatum, NodalDatum, _inessential_order, build_presentation, validate
from .quiver import (
    ACYCLE,
    ALINE,
    DYNKIN_D,
    DYNKIN_E,
    EUCLIDEAN_D,
    EUCLIDEAN_E,
    Arrow,
    MonomialZero,
    Presentation,
    Quiver,
    ShapeReport,
    _induced_quiver,
    underlying_shape,
)

FINITE = "Finite"
TAME = "Tame"
WILD = "Wild"
NON_WILD_UNRESOLVED = "NonWildUnresolved"

_SEVERITY = {FINITE: 0, TAME: 1, NON_WILD_UNRESOLVED: 2, WILD: 3}


class NotTypeA(ValueError):
    pass


class CyclicQuiver(ValueError):
    pass


class UnknownPair(ValueError):
    pass


@dataclass(frozen=True)
class RepType:
    verdict: str
    trace: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in _SEVERITY:
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass(frozen=True)
class ExceptionalParams:
    """Parameters of the single-cycle glued configuration.

    ``n`` is the number of arrows on the cycle through the merged
    vertex, ``m`` and ``l`` count the tail arrows beyond the two
    mandatory pendant arrows.  ``case`` is "one" when the cycle enters
    the merged vertex next to both pendant heads and "two" in the
    mirror-image orientation.  ``is_super`` marks the variant with the
    additional gluing of the middle cycle arrow's endpoints.
    """

    n: int
    m: int
    l: int
    case: str
    is_super: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 0 or self.l < 0:
            raise ValueError("need n >= 1, m >= 0, l >= 0")
        if self.case not in ("one", "two"):
            raise ValueError(f"case must be 'one' or 'two', got {self.case!r}")
        if self.is_super and self.n != 3:
            raise ValueError("the doubly-glued variant requires n = 3")


@dataclass(frozen=True)
class Detection:
    params: object  # ExceptionalParams or None
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.params is not None


@dataclass(frozen=True)
class GentleReport:
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_inessential(d: NodalDatum, pair) -> bool:
    """True when some ordering (i, j) of the pair has no arrows into i
    and none out of j, in the base quiver; such a gluing never changes
    the representation type."""
    i, j = tuple(pair)
    if not any({i, j} == set(p) for p in d.glue_pairs):
        raise UnknownPair(f"({i}, {j}) is not a glue pair of this datum")
    return _inessential_order(d.base, i, j) is not None


def strip_inessential(d: NodalDatum) -> NodalDatum:
    kept = tuple(p for p in d.glue_pairs if not is_inessential(d, p))
    return NodalDatum(d.base, kept, d.blow_vertices)


def _type_a_guard(q: Quiver) -> ShapeReport:
    """The shapes of ``q``, which must all be lines or cycles."""
    shapes = underlying_shape(q)
    bad = [s for s in shapes.components if s.label not in (ALINE, ACYCLE)]
    if bad:
        msgs = ", ".join(f"component of {s.vertices[0]!r} is {s.label}" for s in bad)
        raise NotTypeA(f"base must have only line or cycle components: {msgs}")
    return shapes


def _stripped(d: NodalDatum) -> tuple[NodalDatum, ShapeReport]:
    """Validate a datum, require a line/cycle base and strip its
    inessential gluings; with the shapes of its base."""
    report = validate(d)
    if not report.ok:
        raise InvalidDatum("; ".join(report.problems))
    shapes = _type_a_guard(d.base)
    return strip_inessential(d), shapes


def gabriel_type(q: Quiver) -> RepType:
    """Representation type of the hereditary algebra of an acyclic quiver."""
    shapes = underlying_shape(q)
    if not shapes.acyclic:
        raise CyclicQuiver("hereditary classification needs an acyclic quiver")
    finite_labels = (ALINE, DYNKIN_D, DYNKIN_E)
    tame_labels = (ACYCLE, EUCLIDEAN_D, EUCLIDEAN_E)
    trace = []
    worst = FINITE
    for s in shapes.components:
        if s.label in finite_labels:
            v = FINITE
        elif s.label in tame_labels:
            v = TAME
        else:
            v = WILD
        trace.append(
            f"hereditary component of {s.vertices[0]!r}: underlying graph {s.label}"
            f" on {s.size} vertices: {v}"
        )
        if _SEVERITY[v] > _SEVERITY[worst]:
            worst = v
    return RepType(worst, tuple(trace))


def is_gentle_presentation(p: Presentation) -> GentleReport:
    """Check the four defining axioms of a gentle presentation.

    Diagnostic rather than raising: every violated axiom contributes a
    problem line.  Loops count toward both the in- and out-degree.
    """
    q = p.quiver
    problems = []
    for v in q.vertices:
        ins = len(q.in_arrows(v))
        outs = len(q.out_arrows(v))
        if ins > 2:
            problems.append(f"vertex {v!r} has {ins} in-arrows, at most 2 allowed")
        if outs > 2:
            problems.append(f"vertex {v!r} has {outs} out-arrows, at most 2 allowed")
    zero2 = set()
    for w in p.zero_words():
        if len(w) != 2:
            problems.append(f"zero relation {'·'.join(w)} has length {len(w)}, need 2")
        else:
            zero2.add(w)
    for lhs, rhs in p.commutation_pairs():
        problems.append(
            f"commutation {'·'.join(lhs)} = {'·'.join(rhs)} is not a length-two zero relation"
        )
    for v in q.vertices:
        outs = q.out_arrows(v)
        ins = q.in_arrows(v)
        if len(outs) == 2:
            a1, a2 = outs
            for b in ins:
                hits = ((a1.name, b.name) in zero2) + ((a2.name, b.name) in zero2)
                if hits != 1:
                    problems.append(
                        f"at vertex {v!r}: arrow {b.name!r} continues into"
                        f" {hits} of the two outgoing arrows as a zero relation, need exactly one"
                    )
        if len(ins) == 2:
            b1, b2 = ins
            for a in outs:
                hits = ((a.name, b1.name) in zero2) + ((a.name, b2.name) in zero2)
                if hits != 1:
                    problems.append(
                        f"at vertex {v!r}: arrow {a.name!r} is reached by"
                        f" {hits} of the two incoming arrows as a zero relation, need exactly one"
                    )
    return GentleReport(not problems, tuple(problems))


def is_quasi_gentle(d: NodalDatum) -> bool:
    """True when, after stripping, every operated vertex has at most one
    in-arrow and at most one out-arrow in the base quiver."""
    return _is_quasi_gentle(_stripped(d)[0])


def _is_quasi_gentle(s: NodalDatum) -> bool:
    operated = [v for pair in s.glue_pairs for v in pair]
    operated.extend(s.blow_vertices)
    base = s.base
    return all(
        len(base.in_arrows(v)) <= 1 and len(base.out_arrows(v)) <= 1 for v in operated
    )


def _line_walk(q: Quiver, comp: tuple[str, ...]) -> tuple[list[str], list[Arrow]]:
    """A line-shaped component's vertices in path order, from its first
    end in quiver order, and the arrow joining each consecutive pair."""
    ends = q.arrow_ends

    def incident(k):
        return q.arrows_out[k] + q.arrows_in[k]

    cur = next(k for k in map(q.vertex_index.get, comp) if len(incident(k)) <= 1)
    order, edges = [cur], []
    while len(order) < len(comp):
        a = next(a for a in incident(cur) if edges[-1:] != [a])
        cur = ends[a][1] if ends[a][0] == cur else ends[a][0]
        order.append(cur)
        edges.append(a)
    return [q.vertices[k] for k in order], [q.arrows[a] for a in edges]


def _try_configuration(order, edges, pi: int, pj: int, case: str):
    """Match the single-gluing shape with the pair at positions pi, pj.

    The candidate merged-cycle path runs between the two positions; each
    glued vertex needs one pendant (tail-side) edge, so both must be
    interior.  In case "one" the pendant edge and the adjacent cycle
    edge both point into the first vertex while the cycle leaves the
    second vertex and its pendant points in; case "two" reverses every
    one of those four orientations.
    """
    N = len(order)
    i, j = order[pi], order[pj]
    if pi < pj:
        i_tail, i_path = pi - 1, pi
        j_path, j_tail = pj - 1, pj
        n, m, l = pj - pi, pi - 1, N - 2 - pj
    else:
        i_tail, i_path = pi, pi - 1
        j_path, j_tail = pj, pj - 1
        n, m, l = pi - pj, N - 2 - pi, pj - 1
    for idx in (i_tail, i_path, j_path, j_tail):
        if idx < 0 or idx >= N - 1:
            return None
    beta, alpha_first = edges[i_tail], edges[i_path]
    alpha_last, gamma = edges[j_path], edges[j_tail]
    if case == "one":
        ok = (
            beta.target == i
            and alpha_first.target == i
            and alpha_last.source == j
            and gamma.target == j
        )
    else:
        ok = (
            beta.source == i
            and alpha_first.source == i
            and alpha_last.target == j
            and gamma.source == j
        )
    if not ok:
        return None
    return ExceptionalParams(n, m, l, case)


def _match(q: Quiver, shapes: ShapeReport, pair) -> tuple[Detection, list[str]]:
    """The single-gluing detection of an essential pair of ``q``, whose
    shapes are ``shapes``, and the walked vertex order of its line
    component (empty when none was walked)."""
    i, j = pair
    shape = next(sh for sh in shapes.components if i in sh.vertices)
    if j not in shape.vertices:
        note = "glued vertices lie in different base components, so no cycle forms"
        return Detection(None, (note,)), []
    if shape.label != ALINE:
        note = (
            "the glued pair lies on a cycle-shaped base component; such"
            " configurations are outside the classified tables and are"
            " treated as not matching"
        )
        return Detection(None, (note,)), []
    order, edges = _line_walk(q, shape.vertices)
    pos = {v: k for k, v in enumerate(order)}
    for iv, jv in ((i, j), (j, i)):
        for case in ("one", "two"):
            params = _try_configuration(order, edges, pos[iv], pos[jv], case)
            if params is not None:
                return Detection(params), order
    note = "arrow orientations around the glued pair match neither configuration"
    return Detection(None, (note,)), order


def detect_exceptional(d: NodalDatum) -> Detection:
    """Recognize the single-essential-gluing cycle-with-two-tails shape.

    Succeeds only when, after stripping, the datum has exactly one glue
    pair, no blow-ups, and the pair sits on one line-shaped base
    component oriented so that the merged vertex carries an n-arrow
    cycle plus two mandatory pendant arrows with free tails.
    """
    return _detect_exceptional(*_stripped(d))


def _detect_exceptional(s: NodalDatum, shapes: ShapeReport) -> Detection:
    if len(s.glue_pairs) != 1:
        return Detection(
            None, (f"need exactly one essential gluing, found {len(s.glue_pairs)}",)
        )
    if s.blow_vertices:
        return Detection(None, ("blow-ups present alongside the gluing",))
    return _match(s.base, shapes, s.glue_pairs[0])[0]


def detect_super_exceptional(d: NodalDatum) -> Detection:
    """Recognize the n = 3 cycle shape with its middle arrow's endpoints
    glued by a second essential gluing."""
    return _detect_super_exceptional(*_stripped(d))


def _detect_super_exceptional(s: NodalDatum, shapes: ShapeReport) -> Detection:
    if len(s.glue_pairs) != 2:
        return Detection(
            None, (f"need exactly two essential gluings, found {len(s.glue_pairs)}",)
        )
    if s.blow_vertices:
        return Detection(None, ("blow-ups present alongside the gluings",))
    notes = []
    for exc_pair, other in (s.glue_pairs, s.glue_pairs[::-1]):
        det, order = _match(s.base, shapes, exc_pair)
        if not det:
            continue
        p = det.params
        if p.n != 3:
            notes.append(
                f"gluing ({exc_pair[0]}, {exc_pair[1]}) matches with n={p.n},"
                " but the doubly-glued shape needs n=3"
            )
            continue
        lo = min(map(order.index, exc_pair))
        if set(other) != {order[lo + 1], order[lo + 2]}:
            notes.append(
                f"second gluing ({other[0]}, {other[1]}) does not join the"
                " endpoints of the middle cycle arrow"
            )
            continue
        return Detection(ExceptionalParams(3, p.m, p.l, p.case, is_super=True))
    return Detection(None, tuple(notes))


def exceptional_type(p: ExceptionalParams) -> RepType:
    """Look up the representation type of a detected configuration."""
    n, m, l = p.n, p.m, p.l
    if p.is_super:
        if m == 0 and l == 0:
            verdict = FINITE
        elif m + l == 1:
            verdict = TAME
        else:
            verdict = WILD
        return RepType(
            verdict,
            (
                f"doubly-glued cycle shape with tails (m, l) = ({m}, {l}):"
                f" {verdict}",
            ),
        )
    finite = (
        (m == 0 and l == 0)
        or (l == 0 and m == 1 and n <= 3)
        or (l == 0 and 2 <= m <= 3 and n == 1)
        or (m == 0 and l == 1 and n <= 2)
    )
    tame = (
        (l == 0 and m == 1 and n == 4)
        or (l == 0 and m == 2 and n == 2)
        or (l == 0 and m == 4 and n == 1)
        or (m == 0 and l == 1 and n == 3)
    )
    verdict = FINITE if finite else TAME if tame else WILD
    return RepType(
        verdict,
        (
            f"glued cycle shape, case {p.case}, parameters (n, m, l) ="
            f" ({n}, {m}, {l}): {verdict}",
        ),
    )


def classify(d: NodalDatum) -> RepType:
    """Decide the representation type of the algebra presented by a datum.

    Pipeline: validate, require a line/cycle base, strip inessential
    gluings, then classify each connected component of the glued quiver
    and combine by worst verdict (Finite < Tame < NonWildUnresolved <
    Wild).  The trace records each decision in order.
    """
    s, shapes = _stripped(d)
    trace = []
    for pair in d.glue_pairs:
        if pair not in s.glue_pairs:
            trace.append(
                f"stripped inessential gluing ({pair[0]}, {pair[1]});"
                " it cannot change the representation type"
            )
    pres, gmap = build_presentation(s)
    if not pres.relations:
        g = gabriel_type(pres.quiver)
        trace.append("no relations remain; the algebra is hereditary")
        trace.extend(g.trace)
        return RepType(g.verdict, tuple(trace))

    glued_comps = pres.quiver.undirected_components()
    comp_of = {v: k for k, c in enumerate(glued_comps) for v in c}
    related = {
        comp_of[(r.path if isinstance(r, MonomialZero) else r.lhs).target]
        for r in pres.relations
    }

    verdicts = []
    for k, comp in enumerate(glued_comps):
        label = f"component of {comp[0]!r}"
        if k not in related:
            g = gabriel_type(_induced_quiver(pres.quiver, comp))
            verdicts.append(g.verdict)
            trace.append(f"{label}: relation-free")
            trace.extend(g.trace)
            continue
        # the operations on whole base components of a prepared datum,
        # over its whole base: prepared as it stands
        base_vs = {v for v in d.base.vertices if comp_of[gmap.vertex_map[v][0]] == k}
        sub = NodalDatum(
            s.base,
            tuple(p for p in s.glue_pairs if p[0] in base_vs),
            tuple(v for v in s.blow_vertices if v in base_vs),
        )
        if _is_quasi_gentle(sub):
            verdicts.append(NON_WILD_UNRESOLVED)
            trace.append(
                f"{label}: every operated vertex keeps at most one in- and one"
                " out-arrow, so the algebra piece is quasi-gentle: not wild;"
                " the finite-vs-tame split is left unresolved"
            )
            continue
        notes = []
        for rule, shape in (
            (_detect_exceptional, "single-gluing"),
            (_detect_super_exceptional, "doubly-glued"),
        ):
            det = rule(sub, shapes)
            if det:
                t = exceptional_type(det.params)
                verdicts.append(t.verdict)
                trace.append(f"{label}: {shape} cycle shape recognized")
                trace.extend(t.trace)
                break
            notes.extend(det.notes)
        else:
            verdicts.append(WILD)
            trace.append(f"{label}: no non-wild configuration matches: Wild")
            trace.extend(f"{label}: {note}" for note in notes)

    combined = max(verdicts, key=lambda v: _SEVERITY[v])
    if combined == NON_WILD_UNRESOLVED and TAME in verdicts:
        trace.append(
            "a tame component combines with an unresolved one; the join cannot"
            " be certified tame and stays unresolved"
        )
    if len(verdicts) > 1:
        trace.append(f"combined verdict over {len(verdicts)} components: {combined}")
    return RepType(combined, tuple(trace))


def tits_witness(x: int, y1: int, y2: int) -> int:
    """Quadratic form value witnessing wildness of the critical matrix
    problem: negative at (2, 1, 1)."""
    return x * x + 2 * y1 * y1 + y2 * y2 + 2 * y1 * y2 - 3 * x * y1 - 2 * x * y2
