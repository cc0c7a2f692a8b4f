"""Benchmark inputs: base data, seeded relabelling and datum text.

Every input is a fixed structure (a corpus datum, a table configuration,
a line drawn once from a fixed generator seed, a diamond chain).  The
workload seed only renames vertices and arrows and shuffles declaration
order and glue-pair order, which leaves every catalog count, dimension
and verdict unchanged, so the frozen answers hold for every seed.
"""

from __future__ import annotations

import random
import string
from typing import NamedTuple


class Datum(NamedTuple):
    vertices: tuple
    arrows: tuple  # (name, source, target)
    glues: tuple = ()
    blows: tuple = ()


def from_text(text: str) -> Datum:
    vertices, arrows, glues, blows = [], [], [], []
    for line in text.strip().splitlines():
        word, *rest = line.split()
        if word == "vertices":
            vertices.extend(rest)
        elif word == "arrow":
            name, _, src, _, tgt = rest
            arrows.append((name, src, tgt))
        elif word == "glue":
            glues.append(tuple(rest))
        else:
            blows.append(rest[0])
    return Datum(tuple(vertices), tuple(arrows), tuple(glues), tuple(blows))


def to_text(d: Datum) -> str:
    lines = ["vertices " + " ".join(d.vertices)]
    lines += [f"arrow {n} : {s} -> {t}" for n, s, t in d.arrows]
    lines += [f"glue {i} {j}" for i, j in d.glues]
    lines += [f"blow {v}" for v in d.blows]
    return "\n".join(lines) + "\n"


def _fresh_names(rng, count):
    names = set()
    while len(names) < count:
        head = rng.choice(string.ascii_letters)
        tail = "".join(rng.choices(string.ascii_lowercase + string.digits + "_",
                                   k=rng.randint(1, 5)))
        names.add(head + tail)
    out = sorted(names)  # set order follows string hashing, which varies per process
    rng.shuffle(out)
    return out


def relabel(d: Datum, rng):
    """A renamed, reshuffled copy of ``d`` plus the vertex and arrow
    renamings."""
    names = _fresh_names(rng, len(d.vertices) + len(d.arrows))
    vmap = dict(zip(d.vertices, names))
    amap = dict(zip((n for n, _, _ in d.arrows), names[len(d.vertices):]))
    vertices = [vmap[v] for v in d.vertices]
    arrows = [(amap[n], vmap[s], vmap[t]) for n, s, t in d.arrows]
    glues = [
        (vmap[j], vmap[i]) if rng.random() < 0.5 else (vmap[i], vmap[j])
        for i, j in d.glues
    ]
    blows = [vmap[v] for v in d.blows]
    for seq in (vertices, arrows, glues, blows):
        rng.shuffle(seq)
    return Datum(tuple(vertices), tuple(arrows), tuple(glues), tuple(blows)), vmap, amap


# ---------------------------------------------------------------------------
# the data/ corpus, comments dropped

CORPUS = {
    "blown_chain": "vertices 1 i 2\narrow a : 1 -> i\narrow b : i -> 2\nblow i",
    "except_100": (
        "vertices b i j g\narrow beta : b -> i\narrow alpha : j -> i\n"
        "arrow gamma : g -> j\nglue i j"
    ),
    "glued_a2": "vertices 1 2\narrow a : 1 -> 2\nglue 1 2",
    "hereditary_atilde": (
        "vertices c1 c2 c3\narrow a : c1 -> c2\narrow b : c2 -> c3\n"
        "arrow c : c1 -> c3"
    ),
    "invalid": "vertices u1 u2\narrow a : u1 -> u2\nglue u1 u1",
    "kronecker_glue": "vertices 1 2 3\narrow a : 1 -> 2\narrow b : 3 -> 2\nglue 1 3",
    "not_type_a": (
        "vertices c p1 p2 p3\narrow a : p1 -> c\narrow b : p2 -> c\n"
        "arrow d : p3 -> c\nglue p1 p2"
    ),
    "quasi_gentle": (
        "vertices w1 w2 w3 w4\narrow a1 : w1 -> w2\narrow a2 : w2 -> w3\n"
        "arrow a3 : w3 -> w4\nglue w2 w4"
    ),
    "super_00": (
        "vertices ti i x1 x2 j tj\narrow beta : ti -> i\narrow a1 : x1 -> i\n"
        "arrow a2 : x2 -> x1\narrow a3 : j -> x2\narrow gamma : tj -> j\n"
        "glue i j\nglue x1 x2"
    ),
    "wild_point": (
        "vertices y0 y1 y2 y3 y4 y5\narrow t0 : y0 -> y1\n"
        "arrow beta : y1 -> y2\narrow alpha : y3 -> y2\n"
        "arrow gamma : y4 -> y3\narrow t1 : y4 -> y5\nglue y2 y3"
    ),
    "worked_example": (
        "vertices v1 v2 v3 v4 v5 v6 v7\narrow a1 : v1 -> v2\n"
        "arrow a2 : v2 -> v3\narrow a3 : v3 -> v4\narrow a4 : v5 -> v4\n"
        "arrow a5 : v3 -> v6\narrow a6 : v6 -> v7\n"
        "glue v2 v4\nglue v5 v7\nblow v6"
    ),
}


def corpus(name: str) -> Datum:
    return from_text(CORPUS[name])


# ---------------------------------------------------------------------------
# the classified table configurations

def exceptional(n, m, l) -> Datum:
    """One essential gluing on a line with tail parameters (n, m, l):
    the glued pair sits at positions m+1 and m+1+n, the configuration
    edges point into the pair, and the free edges alternate."""
    size = m + n + l + 3
    pi, pj = m + 1, m + 1 + n
    vs = tuple(f"y{k}" for k in range(size))
    arrows = []
    free = 0
    for k in range(size - 1):
        fwd = (vs[k], vs[k + 1])
        back = (vs[k + 1], vs[k])
        if k == pi - 1:
            ends = fwd
        elif k in (pi, pj - 1, pj):
            ends = back
        else:
            ends = fwd if free % 2 == 0 else back
            free += 1
        arrows.append((f"e{k}", *ends))
    return Datum(vs, tuple(arrows), ((vs[pi], vs[pj]),))


def super_exceptional(m, l) -> Datum:
    """The n = 3 configuration with tails (m, l) plus the gluing of the
    endpoints of its middle path edge."""
    vs = tuple([f"e{k}" for k in range(m)] + ["ti", "i", "x1", "x2", "j", "tj"]
               + [f"f{k}" for k in range(l)])
    backward = {"i", "x1", "x2", "j"}  # the edge leaving these points back
    arrows = []
    for k in range(len(vs) - 1):
        u, w = vs[k], vs[k + 1]
        arrows.append((f"a{k}", w, u) if u in backward else (f"a{k}", u, w))
    return Datum(vs, tuple(arrows), (("i", "j"), ("x1", "x2")))


# (n, m, l) points and the double-gluing (m, l) points with their
# verdicts, as frozen by the acceptance suite (criteria 2 and 3)
TABLE_POINTS = (
    ((1, 0, 0), "Finite"), ((3, 1, 0), "Finite"), ((1, 3, 0), "Finite"),
    ((2, 0, 1), "Finite"), ((4, 1, 0), "Tame"), ((2, 2, 0), "Tame"),
    ((1, 4, 0), "Tame"), ((3, 0, 1), "Tame"), ((2, 1, 1), "Wild"),
    ((5, 1, 0), "Wild"), ((1, 5, 0), "Wild"), ((1, 0, 2), "Wild"),
    ((2, 0, 2), "Wild"), ((3, 1, 1), "Wild"), ((4, 2, 0), "Wild"),
    ((5, 0, 1), "Wild"), ((1, 1, 1), "Wild"), ((2, 3, 0), "Wild"),
    ((3, 2, 0), "Wild"), ((6, 1, 0), "Wild"),
)
SUPER_POINTS = (
    ((0, 0), "Finite"), ((1, 0), "Tame"), ((0, 1), "Tame"),
    ((1, 1), "Wild"), ((2, 0), "Wild"),
)


# ---------------------------------------------------------------------------
# random lines, drawn once from fixed seeds

LINE_SEED = 1302
LINE_COUNT = 20


def _random_line(rng, lo, hi):
    n = rng.randint(lo, hi)
    vs = tuple(f"v{k}" for k in range(n))
    arrows = tuple(
        (f"a{k}", vs[k], vs[k + 1]) if rng.random() < 0.5
        else (f"a{k}", vs[k + 1], vs[k])
        for k in range(n - 1)
    )
    return vs, arrows


def line_glue_data():
    rng = random.Random(LINE_SEED)
    out = []
    for _ in range(LINE_COUNT):
        vs, arrows = _random_line(rng, 4, 9)
        pool = list(vs)
        rng.shuffle(pool)
        r = rng.randint(1, (len(vs) - 1) // 2)
        out.append(Datum(vs, arrows, tuple((pool[2 * k], pool[2 * k + 1])
                                           for k in range(r))))
    return out


def line_blow_data():
    rng = random.Random(LINE_SEED + 1)
    out = []
    for _ in range(LINE_COUNT):
        vs, arrows = _random_line(rng, 3, 8)
        out.append(Datum(vs, arrows, (), (rng.choice(vs),)))
    return out


def diamond_chain(k) -> Datum:
    """k diamonds joined end to end, the second joint blown up; the
    number of paths doubles with every diamond."""
    vs = ["v0"]
    arrows = []
    for t in range(k):
        a, b, c, d = f"v{t}", f"b{t}", f"c{t}", f"v{t + 1}"
        vs += [b, c, d]
        arrows += [(f"p{t}", a, b), (f"q{t}", a, c), (f"r{t}", b, d), (f"s{t}", c, d)]
    return Datum(tuple(vs), tuple(arrows), (), ("v1",))
