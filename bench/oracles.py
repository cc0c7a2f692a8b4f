"""Independent answer oracles for the benchmark.

Nothing here imports nodalq: the path counts, the dimension laws, the
rank computations and the interval bookkeeping are written from the
definitions, so an agreement with the program is evidence, not an echo.
"""

from __future__ import annotations


def _reach_counts(vertices, arrows):
    """Per vertex, the number of paths starting there, trivial one included."""
    outs = {v: [] for v in vertices}
    for _, s, t in arrows:
        outs[s].append(t)
    memo = {}

    def walk(v):
        if v not in memo:
            memo[v] = 1 + sum(walk(w) for w in outs[v])
        return memo[v]

    return {v: walk(v) for v in vertices}


def count_paths(vertices, arrows) -> int:
    """All paths of an acyclic quiver, trivial ones included."""
    return sum(_reach_counts(vertices, arrows).values())


def paths_from(vertices, arrows, v) -> int:
    """Nonempty paths starting at ``v``."""
    return _reach_counts(vertices, arrows)[v] - 1


def paths_into(vertices, arrows, v) -> int:
    """Nonempty paths ending at ``v``."""
    return paths_from(vertices, [(n, t, s) for n, s, t in arrows], v)


def dimension_law(d):
    """Algebra dimension by the README laws, or None when no law applies.

    A gluing-only datum has ``paths - #glues``; a single blow-up with no
    gluing has ``paths + p_in + p_out + 1``.
    """
    paths = count_paths(d.vertices, d.arrows)
    if not d.blows:
        return paths - len(d.glues)
    if len(d.blows) == 1 and not d.glues:
        v = d.blows[0]
        return (
            paths + paths_into(d.vertices, d.arrows, v)
            + paths_from(d.vertices, d.arrows, v) + 1
        )
    return None


def presentation_shape(d):
    """(#vertices, #arrows, #relations) of the built presentation, or
    None for data mixing gluings with blow-ups."""
    if d.glues and d.blows:
        return None
    ins = {v: 0 for v in d.vertices}
    outs = {v: 0 for v in d.vertices}
    for _, s, t in d.arrows:
        outs[s] += 1
        ins[t] += 1
    nv = len(d.vertices) - len(d.glues) + len(d.blows)
    na = len(d.arrows) + sum(ins[v] + outs[v] for v in d.blows)
    # gluing i, j kills every arrow leaving one after an arrow entering
    # the other; blowing v up adds one commutation per passage through v
    nr = sum(outs[i] * ins[j] + outs[j] * ins[i] for i, j in d.glues)
    nr += sum(ins[v] * outs[v] for v in d.blows)
    return nv, na, nr


def gf_rank(rows, p: int) -> int:
    """Rank over GF(p) of a matrix given as a list of rows of ints."""
    m = [[x % p for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _mat_mul(a, b, p):
    return [
        [sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
        for row in a
    ]


def interval_multiplicities(shape, dims, mats, p):
    """Multiplicity of each interval module in a representation of a
    two- or three-vertex line, read off ranks of the arrow maps.

    ``shape`` is ``"a2"`` (x -a-> y), ``"chain"`` (x -a-> m -b-> y) or
    ``"zigzag"`` (x -a-> m <-b- y); ``dims`` and ``mats`` are keyed by
    those role names, each matrix a list of exactly target-dimension
    rows of source-dimension entries.  By Gabriel's theorem these counts
    are a complete isomorphism invariant.
    """
    if shape == "a2":
        ra = gf_rank(mats["a"], p)
        return {"x": dims["x"] - ra, "y": dims["y"] - ra, "xy": ra}
    dx, dm, dy = dims["x"], dims["m"], dims["y"]
    ra = gf_rank(mats["a"], p)
    rb = gf_rank(mats["b"], p)
    if shape == "chain":
        rba = gf_rank(_mat_mul(mats["b"], mats["a"], p), p)
        return {
            "x": dx - ra, "m": dm - ra - rb + rba, "y": dy - rb,
            "xm": ra - rba, "my": rb - rba, "xmy": rba,
        }
    if shape == "zigzag":
        rab = gf_rank([ra_ + rb_ for ra_, rb_ in zip(mats["a"], mats["b"])], p)
        return {
            "x": dx - ra, "m": dm - rab, "y": dy - rb,
            "xm": rab - rb, "my": rab - ra, "xmy": ra + rb - rab,
        }
    raise ValueError(f"unknown line shape {shape!r}")


def intervals(shape):
    """Interval modules of the shape, as (name, total dimension)."""
    if shape == "a2":
        return (("x", 1), ("y", 1), ("xy", 2))
    return (("x", 1), ("m", 1), ("y", 1), ("xm", 2), ("my", 2), ("xmy", 3))


def merge_simples(mults, pair):
    """Identify the simple summands at the two glued roles: a gluing sees
    only how many of them there are, not where they sit."""
    out = {k: v for k, v in mults.items() if k not in pair}
    out["glued"] = sum(mults[k] for k in pair)
    return out


def count_iso_classes(shape, max_total: int, merged_pair=()) -> int:
    """Isomorphism classes of representations with total dimension in
    ``1..max_total``, optionally with the simples at ``merged_pair``
    identified, counted as multisets of interval modules."""
    weights = [w for name, w in intervals(shape) if name not in merged_pair]
    if merged_pair:
        weights.append(1)
    # coefficients of prod 1/(1 - x^w), summed up to x^max_total, less
    # the empty multiset
    ways = [1] + [0] * max_total
    for w in weights:
        for t in range(w, max_total + 1):
            ways[t] += ways[t - w]
    return sum(ways) - 1
