"""The four workloads: seeded inputs, the jobs of one pass, answer checks.

A workload's ``setup(nq, seed, workdir)`` builds its inputs from the seed
and returns a list of ``State`` variants, each holding the jobs of one
pass plus whatever the checks need; ``check(state, results)`` returns one
verdict per job of that variant.  Variants are relabellings drawn from
the seed: consecutive passes cycle through them, so a run averages over
the declaration orders instead of timing a single one.  The program is
reached only through the imported package ``nq`` at call time, so a
tracer that swaps wrappers into the package sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass, field

import data
import oracles


@dataclass
class State:
    jobs: list  # (name, thunk) pairs, run in order once per pass
    setup_checks: list = field(default_factory=list)  # (name, ok)
    enum_jobs: dict = field(default_factory=dict)  # name -> (examined, classes)
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Raised:
    """A job's answer when the program raised instead of answering."""

    kind: str
    message: str


# ---------------------------------------------------------------------------
# closure and scan: catalogs of indecomposables

# (dataset, field, bound, expected count).  13/15/16/17 for except_100 and
# 11 for the glued Kronecker quiver over GF(2) are frozen by the test
# suite; super_00 = 43, blown_chain = 11 and the GF(3) Kronecker count 15
# are checked to agree between the two methods by this package's tests.
CLOSURE_JOBS = (
    ("except_100", 2, 7, 17),
    ("super_00", 2, 5, 43),
    ("blown_chain", 2, 7, 11),
)
SCAN_JOBS = (
    ("except_100", 2, 4, 13),
    ("kronecker_glue", 3, 4, 15),
)
CLOSURE_BUDGET = 64
SCAN_BUDGET = 16  # the CLI default
VARIANTS = 8  # relabellings per run, for all workloads but functor


def variant_rngs(seed, count):
    return [random.Random(f"{seed}:{k}") for k in range(count)]


def enum_job_name(method, dataset, p, bound):
    return f"{method}-{dataset}-gf{p}-b{bound}"


def enumeration_jobs():
    """Names of every enumeration job, across all workloads."""
    names = [enum_job_name("closure", d, p, b) for d, p, b, _ in CLOSURE_JOBS]
    names += [enum_job_name("scan", d, p, b) for d, p, b, _ in SCAN_JOBS]
    names += [f"functor-{fx.dataset}-{side}"
              for fx in FIXTURES for side in ("base", "target")]
    return names


def _presentation(nq, d):
    return nq.build_presentation(nq.parse_datum(data.to_text(d)))[0]


def _catalog_setup(method, jobs, budget):
    def setup(nq, seed, workdir):
        return [variant(nq, rng) for rng in variant_rngs(seed, VARIANTS)]

    def variant(nq, rng):
        state = State(jobs=[])
        for dataset, p, bound, expected in jobs:
            d, _, _ = data.relabel(data.corpus(dataset), rng)
            pres = _presentation(nq, d)
            field_ = nq.GF(p)

            name = enum_job_name(method, dataset, p, bound)

            def thunk(pres=pres, field_=field_, bound=bound, name=name):
                r = nq.enumerate_indecomposables(
                    pres, field_, bound, budget=budget, method=method)
                state.enum_jobs[name] = (r.examined, r.count)
                return r.count, r.examined

            state.jobs.append((name, thunk))
            state.extra.setdefault("expected", []).append(expected)
        return state
    return setup


def _catalog_check(state, results):
    return [not isinstance(answer, Raised) and answer[0] == expected
            for (_, _, answer), expected in zip(results, state.extra["expected"])]


# ---------------------------------------------------------------------------
# functor: push-forwards along a gluing or blow-up, decomposed both sides

@dataclass(frozen=True)
class Fixture:
    dataset: str
    shape: str  # line shape of the base, see oracles.interval_multiplicities
    functor: str  # glue_induce_inessential, glue_induce or blow_induce
    roles: dict  # role -> base vertex or arrow name in the corpus datum
    max_total: int  # every base representation up to this total is a job
    target_method: str
    target_bound: int
    base_classes: int
    target_classes: int


# Base catalogs are complete at the vertex count (interval modules).  The
# dual numbers have two indecomposables, both of total at most 2; the
# commutative square is representation-finite with 11 classes, all found
# by total 4, so its closure catalog at 6 covers every image summand.
FIXTURES = (
    Fixture("glued_a2", "a2", "glue_induce_inessential",
            {"x": "1", "y": "2", "a": "a"}, 5, "scan", 2, 3, 2),
    Fixture("kronecker_glue", "zigzag", "glue_induce",
            {"x": "1", "m": "2", "y": "3", "a": "a", "b": "b"}, 4, "scan", 4, 6, 11),
    Fixture("blown_chain", "chain", "blow_induce",
            {"x": "1", "m": "i", "y": "2", "a": "a", "b": "b"}, 5, "closure", 6, 6, 11),
)
ARROW_ENDS = {  # role arrow -> (source role, target role)
    "a2": {"a": ("x", "y")},
    "zigzag": {"a": ("x", "m"), "b": ("y", "m")},
    "chain": {"a": ("x", "m"), "b": ("m", "y")},
}
# Seeded is_isomorphic jobs per fixture, on dimension vectors whose
# images have sum of squared dimensions at most ISO_MAX_SQUARES: that
# bounds the hom space, hence the 2^dim sweep the test may run.
ISO_PAIRS = 40
ISO_MAX_SQUARES = 9
FUNCTOR_FIELD = 2


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _grids(nrows, ncols, p):
    for flat in itertools.product(range(p), repeat=nrows * ncols):
        yield [list(flat[r * ncols:(r + 1) * ncols]) for r in range(nrows)]


def _random_invertible(rng, n, p):
    """A random invertible matrix over GF(p): row operations on the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randrange(1, p)
            m[i] = [(x + c * y) % p for x, y in zip(m[i], m[j])]
        else:
            m[i] = [(x * rng.randrange(1, p)) % p for x in m[i]]
    return m


def _inverse(m, p):
    n = len(m)
    aug = [row[:] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [(x * inv) % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _matmul(a, b, ncols, p):
    # explicit ncols keeps zero-width products well shaped
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % p
             for j in range(ncols)] for i in range(len(a))]


def _conjugate(rng, fx, dims, mats, p):
    """An isomorphic copy: a random base change at every vertex."""
    g = {v: _random_invertible(rng, d, p) for v, d in dims.items()}
    out = {}
    for a, (s, t) in ARROW_ENDS[fx.shape].items():
        left = _matmul(g[t], mats[a], dims[s], p)
        out[a] = _matmul(left, _inverse(g[s], p), dims[s], p)
    return out


def _image_squares(fx, dims):
    """Sum of squared vertex dimensions of the image representation."""
    if fx.functor == "blow_induce":
        return dims["x"] ** 2 + 2 * dims["m"] ** 2 + dims["y"] ** 2
    rest = sum(d * d for v, d in dims.items() if v not in ("x", "y"))
    return (dims["x"] + dims["y"]) ** 2 + rest


def _random_mats(rng, fx, dims, p):
    return {
        a: [[rng.randrange(p) for _ in range(dims[s])] for _ in range(dims[t])]
        for a, (s, t) in ARROW_ENDS[fx.shape].items()
    }


def _functor_setup(nq, seed, workdir):
    # one variant: the functor work hardly depends on the labels, and
    # every variant would rebuild the catalogs
    rng, = variant_rngs(seed, 1)
    p = FUNCTOR_FIELD
    field_ = nq.GF(p)
    state = State(jobs=[], extra={"fixtures": []})
    for fx in FIXTURES:
        d, vmap, amap = data.relabel(data.corpus(fx.dataset), rng)
        arrow_roles = ARROW_ENDS[fx.shape]
        name = {r: (amap if r in arrow_roles else vmap)[n] for r, n in fx.roles.items()}
        base = _presentation(nq, d._replace(glues=(), blows=()))
        target = _presentation(nq, d)
        src = nq.enumerate_indecomposables(base, field_, len(d.vertices), budget=64)
        tgt = nq.enumerate_indecomposables(
            target, field_, fx.target_bound, budget=64, method=fx.target_method)
        base_cat, tgt_cat = src.classes, tgt.classes
        for side, r, want in (("base", src, fx.base_classes),
                              ("target", tgt, fx.target_classes)):
            state.enum_jobs[f"functor-{fx.dataset}-{side}"] = (r.examined, r.count)
            state.setup_checks.append((f"functor-{fx.dataset}-{side}", r.count == want))
        if fx.functor == "blow_induce":
            pair = ()
            induce_args = (name["m"],)
        else:
            pair = ("x", "y")
            induce_args = (d.glues[0][0], d.glues[0][1])
        roles = list(ARROW_ENDS[fx.shape])
        vroles = sorted({v for ends in ARROW_ENDS[fx.shape].values() for v in ends})

        def make(dims, mats):
            return nq.make_representation(
                base, field_, {name[v]: dims[v] for v in vroles},
                {name[a]: mats[a] for a in roles})

        def induce(m, fn=fx.functor, args=induce_args):
            return getattr(nq, fn)(m, *args)

        def job(m, base_cat=base_cat, tgt_cat=tgt_cat, induce=induce,
                strip=tuple(name[r] for r in pair)):
            fm = induce(m)
            ok = nq.check_relations(fm)[0]
            stripped, counts = nq.strip_simple_summands(m, strip) if strip else (m, {})
            return (ok, tuple(counts.get(v, 0) for v in strip),
                    nq.decompose(stripped, base_cat), nq.decompose(fm, tgt_cat),
                    fm.dims)

        reps = []
        for total in range(1, fx.max_total + 1):
            for split in _compositions(total, len(vroles)):
                dims = dict(zip(vroles, split))
                shapes = [(dims[t], dims[s]) for s, t in ARROW_ENDS[fx.shape].values()]
                for grids in itertools.product(*(_grids(r, c, p) for r, c in shapes)):
                    mats = dict(zip(roles, grids))
                    # a blow-up doubles the space at the blown vertex
                    growth = dims["m"] if fx.functor == "blow_induce" else 0
                    reps.append((make(dims, mats), growth))
        rng.shuffle(reps)
        info = {
            "base_cat": base_cat, "tgt_cat": tgt_cat,
            "pair": tuple(name[r] for r in pair), "first": len(state.jobs),
            "reps": reps,
            "classes": oracles.count_iso_classes(fx.shape, fx.max_total, pair),
        }
        for k, (m, _) in enumerate(reps):
            state.jobs.append((f"functor-{fx.dataset}-rep{k}", lambda m=m, job=job: job(m)))
        info["iso_first"] = len(state.jobs)
        info["iso_expected"] = []
        iso_dims = []
        for total in range(2, fx.max_total + 1):
            for split in _compositions(total, len(vroles)):
                dims = dict(zip(vroles, split))
                if _image_squares(fx, dims) <= ISO_MAX_SQUARES:
                    iso_dims.append(dims)
        for k in range(ISO_PAIRS):
            dims = rng.choice(iso_dims)
            mats1 = _random_mats(rng, fx, dims, p)
            mats2 = (_conjugate(rng, fx, dims, mats1, p) if rng.random() < 0.5
                     else _random_mats(rng, fx, dims, p))
            mult1, mult2 = (oracles.interval_multiplicities(fx.shape, dims, mm, p)
                            for mm in (mats1, mats2))
            if pair:
                mult1, mult2 = (oracles.merge_simples(mm, pair) for mm in (mult1, mult2))
            info["iso_expected"].append(mult1 == mult2)
            m1, m2 = make(dims, mats1), make(dims, mats2)
            state.jobs.append((
                f"functor-{fx.dataset}-iso{k}",
                lambda m1=m1, m2=m2, induce=induce: nq.is_isomorphic(induce(m1), induce(m2)),
            ))
        state.extra["fixtures"].append(info)
    return [state]


def _dims_sum(counts, catalog, width):
    total = [0] * width
    for c, u in zip(counts, catalog):
        for k, x in enumerate(u.dims):
            total[k] += c * x
    return tuple(total)


def _functor_check(state, results):
    ok = [True] * len(results)
    for info in state.extra["fixtures"]:
        first, iso_first = info["first"], info["iso_first"]
        base_of, tgt_of, sigs = {}, {}, {}
        for k, (m, growth) in enumerate(info["reps"]):
            answer = results[first + k][2]
            if isinstance(answer, Raised):
                ok[first + k] = False
                continue
            relations_ok, simples, base_sig, tgt_sig, image_dims = answer
            width = len(m.dims)
            base_dims = list(_dims_sum(base_sig, info["base_cat"], width))
            for v, c in zip(info["pair"], simples):
                base_dims[m.pres.quiver.vertices.index(v)] += c
            ok[first + k] = (
                relations_ok
                and tuple(base_dims) == m.dims
                and _dims_sum(tgt_sig, info["tgt_cat"], len(image_dims)) == image_dims
                and sum(image_dims) == m.total + growth
            )
            key = (sum(simples), base_sig)
            base_of.setdefault(tgt_sig, set()).add(key)
            tgt_of.setdefault(key, set()).add(tgt_sig)
            sigs[first + k] = key, tgt_sig
        # reflection: images are isomorphic exactly when the sources are,
        # up to simple summands at a glued pair
        for k, (key, tgt_sig) in sigs.items():
            if len(tgt_of[key]) != 1 or len(base_of[tgt_sig]) != 1:
                ok[k] = False
        if len(tgt_of) != info["classes"]:
            for k in range(first, iso_first):
                ok[k] = False
        for k, want in enumerate(info["iso_expected"]):
            ok[iso_first + k] = results[iso_first + k][2] is want
    return ok


# ---------------------------------------------------------------------------
# algebra: the CLI on datum files, no linear algebra involved

# Verdicts of the fixed random lines on this commit, in generation order,
# frozen per isomorphism type: relabelling cannot change them.
LINE_GLUE_VERDICTS = (
    "Wild", "Wild", "Tame", "NonWildUnresolved", "NonWildUnresolved",
    "NonWildUnresolved", "Wild", "Wild", "Wild", "Wild", "Wild",
    "NonWildUnresolved", "Finite", "NonWildUnresolved", "Finite", "Finite",
    "Finite", "NonWildUnresolved", "Wild", "Wild",
)
LINE_BLOW_VERDICTS = (
    "Finite", "Finite", "Finite", "Finite", "Finite", "Wild", "Finite", "Wild",
    "NonWildUnresolved", "Tame", "Finite", "NonWildUnresolved", "Finite",
    "Wild", "Finite", "Finite", "NonWildUnresolved", "Wild", "Wild", "Wild",
)
# corpus verdicts (exit code, first line); the two exit-2 files fall
# outside the line/cycle shapes the classifier accepts
CORPUS_VERDICTS = {
    "blown_chain": (0, "NonWildUnresolved"), "except_100": (0, "Finite"),
    "glued_a2": (0, "Finite"), "hereditary_atilde": (0, "Tame"),
    "invalid": (1, None), "kronecker_glue": (0, "Tame"),
    "not_type_a": (2, None), "quasi_gentle": (0, "NonWildUnresolved"),
    "super_00": (0, "Finite"), "wild_point": (0, "Wild"),
    "worked_example": (2, None),
}
# README worked example: two gluings and a blow-up, outside both laws
WORKED_EXAMPLE = {"dimension": 24, "shape": (6, 8, 5)}
DIAMOND_KS = (10, 11, 12)
COMMANDS = (
    ("check",), ("present", "--format", "json"), ("classify",), ("dimension",),
)


def algebra_items():
    """(label, datum, classify expectation) for every algebra input."""
    items = [(f"corpus-{n}", data.corpus(n), CORPUS_VERDICTS[n]) for n in data.CORPUS]
    items += [(f"table-{n}{m}{l}", data.exceptional(n, m, l), (0, v))
              for (n, m, l), v in data.TABLE_POINTS]
    items += [(f"super-{m}{l}", data.super_exceptional(m, l), (0, v))
              for (m, l), v in data.SUPER_POINTS]
    items += [(f"line-glue{k}", d, (0, v))
              for k, (d, v) in enumerate(zip(data.line_glue_data(), LINE_GLUE_VERDICTS))]
    items += [(f"line-blow{k}", d, (0, v))
              for k, (d, v) in enumerate(zip(data.line_blow_data(), LINE_BLOW_VERDICTS))]
    items += [(f"diamond{k}", data.diamond_chain(k), (2, None)) for k in DIAMOND_KS]
    return items


def _expected_outputs(label, d, verdict):
    """Per command, the expected (exit code, parsed answer)."""
    if label == "corpus-invalid":
        return {cmd: (1, None) for cmd, *_ in COMMANDS}
    if label == "corpus-worked_example":
        dim, shape = WORKED_EXAMPLE["dimension"], WORKED_EXAMPLE["shape"]
    else:
        dim, shape = oracles.dimension_law(d), oracles.presentation_shape(d)
    return {"check": (0, "ok"), "present": (0, shape), "classify": verdict,
            "dimension": (0, dim)}


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(list(argv))
    return code, out.getvalue()


def _algebra_setup(nq, seed, workdir):
    return [_algebra_variant(nq, rng, os.path.join(workdir, f"v{k}"))
            for k, rng in enumerate(variant_rngs(seed, VARIANTS))]


def _algebra_variant(nq, rng, folder):
    # the package re-exports no run_cli, so the cli module is called
    cli = sys.modules[f"{nq.__name__}.cli"]
    os.makedirs(folder, exist_ok=True)
    state = State(jobs=[], extra={"expected": []})
    items = algebra_items()
    rng.shuffle(items)
    for k, (label, d, verdict) in enumerate(items):
        relabelled, _, _ = data.relabel(d, rng)
        path = os.path.join(folder, f"{k:03d}.datum")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data.to_text(relabelled))
        expected = _expected_outputs(label, d, verdict)
        for cmd in COMMANDS:
            argv = (cmd[0], path) + cmd[1:]
            state.jobs.append((f"{label}-{cmd[0]}", lambda argv=argv: _run_cli(cli, argv)))
            state.extra["expected"].append((cmd[0], expected[cmd[0]]))
    return state


def _parse_answer(cmd, stdout):
    if cmd == "check":
        return stdout.strip()
    if cmd == "present":
        obj = json.loads(stdout)
        return len(obj["vertices"]), len(obj["arrows"]), len(obj["relations"])
    if cmd == "classify":
        return stdout.splitlines()[0]
    return int(stdout)


def _algebra_check(state, results):
    out = []
    for (_, _, answer), (cmd, (code, value)) in zip(results, state.extra["expected"]):
        if isinstance(answer, Raised) or answer[0] != code:
            out.append(False)
        elif code != 0:
            out.append(True)
        else:
            try:
                out.append(_parse_answer(cmd, answer[1]) == value)
            except (ValueError, KeyError, IndexError):
                out.append(False)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    check: object


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "closure",
            "closure extends smaller classes and tests each candidate with"
            " has_summand, hom_space and rref; Ext pruning and a packed"
            " field kernel should show here",
            _catalog_setup("closure", CLOSURE_JOBS, CLOSURE_BUDGET), _catalog_check),
        Workload(
            "scan",
            "generate-and-reject traffic of the CLI default method: all_matrices,"
            " Matrix products in check_relations and the rejection pipeline;"
            " closure pruning does not touch it",
            _catalog_setup("scan", SCAN_JOBS, SCAN_BUDGET), _catalog_check),
        Workload(
            "functor",
            "many small push-forward jobs spending their time in decompose,"
            " split_summand and hom_space; catalogs are built in setup, so"
            " closure changes move only setup_s",
            _functor_setup, _functor_check),
        Workload(
            "algebra",
            "the only workload running dsl, construct, classify and cli"
            " without linalg or reps; a kernel change must not move it,"
            " a faster dimension should",
            _algebra_setup, _algebra_check),
    )
}
