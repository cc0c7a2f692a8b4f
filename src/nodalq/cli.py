"""Command line interface.

Exit codes: 0 on success, 1 for invalid input (parse or validation
failures, bad usage), 2 when the base quiver is outside the supported
line/cycle shapes, 3 when an exact search refuses to run because a
budget or cap would be exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys

from .classify import NotTypeA, classify
from .construct import NonNilpotentCycle, build_presentation, dimension, validate
from .dsl import emit_presentation, parse_datum
from .linalg import GF, SUPPORTED_PRIMES
from .quiver import Arrow, Quiver, hereditary
from .reps import (
    BudgetExceeded,
    SearchSpaceTooLarge,
    blow_induce,
    check_relations,
    enumerate_indecomposables,
    glue_induce,
    glue_induce_inessential,
    glue_restrict_inessential,
    is_isomorphic,
    random_representation,
    strip_simple_summands,
)

ENV_BUDGET = "NODALQ_ENUM_BUDGET"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_check(args) -> int:
    report = validate(parse_datum(_read(args.file)))
    if report.ok:
        print("ok")
        return 0
    for p in report.problems:
        print(f"problem: {p}")
    return 1


def _cmd_present(args) -> int:
    d = parse_datum(_read(args.file))
    pres, gmap = build_presentation(d)
    sys.stdout.write(emit_presentation(pres, args.format, gmap))
    return 0


def _cmd_classify(args) -> int:
    result = classify(parse_datum(_read(args.file)))
    print(result.verdict)
    for line in result.trace:
        print(f"  - {line}")
    return 0


def _cmd_dimension(args) -> int:
    pres, _ = build_presentation(parse_datum(_read(args.file)))
    print(dimension(pres, args.max_path_length))
    return 0


def _cmd_enumerate(args) -> int:
    pres, _ = build_presentation(parse_datum(_read(args.file)))
    field = GF(args.field)
    if args.budget is not None:
        budget = args.budget
    else:
        raw = os.environ.get(ENV_BUDGET)
        try:
            budget = int(raw) if raw is not None else 16
        except ValueError:
            raise ValueError(f"{ENV_BUDGET} must be an integer, got {raw!r}") from None
    result = enumerate_indecomposables(
        pres, field, args.max_dim, budget=budget, method=args.method
    )
    print("vertices: " + ", ".join(pres.quiver.vertices))
    for k, rep in enumerate(result.classes, start=1):
        print(f"class {k}: " + " ".join(str(d) for d in rep.dims))
    print(
        f"total: {result.count} classes up to total dimension {result.max_total}"
        f" over {field!r} (method {result.method}, {result.examined} candidates)"
    )
    return 0


def _reflects(m1, m2, f1, f2, pair) -> bool:
    # pushed-forward reps are isomorphic exactly when the originals are;
    # after a gluing, when they agree after dropping simple summands at
    # the pair, with equal drop counts
    left = is_isomorphic(f1, f2)
    if pair is None:
        return left == is_isomorphic(m1, m2)
    s1, c1 = strip_simple_summands(m1, pair)
    s2, c2 = strip_simple_summands(m2, pair)
    right = sum(c1.values()) == sum(c2.values()) and is_isomorphic(s1, s2)
    return left == right


def _cmd_selftest(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    rng = random.Random(args.seed)
    failures = []
    checks = 0
    base_pair = hereditary(Quiver(("1", "2"), (Arrow("a", "1", "2"),)))
    base_sources = hereditary(
        Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "3", "2")))
    )
    base_chain = hereditary(
        Quiver(("1", "i", "2"), (Arrow("a", "1", "i"), Arrow("b", "i", "2")))
    )
    # label, base, push-forward, glued pair, what it claims of isomorphism,
    # and whether restriction must undo it
    cases = (
        ("inessential gluing", base_pair,
         lambda m: glue_induce_inessential(m, "1", "2"), ("1", "2"), "reflect", True),
        ("essential gluing", base_sources,
         lambda m: glue_induce(m, "1", "3"), ("1", "3"), "reflect", False),
        ("blow-up", base_chain,
         lambda m: blow_induce(m, "i"), None, "preserve and reflect", False),
    )
    for trial in range(args.trials):
        field = GF(2) if trial % 2 == 0 else GF(3)
        for label, base, push, pair, claim, round_trip in cases:
            m1 = random_representation(base, field, rng)
            m2 = random_representation(base, field, rng)
            f1, f2 = push(m1), push(m2)
            for name, f in (("first", f1), ("second", f2)):
                ok, problems = check_relations(f)
                checks += 1
                if not ok:
                    failures.append(
                        f"trial {trial}: {label} broke relations on the"
                        f" {name} representation: {problems[0]}"
                    )
            checks += 1
            if not _reflects(m1, m2, f1, f2, pair):
                failures.append(f"trial {trial}: {label} does not {claim} isomorphism")
            if round_trip:
                s1, _ = strip_simple_summands(m1, pair)
                back = glue_restrict_inessential(push(s1), base, *pair)
                checks += 1
                if back != s1:
                    failures.append(
                        f"trial {trial}: restriction after gluing did not recover"
                        " the stripped representation"
                    )

    for line in failures:
        print(line)
    if failures:
        print(f"selftest FAILED: {len(failures)} of {checks} checks")
        return 1
    print(f"selftest passed: {checks} checks")
    return 0


# parse_args keeps no state between calls, so one parser serves them all
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nodalq", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", help="validate a datum file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("present", help="build and print the presentation")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("classify", help="decide the representation type")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("dimension", help="dimension of the presented algebra")
    p.add_argument("file")
    p.add_argument("--max-path-length", type=int, default=64, metavar="N",
                   help="refuse when a path containing no zero relation is"
                        " longer than N (default 64)")
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser(
        "enumerate", help="list indecomposable representations over GF(p)"
    )
    p.add_argument("file")
    p.add_argument("--field", type=int, required=True, metavar="P",
                   help=f"one of {SUPPORTED_PRIMES}")
    p.add_argument("--max-dim", type=int, required=True, metavar="D",
                   help="largest total dimension to cover")
    p.add_argument("--budget", type=int, default=None,
                   help=f"search budget (default 16, or ${ENV_BUDGET})")
    p.add_argument("--method", choices=("scan", "closure"), default="scan")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "functors-selftest",
        help="randomized checks of the gluing and blow-up operators",
    )
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except NotTypeA as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BudgetExceeded, SearchSpaceTooLarge, NonNilpotentCycle) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> int:
    return run_cli()
