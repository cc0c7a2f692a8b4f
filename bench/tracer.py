"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` swaps a timing wrapper in for each traced function
and ``Matrix``/``Quiver`` method, in every nodalq module namespace that
holds it, and ``uninstall`` puts the originals back.  Each wrapped call
is a span with a name, start, end and parent; a layer's self time is its
spans' duration minus the time covered by their child spans.  Spans are
kept in memory, up to ``SPAN_CAP`` of them, and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

SPAN_CAP = 50_000


def _rref_cells(counts, args, out):
    m = args[0]
    counts["linalg.rref.cells"] += m.nrows * m.ncols


def _mul_mac(counts, args, out):
    a, b = args[0], args[1]
    counts["linalg.mul.mac"] += a.nrows * a.ncols * b.ncols


def _hom_unknowns(counts, args, out):
    m, n = args[0], args[1]
    counts["reps.hom_space.unknowns"] += sum(x * y for x, y in zip(m.dims, n.dims))


def _hits(group):
    def count(counts, args, out):
        counts[f"{group}.hits"] += bool(out)
    return count


def _rejects(counts, args, out):
    counts["reps.check_relations.rejects"] += not out[0]


def _dimension_total(counts, args, out):
    counts["construct.dimension.total"] += out


def _emitted_bytes(counts, args, out):
    counts["dsl.emit_presentation.bytes"] += len(out.encode("utf-8"))


def targets(nq):
    """(group, owner, attribute, counter) for every traced callable.

    Groups are named ``<module>.<operation>``; several callables may
    share a group, such as the three push-forward functors.
    """
    # the package re-exports ``classify`` the function under the name of
    # its module, so modules are looked up by their full names
    linalg, quiver, reps, construct, classify, dsl, cli = (
        importlib.import_module(f"{nq.__name__}.{m}")
        for m in ("linalg", "quiver", "reps", "construct", "classify", "dsl", "cli"))
    M, Q = linalg.Matrix, quiver.Quiver
    out = [
        ("linalg.rref", M, "rref", _rref_cells),
        ("linalg.mul", M, "__mul__", _mul_mac),
        ("linalg.nullspace", M, "nullspace", None),
        ("linalg.all_matrices", linalg, "all_matrices", None),
        ("linalg.shape_ops", linalg, "block_diag", None),
    ]
    out += [("linalg.shape_ops", M, name, None)
            for name in ("transpose", "hstack", "vstack")]
    out += [("quiver.lookup", Q, name, None)
            for name in ("arrow", "in_arrows", "out_arrows", "has_vertex")]
    out += [
        ("reps.hom_space", reps, "hom_space", _hom_unknowns),
        ("reps.has_summand", reps, "has_summand", _hits("reps.has_summand")),
        ("reps.has_simple_summand_at", reps, "has_simple_summand_at",
         _hits("reps.has_simple_summand_at")),
        ("reps.check_relations", reps, "check_relations", _rejects),
        ("reps.enumerate", reps, "enumerate_indecomposables", None),
        ("reps.direct_sum", reps, "direct_sum", None),
        ("reps.decompose", reps, "decompose", None),
        ("reps.split_summand", reps, "split_summand", None),
        ("reps.induce", reps, "glue_induce", None),
        ("reps.induce", reps, "glue_induce_inessential", None),
        ("reps.induce", reps, "blow_induce", None),
        ("reps.is_isomorphic", reps, "is_isomorphic", None),
        ("construct.build_presentation", construct, "build_presentation", None),
        ("construct.dimension", construct, "dimension", _dimension_total),
        ("classify.classify", classify, "classify", None),
        ("dsl.parse_datum", dsl, "parse_datum", None),
        ("dsl.emit_presentation", dsl, "emit_presentation", _emitted_bytes),
        ("cli.run_cli", cli, "run_cli", None),
    ]
    return out


class Tracer:
    def __init__(self) -> None:
        self.groups: list[str] = []
        self._gid: dict[str, int] = {}
        self._stack: list[list] = []  # [group id, start ns, child ns, span id]
        self._patches: list[tuple] = []
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.dropped = 0
        self.reset()

    def reset(self) -> None:
        """Zero the totals; spans already recorded are kept."""
        self.self_ns = [0] * len(self.groups)
        self.calls = [0] * len(self.groups)
        self.counts = {
            "linalg.rref.cells": 0, "linalg.mul.mac": 0,
            "linalg.all_matrices.yielded": 0, "reps.hom_space.unknowns": 0,
            "reps.has_summand.hits": 0, "reps.has_simple_summand_at.hits": 0,
            "reps.check_relations.rejects": 0, "reps.is_isomorphic.refused": 0,
            "construct.dimension.total": 0, "dsl.emit_presentation.bytes": 0,
        }

    def _group(self, name: str) -> int:
        if name not in self._gid:
            self._gid[name] = len(self.groups)
            self.groups.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._gid[name]

    def _enter(self, gid: int) -> list:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        sid = len(self.span_name)
        if sid < SPAN_CAP:
            self.span_name.append(gid)
            self.span_parent.append(parent)
            self.span_end.append(0)
            start = time.perf_counter_ns()
            self.span_start.append(start)
        else:
            self.dropped += 1
            sid = -2
            start = time.perf_counter_ns()
        frame = [gid, start, 0, sid]
        stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        gid, start, child, sid = frame
        took = end - start
        self.self_ns[gid] += took - child
        self.calls[gid] += 1
        if self._stack:
            self._stack[-1][2] += took
        if sid >= 0:
            self.span_end[sid] = end

    def _wrap(self, gid, fn, counter, refused):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(gid)
            try:
                out = fn(*args, **kwargs)
            except refused:
                self.counts["reps.is_isomorphic.refused"] += 1
                raise
            finally:
                leave(frame)
            if counter is not None:
                counter(self.counts, args, out)
            return out

        return traced

    def _wrap_generator(self, gid, fn):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = enter(gid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    leave(frame)
                self.counts["linalg.all_matrices.yielded"] += 1
                yield item

        return traced

    def install(self, nq) -> None:
        """Wrap every target in place; ``nq`` is the imported package."""
        modules = [m for name, m in sys.modules.items()
                   if name == nq.__name__ or name.startswith(nq.__name__ + ".")]
        for group, owner, attr, counter in targets(nq):
            original = getattr(owner, attr)
            gid = self._group(group)
            if attr == "all_matrices":
                wrapper = self._wrap_generator(gid, original)
            else:
                refused = nq.SearchSpaceTooLarge if attr == "is_isomorphic" else ()
                wrapper = self._wrap(gid, original, counter, refused)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # module functions are also bound by name in the modules that
            # import them, so every such binding gets the wrapper
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Totals since the last reset: calls, self seconds, counters."""
        out = dict(self.counts)
        for gid, group in enumerate(self.groups):
            out[f"{group}.calls"] = self.calls[gid]
            out[f"{group}.self_s"] = self.self_ns[gid] / 1e9
        return out

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, name, start ns, end ns, parent id; a
        parent of -1 marks a top-level span, -2 one past the cap."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {self.dropped} spans past the cap of {SPAN_CAP} not kept\n")
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for sid, (gid, s, e, p) in enumerate(zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            )):
                fh.write(f"{sid}\t{self.groups[gid]}\t{s}\t{e}\t{p}\n")
