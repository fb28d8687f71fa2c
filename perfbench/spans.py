"""Span tracing for the benchmark, installed from outside the package.

Modules inside ``rigideq`` bind the names they call at import time
(``from .poly import poly_compose``), so a wrapper goes on the attribute of
the module that *calls* the function, or on the class for methods. Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import rigideq.annihilator
import rigideq.certify
import rigideq.cli
import rigideq.lincircuit
from rigideq.annihilator import AnnihilatorCertificate
from rigideq.poly import MultiPoly

# Per-layer metrics in report order: (name, unit, better). Every timed span
# contributes "<span>.s" (inclusive) and "<span>.self_s" (minus child spans).
TIMED_SPANS = [
    "annihilator.kernel",
    "annihilator.build_sampled",
    "annihilator.build_symbolic",
    "annihilator.verify",
    "poly.compose",
    "poly.mul",
    "poly.packed_weighted_sum",
    "poly.evaluate",
    "lincircuit.universal_map",
    "lincircuit.embed_circuit",
    "lincircuit.universal_eval",
    "certify.verify_symbolic",
    "certify.verify_pit",
    "certify.certify_rigid",
    "cli.cert_load",
    "cli.cert_dump",
    "generators.parse_map_spec",
]
COUNTERS = [
    ("annihilator.kernel.calls", "count", "lower"),
    ("annihilator.kernel.cells", "count", "lower"),
    ("annihilator.build_sampled.cells", "count", "lower"),
    ("annihilator.build_symbolic.cells", "count", "lower"),
    ("annihilator.build_symbolic.nnz_frac", "ratio", "higher"),
    ("annihilator.rounds", "count", "lower"),
    ("annihilator.verified_ratio", "ratio", "higher"),
    ("poly.compose.calls", "count", "lower"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.term_pairs", "count", "lower"),
    ("poly.packed_weighted_sum.calls", "count", "lower"),
    ("poly.packed_weighted_sum.term_pairs", "count", "lower"),
    ("poly.evaluate.calls", "count", "lower"),
    ("poly.evaluate.terms", "count", "lower"),
    ("lincircuit.universal_map.terms", "count", "lower"),
    ("certify.verify_pit.trials", "count", "lower"),
    ("certify.certified_ratio", "ratio", "higher"),
]
PER_LAYER = (
    [(f"{s}.s", "s", "lower") for s in TIMED_SPANS]
    + [(f"{s}.self_s", "s", "lower") for s in TIMED_SPANS]
    + COUNTERS
    + [("trace.overhead_s", "s", "lower")]  # traced minus untraced run_s, set by run.py
)
# Counters that must repeat exactly for one seed (ratios are derived from them).
EXACT = [name for name, unit, _ in COUNTERS]


class Tracer:
    """Spans of one traced pass as [name, start_ns, end_ns, parent index, op id],
    and the counters recorded beside them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def op(self, kind: str):
        """Context manager for one benchmark operation: a new op id and a root span."""
        self.op_id += 1
        return _Span(self, f"op.{kind}")

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None, when=None):
        """Replace owner.attr by a span-recording wrapper.

        ``count(counts, args, result)`` runs after the span closes; ``when()``
        returning False makes the call pass through untraced.
        """
        orig = owner.__dict__[attr]
        is_classmethod = isinstance(orig, classmethod)
        func = orig.__func__ if is_classmethod else orig
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return func(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, orig))

    def install(self):
        ann, cert, cli, lc = rigideq.annihilator, rigideq.certify, rigideq.cli, rigideq.lincircuit
        w = self.wrap
        w(ann, "kernel", "annihilator.kernel", count=_count_kernel)
        w(ann, "composition_matrix_sampled", "annihilator.build_sampled", count=_count_sampled)
        w(ann, "composition_matrix_symbolic", "annihilator.build_symbolic", count=_count_symbolic)
        # find_annihilator's own poly_compose calls, as opposed to the ones
        # the symbolic builder makes for each column, are its verification.
        w(ann, "poly_compose", "poly.compose", count=_count_calls("poly.compose"))
        w(ann, "poly_compose", "annihilator.verify", count=_count_verify,
          when=lambda: not self.inside("annihilator.build_symbolic"))
        w(cert, "poly_compose", "poly.compose", count=_count_calls("poly.compose"))
        w(MultiPoly, "__mul__", "poly.mul", count=_count_mul)
        w(MultiPoly, "__rmul__", "poly.mul", count=_count_mul)
        w(MultiPoly, "evaluate", "poly.evaluate", count=_count_evaluate)
        w(lc, "packed_weighted_sum", "poly.packed_weighted_sum", count=_count_pws)
        w(lc, "universal_map", "lincircuit.universal_map", count=_count_map_terms)
        w(lc, "embed_circuit", "lincircuit.embed_circuit")
        w(lc, "universal_eval", "lincircuit.universal_eval")
        w(cli, "verify_symbolic", "certify.verify_symbolic")
        w(cli, "verify_pit", "certify.verify_pit", count=_count_pit)
        w(cli, "certify_rigid", "certify.certify_rigid", count=_count_certify)
        w(AnnihilatorCertificate, "from_json", "cli.cert_load")
        w(AnnihilatorCertificate, "to_json", "cli.cert_dump")
        w(cli, "parse_map_spec", "generators.parse_map_spec")

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, every name of PER_LAYER but the overhead."""
        total = defaultdict(int)
        own = defaultdict(int)
        for (name, start, end, parent, _), self_ns in zip(self.spans, self.self_times_ns()):
            own[name] += self_ns
            if not self._has_ancestor(parent, name):
                total[name] += end - start
        out = {}
        for name in TIMED_SPANS:
            out[f"{name}.s"] = total[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
        c = self.counts
        for name, _, _ in COUNTERS:
            out[name] = c[name]
        out["annihilator.build_symbolic.nnz_frac"] = _ratio(c["annihilator.build_symbolic.nnz"], c["annihilator.build_symbolic.cells"])
        out["annihilator.verified_ratio"] = _ratio(c["annihilator.verified"], c["annihilator.candidates"])
        out["certify.certified_ratio"] = _ratio(c["certify.certified"], c["certify.certify_rigid.calls"])
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def span_records(self) -> list[list]:
        """[name, start_ns, end_ns, parent, op id, self_ns] for every span."""
        return [span + [self_ns] for span, self_ns in zip(self.spans, self.self_times_ns())]


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close(self.idx)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _count_calls(name):
    def count(c, args, result):
        c[f"{name}.calls"] += 1
    return count


def _count_kernel(c, args, result):
    rows, cols = np.shape(args[0])
    c["annihilator.kernel.calls"] += 1
    c["annihilator.kernel.cells"] += rows * cols
    c["annihilator.candidates"] += bool(result)


def _count_sampled(c, args, result):
    c["annihilator.build_sampled.cells"] += result[0].size
    c["annihilator.rounds"] += 1


def _count_symbolic(c, args, result):
    c["annihilator.build_symbolic.cells"] += result[0].size
    c["annihilator.build_symbolic.nnz"] += int(np.count_nonzero(result[0]))


def _count_verify(c, args, result):
    c["annihilator.verified"] += result.is_zero()


def _count_mul(c, args, result):
    a, b = args
    c["poly.mul.calls"] += 1
    c["poly.mul.term_pairs"] += len(a.terms) * (len(b.terms) if isinstance(b, MultiPoly) else 1)


def _count_evaluate(c, args, result):
    c["poly.evaluate.calls"] += 1
    c["poly.evaluate.terms"] += len(args[0].terms)


def _count_pws(c, args, result):
    c["poly.packed_weighted_sum.calls"] += 1
    c["poly.packed_weighted_sum.term_pairs"] += sum(len(a.terms) * len(b.terms) for a, b in args[0])


def _count_map_terms(c, args, result):
    c["lincircuit.universal_map.terms"] += sum(len(q.terms) for q in result.coordinates)


def _count_pit(c, args, result):
    c["certify.verify_pit.trials"] += args[2]


def _count_certify(c, args, result):
    c["certify.certify_rigid.calls"] += 1
    c["certify.certified"] += result is not None
