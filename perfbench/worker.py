"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by run.py, which times it from spawn to the "READY" line (set-up)
and reads one JSON object from its last stdout line. After set-up the
process makes back-to-back passes until the next would end after --seconds.
In a pass one closed-loop client runs every step of the workload, each
operation issued when the previous one has returned; every operation is
timed, with a speed probe (SpeedProbe) before it unless one ran in the last
0.2 s, and the outputs of each pass are checked after it, outside any timer.
With --setup-only the process stops once set up.

    python3 perfbench/worker.py --workload NAME --seed S --trace 0|1 --seconds T --work DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rigideq import cli, lincircuit  # noqa: E402
from rigideq.field import PrimeField  # noqa: E402
from rigideq.lincircuit import LinearCircuit, circuit_matrix  # noqa: E402
from rigideq.oracle import DenseMatrix, format_matrix, rank  # noqa: E402
from spans import EXACT, PER_LAYER, Tracer  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

N_CERTIFY = 1000
N_CIRCUITS = 1000


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


_SINK = _Discard()


class Op:
    """Timing and outcome of one operation of a pass."""

    __slots__ = ("kind", "name", "seconds", "value", "error", "start", "end")

    def __init__(self, kind, name, seconds, value, error=None, start=0.0, end=0.0):
        self.kind, self.name, self.seconds, self.value, self.error = kind, name, seconds, value, error
        self.start, self.end = start, end


class SpeedProbe:
    """A fixed piece of work, timed while the workload runs to track the host's speed.

    On a shared virtual machine the same operation on the same input takes
    up to twice as long when other tenants are busy, in episodes from
    seconds to minutes. run.py divides each operation's time by the mean
    probe time from just before the operation to just after it. The probe
    runs before an operation unless one ran in the last 0.2 s, and in
    untraced passes also from a 0.1 s interval timer, so that operations of
    several seconds are probed inside too; the time a probe takes inside an
    operation is taken off the operation's time. The probe allocates
    nothing, so the heap the program leaves behind does not change how long
    it takes; it does a little dict-and-tuple work like the polynomial code
    and a little int64 numpy work like the elimination.
    """

    def __init__(self):
        self.keys = [(i % 17, i % 13, i % 11) for i in range(2000)]
        self.d = dict.fromkeys(self.keys, 0)
        self.a = np.arange(256 * 256, dtype=np.int64).reshape(256, 256)
        self.b = np.empty_like(self.a)
        self.last = -1.0
        self.spent = 0.0  # seconds spent probing, in total
        self.busy = False
        self.samples = []  # [perf_counter at start, seconds]

    def once(self):
        t0 = time.perf_counter()
        d = self.d
        for i in range(2000):
            k = (i % 17, i % 13, i % 11)
            d[k] = (d[k] + i * 7) % 101
        np.multiply(self.a, 7, out=self.b)
        np.add(self.b, 3, out=self.b)
        np.remainder(self.b, 101, out=self.b)
        return time.perf_counter() - t0

    def run(self):
        """Median of three probes; returns it."""
        if self.busy:  # the timer fired during a probe
            return None
        self.busy = True
        t0 = time.perf_counter()
        self.samples.append([t0, sorted(self.once() for _ in range(3))[1]])
        self.last = time.perf_counter()
        self.spent += self.last - t0
        self.busy = False
        return self.samples[-1][1]

    def maybe(self, *_):
        if time.perf_counter() - self.last >= 0.2:
            self.run()

    def timer(self, on):
        signal.signal(signal.SIGALRM, self.maybe if on else signal.SIG_DFL)
        signal.setitimer(signal.ITIMER_REAL, 0.1 if on else 0, 0.1 if on else 0)


PROBE = SpeedProbe()


def _timed(tracer, kind, name, fn, *args):
    """Run one operation; an exception is recorded as a failed operation."""
    PROBE.maybe()
    span = tracer.op(kind) if tracer else contextlib.nullcontext()
    spent = PROBE.spent
    t0 = time.perf_counter()
    value, error = None, None
    try:
        with span:
            value = fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        error = "raised"
    t1 = time.perf_counter()
    return Op(kind, name, t1 - t0 - (PROBE.spent - spent), value, error, t0, t1)


def _cli(argv):
    """rigideq's own CLI entry point, in-process, with its messages discarded."""
    with contextlib.redirect_stdout(_SINK), contextlib.redirect_stderr(_SINK):
        return cli.main(argv)


def _write_if_changed(path, text):
    """Workers of one run share their input files: the first writes them, the
    rest find them equal. Creating a thousand small files costs far more, and
    varies far more, on a virtual disk than reading them back."""
    with contextlib.suppress(FileNotFoundError):
        with open(path) as fh:
            if fh.read() == text:
                return
    with open(path, "w") as fh:
        fh.write(text)


def q_digest(cert_path):
    """(D, sha256 of the canonical JSON of Q) of an emitted certificate."""
    with open(cert_path) as fh:
        doc = json.load(fh)
    canon = json.dumps(doc["Q"], sort_keys=True, separators=(",", ":"))
    return doc["D"], hashlib.sha256(canon.encode()).hexdigest()


def q_value(q_doc, point):
    """Q at a point, from Q's JSON, in plain modular arithmetic."""
    p = q_doc["p"]
    total = 0
    for term in q_doc["terms"]:
        c = term["c"]
        for x, e in zip(point, term["e"]):
            c = c * pow(x, e, p) % p
        total += c
    return total % p


# -- workloads ---------------------------------------------------------------
#
# Each workload has set-up (inputs from the seed, counted in setup_s), a pass
# (the timed steps), and a check of one pass's outputs done outside its timer.


class CliWorkload:
    """Steps that go through `rigideq` subcommands: solves, verifies, certifies."""

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.steps = []  # (kind, name, argv, expected exit code)

    def cert(self, name):
        return os.path.join(self.work, f"{name}.json")

    def solve(self, name, spec, p, *flags, expect=0):
        # A certificate left by an earlier pass must not stand in for this one.
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.cert(name))
        argv = ["solve", "--map", spec, "-p", str(p), *flags, "--out", self.cert(name)]
        self.steps.append(("solve", name, argv, expect))

    def verify(self, name):
        argv = ["verify", "--cert", self.cert(name), "--trials", "64", "--seed", str(self.seed)]
        self.steps.append(("verify", f"verify:{name}", argv, 0))

    def run_pass(self, tracer):
        return [_timed(tracer, kind, name, _cli, argv) for kind, name, argv, _ in self.steps]

    def check_pass(self, ops, golden):
        """Exit codes and (D, Q hash) of every solve against the golden table."""
        failures, digests = [], {}
        expected = {name: expect for _, name, _, expect in self.steps}
        for op in ops:
            if op.kind not in ("solve", "verify"):
                continue
            if op.error or op.value != expected[op.name]:
                failures.append(f"{op.name}: exit {op.value} ({op.error}), expected {expected[op.name]}")
                continue
            if op.kind == "solve" and op.value == 0:
                D, sha = q_digest(self.cert(op.name))
                digests[op.name] = [D, sha]
                if golden.get(op.name) != [D, sha]:
                    failures.append(f"{op.name}: (D, Q hash) = ({D}, {sha[:12]}) differs from golden")
        return failures, digests



class SampledRigidity(CliWorkload):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        s = str(seed)
        self.solve("rigidity(3,1,1)", "rigidity(3,1,1)", 10007, "--mode", "sampled",
                   "--dmin", "1", "--dmax", "4", "--seed", s, expect=2)
        self.solve("rank(3,2)", "rank(3,2)", 101, "--mode", "sampled", "--dmax", "3", "--seed", s)
        self.solve("tensor(3,3,1)", "tensor(3,3,1)", 101, "--mode", "sampled",
                   "--dmin", "2", "--dmax", "2", "--seed", s)
        self.verify("rank(3,2)")
        self.verify("tensor(3,3,1)")


class SymbolicCertify(CliWorkload):
    """Two symbolic solves, then 1000 `certify` calls with the rigidity(4,2,0)
    certificate: half the matrices are U*V (rank <= 2), half uniform."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.solve("sv(12,2)", "sv(12,2)", 101, "--dmax", "3")
        self.solve("rigidity(4,2,0)", "rigidity(4,2,0)", 101, "--dmax", "3")
        self.verify("sv(12,2)")
        self.verify("rigidity(4,2,0)")
        F = PrimeField(101)
        rng = random.Random(f"{seed}:certify-matrices")
        low_rank = [True] * (N_CERTIFY // 2) + [False] * (N_CERTIFY - N_CERTIFY // 2)
        rng.shuffle(low_rank)
        self.matrices = []
        self.certified = os.path.join(work, "certified.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.certified)
        for i, low in enumerate(low_rank):
            if low:
                U = [[rng.randrange(101) for _ in range(2)] for _ in range(4)]
                V = [[rng.randrange(101) for _ in range(4)] for _ in range(2)]
                entries = [sum(U[a][t] * V[t][b] for t in range(2)) for a in range(4) for b in range(4)]
            else:
                entries = [rng.randrange(101) for _ in range(16)]
            matrix = DenseMatrix(F, 4, 4, tuple(entries))
            path = os.path.join(work, f"m{i}.txt")
            _write_if_changed(path, format_matrix(matrix))
            self.matrices.append(matrix)
            argv = ["certify", "--in", path, "--cert", self.cert("rigidity(4,2,0)"),
                    "--out", self.certified]
            self.steps.append(("certify", f"certify:{i}", argv, None))

    def check_pass(self, ops, golden):
        failures, digests = super().check_pass([op for op in ops if op.kind != "certify"], golden)
        for op in ops:
            if op.kind == "certify" and (op.error or op.value not in (0, 1)):
                failures.append(f"{op.name}: exit {op.value} ({op.error})")
        # Referees of every verdict, after the timed pass. The brute-force
        # oracle: a certified matrix has rank >= 3 and one of rank <= 2 is not
        # certified. The certificate's Q, whose hash the golden table pins:
        # exit 0 exactly when Q(M) != 0, and the last certificate written
        # carries that value.
        verdicts = [op.value for op in ops if op.kind == "certify"]
        cert_path = self.cert("rigidity(4,2,0)")
        q_doc = None
        if os.path.exists(cert_path):
            with open(cert_path) as fh:
                q_doc = json.load(fh)["Q"]
        last = None
        for i, (code, matrix) in enumerate(zip(verdicts, self.matrices)):
            r = rank(matrix)
            if (code == 0 and r < 3) or (r <= 2 and code != 1):
                failures.append(f"certify:{i}: exit {code} for a rank-{r} matrix")
            if q_doc is not None:
                value = q_value(q_doc, matrix.entries)
                if code != (0 if value else 1):
                    failures.append(f"certify:{i}: exit {code} where Q(M) = {value}")
                if value:
                    last = (matrix, value)
        if last is not None:
            doc = {}
            if os.path.exists(self.certified):
                with open(self.certified) as fh:
                    doc = json.load(fh)
            if doc.get("matrix") != list(last[0].entries) or doc.get("value") != last[1]:
                failures.append("certify: the last certificate written does not carry Q(M) of its matrix")
        return failures, digests


def _random_circuit(rng, field):
    """At most 4 edges, n=2, depth <= 2: inputs 0,1; internals 4,5; outputs 2,3."""
    internal = [(0, 4), (1, 4), (0, 5), (1, 5), (4, 5)]
    output = [(0, 2), (1, 2), (4, 2), (5, 2), (0, 3), (1, 3), (4, 3), (5, 3)]
    edges = [(*e, rng.randrange(1, field.p)) for e in rng.sample(internal, rng.randrange(0, 3))]
    edges += [(*e, rng.randrange(1, field.p)) for e in rng.sample(output, rng.randrange(0, 3))]
    return LinearCircuit(field, 2, 2, tuple(edges[:4]), (2, 3))


class UniversalCircuit:
    """universal_map of the graph with n=2, s=4, L=2, w=3; 1000 embed +
    evaluate round trips; and one symbolic evaluation of the map at an
    embedded witness. The criterion-05 graph (w=4) takes about three times
    as long to build, too long for three passes in one run."""

    def __init__(self, seed, work):
        self.field = PrimeField(101)
        rng = random.Random(f"{seed}:circuits")
        self.circuits = [_random_circuit(rng, self.field) for _ in range(N_CIRCUITS)]
        sizes = [c.size for c in self.circuits]
        self.witness = sizes.index(max(sizes))

    def run_pass(self, tracer):
        def build():
            self.graph = lincircuit.universal_graph(self.field, 2, 4, L=2, w=3)
            return lincircuit.universal_map(self.graph)

        def embed(circuit):
            graph = self.graph
            xs, ys = lincircuit.embed_circuit(circuit, graph)
            return xs, ys, lincircuit.universal_eval(graph, xs, ys)

        ops = [_timed(tracer, "map_build", "universal_map", build)]
        umap = ops[0].value
        ops += [_timed(tracer, "embed", f"embed:{i}", embed, c) for i, c in enumerate(self.circuits)]
        witness = ops[1 + self.witness].value
        if umap is not None and witness is not None:
            xs, ys, _ = witness
            ops.append(_timed(tracer, "map_eval", "map_eval", umap.evaluate, list(xs) + list(ys)))
        else:
            ops.append(Op("map_eval", "map_eval", 0.0, None, "no map or witness"))
        return ops

    def check_pass(self, ops, golden):
        """Each U(x, y) equals the transpose of circuit_matrix, and the symbolic
        map at the witness equals universal_eval there."""
        failures = []
        embeds = [op for op in ops if op.kind == "embed"]
        for op, circuit in zip(embeds, self.circuits):
            if op.error:
                failures.append(f"{op.name}: {op.error}")
                continue
            mat = op.value[2]
            if [[mat[i][j] for i in range(2)] for j in range(2)] != circuit_matrix(circuit):
                failures.append(f"{op.name}: U(x, y) differs from circuit_matrix")
        for op in ops:
            if op.kind == "map_build" and op.error:
                failures.append(f"universal_map: {op.error}")
            if op.kind == "map_eval":
                witness = embeds[self.witness]
                if op.error or witness.error:
                    failures.append(f"map_eval: {op.error or witness.error}")
                    continue
                mat = witness.value[2]
                if op.value != [mat[i][j] for i in range(2) for j in range(2)]:
                    failures.append("map_eval: symbolic value differs from universal_eval")
        return failures, {}


class SampledUniversal:
    """The sampled solves, then the universal circuit steps, in one pass.

    The two parts use different layers (annihilator.kernel on a dense square
    matrix; packed_weighted_sum and huge evaluations), and neither uses the
    poly products that symbolic-certify works. Each part checks its own
    operations."""

    def __init__(self, seed, work):
        self.parts = [SampledRigidity(seed, work), UniversalCircuit(seed, work)]

    def run_pass(self, tracer):
        return [op for part in self.parts for op in part.run_pass(tracer)]

    def check_pass(self, ops, golden):
        failures, digests = [], {}
        for part in self.parts:
            f, d = part.check_pass(ops, golden)
            failures += f
            digests.update(d)
        return failures, digests


WORKLOADS = {
    "sampled-universal": SampledUniversal,
    "symbolic-certify": SymbolicCertify,
}


# -- passes ------------------------------------------------------------------

# Timed passes of each kind after the warm-up: untraced, and with --trace 1
# traced ones besides.
MIN_PASSES = {0: 3, 1: 2}


def run(args):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, args.work)
    print("READY", flush=True)
    print(f"PROBE {PROBE.run()!r}", flush=True)
    if args.setup_only:
        return None
    # The first pass is a warm-up: its outputs are checked, but its times
    # are left out, because it also pays for growing the heap to the
    # workload's size (the first sampled solve takes about twice as long as
    # the later ones). Then back-to-back passes until the next would end
    # after --seconds; with --trace 1 untraced and traced passes alternate.
    kinds = [False, True] if args.trace else [False]
    deadline = time.perf_counter() + args.seconds
    passes = [timed_pass(workload, golden, False)]
    passes[0]["warmup"] = True
    while True:
        passes.append(timed_pass(workload, golden, kinds[(len(passes) - 1) % len(kinds)]))
        longest = max(p["wall"] for p in passes[1:])
        if len(passes) - 1 >= MIN_PASSES[args.trace] * len(kinds) and time.perf_counter() + longest > deadline:
            break
    return {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layer_units": {name: unit for name, unit, _ in PER_LAYER},
        "exact": EXACT,
        "numpy": np.__version__,
    }


def timed_pass(workload, golden, traced):
    """One pass, traced or not, then the checks of its outputs."""
    gc.collect()  # every pass starts from the same heap, outside its timer
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    PROBE.samples = []
    PROBE.run()
    PROBE.timer(not traced)  # probes inside a span would count in its time
    t0 = time.perf_counter()
    try:
        ops = workload.run_pass(tracer)
    finally:
        wall = time.perf_counter() - t0
        PROBE.timer(False)
        PROBE.run()
        if tracer:
            tracer.uninstall()
    failures, digests = workload.check_pass(ops, golden)
    return {
        "traced": bool(traced),
        "warmup": False,
        "wall": wall,
        "ops": [[op.name, op.kind, op.seconds, op.start, op.end] for op in ops],
        "probes": PROBE.samples,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "layers": tracer.layer_metrics() if tracer else None,
        "spans": tracer.span_records() if tracer else None,
        "digests": digests,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=float, default=0, help="keep making passes for this long")
    parser.add_argument("--work", required=True, help="directory for inputs and certificates")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    if result is not None:
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
