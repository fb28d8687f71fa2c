"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each criterion prints a `criterion NN <name>: PASS|FAIL` line on stderr
(bypassing capture) so a plain `pytest -v` run shows the scoreboard.

Criteria 02 and 03 encode checks that are mathematically unattainable for
the construction as specified; they are implemented faithfully and marked
xfail(strict=True) with the analysis in their docstrings rather than being
bent until they pass. See the docstrings for the argument.
"""

import json
import math
import random
import sys
import time
from itertools import combinations

import pytest

from rigideq import (
    DenseMatrix,
    DenseTensor,
    LinearCircuit,
    MultiPoly,
    PrimeField,
    RigidityParams,
    SolverConfig,
    SVParams,
    TensorParams,
    certify_rigid,
    circuit_matrix,
    composition_matrix_symbolic,
    determinant_poly,
    dimension_gap_holds,
    embed_circuit,
    existence_degree_bound,
    find_annihilator,
    find_nonzero_point,
    is_rigid_bruteforce,
    kernel,
    poly_compose,
    rank_map,
    rigidity_map,
    rigidity_witness,
    sv_map,
    sv_selector,
    tensor_map,
    tensor_rank_bruteforce,
    universal_eval,
    universal_graph,
    universal_map,
)
from rigideq.cli import main as cli_main

from conftest import random_poly, record_score


def scoreboard(line):
    record_score(line)
    print(line, file=sys.stderr, flush=True)


def test_criterion_01_determinant_rediscovery(tmp_path):
    """solve rank(2,1) --dmax 2 --mode symbolic -p 101: D=2, Q ~ det2,
    empty kernel at D=1, runtime < 1 s."""
    name = "criterion 01 determinant-rediscovery"
    try:
        t0 = time.time()
        out = tmp_path / "cert.json"
        code = cli_main(
            ["solve", "--map", "rank(2,1)", "-p", "101", "--dmin", "1", "--dmax", "2",
             "--mode", "symbolic", "--out", str(out)]
        )
        elapsed = time.time() - t0
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["D"] == 2
        F = PrimeField(101)
        q = MultiPoly.from_json_dict(doc["Q"])
        det2 = determinant_poly(F, 2)
        lead_e, lead_c = det2.sorted_terms()[0]
        scale = q.terms[lead_e] * pow(lead_c, F.p - 2, F.p) % F.p
        assert scale != 0 and q.terms == {e: c * scale % F.p for e, c in det2.terms.items()}
        assert poly_compose(q, rank_map(F, 2, 1)).is_zero()
        A, _ = composition_matrix_symbolic(rank_map(F, 2, 1), 1)
        assert kernel(A, 101) == []
        assert elapsed < 1.0, f"took {elapsed:.2f}s >= 1s"
    except BaseException:
        scoreboard(f"{name}: FAIL")
        raise
    scoreboard(f"{name}: PASS ({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the SV summand of rigidity_map is not identically "
    "k-sparse, so det3 does not annihilate the map (see docstring)",
)
def test_criterion_02_det3_annihilates_rigidity_map():
    """Claimed: poly_compose(det3, rigidity_map(3,1,1)) == 0 over F_101.

    The claim's justification, rank(UV) + rank(1-sparse) <= 2, only applies
    on the witness subvariety where the SV y-variables take interpolation
    values. Generically SV_{9,1} reshaped 3x3 has full rank (its entries are
    the 9 Lagrange basis values scaled by x1, which form an invertible
    Vandermonde-derived pattern), so UV + SV generically has rank 3 and
    det3 composed with the map is a nonzero polynomial. Verified both ways
    below: witness points give 0, random points give nonzero.
    """
    name = "criterion 02 det3-annihilates-rigidity"
    F = PrimeField(101)
    params = RigidityParams(F, 3, 1, 1)
    pmap = rigidity_map(params)
    det3 = determinant_poly(F, 3)

    # sanity in the direction that IS true: witness-constructed points kill det3
    rng = random.Random("acc2:witness")
    for _ in range(50):
        u0 = [[rng.randrange(F.p)] for _ in range(3)]
        v0 = [[rng.randrange(F.p) for _ in range(3)]]
        pos = (rng.randrange(3), rng.randrange(3))
        beta = rigidity_witness(params, u0, v0, {pos: rng.randrange(F.p)})
        assert det3.evaluate(pmap.evaluate(beta)) == 0

    t0 = time.time()
    composed = poly_compose(det3, pmap)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s >= 10s"
    if composed.is_zero():
        scoreboard(f"{name}: PASS ({elapsed:.2f}s)")
    else:
        # exhibit a concrete refutation point so the failure is self-evident
        beta = find_nonzero_point(composed, min(composed.degree(), 100))
        value = det3.evaluate(pmap.evaluate(beta))
        assert value != 0
        scoreboard(
            f"{name}: FAIL (composition has {len(composed)} terms; "
            f"e.g. det3(P({list(beta)})) = {value} != 0)"
        )
    assert composed.is_zero(), "det3 o rigidity_map(3,1,1) is not identically zero"


@pytest.mark.xfail(
    strict=True,
    reason="spec defect downstream of criterion 2: rigidity(3,1,1) has no "
    "annihilator of degree <= 3 (exact sampled kernels are empty)",
)
def test_criterion_03_rigidity_solve():
    """Claimed: solve rigidity(3,1,1) --dmax 3 --mode sampled --seed 7
    -p 10007 returns a verified certificate at some D <= 3.

    No such certificate exists: exact evaluation-based kernels over F_10007
    are empty for every D in 1..5 (rows >= columns + margin, so emptiness is
    a proof of no annihilator, not a sampling accident). This is the same
    geometry as criterion 2: the map's image is dense enough at these
    parameters that no degree-3 equation vanishes on it.
    """
    name = "criterion 03 rigidity-solve"
    F = PrimeField(10007)
    pmap = rigidity_map(RigidityParams(F, 3, 1, 1))
    t0 = time.time()
    cert = find_annihilator(pmap, SolverConfig(mode="sampled", d_min=1, d_max=3, seed=7))
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s >= 60s"
    if cert is None:
        scoreboard(f"{name}: FAIL (no annihilator of degree <= 3 exists; solver correctly returns none-in-range)")
        assert cert is not None, "find_annihilator returned none-in-range at dmax=3"
    # unreachable at these parameters; kept for faithfulness to the criterion
    assert poly_compose(cert.q, pmap).is_zero()
    params = RigidityParams(F, 3, 1, 1)
    rng = random.Random("acc3:witness")
    for _ in range(1000):
        u0 = [[rng.randrange(F.p)] for _ in range(3)]
        v0 = [[rng.randrange(F.p) for _ in range(3)]]
        pos = (rng.randrange(3), rng.randrange(3))
        beta = rigidity_witness(params, u0, v0, {pos: rng.randrange(F.p)})
        assert cert.q.evaluate(pmap.evaluate(beta)) == 0
    pt = find_nonzero_point(cert.q, cert.q.degree())
    assert cert.q.evaluate(pt) != 0
    scoreboard(f"{name}: PASS ({elapsed:.2f}s)")


def test_criterion_04_sv_selection_exhaustive():
    """Lemma-2.1 selection identity for all N <= 12, k <= 3, all subsets T."""
    name = "criterion 04 sv-selection-exhaustive"
    try:
        t0 = time.time()
        F = PrimeField(13)
        checked = 0
        for N in range(1, 13):
            for k in range(1, min(3, N) + 1):
                params = SVParams(F, N, k)
                pmap = sv_map(params)
                for T in combinations(range(N), k):
                    ys = sv_selector(params, T)
                    for i, q in enumerate(pmap.coordinates):
                        for j, y in enumerate(ys):
                            q = q.substitute(k + j, y)
                        if i in T:
                            assert q == MultiPoly.variable(F, 2 * k, T.index(i))
                        else:
                            assert q.is_zero()
                    checked += 1
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s >= 30s"
    except BaseException:
        scoreboard(f"{name}: FAIL")
        raise
    scoreboard(f"{name}: PASS ({checked} subsets, {elapsed:.1f}s)")


def _random_embeddable_circuit(rng, field):
    """<= 4 edges, n=2, depth <= 2: inputs 0,1; internals 4,5; outputs 2,3."""
    internal = [(0, 4), (1, 4), (0, 5), (1, 5), (4, 5)]
    output = [(0, 2), (1, 2), (4, 2), (5, 2), (0, 3), (1, 3), (4, 3), (5, 3)]
    edges = [(*e, rng.randrange(1, field.p)) for e in rng.sample(internal, rng.randrange(0, 3))]
    edges += [(*e, rng.randrange(1, field.p)) for e in rng.sample(output, rng.randrange(0, 3))]
    return LinearCircuit(field, 2, 2, tuple(edges[:4]), (2, 3))


def test_criterion_05_universal_circuit_embedding():
    """100 random circuits embed into universal_graph(2,4,2,4) with exact
    entrywise agreement; symbolic entry degrees <= s'*(L+1)."""
    name = "criterion 05 universal-circuit-embedding"
    try:
        t0 = time.time()
        F = PrimeField(101)
        g = universal_graph(F, 2, 4, L=2, w=4)
        assert g.edge_count == 52
        um = universal_map(g)
        bound = g.edge_count * (g.L + 1)
        assert all(q.degree() <= bound for q in um.coordinates), "degree bound violated"
        rng = random.Random("acc5:circuits")
        for _ in range(100):
            c = _random_embeddable_circuit(rng, F)
            xs, ys = embed_circuit(c, g)
            mat = universal_eval(g, xs, ys)
            want = circuit_matrix(c)
            assert [[mat[i][j] for i in range(2)] for j in range(2)] == want
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s >= 60s"
    except BaseException:
        scoreboard(f"{name}: FAIL")
        raise
    scoreboard(f"{name}: PASS (deg <= {bound}, {elapsed:.1f}s)")


def test_criterion_06_tensor_equation(tmp_path):
    """solve tensor(2,3,1) --dmax 2 -p 101 finds a verified D=2 annihilator;
    F_3 cross-check over all 6561 tensors with a Q re-solved over F_3 (a
    mod-101 polynomial carries no information mod 3)."""
    name = "criterion 06 tensor-equation"
    try:
        t0 = time.time()
        out = tmp_path / "tensor-cert.json"
        code = cli_main(
            ["solve", "--map", "tensor(2,3,1)", "-p", "101", "--dmax", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["D"] == 2 and doc["verification"]["symbolic_verified"]

        # cross-check field: re-solve the same construction over F_3
        F3 = PrimeField(3)
        pmap3 = tensor_map(TensorParams(F3, 2, 3, 1))
        cert3 = find_annihilator(pmap3, SolverConfig(mode="symbolic", d_min=1, d_max=2))
        assert cert3 is not None and cert3.degree == 2
        q3 = cert3.q
        hits = 0
        for flat in range(3**8):
            entries = []
            rem = flat
            for _ in range(8):
                entries.append(rem % 3)
                rem //= 3
            value = q3.evaluate(entries)
            if value != 0:
                hits += 1
                t = DenseTensor(F3, 2, 3, tuple(entries))
                assert tensor_rank_bruteforce(t, 1) is None, (
                    f"tensor {entries} has Q != 0 but rank <= 1"
                )
        assert hits > 0  # the equation is not vacuous on F_3 points
        elapsed = time.time() - t0
        assert elapsed < 300.0, f"took {elapsed:.2f}s >= 5min"
    except BaseException:
        scoreboard(f"{name}: FAIL")
        raise
    scoreboard(f"{name}: PASS ({hits} certified-high-rank tensors of 6561, {elapsed:.1f}s)")


def test_criterion_07_oracle_cross_validation():
    """certify_rigid verdicts never contradict is_rigid_bruteforce on 500
    random matrices, n=3, r=1, k=1.

    Spec says F_5, but rigidity(3,1,1) needs p > 9 (the SV labels live on 9
    interpolation points); run at the smallest legal prime p=11. Since no
    degree-<=3 annihilator exists for this map (criterion 3), the solver
    honestly returns none-in-range and certify_rigid issues no verdicts;
    the no-contradiction property is then checked vacuously, alongside a
    non-vacuous run of the same cross-validation on rigidity(2,1,0) where a
    certificate (det2) does exist.
    """
    name = "criterion 07 oracle-cross-validation"
    try:
        t0 = time.time()
        F11 = PrimeField(11)
        pmap = rigidity_map(RigidityParams(F11, 3, 1, 1))
        cert = find_annihilator(pmap, SolverConfig(mode="sampled", d_min=1, d_max=3, seed=7))
        rng = random.Random("acc7:matrices")
        contradictions = 0
        certified = 0
        for _ in range(500):
            entries = tuple(rng.randrange(11) for _ in range(9))
            m = DenseMatrix(F11, 3, 3, entries)
            verdict = None if cert is None else certify_rigid(m, cert)
            if verdict is not None:
                certified += 1
                if not is_rigid_bruteforce(m, 1, 1):
                    contradictions += 1
        assert contradictions == 0

        # non-vacuous control at parameters where an annihilator exists
        F5 = PrimeField(5)
        pmap2 = rigidity_map(RigidityParams(F5, 2, 1, 0))
        cert2 = find_annihilator(pmap2, SolverConfig(d_min=1, d_max=2))
        assert cert2 is not None
        control_certified = 0
        for _ in range(500):
            m = DenseMatrix(F5, 2, 2, tuple(rng.randrange(5) for _ in range(4)))
            verdict = certify_rigid(m, cert2)
            if verdict is not None:
                control_certified += 1
                assert is_rigid_bruteforce(m, 1, 0)
        assert control_certified > 0
        elapsed = time.time() - t0
        assert elapsed < 600.0, f"took {elapsed:.2f}s >= 10min"
    except BaseException:
        scoreboard(f"{name}: FAIL")
        raise
    note = "vacuous at (3,1,1): no certificate exists" if cert is None else f"{certified} certified"
    scoreboard(f"{name}: PASS ({note}; control {control_certified}/500 certified, {elapsed:.1f}s)")


def test_criterion_08_dimension_count():
    """Log-domain dimension count reproduces the inequality direction at
    n=100, eps=1/30, D=n^3; surjective-shaped triples return none."""
    name = "criterion 08 dimension-count"
    try:
        t0 = time.time()
        n = 100
        eps = 1 / 30
        N = n * n
        m = round(4 * eps * n * n)
        d = n * n
        D = n**3
        assert N + D > 10_000  # forces the log-domain path
        assert dimension_gap_holds(m, d, N, D), "dim V2 < dim V1 must hold at eps=1/30"
        # tighter-budget sanity: the inequality direction flips for eps near 1
        assert not dimension_gap_holds(4 * n * n, d, N, D)
        for N_surj in (2, 5, 9):
            assert existence_degree_bound(N_surj, 1, N_surj) is None
        assert existence_degree_bound(2, 1, 3) == 1
        elapsed = time.time() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s >= 1s"
    except BaseException:
        scoreboard(f"{name}: FAIL")
        raise
    scoreboard(f"{name}: PASS ({elapsed:.2f}s)")


def test_criterion_09_nonzero_point_search():
    """100 random nonzero sparse polynomials (<= 5 vars, deg <= 10, F_101):
    find_nonzero_point certifies a nonzero using only values in 0..10."""
    name = "criterion 09 nonzero-point-search"
    try:
        t0 = time.time()
        F = PrimeField(101)
        rng = random.Random("acc9:polys")
        for _ in range(100):
            q = random_poly(rng, F, rng.randrange(1, 6), 10)
            pt = find_nonzero_point(q, 10)
            assert all(0 <= a <= 10 for a in pt)
            assert q.evaluate(pt) != 0
        elapsed = time.time() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s >= 5s"
    except BaseException:
        scoreboard(f"{name}: FAIL")
        raise
    scoreboard(f"{name}: PASS ({elapsed:.2f}s)")


def test_criterion_10_determinism(tmp_path):
    """Repeating criteria 3 and 6 with identical seeds yields byte-identical
    certificate files (and, for 3, the identical none-in-range outcome)."""
    name = "criterion 10 determinism"
    try:
        t0 = time.time()
        # criterion 6 rerun, twice, byte-compared
        files = []
        for tag in ("a", "b"):
            out = tmp_path / f"tensor-{tag}.json"
            code = cli_main(
                ["solve", "--map", "tensor(2,3,1)", "-p", "101", "--dmax", "2",
                 "--seed", "7", "--out", str(out)]
            )
            assert code == 0
            files.append(out.read_bytes())
        assert files[0] == files[1], "criterion-6 certificates differ between runs"

        # criterion 3 rerun: the solver's outcome (none-in-range) must repeat,
        # and the underlying sampled matrices must be bit-identical
        F = PrimeField(10007)
        pmap = rigidity_map(RigidityParams(F, 3, 1, 1))
        outcomes = [
            find_annihilator(pmap, SolverConfig(mode="sampled", d_min=1, d_max=3, seed=7))
            for _ in range(2)
        ]
        assert outcomes[0] is None and outcomes[1] is None
        from rigideq import composition_matrix_sampled
        import numpy as np

        A1, _ = composition_matrix_sampled(pmap, 2, 60, "7:round0")
        A2, _ = composition_matrix_sampled(pmap, 2, 60, "7:round0")
        assert np.array_equal(A1, A2)

        # sampled-mode certificate determinism on a map that has one
        sampled = []
        for tag in ("c", "d"):
            out = tmp_path / f"rank-{tag}.json"
            code = cli_main(
                ["solve", "--map", "rank(2,1)", "-p", "10007", "--dmax", "2",
                 "--mode", "sampled", "--seed", "7", "--out", str(out)]
            )
            assert code == 0
            sampled.append(out.read_bytes())
        assert sampled[0] == sampled[1]
        elapsed = time.time() - t0
    except BaseException:
        scoreboard(f"{name}: FAIL")
        raise
    scoreboard(f"{name}: PASS ({elapsed:.1f}s)")
