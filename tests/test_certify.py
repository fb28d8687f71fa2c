import dataclasses
import random
import warnings
from fractions import Fraction

import pytest

from rigideq import (
    AnnihilatorCertificate,
    DenseMatrix,
    LinearCircuit,
    MultiPoly,
    PrimeField,
    RigidityParams,
    SolverConfig,
    certify_circuit_lower_bound,
    certify_rigid,
    circuit_matrix,
    determinant_poly,
    find_annihilator,
    is_rigid_bruteforce,
    rank_map,
    rigidity_map,
    rigidity_witness,
    universal_eval,
    universal_graph,
    universal_map,
    verify_pit,
    verify_symbolic,
)
from rigideq.certify import PitReport, UnverifiedCertificateError


# ---------------------------------------------------------------- verification


def test_verify_symbolic_examples(f101):
    det2 = determinant_poly(f101, 2)
    pmap = rank_map(f101, 2, 1)
    assert verify_symbolic(det2, pmap) is True
    x11 = MultiPoly.variable(f101, 4, 0)
    assert verify_symbolic(x11, pmap) is False
    assert verify_symbolic(MultiPoly.zero(f101, 4), pmap) is True


def test_verify_pit_true_annihilator(f101):
    det2 = determinant_poly(f101, 2)
    pmap = rank_map(f101, 2, 1)
    for seed in range(5):
        ok, report = verify_pit(det2, pmap, 20, seed)
        assert ok is True
        assert report.per_trial_bound == Fraction(4, 101)
        assert report.aggregate_bound == Fraction(4, 101) ** 20


def test_verify_pit_rejects_non_annihilator(f101):
    pmap = rank_map(f101, 2, 1)
    x11 = MultiPoly.variable(f101, 4, 0)
    ok, _ = verify_pit(x11, pmap, 20, 0)
    assert ok is False


def test_pit_report_bound_example():
    report = PitReport(10, 101, 27, Fraction(27, 101), Fraction(27, 101) ** 10)
    assert report.aggregate_bound == Fraction(27**10, 101**10)
    assert "27/101" in report.display()


def test_verify_pit_warns_on_small_field():
    # deg(Q)*deg(P) = 4 >= p = 3: the Schwartz-Zippel bound degenerates
    F3 = PrimeField(3)
    pmap = rank_map(F3, 2, 1)
    det2 = determinant_poly(F3, 2)
    with pytest.warns(UserWarning, match="degenerates"):
        verify_pit(det2, pmap, 3, 0)


# ---------------------------------------------------------------- rigidity certificates


@pytest.fixture(scope="module")
def rigidity210_cert():
    # rigidity(2,1,0) over F_5 is the rank map; its annihilator is det2
    F5 = PrimeField(5)
    pmap = rigidity_map(RigidityParams(F5, 2, 1, 0))
    cert = find_annihilator(pmap, SolverConfig(mode="symbolic", d_min=1, d_max=2))
    assert cert is not None and cert.degree == 2
    return cert


def test_certify_rigid_cross_validates_oracle(rigidity210_cert):
    # full cross-check: certified => brute-force rigid, on all 625 matrices
    F5 = PrimeField(5)
    for flat in range(5**4):
        entries = (flat % 5, flat // 5 % 5, flat // 25 % 5, flat // 125 % 5)
        m = DenseMatrix(F5, 2, 2, entries)
        result = certify_rigid(m, rigidity210_cert)
        rigid = is_rigid_bruteforce(m, 1, 0)
        if result is not None:
            assert rigid, f"certified matrix {entries} is not (1,0)-rigid"
            assert result.value == rigidity210_cert.q.evaluate(list(entries))
            assert result.n == 2 and result.r == 1 and result.k == 0
        else:
            # det2 vanishes exactly on the rank-<=1 matrices, so here the
            # equation is a perfect test and "not certified" means non-rigid
            assert not rigid


def test_certify_rigid_never_certifies_witnesses():
    # 10^4 random rank-<=r plus <=k-sparse constructions are never certified
    F = PrimeField(101)
    params = RigidityParams(F, 2, 1, 0)
    pmap = rigidity_map(params)
    cert = find_annihilator(pmap, SolverConfig(d_min=1, d_max=2))
    rng = random.Random("cert:witness")
    betas = []
    for _ in range(10_000):
        u0 = [[rng.randrange(F.p)] for _ in range(2)]
        v0 = [[rng.randrange(F.p) for _ in range(2)]]
        betas.append(rigidity_witness(params, u0, v0, {}))
    # the map at every witness in one batched evaluation
    for entries in pmap.evaluate_many(betas).tolist():
        assert certify_rigid(DenseMatrix(F, 2, 2, tuple(entries)), cert) is None


def test_certify_rigid_input_validation(rigidity210_cert, f101):
    F5 = PrimeField(5)
    with pytest.raises(ValueError, match="different fields"):
        certify_rigid(DenseMatrix(f101, 2, 2, (1, 0, 0, 1)), rigidity210_cert)
    with pytest.raises(ValueError, match="3x3"):
        certify_rigid(DenseMatrix(F5, 3, 3, (1,) * 9), rigidity210_cert)
    not_rigidity = find_annihilator(rank_map(F5, 2, 1), SolverConfig(d_min=2, d_max=2))
    with pytest.raises(ValueError, match="not for a rigidity map"):
        certify_rigid(DenseMatrix(F5, 2, 2, (1, 0, 0, 1)), not_rigidity)


def test_unverified_certificates_refused(rigidity210_cert):
    F5 = PrimeField(5)
    m = DenseMatrix(F5, 2, 2, (1, 0, 0, 1))
    stripped = AnnihilatorCertificate(
        rigidity210_cert.pmap, rigidity210_cert.q, 2, "symbolic", 0, {}
    )
    with pytest.raises(UnverifiedCertificateError, match="lacks"):
        certify_rigid(m, stripped)
    corrupted = AnnihilatorCertificate(
        rigidity210_cert.pmap,
        MultiPoly.variable(F5, 4, 0),
        2,
        "symbolic",
        0,
        {"symbolic_verified": True},
    )
    # the stored flag is never trusted: Q = x11 evaluates nonzero at m, but
    # Q o P != 0, so nothing is certified
    with pytest.raises(UnverifiedCertificateError, match="re-verification"):
        certify_rigid(m, corrupted)


def test_certify_rigid_refuses_a_relabelled_map():
    # a rank(3,1) annihilator (a 2x2 minor) relabelled rigidity(3,1,1) would
    # certify diag(1,1,0), which one sparse entry brings down to rank 1
    F11 = PrimeField(11)
    cert = find_annihilator(rank_map(F11, 3, 1), SolverConfig(d_min=1, d_max=2))
    diag = DenseMatrix(F11, 3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 0))
    assert not is_rigid_bruteforce(diag, 1, 1)
    for label in ("rigidity(3,1,1)", "rigidity(3,3,1)"):
        forged = dataclasses.replace(cert, pmap=dataclasses.replace(cert.pmap, label=label))
        with pytest.raises(UnverifiedCertificateError, match="rigidity map|not the"):
            certify_rigid(diag, forged)
    real = find_annihilator(rigidity_map(RigidityParams(F11, 2, 1, 0)), SolverConfig(d_min=2, d_max=2))
    assert certify_rigid(DenseMatrix(F11, 2, 2, (1, 0, 0, 1)), real) is not None


def test_a_loaded_certificate_is_bound_and_its_copies_are_bound_again(rigidity210_cert):
    """from_json binds the label and keeps the canonical document, from which
    certify writes; a copy made with dataclasses.replace has no document,
    so it is bound again, by comparison, as one built in memory."""
    loaded = AnnihilatorCertificate.from_json(rigidity210_cert.to_json())
    assert loaded.doc == rigidity210_cert.to_json_dict() and loaded == rigidity210_cert
    m = DenseMatrix(PrimeField(5), 2, 2, (1, 0, 0, 1))
    assert certify_rigid(m, loaded).to_json() == certify_rigid(m, rigidity210_cert).to_json()
    relabelled = dataclasses.replace(loaded, pmap=dataclasses.replace(loaded.pmap, label="rigidity(2,1,1)"))
    assert relabelled.doc is None
    with pytest.raises(UnverifiedCertificateError, match="not the rigidity"):
        certify_rigid(m, relabelled)


# ---------------------------------------------------------------- circuit certificates


@pytest.fixture(scope="module")
def universal_cert():
    # the smallest universal graph on 2x2 matrices; its map has an
    # annihilator of degree 5 over F_101
    graph = universal_graph(PrimeField(101), 2, 1, 1, 1)
    cert = find_annihilator(universal_map(graph), SolverConfig(mode="sampled", d_min=5, d_max=5))
    assert cert is not None and cert.label == "universal(2,1,1,1)"
    return graph, cert


def test_certify_circuit_lower_bound_orientation(universal_cert):
    graph, cert = universal_cert
    F = graph.field
    rng = random.Random("cert:orientation")
    certified = 0
    for _ in range(10):
        # U[i][j] is the coefficient of input i at output j, which is entry (j, i)
        U = universal_eval(graph, [rng.randrange(F.p)], [rng.randrange(F.p)])
        image = DenseMatrix(F, 2, 2, (U[0][0], U[1][0], U[0][1], U[1][1]))
        assert certify_circuit_lower_bound(image, cert) is None
        transposed = DenseMatrix(F, 2, 2, (U[0][0], U[0][1], U[1][0], U[1][1]))
        result = certify_circuit_lower_bound(transposed, cert)
        if result is not None:
            certified += 1
            assert result.value == cert.q.evaluate([U[j][i] for i in range(2) for j in range(2)])
            assert (result.n, result.s_budget, result.L, result.w) == (2, 1, 1, 1)
    assert certified
    # one edge from input 0 to output 1 is a circuit within the budget
    one_edge = LinearCircuit(F, 2, 2, ((0, 3, 7),), (2, 3))
    m = DenseMatrix(F, 2, 2, tuple(x for row in circuit_matrix(one_edge) for x in row))
    assert m.entries == (0, 0, 7, 0)
    assert certify_circuit_lower_bound(m, cert) is None


def test_certify_circuit_lower_bound_validation(universal_cert):
    _, cert = universal_cert
    with pytest.raises(ValueError, match="2x2"):
        certify_circuit_lower_bound(DenseMatrix(cert.pmap.field, 3, 3, (1,) * 9), cert)
    F5 = PrimeField(5)
    rigid_cert = find_annihilator(
        rigidity_map(RigidityParams(F5, 2, 1, 0)), SolverConfig(d_min=2, d_max=2)
    )
    with pytest.raises(ValueError, match="not for a universal"):
        certify_circuit_lower_bound(DenseMatrix(F5, 2, 2, (1, 0, 0, 1)), rigid_cert)


def test_certify_circuit_lower_bound_refuses_a_relabelled_map():
    # det2 (the rank(2,1) annihilator) relabelled universal(2,2,1,2) would
    # certify I_2, which the 2-edge circuit 0->2, 1->3 computes
    F = PrimeField(101)
    cert = find_annihilator(rank_map(F, 2, 1), SolverConfig(d_min=1, d_max=2))
    identity = DenseMatrix(F, 2, 2, (1, 0, 0, 1))
    two_edges = LinearCircuit(F, 2, 2, ((0, 2, 1), (1, 3, 1)), (2, 3))
    assert circuit_matrix(two_edges) == [[1, 0], [0, 1]]
    assert cert.q.evaluate(list(identity.entries)) != 0
    for label, match in (("universal(2,2,1,2)", "not the universal"), ("universal(2,9,9,9)", "names no universal map")):
        forged = dataclasses.replace(cert, pmap=dataclasses.replace(cert.pmap, label=label))
        with pytest.raises(UnverifiedCertificateError, match=match):
            certify_circuit_lower_bound(identity, forged)
