import builtins
import copy
import hashlib
import json
import os
import random
import threading
import tracemalloc

import pytest

import rigideq.generators as generators
import rigideq.lincircuit as lincircuit
from rigideq import AnnihilatorCertificate, MultiPoly, PolyMap, PrimeField, determinant_poly
from rigideq.annihilator import MAX_RESAMPLE_ROUNDS, SAMPLED_BYTE_CAP
from rigideq.certify import verify_symbolic
from rigideq.cli import build_parser, main


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------- genmap


def test_genmap_rank21(tmp_path, capsys):
    out = tmp_path / "map.json"
    assert run("genmap", "--map", "rank(2,1)", "-p", "101", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    pmap = PolyMap.from_json_dict(doc)
    assert pmap.in_arity == 4 and pmap.out_arity == 4 and pmap.degree() == 2
    assert "degree 2" in capsys.readouterr().err


def test_genmap_rigidity_degree(tmp_path):
    out = tmp_path / "map.json"
    assert run("genmap", "--map", "rigidity(3,1,1)", "-p", "101", "--out", str(out)) == 0
    pmap = PolyMap.from_json_dict(json.loads(out.read_text()))
    assert pmap.in_arity == 8 and pmap.out_arity == 9 and pmap.degree() == 9


def test_genmap_field_too_small(capsys):
    assert run("genmap", "--map", "sv(3,1)", "-p", "3") == 64
    assert "field too small" in capsys.readouterr().err


def test_moduli_from_2_31_are_refused(tmp_path, rigidity_cert_file, capsys):
    # the least prime above 2**31: 64 as a -p or in a matrix file, 4 in a certificate
    assert run("genmap", "--map", "rank(2,1)", "-p", "2147483659") == 64
    assert "not below 2**31" in capsys.readouterr().err
    matrix = tmp_path / "m.txt"
    matrix.write_text("2147483659 2 2\n1 0\n0 1\n")
    assert run("certify", "--in", str(matrix), "--cert", str(rigidity_cert_file)) == 64
    assert "not below 2**31" in capsys.readouterr().err
    doc = json.loads(rigidity_cert_file.read_text())
    _word_overflow_p(doc)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    assert run("verify", "--cert", str(forged)) == 4
    assert "not below 2**31" in capsys.readouterr().err


def test_genmap_needs_prime(capsys):
    assert run("genmap", "--map", "rank(2,1)") == 64


def test_genmap_round_trip(tmp_path):
    out = tmp_path / "map.json"
    run("genmap", "--map", "tensor(2,3,1)", "-p", "101", "--out", str(out))
    again = tmp_path / "again.json"
    assert run("genmap", "--in", str(out), "--out", str(again)) == 0
    assert out.read_bytes() == again.read_bytes()


def test_genmap_refuses_an_unreadable_map_file(tmp_path, capsys):
    # a map with no label used to read as "", and these used to raise
    out = tmp_path / "map.json"
    assert run("genmap", "--map", "rank(2,1)", "-p", "101", "--out", str(out)) == 0
    for key, value in (("label", None), ("label", 5), ("m", 4.0)):
        doc = json.loads(out.read_text())
        doc.pop(key) if value is None else doc.update({key: value})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("genmap", "--in", str(bad)) == 64
        assert "unreadable map file" in capsys.readouterr().err


# ---------------------------------------------------------------- solve


def test_solve_rank21(tmp_path):
    cert_path = tmp_path / "cert.json"
    assert (
        run("solve", "--map", "rank(2,1)", "-p", "101", "--dmax", "2", "--out", str(cert_path)) == 0
    )
    cert = AnnihilatorCertificate.from_json(cert_path.read_text())
    assert cert.degree == 2
    F = PrimeField(101)
    det2 = determinant_poly(F, 2)
    lead_e, lead_c = det2.sorted_terms()[0]
    scale = cert.q.terms[lead_e] * pow(lead_c, F.p - 2, F.p) % F.p
    assert cert.q.terms == {e: c * scale % F.p for e, c in det2.terms.items()}


def test_solve_none_in_range(capsys):
    # sv(2,1) is image-dense: no annihilator of degree <= 3 exists
    assert run("solve", "--map", "sv(2,1)", "-p", "101", "--dmax", "3") == 2
    assert "no annihilator" in capsys.readouterr().err


def test_solve_resource_refusal(capsys):
    assert (
        run("solve", "--map", "rigidity(3,1,1)", "-p", "101", "--dmax", "3", "--mode", "symbolic")
        == 3
    )
    assert "resource refusal" in capsys.readouterr().err


def test_sampled_refusal_allocates_nothing(capsys):
    """Sampled rigidity(3,1,1) at D=8 would be a 24326 x 24310 int64 matrix,
    about 4.7 GB: it is refused (exit 3) with the estimate and the cap before
    the basis is built or any point is drawn."""
    build_parser()
    tracemalloc.start()
    try:
        argv = ("solve", "--map", "rigidity(3,1,1)", "-p", "10007", "--mode", "sampled", "--dmin", "8", "--dmax", "8")
        assert run(*argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert f"~{8 * 24326 * 24310} bytes > cap {SAMPLED_BYTE_CAP}" in capsys.readouterr().err


def test_solve_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert (
            run(
                "solve", "--map", "rank(2,1)", "-p", "10007", "--dmax", "2",
                "--mode", "sampled", "--seed", "42", "--out", str(path),
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


# Whole symbolic certificates at p = 101, bytes and all (verification rows
# and kernel_dim included), as emitted before the level-batched build.
CERTIFICATE_SHA256 = {
    "sv(12,2)": "9ab93722b2b94588cdea21da1abc0ca555a96fdbe2a15d61d41f3044032b865c",
    "rigidity(4,2,0)": "95ca40f4658b8dd0994b29f551b7d8ef93bf27ce6b9adbeb17587d25b0afe236",
    "rank(3,2)": "fce7568bb0cebe0d4e2f79093b3fcf439959706c16431ec78805008e59cb9ce1",
    "tensor(2,3,1)": "9c06ef2f7483ef2d8c36cb87aafcde4faab87a5c46f61b09054231718c8cdb82",
}


@pytest.mark.parametrize("spec", sorted(CERTIFICATE_SHA256))
def test_symbolic_certificate_bytes_pinned(tmp_path, spec):
    path = tmp_path / "cert.json"
    assert run("solve", "--map", spec, "-p", "101", "--dmax", "3", "--out", str(path)) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CERTIFICATE_SHA256[spec]


# genmap's stdout for maps with an SV part at an offset (k > 0), a nonempty
# support and r > 1 tensor terms, as emitted before the builders shared one
# clean term path.
GENMAP_SHA256 = {
    ("rigidity(3,1,1)", 101): "c14b6f3ca93cc42e6465d68bd77aa87bb586c1766bbf722e0af68c2e79e08af8",
    ("rigidity(3,2,4)", 101): "b40b3370d8c33b674083a3f19a786b793dd8203e6cc5d00f9275249ae2555505",
    ("support(3,1,[1,2;3,3])", 101): "de94224e14c489c1664f3b51dcb3fb64ebba0f62a548b4f8976f50e6725e9d17",
    ("support(2,0,[1,1])", 101): "b8bed3a337600b6581215bc5910e8391372ec797b6cdcd75ee49ccbfd33b8e0d",
    ("tensor(2,3,2)", 101): "ac5fcea60a35967c1876819a4276dacfec937cb6550355be2dc9e3a19944ab2f",
    ("sv(9,3)", 101): "91daf18b839beb103b26021c29102b6c59e2771001011b69217b8e690d341483",
    ("rigidity(3,1,1)", 10007): "924372510e7c20753e95bef2e8e03fcd2fe1b16190dcb7462a4ae940fc63e014",
}


@pytest.mark.parametrize("spec, p", sorted(GENMAP_SHA256))
def test_genmap_bytes_pinned(capsys, spec, p):
    assert run("genmap", "--map", spec, "-p", str(p)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GENMAP_SHA256[spec, p]


# ---------------------------------------------------------------- certify / verify


@pytest.fixture()
def rigidity_cert_file(tmp_path):
    path = tmp_path / "rigidity-cert.json"
    assert (
        run("solve", "--map", "rigidity(2,1,0)", "-p", "5", "--dmax", "2", "--out", str(path)) == 0
    )
    return path


def test_certify_flow(tmp_path, rigidity_cert_file, capsys):
    full_rank = tmp_path / "m1.txt"
    full_rank.write_text("5 2 2\n1 0\n0 1\n")
    out = tmp_path / "rigidity.json"
    assert run("certify", "--in", str(full_rank), "--cert", str(rigidity_cert_file), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "rigidity" and doc["value"] != 0
    capsys.readouterr()

    low_rank = tmp_path / "m2.txt"
    low_rank.write_text("5 2 2\n1 2\n2 4\n")
    assert run("certify", "--in", str(low_rank), "--cert", str(rigidity_cert_file)) == 1
    assert "not certified" in capsys.readouterr().err


def _float_exponents(doc):
    for term in doc["Q"]["terms"]:
        term["e"] = [float(e) for e in term["e"]]


def _huge_degree(doc):
    # deg Q = D = 10**9, with its term moved out of graded lex order
    e = doc["Q"]["terms"][0]["e"]
    e[:] = [10**9] + [0] * (len(e) - 1)
    doc["D"] = 10**9


def _zero_q(tmp_path, cert_file):
    """The certificate with a Q of no terms, which is canonical and loads."""
    doc = json.loads(cert_file.read_text())
    doc["Q"]["terms"] = []
    path = tmp_path / "zero-q.json"
    path.write_text(json.dumps(doc))
    return path


def _word_overflow_p(doc):
    # every p of the certificate the least prime above 2**31, which no PrimeField admits
    for part in [doc, doc["map"], doc["Q"], *doc["map"]["coords"]]:
        part["p"] = 2147483659


def _malformed_certs(tmp_path, cert_file):
    """Certificates with no Q, with a Q.nvars its exponents contradict, with
    a top-level p its map contradicts, with a verification record that is
    not an object, and with numbers that are not JSON integers: a float or
    bool coefficient, a fractional exponent (whose grlex ancestors never
    reach the constant), integral floats for exponents, for every p, for
    nvars and for the map's m and N. Then a Q of degree above D, and D and
    an exponent of 10**9, whose Q o P check would walk 10**9 grlex ancestors
    (both out of graded lex order too), and a canonical Q under D = 0, D =
    65 and D one below deg Q.
    Then fields that solve never writes: an extra or missing top-level key,
    another kind or mode, a seed that is not an int, a verification record
    with a key too many or too few for its mode, symbolic_verified other
    than true, counts that are not positive ints, and rounds outside
    1..MAX_RESAMPLE_ROUNDS. Then values that are equal to the canonical ones
    but not written as solve writes them: a map or Q coefficient of p + 1,
    and Q's terms out of graded lex order. Last, every p rewritten to a prime
    above 2**31."""
    paths = []
    for name, forge in (
        ("no-q", lambda d: d.pop("Q")),
        ("q-nvars", lambda d: d["Q"].update(nvars=d["Q"]["nvars"] + 1)),
        ("top-p", lambda d: d.update(p=13)),
        ("verification", lambda d: d.update(verification=[])),
        ("float-coefficient", lambda d: d["Q"]["terms"][0].update(c=d["Q"]["terms"][0]["c"] + 0.5)),
        ("bool-coefficient", lambda d: d["Q"]["terms"][0].update(c=True)),
        ("half-exponent", lambda d: d["Q"]["terms"][-1]["e"].__setitem__(0, 0.5)),
        ("float-exponents", _float_exponents),
        ("float-top-p", lambda d: d.update(p=float(d["p"]))),
        ("float-q-p", lambda d: d["Q"].update(p=float(d["Q"]["p"]))),
        ("float-map-p", lambda d: d["map"].update(p=float(d["map"]["p"]))),
        ("float-coord-p", lambda d: d["map"]["coords"][0].update(p=float(d["map"]["coords"][0]["p"]))),
        ("float-nvars", lambda d: d["Q"].update(nvars=float(d["Q"]["nvars"]))),
        ("float-m", lambda d: d["map"].update(m=float(d["map"]["m"]))),
        ("float-n", lambda d: d["map"].update(N=float(d["map"]["N"]))),
        ("bool-map-exponent", lambda d: d["map"]["coords"][0]["terms"][0]["e"].__setitem__(0, True)),
        ("q-above-D", lambda d: d["Q"]["terms"][0]["e"].__setitem__(0, d["Q"]["terms"][0]["e"][0] + d["D"])),
        ("huge-D", _huge_degree),
        ("D-0", lambda d: d.update(D=0)),
        ("D-65", lambda d: d.update(D=65)),
        ("D-below-deg-q", lambda d: d.update(D=max(sum(t["e"]) for t in d["Q"]["terms"]) - 1)),
        ("extra-key", lambda d: d.update(extra=1)),
        ("no-seed", lambda d: d.pop("seed")),
        ("kind", lambda d: d.update(kind="rigidity")),
        ("mode-magic", lambda d: d.update(mode="magic")),
        ("seed-x", lambda d: d.update(seed="x")),
        ("symbolic-rounds", lambda d: d["verification"].update(rounds=1)),
        ("sampled-without-rounds", lambda d: d.update(mode="sampled")),
        ("symbolic-verified-no", lambda d: d["verification"].update(symbolic_verified="no")),
        ("symbolic-verified-1", lambda d: d["verification"].update(symbolic_verified=1)),
        ("kernel-dim-negative", lambda d: d["verification"].update(kernel_dim=-7)),
        ("kernel-dim-bool", lambda d: d["verification"].update(kernel_dim=True)),
        ("rows-lots", lambda d: d["verification"].update(rows="lots")),
        ("rounds-0", lambda d: (d.update(mode="sampled"), d["verification"].update(rounds=0))),
        ("rounds-5", lambda d: (d.update(mode="sampled"), d["verification"].update(rounds=5))),
        ("map-coefficient-p-plus-1", lambda d: d["map"]["coords"][0]["terms"][0].update(c=d["p"] + 1)),
        ("q-coefficient-p-plus-1", lambda d: d["Q"]["terms"][0].update(c=d["Q"]["terms"][0]["c"] + d["p"])),
        ("q-terms-permuted", lambda d: d["Q"]["terms"].reverse()),
        ("p-above-2-31", _word_overflow_p),
    ):
        doc = json.loads(cert_file.read_text())
        forge(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return paths


def test_certify_corrupted_cert(tmp_path, rigidity_cert_file, capsys):
    doc = json.loads(rigidity_cert_file.read_text())
    doc["Q"]["terms"][0]["c"] = (doc["Q"]["terms"][0]["c"] + 1) % 5 or 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    matrix = tmp_path / "m.txt"
    matrix.write_text("5 2 2\n1 0\n0 1\n")
    for cert in [bad, _zero_q(tmp_path, rigidity_cert_file)] + _malformed_certs(tmp_path, rigidity_cert_file):
        assert run("certify", "--in", str(matrix), "--cert", str(cert)) == 4
        assert "verification" in capsys.readouterr().err
    # the largest rounds a sampled certificate may record
    doc = json.loads(rigidity_cert_file.read_text())
    doc["mode"] = "sampled"
    doc["verification"]["rounds"] = MAX_RESAMPLE_ROUNDS
    sampled = tmp_path / "sampled.json"
    sampled.write_text(json.dumps(doc))
    assert run("certify", "--in", str(matrix), "--cert", str(sampled)) == 0


def test_certify_refuses_a_float_coefficient(tmp_path, capsys):
    # Q's coefficient c + 0.5 used to be truncated to c by the Q o P check,
    # and the float then made Q(M) nonzero on matrices of rank <= r
    cert = tmp_path / "cert.json"
    assert run("solve", "--map", "rigidity(3,1,0)", "-p", "101", "--dmax", "2", "--out", str(cert)) == 0
    doc = json.loads(cert.read_text())
    doc["Q"]["terms"][0]["c"] += 0.5
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    rank1 = tmp_path / "m.txt"
    rank1.write_text("101 3 3\n1 2 3\n2 4 6\n3 6 9\n")
    out = tmp_path / "rigidity.json"
    capsys.readouterr()
    assert run("certify", "--in", str(rank1), "--cert", str(forged), "--out", str(out)) == 4
    assert "unreadable certificate" in capsys.readouterr().err
    assert not out.exists()
    assert run("certify", "--in", str(rank1), "--cert", str(cert), "--out", str(out)) == 1
    assert not out.exists()


def test_certify_refuses_a_relabelled_map(tmp_path, capsys):
    cert = tmp_path / "rank.json"
    assert run("solve", "--map", "rank(3,1)", "-p", "11", "--dmax", "2", "--out", str(cert)) == 0
    doc = json.loads(cert.read_text())
    doc["label"] = doc["map"]["label"] = "rigidity(3,1,1)"
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    matrix = tmp_path / "m.txt"
    matrix.write_text("11 3 3\n1 0 0\n0 1 0\n0 0 0\n")
    out = tmp_path / "rigidity.json"
    capsys.readouterr()
    assert run("certify", "--in", str(matrix), "--cert", str(forged), "--out", str(out)) == 4
    assert "not the rigidity(3,1,1) map" in capsys.readouterr().err
    assert not out.exists()
    assert run("oracle", "--in", str(matrix), "--rigid", "1,1") == 1


def test_certify_refuses_a_relabelled_universal_map(tmp_path, capsys):
    # det2 relabelled universal(2,2,1,2) would call I_2 circuit-hard, yet the
    # 2-edge circuit 0->2, 1->3 computes it
    cert = tmp_path / "rank.json"
    assert run("solve", "--map", "rank(2,1)", "-p", "101", "--dmax", "2", "--out", str(cert)) == 0
    doc = json.loads(cert.read_text())
    doc["label"] = doc["map"]["label"] = "universal(2,2,1,2)"
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    matrix = tmp_path / "m.txt"
    matrix.write_text("101 2 2\n1 0\n0 1\n")
    out = tmp_path / "circuit.json"
    capsys.readouterr()
    assert run("certify", "--in", str(matrix), "--cert", str(forged), "--out", str(out)) == 4
    assert "not the universal(2,2,1,2) map" in capsys.readouterr().err
    assert not out.exists()


def test_verify_good_and_bad(tmp_path, rigidity_cert_file, capsys):
    # the line says what was checked, and which solver claims were only carried
    carried = "solver claims carried, not checked: kernel_dim=1, rows="
    assert run("verify", "--cert", str(rigidity_cert_file)) == 0
    err = capsys.readouterr().err
    assert "verified (D=2): checked Q != 0, Q o P = 0 exactly, the map is its label's; " + carried in err
    assert run("verify", "--cert", str(rigidity_cert_file), "--trials", "10") == 0
    assert "the map is its label's, 10 PIT trials; " + carried in capsys.readouterr().err
    # a negative trial count used to print (d/p)^-3 and verify
    assert run("verify", "--cert", str(rigidity_cert_file), "--trials", "-3") == 64
    err = capsys.readouterr().err
    assert "trials must be >= 0" in err and "verified" not in err
    doc = json.loads(rigidity_cert_file.read_text())
    doc["Q"]["terms"] = doc["Q"]["terms"][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("verify", "--cert", str(bad)) == 4
    assert "failed" in capsys.readouterr().err
    assert run("verify", "--cert", str(_zero_q(tmp_path, rigidity_cert_file))) == 4
    assert "verification failed: Q is zero" in capsys.readouterr().err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    for cert in [garbage] + _malformed_certs(tmp_path, rigidity_cert_file):
        assert run("verify", "--cert", str(cert)) == 4
        assert "unreadable certificate" in capsys.readouterr().err


def _solved(tmp_path, spec, p, dmax, *flags):
    path = tmp_path / f"{spec}.json"
    assert run("solve", "--map", spec, "-p", str(p), "--dmax", str(dmax), *flags, "--out", str(path)) == 0
    return json.loads(path.read_text())


def _structural_forgeries(tmp_path):
    """Certificates whose Q annihilates their embedded map, which is not the
    map their label names: only binding the label refuses them. The first is
    rank(2,1) with every coordinate x1 and Q = y1 - y2, which vanishes on
    that map and not on rank-1 matrices; the rest forge rigidity(2,1,0)."""
    rng = random.Random("cli:structural-forgeries")
    rank = _solved(tmp_path, "rank(2,1)", 101, 2)
    rigidity = _solved(tmp_path, "rigidity(2,1,0)", 101, 2)
    y1_minus_y2 = [{"c": 1, "e": [1, 0, 0, 0]}, {"c": 100, "e": [0, 1, 0, 0]}]
    forgeries = {}

    def forge(name, base, **fields):
        doc = copy.deepcopy(base)
        for key, value in fields.items():
            if key == "label":
                doc["label"] = doc["map"]["label"] = value
            elif key == "Q_terms":
                doc["Q"]["terms"] = value
            else:
                doc["map"][key] = value
        forgeries[name] = doc

    forge("rank-all-x1", rank, coords=[{"nvars": 4, "p": 101, "terms": [{"c": 1, "e": [1, 0, 0, 0]}]}] * 4,
          Q_terms=y1_minus_y2)
    forge("all-equal", rigidity, coords=rigidity["map"]["coords"][:1] * 4, Q_terms=y1_minus_y2)
    # P'_i = P_perm[i], and Q's exponents follow: Q'(P') = Q(P) = 0
    perm = list(range(4))
    while perm == sorted(perm):
        rng.shuffle(perm)
    forge("permuted", rigidity, coords=[rigidity["map"]["coords"][i] for i in perm],
          Q_terms=[{"c": t["c"], "e": [t["e"][i] for i in perm]} for t in rigidity["Q"]["terms"]])
    forge("foreign-map", _solved(tmp_path, "sv(4,1)", 101, 2), label="rigidity(2,1,0)")
    for i in range(3):
        for step in (-1, 1):
            args = [2, 1, 0]
            args[i] += step
            forge(f"moved-{i}{step:+d}", rigidity, label="rigidity({},{},{})".format(*args))
    forge("respelled", rigidity, label="rigidity( 2,1,0)")
    return forgeries


def test_verify_refuses_a_map_that_is_not_its_label(tmp_path, capsys):
    matrices = tmp_path / "I2.txt", tmp_path / "ones.txt"
    matrices[0].write_text("101 2 2\n1 0\n0 1\n")
    matrices[1].write_text("101 2 2\n1 1\n1 1\n")
    for name, doc in _structural_forgeries(tmp_path).items():
        forged = tmp_path / f"{name}.json"
        forged.write_text(json.dumps(doc))
        # Q annihilates the embedded map, which only a parse of it shows:
        # from_json builds the label's map and refuses the document
        assert verify_symbolic(MultiPoly.from_json_dict(doc["Q"]), PolyMap.from_json_dict(doc["map"])), name
        capsys.readouterr()
        assert run("verify", "--cert", str(forged), "--trials", "5") == 4, name
        err = capsys.readouterr().err
        assert "is not the" in err or "names no rigidity map" in err, (name, err)
        for matrix in matrices:
            assert run("certify", "--in", str(matrix), "--cert", str(forged)) == 4, name


def _spy_builders(monkeypatch):
    """Names of the map builders called from now on, in call order. The
    process's built label maps are dropped first, so that what a test sees
    built never depends on the tests that ran before it."""
    generators._label_map.cache_clear()
    called = []
    for module, names in ((generators, ("parse_map_spec", "rank_map", "rigidity_map", "fixed_support_map",
                                        "tensor_map", "sv_map")),
                          (lincircuit, ("universal_graph", "universal_map"))):
        for name in names:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name, **k: called.append(_name) or _real(*a, **k))
    return called


def test_oversized_labels_are_refused_before_any_build(tmp_path, monkeypatch, capsys):
    """A 4-coordinate certificate relabelled with a map of another size is
    refused from the label's closed-form arities, and a universal label from
    its closed-form edge count: rank(80,80) used to build its 6400
    coordinates first, for about a minute."""
    base = _solved(tmp_path, "rigidity(2,1,0)", 10007, 2)
    matrix = tmp_path / "m.txt"
    matrix.write_text("10007 2 2\n1 0\n0 1\n")
    called = _spy_builders(monkeypatch)
    for label, why in (
        ("rank(80,80)", "not the rank(80,80) map"),
        ("support(2,1000000000,[])", "not the support(2,1000000000,[]) map"),
        ("universal(80,1,1,1)", "not the universal(80,1,1,1) map"),
        ("universal(2,1,1000000,1000000)", "names no universal map"),
        ("tensor(2,1000000000,1)", "not the tensor(2,1000000000,1) map"),
        ("sv(1000000000,1)", "not the sv(1000000000,1) map"),
    ):
        doc = copy.deepcopy(base)
        doc["label"] = doc["map"]["label"] = label
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", "--cert", str(forged)) == 4, label
        assert why in capsys.readouterr().err, label
        assert run("certify", "--in", str(matrix), "--cert", str(forged)) == 4, label
        assert called == [], (label, called)


def test_certify_builds_the_label_map_once_and_parses_no_map(tmp_path, rigidity_cert_file, monkeypatch, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("5 2 2\n1 0\n0 1\n")
    called = _spy_builders(monkeypatch)
    parsed = []
    real = PolyMap.from_json_dict.__func__
    monkeypatch.setattr(PolyMap, "from_json_dict", classmethod(lambda cls, doc: parsed.append(doc) or real(cls, doc)))
    assert run("certify", "--in", str(matrix), "--cert", str(rigidity_cert_file)) == 0
    # bound_map builds from the label it has parsed: parse_map_spec is not called
    assert called.count("rigidity_map") == 1 and called.count("parse_map_spec") == 0 and parsed == []
    # the next certify in this process binds to the map already built
    assert run("certify", "--in", str(matrix), "--cert", str(rigidity_cert_file)) == 0
    assert called == ["rigidity_map"] and parsed == []


def test_the_built_label_map_is_never_poisoned(tmp_path, rigidity_cert_file, capsys):
    """certify and verify in one process share the label's built map: a map
    with one coefficient changed and a Q with Q o P != 0, run between two
    honest runs, are still refused, and the second honest run gives the
    first's exits, messages and bytes."""
    matrix, out = tmp_path / "m.txt", tmp_path / "out.json"
    matrix.write_text("5 2 2\n1 0\n0 1\n")
    doc = json.loads(rigidity_cert_file.read_text())
    doc["map"]["coords"][0]["terms"][0]["c"] = 2  # a residue mod 5, not the label's 1
    forged_map = tmp_path / "forged-map.json"
    forged_map.write_text(json.dumps(doc))
    doc = json.loads(rigidity_cert_file.read_text())
    doc["Q"]["terms"][0]["c"] = (doc["Q"]["terms"][0]["c"] + 1) % 5 or 1
    forged_q = tmp_path / "forged-q.json"
    forged_q.write_text(json.dumps(doc))

    def both(cert):
        codes = (run("certify", "--in", str(matrix), "--cert", str(cert), "--out", str(out)),
                 run("verify", "--cert", str(cert), "--trials", "3"))
        return codes, capsys.readouterr().err

    capsys.readouterr()
    honest = both(rigidity_cert_file)
    certified = out.read_bytes()
    assert honest[0] == (0, 0)
    for forged, why in ((forged_map, "embedded map is not the rigidity(2,1,0) map"),
                        (forged_q, "failed symbolic re-verification")):
        codes, err = both(forged)
        assert codes == (4, 4) and why in err, (forged, err)
    assert both(rigidity_cert_file) == honest
    assert out.read_bytes() == certified


def test_certificate_labels_must_be_strings(tmp_path, rigidity_cert_file, capsys):
    # a label of 5 used to crash certify (exit 1, "not certified") and verify
    # printed "certificate for 5 verified"; a map with no label read as ""
    matrix = tmp_path / "m.txt"
    matrix.write_text("5 2 2\n1 0\n0 1\n")
    docs = []
    for label in (5, None, ["x"]):
        doc = json.loads(rigidity_cert_file.read_text())
        doc["label"] = doc["map"]["label"] = label
        docs.append(doc)
    docs.append(json.loads(rigidity_cert_file.read_text()))
    docs[-1]["map"].pop("label")
    for i, doc in enumerate(docs):
        path = tmp_path / f"label-{i}.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", "--cert", str(path)) == 4
        assert run("certify", "--in", str(matrix), "--cert", str(path)) == 4
        assert "unreadable certificate" in capsys.readouterr().err


def test_a_label_outside_the_grammar_is_reported_unchecked(tmp_path, capsys):
    """A map read with --in keeps its own label: verify checks Q against the
    embedded map and says that the label was not checked; certify refuses."""
    mapfile, cert = tmp_path / "map.json", tmp_path / "cert.json"
    assert run("genmap", "--map", "rank(2,1)", "-p", "101", "--out", str(mapfile)) == 0
    doc = json.loads(mapfile.read_text())
    doc["label"] = "my 2x2 rank-1 map"
    mapfile.write_text(json.dumps(doc))
    assert run("solve", "--in", str(mapfile), "--dmax", "2", "--out", str(cert)) == 0
    capsys.readouterr()
    assert run("verify", "--cert", str(cert)) == 0
    err = capsys.readouterr().err
    assert "the label 'my 2x2 rank-1 map' is not in the map grammar and was not checked" in err
    assert "checked Q != 0, Q o P = 0 exactly; the label" in err and "its label's" not in err
    matrix = tmp_path / "m.txt"
    matrix.write_text("101 2 2\n1 0\n0 1\n")
    assert run("certify", "--in", str(matrix), "--cert", str(cert)) == 4


def test_huge_map_exponents_are_checked_in_bounded_memory(tmp_path, capsys):
    """A map outside the grammar, (x1^(2^40), x1^(2^40)), with Q = y1 - y2.
    Its points used to be evaluated on a table of every power of x1 up to
    2^40, which failed to allocate 24 TiB: verify --trials and a sampled
    solve exited 1, which reads as "not certified"."""
    coord = {"nvars": 1, "p": 101, "terms": [{"c": 1, "e": [2**40]}]}
    pmap = {"N": 2, "coords": [coord, coord], "label": "huge exponent", "m": 1, "p": 101}
    q = {"nvars": 2, "p": 101, "terms": [{"c": 1, "e": [1, 0]}, {"c": 100, "e": [0, 1]}]}
    doc = {"D": 1, "Q": q, "kind": "annihilator", "label": "huge exponent", "map": pmap, "mode": "symbolic",
           "p": 101, "seed": 0, "verification": {"kernel_dim": 1, "rows": 1, "symbolic_verified": True}}
    cert, mapfile, out = tmp_path / "cert.json", tmp_path / "map.json", tmp_path / "out.json"
    cert.write_text(json.dumps(doc))
    mapfile.write_text(json.dumps(pmap))
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="Schwartz-Zippel bound degenerates"):
            assert run("verify", "--cert", str(cert), "--trials", "3") == 0
        assert run("solve", "--in", str(mapfile), "--mode", "sampled", "--dmax", "1", "--out", str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert json.loads(out.read_text())["Q"] == q


def test_exponents_past_int64_are_evaluated_by_fermat(tmp_path, monkeypatch):
    """A map outside the grammar whose exponents do not fit int64: both
    coordinates are x1^(2^64) + 3 x1^(2^64 + 100) + 5, with Q = y1 - y2.
    Packing its exponents for evaluation raised OverflowError, so verify
    --trials and a sampled solve exited 1. Over F_101 they are reduced to
    ((e - 1) mod 100) + 1, where the two powers meet; every value must equal
    MultiPoly.evaluate's, which takes pow of the exact exponents."""
    F = PrimeField(101)
    coord = MultiPoly(F, 1, {(2**64,): 1, (2**64 + 100,): 3, (0,): 5})
    pmap = PolyMap(F, 1, (coord, coord), "past int64")
    q = {"nvars": 2, "p": 101, "terms": [{"c": 1, "e": [1, 0]}, {"c": 100, "e": [0, 1]}]}
    doc = {"D": 1, "Q": q, "kind": "annihilator", "label": "past int64", "map": pmap.to_json_dict(),
           "mode": "symbolic", "p": 101, "seed": 0,
           "verification": {"kernel_dim": 1, "rows": 1, "symbolic_verified": True}}
    cert, mapfile, out = tmp_path / "cert.json", tmp_path / "map.json", tmp_path / "out.json"
    cert.write_text(json.dumps(doc))
    mapfile.write_text(json.dumps(pmap.to_json_dict()))
    seen, evaluate_many = [], PolyMap.evaluate_many

    def spy(self, points):
        values = evaluate_many(self, points)
        seen.append((self, [list(x) for x in points], values.tolist()))
        return values

    monkeypatch.setattr(PolyMap, "evaluate_many", spy)
    with pytest.warns(UserWarning, match="Schwartz-Zippel bound degenerates"):
        assert run("verify", "--cert", str(cert), "--trials", "3") == 0
    assert run("solve", "--in", str(mapfile), "--mode", "sampled", "--dmax", "1", "--out", str(out)) == 0
    assert json.loads(out.read_text())["Q"] == q
    assert len(seen) == 2 and sum(len(points) for _, points, _ in seen) == 3 + 19
    for m, points, values in seen:
        assert values == [[c.evaluate(x) for c in m.coordinates] for x in points]


def test_no_certificate_label_opens_a_file(tmp_path, rigidity_cert_file, monkeypatch, capsys):
    sfile = tmp_path / "support.txt"
    sfile.write_text("1 1\n2 2\n")
    doc = json.loads(rigidity_cert_file.read_text())
    doc["label"] = doc["map"]["label"] = f"support(2,1,{sfile})"
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    matrix = tmp_path / "m.txt"
    matrix.write_text("5 2 2\n1 0\n0 1\n")
    opened = []
    real_open = builtins.open

    def spy_open(file, *args, **kwargs):
        opened.append(os.fspath(file) if not isinstance(file, int) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    capsys.readouterr()
    assert run("verify", "--cert", str(cert)) == 0
    assert "was not checked" in capsys.readouterr().err
    assert run("certify", "--in", str(matrix), "--cert", str(cert)) == 4
    assert str(cert) in opened and str(sfile) not in opened


@pytest.mark.parametrize("spec, p, flags, matrix, certify_code", [
    ("universal(2,1,1,1)", 101, ("--mode", "sampled", "--dmax", "5"), "101 2 2\n1 0\n0 1\n", 0),
    ("support(2,0,[1,1;2,2])", 101, ("--dmax", "1"), "101 2 2\n1 0\n0 1\n", 4),
])
def test_solve_verify_certify_by_label(tmp_path, capsys, spec, p, flags, matrix, certify_code):
    """Every label a builder writes binds: solve, verify and certify agree on it."""
    cert, mfile = tmp_path / "cert.json", tmp_path / "m.txt"
    mfile.write_text(matrix)
    assert run("solve", "--map", spec, "-p", str(p), *flags, "--out", str(cert)) == 0
    assert run("verify", "--cert", str(cert), "--trials", "5") == 0
    assert f"certificate for {spec} verified" in capsys.readouterr().err
    assert run("certify", "--in", str(mfile), "--cert", str(cert)) == certify_code


@pytest.mark.parametrize("argv", [
    ["solve", "--mode", "bogus"],
    ["solve", "--dmax", "x"],
    ["frobnicate"],
    # conflicting flags: one used to be ignored, and the run went on (0)
    ["oracle", "--in", "m.txt", "--rigid", "1,1", "--tensor-rank", "2"],
    ["solve", "--map", "rank(2,1)", "-p", "101", "--in", "missing.json"],
])
def test_usage_errors_exit_64(argv, capsys):
    """A bad flag value, an unknown command or conflicting flags are a usage
    error (64), as the README says, not argparse's 2, which here means "no
    annihilator in range"."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "usage: rigideq" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0


def test_one_parser_per_process(tmp_path, capsys):
    """The parser is built once; no call's flags or defaults reach the next,
    so every call repeats its first exit code and output bytes."""
    assert build_parser() is build_parser()
    cert = tmp_path / "cert.json"
    matrix = tmp_path / "m.txt"
    matrix.write_text("5 2 2\n1 0\n0 1\n")
    out = tmp_path / "rigidity.json"
    calls = {
        "solve": ["solve", "--map", "rigidity(2,1,0)", "-p", "5", "--dmax", "2"],
        "verify-trials": ["verify", "--cert", str(cert), "--trials", "5"],
        "verify": ["verify", "--cert", str(cert)],
        "certify-out": ["certify", "--in", str(matrix), "--cert", str(cert), "--out", str(out)],
        "certify": ["certify", "--in", str(matrix), "--cert", str(cert)],
    }

    def call(name):
        out.unlink(missing_ok=True)
        code = run(*calls[name])
        captured = capsys.readouterr()
        if name == "solve":
            cert.write_text(captured.out)
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    first = {name: call(name) for name in calls}
    assert all(code == 0 for code, *_ in first.values())
    assert "failure probability" in first["verify-trials"][2]
    assert "failure probability" not in first["verify"][2]
    assert first["certify-out"][1] == "" and first["certify-out"][3] == first["certify"][1].encode()
    for name in reversed(list(calls)):
        assert call(name) == first[name], name
    for name in calls:
        assert call(name) == first[name], name


# ---------------------------------------------------------------- --out


# certify --out bytes of the identity matrix, as emitted before --out was
# written in place
CERTIFY_OUT_SHA256 = {
    "rigidity(2,1,0)": "61701fb3ee8d566a7d43323825f94a24991285d3091f5f5d4296660c8de692ef",
    "rigidity(4,2,0)": "666cb244b68c4f8f5da61c12839d2e7edaf06f0db7085d90a9e34a4f3c10d172",
    # as emitted while certify still re-serialized the certificate it parsed
    "universal(2,1,1,1)": "b93e5a6fcb5d7a566ad37d7180578cc6f0502cc781a6f7663b5c8fbac9135438",
    "rigidity(4,2,0) indent=2": "666cb244b68c4f8f5da61c12839d2e7edaf06f0db7085d90a9e34a4f3c10d172",
}


def test_certify_out_bytes_pinned(tmp_path, identity_certify, capsys):
    """certify writes the canonical document whatever the layout of its
    input: a pretty-printed certificate gives the bytes of the compact one."""
    cert, matrix = tmp_path / "universal.json", tmp_path / "I2.txt"
    matrix.write_text("101 2 2\n1 0\n0 1\n")
    assert run("solve", "--map", "universal(2,1,1,1)", "-p", "101", "--mode", "sampled", "--dmax", "5",
               "--out", str(cert)) == 0
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(json.loads((tmp_path / "rigidity(4,2,0).json").read_text()), indent=2))
    argv = identity_certify["rigidity(4,2,0)"]
    for spec, certify in (
        ("universal(2,1,1,1)", ["certify", "--in", str(matrix), "--cert", str(cert)]),
        ("rigidity(4,2,0) indent=2", argv[:-1] + [str(pretty)]),
    ):
        capsys.readouterr()
        assert run(*certify) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CERTIFY_OUT_SHA256[spec], spec


@pytest.fixture()
def identity_certify(tmp_path, capsys):
    """argv of `certify` of the identity with each rigidity certificate, by spec."""
    argvs = {}
    for spec, p, dmax, n in (("rigidity(2,1,0)", 5, 2, 2), ("rigidity(4,2,0)", 101, 3, 4)):
        cert, matrix = tmp_path / f"{spec}.json", tmp_path / f"{spec}.txt"
        assert run("solve", "--map", spec, "-p", str(p), "--dmax", str(dmax), "--out", str(cert)) == 0
        rows = [" ".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
        matrix.write_text(f"{p} {n} {n}\n" + "\n".join(rows) + "\n")
        argvs[spec] = ["certify", "--in", str(matrix), "--cert", str(cert)]
    capsys.readouterr()
    return argvs


def test_out_is_exactly_each_new_document(tmp_path, identity_certify, capsys):
    """Longer, shorter and longer documents to one path: the file holds each
    new document and nothing of the old one."""
    out = tmp_path / "out.json"
    small_cert = tmp_path / "rigidity(2,1,0).json"
    for argv, sha in (
        (identity_certify["rigidity(4,2,0)"], CERTIFY_OUT_SHA256["rigidity(4,2,0)"]),
        (["solve", "--map", "rigidity(2,1,0)", "-p", "5", "--dmax", "2"], None),
        (identity_certify["rigidity(2,1,0)"], CERTIFY_OUT_SHA256["rigidity(2,1,0)"]),
        (identity_certify["rigidity(4,2,0)"], CERTIFY_OUT_SHA256["rigidity(4,2,0)"]),
    ):
        assert run(*argv, "--out", str(out)) == 0
        assert run(*argv) == 0
        stdout = capsys.readouterr().out.encode()
        assert out.read_bytes() == stdout
        if sha:
            assert hashlib.sha256(stdout).hexdigest() == sha
        else:
            assert stdout == small_cert.read_bytes()


def test_out_never_truncates_an_existing_file(tmp_path, identity_certify, monkeypatch):
    """An existing regular file is opened without O_TRUNC and not with mode
    "w": closing a file truncated to zero makes ext4 flush it to disk."""
    out = tmp_path / "out.json"
    out.write_text("x" * 100_000)
    opened = []
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), "O_TRUNC" if flags & os.O_TRUNC else "no O_TRUNC"))
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            opened.append((os.fspath(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    for argv in (
        identity_certify["rigidity(4,2,0)"],
        ["solve", "--map", "rank(2,1)", "-p", "101", "--dmax", "2"],
        ["genmap", "--map", "rank(2,1)", "-p", "101"],
    ):
        opened.clear()
        size = out.stat().st_size
        assert run(*argv, "--out", str(out)) == 0
        assert out.stat().st_size < size
        modes = [how for path, how in opened if path == str(out)]
        assert modes == ["no O_TRUNC"], (argv[0], modes)


def test_out_to_devices_and_fifos(tmp_path, identity_certify, capsys):
    """Targets that are not regular files are written, not truncated:
    ftruncate on /dev/null fails with EINVAL."""
    certify = identity_certify["rigidity(2,1,0)"]
    assert run(*certify, "--out", os.devnull) == 0
    assert run("solve", "--map", "rank(2,1)", "-p", "101", "--dmax", "2", "--out", os.devnull) == 0
    assert run("genmap", "--map", "rank(2,1)", "-p", "101", "--out", os.devnull) == 0
    assert run(*certify) == 0
    want = capsys.readouterr().out
    if not hasattr(os, "mkfifo"):
        return
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(*certify, "--out", str(fifo)) == 0
    reader.join(timeout=30)
    assert got == [want]


# ---------------------------------------------------------------- oracle


def test_oracle_rigid(tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("2 2 2\n1 0\n0 1\n")
    assert run("oracle", "--in", str(m), "--rigid", "1,0") == 0
    assert "rigid" in capsys.readouterr().out
    assert run("oracle", "--in", str(m), "--rigid", "1,1") == 1
    assert "not (1,1)-rigid" in capsys.readouterr().out
    # a comment line whose words are not numbers; entries past rows * cols exit 64
    m.write_text("# 2x2 identity\n2 2 2\n1 0\n0 1\n")
    assert run("oracle", "--in", str(m), "--rigid", "1,0") == 0
    m.write_text("101 2 2\n1 0\n0 1 7 7\n")
    assert run("oracle", "--in", str(m), "--rigid", "1,0") == 64
    assert "6 entries for a 2x2 matrix" in capsys.readouterr().err


def test_oracle_negative_budgets_are_usage_errors(tmp_path, capsys):
    # --rigid=-1,-1 and --rigid=0,-3 used to print "(r,s)-rigid" and exit 0,
    # --tensor-rank=-2 "tensor rank > -2" and exit 1
    m, t = tmp_path / "m.txt", tmp_path / "t.txt"
    m.write_text("101 2 2\n1 0\n0 1\n")
    t.write_text("3 2 3\n1 0 0 0 0 0 0 1\n")
    for argv in ((m, "--rigid=-1,-1"), (m, "--rigid=0,-3"), (m, "--rigid=-1,0"), (t, "--tensor-rank=-2")):
        capsys.readouterr()
        assert run("oracle", "--in", str(argv[0]), argv[1]) == 64, argv
        out, err = capsys.readouterr()
        assert out == "" and ">= 0" in err, argv


def test_oracle_tensor(tmp_path, capsys):
    t = tmp_path / "t.txt"
    t.write_text("3 2 3\n0 0 0 0 0 0 0 0\n")
    assert run("oracle", "--in", str(t), "--tensor-rank", "1") == 0
    assert "rank = 0" in capsys.readouterr().out
    t.write_text("3 2 3\n1 0 0 0 0 0 0 1\n")
    assert run("oracle", "--in", str(t), "--tensor-rank", "1") == 1
    assert "rank > 1" in capsys.readouterr().out


def test_oracle_refusal(tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("101 5 5\n" + " ".join(str(i % 101) for i in range(25)) + "\n")
    assert run("oracle", "--in", str(m), "--rigid", "2,12") == 3
    assert "resource refusal" in capsys.readouterr().err


def test_oracle_needs_mode_flag(tmp_path, capsys):
    # a missing check flag is a usage error, not a verification failure (4)
    m = tmp_path / "m.txt"
    m.write_text("5 2 2\n1 0\n0 1\n")
    with pytest.raises(SystemExit) as exc:
        run("oracle", "--in", str(m))
    assert exc.value.code == 64
    assert "one of the arguments --rigid --tensor-rank is required" in capsys.readouterr().err
