import builtins
import math
import random
from itertools import combinations

import pytest

from rigideq import (
    MultiPoly,
    PrimeField,
    RigidityParams,
    SVParams,
    TensorParams,
    fixed_support_map,
    parse_map_spec,
    rank_map,
    rigidity_map,
    rigidity_witness,
    sv_input,
    sv_map,
    sv_selector,
    tensor_map,
    tensor_witness,
    universal_graph,
    universal_map,
)
from rigideq.cli import main
from rigideq.generators import bound_map, map_arities, map_spec
from rigideq.oracle import DenseMatrix, DenseTensor, rank, tensor_rank_bruteforce


# ---------------------------------------------------------------- SV generator


def test_sv_params_validation():
    F5 = PrimeField(5)
    with pytest.raises(ValueError, match="field too small"):
        SVParams(PrimeField(3), 3, 1)
    with pytest.raises(ValueError):
        SVParams(F5, 3, 0)
    with pytest.raises(ValueError):
        SVParams(F5, 3, 4)


def test_sv_example_n3_k1():
    # N=3, k=1, points (0,1,2) in F_5, substituting y1=1: coordinates (0, x1, 0)
    F5 = PrimeField(5)
    pmap = sv_map(SVParams(F5, 3, 1))
    assert pmap.in_arity == 2 and pmap.out_arity == 3
    fixed = [q.substitute(1, 1) for q in pmap.coordinates]
    x1 = MultiPoly.variable(F5, 2, 0)
    assert fixed[0].is_zero()
    assert fixed[1] == x1
    assert fixed[2].is_zero()


def test_sv_selection_property_spot_checks():
    F = PrimeField(13)
    for N, k in [(4, 1), (5, 2), (6, 3)]:
        params = SVParams(F, N, k)
        pmap = sv_map(params)
        for T in combinations(range(N), k):
            ys = sv_selector(params, T)
            coords = []
            for q in pmap.coordinates:
                for j, y in enumerate(ys):
                    q = q.substitute(k + j, y)
                coords.append(q)
            for i in range(N):
                if i in T:
                    j = T.index(i)
                    assert coords[i] == MultiPoly.variable(F, 2 * k, j)
                else:
                    assert coords[i].is_zero()


def test_sv_degree_bound():
    F = PrimeField(101)
    for N, k in [(3, 1), (7, 2), (9, 3)]:
        pmap = sv_map(SVParams(F, N, k))
        assert all(q.degree() <= N for q in pmap.coordinates)


def test_sv_selector_validation():
    params = SVParams(PrimeField(13), 5, 2)
    with pytest.raises(ValueError):
        sv_selector(params, [1])
    with pytest.raises(ValueError, match="distinct"):
        sv_selector(params, [2, 2])
    for outside in ([0, 5], [-1, 2]):
        with pytest.raises(ValueError, match=r"in \[0, 5\)"):
            sv_selector(params, outside)


def test_sv_input_pads_the_support_with_the_smallest_free_positions():
    F = PrimeField(13)
    params = SVParams(F, 6, 3)
    assert sv_input(params, {4: 20}) == ((0, 0, 7), (0, 1, 4))
    assert sv_input(params, {0: 1, 2: 2}) == ((1, 0, 2), (0, 1, 2))
    assert sv_input(params, {}) == ((0, 0, 0), (0, 1, 2))
    assert sv_input(params, {5: 1, 3: 2, 1: 3}) == ((3, 2, 1), (1, 3, 5))
    x, y = sv_input(params, {4: 20, 1: 5})
    assert sv_map(params).evaluate(x + y) == [0, 5, 0, 0, 7, 0]
    with pytest.raises(ValueError, match="more than k=3"):
        sv_input(params, {0: 1, 1: 1, 2: 1, 3: 1})
    with pytest.raises(ValueError, match=r"in \[0, 6\)"):
        sv_input(params, {6: 1})


# ---------------------------------------------------------------- rank map


def test_rank_map_2_1_coordinates(f101):
    pmap = rank_map(f101, 2, 1)
    # (u1v1, u1v2, u2v1, u2v2) with variables u1,u2,v1,v2
    want = [
        {(1, 0, 1, 0): 1},
        {(1, 0, 0, 1): 1},
        {(0, 1, 1, 0): 1},
        {(0, 1, 0, 1): 1},
    ]
    assert [q.terms for q in pmap.coordinates] == want
    assert pmap.degree() == 2 and pmap.label == "rank(2,1)"


def test_rank_map_images_have_low_rank(f101):
    rng = random.Random("gen:rank")
    for _ in range(50):
        n = rng.randrange(2, 5)
        r = rng.randrange(1, n + 1)
        pmap = rank_map(f101, n, r)
        beta = [rng.randrange(f101.p) for _ in range(pmap.in_arity)]
        m = DenseMatrix(f101, n, n, tuple(pmap.evaluate(beta)))
        assert rank(m) <= r


def test_rank_map_validation(f101):
    with pytest.raises(ValueError):
        rank_map(f101, 2, 0)
    with pytest.raises(ValueError):
        rank_map(f101, 2, 3)


# ---------------------------------------------------------------- rigidity map


def test_rigidity_params():
    F101 = PrimeField(101)
    params = RigidityParams(F101, 3, 1, 1)
    assert params.in_arity == 8
    with pytest.raises(ValueError, match="field too small"):
        RigidityParams(PrimeField(7), 3, 1, 1)
    with pytest.raises(ValueError):
        RigidityParams(F101, 3, 3, 1)
    with pytest.raises(ValueError):
        RigidityParams(F101, 3, 1, 10)


def test_rigidity_map_shape(f101):
    pmap = rigidity_map(RigidityParams(f101, 3, 1, 1))
    assert pmap.in_arity == 8 and pmap.out_arity == 9
    assert pmap.degree() == 9  # SV_{9,1} coordinate degree
    assert pmap.label == "rigidity(3,1,1)"


def test_rigidity_map_k0_is_rank_map(f101):
    pmap = rigidity_map(RigidityParams(f101, 2, 1, 0))
    assert [q.terms for q in pmap.coordinates] == [q.terms for q in rank_map(f101, 2, 1).coordinates]
    assert pmap.label == "rigidity(2,1,0)"


def test_rigidity_witness_round_trip(f101):
    # 100 random (R = U0 V0, S k-sparse): witness reproduces R + S exactly
    rng = random.Random("gen:witness")
    for _ in range(100):
        n = rng.randrange(2, 5)
        r = rng.randrange(1, n)
        k = rng.randrange(0, n + 1)
        params = RigidityParams(f101, n, r, k)
        pmap = rigidity_map(params)
        u0 = [[rng.randrange(f101.p) for _ in range(r)] for _ in range(n)]
        v0 = [[rng.randrange(f101.p) for _ in range(n)] for _ in range(r)]
        positions = rng.sample([(i, j) for i in range(n) for j in range(n)], rng.randrange(0, k + 1))
        sparse = {pos: rng.randrange(f101.p) for pos in positions}
        beta = rigidity_witness(params, u0, v0, sparse)
        got = pmap.evaluate(beta)
        for i in range(n):
            for j in range(n):
                uv = sum(u0[i][t] * v0[t][j] for t in range(r)) % f101.p
                want = (uv + sparse.get((i, j), 0)) % f101.p
                assert got[i * n + j] == want
    # more sparse positions than k, with k = 1 and with k = 0, and positions
    # off the matrix, (0, 2) of which has the row-major index of (1, 0)
    for k, sparse, match in ((1, {(0, 0): 1, (1, 1): 2}, "k=1"), (0, {(0, 0): 1}, "k=0"),
                             (2, {(0, 2): 1, (1, 0): 2}, "must lie in"), (1, {(-1, 1): 1}, "must lie in")):
        with pytest.raises(ValueError, match=match):
            rigidity_witness(RigidityParams(f101, 2, 1, k), [[1], [1]], [[1, 1]], sparse)


def test_rigidity_images_decompose(f101):
    # UV part has rank <= r; SV part at valid selectors is <= k sparse
    rng = random.Random("gen:decomp")
    for _ in range(200):
        n = rng.randrange(2, 5)
        r = rng.randrange(1, n)
        k = rng.randrange(1, n + 1)
        params = RigidityParams(f101, n, r, k)
        uv = rank_map(f101, n, r)
        sv_params = SVParams(f101, n * n, k)
        sv = sv_map(sv_params)
        uv_beta = [rng.randrange(f101.p) for _ in range(2 * n * r)]
        m = DenseMatrix(f101, n, n, tuple(uv.evaluate(uv_beta)))
        assert rank(m) <= r
        support = rng.sample(range(n * n), k)
        xs = [rng.randrange(f101.p) for _ in range(k)]
        sv_beta = xs + list(sv_selector(sv_params, support))
        sv_vals = sv.evaluate(sv_beta)
        assert sum(1 for v in sv_vals if v) <= k


# ---------------------------------------------------------------- fixed support


def test_fixed_support_empty_is_rank_map(f101):
    pmap = fixed_support_map(f101, 2, 1, [])
    assert [q.terms for q in pmap.coordinates] == [q.terms for q in rank_map(f101, 2, 1).coordinates]


def test_fixed_support_full_r0_identity(f101):
    n = 2
    support = [(i, j) for i in range(n) for j in range(n)]
    pmap = fixed_support_map(f101, n, 0, support)
    assert pmap.in_arity == 4
    for t, q in enumerate(pmap.coordinates):
        assert q == MultiPoly.variable(f101, 4, t)


def test_fixed_support_arity_and_values(f101):
    rng = random.Random("gen:support")
    support = [(0, 1), (2, 2)]
    pmap = fixed_support_map(f101, 3, 1, support)
    assert pmap.in_arity == 2 * 3 * 1 + 2
    beta = [rng.randrange(f101.p) for _ in range(pmap.in_arity)]
    u, v, w = beta[:3], beta[3:6], beta[6:]
    got = pmap.evaluate(beta)
    for i in range(3):
        for j in range(3):
            want = u[i] * v[j] % f101.p
            if (i, j) == (0, 1):
                want = (want + w[0]) % f101.p
            if (i, j) == (2, 2):
                want = (want + w[1]) % f101.p
            assert got[i * 3 + j] == want


def test_fixed_support_validation(f101):
    with pytest.raises(ValueError, match="duplicate"):
        fixed_support_map(f101, 2, 1, [(0, 0), (0, 0)])
    with pytest.raises(ValueError, match="outside"):
        fixed_support_map(f101, 2, 1, [(2, 0)])


# ---------------------------------------------------------------- tensor map


def test_tensor_map_example():
    F = PrimeField(101)
    params = TensorParams(F, 2, 3, 1)
    pmap = tensor_map(params)
    assert pmap.in_arity == 6 and pmap.out_arity == 8
    # coordinate (1,1,1) = u1 v1 w1 (flat index 0)
    assert pmap.coordinates[0].terms == {(1, 0, 1, 0, 1, 0): 1}
    assert all(q.degree() == 3 for q in pmap.coordinates)


def test_tensor_params_validation(f101):
    with pytest.raises(ValueError):
        TensorParams(f101, 2, 1, 1)
    with pytest.raises(ValueError):
        TensorParams(f101, 2, 3, 0)
    with pytest.raises(ValueError):
        TensorParams(f101, 0, 3, 1)


def test_tensor_witness_round_trip():
    F = PrimeField(101)
    rng = random.Random("gen:tensor")
    for _ in range(50):
        n, d, r = rng.randrange(1, 4), rng.randrange(2, 5), rng.randrange(1, 3)
        params = TensorParams(F, n, d, r)
        pmap = tensor_map(params)
        vectors = [
            [[rng.randrange(F.p) for _ in range(n)] for _ in range(d)] for _ in range(r)
        ]
        beta = tensor_witness(params, vectors)
        got = pmap.evaluate(beta)
        for flat in range(n**d):
            digits = []
            rem = flat
            for _ in range(d):
                digits.append(rem % n)
                rem //= n
            digits.reverse()
            want = sum(
                math.prod(vectors[i][c][digits[c]] for c in range(d)) for i in range(r)
            ) % F.p
            assert got[flat] == want


def test_tensor_images_have_low_rank():
    # certified by the brute-force oracle for n=2, d=3, r in {1,2} over F_3
    F3 = PrimeField(3)
    rng = random.Random("gen:tensorrank")
    for r in (1, 2):
        pmap = tensor_map(TensorParams(F3, 2, 3, r))
        for _ in range(20):
            beta = [rng.randrange(3) for _ in range(pmap.in_arity)]
            t = DenseTensor(F3, 2, 3, tuple(pmap.evaluate(beta)))
            got = tensor_rank_bruteforce(t, r)
            assert got is not None and got <= r


# ---------------------------------------------------------------- spec grammar


def test_parse_map_spec(f101):
    assert parse_map_spec(f101, "rank(2,1)").label == "rank(2,1)"
    assert parse_map_spec(f101, "rigidity(3,1,1)").label == "rigidity(3,1,1)"
    assert parse_map_spec(f101, "tensor(2,3,1)").label == "tensor(2,3,1)"
    assert parse_map_spec(f101, "sv(9,2)").label == "sv(9,2)"
    assert parse_map_spec(f101, "universal(2,1,1,1)") == universal_map(universal_graph(f101, 2, 1, 1, 1))
    # the inline support is 1-indexed and sorted into the label
    pmap = parse_map_spec(f101, "support(3,1,[3,3;1,2])")
    assert pmap == fixed_support_map(f101, 3, 1, [(0, 1), (2, 2)])
    assert pmap.label == "support(3,1,[1,2;3,3])"
    assert parse_map_spec(f101, " rank( 2, 1 ) ").label == "rank(2,1)"
    for text in ("frobnicate(1)", "rank(2)", "rank(2,x)", "universal(2,1,1)", "support(3,1)",
                 "support(3,1,[1,2;3])", "support(3,1,[1,2,3])", "support(3,1,1,2)", "rank(2,1"):
        assert map_spec(text) is None, text
        with pytest.raises(ValueError, match="cannot parse"):
            parse_map_spec(f101, text)
    # in the grammar, but the builder refuses it
    for field, text in ((f101, "rank(2,3)"), (f101, "support(2,1,[3,1])"), (f101, "support(2,-1,[])"),
                        (PrimeField(5), "universal(2,1,1,1)")):
        assert map_spec(text) is not None, text
        with pytest.raises(ValueError):
            parse_map_spec(field, text)


@pytest.mark.parametrize("build", [
    lambda F: rank_map(F, 3, 2),
    lambda F: rigidity_map(RigidityParams(F, 3, 1, 0)),
    lambda F: rigidity_map(RigidityParams(F, 2, 1, 2)),
    lambda F: tensor_map(TensorParams(F, 2, 3, 2)),
    lambda F: sv_map(SVParams(F, 9, 2)),
    lambda F: fixed_support_map(F, 3, 1, []),
    lambda F: fixed_support_map(F, 3, 0, [(2, 0), (0, 1), (1, 1)]),
    lambda F: universal_map(universal_graph(F, 2, 1, 1, 1)),
])
def test_every_label_builds_its_map(f101, build):
    pmap = build(f101)
    assert parse_map_spec(f101, pmap.label) == pmap
    # builders that skip MultiPoly's checks build terms that pass them
    assert all(MultiPoly(f101, q.nvars, q.terms) == q for q in pmap.coordinates)
    # the closed-form arities that bind a certificate's label before any build
    assert map_arities(f101.p, *map_spec(pmap.label)) == (pmap.in_arity, pmap.out_arity)
    assert bound_map(pmap.to_json_dict()) == pmap


def test_bound_map_refuses_other_maps_and_values(f101):
    doc = parse_map_spec(f101, "rigidity(2,1,0)").to_json_dict()
    assert bound_map(dict(doc, label="my map")) is None  # outside the grammar
    for forged, match in (
        (dict(doc, label="rank(80,80)"), "not the rank\\(80,80\\) map"),
        (dict(doc, label="rigidity( 2,1,0)"), "not the rigidity\\( 2,1,0\\) map"),
        (dict(doc, label="universal(2,1,9,9)"), "names no universal map"),
        (dict(doc, coords=doc["coords"][:3]), "not the rigidity\\(2,1,0\\) map"),
        # a residue written as p + 1
        (dict(doc, coords=[dict(doc["coords"][0], terms=[{"c": 102, "e": [1, 0, 1, 0]}])] + doc["coords"][1:]),
         "not the rigidity"),
    ):
        with pytest.raises(ValueError, match=match):
            bound_map(forged)
    with pytest.raises(TypeError):
        bound_map(dict(doc, label=5))


def test_tensor_arities_of_a_huge_order(f101):
    # n**d is never formed for a huge d: no document has 2**64 coordinates
    m, N = map_arities(f101.p, "tensor", (2, 10**9, 1))
    assert m == 2 * 10**9 and N >= 2**64
    assert map_arities(f101.p, "tensor", (1, 10**9, 1)) == (10**9, 1)


def test_support_file_comments(f101, tmp_path, monkeypatch):
    """A support is written inline in the label: there are no support files,
    and no comments inside a label. The old file form names no map and opens
    nothing."""
    sfile = tmp_path / "support.txt"
    sfile.write_text("1 1\n2 2 # diagonal\n")
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *a, **k: opened.append(file) or real_open(file, *a, **k))
    for text in (f"support(2,1,{sfile})", "support(2,1,[1,1;2,2 # diagonal])"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_map_spec(f101, text)
    assert parse_map_spec(f101, "support(2,1,[1,1;2,2])").label == "support(2,1,[1,1;2,2])"
    assert opened == []


def test_genmap_support_file_with_comment(tmp_path, capsys):
    sfile = tmp_path / "support.txt"
    sfile.write_text("1 1\n2 2 # diagonal\n")
    out = tmp_path / "map.json"
    assert main(["genmap", "--map", f"support(2,1,{sfile})", "-p", "101", "--out", str(out)]) == 64
    assert "cannot parse map spec" in capsys.readouterr().err and not out.exists()
    assert main(["genmap", "--map", "support(2,1,[1,1;2,2])", "-p", "101", "--out", str(out)]) == 0
    assert '"label":"support(2,1,[1,1;2,2])"' in out.read_text()
