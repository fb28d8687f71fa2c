import itertools
import json
import math
import operator
import pickle
import random
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rigideq import MultiPoly, PolyMap, PrimeField, universal_graph, universal_map
from rigideq import determinant_poly, lagrange_basis, monomial_basis, poly_compose
import rigideq.poly as poly
from rigideq.poly import _NUMPY_MUL_THRESHOLD, NEG_INF, grlex_key, monomial_images, packed_weighted_sum

from conftest import random_map, random_poly, term_dicts_built


# ---------------------------------------------------------------- MultiPoly


def test_zero_polynomial_degree_sentinel(f101):
    z = MultiPoly.zero(f101, 3)
    assert z.is_zero()
    assert z.degree() == NEG_INF
    assert z.degree() != -1 and z.degree() < 0


def test_eval_examples():
    F7 = PrimeField(7)
    q = (
        MultiPoly.variable(F7, 2, 0) * MultiPoly.variable(F7, 2, 1)
        - MultiPoly.constant(F7, 2, 1)
    )
    assert q.evaluate([3, 5]) == 0  # 15 - 1 = 14 = 0 mod 7
    F5 = PrimeField(5)
    sq = MultiPoly(F5, 1, {(2,): 1})
    assert sq.evaluate([4]) == 1  # 16 mod 5
    assert MultiPoly.zero(F5, 3).evaluate([1, 2, 3]) == 0
    with pytest.raises(ValueError):
        sq.evaluate([1, 2])


def test_arithmetic_against_evaluation(f101):
    rng = random.Random("poly:arith")
    for _ in range(100):
        a = random_poly(rng, f101, 3, 4)
        b = random_poly(rng, f101, 3, 4)
        pt = [rng.randrange(f101.p) for _ in range(3)]
        assert (a + b).evaluate(pt) == (a.evaluate(pt) + b.evaluate(pt)) % f101.p
        assert (a - b).evaluate(pt) == (a.evaluate(pt) - b.evaluate(pt)) % f101.p
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt) % f101.p
        assert (a * a * a).evaluate(pt) == pow(a.evaluate(pt), 3, f101.p)
        assert (a * 7).evaluate(pt) == (7 * a).evaluate(pt) == a.evaluate(pt) * 7 % f101.p
    assert -1 * a == -a and a * 102 == a and (a * 0).is_zero() and (a * 101).is_zero()


def test_sorted_terms_grlex(f101):
    rng = random.Random("poly:order")
    for _ in range(20):
        q = random_poly(rng, f101, 3, 5, max_terms=10)
        keys = [grlex_key(e) for e, _ in q.sorted_terms()]
        assert keys == sorted(keys)


def test_substitute(f101):
    rng = random.Random("poly:subst")
    for _ in range(50):
        q = random_poly(rng, f101, 3, 4)
        a = rng.randrange(f101.p)
        pt = [rng.randrange(f101.p) for _ in range(3)]
        sub = q.substitute(1, a)
        assert sub.evaluate(pt) == q.evaluate([pt[0], a, pt[2]])


def test_json_round_trip(f101):
    rng = random.Random("poly:json")
    for _ in range(20):
        q = random_poly(rng, f101, 4, 5)
        doc = json.loads(json.dumps(q.to_json_dict()))
        assert MultiPoly.from_json_dict(doc) == q
    # canonical term order in the serialized form
    q = random_poly(rng, f101, 3, 5, max_terms=10)
    es = [tuple(t["e"]) for t in q.to_json_dict()["terms"]]
    assert es == [e for e, _ in q.sorted_terms()]


def test_json_input_is_validated(f101):
    # certificates come in through from_json_dict, which keeps the full checks
    doc = {"p": 101, "nvars": 2, "terms": [{"e": [1, -1], "c": 3}]}
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly.from_json_dict(doc)
    doc["terms"] = [{"e": [1, 0, 2], "c": 3}]
    with pytest.raises(ValueError, match="length"):
        MultiPoly.from_json_dict(doc)
    doc["terms"] = [{"e": [1, 0], "c": 205}, {"e": [0, 1], "c": -1}, {"e": [0, 0], "c": 202}]
    q = MultiPoly.from_json_dict(doc)
    assert q.terms == {(1, 0): 3, (0, 1): 100}


def test_immutability(f101):
    q = MultiPoly.variable(f101, 2, 0)
    with pytest.raises(AttributeError):
        q.nvars = 3


def test_pickle_round_trip(f101):
    rng = random.Random("poly:pickle")
    for q in (MultiPoly.zero(f101, 3), random_poly(rng, f101, 3, 4, max_terms=8)):
        back = pickle.loads(pickle.dumps(q))
        assert back == q and back.field == q.field and back.nvars == q.nvars
        with pytest.raises(AttributeError, match="immutable"):
            back.terms = {}
    # loading goes through MultiPoly(...), which validates the terms again
    assert q.__reduce__() == (MultiPoly, (q.field, q.nvars, q.terms))


def _schoolbook(pairs, field):
    """Reference sum of products: every term pair added into one dict."""
    out = {}
    for a, b in pairs:
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(map(operator.add, ea, eb))
                out[e] = (out.get(e, 0) + ca * cb) % field.p
    return {e: c for e, c in out.items() if c}


def _dense_poly(rng, field, nvars, terms, max_exp, coeff=None):
    """`terms` distinct random monomials, coefficients random or all `coeff`."""
    exps = set()
    while len(exps) < terms:
        exps.add(tuple(rng.randrange(max_exp + 1) for _ in range(nvars)))
    return MultiPoly(field, nvars, {e: coeff or rng.randrange(1, field.p) for e in exps})


def test_packed_product_matches_schoolbook(f101):
    rng = random.Random("poly:packed")
    # dense enough to cross the numpy fast-path threshold many times over
    a = MultiPoly(
        f101, 3,
        {(i, j, k): rng.randrange(1, 101) for i in range(7) for j in range(7) for k in range(6)},
    )
    b = MultiPoly(
        f101, 3,
        {(i, j, k): rng.randrange(1, 101) for i in range(6) for j in range(7) for k in range(7)},
    )
    assert len(a) * len(b) >= 100 * _NUMPY_MUL_THRESHOLD
    assert (a * b).terms == _schoolbook([(a, b)], f101)
    # and just below the threshold
    n = math.isqrt(_NUMPY_MUL_THRESHOLD - 1)
    c, d = (MultiPoly(f101, 3, dict(list(x.terms.items())[:n])) for x in (a, b))
    assert len(c) * len(d) < _NUMPY_MUL_THRESHOLD
    assert (c * d).terms == _schoolbook([(c, d)], f101)


def test_packed_weighted_sum_matches_naive(f101, monkeypatch):
    # only the packed branch sorts its words
    sort_calls = []
    real_collect = poly._collect

    def spy(words, layout):
        sort_calls.append(len(words))
        return real_collect(words, layout)

    monkeypatch.setattr(poly, "_collect", spy)

    def check(pairs, field, nvars, packed):
        sort_calls.clear()
        got = packed_weighted_sum(pairs, field, nvars)
        assert got.terms == _schoolbook(pairs, field)
        assert bool(sort_calls) == packed
        # the result skipped validation, so it must already be what
        # validation would make of its terms
        assert all(type(c) is int and 1 <= c < field.p for c in got.terms.values())
        assert all(type(e) is tuple and len(e) == nvars and all(type(x) is int for x in e) for e in got.terms)
        assert got == MultiPoly(field, nvars, _schoolbook(pairs, field))

    T = _NUMPY_MUL_THRESHOLD
    rng = random.Random("poly:wsum")
    # at most four pairs of at most `most` terms each stay below the threshold
    most = math.isqrt((T - 1) // 4)
    for trial in range(10):
        pairs = [
            (random_poly(rng, f101, 3, 4, max_terms=most), random_poly(rng, f101, 3, 4, max_terms=most))
            for _ in range(rng.randrange(0, 5))
        ]
        check(pairs, f101, 3, packed=False)
    check([], f101, 3, packed=False)
    assert packed_weighted_sum([], f101, 3) == MultiPoly.zero(f101, 3)

    # three pairs of n*n term pairs each: every pair is below the
    # threshold, their sum is above it
    n = math.isqrt(T - 1)
    assert n * n < T <= 3 * n * n
    pairs = [(_dense_poly(rng, f101, 4, n, 6), _dense_poly(rng, f101, 4, n, 6)) for _ in range(3)]
    check(pairs, f101, 4, packed=True)

    # a sum that cancels to zero, on both sides of the threshold
    a, b = pairs[0]
    few = max(1, (T - 1) // (4 * len(b)))
    for x, packed in ((a, True), (MultiPoly(f101, 4, dict(list(a.terms.items())[:few])), False)):
        sort_calls.clear()
        assert packed_weighted_sum([(x, b), (x, -b), (-x, b), (x, b)], f101, 4).is_zero()
        # above the threshold the sides share their supports: one matmul,
        # whose entries all cancel, so no word reaches the sort
        assert sort_calls == ([0] if packed else [])

    def on(support, field, coeff=None):
        return MultiPoly(field, len(support[0]), {e: coeff or rng.randrange(1, field.p) for e in support})

    # every a_t on one support and every b_t on another, as the edge labels
    # of the universal map: from the threshold on, one coefficient matmul,
    # and at most |SA| * |SB| words reach the one sort; below it, dicts
    SA, SB = (list(_dense_poly(rng, f101, 3, 12, 5).terms) for _ in range(2))
    pairs = [(on(SA, f101), on(SB, f101)) for _ in range(4)]
    assert 4 * 12 * 12 >= T
    check(pairs, f101, 3, packed=True)
    assert len(sort_calls) == 1 and sort_calls[0] <= 12 * 12
    assert 2 * 8 * 8 < T
    check([(on(SA[:8], f101), on(SB[:8], f101)) for _ in range(2)], f101, 3, packed=False)

    # disjoint supports: a1 and b2 reach x1**12, a2 and b1 only x1**3, so the
    # keys hold x1 up to 12 + 3 = 15 while a1's x1**12 times b2's x1**12 is
    # x1**24. That entry of A^T B is zero (no pair holds both), and only the
    # 2 * 16 * 16 nonzero entries may be packed.
    low = list(itertools.product(range(4), repeat=2))
    high = [(e + 9, f) for e, f in low]
    a1, b1, a2, b2 = on(high, f101), on(low, f101), on(low, f101), on(high, f101)
    pairs = [(a1, b1), (a2, b2)] * 3
    assert 32 * 32 < 6 * 16 * 16
    check(pairs, f101, 2, packed=True)
    assert sort_calls == [2 * 16 * 16]

    # 65 variables need at least 65 key bits: above the threshold the sum
    # must still take the dict branch
    low = list(itertools.product(range(2), repeat=8))[:224]
    wide = MultiPoly(f101, 65, {e + (1,) * 57: rng.randrange(1, 101) for e in low})
    check([(wide, wide)], f101, 65, packed=False)

    # p = 2**31 - 1 with every coefficient p - 1: products of residues reach
    # (p - 1)**2 < 2**63, the largest the packed path accepts
    big_p = PrimeField(2**31 - 1)
    pairs = [(_dense_poly(rng, big_p, 3, 160, 9, coeff=big_p.p - 1),
              _dense_poly(rng, big_p, 3, 160, 9, coeff=big_p.p - 1)) for _ in range(2)]
    check(pairs, big_p, 3, packed=True)
    # and on shared supports, through the matmul's 16-bit limbs: five
    # products of all-(p - 1) polynomials, then random coefficients
    SA, SB = (list(_dense_poly(rng, big_p, 3, 40, 9).terms) for _ in range(2))
    for coeff in (big_p.p - 1, None):
        check([(on(SA, big_p, coeff), on(SB, big_p, coeff)) for _ in range(5)], big_p, 3, packed=True)
        assert len(sort_calls) == 1 and sort_calls[0] <= 40 * 40
    # 12 variables of 5 key bits each fit in 64 bits, but not beside a
    # 31-bit residue: the dict branch takes over
    pairs = [(_dense_poly(rng, big_p, 12, 160, 9), _dense_poly(rng, big_p, 12, 160, 9)) for _ in range(2)]
    check(pairs, big_p, 12, packed=False)


def test_array_born_matches_dict_born(f101, monkeypatch):
    """A nonzero product is born from arrays and builds its terms dict only
    when asked; it agrees with MultiPoly(F, m, its terms) on every
    operation, and len, bool, degree and evaluate_many build no dict."""
    rng = random.Random("poly:array-born")
    F = f101
    a, b = _dense_poly(rng, F, 3, 40, 6), _dense_poly(rng, F, 3, 40, 6)
    # factors with exponents up to 200, stored in uint8: the exponent bound
    # of their product, up to 400, must be summed in a wider type
    c = _dense_poly(rng, F, 2, 12, 100) * _dense_poly(rng, F, 2, 12, 100)
    assert c._EC[0].dtype == np.uint8 and c.degree() > 128
    c_dict = MultiPoly(F, 2, c.terms)
    wide = [_dense_poly(rng, F, 2, 30, 150) for _ in range(2)]
    # 8 variables of 9 key bits: the keys leave uint64, the exponents fit int64
    eight = [_dense_poly(rng, F, 8, 6, 150) for _ in range(2)]
    small = [random_poly(rng, F, 3, 4, max_terms=5) for _ in range(2)]
    cases = [  # (make, its terms from the schoolbook, nvars, exponent dtype)
        (lambda: a * b, _schoolbook([(a, b)], F), 3, np.uint8),
        (lambda: c * c, _schoolbook([(c_dict, c_dict)], F), 2, np.int64),
        (lambda: wide[0] * wide[1], _schoolbook([tuple(wide)], F), 2, np.int64),
        (lambda: eight[0] * eight[1], _schoolbook([tuple(eight)], F), 8, np.int64),
        (lambda: small[0] * small[1], _schoolbook([tuple(small)], F), 3, np.uint8),
        (lambda: packed_weighted_sum([(a, b), (a, -b)], F, 3), {}, 3, None),
        (lambda: MultiPoly.constant(F, 0, 5) * MultiPoly.constant(F, 0, 7), {(): 35}, 0, np.uint8),
        (lambda: MultiPoly.zero(F, 0) * MultiPoly.constant(F, 0, 7), {}, 0, None),
    ]
    built = term_dicts_built(monkeypatch)
    for make, want, m, edtype in cases:
        q, d = make(), MultiPoly(F, m, want)
        points = [[rng.randrange(F.p) for _ in range(m)] for _ in range(50)]
        if edtype is None:  # zero, and made from a dict
            assert type(q) is MultiPoly
        else:
            assert type(q) is poly._ArrayPoly and q._EC[0].dtype == edtype and len(q._EC[0]) == len(want)
        assert len(q) == len(d) and bool(q) == bool(d) and q.is_zero() == d.is_zero()
        assert q.degree() == d.degree()
        values = PolyMap(F, m, (q, q)).evaluate_many(points)
        assert values.tolist() == PolyMap(F, m, (d, d)).evaluate_many(points).tolist()
        assert built == []
        assert q == d and d == q and hash(q) == hash(d) and q.terms == want
        assert q.sorted_terms() == d.sorted_terms() and q.to_json_dict() == d.to_json_dict() and str(q) == str(d)
        assert q.evaluate(points[0]) == d.evaluate(points[0])
        if m:
            assert q.substitute(1, 3) == d.substitute(1, 3)
        assert pickle.loads(pickle.dumps(q)) == d
        r = random_poly(rng, F, m, 3) if m else MultiPoly.constant(F, 0, 9)
        for x, y in ((q + r, d + r), (r + q, r + d), (q - r, d - r), (r - q, r - d), (q * r, d * r), (r * q, r * d)):
            assert x == y
        # each product built its dict once, on first access, and kept it
        built.clear()
        assert q.terms is q.terms and built == []


# ---------------------------------------------------------------- PolyMap / compose


def reference_compose(q, pmap):
    """q(P_1, ..., P_N) term by term, each coordinate power from a per-call
    cache: the reference that poly_compose must match exactly."""
    field, m = pmap.field, pmap.in_arity
    result = MultiPoly.zero(field, m)
    pow_cache = [{0: MultiPoly.constant(field, m, 1)} for _ in range(pmap.out_arity)]

    def coord_pow(i, e):
        cache = pow_cache[i]
        if e not in cache:
            best = max(k for k in cache if k <= e)
            acc = cache[best]
            for k in range(best + 1, e + 1):
                acc = acc * pmap.coordinates[i]
                cache[k] = acc
        return cache[e]

    for exps, coeff in q.sorted_terms():
        term = MultiPoly.constant(field, m, coeff)
        for i, ei in enumerate(exps):
            if ei:
                term = term * coord_pow(i, ei)
        result = result + term
    return result


def test_compose_matches_reference(f101):
    rng = random.Random("poly:compose-ref")
    cases = []
    for _ in range(60):
        n_in, n_out = rng.randrange(1, 4), rng.randrange(1, 5)
        cases.append((random_poly(rng, f101, n_out, 4), random_map(rng, f101, n_in, n_out, 3)))
    # exponents >= 2 in variables after the first nonzero one
    pmap = random_map(rng, f101, 2, 3, 2)
    cases.append((MultiPoly(f101, 3, {(1, 2, 3): 5, (0, 3, 2): 7, (2, 0, 2): 9}), pmap))
    cases.append((MultiPoly.zero(f101, 3), pmap))
    cases.append((MultiPoly.constant(f101, 3, 42), pmap))
    q = random_poly(rng, f101, 3, 4)
    zero_map = PolyMap(f101, 2, (MultiPoly.zero(f101, 2),) * 3)
    cases.append((q + 3, zero_map))
    constant_coord = PolyMap(f101, 2, (MultiPoly.constant(f101, 2, 4),) + pmap.coordinates[1:])
    cases.append((q, constant_coord))
    for q, pmap in cases:
        assert poly_compose(q, pmap) == reference_compose(q, pmap), (q, pmap.coordinates)
    assert poly_compose(q + 3, zero_map) == MultiPoly.constant(f101, 2, (q + 3).terms.get((0, 0, 0), 0))


def test_monomial_images_one_product_each():
    batches = []
    coords = np.array([2, 3])

    def products(images, parents, variables):
        batches.append(len(parents))
        return images[parents] * coords[variables]

    basis = monomial_basis(2, 3)
    images = np.concatenate(list(monomial_images(basis, np.array([1]), products)))
    assert images.tolist() == [2**e1 * 3**e2 for e1, e2 in basis]
    # one batch per degree, one product per monomial but the constant
    assert batches == [2, 3, 4] and sum(batches) == len(basis) - 1
    with pytest.raises(ValueError, match="constant"):
        list(monomial_images(basis[1:], np.array([1]), products))


def _level_spy(monkeypatch):
    """Count the sorted (numpy) and dict batches of poly._products."""
    calls = {"sorts": 0, "dict": 0}
    outer, dict_products = poly._outer_words, poly._dict_products

    def spy_outer(*args):
        calls["sorts"] += 1
        return outer(*args)

    def spy_dict(*args):
        calls["dict"] += 1
        return dict_products(*args)

    monkeypatch.setattr(poly, "_outer_words", spy_outer)
    monkeypatch.setattr(poly, "_dict_products", spy_dict)
    return calls


def _wide_map(rng, field, n_in, n_out):
    """A map whose first coordinate has every input variable cubed."""
    cubes = MultiPoly(field, n_in, {tuple(3 * (j == i) for j in range(n_in)): rng.randrange(1, field.p) for i in range(n_in)})
    return PolyMap(field, n_in, (cubes,) + random_map(rng, field, n_in, n_out - 1, 3, max_terms=6).coordinates)


def _compose_cases(rng, field, n_in, n_out, count):
    """(q, P) with q of degree 4 (x1**4 among its terms) and P a _wide_map."""
    cases = []
    for _ in range(count):
        q = random_poly(rng, field, n_out, 3, max_terms=8) + MultiPoly(field, n_out, {(4,) + (0,) * (n_out - 1): 1})
        cases.append((q, _wide_map(rng, field, n_in, n_out)))
    return cases


def test_compose_level_batches_split_between_sorts(f101, monkeypatch):
    # a word cap far below one degree's products: every sort holds a few
    # products, and the largest products take a sort of their own
    monkeypatch.setattr(poly, "_SORT_WORDS", 40)
    monkeypatch.setattr(poly, "_NUMPY_MUL_THRESHOLD", 1)
    calls = _level_spy(monkeypatch)
    rng = random.Random("poly:compose-split")
    for q, pmap in _compose_cases(rng, f101, 3, 4, 20):
        assert poly_compose(q, pmap) == reference_compose(q, pmap)
    assert calls["sorts"] > 100 and calls["dict"] == 0


def test_compose_wide_keys_take_the_dict_branch(f101, monkeypatch):
    # 20 variables of exponent up to 3 * 4: 80 key bits, beside a residue
    # no word fits in 64 bits, so even large batches add into dicts
    calls = _level_spy(monkeypatch)
    rng = random.Random("poly:compose-wide")
    for q, pmap in _compose_cases(rng, f101, 20, 3, 3):
        layout, images = poly.packed_images(monomial_basis(3, 4), pmap)
        assert layout.kbits == 80 and not layout.fits and images.keys.dtype == object
        assert poly_compose(q, pmap) == reference_compose(q, pmap)
    assert calls["sorts"] == 0 and calls["dict"] > 0


def test_compose_largest_prime(monkeypatch):
    # p = 2**31 - 1: residues take 31 bits of a word; with 8 variables of
    # 4 key bits each one tag bit is left, so every sort holds at most two
    # products
    F = PrimeField(2**31 - 1)
    monkeypatch.setattr(poly, "_NUMPY_MUL_THRESHOLD", 1)
    calls = _level_spy(monkeypatch)
    rng = random.Random("poly:compose-bigp")
    for q, pmap in _compose_cases(rng, F, 8, 4, 8):
        layout, _ = poly.packed_images(monomial_basis(4, 4), pmap)
        assert layout.fits and 64 - layout.vbits - layout.kbits == 1
        assert poly_compose(q, pmap) == reference_compose(q, pmap)
    assert calls["sorts"] > 0 and calls["dict"] == 0


def test_products_sum_equal_tags(f101, monkeypatch):
    """Products that share a tag add into one result, in order of tag, on
    the sort branch (a result of more than _SORT_WORDS words takes a sort of
    its own) and on the dict branch (below the threshold, or at any size
    when the layout is wider than a word), from either side as dicts or
    packed; a sum that cancels comes back empty at its place."""
    monkeypatch.setattr(poly, "_SORT_WORDS", 64)
    calls = _level_spy(monkeypatch)
    rng = random.Random("poly:tags")
    polys = [_dense_poly(rng, f101, 3, 8, 3) for _ in range(3)] + [random_poly(rng, f101, 3, 3) for _ in range(4)]
    polys.append(-polys[3])
    # tag 0: three 64-word products; tag 2: polys[3] * b - polys[3] * b = 0
    li = [0, 1, 2, 4, 3, 7, 5, 6, 6]
    ri = [1, 2, 0, 5, 4, 4, 6, 0, 3]
    tags = [0, 0, 0, 1, 2, 2, 3, 3, 3]
    want = [_schoolbook([(polys[a], polys[b]) for a, b, t in zip(li, ri, tags) if t == tag], f101) for tag in range(4)]
    assert want[2] == {} and all(want[t] for t in (0, 1, 3))
    narrow, wide = poly._Layout(f101.p, [6] * 3), poly._Layout(f101.p, [2**30] * 3)
    for layout, threshold, sorted_branch in ((narrow, 1, True), (narrow, 10**6, False), (wide, 1, False)):
        monkeypatch.setattr(poly, "_NUMPY_MUL_THRESHOLD", threshold)
        dicts = [{layout.key(e): c for e, c in q.terms.items()} for q in polys]
        for left, right in ((dicts, dicts), (poly._arrays(dicts, layout), dicts), (dicts, poly._arrays(dicts, layout))):
            calls.update(sorts=0, dict=0)
            sums = poly._products(left, right, li, ri, layout, tags)
            assert isinstance(sums, poly._Packed) == sorted_branch
            if sorted_branch:
                assert calls["sorts"] > 1 and calls["dict"] == 0 and len(sums.offsets) == 5
            else:
                assert calls == {"sorts": 0, "dict": 1}
            got = [layout.unpack(list(d), list(d.values()), f101, 3).terms for d in poly._dicts(sums)]
            assert got == want


def _rank1_map_2x2(field):
    # P(u1,u2,v1,v2) = (u1v1, u1v2, u2v1, u2v2)
    coords = []
    for i in range(2):
        for j in range(2):
            coords.append(MultiPoly(field, 4, {tuple(1 if t in (i, 2 + j) else 0 for t in range(4)): 1}))
    return PolyMap(field, 4, tuple(coords), label="rank1")


def test_compose_packs_a_maps_coordinates_once_per_layout(f101, monkeypatch):
    """Compositions with one map object reuse its coordinates as packed for
    the last key layout; one that needs other keys packs them again. Every
    result equals the composition with a fresh copy of the map, which equals
    the map: the packed coordinates are not one of its fields."""
    rng = random.Random("poly:packed-once")
    pmap = random_map(rng, f101, 3, 4, 3)
    keys, real_key = [], poly._Layout.key
    monkeypatch.setattr(poly._Layout, "key", lambda self, e: keys.append(e) or real_key(self, e))
    terms, packs = sum(map(len, pmap.coordinates)), []
    for D in (2, 2, 8, 2):  # a degree-8 image needs two more bits for each exponent
        q = random_poly(rng, f101, 4, D) + MultiPoly(f101, 4, {(D, 0, 0, 0): 1})
        fresh = replace(pmap)
        want = poly_compose(q, fresh)
        before = len(keys)
        assert poly_compose(q, pmap) == want
        packs.append((len(keys) - before) / terms)
    assert packs == [1, 0, 1, 1]
    assert fresh == pmap and hash(fresh) == hash(pmap) and repr(fresh) == repr(pmap)


def test_compose_shares_a_map_between_threads(f101):
    """Threads composing with one map at alternating key layouts each get
    their own q's composition: a layout and its packed coordinates are
    stored and read as one pair."""
    rng = random.Random("poly:packed-threads")
    pmap = random_map(rng, f101, 3, 4, 3)
    qs = [random_poly(rng, f101, 4, D) + MultiPoly(f101, 4, {(D, 0, 0, 0): 1}) for D in (1, 2, 6, 3)]
    want = [poly_compose(q, replace(pmap)) for q in qs]
    wrong = []

    def work(i):
        try:
            for _ in range(60):
                for j in range(len(qs)):
                    k = (i + j) % len(qs)
                    if poly_compose(qs[k], pmap) != want[k]:
                        wrong.append(k)
        except Exception as exc:  # a thread's exception would not fail the test
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []


def test_compose_det2_with_rank1_is_zero(f101):
    det2 = determinant_poly(f101, 2)
    assert poly_compose(det2, _rank1_map_2x2(f101)).is_zero()


def test_compose_projection(f101):
    rng = random.Random("poly:proj")
    pmap = random_map(rng, f101, 3, 4, 3)
    x1 = MultiPoly.variable(f101, 4, 0)
    assert poly_compose(x1, pmap) == pmap.coordinates[0]


def test_compose_linearity_and_products(f101):
    rng = random.Random("poly:linearity")
    for _ in range(100):
        nvars_in = rng.randrange(1, 4)
        nvars_out = rng.randrange(1, 5)
        pmap = random_map(rng, f101, nvars_in, nvars_out, 3)
        q1 = random_poly(rng, f101, nvars_out, 3)
        q2 = random_poly(rng, f101, nvars_out, 3)
        assert poly_compose(q1 + q2, pmap) == poly_compose(q1, pmap) + poly_compose(q2, pmap)
        assert poly_compose(q1 * q2, pmap) == poly_compose(q1, pmap) * poly_compose(q2, pmap)


def test_compose_eval_consistency(f101):
    rng = random.Random("poly:composeval")
    for _ in range(100):
        nvars_in = rng.randrange(1, 4)
        nvars_out = rng.randrange(1, 5)
        pmap = random_map(rng, f101, nvars_in, nvars_out, 3)
        q = random_poly(rng, f101, nvars_out, 3)
        beta = [rng.randrange(f101.p) for _ in range(nvars_in)]
        assert poly_compose(q, pmap).evaluate(beta) == q.evaluate(pmap.evaluate(beta))


def test_compose_degree_bound(f101):
    rng = random.Random("poly:degbound")
    for _ in range(50):
        pmap = random_map(rng, f101, 2, 3, 3)
        q = random_poly(rng, f101, 3, 3)
        comp = poly_compose(q, pmap)
        if not (q.is_zero() or comp.is_zero()):
            assert comp.degree() <= q.degree() * pmap.degree()


def test_compose_arity_mismatch(f101):
    rng = random.Random("poly:mismatch")
    pmap = random_map(rng, f101, 2, 3, 2)
    with pytest.raises(ValueError):
        poly_compose(MultiPoly.variable(f101, 5, 0), pmap)


def test_polymap_json_round_trip(f101):
    rng = random.Random("poly:mapjson")
    pmap = random_map(rng, f101, 3, 4, 3)
    doc = json.loads(json.dumps(pmap.to_json_dict(), sort_keys=True))
    back = PolyMap.from_json_dict(doc)
    assert back.coordinates == pmap.coordinates
    assert back.label == pmap.label and back.in_arity == pmap.in_arity


def _scalar_values(pmap, points):
    return [[q.evaluate(point) for q in pmap.coordinates] for point in points]


def test_evaluate_many_matches_scalar():
    rng = random.Random("poly:evaluate_many")
    for p in (2, 101, 10007, 2**31 - 1):
        field = PrimeField(p)
        for trial in range(4):
            m = rng.randrange(1, 5)
            pmap = random_map(rng, field, m, 4, 5, max_terms=12)
            # a zero coordinate and a constant one among random ones
            coords = list(pmap.coordinates)
            coords[rng.randrange(4)] = MultiPoly.zero(field, m)
            coords.insert(rng.randrange(5), MultiPoly.constant(field, m, rng.randrange(1, p)))
            pmap = PolyMap(field, m, tuple(coords), label="random")
            # entries outside [0, p), even outside int64, are reduced first
            points = [[rng.randrange(-2 * p, 2 * p) for _ in range(m)] for _ in range(rng.randrange(2, 40))]
            points[-1][0] = rng.randrange(2**70, 2**71)
            values = pmap.evaluate_many(points)
            assert values.shape == (len(points), 5)
            assert values.tolist() == _scalar_values(pmap, points)
            one = pmap.evaluate_many(points[:1])
            assert one.shape == (1, 5) and one.tolist() == _scalar_values(pmap, points[:1])
            assert pmap.evaluate(points[0]) == _scalar_values(pmap, points[:1])[0]
            assert all(type(v) is int for v in pmap.evaluate(points[0]))
        assert pmap.evaluate_many([]).shape == (0, 5)
        with pytest.raises(ValueError, match="arity"):
            pmap.evaluate_many([[0] * (m + 1)])
    # int64 for every modulus a PrimeField admits, the largest included
    assert values.dtype == np.int64 and pmap.evaluate_many(points[:1]).dtype == np.int64
    assert PolyMap(PrimeField(2**31 - 1), 1, ()).evaluate_many([[5]]).dtype == np.int64

    # the real universal(2,1,1,1) map
    pmap = universal_map(universal_graph(PrimeField(101), 2, 1, 1, 1))
    points = [[rng.randrange(101) for _ in range(pmap.in_arity)] for _ in range(25)]
    assert pmap.evaluate_many(points).tolist() == _scalar_values(pmap, points)
    assert pmap.evaluate(points[0]) == _scalar_values(pmap, points[:1])[0]


@pytest.mark.parametrize("cells", [None, 200, 50, 7])
def test_evaluate_many_grouped_tables(cells, monkeypatch):
    """Consecutive variables share one power table while it has at most as
    many entries per row as the map has terms, and at most _EVAL_CELLS in a
    chunk of rows. Two maps of 3 x 30 terms: six variables with exponents up
    to 5 (at most two to a table) and eight multilinear ones (at most six).
    At the default budget the terms bound the tables; 200 cells make chunks
    of two rows, which 7 points cross, and 100 entries a row; 50 cells make
    one row a chunk and 50 entries; 7 leave each variable of the first map a
    table of its own. A third map of three variables with exponents up to
    2**40 takes each variable's powers only at the exponents that occur.
    Every value must equal MultiPoly.evaluate, in int64: at p = 101 every
    product of residues is summed unreduced, at larger p some are reduced
    first."""
    if cells is not None:
        monkeypatch.setattr(poly, "_EVAL_CELLS", cells)
    rng = random.Random(f"poly:grouped:{cells}")
    for p in (101, 10007, 2**31 - 1):
        field = PrimeField(p)
        for m, top in ((6, 5), (8, 1), (3, 2**40)):
            coords = [_dense_poly(rng, field, m, 30, top) for _ in range(3)]
            coords.insert(1, MultiPoly.zero(field, m))
            pmap = PolyMap(field, m, tuple(coords))
            points = [[rng.randrange(p) for _ in range(m)] for _ in range(7)]
            values = pmap.evaluate_many(points)
            assert values.dtype == np.int64
            assert values.tolist() == _scalar_values(pmap, points)


def test_evaluation_allocates_by_terms_not_exponents():
    # 5 x1^(2^20) + x2^3: a table of every power of x1 up to 2^20 would
    # take 8 MB a point, so 3 points stay far below the bound only when
    # x1's powers are taken at the exponents that occur
    field = PrimeField(10007)
    q = MultiPoly(field, 2, {(2**20, 0): 5, (0, 3): 1})
    pmap = PolyMap(field, 2, (q, q))
    points = [[3, 4], [10006, 2], [0, 0]]
    tracemalloc.start()
    try:
        values = pmap.evaluate_many(points).tolist()
        scalar = [q.evaluate(point) for point in points]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    want = [(5 * pow(x, 2**20, 10007) + y**3) % 10007 for x, y in points]
    assert scalar == want and values == [[v, v] for v in want]


# ---------------------------------------------------------------- bases


def test_monomial_basis_examples():
    assert monomial_basis(1, 2) == [(0,), (1,), (2,)]
    assert len(monomial_basis(4, 2)) == 15  # C(6,2)
    assert monomial_basis(2, 1) == [(0, 0), (1, 0), (0, 1)]


def test_monomial_basis_count_and_order():
    for nvars in range(1, 7):
        for D in range(7):
            basis = monomial_basis(nvars, D)
            assert len(basis) == math.comb(nvars + D, nvars)
            keys = [grlex_key(e) for e in basis]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_lagrange_basis_f5():
    F5 = PrimeField(5)
    u = lagrange_basis(F5, [0, 1, 2])
    assert u[0].terms == {(2,): 3, (1,): 1, (0,): 1}  # 3z^2 + z + 1
    assert u[1].terms == {(2,): 4, (1,): 2}  # 4z^2 + 2z
    for i in range(3):
        for j in range(3):
            assert u[i].evaluate([j]) == (1 if i == j else 0)
    total = u[0] + u[1] + u[2]
    assert total == MultiPoly.constant(F5, 1, 1)


def test_lagrange_basis_properties():
    """u_i(a_j) = delta_ij and deg u_i <= N - 1 determine the basis, so they
    are all there is to check, on seeded point sets up to p = 2**31 - 1; and
    lagrange_weights, which universal_eval shares, are the inverses of
    prod_{j != i} (a_i - a_j)."""
    rng = random.Random("poly:lagrange")
    for p in (101, 10007, 2**31 - 1):
        F = PrimeField(p)
        for n in [1, 40] + [rng.randrange(2, 8) for _ in range(10)]:
            pts = rng.sample(range(F.p), n)
            u = lagrange_basis(F, pts)
            assert len(u) == n
            for i, ui in enumerate(u):
                assert ui.nvars == 1 and ui.degree() == n - 1
                assert [ui.evaluate([a]) for a in pts] == [int(i == j) for j in range(n)]
            for a, w in zip(pts, poly.lagrange_weights(F, tuple(pts))):
                assert w * math.prod(a - b for b in pts if b != a) % p == 1


def test_lagrange_basis_errors():
    with pytest.raises(ValueError, match="field too small"):
        lagrange_basis(PrimeField(3), [0, 1, 2])
    with pytest.raises(ValueError, match="repeated"):
        lagrange_basis(PrimeField(101), [1, 1, 2])


def test_determinant_poly(f101):
    det2 = determinant_poly(f101, 2)
    assert det2.terms == {(1, 0, 0, 1): 1, (0, 1, 1, 0): 100}
    det3 = determinant_poly(f101, 3)
    assert len(det3) == 6 and det3.degree() == 3
    rng = random.Random("poly:det")
    for _ in range(20):
        m = [[rng.randrange(101) for _ in range(3)] for _ in range(3)]
        want = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        ) % 101
        assert det3.evaluate([x for row in m for x in row]) == want
