import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rigideq import (
    AnnihilatorCertificate,
    MultiPoly,
    PolyMap,
    PrimeField,
    ResourceLimitError,
    RigidityParams,
    SolverConfig,
    composition_matrix_sampled,
    composition_matrix_symbolic,
    determinant_poly,
    dimension_gap_holds,
    existence_degree_bound,
    find_annihilator,
    find_nonzero_point,
    kernel,
    monomial_basis,
    poly_compose,
    rank_map,
    rigidity_map,
    sv_map,
    SVParams,
    tensor_map,
    TensorParams,
)
import rigideq.annihilator as annihilator
from rigideq.generators import parse_map_spec
from rigideq import cli
from rigideq.annihilator import DEGREE_SEARCH_CAP, VerificationError, vector_to_poly

import rigideq.poly as poly
from test_poly import _level_spy, _wide_map, reference_compose


def reference_kernel(A, p):
    """Unblocked int64 Gauss-Jordan, one row update per pivot: the reference
    that kernel() must match exactly."""
    A = np.array(A, dtype=np.int64) % p
    nrows, ncols = A.shape
    pivot_cols = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(A[r:, col])[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        inv = pow(int(A[r, col]), p - 2, p)
        A[r] = A[r] * inv % p
        rest = np.nonzero(A[:, col])[0]
        rest = rest[rest != r]
        if rest.size:
            A[rest] = (A[rest] - A[rest, col][:, None] * A[r][None, :]) % p
        pivot_cols.append(col)
        r += 1
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, col in enumerate(pivot_cols):
            v[col] = (-int(A[i, free])) % p
        first = next(x for x in v if x)
        if first != 1:
            inv = pow(first, p - 2, p)
            v = [x * inv % p for x in v]
        basis.append(v)
    return basis


def _monomial_values(basis, point, p):
    """Every basis monomial at a point, with a per-variable power table."""
    nvars = len(point)
    max_deg = max((max(e) for e in basis), default=0)
    pows = [[1] * (max_deg + 1) for _ in range(nvars)]
    for i in range(nvars):
        for j in range(1, max_deg + 1):
            pows[i][j] = pows[i][j - 1] * point[i] % p
    out = []
    for e in basis:
        v = 1
        for i, ei in enumerate(e):
            if ei:
                v = v * pows[i][ei] % p
        out.append(v)
    return out


def reference_sampled(pmap, D, rows, seed):
    """The sampled matrix built one row at a time from a power table."""
    p = pmap.field.p
    basis = monomial_basis(pmap.out_arity, D)
    rng = random.Random(f"{seed}:sampled:{pmap.label}:{D}")
    A = np.zeros((rows, len(basis)), dtype=np.int64)
    for t in range(rows):
        beta = [rng.randrange(p) for _ in range(pmap.in_arity)]
        A[t, :] = _monomial_values(basis, pmap.evaluate(beta), p)
    return A, basis


def reference_symbolic(pmap, D):
    """The symbolic matrix built one column at a time, each column a fresh
    composition of its monomial, rows in order of first appearance."""
    basis = monomial_basis(pmap.out_arity, D)
    columns = []
    row_index = {}
    for mono in basis:
        composed = reference_compose(MultiPoly(pmap.field, len(mono), {mono: 1}), pmap)
        col = {}
        for e, c in composed.terms.items():
            if e not in row_index:
                row_index[e] = len(row_index)
            col[row_index[e]] = c
        columns.append(col)
    A = np.zeros((max(len(row_index), 1), len(basis)), dtype=np.int64)
    for j, col in enumerate(columns):
        for i, c in col.items():
            A[i, j] = c
    return A, basis


def _identity_map(field, n):
    coords = tuple(MultiPoly.variable(field, n, i) for i in range(n))
    return PolyMap(field, n, coords, label=f"identity({n})")


# ---------------------------------------------------------------- dimension count


def test_existence_degree_bound_example():
    # C(3+1,3) = 4 > C(2+1,2) = 3 already at D=1
    assert existence_degree_bound(2, 1, 3) == 1


def test_existence_degree_bound_surjective_shape():
    for N in (2, 3, 5):
        assert existence_degree_bound(N, 1, N) is None


def test_existence_degree_bound_validation():
    with pytest.raises(ValueError):
        existence_degree_bound(0, 1, 1)


def test_dimension_gap_log_and_exact_agree():
    # force both paths on instances where comb is still computable
    for m, d, N, D in [(5, 2, 8, 3), (6, 3, 10, 4), (4, 2, 4, 2)]:
        exact = math.comb(N + D, N) > math.comb(m + d * D, m)
        assert dimension_gap_holds(m, d, N, D) == exact


# ---------------------------------------------------------------- kernel


def test_kernel_examples():
    assert kernel(np.eye(3, dtype=np.int64), 5) == []
    assert kernel(np.array([[1, 1]], dtype=np.int64), 5) == [[1, 4]]
    assert len(kernel(np.zeros((2, 4), dtype=np.int64), 5)) == 4


def test_kernel_vectors_annihilate():
    rng = random.Random("ann:kernel")
    p = 101
    for _ in range(50):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        A = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
        basis = kernel(A, p)
        for v in basis:
            assert all(int(x) % p == 0 for x in (A @ np.array(v, dtype=np.int64)) % p)
            first = next(x for x in v if x)
            assert first == 1


def test_kernel_modulus_guard():
    with pytest.raises(ValueError, match="int64"):
        kernel(np.zeros((1, 1), dtype=np.int64), 2**33)


def _seeded_matrices(p, seed):
    """Square, tall, wide, rank-deficient, zero-lined and sparse matrices mod p."""
    rng = np.random.default_rng(seed)

    def uniform(r, c):
        return rng.integers(0, p, size=(r, c), dtype=np.int64)

    low_rank = uniform(90, 9).astype(object).dot(uniform(9, 80).astype(object)) % p
    zero_lines = uniform(80, 60)
    zero_lines[rng.choice(80, 25, replace=False)] = 0
    zero_lines[:, rng.choice(60, 20, replace=False)] = 0
    sparse = uniform(300, 120) * (rng.random((300, 120)) < 0.02)
    # columns 5..89 are combinations of columns 0..4: a stretch wider than a
    # window with no pivot in it, between columns that have pivots
    base = uniform(100, 5)
    no_pivot_window = np.hstack((base, base.astype(object).dot(uniform(5, 85).astype(object)) % p,
                                 uniform(100, 60))).astype(np.int64)
    # rows 20.. are combinations of rows 0..19: later blocks clear to zero
    top = uniform(20, 100)
    clears = np.vstack((top, uniform(120, 20).astype(object).dot(top.astype(object)) % p)).astype(np.int64)
    return {
        "square": uniform(70, 70),
        "tall": uniform(150, 40),
        "wide": uniform(40, 150),
        "rank-deficient": low_rank.astype(np.int64),
        "zero-rows-cols": zero_lines,
        "sparse": sparse,
        "several-windows-and-blocks": uniform(150, 230),
        "window-without-pivot": no_pivot_window,
        "block-clears-to-zero": clears,
        "full-rank-mid-block": uniform(110, 90),
    }


# 67108859 < 2**26 takes the matmul in inner blocks of 2 terms; 1073741789
# and 2**31 - 1 take the 16-bit limb split. _rref_block reduces its window
# every K = 8 and K = 2 updates there, so within a 64-row block.
@pytest.mark.parametrize("p", [2, 3, 101, 10007, 67108859, 1073741789, 2**31 - 1])
@pytest.mark.parametrize("block_rows", [7, None])
def test_kernel_matches_reference(p, block_rows, monkeypatch):
    if block_rows:
        monkeypatch.setattr(annihilator, "_BLOCK_ROWS", block_rows)
    calls, echelon = [], annihilator._echelon
    monkeypatch.setattr(annihilator, "_echelon", lambda A, p: calls.append(len(A)) or echelon(A, p))
    matrices = _seeded_matrices(p, p % 1000)
    for name, A in matrices.items():
        want = reference_kernel(A, p)
        assert kernel(A, p) == want, name
        # the symbolic builder's dtype: the narrowest unsigned one that holds p - 1
        assert kernel(A.astype(np.min_scalar_type(p - 1)), p) == want, name
    # 7-row blocks outgrow X on the larger matrices and take superblocks of
    # 56 rows through _echelon itself; 64-row blocks never do on these
    assert (len(calls) > 2 * len(matrices)) == bool(block_rows)


def test_kernel_never_widens_a_narrow_matrix_whole():
    """The symbolic rigidity(4,2,0) matrix at D=3 is 4489 x 969 uint8, 4.35 MB;
    widened whole to float64 it would take 35 MB. kernel takes it a block at
    a time."""
    F = PrimeField(101)
    A, _ = composition_matrix_symbolic(parse_map_spec(F, "rigidity(4,2,0)"), 3)
    assert A.shape == (4489, 969) and A.dtype == np.uint8
    tracemalloc.start()
    try:
        ker = kernel(A, F.p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ker) == 16 and peak < 8 * 2**20, peak


@pytest.mark.parametrize("name, D, cols, dim", [("rigidity(3,1,1)", 3, 220, 0), ("tensor(3,3,1)", 2, 406, 162)])
def test_kernel_of_sampled_solver_matrices(name, D, cols, dim):
    """The sampled matrices that the solver eliminates, dense and rank-deficient."""
    F = PrimeField(10007)
    pmap = parse_map_spec(F, name)
    A, _ = composition_matrix_sampled(pmap, D, cols + annihilator.SAMPLE_MARGIN, "1:round0")
    want = reference_kernel(A, F.p)
    assert A.shape == (cols + annihilator.SAMPLE_MARGIN, cols) and len(want) == dim
    assert kernel(A, F.p) == want


def _object_product(A, B, p):
    return A.astype(object).dot(B.astype(object)) % p


@pytest.mark.parametrize("p", [67108859, 2**31 - 1])
def test_mulmod_matches_object_product(p):
    rng = np.random.default_rng(p % 1000)
    A, B = rng.integers(0, p, (9, 300), dtype=np.int64), rng.integers(0, p, (300, 11), dtype=np.int64)
    acc = rng.integers(0, p, (9, 11), dtype=np.int64)
    want = (acc.astype(object) + _object_product(A, B, p)) % p
    assert annihilator._mulmod(A, B, p).tolist() == _object_product(A, B, p).tolist()
    # kernel's operands: negated residues, float64 factors, a float64 acc
    store = acc.astype(np.float64)
    minus = (acc.astype(object) - _object_product(A, B, p)) % p
    assert annihilator._mulmod(-A, B.astype(np.float64), p, store) is store and store.tolist() == minus.tolist()
    assert annihilator._mulmod(A, B, p, acc) is acc and acc.tolist() == want.tolist()
    # every entry p - 1: the largest limbs, and a product of 1 x 1 with inner dimension 0
    full = np.full((3, 300), p - 1, dtype=np.int64)
    assert annihilator._mulmod(full, full.T, p).tolist() == _object_product(full, full.T, p).tolist()
    assert annihilator._mulmod(full[:1, :0], full.T[:0, :1], p).tolist() == [[0]]


def test_mulmod_limb_sum_chunk_boundary():
    """At p = 2**31 - 1 the middle Karatsuba product sums limb sums below
    2 * 0xFFFF, in chunks of k terms; one term past a chunk must stay exact.
    So must 2**20 + 1 terms of p - 1, whose limb-sum products (98301**2,
    odd) add up past 2**53 to an odd total that float64 cannot hold."""
    p = 2**31 - 1
    k = (poly._FLOAT_EXACT - 1) // (2 * 0xFFFF) ** 2
    assert 2**18 < k < 2**20
    A = np.full((1, k + 1), p - 1, dtype=np.int64)
    assert annihilator._mulmod(A, A.T, p).tolist() == _object_product(A, A.T, p).tolist() == [[k + 1]]
    A = np.full((1, 2**20 + 1), p - 1, dtype=np.int64)
    assert annihilator._mulmod(A, A.T, p).tolist() == [[2**20 + 1]]  # (p - 1)**2 = 1 mod p


# ---------------------------------------------------------------- composition matrices


def test_symbolic_identity_map_has_empty_kernel(f101):
    pmap = _identity_map(f101, 3)
    A, basis = composition_matrix_symbolic(pmap, 1)
    assert kernel(A, f101.p) == []


def test_symbolic_constant_monomial_column(f101):
    pmap = rank_map(f101, 2, 1)
    A, basis = composition_matrix_symbolic(pmap, 2)
    assert basis[0] == (0, 0, 0, 0)
    col = A[:, 0]
    assert int(col.sum()) == 1 and sorted(set(col.tolist())) in ([0, 1], [1])


def test_symbolic_rank21_kernel_contains_det2(f101):
    pmap = rank_map(f101, 2, 1)
    A, basis = composition_matrix_symbolic(pmap, 2)
    det2 = determinant_poly(f101, 2)
    vec = np.array([det2.terms.get(e, 0) for e in basis], dtype=np.int64)
    assert not np.any((A @ vec) % f101.p)
    assert kernel(A, f101.p)  # nonzero


def test_symbolic_row_cap_refusal(f101):
    pmap = rigidity_map(RigidityParams(f101, 3, 1, 1))
    with pytest.raises(ResourceLimitError, match="sampled"):
        composition_matrix_symbolic(pmap, 3)


@pytest.mark.parametrize("name", ["rank(3,2)", "tensor(2,3,1)", "sv(12,2)"])
def test_symbolic_matches_column_builder(name, f101):
    pmap, d_max = {
        "rank(3,2)": (rank_map(f101, 3, 2), 3),
        "tensor(2,3,1)": (tensor_map(TensorParams(f101, 2, 3, 1)), 2),
        "sv(12,2)": (sv_map(SVParams(f101, 12, 2)), 2),
    }[name]
    for D in range(1, d_max + 1):
        A, basis = composition_matrix_symbolic(pmap, D)
        B, ref_basis = reference_symbolic(pmap, D)
        assert basis == ref_basis and A.shape == B.shape and A.dtype == np.min_scalar_type(f101.p - 1)
        # the same rows, possibly in another order
        assert sorted(map(tuple, A.tolist())) == sorted(map(tuple, B.tolist())), (name, D)


def _same_matrix(pmap, D):
    A, basis = composition_matrix_symbolic(pmap, D)
    B, ref_basis = reference_symbolic(pmap, D)
    assert basis == ref_basis and A.shape == B.shape and A.dtype == np.min_scalar_type(pmap.field.p - 1)
    assert sorted(map(tuple, A.tolist())) == sorted(map(tuple, B.tolist())), (pmap.label, D)


def test_symbolic_level_batches_split_between_sorts(f101, monkeypatch):
    # 64 words per sort: one degree of products spreads over many sorts
    monkeypatch.setattr(poly, "_SORT_WORDS", 64)
    calls = _level_spy(monkeypatch)
    _same_matrix(sv_map(SVParams(f101, 12, 2)), 2)
    _same_matrix(rank_map(f101, 3, 2), 2)
    assert calls["sorts"] > 50


def test_symbolic_wide_keys_take_the_dict_branch(f101, monkeypatch):
    # 20 variables of exponent up to 3 * 2: 60 key bits and a 7-bit residue
    calls = _level_spy(monkeypatch)
    pmap = _wide_map(random.Random("ann:wide"), f101, 20, 3)
    assert not poly.packed_images(monomial_basis(3, 2), pmap)[0].fits
    _same_matrix(pmap, 2)
    assert calls["sorts"] == 0 and calls["dict"] > 0


def test_symbolic_largest_prime(monkeypatch):
    F = PrimeField(2**31 - 1)
    calls = _level_spy(monkeypatch)
    for pmap in (sv_map(SVParams(F, 12, 2)), rank_map(F, 3, 2), tensor_map(TensorParams(F, 2, 3, 1))):
        _same_matrix(pmap, 2)
    assert calls["sorts"] > 0


def test_sampled_deterministic(f101):
    pmap = rank_map(f101, 2, 1)
    A1, b1 = composition_matrix_sampled(pmap, 2, 20, "seed-x")
    A2, b2 = composition_matrix_sampled(pmap, 2, 20, "seed-x")
    A3, _ = composition_matrix_sampled(pmap, 2, 20, "seed-y")
    assert np.array_equal(A1, A2) and b1 == b2
    assert not np.array_equal(A1, A3)


@pytest.mark.parametrize("D", [2, 3])
def test_sampled_matches_row_builder(D):
    F = PrimeField(10007)
    maps = [rank_map(F, 3, 2), tensor_map(TensorParams(F, 3, 3, 1)), rigidity_map(RigidityParams(F, 3, 1, 1))]
    for pmap in maps:
        for seed in (0, 1, "2:round1"):
            A, basis = composition_matrix_sampled(pmap, D, 8, seed)
            B, ref_basis = reference_sampled(pmap, D, 8, seed)
            assert basis == ref_basis and A.dtype == B.dtype
            assert np.array_equal(A, B), (pmap.label, seed)


def test_sampled_rows_kill_true_kernel(f101):
    pmap = rank_map(f101, 2, 1)
    det2 = determinant_poly(f101, 2)
    A, basis = composition_matrix_sampled(pmap, 2, 40, 0)
    vec = np.array([det2.terms.get(e, 0) for e in basis], dtype=np.int64)
    assert not np.any((A @ vec) % f101.p)


# ---------------------------------------------------------------- solver


def test_find_annihilator_rank21(f101):
    pmap = rank_map(f101, 2, 1)
    cert = find_annihilator(pmap, SolverConfig(mode="symbolic", d_min=1, d_max=2))
    assert cert is not None and cert.degree == 2
    det2 = determinant_poly(f101, 2)
    # normalization: first nonzero coefficient in grlex order is 1
    scale = None
    for e, c in det2.sorted_terms():
        scale = cert.q.terms[e] * pow(c, f101.p - 2, f101.p) % f101.p
        break
    assert cert.q.terms == {e: c * scale % f101.p for e, c in det2.terms.items()}
    # D=1 kernel is empty
    A, _ = composition_matrix_symbolic(pmap, 1)
    assert kernel(A, f101.p) == []
    # vanishing on random image points, nontriviality via find_nonzero_point
    rng = random.Random("ann:van21")
    for _ in range(1000):
        beta = [rng.randrange(f101.p) for _ in range(4)]
        assert cert.q.evaluate(pmap.evaluate(beta)) == 0
    pt = find_nonzero_point(cert.q, 2)
    assert cert.q.evaluate(pt) != 0


def test_find_annihilator_rank32_sampled():
    F = PrimeField(10007)
    pmap = rank_map(F, 3, 2)
    cert = find_annihilator(pmap, SolverConfig(mode="sampled", d_min=1, d_max=3, seed=5))
    assert cert is not None and cert.degree == 3 and cert.mode == "sampled"
    det3 = determinant_poly(F, 3)
    lead = next(iter(det3.sorted_terms()))
    scale = cert.q.terms[lead[0]] * pow(lead[1], F.p - 2, F.p) % F.p
    assert cert.q.terms == {e: c * scale % F.p for e, c in det3.terms.items()}
    assert cert.verification["symbolic_verified"] is True
    rng = random.Random("ann:van32")
    for _ in range(1000):
        beta = [rng.randrange(F.p) for _ in range(12)]
        assert cert.q.evaluate(pmap.evaluate(beta)) == 0


def test_symbolic_verification_failure_raises(f101, tmp_path, monkeypatch):
    real = annihilator.poly_compose

    # the matrix is built without poly_compose; only the check of Q sees the forgery
    monkeypatch.setattr(annihilator, "poly_compose", lambda q, pmap: real(q, pmap) + 1)
    with pytest.raises(VerificationError, match="does not annihilate"):
        find_annihilator(rank_map(f101, 2, 1), SolverConfig(d_min=1, d_max=2))
    out = tmp_path / "cert.json"
    argv = ["solve", "--map", "rank(2,1)", "-p", "101", "--dmax", "2", "--out", str(out)]
    assert cli.main(argv) == 4
    assert not out.exists()


def test_sampled_resample_rounds(f101, monkeypatch):
    """A spurious sampled kernel is retried with ncols more rows: round r
    samples (r + 1) * ncols + SAMPLE_MARGIN. On rank(2,1) at D = 2 (ncols =
    15) a check of Q that fails once costs one round; one that always fails
    raises after MAX_RESAMPLE_ROUNDS builds, of 31, 46, 61 and 76 rows."""
    real, build = annihilator.poly_compose, annihilator.composition_matrix_sampled
    failures, builds = [1], []

    def forged(q, pmap):
        if failures[0]:
            failures[0] -= 1
            return real(q, pmap) + 1
        return real(q, pmap)

    def spy(pmap, D, rows, seed):
        builds.append((D, rows))
        return build(pmap, D, rows, seed)

    monkeypatch.setattr(annihilator, "poly_compose", forged)
    monkeypatch.setattr(annihilator, "composition_matrix_sampled", spy)
    pmap, cfg = rank_map(f101, 2, 1), SolverConfig(mode="sampled", d_max=2)
    cert = find_annihilator(pmap, cfg)
    assert cert.degree == 2 and cert.verification["rounds"] == 2 and cert.verification["rows"] == 2 * 15 + 16
    assert builds == [(1, 21), (2, 31), (2, 46)]
    failures[0], builds[:] = 10**9, []
    with pytest.raises(VerificationError, match="does not annihilate"):
        find_annihilator(pmap, cfg)
    assert builds == [(1, 21)] + [(2, rows) for rows in (31, 46, 61, 76)]
    assert len(builds) == 1 + annihilator.MAX_RESAMPLE_ROUNDS


def test_solve_under_python_O_is_byte_identical():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["-m", "rigideq.cli", "solve", "--map", "rank(2,1)", "-p", "101", "--dmax", "2"]
    docs = [
        subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, check=True, timeout=120).stdout
        for flags in ([], ["-O"])
    ]
    assert docs[0] and docs[0] == docs[1]
    assert json.loads(docs[1])["verification"]["symbolic_verified"] is True


def test_find_annihilator_none_for_identity(f101):
    pmap = _identity_map(f101, 2)
    assert find_annihilator(pmap, SolverConfig(d_min=1, d_max=3)) is None


def test_sampled_symbolic_agreement(f101):
    # same kernel span at the same D on rank(2,1) and tensor(2,3,1)
    for pmap, D in [(rank_map(f101, 2, 1), 2), (tensor_map(TensorParams(f101, 2, 3, 1)), 2)]:
        A_sym, basis = composition_matrix_symbolic(pmap, D)
        ker_sym = kernel(A_sym, f101.p)
        ncols = len(basis)
        A_smp, _ = composition_matrix_sampled(pmap, D, ncols + 16, 0)
        ker_smp = kernel(A_smp, f101.p)
        assert len(ker_sym) == len(ker_smp)
        # compare spans after row reduction: stack and check rank stays the same
        stacked = np.array(ker_sym + ker_smp, dtype=np.int64)
        dim_union = len(stacked) - len(kernel(stacked.T, f101.p)) if len(stacked) else 0
        assert dim_union == len(ker_sym)
    # the solver's two modes write the same D, Q and kernel dimension
    for spec in ("rank(2,1)", "rank(3,2)", "tensor(3,3,1)", "rigidity(3,1,0)", "sv(6,2)", "support(3,1,[1,1])"):
        pmap = parse_map_spec(f101, spec)
        sym, smp = (find_annihilator(pmap, SolverConfig(mode=mode, d_max=3)) for mode in ("symbolic", "sampled"))
        assert sym is not None and smp is not None, spec
        assert (sym.degree, sym.q.to_json_dict(), sym.verification["kernel_dim"]) == (
            smp.degree, smp.q.to_json_dict(), smp.verification["kernel_dim"]), spec


def test_minimality_monotonicity(f101):
    pmap = tensor_map(TensorParams(f101, 2, 3, 1))
    cert = find_annihilator(pmap, SolverConfig(d_min=1, d_max=2))
    assert cert is not None and cert.degree == 2
    A, _ = composition_matrix_symbolic(pmap, 1)
    assert kernel(A, f101.p) == []


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="quantum")
    with pytest.raises(ValueError):
        SolverConfig(d_min=3, d_max=2)
    # the loader refuses certificates with D above the cap, so solve must not write one
    SolverConfig(d_max=DEGREE_SEARCH_CAP)
    with pytest.raises(ValueError, match="degree cap"):
        SolverConfig(d_max=DEGREE_SEARCH_CAP + 1)


def test_certificate_json_round_trip(f101):
    pmap = rank_map(f101, 2, 1)
    cert = find_annihilator(pmap, SolverConfig(d_min=1, d_max=2))
    text = cert.to_json()
    back = AnnihilatorCertificate.from_json(text)
    assert back.q == cert.q and back.degree == cert.degree
    assert back.pmap.coordinates == cert.pmap.coordinates
    assert back.to_json() == text
    # canonical: key-sorted, no whitespace, trailing newline
    assert text.endswith("\n") and ": " not in text


def test_certificate_json_must_match_its_map(f101):
    doc = json.loads(find_annihilator(rank_map(f101, 2, 1), SolverConfig(d_min=1, d_max=2)).to_json())
    forgeries = []
    for key, value in (("p", 13), ("label", "rank(2,2)")):
        forgeries.append(dict(doc, **{key: value}))
    for key, value in (("p", 103), ("nvars", 5)):
        forgeries.append(dict(doc, Q=dict(doc["Q"], **{key: value}, terms=[])))
    for forged in forgeries:
        with pytest.raises(ValueError):
            AnnihilatorCertificate.from_json_dict(forged)
    assert AnnihilatorCertificate.from_json_dict(doc).to_json_dict() == doc


def test_vector_to_poly_round_trip(f101):
    basis = monomial_basis(3, 2)
    rng = random.Random("ann:v2p")
    vec = [rng.randrange(f101.p) for _ in basis]
    q = vector_to_poly(vec, basis, f101)
    for e, c in zip(basis, vec):
        assert q.terms.get(e, 0) == c % f101.p
