import random

import pytest

from rigideq import (
    DenseMatrix,
    DenseTensor,
    PrimeField,
    is_rigid_bruteforce,
    rank,
    tensor_rank_bruteforce,
)
from rigideq.oracle import (
    OracleCostError,
    format_matrix,
    format_tensor,
    parse_matrix,
    parse_tensor,
)


# ---------------------------------------------------------------- rank


def test_rank_examples(f5):
    n = 3
    ident = DenseMatrix(f5, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))
    assert rank(ident) == n
    ones = DenseMatrix(f5, n, n, (1,) * (n * n))
    assert rank(ones) == 1
    zero = DenseMatrix(f5, n, n, (0,) * (n * n))
    assert rank(zero) == 0


def test_rank_mod_p():
    # [[1,2],[2,4]] is rank 1 over any field; [[1,2],[2,1]] is singular mod 3 only
    F3 = PrimeField(3)
    F5 = PrimeField(5)
    assert rank(DenseMatrix(F3, 2, 2, (1, 2, 2, 1))) == 1
    assert rank(DenseMatrix(F5, 2, 2, (1, 2, 2, 1))) == 2


def test_dense_matrix_validation(f5):
    with pytest.raises(ValueError):
        DenseMatrix(f5, 2, 2, (1, 2, 3))


# ---------------------------------------------------------------- rigidity


def test_is_rigid_examples():
    F2 = PrimeField(2)
    i2 = DenseMatrix(F2, 2, 2, (1, 0, 0, 1))
    assert is_rigid_bruteforce(i2, 1, 0) is True
    assert is_rigid_bruteforce(i2, 1, 1) is False  # zero one diagonal entry
    zero = DenseMatrix(F2, 2, 2, (0, 0, 0, 0))
    assert is_rigid_bruteforce(zero, 1, 0) is False
    assert is_rigid_bruteforce(zero, 0, 0) is False


def test_is_rigid_constructed_nonrigid(f5):
    # rank-<=r plus <=s-sparse matrices are never (r,s)-rigid
    rng = random.Random("oracle:nonrigid")
    for _ in range(50):
        n, r, s = 3, 1, 1
        u = [rng.randrange(5) for _ in range(n)]
        v = [rng.randrange(5) for _ in range(n)]
        entries = [u[i] * v[j] % 5 for i in range(n) for j in range(n)]
        entries[rng.randrange(n * n)] = rng.randrange(5)
        m = DenseMatrix(f5, n, n, tuple(entries))
        assert is_rigid_bruteforce(m, r, s) is False


def test_is_rigid_cost_refusal():
    F = PrimeField(101)
    big = DenseMatrix(F, 5, 5, tuple(range(25)))
    with pytest.raises(OracleCostError):
        is_rigid_bruteforce(big, 2, 12)


# ---------------------------------------------------------------- tensor rank


def test_tensor_rank_examples():
    F3 = PrimeField(3)
    zero = DenseTensor(F3, 2, 3, (0,) * 8)
    assert tensor_rank_bruteforce(zero, 2) == 0
    e111 = DenseTensor(F3, 2, 3, (1, 0, 0, 0, 0, 0, 0, 0))
    assert tensor_rank_bruteforce(e111, 2) == 1
    # e1^3 + e2^3: entries at (1,1,1) and (2,2,2)
    diag = DenseTensor(F3, 2, 3, (1, 0, 0, 0, 0, 0, 0, 1))
    assert tensor_rank_bruteforce(diag, 1) is None  # greater than 1
    assert tensor_rank_bruteforce(diag, 2) == 2


def test_tensor_rank_cost_refusal():
    F = PrimeField(101)
    t = DenseTensor(F, 3, 3, tuple(range(27)))
    with pytest.raises(OracleCostError):
        tensor_rank_bruteforce(t, 3)


def test_dense_tensor_validation(f5):
    with pytest.raises(ValueError):
        DenseTensor(f5, 2, 3, (1, 2, 3))


# ---------------------------------------------------------------- file formats


def test_matrix_round_trip(f5):
    m = DenseMatrix(f5, 2, 3, (1, 2, 3, 4, 0, 2))
    text = format_matrix(m)
    assert text.splitlines()[0] == "5 2 3"
    back = parse_matrix(text)
    assert back == m


def test_tensor_round_trip():
    F3 = PrimeField(3)
    t = DenseTensor(F3, 2, 3, (1, 0, 2, 0, 1, 1, 0, 2))
    text = format_tensor(t)
    assert text.splitlines()[0] == "3 2 3"
    assert parse_tensor(text) == t


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix("5 2 2\n1 2 3\n")
    # entries past rows * cols are refused, not ignored
    with pytest.raises(ValueError, match="6 entries for a 2x2 matrix"):
        parse_matrix("101 2 2\n1 0\n0 1 7 7\n")
    with pytest.raises(ValueError):
        parse_matrix("101 2\n")
    # '#' comments out the rest of its line, wherever it starts
    identity = DenseMatrix(PrimeField(101), 2, 2, (1, 0, 0, 1))
    assert parse_matrix("# 2x2 identity\n101 2 2\n1 0 # first row\n0 1#second\n") == identity


def test_parse_tensor_errors():
    F3 = PrimeField(3)
    assert parse_tensor("# a 2x2x2 tensor\n3 2 3\n1 0 2 0 # half\n1 1 0 2\n") == DenseTensor(F3, 2, 3, (1, 0, 2, 0, 1, 1, 0, 2))
    with pytest.raises(ValueError, match="9 entries"):
        parse_tensor("3 2 3\n1 0 2 0 1 1 0 2 1\n")
    with pytest.raises(ValueError, match="7 entries"):
        parse_tensor("3 2 3\n1 0 2 0 1 1 0\n")
