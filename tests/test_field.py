import pytest

from rigideq import PrimeField, is_prime
from rigideq.field import NonInvertibleError


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 10007, 101, 2**31 - 1}
    for p in primes:
        assert is_prime(p)
    for n in (0, 1, 4, 9, 100, 10005, 2**31):
        assert not is_prime(n)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_refuses_moduli_from_2_31():
    # a product of two residues must fit int64; 2147483659 is the least prime above 2**31
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    assert is_prime(2147483659)
    with pytest.raises(ValueError, match="not below 2"):
        PrimeField(2147483659)


def test_inverse_examples():
    F5 = PrimeField(5)
    assert F5.inv(1) == 1
    assert F5.inv(2) == 3  # 2*3 = 6 = 1 mod 5
    F7 = PrimeField(7)
    with pytest.raises(NonInvertibleError, match="non-invertible"):
        F7.inv(0)
    with pytest.raises(NonInvertibleError):
        F7.inv(14)


def test_pow_and_inverse_consistency():
    F = PrimeField(101)
    for a in range(1, F.p):
        assert a * F.inv(a) % F.p == 1
        assert F.inv(F.inv(a)) == a
        assert F.inv(a - F.p) == F.inv(a)
