"""Exact arithmetic in prime fields F_p."""

from __future__ import annotations

import functools
from dataclasses import dataclass


class NonInvertibleError(ZeroDivisionError):
    """Raised when inverting a non-invertible (zero) element."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=1024, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all word-sized integers.

    Cached per (type, value): every polynomial of a certificate names its
    modulus, and each builds a PrimeField.
    """
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p < 2**31. All values live in [0, p).

    p must be an int (bool and float are refused, so that 101.0 never stands
    in for 101). Below 2**31 a product of two residues fits int64, which the
    arithmetic in numpy relies on."""

    p: int

    def __post_init__(self):
        if type(self.p) is not int:
            raise TypeError(f"modulus must be an int, got {self.p!r}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.p >= 2**31:
            raise ValueError(f"modulus {self.p} is not below 2**31")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise NonInvertibleError(f"non-invertible element: 0 mod {self.p}")
        return pow(a, self.p - 2, self.p)

    def __str__(self):
        return f"F_{self.p}"
