"""Annihilating polynomials for polynomial maps by exact linear algebra.

The solver realizes the dimension-count argument as code: the linear map
Q -> Q o P restricted to polynomials of degree <= D is written as a matrix
over F_p (columns in graded lex monomial order) and its nullspace yields an
annihilator. Its columns are the images of the monomials under P, from
poly.monomial_images one degree at a time: the symbolic matrix takes its rows
straight from the packed monomials of poly.packed_images. A sampled mode
replaces the astronomically tall symbolic matrix with rows of point
evaluations. Both modes run one round loop and verify every returned
polynomial symbolically; the certificate it goes into is certify's.

The nullspace comes from an exact blocked elimination mod p that works only
where pivots are still missing. The echelon rows are kept on the columns with
no pivot yet. Each block of rows is cleared against them, and they against
its new pivots, by float64 matmuls (BLAS); a block finds its own pivots on
windows as wide as it is tall, with int64 row operations. A float64 sum of
integers is exact below 2**53, so each matmul adds at most k products of
residues with k * (p - 1)**2 < 2**53. Moduli with (p - 1)**2 >= 2**53 are
split into 16-bit limbs, multiplied by three limb products (Karatsuba).
Every modulus of a PrimeField (p < 2**31) is supported. That exact
modular matmul is poly._mulmod: poly.packed_weighted_sum forms sums of
products on shared supports with it too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .certify import _COUNTS, DEGREE_SEARCH_CAP, MAX_RESAMPLE_ROUNDS, AnnihilatorCertificate
from .field import PrimeField
from .poly import MultiPoly, PolyMap, _mulmod, monomial_basis, monomial_images, packed_images, poly_compose


class ResourceLimitError(RuntimeError):
    """Symbolic matrix would be too tall; caller should switch to sampled mode."""


class VerificationError(RuntimeError):
    """Every round's kernel vector at one degree failed symbolic verification: Q o P != 0."""


ROW_CAP = 5_000_000  # estimated rows of the largest symbolic matrix built
SAMPLE_MARGIN = 16


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "symbolic"  # "symbolic" | "sampled"
    d_min: int = 1
    d_max: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("symbolic", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.d_min <= self.d_max:
            raise ValueError("need 1 <= d_min <= d_max")
        if self.d_max > DEGREE_SEARCH_CAP:
            raise ValueError(f"d_max={self.d_max} exceeds the degree cap {DEGREE_SEARCH_CAP}")


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def dimension_gap_holds(m: int, d: int, N: int, D: int) -> bool:
    """True iff C(N+D, N) > C(m+dD, m): the kernel of Q -> Q o P on degree-D
    polynomials is then guaranteed nonzero by dimension count."""
    n1, k1 = N + D, N
    n2, k2 = m + d * D, m
    if n1 <= 10_000 and n2 <= 10_000:
        return math.comb(n1, k1) > math.comb(n2, k2)
    return _log_comb(n1, k1) > _log_comb(n2, k2)


def existence_degree_bound(m: int, d: int, N: int, cap: int = DEGREE_SEARCH_CAP):
    """Smallest D <= cap with C(N+D, N) > C(m+dD, m), else None."""
    if m < 1 or d < 1 or N < 1:
        raise ValueError("need m, d, N >= 1")
    for D in range(1, cap + 1):
        if dimension_gap_holds(m, d, N, D):
            return D
    return None


def composition_matrix_symbolic(pmap: PolyMap, D: int):
    """Matrix of Q -> Q o P: columns indexed by monomial_basis(N, D), rows by
    the monomials of F_p[x_1..x_m] up to degree deg(P)*D that actually occur.

    Returns (rows x cols array, column basis). The entries are residues in
    the narrowest unsigned dtype that holds p - 1: the matrix is mostly zeros,
    and its size sets the symbolic solver's peak memory. Omitted rows are
    identically zero and do not change the nullspace.
    """
    d = pmap.degree()
    d_int = 0 if d == float("-inf") else int(d)
    est_rows = math.comb(pmap.in_arity + d_int * D, pmap.in_arity)
    if est_rows > ROW_CAP:
        raise ResourceLimitError(
            f"symbolic matrix would have ~{est_rows} rows > cap {ROW_CAP}; use sampled mode"
        )
    basis = monomial_basis(pmap.out_arity, D)
    _, images = packed_images(basis, pmap)
    # rows in ascending order of their packed monomial
    rows = np.unique(images.keys)
    A = np.zeros((len(rows), len(basis)), dtype=np.min_scalar_type(pmap.field.p - 1))
    A[np.searchsorted(rows, images.keys), np.repeat(np.arange(len(basis)), np.diff(images.offsets))] = images.coeffs
    return A, basis


def composition_matrix_sampled(pmap: PolyMap, D: int, rows: int, seed) -> tuple:
    """Row t holds the values of every degree-<=D monomial at P(beta_t) for a
    seeded random beta_t; deterministic given the seed. The matrix is the
    transpose of one int64 array that each degree is written into in place.
    """
    p = pmap.field.p
    basis = monomial_basis(pmap.out_arity, D)
    rng = random.Random(f"{seed}:sampled:{pmap.label}:{D}")
    points = [[rng.randrange(p) for _ in range(pmap.in_arity)] for _ in range(rows)]
    # values[i, t] is coordinate i of P(beta_t)
    values = np.ascontiguousarray(pmap.evaluate_many(points).T)
    # AT[j] holds monomial j at every point, so a degree is a block of rows
    AT = np.empty((len(basis), rows), dtype=np.int64)
    AT[0] = 1
    filled = 1

    def level(images, parents, variables):
        nonlocal filled
        out, filled = AT[filled:filled + len(parents)], filled + len(parents)
        # mode="clip" lets take write into out without a buffer; parents are in range
        np.take(images, parents, axis=0, out=out, mode="clip")
        # a run of equal variables at a time (they ascend), with no temporary
        runs = np.flatnonzero(np.diff(variables, prepend=-1, append=-1))
        for a, b in zip(runs[:-1], runs[1:]):
            out[a:b] *= values[variables[a]]
        out %= p
        return out

    list(monomial_images(basis, AT[:1], level))
    return AT.T, basis


# Rows of the input taken per block of the elimination in kernel().
_BLOCK_ROWS = 64


def _rref_block(C, p: int):
    """Reduced row echelon form of an int64 block of residues, in place.

    Returns its nonzero rows and their pivot columns. Pivots are sought in
    windows of the next len(C) columns that are nonzero below the pivot rows
    (the others are left unchanged by the row operations). The operations
    act on [window | transform]; one matmul then applies the square transform
    to the columns right of the window.
    """
    k, r, start, pivots = len(C), 0, 0, []
    while r < k:
        cols = start + np.flatnonzero(C[r:, start:].any(axis=0))
        if cols.size == 0:
            break
        win, right, w = cols[:k], cols[k:], min(k, cols.size)
        # the transform is carried only when there are columns to apply it to
        S = np.concatenate((C[:, win], np.eye(k, k if right.size else 0, dtype=np.int64)), axis=1)
        for j in range(w):
            nz = np.flatnonzero(S[r:, j])
            if nz.size == 0:
                continue
            pivot = r + int(nz[0])
            S[[r, pivot]] = S[[pivot, r]]
            S[r, j:] = S[r, j:] * pow(int(S[r, j]), p - 2, p) % p
            rest = np.flatnonzero(S[:, j])
            rest = rest[rest != r]
            if rest.size:
                S[rest, j:] = (S[rest, j:] - S[rest, j, None] * S[r, j:]) % p
            pivots.append(int(win[j]))
            r += 1
        C[:, win] = S[:, :w]
        if right.size:
            C[:, right] = _mulmod(S[:, w:], C[:, right], p)
        start = int(win[-1]) + 1
    return C[:r], pivots


def kernel(A, p: int) -> list[list[int]]:
    """Nullspace basis of A over F_p via reduced row echelon form.

    Each basis vector is scaled so its first nonzero coordinate (in column
    order) is 1. Vectors appear in ascending order of their free column.
    A may hold integers of any dtype: each block is taken to int64 mod p on
    its own, so a narrow A is never widened whole.

    Rows are taken _BLOCK_ROWS at a time. The echelon rows X are kept only
    on the active columns, those with no pivot yet (on the pivot columns
    they are the identity). A block C is cleared by one matmul, C[:, act] -
    C[:, piv] @ X, and brought to reduced echelon form R; its new pivots are
    cleared from X by a second, X - X[:, new] @ R, and leave the active set.
    Each matmul takes only the rows of X that it changes or needs. The basis
    is read off X: its vector for active column f is 1 at f and -X[:, f]
    at the pivots.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("kernel expects a 2-d matrix")
    nrows, ncols = A.shape
    if p * p >= 2**62:
        raise ValueError("modulus too large for the int64 elimination path")
    # X[i] is the echelon row with its pivot at column piv[i], on the active
    # columns act (ascending); it is 1 at its own pivot and 0 at the others.
    act = np.arange(ncols)
    piv = np.empty(0, dtype=np.intp)
    X = np.empty((0, ncols), dtype=np.int64)
    for start in range(0, nrows, _BLOCK_ROWS):
        if act.size == 0:
            break
        C = A[start:start + _BLOCK_ROWS].astype(np.int64) % p
        C = C[C.any(axis=1)]
        used = np.flatnonzero(C[:, piv].any(axis=0))
        B = C[:, act]
        if used.size:
            _mulmod((p - C[:, piv[used]]) % p, X if used.size == len(X) else X[used], p, B)
        R, new = _rref_block(B[B.any(axis=1)], p)
        if not new:
            continue
        kept = np.delete(np.arange(act.size), new)
        Xn = np.empty((len(X) + len(new), kept.size), dtype=np.int64)
        # mode="clip" lets take write into Xn without a buffer; kept is in range
        np.take(X, kept, axis=1, out=Xn[:len(X)], mode="clip")
        Xn[len(X):] = R[:, kept]
        minus_r = (p - Xn[len(X):]) % p
        hit = np.flatnonzero(X[:, new].any(axis=1))
        if hit.size == len(X):
            _mulmod(X[:, new], minus_r, p, Xn[:len(X)])
        elif hit.size:
            Xn[hit] = _mulmod(X[np.ix_(hit, new)], minus_r, p, Xn[hit])
        X, piv, act = Xn, np.concatenate((piv, act[new])), act[kept]
    if act.size == 0:
        return []
    K = np.zeros((act.size, ncols), dtype=np.int64)
    K[np.arange(act.size), act] = 1
    K[:, piv] = (p - X.T) % p
    lead = K[np.arange(act.size), (K != 0).argmax(axis=1)]
    inv = np.array([pow(int(x), p - 2, p) for x in lead], dtype=np.int64)
    return (K * inv[:, None] % p).tolist()


def vector_to_poly(vec, basis, field: PrimeField) -> MultiPoly:
    nvars = len(basis[0])
    return MultiPoly(field, nvars, {e: c for e, c in zip(basis, vec) if c})


def find_annihilator(pmap: PolyMap, cfg: SolverConfig):
    """Search D = d_min..d_max for a nonzero Q of degree <= D with Q o P == 0.

    Returns an AnnihilatorCertificate for the smallest successful D, or None
    when the range is exhausted ("none in range"). Each degree takes rounds:
    one in symbolic mode, up to MAX_RESAMPLE_ROUNDS in sampled mode, where
    round r samples (r + 1) * ncols + SAMPLE_MARGIN rows. A round ends the
    degree when the kernel is trivial, and the search when the first kernel
    vector passes symbolic verification; when every round's fails, it raises
    VerificationError.
    """
    p = pmap.field.p
    rounds = 1 if cfg.mode == "symbolic" else MAX_RESAMPLE_ROUNDS
    for D in range(cfg.d_min, cfg.d_max + 1):
        ncols = math.comb(pmap.out_arity + D, pmap.out_arity)
        for r in range(rounds):
            if cfg.mode == "symbolic":
                A, basis = composition_matrix_symbolic(pmap, D)
            else:  # a spurious kernel is retried with ncols more rows
                A, basis = composition_matrix_sampled(pmap, D, (r + 1) * ncols + SAMPLE_MARGIN, f"{cfg.seed}:round{r}")
            ker = kernel(A, p)
            if not ker:
                break
            q = vector_to_poly(ker[0], basis, pmap.field)
            if poly_compose(q, pmap).is_zero():
                counts = {"kernel_dim": len(ker), "rows": int(A.shape[0]), "rounds": r + 1}
                verification = {"symbolic_verified": True, **{k: counts[k] for k in _COUNTS[cfg.mode]}}
                return AnnihilatorCertificate(pmap, q, D, cfg.mode, cfg.seed, verification)
        else:
            raise VerificationError(f"{cfg.mode} kernel vector at D={D} does not annihilate {pmap.label} after {rounds} round(s)")
    return None
