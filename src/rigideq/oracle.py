"""Brute-force ground truth at tiny scale: rank, rigidity, tensor rank.

Everything here is exhaustive by design; its whole value is independence
from the map/solver code paths. Enumeration order is fixed (supports in
colex order, values in counting order) so refusals and logs reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

from .field import PrimeField


class OracleCostError(ValueError):
    """Raised when an exhaustive check would exceed the configured ceiling."""


@dataclass(frozen=True)
class DenseMatrix:
    field: PrimeField
    rows: int
    cols: int
    entries: tuple  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(f"{len(self.entries)} entries for a {self.rows}x{self.cols} matrix")
        object.__setattr__(self, "entries", tuple(v % self.field.p for v in self.entries))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]


@dataclass(frozen=True)
class DenseTensor:
    field: PrimeField
    n: int
    d: int
    entries: tuple  # mixed-radix row-major over (a_1, ..., a_d)

    def __post_init__(self):
        if len(self.entries) != self.n**self.d:
            raise ValueError(f"{len(self.entries)} entries for an order-{self.d} side-{self.n} tensor")
        object.__setattr__(self, "entries", tuple(v % self.field.p for v in self.entries))


def rank(matrix: DenseMatrix) -> int:
    """Rank over F_p by plain Gaussian elimination."""
    p = matrix.field.p
    rows = matrix.row_lists()
    r = 0
    for col in range(matrix.cols):
        pivot = next((i for i in range(r, matrix.rows) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(matrix.rows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
        r += 1
        if r == matrix.rows:
            break
    return r


def is_rigid_bruteforce(matrix: DenseMatrix, r: int, s: int, cost_ceiling: int = 5_000_000) -> bool:
    """True iff no sparse change of <= s entries brings the rank down to <= r.

    Exhausts every support of size <= s (colex order) and every assignment of
    nonzero values on it; tiny instances only.
    """
    F = matrix.field
    cells = matrix.rows * matrix.cols
    cost = sum(math.comb(cells, t) * (F.p - 1) ** t for t in range(min(s, cells) + 1))
    if cost > cost_ceiling:
        raise OracleCostError(f"exhaustive rigidity check needs ~{cost} rank computations > ceiling {cost_ceiling}")
    for t in range(min(s, cells) + 1):
        # combinations over flat row-major cells: colex support order
        for support in combinations(range(cells), t):
            for values in product(range(1, F.p), repeat=t):
                entries = list(matrix.entries)
                for idx, v in zip(support, values):
                    entries[idx] = (entries[idx] - v) % F.p
                changed = DenseMatrix(F, matrix.rows, matrix.cols, tuple(entries))
                if rank(changed) <= r:
                    return False
    return True


def _monic_vectors(p: int, n: int) -> list[tuple]:
    """Nonzero vectors with first nonzero coordinate 1 (scaling representatives)."""
    out = []
    for v in product(range(p), repeat=n):
        first = next((x for x in v if x), None)
        if first == 1:
            out.append(v)
    return out


def tensor_rank_bruteforce(tensor: DenseTensor, r_max: int, cost_ceiling: int = 50_000_000):
    """Smallest r <= r_max admitting an exact rank-one decomposition over F_p,
    or None when every such decomposition fails ("greater than r_max").

    Pruning: the first axis vector of each term is normalized to have leading
    coordinate 1 (scale freedom moves into the last axis), and zero vectors
    are excluded (a zero factor reduces to smaller rank, already tested).
    """
    F, n, d = tensor.field, tensor.n, tensor.d
    p = F.p
    if all(v == 0 for v in tensor.entries):
        return 0
    monic = _monic_vectors(p, n)
    per_term = len(monic) * (p**n) ** (d - 1)
    cost = sum(per_term**r for r in range(1, r_max + 1))
    if cost > cost_ceiling:
        raise OracleCostError(f"exhaustive tensor-rank search needs ~{cost} candidates > ceiling {cost_ceiling}")
    cells = list(product(range(n), repeat=d))
    target = tensor.entries

    def term_entries(vectors):
        out = []
        for cell in cells:
            v = 1
            for c in range(d):
                v = v * vectors[c][cell[c]] % p
            out.append(v)
        return out

    nonzero_vecs = [v for v in product(range(p), repeat=n) if any(v)]
    candidates = [
        tuple(term_entries((u,) + rest))
        for u in monic
        for rest in product(nonzero_vecs, repeat=d - 1)
    ]
    for r in range(1, r_max + 1):
        if r == 1:
            if target in candidates:
                return 1
            continue
        for combo in product(range(len(candidates)), repeat=r):
            total = [0] * len(cells)
            for idx in combo:
                t = candidates[idx]
                total = [(a + b) % p for a, b in zip(total, t)]
            if tuple(total) == target:
                return r
    return None


def _file_ints(text: str) -> list[int]:
    """The integers of a matrix or tensor file; a '#' starts a comment that
    runs to the end of its line."""
    return [int(t) for line in text.splitlines() for t in line.partition("#")[0].split()]


def parse_matrix(text: str) -> DenseMatrix:
    """File format: first line "p rows cols", then exactly rows * cols
    row-major entries (DenseMatrix refuses any other count)."""
    p, rows, cols, *entries = _file_ints(text)
    return DenseMatrix(PrimeField(p), rows, cols, tuple(entries))


def format_matrix(matrix: DenseMatrix) -> str:
    lines = [f"{matrix.field.p} {matrix.rows} {matrix.cols}"]
    for i in range(matrix.rows):
        lines.append(" ".join(str(matrix.get(i, j)) for j in range(matrix.cols)))
    return "\n".join(lines) + "\n"


def parse_tensor(text: str) -> DenseTensor:
    """File format: first line "p n d", then exactly n**d mixed-radix
    row-major entries (DenseTensor refuses any other count)."""
    p, n, d, *entries = _file_ints(text)
    return DenseTensor(PrimeField(p), n, d, tuple(entries))


def format_tensor(tensor: DenseTensor) -> str:
    head = f"{tensor.field.p} {tensor.n} {tensor.d}"
    return head + "\n" + " ".join(map(str, tensor.entries)) + "\n"
