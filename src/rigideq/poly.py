"""Sparse multivariate polynomials over F_p and polynomial maps.

Terms are stored as a dict mapping exponent tuples to nonzero coefficients.
The canonical term order everywhere (iteration, serialization, solver column
order) is graded lexicographic: total degree ascending, then lexicographic on
exponent vectors with the first variable largest.

Every product of two polynomials goes through packed_weighted_sum, which sums
products a_t * b_t; MultiPoly * MultiPoly is its one-pair call. Every image
of a monomial under a map comes from monomial_images. Every evaluation of a
map at points goes through PolyMap.evaluate_many, in numpy; MultiPoly.evaluate
is the scalar evaluator of one polynomial.

MultiPoly(...) validates its terms (exponent length and sign, coefficients
reduced mod p, zeros dropped), since certificates come in through it.
Arithmetic here builds terms that are clean by construction and returns them
through MultiPoly._trusted, which checks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import add, mul
from typing import Iterator, Mapping, Sequence

import numpy as np

from .field import PrimeField

# Degree of the zero polynomial. A sentinel strictly below every integer, so
# degree-bound assertions like deg(q) <= D hold vacuously for zero.
NEG_INF = float("-inf")

# Sums of at least this many term products take the packed numpy path.
_NUMPY_MUL_THRESHOLD = 50_000
# Term values computed at once per coordinate by PolyMap.evaluate_many.
_EVAL_CELLS = 1 << 20


def grlex_key(exponents: Sequence[int]):
    """Sort key realizing graded lex order (x1 > x2 > ...)."""
    return (sum(exponents), tuple(-e for e in exponents))


class MultiPoly:
    """Immutable sparse polynomial in ``nvars`` variables over a prime field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: PrimeField, nvars: int, terms: Mapping[tuple, int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[tuple, int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has length != nvars={nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = coeff % field.p
            if c:
                clean[exps] = c
        self._assign(field, nvars, clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def _assign(self, field: PrimeField, nvars: int, terms: dict):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _trusted(cls, field: PrimeField, nvars: int, terms: dict) -> "MultiPoly":
        """A polynomial from terms that are already clean: exponent tuples of
        nvars Python ints >= 0 and coefficients in [1, p). Nothing is
        re-checked, so only code in this module that builds such terms calls
        it; input from outside goes through MultiPoly(...)."""
        poly = object.__new__(cls)
        poly._assign(field, nvars, terms)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, nvars: int) -> "MultiPoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: PrimeField, nvars: int, c: int) -> "MultiPoly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: PrimeField, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        e = [0] * nvars
        e[index] = 1
        return cls(field, nvars, {tuple(e): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(map(sum, self.terms))

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key)]

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.field != other.field:
            raise ValueError("mixed fields")
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.field, self.nvars, other)
        self._check_compatible(other)
        p = self.field.p
        big, small = (self.terms, other.terms) if len(self.terms) >= len(other.terms) else (other.terms, self.terms)
        out = dict(big)
        for e, c in small.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly._trusted(self.field, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return MultiPoly._trusted(self.field, self.nvars, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else -other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.field.p
            if c == 0:
                return MultiPoly.zero(self.field, self.nvars)
            p = self.field.p
            # c is a unit mod the prime p, so no product is zero
            return MultiPoly._trusted(self.field, self.nvars, {e: v * c % p for e, v in self.terms.items()})
        self._check_compatible(other)
        return packed_weighted_sum([(self, other)], self.field, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.field, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        """Exact evaluation at a point of F_p^nvars."""
        if len(point) != self.nvars:
            raise ValueError(f"arity mismatch: point of length {len(point)}, nvars={self.nvars}")
        p = self.field.p
        point = [v % p for v in point]
        # per-variable power cache up to the max exponent seen
        max_exp = [0] * self.nvars
        for e in self.terms:
            for i, ei in enumerate(e):
                if ei > max_exp[i]:
                    max_exp[i] = ei
        pows = []
        for i in range(self.nvars):
            row = [1] * (max_exp[i] + 1)
            for j in range(1, max_exp[i] + 1):
                row[j] = row[j - 1] * point[i] % p
            pows.append(row)
        total = 0
        for e, c in self.terms.items():
            v = c
            for i, ei in enumerate(e):
                if ei:
                    v = v * pows[i][ei] % p
            total = (total + v) % p
        return total

    def substitute(self, index: int, value: int) -> "MultiPoly":
        """Fix one variable to a field element; arity is preserved."""
        if not 0 <= index < self.nvars:
            raise ValueError("variable index out of range")
        p = self.field.p
        value %= p
        out: dict[tuple, int] = {}
        for e, c in self.terms.items():
            ei = e[index]
            if ei:
                c = c * pow(value, ei, p) % p
                if not c:
                    continue
                e = e[:index] + (0,) + e[index + 1 :]
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.field, self.nvars, out)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p": self.field.p,
            "nvars": self.nvars,
            "terms": [{"e": list(e), "c": c} for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MultiPoly":
        field = PrimeField(doc["p"])
        return cls(field, doc["nvars"], {tuple(t["e"]): t["c"] for t in doc["terms"]})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"x{i + 1}^{ei}" if ei > 1 else f"x{i + 1}" for i, ei in enumerate(e) if ei]
            parts.append("*".join([str(c)] + factors) if factors else str(c))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.field}, nvars={self.nvars}, {len(self.terms)} terms)"


def packed_weighted_sum(pairs: Sequence[tuple["MultiPoly", "MultiPoly"]], field: PrimeField, nvars: int) -> "MultiPoly":
    """Sum of the products a_t * b_t: the one polynomial product of rigideq.

    From _NUMPY_MUL_THRESHOLD term pairs on, every term product becomes one
    uint64 word: the exponent vector packed above the residue of the product
    of coefficients. One sort brings equal exponents together, and their
    residues are summed and unpacked in numpy. Smaller sums, exponents that
    do not fit beside a residue in 64 bits and moduli whose sums could leave
    int64 add every term pair into one dict instead.
    """
    pairs = [(a, b) for a, b in pairs if a.terms and b.terms]
    p = field.p
    total = sum(len(a.terms) * len(b.terms) for a, b in pairs)
    vbits = (p - 1).bit_length()  # a residue takes the low vbits bits of a word
    bits = None
    # products of residues are below p**2, and each key sums at most total of them reduced mod p
    if total >= _NUMPY_MUL_THRESHOLD and max((p - 1) ** 2, total * (p - 1)) < 2**63:
        bound = [0] * nvars
        for a, b in pairs:
            # zip(*terms) yields the exponents of one variable at a time
            for i, (x, y) in enumerate(zip(map(max, zip(*a.terms)), map(max, zip(*b.terms)))):
                bound[i] = max(bound[i], x + y)
        bits = [max(1, x.bit_length()) for x in bound]
        if vbits + sum(bits) > 64:
            bits = None
    if bits is None:
        out: dict[tuple, int] = {}
        for a, b in pairs:
            b_items = list(b.terms.items())
            for ea, ca in a.terms.items():
                for eb, cb in b_items:
                    e = tuple(map(add, ea, eb))
                    out[e] = out.get(e, 0) + ca * cb
        return MultiPoly._trusted(field, nvars, {e: r for e, c in out.items() if (r := c % p)})
    shifts = [vbits] * nvars
    for i in range(1, nvars):
        shifts[i] = shifts[i - 1] + bits[i - 1]

    def pack(terms):
        exps = np.array(list(terms), dtype=np.uint64)
        keys = np.zeros(len(terms), dtype=np.uint64)
        for i, s in enumerate(shifts):
            keys |= exps[:, i] << np.uint64(s)
        return keys, np.array(list(terms.values()), dtype=np.int64)

    chunks = []
    for a, b in pairs:
        ka, va = pack(a.terms)
        kb, vb = pack(b.terms)
        chunks.append(((ka[:, None] + kb[None, :]) | (va[:, None] * vb[None, :] % p).astype(np.uint64)).ravel())
    words = np.sort(np.concatenate(chunks))
    keys = words >> np.uint64(vbits)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    acc = np.add.reduceat((words & np.uint64((1 << vbits) - 1)).astype(np.int64), starts) % p
    nonzero = acc != 0
    words, acc = words[starts[nonzero]], acc[nonzero]
    # one column of Python ints per variable; zip(*cols) gives the exponent tuples
    cols = [((words >> np.uint64(s)) & np.uint64((1 << w) - 1)).tolist() for s, w in zip(shifts, bits)]
    return MultiPoly._trusted(field, nvars, dict(zip(zip(*cols), acc.tolist())))


@dataclass(frozen=True)
class PolyMap:
    """An ordered tuple of polynomials sharing one input arity."""

    field: PrimeField
    in_arity: int
    coordinates: tuple
    label: str = ""

    def __post_init__(self):
        for q in self.coordinates:
            if q.nvars != self.in_arity:
                raise ValueError(f"coordinate arity {q.nvars} != in_arity {self.in_arity}")
            if q.field != self.field:
                raise ValueError("coordinate over wrong field")
        object.__setattr__(self, "coordinates", tuple(self.coordinates))

    @property
    def out_arity(self) -> int:
        return len(self.coordinates)

    def degree(self):
        degs = [q.degree() for q in self.coordinates]
        return max(degs) if degs else NEG_INF

    def evaluate(self, point: Sequence[int]) -> list[int]:
        return self.evaluate_many([point])[0].tolist()

    def evaluate_many(self, points: Sequence[Sequence[int]]) -> np.ndarray:
        """(R, N) array whose row t holds every coordinate at points[t].

        Entries are residues mod p: int64 while the products and sums below
        fit in int64, else Python ints in an object array. Each term's
        value is its coefficient times one power-table entry per variable it
        uses, reduced mod p after every product; rows are taken in chunks of
        at most _EVAL_CELLS term values per coordinate.
        """
        p, m = self.field.p, self.in_arity
        longest = max([len(q.terms) for q in self.coordinates], default=0)
        # the overflow guard of packed_weighted_sum: products of two residues,
        # then sums of at most `longest` residues
        dtype = np.int64 if max((p - 1) ** 2, longest * (p - 1)) < 2**63 else object
        rows = []
        for point in points:
            if len(point) != m:
                raise ValueError(f"arity mismatch: point of length {len(point)}, in_arity={m}")
            rows.append([v % p for v in point])
        X = np.array(rows, dtype=dtype).reshape(len(rows), m)
        # per coordinate: its exponents (terms x m), coefficients, and the
        # variables it uses; top[i] is the largest exponent of variable i
        coords = []
        top = np.zeros(m, dtype=np.intp)
        for q in self.coordinates:
            E = np.fromiter(chain.from_iterable(q.terms), dtype=np.intp, count=len(q.terms) * m).reshape(len(q.terms), m)
            coords.append((E, np.array(list(q.terms.values()), dtype=dtype), np.flatnonzero(E.any(axis=0))))
            top = np.maximum(top, E.max(axis=0, initial=0))
        out = np.zeros((len(X), self.out_arity), dtype=dtype)
        step = max(1, _EVAL_CELLS // max(longest, 1))
        for start in range(0, len(X), step):
            x = X[start:start + step]
            # pows[i][t, k] = x[t, i]**k mod p
            pows = []
            for i in range(m):
                table = np.ones((len(x), int(top[i]) + 1), dtype=dtype)
                for k in range(1, table.shape[1]):
                    table[:, k] = table[:, k - 1] * x[:, i] % p
                pows.append(table)
            for j, (E, C, used) in enumerate(coords):
                values = np.broadcast_to(C, (len(x), len(C)))
                for i in used:
                    values = values * pows[i][:, E[:, i]] % p
                out[start:start + step, j] = values.sum(axis=1) % p
        return out

    def to_json_dict(self) -> dict:
        return {
            "p": self.field.p,
            "m": self.in_arity,
            "N": self.out_arity,
            "label": self.label,
            "coords": [q.to_json_dict() for q in self.coordinates],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PolyMap":
        field = PrimeField(doc["p"])
        coords = tuple(MultiPoly.from_json_dict(c) for c in doc["coords"])
        pmap = cls(field, doc["m"], coords, doc.get("label", ""))
        if pmap.out_arity != doc["N"]:
            raise ValueError("inconsistent coordinate count in serialized map")
        return pmap


def _grlex_parent(e: tuple) -> tuple[int, tuple]:
    """(i, parent): the first nonzero variable of e and e with it lowered by one."""
    i = next(i for i, ei in enumerate(e) if ei)
    return i, e[:i] + (e[i] - 1,) + e[i + 1 :]


def monomial_images(monomials: Sequence[tuple], one, coords: Sequence, mul) -> Iterator:
    """Yield the images of grlex-ordered ``monomials`` under the map with
    coordinates ``coords``: the constant's is ``one``, every other's is
    mul(parent's image, coordinate of the variable _grlex_parent lowers).
    Only images below the top degree are kept here, for their children."""
    if any(monomials[0]):
        raise ValueError("monomials must start at the constant monomial")
    top = sum(monomials[-1])
    kept = {monomials[0]: one}
    yield one
    for e in monomials[1:]:
        i, parent = _grlex_parent(e)
        image = mul(kept[parent], coords[i])
        if sum(e) < top:
            kept[e] = image
        yield image


def poly_compose(q: MultiPoly, pmap: PolyMap) -> MultiPoly:
    """Exact symbolic composition q(P_1, ..., P_N)."""
    if q.nvars != pmap.out_arity:
        raise ValueError(f"arity mismatch: q has {q.nvars} variables, map has {pmap.out_arity} outputs")
    field = pmap.field
    if q.field != field:
        raise ValueError("mixed fields")
    m = pmap.in_arity
    closure = {(0,) * q.nvars}
    for e in q.terms:
        while e not in closure:
            closure.add(e)
            e = _grlex_parent(e)[1]
    monomials = sorted(closure, key=grlex_key)
    images = monomial_images(monomials, MultiPoly.constant(field, m, 1), pmap.coordinates, mul)
    terms = (q.terms[e] * image for e, image in zip(monomials, images) if e in q.terms)
    result = sum(terms, MultiPoly.zero(field, m))

    dq, dp = q.degree(), pmap.degree()
    if dq is NEG_INF:
        bound = NEG_INF
    elif dp is NEG_INF:
        bound = 0  # zero map: only the constant part of q survives
    else:
        bound = dq * dp
    assert result.degree() <= bound
    return result


def _exponents_upto(nvars: int, deg: int) -> Iterator[tuple]:
    if nvars == 1:
        for e in range(deg + 1):
            yield (e,)
        return
    for e in range(deg + 1):
        for rest in _exponents_upto(nvars - 1, deg - e):
            yield (e,) + rest


def monomial_basis(nvars: int, max_degree: int) -> list[tuple]:
    """All exponent vectors of total degree <= max_degree, in graded lex order."""
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    basis = sorted(_exponents_upto(nvars, max_degree), key=grlex_key)
    assert len(basis) == math.comb(nvars + max_degree, nvars)
    return basis


def lagrange_basis(field: PrimeField, points: Sequence[int]) -> list[MultiPoly]:
    """Univariate Lagrange interpolation basis u_i with u_i(a_j) = delta_ij."""
    n = len(points)
    if field.p <= n:
        raise ValueError(f"field too small: p={field.p} but {n} interpolation points need p > {n}")
    pts = [a % field.p for a in points]
    if len(set(pts)) != n:
        raise ValueError("repeated interpolation points")
    p = field.p
    basis = []
    for i, ai in enumerate(pts):
        # numerator prod_{j != i} (z - a_j), dense coefficient list
        coeffs = [1]
        for j, aj in enumerate(pts):
            if j == i:
                continue
            nxt = [0] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k + 1] = (nxt[k + 1] + c) % p
                nxt[k] = (nxt[k] - c * aj) % p
            coeffs = nxt
        denom = 1
        for j, aj in enumerate(pts):
            if j != i:
                denom = denom * (ai - aj) % p
        scale = field.inv(denom)
        basis.append(MultiPoly(field, 1, {(k,): c * scale % p for k, c in enumerate(coeffs)}))
    return basis


def determinant_poly(field: PrimeField, n: int) -> MultiPoly:
    """det of the generic n x n matrix, variables x_{ij} in row-major order."""
    terms: dict[tuple, int] = {}
    for perm in _permutations_signed(n):
        sigma, sign = perm
        e = [0] * (n * n)
        for i in range(n):
            e[i * n + sigma[i]] = 1
        terms[tuple(e)] = sign % field.p
    return MultiPoly(field, n * n, terms)


def _permutations_signed(n: int):
    from itertools import permutations

    for sigma in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
        yield sigma, (-1) ** inversions
