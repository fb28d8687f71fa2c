"""Sparse multivariate polynomials over F_p and polynomial maps.

A polynomial's terms are a dict mapping exponent tuples to nonzero
coefficients. A nonzero polynomial made from packed keys (_Layout.unpack:
every product and composition) is an _ArrayPoly, born from arrays instead:
an exponent matrix (terms x nvars) and a coefficient vector, in ascending
key order. Its terms dict is built from them on first access, in that
order, and kept; len, degree, the packing of a product's factors and
PolyMap.evaluate_many read the arrays (_term_arrays) and never build it.
The canonical term order everywhere (iteration, serialization, solver column
order) is graded lexicographic: total degree ascending, then lexicographic on
exponent vectors with the first variable largest.

_products is the one kernel of products of polynomials. A term's exponent
vector is packed into one integer key (_Layout), so that keys of a product
add; a term product is a uint64 word holding a tag, the key and the residue
of the product of coefficients, and one sort and one np.add.reduceat
(_collect) sum the words with equal tag and key: products with one tag add
into one result. packed_weighted_sum, the sum of products a_t * b_t
(MultiPoly * MultiPoly is its one-pair call), is its single-tag call unless
its factors share supports enough for one exact modular matmul (_mulmod,
which annihilator.kernel eliminates with too) of their coefficient matrices
to take fewer words to _collect. Below _NUMPY_MUL_THRESHOLD term pairs per
sort, or when a word would need more than 64 bits, term pairs are added into
dicts instead.

Every image of a monomial under a map comes from monomial_images, one degree
at a time: _image_levels runs it with one batch of _products per degree, and
the sampled matrix runs it on value vectors. A degree made in dicts keeps
its images as {key: coefficient} dicts, so a small composition builds no
numpy array; packed_images packs every degree in numpy arrays for the
symbolic matrix, and poly_compose sums q's weighted images in one dict or by
one more sort. Every evaluation of a map at points goes through
PolyMap.evaluate_many, in numpy, on power tables that consecutive variables
share; MultiPoly.evaluate is the scalar evaluator of one polynomial.

MultiPoly(...) validates its terms (nvars, exponents and coefficients are
ints, exponent length and sign, coefficients reduced mod p, zeros dropped),
since certificates come in through it.
Arithmetic here, and every map builder of generators (through its one
constructor, _polymap), build terms that are clean by construction and wrap
them through MultiPoly._trusted, which checks nothing.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import lshift, neg
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .field import PrimeField

# Degree of the zero polynomial. A sentinel strictly below every integer, so
# degree-bound assertions like deg(q) <= D hold vacuously for zero.
NEG_INF = float("-inf")

# Batches of at least this many term products take the packed numpy path.
_NUMPY_MUL_THRESHOLD = 256
# Words sorted at once by a batch of _products (one product may take more).
_SORT_WORDS = 1 << 17
# Term values computed at once by PolyMap.evaluate_many, and power table
# entries made at once for a chunk of rows.
_EVAL_CELLS = 1 << 20
# Every integer of magnitude below 2**53 is exact in float64.
_FLOAT_EXACT = 2**53
# The one type MultiPoly(...) takes for nvars, exponents and coefficients.
_INT = frozenset([int])


def grlex_key(exponents: Sequence[int]):
    """Sort key realizing graded lex order (x1 > x2 > ...)."""
    return (sum(exponents), tuple(map(neg, exponents)))


def grlex_sorted(exps) -> list[tuple]:
    """Distinct exponent tuples in graded lex order: sorted(exps, key=grlex_key)
    as two sorts that call no Python code, lex descending, then stably by
    total degree."""
    return sorted(sorted(exps, reverse=True), key=sum)


class MultiPoly:
    """Immutable sparse polynomial in ``nvars`` variables over a prime field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: PrimeField, nvars: int, terms: Mapping[tuple, int] | None = None):
        # bool is not int here: a certificate's numbers must be JSON integers
        if type(nvars) is not int:
            raise TypeError(f"nvars must be an int, got {nvars!r}")
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        p = field.p
        clean: dict[tuple, int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has length != nvars={nvars}")
            if type(coeff) is not int or not _INT.issuperset(map(type, exps)):
                raise TypeError(f"exponents and coefficient must be ints: {exps}: {coeff!r}")
            if exps and min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            if c := coeff % p:
                clean[exps] = c
        self._assign(field, nvars, clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        # unpickling calls MultiPoly(...), which validates the terms again
        return MultiPoly, (self.field, self.nvars, self.terms)

    def _assign(self, field: PrimeField, nvars: int, terms: dict):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _trusted(cls, field: PrimeField, nvars: int, terms: dict) -> "MultiPoly":
        """A polynomial from terms that are already clean: exponent tuples of
        nvars Python ints >= 0 and coefficients in [1, p). Nothing is
        re-checked, so only code that builds such terms calls it (this module
        and generators._polymap); input from outside goes through MultiPoly(...)."""
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
        return not len(self)

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(map(sum, self.terms))

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        return [(e, self.terms[e]) for e in grlex_sorted(self.terms)]

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __len__(self):  # bool() falls back on it
        return len(self.terms)

    def _term_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, C): the exponent vectors of the terms as the rows of E and
        their int64 coefficients in C, in the order of terms."""
        n = len(self.terms)
        E = np.fromiter(chain.from_iterable(self.terms), dtype=np.int64, count=n * self.nvars).reshape(n, self.nvars)
        return E, np.array(list(self.terms.values()), dtype=np.int64)

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
            other = MultiPoly.constant(self.field, self.nvars, other)
        self._check_compatible(other)
        return packed_weighted_sum([(self, other)], self.field, self.nvars)

    __rmul__ = __mul__

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        """Exact evaluation at a point of F_p^nvars."""
        if len(point) != self.nvars:
            raise ValueError(f"arity mismatch: point of length {len(point)}, nvars={self.nvars}")
        p = self.field.p
        point = [int(v) % p for v in point]  # pow takes no numpy integer
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, ei in zip(point, e):
                if ei:  # pow costs the bits of ei, where a table of powers would cost ei
                    v = v * pow(x, ei, p) % p
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
        return f"MultiPoly({self.field}, nvars={self.nvars}, {len(self)} terms)"


class _ArrayPoly(MultiPoly):
    """A nonzero MultiPoly born from arrays: an exponent matrix E (terms x
    nvars) and a coefficient vector C. len, degree and _term_arrays read
    them; the terms dict is built from them on first access, in their order,
    and kept. A subclass, because a class with __getattr__ pays for it on
    every attribute access: MultiPoly's own stay fast."""

    __slots__ = ("_EC",)

    def __init__(self, field: PrimeField, nvars: int, E: np.ndarray, C: np.ndarray):
        # trusted, as MultiPoly._trusted: distinct rows of exponents >= 0, coefficients in [1, p)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_EC", (E, C))

    def __getattr__(self, name):
        # called only for an unset slot: the terms, until they are built
        if name != "terms":
            raise AttributeError(name)
        E, C = self._EC
        exps = zip(*E.T.tolist()) if self.nvars else [()] * len(C)
        terms = dict(zip(exps, C.tolist()))
        object.__setattr__(self, "terms", terms)
        return terms

    def __len__(self):
        return len(self._EC[1])

    def degree(self):
        # column by column, in int64 so that uint8 cannot wrap: sum(axis=1)
        # over rows of a few entries is about four times slower
        E = self._EC[0]
        return int(sum(E.T, np.zeros(len(E), dtype=np.int64)).max())

    def _term_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._EC


def _dot_mod(A, B, bound: int, p: int, acc):
    """acc = (acc + A @ B) mod p in place, for an int64 acc and float64 arrays
    of integers in [0, bound]: each matmul sums at most k products with
    k * bound**2 < 2**53, exactly."""
    k = (_FLOAT_EXACT - 1) // (bound * bound)
    for s in range(0, A.shape[1], k):
        np.add(acc, A[:, s:s + k] @ B[s:s + k], out=acc, casting="unsafe")
        acc %= p
    return acc


def _mulmod(A, B, p: int, acc=None):
    """(acc + A @ B) mod p for int64 arrays of residues mod p, exactly, by
    float64 matmuls; written into acc, a fresh zero array when None."""
    if acc is None:
        acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    if (p - 1) ** 2 < _FLOAT_EXACT:
        return _dot_mod(A.astype(np.float64), B.astype(np.float64), p - 1, p, acc)
    # p < 2**31: split both factors into 16-bit limbs, X = Xh * 2**16 + Xl, and
    # take three limb products (Karatsuba), the middle one from the limb sums.
    Ah, Al = (A >> 16).astype(np.float64), (A & 0xFFFF).astype(np.float64)
    Bh, Bl = (B >> 16).astype(np.float64), (B & 0xFFFF).astype(np.float64)
    hh = _dot_mod(Ah, Bh, 0xFFFF, p, np.zeros_like(acc))
    ll = _dot_mod(Al, Bl, 0xFFFF, p, np.zeros_like(acc))
    mid = _dot_mod(Ah + Al, Bh + Bl, 2 * 0xFFFF, p, np.zeros_like(acc)) - hh - ll
    acc += ((((hh << 16) + mid) % p) << 16) + ll
    acc %= p
    return acc


def packed_weighted_sum(pairs: Sequence[tuple["MultiPoly", "MultiPoly"]], field: PrimeField, nvars: int) -> "MultiPoly":
    """Sum of the products a_t * b_t, both sides packed with keys wide enough
    for every product: sum (A^T B)[alpha, beta] * x^(alpha + beta) over the
    unions SA and SB of the supports of the a_t and b_t, where row t of A
    and B holds the coefficients of a_t and b_t. When the words fit, there
    are at least _NUMPY_MUL_THRESHOLD term pairs and |SA| * |SB| is fewer,
    one _mulmod forms A^T B and one _collect sums its nonzero entries (some
    a_t * b_t has alpha + beta, so it fits the keys). Otherwise it is one
    batch of _products in which every product has tag 0."""
    pairs = [(a, b) for a, b in pairs if a and b]
    if not pairs:
        return MultiPoly._trusted(field, nvars, {})
    EA, CA, OA = _stack([a for a, _ in pairs])
    EB, CB, OB = _stack([b for _, b in pairs])
    # the largest exponent of each variable in any product, widened before
    # adding since exponents may be stored in uint8
    bound = np.maximum.reduceat(EA, OA[:-1]).astype(np.int64) + np.maximum.reduceat(EB, OB[:-1]).astype(np.int64)
    layout = _Layout(field.p, bound.max(axis=0, initial=0).tolist())
    left, right = _Packed(layout.keys(EA), CA, OA), _Packed(layout.keys(EB), CB, OB)
    total = sum(len(a) * len(b) for a, b in pairs)
    # |SA| * |SB| >= max |a_t| * max |b_t|, so one pair never takes the matmul
    most = max(len(a) for a, _ in pairs) * max(len(b) for _, b in pairs)
    if layout.fits and _NUMPY_MUL_THRESHOLD <= total and most < total:
        (SA, A), (SB, B) = _support_matrix(left), _support_matrix(right)
        if len(SA) * len(SB) < total:
            M = _mulmod(A.T, B, field.p)
            nonzero = M != 0
            # key sums of zero entries may carry between fields; they are dropped
            keys = (SA[:, None] + SB)[nonzero]
            words = (keys << np.uint64(layout.vbits)) | M[nonzero].view(np.uint64)
            return layout.unpack(*_collect(words, layout), field, nvars)
    index = range(len(pairs))
    sums = _products(left, right, index, index, layout, [0] * len(pairs))
    keys, coeffs = (sums.keys, sums.coeffs) if isinstance(sums, _Packed) else (list(sums[0]), list(sums[0].values()))
    return layout.unpack(keys, coeffs, field, nvars)


def _support_matrix(polys: "_Packed") -> tuple[np.ndarray, np.ndarray]:
    """(S, M): the union of the supports of packed polynomials, ascending,
    and the j-th's coefficients at those keys in row j of M."""
    S, column = np.unique(polys.keys, return_inverse=True)
    M = np.zeros((len(polys.offsets) - 1, len(S)), dtype=np.int64)
    M[np.repeat(np.arange(len(M)), np.diff(polys.offsets)), column] = polys.coeffs
    return S, M


class _Packed(NamedTuple):
    """Polynomials packed one after another: the j-th has the terms
    keys[offsets[j]:offsets[j + 1]] (packed exponents, see _Layout) with the
    coefficients at the same places."""

    keys: np.ndarray
    coeffs: np.ndarray
    offsets: np.ndarray


class _Layout:
    """Where the parts of a packed term sit in its word.

    A key holds the exponent of variable i in bits[i] bits from shifts[i]
    up, wide enough for the exponent bound it was made for; keys of a
    product add. A word holds the key above the vbits bits of a residue
    mod p, and a tag above both, so that one sort orders terms by tag, then
    key. Keys and words are uint64 when a key and a residue fit in one
    word (``fits``); otherwise keys are Python ints in object arrays, and
    products are summed in dicts (_dict_products), never by _collect.
    Coefficients are int64: a product of two residues mod p < 2**31 fits.
    """

    def __init__(self, p: int, bound: Sequence[int]):
        self.p = p
        self.vbits = (p - 1).bit_length()
        self.bits = [max(1, x.bit_length()) for x in bound]
        self.shifts = list(accumulate(self.bits, initial=0))[:-1]
        self.kbits = sum(self.bits)
        self.fits = self.vbits + self.kbits <= 64
        self.dtype = np.uint64 if self.fits else object  # of keys and words
        self.scalar = np.uint64 if self.fits else int  # shift counts and masks
        # of exponents: uint8 while they are below 256, else int64 while the
        # nvars exponents of a term, each below 2**top, sum below 2**63
        top = max(self.bits, default=1)
        self.edtype = np.uint8 if top <= 8 else np.int64 if top + (len(self.bits) - 1).bit_length() <= 63 else object

    def keys(self, E: np.ndarray) -> np.ndarray:
        """The packed key of every row of an exponent array."""
        fields = (E[:, i].astype(self.dtype) << self.scalar(k) for i, k in enumerate(self.shifts))
        return sum(fields, np.zeros(len(E), dtype=self.dtype))  # by columns, as in _ArrayPoly.degree

    def key(self, exps: tuple) -> int:
        """The packed key of one exponent vector, as a Python int."""
        return sum(map(lshift, exps, self.shifts))

    def unpack(self, keys, coeffs, field: PrimeField, nvars: int) -> "MultiPoly":
        """The polynomial with these distinct keys and nonzero coefficients
        (numpy arrays or lists), born from arrays (_ArrayPoly) unless it is
        zero, its terms in their order."""
        if not len(keys):
            return MultiPoly._trusted(field, nvars, {})
        keys, coeffs = np.asarray(keys, dtype=self.dtype), np.asarray(coeffs, dtype=np.int64)
        s = self.scalar
        E = np.empty((len(keys), nvars), dtype=self.edtype)
        for i, (k, w) in enumerate(zip(self.shifts, self.bits)):
            E[:, i] = (keys >> s(k)) & s((1 << w) - 1)
        return _ArrayPoly(field, nvars, E, coeffs)


def _stack(polys: Sequence[MultiPoly]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, C, offsets): the _term_arrays of polys one after another, those of
    polys[j] in rows offsets[j]:offsets[j + 1]."""
    arrays = [q._term_arrays() for q in polys]
    offsets = np.array(list(accumulate((len(C) for _, C in arrays), initial=0)), dtype=np.intp)
    return np.concatenate([E for E, _ in arrays]), np.concatenate([C for _, C in arrays]), offsets


def _outer_words(left: _Packed, right: _Packed, li, ri, tags, layout: _Layout) -> np.ndarray:
    """The words of every term product of left[li[j]] and right[ri[j]],
    tagged tags[j], for every j (uint64 layouts only). Products that share
    a right factor are made by one outer product."""
    vbits, kbits, p = np.uint64(layout.vbits), np.uint64(layout.kbits), layout.p
    out = [np.empty(0, dtype=np.uint64)]
    for b in np.unique(ri):
        js = np.flatnonzero(ri == b)
        lo = left.offsets[li[js]]
        cnt = left.offsets[li[js] + 1] - lo
        # the rows of left's terms, those of left[li[j]] for each of the js in turn
        rows = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
        head = (np.repeat(tags[js], cnt) << kbits) | left.keys[rows]
        s, e = right.offsets[b], right.offsets[b + 1]
        words = head[:, None] + right.keys[None, s:e]
        words <<= vbits
        residues = left.coeffs[rows, None] * right.coeffs[None, s:e]
        residues %= p
        words |= residues.view(np.uint64)
        out.append(words.ravel())
    return np.concatenate(out)


def _collect(words: np.ndarray, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """(heads, sums): the distinct tags and keys above the residues of uint64
    words, ascending, and the sum mod p of the residues of the words with
    each, where that sum is nonzero. Sorts and overwrites words.

    This sort and reduce is the one summation of packed terms. A sum adds
    at most len(words) residues in int64, where (p - 1)**2 < 2**63 keeps
    2**31 of them in range.
    """
    p, vbits = layout.p, np.uint64(layout.vbits)
    if len(words) * (p - 1) >= 2**63:
        raise OverflowError(f"{len(words)} residues mod {p} could overflow int64")
    if not len(words):
        return words, np.zeros(0, dtype=np.int64)
    words.sort()
    heads = words >> vbits
    starts = np.flatnonzero(np.concatenate(([True], heads[1:] != heads[:-1])))
    words &= np.uint64((1 << layout.vbits) - 1)
    sums = np.add.reduceat(words.view(np.int64), starts) % p
    nonzero = sums != 0
    return heads[starts[nonzero]], sums[nonzero]


def _arrays(polys, layout: _Layout) -> _Packed:
    """Polynomials packed in numpy arrays: a _Packed as it is, a list of
    {key: coefficient} dicts converted."""
    if isinstance(polys, _Packed):
        return polys
    return _Packed(np.array(list(chain.from_iterable(polys)), dtype=layout.dtype),
                   np.array(list(chain.from_iterable(map(dict.values, polys))), dtype=np.int64),
                   np.array(list(accumulate(map(len, polys), initial=0)), dtype=np.intp))


def _dicts(polys) -> list[dict]:
    """Polynomials as {key: coefficient} dicts: such a list as it is, a
    _Packed converted."""
    if isinstance(polys, list):
        return polys
    K, C, O = (x.tolist() for x in polys)
    return [dict(zip(K[s:e], C[s:e])) for s, e in zip(O, O[1:])]


def _products(left, right, li: Sequence[int], ri: Sequence[int], layout: _Layout, tags=None):
    """The products left[li[j]] * right[ri[j]], those with equal tags[j]
    summed, in order of tag: tags are ints >= 0 that ascend, and by default
    each product has its own. Each side is a list of {key: coefficient}
    dicts or a _Packed.

    When the words fit in 64 bits, the sums are made as words tagged by
    result, at most _SORT_WORDS words per sort (one result may take more),
    with as many results per sort as the bits above the key leave tags
    for, from _NUMPY_MUL_THRESHOLD term pairs per such sort on; they come
    back as a _Packed. Otherwise every term pair is added into a dict per
    result, keyed by Python ints (_dict_products), and they come back as
    a list of such dicts, so that small products never pay numpy's set-up.
    """
    p = layout.p
    sizes = list(map(len, left)) if isinstance(left, list) else np.diff(left.offsets).tolist()
    right_sizes = list(map(len, right)) if isinstance(right, list) else np.diff(right.offsets).tolist()
    pairs = [sizes[a] * right_sizes[b] for a, b in zip(li, ri)]
    total = sum(pairs)
    results = len(li) if tags is None else len(set(tags))
    most = 1 << max(0, 64 - layout.vbits - layout.kbits)  # results whose tags fit above the key
    sorts = -(-results // most)
    if total < _NUMPY_MUL_THRESHOLD * sorts or not layout.fits or total * (p - 1) >= 2**63:
        return _dict_products(left, right, li, ri, p, tags)
    left, right = _arrays(left, layout), _arrays(right, layout)
    li, ri = np.array(li, dtype=np.intp), np.array(ri, dtype=np.intp)
    # the first product of each result, then len(li); the words before each
    firsts = np.arange(len(li) + 1) if tags is None else np.append(np.flatnonzero(np.diff(tags, prepend=-1)), len(li))
    bounds = np.concatenate(([0], np.cumsum(pairs)))[firsts]
    kbits = np.uint64(layout.kbits)
    keys, coeffs, offsets = [], [], [np.zeros(1, dtype=np.intp)]
    start = 0
    while start < results:
        stop = int(np.searchsorted(bounds, bounds[start] + _SORT_WORDS, side="right")) - 1
        stop = min(max(stop, start + 1), start + most)
        js, local = slice(firsts[start], firsts[stop]), np.arange(stop - start, dtype=np.uint64)
        words = _outer_words(left, right, li[js], ri[js], np.repeat(local, np.diff(firsts[start:stop + 1])), layout)
        heads, sums = _collect(words, layout)
        keys.append(heads & np.uint64((1 << layout.kbits) - 1))
        coeffs.append(sums)
        offsets.append(offsets[-1][-1] + np.searchsorted(heads >> kbits, local + np.uint64(1)))
        start = stop
    return _Packed(np.concatenate(keys), np.concatenate(coeffs), np.concatenate(offsets))


def _dict_products(left, right, li: Sequence[int], ri: Sequence[int], p: int, tags=None) -> list[dict]:
    left, right = _dicts(left), _dicts(right)
    accs: dict[int, dict] = {}  # by tag, in order of tag
    for a, b, tag in zip(li, ri, range(len(li)) if tags is None else tags):
        acc, b_terms = accs.setdefault(tag, {}), right[b].items()
        for ka, ca in left[a].items():
            for kb, cb in b_terms:
                k = ka + kb
                acc[k] = acc.get(k, 0) + ca * cb
    return [{k: r for k, c in acc.items() if (r := c % p)} for acc in accs.values()]


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

        Entries are int64 residues mod p. All terms are evaluated together,
        in chunks of rows of at most _EVAL_CELLS values. Consecutive
        variables share one power table, indexed mixed-radix (the last
        variable fastest), while it has at most one entry per term and
        _EVAL_CELLS per chunk; a variable whose exponents reach the number of
        terms has powers only at those that occur (_powmod). A term's value
        is its coefficient times one entry of each table, reduced mod p only
        where a product or the sum of a coordinate's values could otherwise
        leave int64.
        """
        p, m = self.field.p, self.in_arity
        longest = max(map(len, self.coordinates), default=0)
        rows = []
        for point in points:
            if len(point) != m:
                raise ValueError(f"arity mismatch: point of length {len(point)}, in_arity={m}")
            rows.append([v % p for v in point])
        X = np.array(rows, dtype=np.int64).reshape(len(rows), m)
        if not self.coordinates:
            return np.zeros((len(X), 0), dtype=np.int64)
        # every coordinate's terms in one array, coordinate j's in columns
        # offsets[j]:offsets[j + 1]; a row of exponents per variable
        E, C, offsets = _stack(self.coordinates)
        E = np.ascontiguousarray(E.T)
        top = E.max(axis=1, initial=0).tolist()  # the largest exponent of each variable
        occur = {i: np.unique(E[i]) for i in range(m) if top[i] >= len(C)}
        width = [len(occur[i]) if i in occur else top[i] + 1 for i in range(m)]
        step = max(1, _EVAL_CELLS // max(len(C), 1))
        # a table holds at most as many entries per row as there are terms,
        # and at most _EVAL_CELLS in a chunk of rows
        most = min(len(C), _EVAL_CELLS // max(1, min(len(X), step)))
        groups, index = [], []  # the variables of each table, its entry for each term
        for i in range(m):
            if not groups or math.prod(width[j] for j in groups[-1]) * width[i] > most:
                groups.append([])
                index.append(np.zeros(len(C), dtype=np.intp))
            groups[-1].append(i)
            index[-1] *= width[i]
            index[-1] += np.searchsorted(occur[i], E[i]) if i in occur else E[i]
        # values stay below cap, so that a sum of `longest` of them fits int64
        cap = (2**63 - 1) // max(longest, 1)
        nonempty = np.flatnonzero(np.diff(offsets))
        out = np.zeros((len(X), self.out_arity), dtype=np.int64)
        for start in range(0, len(X), step):
            x = X[start:start + step]
            values, bound = np.broadcast_to(C, (len(x), len(C))), p - 1
            for variables, entry in zip(groups, index):
                # table[t, entry] = prod of x[t, i]**e_i mod p over the variables
                table = np.ones((len(x), 1), dtype=np.int64)
                for i in variables:
                    if i in occur:
                        powers = _powmod(x[:, i], occur[i], p)
                    else:
                        powers = np.ones((len(x), top[i] + 1), dtype=np.int64)
                        for k in range(1, top[i] + 1):
                            powers[:, k] = powers[:, k - 1] * x[:, i] % p
                    table = (table[:, :, None] * powers[:, None, :]).reshape(len(x), -1) % p
                values, bound = values * table[:, entry], bound * (p - 1)
                if bound * (p - 1) > cap:
                    values, bound = values % p, p - 1
            out[start:start + step, nonempty] = np.add.reduceat(values, offsets[nonempty], axis=1) % p
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
        if type(doc["m"]) is not int or type(doc["N"]) is not int or type(doc["label"]) is not str:
            raise TypeError(f"need int arities and a str label: m={doc['m']!r}, N={doc['N']!r}, label={doc['label']!r}")
        coords = tuple(MultiPoly.from_json_dict(c) for c in doc["coords"])
        pmap = cls(field, doc["m"], coords, doc["label"])
        if pmap.out_arity != doc["N"]:
            raise ValueError("inconsistent coordinate count in serialized map")
        return pmap


def _powmod(x: np.ndarray, e: np.ndarray, p: int) -> np.ndarray:
    """x[t] ** e[j] mod p at [t, j] for residues x, squaring over e's bits."""
    out = np.ones((len(x), len(e)), dtype=np.int64)
    while e.any():
        out, x, e = np.where(e & 1, out * x[:, None] % p, out), x * x % p, e >> 1
    return out


def _grlex_parent(e: tuple) -> tuple[int, tuple]:
    """(i, parent): the first nonzero variable of e and e with it lowered by one."""
    # the first nonzero value occurs first at the first nonzero position
    i = e.index(next(filter(None, e)))
    return i, e[:i] + (e[i] - 1,) + e[i + 1 :]


def monomial_images(monomials: Sequence[tuple], one, products) -> Iterator:
    """Yield the images of the grlex-ordered ``monomials`` under a map, one
    degree at a time: first ``one``, the constant's, then for each degree
    products(images, parents, variables), whose j-th image is the
    parents[j]-th of the previous degree's ``images`` times the coordinate
    of variables[j] (both lists of ints). That is the monomial's image as
    its _grlex_parent's image times the coordinate of the variable it
    lowers, so every parent must be among ``monomials``.
    """
    if any(monomials[0]):
        raise ValueError("monomials must start at the constant monomial")
    degrees = list(map(sum, monomials))
    index = {monomials[0]: 0}
    images = one
    yield images
    start = 1
    while start < len(monomials):
        stop = bisect_right(degrees, degrees[start], start)
        parents, variables = [], []
        for e in monomials[start:stop]:
            i, parent = _grlex_parent(e)
            parents.append(index[parent])
            variables.append(i)
        images = products(images, parents, variables)
        yield images
        index = {e: j for j, e in enumerate(monomials[start:stop])}
        start = stop


def _image_levels(monomials: Sequence[tuple], pmap: PolyMap) -> tuple[_Layout, list]:
    """(layout, levels): the images of the grlex-ordered ``monomials`` under
    pmap, in their order, from monomial_images with one batch of _products
    per degree: a degree's images are a list of {key: coefficient} dicts
    while every degree is made in dicts, a _Packed from the first that takes
    the sort on. The keys are wide enough for every image up to the degree
    of the last monomial."""
    exps = [e for q in pmap.coordinates for e in q.terms]
    top = map(max, zip((0,) * pmap.in_arity, *exps))  # the largest exponent of each variable
    layout = _Layout(pmap.field.p, [sum(monomials[-1]) * x for x in top])
    coords = [{layout.key(e): c for e, c in q.terms.items()} for q in pmap.coordinates]
    levels = list(monomial_images(monomials, [{0: 1}], lambda images, parents, variables:
                                  _products(images, coords, parents, variables, layout)))
    return layout, levels


def packed_images(monomials: Sequence[tuple], pmap: PolyMap) -> tuple[_Layout, _Packed]:
    """(layout, images): the images of the grlex-ordered ``monomials`` under
    pmap (_image_levels), packed in their order in numpy arrays."""
    layout, levels = _image_levels(monomials, pmap)
    return layout, _concat(levels, layout)


def _concat(levels: list, layout: _Layout) -> _Packed:
    levels = [_arrays(level, layout) for level in levels]
    starts = np.cumsum([0] + [len(level.keys) for level in levels[:-1]])
    offsets = [np.zeros(1, dtype=np.intp)] + [level.offsets[1:] + s for level, s in zip(levels, starts)]
    return _Packed(np.concatenate([level.keys for level in levels]),
                   np.concatenate([level.coeffs for level in levels]), np.concatenate(offsets))


def poly_compose(q: MultiPoly, pmap: PolyMap) -> MultiPoly:
    """Exact symbolic composition q(P_1, ..., P_N): the images of q's
    monomials and of their grlex ancestors from _image_levels, times q's
    coefficients, summed in one dict when every degree was made in dicts,
    else by one _collect."""
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
    monomials = grlex_sorted(closure)
    layout, levels = _image_levels(monomials, pmap)
    weights = [q.terms.get(e, 0) for e in monomials]
    if all(isinstance(level, list) for level in levels):
        acc: dict[int, int] = {}
        for image, w in zip(chain.from_iterable(levels), weights):
            if w:
                for k, c in image.items():
                    acc[k] = acc.get(k, 0) + w * c
        sums = {k: r for k, c in acc.items() if (r := c % field.p)}
        result = layout.unpack(list(sums), list(sums.values()), field, m)
    else:
        images = _concat(levels, layout)
        weights = np.repeat(np.array(weights, dtype=np.int64), np.diff(images.offsets))
        used = weights != 0
        coeffs = images.coeffs[used] * weights[used] % field.p
        words = (images.keys[used] << layout.scalar(layout.vbits)) | coeffs.astype(layout.dtype)
        result = layout.unpack(*_collect(words, layout), field, m)

    if result:
        dp = pmap.degree()
        bound = 0 if dp is NEG_INF else q.degree() * dp  # zero map: only the constant part of q survives
        if result.degree() > bound:
            raise AssertionError(f"q o P has degree {result.degree()} > deg(q) * deg(P) = {bound}")
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
    basis = grlex_sorted(_exponents_upto(nvars, max_degree))
    if len(basis) != math.comb(nvars + max_degree, nvars):
        raise AssertionError(f"{len(basis)} monomials of degree <= {max_degree} in {nvars} variables")
    return basis


def _master(points: Sequence[int], p: int) -> list[int]:
    """Coefficients, the constant first, of prod_j (z - a_j) mod p."""
    m = [1]
    for a in points:
        m = [(lo - a * hi) % p for lo, hi in zip([0] + m, m + [0])]
    return m


@functools.lru_cache(maxsize=16)
def lagrange_weights(field: PrimeField, points: tuple) -> tuple:
    """w_i = 1 / prod_{j != i} (a_i - a_j) for distinct residues a_j: the
    Lagrange denominators, inverted, each the derivative of prod_j (z - a_j)
    at a_i by Horner's rule. Cached per (field, points): universal_eval
    needs them at every evaluation of one graph."""
    p = field.p
    derivative = [k * c % p for k, c in enumerate(_master(points, p))][:0:-1]  # the top coefficient first
    return tuple(field.inv(functools.reduce(lambda acc, c: (acc * a + c) % p, derivative, 0)) for a in points)


def lagrange_basis(field: PrimeField, points: Sequence[int]) -> list[MultiPoly]:
    """Univariate Lagrange interpolation basis u_i with u_i(a_j) = delta_ij:
    u_i = w_i * prod_{j != i} (z - a_j), the master polynomial prod_j (z - a_j)
    divided by z - a_i synthetically, times the weight of lagrange_weights."""
    n = len(points)
    if field.p <= n:
        raise ValueError(f"field too small: p={field.p} but {n} interpolation points need p > {n}")
    p = field.p
    pts = tuple(a % p for a in points)
    if len(set(pts)) != n:
        raise ValueError("repeated interpolation points")
    master = _master(pts, p)
    basis = []
    for a, w in zip(pts, lagrange_weights(field, pts)):
        quotient = [0] * n  # master = (z - a) * quotient, the top coefficient down
        quotient[-1] = master[n]
        for k in range(n - 1, 0, -1):
            quotient[k - 1] = (master[k] + a * quotient[k]) % p
        basis.append(MultiPoly._trusted(field, 1, {(k,): r for k, c in enumerate(quotient) if (r := c * w % p)}))
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
