"""Universal polynomial maps: SV generator, rigidity maps, tensor maps.

All coordinate orders are deterministic: matrix outputs are row-major,
tensor outputs are mixed-radix row-major, and SV interpolates coordinate i
at the point i. Every builder writes clean term dicts (UV's from _uv_terms,
SV's from _sv_terms) and wraps them in _polymap; sv_input encodes SV inputs.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import islice, product
from typing import Mapping, Sequence

from .field import PrimeField
from .poly import MultiPoly, PolyMap, lagrange_basis


def _polymap(field: PrimeField, nvars: int, coords: list[dict], label: str) -> PolyMap:
    """The labelled map whose coordinates have the clean term dicts coords."""
    return PolyMap(field, nvars, tuple(MultiPoly._trusted(field, nvars, terms) for terms in coords), label)


def _uv_terms(n: int, r: int, nvars: int) -> list[dict]:
    """Term dicts of UV's n^2 coordinates, row-major, in nvars variables:
    u (n x r) then v (r x n), both row-major, are the first 2nr."""
    coords = []
    for i in range(n):
        for j in range(n):
            terms = {}
            for t in range(r):
                e = [0] * nvars
                e[i * r + t] = e[n * r + t * n + j] = 1
                terms[tuple(e)] = 1
            coords.append(terms)
    return coords


def _sv_terms(field: PrimeField, N: int, k: int, nvars: int, offset: int) -> list[dict]:
    """Term dicts of SV_{N,k}'s N coordinates in nvars variables, x_j at
    offset + j and y_j at offset + k + j: coordinate i is sum_j u_i(y_j) x_j
    for the Lagrange basis u_i of the points 0..N-1."""
    coords = []
    for u in lagrange_basis(field, range(N)):
        terms = {}
        for j in range(k):
            for (deg,), c in u.terms.items():
                e = [0] * nvars
                e[offset + j], e[offset + k + j] = 1, deg
                terms[tuple(e)] = c
        coords.append(terms)
    return coords


@dataclass(frozen=True)
class SVParams:
    """Parameters of the generator SV_{N,k}: 2k inputs, N outputs."""

    field: PrimeField
    N: int
    k: int

    def __post_init__(self):
        if self.field.p <= self.N:
            raise ValueError(f"field too small: p={self.field.p}, need p > {self.N}")
        if not 1 <= self.k <= self.N:
            raise ValueError(f"need 1 <= k <= N, got k={self.k}, N={self.N}")


def sv_map(params: SVParams) -> PolyMap:
    """The map SV_{N,k}(x, y), coordinate i = sum_j u_i(y_j) * x_j.

    Variable order: x_1..x_k then y_1..y_k. Every coordinate has degree <= N.
    """
    F, N, k = params.field, params.N, params.k
    pmap = _polymap(F, 2 * k, _sv_terms(F, N, k, 2 * k, 0), f"sv({N},{k})")
    if pmap.degree() > N:
        raise AssertionError(f"an SV coordinate has degree {pmap.degree()} > N = {N}")
    return pmap


def sv_selector(params: SVParams, positions: Sequence[int]) -> tuple:
    """y-assignment projecting x_j onto coordinate positions[j] (0-indexed):
    y_j is the interpolation point of that coordinate, which is its index."""
    if len(positions) != params.k:
        raise ValueError(f"need exactly k={params.k} positions")
    if len({i for i in positions if 0 <= i < params.N}) != len(positions):
        raise ValueError(f"positions must be distinct and in [0, {params.N})")
    return tuple(positions)


def sv_input(params: SVParams, values: Mapping[int, int]) -> tuple:
    """(x, y) with SV_{N,k}(x, y) holding values[i] at each 0-indexed
    coordinate i and 0 elsewhere. The support, at most k positions, is
    padded to exactly k with the smallest positions not already used; x_j
    is the value at its j-th position, ascending, and y_j selects it."""
    k, p = params.k, params.field.p
    if len(values) > k:
        raise ValueError(f"{len(values)} positions are more than k={k}")
    free = (i for i in range(params.N) if i not in values)
    support = sorted([*values, *islice(free, k - len(values))])
    return tuple(values.get(i, 0) % p for i in support), sv_selector(params, support)


def rank_map(field: PrimeField, n: int, r: int) -> PolyMap:
    """Matrix product map UV: 2nr inputs to n^2 outputs, degree 2.

    Variables: u (n x r, row-major) then v (r x n, row-major); output (i,j)
    row-major is sum_t u[i,t] v[t,j].
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return _polymap(field, 2 * n * r, _uv_terms(n, r, 2 * n * r), f"rank({n},{r})")


@dataclass(frozen=True)
class RigidityParams:
    """Rigidity universal map parameters: side n, rank budget r, sparsity k."""

    field: PrimeField
    n: int
    r: int
    k: int

    def __post_init__(self):
        if not 1 <= self.r < self.n:
            raise ValueError(f"need 1 <= r < n, got r={self.r}, n={self.n}")
        if not 0 <= self.k <= self.n * self.n:
            raise ValueError(f"need 0 <= k <= n^2, got k={self.k}")
        if self.field.p <= self.n * self.n:
            raise ValueError(f"field too small: p={self.field.p}, need p > {self.n * self.n}")

    @property
    def in_arity(self) -> int:
        return 2 * self.n * self.r + 2 * self.k


def rigidity_map(params: RigidityParams) -> PolyMap:
    """UV(u, v) + SV_{n^2,k}(x, y): the universal map for non-rigid matrices.

    Variables: u, v as in rank_map, then the 2k SV variables.
    """
    F, n, r, k = params.field, params.n, params.r, params.k
    nvars = params.in_arity
    coords = _uv_terms(n, r, nvars)
    if k:
        # UV terms have no SV variable and SV terms have one x_j: no term is in both
        for terms, sv in zip(coords, _sv_terms(F, n * n, k, nvars, 2 * n * r)):
            terms.update(sv)
    pmap = _polymap(F, nvars, coords, f"rigidity({n},{r},{k})")
    if pmap.degree() > max(2, n * n):
        raise AssertionError(f"rigidity map has degree {pmap.degree()} > {max(2, n * n)}")
    return pmap


def rigidity_witness(
    params: RigidityParams,
    u0: Sequence[Sequence[int]],
    v0: Sequence[Sequence[int]],
    sparse: Mapping[tuple, int],
) -> tuple:
    """Input vector beta with rigidity_map(params)(beta) = U0 V0 + S.

    ``sparse`` maps 0-indexed (i, j) positions to the values of S; at most k
    positions, which sv_input pads to k at row-major positions.
    """
    F, n, r, k = params.field, params.n, params.r, params.k
    if not all(0 <= i < n and 0 <= j < n for i, j in sparse):  # else two could share a row-major index
        raise ValueError(f"sparse positions must lie in [0,{n}) x [0,{n})")
    beta = [u0[i][t] % F.p for i in range(n) for t in range(r)]
    beta += [v0[t][j] % F.p for t in range(r) for j in range(n)]
    if k or sparse:  # SVParams refuses k = 0, so a nonempty S with it too
        x, y = sv_input(SVParams(F, n * n, k), {i * n + j: v for (i, j), v in sparse.items()})
        beta += x + y
    return tuple(beta)


def fixed_support_map(field: PrimeField, n: int, r: int, support: Sequence[tuple]) -> PolyMap:
    """UV(u, v) + W with W supported on a fixed set of positions.

    ``support`` holds 0-indexed (i, j) positions; duplicates are rejected.
    With r = 0 the UV part is empty and the map is linear on its support
    variables. Support variables follow the u, v blocks in sorted row-major
    order of their positions.
    """
    if n < 1 or r < 0:
        raise ValueError(f"need n >= 1 and r >= 0, got n={n}, r={r}")
    support = [tuple(s) for s in support]
    if len(set(support)) != len(support):
        raise ValueError("duplicate positions in support")
    for (i, j) in support:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"position {(i, j)} outside [0,{n}) x [0,{n})")
    support = sorted(support)
    nvars = 2 * n * r + len(support)
    coords = _uv_terms(n, r, nvars)
    for t, (i, j) in enumerate(support):
        e = [0] * nvars
        e[2 * n * r + t] = 1
        coords[i * n + j][tuple(e)] = 1
    sup_str = ";".join(f"{i + 1},{j + 1}" for i, j in support)
    return _polymap(field, nvars, coords, f"support({n},{r},[{sup_str}])")


@dataclass(frozen=True)
class TensorParams:
    """Order-d tensor map parameters: side n, order d, rank bound r."""

    field: PrimeField
    n: int
    d: int
    r: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need order d >= 2")
        if self.r < 1:
            raise ValueError("need rank bound r >= 1")
        if self.n < 1:
            raise ValueError("need side n >= 1")

    @property
    def in_arity(self) -> int:
        return self.d * self.r * self.n


def tensor_map(params: TensorParams) -> PolyMap:
    """Sum of r outer products of d vectors: d*r*n inputs to n^d outputs.

    Variable (c, i, a) -- axis c, term i, coordinate a -- sits at index
    c*r*n + i*n + a. Output (a_1, ..., a_d) is mixed-radix row-major.
    """
    F, n, d, r = params.field, params.n, params.d, params.r
    nvars = params.in_arity
    coords = []
    for digits in product(range(n), repeat=d):  # digits[c] = a_{c+1}, the last fastest
        terms = {}
        for i in range(r):  # term i's variables are its own, so its monomial is too
            e = [0] * nvars
            for c in range(d):
                e[c * r * n + i * n + digits[c]] = 1
            terms[tuple(e)] = 1
        coords.append(terms)
    pmap = _polymap(F, nvars, coords, f"tensor({n},{d},{r})")
    if any(q.degree() != d for q in pmap.coordinates):
        raise AssertionError(f"a tensor map coordinate is not of degree d = {d}")
    return pmap


def tensor_witness(params: TensorParams, vectors: Sequence[Sequence[Sequence[int]]]) -> tuple:
    """Input vector for tensor_map from r tuples of d vectors each.

    vectors[i][c] is the axis-c vector of the i-th rank-one term.
    """
    F, n, d, r = params.field, params.n, params.d, params.r
    if len(vectors) != r or any(len(v) != d for v in vectors):
        raise ValueError(f"need r={r} tuples of d={d} vectors")
    beta = [0] * params.in_arity
    for i, tup in enumerate(vectors):
        for c, vec in enumerate(tup):
            for a in range(n):
                beta[c * params.r * n + i * n + a] = vec[a] % F.p
    return tuple(beta)


def _universal_arities(p: int, n: int, s: int, L: int, w: int) -> tuple[int, int]:
    if min(s, L, w) < 1 or p <= lincircuit.edge_count(n, L, w):  # as universal_graph checks, before any edge
        raise ValueError(f"need s, L, w >= 1 and p > s' = {lincircuit.edge_count(n, L, w)}")
    return 2 * s, n * n


# The label grammar: each name's argument names (a last, bracketed one is a
# list of 1-indexed positions); the (m, N) of its map from p and the arguments
# alone, to check a label of any size against a document before any build
# (a tensor's N is n**min(d, 64): no document lists 2**64 coordinates); and
# its builder, which looks its functions up when it is called.
MAP_LABELS = {
    "rank": (("n", "r"), lambda p, n, r: (2 * n * r, n * n), lambda F, *a: rank_map(F, *a)),
    "rigidity": (("n", "r", "k"), lambda p, n, r, k: (2 * n * r + 2 * k, n * n),
                 lambda F, *a: rigidity_map(RigidityParams(F, *a))),
    "support": (("n", "r", "[i,j;...]"), lambda p, n, r, positions: (2 * n * r + len(positions), n * n),
                lambda F, *a: fixed_support_map(F, *a)),
    "tensor": (("n", "d", "r"), lambda p, n, d, r: (d * r * n, n ** min(d, 64)),
               lambda F, *a: tensor_map(TensorParams(F, *a))),
    "sv": (("N", "k"), lambda p, N, k: (2 * k, N), lambda F, *a: sv_map(SVParams(F, *a))),
    "universal": (("n", "s", "L", "w"), _universal_arities,
                  lambda F, *a: lincircuit.universal_map(lincircuit.universal_graph(F, *a))),
}
MAP_GRAMMAR = " | ".join(f"{name}({','.join(args)})" for name, (args, _, _) in MAP_LABELS.items())
_SPEC_RE = re.compile(rf"\s*({'|'.join(MAP_LABELS)})\s*\(([^[\]]*?)(?:,\s*\[([^[\]]*)\])?\s*\)\s*")


def map_spec(text: str) -> tuple[str, tuple] | None:
    """(name, arguments) of a label in MAP_GRAMMAR, or None for any other text;
    the positions of a bracketed list follow the integers, 0-indexed."""
    m = _SPEC_RE.fullmatch(text)
    if not m:
        return None
    try:
        args = tuple(int(a) for a in m[2].split(","))
        pairs = [pair.split(",") for pair in m[3].split(";")] if m[3] and m[3].strip() else []
        positions = tuple((int(i) - 1, int(j) - 1) for i, j in pairs)
    except ValueError:  # a word that is not an integer, or a pair that is not two
        return None
    listed = m[3] is not None
    # as many integers as the grammar has names, and a list where it has one
    if [arg.startswith("[") for arg in MAP_LABELS[m[1]][0]] != [False] * len(args) + [True] * listed:
        return None
    return m[1], args + ((positions,) if listed else ())


# The most labelled maps one process keeps built (_label_map): certify and
# verify bind every certificate to its label's map, and a solve builds one.
LABEL_MAP_CACHE_SIZE = 4


@functools.lru_cache(maxsize=LABEL_MAP_CACHE_SIZE)
def _label_map(p: int, name: str, args: tuple) -> PolyMap:
    """The map of a parsed label over F_p, built once while it is among the
    LABEL_MAP_CACHE_SIZE most recently used. lru_cache keeps only a build
    that returned: a builder that raises leaves nothing behind."""
    return MAP_LABELS[name][2](PrimeField(p), *args)


def bound_map(doc: dict) -> PolyMap | None:
    """The map a serialized map's label names, once doc is exactly its JSON;
    None for a label outside the grammar. Its arities must fit doc's m, N and
    coordinates before it is built or taken from this process's built maps
    (_label_map); then it is compared with doc at every call, and only
    canonical values compare equal. As 1 == 1.0 == True, the caller keeps
    floats and bools out of doc."""
    label = doc["label"]
    spec = map_spec(label)
    if spec is None:
        return None
    (name, args), field = spec, PrimeField(doc["p"])
    try:
        m, N = MAP_LABELS[name][1](field.p, *args)
        pmap = _label_map(field.p, name, args) if (m, N, N) == (doc["m"], doc["N"], len(doc["coords"])) else None
    except ValueError as exc:
        raise ValueError(f"label {label!r} names no {name} map: {exc}") from exc
    if pmap is None or pmap.to_json_dict() != doc:
        raise ValueError(f"embedded map is not the {label} map")
    return pmap


def parse_map_spec(field: PrimeField, text: str) -> PolyMap:
    """The map a label in MAP_GRAMMAR names, reading no files: built once per
    process while it is among the last few used (_label_map), so labels that
    parse alike, " rank( 2, 1 ) " and "rank(2,1)", give the same object.

    support's positions are 1-indexed; universal(n,s,L,w) is the universal
    circuit map on n x n matrices with size budget s, depth L and width w.
    Every builder writes a label that builds its map back.
    """
    spec = map_spec(text)
    if spec is None:
        raise ValueError(f"cannot parse map spec {text!r}; the grammar is {MAP_GRAMMAR}")
    return _label_map(field.p, *spec)


from . import lincircuit  # noqa: E402 -- last, as lincircuit imports this module
