"""Linear circuits, the universal layered graph, and its symbolic transfer map.

A linear circuit is a DAG with scalar edge labels; each node computes the
label-weighted sum of its children and the circuit computes a linear
transformation of its inputs. The universal graph is the complete layered
DAG whose edges carry SV-generator coordinates as labels, so that every
small-enough circuit embeds as a specialization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

from .field import PrimeField
from .generators import SVParams, sv_input, sv_map
from .poly import MultiPoly, PolyMap, lagrange_weights, packed_weighted_sum


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class LinearCircuit:
    """DAG with edges (src, dst, label in F_p); inputs are ids 0..n_inputs-1.

    size = number of edges. ``outputs`` designates the output vertices.
    """

    field: PrimeField
    n_inputs: int
    n_outputs: int
    edges: tuple
    outputs: tuple

    def __post_init__(self):
        if len(self.outputs) != self.n_outputs:
            raise CircuitError(f"{len(self.outputs)} designated outputs, expected {self.n_outputs}")
        edges = tuple((s, d, lbl % self.field.p) for (s, d, lbl) in self.edges)
        for s, d, _ in edges:
            if s < 0 or d < 0:
                raise CircuitError("negative vertex id")
            if d < self.n_inputs:
                raise CircuitError(f"edge into input vertex {d}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "outputs", tuple(self.outputs))

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> list[int]:
        seen = set(range(self.n_inputs)) | set(self.outputs)
        for s, d, _ in self.edges:
            seen.add(s)
            seen.add(d)
        return sorted(seen)


def topological_order(circuit: LinearCircuit) -> list[int]:
    """Kahn's algorithm; raises CircuitError on a cycle."""
    verts = circuit.vertices()
    indeg = {v: 0 for v in verts}
    succ: dict[int, list[int]] = {v: [] for v in verts}
    for s, d, _ in circuit.edges:
        indeg[d] += 1
        succ[s].append(d)
    ready = sorted(v for v in verts if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
        ready.sort()
    if len(order) != len(verts):
        raise CircuitError("cycle detected in circuit")
    return order


def circuit_matrix(circuit: LinearCircuit) -> list[list[int]]:
    """n_outputs x n_inputs matrix; row j is the linear form at output j."""
    p = circuit.field.p
    n_in = circuit.n_inputs
    coeff: dict[int, list[int]] = {}
    for i in range(n_in):
        coeff[i] = [1 if t == i else 0 for t in range(n_in)]
    order = topological_order(circuit)
    incoming: dict[int, list] = {}
    for s, d, lbl in circuit.edges:
        incoming.setdefault(d, []).append((s, lbl))
    for v in order:
        if v < n_in:
            continue
        acc = [0] * n_in
        for s, lbl in incoming.get(v, []):
            src = coeff[s]
            for t in range(n_in):
                acc[t] = (acc[t] + lbl * src[t]) % p
        coeff[v] = acc
    return [list(coeff.get(o, [0] * n_in)) for o in circuit.outputs]


@dataclass(frozen=True)
class UniversalGraph:
    """Complete layered DAG: input layer, L internal layers of width w, and an
    output layer; every vertex sees all vertices of all earlier layers.

    Edge order is (target layer, target index, source layer, source index)
    lexicographic; edge i carries coordinate i of SV_{s', s_budget}.
    """

    field: PrimeField
    n: int
    s_budget: int
    L: int
    w: int
    edges: tuple  # ((src_layer, src_idx), (dst_layer, dst_idx)) in label order
    sv_params: SVParams

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def layer_size(self, layer: int) -> int:
        if layer == 0 or layer == self.L + 1:
            return self.n
        return self.w

    def edge_index(self) -> dict:
        return {e: i for i, e in enumerate(self.edges)}


def edge_count(n: int, L: int, w: int) -> int:
    """s' of the universal graph: internal layer l sees n + (l - 1) w vertices, the output layer n + L w."""
    return L * w * n + w * w * L * (L - 1) // 2 + n * (n + L * w)


def universal_graph(field: PrimeField, n: int, s_budget: int, L: int, w: int) -> UniversalGraph:
    """Build the universal graph of L internal layers of width w.

    Requires p > s' (the actual edge count) so that the SV labeling exists;
    that is checked before the edges are listed.
    """
    if s_budget < 1:
        raise ValueError("s_budget must be >= 1")
    if L < 1 or w < 1:
        raise ValueError("need L >= 1 and w >= 1")
    s_prime = edge_count(n, L, w)
    if field.p <= s_prime:
        raise ValueError(f"field too small for edge labeling: p={field.p}, need p > s'={s_prime}")
    if w * L < s_budget:
        warnings.warn(f"universal graph with w*L = {w * L} < s_budget = {s_budget} cannot hold every circuit")
    sizes = [n] + [w] * L + [n]
    edges = [((sl, si), (tl, ti)) for tl in range(1, L + 2) for ti in range(sizes[tl])
             for sl in range(tl) for si in range(sizes[sl])]
    sv_params = SVParams(field, s_prime, s_budget)
    return UniversalGraph(field, n, s_budget, L, w, tuple(edges), sv_params)


def universal_map(graph: UniversalGraph) -> PolyMap:
    """Symbolic transfer matrix U(x, y) of the labeled universal graph.

    Computed by layered dynamic programming (each vertex carries a vector of
    n coefficient polynomials), never by path enumeration. Coordinate order
    is row-major over (input i, output j). Each packed_weighted_sum returns
    an array-born polynomial, which the next layer's sums, the degree-bound
    check and PolyMap.evaluate_many read without building its terms dict.
    """
    F, n = graph.field, graph.n
    labels = sv_map(graph.sv_params).coordinates
    nvars = 2 * graph.s_budget
    zero = MultiPoly.zero(F, nvars)
    one = MultiPoly.constant(F, nvars, 1)
    coeff: dict[tuple, list[MultiPoly]] = {}
    for i in range(n):
        coeff[(0, i)] = [one if t == i else zero for t in range(n)]
    incoming: dict[tuple, list] = {}
    for idx, (src, dst) in enumerate(graph.edges):
        incoming.setdefault(dst, []).append((src, labels[idx]))
    for layer in range(1, graph.L + 2):
        for vi in range(graph.layer_size(layer)):
            pairs = incoming.get((layer, vi), [])
            coeff[(layer, vi)] = [
                packed_weighted_sum([(lbl, coeff[src][t]) for src, lbl in pairs], F, nvars)
                for t in range(n)
            ]
    degree_bound = graph.edge_count * (graph.L + 1)
    coords = []
    for i in range(n):
        for j in range(n):
            entry = coeff[(graph.L + 1, j)][i]
            if entry.degree() > degree_bound:
                raise AssertionError(f"U[{i}][{j}] has degree {entry.degree()} > {degree_bound}")
            coords.append(entry)
    return PolyMap(F, nvars, tuple(coords), label=f"universal({n},{graph.s_budget},{graph.L},{graph.w})")


def universal_eval(graph: UniversalGraph, x_vals: Sequence[int], y_vals: Sequence[int]) -> list[list[int]]:
    """Evaluate U at a point numerically: n x n matrix, entry [i][j]."""
    F, n, k = graph.field, graph.n, graph.s_budget
    if len(x_vals) != k or len(y_vals) != k:
        raise ValueError(f"need k={k} x-values and y-values")
    p, s = F.p, graph.edge_count
    weights = lagrange_weights(F, tuple(range(s)))
    # u_i(t) = w_i * prod_{j != i} (t - j), from prefix and suffix
    # products with no division, so that t = i still gives delta_ij
    edge_vals = [0] * s
    for x, t in zip(x_vals, y_vals):
        x, t = x % p, t % p
        suffix = [1] * (s + 1)
        for j in range(s - 1, -1, -1):
            suffix[j] = suffix[j + 1] * (t - j) % p
        prefix = x
        for i in range(s):
            edge_vals[i] = (edge_vals[i] + prefix * suffix[i + 1] % p * weights[i]) % p
            prefix = prefix * (t - i) % p
    incoming: dict[tuple, list] = {}
    for idx, (src, dst) in enumerate(graph.edges):
        incoming.setdefault(dst, []).append((src, edge_vals[idx]))
    coeff: dict[tuple, list[int]] = {}
    for i in range(n):
        coeff[(0, i)] = [1 if t == i else 0 for t in range(n)]
    for layer in range(1, graph.L + 2):
        for vi in range(graph.layer_size(layer)):
            acc = [0] * n
            for src, lbl in incoming.get((layer, vi), []):
                src_c = coeff[src]
                for t in range(n):
                    acc[t] = (acc[t] + lbl * src_c[t]) % p
            coeff[(layer, vi)] = acc
    return [[coeff[(graph.L + 1, j)][i] for j in range(n)] for i in range(n)]


def embed_circuit(circuit: LinearCircuit, graph: UniversalGraph) -> tuple:
    """Witness (x-values, y-values) with U(x, y) = circuit_matrix(circuit).

    Layering rule: each internal vertex goes to the layer equal to its
    longest-path distance from the inputs, keeping vertices in id order
    within a layer; designated outputs go to the output layer.
    """
    if circuit.field != graph.field:
        raise CircuitError("circuit and graph over different fields")
    if circuit.n_inputs != graph.n or circuit.n_outputs != graph.n:
        raise CircuitError(f"circuit arity {circuit.n_inputs}->{circuit.n_outputs} does not match graph n={graph.n}")
    if circuit.size > graph.s_budget:
        raise CircuitError(f"circuit does not fit: {circuit.size} edges > budget {graph.s_budget}")
    out_set = set(circuit.outputs)
    if len(out_set) != len(circuit.outputs):
        raise CircuitError("repeated designated output vertex")
    for s, d, _ in circuit.edges:
        if s in out_set:
            raise CircuitError(f"output vertex {s} has an outgoing edge; cannot embed at top layer")
    for o in circuit.outputs:
        if o < circuit.n_inputs:
            raise CircuitError("an input cannot be a designated output; insert a unit edge")

    order = topological_order(circuit)
    depth = {v: 0 for v in range(circuit.n_inputs)}
    preds: dict[int, list[int]] = {}
    for s, d, _ in circuit.edges:
        preds.setdefault(d, []).append(s)
    for v in order:
        if v < circuit.n_inputs:
            continue
        depth[v] = 1 + max((depth[s] for s in preds.get(v, [])), default=0)

    placement: dict[int, tuple] = {}
    for i in range(circuit.n_inputs):
        placement[i] = (0, i)
    for j, o in enumerate(circuit.outputs):
        placement[o] = (graph.L + 1, j)
    internal = [v for v in order if v >= circuit.n_inputs and v not in out_set]
    used_per_layer: dict[int, int] = {}
    for v in sorted(internal):
        layer = depth[v]
        if layer > graph.L:
            raise CircuitError(f"circuit does not fit: vertex {v} at depth {layer} > L={graph.L}")
        slot = used_per_layer.get(layer, 0)
        if slot >= graph.w:
            raise CircuitError(f"circuit does not fit: layer {layer} needs more than w={graph.w} vertices")
        placement[v] = (layer, slot)
        used_per_layer[layer] = slot + 1

    index = graph.edge_index()
    edge_values: dict[int, int] = {}  # sv_input reduces them mod p
    for s, d, lbl in circuit.edges:
        # every vertex sees all earlier layers, and s is placed below d
        idx = index[placement[s], placement[d]]
        edge_values[idx] = edge_values.get(idx, 0) + lbl
    return sv_input(graph.sv_params, edge_values)


def find_nonzero_point(q: MultiPoly, degree_bound: int) -> tuple:
    """Fix variables one at a time, scanning {0, ..., degree_bound} and keeping
    the partially substituted polynomial nonzero; returns a certified nonzero
    point. Requires q != 0, deg(q) <= degree_bound, and p > degree_bound."""
    if q.is_zero():
        raise ValueError("zero polynomial has no nonzero point")
    if q.degree() > degree_bound:
        raise ValueError(f"degree bound {degree_bound} below deg(q) = {q.degree()}")
    if q.field.p <= degree_bound:
        raise ValueError(f"field too small: p={q.field.p}, need p > {degree_bound}")
    point = []
    current = q
    for i in range(q.nvars):
        for a in range(degree_bound + 1):
            candidate = current.substitute(i, a)
            if not candidate.is_zero():
                point.append(a)
                current = candidate
                break
        else:  # unreachable for nonzero polynomials of degree <= bound
            raise AssertionError("scan failed to keep the polynomial nonzero")
    if q.evaluate(point) == 0:
        raise AssertionError("scan ended at a zero of the polynomial")
    return tuple(point)
