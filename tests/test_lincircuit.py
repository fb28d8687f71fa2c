import dataclasses
import hashlib
import json
import random
import warnings

import pytest

import rigideq.lincircuit as lc
import rigideq.poly as poly
from rigideq import (
    LinearCircuit,
    MultiPoly,
    PolyMap,
    PrimeField,
    circuit_matrix,
    embed_circuit,
    find_nonzero_point,
    sv_map,
    universal_eval,
    universal_graph,
    universal_map,
)
from rigideq.lincircuit import CircuitError, edge_count, topological_order

from conftest import random_poly, term_dicts_built


# ---------------------------------------------------------------- circuits


def test_circuit_matrix_single_edge(f101):
    c = LinearCircuit(f101, 1, 1, ((0, 1, 7),), (1,))
    assert circuit_matrix(c) == [[7]]


def test_circuit_matrix_parallel_paths(f101):
    # two parallel edges X1 -> v with labels a, b summing at v
    c = LinearCircuit(f101, 1, 1, ((0, 1, 30), (0, 1, 80)), (1,))
    assert circuit_matrix(c) == [[(30 + 80) % 101]]


def test_circuit_matrix_identity_wiring(f101):
    n = 3
    edges = tuple((i, n + i, 1) for i in range(n))
    c = LinearCircuit(f101, n, n, edges, tuple(range(n, 2 * n)))
    assert circuit_matrix(c) == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_circuit_matrix_two_layers(f101):
    # v4 = 2*x0 + 3*x1; out2 = 5*v4; out3 = x0 + 7*v4
    edges = ((0, 4, 2), (1, 4, 3), (4, 2, 5), (0, 3, 1), (4, 3, 7))
    c = LinearCircuit(f101, 2, 2, edges, (2, 3))
    assert circuit_matrix(c) == [[10, 15], [(1 + 14) % 101, 21]]


def test_cycle_detected(f101):
    c = LinearCircuit(f101, 1, 1, ((1, 2, 1), (2, 1, 1)), (2,))
    with pytest.raises(CircuitError, match="cycle"):
        topological_order(c)


def test_circuit_validation(f101):
    with pytest.raises(CircuitError, match="input"):
        LinearCircuit(f101, 2, 1, ((2, 0, 1),), (2,))
    with pytest.raises(CircuitError):
        LinearCircuit(f101, 1, 2, ((0, 1, 1),), (1,))


# ---------------------------------------------------------------- universal graph


def test_universal_graph_edge_count(f101):
    g = universal_graph(f101, 2, 2, L=2, w=2)
    # layers 2,2,2,2: 2*2 + 2*4 + 2*6 = 24 edges
    assert g.edge_count == 24
    assert g.sv_params.N == 24 and g.sv_params.k == 2
    # edge order: (target layer, target index, source layer, source index)
    assert g.edges[0] == ((0, 0), (1, 0))
    assert g.edges[1] == ((0, 1), (1, 0))
    assert g.edges[2] == ((0, 0), (1, 1))


def test_edge_count_closed_form(f101):
    for n, L, w in ((2, 1, 1), (2, 2, 2), (3, 2, 1), (1, 3, 2), (2, 1, 4)):
        assert edge_count(n, L, w) == universal_graph(f101, n, 1, L=L, w=w).edge_count


def test_universal_graph_refuses_before_listing_edges():
    # a graph of about 10**12 edges is refused by its closed-form count
    with pytest.raises(ValueError, match="field too small"):
        universal_graph(PrimeField(101), 2, 1, L=10**6, w=10**6)


def test_universal_graph_field_too_small():
    with pytest.raises(ValueError, match="field too small"):
        universal_graph(PrimeField(23), 2, 2, L=2, w=2)  # needs p > 24


def test_universal_graph_warns_when_too_small_for_budget(f101):
    with pytest.warns(UserWarning, match="cannot hold"):
        universal_graph(f101, 2, 5, L=2, w=2)  # w*L = 4 < s_budget = 5


def universal_map_bruteforce(graph):
    """Path-enumeration reference for universal_map; tiny graphs only."""
    F, n = graph.field, graph.n
    labels = sv_map(graph.sv_params).coordinates
    nvars = 2 * graph.s_budget
    index = graph.edge_index()
    out_edges: dict[tuple, list] = {}
    for (src, dst) in graph.edges:
        out_edges.setdefault(src, []).append(dst)
    coords = []
    for i in range(n):
        for j in range(n):
            total = MultiPoly.zero(F, nvars)
            stack = [((0, i), MultiPoly.constant(F, nvars, 1))]
            while stack:
                v, prod = stack.pop()
                if v == (graph.L + 1, j):
                    total = total + prod
                    continue
                for dst in out_edges.get(v, []):
                    stack.append((dst, prod * labels[index[(v, dst)]]))
            coords.append(total)
    return PolyMap(F, nvars, tuple(coords), label=f"universal-bruteforce({n},{graph.s_budget})")


@pytest.mark.filterwarnings("ignore:universal graph")
def test_universal_map_matches_bruteforce(f101):
    for n, s, L, w in [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2)]:
        g = universal_graph(f101, n, s, L=L, w=w)
        dp = universal_map(g)
        bf = universal_map_bruteforce(g)
        assert dp.coordinates == bf.coordinates
        assert dp.label == f"universal({n},{s},{L},{w})"


def test_universal_map_degree_check_raises(f101, monkeypatch):
    # a product that overshoots the degree bound is refused by an explicit
    # check, which python -O keeps
    real = lc.packed_weighted_sum

    def overshoot(pairs, field, nvars):
        out = real(pairs, field, nvars)
        return out * MultiPoly(field, nvars, {(200,) + (0,) * (nvars - 1): 1})

    monkeypatch.setattr(lc, "packed_weighted_sum", overshoot)
    with pytest.raises(AssertionError, match="degree"):
        universal_map(universal_graph(f101, 1, 1, L=1, w=1))


# sha256 of json.dumps(universal_map(g).to_json_dict(), sort_keys=True): at
# p = 101 as computed before products were born from arrays (the term dicts
# built from the arrays hold exactly the terms that were built directly), and
# at p = 2**31 - 1, whose sums of products take the matmul's 16-bit limbs, as
# computed before sums were made from one coefficient matmul
@pytest.mark.parametrize("p, n, s, L, w, digest", [
    (101, 2, 2, 2, 2, "d9b55b887537cc4872e1e789dd7b462f47f6e9ae5514a2eb5fc564a2d56d27ed"),
    (101, 2, 3, 2, 2, "0ba58b21826fa1cd14e00b957257cc88f660cb30c19e686d346619017ce5adb9"),
    (2**31 - 1, 2, 2, 2, 2, "7290df8649470160dfd576ab78b43394c52ac923a10f79f0bf2c70cf9ebc6036"),
], ids=["2,2,2,2", "2,3,2,2", "2,2,2,2-p31"])
def test_universal_map_bytes(p, n, s, L, w, digest):
    doc = universal_map(universal_graph(PrimeField(p), n, s, L=L, w=w)).to_json_dict()
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def test_universal_map_sums_through_one_matmul(f101, monkeypatch):
    """The edge labels of the universal graph share one support, so each sum
    of label products from the threshold on is one coefficient matmul, and
    fewer words reach the sort than there are term pairs."""
    matmuls, words, pairs = [], [], []
    real_mulmod, real_collect, real_sum = poly._mulmod, poly._collect, lc.packed_weighted_sum

    def mulmod(A, B, p, acc=None):
        matmuls.append(A.shape[1])
        return real_mulmod(A, B, p, acc)

    def collect(w, layout):
        words.append(len(w))
        return real_collect(w, layout)

    def weighted_sum(terms, field, nvars):
        terms = list(terms)
        pairs.append(sum(len(a) * len(b) for a, b in terms))
        return real_sum(terms, field, nvars)

    monkeypatch.setattr(poly, "_mulmod", mulmod)
    monkeypatch.setattr(poly, "_collect", collect)
    monkeypatch.setattr(lc, "packed_weighted_sum", weighted_sum)
    universal_map(universal_graph(f101, 2, 3, L=2, w=2))
    # layer 1 sums two products below the threshold, in dicts; layers 2 and
    # 3 sum 3 and 5 nonzero products, each sum in one matmul
    big = [t for t in pairs if t >= poly._NUMPY_MUL_THRESHOLD]
    assert sorted(matmuls) == [3] * 4 + [5] * 4 and len(words) == len(big) == 8
    assert sum(words) < sum(big) // 2, (words, big)


def test_universal_map_builds_no_term_dicts(f101, monkeypatch):
    # the products stay arrays from layer to layer, and the degree check,
    # len and both evaluators read them; serialization and == build dicts
    built = term_dicts_built(monkeypatch)
    g = universal_graph(f101, 2, 2, L=2, w=2)
    um = universal_map(g)
    assert um.degree() == g.edge_count * (g.L + 1)
    assert sum(map(len, um.coordinates)) == 11722
    point = [3, 5, 7, 11]
    assert um.evaluate(point) == [v for row in universal_eval(g, point[:2], point[2:]) for v in row]
    assert um.evaluate_many([point, [0] * 4]).tolist()[1] == [0] * 4
    assert built == []
    um.coordinates[0].to_json_dict()
    assert built == [um.coordinates[0]]
    assert um.coordinates[1] == um.coordinates[1] and built[1:] == [um.coordinates[1]]


def test_universal_map_single_path(f101):
    # n=1, L=1, w=1: paths X1 -> out (direct) and X1 -> v -> out
    g = universal_graph(f101, 1, 1, L=1, w=1)
    assert g.edge_count == 3
    um = universal_map(g)
    assert um.out_arity == 1


def test_universal_map_zero_at_x_zero(f101):
    rng = random.Random("lc:xzero")
    g = universal_graph(f101, 2, 2, L=2, w=2)
    um = universal_map(g)
    for _ in range(10):
        point = [0, 0] + [rng.randrange(f101.p) for _ in range(2)]
        assert um.evaluate(point) == [0, 0, 0, 0]


def test_universal_eval_matches_symbolic(f101):
    rng = random.Random("lc:ueval")
    g = universal_graph(f101, 2, 2, L=2, w=2)
    um = universal_map(g)
    nodes = range(g.edge_count)
    for trial in range(40):
        xs = [rng.randrange(f101.p) for _ in range(2)]
        # from trial 20 on, y's sit at the Lagrange nodes, where u_i(y) = delta_ij
        ys = [rng.choice(nodes) if trial >= 20 else rng.randrange(f101.p) for _ in range(2)]
        mat = universal_eval(g, xs, ys)
        flat = um.evaluate(xs + ys)
        # coordinate order is row-major over (input i, output j)
        for i in range(2):
            for j in range(2):
                assert mat[i][j] == flat[i * 2 + j]


def test_embed_identity_circuit(f101):
    n = 2
    g = universal_graph(f101, n, n, L=2, w=2)
    edges = tuple((i, n + i, 1) for i in range(n))
    c = LinearCircuit(f101, n, n, edges, tuple(range(n, 2 * n)))
    xs, ys = embed_circuit(c, g)
    mat = universal_eval(g, xs, ys)
    # universal_eval entry [i][j] = coefficient of input i at output j
    want = circuit_matrix(c)
    assert [[mat[i][j] for i in range(n)] for j in range(n)] == want


def _random_circuit(rng, field):
    """At most 4 edges, n=2, depth <= 2: inputs 0,1; internals 4 (depth 1),
    5 (depth <= 2); outputs 2,3."""
    internal_edges = [(0, 4), (1, 4), (0, 5), (1, 5), (4, 5)]
    out_edges = [(0, 2), (1, 2), (4, 2), (5, 2), (0, 3), (1, 3), (4, 3), (5, 3)]
    edges = [(*e, rng.randrange(1, field.p)) for e in rng.sample(internal_edges, rng.randrange(0, 3))]
    edges += [(*e, rng.randrange(1, field.p)) for e in rng.sample(out_edges, rng.randrange(0, 3))]
    return LinearCircuit(field, 2, 2, tuple(edges[:4]), (2, 3))


def test_embed_random_circuits(f101):
    rng = random.Random("lc:embed")
    g = universal_graph(f101, 2, 4, L=2, w=2)
    for _ in range(20):
        c = _random_circuit(rng, f101)
        xs, ys = embed_circuit(c, g)
        mat = universal_eval(g, xs, ys)
        want = circuit_matrix(c)
        assert [[mat[i][j] for i in range(2)] for j in range(2)] == want


class _CountingEdges(tuple):
    """An edge tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_embeds_share_one_edge_index(f101):
    """The graph's edge index is built once, with the graph; 200 embeds into
    the benchmark's universal_graph(2, 4, L=2, w=3) then never walk the edges,
    and give the (xs, ys) they gave when each embed rebuilt the index (sha256
    taken before the change)."""
    g = universal_graph(f101, 2, 4, L=2, w=3)
    index = g.edge_index()
    assert dict(index) == {e: i for i, e in enumerate(g.edges)}
    with pytest.raises(TypeError):
        index[g.edges[0]] = 1
    counted = dataclasses.replace(g, edges=_CountingEdges(g.edges))
    assert _CountingEdges.iterations == 1
    rng = random.Random("lc:embed-index")
    out = [embed_circuit(_random_circuit(rng, f101), counted) for _ in range(200)]
    assert _CountingEdges.iterations == 1
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "d4612d5ac95fdc3f531d1db506a789c51bb64d2c5e1b7bfdbd9f311261d03f40"


@pytest.mark.filterwarnings("ignore:universal graph")
def test_embed_rejects_misfits(f101):
    g = universal_graph(f101, 1, 2, L=1, w=1)
    # depth-2 chain cannot fit in L=1
    deep = LinearCircuit(f101, 1, 1, ((0, 2, 1), (2, 3, 1), (3, 1, 1)), (1,))
    with pytest.raises(CircuitError, match="does not fit"):
        embed_circuit(deep, g)
    big = LinearCircuit(f101, 1, 1, ((0, 1, 1), (0, 1, 2), (0, 1, 3)), (1,))
    with pytest.raises(CircuitError, match="does not fit"):
        embed_circuit(big, g)
    out_of_inputs = LinearCircuit(f101, 1, 1, (), (0,))
    with pytest.raises(CircuitError, match="input"):
        embed_circuit(out_of_inputs, g)
    unit = ((0, 1, 1),)
    for circuit, graph, match in (
        (LinearCircuit(PrimeField(103), 1, 1, unit, (1,)), g, "different fields"),
        (LinearCircuit(f101, 2, 2, ((0, 2, 1), (1, 3, 1)), (2, 3)), g, "arity"),
        (LinearCircuit(f101, 2, 2, ((0, 2, 1), (1, 2, 1)), (2, 2)), universal_graph(f101, 2, 2, L=1, w=2),
         "repeated designated output"),
        (LinearCircuit(f101, 1, 1, ((0, 1, 1), (1, 2, 1)), (1,)), g, "outgoing edge"),
        # three edges fit a budget of 3, but the chain 0 -> 2 -> 3 -> 1 needs depth 2
        (LinearCircuit(f101, 1, 1, ((0, 2, 1), (2, 3, 1), (3, 1, 1)), (1,)), universal_graph(f101, 1, 3, L=1, w=1),
         "depth 2 > L=1"),
        (LinearCircuit(f101, 1, 1, ((0, 2, 1), (0, 3, 1), (2, 1, 1)), (1,)), universal_graph(f101, 1, 3, L=1, w=1),
         "more than w=1"),
    ):
        with pytest.raises(CircuitError, match=match):
            embed_circuit(circuit, graph)


# ---------------------------------------------------------------- nonzero point


def test_find_nonzero_point_examples():
    F7 = PrimeField(7)
    q = MultiPoly.variable(F7, 2, 0) * MultiPoly.variable(F7, 2, 1) - MultiPoly.constant(F7, 2, 1)
    assert find_nonzero_point(q, 2) == (0, 0)  # q(0,0) = -1 != 0
    x1 = MultiPoly.variable(F7, 1, 0)
    assert find_nonzero_point(x1, 2) == (1,)


def test_find_nonzero_point_errors(f101):
    with pytest.raises(ValueError, match="zero polynomial"):
        find_nonzero_point(MultiPoly.zero(f101, 2), 3)
    q = MultiPoly(f101, 2, {(4, 0): 1})
    with pytest.raises(ValueError, match="degree bound"):
        find_nonzero_point(q, 3)
    small = MultiPoly.variable(PrimeField(3), 1, 0)
    with pytest.raises(ValueError, match="field too small"):
        find_nonzero_point(small, 5)


def test_find_nonzero_point_property(f101):
    rng = random.Random("lc:nonzero")
    for _ in range(50):
        q = random_poly(rng, f101, rng.randrange(1, 6), 10)
        pt = find_nonzero_point(q, 10)
        assert all(0 <= a <= 10 for a in pt)
        assert q.evaluate(pt) != 0
