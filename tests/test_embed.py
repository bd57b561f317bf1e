"""Lattice embeddings: distortion, the Lipschitz criterion, refutation
witnesses, and mixing transfer."""

import math
import re
import random

import numpy as np
import pytest

from treebound import (
    GraphSpec,
    LatticeMap,
    MixingEnvelope,
    NodeId,
    ValidationError,
    breadth_first_row_layout,
    chebyshev,
    distortion_constant,
    lipschitz_check,
    mixing_transfer,
    packed_layout,
    parse_lattice_map,
    refutation_witness,
    tree_distance,
)


def _reference_witness(A, m, C, k_max):
    """The pigeonhole scan as a double loop over NodeId pairs."""
    for k in range(1, k_max + 1):
        size = A**k
        if size <= (2 * math.ceil(C) * k + 1) ** m.dim:
            continue
        for kv in range(1, size + 1):
            v = NodeId(k, kv)
            for kw in range(kv + 1, size + 1):
                w = NodeId(k, kw)
                if chebyshev(m.entries[v], m.entries[w]) > C * tree_distance(v, w, A):
                    return (k, v, w)
    return None


def _reference_distortion(g, m):
    """Max image distance over every tree edge within depth and every extra edge."""
    edges = [
        (NodeId(j, k), NodeId(j + 1, g.A * (k - 1) + t))
        for j in range(m.depth) for k in range(1, g.A**j + 1) for t in range(1, g.A + 1)
    ]
    worst = 0.0
    for a, b in edges + list(g.extra_edges):
        if a not in m.entries or b not in m.entries:
            return math.inf
        worst = max(worst, float(chebyshev(m.entries[a], m.entries[b])))
    return worst


def _center_out(m, A):
    """The same points, each generation's nodes placed in a centre-out walk
    over their block, so that the first witness is no longer at v = (k, 1)."""
    points = m.points.copy()
    for j in range(m.depth + 1):
        first, n = (A**j - 1) // (A - 1), A**j
        walk = np.argsort(np.abs(np.arange(n) - (n - 1) / 2), kind="stable")
        points[first : first + n] = m.points[first + walk]
    return LatticeMap(m.dim, m.js, m.ks, points)


def test_distortion_consecutive_path():
    # depth-1 rate-2 tree with the root between its children: both edges
    # land on adjacent integers
    m = LatticeMap.from_entries(1, {NodeId(0, 1): (1,), NodeId(1, 1): (0,), NodeId(1, 2): (2,)})
    assert distortion_constant(GraphSpec(2), m) == 1.0


def test_distortion_row_layout_depth_two():
    m = breadth_first_row_layout(2, 2, 2)
    # direct evaluation over the six edges: the (1,2)-(2,4) edge is widest
    assert distortion_constant(GraphSpec(2), m) == 2.0


def test_distortion_unmapped_endpoint_is_infinite():
    entries = {NodeId(0, 1): (0, 0), NodeId(1, 1): (1, 0), NodeId(1, 2): (0, 1),
               NodeId(2, 1): (2, 0)}
    m = LatticeMap.from_entries(2, entries)  # depth 2 but generation 2 is partial
    assert distortion_constant(GraphSpec(2), m) == math.inf


def test_distortion_includes_extra_edges():
    m = breadth_first_row_layout(2, 3, 2)
    g = GraphSpec(2, [(NodeId(3, 1), NodeId(3, 8))])
    assert distortion_constant(g, m) == 7.0  # columns 1 and 8, same row


def test_lattice_map_validation():
    with pytest.raises(ValidationError):
        LatticeMap.from_entries(1, {NodeId(0, 1): (0,), NodeId(1, 1): (0,)})
    with pytest.raises(ValidationError):
        LatticeMap.from_entries(2, {NodeId(0, 1): (0,)})


def test_lipschitz_with_own_distortion_holds():
    rnd = random.Random(0)
    g = GraphSpec(2)
    for dim in (1, 2):
        m = breadth_first_row_layout(2, 8, dim)
        C = distortion_constant(g, m)
        nodes = [NodeId(j, k) for j in range(9) for k in range(1, 2**j + 1)]
        pairs = [(rnd.choice(nodes), rnd.choice(nodes)) for _ in range(1000)]
        assert lipschitz_check(g, m, C, pairs) is None


def test_lipschitz_zero_constant_finds_counterexample():
    g = GraphSpec(2)
    m = breadth_first_row_layout(2, 2, 2)
    pairs = [(NodeId(0, 1), NodeId(1, 1)), (NodeId(1, 1), NodeId(2, 2))]
    assert lipschitz_check(g, m, 0.0, pairs) == (NodeId(0, 1), NodeId(1, 1))


def test_lipschitz_scan_order_is_lexicographic():
    g = GraphSpec(2)
    m = breadth_first_row_layout(2, 3, 2)
    pairs = [(NodeId(1, 2), NodeId(2, 4)), (NodeId(0, 1), NodeId(1, 2))]
    # both violate at C=0.4; the lexicographically first pair wins
    assert lipschitz_check(g, m, 0.4, pairs) == (NodeId(0, 1), NodeId(1, 2))


def test_refutation_unit_constant_dim_one():
    # 8 distinct integers at generation 3 force an image gap of at least 7,
    # beyond any within-generation tree distance (at most 6)
    for layout in (breadth_first_row_layout(2, 4, 1), packed_layout(2, 4, 1)):
        witness = refutation_witness(2, layout, 1.0, 4)
        assert witness is not None
        k, v, w = witness
        assert k == 3
        assert v.j == w.j == 3


def test_refutation_kmax_zero():
    m = breadth_first_row_layout(2, 2, 1)
    assert refutation_witness(2, m, 1.0, 0) is None


def test_refutation_row_layout_with_own_distortion_finds_nothing():
    # With C equal to the map's own per-edge distortion, the edge bound
    # composes along tree paths, so no pair can violate C-Lipschitzness:
    # the search is guaranteed empty no matter how deep it looks.
    g = GraphSpec(2)
    for dim in (1, 2):
        m = breadth_first_row_layout(2, 8, dim)
        C = distortion_constant(g, m)
        assert refutation_witness(2, m, C, 8) is None


def test_refutation_packed_layouts_once_pigeonhole_bites():
    # the filter A**k > (2*ceil(C)*k + 1)**dim first passes at k = 3, 9, 15
    # for dims 1, 2, 3 at C = 1; packed layouts then must contain a witness
    expectations = {1: (4, 3), 2: (10, 9), 3: (15, 15)}
    for dim, (depth, first_k) in expectations.items():
        m = packed_layout(2, depth, dim)
        witness = refutation_witness(2, m, 1.0, depth)
        assert witness is not None
        assert witness[0] == first_k


def test_refutation_validation():
    m = breadth_first_row_layout(2, 3, 1)
    with pytest.raises(ValidationError):
        refutation_witness(2, m, 0.0, 3)
    shallow = breadth_first_row_layout(2, 2, 1)
    with pytest.raises(ValidationError):
        # generation 3 passes the pigeonhole filter but is not covered
        refutation_witness(2, shallow, 1.0, 3)


def test_mixing_transfer_identity_scale():
    md = MixingEnvelope.m_dependent(2)
    out = mixing_transfer(md, 1.0)
    for n in range(1, 10):
        assert out(n) == md(n)
    assert out.provenance == "assumed"  # exact downgrades through a transfer


def test_mixing_transfer_zero_envelope():
    out = mixing_transfer(MixingEnvelope.zero(), 3.0)
    assert out(2) == 1.0  # no claim below the threshold
    assert out(3) == 0.0
    assert out(100) == 0.0


def test_mixing_transfer_table_lookup():
    tab = MixingEnvelope.table([0.1, 0.01])
    out = mixing_transfer(tab, 2.0)
    assert out(4) == 0.01
    assert out(2) == 0.1
    assert out(1) == 1.0


def test_mixing_transfer_monotone_and_validated():
    se = MixingEnvelope.super_exponential(lambda n: 0.5 * n)
    out = mixing_transfer(se, 2.5)
    values = [out(n) for n in range(1, 40)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValidationError):
        mixing_transfer(se, 0.5)


def test_chebyshev():
    assert chebyshev((0, 0), (3, -2)) == 3
    assert chebyshev((5,), (5,)) == 0


def test_parse_lattice_map():
    text = """
    # a tiny map
    0 1 0 0
    1 1 1 0
    1 2 0 1
    """
    m = parse_lattice_map(text)
    assert m.dim == 2 and m.depth == 1
    assert m.entries[NodeId(1, 2)] == (0, 1)
    with pytest.raises(ValidationError):
        parse_lattice_map("0 1 0\n1 1 1 0\n")  # mixed dimensions
    with pytest.raises(ValidationError):
        parse_lattice_map("")


@pytest.mark.parametrize("layout,dim", [
    ("row", 1), ("row", 2), ("packed", 1), ("packed", 2), ("packed", 3),
])
def test_refutation_matches_pair_loop(layout, dim):
    make = breadth_first_row_layout if layout == "row" else packed_layout
    for depth in (4, 9, 15):
        m = make(2, depth, dim)
        for C in (1, 1.5, 2, 4):
            assert refutation_witness(2, m, C, depth) == _reference_witness(2, m, C, depth)


def test_refutation_matches_pair_loop_on_reordered_maps():
    witnesses = set()
    for A, dim, depth in ((2, 1, 9), (2, 2, 12), (3, 1, 6), (3, 2, 7)):
        for make in (breadth_first_row_layout, packed_layout):
            m = _center_out(make(A, depth, dim), A)
            for C in (1, 1.5, 2, 4):
                witness = refutation_witness(A, m, C, depth)
                assert witness == _reference_witness(A, m, C, depth)
                witnesses.add(witness)
    assert (6, NodeId(6, 9), NodeId(6, 10)) in witnesses
    assert (2, NodeId(2, 2), NodeId(2, 9)) in witnesses


def test_distortion_matches_edge_loop():
    extra = [(NodeId(3, 1), NodeId(2, 4)), (NodeId(1, 1), NodeId(3, 8)), (NodeId(0, 1), NodeId(2, 3))]
    for g in (GraphSpec(2), GraphSpec(2, extra)):
        for m in (breadth_first_row_layout(2, 5, 1), packed_layout(2, 5, 3),
                  _center_out(packed_layout(2, 6, 2), 2)):
            assert distortion_constant(g, m) == _reference_distortion(g, m)
    # an extra edge below the mapped depth has an unmapped endpoint
    deep = GraphSpec(2, [(NodeId(0, 1), NodeId(7, 1))])
    m = packed_layout(2, 6, 2)
    assert distortion_constant(deep, m) == _reference_distortion(deep, m) == math.inf
    # a partial map: one node of generation 2 is missing
    entries = dict(breadth_first_row_layout(2, 3, 2).entries)
    del entries[NodeId(2, 3)]
    partial = LatticeMap.from_entries(2, entries)
    assert distortion_constant(GraphSpec(2), partial) == math.inf
    assert _reference_distortion(GraphSpec(2), partial) == math.inf


def test_map_label_out_of_range_for_rate():
    m = LatticeMap.from_entries(1, {NodeId(0, 1): (0,), NodeId(1, 1): (1,), NodeId(1, 3): (2,)})
    with pytest.raises(ValidationError):
        distortion_constant(GraphSpec(2), m)
    with pytest.raises(ValidationError):
        refutation_witness(2, m, 1.0, 1)
    assert distortion_constant(GraphSpec(3), m) == math.inf  # in range at rate 3, but partial


def test_lattice_map_arrays_and_entries():
    m = breadth_first_row_layout(2, 2, 2)
    assert m.js.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert m.entries[NodeId(2, 3)] == (3, 2)
    assert len(m.entries) == 7
    with pytest.raises(TypeError):
        m.entries[NodeId(0, 1)] = (9, 9)  # a read-only view
    with pytest.raises(ValueError):
        m.points[0, 0] = 9
    with pytest.raises(ValidationError):  # labels out of order
        LatticeMap(1, [1, 0], [1, 1], [[0], [1]])
    with pytest.raises(ValidationError):  # a repeated label
        LatticeMap(1, [1, 1], [1, 1], [[0], [1]])
    with pytest.raises(ValidationError):  # index 0 is no label
        LatticeMap(1, [0], [0], [[0]])


@pytest.mark.parametrize("dim,points,reused", [
    (1, [[3], [-2], [3], [-2]], (-2,)),
    (2, [[0, 5], [-1, 7], [4, 4], [-1, 7], [0, 5], [9, 9]], (-1, 7)),
    (2, [[2, -3], [1, 1], [0, 0], [7, 7], [2, -3]], (2, -3)),
    (3, [[0, 0, 1], [-5, 2, 2], [1, -1, 0], [-5, 2, 1], [1, -1, 0], [-5, 2, 1], [0, 0, 1]],
     (-5, 2, 1)),
])
def test_lattice_map_names_smallest_reused_point(dim, points, reused):
    # every map reuses a point at labels that are not neighbours in label order;
    # the message names the lexicographically smallest reused point
    js = np.repeat(np.arange(3), [1, 2, 4])[:len(points)]
    ks = np.array([1, 1, 2, 1, 2, 3, 4])[:len(points)]
    with pytest.raises(ValidationError, match=f"^map is not injective: point {re.escape(str(reused))} is reused$"):
        LatticeMap(dim, js, ks, points)
