"""Tree geometry: labeling, navigation, distances, regions."""

import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import treebound
from treebound import (
    CapacityError,
    Generations,
    GraphSpec,
    NodeId,
    Strip,
    Subtree,
    ValidationError,
    ancestor,
    children,
    graph_distance,
    parent,
    parse_edge_list,
    region_arrays,
    region_node_count,
    region_nodes,
    tree_distance,
)
from treebound.tree import run_labels, tree_distances


def _random_node(rnd, A, max_gen=20):
    j = rnd.randint(0, max_gen)
    return NodeId(j, rnd.randint(1, A**j))


def _materialized_adjacency(A, max_gen, extra_edges=()):
    """Explicit adjacency of the first max_gen+1 generations, for BFS oracles."""
    adj = {}
    for j in range(max_gen + 1):
        for k in range(1, A**j + 1):
            adj.setdefault(NodeId(j, k), [])
    for v in list(adj):
        if v.j < max_gen:
            for c in children(v, A):
                adj[v].append(c)
                adj[c].append(v)
    for a, b in extra_edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _bfs_distance(adj, v, w):
    seen = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        if u == w:
            return seen[u]
        for nb in adj[u]:
            if nb not in seen:
                seen[nb] = seen[u] + 1
                queue.append(nb)
    raise AssertionError("disconnected")


def test_parent_examples():
    assert parent(NodeId(1, 1), 2) == NodeId(0, 1)
    assert parent(NodeId(2, 9), 3) == NodeId(1, 3)
    assert parent(NodeId(0, 1), 2) is None


def test_children_examples():
    assert children(NodeId(0, 1), 2) == [NodeId(1, 1), NodeId(1, 2)]
    assert children(NodeId(1, 2), 3) == [NodeId(2, 4), NodeId(2, 5), NodeId(2, 6)]


def test_parent_children_round_trip():
    rnd = random.Random(101)
    for _ in range(10_000):
        A = rnd.choice((2, 3))
        v = _random_node(rnd, A)
        for c in children(v, A):
            assert parent(c, A) == v


def test_node_validation():
    with pytest.raises(ValidationError):
        NodeId(-1, 1)
    with pytest.raises(ValidationError):
        NodeId(0, 0)
    with pytest.raises(ValidationError):
        NodeId(1, 1 << 63)
    with pytest.raises(ValidationError):
        parent(NodeId(1, 3), 2)  # index out of range for rate 2
    # deep nodes are fine as long as the label fits
    assert parent(NodeId(62, (1 << 62)), 2) == NodeId(61, 1 << 61)
    with pytest.raises(ValidationError):
        children(NodeId(62, (1 << 62)), 2)  # child index would overflow


def test_tree_distance_examples():
    v = NodeId(3, 5)
    assert tree_distance(v, v, 2) == 0
    assert tree_distance(NodeId(1, 1), NodeId(1, 2), 2) == 2
    assert tree_distance(NodeId(2, 1), NodeId(0, 1), 2) == 2


def test_tree_distance_matches_bfs_oracle():
    for A in (2, 3):
        adj = _materialized_adjacency(A, 4)
        nodes = sorted(adj)
        for v in nodes[::3]:
            for w in nodes[::4]:
                assert tree_distance(v, w, A) == _bfs_distance(adj, v, w)


def test_tree_distance_metric_axioms():
    rnd = random.Random(2)
    for _ in range(10_000):
        A = rnd.choice((2, 3))
        u, v, w = (_random_node(rnd, A) for _ in range(3))
        duv = tree_distance(u, v, A)
        assert duv == tree_distance(v, u, A)
        assert (duv == 0) == (u == v)
        assert duv <= tree_distance(u, w, A) + tree_distance(w, v, A)


def _label_pairs(rnd, A, count):
    """Random node pairs over generations 0..140, a quarter of the nodes at the
    top of their generation's indices (near 2**63 from generation 63 on for
    A = 2), plus some pairs of a node with itself."""
    nodes = []
    for _ in range(2 * count):
        j = rnd.randint(0, 140)
        top = min(A**j, 2**63 - 1)
        k = rnd.randint(max(1, top - 1000), top) if rnd.random() < 0.25 else rnd.randint(1, top)
        nodes.append(NodeId(j, k))
    pairs = list(zip(nodes[::2], nodes[1::2]))
    pairs += [(v, v) for v in nodes[:count // 8]]
    return pairs


@pytest.mark.parametrize("A", [2, 3])
def test_tree_distances_match_the_scalar_reference(A):
    rnd = random.Random(10 + A)
    pairs = _label_pairs(rnd, A, 400)
    ja, ka, jb, kb = (np.array(x, dtype=np.int64)
                      for x in zip(*((v.j, v.k, w.j, w.k) for v, w in pairs)))
    want = [tree_distance(v, w, A) for v, w in pairs]
    got = tree_distances(ja, ka, jb, kb, A)  # elementwise
    assert got.dtype == np.uint64 and got.tolist() == want
    # pairwise by broadcasting a column against a row
    head = slice(0, 40)
    grid = tree_distances(ja[head, None], ka[head, None], jb[head], kb[head], A)
    nodes_a, nodes_b = [v for v, _ in pairs[head]], [w for _, w in pairs[head]]
    assert grid.tolist() == [[tree_distance(v, w, A) for w in nodes_b] for v in nodes_a]
    # 0-d labels, alone and against an array
    v, w = pairs[0]
    zero = tree_distances(v.j, v.k, w.j, w.k, A)
    assert zero.shape == () and int(zero) == tree_distance(v, w, A)
    assert tree_distances(v.j, v.k, jb, kb, A).tolist() == [tree_distance(v, x, A) for _, x in pairs]
    # no pairs: an empty result, not an error
    empty = np.empty(0, dtype=np.int64)
    assert tree_distances(empty, empty, jb[:, None], kb[:, None], A).shape == (len(pairs), 0)
    assert tree_distances(empty, empty, empty, empty, A).shape == (0,)


@pytest.mark.parametrize("A", [2, 3])
def test_ancestor_is_repeated_parent(A):
    rnd = random.Random(20 + A)
    for v, _ in _label_pairs(rnd, A, 100):
        steps = rnd.randint(0, min(v.j, 70))
        up = v
        for _ in range(steps):
            up = parent(up, A)
        assert ancestor(v, A, steps) == up


def test_deep_labels_lift_in_one_step(tmp_path):
    # a climb of one generation at a time never ends at these depths: the child
    # interpreter's timeout fails the test instead of stalling the suite
    edges = tmp_path / "edges.txt"
    edges.write_text(f"0 1 {2**62} 1\n")
    probe = f"""
from treebound import GraphSpec, NodeId, ROOT, ancestor, graph_distance, tree_distance
from treebound.cli import main
assert tree_distance(NodeId(40_000_000, 1), ROOT, 2) == 40_000_000
assert ancestor(NodeId(30_000_000, 1), 2, 30_000_000) == ROOT
assert ancestor(NodeId(2**63 - 1, 2), 3, 2**63 - 2) == NodeId(1, 1)
assert GraphSpec(2, [(ROOT, NodeId(2**62, 1))]).span == 2**62
deep, near = NodeId(2**63 - 1, 1), NodeId(1, 2)
assert tree_distance(deep, near, 2) == 2**63
assert graph_distance(GraphSpec(2, [(NodeId(2, 1), NodeId(2, 4))]), deep, near) == 2**63 - 1
assert main(["embedding-check", "--rate", "2", "--layout", "row", "--depth", "3",
             "--kmax", "3", "--constant", "8", "--edges", {str(edges)!r}]) == 0
"""
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_graph_distance_without_extra_edges():
    g = GraphSpec(2)
    rnd = random.Random(3)
    for _ in range(200):
        v, w = _random_node(rnd, 2, 8), _random_node(rnd, 2, 8)
        assert graph_distance(g, v, w) == tree_distance(v, w, 2)


def test_graph_distance_with_shortcut():
    g = GraphSpec(2, [(NodeId(2, 1), NodeId(2, 4))])
    assert graph_distance(g, NodeId(2, 1), NodeId(2, 4)) == 1
    # value pinned by the BFS oracle below
    assert graph_distance(g, NodeId(2, 2), NodeId(2, 4)) == 3


def test_graph_distance_matches_bfs_oracle():
    rnd = random.Random(4)
    for A in (2, 3):
        for _ in range(10):
            edges = []
            while len(edges) < 3:
                a, b = _random_node(rnd, A, 4), _random_node(rnd, A, 4)
                if a == b or tree_distance(a, b, A) == 1:
                    continue
                edges.append((a, b))
            g = GraphSpec(A, edges)
            adj = _materialized_adjacency(A, 4, g.extra_edges)
            nodes = sorted(adj)
            for _ in range(60):
                v, w = rnd.choice(nodes), rnd.choice(nodes)
                assert graph_distance(g, v, w) == _bfs_distance(adj, v, w)


def test_sandwich_property():
    rnd = random.Random(5)
    for A in (2, 3):
        edges = []
        while len(edges) < 4:
            a, b = _random_node(rnd, A, 6), _random_node(rnd, A, 6)
            if a == b or tree_distance(a, b, A) == 1:
                continue
            edges.append((a, b))
        g = GraphSpec(A, edges)
        assert g.span >= 2
        for _ in range(1000):
            v, w = _random_node(rnd, A, 8), _random_node(rnd, A, 8)
            if v == w:
                continue
            dg = graph_distance(g, v, w)
            dt = tree_distance(v, w, A)
            assert dg <= dt
            assert dg * g.span >= dt


def test_graphspec_validation():
    with pytest.raises(ValidationError):
        GraphSpec(2, [(NodeId(1, 1), NodeId(1, 1))])  # self loop
    with pytest.raises(ValidationError):
        GraphSpec(2, [(NodeId(0, 1), NodeId(1, 2))])  # duplicates a tree edge
    with pytest.raises(ValidationError):
        GraphSpec(1)
    g = GraphSpec(2, [(NodeId(2, 1), NodeId(2, 4)), (NodeId(3, 1), NodeId(1, 2))])
    assert g.span == 4


def test_region_examples():
    assert set(region_nodes(Subtree(1, 1, 2), 2)) == {NodeId(1, 1), NodeId(2, 1), NodeId(2, 2)}
    assert region_node_count(Subtree(0, 1, 3), 2) == 7
    assert list(region_nodes(Strip(1, 1), 2)) == [NodeId(1, 1), NodeId(1, 2)]


def test_region_counts_match_iterators():
    small_cap = 200_000
    for A in (2, 3, 4):
        for depth in range(1, 9):
            for level in range(0, 9):
                for region in (
                    Subtree(level, 1, depth),
                    Strip(level, depth),
                    Generations(depth),
                ):
                    count = region_node_count(region, A)
                    if count > small_cap:
                        continue
                    nodes = list(region_nodes(region, A))
                    assert len(nodes) == count
                    assert len(set(nodes)) == count
                    # generation-major, index-ascending order
                    assert nodes == sorted(nodes)


def test_region_capacity_error():
    with pytest.raises(CapacityError):
        list(region_nodes(Generations(30), 2))
    # the cap is configurable
    with pytest.raises(CapacityError):
        list(region_nodes(Generations(5), 2, cap=10))


def test_parse_edge_list():
    text = """
    # shortcut between cousins
    2 1 2 4
    3 1  1 2   # trailing comment
    """
    edges = parse_edge_list(text)
    assert edges == [(NodeId(2, 1), NodeId(2, 4)), (NodeId(3, 1), NodeId(1, 2))]
    with pytest.raises(ValidationError):
        parse_edge_list("1 2 3\n")
    with pytest.raises(ValidationError):
        parse_edge_list("a b c d\n")


def test_region_arrays_match_region_nodes():
    for A in (2, 3):
        for region in (Subtree(2, 3, 3), Strip(1, 3), Generations(4), Generations(0)):
            js, ks = region_arrays(region, A)
            assert js.dtype == ks.dtype == "int64"
            assert list(zip(js.tolist(), ks.tolist())) == [
                (v.j, v.k) for v in region_nodes(region, A)
            ]
    with pytest.raises(CapacityError):
        region_arrays(Generations(30), 2)
    # a subtree whose deepest indices reach 2**63 fails before building anything
    for enumerate_region in (region_arrays, lambda r, A: list(region_nodes(r, A))):
        with pytest.raises(ValidationError):
            enumerate_region(Subtree(61, 2**61, 3), 2)


def test_rate_past_the_63_bit_labels_rejected():
    for call in (lambda: GraphSpec(2**63), lambda: region_node_count(Generations(1), 2**63),
                 lambda: region_arrays(Strip(0, 1), 2**63)):
        with pytest.raises(ValidationError, match="2\\*\\*63"):
            call()
    assert region_node_count(Generations(1), 2**63 - 1) == 1


def test_capacity_message_of_a_huge_region_prints():
    # the exact count of 9101 generations at rate 3 has more than 4300 digits
    with pytest.raises(CapacityError, match=r"at least 2\*\*14423 nodes"):
        region_arrays(Generations(9101), 3)


def test_deep_region_is_refused_before_its_exact_count():
    # the exact count of 10**9 generations has about 1.6e9 bits: hours to compute
    with pytest.raises(CapacityError, match=r"at least 2\*\*1584962499 nodes"):
        region_arrays(Generations(10**9), 3)
    # the quick refusal still names a true lower bound
    for A in (2, 3, 5, 6):
        for region in (Generations(40), Strip(7, 30), Subtree(3, 2, 45)):
            with pytest.raises(CapacityError) as info:
                region_arrays(region, A)
            low_bits = int(str(info.value).split("2**")[1].split()[0])
            assert 2**low_bits <= region_node_count(region, A) < 2 ** (low_bits + 2)


def _run_labels_ref(runs, start, stop):
    """Columns ``start .. stop - 1`` of the runs' labels laid end to end, in Python ints."""
    labels = [(j, first + i) for j, first, count in runs for i in range(count)][start:stop]
    return [j for j, _ in labels], [k for _, k in labels]


def test_run_labels_match_the_pure_python_expansion():
    rnd = random.Random(29)
    for _ in range(400):
        runs = []
        for _ in range(rnd.randint(0, 6)):
            count = rnd.randint(1, 30)
            j = rnd.choice((rnd.randint(0, 70), 2**62 + rnd.randint(0, 10), 2**63 - 1))
            first = rnd.choice((2, rnd.randint(2, 10**6), 2**62 + rnd.randint(-10**6, 10**6),
                                2**63 - count - rnd.randint(0, 3)))
            runs.append((j, first, count))
        width = sum(count for _, _, count in runs)
        windows = [(0, width)] + [tuple(sorted(rnd.randint(0, width) for _ in range(2)))
                                  for _ in range(6)]
        for start, stop in windows:
            js, ks = run_labels(runs, start, stop)
            assert js.dtype == ks.dtype == np.int64
            assert (js.tolist(), ks.tolist()) == _run_labels_ref(runs, start, stop)
    # windows that start or stop inside a run, span runs, or hold nothing
    runs = [(3, 5, 4), (62, 2**62 - 1, 3), (0, 1, 1), (2**62, 2**63 - 2, 1)]
    for start, stop in ((1, 3), (2, 6), (3, 9), (6, 7), (0, 9), (4, 4), (0, 0), (9, 9)):
        js, ks = run_labels(np.array(runs, dtype=np.int64), start, stop)
        assert (js.tolist(), ks.tolist()) == _run_labels_ref(runs, start, stop)
    assert [len(x) for x in run_labels([], 0, 0)] == [0, 0]
