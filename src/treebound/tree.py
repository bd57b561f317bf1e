"""Exact geometry of rate-A trees and their bounded extensions.

A rate-A tree is the infinite rooted tree in which every node has exactly
``A`` children.  Nodes are addressed by (generation, index) labels:
generation ``j`` holds the indices ``1 .. A**j``, the root is ``(0, 1)``
and the children of ``(j, k)`` are ``(j+1, A*(k-1)+1) .. (j+1, A*k)``.
Everything works on labels directly (ancestors are reached by index
arithmetic), so a node at generation 60 is as cheap to handle as the root;
only region iterators materialize node sets, and those are capped.

A :class:`GraphSpec` is a rate-A tree plus a finite set of extra edges
whose tree-span is bounded.  Graph distances route shortest paths through
the extra-edge endpoints, which is exact because every maximal tree
segment of a shortest path can be replaced by a direct tree geodesic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .errors import CapacityError, ValidationError, is_integer, require

MAX_LABEL = 1 << 63          # generation and index must stay below 63 usable bits
DEFAULT_NODE_CAP = 1 << 26   # hard stop for materialized regions


@dataclass(frozen=True, order=True, slots=True, init=False)
class NodeId:
    """Address of a tree node: generation ``j`` and 1-based index ``k``."""

    j: int
    k: int

    def __init__(self, j: int, k: int) -> None:
        # nodes are built by the million: one combined test, messages only on failure
        if not (is_integer(j, 0, MAX_LABEL) and is_integer(k, 1, MAX_LABEL)):
            require((("generation", j, 0, MAX_LABEL), ("index", k, 1, MAX_LABEL)))
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)


ROOT = NodeId(0, 1)


def check_rate(A: int) -> None:
    """:class:`ValidationError` unless ``A`` is an integer in ``[2, 2**63)``."""
    # generation 1 of a wider tree already holds indices past the 63-bit labels
    if not is_integer(A, 2, MAX_LABEL):
        require((("A", A, 2, MAX_LABEL),))


def is_valid_node(v: NodeId, A: int) -> bool:
    """True if ``v`` addresses a node of the rate-``A`` tree (k <= A**j)."""
    check_rate(A)
    if v.j >= 63:
        # A**j >= 2**63 > any admissible index, so every label is in range.
        return True
    return v.k <= A**v.j


def validate_node(v: NodeId, A: int) -> None:
    if not isinstance(v, NodeId):
        raise ValidationError(f"expected a NodeId, got {v!r}")
    if not is_valid_node(v, A):
        raise ValidationError(
            f"node ({v.j}, {v.k}) is out of range for rate {A}: index exceeds {A}**{v.j}"
        )


def parent(v: NodeId, A: int) -> Optional[NodeId]:
    """Parent of ``v`` in the rate-``A`` tree, or None for the root."""
    validate_node(v, A)
    if v.j == 0:
        return None
    return NodeId(v.j - 1, (v.k + A - 1) // A)


def children(v: NodeId, A: int) -> list[NodeId]:
    """The ``A`` children of ``v``, in increasing index order."""
    validate_node(v, A)
    if A * v.k >= MAX_LABEL:
        raise ValidationError(
            f"children of ({v.j}, {v.k}) overflow the 63-bit label range"
        )
    base = A * (v.k - 1)
    return [NodeId(v.j + 1, base + t) for t in range(1, A + 1)]


def ancestor(v: NodeId, A: int, steps: int) -> NodeId:
    """Ancestor of ``v`` exactly ``steps`` generations up (0 = v itself)."""
    validate_node(v, A)
    require((("steps", steps, 0, v.j + 1),))
    j, k = v.j, v.k
    for _ in range(steps):
        k = (k + A - 1) // A
        j -= 1
    return NodeId(j, k)


def tree_distance(v: NodeId, w: NodeId, A: int) -> int:
    """Number of edges on the unique tree path between ``v`` and ``w``.

    Computed as depth(v) + depth(w) - 2*depth(lca) where the lowest common
    ancestor is found by lifting the deeper node, one parent step at a time.
    """
    validate_node(v, A)
    validate_node(w, A)
    jv, kv = v.j, v.k
    jw, kw = w.j, w.k
    dist = 0
    while jv > jw:
        kv = (kv + A - 1) // A
        jv -= 1
        dist += 1
    while jw > jv:
        kw = (kw + A - 1) // A
        jw -= 1
        dist += 1
    while kv != kw:
        kv = (kv + A - 1) // A
        kw = (kw + A - 1) // A
        dist += 2
    return dist


def ball_arrays(
    js: np.ndarray, ks: np.ndarray, A: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node within tree distance ``m`` of each node ``(js[i], ks[i])``,
    as ``(i, j, k)`` arrays with no repeats within a ball.

    A ball member lies ``up`` steps above its center and then ``down`` steps
    into that ancestor's subtree, outside the branch the walk came up
    through.  Raises :class:`ValidationError` when a ball would need labels
    past the 63-bit range, as :func:`children` does.
    """
    if len(js) and (int(js.max()) + m >= MAX_LABEL or int(ks.max()) * A**m >= MAX_LABEL):
        raise ValidationError(f"radius-{m} balls of these nodes overflow the 63-bit label range")
    members = []
    center, anc_j, anc_k, skip = np.arange(len(js)), js, ks, None
    for up in range(m + 1):
        for down in range(m - up + 1):
            offsets = np.arange(A**down)
            k = (anc_k[:, None] - 1) * A**down + 1 + offsets
            if up and down:
                keep = offsets // A ** (down - 1) != skip[:, None]
            else:
                keep = np.ones(k.shape, dtype=bool)
            grid = np.broadcast_arrays(center[:, None], anc_j[:, None] + down, k)
            members.append(np.stack(grid)[:, keep])
        lift = anc_j > 0
        center, anc_j = center[lift], anc_j[lift] - 1
        skip, anc_k = (anc_k[lift] - 1) % A, (anc_k[lift] - 1) // A + 1
    return tuple(np.concatenate(members, axis=1))


def _is_tree_edge(a: NodeId, b: NodeId, A: int) -> bool:
    lo, hi = (a, b) if a.j <= b.j else (b, a)
    if hi.j != lo.j + 1:
        return False
    return A * (lo.k - 1) + 1 <= hi.k <= A * lo.k


@dataclass(frozen=True, init=False)
class GraphSpec:
    """A rate-``A`` tree plus a finite set of extra edges of bounded span.

    ``span`` caches the maximal tree distance over the extra edges (0 when
    there are none); it is the constant that controls how much the extra
    edges can contract graph distances.
    """

    A: int
    extra_edges: tuple[tuple[NodeId, NodeId], ...]
    span: int

    def __init__(self, A: int, extra_edges: Iterable[tuple[NodeId, NodeId]] = ()):
        check_rate(A)
        seen = {}
        for a, b in extra_edges:
            validate_node(a, A)
            validate_node(b, A)
            if a == b:
                raise ValidationError(f"extra edge ({a.j},{a.k})-({b.j},{b.k}) is a self-loop")
            if _is_tree_edge(a, b, A):
                raise ValidationError(
                    f"extra edge ({a.j},{a.k})-({b.j},{b.k}) duplicates a tree edge"
                )
            key = (min(a, b), max(a, b))
            seen[key] = None
        edges = tuple(sorted(seen))
        span = max((tree_distance(a, b, A) for a, b in edges), default=0)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "extra_edges", edges)
        object.__setattr__(self, "span", span)


def graph_distance(g: GraphSpec, v: NodeId, w: NodeId) -> int:
    """Shortest-path distance over tree edges plus the extra edges of ``g``.

    Exact: a shortest path decomposes into tree geodesics between the
    terminals and extra-edge endpoints, so Floyd-Warshall on that small
    terminal set (weighted by tree distances, extra edges at weight 1)
    gives the graph metric without any breadth-first expansion.
    """
    validate_node(v, g.A)
    validate_node(w, g.A)
    if v == w:
        return 0
    if not g.extra_edges:
        return tree_distance(v, w, g.A)

    terminals: list[NodeId] = [v, w]
    index = {v: 0}
    if w not in index:
        index[w] = 1
    else:
        terminals = [v]
    for a, b in g.extra_edges:
        for t in (a, b):
            if t not in index:
                index[t] = len(terminals)
                terminals.append(t)
    n = len(terminals)
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = tree_distance(terminals[i], terminals[j], g.A)
            dist[i][j] = dist[j][i] = d
    for a, b in g.extra_edges:
        ia, ib = index[a], index[b]
        if dist[ia][ib] > 1:
            dist[ia][ib] = dist[ib][ia] = 1
    for mid in range(n):
        via = dist[mid]
        for i in range(n):
            head = dist[i][mid]
            row = dist[i]
            for j in range(n):
                alt = head + via[j]
                if alt < row[j]:
                    row[j] = alt
    return dist[index[v]][index[w]]


@dataclass(frozen=True)
class Subtree:
    """All nodes of the depth-``depth`` subtree rooted at ``(j, k)``."""

    j: int
    k: int
    depth: int
    _LOWS = {"j": 0, "k": 1, "depth": 1}  # each field is an integer at or above its low


@dataclass(frozen=True)
class Strip:
    """Union of the depth-``depth`` subtrees rooted at every node of
    generation ``level``; equivalently, generations ``level .. level+depth-1``
    in full."""

    level: int
    depth: int
    _LOWS = {"level": 0, "depth": 1}


@dataclass(frozen=True)
class Generations:
    """The first ``count`` generations of the tree (generations 0..count-1)."""

    count: int
    _LOWS = {"count": 0}


Region = Union[Subtree, Strip, Generations]


def _validate_region(region: Region, A: int) -> None:
    if not isinstance(region, (Subtree, Strip, Generations)):
        raise ValidationError(f"unknown region type: {region!r}")
    check_rate(A)
    kind = type(region).__name__
    require([(f"{kind}.{name}", getattr(region, name), low) for name, low in region._LOWS.items()])
    if isinstance(region, Subtree):
        validate_node(NodeId(region.j, region.k), A)


def region_node_count(region: Region, A: int) -> int:
    """Closed-form node count of ``region`` (geometric sums, exact)."""
    _validate_region(region, A)
    if isinstance(region, Subtree):
        return (A**region.depth - 1) // (A - 1)
    if isinstance(region, Strip):
        return A**region.level * (A**region.depth - 1) // (A - 1)
    return (A**region.count - 1) // (A - 1)


def _generation_runs(region: Region, A: int, cap: int) -> list[tuple[int, int, int]]:
    """``(j, first_k, count)`` for each generation of ``region``, in order.

    Checks the cap and the 63-bit label range before anything is built.
    """
    require((("cap", cap, 0),))
    count = region_node_count(region, A)
    if count > cap:
        raise CapacityError(  # the count itself may have too many digits to print
            f"region holds at least 2**{count.bit_length() - 1} nodes, exceeding the cap of {cap}"
        )
    if isinstance(region, Subtree):
        runs = [(region.j + d, A**d * (region.k - 1) + 1, A**d) for d in range(region.depth)]
    elif isinstance(region, Strip):
        runs = [(j, 1, A**j) for j in range(region.level, region.level + region.depth)]
    else:
        runs = [(j, 1, A**j) for j in range(region.count)]
    if runs:
        j, first, count = runs[-1]  # the deepest generation holds the largest labels
        if j >= MAX_LABEL or first + count - 1 >= MAX_LABEL:
            raise ValidationError(f"region {region!r} overflows the 63-bit label range")
    return runs


def region_nodes(
    region: Region, A: int, cap: int = DEFAULT_NODE_CAP
) -> Iterator[NodeId]:
    """Yield the nodes of ``region`` generation-major, index-ascending.

    Raises :class:`CapacityError` before yielding anything if the closed-form
    count exceeds ``cap``; region sizes are exponential and must fail loudly
    rather than exhaust memory.
    """
    for j, first, count in _generation_runs(region, A, cap):
        for k in range(first, first + count):
            yield NodeId(j, k)


def region_arrays(
    region: Region, A: int, cap: int = DEFAULT_NODE_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Generations and indices (int64) of the nodes of ``region``, in the
    order of :func:`region_nodes`, without building a :class:`NodeId`."""
    runs = _generation_runs(region, A, cap)
    counts = [count for _, _, count in runs]
    js = np.repeat(np.array([j for j, _, _ in runs], dtype=np.int64), counts)
    ks = np.concatenate(
        [np.arange(first, first + count, dtype=np.int64) for _, first, count in runs]
        or [np.empty(0, dtype=np.int64)]
    )
    return js, ks


def parse_edge_list(text: str) -> list[tuple[NodeId, NodeId]]:
    """Parse extra edges from plain text, one edge per line as ``j k j' k'``.

    Blank lines are skipped and ``#`` starts a comment.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValidationError(
                f"edge list line {lineno}: expected 4 integers 'j k j' k'', got {raw!r}"
            )
        try:
            a, b, c, d = (int(p) for p in parts)
        except ValueError as exc:
            raise ValidationError(f"edge list line {lineno}: {exc}") from exc
        edges.append((NodeId(a, b), NodeId(c, d)))
    return edges
