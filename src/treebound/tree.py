"""Exact geometry of rate-A trees and their bounded extensions.

A rate-A tree is the infinite rooted tree in which every node has exactly
``A`` children.  Nodes are addressed by (generation, index) labels:
generation ``j`` holds the indices ``1 .. A**j``, the root is ``(0, 1)``
and the children of ``(j, k)`` are ``(j+1, A*(k-1)+1) .. (j+1, A*k)``.
Everything works on labels directly (an ancestor any number of generations
up is one index division), so a node at generation 2**62 is as cheap to
handle as the root; only region iterators materialize node sets, and those
are capped.

A node set travels as label runs ``(generation, first index, count)``: a
region's runs are its generations (a :class:`Strip` or :class:`Generations`
region is one generation span ``[t0, t1)``), and :func:`run_labels`, the one
expander of runs, builds the int64 labels of a window of columns at a time.

Tree distance has one array implementation, :func:`tree_distances`, which
the separation checks, refutation scans and graph distances share;
:func:`tree_distance` is its pure-int scalar reference.

A :class:`GraphSpec` is a rate-A tree plus a finite set of extra edges
whose tree-span is bounded.  Graph distances route shortest paths through
the extra-edge endpoints, which is exact because every maximal tree
segment of a shortest path can be replaced by a direct tree geodesic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import CapacityError, ValidationError, is_integer, require

MAX_LABEL = 1 << 63          # generation and index must stay below 63 usable bits
DEFAULT_NODE_CAP = 1 << 26   # hard stop for materialized regions
BALL_ENTRY_CAP = 1 << 28     # ball members in all: the radius-1 balls of that many nodes at A = 2

Run = tuple[int, int, int]  # (generation, first index, count): consecutive labels


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


def _lift(k: int, A: int, steps: int) -> int:
    """Index of the ancestor ``steps`` generations above index ``k``: 1 once
    ``A**steps`` passes every 63-bit index."""
    return (k - 1) // A**steps + 1 if steps < 63 else 1


def ancestor(v: NodeId, A: int, steps: int) -> NodeId:
    """Ancestor of ``v`` exactly ``steps`` generations up (0 = v itself)."""
    validate_node(v, A)
    require((("steps", steps, 0, v.j + 1),))
    return NodeId(v.j - steps, _lift(v.k, A, steps))


def tree_distance(v: NodeId, w: NodeId, A: int) -> int:
    """Number of edges on the unique tree path between ``v`` and ``w``.

    Computed as depth(v) + depth(w) - 2*depth(lca): the deeper node is lifted
    to the other's generation in one step, then both climb together, at most
    63 times, until their indices meet.
    """
    validate_node(v, A)
    validate_node(w, A)
    (jv, kv), (jw, kw) = sorted(((v.j, v.k), (w.j, w.k)), reverse=True)
    kv = _lift(kv, A, jv - jw)
    dist = jv - jw
    while kv != kw:
        kv = (kv + A - 1) // A
        kw = (kw + A - 1) // A
        dist += 2
    return dist


@lru_cache(maxsize=None)
def _powers(A: int) -> np.ndarray:
    """``A**s`` as int64 for every ``s`` with ``A**s`` below ``2**63``."""
    powers = np.array([A**s for s in range(63) if A**s < MAX_LABEL], dtype=np.int64)
    powers.flags.writeable = False
    return powers


def tree_distances(ja, ka, jb, kb, A: int) -> np.ndarray:
    """Tree distances (uint64) between nodes ``(ja, ka)`` and ``(jb, kb)``,
    given as int64 label arrays that broadcast together; labels are not
    validated.

    The deeper node of a pair is lifted to the other's generation in one
    step, as :func:`tree_distance` lifts it, then both sides climb together
    until their indices meet.  At most ``2**63 - 1`` generations apart plus
    ``2 * 63`` climbs: no uint64 overflow.
    """
    ja, ka, jb, kb = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in (ja, ka, jb, kb)))
    gap = ja - jb  # generations the first node lies below the second
    powers = _powers(A)
    top = len(powers) - 1
    # each side's ancestor in the shallower generation, as its index - 1, in an array of its own
    a, b = (np.where(s > top, 0, (k - 1) // powers[np.clip(s, 0, top)])
            for k, s in ((ka, gap), (kb, -gap)))
    climbs = np.zeros(gap.shape, dtype=np.uint64)
    while True:
        apart = a != b
        if not apart.any():
            break
        climbs += apart
        a //= A
        b //= A
    return np.abs(gap).astype(np.uint64) + 2 * climbs


def node_labels(nodes: Sequence[NodeId], A: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 labels ``(js, ks)`` of ``nodes``, each checked against rate ``A``
    in order."""
    for v in nodes:
        validate_node(v, A)
    return tuple(np.fromiter((getattr(v, name) for v in nodes), dtype=np.int64, count=len(nodes))
                 for name in ("j", "k"))


def _ball_size(j: int, A: int, m: int) -> int:
    """Exact node count of a radius-``m`` ball around a generation-``j`` node
    (the same for every ``j >= m``)."""
    return sum(A ** (min((m - d) // 2, j) + d) for d in range(-min(j, m), m + 1))


def ball_sizes(runs: Sequence[Run], A: int, m: int) -> np.ndarray:
    """Member counts of the radius-``m`` balls around the labels of the
    (nonempty) ``runs``, indexed by the center's generation clipped at ``m``:
    the ball of ``(j, k)`` holds ``sizes[min(j, m)]`` nodes (every generation
    from ``m`` on has balls of one size).  An entry no center uses reads 0.

    Raises :class:`ValidationError` when a ball would need labels past the
    63-bit range, as :func:`children` does, and :class:`CapacityError`, before
    any array of members is built, when the balls hold more than
    ``BALL_ENTRY_CAP`` members in all.
    """
    # m >= 63 puts A**m past every label without computing it
    if (m >= 63 or max(j for j, _, _ in runs) + m >= MAX_LABEL
            or max(first + count - 1 for _, first, count in runs) * A**m >= MAX_LABEL):
        raise ValidationError(f"radius-{m} balls of these nodes overflow the 63-bit label range")
    centers = [0] * (m + 1)
    for j, _, count in runs:
        centers[min(j, m)] += count
    sizes = [_ball_size(j, A, m) if count else 0 for j, count in enumerate(centers)]
    total = sum(count * size for count, size in zip(centers, sizes))
    if total > BALL_ENTRY_CAP:
        raise CapacityError(
            f"radius-{m} balls of {sum(centers)} nodes hold {total} members, "
            f"exceeding the cap of {BALL_ENTRY_CAP}"
        )
    return np.array(sizes, dtype=np.int64)


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
    # each terminal once: repeats would grow the cubic Floyd-Warshall loop below
    index: dict[NodeId, int] = {}
    for t in (v, w, *(t for edge in g.extra_edges for t in edge)):
        index.setdefault(t, len(index))
    js, ks = np.array([(t.j, t.k) for t in index], dtype=np.int64).T
    # exact ints: a sum of two distances can pass 2**64
    dist = tree_distances(js[:, None], ks[:, None], js, ks, g.A).tolist()
    n = len(dist)
    for a, b in g.extra_edges:
        dist[index[a]][index[b]] = dist[index[b]][index[a]] = 1
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


def generation_span(region: Strip | Generations) -> tuple[int, int]:
    """The generations ``[t0, t1)`` that a strip or generations region holds."""
    if isinstance(region, Strip):
        return region.level, region.level + region.depth
    return 0, region.count


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
    t0, t1 = generation_span(region)
    return (A**t1 - A**t0) // (A - 1)


def check_node_cap(region: Region, A: int, cap: int = DEFAULT_NODE_CAP) -> None:
    """Raise :class:`CapacityError` if ``region`` holds more than ``cap`` nodes.

    A region deeper than the cap's bits allow is refused before its exact
    count is computed, which takes super-linear time in the depth.
    """
    require((("cap", cap, 0),))
    _validate_region(region, A)
    deepest = region.depth - 1 if isinstance(region, Subtree) else generation_span(region)[1] - 1
    bits = low_bits(A, deepest)  # the deepest generation alone has A**deepest nodes
    if bits >= cap.bit_length() or region_node_count(region, A) > cap:
        raise CapacityError(f"region holds at least 2**{bits} nodes, exceeding the cap of {cap}")


def low_bits(A: int, e: int) -> int:
    """An integer at or below ``log2(A**e)``, found without forming ``A**e``,
    whose exact value takes super-linear time in ``e``.  The integer term is
    exact for a power-of-two ``A``; the float one (its factor kept finite) is
    2**-40 below its value."""
    return max(e * (A.bit_length() - 1),
               math.floor(math.log2(A) * min(e, 1 << 62) * (1 - 2**-40)))


def _generation_runs(region: Region, A: int, cap: int) -> list[Run]:
    """The run ``(j, first_k, count)`` of each generation of ``region``, in order.

    Checks the cap and the 63-bit label range before anything is built.
    """
    check_node_cap(region, A, cap)
    if isinstance(region, Subtree):
        runs = [(region.j + d, A**d * (region.k - 1) + 1, A**d) for d in range(region.depth)]
    else:
        runs = [(j, 1, A**j) for j in range(*generation_span(region))]
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
    return run_labels(runs, 0, sum(count for _, _, count in runs))


def run_labels(runs: Sequence[Run], start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 labels ``(js, ks)`` of columns ``start .. stop - 1`` of the
    runs ``(j, first_k, count)`` (each ``count >= 1``) laid end to end, each
    in index order.  ``runs`` may be an int64 array of shape ``(n, 3)``,
    which is then not copied."""
    gens, firsts, counts = np.asarray(runs, dtype=np.int64).reshape(-1, 3).T
    ends = np.cumsum(counts)
    lo = int(np.searchsorted(ends, start, "right"))
    hi = int(np.searchsorted(ends, stop, "left")) + 1  # runs lo .. hi - 1 meet the columns
    begin = ends[lo:hi] - counts[lo:hi]
    skip = np.maximum(begin, start) - begin  # columns of the first run before start
    lengths = np.minimum(ends[lo:hi], stop) - begin - skip
    ks = np.ones(stop - start + 1, dtype=np.int64)  # steps of the indices, summed below
    at, firsts = begin + skip - start, firsts[lo:hi] + skip
    ks[at] += firsts - 1  # each run's first index, then back to 1 one past its last
    ks[at + lengths] -= firsts + lengths - 1
    return np.repeat(gens[lo:hi], lengths), np.cumsum(ks, out=ks)[: stop - start]


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
