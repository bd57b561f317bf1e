"""Lattice-embedding machinery: distortion constants, the Lipschitz
criterion, pigeonhole refutation witnesses, and mixing-rate transfer.

A finite, generation-closed assignment of tree nodes to integer lattice
points is judged by the Chebyshev distance of its images.  The per-edge
maximum is the distortion constant; composed along tree paths it bounds
every pair, which is the Lipschitz property an embedding must have for
mixing rates to transfer.  Because a generation holds ``A**k`` nodes while
a Chebyshev ball of radius ``R`` in ``Z**N`` holds only ``(2R+1)**N``
points, a sufficiently deep generation cannot stay Lipschitz for any fixed
constant: :func:`refutation_witness` searches exactly those generations
for a violating pair.

A :class:`LatticeMap` holds label-sorted int64 arrays, so the scans work on
whole generation blocks and a :class:`NodeId` appears only where a caller
hands one in or gets one back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .bounds import MixingEnvelope
from .errors import CapacityError, ValidationError, require
from .tree import (
    DEFAULT_NODE_CAP,
    MAX_LABEL,
    Generations,
    GraphSpec,
    NodeId,
    check_rate,
    graph_distance,
    region_arrays,
)

Point = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class LatticeMap:
    """A finite injective assignment of tree nodes to points of ``Z**dim``:
    node ``(js[i], ks[i])`` goes to ``points[i]``, labels sorted and distinct."""

    dim: int
    js: np.ndarray
    ks: np.ndarray
    points: np.ndarray
    depth: int = field(init=False)  # the deepest mapped generation

    def __post_init__(self) -> None:
        require((("dim", self.dim, 1),))
        js, ks = np.asarray(self.js), np.asarray(self.ks)
        if not len(js):
            raise ValidationError("lattice map must cover at least one node")
        try:
            points = np.asarray(self.points)
        except ValueError:  # points of unequal lengths
            points = np.empty(0)
        shaped = ks.shape == js.shape and points.shape == (len(js), self.dim)
        if not shaped or any(a.dtype.kind != "i" for a in (js, ks, points)):
            raise ValidationError(f"need integer labels and {self.dim}-dimensional integer points")
        js, ks, points = (a.astype(np.int64) for a in (js, ks, points))
        if js.min() < 0 or ks.min() < 1:
            raise ValidationError("node labels need generation >= 0 and index >= 1")
        if not ((np.diff(js) > 0) | ((np.diff(js) == 0) & (np.diff(ks) > 0))).all():
            raise ValidationError("node labels must be sorted (generation, index) and distinct")
        ranked = points[np.lexsort(points.T[::-1])]  # rows in lexicographic order
        reused = (ranked[1:] == ranked[:-1]).all(axis=1)
        if reused.any():
            point = tuple(ranked[1:][reused][0].tolist())
            raise ValidationError(f"map is not injective: point {point} is reused")
        for name, array in (("js", js), ("ks", ks), ("points", points)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "depth", int(js[-1]))

    @classmethod
    def from_entries(cls, dim: int, mapping: Mapping[NodeId, Point]) -> "LatticeMap":
        """A map from explicit ``{NodeId: point}`` entries."""
        items = sorted(mapping.items())
        js, ks = np.array([(v.j, v.k) for v, _ in items], dtype=np.int64).reshape(-1, 2).T
        return cls(dim, js, ks, [point for _, point in items])

    @cached_property
    def entries(self) -> Mapping[NodeId, Point]:
        """Read-only ``{NodeId: point}`` view, built on first use."""
        rows = zip(self.js.tolist(), self.ks.tolist(), map(tuple, self.points.tolist()))
        return MappingProxyType({NodeId(j, k): point for j, k, point in rows})


def _closed_depth(A: int, m: LatticeMap) -> int:
    """Check the labels of ``m`` against the rate-``A`` tree; return the largest
    ``d`` such that every node of generations ``0..d`` is mapped, or -1."""
    check_rate(A)
    gens, at, counts = np.unique(m.js, return_inverse=True, return_counts=True)
    sizes = np.array([min(A ** min(j, 63), MAX_LABEL - 1) for j in gens.tolist()])
    bad = np.flatnonzero(m.ks > sizes[at])
    if len(bad):
        raise ValidationError(f"node ({m.js[bad[0]]}, {m.ks[bad[0]]}) is out of range for rate {A}")
    return int(np.cumprod((gens == np.arange(len(gens))) & (counts == sizes)).sum()) - 1


def chebyshev(p: Point, q: Point) -> int:
    return max(abs(a - b) for a, b in zip(p, q))


def distortion_constant(g: GraphSpec, m: LatticeMap) -> float:
    """Max Chebyshev image distance over the edges of ``g`` within depth.

    Covers the tree edges between mapped generations plus every extra edge;
    returns ``inf`` when an edge endpoint is unmapped.
    """
    ends = [v for edge in g.extra_edges for v in edge]
    if _closed_depth(g.A, m) < m.depth or any(v.j > m.depth for v in ends):
        return math.inf
    # generations 0..depth in full: row r is the r-th node breadth-first, parent row (r - 1) // A
    child = np.arange(1, len(m.js))
    extra = np.array([np.searchsorted(m.js, v.j) + v.k - 1 for v in ends], dtype=np.int64)
    u, w = np.concatenate([(child - 1) // g.A, extra[0::2]]), np.concatenate([child, extra[1::2]])
    return float(np.abs(m.points[u] - m.points[w]).max(initial=0))


def lipschitz_check(
    g: GraphSpec,
    m: LatticeMap,
    C: float,
    pairs: Sequence[tuple[NodeId, NodeId]],
) -> Optional[tuple[NodeId, NodeId]]:
    """Verify image-Chebyshev <= C * graph distance on every sampled pair.

    Returns None if the inequality holds everywhere, otherwise the first
    violating pair in lexicographic scan order.
    """
    require(reals=(("C", C, ">=", 0),))
    for v, w in sorted(pairs):
        pv, pw = m.entries.get(v), m.entries.get(w)
        if pv is None or pw is None:
            raise ValidationError(
                f"pair ({v.j},{v.k})-({w.j},{w.k}) has an unmapped endpoint"
            )
        if v == w:
            continue
        if chebyshev(pv, pw) > C * graph_distance(g, v, w):
            return (v, w)
    return None


def refutation_witness(
    A: int,
    m: LatticeMap,
    C: float,
    k_max: int,
    cap: int = DEFAULT_NODE_CAP,
) -> Optional[tuple[int, NodeId, NodeId]]:
    """Search for a same-generation pair violating the C-Lipschitz property.

    Only generations ``k <= k_max`` with ``A**k > (2*ceil(C)*k + 1)**dim``
    are scanned: there the pigeonhole argument guarantees two images at
    Chebyshev distance beyond ``2*ceil(C)*k >= C * d_T``, so a witness must
    exist.  Returns the lexicographically first ``(k, v, w)`` with image
    distance strictly above ``C * d_T(v, w)``, or None; a witness proves the
    map is not a mixing embedding with constant ``C``.
    """
    require((("k_max", k_max, 0), ("cap", cap, 0)), (("C", C, ">", 0),))
    closed = _closed_depth(A, m)
    ceil_c = math.ceil(C)
    for k in range(1, k_max + 1):
        size = A**k
        if size > cap:
            raise CapacityError(
                f"generation {k} holds {size} nodes, exceeding the cap of {cap}"
            )
        if size <= (2 * ceil_c * k + 1) ** m.dim:
            continue
        if closed < k:
            raise ValidationError(f"map is not generation-closed up to {k}")
        first = (size - 1) // (A - 1)
        block = m.points[first : first + size]
        scales = A ** np.arange(1, k, dtype=np.int64)
        for a in range(size - 1):
            # 0-based indices a < b differ s levels up iff b >= (a // A**s + 1) * A**s,
            # and d_T = 2 * (1 + the number of levels s in 1..k-1 where they differ)
            b = np.arange(a + 1, size)
            apart = np.searchsorted((a // scales + 1) * scales, b, side="right")
            far = np.abs(block[a + 1 :] - block[a]).max(axis=1) > C * (2 * (apart + 1))
            if far.any():
                return (k, NodeId(k, a + 1), NodeId(k, a + 2 + int(np.argmax(far))))
    return None


def mixing_transfer(envelope: MixingEnvelope, C: float) -> MixingEnvelope:
    """Transfer a mixing envelope through a C-Lipschitz embedding.

    The transferred envelope is ``n -> envelope(floor(n / C))`` for
    ``n >= C`` and the vacuous bound 1 below (the inequality says nothing
    there).  Exact provenance downgrades to assumed: the transfer is an
    upper bound, not an identity.
    """
    require(reals=(("C", C, ">=", 1),))
    provenance = "assumed" if envelope.provenance == "exact" else envelope.provenance
    return MixingEnvelope(
        kind="transferred",
        provenance=provenance,
        inner=envelope,
        scale=float(C),
    )


def breadth_first_row_layout(A: int, depth: int, dim: int) -> LatticeMap:
    """The row layout of the first ``depth+1`` generations.

    In dimension 2, generation ``j`` sits at height ``j`` with index ``k``
    at column ``k``; in dimension 1 the nodes are placed at their
    breadth-first enumeration index.
    """
    require((("depth", depth, 0), ("dim", dim, 1, 3)))  # the row layout has 1 or 2 axes
    js, ks = region_arrays(Generations(depth + 1), A)
    points = np.stack([ks, js], axis=1) if dim == 2 else np.arange(len(js))[:, None]
    return LatticeMap(dim, js, ks, points)


def packed_layout(A: int, depth: int, dim: int) -> LatticeMap:
    """A compact layout: each generation fills a near-cubical box in
    ``Z**dim``, boxes stacked generation by generation along the last axis.

    Useful as a test subject for refutation: its generations are as tight
    as an injective image can be, so the pigeonhole forces large pair
    distortion as soon as a generation outgrows its box.
    """
    require((("depth", depth, 0), ("dim", dim, 1)))
    js, ks = region_arrays(Generations(depth + 1), A)
    blocks = [np.empty((0, dim), dtype=np.int64)]
    z_offset = 0
    for j in range(depth + 1):
        size = A**j
        side = max(1, math.ceil(size ** (1.0 / dim)))
        while side**dim < size:
            side += 1
        index, layer = np.arange(size, dtype=np.int64), side ** (dim - 1)
        coords = [index // side**d % side for d in range(dim - 1)] + [index // layer + z_offset]
        blocks.append(np.stack(coords, axis=1))
        z_offset += (size - 1) // layer + 1
    return LatticeMap(dim, js, ks, np.concatenate(blocks))


def parse_lattice_map(text: str) -> LatticeMap:
    """Parse a lattice map from text lines ``j k x1 ... xN``.

    Blank lines are skipped and ``#`` starts a comment; the dimension is
    inferred from the first data line and must hold on every line.
    """
    entries: dict[NodeId, Point] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ValidationError(
                f"lattice map line {lineno}: expected 'j k x1 ... xN', got {raw!r}"
            )
        try:
            numbers = [int(p) for p in parts]
        except ValueError as exc:
            raise ValidationError(f"lattice map line {lineno}: {exc}") from exc
        node = NodeId(numbers[0], numbers[1])
        if node in entries:
            raise ValidationError(f"lattice map line {lineno}: node repeated")
        entries[node] = tuple(numbers[2:])
    if not entries:
        raise ValidationError("lattice map is empty")
    return LatticeMap.from_entries(len(next(iter(entries.values()))), entries)
