"""Bounded, centered random fields on tree regions with known dependence.

Three generative models are provided, chosen so that the hypotheses of the
tail bounds (boundedness, centering, an envelope-certified mixing rate)
hold exactly for the first two:

* ``independent``: values i.i.d. uniform on [-C, C];
* ``m_dependent``: the value at ``v`` is ``C`` times the mean of i.i.d.
  uniform [-1, 1] innovations over the tree-ball of radius ``m`` around
  ``v`` (in the infinite tree), so node sets at tree distance > 2m are
  exactly independent;
* ``branching_ar``: an autoregression down the tree, ``Z_root`` uniform on
  [-C, C] and ``Z_child = a * Z_parent + (1 - |a|) * U`` with ``U`` uniform
  on [-C, C], which keeps ``|Z| <= C`` inductively but carries no certified
  mixing envelope (its certificate is flagged heuristic).

Every innovation comes from a counter-based generator keyed on
``(master_seed, replicate_index, node)``: the SplitMix64 finalizer applied
to the three values.  Results therefore never depend on iteration order,
chunking or worker count, which is what makes Monte Carlo runs reproducible
and mergeable.

Every kind is linear in the innovations ``U`` of a support of nodes:
``Z = M U``.  :func:`field_values`, and :func:`sample_field` on a
:class:`Subtree` region, compile the field at their targets into that map (a
scale by ``C``, ball means applied by one ``bincount`` per tile of rows and
replicate, or the autoregression over parent indices) and into the
support's weights ``w = M^T 1``, one per support node.  Compiling checks
that every row of ``M`` has an l1 norm of at most ``C (1 + 1e-12)``, which
bounds every value for innovations in [-1, 1], and the values are checked
against ``C``.  On a :class:`Strip` or :class:`Generations` region,
:func:`sample_field` compiles nothing: after the checks of the region sums
below, it forms the values one generation at a time from per-generation
innovations, with the float operations of the compiled map in its order, so
every bit is the map's.

:func:`region_sums` and :func:`node_sums` build no value: a sum is ``w . U``.
On a :class:`Strip` or :class:`Generations` region, whole generations, the
weights are constant on each support generation, so :func:`region_plan`
gives them in closed form, one row per generation (its weight, its count
``A**g`` and first index 1 implied), with the row norms that the same
amplitude guard reads; no label array is built, no map compiled and no
per-node weight sorted.  A node list or a :class:`Subtree` region compiles
its map, and its support nodes enter as ranges of one node.  Either way the
kernel :func:`_sums` takes weighted label ranges, builds the node keys and
the exact-sum pieces once, and returns the tile loop, so ``verify.mc_tail``'s
worker slices share one build.  One tile of whole rows (at most
``BLOCK_VALUES`` = 2**16 innovations) at a time, the loop hashes, checks and
sums in place in a uint64 tile buffer, with a second as the hash's scratch,
both allocated once per call.  Its peak memory is those two buffers (512 KiB
each) per worker process plus the node keys, 8 bytes per support node,
whatever the replicate count.  The tile stays in cache through those passes;
it was sized for one worker.  ``verify.mc_tail`` runs each worker slice after
the first in a forked child, so the workers share no interpreter lock: two
ran the loop 1.39-1.61x as fast as one on a 2-core host (``generations(12)``,
4096 replicates, 9 interleaved runs per field), where two threads, which hand
over the lock at every numpy call, gained 1.11-1.33x.

The finalizer's first step, ``x ^ (x >> 30)``, distributes over the xor of a
replicate key and a node key, so :func:`_keys` applies it to the keys once per
call and each tile starts at the first multiply: seven numpy passes mix it
(:func:`_mix_tile`), and one shifts the top 53 bits into the scratch buffer
(:func:`_bits_tile`), the integer ``x`` of the innovation ``x * 2**-52 - 1``.
The values' path casts ``x`` to float64 from an int64 view, exact below
2**53, about twice as fast as numpy's uint64 cast, and with no tile-sized
temporary: eleven passes.  No innovation bit changes, so the guarantee holds.

The sums take two more passes and no float pass over a tile.  The support
is hashed in the stable order of its weights, each range in label order, and
each run of equal weight is cut into pieces of at most ``GROUP_COLUMNS`` =
2048 columns.  Per tile, ``x.max() < 2**53`` checks every
innovation to lie in [-1, 1), and ``np.add.reduceat`` sums each piece's
integers in uint64: 2048 values below 2**53 stay below 2048 * 2**53 = 2**64,
so the sum is exact, and less ``count * 2**52`` it is ``2**52 * sum(u)``,
exact in int64 since 2048 * 2**52 = 2**63.  Only that integer is rounded, once
per piece, to float64; it is scaled by 2**-52 (exact) and by the piece's
weight and the G pieces are added.  So a sum is within ``(G + 1) * 2**-53 *
sum |w u|`` of the exact ``w . U``, and it is the correctly rounded exact sum
when there is one piece of weight 1 (the independent field at ``C = 1`` on at
most 2048 nodes).  Integer sums do not depend on order, so the permutation
changes nothing.  A plan row expands to the nodes of its generation in label
order, and a stable sort of the rows by weight is the order a stable sort of
the per-node weights gives, so the pieces, and every bit of a sum, are those
of the compiled weights.  :func:`sample_field` returns ``(js, ks, values)``
with the int64 labels of ``tree.region_arrays``, in that label-sorted order.

The compiled m-dependent map is kept as label ranges, never as entries.  A ball's
members in one generation are one index range (``tree.ball_layer``), and the
balls of a run of consecutive targets in one generation cover one interval
there, so :func:`_ball_means` builds the support as a union of run intervals,
with no sort over entries.  It keeps one support shift per run and layer and
each target's run, and forms entries (support positions, row ids,
``C/|ball|``) one tile of whole rows at a time, at most ``BLOCK_VALUES`` of
them, in the (row, column) order of a CSR mat-vec.  With no map, the layer
``d`` of a whole target generation's balls is a reshape of generation
``j + d``'s innovations into rows of one ancestor each
(:func:`_ball_values`).

:func:`field_lines` renders a sample as CSV or JSON lines, one string per
``CSV_ROWS`` rows, and :func:`field_to_csv` joins them.  The rows go through
the numpy kernel of :mod:`treebound.rowtext`: each value's shortest
round-trip digits come from its bits by Schubfach (Giulietti, 2020; the
digits of Ryu, Adams, PLDI 2018) in uint64 arithmetic, exactly, and are laid
out by ``repr``'s rules in fixed character positions that one boolean mask
per block of rows compacts into the text.  The bytes are ``repr``'s and
``json``'s; the tests compare them on 10**6 random bit patterns and every
power of two with its neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .bounds import MixingEnvelope
from .errors import (AmplitudeError, CapacityError, ValidationError, float_in_range, is_real,
                     require)
from .rowtext import FORMATS, row_text
from .tree import (BALL_ENTRY_CAP, DEFAULT_NODE_CAP, Generations, NodeId, Region, Strip,
                   _ball_size, _generation_runs, _powers, _validate_region, ball_layer,
                   ball_sizes, low_bits, node_labels, region_arrays)

AR_TABLE_HORIZON = 64
BLOCK_VALUES = 1 << 16  # hashed values per tile: 512 KiB of uint64, cache resident
CSV_ROWS = 4096  # rows per chunk of field_lines: one string, one write
KEY_VALUES = 1 << 13  # node keys mixed per step of _keys: 64 KiB per scratch row
GROUP_COLUMNS = 2048  # columns per exact integer sum: 2048 * 2**53 = 2**64

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_C_SEED = np.uint64(0x9E3779B97F4A7C15)
_C_REP = np.uint64(0xA0761D6478BD642F)
_C_GEN = np.uint64(0xE7037ED1A0B428DB)
_C_IDX = np.uint64(0x8EBC6AF09C88C6E3)
_INV_2_52 = 1.0 / (1 << 52)  # 2 * 2**-53: maps the top 53 bits onto [0, 2) exactly
_TWO_53 = np.uint64(1 << 53)  # the innovation integers lie below it


def _xorshift(x: np.ndarray, shift: int, tmp: np.ndarray) -> np.ndarray:
    """``x ^= x >> shift`` in place; ``tmp`` is scratch of ``x``'s shape."""
    return np.bitwise_xor(x, np.right_shift(x, shift, out=tmp), out=x)


def _mix64_rest(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer after its first step, ``x ^= x >> 30``, in place."""
    _xorshift(np.multiply(x, _M1, out=x), 27, tmp)
    return _xorshift(np.multiply(x, _M2, out=x), 31, tmp)


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, applied to ``x`` in place; ``tmp`` is scratch
    of ``x``'s shape."""
    return _mix64_rest(_xorshift(x, 30, tmp), tmp)


def _mix_into(out: np.ndarray, x: np.ndarray, key: np.uint64, tmp: np.ndarray) -> np.ndarray:
    """``out = mix64(x ^ key)`` for the integers ``x`` taken modulo 2**64, in
    place in the uint64 array ``out``; ``tmp`` is scratch of its shape."""
    np.copyto(out, x, casting="unsafe")  # int64 -> uint64 keeps the bits
    return _mix64(np.bitwise_xor(out, key, out=out), tmp)


def _keys(
    seed: int, reps: np.ndarray, js: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The replicate keys ``r`` (seed folded in) and the node keys ``n``, each
    with the finalizer's first step already applied.

    The hash of (seed, replicate, node) is ``mix64(r0 ^ n0)`` for the unfolded
    keys.  A logical right shift distributes over xor, so the finalizer's first
    step on ``x = r0 ^ n0``, ``x ^ (x >> 30)``, equals
    ``(r0 ^ r0 >> 30) ^ (n0 ^ n0 >> 30)``.  Folding it into the keys once, not
    per tile, spares every tile two passes."""
    return _rep_keys(seed, reps), _node_keys(len(js), lambda a, b: (js[a:b], ks[a:b]))


def _rep_keys(seed: int, reps: np.ndarray) -> np.ndarray:
    """The folded replicate keys of :func:`_keys`, the only keys the seed enters."""
    s = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64) ^ _C_SEED
    s = _mix64(s, np.empty_like(s))
    tmp = np.empty(len(reps), dtype=np.uint64)
    r = _mix_into(np.empty_like(tmp), reps, _C_REP, tmp)
    return _xorshift(_mix64(np.bitwise_xor(r, s, out=r), tmp), 30, tmp)


def _node_keys(
    width: int, labels: Callable[[int, int], tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """The folded node keys of :func:`_keys` of ``width`` nodes, whose int64
    labels ``labels(start, stop)`` gives ``KEY_VALUES`` at a time.  They are
    mixed in place through one reused two-row scratch array, so the only
    support-sized array made is the keys'."""
    n = np.empty(width, dtype=np.uint64)
    scratch = np.empty((2, min(width, KEY_VALUES)), dtype=np.uint64)
    for start in range(0, width, KEY_VALUES):
        stop = min(start + KEY_VALUES, width)
        js, ks = labels(start, stop)
        part, (gen, spare) = n[start:stop], scratch[:, : stop - start]
        _mix_into(part, ks, _C_IDX, spare)
        part ^= _mix_into(gen, js, _C_GEN, spare)
        _xorshift(_mix64(part, spare), 30, spare)
    return n


def _mix_tile(r: np.ndarray, n: np.ndarray, h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill the uint64 buffer ``h`` of shape (len(r), len(n)) with the 64-bit
    hashes of the folded keys ``r`` and ``n`` of :func:`_keys`, in place, in
    seven numpy passes; ``tmp`` is scratch of the same shape."""
    return _mix64_rest(np.bitwise_xor(r[:, None], n, out=h), tmp)


def _bits_tile(r: np.ndarray, n: np.ndarray, h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The top 53 bits of each hash of :func:`_mix_tile`, shifted into ``tmp``
    and returned: the integers ``x`` of the innovations ``x * 2**-52 - 1``."""
    return np.right_shift(_mix_tile(r, n, h, tmp), 11, out=tmp)


def _hash_tile(r: np.ndarray, n: np.ndarray, h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill the uint64 buffer ``h`` of shape (len(r), len(n)) with the
    innovations of the folded keys ``r`` and ``n`` of :func:`_keys`, in place,
    and return its float64 view; ``tmp`` is scratch of the same shape.

    The top 53 bits are cast to float64 from ``tmp`` viewed as int64: they are
    below 2**53, so the cast is exact, and numpy casts int64 in about half the
    time of uint64.  Casting from ``tmp`` rather than onto ``h``'s own memory
    keeps numpy from allocating a tile-sized buffer for the cast."""
    u = h.view(np.float64)
    np.copyto(u, _bits_tile(r, n, h, tmp).view(np.int64))
    u *= _INV_2_52
    u -= 1.0
    return u


def _innovations(seed: int, reps: np.ndarray, js: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Uniform [-1, 1) innovations keyed on (seed, replicate, node), shape
    (len(reps), len(js)), C-contiguous; a pure function of its inputs."""
    r, n = _keys(seed, reps, js, ks)
    out = np.empty((len(r), len(n)), dtype=np.uint64)
    rows = max(1, BLOCK_VALUES // max(len(n), 1))
    tmp = np.empty((min(rows, len(r)), len(n)), dtype=np.uint64)
    for start in range(0, len(r), rows):  # whole-row tiles stay in cache through the mix
        h = out[start : start + rows]
        _hash_tile(r[start : start + rows], n, h, tmp[: len(h)])
    return out.view(np.float64)


@dataclass(frozen=True)
class FieldSpec:
    """Generative model of a bounded, centered random field on the tree."""

    kind: str
    C: float
    master_seed: int
    m: Optional[int] = None
    a: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("independent", "m_dependent", "branching_ar"):
            raise ValidationError(f"unknown field kind {self.kind!r}")
        m = (("m", self.m, 1),) if self.kind == "m_dependent" else ()
        require((("master_seed", self.master_seed, None),) + m, (("C", self.C, ">", 0),))
        if self.kind == "branching_ar" and not (is_real(self.a, ">", -1) and self.a < 1):
            raise ValidationError(f"branching_ar field needs |a| < 1, got {self.a!r}")

    @classmethod
    def independent(cls, C: float = 1.0, master_seed: int = 0) -> "FieldSpec":
        return cls(kind="independent", C=C, master_seed=master_seed)

    @classmethod
    def m_dependent(cls, m: int, C: float = 1.0, master_seed: int = 0) -> "FieldSpec":
        return cls(kind="m_dependent", C=C, master_seed=master_seed, m=m)

    @classmethod
    def branching_ar(cls, a: float, C: float = 1.0, master_seed: int = 0) -> "FieldSpec":
        return cls(kind="branching_ar", C=C, master_seed=master_seed, a=a)


class FieldCertificate(NamedTuple):
    C: float
    sigma2: float
    envelope: MixingEnvelope


def field_certificate(spec: FieldSpec) -> FieldCertificate:
    """The (C, sigma2, envelope) triple the bounds consume.

    ``sigma2`` is an upper bound for the per-node variance (C**2/3 for all
    kinds: exact for independent, conservative for the averaged and
    autoregressive kinds).  The independent and m-dependent envelopes are
    exact; the branching autoregression gets a geometric table that is only
    a plausible shape, flagged heuristic, to be tightened or refuted with
    sampled lower bounds.
    """
    float_in_range("C**2", spec.C * spec.C)  # CapacityError, not OverflowError
    sigma2 = spec.C**2 / 3.0
    if spec.kind == "independent":
        return FieldCertificate(spec.C, sigma2, MixingEnvelope.zero())
    if spec.kind == "m_dependent":
        return FieldCertificate(spec.C, sigma2, MixingEnvelope.m_dependent(spec.m))
    decay = abs(spec.a)
    values = [min(0.25, decay**n / 4.0) for n in range(1, AR_TABLE_HORIZON + 1)]
    return FieldCertificate(
        spec.C, sigma2, MixingEnvelope.table(values, provenance="heuristic")
    )


class _Compiled(NamedTuple):
    """A field at fixed targets as a linear map ``Z = M U`` of the innovations
    ``U`` of its support nodes."""

    sample: Callable[[np.ndarray], np.ndarray]  # replicate ids -> values (replicates, targets)
    weights: np.ndarray  # w = M^T 1, one per support node: sum_v Z_v = w . U
    support: tuple[np.ndarray, np.ndarray]  # support labels (js, ks)


def _check_norms(norms: np.ndarray, C: float) -> None:
    """:class:`AmplitudeError` unless every row norm of a field's map is at
    most ``C (1 + 1e-12)``, which bounds every value for innovations in
    [-1, 1]."""
    if len(norms) and norms.max() > C * (1.0 + 1e-12):
        raise AmplitudeError(
            f"a row of the field's map has l1 norm {norms.max()!r}, above the amplitude bound "
            f"C = {C!r}"
        )


def _compile(spec: FieldSpec, js: np.ndarray, ks: np.ndarray, A: int) -> _Compiled:
    """The field at targets ``(js, ks)``, built once: support, map and weights.

    Raises :class:`AmplitudeError` unless every row of ``M`` has an l1 norm of
    at most ``C (1 + 1e-12)``; the sampler still checks each value it returns.
    """
    C = spec.C
    if not len(js):
        return _Compiled(lambda reps: np.zeros((len(reps), 0)), np.zeros(0), (js, ks))
    if spec.kind == "independent":
        support, apply = (js, ks), lambda u: np.multiply(u, C, out=u)
        norms = weights = np.full(len(js), C, dtype=np.float64)
    elif spec.kind == "m_dependent":
        support, apply, norms, weights = _ball_means(js, ks, A, spec.m, C)
    else:
        support, apply, norms, weights = _autoregression(js, ks, A, spec.a, C)
    _check_norms(norms, C)

    def sample(reps: np.ndarray) -> np.ndarray:
        return _checked_values(apply(_innovations(spec.master_seed, reps, *support)), C)

    return _Compiled(sample, weights, support)


def _checked_values(values: np.ndarray, C: float) -> np.ndarray:
    """``values``, after :class:`AmplitudeError` unless each lies within
    ``C (1 + 1e-12)`` of 0."""
    limit = C * (1.0 + 1e-12)
    if values.size and not (-limit <= values.min() and values.max() <= limit):
        raise AmplitudeError(f"a sampled value lies outside the amplitude bound C = {C!r}")
    return values


def _ball_means(js: np.ndarray, ks: np.ndarray, A: int, m: int, C: float):
    """Entry ``C/|ball(v)|`` at each node of the radius-``m`` ball of target
    ``v``, kept as label ranges rather than as entries.

    Sorted, the targets fall into runs of consecutive indices in one
    generation: at most one per generation for a region, at most one per
    target for a scattered list.  By :func:`ball_layer`, a run's balls cover
    one interval of each generation they reach, so the support is the union,
    per generation, of the run intervals, with no sort over entries, and a
    label of an interval sits in the support at the label plus the shift of
    its merged interval.  What stays alive is one shift per run and layer,
    and the run of each target.

    Entries (support positions, row ids, ``C/|ball|`` products) are formed one
    tile of whole rows at a time, at most ``BLOCK_VALUES`` of them (one ball if
    that alone is wider).  A row's entries come in the (row, column) order in
    which a CSR mat-vec adds them, so one ``bincount`` per tile and replicate
    gives each value's bits, and ``np.add.at`` in row order across tiles gives
    the weights'."""
    sizes, n, layers = ball_sizes(js, ks, A, m), len(js), range(-m, m + 1)
    order = np.lexsort((ks, js))
    sj, sk = js[order], ks[order]
    new = np.empty(n + 1, dtype=bool)  # a run starts at each True; the last closes them
    new[0] = new[n] = True
    np.not_equal(sj[1:], sj[:-1], out=new[1:n])
    new[1:n] |= sk[1:] - sk[:-1] > 1
    run_j, run_lo, run_hi = sj[new[:n]], sk[new[:n]], sk[new[1:]]
    run = np.empty(n, dtype=np.min_scalar_type(len(run_j)))  # each target's run
    run[order] = np.cumsum(new[:n]) - 1
    del order, sj, sk, new
    # the interval each run's balls cover in each generation j + d they reach
    parts = []
    for d in layers:
        at = np.flatnonzero(run_j >= -d)
        lo, count = ball_layer(run_j[at], run_lo[at], A, m, d)
        end = ball_layer(run_j[at], run_hi[at], A, m, d)[0] + count  # one past the last
        parts.append((np.full(len(at), d + m), at, run_j[at] + d, lo, end))
    layer, at, gens, lo, end = (np.concatenate(part) for part in zip(*parts))
    group_j, group_lo, group_end, group = _interval_union(gens, lo, end)
    lengths = group_end - group_lo
    offsets = np.cumsum(lengths)
    width = int(offsets[-1])
    offsets -= lengths
    shift = np.zeros((len(layers), len(run_j)), dtype=np.int64)  # support position - label
    shift[layer, at] = (offsets - group_lo)[group]
    support_k = np.ones(width + 1, dtype=np.int64)
    _mark_ranges(support_k, offsets, group_lo, lengths)
    support = np.repeat(group_j, lengths), np.cumsum(support_k, out=support_k)[:width]
    # tiles of whole rows, at most BLOCK_VALUES entries or one ball
    ends, bounds = np.cumsum(sizes[np.minimum(js, m)]), [0]
    while bounds[-1] < n:
        start = bounds[-1]
        stop = np.searchsorted(ends, (ends[start - 1] if start else 0) + BLOCK_VALUES, "right")
        bounds.append(max(int(stop), start + 1))
    tiles = list(zip(bounds[:-1], bounds[1:]))
    del ends, bounds

    def entries(r0: int, r1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Support positions, row ids from 0 and ``C/|ball|`` products of the
        entries of targets ``r0 .. r1 - 1``, in CSR order."""
        j, k, runs = js[r0:r1], ks[r0:r1], run[r0:r1]
        row_sizes = sizes[np.minimum(j, m)]
        at = np.cumsum(row_sizes)
        total = int(at[-1])
        at -= row_sizes  # each row's next entry
        pos, lowest = np.ones(total + 1, dtype=np.intp), int(j.min())
        for d in layers:
            rows = slice(None) if lowest + d >= 0 else np.flatnonzero(j >= -d)
            first, count = ball_layer(j[rows], k[rows], A, m, d)
            first += shift[d + m][runs[rows]]  # the range's first support position
            _mark_ranges(pos, at[rows], first, count)
            at[rows] += count
        del at, first, count
        return (np.cumsum(pos, out=pos)[:total], np.repeat(np.arange(r1 - r0), row_sizes),
                np.repeat(C / row_sizes, row_sizes))

    norms, weights = np.empty(n), np.zeros(width)
    for r0, r1 in tiles:
        pos, row_ids, data = entries(r0, r1)
        np.add.at(weights, pos, data)
        norms[r0:r1] = np.bincount(row_ids, weights=data, minlength=r1 - r0)
        del pos, row_ids, data  # before the next tile's are formed

    def apply(u: np.ndarray) -> np.ndarray:
        out = np.empty((len(u), n))
        for r0, r1 in tiles:
            pos, row_ids, data = entries(r0, r1)
            x = np.empty(len(pos))
            for row, innovations in zip(out, u):  # contiguous rows: no transposed copies
                np.multiply(np.take(innovations, pos, out=x), data, out=x)
                row[r0:r1] = np.bincount(row_ids, weights=x, minlength=r1 - r0)
            del pos, row_ids, data, x  # before the next tile's are formed
        return out

    return support, apply, norms, weights


def _interval_union(gens: np.ndarray, lo: np.ndarray, end: np.ndarray):
    """The union, per generation, of the label intervals ``[lo, end)`` in
    ``gens``: the merged intervals' generations, starts and ends, ascending,
    and the merged interval of each input interval.

    Sorted by (generation, label), a merged interval opens where the count of
    open intervals rises from 0.  At one label openings sort first, so
    intervals that touch merge."""
    q = len(lo)
    events = np.lexsort((np.arange(2 * q) >= q, np.concatenate((lo, end)), np.tile(gens, 2)))
    opening = events < q
    cover = np.cumsum(np.where(opening, 1, -1))
    starts = opening & (cover == 1)
    group = np.empty(q, dtype=np.intp)
    group[events[opening]] = (np.cumsum(starts) - 1)[opening]
    first = events[starts]
    return gens[first], lo[first], end[events[cover == 0] - q], group


def _mark_ranges(steps: np.ndarray, at: np.ndarray, firsts: np.ndarray, counts: np.ndarray):
    """Mark the ranges ``firsts[i] .. firsts[i] + counts[i] - 1``, laid out
    from slot ``at[i]`` on, in ``steps``, which starts as ones and has a spare
    last slot: once every range is marked, the running sum of ``steps`` holds
    them.  Each range adds its first value less 1 at its first slot and takes
    its last value off one slot past it."""
    steps[at] += firsts - 1
    steps[at + counts] -= firsts + counts - 1


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, ascending: ``np.unique`` without the
    ``numpy.ma`` import it makes on first use (about 14 ms per process)."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _autoregression(js: np.ndarray, ks: np.ndarray, A: int, a: float, C: float):
    """``Z_root = C U`` and ``Z_v = a Z_parent + (1 - |a|) C U_v`` over the
    ancestor closure of the targets, one generation slice at a time.

    A target's weight reaches each ancestor through ``a`` per generation, so
    the weights come from one pass up the slices: ``d_v`` is the number of
    times ``v`` is a target plus ``a`` times the sum of its children's ``d``."""
    levels, local = [None] * (int(js.max()) + 1), np.empty(len(js), dtype=np.intp)
    level = np.empty(0, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        at = js == j
        levels[j] = level = _sorted_distinct(np.concatenate((ks[at], (level - 1) // A + 1)))
        local[at] = np.searchsorted(level, ks[at])
    starts = np.cumsum([0] + [len(level) for level in levels])
    parents = [
        starts[j - 1] + np.searchsorted(levels[j - 1], (levels[j] - 1) // A + 1)
        for j in range(1, len(levels))
    ]
    rows = starts[js] + local
    identity = np.array_equal(rows, np.arange(starts[-1]))
    step = (1.0 - abs(a)) * C

    def apply(u: np.ndarray) -> np.ndarray:
        u[:, 0] *= C
        for j, parent_cols in enumerate(parents, start=1):
            z = u[:, starts[j] : starts[j + 1]]
            z *= step
            z += a * np.take(u, parent_cols, axis=1)
        return u if identity else np.take(u, rows, axis=1)

    norms, d = np.empty(starts[-1]), np.bincount(rows, minlength=starts[-1]).astype(np.float64)
    norms[0] = C
    for j, parent_cols in enumerate(parents, start=1):
        norms[starts[j] : starts[j + 1]] = abs(a) * norms[parent_cols] + abs(step)
    for j in range(len(parents), 0, -1):
        d[starts[j - 1] : starts[j]] += a * np.bincount(
            parents[j - 1] - starts[j - 1], weights=d[starts[j] : starts[j + 1]],
            minlength=starts[j] - starts[j - 1],
        )
    weights = step * d
    weights[0] = C * d[0]
    support_j = np.repeat(np.arange(len(levels), dtype=np.int64), np.diff(starts))
    return (support_j, np.concatenate(levels)), apply, norms, weights


class RegionPlan(NamedTuple):
    """A field's region sum on a :class:`Strip` or :class:`Generations` region,
    one row per support generation, with no node built: each of the ``A**g``
    nodes (indices from 1) of support generation ``g = generations[i]``
    carries the weight ``weights[i]`` of ``sum_v Z_v = w . U``.  ``norms[i]``
    is the l1 norm of every row of the field's map at the region's ``i``-th
    generation, which the amplitude guard reads."""

    generations: np.ndarray  # int64, ascending
    weights: np.ndarray  # float64, one per support generation
    norms: np.ndarray  # float64, one per region generation


def region_plan(spec: FieldSpec, region: Region, A: int) -> RegionPlan:
    """The weights of ``spec`` on ``region`` (a :class:`Strip` or
    :class:`Generations`), per support generation, in closed form; no node
    cap applies, and a plan of ``Generations(10**5)`` takes about 0.1 s.

    With target generations ``[t0, t1)``:

    * ``independent``: the weight ``C`` on each target generation;
    * ``branching_ar``: generations ``0 .. t1 - 1``, the recursion of
      :func:`_autoregression` on one value per generation;
    * ``m_dependent``: generations ``max(0, t0 - m) .. t1 - 1 + m``, the ball
      shares of :func:`_ball_means` summed per generation.

    Each weight is summed in the order and the float steps in which the
    compiled map adds it, so it equals every per-node weight of
    :func:`_compile` at that generation bit for bit.
    """
    if not isinstance(region, (Strip, Generations)):
        raise ValidationError(f"a region plan needs a strip or generations region, got {region!r}")
    _validate_region(region, A)
    t0, t1 = _target_generations(region)
    C = float(spec.C)
    if spec.kind == "independent" or t0 == t1:
        return RegionPlan(np.arange(t0, t1, dtype=np.int64), *(np.full(t1 - t0, C),) * 2)
    if spec.kind == "m_dependent":
        return _ball_plan(t0, t1, A, spec.m, C)
    return _autoregression_plan(t0, t1, A, spec.a, C)


def _target_generations(region: Strip | Generations) -> tuple[int, int]:
    """The generations ``[t0, t1)`` that ``region`` holds in full."""
    if isinstance(region, Strip):
        return region.level, region.level + region.depth
    return 0, region.count


def _checked_plan(spec: FieldSpec, region: Strip | Generations, A: int) -> RegionPlan:
    """:func:`region_plan` of ``region`` after every refusal that comes before
    hashing, all decided from its generations: the node cap and the 63-bit
    labels, for the m-dependent field the cap on ball members, and the
    amplitude guard on the plan's row norms."""
    runs = _generation_runs(region, A, DEFAULT_NODE_CAP)
    if spec.kind == "m_dependent" and runs:  # a whole generation's largest index is its count
        js, _, counts = (np.array(column, dtype=np.int64) for column in zip(*runs))
        ball_sizes(js, counts, A, spec.m, counts)
    plan = region_plan(spec, region, A)
    _check_norms(plan.norms, spec.C)
    return plan


def _added(total: float, x: float, times: int) -> float:
    """``total`` with ``x`` added ``times`` times in sequence in float64, as
    ``np.bincount`` and ``np.add.at`` add equal values into one slot; ``total``
    is 0 or of the sign of ``x``.

    Rounding to nearest is symmetric, so take ``x >= 0``.  The floats of one
    binade are evenly spaced, so once a step has stayed in a binade (and a tie
    has rounded to an even multiple of the spacing), every further step in it
    adds one amount: two real steps measure it, and all but the last two
    steps that stay in the binade are taken at once, exactly.  The cost grows
    with the binades crossed, about ``log2(times)``, not with ``times``."""
    if x < 0.0:
        return -_added(-total, -x, times)
    while times and total < math.inf:
        nxt = total + x
        times -= 1
        if times and total > 0.0 and math.frexp(nxt)[1] == math.frexp(total)[1]:
            after = nxt + x
            times -= 1
            binade = math.frexp(after)[1]
            if binade == math.frexp(nxt)[1]:
                step = after - nxt  # exact: both lie in one binade
                half = math.ldexp(1.0, binade - 1)  # the binade is [half, 2 half): no overflow
                room = int((half - after + half) // step) - 2 if step else times
                jump = max(0, min(times, room))
                after += jump * step  # exact: a multiple of the spacing inside the binade
                times -= jump
            nxt = after
        total = nxt
    return total


def _ball_plan(t0: int, t1: int, A: int, m: int, C: float) -> RegionPlan:
    """:func:`_ball_means` per generation of the targets ``[t0, t1)``.

    A node ``u`` of generation ``g`` lies in the balls of the
    ``A**(min((m - d) // 2, g) + d)`` target nodes of generation ``g + d``
    that :func:`ball_layer` counts at ``(g, 1)`` (distance is symmetric), and
    ``np.add.at`` adds their shares ``C/|ball|`` in row order: ``d``
    ascending, one share that many times in sequence.  That profile depends on
    ``g`` only through ``min(g, 2m)`` and the targets within ``m`` of ``g``,
    so each distinct profile is summed once.

    Raises :class:`CapacityError` when one ball holds more than
    ``BALL_ENTRY_CAP`` members, decided before ``A**m`` is formed."""
    if low_bits(A, m) >= BALL_ENTRY_CAP.bit_length() or _ball_size(m, A, m) > BALL_ENTRY_CAP:
        raise CapacityError(f"a radius-{m} ball holds more than {BALL_ENTRY_CAP} members, "
                            f"the cap on ball members in all")
    sizes = [_ball_size(j, A, m) for j in range(m + 1)]  # by the center's generation, clipped
    shares = [C / size for size in sizes]
    row_norms = [_added(0.0, share, size) for share, size in zip(shares, sizes)]
    gens = np.arange(max(0, t0 - m), t1 + m, dtype=np.int64)
    profiles, weights = {}, []
    for g in gens.tolist():
        lo, hi = max(t0 - g, -m), min(t1 - 1 - g, m)  # the target generations g + d
        key = (min(g, 2 * m), lo, hi)
        if key not in profiles:
            w = 0.0
            for d in range(lo, hi + 1):
                w = _added(w, shares[min(g + d, m)], A ** (min((m - d) // 2, g) + d))
            profiles[key] = w
        weights.append(profiles[key])
    norms = np.array(row_norms)[np.minimum(np.arange(t0, t1), m)]
    return RegionPlan(gens, np.array(weights), norms)


def _autoregression_plan(t0: int, t1: int, A: int, a: float, C: float) -> RegionPlan:
    """:func:`_autoregression` per generation of the targets ``[t0, t1)``: the
    support is generations ``0 .. t1 - 1``, ``d_j`` is 1 on a target
    generation plus ``a`` times its ``A`` children's ``d_{j+1}`` added in
    sequence (as ``np.bincount`` adds them), and the weight is
    ``(1 - |a|) C d_j``, ``C d_0`` at the root.

    Raises :class:`CapacityError` when a weight leaves float range, which
    ``A |a| > 1`` brings about past a few hundred generations."""
    step, d = (1.0 - abs(a)) * C, [1.0] * t1
    for j in range(t1 - 2, -1, -1):
        d[j] = float(j >= t0) + a * _added(0.0, d[j + 1], A)
    weights = np.multiply(step, d)
    weights[0] = C * d[0]
    float_in_range("a plan weight", np.abs(weights).max())
    norms = [C]
    for _ in range(1, t1):
        norms.append(abs(a) * norms[-1] + abs(step))
    return RegionPlan(np.arange(t1, dtype=np.int64), weights, np.array(norms[t0:]))


def _replicate_ids(replicates: Sequence[int]) -> np.ndarray:
    """Replicate ids as uint64; :class:`ValidationError` unless each is an
    integer in ``[0, 2**64)``.  A ``range`` is checked by its ends, which bound
    it, and built by ``np.arange``."""
    if isinstance(replicates, range):
        r = replicates
        if not r:
            return np.zeros(0, dtype=np.uint64)
        if 0 <= r[0] < 1 << 64 and 0 <= r[-1] < 1 << 64:
            ids = np.arange(len(r), dtype=np.uint64)
            ids *= np.uint64(abs(r.step))
            if r.step > 0:
                return np.add(ids, np.uint64(r[0]), out=ids)
            return np.subtract(np.uint64(r[0]), ids, out=ids)
        bad = r[0]
        if 0 <= bad < 1 << 64:  # the first id past the end the range crosses
            bad = r[((1 << 64) - 1 - bad if r.step > 0 else bad) // abs(r.step) + 1]
        raise _replicate_error(bad)
    ids = list(replicates)
    for r in ids:
        if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or not 0 <= r < 1 << 64:
            raise _replicate_error(r)
    return np.array(ids, dtype=np.uint64)


def _replicate_error(r) -> ValidationError:
    return ValidationError(f"replicate ids must be integers in [0, 2**64), got {r!r}")


def field_values(
    spec: FieldSpec, nodes: Sequence[NodeId], A: int, replicates: Sequence[int]
) -> np.ndarray:
    """Field values at ``nodes`` for each replicate; shape (len(replicates), len(nodes)).

    Deterministic given (master_seed, replicate, node); independent of the
    order in which replicates are batched.
    """
    return _compile(spec, *node_labels(nodes, A), A).sample(_replicate_ids(replicates))


def sample_field(
    spec: FieldSpec, region: Region, A: int, replicate_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One realization of the field on ``region``: the int64 labels ``(js, ks)``
    in region order, which is label-sorted, and the values at them.

    A :class:`Strip` or :class:`Generations` region first passes the refusals
    of :func:`region_sums_of`; its values are then formed one generation at a
    time, with the float operations of :func:`_compile`'s map in its order,
    so every bit is its, and no map, support labels or weights are built:

    * ``independent``: ``C U``, the region hashed in one call;
    * ``branching_ar``: ``Z_root = C U_root`` and ``Z_g = step U_g + a
      repeat(Z_{g-1}, A)`` (:func:`_autoregression_generations`); the
      generations above a strip are hashed in one call, and only their last
      is kept, for the strip's first generation to read;
    * ``m_dependent``: :func:`_ball_values`.

    A :class:`Subtree` region is compiled."""
    if not isinstance(region, (Strip, Generations)):
        js, ks = region_arrays(region, A)
        return js, ks, _compile(spec, js, ks, A).sample(_replicate_ids([replicate_index]))[0]
    _checked_plan(spec, region, A)
    reps, seed = _replicate_ids([replicate_index]), spec.master_seed
    t0, t1 = _target_generations(region)
    if spec.kind == "m_dependent":  # labels last: the peak is at the deepest support generation
        values = _ball_values(seed, reps, t0, t1, A, spec.m, spec.C)
        return (*region_arrays(region, A), _checked_values(values, spec.C))
    prev = None
    if spec.kind == "branching_ar" and t0:  # a strip reads only the last generation above it
        above = _innovations(seed, reps, *region_arrays(Generations(t0), A))[0]
        prev = _autoregression_generations(above, 0, A, spec.a, spec.C, None).copy()
        del above
    js, ks = region_arrays(region, A)
    values = _innovations(seed, reps, js, ks)[0]
    if spec.kind == "independent":
        values *= spec.C
    else:
        _autoregression_generations(values, t0, A, spec.a, spec.C, prev)
    return js, ks, _checked_values(values, spec.C)


def _autoregression_generations(
    u: np.ndarray, g0: int, A: int, a: float, C: float, prev: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """The autoregression, in place, on the innovations ``u`` of whole
    generations from ``g0`` on, in label order, with the float steps of
    :func:`_autoregression`'s ``apply``, given the values ``prev`` of
    generation ``g0 - 1`` (``None`` at the root); returns the values of the
    last generation."""
    step, at, g = (1.0 - abs(a)) * C, 0, g0
    while at < len(u):
        z = u[at : at + A**g]
        if prev is None:
            z *= C
        else:
            z *= step
            z += a * np.repeat(prev, A)
        prev, at, g = z, at + A**g, g + 1
    return prev


def _ball_values(
    seed: int, reps: np.ndarray, t0: int, t1: int, A: int, m: int, C: float
) -> np.ndarray:
    """The radius-``m`` ball means of replicate ``reps[0]`` on the whole
    generations ``[t0, t1)``, in label order, one target generation ``j`` at
    a time, from the innovations of the ``2m + 1`` generations its balls
    reach; each support generation is hashed once, in one call.

    By :func:`ball_layer`, layer ``d`` of the ball of ``(j, k)`` is row
    ``(k - 1) // A**up`` of generation ``j + d`` cut into rows of
    ``A**(up + d)``, with ``up = min((m - d) // 2, j)``, shared by the
    ``A**up`` targets below one ancestor.  :func:`_ball_means` adds a
    target's entries ``u * C/|ball|`` to 0 in sequence, ``d`` ascending and
    then along the row, and each running total here takes them in that
    order: a block of columns of the rows at a time, repeated per target, at
    most ``BLOCK_VALUES`` entries (one column if the targets alone are more),
    gets the totals added to its first column and is accumulated along its
    rows (a sequential running sum, not a pairwise one), its last column the
    new totals."""
    values, at, window = np.empty(int(_powers(A)[t0:t1].sum())), 0, {}
    for j in range(t0, t1):
        window.pop(j - m - 1, None)  # no ball of generation j or deeper reaches it
        for g in range(max(0, j - m), j + m + 1):
            if g not in window:
                window[g] = _innovations(seed, reps, np.full(A**g, g), np.arange(1, A**g + 1))[0]
        total, at = values[at : at + A**j], at + A**j
        total[:] = 0.0
        share = C / _ball_size(min(j, m), A, m)  # by the center's generation, clipped
        width = max(1, BLOCK_VALUES // len(total))
        for d in range(-min(j, m), m + 1):
            up = min((m - d) // 2, j)
            rows = window[j + d].reshape(-1, A ** (up + d))
            for e in range(0, rows.shape[1], width):
                block = np.repeat(rows[:, e : e + width] * share, A**up, axis=0)
                if block.shape[1] == 1:
                    total += block[:, 0]
                else:
                    block[:, 0] += total
                    np.add.accumulate(block, axis=1, out=block)
                    total[:] = block[:, -1]
    return values


def _range_labels(gens, firsts, counts, ends, start: int, stop: int):
    """The int64 labels ``(js, ks)`` of columns ``start .. stop - 1`` of the
    label ranges laid end to end: range ``i``, the ``counts[i]`` indices from
    ``firsts[i]`` in generation ``gens[i]``, ends before column ``ends[i]``."""
    lo = int(np.searchsorted(ends, start, "right"))
    hi = int(np.searchsorted(ends, stop, "left")) + 1  # ranges lo .. hi - 1 meet the columns
    begin = ends[lo:hi] - counts[lo:hi]
    skip = np.maximum(begin, start) - begin  # columns of the first range before start
    lengths = np.minimum(ends[lo:hi], stop) - begin - skip
    ks = np.ones(stop - start + 1, dtype=np.int64)
    _mark_ranges(ks, begin + skip - start, firsts[lo:hi] + skip, lengths)
    return np.repeat(gens[lo:hi], lengths), np.cumsum(ks, out=ks)[: stop - start]


def _sums(
    spec: FieldSpec, gens: np.ndarray, firsts: np.ndarray, counts: np.ndarray,
    weights: np.ndarray,
) -> Callable[[Sequence[int]], np.ndarray]:
    """``w . U`` per replicate, as a function of the replicates, over weighted
    label ranges: the ``counts[i]`` nodes ``(gens[i], firsts[i] ..)`` each
    carry the weight ``weights[i]``.

    The ranges are sorted by weight (stable) and laid end to end in that
    order, each in label order; each run of equal weight is cut into pieces of
    at most ``GROUP_COLUMNS`` columns.  The node keys and the pieces are built
    here, once; the function returned hashes, in tiles of at most
    ``BLOCK_VALUES`` values (one row if that alone is wider), through two tile
    buffers allocated per call.  Per tile, each piece sums its innovation
    integers ``x`` exactly in uint64 (at most 2048 values below 2**53); less
    ``count * 2**52`` it is ``2**52 * sum(u)``, exact in int64, and only then
    goes to float64."""
    order = np.argsort(weights, kind="stable")
    gens, firsts, counts, weights = (x[order] for x in (gens, firsts, counts, weights))
    ends = np.cumsum(counts)
    width = int(ends[-1]) if len(ends) else 0
    opens = np.ones(len(weights), dtype=bool)  # the ranges that open a run of equal weight
    np.not_equal(weights[1:], weights[:-1], out=opens[1:])
    starts = (ends - counts)[opens]  # each run's first column
    pieces = -(-np.diff(starts, append=width) // GROUP_COLUMNS)
    first = np.repeat(np.cumsum(pieces) - pieces, pieces)  # each piece's run's first piece
    cuts = np.repeat(starts, pieces) + GROUP_COLUMNS * (np.arange(len(first)) - first)
    offsets = np.diff(cuts, append=width).astype(np.uint64) << np.uint64(52)
    piece_weights = np.repeat(weights[opens], pieces)
    n = _node_keys(width, lambda a, b: _range_labels(gens, firsts, counts, ends, a, b))

    def sums(replicates: Sequence[int]) -> np.ndarray:
        reps = _replicate_ids(replicates)
        if not width:
            return np.zeros(len(reps))
        r = _rep_keys(spec.master_seed, reps)
        out = np.empty(len(reps), dtype=np.float64)
        rows = max(1, BLOCK_VALUES // width)
        h = np.empty((min(rows, len(reps)), width), dtype=np.uint64)
        tmp = np.empty_like(h)
        for start in range(0, len(reps), rows):  # hash, check and sum one cached tile
            stop = min(start + rows, len(reps))
            x = _bits_tile(r[start:stop], n, h[: stop - start], tmp[: stop - start])
            if not x.max() < _TWO_53:
                raise AmplitudeError(
                    f"an innovation lies outside [-1, 1), so the amplitude bound C = {spec.C!r} "
                    "fails"
                )
            group = np.add.reduceat(x, cuts, axis=1)
            group -= offsets  # modulo 2**64: the int64 view holds the exact difference
            part = group.view(np.int64).astype(np.float64)
            part *= _INV_2_52
            part *= piece_weights
            part.sum(axis=1, out=out[start:stop])
        return out

    return sums


def region_sums_of(
    spec: FieldSpec, region: Region, A: int
) -> Callable[[Sequence[int]], np.ndarray]:
    """:func:`region_sums` as a function of the replicates: every check, the
    weights and the node keys come first, once, so that each call (a worker's
    slice of replicates) runs only the tile loop.

    A :class:`Strip` or :class:`Generations` region is checked against the
    node cap, the 63-bit labels and, for the m-dependent field, the cap on
    ball members, all from its generations; then its weights come from
    :func:`region_plan`, one row per support generation, and pass the
    amplitude guard.  No label array, map or per-node weight is built.  A
    :class:`Subtree` region is compiled, and its support nodes enter as ranges
    of one node."""
    if not isinstance(region, (Strip, Generations)):
        return _compiled_sums(spec, *region_arrays(region, A), A)
    plan = _checked_plan(spec, region, A)
    counts = _powers(A)[plan.generations]
    return _sums(spec, plan.generations, np.ones_like(counts), counts, plan.weights)


def _compiled_sums(spec: FieldSpec, js: np.ndarray, ks: np.ndarray, A: int):
    """:func:`_sums` over the compiled support of targets ``(js, ks)``, one
    node per range."""
    field = _compile(spec, js, ks, A)
    ones = np.ones(len(field.weights), dtype=np.int64)
    return _sums(spec, *field.support, ones, field.weights)


def region_sums(
    spec: FieldSpec,
    region: Region,
    A: int,
    replicates: Sequence[int],
) -> np.ndarray:
    """``sum_v Z_v`` over ``region`` for each replicate, in blocks of bounded memory.

    The sum is ``w . U``: one weight per support node, ``w = M^T 1``, so no
    value is built.  On a :class:`Strip` or :class:`Generations` region the
    weights are constant on each support generation and come from
    :func:`region_plan` in closed form: ``C`` for the independent field, the
    backward recursion of the autoregression, the ball shares of the
    m-dependent field, each summed in the order and the float steps in which
    the compiled map adds them, so they equal its per-node weights bit for
    bit.  No label array, map or per-node sort is built; the node keys are
    hashed from the plan's label ranges.  A :class:`Subtree` region compiles
    its map.

    The support is hashed in the stable order of its weights, each support
    generation in label order: a stable sort of the plan rows gives the order
    a stable argsort of the per-node weights gives, so the pieces below, and
    the bits of every sum, do not depend on which path built the weights.  A
    tile holds whole rows, at most ``BLOCK_VALUES`` hashed values (one row of
    the support if that alone is wider).  It is hashed, checked and summed in
    place in a uint64 tile buffer, with a second as the hash's scratch, both
    allocated once per call, so peak memory is those two buffers plus the
    node keys (8 bytes per support node), whatever the replicate count.  Each
    piece of at most ``GROUP_COLUMNS`` = 2048 support nodes of equal weight
    sums its innovations exactly as integers (2048 * 2**52 = 2**63 bounds the
    centred sum), and only the G piece sums are rounded, weighted and added,
    so the result is within ``(G + 1) * 2**-53 * sum |w u|`` of the exact
    ``w . U``, and is its correctly rounded value for one piece of weight 1.
    Tile boundaries and worker counts do not affect the result: each
    replicate's sum is a row-wise reduction of innovations that depend only
    on (seed, replicate, node).  It agrees with the sum of
    :func:`field_values` to rounding.
    """
    return region_sums_of(spec, region, A)(replicates)


def node_sums(
    spec: FieldSpec, nodes: Sequence[NodeId], A: int, replicates: Sequence[int]
) -> np.ndarray:
    """``sum_v Z_v`` over ``nodes`` (a repeated node counts each time) for each
    replicate, computed as :func:`region_sums` computes a region's, from the
    compiled weights."""
    return _compiled_sums(spec, *node_labels(nodes, A), A)(replicates)


def field_lines(
    sample: tuple[np.ndarray, np.ndarray, np.ndarray], fmt: str = "csv"
) -> Iterator[str]:
    """The rows ``(j, k, value)`` of a :func:`sample_field` result as text,
    one string per ``CSV_ROWS`` rows: CSV lines ``j,k,value`` after that
    header, or (``fmt="json"``) JSON lines ``{"j": j, "k": k, "value": value}``,
    each value as ``repr`` prints it.  See :mod:`treebound.rowtext`."""
    js, ks = (np.ascontiguousarray(labels, dtype=np.int64) for labels in sample[:2])
    values = np.ascontiguousarray(sample[2], dtype=np.float64)
    head = FORMATS[fmt][0]
    if not len(values):
        yield head
        return
    render = row_text(js, ks, values, fmt)
    for start in range(0, len(values), CSV_ROWS):
        yield render(start, min(start + CSV_ROWS, len(values)), head)
        head = ""


def field_to_csv(sample: tuple[np.ndarray, np.ndarray, np.ndarray]) -> str:
    """Debug dump of a :func:`sample_field` result as CSV lines ``j,k,value``:
    the chunks of :func:`field_lines`, joined."""
    return "".join(field_lines(sample))
