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

Values are formed over label runs ``(generation, first index, count)``,
consecutive indices of one generation: :func:`sample_field` takes a region's
generations as its runs, and :func:`field_values` sorts its labels into runs
of distinct labels and scatters the values back to their order.  Runs are
also the only form in which a node set reaches the hash: :func:`_innovations`
and :func:`_sums` take runs, and :func:`_node_keys` expands them
``KEY_VALUES`` labels at a time (:func:`treebound.tree.run_labels`), so no
label array is built only to be hashed.  Every kind is linear in the
innovations ``U`` of a support of nodes, ``Z = M U``, and per run it is:

* ``independent``: ``C U``;
* ``branching_ar``: ``C U`` at the root and ``step U + a Z_parent`` below.
  The parents of a run are a run, so each generation of a region reads the
  one above it, and any other run first forms its ancestors from the root;
* ``m_dependent``: layer ``d`` of a run's balls is one block-aligned interval
  of generation ``j + d``: a reshape of its innovations, with each row
  repeated over the ``A**up`` targets below it (:func:`_ball_values`).

The float steps are those of a mat-vec with ``M`` in row order.  Before any
hashing, the m-dependent balls pass the cap on ball members, the
autoregression's ancestors the node cap, and every row of ``M`` an l1 norm of
at most ``C (1 + 1e-12)`` (read per generation), which bounds every value for
innovations in [-1, 1]; the values are then checked against ``C``.

On a :class:`Strip` or :class:`Generations` region, whole generations,
:func:`region_sums` builds no value: a sum is ``w . U``, and the weights
``w = M^T 1`` are constant on each support generation, so
:func:`region_plan` gives them in closed form, one row per generation.  The
kernel :func:`_sums` takes weighted label runs, builds the node keys and
the exact-sum pieces once, and returns the tile loop, so ``verify.mc_tail``'s
worker slices share one build.  One tile of whole rows (at most
``BLOCK_VALUES`` = 2**16 innovations) at a time, the loop hashes, checks and
sums in place in a uint64 tile buffer, with a second as the hash's scratch,
both allocated once per call: its peak memory is those two buffers (512 KiB
each) per worker process plus the node keys, 8 bytes per support node,
whatever the replicate count.  A :class:`Subtree` region, and
:func:`node_sums` on a node list, add sampled values instead, the values of
at most ``BLOCK_VALUES`` at a time, with the node keys of each run built
once per call and shared by its tiles (:func:`_key_memo`).

The finalizer's first step, ``x ^ (x >> 30)``, distributes over the xor of a
replicate key and a node key, so :func:`_rep_keys` and :func:`_node_keys`
apply it to the keys once per call and each tile starts at the first
multiply: seven numpy passes mix it (:func:`_mix_tile`), and one shifts the
top 53 bits into the scratch buffer (:func:`_bits_tile`), the integer ``x``
of the innovation ``x * 2**-52 - 1``.  The values' path casts ``x`` to
float64 from an int64 view, exact below 2**53, about twice as fast as
numpy's uint64 cast, and with no tile-sized temporary: eleven passes.  No
innovation bit changes, so the guarantee holds.

The sums take two more passes and no float pass over a tile.  The support
is hashed in the stable order of its weights, each run in label order, and
each stretch of equal weight is cut into pieces of at most ``GROUP_COLUMNS``
= 2048 columns.  Per tile, ``x.max() < 2**53`` checks every innovation to
lie in [-1, 1), and ``np.add.reduceat`` sums each piece's integers in
uint64: 2048 values below 2**53 stay below 2048 * 2**53 = 2**64,
so the sum is exact, and less ``count * 2**52`` it is ``2**52 * sum(u)``,
exact in int64 since 2048 * 2**52 = 2**63.  Only that integer is rounded, once
per piece, to float64; it is scaled by 2**-52 (exact) and by the piece's
weight and the G pieces are added.  So a sum is within ``(G + 1) * 2**-53 *
sum |w u|`` of the exact ``w . U``, and it is the correctly rounded exact sum
when there is one piece of weight 1 (the independent field at ``C = 1`` on at
most 2048 nodes).  Integer sums do not depend on order, so the stable sort of
the plan's rows by weight changes nothing.

:func:`field_lines` renders a sample as CSV or JSON lines, one string per
block of ``TEXT_ROWS`` (3328) rows that the numpy kernel of
:mod:`treebound.rowtext` yields, and :func:`field_to_csv` joins them.  Each
value's shortest round-trip digits come from its bits by Schubfach
(Giulietti, 2020; the digits of Ryu, Adams, PLDI 2018) in uint64
arithmetic, exactly, and are laid out by ``repr``'s rules in fixed
character positions, 0 where a row has no character, which one boolean
mask per block of rows compacts into the text.  One work array of about
128 bytes a row serves every stage of a block, which with the block's text
peaks at about 185 bytes a row, so a block of ``TEXT_ROWS`` rows stays
within 616 KiB.  The bytes are ``repr``'s and ``json``'s; the tests compare
them on 10**6 random bit patterns and every power of two with its
neighbours.

:func:`region_sums`, :func:`node_sums` and :func:`field_values` refuse more
than ``REPLICATE_VALUES`` = 2**28 returned values (replicates times values
per replicate, 2 GiB of float64) with :class:`CapacityError`, counted from
the replicates before any array of them.  ``verify.mc_tail`` sums its
replicates in blocks through :func:`region_sums_of` instead, under its own
cap on hashed values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .bounds import MixingEnvelope
from .errors import (AmplitudeError, CapacityError, ValidationError, float_in_range, is_real,
                     require)
from .rowtext import FORMATS, row_text
from .tree import (BALL_ENTRY_CAP, DEFAULT_NODE_CAP, Generations, NodeId, Region, Run, Strip,
                   _ball_size, _generation_runs, _validate_region, ball_sizes,
                   generation_span, low_bits, node_labels, run_labels)

AR_TABLE_HORIZON = 64
AR_WALK_GENERATIONS = 1 << 16  # ancestor generations one autoregression walks: ~0.4 s, 18 MiB
BLOCK_VALUES = 1 << 16  # hashed values per tile: 512 KiB of uint64, cache resident
KEY_VALUES = 1 << 13  # node keys mixed per step of _node_keys: 64 KiB per scratch row
GROUP_COLUMNS = 2048  # columns per exact integer sum: 2048 * 2**53 = 2**64
REPLICATE_VALUES = 1 << 28  # values one region_sums, node_sums or field_values call returns: 2 GiB

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


def _rep_keys(seed: int, reps: np.ndarray) -> np.ndarray:
    """The replicate keys ``r``, the seed folded in, with the finalizer's first
    step already applied, as :func:`_node_keys` applies it to the node keys.

    The hash of (seed, replicate, node) is ``mix64(r0 ^ n0)`` for the unfolded
    keys.  A logical right shift distributes over xor, so the finalizer's first
    step on ``x = r0 ^ n0``, ``x ^ (x >> 30)``, equals
    ``(r0 ^ r0 >> 30) ^ (n0 ^ n0 >> 30)``.  Folding it into the keys once, not
    per tile, spares every tile two passes."""
    s = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64) ^ _C_SEED
    s = _mix64(s, np.empty_like(s))
    tmp = np.empty(len(reps), dtype=np.uint64)
    r = _mix_into(np.empty_like(tmp), reps, _C_REP, tmp)
    return _xorshift(_mix64(np.bitwise_xor(r, s, out=r), tmp), 30, tmp)


def _node_keys(runs: Sequence[Run]) -> np.ndarray:
    """The node keys ``n`` of the labels of ``runs`` laid end to end, with the
    finalizer's first step applied (see :func:`_rep_keys`).  The labels are
    expanded ``KEY_VALUES`` at a time (:func:`~treebound.tree.run_labels`) and
    mixed in place through one reused two-row scratch array, so the only
    support-sized array made is the keys'."""
    runs = np.asarray(runs, dtype=np.int64).reshape(-1, 3)
    width = int(runs[:, 2].sum())
    n = np.empty(width, dtype=np.uint64)
    scratch = np.empty((2, min(width, KEY_VALUES)), dtype=np.uint64)
    for start in range(0, width, KEY_VALUES):
        stop = min(start + KEY_VALUES, width)
        js, ks = run_labels(runs, start, stop)
        part, (gen, spare) = n[start:stop], scratch[:, : stop - start]
        _mix_into(part, ks, _C_IDX, spare)
        part ^= _mix_into(gen, js, _C_GEN, spare)
        _xorshift(_mix64(part, spare), 30, spare)
    return n


def _mix_tile(r: np.ndarray, n: np.ndarray, h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill the uint64 buffer ``h`` of shape (len(r), len(n)) with the 64-bit
    hashes of the folded keys ``r`` and ``n`` (:func:`_rep_keys`,
    :func:`_node_keys`), in place, in
    seven numpy passes; ``tmp`` is scratch of the same shape."""
    return _mix64_rest(np.bitwise_xor(r[:, None], n, out=h), tmp)


def _bits_tile(r: np.ndarray, n: np.ndarray, h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The top 53 bits of each hash of :func:`_mix_tile`, shifted into ``tmp``
    and returned: the integers ``x`` of the innovations ``x * 2**-52 - 1``."""
    return np.right_shift(_mix_tile(r, n, h, tmp), 11, out=tmp)


def _hash_tile(r: np.ndarray, n: np.ndarray, h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill the uint64 buffer ``h`` of shape (len(r), len(n)) with the
    innovations of the folded keys ``r`` and ``n`` of :func:`_mix_tile`, in
    place, and return its float64 view; ``tmp`` is scratch of the same shape.

    The top 53 bits are cast to float64 from ``tmp`` viewed as int64: they are
    below 2**53, so the cast is exact, and numpy casts int64 in about half the
    time of uint64.  Casting from ``tmp`` rather than onto ``h``'s own memory
    keeps numpy from allocating a tile-sized buffer for the cast."""
    u = h.view(np.float64)
    np.copyto(u, _bits_tile(r, n, h, tmp).view(np.int64))
    u *= _INV_2_52
    u -= 1.0
    return u


def _key_memo() -> Callable[[Sequence[Run]], np.ndarray]:
    """:func:`_node_keys` remembered by its runs, for a caller that hashes the
    same runs once per tile of replicates: each is keyed once per call."""
    memo: dict[tuple, np.ndarray] = {}

    def keys(runs: Sequence[Run]) -> np.ndarray:
        key = tuple(map(tuple, runs))
        if key not in memo:
            memo[key] = _node_keys(runs)
        return memo[key]

    return keys


def _innovations(
    seed: int, reps: np.ndarray, runs: Sequence[Run],
    keys: Optional[Callable[[Sequence[Run]], np.ndarray]] = None,
) -> np.ndarray:
    """Uniform [-1, 1) innovations keyed on (seed, replicate, node) at the
    labels of ``runs`` laid end to end, shape (len(reps), nodes),
    C-contiguous; a pure function of its inputs.  The node keys come from
    ``keys`` (a :func:`_key_memo`) when given, else from :func:`_node_keys`."""
    r, n = _rep_keys(seed, reps), (_node_keys(runs) if keys is None else keys(runs))
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


class RegionPlan(NamedTuple):
    """A field's region sum on a :class:`Strip` or :class:`Generations` region,
    one row per support generation, with no node built: each of the ``A**g``
    nodes (indices from 1) of support generation ``g = generations[i]``
    carries the weight ``weights[i]`` of ``sum_v Z_v = w . U``.  ``norms[i]``
    is the l1 norm of every row of the field's map at the region's ``i``-th
    generation."""

    generations: np.ndarray  # int64, ascending
    weights: np.ndarray  # float64, one per support generation
    norms: np.ndarray  # float64, one per region generation


def region_plan(spec: FieldSpec, region: Region, A: int) -> RegionPlan:
    """The weights of ``spec`` on ``region`` (a :class:`Strip` or
    :class:`Generations`), per support generation, in closed form; no node
    cap applies, and a plan of ``Generations(10**5)`` takes about 0.1 s.

    With target generations ``[t0, t1)``:

    * ``independent``: the weight ``C`` on each target generation;
    * ``branching_ar``: generations ``0 .. t1 - 1``, the backward recursion
      of :func:`_autoregression_plan` on one value per generation;
    * ``m_dependent``: generations ``max(0, t0 - m) .. t1 - 1 + m``, the ball
      shares of :func:`_ball_plan` summed per generation.

    A weight is the column sum ``(M^T 1)_u`` of the field's map, and each is
    summed as ``M^T 1`` adds it with the rows in order (as ``np.add.at`` or a
    CSR mat-vec of the transpose adds it), so it equals every per-node weight
    of the map at that generation bit for bit.
    """
    if not isinstance(region, (Strip, Generations)):
        raise ValidationError(f"a region plan needs a strip or generations region, got {region!r}")
    _validate_region(region, A)
    t0, t1 = generation_span(region)
    C = float(spec.C)
    if spec.kind == "independent" or t0 == t1:
        return RegionPlan(np.arange(t0, t1, dtype=np.int64), *(np.full(t1 - t0, C),) * 2)
    if spec.kind == "m_dependent":
        return _ball_plan(t0, t1, A, spec.m, C)
    return _autoregression_plan(t0, t1, A, spec.a, C)


def _support_span(spec: FieldSpec, region: Strip | Generations) -> tuple[int, int]:
    """The support generations ``[lo, hi)`` of :func:`region_plan`, in closed
    form: the nodes whose innovations one replicate of the region sum hashes."""
    t0, t1 = generation_span(region)
    if t0 == t1 or spec.kind == "independent":
        return t0, t1
    if spec.kind == "m_dependent":
        return max(0, t0 - spec.m), t1 + spec.m
    return 0, t1


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


def _ball_norms(A: int, m: int, C: float) -> list[float]:
    """The l1 norm of a row of the m-dependent map, by its target's generation
    clipped at ``m``: ``C/|ball|`` added ``|ball|`` times in sequence, as a
    mat-vec adds a row's entries."""
    return [_added(0.0, C / size, size) for size in (_ball_size(j, A, m) for j in range(m + 1))]


def _ball_plan(t0: int, t1: int, A: int, m: int, C: float) -> RegionPlan:
    """The m-dependent map's weights per generation of the targets ``[t0, t1)``.

    A node ``u`` of generation ``g`` lies in the balls of the
    ``A**(min((m - d) // 2, g) + d)`` target nodes of generation ``g + d``
    that the layer rule of :func:`_ball_values` counts at ``(g, 1)`` (distance
    is symmetric), and
    its weight adds their shares ``C/|ball|`` in row order: ``d`` ascending,
    one share that many times in sequence.  That profile depends on ``g``
    only through ``min(g, 2m)`` and the targets within ``m`` of ``g``, so each
    distinct profile is summed once.

    Raises :class:`CapacityError` when one ball holds more than
    ``BALL_ENTRY_CAP`` members, decided before ``A**m`` is formed."""
    if low_bits(A, m) >= BALL_ENTRY_CAP.bit_length() or _ball_size(m, A, m) > BALL_ENTRY_CAP:
        raise CapacityError(f"a radius-{m} ball holds more than {BALL_ENTRY_CAP} members, "
                            f"the cap on ball members in all")
    # by the center's generation, clipped
    shares = [C / _ball_size(j, A, m) for j in range(m + 1)]
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
    norms = np.array(_ball_norms(A, m, C))[np.minimum(np.arange(t0, t1), m)]
    return RegionPlan(gens, np.array(weights), norms)


def _autoregression_norms(t1: int, a: float, C: float) -> list[float]:
    """The l1 norm of a row of the autoregression's map at each generation
    ``0 .. t1 - 1``: ``C`` at the root, then ``|a|`` times the parent's plus
    ``(1 - |a|) C``."""
    step, norms = abs((1.0 - abs(a)) * C), [C]
    for _ in range(1, t1):
        norms.append(abs(a) * norms[-1] + step)
    return norms


def _autoregression_plan(t0: int, t1: int, A: int, a: float, C: float) -> RegionPlan:
    """The autoregression's weights per generation of the targets
    ``[t0, t1)``: the support is generations ``0 .. t1 - 1``, ``d_j`` is 1 on
    a target generation plus ``a`` times its ``A`` children's ``d_{j+1}``
    added in sequence, and the weight is ``(1 - |a|) C d_j``, ``C d_0`` at
    the root.

    Raises :class:`CapacityError` when a weight leaves float range, which
    ``A |a| > 1`` brings about past a few hundred generations."""
    step, d = (1.0 - abs(a)) * C, [1.0] * t1
    for j in range(t1 - 2, -1, -1):
        d[j] = float(j >= t0) + a * _added(0.0, d[j + 1], A)
    weights = np.multiply(step, d)
    weights[0] = C * d[0]
    float_in_range("a plan weight", np.abs(weights).max())
    return RegionPlan(np.arange(t1, dtype=np.int64), weights,
                      np.array(_autoregression_norms(t1, a, C)[t0:]))


def _replicate_count(replicates: Sequence[int]) -> int:
    """The number of replicate ids.  A ``range`` is checked by its ends, which
    bound it (:class:`ValidationError` unless both lie in ``[0, 2**64)``), and
    counted from them (:class:`CapacityError` past ``sys.maxsize``, where
    ``len`` fails)."""
    r = replicates
    if not isinstance(r, range):
        return len(r)
    if not r:
        return 0
    if 0 <= r[0] < 1 << 64 and 0 <= r[-1] < 1 << 64:
        count = (r[-1] - r[0]) // r.step + 1
        if count > sys.maxsize:
            raise CapacityError(f"{count} replicate ids exceed the cap of {sys.maxsize}")
        return count
    bad = r[0]
    if 0 <= bad < 1 << 64:  # the first id past the end the range crosses
        bad = r[((1 << 64) - 1 - bad if r.step > 0 else bad) // abs(r.step) + 1]
    raise _replicate_error(bad)


def _check_replicates(replicates: Sequence[int], width: int) -> None:
    """:class:`CapacityError` when ``width`` values for each replicate exceed
    ``REPLICATE_VALUES``, counted before any array (:func:`_replicate_count`)."""
    count = _replicate_count(replicates)
    if count * width > REPLICATE_VALUES:
        raise CapacityError(f"{count} replicates x {width} values exceed the cap of "
                            f"{REPLICATE_VALUES} values one call returns")


def _replicate_ids(replicates: Sequence[int]) -> np.ndarray:
    """Replicate ids as uint64; :class:`ValidationError` unless each is an
    integer in ``[0, 2**64)``.  A ``range`` is counted by
    :func:`_replicate_count` and built by ``np.arange``."""
    if isinstance(replicates, range):
        r, count = replicates, _replicate_count(replicates)
        ids = np.arange(count, dtype=np.uint64)
        if count:
            ids *= np.uint64(abs(r.step))
            if r.step > 0:
                return np.add(ids, np.uint64(r[0]), out=ids)
            return np.subtract(np.uint64(r[0]), ids, out=ids)
        return ids
    ids = list(replicates)
    for r in ids:
        if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or not 0 <= r < 1 << 64:
            raise _replicate_error(r)
    return np.array(ids, dtype=np.uint64)


def _replicate_error(r) -> ValidationError:
    return ValidationError(f"replicate ids must be integers in [0, 2**64), got {r!r}")


def _label_runs(js: np.ndarray, ks: np.ndarray) -> tuple[list[Run], np.ndarray]:
    """The distinct labels ``(js, ks)``, ascending, as runs of consecutive
    indices in one generation, and the column of each input label among the
    runs' labels laid end to end."""
    order = np.lexsort((ks, js))
    sj, sk = js[order], ks[order]
    new = np.ones(len(sj), dtype=bool)  # a label unlike the one before it
    new[1:] = (sj[1:] != sj[:-1]) | (sk[1:] != sk[:-1])
    columns = np.empty(len(sj), dtype=np.intp)
    columns[order] = np.cumsum(new) - 1
    sj, sk = sj[new], sk[new]
    opens = np.ones(len(sj), dtype=bool)  # a label that starts a run
    opens[1:] = (sj[1:] != sj[:-1]) | (sk[1:] - sk[:-1] != 1)
    starts = np.flatnonzero(opens)
    counts = np.diff(starts, append=len(sj))
    return list(zip(sj[starts].tolist(), sk[starts].tolist(), counts.tolist())), columns


def _parent_run(run: Run, A: int) -> Run:
    """The parents of a run below the root: a run one generation up."""
    j, first, count = run
    lo = (first - 1) // A + 1
    return j - 1, lo, (first + count - 2) // A + 2 - lo


def _ancestor_caps(runs: Sequence[Run], A: int) -> int:
    """:class:`CapacityError` unless the autoregression at the labels of
    ``runs`` hashes at most ``DEFAULT_NODE_CAP`` nodes: the runs and, for each
    run whose parents are not the run before it, its ancestors up to the
    root, counted without listing them: a run's ancestors narrow to one node
    per generation within 63 generations up (two consecutive indices share a
    parent unless the first is a multiple of ``A``).

    Each such run walks its ancestors one generation per Python step, about
    6 us and 280 bytes a generation: one node at generation 10**5 took
    0.6 s and 27 MiB.  The node cap alone admits walks of 6.7e7 generations,
    so the steps of all the walks are capped too, at ``AR_WALK_GENERATIONS``
    = 2**16 (0.37 s and 18 MiB for one node at that depth); more raise
    :class:`CapacityError` as well."""
    total, walked, above = 0, 0, None
    for run in runs:
        total += run[2]
        if run[0] and _parent_run(run, A) != above:
            j, first, count = run
            walked += j
            while j and count > 1:
                j, first, count = _parent_run((j, first, count), A)
                total += count
            total += j
        above = run
    if total > DEFAULT_NODE_CAP:
        raise CapacityError(f"the autoregression at these nodes hashes {total} nodes with their "
                            f"ancestors, exceeding the cap of {DEFAULT_NODE_CAP}")
    if walked > AR_WALK_GENERATIONS:
        raise CapacityError(f"the autoregression at these nodes walks {walked} generations of "
                            f"ancestors, exceeding the cap of {AR_WALK_GENERATIONS}")
    return total


def _checked_runs(spec: FieldSpec, runs: Sequence[Run], A: int) -> int:
    """Every refusal of sampling or summing ``spec`` at the labels of ``runs``
    that comes before hashing: the caps (:func:`ball_sizes` of the balls,
    counted per run, or :func:`_ancestor_caps`), then the amplitude guard on
    the row norms of the runs' generations, read from the per-generation norms
    of the region plan: each at most ``C (1 + 1e-12)``, which bounds every
    value for innovations in [-1, 1].  Returns a bound on the innovations
    hashed per replicate: the ball members, the nodes with their ancestors,
    or the nodes."""
    if not runs:
        return 0
    gens, hashed = {j for j, _, _ in runs}, sum(count for _, _, count in runs)
    if spec.kind == "m_dependent":
        sizes = ball_sizes(runs, A, spec.m).tolist()
        hashed = sum(count * sizes[min(j, spec.m)] for j, _, count in runs)
        table, gens = _ball_norms(A, spec.m, spec.C), {min(j, spec.m) for j in gens}
    elif spec.kind == "branching_ar":
        hashed = _ancestor_caps(runs, A)
        table = _autoregression_norms(max(gens) + 1, spec.a, spec.C)
    else:
        table, gens = [spec.C], {0}
    norms = np.array([table[j] for j in gens])
    if norms.max() > spec.C * (1.0 + 1e-12):
        raise AmplitudeError(
            f"a row of the field's map has l1 norm {norms.max()!r}, above the amplitude bound "
            f"C = {spec.C!r}"
        )
    return hashed


def _region_runs(spec: FieldSpec, region: Region, A: int) -> tuple[list[Run], int]:
    """The runs of the generations of ``region``, past the node cap and the
    refusals of :func:`_checked_runs`, and its bound on the innovations
    hashed per replicate."""
    runs = _generation_runs(region, A, DEFAULT_NODE_CAP)
    return runs, _checked_runs(spec, runs, A)


def _run_values(
    spec: FieldSpec, reps: np.ndarray, runs: Sequence[Run], A: int,
    keys: Optional[Callable[[Sequence[Run]], np.ndarray]] = None,
) -> np.ndarray:
    """The values of replicates ``reps`` at the labels of ``runs`` (past
    :func:`_checked_runs`) laid end to end, each checked to lie within
    ``C (1 + 1e-12)`` of 0; ``keys`` as :func:`_innovations` takes it."""
    width = sum(count for _, _, count in runs)
    if not (width and len(reps)):
        return np.zeros((len(reps), width))
    seed, C = spec.master_seed, spec.C
    if spec.kind == "m_dependent":
        values = _ball_values(seed, reps, runs, A, spec.m, C, keys)
    elif spec.kind == "branching_ar":
        values = _autoregression_values(seed, reps, runs, A, spec.a, C, keys)
    else:
        values = _innovations(seed, reps, runs, keys)
        values *= C
    limit = C * (1.0 + 1e-12)
    if not (-limit <= values.min() and values.max() <= limit):
        raise AmplitudeError(f"a sampled value lies outside the amplitude bound C = {C!r}")
    return values


def _autoregression_values(
    seed: int, reps: np.ndarray, runs: Sequence[Run], A: int, a: float, C: float,
    keys: Optional[Callable[[Sequence[Run]], np.ndarray]] = None,
) -> np.ndarray:
    """The autoregression at the labels of ``runs``, in place on their
    innovations, hashed in one call: ``Z = C U`` at the root and ``Z = step U
    + a Z_parent`` below, the parents' values repeated ``A`` times.  A run
    whose parents are the run before it reads that run's values, as every
    generation of a region after its first does; any other run first forms
    its ancestors' runs from the root, in one call of its own, and keeps the
    last."""
    u = _innovations(seed, reps, runs, keys)
    step, prev, above, at = (1.0 - abs(a)) * C, None, None, 0
    for run in runs:
        j, first, count = run
        z = u[:, at : at + count]
        if not j:
            z *= C
        else:
            chain = [_parent_run(run, A)]
            if chain[0] != above:
                while chain[-1][0]:
                    chain.append(_parent_run(chain[-1], A))
                prev = _autoregression_values(seed, reps, chain[::-1], A, a, C, keys)
                prev = prev[:, prev.shape[1] - chain[0][2] :].copy()
            skip = first - 1 - A * (chain[0][1] - 1)  # the run's first column among the repeats
            z *= step
            z += a * np.repeat(prev, A, axis=1)[:, skip : skip + count]
        prev, above, at = z, run, at + count
    return u


def _ball_values(
    seed: int, reps: np.ndarray, runs: Sequence[Run], A: int, m: int, C: float,
    keys: Optional[Callable[[Sequence[Run]], np.ndarray]] = None,
) -> np.ndarray:
    """The radius-``m`` ball means at the labels of ``runs``, one run at a time.

    Layer ``d`` of the ball of ``(j, k)``, its members in generation
    ``j + d`` (``-min(j, m) <= d <= m``), is one contiguous index range: with
    ``up = min((m - d) // 2, j)``, the descendants, ``up + d`` generations
    down, of the center's ancestor ``up`` generations up.  That is row
    ``(k - 1) // A**up`` of generation ``j + d`` cut into rows of
    ``A**(up + d)``, shared by the ``A**up`` consecutive targets below one
    ancestor, and the row is monotone in ``k``.  So a run's layer is one
    interval of whole rows, each repeated once per target of the run below
    it.  Each interval is hashed once per call, those a run meets first
    in one call.

    A target's entries ``u * C/|ball|`` are added to 0 in sequence, ``d``
    ascending and then along the row, the order of a CSR mat-vec over its
    label-sorted support.  A block of columns of the rows at a time, repeated
    per target, at most ``BLOCK_VALUES`` values (one column if the targets
    alone are more) and laid out column by column, is added to the running
    totals one column at a time, or, when it has more columns than values
    per column, by one running sum over its columns (``np.add.accumulate``
    takes about 10 ns a value, an add of a whole column far less)."""
    values = np.empty((len(reps), sum(count for _, _, count in runs)))
    window, at, gen = {}, 0, None  # innovations by interval (generation, first index, count)
    for j, first, count in runs:
        if j != gen:  # the balls of generation j and deeper reach no generation above j - m
            window = {key: u for key, u in window.items() if key[0] >= j - m}
            gen = j
        total, at = values[:, at : at + count], at + count
        total[:] = 0.0
        share = C / _ball_size(min(j, m), A, m)  # by the center's generation, clipped
        width = max(1, BLOCK_VALUES // total.size)
        layers = []  # per layer d, ascending: up, first row (from 0), rows, row size, interval
        for d in range(-min(j, m), m + 1):
            up = min((m - d) // 2, j)
            lo, size = (first - 1) // A**up, A ** (up + d)
            rows = (first + count - 2) // A**up + 1 - lo
            layers.append((up, lo, rows, size, (j + d, lo * size + 1, rows * size)))
        missing = [key for *_, key in layers if key not in window]
        if missing:  # in one call
            u, start = _innovations(seed, reps, missing, keys), 0
            for key in missing:
                window[key], start = u[:, start : start + key[2]], start + key[2]
        for up, lo, rows, size, key in layers:
            layer = window[key].reshape(len(reps), rows, size)
            skip, tail = first - 1 - lo * A**up, (lo + rows) * A**up - (first + count - 1)
            targets = A**up  # the run's targets below each row, fewer in a row it cuts
            if skip or tail:
                targets = np.full(rows, A**up)
                targets[0] -= skip
                targets[-1] -= tail
            for e in range(0, size, width):
                block = np.multiply(layer[:, :, e : e + width].transpose(2, 0, 1), share,
                                    order="C")
                if up:
                    block = np.repeat(block, targets, axis=2)
                if len(block) > total.size:  # short columns: one running sum over them
                    block[0] += total
                    np.add.accumulate(block, axis=0, out=block)
                    total[:] = block[-1]
                else:
                    for column in block:  # one whole-row add each
                        total += column
    return values


def field_values(
    spec: FieldSpec, nodes: Sequence[NodeId], A: int, replicates: Sequence[int]
) -> np.ndarray:
    """Field values at ``nodes`` for each replicate; shape (len(replicates), len(nodes)).

    Deterministic given (master_seed, replicate, node); independent of the
    order in which replicates are batched.  The nodes are sampled as runs of
    distinct labels (:func:`_label_runs`), as a region's generations are.
    More than ``REPLICATE_VALUES`` = 2**28 values in all raise
    :class:`CapacityError` before any array of replicates.
    """
    js, ks = node_labels(nodes, A)
    _check_replicates(replicates, len(js))
    runs, columns = _label_runs(js, ks)
    _checked_runs(spec, runs, A)
    return _run_values(spec, _replicate_ids(replicates), runs, A)[:, columns]


def sample_field(
    spec: FieldSpec, region: Region, A: int, replicate_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One realization of the field on ``region``: the int64 labels ``(js, ks)``
    in region order, which is label-sorted, and the values at them.

    The region's runs are its generations.  After the node cap, the 63-bit
    labels and the refusals of :func:`_checked_runs`, the values are formed
    run by run and checked against ``C``, and only then are the labels built."""
    runs, _ = _region_runs(spec, region, A)
    values = _run_values(spec, _replicate_ids([replicate_index]), runs, A)[0]
    return (*run_labels(runs, 0, len(values)), values)


def _sums(
    spec: FieldSpec, runs: Sequence[Run], weights: np.ndarray
) -> Callable[[Sequence[int]], np.ndarray]:
    """``w . U`` per replicate, as a function of the replicates, over weighted
    label runs: the nodes of ``runs[i]`` each carry the weight ``weights[i]``.

    The runs are sorted by weight (stable) and laid end to end in that order;
    each stretch of equal weight is cut into pieces of at most
    ``GROUP_COLUMNS`` columns.  The node keys and the pieces are built here,
    once; the function returned runs the tile loop of the module
    docstring."""
    order = np.argsort(weights, kind="stable")
    runs, weights = np.array(runs, dtype=np.int64).reshape(-1, 3)[order], weights[order]
    width = int(runs[:, 2].sum())
    opens = np.ones(len(weights), dtype=bool)  # the runs that open a stretch of equal weight
    np.not_equal(weights[1:], weights[:-1], out=opens[1:])
    starts = (np.cumsum(runs[:, 2]) - runs[:, 2])[opens]  # each stretch's first column
    pieces = -(-np.diff(starts, append=width) // GROUP_COLUMNS)
    first = np.repeat(np.cumsum(pieces) - pieces, pieces)  # each piece's stretch's first piece
    cuts = np.repeat(starts, pieces) + GROUP_COLUMNS * (np.arange(len(first)) - first)
    offsets = np.diff(cuts, append=width).astype(np.uint64) << np.uint64(52)
    piece_weights = np.repeat(weights[opens], pieces)
    n = _node_keys(runs)

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

    Every region passes the refusals of :func:`sample_field`, all decided
    from its generations.  The weights of a :class:`Strip` or
    :class:`Generations` region then come from :func:`region_plan`, one row
    per support generation; a :class:`Subtree` region sums its sampled
    values in each call."""
    runs, hashed = _region_runs(spec, region, A)
    if not isinstance(region, (Strip, Generations)):
        return _value_sums(spec, runs, np.arange(sum(count for _, _, count in runs)), A, hashed)
    plan = region_plan(spec, region, A)
    return _sums(spec, [(g, 1, A**g) for g in plan.generations.tolist()], plan.weights)


def _value_sums(
    spec: FieldSpec, runs: Sequence[Run], columns: np.ndarray, A: int, hashed: int
) -> Callable[[Sequence[int]], np.ndarray]:
    """The sums over ``columns`` of the values at the labels of ``runs`` (laid
    end to end, past :func:`_checked_runs`, which bounds the innovations
    ``hashed`` per replicate), as a function of the replicates: the values of
    at most ``BLOCK_VALUES`` innovations or columns at a time (one replicate
    if more), added in column order, a running sum's last column whatever the
    tile's shape.  The node keys of every run hashed are built once
    (:func:`_key_memo`), at the first tile that hashes it."""
    keys = _key_memo()

    def sums(replicates: Sequence[int]) -> np.ndarray:
        reps = _replicate_ids(replicates)
        out = np.zeros(len(reps))
        rows = max(1, BLOCK_VALUES // max(hashed, len(columns), 1))
        for start in range(0, len(reps) if len(columns) else 0, rows):
            values = _run_values(spec, reps[start : start + rows], runs, A, keys)[:, columns]
            out[start : start + rows] = np.add.accumulate(values, axis=1, out=values)[:, -1]
        return out

    return sums


def region_sums(
    spec: FieldSpec,
    region: Region,
    A: int,
    replicates: Sequence[int],
) -> np.ndarray:
    """``sum_v Z_v`` over ``region`` for each replicate, in blocks of bounded memory.

    On a :class:`Strip` or :class:`Generations` region the sum is ``w . U``,
    with the weights of :func:`region_plan`, hashed in tiles of at most
    ``BLOCK_VALUES`` values: peak memory is two tile buffers plus 8 bytes per
    support node, whatever the replicate count.  Each piece of at most
    ``GROUP_COLUMNS`` = 2048 nodes of equal weight is summed exactly as
    integers, so the result is within ``(G + 1) * 2**-53 * sum |w u|`` of the
    exact ``w . U`` for G pieces, and is correctly rounded for one of weight 1.

    A :class:`Subtree` region adds its sampled values, as :func:`node_sums`
    does.  Tile boundaries and worker counts do not affect the result.  More
    than ``REPLICATE_VALUES`` = 2**28 replicates raise :class:`CapacityError`
    before any array.
    """
    _check_replicates(replicates, 1)
    return region_sums_of(spec, region, A)(replicates)


def node_sums(
    spec: FieldSpec, nodes: Sequence[NodeId], A: int, replicates: Sequence[int]
) -> np.ndarray:
    """``sum_v Z_v`` over ``nodes`` (a repeated node counts each time) for each
    replicate: the values of :func:`field_values`, added in sequence in the
    order of ``nodes``, for at most ``BLOCK_VALUES // len(nodes)`` replicates
    at a time (one if the nodes are more).  The ``n - 1`` additions leave a
    sum within ``(n - 1) * 2**-53 * sum |Z_v|`` (to first order) of the exact
    sum of those values; for the independent field at ``C = 1`` the values
    are the innovations, exactly.  The bits do not depend on how the
    replicates are split.  More than ``REPLICATE_VALUES`` = 2**28 replicates
    raise :class:`CapacityError` before any array."""
    _check_replicates(replicates, 1)
    runs, columns = _label_runs(*node_labels(nodes, A))
    return _value_sums(spec, runs, columns, A, _checked_runs(spec, runs, A))(replicates)


def field_lines(
    sample: tuple[np.ndarray, np.ndarray, np.ndarray], fmt: str = "csv"
) -> Iterator[str]:
    """The rows ``(j, k, value)`` of a :func:`sample_field` result as text,
    one string per block of rows that the kernel renders: CSV
    lines ``j,k,value`` after that header, or (``fmt="json"``) JSON lines
    ``{"j": j, "k": k, "value": value}``, each value as ``repr`` prints it.
    See :mod:`treebound.rowtext`."""
    js, ks = (np.ascontiguousarray(labels, dtype=np.int64) for labels in sample[:2])
    values = np.ascontiguousarray(sample[2], dtype=np.float64)
    head = FORMATS[fmt][0]
    if not len(values):
        yield head
        return
    for text in row_text(js, ks, values, fmt):
        yield head + text
        head = ""


def field_to_csv(sample: tuple[np.ndarray, np.ndarray, np.ndarray]) -> str:
    """Debug dump of a :func:`sample_field` result as CSV lines ``j,k,value``:
    the chunks of :func:`field_lines`, joined."""
    return "".join(field_lines(sample))
