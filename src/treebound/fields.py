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

Each call to :func:`field_values`, :func:`sample_field` or
:func:`region_sums` compiles the field once into a linear operator on a
replicate's innovations (a scale by ``C``, a CSR matrix of ball means, or the
autoregression over parent indices), then hashes, maps and bound-checks
replicates through it.  :func:`region_sums` takes them in blocks of at most
``BLOCK_VALUES`` hashed values, so its peak memory is about that many float64
values per calling thread plus the support arrays, whatever the replicate
count.  No innovation bit changes, so the guarantee holds.
Regions enter as the int64 labels of ``tree.region_arrays``, and
:func:`sample_field` returns ``(js, ks, values)`` in that label-sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.sparse import csr_array

from .bounds import MixingEnvelope
from .errors import AmplitudeError, ValidationError, float_in_range, is_real, require
from .tree import NodeId, Region, ball_arrays, region_arrays, validate_node

AR_TABLE_HORIZON = 64
BLOCK_VALUES = 1 << 19  # hashed values per region_sums block: 4 MiB of float64

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_C_SEED = np.uint64(0x9E3779B97F4A7C15)
_C_REP = np.uint64(0xA0761D6478BD642F)
_C_GEN = np.uint64(0xE7037ED1A0B428DB)
_C_IDX = np.uint64(0x8EBC6AF09C88C6E3)
_INV_2_52 = 1.0 / (1 << 52)  # 2 * 2**-53: maps the top 53 bits onto [0, 2) exactly


def _mix64(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, applied to ``x`` in place."""
    tmp = np.empty_like(x)
    for shift, mult in ((30, _M1), (27, _M2)):
        np.bitwise_xor(x, np.right_shift(x, shift, out=tmp), out=x)
        np.multiply(x, mult, out=x)
    return np.bitwise_xor(x, np.right_shift(x, 31, out=tmp), out=x)


def _innovations(seed: int, reps: np.ndarray, js: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Uniform [-1, 1) innovations keyed on (seed, replicate, node), shape
    (len(reps), len(js)), C-contiguous; a pure function of its inputs."""
    s = _mix64(np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64) ^ _C_SEED)
    r = _mix64(s ^ _mix64(reps.astype(np.uint64) ^ _C_REP))
    n = _mix64(_mix64(js.astype(np.uint64) ^ _C_GEN) ^ _mix64(ks.astype(np.uint64) ^ _C_IDX))
    out = np.empty((len(r), len(n)), dtype=np.uint64)
    step = max(1, (1 << 15) // max(len(n), 1))  # blocks of about 32k values stay in cache
    for start in range(0, len(r), step):
        h = _mix64(np.bitwise_xor(r[start : start + step, None], n, out=out[start : start + step]))
        u = np.multiply(np.right_shift(h, 11, out=h), _INV_2_52, out=h.view(np.float64))
        u -= 1.0
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


def _compile(spec: FieldSpec, js: np.ndarray, ks: np.ndarray, A: int):
    """Sampler of the field at targets ``(js, ks)``, replicate ids to C-contiguous
    values (replicates, targets), and the width of the support whose
    innovations it hashes.  Support and operator are built here, once."""
    if not len(js):
        return (lambda reps: np.zeros((len(reps), 0))), 0
    if spec.kind == "independent":
        support_j, support_k, apply = js, ks, lambda u: np.multiply(u, spec.C, out=u)
    elif spec.kind == "m_dependent":
        support_j, support_k, apply = _ball_means(js, ks, A, spec.m, spec.C)
    else:
        support_j, support_k, apply = _autoregression(js, ks, A, spec.a, spec.C)
    limit = spec.C * (1.0 + 1e-12)

    def sample(reps: np.ndarray) -> np.ndarray:
        values = apply(_innovations(spec.master_seed, reps, support_j, support_k))
        if values.size and not (-limit <= values.min() and values.max() <= limit):
            raise AmplitudeError(f"a sampled value lies outside the amplitude bound C = {spec.C!r}")
        return values

    return sample, len(support_j)


def _ball_means(js: np.ndarray, ks: np.ndarray, A: int, m: int, C: float):
    """CSR map with entry ``C/|ball(v)|`` at each node of the radius-``m`` ball of target ``v``."""
    rows, member_j, member_k = ball_arrays(js, ks, A, m)
    order = np.lexsort((member_k, member_j))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(member_j[order]) != 0) | (np.diff(member_k[order]) != 0)
    cols = np.empty(len(order), dtype=np.intp)
    cols[order] = np.cumsum(first) - 1
    sizes = np.bincount(rows)
    matrix = csr_array(((C / sizes)[rows], (rows, cols)), shape=(len(js), int(first.sum())))

    def apply(u: np.ndarray) -> np.ndarray:
        out = np.empty((len(u), len(js)))
        for row, innovations in zip(out, u):  # contiguous rows: no transposed copies
            row[:] = matrix @ innovations
        return out

    return member_j[order][first], member_k[order][first], apply


def _autoregression(js: np.ndarray, ks: np.ndarray, A: int, a: float, C: float):
    """``Z_root = C U`` and ``Z_v = a Z_parent + (1 - |a|) C U_v`` over the
    ancestor closure of the targets, one generation slice at a time."""
    levels, local = [None] * (int(js.max()) + 1), np.empty(len(js), dtype=np.intp)
    level = np.empty(0, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        at = js == j
        levels[j] = level = np.union1d(ks[at], (level - 1) // A + 1)
        local[at] = np.searchsorted(level, ks[at])
    starts = np.cumsum([0] + [len(level) for level in levels])
    parents = [
        starts[j - 1] + np.searchsorted(levels[j - 1], (levels[j] - 1) // A + 1)
        for j in range(1, len(levels))
    ]
    rows = starts[js] + local
    identity = np.array_equal(rows, np.arange(starts[-1]))

    def apply(u: np.ndarray) -> np.ndarray:
        u[:, 0] *= C
        for j, parent_cols in enumerate(parents, start=1):
            z = u[:, starts[j] : starts[j + 1]]
            z *= (1.0 - abs(a)) * C
            z += a * np.take(u, parent_cols, axis=1)
        return u if identity else np.take(u, rows, axis=1)

    support_j = np.repeat(np.arange(len(levels), dtype=np.int64), np.diff(starts))
    return support_j, np.concatenate(levels), apply


def _replicate_ids(replicates: Sequence[int]) -> np.ndarray:
    """Replicate ids as uint64; :class:`ValidationError` unless each is an
    integer in ``[0, 2**64)``."""
    ids = list(replicates)
    for r in ids:
        if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or not 0 <= r < 1 << 64:
            raise ValidationError(f"replicate ids must be integers in [0, 2**64), got {r!r}")
    return np.array(ids, dtype=np.uint64)


def field_values(
    spec: FieldSpec, nodes: Sequence[NodeId], A: int, replicates: Sequence[int]
) -> np.ndarray:
    """Field values at ``nodes`` for each replicate; shape (len(replicates), len(nodes)).

    Deterministic given (master_seed, replicate, node); independent of the
    order in which replicates are batched.
    """
    for v in nodes:
        validate_node(v, A)
    js, ks = np.array([(v.j, v.k) for v in nodes], dtype=np.int64).reshape(-1, 2).T
    return _compile(spec, js, ks, A)[0](_replicate_ids(replicates))


def sample_field(
    spec: FieldSpec, region: Region, A: int, replicate_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One realization of the field on ``region``: the int64 labels ``(js, ks)``
    in region order, which is label-sorted, and the values at them."""
    js, ks = region_arrays(region, A)
    return js, ks, _compile(spec, js, ks, A)[0](_replicate_ids([replicate_index]))[0]


def region_sums(
    spec: FieldSpec,
    region: Region,
    A: int,
    replicates: Sequence[int],
    chunk: int = 512,
) -> np.ndarray:
    """``sum_v Z_v`` over ``region`` for each replicate, in blocks of bounded memory.

    A block holds at most ``chunk`` replicates and at most ``BLOCK_VALUES``
    hashed values (one row of the support if that alone is wider), so peak
    memory is about ``BLOCK_VALUES`` float64 values plus the support arrays,
    whatever the replicate count.  Block boundaries do not affect the result:
    each replicate's sum is a row-wise reduction of values that depend only on
    (seed, replicate, node).
    """
    require((("chunk", chunk, 1),))
    js, ks = region_arrays(region, A)
    reps = _replicate_ids(replicates)
    out = np.empty(len(reps), dtype=np.float64)
    sample, width = _compile(spec, js, ks, A)
    rows = max(1, min(chunk, BLOCK_VALUES // max(width, 1)))
    for start in range(0, len(reps), rows):
        out[start : start + rows] = sample(reps[start : start + rows]).sum(axis=1)
    return out


def field_to_csv(sample: tuple[np.ndarray, np.ndarray, np.ndarray]) -> str:
    """Debug dump of a :func:`sample_field` result as CSV lines ``j,k,value``."""
    rows = zip(*(array.tolist() for array in sample))
    return "j,k,value\n" + "".join(f"{j},{k},{value!r}\n" for j, k, value in rows)
