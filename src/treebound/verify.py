"""Numerical verification: Monte Carlo tails against bounds, exact mixing
coefficients on finite probability spaces, and sampled mixing lower bounds.

The mixing coefficient between two finite partitions is computed exactly
(the sup over all unions of atoms), which makes the covariance inequality
testable without any estimation error.  A :class:`SpaceBlock` holds
spaces packed end to end, one array per field over all their outcomes, each
partition as one atom label per outcome; a :class:`FiniteSpace` is a block
of one.  The block checks the rules of a space once, in vector form, so
there is one validation path.  :func:`random_finite_spaces` gives every
space a fixed-width slot of uniforms, draws a block's slots in a few
generator calls and reads them with array operations, so a block holds the
spaces its count of single draws gives; :func:`random_finite_space` is its
block of one.  :func:`davydov_checks` checks a block at once
(:func:`davydov_check` and :func:`exact_alpha` are blocks of one): one
``bincount`` gives every joint atom table, and the spaces of one shape
``(n_g, n_h)`` take their unions of H-atoms in one stacked product with a
cached matrix.  The spaces of one outcome count take each mean ``E[x]``
from one stacked product, which numpy runs as one BLAS dot per space, so a
block gives each space the bits it gets alone.  Lists of atoms appear only
at the API edge, in ``FiniteSpace.build`` and the ``atoms_g``/``atoms_h``
views.  For simulated fields the sup over arbitrary events is out of
reach, so the module only ever reports sampled *lower* bounds there,
clearly separated from the exact path, under the hashed-value cap of
:func:`mc_tail`.

:func:`tail_bounds` gives the bound of each threshold, with the parameters
it used and its envelope's provenance, and samples nothing; a bound option
that the region's bound does not use is refused, not ignored.
:func:`mc_tail` samples, counts exceedances and pairs each count with that
bound.  A violation is only flagged when the exact-binomial
(Clopper-Pearson) 99% *lower* confidence limit of the empirical tail
exceeds a bound that is itself below 1: the true tail then lies above the
bound with 99% confidence, so Monte Carlo noise alone (zero exceedances,
say) cannot raise a false alarm.  The 99% upper limit is reported
alongside.  Estimates whose envelope is not provenance-exact are marked
uncertified instead of violated.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from .bounds import (
    BernsteinInput,
    GridSpec,
    bernstein_bound,
    concentration_bound,
    concentration_schedule,
    ConcentrationInput,
    optimize_params,
)
from .errors import CapacityError, ValidationError, float_in_range, is_real, require
from .fields import (
    FieldSpec, _checked_runs, _label_runs, _region_runs, _support_span, field_certificate,
    node_sums, region_sums_of,
)
from .tree import (
    Generations, NodeId, Region, Strip, check_node_cap, low_bits, node_labels,
    region_node_count, tree_distances, validate_node,
)

MAX_ATOMS = 12
MAX_OUTCOMES = 1 << 12  # the most outcomes, and atoms per partition, a random space draws
ALPHA_VALUES = 1 << 15  # the most union contributions one stacked product holds
PAIR_BLOCK = 1 << 16  # the most node pairs one separation step holds
DRAW_VALUES = 1 << 15  # the most uniforms one generator call of random_finite_spaces draws
MAX_WORKERS = 64  # the most slices one mc_tail call runs: itself and up to 63 forked children
MC_HASHED_VALUES = 1 << 40  # innovations one mc_tail or empirical_alpha_lower call hashes: ~42 min
MC_REPLICATE_BLOCK = 1 << 12  # the most replicates one mc_tail slice sums at a time


@dataclass(frozen=True, eq=False)
class SpaceBlock:
    """Finite spaces packed end to end, one array per field over all their outcomes.

    Space ``s`` holds the ``sizes[s]`` outcomes from ``start[s]`` on, and
    ``owner[i]`` is the space of outcome ``i``.  The labels ``g`` and ``h``
    number each space's own atoms ``0..n_g[s]-1`` and ``0..n_h[s]-1``.
    ``sizes=None`` makes the block one space of all the outcomes.

    Every space must obey the rules of a :class:`FiniteSpace`, and the block
    checks them once, in vector form: the first bad space names the error,
    with the message a :class:`FiniteSpace` of it gives.  The fields are
    read-only arrays.
    """

    probs: np.ndarray
    g: np.ndarray
    h: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    sizes: Optional[np.ndarray] = None
    n_g: np.ndarray = field(init=False)  # the number of atoms of G, per space
    n_h: np.ndarray = field(init=False)  # the number of atoms of H, per space
    start: np.ndarray = field(init=False, repr=False)
    owner: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._check({
            "probs": _real_array("probs", self.probs),
            "xi": _real_array("xi", self.xi),
            "eta": _real_array("eta", self.eta),
            "g": np.array(self.g),
            "h": np.array(self.h),
        })

    @classmethod
    def _fresh(cls, probs, g, h, xi, eta, sizes) -> "SpaceBlock":
        """A block that keeps fresh arrays, which nothing else holds, as its
        fields: float64 ``probs``, ``xi``, ``eta`` and int64 labels, checked
        as the constructor checks them but not copied."""
        block = object.__new__(cls)
        object.__setattr__(block, "sizes", sizes)
        block._check({"probs": probs, "xi": xi, "eta": eta, "g": g, "h": h})
        return block

    def _check(self, arrays: dict) -> None:
        """Check the rules of every space on ``arrays`` and keep them as the fields."""
        probs = arrays["probs"]
        n = probs.size
        if probs.ndim != 1 or n == 0:
            raise ValidationError("finite space needs a non-empty 1-d array of probabilities")
        for name, array in arrays.items():
            if array.shape != probs.shape:
                raise ValidationError(f"{name} must give a value for each of {n} outcomes")
        if self.sizes is None:
            sizes = np.array([n])
        else:
            sizes = np.array(self.sizes)
            if not (sizes.ndim == 1 and sizes.size and sizes.dtype.kind in "iu"
                    and sizes.min() >= 1 and sizes.max() <= n and sizes.sum() == n):
                raise ValidationError(f"space sizes must be positive integers summing to {n}")
        arrays["sizes"] = sizes = sizes.astype(np.int64, copy=False)
        arrays["start"] = start = sizes.cumsum() - sizes
        arrays["owner"] = owner = np.repeat(np.arange(sizes.size), sizes)
        failures = []  # (space, rank, message): a space's rules in the order listed
        for rank, name in enumerate(("probs", "xi", "eta")):
            finite = np.isfinite(arrays[name])
            if not finite.all():
                failures.append((owner[finite.argmin()], rank,
                                 f"{name} must be finite (no NaN or infinity)"))
        negative = probs < 0
        if negative.any():
            failures.append((owner[negative.argmax()], 3,
                             "outcome probabilities must be non-negative"))
        # reduceat adds in another order than sum, at most 2 * size * eps of the
        # total apart: a space it cannot clear is summed again on its own.  A
        # space with a value that is not finite, or negative, failed above.
        with np.errstate(over="ignore", invalid="ignore"):
            totals = np.add.reduceat(probs, start)
            near = abs(totals - 1.0) + sizes * totals * 2.0**-51 > 1e-12
            for s in near.nonzero()[0].tolist():
                total = float(probs[start[s]:start[s] + sizes[s]].sum())
                if abs(total - 1.0) > 1e-12:
                    failures.append((s, 4, f"outcome probabilities sum to {total!r}, "
                                           "not 1 within 1e-12"))
                    break
        for rank, name, partition in ((5, "g", "G"), (7, "h", "H")):
            labels = arrays[name]
            if labels.dtype.kind not in "iu":
                failures.append((0, rank, f"partition {partition} needs integer labels "
                                          f"in 0..{sizes[0] - 1}"))
                continue
            high = np.maximum.reduceat(labels, start)
            outside = high >= sizes
            if labels.min() < 0:
                outside |= np.minimum.reduceat(labels, start) < 0
            if outside.any():
                s = outside.argmax()
                failures.append((s, rank, f"partition {partition} needs integer labels "
                                          f"in 0..{sizes[s] - 1}"))
                labels = np.where(outside[owner], 0, labels)  # the others stay checkable
                high = np.where(outside, 0, high)
            labels = arrays[name] = labels.astype(np.int64, copy=False)
            counts = arrays[f"n_{name}"] = high.astype(np.int64) + 1
            first = counts.cumsum() - counts
            occupied = np.bincount(first[owner] + labels, minlength=int(first[-1] + counts[-1]))
            if not occupied.all():
                s = np.searchsorted(first, occupied.argmin(), "right") - 1
                failures.append((s, rank + 1, f"partition {partition} contains an empty atom"))
        if failures:
            raise ValidationError(min(failures)[2])
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return self.sizes.size


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite probability space with two partitions and two variables.

    Outcome ``i`` has probability ``probs[i]``, lies in atom ``g[i]`` of the
    partition G and atom ``h[i]`` of the partition H, and carries the values
    ``xi[i]`` and ``eta[i]``.  The fields are read-only arrays: float64
    ``probs``, ``xi``, ``eta`` and int64 labels ``g``, ``h`` that number the
    atoms ``0..n_g-1`` and ``0..n_h-1``, every atom non-empty.  Every value
    must be finite.  The space is a :class:`SpaceBlock` of one, which checks
    these rules and holds the arrays.

    :meth:`build` takes each partition as a list of atoms (lists of outcome
    indices), and ``atoms_g``/``atoms_h`` give the atoms back in that form;
    the computations work on the label arrays.  Exact computations on this
    space (mixing coefficient, covariance inequality) need at most 12 atoms
    per partition so that the sup over all 2**12 x 2**12 event pairs stays
    feasible.
    """

    probs: np.ndarray
    g: np.ndarray
    h: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    n_g: int = field(init=False)  # the number of atoms of G
    n_h: int = field(init=False)  # the number of atoms of H
    block: SpaceBlock = field(init=False, repr=False)  # this space as a block of one

    def __post_init__(self) -> None:
        self._adopt(SpaceBlock(self.probs, self.g, self.h, self.xi, self.eta))

    def _adopt(self, block: SpaceBlock) -> None:
        for name in ("probs", "g", "h", "xi", "eta"):
            object.__setattr__(self, name, getattr(block, name))
        object.__setattr__(self, "n_g", int(block.n_g[0]))
        object.__setattr__(self, "n_h", int(block.n_h[0]))
        object.__setattr__(self, "block", block)

    @classmethod
    def _of(cls, block: SpaceBlock) -> "FiniteSpace":
        """The space of a checked block of one, not checked again."""
        space = object.__new__(cls)
        space._adopt(block)
        return space

    @classmethod
    def build(cls, probs, atoms_g, atoms_h, xi, eta) -> "FiniteSpace":
        """A space from its partitions given as atoms: lists of outcome indices
        that together cover ``range(len(probs))`` once each."""
        n = len(probs)
        labels = []
        for partition, atoms in (("G", atoms_g), ("H", atoms_h)):
            atoms = [np.asarray(atom).ravel() for atom in atoms]
            if any(atom.size == 0 for atom in atoms):
                raise ValidationError(f"partition {partition} contains an empty atom")
            if any(atom.dtype.kind not in "iu" for atom in atoms):
                raise ValidationError(f"partition {partition} needs integer outcome indices")
            flat = np.concatenate(atoms).astype(np.int64) if atoms else np.empty(0, np.int64)
            if flat.size != n or (np.sort(flat) != np.arange(n)).any():
                raise ValidationError(
                    f"partition {partition} must cover the {n} outcomes disjointly"
                )
            label = np.empty(n, np.int64)
            label[flat] = np.repeat(np.arange(len(atoms)), [atom.size for atom in atoms])
            labels.append(label)
        return cls(probs, labels[0], labels[1], xi, eta)

    @cached_property
    def atoms_g(self) -> tuple[np.ndarray, ...]:
        """The atoms of G as read-only arrays of ascending outcome indices."""
        return _atoms(self.g, self.n_g)

    @cached_property
    def atoms_h(self) -> tuple[np.ndarray, ...]:
        """The atoms of H as read-only arrays of ascending outcome indices."""
        return _atoms(self.h, self.n_h)


def _real_array(name: str, values) -> np.ndarray:
    """``values`` as a new float64 array; :class:`ValidationError` naming ``name``
    unless they are numbers (a ``bool``, ``str`` or complex array is not)."""
    try:
        raw = np.asarray(values)
        if raw.dtype.kind in "iufO":
            return raw.astype(np.float64)
    except (TypeError, ValueError):  # ragged, or an object that is no real number
        pass
    raise ValidationError(f"{name} must hold real numbers, not bool, str or complex")


def _atoms(labels: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    order = np.argsort(labels, kind="stable")
    order.flags.writeable = False
    return tuple(np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1]))


@lru_cache(maxsize=MAX_ATOMS + 1)
def _union_bits(h: int) -> np.ndarray:
    """Row ``m`` holds the bits of ``m``: the H-atoms in the ``m``-th union."""
    masks = np.arange(1 << h, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(h, dtype=np.uint32)) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


def _as_block(spaces: SpaceBlock | Sequence[FiniteSpace]) -> Optional[SpaceBlock]:
    """``spaces`` as one block: a :class:`SpaceBlock` as it is, and a
    sequence of :class:`FiniteSpace` packed end to end (``None`` if empty)."""
    if isinstance(spaces, SpaceBlock):
        return spaces
    spaces = list(spaces)
    if len(spaces) <= 1:
        return spaces[0].block if spaces else None
    return SpaceBlock(*(np.concatenate([getattr(space, name) for space in spaces])
                        for name in ("probs", "g", "h", "xi", "eta")),
                      [space.probs.size for space in spaces])


def _check_caps(block: SpaceBlock, stop: Optional[int] = None) -> None:
    """:class:`CapacityError` naming the first space (before ``stop``) with
    too many atoms."""
    over = np.flatnonzero((block.n_g[:stop] > MAX_ATOMS) | (block.n_h[:stop] > MAX_ATOMS))
    if over.size:
        s = over[0]
        raise CapacityError(
            f"exact mixing coefficient capped at {MAX_ATOMS} atoms per partition, "
            f"got {block.n_g[s]} and {block.n_h[s]}"
        )


def _alphas(spaces: SpaceBlock | Sequence[FiniteSpace]) -> np.ndarray:
    """:func:`exact_alpha` of each space of a block (or of a list of spaces,
    packed), computed per shape ``(n_g, n_h)``.

    One ``bincount`` over the block's offset cell keys gives every joint
    table, each cell summing its outcomes in ascending order.  The spaces of
    one shape are stacked, at most ``ALPHA_VALUES`` union contributions at a
    time, and one ``matmul`` (a BLAS product per space) takes them to the
    unions, so every value is the one a single space gets.
    """
    block = _as_block(spaces)
    _check_caps(block)
    owner, n_g, n_h = block.owner, block.n_g, block.n_h
    cells = n_g * n_h
    first = np.cumsum(cells) - cells
    keys = first[owner] + block.g * n_h[owner] + block.h
    joint = np.bincount(keys, weights=block.probs, minlength=int(cells.sum()))
    shape = n_g * (MAX_ATOMS + 1) + n_h
    order = np.argsort(shape, kind="stable")
    alpha = np.empty(len(block))
    for members in np.split(order, np.flatnonzero(np.diff(shape[order])) + 1):
        g, h = int(n_g[members[0]]), int(n_h[members[0]])
        step = max(1, ALPHA_VALUES // (g << h))
        for part in (members[i:i + step] for i in range(0, members.size, step)):
            tables = joint[first[part, None] + np.arange(g * h)].reshape(-1, g, h)
            # P(a&b) - P(a)P(b)
            dev = tables - tables.sum(axis=2)[:, :, None] * tables.sum(axis=1)[:, None, :]
            w = dev @ _union_bits(h).T  # signed contribution of each G-atom per union B
            pos = np.maximum(w, 0.0).sum(axis=1).max(axis=1)
            neg = (-np.minimum(w, 0.0, out=w).sum(axis=1)).max(axis=1)
            alpha[part] = np.where(neg > pos, neg, pos)  # never -0.0 where both are 0
    return alpha


def exact_alpha(space: FiniteSpace) -> float:
    """Exact sup of |P(A&B) - P(A)P(B)| over unions A of G-atoms, B of H-atoms.

    For each union B, the optimal A keeps exactly the atoms whose signed
    contribution helps, so the sup is the max over the 2**|H| unions of the
    positive and negative parts; this evaluates the full 2**|G| x 2**|H|
    sup exactly.  The result always lies in [0, 1/4].
    """
    return float(_alphas(space.block)[0])


class DavydovResult(NamedTuple):
    """lhs/rhs of the covariance inequality on a finite space."""

    lhs: float
    rhs: float
    holds: bool
    alpha: float


def _scaled(
    start: np.ndarray, owner: np.ndarray, x: np.ndarray, p: float
) -> tuple[np.ndarray, list, list, np.ndarray]:
    """``(x / 2**e, e, m, (|x| / m)**p)`` with ``m = max|x|`` of each space
    and ``e`` its binary exponent.

    Every scaled value lies in (-1, 1) and a power-of-two scale is exact, so
    a covariance of scaled values cannot overflow and scales back exactly.
    The norm ``(E|x|**p)**(1/p)`` is ``m * (E(|x|/m)**p)**(1/p)``, see
    :func:`_norm`, so that no power under- or overflows."""
    size = np.abs(x)
    m = np.maximum.reduceat(size, start)
    e = np.frexp(m)[1]
    powers = (size / np.where(m == 0.0, 1.0, m)[owner]) ** p
    return np.ldexp(x, -e[owner]), e.tolist(), m.tolist(), powers


def _norm(m: float, mean_power: float, p: float) -> float:
    """``||x||_p`` from ``m = max|x|`` and ``E(|x|/m)**p``: a huge ``p`` gives
    ``m`` instead of 0, and ``p = inf`` gives exactly ``m``."""
    return 0.0 if m == 0.0 else m * mean_power ** (1.0 / p)


def davydov_checks(
    spaces: SpaceBlock | Sequence[FiniteSpace], p: float, q: float, r: float
) -> list[DavydovResult]:
    """:func:`davydov_check` of each space of a :class:`SpaceBlock`, or of a
    sequence of :class:`FiniteSpace`, packed once, in one pass.

    The exponents are checked once and measurability once, on the block's
    atoms numbered end to end; the spaces fail in order, the first space
    that is not measurable or exceeds the atom cap naming the error.  The
    mixing coefficients come from :func:`_alphas`, per shape, the
    elementwise parts (scales, powers, products) from the packed outcomes,
    and the five means of each space from :func:`_space_means`, one stacked
    product per outcome count and mean.  The rest (the covariance and its
    scale, the powers ``** (1/p)``, ``** (1/q)`` and ``** (1/r)``, the
    products of the right side) is taken per space in Python floats, since
    numpy's ``**`` rounds some powers otherwise.  The results are bit for
    bit those of one space at a time.
    """
    if not all(e == math.inf or is_real(e, ">=", 1) for e in (p, q, r)):
        raise ValidationError(f"exponents must be >= 1, got ({p}, {q}, {r})")
    if abs(1.0 / p + 1.0 / q + 1.0 / r - 1.0) > 1e-9:
        raise ValidationError(
            f"exponents ({p}, {q}, {r}) are not Hoelder conjugate: "
            f"1/p + 1/q + 1/r = {1.0/p + 1.0/q + 1.0/r}"
        )
    block = _as_block(spaces)
    if block is None:
        return []
    start, owner = block.start, block.owner
    failures = []  # (space, rank, message): xi before eta within a space
    for rank, (name, values, labels, counts, partition) in enumerate(
        (("xi", block.xi, block.g, block.n_g, "G"), ("eta", block.eta, block.h, block.n_h, "H"))
    ):
        # one value per atom; an atom is constant iff all its values equal it
        first = np.cumsum(counts) - counts
        atoms = first[owner] + labels
        sample = np.empty(int(counts.sum()))
        sample[atoms] = values
        bad = atoms[values != sample[atoms]]
        if bad.size:
            lowest = bad.min()
            s = int(np.searchsorted(first, lowest, "right")) - 1
            failures.append((s, rank, f"{name} is not measurable: "
                                      f"not constant on atom {lowest - first[s]} of {partition}"))
    if failures:
        s, _, message = min(failures)
        _check_caps(block, s)
        raise ValidationError(message)
    alpha = _alphas(block).tolist()
    xi, e_xi, m_xi, powers_xi = _scaled(start, owner, block.xi, p)
    eta, e_eta, m_eta, powers_eta = _scaled(start, owner, block.eta, q)
    means = _space_means(block, (xi * eta, xi, eta, powers_xi, powers_eta))
    results = []
    for a, e_x, e_y, m_x, m_y, mean_xy, mean_x, mean_y, power_x, power_y in zip(
        alpha, e_xi, e_eta, m_xi, m_eta, *(mean.tolist() for mean in means)
    ):
        try:
            lhs = math.ldexp(abs(mean_xy - mean_x * mean_y), e_x + e_y)
        except OverflowError:  # |Cov| itself lies past float range
            lhs = math.inf
        rhs = 10.0 * a ** (1.0 / r) * _norm(m_x, power_x, p) * _norm(m_y, power_y, q)
        results.append(DavydovResult(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-12, alpha=a))
    return results


def _space_means(block: SpaceBlock, columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``E[x]`` of each space of ``block`` for each packed array ``x`` of
    ``columns``, one outcome count ``n`` at a time.

    The ``k`` spaces of ``n`` outcomes are gathered into C-contiguous
    ``(k, n)`` rows, and each mean is one stacked ``(k, 1, n) @ (k, n, 1)``
    product.  numpy runs it as one BLAS dot per space, the dot that
    ``probs @ x`` runs on the space alone, so every mean has those bits.  (A
    ``(k, n, 5)`` operand, or one with a zero stride, takes other kernels.)"""
    sizes = block.sizes
    order = np.argsort(sizes, kind="stable")
    means = [np.empty(len(block)) for _ in columns]
    for members in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        at = block.start[members, None] + np.arange(sizes[members[0]])
        probs = block.probs[at][:, None, :]
        for mean, x in zip(means, columns):
            mean[members] = (probs @ x[at][:, :, None]).ravel()
    return means


def davydov_check(space: FiniteSpace, p: float, q: float, r: float) -> DavydovResult:
    """Check |Cov(xi, eta)| <= 10 * alpha**(1/r) * ||xi||_p * ||eta||_q.

    ``p, q, r`` must be Hoelder conjugate (1/p + 1/q + 1/r = 1 within 1e-9)
    and ``xi``/``eta`` must be measurable with respect to the G-/H-partition
    (constant on atoms).  Everything on the left and right is computed
    exactly on the finite space; ``holds`` allows 1e-12 absolute slack.
    """
    return davydov_checks(space.block, p, q, r)[0]


@dataclass(frozen=True)
class StripParams:
    """A fixed (P2, Q2, beta) triple for strip-bound evaluation."""

    P2: int
    Q2: int
    beta: float


@dataclass(frozen=True)
class TailEstimate:
    """One Monte Carlo tail estimate paired with its bound."""

    epsilon: float
    n_replicates: int
    n_exceed: int
    p_hat: float
    ci_upper_99: float
    log_bound: float
    violated: Optional[bool]
    certified: bool
    ci_lower_99: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TailBound:
    """The bound of one threshold and the parameters it used: ``P1`` is
    ``None`` on a strip, whose bound has no wedge."""

    epsilon: float
    threshold: float
    log_bound: float
    P1: Optional[int]
    P2: int
    Q2: int
    beta: float
    provenance: str


# log(k!) - log(sqrt(2*pi*k) * (k/e)**k) for k = 0..15 (Loader's table); a
# five-term asymptotic series takes over above 15
_STIRLING_ERRORS = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_Z_99 = 2.3263478740408408  # the standard normal 0.99 quantile


def _stirling_error(k: int) -> float:
    if k < len(_STIRLING_ERRORS):
        return _STIRLING_ERRORS[k]
    r = 1.0 / (k * k)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / k


def _deviance(x: int, mean: float) -> float:
    """``x*log(x/mean) + mean - x``, by its series where x is near the mean."""
    d = x - mean
    if abs(d) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = d / (x + mean)
    total, term, odd = d * v, 2.0 * x * v, 1
    while True:
        term *= v * v
        odd += 2
        nxt = total + term / odd
        if nxt == total:
            return total
        total = nxt


def _log_pmf(x: int, n: int, p: float, q: float) -> float:
    """log P(Bin(n, p) = x) for 0 < x < n and q = 1 - p, in the saddle point
    form of C. Loader, "Fast and accurate computation of binomial
    probabilities" (2000): no large logs cancel, and a rounding error in q
    moves the result only to second order."""
    return (
        _stirling_error(n) - _stirling_error(x) - _stirling_error(n - x)
        - _deviance(x, n * p) - _deviance(n - x, n * q)
        + 0.5 * math.log(n / (2.0 * math.pi * (x * (n - x))))
    )


def _cdf_root(j: int, n: int, t: float) -> float:
    """The p with P(Bin(n, p) <= j) = t, for 0 <= j < n and t in {0.01, 0.99}.

    ``log P(Bin(n, p) <= j)`` is log pmf(j) plus the log of the tail's terms
    relative to term j, whose logs are cumulative sums of
    ``log((n-m)/(m+1)) + logit(p)``.  It is concave and decreasing in p (a
    beta survival function), so Newton steps with derivative
    ``-n*pmf_{n-1}(j; p) / P(Bin(n, p) <= j)`` close in on the root from
    the right after at most one overshoot; a step leaving the bracket of
    evaluated points bisects it instead.  Callers pass ``j < n/2``, so the
    tail summed is the shorter one.
    """
    log_t = math.log(t)
    if j == 0:  # (1 - p)**n = t
        return -math.expm1(log_t / n)
    m = np.arange(j)
    # log(term_i / term_j) = -rise[i] - (j - i)*logit(p), for i = 0..j
    rise = np.append(np.cumsum(np.log((n - m) / (m + 1.0))[::-1])[::-1], 0.0)
    gaps = np.arange(j, -1, -1.0)
    # start: the Poisson limit's mean (Wilson-Hilferty gamma(j+1) quantile),
    # its offset from j+1 shrunk by the binomial's sqrt(1 - p)
    a = j + 1
    z = _Z_99 if t < 0.5 else -_Z_99
    mean = a * (1.0 - 1.0 / (9 * a) + z / (3.0 * math.sqrt(a))) ** 3
    p = (a + (mean - a) * math.sqrt(1.0 - a / n)) / n
    lo, hi = 0.0, 1.0
    if not lo < p < hi:
        p = 0.5
    while True:
        q = 1.0 - p
        e = -rise - gaps * (math.log(p) - math.log1p(-p))
        top = float(e.max())
        log_sum = top + math.log(float(np.exp(e - top).sum()))
        g = _log_pmf(j, n, p, q) + log_sum - log_t
        if g > 0.0:
            lo = p
        else:
            hi = p
        # Newton step -g / g' with g' = -(n - j) / (q * exp(log_sum))
        step = g * q * math.exp(log_sum) / (n - j) if log_sum < 700.0 else math.inf
        if abs(step) <= 1e-11 * p:  # the step after this one is below rounding
            return p + step
        p += step
        if not lo < p < hi:
            p = 0.5 * (lo + hi)


def _upper_pair(k: int, n: int) -> tuple[float, float]:
    """``(U, 1 - U)`` for the root U of P(Bin(n, U) <= k) = 0.01, 0 <= k < n.

    The smaller of the two is solved for directly, the other is 1 minus it:
    with q = 1 - p, P(Bin(n, p) <= k) = 0.01 is P(Bin(n, q) <= n-1-k) = 0.99.
    """
    if 2 * k < n:
        u = _cdf_root(k, n, 0.01)
        return u, 1.0 - u
    w = _cdf_root(n - 1 - k, n, 0.99)
    return 1.0 - w, w


def _check_counts(n_exceed: int, n: int) -> None:
    require((("n", n, 1),))
    require((("n_exceed", n_exceed, 0, n + 1),))


def binomial_upper_99(n_exceed: int, n: int) -> float:
    """Exact (Clopper-Pearson) one-sided 99% upper confidence limit: the p
    with P(Bin(n, p) <= n_exceed) = 0.01, and 1 when n_exceed = n."""
    _check_counts(n_exceed, n)
    return 1.0 if n_exceed == n else _upper_pair(n_exceed, n)[0]


def binomial_lower_99(n_exceed: int, n: int) -> float:
    """Exact (Clopper-Pearson) one-sided 99% lower confidence limit: the p
    with P(Bin(n, p) >= n_exceed) = 0.01, and 0 when n_exceed = 0.

    It is 1 minus the upper limit of the n - n_exceed non-exceedances."""
    _check_counts(n_exceed, n)
    return 0.0 if n_exceed == 0 else _upper_pair(n - n_exceed, n)[1]


def _default_grid(A: int, L: int) -> GridSpec:
    candidates = tuple(v for v in (2, 3, 4, 6, 8, 12, 16) if 2 * v < A**L)
    if not candidates:
        candidates = (2,)
    return GridSpec(p2_values=candidates, q2_values=candidates)


def _slice_child(fn: Callable[[range], np.ndarray], reps: range, write_fd: int) -> NoReturn:
    """In a forked child: send ``fn(reps)``, or the exception it raised,
    pickled through ``write_fd``, then leave by ``os._exit`` (status 0 once
    the reply is written) without returning into the caller's code, flushing
    a stdio buffer or running an ``atexit`` handler."""
    code = 1
    try:
        try:
            reply = (True, fn(reps))
        except Exception as exc:
            reply = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(reply))
        code = 0
    finally:
        os._exit(code)


def _forked_map(fn: Callable[[range], np.ndarray], slices: Sequence[range]) -> list:
    """``[fn(reps) for reps in slices]``, each slice after the first in a
    forked child while the parent runs the first.

    The children read the parent's arrays copy-on-write, so nothing is
    pickled on the way in; each sends back one pickled reply through its own
    pipe.  The parent closes each write end before the next fork, reads every
    pipe to its end and reaps its child.  Errors surface in slice order; a
    child that ends without a reply (a signal, the OOM killer) raises
    :class:`CapacityError`.  On any exception of its own, ``KeyboardInterrupt``
    included, the parent kills and reaps every child left before it re-raises.
    One slice, or a platform without ``os.fork``, runs inline.
    """
    if len(slices) == 1 or not hasattr(os, "fork"):
        return [fn(reps) for reps in slices]
    children = []  # (pid, read end) of every child not yet reaped
    try:
        for reps in slices[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _slice_child(fn, reps, write_fd)
            children.append((pid, read_fd))
            os.close(write_fd)
        results = [fn(slices[0])]
        for index, reps in enumerate(slices[1:], 1):
            pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            os.close(read_fd)
            if status:
                raise CapacityError(
                    f"worker slice {index} (replicates {reps.start} to {reps.stop - 1}) "
                    f"ended without a result: wait status {status}"
                )
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        from signal import SIGKILL  # loaded only on this path

        for pid, _ in children:
            try:
                os.kill(pid, SIGKILL)
            except ProcessLookupError:
                pass
        for pid, read_fd in children:
            os.close(read_fd)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        raise


def _epsilon_checks(eps_grid: Sequence[float]) -> list[tuple]:
    """The :func:`require` checks of each threshold of ``eps_grid``;
    :class:`ValidationError` at once when it is empty."""
    if not eps_grid:
        raise ValidationError("epsilon grid must be non-empty")
    return [(f"epsilon[{i}]", e, ">", 0) for i, e in enumerate(eps_grid)]


def _check_region(region: Region, A: int) -> None:
    """:class:`ValidationError` unless ``region`` is a strip or generations
    region, then the node cap, which refuses a deep region before its bound
    and its exact count."""
    if not isinstance(region, (Strip, Generations)):
        raise ValidationError("tail bounds pair with strip or generations regions only")
    check_node_cap(region, A)


def tail_bounds(
    field: FieldSpec,
    region: Region,
    A: int,
    eps_grid: Sequence[float],
    *,
    bound_params: Optional[StripParams] = None,
    eta: Optional[float] = None,
    D: Optional[float] = None,
) -> list[TailBound]:
    """The bound of each threshold that :func:`mc_tail` pairs with its
    estimate, with the parameters it used; nothing is sampled.

    On a :class:`Strip` region the statistic is the raw ``|sum Z_v|``, the
    threshold is ``epsilon`` and the bound is the strip bound, at
    ``bound_params`` if given and otherwise at the ``(P2, Q2, beta)`` that
    :func:`optimize_params` picks over the default grid.  On a
    :class:`Generations` region the statistic is normalized by the node
    count, so the threshold is ``epsilon * |region|``, and the bound is the
    whole-tree bound with the ``(P1, P2, Q2, beta)`` that
    :func:`concentration_schedule` derives from ``eta`` and ``D`` (``None``
    takes the default of :class:`ConcentrationInput`).  An option the
    region's bound does not use (``eta`` or ``D`` on a strip,
    ``bound_params`` on generations) raises :class:`ValidationError`, so it
    is never silently ignored.
    """
    require((), _epsilon_checks(eps_grid))
    _check_region(region, A)
    strip = isinstance(region, Strip)
    given = {name: value for name, value in (("eta", eta), ("D", D)) if value is not None}
    stray = list(given) if strip else ["P2, Q2, beta"] if bound_params is not None else []
    if stray:
        raise ValidationError(f"{', '.join(stray)} cannot be given for a "
                              f"{'strip' if strip else 'generations'} region, "
                              f"whose bound does not use them")
    cert = field_certificate(field)
    provenance = cert.envelope.provenance
    out = []
    if strip:
        grid = _default_grid(A, region.level)
        for e in map(float, eps_grid):
            if bound_params is None:
                inp = optimize_params(A, region.level, region.depth, cert.C, cert.sigma2,
                                      cert.envelope, e, grid)
            else:
                inp = BernsteinInput(
                    A=A, L=region.level, P=region.depth,
                    P2=bound_params.P2, Q2=bound_params.Q2, beta=bound_params.beta,
                    epsilon=e, C=cert.C, sigma2=cert.sigma2, envelope=cert.envelope,
                )
            log_bound = float(bernstein_bound(inp).log_total)
            out.append(TailBound(e, e, log_bound, None, inp.P2, inp.Q2, inp.beta, provenance))
        return out
    scale = float_in_range("|region|", region_node_count(region, A))
    for e in map(float, eps_grid):
        inp = ConcentrationInput(A=A, L=region.count, epsilon=e, C=cert.C,
                                 sigma2=cert.sigma2, envelope=cert.envelope, **given)
        log_bound = float(concentration_bound(inp).log_total)
        s = concentration_schedule(inp)
        out.append(TailBound(e, e * scale, log_bound, s.P1, s.P2, s.Q2, s.beta, provenance))
    return out


def mc_tail(
    field: FieldSpec,
    region: Region,
    A: int,
    eps_grid: Sequence[float],
    n_replicates: int,
    *,
    workers: int = 1,
    bound_params: Optional[StripParams] = None,
    eta: Optional[float] = None,
    D: Optional[float] = None,
) -> list[TailEstimate]:
    """Monte Carlo tail probabilities of the field sum, each paired with the
    bound :func:`tail_bounds` gives its threshold at the bound options given.

    Replicates 0..n-1 are split into ``workers`` contiguous slices whose
    exceedance counts merge by addition; the counter-based field generator
    makes the outcome identical for every worker count.  The region's weights
    and node keys are built once (:func:`region_sums_of`); each slice runs
    only the tile loop on them.  The first slice runs in the calling process
    and every other one in a forked child (:func:`_forked_map`), which shares
    no interpreter lock with it: on a 2-core host two workers ran the
    ``generations(12)`` tile loop 1.39-1.61x as fast as one, where two threads
    gained 1.11-1.33x.  One worker forks nothing.

    Each slice counts the exceedances of ``MC_REPLICATE_BLOCK`` = 4096
    replicates at a time, so its memory does not grow with the replicate
    count.  Replicates times the region's support nodes may hash at most
    ``MC_HASHED_VALUES`` = 2**40 innovations, about 42 minutes at 2.3 ns
    each; more raise :class:`CapacityError` before any array is built.
    """
    require((("n_replicates", n_replicates, 100), ("workers", workers, 1, MAX_WORKERS + 1)),
            _epsilon_checks(eps_grid))
    _check_region(region, A)
    _check_hashed(field, region, A, n_replicates)
    bounds = tail_bounds(field, region, A, eps_grid, bound_params=bound_params, eta=eta, D=D)
    thresholds = np.array([bound.threshold for bound in bounds])
    sums = region_sums_of(field, region, A)

    def exceed_counts(reps: range) -> np.ndarray:
        counts = np.zeros(len(thresholds), dtype=np.int64)
        for lo in range(reps.start, reps.stop, MC_REPLICATE_BLOCK):
            block = range(lo, min(lo + MC_REPLICATE_BLOCK, reps.stop))
            counts += (np.abs(sums(block))[None, :] > thresholds[:, None]).sum(axis=1)
        return counts

    step = -(-n_replicates // workers)
    slices = [range(s, min(s + step, n_replicates)) for s in range(0, n_replicates, step)]
    counts = np.sum(_forked_map(exceed_counts, slices), axis=0).tolist()  # plain Python ints
    n, certified = int(n_replicates), bounds[0].provenance == "exact"
    out = []
    for bound, k in zip(bounds, counts):
        ci_lower = binomial_lower_99(k, n)
        violated = bound.log_bound < 0.0 and ci_lower > math.exp(bound.log_bound)
        out.append(TailEstimate(
            epsilon=bound.epsilon, n_replicates=n, n_exceed=k, p_hat=k / n,
            ci_upper_99=binomial_upper_99(k, n), log_bound=bound.log_bound,
            violated=violated if certified else None, certified=certified, ci_lower_99=ci_lower,
        ))
    return out


def _check_hashed(field: FieldSpec, region: Strip | Generations, A: int, n_replicates: int) -> None:
    """:class:`CapacityError` when ``n_replicates`` replicates of the support
    of ``field`` on ``region`` hash more than ``MC_HASHED_VALUES``
    innovations, counted in closed form before a power of ``A`` past the cap
    is formed.  A field that cannot be summed on the region at all (its
    balls or ancestors over their caps) is refused as such first."""
    lo, hi = _support_span(field, region)
    if hi == lo:
        return
    bits = low_bits(A, hi - 1)  # the deepest support generation alone has A**(hi - 1) nodes
    support = (A**hi - A**lo) // (A - 1) if bits < MC_HASHED_VALUES.bit_length() else None
    if support is None or n_replicates * support > MC_HASHED_VALUES:
        _region_runs(field, region, A)
        nodes = f"at least 2**{bits}" if support is None else support
        raise CapacityError(f"{n_replicates} replicates of {nodes} support nodes hash more than "
                            f"the cap of {MC_HASHED_VALUES} innovations")


def tail_estimates_to_jsonl(estimates: Sequence[TailEstimate]) -> str:
    """One JSON object per estimate, in a fixed field order."""
    return "".join(json.dumps(t.as_dict(), sort_keys=False) + "\n" for t in estimates)


def random_finite_spaces(
    rng: np.random.Generator, count: int, max_outcomes: int = 64, max_atoms: int = 8
) -> SpaceBlock:
    """``count`` random spaces with measurable variables, as one block.

    Each space has 2 to ``max_outcomes`` outcomes, whose probabilities are
    normalized uniforms; each partition assigns outcomes to at most
    ``max_atoms`` non-empty atoms; the two variables are uniform on [-1, 1)
    per atom, broadcast to outcomes, hence exactly measurable by
    construction.  Both sizes are capped at ``MAX_OUTCOMES``.

    Every space reads one slot of ``1 + M + 2 (1 + M + A)`` uniforms ``u``
    of ``rng.random``, for ``M = max_outcomes`` and ``A = max_atoms``, in
    this order:

    * one for the outcome count ``n = 2 + floor(u (M - 1))``;
    * ``M`` weights ``u + 1e-3``, of which the first ``n`` are the space's,
      each divided by their sum added left to right;
    * per partition, G then H: one for the atom count
      ``n_atoms = 1 + floor(u A)``; ``M`` labels ``floor(u n_atoms)``, of
      which the first ``n`` are the outcomes'; ``A`` atom values ``2 u - 1``,
      the variable taking on each outcome the value at its label.  The atoms
      in use are then numbered ``0, 1, ...`` in label order.

    ``floor(u R) <= R - 1`` for every double ``u < 1`` and ``R < 2**20``, so
    no count or label reaches its bound.  The slots are drawn
    ``DRAW_VALUES`` uniforms at a time (one slot if it is wider) and read
    with array operations; the block keeps the arrays they give, one field
    joined at a time, without a further copy.  A block depends only on its
    slots, so it holds the spaces that ``count`` calls of
    :func:`random_finite_space` draw, and leaves the generator in the same
    state, however it is split.
    """
    require((("count", count, 1), ("max_outcomes", max_outcomes, 2), ("max_atoms", max_atoms, 1)))
    over = [f"{name} = {value}" for name, value in
            (("max_outcomes", max_outcomes), ("max_atoms", max_atoms)) if value > MAX_OUTCOMES]
    if over:
        raise CapacityError(f"random finite spaces capped at {MAX_OUTCOMES} outcomes "
                            f"and atoms per partition, got {' and '.join(over)}")
    width = 1 + max_outcomes + 2 * (1 + max_outcomes + max_atoms)
    rows = max(1, DRAW_VALUES // width)
    parts = [_read_slots(rng.random((min(rows, count - s), width)), max_outcomes, max_atoms)
             for s in range(0, count, rows)]
    columns = list(zip(*parts))
    del parts
    for i in range(len(columns)):  # one field joined at a time, its pieces freed before the next
        columns[i] = np.concatenate(columns[i]) if len(columns[i]) > 1 else columns[i][0]
    sizes, probs, g, xi, h, eta = columns
    return SpaceBlock._fresh(probs, g, h, xi, eta, sizes)


def _read_slots(u: np.ndarray, M: int, A: int) -> tuple[np.ndarray, ...]:
    """The sizes, probabilities, and labels and values of G and H of the
    spaces of the slots ``u`` (one row each) of :func:`random_finite_spaces`."""
    r, width = u.shape
    sizes = (u[:, 0] * (M - 1)).astype(np.int64)
    sizes += 2
    used = np.arange(M) < sizes[:, None]  # the first n entries of each M-wide field
    owner = np.repeat(np.arange(r), sizes)
    weights = u[:, 1:1 + M] + 1e-3
    probs = weights[used]
    totals = np.cumsum(weights, axis=1, out=weights)[np.arange(r), sizes - 1]
    probs /= totals[owner]
    out = [sizes, probs]
    for base in (1 + M, 2 + 2 * M + A):
        n_atoms = (u[:, base] * A).astype(np.int64)
        n_atoms += 1
        labels = u[:, base + 1:base + 1 + M][used]
        labels *= n_atoms[owner]
        labels = labels.astype(np.int64)
        values = u.ravel()[owner * width + (base + 1 + M) + labels]
        values *= 2.0
        values -= 1.0
        in_use = np.zeros((r, A), bool)
        in_use[owner, labels] = True
        out += [np.cumsum(in_use, axis=1)[owner, labels] - 1, values]
    return tuple(out)


def random_finite_space(
    rng: np.random.Generator, max_outcomes: int = 64, max_atoms: int = 8
) -> FiniteSpace:
    """A random finite space with measurable variables, for randomized checks:
    the block of one of :func:`random_finite_spaces`, which reads it from one
    slot of ``1 + M + 2 (1 + M + A)`` uniforms (``M = max_outcomes``,
    ``A = max_atoms``): 2 to ``M`` outcomes, at most ``A`` atoms per
    partition, the variables ``2 u - 1`` per atom.  Every count and label is
    ``floor(u R)`` for a range ``R``, which stays below ``R`` for every double
    ``u < 1``."""
    return FiniteSpace._of(random_finite_spaces(rng, 1, max_outcomes, max_atoms))


@dataclass(frozen=True)
class EventPair:
    """Two node sets with threshold events on their sums."""

    nodes_a: tuple[NodeId, ...]
    nodes_b: tuple[NodeId, ...]
    threshold_a: float = 0.0
    threshold_b: float = 0.0

    def __post_init__(self) -> None:
        require((), [(name, getattr(self, name), ">", -math.inf)
                     for name in ("threshold_a", "threshold_b")])


@dataclass(frozen=True)
class AlphaSamplePlan:
    """A finite family of event pairs probed for dependence."""

    pairs: tuple[EventPair, ...]
    n_replicates: int = 10_000


@dataclass(frozen=True)
class AlphaLowerBound:
    """A sampled lower bound on a mixing coefficient, with its MC error."""

    value: float
    std_error: float
    pair_index: int


def _separation(nodes_a: Sequence[NodeId], nodes_b: Sequence[NodeId], A: int) -> int:
    """The least :func:`tree_distance` between a node of ``nodes_a`` and one of
    ``nodes_b``, over all pairs at once, ``PAIR_BLOCK`` pairs at a time.

    The nodes are validated in the order a loop over the pairs meets them,
    ``nodes_a[0]`` with each of ``nodes_b`` first."""
    validate_node(nodes_a[0], A)
    jb, kb = node_labels(nodes_b, A)
    ja, ka = node_labels(nodes_a, A)
    step = max(1, PAIR_BLOCK // len(jb))
    return min(int(tree_distances(ja[lo:lo + step, None], ka[lo:lo + step, None], jb, kb, A).min())
               for lo in range(0, len(ja), step))


def empirical_alpha_lower(
    field: FieldSpec, A: int, n: int, plan: AlphaSamplePlan
) -> AlphaLowerBound:
    """Max over the plan of |P(A&B) - P(A)P(B)| from sampled threshold events.

    This is a statistical *lower* bound for the mixing coefficient at
    separation ``n``: the true coefficient takes a sup over all events,
    any sampled family under-approximates it.  Every pair in the plan must
    keep its two node sets at tree distance >= n.

    Replicates times the innovations that the node sets of all pairs hash
    per replicate (counted by the checks of sampling, which come first) may
    be at most ``MC_HASHED_VALUES`` = 2**40, the cap of :func:`mc_tail`;
    more raise :class:`CapacityError` before any array of samples is built.
    """
    if not plan.pairs:
        raise ValidationError("sample plan must contain at least one event pair")
    require((("n", n, 1), ("plan.n_replicates", plan.n_replicates, 100)))
    for idx, pair in enumerate(plan.pairs):
        if not pair.nodes_a or not pair.nodes_b:
            raise ValidationError(f"event pair {idx} has an empty node set")
        d = _separation(pair.nodes_a, pair.nodes_b, A)
        if d < n:
            raise ValidationError(
                f"event pair {idx} has node sets at distance {d} < required {n}"
            )
    hashed = sum(_checked_runs(field, _label_runs(*node_labels(nodes, A))[0], A)
                 for pair in plan.pairs for nodes in (pair.nodes_a, pair.nodes_b))
    if plan.n_replicates * hashed > MC_HASHED_VALUES:
        raise CapacityError(f"{plan.n_replicates} replicates of {hashed} innovations each "
                            f"hash more than the cap of {MC_HASHED_VALUES} innovations")

    reps = range(plan.n_replicates)
    best = AlphaLowerBound(value=-1.0, std_error=0.0, pair_index=-1)
    for idx, pair in enumerate(plan.pairs):
        sums_a = node_sums(field, pair.nodes_a, A, reps)
        sums_b = node_sums(field, pair.nodes_b, A, reps)
        x = (sums_a > pair.threshold_a).astype(np.float64)
        y = (sums_b > pair.threshold_b).astype(np.float64)
        p_a, p_b = x.mean(), y.mean()
        stat = abs((x * y).mean() - p_a * p_b)
        resid = (x - p_a) * (y - p_b)
        se = float(resid.std(ddof=1) / math.sqrt(plan.n_replicates))
        if stat > best.value:
            best = AlphaLowerBound(value=float(stat), std_error=se, pair_index=idx)
    return best
