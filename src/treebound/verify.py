"""Numerical verification: Monte Carlo tails against bounds, exact mixing
coefficients on finite probability spaces, and sampled mixing lower bounds.

The mixing coefficient between two finite partitions is computed exactly
(the sup over all unions of atoms), which makes the covariance inequality
testable without any estimation error.  A :class:`FiniteSpace` holds its
outcomes as arrays, each partition as one atom label per outcome, so the
exact path works on whole arrays.  It checks a block of spaces at once
(:func:`davydov_checks`; :func:`davydov_check` and :func:`exact_alpha` are
blocks of one): the outcomes of the block are laid end to end, one
``bincount`` gives every joint atom table, and the spaces of one shape
``(n_g, n_h)`` take their unions of H-atoms in one stacked product with a
cached matrix.  The means ``E[x]`` stay one BLAS dot per space, because
no batched numpy form adds in the same order, so a block gives each space
the bits it gets alone.  Lists of atoms appear only at the API edge, in
``FiniteSpace.build`` and the ``atoms_g``/``atoms_h`` views.  For
simulated fields the sup over arbitrary events is out of reach, so the
module only ever reports sampled *lower* bounds there, clearly separated
from the exact path.

Monte Carlo tail estimates are paired with the corresponding bound and a
violation is only flagged when the exact-binomial (Clopper-Pearson) 99%
*lower* confidence limit of the empirical tail exceeds a bound that is
itself below 1: the true tail then lies above the bound with 99%
confidence, so Monte Carlo noise alone (zero exceedances, say) cannot
raise a false alarm.  The 99% upper limit is reported alongside.
Estimates whose envelope is not provenance-exact are marked uncertified
instead of violated.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .bounds import (
    BernsteinInput,
    GridSpec,
    bernstein_bound,
    concentration_bound,
    ConcentrationInput,
    optimize_params,
)
from .errors import CapacityError, ValidationError, float_in_range, is_real, require
from .fields import FieldSpec, field_certificate, node_sums, region_sums
from .tree import (
    MAX_LABEL, Generations, NodeId, Region, Strip, check_node_cap, region_node_count,
    validate_node,
)

MAX_ATOMS = 12
ALPHA_VALUES = 1 << 15  # the most union contributions one stacked product holds
PAIR_BLOCK = 1 << 16  # the most node pairs one separation step holds
MAX_WORKERS = 64  # the most threads one mc_tail call starts


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite probability space with two partitions and two variables.

    Outcome ``i`` has probability ``probs[i]``, lies in atom ``g[i]`` of the
    partition G and atom ``h[i]`` of the partition H, and carries the values
    ``xi[i]`` and ``eta[i]``.  The fields are read-only arrays: float64
    ``probs``, ``xi``, ``eta`` and int64 labels ``g``, ``h`` that number the
    atoms ``0..n_g-1`` and ``0..n_h-1``, every atom non-empty.  Every value
    must be finite.

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

    def __post_init__(self) -> None:
        arrays = {
            "probs": _real_array("probs", self.probs),
            "xi": _real_array("xi", self.xi),
            "eta": _real_array("eta", self.eta),
            "g": np.array(self.g),
            "h": np.array(self.h),
        }
        probs = arrays["probs"]
        n = probs.size
        if probs.ndim != 1 or n == 0:
            raise ValidationError("finite space needs a non-empty 1-d array of probabilities")
        for name, array in arrays.items():
            if array.shape != probs.shape:
                raise ValidationError(f"{name} must give a value for each of {n} outcomes")
        finite = np.isfinite(np.concatenate((probs, arrays["xi"], arrays["eta"])))
        if not finite.all():
            name = ("probs", "xi", "eta")[np.flatnonzero(~finite)[0] // n]
            raise ValidationError(f"{name} must be finite (no NaN or infinity)")
        if probs.min() < 0:
            raise ValidationError("outcome probabilities must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"outcome probabilities sum to {total!r}, not 1 within 1e-12")
        for name, partition in (("g", "G"), ("h", "H")):
            labels = arrays[name]
            if labels.dtype.kind not in "iu" or not 0 <= labels.min() <= labels.max() < n:
                raise ValidationError(f"partition {partition} needs integer labels in 0..{n - 1}")
            labels = arrays[name] = labels.astype(np.int64, copy=False)
            sizes = np.bincount(labels)
            if not sizes.all():
                raise ValidationError(f"partition {partition} contains an empty atom")
            object.__setattr__(self, f"n_{name}", sizes.size)
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

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


def _check_caps(spaces: Sequence[FiniteSpace]) -> None:
    """:class:`CapacityError` naming the first space with too many atoms."""
    for space in spaces:
        if space.n_g > MAX_ATOMS or space.n_h > MAX_ATOMS:
            raise CapacityError(
                f"exact mixing coefficient capped at {MAX_ATOMS} atoms per partition, "
                f"got {space.n_g} and {space.n_h}"
            )


def _layout(spaces: Sequence[FiniteSpace]) -> tuple[np.ndarray, np.ndarray]:
    """``(start, owner)`` of the spaces' outcomes laid end to end: space ``s``
    begins at outcome ``start[s]`` and outcome ``i`` belongs to ``owner[i]``."""
    sizes = np.array([space.probs.size for space in spaces])
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(len(spaces)), sizes)


def _joined(spaces: Sequence[FiniteSpace], name: str) -> np.ndarray:
    return np.concatenate([getattr(space, name) for space in spaces])


def _alphas(spaces: Sequence[FiniteSpace]) -> np.ndarray:
    """:func:`exact_alpha` of each space, computed per shape ``(n_g, n_h)``.

    One ``bincount`` over the block's offset cell keys gives every joint
    table, each cell summing its outcomes in ascending order.  The spaces of
    one shape are stacked, at most ``ALPHA_VALUES`` union contributions at a
    time, and one ``matmul`` (a BLAS product per space) takes them to the
    unions, so every value is the one a single space gets.
    """
    _check_caps(spaces)
    _, owner = _layout(spaces)
    n_g = np.array([space.n_g for space in spaces])
    n_h = np.array([space.n_h for space in spaces])
    cells = n_g * n_h
    first = np.cumsum(cells) - cells
    keys = first[owner] + _joined(spaces, "g") * n_h[owner] + _joined(spaces, "h")
    joint = np.bincount(keys, weights=_joined(spaces, "probs"), minlength=int(cells.sum()))
    shape = n_g * (MAX_ATOMS + 1) + n_h
    order = np.argsort(shape, kind="stable")
    alpha = np.empty(len(spaces))
    for members in np.split(order, np.flatnonzero(np.diff(shape[order])) + 1):
        g, h = spaces[members[0]].n_g, spaces[members[0]].n_h
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
    return float(_alphas([space])[0])


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
    return 0.0 if m == 0.0 else m * float(mean_power) ** (1.0 / p)


def davydov_checks(
    spaces: Sequence[FiniteSpace], p: float, q: float, r: float
) -> list[DavydovResult]:
    """:func:`davydov_check` of each space, in one pass over the block.

    The exponents are checked once and measurability once, on the block's
    atoms numbered end to end; the spaces fail in order, the first space
    that is not measurable or exceeds the atom cap naming the error.  The
    mixing coefficients come from :func:`_alphas`, per shape, and the
    elementwise parts (scales, powers, products) from the concatenated
    outcomes.  The means stay one BLAS dot per space: no batched numpy
    form adds in the same order, and the results are bit for bit those of
    one space at a time.
    """
    if not all(e == math.inf or is_real(e, ">=", 1) for e in (p, q, r)):
        raise ValidationError(f"exponents must be >= 1, got ({p}, {q}, {r})")
    if abs(1.0 / p + 1.0 / q + 1.0 / r - 1.0) > 1e-9:
        raise ValidationError(
            f"exponents ({p}, {q}, {r}) are not Hoelder conjugate: "
            f"1/p + 1/q + 1/r = {1.0/p + 1.0/q + 1.0/r}"
        )
    spaces = list(spaces)
    if not spaces:
        return []
    start, owner = _layout(spaces)
    xi, eta = _joined(spaces, "xi"), _joined(spaces, "eta")
    failures = []  # (space, rank, message): xi before eta within a space
    for rank, (name, values, labels, partition) in enumerate(
        (("xi", xi, "g", "G"), ("eta", eta, "h", "H"))
    ):
        # one value per atom; an atom is constant iff all its values equal it
        counts = np.array([getattr(space, f"n_{labels}") for space in spaces])
        first = np.cumsum(counts) - counts
        atoms = first[owner] + _joined(spaces, labels)
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
        _check_caps(spaces[:s])
        raise ValidationError(message)
    alpha = _alphas(spaces).tolist()
    xi, e_xi, m_xi, powers_xi = _scaled(start, owner, xi, p)
    eta, e_eta, m_eta, powers_eta = _scaled(start, owner, eta, q)
    xi_eta = xi * eta
    results = []
    for s, (space, lo) in enumerate(zip(spaces, start.tolist())):
        probs, part = space.probs, slice(lo, lo + space.probs.size)
        cov = abs(float(probs @ xi_eta[part])
                  - float(probs @ xi[part]) * float(probs @ eta[part]))
        try:
            lhs = math.ldexp(cov, e_xi[s] + e_eta[s])
        except OverflowError:  # |Cov| itself lies past float range
            lhs = math.inf
        norm_xi = _norm(m_xi[s], probs @ powers_xi[part], p)
        norm_eta = _norm(m_eta[s], probs @ powers_eta[part], q)
        rhs = 10.0 * alpha[s] ** (1.0 / r) * norm_xi * norm_eta
        results.append(DavydovResult(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-12, alpha=alpha[s]))
    return results


def davydov_check(space: FiniteSpace, p: float, q: float, r: float) -> DavydovResult:
    """Check |Cov(xi, eta)| <= 10 * alpha**(1/r) * ||xi||_p * ||eta||_q.

    ``p, q, r`` must be Hoelder conjugate (1/p + 1/q + 1/r = 1 within 1e-9)
    and ``xi``/``eta`` must be measurable with respect to the G-/H-partition
    (constant on atoms).  Everything on the left and right is computed
    exactly on the finite space; ``holds`` allows 1e-12 absolute slack.
    """
    return davydov_checks([space], p, q, r)[0]


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


def _exceed_counts(
    spec: FieldSpec, region: Region, A: int, reps: Sequence[int], thresholds: np.ndarray
) -> np.ndarray:
    sums = np.abs(region_sums(spec, region, A, reps))
    return (sums[None, :] > thresholds[:, None]).sum(axis=1)


def mc_tail(
    field: FieldSpec,
    region: Region,
    A: int,
    eps_grid: Sequence[float],
    n_replicates: int,
    *,
    workers: int = 1,
    bound_params: Optional[StripParams] = None,
    eta: float = 0.5,
    D: float = 1.0,
    grid: Optional[GridSpec] = None,
) -> list[TailEstimate]:
    """Monte Carlo tail probabilities of the field sum, paired with bounds.

    For a :class:`Strip` region the statistic is the raw ``|sum Z_v|`` and
    the bound is the strip bound (with ``bound_params`` if given, otherwise
    optimizer-chosen per threshold); for a :class:`Generations` region the
    statistic is normalized by the node count and the bound is the
    whole-tree bound with schedule parameters ``eta`` and ``D``.

    Replicates 0..n-1 are split into ``workers`` contiguous slices whose
    exceedance counts merge by addition; the counter-based field generator
    makes the outcome identical for every worker count.
    """
    if not eps_grid:
        raise ValidationError("epsilon grid must be non-empty")
    require((("n_replicates", n_replicates, 100), ("workers", workers, 1, MAX_WORKERS + 1)),
            [(f"epsilon[{i}]", e, ">", 0) for i, e in enumerate(eps_grid)])

    cert = field_certificate(field)
    certified = cert.envelope.provenance == "exact"
    eps = [float(e) for e in eps_grid]

    if isinstance(region, Strip):
        scale = 1.0
        log_bounds = []
        for e in eps:
            if bound_params is not None:
                inp = BernsteinInput(
                    A=A, L=region.level, P=region.depth,
                    P2=bound_params.P2, Q2=bound_params.Q2, beta=bound_params.beta,
                    epsilon=e, C=cert.C, sigma2=cert.sigma2, envelope=cert.envelope,
                )
            else:
                inp = optimize_params(
                    A, region.level, region.depth, cert.C, cert.sigma2,
                    cert.envelope, e, grid or _default_grid(A, region.level),
                )
            log_bounds.append(bernstein_bound(inp).log_total)
    elif isinstance(region, Generations):
        check_node_cap(region, A)  # a deep region is refused before its exact count
        scale = float_in_range("|region|", region_node_count(region, A))
        log_bounds = [
            concentration_bound(
                ConcentrationInput(
                    A=A, L=region.count, epsilon=e, C=cert.C,
                    sigma2=cert.sigma2, envelope=cert.envelope, eta=eta, D=D,
                )
            ).log_total
            for e in eps
        ]
    else:
        raise ValidationError(
            "mc_tail pairs bounds with strip or generations regions only"
        )

    thresholds = np.array([e * scale for e in eps])
    all_reps = range(n_replicates)
    if workers == 1:
        counts = _exceed_counts(field, region, A, all_reps, thresholds)
    else:
        step = -(-n_replicates // workers)
        slices = [range(s, min(s + step, n_replicates)) for s in range(0, n_replicates, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda sl: _exceed_counts(field, region, A, sl, thresholds), slices
                )
            )
        counts = np.sum(parts, axis=0)

    out, n = [], int(n_replicates)  # plain Python numbers in the records
    for e, k, log_bound in zip(eps, counts, log_bounds):
        k = int(k)
        ci_lower = binomial_lower_99(k, n)
        if certified:
            violated = bool(log_bound < 0.0 and ci_lower > math.exp(log_bound))
        else:
            violated = None
        out.append(
            TailEstimate(
                epsilon=e,
                n_replicates=n,
                n_exceed=k,
                p_hat=k / n,
                ci_upper_99=binomial_upper_99(k, n),
                log_bound=float(log_bound),
                violated=violated,
                certified=certified,
                ci_lower_99=ci_lower,
            )
        )
    return out


def tail_estimates_to_jsonl(estimates: Sequence[TailEstimate]) -> str:
    """One JSON object per estimate, in a fixed field order."""
    return "".join(json.dumps(t.as_dict(), sort_keys=False) + "\n" for t in estimates)


def random_finite_space(
    rng: np.random.Generator, max_outcomes: int = 64, max_atoms: int = 8
) -> FiniteSpace:
    """A random finite space with measurable variables, for randomized checks.

    Outcome probabilities are normalized uniforms; each partition assigns
    outcomes to at most ``max_atoms`` non-empty atoms; the two variables are
    uniform on [-1, 1] per atom, broadcast to outcomes, hence exactly
    measurable by construction.
    """
    require((("max_outcomes", max_outcomes, 2), ("max_atoms", max_atoms, 1)))
    n = int(rng.integers(2, max_outcomes + 1))
    probs = rng.random(n) + 1e-3
    probs /= probs.sum()

    def labels_and_values() -> tuple[np.ndarray, np.ndarray]:
        n_atoms = int(rng.integers(1, max_atoms + 1))
        labels = rng.integers(0, n_atoms, size=n)
        used = np.bincount(labels, minlength=n_atoms) > 0
        labels = (used.cumsum() - 1)[labels]  # drop the empty atoms
        atom_values = rng.uniform(-1.0, 1.0, size=np.count_nonzero(used))
        return labels, atom_values[labels]

    g, xi = labels_and_values()
    h, eta = labels_and_values()
    return FiniteSpace(probs, g, h, xi, eta)


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


def _labels(nodes: Sequence[NodeId]) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.array([[v.j, v.k] for v in nodes], dtype=np.int64).T)


def _separation(nodes_a: Sequence[NodeId], nodes_b: Sequence[NodeId], A: int) -> int:
    """The least :func:`tree_distance` between a node of ``nodes_a`` and one of
    ``nodes_b``, over all pairs at once, ``PAIR_BLOCK`` pairs at a time.

    The deeper node of a pair is lifted to the other's generation in one step
    (its ancestor ``s`` generations up has index ``(k - 1) // A**s + 1``, and
    index 1 once ``A**s`` passes the 63-bit labels), then both sides climb
    together until their indices meet.  The nodes are validated in the order
    a loop over the pairs meets them, ``nodes_a[0]`` with each of
    ``nodes_b`` first."""
    for v in (nodes_a[0], *nodes_b, *nodes_a[1:]):
        validate_node(v, A)
    ja, ka = _labels(nodes_a)
    jb, kb = _labels(nodes_b)
    powers = [A**s for s in range(64) if A**s < MAX_LABEL]  # A**s as int64
    top = len(powers) - 1
    powers = np.array(powers, dtype=np.int64)
    least = []
    step = max(1, PAIR_BLOCK // len(jb))
    for lo in range(0, len(ja), step):
        gap = ja[lo:lo + step, None] - jb  # generations the first node lies below the second
        # each side's ancestor in the shallower generation, as its index - 1
        a, b = (np.where(s > top, 0, (k - 1) // powers[np.clip(s, 0, top)])
                for k, s in ((ka[lo:lo + step, None], gap), (kb, -gap)))
        climbs = np.zeros(gap.shape, dtype=np.uint64)
        while True:
            apart = a != b
            if not apart.any():
                break
            climbs += apart
            a //= A
            b //= A
        # at most 2**63 - 1 generations apart plus 2 * 63 climbs: no uint64 overflow
        least.append(int((np.abs(gap).astype(np.uint64) + 2 * climbs).min()))
    return min(least)


def empirical_alpha_lower(
    field: FieldSpec, A: int, n: int, plan: AlphaSamplePlan
) -> AlphaLowerBound:
    """Max over the plan of |P(A&B) - P(A)P(B)| from sampled threshold events.

    This is a statistical *lower* bound for the mixing coefficient at
    separation ``n``: the true coefficient takes a sup over all events,
    any sampled family under-approximates it.  Every pair in the plan must
    keep its two node sets at tree distance >= n.
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
