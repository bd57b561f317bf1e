"""Numerical verification: Monte Carlo tails against bounds, exact mixing
coefficients on finite probability spaces, and sampled mixing lower bounds.

The mixing coefficient between two finite partitions is computed exactly
(the sup over all unions of atoms), which makes the covariance inequality
testable without any estimation error.  For simulated fields the sup over
arbitrary events is out of reach, so the module only ever reports sampled
*lower* bounds there, clearly separated from the exact path.

Monte Carlo tail estimates are paired with the corresponding bound and a
violation is only flagged when the exact-binomial 99% upper confidence
limit of the empirical tail beats a bound that is itself below 1; this
keeps Monte Carlo noise from raising false alarms.  Estimates whose
envelope is not provenance-exact are marked uncertified instead of
violated.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import beta as _beta_dist

from .bounds import (
    BernsteinInput,
    GridSpec,
    bernstein_bound,
    concentration_bound,
    ConcentrationInput,
    finite_violations,
    optimize_params,
)
from .errors import CapacityError, ValidationError
from .fields import FieldSpec, field_certificate, field_values, region_sums
from .tree import Generations, NodeId, Region, Strip, region_node_count, tree_distance

MAX_ATOMS = 12


@dataclass(frozen=True)
class FiniteSpace:
    """A finite probability space with two partitions and two variables.

    ``atoms_g``/``atoms_h`` partition the outcome indices; ``xi``/``eta``
    assign a real value to every outcome.  Exact computations on this space
    (mixing coefficient, covariance inequality) need at most 12 atoms per
    partition so that the sup over all 2**12 x 2**12 event pairs stays
    feasible.
    """

    probs: tuple[float, ...]
    atoms_g: tuple[tuple[int, ...], ...]
    atoms_h: tuple[tuple[int, ...], ...]
    xi: tuple[float, ...]
    eta: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.probs)
        if n == 0:
            raise ValidationError("finite space needs at least one outcome")
        if any(p < 0 for p in self.probs):
            raise ValidationError("outcome probabilities must be non-negative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValidationError(
                f"outcome probabilities sum to {sum(self.probs)!r}, not 1 within 1e-12"
            )
        for name, atoms in (("G", self.atoms_g), ("H", self.atoms_h)):
            flat = [i for atom in atoms for i in atom]
            if sorted(flat) != list(range(n)):
                raise ValidationError(
                    f"partition {name} must cover the {n} outcomes disjointly"
                )
            if any(len(atom) == 0 for atom in atoms):
                raise ValidationError(f"partition {name} contains an empty atom")
        if len(self.xi) != n or len(self.eta) != n:
            raise ValidationError("xi and eta must assign a value to every outcome")

    @classmethod
    def build(cls, probs, atoms_g, atoms_h, xi, eta) -> "FiniteSpace":
        return cls(
            probs=tuple(float(p) for p in probs),
            atoms_g=tuple(tuple(int(i) for i in atom) for atom in atoms_g),
            atoms_h=tuple(tuple(int(i) for i in atom) for atom in atoms_h),
            xi=tuple(float(x) for x in xi),
            eta=tuple(float(x) for x in eta),
        )


def exact_alpha(space: FiniteSpace) -> float:
    """Exact sup of |P(A&B) - P(A)P(B)| over unions A of G-atoms, B of H-atoms.

    For each union B, the optimal A keeps exactly the atoms whose signed
    contribution helps, so the sup is the max over the 2**|H| unions of the
    positive and negative parts; this evaluates the full 2**|G| x 2**|H|
    sup exactly.  The result always lies in [0, 1/4].
    """
    g, h = len(space.atoms_g), len(space.atoms_h)
    if g > MAX_ATOMS or h > MAX_ATOMS:
        raise CapacityError(
            f"exact mixing coefficient capped at {MAX_ATOMS} atoms per partition, "
            f"got {g} and {h}"
        )
    probs = np.asarray(space.probs)
    joint = np.zeros((g, h))
    g_of = {}
    for gi, atom in enumerate(space.atoms_g):
        for i in atom:
            g_of[i] = gi
    for hj, atom in enumerate(space.atoms_h):
        for i in atom:
            joint[g_of[i], hj] += probs[i]
    p_g = joint.sum(axis=1)
    p_h = joint.sum(axis=0)
    dev = joint - np.outer(p_g, p_h)

    masks = np.arange(1 << h, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(h, dtype=np.uint32)) & 1).astype(np.float64)
    w = dev @ bits.T  # (g, 2**h): signed contribution of each G-atom per union B
    pos = np.clip(w, 0.0, None).sum(axis=0)
    neg = -np.clip(w, None, 0.0).sum(axis=0)
    return float(max(pos.max(), neg.max()))


class DavydovResult:
    """lhs/rhs of the covariance inequality on a finite space."""

    __slots__ = ("lhs", "rhs", "holds", "alpha")

    def __init__(self, lhs: float, rhs: float, holds: bool, alpha: float):
        self.lhs = lhs
        self.rhs = rhs
        self.holds = holds
        self.alpha = alpha

    def __iter__(self):
        return iter((self.lhs, self.rhs, self.holds))


def davydov_check(space: FiniteSpace, p: float, q: float, r: float) -> DavydovResult:
    """Check |Cov(xi, eta)| <= 10 * alpha**(1/r) * ||xi||_p * ||eta||_q.

    ``p, q, r`` must be Hoelder conjugate (1/p + 1/q + 1/r = 1 within 1e-9)
    and ``xi``/``eta`` must be measurable with respect to the G-/H-partition
    (constant on atoms).  Everything on the left and right is computed
    exactly on the finite space; ``holds`` allows 1e-12 absolute slack.
    """
    if min(p, q, r) < 1:
        raise ValidationError(f"exponents must be >= 1, got ({p}, {q}, {r})")
    if abs(1.0 / p + 1.0 / q + 1.0 / r - 1.0) > 1e-9:
        raise ValidationError(
            f"exponents ({p}, {q}, {r}) are not Hoelder conjugate: "
            f"1/p + 1/q + 1/r = {1.0/p + 1.0/q + 1.0/r}"
        )
    xi = np.asarray(space.xi)
    eta = np.asarray(space.eta)
    for name, values, atoms in (("xi", xi, space.atoms_g), ("eta", eta, space.atoms_h)):
        partition = "G" if name == "xi" else "H"
        for idx, atom in enumerate(atoms):
            vals = values[list(atom)]
            if vals.size and (vals != vals[0]).any():
                raise ValidationError(
                    f"{name} is not measurable: not constant on atom {idx} of {partition}"
                )
    probs = np.asarray(space.probs)
    mean_xi = float(probs @ xi)
    mean_eta = float(probs @ eta)
    lhs = abs(float(probs @ (xi * eta)) - mean_xi * mean_eta)
    alpha = exact_alpha(space)
    norm_xi = float(probs @ np.abs(xi) ** p) ** (1.0 / p)
    norm_eta = float(probs @ np.abs(eta) ** q) ** (1.0 / q)
    rhs = 10.0 * alpha ** (1.0 / r) * norm_xi * norm_eta
    return DavydovResult(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-12, alpha=alpha)


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

    def as_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "n_replicates": int(self.n_replicates),
            "n_exceed": int(self.n_exceed),
            "p_hat": float(self.p_hat),
            "ci_upper_99": float(self.ci_upper_99),
            "log_bound": float(self.log_bound),
            "violated": self.violated,
            "certified": bool(self.certified),
        }


def binomial_upper_99(n_exceed: int, n: int) -> float:
    """Exact (Clopper-Pearson) one-sided 99% upper confidence limit."""
    if not 0 <= n_exceed <= n:
        raise ValidationError(f"need 0 <= exceedances <= replicates, got {n_exceed}/{n}")
    if n_exceed == n:
        return 1.0
    return float(_beta_dist.ppf(0.99, n_exceed + 1, n - n_exceed))


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
    if n_replicates < 100:
        raise ValidationError(f"need at least 100 replicates, got {n_replicates}")
    if not eps_grid:
        raise ValidationError("epsilon grid must be non-empty")
    bad = finite_violations(**{f"epsilon[{i}]": e for i, e in enumerate(eps_grid)})
    if bad:
        raise ValidationError("; ".join(bad))
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")

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
        scale = float(region_node_count(region, A))
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

    out = []
    for e, k, log_bound in zip(eps, counts, log_bounds):
        k = int(k)
        ci = binomial_upper_99(k, n_replicates)
        if certified:
            violated = bool(log_bound < 0.0 and ci > math.exp(log_bound))
        else:
            violated = None
        out.append(
            TailEstimate(
                epsilon=e,
                n_replicates=n_replicates,
                n_exceed=k,
                p_hat=k / n_replicates,
                ci_upper_99=ci,
                log_bound=float(log_bound),
                violated=violated,
                certified=certified,
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
    n = int(rng.integers(2, max_outcomes + 1))
    probs = rng.random(n) + 1e-3
    probs /= probs.sum()

    def partition_and_values() -> tuple[list[list[int]], np.ndarray]:
        n_atoms = int(rng.integers(1, max_atoms + 1))
        labels = rng.integers(0, n_atoms, size=n)
        atoms = [list(np.flatnonzero(labels == a)) for a in range(n_atoms)]
        atoms = [atom for atom in atoms if atom]
        atom_values = rng.uniform(-1.0, 1.0, size=len(atoms))
        values = np.empty(n)
        for idx, atom in enumerate(atoms):
            values[atom] = atom_values[idx]
        return atoms, values

    atoms_g, xi = partition_and_values()
    atoms_h, eta = partition_and_values()
    return FiniteSpace.build(probs, atoms_g, atoms_h, xi, eta)


@dataclass(frozen=True)
class EventPair:
    """Two node sets with threshold events on their sums."""

    nodes_a: tuple[NodeId, ...]
    nodes_b: tuple[NodeId, ...]
    threshold_a: float = 0.0
    threshold_b: float = 0.0


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
    if plan.n_replicates < 100:
        raise ValidationError("sample plan needs at least 100 replicates")
    if n < 1:
        raise ValidationError(f"separation must be >= 1, got {n}")
    for idx, pair in enumerate(plan.pairs):
        if not pair.nodes_a or not pair.nodes_b:
            raise ValidationError(f"event pair {idx} has an empty node set")
        d = min(
            tree_distance(v, w, A) for v in pair.nodes_a for w in pair.nodes_b
        )
        if d < n:
            raise ValidationError(
                f"event pair {idx} has node sets at distance {d} < required {n}"
            )

    reps = list(range(plan.n_replicates))
    best = AlphaLowerBound(value=-1.0, std_error=0.0, pair_index=-1)
    for idx, pair in enumerate(plan.pairs):
        nodes = list(pair.nodes_a) + list(pair.nodes_b)
        values = field_values(field, nodes, A, reps)
        na = len(pair.nodes_a)
        sums_a = values[:, :na].sum(axis=1)
        sums_b = values[:, na:].sum(axis=1)
        x = (sums_a > pair.threshold_a).astype(np.float64)
        y = (sums_b > pair.threshold_b).astype(np.float64)
        p_a, p_b = x.mean(), y.mean()
        stat = abs((x * y).mean() - p_a * p_b)
        resid = (x - p_a) * (y - p_b)
        se = float(resid.std(ddof=1) / math.sqrt(plan.n_replicates))
        if stat > best.value:
            best = AlphaLowerBound(value=float(stat), std_error=se, pair_index=idx)
    return best
