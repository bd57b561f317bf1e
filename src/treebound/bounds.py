"""Tail bounds for bounded, centered random fields on rate-A trees.

Two bounds are evaluated, both in log-space:

* the strip bound: for the union of all depth-``P`` subtrees rooted at
  generation ``L``, the tail ``P(|sum Z_v| > eps)`` is bounded by a product
  of a Markov factor ``2*exp(-beta*eps)``, a mixing factor driven by the
  dependence coefficient at the block separation ``f``, and a variance
  factor built from the per-block variance proxy;
* the whole-tree bound: the first ``L`` generations are split into a wedge
  (discarded through a deterministic indicator) and a bottom strip on which
  the strip bound is applied with a derived block schedule.

Dependence enters exclusively through a :class:`MixingEnvelope`, a
non-increasing upper bound ``n -> alpha(n)`` on the field's mixing
coefficients, with a provenance flag recording whether the bound is exact,
assumed or merely heuristic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

from .errors import (CapacityError, InfeasibleGridError, ValidationError, check_printable,
                     float_in_range, is_real, reject, require)
from .paircount import count_pairs_closed
from .tree import low_bits

_SQRT_E = math.sqrt(math.e)

PROVENANCES = ("exact", "assumed", "heuristic")


@dataclass(frozen=True)
class MixingEnvelope:
    """Non-increasing upper bound ``n -> alpha(n)`` on mixing coefficients.

    Kinds:

    * ``zero``: alpha(n) = 0 for all n >= 1 (independent fields);
    * ``m_dependent``: alpha(n) = 1/4 for n <= 2m, 0 beyond (1/4 is the
      universal cap on any alpha coefficient);
    * ``super_exponential``: alpha(n) = exp(-n*g(n)) for a positive,
      non-decreasing rate function g;
    * ``table``: explicit values for n = 1..len(values); the last value is
      held beyond the table (the conservative extension);
    * ``transferred``: a lattice-transfer wrapper, alpha'(n) =
      inner(floor(n / scale)) for n >= scale, and the vacuous bound 1 below.

    ``provenance`` is "exact", "assumed" or "heuristic"; consumers that pair
    bounds with Monte Carlo data use it to decide whether a bound is
    certified.
    """

    kind: str
    provenance: str
    m: Optional[int] = None
    g: Optional[Callable[[int], float]] = None
    values: Optional[tuple[float, ...]] = None
    inner: Optional["MixingEnvelope"] = None
    scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValidationError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )
        if self.kind == "m_dependent":
            require((("m", self.m, 1),))
        elif self.kind == "super_exponential":
            if not callable(self.g):
                raise ValidationError("super_exponential envelope needs a callable rate g")
        elif self.kind == "table":
            if not self.values:
                raise ValidationError("table envelope needs at least one value")
            prev = 1.0
            for i, val in enumerate(self.values, start=1):
                if not (is_real(val, ">=", 0) and val <= 1.0):
                    raise ValidationError(f"table value alpha({i}) = {val} is outside [0, 1]")
                if val > prev + 1e-15:
                    raise ValidationError("table envelope must be non-increasing")
                prev = val
        elif self.kind == "transferred":
            if not isinstance(self.inner, MixingEnvelope):
                raise ValidationError("transferred envelope needs an inner envelope")
            require(reals=(("scale", self.scale, ">=", 1),))
        elif self.kind != "zero":
            raise ValidationError(f"unknown envelope kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "MixingEnvelope":
        return cls(kind="zero", provenance="exact")

    @classmethod
    def m_dependent(cls, m: int, provenance: str = "exact") -> "MixingEnvelope":
        return cls(kind="m_dependent", provenance=provenance, m=m)

    @classmethod
    def super_exponential(
        cls, g: Callable[[int], float], provenance: str = "assumed"
    ) -> "MixingEnvelope":
        return cls(kind="super_exponential", provenance=provenance, g=g)

    @classmethod
    def table(cls, values: Sequence[float], provenance: str = "heuristic") -> "MixingEnvelope":
        return cls(kind="table", provenance=provenance, values=tuple(float(v) for v in values))

    def __call__(self, n: int) -> float:
        """alpha(n) for integer separation n >= 1."""
        require((("n", n, 1),))
        if self.kind == "zero":
            return 0.0
        if self.kind == "m_dependent":
            return 0.25 if n <= 2 * self.m else 0.0
        if self.kind == "super_exponential":
            rate = float(self.g(n))
            if not rate > 0.0:  # NaN fails too
                raise ValidationError(f"rate function must be positive, got g({n}) = {rate}")
            return math.exp(-n * rate)
        if self.kind == "table":
            return self.values[min(n, len(self.values)) - 1]
        # transferred
        if n < self.scale:
            return 1.0
        return self.inner(int(n // self.scale))


@dataclass(frozen=True)
class BernsteinInput:
    """Inputs of the strip bound.

    ``A`` is the branching rate, the strip is the union of the depth-``P``
    subtrees rooted at generation ``L``, ``P2``/``Q2`` are the big/small
    block lengths of the decoupling scheme, ``beta`` the exponential tilt,
    ``epsilon`` the threshold, ``C`` the sup bound and ``sigma2`` the
    variance bound of the field, ``envelope`` its mixing envelope.
    """

    A: int
    L: int
    P: int
    P2: int
    Q2: int
    beta: float
    epsilon: float
    C: float
    sigma2: float
    envelope: MixingEnvelope

    @property
    def f(self) -> int:
        """Block separation 2*ceil(log_A Q2), computed in exact integer math."""
        return 2 * _ceil_log(self.A, self.Q2)


@dataclass(frozen=True)
class BoundBreakdown:
    """The evaluated pieces of a strip or whole-tree bound, in log-space.

    ``log_total`` is the sum of the three log factors, plus the indicator
    handling for whole-tree bounds; ``log_total_clamped`` is ``min(0,
    log_total)`` for callers that compare against probabilities, while
    analysts read the raw value.
    """

    log_factor_markov: float
    log_factor_mixing: float
    log_factor_variance: float
    variance_proxy: float
    block_count: int
    log_total: float
    log_total_clamped: float
    indicator_wedge: int

    def as_dict(self) -> dict:
        return asdict(self)


def _ceil_log(A: int, x: int) -> int:
    """Smallest t >= 0 with A**t >= x, by exact integer comparison."""
    t, p = 0, 1
    while p < x:
        p *= A
        t += 1
    return t


def beta_cap(A: int, P: int, P2: int, C: float) -> float:
    """Largest admissible tilt: (A-1) / (4*e*C*P2*(A**P - 1))."""
    require((("A", A, 2), ("P", P, 1), ("P2", P2, 1)), (("C", C, ">", 0),))
    denominator = 4.0 * math.e * C * float_in_range("P2", P2) * float_in_range("A**P", A**P - 1)
    return float_in_range("beta cap (A - 1)/(4e*C*P2*(A**P - 1))", (A - 1) / denominator)


def _check_block_digits(A: int, L: int) -> None:
    """:class:`CapacityError` when ``block_count = ceil(A**L / (P2 + Q2))``
    may not print: refused from ``L*log10(A)``, before ``A**L`` is formed, as
    count-pairs refuses its counts."""
    check_printable("block_count = ceil(A**L / (P2 + Q2))", lambda: L * math.log10(A))


def _check_admissible(inp: BernsteinInput) -> None:
    require(
        (("A", inp.A, 2), ("L", inp.L, 0), ("P", inp.P, 1), ("P2", inp.P2, 1), ("Q2", inp.Q2, 1)),
        (("C", inp.C, ">", 0), ("sigma2", inp.sigma2, ">=", 0), ("epsilon", inp.epsilon, ">", 0),
         ("beta", inp.beta, ">", 0)),
    )
    _check_block_digits(inp.A, inp.L)
    msgs = []
    if inp.Q2 < 2:
        msgs.append(f"Q2 = {inp.Q2} is below the minimum block length 2")
    if inp.Q2 > inp.P2:
        msgs.append(f"Q2 = {inp.Q2} exceeds P2 = {inp.P2}")
    if inp.P2 + inp.Q2 >= inp.A**inp.L:
        msgs.append(
            f"P2 + Q2 = {inp.P2 + inp.Q2} must be < A**L = {inp.A**inp.L}"
        )
    cap = beta_cap(inp.A, inp.P, inp.P2, inp.C)
    if inp.beta > cap * (1.0 + 1e-12):
        msgs.append(f"beta = {inp.beta} exceeds its cap {cap}")
    reject(msgs)


def _mixing_pair_sum(envelope: MixingEnvelope, A: int, P: int) -> float:
    """``sum_{k=1}^{2(P-1)} alpha(k) * N(P, k)``, skipping zero envelope values."""
    total = 0.0
    for k in range(1, 2 * (P - 1) + 1):
        a_k = envelope(k)
        if a_k != 0.0:
            total += a_k * float_in_range(f"N(P, {k})", count_pairs_closed(A, P, k))
    return total


def variance_proxy(
    A: int, P: int, sigma2: float, C: float, envelope: MixingEnvelope
) -> float:
    """Per-block variance proxy: subtree size times sigma2 plus the mixing
    covariance tail 4*C**2 * sum_k alpha(k) * N(P, k)."""
    size = float_in_range("subtree size (A**P - 1)/(A - 1)", (A**P - 1) // (A - 1))
    return size * sigma2 + 4.0 * C * C * _mixing_pair_sum(envelope, A, P)


def _block_ratio(n_roots: int, block_sum: int) -> float:
    """``A**L / (P2 + Q2)`` rounded once from the exact integers; ``inf`` past
    float range, where only a log factor with a zero coefficient stays finite."""
    try:
        return n_roots / block_sum
    except OverflowError:
        return math.inf


def _strip_terms(inp: BernsteinInput, proxy: float) -> BoundBreakdown:
    """The strip bound of an admissible input, given its variance proxy."""
    n_roots = inp.A**inp.L
    block_sum = inp.P2 + inp.Q2
    ratio = _block_ratio(n_roots, block_sum)
    block_count = -(-n_roots // block_sum)  # ceil

    alpha_f = inp.envelope(inp.f)
    log_mixing = log_variance = 0.0
    if alpha_f != 0.0:
        exponent = block_sum / (2 * block_sum + n_roots)
        log_mixing = float_in_range(
            "log_factor_mixing", 10.0 * _SQRT_E * alpha_f**exponent * ratio
        )
    if proxy != 0.0:
        log_variance = float_in_range(
            "log_factor_variance",
            4.0 * inp.beta**2 * math.e * float_in_range("P2**2", inp.P2**2) * proxy
            * (ratio + 1.0),
        )

    log_markov = math.log(2.0) - inp.beta * inp.epsilon
    log_total = log_markov + log_mixing + log_variance
    return BoundBreakdown(
        log_factor_markov=log_markov, log_factor_mixing=log_mixing,
        log_factor_variance=log_variance, variance_proxy=proxy,
        block_count=block_count, log_total=log_total,
        log_total_clamped=min(0.0, log_total), indicator_wedge=0,
    )


def bernstein_bound(inp: BernsteinInput) -> BoundBreakdown:
    """Evaluate the strip bound, in log-space.

    The mixing factor uses the convention ``0**x = 0`` for ``x > 0``, so an
    identically-zero envelope contributes a factor of exactly 1.  A log
    factor that leaves float range raises :class:`CapacityError` naming it.
    """
    _check_admissible(inp)
    proxy = variance_proxy(inp.A, inp.P, inp.sigma2, inp.C, inp.envelope)
    return _strip_terms(inp, proxy)


def summability_ratio(envelope: MixingEnvelope, A: int, P: int) -> float:
    """``sum_{k=1}^{2(P-1)} alpha(k) * N(P, k)`` divided by ``P * A**P``.

    Bounded over P exactly when the mixing series is summable against the
    pair counts; identically zero envelopes give 0.
    """
    require((("A", A, 2), ("P", P, 1)))
    total = _mixing_pair_sum(envelope, A, P)
    return 0.0 if total == 0.0 else total / float_in_range("P * A**P", P * A**P)


@dataclass(frozen=True)
class ConcentrationInput:
    """Inputs of the whole-tree bound on the first ``L`` generations.

    ``eta`` sets the bottom-strip depth ``P1 = floor(L**eta)`` and ``D``
    scales the derived block length; both have conventional defaults and are
    deliberately not optimized here.
    """

    A: int
    L: int
    epsilon: float
    C: float
    sigma2: float
    envelope: MixingEnvelope
    eta: float = 0.5
    D: float = 1.0


@dataclass(frozen=True)
class ConcentrationSchedule:
    """Derived block schedule of the whole-tree bound."""

    P1: int
    P2: int
    Q2: int
    beta: float
    f: int
    strip_level: int
    strip_threshold: float
    n_region: int


def _floor_pow(L: int, eta: float) -> int:
    """floor(L**eta) with a guard against float error at integer powers."""
    value = L**eta
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        return int(nearest)
    return int(math.floor(value))


def concentration_schedule(inp: ConcentrationInput) -> ConcentrationSchedule:
    """Derive (P1, P2, Q2, beta, f) and the strip threshold, with validation."""
    require((("A", inp.A, 2), ("L", inp.L, 2)),
            (("D", inp.D, ">", 0), ("C", inp.C, ">", 0), ("sigma2", inp.sigma2, ">=", 0),
             ("epsilon", inp.epsilon, ">", 0)))
    if not (is_real(inp.eta, ">", 0) and inp.eta < 1.0):
        raise ValidationError(f"eta = {inp.eta} must lie in (0, 1)")

    A, L = inp.A, inp.L
    try:
        P1 = _floor_pow(L, inp.eta)
    except OverflowError:  # L past float range, where L - L**eta > 2**980
        raise CapacityError("A**(L - P1) leaves float range") from None
    if P1 < 1:
        raise ValidationError(f"derived P1 = {P1} must be >= 1")
    strip_level = L - P1
    if strip_level < 1:
        raise ValidationError(
            f"derived strip level L - P1 = {strip_level} must be >= 1"
        )
    if low_bits(A, strip_level) >= 1024:  # refused before A**(L - P1) is formed
        raise CapacityError("A**(L - P1) leaves float range")
    strip_roots = float_in_range("A**(L - P1)", A**strip_level)
    P2 = int(math.floor(float_in_range(
        "derived P2", inp.D * strip_roots * math.log(L) / strip_level
    )))
    if P2 < 2:
        raise ValidationError(f"derived P2 = {P2} is below the minimum block length 2")
    if 2 * P2 >= A**strip_level:
        raise ValidationError(
            f"derived P2 + Q2 = {2 * P2} must be < A**(L - P1) = {A**strip_level}"
        )
    n_region = (A**L - 1) // (A - 1)
    threshold = 0.5 * inp.epsilon * float_in_range("|region|", n_region)
    return ConcentrationSchedule(
        P1=P1, P2=P2, Q2=P2, beta=beta_cap(A, P1, P2, inp.C),
        f=2 * _ceil_log(A, P2), strip_level=strip_level,
        strip_threshold=float_in_range("strip threshold", threshold),
        n_region=n_region,
    )


def concentration_bound(inp: ConcentrationInput) -> BoundBreakdown:
    """Evaluate the whole-tree bound on the first ``L`` generations.

    The wedge of the first ``L - P1`` generations is handled by a
    deterministic indicator (1 exactly when its maximal possible sum can
    beat half the threshold), the remaining bottom strip by the strip bound
    at threshold ``(epsilon/2) * |region|``.
    """
    sched = concentration_schedule(inp)
    A, L = inp.A, inp.L
    wedge_max = 4.0 * inp.C * float_in_range("A**(L - P1)", A**sched.strip_level - 1)
    indicator = 1 if wedge_max > inp.epsilon * float_in_range("A**L", A**L - 1) else 0
    strip = bernstein_bound(BernsteinInput(
        A=A, L=sched.strip_level, P=sched.P1, P2=sched.P2, Q2=sched.Q2,
        beta=sched.beta, epsilon=sched.strip_threshold, C=inp.C,
        sigma2=inp.sigma2, envelope=inp.envelope,
    ))
    if indicator:
        log_total = math.log1p(math.exp(min(strip.log_total, 700.0)))
    else:
        log_total = strip.log_total
    return replace(
        strip,
        log_total=log_total,
        log_total_clamped=min(0.0, log_total),
        indicator_wedge=indicator,
    )


def asymptotic_fit(
    series: Sequence[tuple[int, float]], epsilon: float
) -> tuple[float, float, float]:
    """Least-squares fit of log-bounds against ``-epsilon * L / log(L)``.

    Returns ``(c1, c2, fit_quality)`` for the model ``log_bound =
    log(c1) - c2 * epsilon * L / log(L)``, where fit_quality is the
    coefficient of determination.
    """
    if len(series) < 4:
        raise ValidationError(f"fit needs at least 4 points, got {len(series)}")
    require(
        [(f"series[{i}] L", L, 2) for i, (L, _) in enumerate(series)],
        [("epsilon", epsilon, ">", 0)]
        + [(f"series[{i}] log bound", y, ">", -math.inf) for i, (_, y) in enumerate(series)],
    )
    xs, ys = [], []
    for L, log_bound in series:
        xs.append(-epsilon * L / math.log(L))
        ys.append(float(log_bound))
    if max(xs) == min(xs):
        raise ValidationError("degenerate design: all abscissae coincide")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    if ss_tot <= 0.0:
        quality = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        quality = 1.0 - ss_res / ss_tot
    return math.exp(intercept), slope, quality


@dataclass(frozen=True)
class GridSpec:
    """Search grid of block lengths for :func:`optimize_params`.

    Only ``(P2, Q2)`` is searched; the tilt ``beta`` has a closed-form
    optimum per pair, so it needs no grid.
    """

    p2_values: tuple[int, ...]
    q2_values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.p2_values or not self.q2_values:
            raise ValidationError("grid must list at least one P2 and one Q2 value")
        require(
            [(f"p2_values[{i}]", v, 1) for i, v in enumerate(self.p2_values)]
            + [(f"q2_values[{i}]", v, 1) for i, v in enumerate(self.q2_values)]
        )


def optimize_params(
    A: int,
    L: int,
    P: int,
    C: float,
    sigma2: float,
    envelope: MixingEnvelope,
    epsilon: float,
    grid: GridSpec,
) -> BernsteinInput:
    """Pick the admissible ``(P2, Q2, beta)`` minimizing log_total.

    ``log_total`` is ``log 2 - beta*eps`` plus a term free of beta plus
    ``K*beta**2`` with ``K = 4*e*P2**2*proxy*(ratio + 1)``, so for each grid
    pair the optimal tilt is ``min(beta_cap, eps / (2*K))``, and ``beta_cap``
    when the proxy is 0.  The variance proxy is computed once per call.
    Deterministic tie-break: smallest P2, then smallest Q2.
    """
    require((("A", A, 2), ("L", L, 0), ("P", P, 1)),
            (("C", C, ">", 0), ("sigma2", sigma2, ">=", 0), ("epsilon", epsilon, ">", 0)))
    _check_block_digits(A, L)
    proxy = variance_proxy(A, P, sigma2, C, envelope)
    n_roots = A**L
    candidates = []
    for p2 in sorted(set(grid.p2_values)):
        for q2 in sorted(set(grid.q2_values)):
            if q2 < 2 or q2 > p2 or p2 + q2 >= n_roots:
                continue
            beta = beta_cap(A, P, p2, C)
            if proxy != 0.0:
                ratio = _block_ratio(n_roots, p2 + q2)
                square = float_in_range("P2**2", p2**2)
                beta = min(beta, epsilon / (8.0 * math.e * square * proxy * (ratio + 1.0)))
            candidates.append(BernsteinInput(
                A=A, L=L, P=P, P2=p2, Q2=q2, beta=beta,
                epsilon=epsilon, C=C, sigma2=sigma2, envelope=envelope,
            ))
    if not candidates:
        raise InfeasibleGridError(
            f"infeasible grid: no admissible (P2, Q2) for A = {A}, L = {L}"
        )
    # min keeps the first of equal values: the smallest P2, then Q2
    return min(candidates, key=lambda cand: _strip_terms(cand, proxy).log_total)
