"""Tail bounds for bounded, centered random fields on rate-A trees.

Two bounds are evaluated, both in log-space, each factor as ``exp`` of a
sum of logs of exact integers:

* the strip bound: for the union of all depth-``P`` subtrees rooted at
  generation ``L``, the tail ``P(|sum Z_v| > eps)`` is bounded by a product
  of a Markov factor ``2*exp(-beta*eps)``, a mixing factor driven by the
  dependence coefficient at the block separation ``f``, and a variance
  factor built from the per-block variance proxy;
* the whole-tree bound: the first ``L`` generations are split into a wedge
  (discarded through a deterministic indicator) and a bottom strip on which
  the strip bound is applied with a derived block schedule.

The tilt, the threshold and the powers of ``A`` are exact integers or logs
at every depth, so only a value a caller receives (a tilt, the variance
proxy, a log factor) can leave float range, as :class:`CapacityError`.

Dependence enters exclusively through a :class:`MixingEnvelope`, a
non-increasing upper bound ``n -> alpha(n)`` on the field's mixing
coefficients, with a provenance flag recording whether the bound is exact,
assumed or merely heuristic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

from .errors import (CapacityError, InfeasibleGridError, ValidationError, check_printable,
                     float_in_range, is_real, reject, require)
from .paircount import count_pairs_closed
from .tree import low_bits

_LOG_2 = math.log(2.0)
_LOG_4E = math.log(4.0) + 1.0
_LOG_10_SQRT_E = math.log(10.0) + 0.5
_LOG_HUGE = math.log(sys.float_info.max)  # exp overflows above it
_LOG_TINY = math.log(sys.float_info.min * sys.float_info.epsilon)  # exp is 0 a little below
MAX_POWER_BITS = 1 << 20  # the whole tree forms A**L below it; the deepest took 0.25 s (2-core x86)

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
    """Smallest t >= 0 with A**t >= x, stepping exactly from a float start below it."""
    t = max(0, math.floor(math.log(x) / math.log(A)) - 1) if x > 1 else 0
    p = A**t
    while p < x:
        p *= A
        t += 1
    return t


def _exp_in_range(term: str, log_value: float, positive: bool = False) -> float:
    """``exp(log_value)`` for a value a caller receives, decided in logs:
    :class:`CapacityError` naming ``term`` past float range, or below the
    least float when it must be ``positive``."""
    if not (_LOG_TINY if positive else -math.inf) < log_value < _LOG_HUGE:  # NaN fails too
        raise CapacityError(f"{term} leaves float range")
    return math.exp(log_value)


def _log_beta_cap(A: int, P: int, P2: int, C: float) -> float:
    return math.log(A - 1) - _LOG_4E - math.log(C) - math.log(P2) - math.log(A**P - 1)


def beta_cap(A: int, P: int, P2: int, C: float) -> float:
    """Largest admissible tilt: (A-1) / (4*e*C*P2*(A**P - 1))."""
    require((("A", A, 2), ("P", P, 1), ("P2", P2, 1)), (("C", C, ">", 0),))
    return _exp_in_range("beta cap (A - 1)/(4e*C*P2*(A**P - 1))", _log_beta_cap(A, P, P2, C),
                         positive=True)


def _check_block_digits(A: int, L: int, block_sum: int = 1) -> None:
    """:class:`CapacityError` when ``block_count = ceil(A**L / block_sum)`` may
    not print, decided from logs before ``A**L`` is formed."""
    check_printable("block_count = ceil(A**L / (P2 + Q2))",
                    lambda: L * math.log10(A) - math.log10(block_sum))


def _check_admissible(inp: BernsteinInput) -> None:
    require(
        (("A", inp.A, 2), ("L", inp.L, 0), ("P", inp.P, 1), ("P2", inp.P2, 1), ("Q2", inp.Q2, 1)),
        (("C", inp.C, ">", 0), ("sigma2", inp.sigma2, ">=", 0), ("epsilon", inp.epsilon, ">", 0),
         ("beta", inp.beta, ">", 0)))
    _check_block_digits(inp.A, inp.L)
    msgs = []
    if inp.Q2 < 2:
        msgs.append(f"Q2 = {inp.Q2} is below the minimum block length 2")
    if inp.Q2 > inp.P2:
        msgs.append(f"Q2 = {inp.Q2} exceeds P2 = {inp.P2}")
    if inp.P2 + inp.Q2 >= inp.A**inp.L:
        msgs.append(f"P2 + Q2 = {inp.P2 + inp.Q2} must be < A**L = {inp.A**inp.L}")
    log_cap = _log_beta_cap(inp.A, inp.P, inp.P2, inp.C)
    if math.log(inp.beta) > log_cap + 1e-12:
        msgs.append(f"beta = {inp.beta} exceeds its cap exp({log_cap:.12g})")
    reject(msgs)


def _mixing_pair_sum(envelope: MixingEnvelope, A: int, P: int, scale: int = 1) -> float:
    """``sum_{k=1}^{2(P-1)} alpha(k) * (N(P, k) / scale)``, each quotient exact
    but for one rounding, skipping zero envelope values; ``inf`` past float range."""
    total = 0.0
    for k in range(1, 2 * (P - 1) + 1):
        a_k = envelope(k)
        if a_k != 0.0:
            try:
                total += a_k * (count_pairs_closed(A, P, k) / scale)
            except OverflowError:
                return math.inf
    return total


def variance_proxy(A: int, P: int, sigma2: float, C: float, envelope: MixingEnvelope) -> float:
    """Per-block variance proxy: subtree size times sigma2 plus the mixing covariance
    tail 4*C**2 * sum_k alpha(k) * N(P, k); :class:`CapacityError` past float range."""
    try:  # a subtree size past float range times a positive sigma2
        size_term = (A**P - 1) // (A - 1) * sigma2 if sigma2 else 0.0
        proxy = size_term + 4.0 * C * C * _mixing_pair_sum(envelope, A, P)
    except OverflowError:
        proxy = math.inf
    return float_in_range("variance proxy", proxy)


def _strip_terms(A: int, L: int, P2: int, Q2: int, alpha_f: float, proxy: float,
                 log_beta: float, log_eps: float) -> BoundBreakdown:
    """The strip bound of an admissible input, given ``alpha(f)``, its
    variance proxy and the logs of its tilt and threshold."""
    n_roots = A**L
    block_sum = P2 + Q2
    log_block = math.log(block_sum)
    log_ratio = math.log(n_roots) - log_block  # ratio = A**L / (P2 + Q2)
    log_ratio_1 = math.log(n_roots + block_sum) - log_block  # ratio + 1
    log_mixing = log_variance = 0.0
    if alpha_f != 0.0:
        exponent = block_sum / (2 * block_sum + n_roots)
        log_mixing = _exp_in_range("log_factor_mixing",
                                   _LOG_10_SQRT_E + exponent * math.log(alpha_f) + log_ratio)
    if proxy != 0.0:
        log_variance = _exp_in_range("log_factor_variance", _LOG_4E + math.log(proxy)
                                     + 2.0 * (log_beta + math.log(P2)) + log_ratio_1)
    log_markov = _LOG_2 - _exp_in_range("log_factor_markov", log_beta + log_eps)
    log_total = float_in_range("log_total", log_markov + log_mixing + log_variance)
    return BoundBreakdown(
        log_factor_markov=log_markov, log_factor_mixing=log_mixing,
        log_factor_variance=log_variance, variance_proxy=proxy,
        block_count=-(-n_roots // block_sum), log_total=log_total,
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
    return _strip_terms(inp.A, inp.L, inp.P2, inp.Q2, inp.envelope(inp.f), proxy,
                        math.log(inp.beta), math.log(inp.epsilon))


def summability_ratio(envelope: MixingEnvelope, A: int, P: int) -> float:
    """``sum_{k=1}^{2(P-1)} alpha(k) * N(P, k)`` divided by ``P * A**P``.

    Bounded over P exactly when the mixing series is summable against the
    pair counts; identically zero envelopes give 0.  Each count is divided
    exactly, so only a ratio past float range raises :class:`CapacityError`.
    """
    require((("A", A, 2), ("P", P, 1)))
    return float_in_range("summability ratio", _mixing_pair_sum(envelope, A, P, P * A**P))


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
    """Derived block schedule of the whole-tree bound; the tilt and the strip
    threshold are logs (about -69308 and 69315 at A = 2, L = 10**5)."""

    P1: int
    P2: int
    Q2: int
    log_beta: float
    f: int
    strip_level: int
    log_strip_threshold: float
    n_region: int


def _floor_pow(L: int, eta: float) -> int:
    """floor(L**eta) with a guard against float error at integer powers."""
    value = L**eta
    nearest = round(value)
    return nearest if abs(value - nearest) < 1e-9 else math.floor(value)


def concentration_schedule(inp: ConcentrationInput) -> ConcentrationSchedule:
    """Derive (P1, P2, Q2, log beta, f) and the log strip threshold, with validation;
    ``P2 = floor(A**(L - P1) * x)`` exactly, for the float ``x = D * log(L) / (L - P1)``."""
    require((("A", inp.A, 2), ("L", inp.L, 2)),
            (("D", inp.D, ">", 0), ("C", inp.C, ">", 0), ("sigma2", inp.sigma2, ">=", 0),
             ("epsilon", inp.epsilon, ">", 0)))
    if not (is_real(inp.eta, ">", 0) and inp.eta < 1.0):
        raise ValidationError(f"eta = {inp.eta} must lie in (0, 1)")

    A, L = inp.A, inp.L
    if low_bits(A, L) >= MAX_POWER_BITS:  # refused before A**(L - P1) and A**L are formed
        raise CapacityError(f"A**(L - P1) or A**L may exceed 2**{MAX_POWER_BITS}")
    P1 = _floor_pow(L, inp.eta)  # at least 1, as L >= 2 and eta > 0
    strip_level = L - P1
    if strip_level < 1:
        raise ValidationError(f"derived strip level L - P1 = {strip_level} must be >= 1")
    strip_roots = A**strip_level
    # past 1 the floor is at least A**(L - P1), refused below with no P2 shown
    num, den = min(inp.D * math.log(L) / strip_level, 1.0).as_integer_ratio()
    P2 = strip_roots * num // den
    if P2 < 2:
        raise ValidationError(f"derived P2 = {P2} is below the minimum block length 2")
    if 2 * P2 >= strip_roots:
        raise ValidationError(f"derived P2 + Q2 = 2*P2 must be < A**(L - P1) = {A}**{strip_level}")
    n_region = (A**L - 1) // (A - 1)
    return ConcentrationSchedule(
        P1=P1, P2=P2, Q2=P2, log_beta=_log_beta_cap(A, P1, P2, inp.C),
        f=2 * _ceil_log(A, P2), strip_level=strip_level,
        log_strip_threshold=math.log(inp.epsilon) - _LOG_2 + math.log(n_region),
        n_region=n_region,
    )


def concentration_bound(inp: ConcentrationInput) -> BoundBreakdown:
    """Evaluate the whole-tree bound on the first ``L`` generations.

    The wedge of the first ``L - P1`` generations is handled by a
    deterministic indicator (1 exactly when its maximal possible sum can
    beat half the threshold, decided in exact arithmetic), the remaining
    bottom strip by the strip bound at threshold ``(epsilon/2) * |region|``.
    """
    sched = concentration_schedule(inp)
    A = inp.A
    _check_block_digits(A, sched.strip_level, sched.P2 + sched.Q2)
    (c, c_den), (e, e_den) = (float(x).as_integer_ratio() for x in (inp.C, inp.epsilon))
    # 4*C*(A**(L - P1) - 1) > eps*(A**L - 1), cleared of the denominators
    wedge = 4 * c * e_den * (A**sched.strip_level - 1) > e * c_den * (A - 1) * sched.n_region
    proxy = variance_proxy(A, sched.P1, inp.sigma2, inp.C, inp.envelope)
    strip = _strip_terms(A, sched.strip_level, sched.P2, sched.Q2, inp.envelope(sched.f), proxy,
                         sched.log_beta, sched.log_strip_threshold)
    x = strip.log_total  # with the wedge, log(1 + exp(x)) with no exp past float range
    log_total = max(x, 0.0) + math.log1p(math.exp(-abs(x))) if wedge else x
    return replace(strip, log_total=log_total, log_total_clamped=min(0.0, log_total),
                   indicator_wedge=int(wedge))


def asymptotic_fit(
    series: Sequence[tuple[int, float]], epsilon: float
) -> tuple[float, float, float]:
    """Least-squares fit of log-bounds against ``-epsilon * L / log(L)``.

    Returns ``(c1, c2, fit_quality)`` for the model ``log_bound =
    log(c1) - c2 * epsilon * L / log(L)``, where fit_quality is the
    coefficient of determination; a ``c1`` past float range raises
    :class:`CapacityError`.
    """
    if len(series) < 4:
        raise ValidationError(f"fit needs at least 4 points, got {len(series)}")
    require(
        [(f"series[{i}] L", L, 2) for i, (L, _) in enumerate(series)],
        [("epsilon", epsilon, ">", 0)]
        + [(f"series[{i}] log bound", y, ">", -math.inf) for i, (_, y) in enumerate(series)],
    )
    xs = [-epsilon * L / math.log(L) for L, _ in series]
    ys = [float(log_bound) for _, log_bound in series]
    if max(xs) == min(xs):
        raise ValidationError("degenerate design: all abscissae coincide")
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else float(ss_res <= 1e-20)
    return _exp_in_range("c1 = exp(intercept)", intercept, positive=True), slope, quality


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
    when the proxy is 0, taken in logs with one ``exp``.  The variance proxy
    is computed once per call.
    Deterministic tie-break: smallest P2, then smallest Q2.
    """
    require((("A", A, 2), ("L", L, 0), ("P", P, 1)),
            (("C", C, ">", 0), ("sigma2", sigma2, ">=", 0), ("epsilon", epsilon, ">", 0)))
    _check_block_digits(A, L)
    proxy = variance_proxy(A, P, sigma2, C, envelope)
    n_roots = A**L
    log_eps = math.log(epsilon)
    candidates = []
    for p2 in sorted(set(grid.p2_values)):
        for q2 in sorted(set(grid.q2_values)):
            if q2 < 2 or q2 > p2 or p2 + q2 >= n_roots:
                continue
            log_beta = _log_beta_cap(A, P, p2, C)
            if proxy != 0.0:  # eps/(2K), K = 4e*P2**2*proxy*(ratio + 1)
                log_2k = (_LOG_4E + _LOG_2 + math.log(proxy) + 2.0 * math.log(p2)
                          + math.log(n_roots + p2 + q2) - math.log(p2 + q2))
                log_beta = min(log_beta, log_eps - log_2k)
            beta = _exp_in_range("beta = min((A - 1)/(4e*C*P2*(A**P - 1)), "
                                 "eps/(8e*P2**2*proxy*(ratio + 1)))", log_beta, positive=True)
            log_total = _strip_terms(A, L, p2, q2, envelope(2 * _ceil_log(A, q2)), proxy, log_beta,
                                     log_eps).log_total
            candidates.append((log_total, BernsteinInput(
                A=A, L=L, P=P, P2=p2, Q2=q2, beta=beta,
                epsilon=epsilon, C=C, sigma2=sigma2, envelope=envelope,
            )))
    if not candidates:
        raise InfeasibleGridError(
            f"infeasible grid: no admissible (P2, Q2) for A = {A}, L = {L}"
        )
    # min keeps the first of equal values: the smallest P2, then Q2
    return min(candidates, key=lambda cand: cand[0])[1]
