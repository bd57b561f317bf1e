"""Bound evaluation: envelopes, the strip bound, the whole-tree bound,
summability, fitting, and the parameter optimizer.

The frozen log-bound values are cross-checked at runtime against an
independent high-precision (mpmath, 50 digits) term-by-term re-evaluation
that only shares the exact integer helpers with the implementation.
"""

import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebound import (
    BernsteinInput,
    CapacityError,
    ConcentrationInput,
    GridSpec,
    InfeasibleGridError,
    MixingEnvelope,
    ValidationError,
    asymptotic_fit,
    bernstein_bound,
    beta_cap,
    concentration_bound,
    concentration_schedule,
    count_pairs_sum,
    optimize_params,
    summability_ratio,
)
import treebound
from treebound import bounds as bounds_mod

mpmath.mp.dps = 50


def _ceil_log(A, x):
    t, p = 0, 1
    while p < x:
        p *= A
        t += 1
    return t


def _mp_bernstein_log_total(A, L, P, P2, Q2, beta, eps, C, sigma2, alpha):
    """Independent strip-bound evaluation: mpmath, pair counts via the
    double-sum route."""
    mpf = mpmath.mpf
    f = 2 * _ceil_log(A, Q2)
    n_roots = A**L
    block = P2 + Q2
    markov = mpmath.log(2) - mpf(beta) * mpf(eps)
    a_f = mpf(alpha(f))
    if a_f == 0:
        mixing = mpf(0)
    else:
        expo = mpf(block) / mpf(2 * block + n_roots)
        mixing = 10 * mpmath.sqrt(mpmath.e) * a_f**expo * mpf(n_roots) / mpf(block)
    proxy = mpf((A**P - 1) // (A - 1)) * mpf(sigma2)
    for k in range(1, 2 * (P - 1) + 1):
        proxy += 4 * mpf(C) ** 2 * mpf(alpha(k)) * mpf(count_pairs_sum(A, P, k))
    variance = 4 * mpf(beta) ** 2 * mpmath.e * mpf(P2) ** 2 * proxy * (mpf(n_roots) / mpf(block) + 1)
    return markov + mixing + variance


def test_envelope_kinds_and_validation():
    zero = MixingEnvelope.zero()
    assert zero(1) == 0.0 and zero(100) == 0.0
    md = MixingEnvelope.m_dependent(2)
    assert md(4) == 0.25 and md(5) == 0.0
    se = MixingEnvelope.super_exponential(lambda n: float(n))
    assert se(3) == pytest.approx(math.exp(-9))
    tab = MixingEnvelope.table([0.2, 0.1, 0.05])
    assert tab(2) == 0.1 and tab(10) == 0.05  # last value held beyond the table
    with pytest.raises(ValidationError):
        MixingEnvelope.table([0.1, 0.2])  # increasing
    with pytest.raises(ValidationError):
        MixingEnvelope.table([1.5])
    with pytest.raises(ValidationError):
        MixingEnvelope.m_dependent(0)
    with pytest.raises(ValidationError):
        zero(0)
    with pytest.raises(ValidationError):
        MixingEnvelope(kind="zero", provenance="guessed")


def test_beta_cap_values():
    assert beta_cap(2, 1, 1, 1.0) == pytest.approx(1 / (4 * math.e), rel=1e-14)
    assert beta_cap(2, 3, 4, 1.0) == pytest.approx(1 / (112 * math.e), rel=1e-14)
    assert beta_cap(2, 3, 8, 1.0) == pytest.approx(beta_cap(2, 3, 4, 1.0) / 2, rel=1e-14)


def _zero_input(**overrides):
    base = dict(
        A=2, L=5, P=3, P2=4, Q2=4,
        beta=beta_cap(2, 3, 4, 1.0), epsilon=50.0, C=1.0, sigma2=1 / 3,
        envelope=MixingEnvelope.zero(),
    )
    base.update(overrides)
    return BernsteinInput(**base)


def test_bernstein_zero_envelope_reduction():
    inp = _zero_input()
    bb = bernstein_bound(inp)
    assert bb.log_factor_mixing == 0.0
    assert bb.variance_proxy == pytest.approx(7 * (1 / 3), rel=1e-14)
    # closed-form cross-check of the whole log bound
    expected = (
        math.log(2)
        - inp.beta * inp.epsilon
        + 4 * inp.beta**2 * math.e * inp.P2**2 * 7 * inp.sigma2 * (32 / 8 + 1)
    )
    assert bb.log_total == pytest.approx(expected, rel=1e-12)
    assert bb.block_count == 4
    assert bb.log_total_clamped == min(0.0, bb.log_total)


def test_bernstein_epsilon_shift():
    b1 = bernstein_bound(_zero_input(epsilon=50.0))
    b10 = bernstein_bound(_zero_input(epsilon=500.0))
    beta = beta_cap(2, 3, 4, 1.0)
    assert b1.log_total - b10.log_total == pytest.approx(9 * beta * 50.0, rel=1e-12)


def test_bernstein_against_high_precision_oracle():
    cases = [
        _zero_input(),
        _zero_input(envelope=MixingEnvelope.m_dependent(1), epsilon=20.0),
        _zero_input(envelope=MixingEnvelope.super_exponential(lambda n: 0.5 * n)),
        _zero_input(A=3, L=3, P=2, P2=3, Q2=2, beta=beta_cap(3, 2, 3, 1.0) / 2),
    ]
    for inp in cases:
        got = bernstein_bound(inp).log_total
        want = _mp_bernstein_log_total(
            inp.A, inp.L, inp.P, inp.P2, inp.Q2, inp.beta, inp.epsilon,
            inp.C, inp.sigma2, inp.envelope,
        )
        assert got == pytest.approx(float(want), rel=1e-10)


def test_bernstein_validation_lists_every_violation():
    bad = BernsteinInput(
        A=2, L=1, P=1, P2=1, Q2=3, beta=1.0, epsilon=1.0, C=1.0, sigma2=0.1,
        envelope=MixingEnvelope.zero(),
    )
    with pytest.raises(ValidationError) as err:
        bernstein_bound(bad)
    message = str(err.value)
    assert "Q2 = 3 exceeds P2 = 1" in message
    assert "must be < A**L" in message
    assert "exceeds its cap" in message


def test_bernstein_q2_minimum():
    with pytest.raises(ValidationError) as err:
        bernstein_bound(_zero_input(Q2=1, P2=4))
    assert "below the minimum block length 2" in str(err.value)


def _random_admissible(rnd):
    A = rnd.choice((2, 3))
    L = rnd.randint(3, 6)
    P = rnd.randint(1, 4)
    while True:
        P2 = rnd.randint(2, 6)
        Q2 = rnd.randint(2, P2)
        if P2 + Q2 < A**L:
            break
    C = rnd.uniform(0.5, 2.0)
    kind = rnd.randrange(4)
    if kind == 0:
        env = MixingEnvelope.zero()
    elif kind == 1:
        env = MixingEnvelope.m_dependent(rnd.randint(1, 3))
    elif kind == 2:
        rate = rnd.uniform(0.2, 1.5)
        env = MixingEnvelope.super_exponential(lambda n, r=rate: r * n)
    else:
        head = rnd.uniform(0.05, 0.25)
        env = MixingEnvelope.table([head * 0.7**i for i in range(8)])
    beta = rnd.uniform(0.1, 1.0) * beta_cap(A, P, P2, 1.5 * C)
    return BernsteinInput(
        A=A, L=L, P=P, P2=P2, Q2=Q2, beta=beta,
        epsilon=rnd.uniform(1.0, 100.0), C=C, sigma2=rnd.uniform(0.1, 1.0),
        envelope=env,
    )


def _pointwise_larger(env, horizon):
    return MixingEnvelope.table(
        [min(1.0, 1.3 * env(n) + 0.01) for n in range(1, horizon + 1)]
    )


def test_monotonicity_small_battery():
    from dataclasses import replace

    rnd = random.Random(7)
    for _ in range(200):
        inp = _random_admissible(rnd)
        base = bernstein_bound(inp).log_total
        assert bernstein_bound(replace(inp, epsilon=1.5 * inp.epsilon)).log_total <= base + 1e-12
        assert bernstein_bound(replace(inp, sigma2=1.5 * inp.sigma2)).log_total >= base - 1e-12
        assert bernstein_bound(replace(inp, C=1.5 * inp.C)).log_total >= base - 1e-12
        horizon = max(inp.f, 2 * (inp.P - 1), 1)
        bigger = _pointwise_larger(inp.envelope, horizon)
        assert bernstein_bound(replace(inp, envelope=bigger)).log_total >= base - 1e-12


def test_no_overflow_at_deep_strips():
    rnd = random.Random(8)
    for _ in range(50):
        A = rnd.choice((2, 3, 4))
        L = rnd.randint(10, 40)
        P = rnd.randint(1, 6)
        P2 = rnd.randint(2, 50)
        Q2 = rnd.randint(2, P2)
        inp = BernsteinInput(
            A=A, L=L, P=P, P2=P2, Q2=Q2,
            beta=0.5 * beta_cap(A, P, P2, 1.0),
            epsilon=rnd.uniform(1, 1e6), C=1.0, sigma2=1 / 3,
            envelope=MixingEnvelope.m_dependent(2),
        )
        bb = bernstein_bound(inp)
        for value in (bb.log_factor_markov, bb.log_factor_mixing,
                      bb.log_factor_variance, bb.log_total):
            assert math.isfinite(value)


def test_summability_examples():
    assert summability_ratio(MixingEnvelope.zero(), 2, 5) == 0.0
    se = MixingEnvelope.super_exponential(lambda n: float(n))
    ratios = [summability_ratio(se, 2, P) for P in range(2, 15)]
    assert max(ratios) < 10.0  # bounded along P
    md = MixingEnvelope.m_dependent(1)
    md_ratios = [summability_ratio(md, 2, P) for P in range(2, 15)]
    assert all(math.isfinite(r) and r >= 0 for r in md_ratios)
    # pointwise monotone in the envelope
    for P in range(2, 10):
        assert summability_ratio(md, 2, P) >= summability_ratio(MixingEnvelope.zero(), 2, P)


def test_concentration_schedule_and_example():
    inp = ConcentrationInput(
        A=2, L=12, epsilon=0.5, C=1.0, sigma2=1 / 3, envelope=MixingEnvelope.zero()
    )
    sched = concentration_schedule(inp)
    assert (sched.P1, sched.P2, sched.Q2) == (3, 141, 141)
    assert sched.beta == pytest.approx(1 / (4 * math.e * 141 * 7), rel=1e-14)
    assert sched.f == 16
    bb = concentration_bound(inp)
    assert bb.indicator_wedge == 0
    # independent high-precision re-evaluation of the strip part
    want = _mp_bernstein_log_total(
        2, sched.strip_level, sched.P1, sched.P2, sched.Q2, sched.beta,
        sched.strip_threshold, 1.0, 1 / 3, MixingEnvelope.zero(),
    )
    assert bb.log_total == pytest.approx(float(want), rel=1e-10)


def test_concentration_wedge_indicator():
    # small thresholds trip the wedge indicator, large ones do not
    low = concentration_bound(
        ConcentrationInput(A=2, L=12, epsilon=0.01, C=1.0, sigma2=1 / 3,
                           envelope=MixingEnvelope.zero())
    )
    high = concentration_bound(
        ConcentrationInput(A=2, L=12, epsilon=2.0, C=1.0, sigma2=1 / 3,
                           envelope=MixingEnvelope.zero())
    )
    assert low.indicator_wedge == 1
    assert high.indicator_wedge == 0
    assert low.log_total >= math.log(1.0)


def test_concentration_monotone_in_epsilon():
    values = [
        concentration_bound(
            ConcentrationInput(A=2, L=10, epsilon=e, C=1.0, sigma2=1 / 3,
                               envelope=MixingEnvelope.zero())
        ).log_total
        for e in (0.1, 0.3, 0.5, 0.7, 0.9, 2.0, 5.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_concentration_composition_identity():
    inp = ConcentrationInput(A=2, L=10, epsilon=0.7, C=1.0, sigma2=1 / 3,
                             envelope=MixingEnvelope.m_dependent(1))
    sched = concentration_schedule(inp)
    manual = bernstein_bound(
        BernsteinInput(
            A=2, L=sched.strip_level, P=sched.P1, P2=sched.P2, Q2=sched.Q2,
            beta=sched.beta, epsilon=sched.strip_threshold, C=1.0, sigma2=1 / 3,
            envelope=inp.envelope,
        )
    )
    wedge = 1 if 4 * 1.0 * (2**sched.strip_level - 1) > 0.7 * (2**10 - 1) else 0
    combined = concentration_bound(inp)
    assert combined.indicator_wedge == wedge
    if wedge:
        assert combined.log_total == pytest.approx(
            math.log1p(math.exp(manual.log_total)), rel=1e-12
        )
    else:
        assert combined.log_total == pytest.approx(manual.log_total, rel=1e-12)


def test_concentration_validation_names_derived_values():
    with pytest.raises(ValidationError) as err:
        concentration_bound(
            ConcentrationInput(A=2, L=2, epsilon=0.5, C=1.0, sigma2=1 / 3,
                               envelope=MixingEnvelope.zero())
        )
    assert "P2" in str(err.value)


def test_asymptotic_fit_exact_data():
    series = [(L, math.log(3) - 2 * 0.7 * L / math.log(L)) for L in range(5, 12)]
    c1, c2, quality = asymptotic_fit(series, 0.7)
    assert c1 == pytest.approx(3.0, rel=1e-9)
    assert c2 == pytest.approx(2.0, rel=1e-9)
    assert quality == pytest.approx(1.0, abs=1e-12)


def test_asymptotic_fit_errors():
    with pytest.raises(ValidationError):
        asymptotic_fit([(8, -1.0), (8, -1.0)], 0.5)  # two identical points
    with pytest.raises(ValidationError):
        asymptotic_fit([(8, -1.0)] * 6, 0.5)  # degenerate design


def test_optimizer_infeasible_and_singleton():
    env = MixingEnvelope.zero()
    with pytest.raises(InfeasibleGridError):
        optimize_params(2, 2, 2, 1.0, 1 / 3, env, 10.0,
                        GridSpec(p2_values=(8,), q2_values=(8,)))
    single = optimize_params(2, 5, 3, 1.0, 1 / 3, env, 50.0,
                             GridSpec(p2_values=(3,), q2_values=(3,)))
    assert (single.P2, single.Q2) == (3, 3)


def test_optimizer_never_beats_exhaustive_scan():
    env = MixingEnvelope.zero()
    grid = GridSpec(p2_values=(2, 3, 4, 6, 8), q2_values=(2, 3, 4, 6, 8))
    beta_per_decade, beta_decades = 2, 2.0
    best = optimize_params(2, 5, 3, 1.0, 1 / 3, env, 80.0, grid)
    best_val = bernstein_bound(best).log_total
    n_beta = int(round(beta_per_decade * beta_decades)) + 1
    for p2 in grid.p2_values:
        for q2 in grid.q2_values:
            if q2 < 2 or q2 > p2 or p2 + q2 >= 32:
                continue
            cap = beta_cap(2, 3, p2, 1.0)
            for i in range(n_beta):
                beta = 10.0 ** (math.log10(cap) - beta_decades * i / (n_beta - 1))
                val = bernstein_bound(
                    BernsteinInput(A=2, L=5, P=3, P2=p2, Q2=q2, beta=beta,
                                   epsilon=80.0, C=1.0, sigma2=1 / 3, envelope=env)
                ).log_total
                assert best_val <= val + 1e-12


def _old_beta_scan(A, L, P, p2, q2, C, sigma2, env, eps):
    """The 129-point log grid (32 per decade over 4 decades, down from the
    cap) the optimizer used to scan at each (P2, Q2)."""
    cap = beta_cap(A, P, p2, C)
    return [
        bernstein_bound(
            BernsteinInput(A=A, L=L, P=P, P2=p2, Q2=q2,
                           beta=10.0 ** (math.log10(cap) - 4.0 * i / 128),
                           epsilon=eps, C=C, sigma2=sigma2, envelope=env)
        ).log_total
        for i in range(129)
    ]


_ENVELOPES = st.one_of(
    st.just(MixingEnvelope.zero()),
    st.integers(1, 3).map(MixingEnvelope.m_dependent),
    st.tuples(st.floats(0.0, 0.25), st.floats(0.3, 1.0)).map(
        lambda hd: MixingEnvelope.table([hd[0] * hd[1] ** i for i in range(8)])
    ),
)


@settings(max_examples=30, deadline=None)
@given(
    AL=st.sampled_from([(2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]),
    P=st.integers(1, 4),
    eps=st.floats(0.1, 200.0),
    C=st.floats(0.5, 2.0),
    sigma2=st.floats(0.0, 1.0),
    env=_ENVELOPES,
)
def test_closed_form_beta_never_loses_to_the_old_scan(AL, P, eps, C, sigma2, env):
    A, L = AL
    sizes = (2, 3, 4, 6, 8)
    grid = GridSpec(p2_values=sizes, q2_values=sizes)
    best = optimize_params(A, L, P, C, sigma2, env, eps, grid)
    best_val = bernstein_bound(best).log_total
    for p2 in sizes:
        for q2 in sizes:
            if q2 > p2 or p2 + q2 >= A**L:
                continue
            scan = _old_beta_scan(A, L, P, p2, q2, C, sigma2, env, eps)
            assert best_val <= min(scan) + 1e-12
            pair = optimize_params(A, L, P, C, sigma2, env, eps,
                                   GridSpec(p2_values=(p2,), q2_values=(q2,)))
            pair_val = bernstein_bound(pair).log_total
            assert pair_val <= min(scan) + 1e-12
            cap = beta_cap(A, P, p2, C)
            for beta in (pair.beta * (1 - 1e-3), pair.beta * (1 + 1e-3)):
                if beta < cap:
                    moved = bernstein_bound(replace(pair, beta=beta)).log_total
                    assert moved >= pair_val - 1e-12


def test_optimizer_zero_proxy_takes_the_cap():
    env = MixingEnvelope.zero()
    best = optimize_params(2, 5, 3, 1.0, 0.0, env, 50.0,
                           GridSpec(p2_values=(2, 4), q2_values=(2, 4)))
    assert best.beta == beta_cap(2, 3, best.P2, 1.0)
    bb = bernstein_bound(best)
    assert bb.variance_proxy == 0.0 and bb.log_factor_variance == 0.0
    assert math.isfinite(bb.log_total)
    assert bb.log_total == pytest.approx(math.log(2) - best.beta * 50.0, rel=1e-14)


def test_optimizer_computes_the_proxy_once(monkeypatch):
    calls = []
    real = bounds_mod.variance_proxy
    monkeypatch.setattr(bounds_mod, "variance_proxy", lambda *a: calls.append(a) or real(*a))
    sizes = (2, 3, 4, 6, 8, 12, 16)
    optimize_params(2, 6, 5, 1.0, 1 / 3, MixingEnvelope.m_dependent(1), 80.0,
                    GridSpec(p2_values=sizes, q2_values=sizes))
    assert len(calls) == 1


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,value", [
    ("epsilon", _NAN), ("epsilon", _INF), ("beta", _NAN), ("C", _NAN),
    ("C", _INF), ("sigma2", _NAN), ("sigma2", _INF),
])
def test_bernstein_rejects_non_finite_input(field, value):
    with pytest.raises(ValidationError) as err:
        bernstein_bound(_zero_input(**{field: value}))
    assert f"{field} = {value!r}" in str(err.value)


@pytest.mark.parametrize("field,value", [
    ("epsilon", _NAN), ("epsilon", 0.0), ("C", _NAN), ("sigma2", _NAN), ("sigma2", -1.0),
])
def test_optimizer_rejects_bad_scalars(field, value):
    args = dict(A=2, L=5, P=3, C=1.0, sigma2=1 / 3, envelope=MixingEnvelope.zero(),
                epsilon=50.0, grid=GridSpec(p2_values=(4,), q2_values=(4,)))
    args[field] = value
    with pytest.raises(ValidationError):
        optimize_params(**args)


@pytest.mark.parametrize("field,value", [
    ("epsilon", _NAN), ("C", _NAN), ("sigma2", _NAN), ("D", _NAN), ("D", _INF),
])
def test_concentration_rejects_non_finite_input(field, value):
    base = dict(A=2, L=12, epsilon=0.5, C=1.0, sigma2=1 / 3, envelope=MixingEnvelope.zero())
    base[field] = value
    with pytest.raises(ValidationError):
        concentration_bound(ConcentrationInput(**base))


def test_depth_past_float_range_raises_capacity_error():
    env = MixingEnvelope.m_dependent(2)  # alpha(f = 4) = 1/4
    deep = _zero_input(L=1100, envelope=env)
    with pytest.raises(CapacityError, match="log_factor_mixing"):
        bernstein_bound(deep)
    with pytest.raises(CapacityError, match="log_factor_variance"):
        bernstein_bound(_zero_input(L=1100))
    with pytest.raises(CapacityError, match="log_factor"):
        optimize_params(2, 1100, 3, 1.0, 1 / 3, env, 50.0,
                        GridSpec(p2_values=(4,), q2_values=(4,)))
    with pytest.raises(CapacityError, match=r"A\*\*\(L - P1\)"):
        concentration_bound(ConcentrationInput(A=2, L=1100, epsilon=0.5, C=1.0,
                                               sigma2=1 / 3, envelope=env))


def test_zero_terms_stay_finite_past_float_range():
    bb = bernstein_bound(_zero_input(L=1100, sigma2=0.0))
    assert bb.log_factor_mixing == 0.0 and bb.log_factor_variance == 0.0
    assert bb.log_total == math.log(2) - beta_cap(2, 3, 4, 1.0) * 50.0
    assert bb.block_count == -(-2**1100 // 8)


def test_block_count_refuses_from_the_first_depth_past_the_digit_limit():
    # L log10(2) first reaches 4300 at L = 14285; at 14284 block_count prints
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert len(str(bernstein_bound(_zero_input(L=14284, sigma2=0.0)).block_count)) == 4300
        with pytest.raises(CapacityError) as exc:
            bernstein_bound(_zero_input(L=14285, sigma2=0.0))
        assert str(exc.value) == "block_count = ceil(A**L / (P2 + Q2)) may exceed 4300 digits"
    finally:
        sys.set_int_max_str_digits(limit)


def test_optimizer_refuses_unprintable_depth_before_forming_a_power():
    # forming 3**(10**7) takes seconds and grows faster than linearly in L; the
    # refusal must come from L * log10(A) first, and the child's timeout fails
    # the test instead of stalling the suite if it ever does not
    probe = """
import time
from treebound import CapacityError, GridSpec, MixingEnvelope, optimize_params
start = time.perf_counter()
try:
    optimize_params(3, 10**7, 3, 1.0, 0.0, MixingEnvelope.zero(), 50.0, GridSpec((4,), (4,)))
except CapacityError as exc:
    assert "digits" in str(exc), exc
else:
    raise AssertionError("no CapacityError")
assert time.perf_counter() - start < 1.0
"""
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_summability_ratio_past_float_range():
    # a zero pair sum stays exactly 0 at any depth
    assert summability_ratio(MixingEnvelope.zero(), 2, 1100) == 0.0
    # 0.5 * N(1022, 1) is a float, but 1022 * 2**1022 is not
    with pytest.raises(CapacityError, match=r"P \* A\*\*P"):
        summability_ratio(MixingEnvelope.table([0.5, 0.0]), 2, 1022)


@pytest.mark.parametrize("P2, L, term", [(10**160, 532, "P2**2"), (10**400, 1330, "P2")])
def test_block_length_past_float_range(P2, L, term):
    # the square of P2 = 1e160 is past float range; P2 = 1e400 is itself
    with pytest.raises(CapacityError, match=rf"^{re.escape(term)} leaves"):
        bernstein_bound(_zero_input(L=L, P2=P2, Q2=2, beta=1e-300))
    with pytest.raises(CapacityError, match=rf"^{re.escape(term)} leaves"):
        optimize_params(2, L, 3, 1.0, 1 / 3, MixingEnvelope.zero(), 50.0,
                        GridSpec(p2_values=(P2,), q2_values=(2,)))


_GRID = GridSpec(p2_values=(4,), q2_values=(4,))
_ZERO = MixingEnvelope.zero()


def _concentration(**overrides):
    base = dict(A=2, L=10, epsilon=0.5, C=1.0, sigma2=1 / 3, envelope=_ZERO)
    base.update(overrides)
    return concentration_bound(ConcentrationInput(**base))


@pytest.mark.parametrize("call", [
    lambda: bernstein_bound(_zero_input(A=2.5)),
    lambda: bernstein_bound(_zero_input(L=5.0)),
    lambda: bernstein_bound(_zero_input(P=True)),
    lambda: bernstein_bound(_zero_input(P2=4.0)),
    lambda: bernstein_bound(_zero_input(Q2=4.0)),
    lambda: optimize_params(2.0, 5, 3, 1.0, 1 / 3, _ZERO, 50.0, _GRID),
    lambda: optimize_params(2, 5.0, 3, 1.0, 1 / 3, _ZERO, 50.0, _GRID),
    lambda: optimize_params(2, 5, 3.5, 1.0, 1 / 3, _ZERO, 50.0, _GRID),
    lambda: _concentration(A=2.0),
    lambda: _concentration(L=10.5),
    lambda: _concentration(L=True),
    lambda: summability_ratio(_ZERO, 2.5, 3),
    lambda: summability_ratio(_ZERO, 2, 3.0),
    lambda: summability_ratio(_ZERO, True, 3),
    lambda: beta_cap(2, 3, 4.0, 1.0),
    lambda: MixingEnvelope.m_dependent(1.5),
    lambda: MixingEnvelope.m_dependent(True),
    lambda: GridSpec(p2_values=(4,), q2_values=(4.0,)),
    lambda: GridSpec(p2_values=(4, True), q2_values=(4,)),
], ids=[
    "bernstein-A", "bernstein-L", "bernstein-P-bool", "bernstein-P2", "bernstein-Q2",
    "optimize-A", "optimize-L", "optimize-P", "concentration-A", "concentration-L",
    "concentration-L-bool", "summability-A", "summability-P", "summability-A-bool",
    "beta_cap-P2", "envelope-m", "envelope-m-bool", "grid-q2", "grid-p2-bool",
])
def test_integer_parameters_reject_floats_and_bools(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()
