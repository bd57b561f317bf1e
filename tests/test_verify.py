"""Verification machinery: exact mixing coefficients, the covariance
inequality on finite spaces, Monte Carlo tails, and sampled mixing lower
bounds."""

import mpmath
import numpy as np
import pytest
from scipy.stats import beta, binom

from treebound import (
    AlphaSamplePlan,
    CapacityError,
    EventPair,
    FieldSpec,
    FiniteSpace,
    Generations,
    NodeId,
    StripParams,
    Strip,
    Subtree,
    ValidationError,
    binomial_lower_99,
    binomial_upper_99,
    davydov_check,
    empirical_alpha_lower,
    exact_alpha,
    mc_tail,
    random_finite_space,
    tail_estimates_to_jsonl,
)
from treebound import verify as verify_mod


def _brute_force_alpha(space):
    """Exhaustive double-subset enumeration, the oracle for exact_alpha."""
    probs = np.asarray(space.probs)
    best = 0.0
    g, h = len(space.atoms_g), len(space.atoms_h)
    for gm in range(1 << g):
        a_idx = [i for gi in range(g) if gm >> gi & 1 for i in space.atoms_g[gi]]
        pa = probs[a_idx].sum() if a_idx else 0.0
        for hm in range(1 << h):
            b_idx = [i for hj in range(h) if hm >> hj & 1 for i in space.atoms_h[hj]]
            pb = probs[b_idx].sum() if b_idx else 0.0
            pab = probs[sorted(set(a_idx) & set(b_idx))].sum() if a_idx and b_idx else 0.0
            best = max(best, abs(pab - pa * pb))
    return best


def _product_space(p, q, rng):
    probs = [pi * qj for pi in p for qj in q]
    atoms_g = [[i * len(q) + j for j in range(len(q))] for i in range(len(p))]
    atoms_h = [[i * len(q) + j for i in range(len(p))] for j in range(len(q))]
    xi_atom = rng.uniform(-1, 1, len(p))
    eta_atom = rng.uniform(-1, 1, len(q))
    xi = [xi_atom[i] for i in range(len(p)) for _ in range(len(q))]
    eta = [eta_atom[j] for _ in range(len(p)) for j in range(len(q))]
    return FiniteSpace.build(probs, atoms_g, atoms_h, xi, eta)


def test_exact_alpha_half_split_is_quarter():
    space = FiniteSpace.build([0.5, 0.5], [[0], [1]], [[0], [1]], [1, -1], [1, -1])
    assert exact_alpha(space) == pytest.approx(0.25, abs=1e-15)


def test_exact_alpha_product_space_vanishes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(rng.integers(2, 5)))
        q = rng.dirichlet(np.ones(rng.integers(2, 5)))
        space = _product_space(p, q, rng)
        assert exact_alpha(space) <= 1e-12


def test_exact_alpha_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(30):
        space = random_finite_space(rng, max_outcomes=12, max_atoms=4)
        assert exact_alpha(space) == pytest.approx(_brute_force_alpha(space), abs=1e-13)


def test_exact_alpha_bounded_by_quarter():
    rng = np.random.default_rng(2)
    for _ in range(100):
        space = random_finite_space(rng, max_outcomes=40, max_atoms=8)
        assert 0.0 <= exact_alpha(space) <= 0.25 + 1e-15


def test_exact_alpha_refinement_monotone():
    rng = np.random.default_rng(3)
    for _ in range(30):
        space = random_finite_space(rng, max_outcomes=24, max_atoms=4)
        coarse = exact_alpha(space)
        # refine H: split its largest atom in two
        atoms_h = [list(a) for a in space.atoms_h]
        big = max(range(len(atoms_h)), key=lambda i: len(atoms_h[i]))
        if len(atoms_h[big]) < 2:
            continue
        half = len(atoms_h[big]) // 2
        refined = atoms_h[:big] + [atoms_h[big][:half], atoms_h[big][half:]] + atoms_h[big + 1:]
        eta = list(space.eta)
        space2 = FiniteSpace.build(space.probs, space.atoms_g, refined, space.xi, eta)
        assert exact_alpha(space2) >= coarse - 1e-13


def test_exact_alpha_atom_cap():
    probs = [1 / 13] * 13
    atoms = [[i] for i in range(13)]
    space = FiniteSpace.build(probs, atoms, [list(range(13))], [0] * 13, [0] * 13)
    with pytest.raises(CapacityError):
        exact_alpha(space)


def test_finite_space_validation():
    with pytest.raises(ValidationError):
        FiniteSpace.build([0.5, 0.6], [[0], [1]], [[0, 1]], [0, 0], [0, 0])
    with pytest.raises(ValidationError):
        FiniteSpace.build([0.5, 0.5], [[0]], [[0, 1]], [0, 0], [0, 0])
    with pytest.raises(ValidationError):
        FiniteSpace.build([0.5, 0.5], [[0], [1]], [[0, 1]], [0], [0, 0])


def test_davydov_independent_partitions():
    rng = np.random.default_rng(4)
    space = _product_space([0.4, 0.6], [0.2, 0.3, 0.5], rng)
    result = davydov_check(space, 4, 4, 2)
    assert result.lhs <= 1e-12
    assert result.rhs <= 1e-6
    assert result.holds


def test_davydov_constant_variable():
    space = FiniteSpace.build(
        [0.25, 0.25, 0.5], [[0, 1], [2]], [[0], [1, 2]], [3.0, 3.0, 3.0], [1.0, -1.0, -1.0]
    )
    result = davydov_check(space, 3, 3, 3)
    assert result.lhs <= 1e-12
    assert result.holds


def test_davydov_randomized_suite():
    rng = np.random.default_rng(5)
    for _ in range(200):
        space = random_finite_space(rng, max_outcomes=64, max_atoms=8)
        assert davydov_check(space, 4, 4, 2).holds
        assert davydov_check(space, 3, 3, 3).holds


def test_davydov_input_errors():
    space = FiniteSpace.build([0.5, 0.5], [[0], [1]], [[0], [1]], [1, -1], [1, -1])
    with pytest.raises(ValidationError) as err:
        davydov_check(space, 2, 2, 2)
    assert "conjugate" in str(err.value)
    bad = FiniteSpace.build([0.5, 0.5], [[0, 1]], [[0], [1]], [1, -1], [1, -1])
    with pytest.raises(ValidationError) as err:
        davydov_check(bad, 4, 4, 2)
    assert "xi" in str(err.value) and "atom 0" in str(err.value)


def test_binomial_upper_99():
    assert binomial_upper_99(100, 100) == 1.0
    n = 10_000
    p0 = binomial_upper_99(0, n)
    assert p0 == pytest.approx(1 - 0.01 ** (1 / n), rel=1e-6)
    # the upper limit solves P(X <= k; p) = 0.01
    for k in (1, 7, 42):
        p = binomial_upper_99(k, n)
        assert binom.cdf(k, n, p) == pytest.approx(0.01, rel=1e-6)


def _mp_cdf(n, j, p):
    """P(Bin(n, p) <= j) at the working precision, from the shorter tail
    summed outward from its inner end.  The term ratio r falls outward, so
    once r < 1 the terms left sum to at most term / (1 - r); summing stops
    when that is below 10**-(dps + 10) of the total."""
    q = 1 - p
    lower = 2 * j < n
    i = j if lower else j + 1
    term = mpmath.binomial(n, i) * p**i * q ** (n - i)
    total = mpmath.mpf(0)
    cut = mpmath.mpf(10) ** -(mpmath.mp.dps + 10)
    while True:
        total += term
        if i == (0 if lower else n):
            break
        r = i * q / ((n - i + 1) * p) if lower else (n - i) * p / ((i + 1) * q)
        i += -1 if lower else 1
        term *= r
        if r < 1 and term < cut * total * (1 - r):
            break
    return total if lower else 1 - total


def _mp_cdf_root(n, j, t, near):
    """The p with P(Bin(n, p) <= j) = t: Newton's method from ``near`` with
    the derivative -n * pmf_{n-1}(j; p); findroot verifies the residual."""
    t = mpmath.mpf(t)

    def slope(p):
        return -n * mpmath.binomial(n - 1, j) * p**j * (1 - p) ** (n - 1 - j)

    return mpmath.findroot(lambda p: _mp_cdf(n, j, p) - t, mpmath.mpf(near),
                           solver="newton", df=slope)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, k", [
    (n, k) for n in (100, 2000, 4096, 10**5, 10**6) for k in (0, 1, 2, n // 2, n - 1, n)
])
def test_binomial_limits_match_the_tail_sum_root(n, k):
    upper, lower = binomial_upper_99(k, n), binomial_lower_99(k, n)
    with mpmath.workdps(45):
        if k == n:
            assert upper == 1.0
        else:
            root = _mp_cdf_root(n, k, "0.01", upper)
            assert abs(upper - root) <= 1e-12 * root
        if k == 0:
            assert lower == 0.0
        else:  # P(Bin(n, p) >= k) = 0.01
            root = _mp_cdf_root(n, k - 1, "0.99", lower)
            assert abs(lower - root) <= 1e-12 * root
    # scipy's quantile drifts past 1e-12 at n = 10**6 (8e-12 at k = 2), so it
    # is a second oracle only up to 10**5
    if n <= 10**5:
        assert upper == pytest.approx(1.0 if k == n else beta.ppf(0.99, k + 1, n - k),
                                      rel=1e-12, abs=0.0)
        assert lower == pytest.approx(0.0 if k == 0 else beta.ppf(0.01, k, n - k + 1),
                                      rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 4096])
def test_binomial_limits_symmetry_order_and_scipy_sweep(n):
    for k in range(0, n + 1, max(1, n // 64)):
        upper, lower = binomial_upper_99(k, n), binomial_lower_99(k, n)
        assert abs(upper - (1.0 - binomial_lower_99(n - k, n))) <= 2**-52
        assert lower <= k / n <= upper
        assert upper == pytest.approx(1.0 if k == n else beta.ppf(0.99, k + 1, n - k),
                                      rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k, n", [(-1, 10), (11, 10), (0, 0), (1, 0), (0, -3)])
def test_binomial_limits_reject_bad_counts(k, n):
    for limit in (binomial_upper_99, binomial_lower_99):
        with pytest.raises(ValidationError):
            limit(k, n)


def test_mc_tail_workers_capped_before_any_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(verify_mod, "ThreadPoolExecutor", no_pool)
    spec = FieldSpec.independent(C=1.0, master_seed=0)
    with pytest.raises(ValidationError, match="workers"):
        mc_tail(spec, Strip(3, 2), 2, [1.0], 200, workers=verify_mod.MAX_WORKERS + 1)


def test_mc_tail_impossible_threshold():
    spec = FieldSpec.independent(C=1.0, master_seed=0)
    region = Strip(3, 2)
    n_nodes = 8 * 3
    estimates = mc_tail(spec, region, 2, [n_nodes + 1.0], 200,
                        bound_params=StripParams(2, 2, 1e-4))
    assert estimates[0].n_exceed == 0
    assert estimates[0].p_hat == 0.0


def test_mc_tail_worker_invariance():
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=31)
    eps = [10.0, 20.0, 30.0]
    one = mc_tail(spec, Strip(4, 2), 2, eps, 400, workers=1,
                  bound_params=StripParams(2, 2, 1e-3))
    four = mc_tail(spec, Strip(4, 2), 2, eps, 400, workers=4,
                   bound_params=StripParams(2, 2, 1e-3))
    assert tail_estimates_to_jsonl(one) == tail_estimates_to_jsonl(four)


def test_mc_tail_uncertified_for_heuristic_envelope():
    spec = FieldSpec.branching_ar(0.5, C=1.0, master_seed=1)
    estimates = mc_tail(spec, Generations(6), 2, [0.5], 200)
    assert estimates[0].certified is False
    assert estimates[0].violated is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
def test_mc_tail_rejects_non_finite_thresholds(bad):
    spec = FieldSpec.independent(C=1.0, master_seed=0)
    for region in (Strip(3, 2), Generations(4)):
        with pytest.raises(ValidationError, match=r"epsilon\[1\]"):
            mc_tail(spec, region, 2, [1.0, bad], 200)


def test_mc_tail_region_support():
    spec = FieldSpec.independent(C=1.0, master_seed=0)
    with pytest.raises(ValidationError):
        mc_tail(spec, Subtree(0, 1, 3), 2, [1.0], 200)
    with pytest.raises(ValidationError):
        mc_tail(spec, Strip(3, 2), 2, [1.0], 50)  # too few replicates
    with pytest.raises(ValidationError):
        mc_tail(spec, Strip(3, 2), 2, [], 200)


def test_empirical_alpha_independent_near_zero():
    spec = FieldSpec.independent(C=1.0, master_seed=8)
    plan = AlphaSamplePlan(
        pairs=tuple(
            EventPair((NodeId(0, 1),), (NodeId(n, 1),)) for n in (2, 3, 4)
        ),
        n_replicates=10_000,
    )
    result = empirical_alpha_lower(spec, 2, 2, plan)
    assert result.value <= 3 * result.std_error
    # exact coefficient on this restriction is 0: the sampled lower bound
    # stays consistent with it up to Monte Carlo noise
    assert result.value <= 0.0 + 3 * result.std_error


def test_empirical_alpha_m_dependent_beyond_range():
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=9)
    plan = AlphaSamplePlan(
        pairs=(EventPair((NodeId(0, 1),), (NodeId(3, 2),)),),
        n_replicates=10_000,
    )
    result = empirical_alpha_lower(spec, 2, 3, plan)
    assert result.value <= 3 * result.std_error


def test_empirical_alpha_branching_ar_positive():
    spec = FieldSpec.branching_ar(0.9, C=1.0, master_seed=10)
    plan = AlphaSamplePlan(
        pairs=(EventPair((NodeId(0, 1),), (NodeId(1, 1),)),),
        n_replicates=10_000,
    )
    result = empirical_alpha_lower(spec, 2, 1, plan)
    assert result.value >= 5 * result.std_error


def test_empirical_alpha_plan_validation():
    spec = FieldSpec.independent(C=1.0, master_seed=0)
    with pytest.raises(ValidationError):
        empirical_alpha_lower(spec, 2, 1, AlphaSamplePlan(pairs=(), n_replicates=1000))
    close = AlphaSamplePlan(
        pairs=(EventPair((NodeId(0, 1),), (NodeId(1, 1),)),), n_replicates=1000
    )
    with pytest.raises(ValidationError) as err:
        empirical_alpha_lower(spec, 2, 5, close)
    assert "distance" in str(err.value)
