"""Verification machinery: exact mixing coefficients, the covariance
inequality on finite spaces, Monte Carlo tails, and sampled mixing lower
bounds."""

import tracemalloc

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


def _renumbered(space, rng):
    """The same space with its outcomes renumbered and its atoms listed in a
    random order, each atom's indices shuffled."""
    new_index = rng.permutation(len(space.probs))
    old_index = np.argsort(new_index)

    def atoms(old_atoms):
        return [rng.permutation(new_index[old_atoms[k]]).tolist()
                for k in rng.permutation(len(old_atoms))]

    return FiniteSpace.build(space.probs[old_index], atoms(space.atoms_g), atoms(space.atoms_h),
                             space.xi[old_index], space.eta[old_index])


def test_exact_alpha_matches_brute_force_on_renumbered_spaces():
    rng = np.random.default_rng(11)
    for _ in range(30):
        space = random_finite_space(rng, max_outcomes=12, max_atoms=4)
        renumbered = _renumbered(space, rng)
        alpha = exact_alpha(renumbered)
        assert alpha == pytest.approx(_brute_force_alpha(renumbered), abs=1e-13)
        assert alpha == pytest.approx(exact_alpha(space), abs=1e-15)


def test_finite_space_build_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        space = _renumbered(random_finite_space(rng, max_outcomes=30, max_atoms=6), rng)
        again = FiniteSpace.build(space.probs, space.atoms_g, space.atoms_h, space.xi, space.eta)
        for name in ("probs", "g", "h", "xi", "eta"):
            assert np.array_equal(getattr(again, name), getattr(space, name))
        assert (again.n_g, again.n_h) == (space.n_g, space.n_h)
        for atom in space.atoms_g + space.atoms_h:
            assert (np.diff(atom) > 0).all()
    with pytest.raises(ValueError):
        space.probs[0] = 1.0
    probs = np.array([0.5, 0.5])  # the caller's array stays writeable
    FiniteSpace.build(probs, [[0], [1]], [[0, 1]], [1, -1], [0, 0])
    assert probs.flags.writeable


@pytest.mark.parametrize("args,match", [
    (([0.5, 0.5], [[0, 1], []], [[0, 1]], [0, 0], [0, 0]), "empty atom"),
    (([0.5, 0.5], [[0, 1], [1]], [[0, 1]], [0, 0], [0, 0]), "disjointly"),
    (([0.5, 0.5], [[0]], [[0, 1]], [0, 0], [0, 0]), "disjointly"),
    (([0.5, 0.5], [[0], [1]], [[0, 2]], [0, 0], [0, 0]), "disjointly"),
    (([0.5, 0.5], [[0.5], [1]], [[0, 1]], [0, 0], [0, 0]), "integer outcome indices"),
    (([0.5, 0.5], [[0], [1]], [[0, 1]], [0, 0], [0, 0, 0]), "eta"),
    (([], [], [], [], []), "non-empty"),
    (([float("nan"), 0.5], [[0], [1]], [[0], [1]], [1, -1], [1, -1]), "probs must be finite"),
    (([float("inf"), 0.5], [[0], [1]], [[0], [1]], [1, -1], [1, -1]), "probs must be finite"),
    (([0.5, 0.5], [[0], [1]], [[0], [1]], [float("inf"), -1], [1, -1]), "xi must be finite"),
    (([0.5, 0.5], [[0], [1]], [[0], [1]], [float("nan"), -1], [1, -1]), "xi must be finite"),
    (([0.5, 0.5], [[0], [1]], [[0], [1]], [1, -1], [1, float("-inf")]), "eta must be finite"),
])
def test_finite_space_build_rejects(args, match):
    with pytest.raises(ValidationError, match=match):
        FiniteSpace.build(*args)


@pytest.mark.parametrize("g,match", [
    ([0, 2, 2], "empty atom"),  # label 1 has no outcome
    ([0, 3, 1], r"integer labels in 0\.\.2"),
    ([0, -1, 1], r"integer labels in 0\.\.2"),
    ([0.0, 1.0, 1.0], "integer labels"),
    ([True, False, False], "integer labels"),
    ([0, 0], "g must give a value"),
])
def test_finite_space_label_arrays_validated(g, match):
    with pytest.raises(ValidationError, match=match):
        FiniteSpace([0.25, 0.25, 0.5], g, [0, 0, 0], [1, -1, -1], [0, 0, 0])


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


def test_davydov_names_lowest_non_measurable_atom():
    space = FiniteSpace.build([0.2] * 5, [[0], [3, 4], [1, 2]], [list(range(5))],
                              [1, 2, 3, 4, 5], [0] * 5)
    with pytest.raises(ValidationError, match="xi is not measurable: not constant on atom 1 of G"):
        davydov_check(space, 4, 4, 2)


@pytest.mark.parametrize("p", [1e308, float("inf")])
def test_davydov_norm_of_huge_exponent_is_the_max(p):
    # alpha = 1/4, ||xi||_p -> max|xi| = 0.5 and ||eta||_2 = 1: the rhs is
    # 10 * 0.5 * 0.5 * 1, where an unscaled norm underflows to a false violation
    space = FiniteSpace.build([0.5, 0.5], [[0], [1]], [[0], [1]], [0.5, -0.25], [1, -1])
    result = davydov_check(space, p, 2.0, 2.0)
    assert result.rhs == 2.5
    assert result.holds


def test_davydov_norm_of_huge_values_is_finite():
    space = FiniteSpace.build([0.5, 0.5], [[0], [1]], [[0], [1]], [1e300, -1e300], [1, -1])
    assert davydov_check(space, 4, 4, 2).rhs == pytest.approx(5e300, rel=1e-15)


# alpha and lhs (float.hex) of `verify-davydov --spaces 40 --seed 3 --max-atoms 12
# --max-outcomes 128` (p = q = 4, r = 2), pinned bit for bit
_PINNED_ALPHA_LHS = [
    ("0x1.98f16fbc23b9ep-6", "0x1.1c307f5ddf1b4p-5"),
    ("0x1.0be9711a6c1f5p-4", "0x1.8546ad1012720p-8"),
    ("0x1.1707390399b44p-3", "0x1.455019bc1ce87p-7"),
    ("0x0.0p+0", "0x1.0000000000000p-60"),
    ("0x1.579952c4e52b3p-3", "0x1.d261926dc79cfp-5"),
    ("0x1.412c73085ce32p-3", "0x1.48245d5385c77p-5"),
    ("0x1.47942bddcb524p-5", "0x1.e7c7022d7de00p-9"),
    ("0x1.0000000000000p-52", "0x1.0000000000000p-54"),
    ("0x1.922ac8dd56884p-4", "0x1.05c2504ff8880p-11"),
    ("0x1.f8e1720ed8a63p-4", "0x1.6b18ae7cef400p-7"),
    ("0x1.8000000000000p-53", "0x1.0000000000000p-55"),
    ("0x0.0p+0", "0x1.0000000000000p-56"),
    ("0x1.a993373de4c13p-4", "0x1.a51da3f9dec80p-8"),
    ("0x1.1557089df56f5p-4", "0x1.2002d554dbba8p-7"),
    ("0x1.18da0ec7300aep-3", "0x1.a8ab2cdfe7270p-6"),
    ("0x0.0p+0", "0x1.0000000000000p-55"),
    ("0x1.205872034fa87p-3", "0x1.774e3d5e8626fp-4"),
    ("0x1.3885b67b4fd0ep-3", "0x1.0794d5fd35a99p-5"),
    ("0x1.50fa8bf39f322p-4", "0x1.72b8807ca819bp-6"),
    ("0x1.25a8235fdef6ep-3", "0x1.f56a838e22fe3p-6"),
    ("0x1.ff17331e145cep-4", "0x1.0a04671c04258p-5"),
    ("0x1.bbe0d738003bep-4", "0x1.374c48ff6bbebp-5"),
    ("0x1.9ab1f9dd6d05ep-4", "0x1.c341dfa52978ep-5"),
    ("0x1.b19ecba9c6516p-4", "0x1.cf3b84e3b7800p-13"),
    ("0x1.2dc78d2505b82p-3", "0x1.9718e140dff88p-4"),
    ("0x1.fbc3a659f6406p-3", "0x1.2c8f16038b1c0p-4"),
    ("0x1.debdd5aacdd51p-4", "0x1.bf69673407610p-5"),
    ("0x1.71a2c464ede31p-4", "0x1.51bd7b10b53d0p-8"),
    ("0x1.930f75ba848e2p-3", "0x1.284e88d8fff03p-6"),
    ("0x1.66054af545a6dp-3", "0x1.aa4aab87d63f4p-5"),
    ("0x0.0p+0", "0x1.0000000000000p-54"),
    ("0x1.f1d49cadf4a14p-3", "0x1.14f1f1ed5f905p-7"),
    ("0x1.144aef94f6015p-3", "0x1.c471dfdcc83e8p-5"),
    ("0x1.4cb0f7855e2f0p-4", "0x1.c2c047a7ecae0p-8"),
    ("0x1.ff3aebc8a2f1ap-4", "0x1.05d8ed7914e5dp-4"),
    ("0x1.4b05c610801f5p-3", "0x1.b0dc531fc638dp-5"),
    ("0x1.0000000000000p-52", "0x1.8000000000000p-54"),
    ("0x1.5a646017bcba2p-4", "0x1.e3edd2ddf6ce8p-7"),
    ("0x0.0p+0", "0x0.0p+0"),
    ("0x1.ec24763684e18p-3", "0x1.d931924d787fcp-4"),
]


def test_davydov_outputs_pinned():
    rng = np.random.default_rng(3)
    got = []
    for _ in _PINNED_ALPHA_LHS:
        result = davydov_check(random_finite_space(rng, 128, 12), 4.0, 4.0, 2.0)
        got.append((result.alpha.hex(), result.lhs.hex()))
    assert got == _PINNED_ALPHA_LHS


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


def test_mc_tail_refuses_a_deep_generations_region_before_its_count():
    # the exact node count of 10**9 generations at rate 3 would take hours
    spec = FieldSpec.independent(C=1.0, master_seed=0)
    with pytest.raises(CapacityError, match=r"at least 2\*\*1584962499 nodes"):
        mc_tail(spec, Generations(10**9), 3, [0.5], 100)


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


def test_empirical_alpha_memory_is_bounded():
    # all values of both sets at once would peak at about 176 MiB
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=12)
    pair = EventPair(tuple(NodeId(9, k) for k in range(1, 257)),
                     tuple(NodeId(9, k) for k in range(257, 513)))
    tracemalloc.start()
    try:
        empirical_alpha_lower(spec, 2, 1, AlphaSamplePlan(pairs=(pair,), n_replicates=10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


@pytest.mark.parametrize("p,q,r", [(float("nan"), 0.0, 2.0), (4.0, float("nan"), 2.0),
                                   (4.0, 4.0, 0.5)])
def test_davydov_exponents_below_one_or_nan_rejected(p, q, r):
    space = FiniteSpace.build([0.5, 0.5], [[0], [1]], [[0], [1]], [1, -1], [1, -1])
    with pytest.raises(ValidationError, match="exponents must be >= 1"):
        davydov_check(space, p, q, r)


@pytest.mark.parametrize("kwargs", [{"max_outcomes": 1}, {"max_outcomes": -1},
                                    {"max_atoms": 0}, {"max_atoms": 2.5}])
def test_random_finite_space_sizes_validated(kwargs):
    with pytest.raises(ValidationError):
        random_finite_space(np.random.default_rng(0), **kwargs)
