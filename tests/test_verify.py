"""Verification machinery: exact mixing coefficients, the covariance
inequality on finite spaces, Monte Carlo tails, and sampled mixing lower
bounds."""

import math
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import beta, binom

from treebound import (
    AlphaSamplePlan,
    AmplitudeError,
    BernsteinInput,
    CapacityError,
    ConcentrationInput,
    EventPair,
    FieldSpec,
    FiniteSpace,
    Generations,
    GridSpec,
    NodeId,
    SpaceBlock,
    StripParams,
    Strip,
    Subtree,
    ValidationError,
    bernstein_bound,
    binomial_lower_99,
    binomial_upper_99,
    concentration_bound,
    concentration_schedule,
    davydov_check,
    davydov_checks,
    empirical_alpha_lower,
    exact_alpha,
    field_certificate,
    mc_tail,
    optimize_params,
    random_finite_space,
    random_finite_spaces,
    tail_bounds,
    tail_estimates_to_jsonl,
    tree_distance,
)
import treebound
from treebound import fields as fields_mod
from treebound import verify as verify_mod
from treebound.cli import main


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


def _two_atom_witness(alpha):
    """P(A) = P(B) = 1/2 and P(A & B) = 1/4 + alpha, with xi = +-1 on A and its
    complement and eta = +-1 on B and its: Cov(xi, eta) = 4 alpha, the mixing
    coefficient is alpha and every norm is 1."""
    probs = [0.25 + alpha, 0.25 - alpha, 0.25 - alpha, 0.25 + alpha]  # AB, AB', A'B, A'B'
    return FiniteSpace.build(probs, [[0, 1], [2, 3]], [[0, 2], [1, 3]], [1, 1, -1, -1],
                             [1, -1, 1, -1])


@pytest.mark.parametrize("alpha, exponents, ratio", [
    (0.01, (math.inf, math.inf, 1), 0.4),
    (0.1, (math.inf, math.inf, 1), 0.4),
    (0.25, (math.inf, math.inf, 1), 0.4),
    (0.25, (4, 4, 2), 0.2),  # 0.4 * alpha**(1/2)
    (0.25, (3, 3, 3), 0.4 * 0.25 ** (2 / 3)),  # 0.1587
])
def test_davydov_sharp_two_atom_witnesses(alpha, exponents, ratio):
    # lhs / rhs = 4 alpha / (10 alpha**(1/r)): the constant 10 is checked, not
    # only the inequality's direction
    result = davydov_check(_two_atom_witness(alpha), *exponents)
    assert result.alpha == pytest.approx(alpha, abs=1e-15)
    assert result.lhs / result.rhs == pytest.approx(ratio, abs=1e-12)
    assert result.holds


def _hill_climb(n_g, n_h, exponents, seed, steps=200, width=16):
    """The largest ``lhs / rhs`` a seeded hill-climb reaches over the spaces of
    ``n_g x n_h`` product cells (one outcome per pair of atoms): each step
    checks the point and ``width - 1`` Gaussian moves of its cell logits and
    atom values as one block, keeps the best, and shrinks the moves when the
    point stays best."""
    n = n_g * n_h
    g, h = np.divmod(np.arange(n), n_h)
    rng = np.random.default_rng(seed)
    x, scale = rng.normal(size=n + n_g + n_h), 1.0
    for _ in range(steps):
        y = x + scale * rng.normal(size=(width, x.size))
        y[0] = x
        w = np.exp(y[:, :n] - y[:, :n].max(axis=1, keepdims=True))
        block = SpaceBlock((w / w.sum(axis=1, keepdims=True)).ravel(), np.tile(g, width),
                           np.tile(h, width), y[:, n:n + n_g][:, g].ravel(),
                           y[:, n + n_g:][:, h].ravel(), [n] * width)
        results = davydov_checks(block, *exponents)
        assert all(result.holds for result in results)
        ratios = [result.lhs / result.rhs for result in results]
        k = int(np.argmax(ratios))
        if k == 0:
            scale *= 0.8
        x, best = y[k], ratios[k]
    return best


@pytest.mark.parametrize("shape, exponents, reached", [
    ((2, 2), (4, 4, 2), 0.19983210710384228),
    ((3, 3), (4, 4, 2), 0.19827646473556362),
    ((2, 2), (3, 3, 3), 0.1585972563444659),
    ((3, 3), (3, 3, 3), 0.157825516228619),
])
def test_davydov_hill_climb_reaches_the_two_atom_witness_and_no_further(shape, exponents, reached):
    # the climbs end just below the sharp two-atom witnesses' 0.2 and 0.1587:
    # no 2 x 2 or 3 x 3 space they meet tells a constant above 2 or 1.587 from 10
    assert _hill_climb(*shape, exponents, seed=7) == pytest.approx(reached, rel=1e-12)


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
# --max-outcomes 128` (p = q = 4, r = 2), pinned bit for bit; computed by the
# check kernels as they stood before the spaces were drawn in slots, on the
# slot draws, so they pin the kernels as well as the draws
_PINNED_ALPHA_LHS = [
    ("0x1.c53db5c5d8348p-3", "0x1.5ac82733a7904p-5"),
    ("0x1.6e08636f203cbp-4", "0x1.e34be8feb4516p-6"),
    ("0x1.063985aadb5e4p-4", "0x1.22912c61635f0p-10"),
    ("0x1.e000000000000p-52", "0x1.4000000000000p-54"),
    ("0x1.fffc35491008dp-3", "0x1.ec2acd6018945p-3"),
    ("0x1.fdefbca490048p-3", "0x1.9fcdbf42b4d03p-3"),
    ("0x1.2b4a7361c715bp-4", "0x1.22ec52def4b60p-9"),
    ("0x1.cbca071c46441p-4", "0x1.8e156456521d6p-6"),
    ("0x1.bf6129a544c5cp-4", "0x1.dcb3a5cf943c2p-5"),
    ("0x0.0p+0", "0x0.0p+0"),
    ("0x1.048082e5f0c5dp-3", "0x1.a9d882f5e2c8cp-6"),
    ("0x1.6b6e975c0ff7bp-4", "0x1.b9adb39fad6d0p-7"),
    ("0x1.c400000000000p-53", "0x1.0000000000000p-56"),
    ("0x1.c461ba275e4a9p-3", "0x1.0b9aa5a3e5764p-4"),
    ("0x0.0p+0", "0x0.0p+0"),
    ("0x1.a87bd89e9a6f8p-4", "0x1.8afa6d58cf839p-7"),
    ("0x1.1f58a9c839a08p-3", "0x1.e19ac265d7c3cp-6"),
    ("0x1.85fb0a12de1ecp-3", "0x1.7557ab0c3e99ap-4"),
    ("0x1.5b57f9c12c5b2p-3", "0x1.a1714aef1f26cp-6"),
    ("0x1.76d8de05b9a4ep-3", "0x1.1a8a8ddcd83b5p-6"),
    ("0x1.0214c93e75fbap-4", "0x1.e0d401ce3b4b4p-6"),
    ("0x1.3dfdfab3889e2p-4", "0x1.c6c098bf00df8p-8"),
    ("0x1.2ec3c39548858p-6", "0x1.f12343d6e5240p-9"),
    ("0x1.2e47055ab60d6p-3", "0x1.deca253c5c8e1p-4"),
    ("0x1.bb1157068f64fp-5", "0x1.5945bd7d57ed0p-8"),
    ("0x1.214e1cfcb9875p-3", "0x1.cbfbe7e08e043p-6"),
    ("0x1.d7e4e1c385f98p-4", "0x1.14cafaa4cc20cp-5"),
    ("0x1.c84d48b229a24p-5", "0x1.ef98297dc53d0p-10"),
    ("0x1.0b6ca79c8df4ep-3", "0x1.9e5ff8c545878p-5"),
    ("0x0.0p+0", "0x1.0000000000000p-57"),
    ("0x1.771c1d5ab0757p-4", "0x1.2f11ed0968538p-9"),
    ("0x1.5f0fa62e6cf78p-4", "0x1.5bb0fc2c54800p-14"),
    ("0x1.69da581437c7ap-3", "0x1.40976e2ac8910p-6"),
    ("0x1.1e024c55e9d53p-3", "0x1.282db8710d00cp-6"),
    ("0x1.33f549067fc4ap-4", "0x1.dbe4dfa637b68p-7"),
    ("0x1.cf26e17a52344p-5", "0x1.b2f069fdec4dap-6"),
    ("0x1.8da452be4eb51p-4", "0x1.26ef8f38a65c2p-6"),
    ("0x1.d687cc4bf8fd8p-4", "0x1.c8211b1edcff0p-5"),
    ("0x1.20a841783029dp-3", "0x1.9d05c08c478b1p-6"),
    ("0x1.eedd28e39bb95p-5", "0x1.c8cdb209f9a61p-5"),
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


def _no_fork():
    raise AssertionError("a worker process was forked")


def test_mc_tail_workers_capped_before_any_thread(monkeypatch):
    monkeypatch.setattr(verify_mod.os, "fork", _no_fork)
    spec = FieldSpec.independent(C=1.0, master_seed=0)
    with pytest.raises(ValidationError, match="workers"):
        mc_tail(spec, Strip(3, 2), 2, [1.0], 200, workers=verify_mod.MAX_WORKERS + 1)


def test_mc_tail_forks_nothing_for_one_worker_or_without_fork(monkeypatch):
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=2)
    want = tail_estimates_to_jsonl(mc_tail(spec, Generations(7), 2, [0.05], 300, workers=3))
    monkeypatch.setattr(verify_mod.os, "fork", _no_fork)
    assert tail_estimates_to_jsonl(mc_tail(spec, Generations(7), 2, [0.05], 300)) == want
    monkeypatch.delattr(verify_mod.os, "fork")  # a platform without fork runs every slice inline
    got = mc_tail(spec, Generations(7), 2, [0.05], 300, workers=3)
    assert tail_estimates_to_jsonl(got) == want


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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mc_tail_builds_one_plan_and_one_key_array_per_op(monkeypatch, workers):
    # every worker slice runs the tile loop on the weights and node keys of one build
    calls = {"region_plan": 0, "_node_keys": 0}
    for name in calls:
        def counted(*args, _build=getattr(fields_mod, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(fields_mod, name, counted)
    for spec in (FieldSpec.independent(C=1.0, master_seed=3),
                 FieldSpec.m_dependent(1, C=1.0, master_seed=3),
                 FieldSpec.branching_ar(0.8, C=1.0, master_seed=3)):
        for region, eps in ((Strip(3, 3), [5.0]), (Generations(7), [0.1])):
            calls.update(region_plan=0, _node_keys=0)
            got = mc_tail(spec, region, 2, eps, 300, workers=workers)
            assert calls == {"region_plan": 1, "_node_keys": 1}
            want = mc_tail(spec, region, 2, eps, 300, workers=1)
            assert tail_estimates_to_jsonl(got) == tail_estimates_to_jsonl(want)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


# case: (the process whose tiles misbehave, how, the error mc_tail raises)
_WORKER_ENDINGS = {
    "returns": (None, None, None),
    "child raises": ("child", "shift", (AmplitudeError, "outside")),
    "parent raises": ("parent", "shift", (AmplitudeError, "outside")),
    "parent interrupted": ("parent", "interrupt", (KeyboardInterrupt, None)),
    "child killed": ("child", "kill", (CapacityError, r"worker slice 1 \(replicates 200 to "
                                       r"399\) ended without a result: wait status 9")),
}


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self/fd")),
                    reason="forked workers and /proc/self/fd")
@pytest.mark.parametrize("case", list(_WORKER_ENDINGS))
def test_mc_tail_leaves_no_child_process_and_no_open_fd(monkeypatch, capsys, case):
    # every forked worker is reaped and every pipe end closed, however the call ends
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=5)
    argv = ["mc-tail", "--rate", "2", "--region", "generations(8)", "--field",
            "m_dependent(1)", "--C", "1", "--epsilons", "0.02,0.05", "--replicates", "600",
            "--seed", "5", "--workers", "3"]
    want = tail_estimates_to_jsonl(mc_tail(spec, Generations(8), 2, [0.02, 0.05], 600))
    who, action, error = _WORKER_ENDINGS[case]
    parent, bits_tile, mix_tile = os.getpid(), fields_mod._bits_tile, fields_mod._mix_tile

    def misbehaving(r, n, h, tmp):
        if who != ("parent" if os.getpid() == parent else "child"):
            return bits_tile(r, n, h, tmp)
        if action == "interrupt":
            raise KeyboardInterrupt
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return np.right_shift(mix_tile(r, n, h, tmp), 10, out=tmp)  # innovations in [-1, 3)

    monkeypatch.setattr(fields_mod, "_bits_tile", misbehaving)
    fds = _open_fds()
    if error is None:
        got = mc_tail(spec, Generations(8), 2, [0.02, 0.05], 600, workers=3)
        assert tail_estimates_to_jsonl(got) == want
    else:
        with pytest.raises(error[0], match=error[1]):
            mc_tail(spec, Generations(8), 2, [0.02, 0.05], 600, workers=3)
    if case == "child killed":
        assert main(argv) == 3
        assert "ended without a result: wait status 9" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() <= fds


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


def test_mc_tail_hashes_up_to_its_cap_and_no_more(monkeypatch):
    # generations(8) holds 255 nodes; m_dependent(1) also hashes generation 8: 511
    monkeypatch.setattr(verify_mod, "MC_HASHED_VALUES", 511 * 100)
    for spec, support in ((FieldSpec.independent(C=1.0), 255), (FieldSpec.m_dependent(1), 511)):
        n = verify_mod.MC_HASHED_VALUES // support
        assert mc_tail(spec, Generations(8), 2, [0.5], n)[0].n_replicates == n
        with pytest.raises(CapacityError, match=f"^{n + 1} replicates of {support} support "
                                                f"nodes hash more than the cap of 51100 "):
            mc_tail(spec, Generations(8), 2, [0.5], n + 1)


def test_mc_tail_refuses_a_field_it_cannot_sum_before_counting_its_replicates(monkeypatch):
    # balls over their cap or past the 63-bit labels keep their own refusals
    for m, error, message in ((40, CapacityError, "radius-40 balls of 15 nodes hold"),
                              (10**6, ValidationError, "overflow the 63-bit label range")):
        with pytest.raises(error, match=message):
            mc_tail(FieldSpec.m_dependent(m), Generations(4), 2, [0.5], 2**62)
    # without them, a support down to generation 10**6 + 3 is counted from its
    # bits, before its power is formed
    monkeypatch.setattr(verify_mod, "_region_runs", lambda *args: None)
    with pytest.raises(CapacityError, match=r"^100 replicates of at least 2\*\*1000003 support"):
        mc_tail(FieldSpec.m_dependent(10**6), Generations(4), 2, [0.5], 100)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mc_tail_sums_its_replicates_one_block_at_a_time(monkeypatch, workers):
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=5)
    cases = ((Strip(3, 3), [2.0, 5.0]), (Generations(6), [0.05, 0.1]))
    want = [tail_estimates_to_jsonl(mc_tail(spec, region, 2, eps, 1000, workers=workers))
            for region, eps in cases]
    calls = []

    def recorded(*args, _build=verify_mod.region_sums_of):
        sums = _build(*args)

        def counted(reps):
            calls.append(len(reps))
            return sums(reps)

        return counted

    monkeypatch.setattr(verify_mod, "region_sums_of", recorded)
    monkeypatch.setattr(verify_mod, "MC_REPLICATE_BLOCK", 64)
    for (region, eps), text in zip(cases, want):
        calls.clear()
        got = mc_tail(spec, region, 2, eps, 1000, workers=workers)
        assert tail_estimates_to_jsonl(got) == text
        # the calls of the first slice, the one in this process
        first = -(-1000 // workers)
        assert calls == [64] * (first // 64) + [first % 64] * (first % 64 > 0)


def test_mc_tail_memory_stays_flat_in_the_replicate_count():
    # the parent summed each slice whole: 1.47 MB more at 2**16 replicates
    # than at 2**12 on this region, about 24 bytes a replicate
    spec = FieldSpec.independent(C=1.0, master_seed=2)
    mc_tail(spec, Generations(6), 2, [0.5, 0.2], 100)  # caches warmed outside the trace
    peaks = []
    for n in (2**12, 2**16):
        tracemalloc.start()
        try:
            mc_tail(spec, Generations(6), 2, [0.5, 0.2], n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 32 * verify_mod.MC_REPLICATE_BLOCK


def test_mc_tail_huge_replicate_counts_raise_capacity_error_not_memory_error():
    # under a 4 GB address-space limit the replicate ids of either call cannot
    # be allocated, so only a count made before any array is built refuses them
    probe = """
import contextlib, io, resource
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from treebound import CapacityError, FieldSpec, Generations, mc_tail
from treebound.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(["mc-tail", "--rate", "2", "--C", "1", "--region", "generations(8)",
                 "--field", "independent", "--replicates", str(2**62), "--epsilons", "0.5"])
assert (code, err.getvalue()) == (3, "error: 4611686018427387904 replicates of 255 support nodes "
                                     "hash more than the cap of 1099511627776 innovations\\n"), err.getvalue()
try:
    mc_tail(FieldSpec.independent(), Generations(8), 2, [0.5], 2**40, workers=2)
except CapacityError as exc:
    assert "1099511627776 replicates of 255 support nodes" in str(exc), str(exc)
else:
    raise AssertionError("no CapacityError")
"""
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


_BOUND_FIELDS = [FieldSpec.independent(C=1.0, master_seed=3),
                 FieldSpec.m_dependent(1, C=1.0, master_seed=3),
                 FieldSpec.branching_ar(0.8, C=1.0, master_seed=3)]
_BOUND_IDS = ["independent", "m_dependent", "branching_ar"]


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail any call that would build a region's sums."""
    def refuse(*args):
        raise AssertionError("a bound sampled the field")

    monkeypatch.setattr(verify_mod, "region_sums_of", refuse)


@pytest.mark.parametrize("params", [None, StripParams(4, 4, 0.003)], ids=["optimized", "fixed"])
@pytest.mark.parametrize("spec", _BOUND_FIELDS, ids=_BOUND_IDS)
def test_tail_bounds_on_a_strip_are_the_strip_bound_at_its_parameters(no_sampling, spec, params):
    cert = field_certificate(spec)
    eps = [20, 40.0, 80.0]
    got = tail_bounds(spec, Strip(5, 3), 2, eps, bound_params=params)
    # the default grid at L = 5: every value v of (2, 3, 4, 6, 8, 12, 16) with 2 v < 2**5
    grid = GridSpec(p2_values=(2, 3, 4, 6, 8, 12), q2_values=(2, 3, 4, 6, 8, 12))
    for bound, e in zip(got, eps, strict=True):
        if params is None:
            inp = optimize_params(2, 5, 3, cert.C, cert.sigma2, cert.envelope, e, grid)
        else:
            inp = BernsteinInput(A=2, L=5, P=3, P2=4, Q2=4, beta=0.003, epsilon=e, C=cert.C,
                                 sigma2=cert.sigma2, envelope=cert.envelope)
        assert (bound.epsilon, bound.threshold) == (float(e), float(e))
        assert (bound.P1, bound.P2, bound.Q2, bound.beta) == (None, inp.P2, inp.Q2, inp.beta)
        assert bound.log_bound.hex() == bernstein_bound(inp).log_total.hex()
        assert bound.provenance == cert.envelope.provenance
    assert type(got[0].epsilon) is float


@pytest.mark.parametrize("schedule", [{}, {"eta": 0.6, "D": 0.5}], ids=["default", "given"])
@pytest.mark.parametrize("spec", _BOUND_FIELDS, ids=_BOUND_IDS)
def test_tail_bounds_on_generations_are_the_whole_tree_bound_at_its_schedule(
    no_sampling, spec, schedule
):
    cert = field_certificate(spec)
    eps = [0.02, 0.05, 0.5]
    got = tail_bounds(spec, Generations(8), 2, eps, **schedule)
    for bound, e in zip(got, eps, strict=True):
        inp = ConcentrationInput(A=2, L=8, epsilon=e, C=cert.C, sigma2=cert.sigma2,
                                 envelope=cert.envelope, **schedule)
        sched = concentration_schedule(inp)
        assert (bound.epsilon, bound.threshold) == (e, e * 255)
        assert (bound.P1, bound.P2, bound.Q2, bound.beta) == (
            sched.P1, sched.P2, sched.Q2, math.exp(sched.log_beta))
        assert bound.log_bound.hex() == concentration_bound(inp).log_total.hex()
        assert bound.provenance == cert.envelope.provenance
    if not schedule:  # None takes the defaults of ConcentrationInput
        assert got == tail_bounds(spec, Generations(8), 2, eps, eta=0.5, D=1.0)


def test_tail_bounds_refuse_the_options_of_the_other_region_kind(no_sampling):
    spec = _BOUND_FIELDS[0]
    with pytest.raises(ValidationError, match="^P2, Q2, beta cannot be given for a "
                                              "generations region"):
        tail_bounds(spec, Generations(8), 2, [0.05], bound_params=StripParams(4, 4, 0.01))
    for options, names in (({"eta": 0.9, "D": 7.0}, "eta, D"), ({"eta": 5.0}, "eta"),
                           ({"D": 7.0}, "D")):
        with pytest.raises(ValidationError, match=f"^{names} cannot be given for a strip region"):
            tail_bounds(spec, Strip(5, 3), 2, [20.0], **options)
        with pytest.raises(ValidationError, match=f"^{names} cannot be given for a strip region"):
            mc_tail(spec, Strip(5, 3), 2, [20.0], 200, **options)
    with pytest.raises(ValidationError, match="strip or generations"):
        tail_bounds(spec, Subtree(0, 1, 3), 2, [1.0])
    with pytest.raises(ValidationError, match="non-empty"):
        tail_bounds(spec, Strip(5, 3), 2, [])


def test_tail_bounds_use_the_options_of_their_own_region_kind(no_sampling):
    spec = _BOUND_FIELDS[0]
    fixed = tail_bounds(spec, Strip(5, 3), 2, [20.0], bound_params=StripParams(4, 4, 0.003))[0]
    assert fixed.log_bound != tail_bounds(spec, Strip(5, 3), 2, [20.0])[0].log_bound
    given = tail_bounds(spec, Generations(8), 2, [0.05], eta=0.6, D=0.5)[0]
    assert given.log_bound != tail_bounds(spec, Generations(8), 2, [0.05])[0].log_bound
    with pytest.raises(ValidationError, match=r"eta = 5\.0 must lie in \(0, 1\)"):
        tail_bounds(spec, Generations(8), 2, [0.05], eta=5.0)


def test_mc_tail_pairs_each_estimate_with_its_tail_bound():
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=4)
    for region, eps, options in ((Strip(5, 3), [20.0, 40.0], {}),
                                 (Strip(5, 3), [20.0], {"bound_params": StripParams(4, 4, 0.003)}),
                                 (Generations(8), [0.02, 0.05], {"eta": 0.6, "D": 0.5})):
        bounds = tail_bounds(spec, region, 2, eps, **options)
        got = mc_tail(spec, region, 2, eps, 300, **options)
        assert [t.log_bound for t in got] == [b.log_bound for b in bounds]


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


# (value, std_error) of empirical_alpha_lower on fixed plans, bit for bit
_ALPHA_PINS = [
    (FieldSpec.independent(C=1.0, master_seed=8), 2,
     tuple(EventPair((NodeId(0, 1),), (NodeId(n, 1),)) for n in (2, 3, 4)), 10_000,
     (0.004127839999999966, 0.0024994915381670525)),
    (FieldSpec.m_dependent(1, C=1.0, master_seed=9), 3,
     (EventPair((NodeId(0, 1),), (NodeId(3, 2),)),), 10_000,
     (0.0030503399999999847, 0.002499880960813051)),
    (FieldSpec.branching_ar(0.9, C=1.0, master_seed=10), 1,
     (EventPair((NodeId(0, 1),), (NodeId(1, 1),)),), 10_000,
     (0.23628244999999998, 0.0008172511277077407)),
    (FieldSpec.m_dependent(1, C=1.0, master_seed=32), 3,
     (EventPair(tuple(NodeId(9, k) for k in range(1, 129)),
                tuple(NodeId(9, k) for k in range(385, 513)), 0.5, -0.5),), 4000,
     (0.0035195000000000365, 0.003912651760564677)),
]


@pytest.mark.parametrize("spec, n, pairs, replicates, want", _ALPHA_PINS,
                         ids=["independent", "m_dependent", "branching_ar", "m_dependent-sets"])
def test_empirical_alpha_lower_is_pinned(spec, n, pairs, replicates, want):
    result = empirical_alpha_lower(spec, 2, n, AlphaSamplePlan(pairs=pairs, n_replicates=replicates))
    assert (result.value, result.std_error, result.pair_index) == (*want, 0)


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


def test_empirical_alpha_hashes_up_to_its_cap_and_no_more(monkeypatch):
    # two single nodes of the independent field hash 2 innovations a replicate
    spec = FieldSpec.independent(C=1.0, master_seed=8)
    plan = AlphaSamplePlan(pairs=(EventPair((NodeId(0, 1),), (NodeId(2, 1),)),), n_replicates=100)
    want = empirical_alpha_lower(spec, 2, 2, plan)
    monkeypatch.setattr(verify_mod, "MC_HASHED_VALUES", 200)
    assert empirical_alpha_lower(spec, 2, 2, plan) == want
    monkeypatch.setattr(verify_mod, "MC_HASHED_VALUES", 199)
    with pytest.raises(CapacityError, match="^100 replicates of 2 innovations each hash more "
                                            "than the cap of 199 "):
        empirical_alpha_lower(spec, 2, 2, plan)


def test_empirical_alpha_refuses_past_its_cap_before_sampling():
    # each radius-20 ball around a node of generation 20 holds 3145726 nodes, so
    # 2**18 replicates of the pair hash 1.6e12 innovations, hours of hashing
    probe = """
from treebound import AlphaSamplePlan, CapacityError, EventPair, FieldSpec, NodeId
from treebound import empirical_alpha_lower
plan = AlphaSamplePlan(pairs=(EventPair((NodeId(20, 1),), (NodeId(20, 2**20),)),),
                       n_replicates=2**18)
try:
    empirical_alpha_lower(FieldSpec.m_dependent(20), 2, 1, plan)
except CapacityError as exc:
    assert str(exc) == ("262144 replicates of 6291452 innovations each hash more than "
                        "the cap of 1099511627776 innovations"), str(exc)
else:
    raise AssertionError("no CapacityError")
"""
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


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


def _one_space_alpha(space):
    """The exact coefficient of one space, in the per-space form: its own
    joint table, deviations and union product."""
    g, h = space.n_g, space.n_h
    joint = np.bincount(space.g * h + space.h, weights=space.probs, minlength=g * h)
    joint = joint.reshape(g, h)
    dev = joint - joint.sum(axis=1)[:, None] * joint.sum(axis=0)
    w = dev @ verify_mod._union_bits(h).T
    pos = np.maximum(w, 0.0).sum(axis=0)
    neg = -np.minimum(w, 0.0).sum(axis=0)
    return float(max(pos.max(), neg.max()))


def _full_space(rng, n_g, n_h, n):
    """A random measurable space with exactly ``n_g`` x ``n_h`` atoms."""
    g, h = rng.permutation(n) % n_g, rng.permutation(n) % n_h
    probs = rng.random(n) + 1e-3
    return FiniteSpace(probs / probs.sum(), g, h, rng.uniform(-1, 1, n_g)[g],
                       rng.uniform(-3, 3, n_h)[h])


def _mixed_block():
    """Spaces of many shapes (n_g, n_h) in one shuffled block: 1 x 1 up to
    12 x 12, six 12 x 12 spaces (more than one stacked product holds)."""
    rng = np.random.default_rng(21)
    spaces = [random_finite_space(rng, outcomes, atoms)
              for atoms in (1, 2, 3, 5, 8, 12) for outcomes in (2, 9, 64, 128)
              for _ in range(6)]
    spaces += [_full_space(rng, 12, 12, 128) for _ in range(6)]
    spaces += [_full_space(rng, a, b, 40) for a, b in ((1, 12), (12, 1), (7, 3), (3, 7))]
    return [spaces[i] for i in rng.permutation(len(spaces))]


def test_block_alphas_match_the_per_space_form(monkeypatch):
    block = _mixed_block()
    assert len({(s.n_g, s.n_h) for s in block}) > 40
    want = [_one_space_alpha(space).hex() for space in block]
    for budget in (verify_mod.ALPHA_VALUES, 1):  # stacked, and one space per product
        monkeypatch.setattr(verify_mod, "ALPHA_VALUES", budget)
        assert [a.hex() for a in verify_mod._alphas(block)] == want
        assert [exact_alpha(space).hex() for space in block] == want


@pytest.mark.parametrize("p,q,r", [(4.0, 4.0, 2.0), (3, 3, 3), (math.inf, 2.0, 2.0),
                                   (1e308, 2.0, 2.0), (2.0, math.inf, 2.0)])
def test_davydov_checks_block_matches_one_space_calls(p, q, r):
    block = _mixed_block()
    got = davydov_checks(block, p, q, r)
    assert len(got) == len(block)
    for space, result in zip(block, got):
        one = davydov_check(space, p, q, r)
        assert [x.hex() for x in result[:2] + result[3:]] == [x.hex() for x in one[:2] + one[3:]]
        assert result.holds is one.holds is True


def test_davydov_checks_of_no_spaces():
    assert davydov_checks([], 4, 4, 2) == []
    with pytest.raises(ValidationError, match="conjugate"):
        davydov_checks([], 2, 2, 2)


def _unmeasurable(variable):
    """Three equal outcomes, one atom per partition on 0 and 1 joined,
    with ``variable`` taking two values on atom 1."""
    values = {"xi": ([1, 2, 2], [0, 0, 0]), "eta": ([0, 0, 0], [1, 2, 3])}[variable]
    return FiniteSpace([0.25, 0.25, 0.5], [0, 1, 1], [0, 1, 1], *values)


def test_davydov_checks_fail_at_the_first_bad_space():
    rng = np.random.default_rng(22)
    good = [random_finite_space(rng) for _ in range(5)]
    wide = FiniteSpace([1 / 13] * 13, np.arange(13), [0] * 13, [0] * 13, [0] * 13)
    both = FiniteSpace([0.25, 0.25, 0.5], [0, 1, 1], [0, 1, 1], [1, 2, 3], [0, 1, 2])
    cases = [
        (good + [wide] + good + [_unmeasurable("xi")], CapacityError, "got 13 and 1"),
        (good + [_unmeasurable("eta"), wide], ValidationError,
         "eta is not measurable: not constant on atom 1 of H"),
        (good + [_unmeasurable("eta"), _unmeasurable("xi")], ValidationError,
         "eta is not measurable"),
        (good + [both], ValidationError, "xi is not measurable: not constant on atom 1 of G"),
    ]
    for spaces, error, message in cases:
        with pytest.raises(error, match=message):
            davydov_checks(spaces, 4, 4, 2)


def test_davydov_alpha_zero_is_positive_zero():
    # space 3: 2 x 1 atoms whose joint table is its own product, every union
    # contribution 0, the negative part -0.0
    rng = np.random.default_rng(3)
    spaces = [random_finite_space(rng, 128, 12) for _ in range(3)]
    spaces.append(FiniteSpace.build([0.25, 0.75], [[0], [1]], [[0, 1]], [1.0, -1.0], [2.0, 2.0]))
    for result in (davydov_check(spaces[3], 4, 4, 2), davydov_checks(spaces, 4, 4, 2)[3]):
        assert result.alpha == 0.0 and math.copysign(1.0, result.alpha) == 1.0
    assert exact_alpha(spaces[3]).hex() == "0x0.0p+0"


def _drawn_one_at_a_time(rng, max_outcomes, max_atoms):
    """The arrays of one random space, read from its own slot in plain
    Python floats: the oracle for the block's draws."""
    M, A = max_outcomes, max_atoms
    u = rng.random(1 + M + 2 * (1 + M + A)).tolist()
    n = 2 + math.floor(u[0] * (M - 1))
    weights = [x + 1e-3 for x in u[1:1 + n]]
    total = 0.0
    for w in weights:  # left to right
        total += w
    arrays = {"probs": np.array([w / total for w in weights])}
    for label, value, base in (("g", "xi", 1 + M), ("h", "eta", 2 + 2 * M + A)):
        n_atoms = 1 + math.floor(u[base] * A)
        labels = [math.floor(x * n_atoms) for x in u[base + 1:base + 1 + n]]
        in_use = sorted(set(labels))
        arrays[label] = np.array([in_use.index(a) for a in labels], np.int64)
        arrays[value] = np.array([u[base + 1 + M + a] * 2.0 - 1.0 for a in labels])
    return arrays


def _spaces_of(block):
    """The arrays of each space of a block."""
    return [{name: getattr(block, name)[lo:lo + size] for name in ("probs", "g", "h", "xi", "eta")}
            for lo, size in zip(block.start.tolist(), block.sizes.tolist())]


def _same_arrays(got, want):
    return all(got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes()
               for k in want)


@pytest.mark.parametrize("count", [1, 7, 256])
@pytest.mark.parametrize("outcomes,atoms", [(2, 1), (64, 8), (128, 12), (40, 13)])
def test_block_draws_what_single_draws_give(count, outcomes, atoms):
    rng_block, rng_single, rng_oracle = (np.random.default_rng(count + outcomes) for _ in range(3))
    block = random_finite_spaces(rng_block, count, outcomes, atoms)
    singles = [random_finite_space(rng_single, outcomes, atoms) for _ in range(count)]
    assert len(block) == count
    for got, single in zip(_spaces_of(block), singles):
        want = _drawn_one_at_a_time(rng_oracle, outcomes, atoms)
        assert _same_arrays(got, want)
        assert _same_arrays(vars(single), want)
    assert block.n_g.tolist() == [space.n_g for space in singles]
    assert block.n_h.tolist() == [space.n_h for space in singles]
    state = rng_block.bit_generator.state
    assert state == rng_single.bit_generator.state == rng_oracle.bit_generator.state


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32), outcomes=st.integers(2, 40), atoms=st.integers(1, 13),
       cuts=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       draw_values=st.sampled_from([1, 90, 700, verify_mod.DRAW_VALUES]))
def test_any_split_of_a_draw_gives_the_same_spaces(seed, outcomes, atoms, cuts, draw_values):
    # one block of sum(cuts) spaces against blocks of the cuts' sizes, each
    # drawn draw_values uniforms (at least one slot) per generator call
    rng_whole, rng_split = np.random.default_rng(seed), np.random.default_rng(seed)
    whole = random_finite_spaces(rng_whole, sum(cuts), outcomes, atoms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_mod, "DRAW_VALUES", draw_values)
        split = [space for count in cuts
                 for space in _spaces_of(random_finite_spaces(rng_split, count, outcomes, atoms))]
    assert len(split) == len(whole)
    assert all(_same_arrays(got, want) for got, want in zip(split, _spaces_of(whole)))
    assert rng_split.bit_generator.state == rng_whole.bit_generator.state


class _SlotStub:
    """Stands in for a generator: every slot holds ``u``, except the atom
    values of both partitions, which read ``a / A`` at atom ``a``."""

    def __init__(self, u, M, A):
        self.row = np.full(1 + M + 2 * (1 + M + A), u)
        for first in (2 + 2 * M, 3 + 3 * M + A):  # the first atom value of G, of H
            self.row[first:first + A] = np.arange(A) / A

    def random(self, shape):
        return np.broadcast_to(self.row, shape).copy()


@pytest.mark.parametrize("M,A", [(2, 1), (3, 2), (64, 8), (4096, 12), (4096, 4096)])
def test_slot_uniforms_at_the_ends_stay_inside_their_ranges(M, A):
    # u = 1 - 2**-53, the largest double below 1: n = M, n_atoms = A and every
    # label A - 1, one atom in use whose value is read at A - 1; u = 0: n = 2
    # and one atom at label 0
    top = 1.0 - 2.0**-53
    R = np.arange(1, 1 << 20)
    assert (np.floor(top * R) <= R - 1).all()
    for u, n, atom in ((top, M, A - 1), (0.0, 2, 0)):
        block = random_finite_spaces(_SlotStub(u, M, A), 3, M, A)
        assert block.sizes.tolist() == [n] * 3
        assert block.n_g.tolist() == block.n_h.tolist() == [1] * 3
        assert (block.g == 0).all() and (block.h == 0).all()
        assert set(block.xi.tolist()) == set(block.eta.tolist()) == {atom / A * 2.0 - 1.0}
        assert set(block.probs.tolist()) == {block.probs[0]}


def test_slot_draws_trace_less_memory_than_the_per_space_draws():
    # the per-space draws (seven generator calls per space) traced a peak of
    # 81.44 MB on this call: 256 spaces of up to 4096 outcomes
    tracemalloc.start()
    try:
        random_finite_spaces(np.random.default_rng(0), 256, 4096, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 81_440_000


def test_a_drawn_block_keeps_the_arrays_of_its_draw():
    # the parent's SpaceBlock copied every field the draw built and joined
    # probs, xi and eta once more for one finiteness test: its peak on this
    # call read 54.8 to 61.0 MB, and must fall by at least a quarter (31.2 MB)
    tracemalloc.start()
    try:
        random_finite_spaces(np.random.default_rng(0), 256, 4096, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 54.8e6


def test_only_the_internal_path_keeps_its_arrays_uncopied():
    probs, g, h = np.array([0.25, 0.75]), np.array([0, 1]), np.array([0, 0])
    xi, eta, sizes = np.array([1.0, -1.0]), np.array([2.0, 2.0]), np.array([2])
    fresh = SpaceBlock._fresh(probs, g, h, xi, eta, sizes)
    assert all(getattr(fresh, name) is array for name, array in
               (("probs", probs), ("g", g), ("h", h), ("xi", xi), ("eta", eta)))
    assert not probs.flags.writeable
    caller = [np.array([0.25, 0.75]), np.array([0, 1]), np.array([0, 0]),
              np.array([1.0, -1.0]), np.array([2.0, 2.0])]
    copied = SpaceBlock(*caller, sizes)
    for name, array in zip(("probs", "g", "h", "xi", "eta"), caller):
        assert not np.shares_memory(getattr(copied, name), array)
        assert array.flags.writeable
    # both paths check the same rules, with the same messages
    bad = [(np.array([0.25, np.nan]), g, h, xi, eta), (np.array([0.5, 0.25]), g, h, xi, eta),
           (probs, np.array([0, 2]), h, xi, eta), (probs, g, h, np.array([1.0, np.inf]), eta)]
    for arrays in bad:
        with pytest.raises(ValidationError) as public:
            SpaceBlock(*arrays, sizes)
        with pytest.raises(ValidationError) as internal:
            SpaceBlock._fresh(*(a.copy() for a in arrays), sizes.copy())
        assert str(public.value) == str(internal.value)


def test_outcome_counts_are_uniform():
    M, count = 12, 20_000
    sizes = random_finite_spaces(np.random.default_rng(41), count, M, 2).sizes
    assert sizes.min() >= 2 and sizes.max() <= M
    p = 1 / (M - 1)
    error = math.sqrt(count * p * (1 - p))
    counts = np.bincount(sizes, minlength=M + 1)[2:]
    assert (abs(counts - count * p) <= 5 * error).all(), counts


@pytest.mark.parametrize("outcomes,atoms", [(verify_mod.MAX_OUTCOMES + 1, 8), (64, 2**63),
                                            (10**15, 10**15)])
def test_random_spaces_past_the_cap_refused_before_any_draw(outcomes, atoms):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for draw in (lambda: random_finite_spaces(rng, 3, outcomes, atoms),
                 lambda: random_finite_space(rng, outcomes, atoms)):
        with pytest.raises(CapacityError, match=f"capped at {verify_mod.MAX_OUTCOMES} outcomes"):
            draw()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("count", [0, -1, 2.0, True])
def test_random_spaces_count_validated(count):
    with pytest.raises(ValidationError, match="count"):
        random_finite_spaces(np.random.default_rng(0), count)


def _space(**change):
    arrays = {"probs": [0.25, 0.25, 0.5], "g": [0, 1, 1], "h": [0, 0, 1],
              "xi": [1.0, -1.0, -1.0], "eta": [2.0, 2.0, 0.0]}
    return {**arrays, **change}


# one bad space per rule, with its message; _LATER breaks rules listed earlier
_SUM = float(np.sum([0.25, 0.25, 0.5 + 1e-9]))
_BAD_SPACES = {
    "nan probability": (_space(probs=[0.25, float("nan"), 0.5]),
                        "probs must be finite (no NaN or infinity)"),
    "opposite infinite probabilities": (_space(probs=[float("inf"), float("-inf"), 0.5]),
                                        "probs must be finite (no NaN or infinity)"),
    "huge probabilities": (_space(probs=[1e308, 1e308, 0.5]),
                           "outcome probabilities sum to inf, not 1 within 1e-12"),
    "infinite xi": (_space(xi=[1.0, -1.0, float("inf")]), "xi must be finite (no NaN or infinity)"),
    "negative probability": (_space(probs=[0.75, -0.25, 0.5]),
                             "outcome probabilities must be non-negative"),
    "sum off by 1e-9": (_space(probs=[0.25, 0.25, 0.5 + 1e-9]),
                        f"outcome probabilities sum to {_SUM!r}, not 1 within 1e-12"),
    "label out of range": (_space(g=[0, 3, 1]), "partition G needs integer labels in 0..2"),
    "negative label": (_space(h=[0, -1, 1]), "partition H needs integer labels in 0..2"),
    "uint64 label past int64": (_space(g=np.array([0, 2**63, 1], np.uint64)),
                                "partition G needs integer labels in 0..2"),
    "empty atom": (_space(h=[0, 0, 2]), "partition H contains an empty atom"),
    "empty atom and bad H label": (_space(g=[2, 2, 0], h=[0, 5, 0]),
                                   "partition G contains an empty atom"),
}
_LATER = _space(probs=[float("nan"), 0.5, 0.5], g=[0, 0, 2], h=[9, 0, 0])


def _packed(spaces):
    """The spaces as one block; non-negative labels keep a uint64 space's dtype."""
    arrays = {name: [np.asarray(space[name]) for space in spaces]
              for name in ("probs", "g", "h", "xi", "eta")}
    for name in ("g", "h"):
        if any(array.dtype == np.uint64 for array in arrays[name]):
            arrays[name] = [array.astype(np.uint64) for array in arrays[name]]
    return SpaceBlock(**{name: np.concatenate(parts) for name, parts in arrays.items()},
                      sizes=[len(space["probs"]) for space in spaces])


@pytest.mark.parametrize("bad,message", _BAD_SPACES.values(), ids=_BAD_SPACES)
@pytest.mark.parametrize("k", [0, 1, 5])
def test_a_space_and_a_block_share_one_validation_rule(bad, message, k):
    # the bad space alone, and as space k of a block where later spaces are bad too
    good = _spaces_of(random_finite_spaces(np.random.default_rng(k), k, 9, 3)) if k else []
    for make in (lambda: FiniteSpace(**bad), lambda: SpaceBlock(**bad),
                 lambda: _packed(good + [bad, _LATER, bad])):
        with pytest.raises(ValidationError) as error:
            make()
        assert str(error.value) == message


def test_block_sums_follow_the_rule_of_one_sum_per_space():
    # totals within a few ulps of 1 +- 1e-12, where the order of the additions
    # decides, and spaces long enough that the block's own sums cannot clear
    # them; the rule: the space's probs.sum() lies within 1e-12 of 1
    rng = np.random.default_rng(5)
    verdicts = set()
    for n in (2, 3, 7, 16, 33, 3000, 9000):
        for offset in [0.0] + [edge + j * 2.0**-52 for edge in (-1e-12, 1e-12)
                               for j in range(-4, 5) for _ in range(4)]:
            probs = rng.random(n)
            probs *= (1.0 + offset) / probs.sum()
            total = float(probs.sum())
            verdict = (f"outcome probabilities sum to {total!r}, not 1 within 1e-12"
                       if abs(total - 1.0) > 1e-12 else "probs must be finite")
            verdicts.add(verdict)
            space = _space(probs=probs, g=np.zeros(n, int), h=np.zeros(n, int),
                           xi=np.zeros(n), eta=np.zeros(n))
            for k in (0, 3):  # the space first, and after three good ones
                with pytest.raises(ValidationError, match=re.escape(verdict)):
                    _packed([_space()] * k + [space, _LATER])
    assert len(verdicts) > 10


@pytest.mark.parametrize("sizes", [[2], [3, 2], [3, 0, 3], [7, -1], [2.0, 4.0], [[2, 4]], []])
def test_block_sizes_validated(sizes):
    arrays = {name: np.tile(value, 2) for name, value in _space().items()}
    SpaceBlock(**arrays, sizes=[3, 3])
    with pytest.raises(ValidationError, match="space sizes must be positive integers summing to 6"):
        SpaceBlock(**arrays, sizes=sizes)


@pytest.mark.parametrize("dtype,n", [(np.int8, 128), (np.uint8, 256), (np.uint64, 5)])
def test_narrow_label_dtypes_count_every_atom(dtype, n):
    space = FiniteSpace(np.full(n, 1.0 / n), np.arange(n, dtype=dtype), np.zeros(n, dtype),
                        np.arange(n), np.zeros(n))
    assert (space.n_g, space.n_h) == (n, 1)
    assert space.g.dtype == np.int64 and space.g.tolist() == list(range(n))


def test_block_is_read_only_and_keeps_the_callers_arrays():
    space = _space()
    arrays = {name: np.array(value) for name, value in space.items()}
    block = SpaceBlock(**arrays, sizes=[3])
    for name in ("probs", "g", "h", "xi", "eta", "sizes", "start", "owner", "n_g", "n_h"):
        assert not getattr(block, name).flags.writeable
    assert all(array.flags.writeable for array in arrays.values())
    assert (block.n_g.tolist(), block.n_h.tolist()) == ([2], [2])


@pytest.mark.parametrize("p,q,r", [(4.0, 4.0, 2.0), (3, 3, 3), (math.inf, 2.0, 2.0)])
def test_davydov_checks_of_a_drawn_block_and_of_its_spaces_agree(p, q, r):
    rng_block, rng_single = np.random.default_rng(31), np.random.default_rng(31)
    block = random_finite_spaces(rng_block, 60, 128, 12)
    spaces = [random_finite_space(rng_single, 128, 12) for _ in range(60)]
    got, want = davydov_checks(block, p, q, r), davydov_checks(spaces, p, q, r)
    assert [(x.lhs.hex(), x.rhs.hex(), x.holds, x.alpha.hex()) for x in got] == \
        [(x.lhs.hex(), x.rhs.hex(), x.holds, x.alpha.hex()) for x in want]
    assert [a.hex() for a in verify_mod._alphas(block)] == \
        [exact_alpha(space).hex() for space in spaces]


def _per_space_means(block, columns):
    return [np.array([block.probs[lo:lo + n] @ x[lo:lo + n]
                      for lo, n in zip(block.start.tolist(), block.sizes.tolist())])
            for x in columns]


def _same_bits(got, want):
    return all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(got, want))


@pytest.mark.parametrize("count,outcomes,atoms", [(1024, 64, 8), (512, 128, 12)])
def test_grouped_means_are_the_per_space_dots_on_the_bench_shapes(count, outcomes, atoms):
    # one block of each verify-davydov bench op, at the default outcome budget
    block = random_finite_spaces(np.random.default_rng(7), count, outcomes, atoms)
    xi, eta = block.xi / 3.0, block.eta * 1e-300
    columns = (xi * eta, xi, eta, np.abs(xi) ** 4.0, np.abs(eta) ** 2.5)
    assert _same_bits(verify_mod._space_means(block, columns), _per_space_means(block, columns))


@settings(max_examples=60, deadline=None, database=None)
@given(sizes=st.lists(st.integers(1, 70), min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_grouped_means_are_the_per_space_dots_on_random_blocks(sizes, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    weights = rng.random(n)
    start = np.cumsum(sizes) - sizes
    probs = weights / np.repeat(np.add.reduceat(weights, start), sizes)
    zeros = np.zeros(n, dtype=np.int64)
    block = SpaceBlock(probs, zeros, zeros, zeros.astype(float), zeros.astype(float),
                       np.array(sizes))
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(5)]
    assert _same_bits(verify_mod._space_means(block, columns), _per_space_means(block, columns))


def _random_nodes(rnd, A, count, low, high):
    nodes = []
    for _ in range(count):
        j = rnd.randint(low, high)
        nodes.append(NodeId(j, rnd.randint(1, min(A**j, 2**63 - 1))))
    return nodes


@pytest.mark.parametrize("A", [2, 3])
@pytest.mark.parametrize("pair_block", [verify_mod.PAIR_BLOCK, 5])
def test_alpha_lower_separation_is_the_least_tree_distance(A, pair_block, monkeypatch):
    # generations up to 140 hold indices near the 63-bit limit, and lifts past
    # A**s > 2**63, where the ancestor index is 1; a block of 5 pairs takes
    # the first set a few nodes at a time
    monkeypatch.setattr(verify_mod, "PAIR_BLOCK", pair_block)
    rnd = random.Random(A)
    spec = FieldSpec.independent(C=1.0, master_seed=0)
    for low, high in ((0, 5), (0, 12), (30, 45), (55, 70), (60, 140), (0, 140)):
        for _ in range(12):
            nodes_a = _random_nodes(rnd, A, rnd.randint(1, 9), low, high)
            nodes_b = _random_nodes(rnd, A, rnd.randint(1, 9), low, high)
            if rnd.random() < 0.25:  # a shared node: distance 0
                nodes_b.append(rnd.choice(nodes_a))
            d = min(tree_distance(v, w, A) for v in nodes_a for w in nodes_b)
            plan = AlphaSamplePlan(pairs=(EventPair(tuple(nodes_a), tuple(nodes_b)),))
            message = f"event pair 0 has node sets at distance {d} < required {d + 1}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                empirical_alpha_lower(spec, A, d + 1, plan)


def test_alpha_lower_names_the_first_bad_node_in_pair_order():
    spec = FieldSpec.independent(C=1.0, master_seed=0)
    pair = EventPair((NodeId(1, 1), NodeId(1, 7)), (NodeId(2, 1), NodeId(2, 9)))
    with pytest.raises(ValidationError, match=r"node \(2, 9\) is out of range for rate 2"):
        empirical_alpha_lower(spec, 2, 1, AlphaSamplePlan(pairs=(pair,)))
