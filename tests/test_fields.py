"""Field generation: moments, dependence structure, determinism, certificates."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import treebound
from treebound import (
    AmplitudeError,
    FieldSpec,
    Generations,
    NodeId,
    Strip,
    Subtree,
    ValidationError,
    field_certificate,
    field_lines,
    field_to_csv,
    field_values,
    node_sums,
    region_nodes,
    region_plan,
    region_sums,
    sample_field,
    tree_distance,
)
from treebound import fields as _fields
from treebound import rowtext
from treebound.cli import main
from treebound.errors import CapacityError
from treebound.tree import (BALL_ENTRY_CAP, MAX_LABEL, _ball_size, _generation_runs, _powers,
                            ball_sizes, region_arrays)


def test_independent_moments():
    spec = FieldSpec.independent(C=1.0, master_seed=42)
    vals = field_values(spec, [NodeId(0, 1)], 2, range(100_000))[:, 0]
    n = vals.size
    sigma = math.sqrt(1 / 3)
    assert abs(vals.mean()) < 4 * sigma / math.sqrt(n)
    assert vals.var() == pytest.approx(1 / 3, rel=0.05)


def test_independent_moments_scale_with_C():
    spec = FieldSpec.independent(C=2.5, master_seed=1)
    vals = field_values(spec, [NodeId(2, 3)], 2, range(50_000))[:, 0]
    assert np.abs(vals).max() <= 2.5
    assert vals.var() == pytest.approx(2.5**2 / 3, rel=0.05)


def test_m_dependent_distance_three_uncorrelated():
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=3)
    # (0,1) and (3,1) sit at tree distance 3 > 2m = 2: innovation balls disjoint
    vals = field_values(spec, [NodeId(0, 1), NodeId(3, 1)], 2, range(10_000))
    x, y = vals[:, 0], vals[:, 1]
    r = np.corrcoef(x, y)[0, 1]
    z = abs(r) * math.sqrt(len(x))
    assert z < 2.58  # 1% two-sided z-test


def test_m_dependent_set_sums_uncorrelated_beyond_range():
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=4)
    set_i = [NodeId(4, 1), NodeId(4, 2)]
    set_j = [NodeId(4, 9), NodeId(4, 10)]
    vals = field_values(spec, set_i + set_j, 2, range(10_000))
    s_i = vals[:, :2].sum(axis=1)
    s_j = vals[:, 2:].sum(axis=1)
    r = np.corrcoef(s_i, s_j)[0, 1]
    assert abs(r) * math.sqrt(len(s_i)) < 2.58


def test_branching_ar_adjacent_covariance_oracle():
    a = 0.9
    spec = FieldSpec.branching_ar(a, C=1.0, master_seed=5)
    vals = field_values(spec, [NodeId(0, 1), NodeId(1, 1)], 2, range(40_000))
    cov = np.cov(vals[:, 0], vals[:, 1])[0, 1]
    var_parent = vals[:, 0].var(ddof=1)
    # by construction Cov(child, parent) = a * Var(parent)
    assert cov == pytest.approx(a * var_parent, rel=0.05)


def test_boundedness_everywhere():
    for spec in (
        FieldSpec.independent(C=0.7, master_seed=6),
        FieldSpec.m_dependent(2, C=0.7, master_seed=6),
        FieldSpec.branching_ar(0.8, C=0.7, master_seed=6),
    ):
        vals = field_values(spec, list_region(), 2, range(500))
        assert np.abs(vals).max() <= 0.7 * (1 + 1e-12)


def list_region():
    return list(region_nodes(Generations(5), 2))


def test_determinism_same_inputs():
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=9)
    m1 = sample_field(spec, Generations(4), 2, 13)
    m2 = sample_field(spec, Generations(4), 2, 13)
    assert all(np.array_equal(a, b) for a, b in zip(m1, m2))
    m3 = sample_field(spec, Generations(4), 2, 14)
    assert not np.array_equal(m1[2], m3[2])


def test_worker_exchangeability():
    # splitting the replicate range must not change any value bit
    for spec in (
        FieldSpec.independent(C=1.0, master_seed=11),
        FieldSpec.m_dependent(1, C=1.0, master_seed=11),
        FieldSpec.branching_ar(0.5, C=1.0, master_seed=11),
    ):
        nodes = list_region()
        whole = field_values(spec, nodes, 2, range(100))
        parts = np.concatenate(
            [field_values(spec, nodes, 2, range(s, min(s + 25, 100))) for s in range(0, 100, 25)]
        )
        assert np.array_equal(whole, parts)


def _pieces(weights):
    """G: the pieces of at most ``GROUP_COLUMNS`` columns that the runs of equal
    weight split into, each summed exactly by the region-sum kernel."""
    counts = np.unique(np.asarray(weights), return_counts=True)[1]
    return int((-(-counts // _fields.GROUP_COLUMNS)).sum())


def _exact_sums(u, weights):
    """``sum_i w_i u_i`` for each row of the innovations ``u``, and its scale
    ``sum_i |w_i u_i|``, as exact Fractions.  Every innovation is ``x / 2**52``
    for an integer ``x``, so each weight's columns sum exactly in Python ints."""
    ints = (np.asarray(u) * 2.0**52).astype(np.int64)  # exact: a 2**-52 grid in [-1, 1)
    weights = np.asarray(weights)
    exact, scale = [Fraction(0)] * len(ints), [Fraction(0)] * len(ints)
    for w in np.unique(weights).tolist():
        part = ints[:, weights == w].tolist()
        exact = [e + Fraction(w) * sum(row) / 2**52 for e, row in zip(exact, part)]
        scale = [a + abs(Fraction(w)) * sum(map(abs, row)) / 2**52 for a, row in zip(scale, part)]
    return exact, scale


def _assert_near_exact(sums, exact, scale, pieces):
    """Each sum within ``(G + 1) * 2**-53 * sum |w u|`` of the exact sum: one
    rounding per exact piece sum, and G - 1 in adding the G pieces."""
    assert len(sums) == len(exact)
    for got, want, size in zip(sums.tolist(), exact, scale):
        assert abs(Fraction(got) - want) <= (pieces + 1) * size / 2**53


def _assert_sums_of(spec, sums, values):
    """``region_sums`` is ``w . U``: for the independent field at ``C = 1``, whose
    values are the innovations, within the kernel's bound of their exact sum, and
    otherwise within 1e-12 of the sum of ``|values|`` (a scale that does not
    vanish when the sum itself cancels)."""
    if spec.kind == "independent":
        assert spec.C == 1
        weights = np.ones(values.shape[1])
        _assert_near_exact(sums, *_exact_sums(values, weights), _pieces(weights))
    else:
        direct = values.sum(axis=1)
        assert np.all(np.abs(sums - direct) <= 1e-12 * np.abs(values).sum(axis=1))


def _exact_row_sums(values):
    """The exact sum of each row of float64 ``values``, as Fractions: a value
    is ``m * 2**e`` with an integer ``|m| < 2**53``, so a row's values of one
    exponent sum exactly in int64 (fewer than 1024 of them)."""
    assert values.shape[1] < 1024
    m, e = np.frexp(values)
    m, e = (m * 2.0**53).astype(np.int64), e - 53
    low, total = int(e.min(initial=0)), [0] * len(values)
    for x in np.unique(e).tolist():
        part = np.where(e == x, m, 0).sum(axis=1).tolist()
        total = [t + (p << (x - low)) for t, p in zip(total, part)]
    return [t * Fraction(2) ** low for t in total]


def _assert_value_sums(sums, values):
    """A sum of sampled values (:func:`node_sums`, and ``region_sums`` on a
    :class:`Subtree`): within ``gamma_{n-1} * sum |v|`` of the exact sum of the
    ``n`` values of its row, the bound of ``n - 1`` float additions in any
    order, ``gamma_k = k u / (1 - k u)`` with ``u = 2**-53``."""
    adds = Fraction(max(values.shape[1] - 1, 0), 2**53)
    exact, scale = _exact_row_sums(values), _exact_row_sums(np.abs(values))
    for got, want, size in zip(sums.tolist(), exact, scale):
        assert abs(Fraction(got) - want) <= adds / (1 - adds) * size


def test_region_sums_matches_per_node_values():
    spec = FieldSpec.branching_ar(0.3, C=1.0, master_seed=12)
    region = Strip(2, 2)
    sums = region_sums(spec, region, 2, range(50))
    _assert_sums_of(spec, sums, field_values(spec, list(region_nodes(region, 2)), 2, range(50)))


def test_subtree_regions_supported():
    spec = FieldSpec.independent(C=1.0, master_seed=2)
    js, ks, _ = sample_field(spec, Subtree(1, 2, 2), 2, 0)
    assert set(zip(js, ks)) == {(1, 2), (2, 3), (2, 4)}


def test_certificates():
    ind = field_certificate(FieldSpec.independent(C=2.0, master_seed=0))
    assert ind.C == 2.0
    assert ind.sigma2 == pytest.approx(4 / 3)
    assert ind.envelope.kind == "zero" and ind.envelope.provenance == "exact"

    md = field_certificate(FieldSpec.m_dependent(1, C=1.0, master_seed=0))
    assert md.envelope(2) == 0.25 and md.envelope(3) == 0.0
    assert md.envelope.provenance == "exact"

    ar = field_certificate(FieldSpec.branching_ar(0.5, C=1.0, master_seed=0))
    assert ar.envelope.provenance == "heuristic"
    values = [ar.envelope(n) for n in range(1, 8)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_spec_validation():
    with pytest.raises(ValidationError):
        FieldSpec.independent(C=0.0)
    with pytest.raises(ValidationError):
        FieldSpec.m_dependent(0)
    with pytest.raises(ValidationError):
        FieldSpec.branching_ar(1.0)


def test_field_csv_dump():
    spec = FieldSpec.independent(C=1.0, master_seed=1)
    text = field_to_csv(sample_field(spec, Generations(2), 2, 0))
    lines = text.strip().splitlines()
    assert lines[0] == "j,k,value"
    assert len(lines) == 4  # header + 3 nodes
    assert lines[1].startswith("0,1,")


# --- compiled operators against their definitions -------------------------

_MASK = (1 << 64) - 1


def _mix64_ref(x):
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _innovation_ref(seed, replicate, j, k):
    s = _mix64_ref((seed & _MASK) ^ 0x9E3779B97F4A7C15)
    r = _mix64_ref(s ^ _mix64_ref(replicate ^ 0xA0761D6478BD642F))
    n = _mix64_ref(_mix64_ref(j ^ 0xE7037ED1A0B428DB) ^ _mix64_ref(k ^ 0x8EBC6AF09C88C6E3))
    return 2.0 * ((_mix64_ref(r ^ n) >> 11) * 2.0**-53) - 1.0


def _one_node_runs(js, ks):
    """Arbitrary labels as one-node runs, in their order: the form in which
    the tests hash labels that are not runs."""
    return [(j, k, 1) for j, k in zip(np.asarray(js).tolist(), np.asarray(ks).tolist())]


def _innovations_at(seed, reps, js, ks):
    return _fields._innovations(seed, reps, _one_node_runs(js, ks))


def test_innovations_match_pure_python_splitmix64():
    reps = [0, 1, 2**40]
    labels = [(0, 1), (62, 2**62), (5, 17)]
    runs = [(j, k, 1) for j, k in labels]
    for seed in (0, 12345, -7, 2**64 + 5, 2**70 - 1):
        got = _fields._innovations(seed, np.array(reps, dtype=np.uint64), runs)
        want = [[_innovation_ref(seed, r, j, k) for j, k in labels] for r in reps]
        assert got.flags.c_contiguous and got.tolist() == want
    # seeds are masked to 64 bits
    a = _fields._innovations(-7, np.array(reps, dtype=np.uint64), runs)
    b = _fields._innovations(2**64 - 7, np.array(reps, dtype=np.uint64), runs)
    assert np.array_equal(a, b)


def test_m_dependent_radius_must_be_int():
    for m in (1.5, 1.0, True, 0, -1, None):
        with pytest.raises(ValidationError):
            FieldSpec.m_dependent(m)
    assert FieldSpec.m_dependent(2).m == 2


_REGIONS = (Generations(3), Strip(1, 2), Subtree(1, 2, 2))


# The entry form of the m-dependent balls, the reference behind _csr_ball_means.
def ball_arrays(
    js: np.ndarray, ks: np.ndarray, A: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node within tree distance ``m`` of each node ``(js[i], ks[i])``,
    as ``(i, j, k)`` arrays with no repeats within a ball, row-major: ``i``
    ascends, and each ball's members ascend in ``(j, k)``.

    A ball's members in generation ``j + d`` (``-m <= d <= m``) are one
    contiguous index range: with ``up = min((m - d) // 2, j)``, they are the
    descendants, ``up + d`` generations down, of the center's ancestor ``up``
    generations up.  For a center ``(j, k)`` that ancestor's index is
    ``K = (k - 1) // A**up + 1`` and the range is the ``A**(up + d)`` indices
    from ``(K - 1) * A**(up + d) + 1``.  Emitting each ball's ranges with ``d``
    ascending gives the order above.

    Raises :class:`ValidationError` when a ball would need labels past the
    63-bit range, as :func:`children` does, and :class:`CapacityError`,
    before any array of members is built, when the balls hold more than
    ``BALL_ENTRY_CAP`` members in all.
    """
    if not len(js):
        return tuple(np.empty(0, dtype=np.int64) for _ in range(3))
    # m >= 63 puts A**m past every label without computing it
    if m >= 63 or int(js.max()) + m >= MAX_LABEL or int(ks.max()) * A**m >= MAX_LABEL:
        raise ValidationError(f"radius-{m} balls of these nodes overflow the 63-bit label range")
    clipped = np.minimum(js, m)  # every generation from m on has balls of one size
    centers = np.bincount(clipped, minlength=m + 1).tolist()
    sizes = [_ball_size(j, A, m) if count else 0 for j, count in enumerate(centers)]
    total = sum(count * size for count, size in zip(centers, sizes))
    if total > BALL_ENTRY_CAP:
        raise CapacityError(
            f"radius-{m} balls of {len(js)} nodes hold {total} members, "
            f"exceeding the cap of {BALL_ENTRY_CAP}"
        )
    powers = _powers(A)  # A**m < 2**63 by the label check, so every exponent below is in it
    # one range per (center, d) in generation j + d >= 0, row-major: d ascends in a row
    row, d = np.nonzero(js[:, None] + np.arange(-m, m + 1) >= 0)
    d -= m
    j = js[row]
    up = np.minimum((m - d) // 2, j)
    j += d  # the range's generation
    d += up  # its depth below the ancestor
    lo = ks[row]
    del row
    lo -= 1
    lo //= powers[up]
    del up
    count = powers[d]
    del d
    lo *= count
    lo += 1  # the range's first index
    # each index is one more than the last, except at a range's first member
    member_k = np.ones(total, dtype=np.int64)
    member_k[0] = lo[0]
    step = np.diff(lo)
    del lo
    step -= count[:-1]
    step += 1
    member_k[np.cumsum(count[:-1])] = step
    del step
    np.cumsum(member_k, out=member_k)
    member_j = np.repeat(j, count)
    del j, count
    rows = np.repeat(np.arange(len(js)), np.array(sizes, dtype=np.int64)[clipped])
    return rows, member_j, member_k


def _brute_ball(v, A, m):
    lo = max(0, v.j - m)
    return {
        NodeId(j, k)
        for j in range(lo, v.j + m + 1)
        for k in range(1, A**j + 1)
        if tree_distance(v, NodeId(j, k), A) <= m
    }


def test_balls_match_tree_distance_definition():
    for A in (2, 3):
        for m in (1, 2, 3):
            for region in _REGIONS:
                nodes = list(region_nodes(region, A))
                js, ks = region_arrays(region, A)
                rows, mj, mk = ball_arrays(js, ks, A, m)
                reps = np.arange(3, dtype=np.uint64)
                spec = FieldSpec.m_dependent(m, C=0.8, master_seed=21)
                values = field_values(spec, nodes, A, reps)
                for i, v in enumerate(nodes):
                    ball = _brute_ball(v, A, m)
                    members = list(zip(mj[rows == i].tolist(), mk[rows == i].tolist()))
                    assert len(members) == len(ball)
                    assert {NodeId(j, k) for j, k in members} == ball
                    bj = np.array([u.j for u in ball])
                    bk = np.array([u.k for u in ball])
                    mean = _innovations_at(21, reps, bj, bk).mean(axis=1)
                    assert np.allclose(values[:, i], 0.8 * mean, rtol=0, atol=1e-12)


def test_branching_ar_matches_per_node_recursion():
    a, C = -0.6, 0.9
    reps = np.arange(5, dtype=np.uint64)
    for A in (2, 3):
        for region in _REGIONS:
            nodes = list(region_nodes(region, A))
            spec = FieldSpec.branching_ar(a, C=C, master_seed=8)
            values = field_values(spec, nodes, A, reps)
            for i, v in enumerate(nodes):
                path = [v]
                while path[-1].j > 0:
                    path.append(NodeId(path[-1].j - 1, (path[-1].k - 1) // A + 1))
                z = None
                for u in reversed(path):
                    innov = _fields._innovations(8, reps, [(u.j, u.k, 1)])[:, 0]
                    z = C * innov if z is None else a * z + (1.0 - abs(a)) * C * innov
                assert np.array_equal(values[:, i], z)


def test_unsorted_duplicate_nodes_match_single_node_calls():
    nodes = [NodeId(3, 5), NodeId(0, 1), NodeId(3, 5), NodeId(2, 1), NodeId(4, 16)]
    for spec in (
        FieldSpec.independent(C=1.0, master_seed=30),
        FieldSpec.m_dependent(2, C=1.0, master_seed=30),
        FieldSpec.branching_ar(0.7, C=1.0, master_seed=30),
    ):
        together = field_values(spec, nodes, 2, range(6))
        for i, v in enumerate(nodes):
            assert np.array_equal(together[:, i], field_values(spec, [v], 2, range(6))[:, 0])


_KINDS = (
    FieldSpec.independent(C=1.0, master_seed=32),
    FieldSpec.m_dependent(1, C=1.0, master_seed=32),
    FieldSpec.branching_ar(0.8, C=1.0, master_seed=32),
)


@pytest.mark.parametrize("spec", _KINDS, ids=lambda spec: spec.kind)
def test_region_sums_memory_is_bounded_by_block_values(spec):
    # 512 replicates of 16383 nodes: one block of them all would hash up to 128 MiB
    tracemalloc.start()
    try:
        region_sums(spec, Generations(14), 2, range(512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_independent_region_sums_memory_is_two_tiles():
    # two 512 KiB tile buffers plus the 16383-node support arrays: about 2.1 MiB
    tracemalloc.start()
    try:
        region_sums(_KINDS[0], Generations(14), 2, range(512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _assert_near_the_whole_matrix_sums(spec, js, ks, A, reps, sums):
    """``sums`` within the kernel's bound of ``w . U``, taken exactly from the
    whole innovation matrix and the oracle's weights."""
    support_j, support_k, weights = _oracle_weights(spec, js, ks, A)
    reps = np.array(reps, dtype=np.uint64)
    u = _innovations_at(spec.master_seed, reps, support_j, support_k)
    _assert_near_exact(sums, *_exact_sums(u, weights), _pieces(weights))


@pytest.mark.parametrize("spec", _KINDS, ids=lambda spec: spec.kind)
def test_fused_sums_match_the_whole_matrix_reference_bit_for_bit(spec, monkeypatch):
    # near the exact sums of the whole matrix, or of the values on a subtree;
    # bit for bit across tile budgets
    reps, default = range(3, 44), _fields.BLOCK_VALUES
    for region, A in ((Generations(6), 3), (Strip(2, 3), 2), (Subtree(2, 3, 3), 3)):
        js, ks = region_arrays(region, A)
        nodes = list(region_nodes(region, A))
        values = field_values(spec, nodes, A, reps)
        want = region_sums(spec, region, A, reps)
        if isinstance(region, Subtree):
            _assert_value_sums(want, values)
        else:
            _assert_near_the_whole_matrix_sums(spec, js, ks, A, reps, want)
        width = len(_oracle_weights(spec, js, ks, A)[2])
        for budget in (1, width - 1, width, 2 * width + 1, default):
            monkeypatch.setattr(_fields, "BLOCK_VALUES", budget)
            assert np.array_equal(region_sums(spec, region, A, reps), want)
            _assert_value_sums(node_sums(spec, nodes, A, reps), values)
        monkeypatch.setattr(_fields, "BLOCK_VALUES", default)
    # a support wider than a tile: one replicate per tile
    spec = FieldSpec.m_dependent(1, C=0.9, master_seed=34)
    js, ks = region_arrays(Generations(16), 2)
    assert int(_powers(2)[region_plan(spec, Generations(16), 2).generations].sum()) > default
    sums = region_sums(spec, Generations(16), 2, range(5))
    _assert_near_the_whole_matrix_sums(spec, js, ks, 2, range(5), sums)


@pytest.mark.parametrize("spec", _KINDS, ids=lambda spec: spec.kind)
def test_region_sums_blocks_narrower_than_the_support(spec, monkeypatch):
    hash_rows, bits_tile = [], _fields._bits_tile

    def counted(r, n, h, tmp):
        hash_rows.append(len(r))
        return bits_tile(r, n, h, tmp)

    monkeypatch.setattr(_fields, "_bits_tile", counted)
    reps, default = range(41), _fields.BLOCK_VALUES
    for region in (Generations(6), Strip(2, 3)):  # the tile loop of whole generations
        monkeypatch.setattr(_fields, "BLOCK_VALUES", default)
        whole = region_sums(spec, region, 3, reps)
        _assert_sums_of(spec, whole, field_values(spec, list(region_nodes(region, 3)), 3, reps))
        width = int(_powers(3)[region_plan(spec, region, 3).generations].sum())
        for budget, rows in ((1, 1), (width + width // 2, 1), (2 * width + width // 2, 2)):
            monkeypatch.setattr(_fields, "BLOCK_VALUES", budget)
            hash_rows.clear()
            sums = region_sums(spec, region, 3, reps)
            assert hash_rows == [rows] * (41 // rows) + [41 % rows] * (41 % rows > 0)
            assert np.array_equal(sums, whole)


def _csr_ball_means(js, ks, A, m, C):
    """The m-dependent map as a scipy CSR matrix over its label-sorted support."""
    from scipy.sparse import csr_array

    rows, member_j, member_k = ball_arrays(js, ks, A, m)
    top = int(member_j.max(initial=0))
    if (A ** (top + 1) - 1) // (A - 1) < 2**63:  # one int64 sort key: the breadth-first position
        before = np.array([(A**g - 1) // (A - 1) for g in range(top + 1)], dtype=np.int64)
        keys, cols = np.unique(before[member_j] + member_k - 1, return_inverse=True)
        support_j = np.searchsorted(before, keys, "right") - 1
        support_k = keys - before[support_j] + 1
    else:
        labels, cols = np.unique(np.stack([member_j, member_k], axis=1), axis=0,
                                 return_inverse=True)
        support_j, support_k = labels.T
    sizes = np.bincount(rows, minlength=len(js))  # rows ascend, each ball's members too
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    matrix = csr_array(((C / sizes)[rows], cols.ravel(), indptr),
                       shape=(len(js), len(support_j)))
    return support_j, support_k, matrix


def _per_node_autoregression(spec, js, ks, A, reps):
    """The branching autoregression at each node ``(j, k)`` along its own
    ancestor path, root first: ``C U`` at the root, then ``(1 - |a|) C U + a
    Z_parent``, the ancestor in generation ``g`` being ``(k - 1) // A**(j - g) + 1``."""
    step, z = (1.0 - abs(spec.a)) * spec.C, np.zeros((len(reps), len(js)))
    for g in range(int(js.max(initial=-1)) + 1):
        on = js >= g
        up = (ks[on] - 1) // _powers(A)[js[on] - g] + 1
        u = _innovations_at(spec.master_seed, reps, np.full(len(up), g), up)
        z[:, on] = spec.C * u if g == 0 else step * u + spec.a * z[:, on]
    return z


def _oracle_values(spec, js, ks, A, reps):
    """The field at the labels ``(js, ks)`` by the test-side oracles: ``C U``,
    the CSR ball means, or the per-node autoregression."""
    reps = np.asarray(reps, dtype=np.uint64)
    if spec.kind == "independent":
        return spec.C * _innovations_at(spec.master_seed, reps, js, ks)
    if spec.kind == "branching_ar":
        return _per_node_autoregression(spec, js, ks, A, reps)
    support_j, support_k, matrix = _csr_ball_means(js, ks, A, spec.m, spec.C)
    u = _innovations_at(spec.master_seed, reps, support_j, support_k)
    return np.stack([matrix @ row for row in u]).reshape(len(reps), len(js))


def _oracle_weights(spec, js, ks, A):
    """The support labels and weights ``w = M^T 1`` of the field's map at the
    targets ``(js, ks)``, each weight added over the rows in order: the CSR
    transpose's mat-vec, or for the autoregression, over generations
    ``0 .. max(js)``, ``d_v`` (the times ``v`` is a target plus ``a`` times
    its children's ``d`` added in order) times ``(1 - |a|) C``, ``C`` at the root."""
    if spec.kind == "independent":
        return js, ks, np.full(len(js), float(spec.C))
    if spec.kind == "m_dependent":
        support_j, support_k, matrix = _csr_ball_means(js, ks, A, spec.m, spec.C)
        return support_j, support_k, matrix.T @ np.ones(len(js))
    top, parts = int(js.max()), []
    for g in range(top, -1, -1):
        d = np.bincount(ks[js == g] - 1, minlength=A**g).astype(np.float64)
        if parts:
            parents = np.arange(A ** (g + 1)) // A
            d += spec.a * np.bincount(parents, weights=parts[-1], minlength=A**g)
        parts.append(d)
    weights = (1.0 - abs(spec.a)) * spec.C * np.concatenate(parts[::-1])
    weights[0] = spec.C * parts[-1][0]
    return (*region_arrays(Generations(top + 1), A), weights)


@pytest.mark.parametrize(
    "region, A, m",
    [(Generations(12), 2, 1), (Generations(16), 2, 1), (Generations(9), 2, 2)]
    + [(region, 3, m) for region in _REGIONS for m in (1, 2, 3)],
)
def test_ball_means_match_a_csr_oracle_bit_for_bit(region, A, m):
    js, ks = region_arrays(region, A)
    reps = np.arange(4, dtype=np.uint64)
    spec = FieldSpec.m_dependent(m, C=0.8, master_seed=40)
    want = _oracle_values(spec, js, ks, A, reps)
    for rep, values in zip(reps.tolist(), want):
        assert sample_field(spec, region, A, rep)[2].tobytes() == values.tobytes()


_SUM_SPECS = _KINDS + (
    FieldSpec.m_dependent(2, C=0.7, master_seed=33),
    FieldSpec.branching_ar(-0.6, C=0.9, master_seed=33),
)


@pytest.mark.parametrize("spec", _SUM_SPECS, ids=lambda spec: f"{spec.kind}-{spec.m}-{spec.a}")
def test_region_sums_agree_with_summed_values(spec):
    for A in (2, 3):
        for region in _REGIONS + (Generations(6), Strip(2, 2), Strip(2, 3), Subtree(2, 3, 3)):
            nodes = list(region_nodes(region, A))
            sums = region_sums(spec, region, A, range(100))
            values = field_values(spec, nodes, A, range(100))
            if isinstance(region, Subtree):  # its sampled values, added
                _assert_value_sums(sums, values)
            else:
                _assert_sums_of(spec, sums, values)
            _assert_value_sums(node_sums(spec, nodes, A, range(100)), values)
    repeated = [NodeId(3, 5), NodeId(0, 1), NodeId(3, 5), NodeId(2, 1), NodeId(4, 16)]
    values = field_values(spec, repeated, 2, range(100))
    _assert_value_sums(node_sums(spec, repeated, 2, range(100)), values)


def test_a_map_row_with_l1_norm_above_C_raises_before_hashing(monkeypatch):
    # the per-generation row norms that node lists, sampling and the region
    # plan's sums all read
    ball_norms = _fields._ball_norms
    nodes = list(region_nodes(Generations(4), 2))

    def inflate(factor):
        monkeypatch.setattr(_fields, "_ball_norms",
                            lambda *args: [norm * factor for norm in ball_norms(*args)])

    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=41)
    inflate(1 + 0.5e-12)
    field_values(spec, nodes, 2, range(2))  # within the rounding allowance
    region_sums(spec, Generations(4), 2, range(2))
    inflate(1 + 2e-12)

    def no_hash(r, n, h, tmp):
        raise AssertionError("innovations hashed before the map was checked")

    monkeypatch.setattr(_fields, "_mix_tile", no_hash)
    tampered = FieldSpec.branching_ar(0.5, C=1.0, master_seed=41)
    object.__setattr__(tampered, "a", 1.25)  # |a| > 1: row norms grow with depth
    for bad in (spec, tampered):
        calls = (
            lambda: field_values(bad, nodes, 2, range(2)),
            lambda: sample_field(bad, Generations(4), 2, 0),
            lambda: region_sums(bad, Generations(4), 2, range(2)),
        )
        for call in calls:
            with pytest.raises(AmplitudeError, match="amplitude"):
                call()


def _brute_ball_deep(v, A):
    """Radius-1 ball of a deep node: itself, its parent and its children."""
    base = A * (v.k - 1)
    return [NodeId(v.j - 1, (v.k - 1) // A + 1), v] + [
        NodeId(v.j + 1, base + t) for t in range(1, A + 1)
    ]


def test_out_of_range_labels_raise_validation_error():
    for spec in (
        FieldSpec.independent(master_seed=1),
        FieldSpec.m_dependent(1, master_seed=1),
        FieldSpec.branching_ar(0.5, master_seed=1),
    ):
        with pytest.raises(ValidationError):
            field_values(spec, [NodeId(2, 5)], 2, range(3))  # index past 2**2
    # children of (62, 2**62) need index 2**63: past the 63-bit label range
    with pytest.raises(ValidationError):
        field_values(FieldSpec.m_dependent(1), [NodeId(62, 2**62)], 2, range(3))
    with pytest.raises(ValidationError):
        field_values(FieldSpec.m_dependent(2), [NodeId(61, 2**61)], 2, range(3))
    with pytest.raises(ValidationError):
        field_values(FieldSpec.m_dependent(1), [NodeId(2**63 - 1, 1)], 2, range(3))
    # the last node whose radius-1 ball fits stays exact: no wrapped labels
    v = NodeId(62, 2**62 - 1)
    got = field_values(FieldSpec.m_dependent(1, master_seed=2), [v], 2, range(4))[:, 0]
    ball = _brute_ball_deep(v, 2)
    want = np.mean([[_innovation_ref(2, r, u.j, u.k) for u in ball] for r in range(4)], axis=1)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_amplitude_guard_raises_library_error(monkeypatch, capsys):
    mix_tile = _fields._mix_tile

    def out_of_range(r, n, h, tmp):  # the top 54 bits: innovations in [-1, 3)
        return np.right_shift(mix_tile(r, n, h, tmp), 10, out=tmp)

    monkeypatch.setattr(_fields, "_bits_tile", out_of_range)
    nodes = list(region_nodes(Generations(3), 2))
    for spec in (
        FieldSpec.independent(C=1.0),
        FieldSpec.m_dependent(1, C=1.0),
        FieldSpec.branching_ar(0.5, C=1.0),
    ):
        with pytest.raises(AmplitudeError):
            field_values(spec, nodes, 2, range(3))
        with pytest.raises(AmplitudeError, match="outside"):
            region_sums(spec, Generations(3), 2, range(3))
        with pytest.raises(AmplitudeError, match="outside"):
            node_sums(spec, nodes, 2, range(3))
    for argv in (
        ["simulate", "--rate", "2", "--region", "generations(3)", "--field", "independent",
         "--C", "1"],
        ["mc-tail", "--rate", "2", "--region", "generations(8)", "--field", "m_dependent(1)",
         "--C", "1", "--epsilons", "0.5", "--replicates", "200", "--workers", "2"],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "amplitude" in err


@pytest.mark.parametrize("rep", [-1, 2**64, np.int64(-2), 1.5, True, range(2**64 - 2, 2**64 + 1),
                                 range(2**64 + 4, 2**64 - 6, -3), range(5, -5, -3)])
def test_replicate_ids_outside_uint64_rejected(rep):
    spec = FieldSpec.m_dependent(1, master_seed=1)
    if isinstance(rep, range):  # checked by its ends; the first id outside names the error
        bad = next(r for r in rep if not 0 <= r < 2**64)
        with pytest.raises(ValidationError, match=f"got {bad}$"):
            field_values(spec, [NodeId(1, 1)], 2, rep)
        with pytest.raises(ValidationError, match=f"got {bad}$"):
            region_sums(spec, Generations(3), 2, rep)
        return
    with pytest.raises(ValidationError, match="replicate"):
        field_values(spec, [NodeId(1, 1)], 2, [0, rep])
    with pytest.raises(ValidationError, match="replicate"):
        sample_field(spec, Generations(3), 2, rep)
    with pytest.raises(ValidationError, match="replicate"):
        region_sums(spec, Generations(3), 2, [rep])


def test_replicate_ids_at_the_uint64_ends():
    spec = FieldSpec.independent(master_seed=3)
    reps = [0, np.uint64(2**63), 2**64 - 1]
    got = field_values(spec, [NodeId(1, 2)], 2, reps)[:, 0]
    want = [_innovation_ref(3, int(r), 1, 2) for r in reps]
    assert got.tolist() == want
    assert sample_field(spec, Subtree(1, 2, 1), 2, 2**64 - 1)[2].tolist() == want[2:]
    assert region_sums(spec, Subtree(1, 2, 1), 2, reps).tolist() == want
    # ranges are built by np.arange: empty, ending at 2**64, and stepped either way
    for reps in (range(7, 7), range(2**64 - 3, 2**64), range(0, 2**64, 2**63),
                 range(2**64 - 1, 2**62, -2**62)):
        ids = list(reps)
        want = [_innovation_ref(3, r, 1, 2) for r in ids]
        assert _fields._replicate_ids(reps).tolist() == ids
        assert field_values(spec, [NodeId(1, 2)], 2, reps)[:, 0].tolist() == want
        assert region_sums(spec, Subtree(1, 2, 1), 2, reps).tolist() == want


# --- the hash tile against a pure-Python inverse of the finalizer -----------


def _unshift_ref(y, shift):
    """The x with ``x ^ (x >> shift) == y``."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def _unmix64_ref(h):
    """The x with ``_mix64_ref(x) == h``."""
    x = _unshift_ref(h, 31)
    x = _unshift_ref((x * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK, 27)
    return _unshift_ref((x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK, 30)


def _fold_ref(x):
    return x ^ (x >> 30)


# tile hashes at the ends of the float map and at the sign bit of an int64 view
_HASH_ENDS = (0, 2**11 - 1, 2**63 - 1, 2**63, 2**64 - 2**11, 2**64 - 1)


def test_hash_tile_maps_the_hash_ends_exactly():
    r0 = [_mix64_ref(3), _mix64_ref(2**64 - 9)]
    n0 = [_unmix64_ref(h) ^ r0[0] for h in _HASH_ENDS]
    r = np.array([_fold_ref(x) for x in r0], dtype=np.uint64)
    n = np.array([_fold_ref(x) for x in n0], dtype=np.uint64)
    h = np.empty((2, len(n)), dtype=np.uint64)
    got = _fields._hash_tile(r, n, h, np.empty_like(h)).tolist()
    assert got[0] == [2.0 * ((x >> 11) * 2.0**-53) - 1.0 for x in _HASH_ENDS]
    assert got[0] == [-1.0, -1.0, -(2.0**-52), 0.0, 1 - 2.0**-52, 1 - 2.0**-52]
    # the second replicate key checks the folding against the unfolded hash
    assert got[1] == [2.0 * ((_mix64_ref(r0[1] ^ x) >> 11) * 2.0**-53) - 1.0 for x in n0]


def test_a_full_tile_of_random_keys_matches_the_reference():
    rng = np.random.default_rng(17)
    js = rng.integers(0, 63, 4095)
    ks = np.array([int(rng.integers(1, 2**j, endpoint=True)) for j in js.tolist()])
    reps = rng.integers(0, 2**64 - 1, 4, dtype=np.uint64, endpoint=True)
    r, n = _fields._rep_keys(2**64 - 3, reps), _fields._node_keys(_one_node_runs(js, ks))
    h = np.empty((len(r), len(n)), dtype=np.uint64)
    got = _fields._hash_tile(r, n, h, np.empty_like(h))
    want = [
        [_innovation_ref(2**64 - 3, rep, j, k) for j, k in zip(js.tolist(), ks.tolist())]
        for rep in reps.tolist()
    ]
    assert got.tolist() == want


@pytest.mark.parametrize("spec", _KINDS, ids=lambda spec: spec.kind)
def test_region_sums_match_the_pure_python_oracle_bit_for_bit(spec):
    # bit for bit where the kernel is exact (the independent field at C = 1, one
    # piece): the correctly rounded exact sum; otherwise within the bound
    reps = [0, 1, 2**40, 2**64 - 1]
    support_j, support_k, weights = _oracle_weights(spec, *region_arrays(Generations(6), 3), 3)
    support = list(zip(support_j.tolist(), support_k.tolist()))
    oracle = [[_innovation_ref(spec.master_seed, rep, j, k) for j, k in support] for rep in reps]
    exact, scale = _exact_sums(oracle, weights)
    sums = region_sums(spec, Generations(6), 3, reps)
    _assert_near_exact(sums, exact, scale, _pieces(weights))
    if spec.kind == "independent":
        assert sums.tolist() == [float(x) for x in exact]


@pytest.mark.parametrize("region, A", [(Strip(5, 3), 2), (Generations(6), 3)])
def test_independent_sums_are_the_correctly_rounded_exact_sums(region, A):
    # at C = 1 a support of at most 2048 nodes is one exact piece, rounded once
    spec = FieldSpec.independent(C=1.0, master_seed=48)
    js, ks = region_arrays(region, A)
    assert len(js) <= _fields.GROUP_COLUMNS
    reps = range(40)
    u = _innovations_at(48, np.array(reps, dtype=np.uint64), js, ks)
    exact = _exact_sums(u, np.ones(len(js)))[0]
    assert region_sums(spec, region, A, reps).tolist() == [float(x) for x in exact]


@pytest.mark.parametrize("bits", [0, 2**64 - 1])
def test_exact_piece_sums_do_not_wrap_at_the_int64_ends(bits, monkeypatch):
    # 8191 equal weights: pieces of 2048, 2048, 2048 and 2047 columns; an
    # all-zero piece sums to exactly -2**63, an all-ones one to 2**63 - 2**11
    def constant(r, n, h, tmp):
        h.fill(bits)
        return h

    monkeypatch.setattr(_fields, "_mix_tile", constant)
    spec = FieldSpec.independent(C=1.0, master_seed=49)
    weights = np.ones(8191)  # C on each node of generations(13)
    assert _pieces(weights) == 4
    u = np.full((3, 8191), (bits >> 11) * 2.0**-52 - 1)
    exact, scale = _exact_sums(u, weights)
    sums = region_sums(spec, Generations(13), 2, range(3))
    _assert_near_exact(sums, exact, scale, 4)
    assert sums.tolist() == [float(x) for x in exact]


def test_hash_tile_allocates_no_tile_sized_buffer():
    # 577 KiB with a uint64 -> float64 multiply, 512 KiB with a cast onto h's own memory
    r, n = _fields._rep_keys(1, np.arange(16, dtype=np.uint64)), _fields._node_keys([(12, 1, 4096)])
    h = np.empty((16, 4096), dtype=np.uint64)
    assert h.size == _fields.BLOCK_VALUES
    tmp = np.empty_like(h)
    _fields._hash_tile(r, n, h, tmp)
    tracemalloc.start()
    try:
        _fields._hash_tile(r, n, h, tmp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**10


def _csv_ref(sample):
    rows = zip(*(array.tolist() for array in sample))
    return "j,k,value\n" + "".join(f"{j},{k},{value!r}\n" for j, k, value in rows)


def _first_difference(got, want):
    """The first pair of differing lines, or None when the texts are equal."""
    if got == want:
        return None
    pairs = zip(got.splitlines(), want.splitlines())
    return next(((a, b) for a, b in pairs if a != b), (len(got), len(want)))


def _edge_samples():
    """Rows whose text each layout and rounding rule of repr decides: every
    power of two with both neighbours, +-0, both sides of 1e-4 and 1e16, NaN
    and the infinities, labelled with the int64 ends; then 2**20 float64 bit
    patterns drawn uniformly over all 2**64, in slices."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]
    for edge in (1e-4, 1e16):
        values.append(np.nextafter(edge, [0, edge, np.inf]))
    values.append(np.array([0.0, np.nan, np.inf, 1e-5, 1e15, 1 / 3, 5e-324]))
    values = np.concatenate(values)
    values = np.concatenate([values, -values])
    ends = np.array([-2**63, 2**63 - 1, 0, -1], dtype=np.int64)
    yield np.resize(ends, len(values)), np.resize(ends[::-1], len(values)), values
    bits = np.random.default_rng(20251020).integers(0, 2**64, 2**20, dtype=np.uint64)
    for part in np.split(bits, 8):
        labels = (part >> np.uint64(40)).view(np.int64) - 2**23
        yield labels, labels[::-1].copy(), part.view(np.float64)


def test_field_csv_matches_the_row_by_row_format():
    for spec in _KINDS:
        sample = sample_field(spec, Strip(3, 4), 3, 5)
        assert field_to_csv(sample) == _csv_ref(sample)
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    assert field_to_csv(empty) == _csv_ref(empty) == "j,k,value\n"
    for sample in _edge_samples():
        assert _first_difference(field_to_csv(sample), _csv_ref(sample)) is None


def test_field_csv_matches_the_row_by_row_format_across_block_ends(monkeypatch):
    # 1000 rows a block divides none of the sample lengths, so block ends fall
    # inside every layout case of the edge rows and the bit patterns
    monkeypatch.setattr(rowtext, "TEXT_ROWS", 1000)
    for sample in _edge_samples():
        assert len(sample[2]) % 1000
        assert _first_difference(field_to_csv(sample), _csv_ref(sample)) is None


# sha256 of ``simulate`` stdout, generations(16), seed 17
_SIMULATE_PINS = {
    "independent": "c3aafceb51d8e57bce826c44a3ff0b491038583b3d8d15827a2487111e2da9f5",
    "m_dependent(1)": "416115da40d909d7f1b74866a5b0506efa68c91c358e540eed70b81657ace212",
    "branching_ar(0.8)": "462e1c0ec5a6fa99b579629f93b4e606b93ea73bdd7f6653cc33ce21e8b523e8",
}


@pytest.mark.parametrize("field", sorted(_SIMULATE_PINS))
def test_simulate_csv_bytes_are_pinned(field, capsys):
    argv = ["simulate", "--rate", "2", "--C", "1", "--region", "generations(16)",
            "--field", field, "--seed", "17", "--format", "csv"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _SIMULATE_PINS[field]


# --- ball ranges, one sort, bounded memory -------------------------------


def _unsorted_repeats(A, rnd):
    """Node labels in random order, with repeats, generations 0..7."""
    js = rnd.integers(0, 8, 40)
    ks = np.array([rnd.integers(1, A**j + 1) for j in js.tolist()], dtype=np.int64)
    pick = rnd.integers(0, len(js), 70)
    return js[pick].astype(np.int64), ks[pick]


@pytest.mark.parametrize("A", [2, 3])
def test_ball_arrays_are_row_major(A):
    for m in (1, 2, 3):
        repeats = _unsorted_repeats(A, np.random.default_rng(50 + m))
        for js, ks in [region_arrays(region, A) for region in _REGIONS] + [repeats]:
            rows, mj, mk = ball_arrays(js, ks, A, m)
            assert np.array_equal(np.unique(rows), np.arange(len(js)))
            assert np.all(np.diff(rows) >= 0)
            same = rows[1:] == rows[:-1]
            later = (mj[1:] > mj[:-1]) | ((mj[1:] == mj[:-1]) & (mk[1:] > mk[:-1]))
            assert np.all(later[same])  # strictly ascending (j, k) within each ball


@pytest.mark.parametrize("A", [2, 3])
def test_m_dependent_compile_on_unsorted_repeats_matches_the_csr_oracle(A):
    for m in (1, 2, 3):
        labels = _unsorted_repeats(A, np.random.default_rng(60 + m))
        _assert_ball_means_match_the_csr_oracle(*labels, A, m)


def _nodes(js, ks):
    return [NodeId(j, k) for j, k in zip(js.tolist(), ks.tolist())]


def _assert_ball_means_match_the_csr_oracle(js, ks, A, m):
    """The row norms the amplitude guard reads and 4 replicates' values of
    ``field_values``, bit for bit."""
    reps = np.arange(4, dtype=np.uint64)
    spec = FieldSpec.m_dependent(m, C=0.8, master_seed=46)
    if len(js):
        matrix = _csr_ball_means(js, ks, A, m, 0.8)[2]
        norms = np.array(_fields._ball_norms(A, m, 0.8))[np.minimum(js, m)]
        assert norms.tobytes() == (matrix @ np.ones(matrix.shape[1])).tobytes()
    want = _oracle_values(spec, js, ks, A, reps)
    assert field_values(spec, _nodes(js, ks), A, reps).tobytes() == want.tobytes()


def _labels(pairs):
    return tuple(np.array(column, dtype=np.int64).reshape(-1) for column in zip(*pairs))


# runs of one generation that touch or overlap through their balls, a repeat
# inside a run (9, 9, 10), and targets in generations 0..m-1, whose balls the root cuts
_TOUCHING = [(3, 4), (4, 10), (3, 1), (3, 8), (2, 2), (4, 9), (3, 2), (0, 1), (3, 5), (4, 9),
             (1, 1), (2, 4), (1, 2)]


@pytest.mark.parametrize("A", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ball_means_edge_cases_match_the_csr_oracle(A, m):
    for region in (Subtree(1, 2, 3), Subtree(3, A**3 - 1, 2), Strip(2, 2), Strip(0, 3)):
        _assert_ball_means_match_the_csr_oracle(*region_arrays(region, A), A, m)
    _assert_ball_means_match_the_csr_oracle(*_labels(_TOUCHING), A, m)
    for j in range(m):  # every target above generation m, alone and with a neighbour
        _assert_ball_means_match_the_csr_oracle(*_labels([(j, 1)]), A, m)
        _assert_ball_means_match_the_csr_oracle(*_labels([(j, A**j), (j + 1, 1)]), A, m)
    empty = np.zeros(0, dtype=np.int64)
    _assert_ball_means_match_the_csr_oracle(empty, empty, A, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ball_means_deep_generations_match_the_csr_oracle(m):
    # A = 2 at generations 58-61: indices up to the last whose balls stay in 63 bits
    pairs = []
    for j in range(58, 62):
        top = min(2**j, (2**63 - 1) // 2**m)
        pairs += [(j, 1), (j, 2), (j, top - 1), (j, top), (j, top // 2)]
    _assert_ball_means_match_the_csr_oracle(*_labels(pairs), 2, m)
    js, ks = _labels([(62, 2**62)])  # its children pass 63 bits: both forms refuse it alike
    with pytest.raises(ValidationError, match="63-bit") as want:
        ball_arrays(js, ks, 2, m)
    with pytest.raises(ValidationError) as got:
        field_values(FieldSpec.m_dependent(m, C=0.8), _nodes(js, ks), 2, range(1))
    assert str(got.value) == str(want.value)


def test_ball_means_do_not_depend_on_tile_boundaries(monkeypatch):
    reps = np.arange(4, dtype=np.uint64)
    cases = [(region_arrays(Generations(7), 3), 3, 1), (region_arrays(Strip(1, 3), 2), 2, 3),
             (_labels(_TOUCHING), 3, 2), (_labels(_TOUCHING), 2, 4)]
    for (js, ks), A, m in cases:
        spec = FieldSpec.m_dependent(m, C=0.8, master_seed=47)
        want = _oracle_values(spec, js, ks, A, reps).tobytes()
        ball = _ball_size(m, A, m)
        for budget in (1, ball - 1, ball, 2 * ball + 1, _fields.BLOCK_VALUES):
            monkeypatch.setattr(_fields, "BLOCK_VALUES", budget)
            assert field_values(spec, _nodes(js, ks), A, reps).tobytes() == want


def _peak_bytes(call):
    call()  # warm caches first: only the call's own buffers count
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_node_keys_memory_is_one_key_array():
    # 1 MiB of keys for 131071 nodes; a fresh array per step peaked at 3 MiB
    runs = _generation_runs(Generations(17), 2, 1 << 17)
    width = sum(count for _, _, count in runs)
    assert _peak_bytes(lambda: _fields._node_keys(runs)) <= 2 * 8 * width


def test_hashing_one_run_builds_no_label_array():
    # one 65536-node run: its keys, the output and the hash tile's scratch,
    # 512 KiB each; the keys' two KEY_VALUES scratch rows and label chunks
    # (256 KiB) are freed before the tiles are made.  The run's int64 labels
    # would add 1 MiB while the keys are mixed, or through the hash if held
    width = 1 << 16
    reps = np.zeros(1, dtype=np.uint64)
    peak = _peak_bytes(lambda: _fields._innovations(3, reps, [(16, 1, width)]))
    assert peak < 3 * 8 * width + 16 * 2**10


def test_node_keys_do_not_depend_on_the_key_step(monkeypatch):
    rng = np.random.default_rng(50)
    js = rng.integers(0, 63, 5000)
    ks = np.array([int(rng.integers(1, 2**j, endpoint=True)) for j in js.tolist()])
    runs = _one_node_runs(js, ks)
    want = _fields._node_keys(runs)
    for step in (1, 777, 4999):
        monkeypatch.setattr(_fields, "KEY_VALUES", step)
        assert np.array_equal(_fields._node_keys(runs), want)
    n0 = [_mix64_ref(_mix64_ref(j ^ 0xE7037ED1A0B428DB) ^ _mix64_ref(k ^ 0x8EBC6AF09C88C6E3))
          for j, k in zip(js.tolist(), ks.tolist())]
    assert want.tolist() == [_fold_ref(x) for x in n0]


def test_m_dependent_compile_memory_is_bounded():
    # 262139 ball entries, 6 MiB as entry arrays: the labels, their runs and the
    # window of hashed generations read 4.1 MiB, so no entry-sized array fits
    nodes = list(region_nodes(Generations(16), 2))
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=45)
    assert _peak_bytes(lambda: field_values(spec, nodes, 2, range(1))) < 6 * 2**20


def test_m_dependent_sample_field_memory_is_bounded():
    # the values, the 2m + 1 hashed generations their balls reach, one block
    # of ball entries and the labels
    spec = FieldSpec.m_dependent(1, C=1.0, master_seed=45)
    assert _peak_bytes(lambda: sample_field(spec, Generations(16), 2, 0)) < 8 * 2**20


def _oracle_sample(spec, region, A, rep):
    """The reference: the oracles' values at the region's labels."""
    js, ks = region_arrays(region, A)
    return js, ks, _oracle_values(spec, js, ks, A, [rep])[0]


_GRID_REGIONS = tuple(Generations(c) for c in range(8)) + tuple(
    Strip(L, P) for L in (0, 1, 2, 4) for P in (1, 2, 3))
_GRID_SPECS = tuple(
    spec
    for C in (1, 0.8)
    for spec in (FieldSpec.independent(C=C, master_seed=46),)
    + tuple(FieldSpec.m_dependent(m, C=C, master_seed=46) for m in (1, 2, 3))
    + tuple(FieldSpec.branching_ar(a, C=C, master_seed=46) for a in (0.8, -0.6, 0.3, 0.0))
)


def _assert_same_sample(got, want):
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


_GRID_REPS = np.array([0, 2**64 - 1], dtype=np.uint64)


@pytest.mark.parametrize("A", [2, 3, 4])
def test_generation_sample_matches_the_compiled_map_bit_for_bit(A):
    # the map Z = M U at the region's labels, by the test-side oracles
    for region in _GRID_REGIONS:
        js, ks = region_arrays(region, A)
        for spec in _GRID_SPECS:
            want = _oracle_values(spec, js, ks, A, _GRID_REPS)
            for rep, values in zip(_GRID_REPS.tolist(), want):
                _assert_same_sample(sample_field(spec, region, A, rep), (js, ks, values))


@pytest.mark.parametrize("A", [2, 3, 4])
def test_subtree_and_node_list_samples_match_the_oracles_bit_for_bit(A, monkeypatch):
    # subtrees through sample_field, and unsorted node lists with repeats
    # through field_values, at BLOCK_VALUES 1, 7 and its default
    subtrees = (Subtree(0, 1, 4), Subtree(1, 2, 3), Subtree(3, A**3 - 1, 3), Subtree(5, 7, 1))
    lists = (_unsorted_repeats(A, np.random.default_rng(70 + A)), _labels(_TOUCHING))
    cases = [(spec, region, region_arrays(region, A))
             for spec in _GRID_SPECS for region in subtrees]
    cases += [(spec, None, labels) for spec in _GRID_SPECS for labels in lists]
    want = [_oracle_values(spec, js, ks, A, _GRID_REPS) for spec, _, (js, ks) in cases]
    for budget in (1, 7, _fields.BLOCK_VALUES):
        monkeypatch.setattr(_fields, "BLOCK_VALUES", budget)
        for (spec, region, (js, ks)), values in zip(cases, want):
            if region is None:
                got = field_values(spec, _nodes(js, ks), A, _GRID_REPS)
                assert got.tobytes() == values.tobytes(), (spec, budget)
                continue
            for rep, row in zip(_GRID_REPS.tolist(), values):
                _assert_same_sample(sample_field(spec, region, A, rep), (js, ks, row))


def test_generation_sample_does_not_depend_on_the_summing_blocks(monkeypatch):
    # blocks of one column, blocks cut inside a ball layer, one column from
    # some generation on
    cases = [(spec, region, A) for spec in _GRID_SPECS if spec.kind == "m_dependent"
             for region, A in ((Generations(6), 2), (Strip(2, 2), 4))]
    want = [_oracle_sample(spec, region, A, 3) for spec, region, A in cases]
    for budget in (1, 7, 16, 64):
        monkeypatch.setattr(_fields, "BLOCK_VALUES", budget)
        for (spec, region, A), sample in zip(cases, want):
            _assert_same_sample(sample_field(spec, region, A, 3), sample)


@pytest.mark.parametrize("spec, budget", zip(_KINDS, (3, 4.5, 3)),
                         ids=[spec.kind for spec in _KINDS])
def test_generation_sample_memory_is_bounded(spec, budget):
    # the labels and values take 1.5 MiB; the rest is hashing one call's nodes
    # and, for the m-dependent field, the 2m + 1 generations its balls reach
    assert _peak_bytes(lambda: sample_field(spec, Generations(16), 2, 0)) <= budget * 2**20


def test_field_csv_memory_is_bounded_by_its_text():
    # the chunks and their join hold about twice the text; the Python objects
    # of every row at once would hold five times
    sample = sample_field(FieldSpec.m_dependent(1, C=1.0, master_seed=45), Generations(16), 2, 0)
    text = field_to_csv(sample)
    assert _peak_bytes(lambda: field_to_csv(sample)) < 2.5 * len(text)


def test_field_csv_chunk_memory_is_within_the_per_row_format():
    # a chunk is one kernel block of TEXT_ROWS rows; formatting 4096 rows with
    # one % format per chunk peaked at 616 KiB: the rows' Python objects, the
    # text and its join with the header
    sample = sample_field(FieldSpec.m_dependent(1, C=1.0, master_seed=45), Generations(16), 2, 0)
    chunk = tuple(array[: rowtext.TEXT_ROWS] for array in sample)
    assert len(list(field_lines(chunk))) == 1
    assert _peak_bytes(lambda: field_to_csv(chunk)) <= 616 * 2**10


def test_field_lines_allocate_no_work_buffer_per_block():
    # 16 blocks peak within one block's peak plus the text of all 16: the work
    # array is allocated once per call, not per block
    rows = rowtext.TEXT_ROWS
    sample = sample_field(FieldSpec.m_dependent(1, C=1.0, master_seed=45), Generations(17), 2, 0)
    blocks = tuple(array[-16 * rows :] for array in sample)
    last = tuple(array[-rows:] for array in sample)
    chunks = list(field_lines(blocks))
    assert len(chunks) == 16 and len(list(field_lines(last))) == 1
    text = sum(len(chunk) for chunk in chunks)
    assert _peak_bytes(lambda: list(field_lines(blocks))) <= (
        _peak_bytes(lambda: list(field_lines(last))) + text)


def test_field_csv_chunk_boundaries(monkeypatch):
    sample = sample_field(_KINDS[1], Strip(2, 3), 3, 7)
    n, want = len(sample[2]), _csv_ref(sample)
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    for rows in (1, 3, 7, n - 1, n, n + 1):  # the kernel's rows per pass, one chunk each
        monkeypatch.setattr(rowtext, "TEXT_ROWS", rows)
        assert field_to_csv(sample) == want
        assert field_to_csv(empty) == "j,k,value\n"
        assert len(list(field_lines(sample))) == -(-n // rows)


def test_oversized_balls_raise_capacity_error_not_memory_error():
    # about 2**42 ball entries: under a 3 GiB address-space limit the allocation
    # fails, so only a count made before any allocation can refuse them cleanly;
    # the child's timeout fails the test if a huge radius is ever raised to a power
    probe = """
import contextlib, io, resource
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from treebound import (CapacityError, FieldSpec, Generations, ValidationError, field_values,
                       region_nodes, region_sums)
from treebound.cli import main
common = ["--rate", "2", "--C", "1", "--field", "m_dependent(40)"]
for argv in (["simulate", "--region", "generations(2)"] + common,
             ["mc-tail", "--region", "generations(6)", "--replicates", "100",
              "--epsilons", "0.5"] + common):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 3, (argv, code, err.getvalue())
    assert err.getvalue().startswith("error:") and "members" in err.getvalue(), err.getvalue()
spec = FieldSpec.m_dependent(40)
for call in (lambda: field_values(spec, list(region_nodes(Generations(2), 2)), 2, range(2)),
             lambda: region_sums(spec, Generations(2), 2, range(2))):
    try:
        call()
    except CapacityError as exc:
        assert "cap" in str(exc)
    else:
        raise AssertionError("no CapacityError")
# a radius past the 63-bit labels is refused without computing A**m
wide = FieldSpec.m_dependent(10**11)
for call in (lambda: field_values(wide, list(region_nodes(Generations(2), 2)), 2, range(2)),
             lambda: region_sums(wide, Generations(2), 2, range(2))):
    try:
        call()
    except ValidationError as exc:
        assert "63-bit" in str(exc)
    else:
        raise AssertionError("no ValidationError")
# the node cap comes first, from the region's depth alone
try:
    region_sums(spec, Generations(10**9), 2, range(2))
except CapacityError as exc:
    assert "region holds at least" in str(exc)
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


def test_deep_autoregression_targets_raise_capacity_error_not_memory_error():
    # 10**9 ancestors, or a strip at the node cap whose 22369621 ancestors pass
    # it: under a 3 GiB address-space limit their arrays fail, so only a count
    # made before any array is built can refuse them cleanly
    probe = """
import contextlib, io, resource
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from treebound import CapacityError, FieldSpec, NodeId, Strip, Subtree, field_values, node_sums
from treebound import region_sums, sample_field
from treebound.cli import main
for rate, region in (("2", "subtree(1000000000,1,1)"), ("4", "strip(13,1)")):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--rate", rate, "--C", "1", "--region", region,
                     "--field", "branching_ar(0.5)"])
    assert code == 3, (region, code, err.getvalue())
    assert err.getvalue().startswith("error:") and "ancestors" in err.getvalue(), err.getvalue()
spec = FieldSpec.branching_ar(0.5)
for call in (lambda: field_values(spec, [NodeId(10**9, 1)], 2, range(2)),
             lambda: node_sums(spec, [NodeId(2, 1), NodeId(10**9, 5)], 2, range(2)),
             lambda: sample_field(spec, Subtree(10**9, 1, 1), 2, 0),
             lambda: sample_field(spec, Strip(13, 1), 4, 0),
             lambda: region_sums(spec, Strip(13, 1), 4, range(2))):
    try:
        call()
    except CapacityError as exc:
        assert "exceeding the cap" in str(exc)
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


def test_autoregression_ancestors_count_each_chain_once(monkeypatch):
    # a run reads the run above it when that run is its parents; any other run
    # counts its ancestors up to the root: 1 + 3 nodes, 3 + (2 + 1 + 1), then 6
    runs = [(3, 4, 1), (3, 6, 3), (4, 11, 6)]
    monkeypatch.setattr(_fields, "DEFAULT_NODE_CAP", 17)
    _fields._ancestor_caps(runs, 2)
    monkeypatch.setattr(_fields, "DEFAULT_NODE_CAP", 16)
    with pytest.raises(CapacityError, match="hashes 17 nodes"):
        _fields._ancestor_caps(runs, 2)


def test_autoregression_walks_at_most_its_cap_of_generations(monkeypatch):
    # the first two runs walk up from generation 3, the third reads the second
    runs = [(3, 4, 1), (3, 6, 3), (4, 11, 6)]
    monkeypatch.setattr(_fields, "AR_WALK_GENERATIONS", 6)
    assert _fields._ancestor_caps(runs, 2) == 17
    monkeypatch.setattr(_fields, "AR_WALK_GENERATIONS", 5)
    with pytest.raises(CapacityError, match="walks 6 generations of ancestors, .* cap of 5$"):
        _fields._ancestor_caps(runs, 2)


def test_deep_autoregression_walks_raise_capacity_error_before_any_array():
    # one node at generation 6 * 10**7 passes the node cap; its walk would take
    # about 16 GiB at 280 bytes a generation, far past a 3 GiB address-space
    # limit, so only the count of its steps can refuse it cleanly; the walk at
    # the cap itself runs
    probe = """
import contextlib, io, resource
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from treebound import CapacityError, FieldSpec, NodeId, Subtree, field_values, node_sums
from treebound import sample_field
from treebound.fields import AR_WALK_GENERATIONS
from treebound.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(["simulate", "--rate", "2", "--C", "1", "--region", "subtree(60000000,1,1)",
                 "--field", "branching_ar(0.5)"])
assert code == 3, (code, err.getvalue())
assert err.getvalue() == ("error: the autoregression at these nodes walks 60000000 generations "
                          "of ancestors, exceeding the cap of 65536\\n"), err.getvalue()
spec = FieldSpec.branching_ar(0.5)
for call in (lambda: field_values(spec, [NodeId(6 * 10**7, 1)], 2, range(2)),
             lambda: field_values(spec, [NodeId(10**5, 1)], 2, range(1)),
             lambda: node_sums(spec, [NodeId(40000, 1), NodeId(40000, 3)], 2, range(2)),
             lambda: sample_field(spec, Subtree(AR_WALK_GENERATIONS + 1, 1, 1), 2, 0)):
    try:
        call()
    except CapacityError as exc:
        assert "generations of ancestors, exceeding the cap of 65536" in str(exc), str(exc)
    else:
        raise AssertionError("no CapacityError")
assert field_values(spec, [NodeId(AR_WALK_GENERATIONS, 1)], 2, range(1)).shape == (1, 1)
"""
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("call", ["region_sums", "field_values", "node_sums"])
def test_replicate_ranges_past_sys_maxsize_raise_capacity_error(call):
    # len() of such a range raises OverflowError: the count comes from its ends
    spec = FieldSpec.independent()
    run = {"region_sums": lambda reps: region_sums(spec, Generations(2), 2, reps),
           "field_values": lambda reps: field_values(spec, [NodeId(1, 1)], 2, reps),
           "node_sums": lambda reps: node_sums(spec, [NodeId(1, 1)], 2, reps)}[call]
    for reps in (range(2**63), range(2**64 - 1, -1, -1), range(1, 2**64, 1)):
        with pytest.raises(CapacityError, match="replicate ids exceed the cap"):
            run(reps)


def test_replicate_counts_past_memory_raise_capacity_error():
    # 2**40 replicates ask numpy for 8 TiB: under a 4 GiB address-space limit
    # each call must be refused by its count, before any array
    probe = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from treebound import (CapacityError, FieldSpec, Generations, NodeId, field_values, node_sums,
                       region_sums)
from treebound.fields import REPLICATE_VALUES
spec, reps = FieldSpec.independent(), range(2**40)
for call in (lambda: region_sums(spec, Generations(2), 2, reps),
             lambda: field_values(spec, [NodeId(1, 1)], 2, reps),
             lambda: node_sums(spec, [NodeId(1, 1)], 2, reps)):
    try:
        call()
    except CapacityError as exc:
        assert f"exceed the cap of {REPLICATE_VALUES} values" in str(exc), str(exc)
    else:
        raise AssertionError("no CapacityError")
assert field_values(spec, [NodeId(1, 1)], 2, range(REPLICATE_VALUES + 1, 0, -2**20)).shape == (257, 1)
"""
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_replicate_cap_counts_values_per_replicate():
    spec, cap = FieldSpec.independent(), _fields.REPLICATE_VALUES
    nodes = [NodeId(2, k) for k in range(1, 5)]
    with pytest.raises(CapacityError, match="replicates x 4 values exceed the cap"):
        field_values(spec, nodes, 2, range(cap // 4 + 1))
    with pytest.raises(CapacityError, match="replicates x 1 values exceed the cap"):
        node_sums(spec, nodes, 2, range(cap + 1))
    with pytest.raises(CapacityError, match="replicates x 1 values exceed the cap"):
        region_sums(spec, Generations(2), 2, range(cap + 1))


# sha256 of the sums at 10**4 replicates: node_sums over generation 9's first
# 256 nodes, region_sums over Subtree(3, 2, 6), both at rate 2
_VALUE_SUM_PINS = {
    "independent": ("1a14161cf206f0de1d0548fcecafaf57750235eec7e8fde84bb3c7701d96b70f",
                    "a8a3d52755de120470a9611cbeea7e63d99de526c99dec7608311ca62838e8c9"),
    "m_dependent": ("dedb98004748a885544bb05acea7b80b6e0df11b321b41cdf0ea350dbe02eac9",
                    "df9f938238022e70508dc10d6619ca915d3842091cffab04e79be17729efc624"),
    "branching_ar": ("cc36b110a4f7c314fa7eb5278ce26c36c3dea8b809c6e40710935e825d4da94c",
                     "9f773fdfbe664b3ad6314d39174a430cdddbbc50cbf3f272674ca0ae3872c1d8"),
}


@pytest.mark.parametrize("spec", _KINDS, ids=[spec.kind for spec in _KINDS])
def test_value_sums_key_each_run_once_per_call(spec, monkeypatch):
    # the tiles of replicates share one key build per run: 157 tiles of the
    # m-dependent sums below once built their keys 157 times
    calls, keys = [], _fields._node_keys
    monkeypatch.setattr(_fields, "_node_keys", lambda runs: calls.append(1) or keys(runs))
    nodes = [NodeId(9, k) for k in range(1, 257)]
    for call, target in ((node_sums, nodes), (region_sums, Subtree(3, 2, 6))):
        made = []
        for n in (10**3, 10**4):
            calls.clear()
            sums = call(spec, target, 2, range(n))
            made.append(len(calls))
        assert made[0] == made[1]
        pin = _VALUE_SUM_PINS[spec.kind][call is region_sums]
        assert hashlib.sha256(sums.tobytes()).hexdigest() == pin


def test_empty_region_with_a_huge_radius_returns_at_once():
    # no generation, so no ball: the radius is never raised to a power; the
    # child's timeout fails the test if it is
    probe = """
import contextlib, io
from treebound import FieldSpec, Generations, sample_field
from treebound.cli import main
js, ks, values = sample_field(FieldSpec.m_dependent(10**11), Generations(0), 2, 0)
assert len(js) == len(ks) == len(values) == 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["simulate", "--region", "generations(0)", "--rate", "2", "--C", "1",
                 "--field", "m_dependent(100000000000)"])
assert code == 0 and out.getvalue() == "j,k,value\\n", (code, out.getvalue())
"""
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# --- the region plan: per-generation weights in closed form ------------------


_PLAN_REGIONS = tuple(Generations(count) for count in range(8)) + tuple(
    Strip(level, depth) for level in (0, 1, 2, 4) for depth in (1, 2, 3))
_PLAN_SPECS = tuple(
    spec
    for C in (1.0, 0.8)
    for spec in (FieldSpec.independent(C),)
    + tuple(FieldSpec.m_dependent(m, C) for m in (1, 2, 3))
    + tuple(FieldSpec.branching_ar(a, C) for a in (0.8, -0.6, 0.3, 0.0))
)


def _compiled_reference(spec, region, A, balls):
    """The support generations, weights and target row norms of the field's
    map, one per node, by the oracles: each target's row norm is its l1 norm,
    the CSR row sum or, for the autoregression, ``|a|`` times its parent's
    plus ``|(1 - |a|) C|``, ``C`` at the root.  ``balls`` keeps the region's
    CSR ball means by radius, built once at ``C = 1`` and rescaled."""
    from scipy.sparse import csr_array

    js, ks = region_arrays(region, A)
    if not len(js):
        return js, np.zeros(0), np.zeros(0)
    if spec.kind == "m_dependent":
        if spec.m not in balls:
            balls[spec.m] = _csr_ball_means(js, ks, A, spec.m, 1.0)
        support_j, _, ones = balls[spec.m]
        sizes = np.diff(ones.indptr)
        matrix = csr_array((np.repeat(spec.C / sizes, sizes), ones.indices, ones.indptr),
                           shape=ones.shape)
        return support_j, matrix.T @ np.ones(len(js)), matrix @ np.ones(len(support_j))
    support_j, _, weights = _oracle_weights(spec, js, ks, A)
    if spec.kind == "independent":
        norms = np.full(len(js), spec.C)
    else:
        by_generation, step = [spec.C], abs((1.0 - abs(spec.a)) * spec.C)
        for _ in range(int(js.max())):
            by_generation.append(abs(spec.a) * by_generation[-1] + step)
        norms = np.array(by_generation)[js]
    return support_j, weights, norms


@pytest.mark.parametrize("A", [2, 3, 4, 5])
def test_region_plan_matches_the_compiled_weights_bit_for_bit(A):
    for region in _PLAN_REGIONS:
        targets, balls = region_arrays(region, A)[0], {}
        for spec in _PLAN_SPECS:
            support_j, weights, norms = _compiled_reference(spec, region, A, balls)
            plan = region_plan(spec, region, A)
            counts = _powers(A)[plan.generations]
            assert np.array_equal(np.repeat(plan.generations, counts), support_j)
            assert np.repeat(plan.weights, counts).tobytes() == weights.tobytes(), (spec, region)
            per_target = np.repeat(plan.norms, np.bincount(targets - targets.min())
                                   if len(targets) else [])
            assert per_target.tobytes() == norms.tobytes(), (spec, region)


@pytest.mark.parametrize("A", [2, 3])
def test_support_span_is_the_plans_generations(A):
    # the closed form mc_tail caps its hashed values with, before any plan
    for region in _PLAN_REGIONS:
        for spec in _PLAN_SPECS:
            lo, hi = _fields._support_span(spec, region)
            assert region_plan(spec, region, A).generations.tolist() == list(range(lo, hi))


def _sequential(total, x, times):
    for _ in range(times):
        total += x
    return total


def test_repeated_addition_is_the_sequential_sum():
    # ties to even at 1.0 (x = k ulp / 2), binade crossings, subnormals and signs
    rng = np.random.default_rng(70)
    xs = [k * 2.0**-53 for k in range(1, 8)] + [0.1, 1 / 3, 0.8 / 7, 2.0**-1074, 3 * 2.0**-1074,
                                               2.0**-1022, 1e300] + rng.random(12).tolist()
    for x in xs + [-x for x in xs[::3]]:
        for total in (0.0, 1.0, 1.0 + 2.0**-52, 3 * x, 0.75):
            total = math.copysign(total, x)
            for times in (0, 1, 2, 3, 4, 5, 17, 100, 4097):
                want = _sequential(total, x, times)
                assert _fields._added(total, x, times).hex() == want.hex(), (total, x, times)
    # the top binade, whose end 2**1024 is no float, and an overflow to inf
    for total, x, times in ((1.7e308, 1e292, 10**5), (1e308, 1e305, 10**4), (0.0, -1e307, 100)):
        assert _fields._added(total, x, times) == _sequential(total, x, times)
    for x in (0.1, 0.8 / 27, -0.6 * 0.3):  # as np.bincount adds one bin
        weights = np.full(3**11, x)
        assert _fields._added(0.0, x, 3**11) == np.bincount(np.zeros(3**11, int), weights)[0]


def test_region_sums_build_no_label_arrays_and_compile_no_map(monkeypatch):
    def refused(*args):
        raise AssertionError("a strip or generations region built labels or a map")

    for name in ("_label_runs", "_run_values", "_ball_values", "_autoregression_values"):
        monkeypatch.setattr(_fields, name, refused)
    for spec in _SUM_SPECS:
        for region in (Generations(7), Strip(3, 3)):
            region_sums(spec, region, 2, range(3))


@pytest.mark.parametrize("spec, limit", zip(_KINDS, (5.1, 14.2, 9.1)),
                         ids=[spec.kind for spec in _KINDS])
def test_region_sums_memory_holds_no_label_arrays(spec, limit):
    # the node keys (1 or 2 MiB) and two one-row tile buffers: no label arrays
    # (16 bytes per node), map or per-node weights, which read 7.1, 16.3 and 11.1 MiB
    peak = _peak_bytes(lambda: region_sums(spec, Generations(17), 2, range(2)))
    assert peak <= limit * 2**20


def test_a_deep_region_plan_is_fast_and_small():
    # generations(10**5): no node is built; the traced call runs far slower,
    # so it is timed untraced and measured traced
    probe = """
import time, tracemalloc
from treebound import FieldSpec, Generations, region_plan
spec, region = FieldSpec.m_dependent(2), Generations(10**5)
start = time.perf_counter()
plan = region_plan(spec, region, 2)
elapsed = time.perf_counter() - start
tracemalloc.start()
region_plan(spec, region, 2)
peak = tracemalloc.get_traced_memory()[1]
print(elapsed, peak, len(plan.generations), len(set(plan.weights.tolist())), len(plan.norms))
"""
    src = str(Path(treebound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    elapsed, peak, gens, distinct, norms = done.stdout.split()
    assert float(elapsed) < 1.0
    assert int(peak) < 16 * 2**20
    assert (int(gens), int(distinct), int(norms)) == (10**5 + 2, 9, 10**5)


def test_region_plan_refusals():
    with pytest.raises(ValidationError, match="strip or generations"):
        region_plan(_KINDS[0], Subtree(1, 1, 2), 2)
    # one ball past the cap on members, decided before A**m is formed
    for m in (28, 10**12):
        with pytest.raises(CapacityError, match="members"):
            region_plan(FieldSpec.m_dependent(m), Generations(3), 2)
    # A|a| > 1 doubles the weights each few generations: past float range, not inf
    with pytest.raises(CapacityError, match="float range"):
        region_plan(FieldSpec.branching_ar(0.8), Generations(5000), 2)
    empty = region_plan(_KINDS[1], Generations(0), 2)
    assert all(len(column) == 0 for column in empty)
    assert region_sums(_KINDS[1], Generations(0), 2, range(3)).tolist() == [0.0] * 3


def test_ball_sizes_per_generation_match_the_label_form():
    # a region's generation runs count the balls of its labels as one-node runs
    for A, m in ((2, 1), (3, 2), (2, 4)):
        for region in (Generations(5), Strip(1, 3), Strip(3, 2), Subtree(2, 3, 2)):
            runs = _generation_runs(region, A, 1 << 10)
            labels = _one_node_runs(*region_arrays(region, A))
            assert np.array_equal(ball_sizes(runs, A, m), ball_sizes(labels, A, m))
    for runs in (_generation_runs(Generations(2), 2, 3), _one_node_runs([0, 1, 1], [1, 1, 2])):
        with pytest.raises(CapacityError, match="balls of 3 nodes hold"):
            ball_sizes(runs, 2, 40)
