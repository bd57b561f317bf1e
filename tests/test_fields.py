"""Field generation: moments, dependence structure, determinism, certificates."""

import math

import numpy as np
import pytest

from treebound import (
    AmplitudeError,
    FieldSpec,
    Generations,
    NodeId,
    Strip,
    Subtree,
    ValidationError,
    field_certificate,
    field_to_csv,
    field_values,
    region_nodes,
    region_sums,
    sample_field,
    tree_distance,
)
from treebound import fields as _fields
from treebound.cli import main
from treebound.tree import ball_arrays, region_arrays


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


def test_region_sums_matches_per_node_values():
    spec = FieldSpec.branching_ar(0.3, C=1.0, master_seed=12)
    region = Strip(2, 2)
    sums = region_sums(spec, region, 2, range(50), chunk=7)
    direct = field_values(spec, list(region_nodes(region, 2)), 2, range(50)).sum(axis=1)
    assert np.array_equal(sums, direct)


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


def test_innovations_match_pure_python_splitmix64():
    reps = [0, 1, 2**40]
    labels = [(0, 1), (62, 2**62), (5, 17)]
    js = np.array([j for j, _ in labels], dtype=np.int64)
    ks = np.array([k for _, k in labels], dtype=np.int64)
    for seed in (0, 12345, -7, 2**64 + 5, 2**70 - 1):
        got = _fields._innovations(seed, np.array(reps, dtype=np.uint64), js, ks)
        want = [[_innovation_ref(seed, r, j, k) for j, k in labels] for r in reps]
        assert got.flags.c_contiguous and got.tolist() == want
    # seeds are masked to 64 bits
    a = _fields._innovations(-7, np.array(reps, dtype=np.uint64), js, ks)
    b = _fields._innovations(2**64 - 7, np.array(reps, dtype=np.uint64), js, ks)
    assert np.array_equal(a, b)


def test_m_dependent_radius_must_be_int():
    for m in (1.5, 1.0, True, 0, -1, None):
        with pytest.raises(ValidationError):
            FieldSpec.m_dependent(m)
    assert FieldSpec.m_dependent(2).m == 2


_REGIONS = (Generations(3), Strip(1, 2), Subtree(1, 2, 2))


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
                    mean = _fields._innovations(21, reps, bj, bk).mean(axis=1)
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
                    innov = _fields._innovations(8, reps, np.array([u.j]), np.array([u.k]))[:, 0]
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


def test_region_sums_do_not_depend_on_chunk_size():
    for spec in (
        FieldSpec.independent(C=1.0, master_seed=31),
        FieldSpec.m_dependent(1, C=1.0, master_seed=31),
        FieldSpec.branching_ar(0.8, C=1.0, master_seed=31),
    ):
        for region in (Generations(6), Strip(2, 3), Subtree(2, 3, 3)):
            sums = [region_sums(spec, region, 3, range(40), chunk=c) for c in (1, 7, 512)]
            assert np.array_equal(sums[0], sums[1]) and np.array_equal(sums[0], sums[2])


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
    monkeypatch.setattr(
        _fields, "_innovations", lambda seed, reps, js, ks: np.full((len(reps), len(js)), 1.5)
    )
    for spec in (
        FieldSpec.independent(C=1.0),
        FieldSpec.m_dependent(1, C=1.0),
        FieldSpec.branching_ar(0.5, C=1.0),
    ):
        with pytest.raises(AmplitudeError):
            field_values(spec, [NodeId(1, 1)], 2, range(3))
        with pytest.raises(RuntimeError):
            region_sums(spec, Generations(3), 2, range(3))
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
