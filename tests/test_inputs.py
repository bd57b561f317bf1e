"""One input rule across the package: every public call given a malformed
scalar (a float or ``bool`` where an integer belongs, a ``str``, NaN or an
infinity where a finite real belongs, or a value out of range) ends in
:class:`ValidationError` or :class:`CapacityError`, never in a raw
exception or an answer."""

import math

import numpy as np
import pytest

from treebound import (
    AlphaSamplePlan,
    CapacityError,
    EventPair,
    FieldSpec,
    FiniteSpace,
    Generations,
    LatticeMap,
    MixingEnvelope,
    NodeId,
    Strip,
    Subtree,
    ValidationError,
    ancestor,
    asymptotic_fit,
    binomial_lower_99,
    binomial_upper_99,
    breadth_first_row_layout,
    davydov_check,
    empirical_alpha_lower,
    mc_tail,
    mixing_transfer,
    packed_layout,
    refutation_witness,
    region_arrays,
    region_node_count,
    region_nodes,
    region_plan,
    region_sums,
    sample_field,
    tail_bounds,
    total_ordered_pairs,
)

_SPEC = FieldSpec.independent(C=1.0, master_seed=0)
_ROW = breadth_first_row_layout(2, 3, 2)
_PLAN = AlphaSamplePlan(pairs=(EventPair((NodeId(2, 1),), (NodeId(2, 4),)),), n_replicates=200)
_FIT = [(4, -1.0), (8, -2.0), (16, -3.5), (32, -6.0)]
_BAD_REGIONS = [Strip(1.5, 2), Strip(1, 2.0), Generations(2.0), Generations(True),
                Subtree(1, 1, 2.5), Subtree(1.0, 1, 2), Subtree(1, True, 2)]

_CALLS = {
    **{f"region_arrays-{r}": (lambda r=r: region_arrays(r, 2)) for r in _BAD_REGIONS},
    **{f"sample_field-{r}": (lambda r=r: sample_field(_SPEC, r, 2, 0)) for r in _BAD_REGIONS},
    **{f"region_sums-{r}": (lambda r=r: region_sums(_SPEC, r, 2, [0])) for r in _BAD_REGIONS},
    **{f"region_plan-{r}": (lambda r=r: region_plan(_SPEC, r, 2)) for r in _BAD_REGIONS},
    "region_plan-rate": lambda: region_plan(_SPEC, Generations(3), 2.0),
    **{f"region_node_count-{r}": (lambda r=r: region_node_count(r, 2)) for r in _BAD_REGIONS},
    "region_nodes-cap": lambda: list(region_nodes(Generations(3), 2, cap=2.5)),
    "mc_tail-workers-float": lambda: mc_tail(_SPEC, Strip(3, 2), 2, [1.0], 200, workers=2.5),
    "mc_tail-workers-bool": lambda: mc_tail(_SPEC, Strip(3, 2), 2, [1.0], 200, workers=True),
    "mc_tail-replicates": lambda: mc_tail(_SPEC, Strip(3, 2), 2, [1.0], 100.5),
    "mc_tail-epsilon-str": lambda: mc_tail(_SPEC, Strip(3, 2), 2, [1.0, "2"], 200),
    "tail_bounds-epsilon-str": lambda: tail_bounds(_SPEC, Strip(3, 2), 2, [1.0, "2"]),
    "tail_bounds-eta-on-a-strip": lambda: tail_bounds(_SPEC, Strip(3, 2), 2, [1.0], eta=0.5),
    "tail_bounds-D-nan": lambda: tail_bounds(_SPEC, Generations(6), 2, [0.5], D=math.nan),
    "binomial_upper-k": lambda: binomial_upper_99(1.5, 10),
    "binomial_lower-n": lambda: binomial_lower_99(1, 10.0),
    "binomial_upper-k-past-n": lambda: binomial_upper_99(11, 10),
    "refutation-k_max": lambda: refutation_witness(2, _ROW, 1.0, 2.5),
    "refutation-C-nan": lambda: refutation_witness(2, _ROW, math.nan, 3),
    "refutation-C-inf": lambda: refutation_witness(2, _ROW, math.inf, 3),
    "refutation-cap": lambda: refutation_witness(2, _ROW, 1.0, 3, cap="big"),
    "row_layout-depth": lambda: breadth_first_row_layout(2, 2.5, 2),
    "row_layout-dim-float": lambda: breadth_first_row_layout(2, 2, 2.0),
    "packed_layout-dim": lambda: packed_layout(2, 3, 1.5),
    "lattice_map-dim": lambda: LatticeMap(2.0, _ROW.js, _ROW.ks, _ROW.points),
    "field-C-str": lambda: FieldSpec.independent(C="1"),
    "field-C-bool": lambda: FieldSpec.independent(C=True),
    "field-a-str": lambda: FieldSpec.branching_ar("0.5"),
    "field-seed-float": lambda: FieldSpec.independent(master_seed=1.0),
    "transfer-C-nan": lambda: mixing_transfer(MixingEnvelope.zero(), math.nan),
    "transfer-C-inf": lambda: mixing_transfer(MixingEnvelope.zero(), math.inf),
    "envelope-scale-nan": lambda: MixingEnvelope(
        kind="transferred", provenance="assumed", inner=MixingEnvelope.zero(), scale=math.nan),
    "envelope-table-str": lambda: MixingEnvelope(kind="table", provenance="heuristic",
                                                 values=("0.25",)),
    "ancestor-steps-float": lambda: ancestor(NodeId(3, 2), 2, 1.5),
    "ancestor-steps-bool": lambda: ancestor(NodeId(3, 2), 2, True),
    "node-j-float": lambda: NodeId(1.0, 1),
    "node-k-past-labels": lambda: NodeId(1, 2**63),
    "total_pairs-P-bool": lambda: total_ordered_pairs(2, True),
    "alpha_lower-n": lambda: empirical_alpha_lower(_SPEC, 2, 1.5, _PLAN),
    **{f"alpha_lower-threshold_{side}-{value!r}": (
        lambda side=side, value=value: empirical_alpha_lower(_SPEC, 2, 1, AlphaSamplePlan(
            pairs=(EventPair((NodeId(2, 1),), (NodeId(2, 4),), **{f"threshold_{side}": value}),),
            n_replicates=200)))
       for side in "ab" for value in (math.nan, math.inf, "0.5", True)},
    "fit-L": lambda: asymptotic_fit([(2.5, -0.5)] + _FIT, 1.0),
    "fit-log-bound": lambda: asymptotic_fit(_FIT + [(64, math.nan)], 1.0),
    "finite_space-probs-str": lambda: FiniteSpace.build(
        ["a", 0.5], [[0], [1]], [[0], [1]], [1, -1], [1, -1]),
    "finite_space-xi-str": lambda: FiniteSpace(
        [0.5, 0.5], [0, 1], [0, 1], ["x", 1], [1, -1]),
    "finite_space-eta-complex": lambda: FiniteSpace(
        [0.5, 0.5], [0, 1], [0, 1], [1, -1], [1j, -1]),
    "davydov-exponent-str": lambda: davydov_check(
        FiniteSpace([0.5, 0.5], [0, 1], [0, 1], [1, -1], [1, -1]), "4", 4, 2),
}


@pytest.mark.parametrize("call", _CALLS.values(), ids=_CALLS.keys())
def test_malformed_scalars_end_in_library_errors(call):
    with pytest.raises((ValidationError, CapacityError)):
        call()


def test_one_message_names_every_bad_value():
    with pytest.raises(ValidationError) as info:
        mc_tail(_SPEC, Strip(3, 2), 2, [1.0, math.nan], 99.5, workers=0)
    message = str(info.value)
    for name in ("n_replicates = 99.5", "workers = 0", "epsilon[1] = nan"):
        assert name in message


@pytest.mark.parametrize("name", ["probs", "xi", "eta"])
def test_non_numeric_finite_space_names_the_array(name):
    values = {"probs": [0.5, 0.5], "xi": [1, -1], "eta": [1, -1]}
    values[name] = ["a", 0.5]
    with pytest.raises(ValidationError, match=name):
        FiniteSpace.build(values["probs"], [[0], [1]], [[0], [1]], values["xi"], values["eta"])


def test_davydov_of_huge_values_has_no_nan():
    # the plain covariance is inf - inf here; a power-of-two scale keeps it exact
    space = FiniteSpace.build([0.5, 0.5], [[0], [1]], [[0], [1]], [1e200, 1e200], [1e200, 1e200])
    result = davydov_check(space, 4, 4, 2)
    assert result.lhs == 0.0 and result.holds
    # a covariance past float range reads inf, and the bound holds at inf
    space = FiniteSpace.build([0.5, 0.5], [[0], [1]], [[0], [1]], [1e200, -1e200], [1e200, -1e200])
    result = davydov_check(space, 4, 4, 2)
    assert result.lhs == math.inf and result.holds


def test_valid_scalars_of_other_numeric_types_still_pass():
    assert region_node_count(Generations(3), 2) == 7
    assert FieldSpec.independent(C=np.float64(2.0)).C == 2.0
    assert mixing_transfer(MixingEnvelope.zero(), 2)(5) == 0.0
    space = FiniteSpace([np.float32(0.5), 0.5], [0, 1], [0, 1], [1, -1], [1, -1])
    assert davydov_check(space, math.inf, 2, 2).holds
