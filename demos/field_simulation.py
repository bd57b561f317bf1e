"""Three bounded, centered fields on the tree and their certificates.

Every value is produced by a counter-based generator keyed on
(master seed, replicate index, node), so a sample is a pure function of
those three things: re-running, re-ordering, chunking or parallelizing
never changes a bit.
"""

import numpy as np

from treebound import (
    FieldSpec,
    Generations,
    NodeId,
    field_certificate,
    field_values,
    sample_field,
)

region, A = Generations(6), 2

for spec in (
    FieldSpec.independent(C=1.0, master_seed=7),
    FieldSpec.m_dependent(1, C=1.0, master_seed=7),
    FieldSpec.branching_ar(0.8, C=1.0, master_seed=7),
):
    cert = field_certificate(spec)
    values = field_values(spec, [NodeId(3, 1)], A, range(20000))[:, 0]
    print(f"{spec.kind:13s} C = {cert.C}, sigma2 bound = {cert.sigma2:.4f}, "
          f"envelope = {cert.envelope.kind} ({cert.envelope.provenance})")
    print(f"{'':13s} sampled node (3,1): mean {values.mean():+.4f}, "
          f"var {values.var():.4f}, max |Z| {np.abs(values).max():.6f}")

print("\ndependence at a glance (20000 replicates, nodes (0,1) vs (1,1)):")
for spec in (
    FieldSpec.independent(C=1.0, master_seed=7),
    FieldSpec.m_dependent(1, C=1.0, master_seed=7),
    FieldSpec.branching_ar(0.8, C=1.0, master_seed=7),
):
    pair = field_values(spec, [NodeId(0, 1), NodeId(1, 1)], A, range(20000))
    r = np.corrcoef(pair[:, 0], pair[:, 1])[0, 1]
    print(f"  {spec.kind:13s} corr = {r:+.3f}")

first = sample_field(FieldSpec.m_dependent(1, C=1, master_seed=7), region, A, 5)
again = sample_field(FieldSpec.m_dependent(1, C=1, master_seed=7), region, A, 5)
print("\ndeterminism: two draws of replicate 5 on the region are identical:",
      all(np.array_equal(a, b) for a, b in zip(first, again)))
