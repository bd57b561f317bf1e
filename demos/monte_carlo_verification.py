"""Monte Carlo tails against the bounds they must respect.

For certified envelopes (independent, m-dependent) a violation flag is
raised only when the exact-binomial 99% lower confidence limit of the
empirical tail exceeds a bound that is below 1.  The heuristic envelope of
the branching autoregression cannot certify anything, so its estimates
carry an uncertified marker instead.
"""

from treebound import (
    FieldSpec,
    Generations,
    GridSpec,
    MixingEnvelope,
    Strip,
    StripParams,
    mc_tail,
    optimize_params,
)

A = 2

print("strip(5, 3), independent field, optimizer-chosen knobs, 10000 replicates:")
field = FieldSpec.independent(C=1.0, master_seed=11)
grid = GridSpec(p2_values=(2, 3, 4, 6, 8), q2_values=(2, 3, 4, 6, 8))
chosen = optimize_params(A, 5, 3, 1.0, 1 / 3, MixingEnvelope.zero(), 130.0, grid)
params = StripParams(chosen.P2, chosen.Q2, chosen.beta)
print("   eps    exceed   p_hat     lo99      up99      bound     violated")
for t in mc_tail(field, Strip(5, 3), A, [120, 140, 160, 180, 200], 10_000,
                 bound_params=params):
    import math
    print(f"  {t.epsilon:6.1f}  {t.n_exceed:6d}   {t.p_hat:.5f}  {t.ci_lower_99:.6f}"
          f"  {t.ci_upper_99:.6f}  {math.exp(t.log_bound):8.4f}  {t.violated}")

print("\ngenerations(10), m-dependent field, normalized statistic:")
field = FieldSpec.m_dependent(1, C=1.0, master_seed=12)
for t in mc_tail(field, Generations(10), A, [0.3, 0.5, 0.7, 0.9], 10_000):
    print(f"  eps {t.epsilon:.1f}: exceed {t.n_exceed}, log bound {t.log_bound:+.3f}, "
          f"violated {t.violated}")

print("\nbranching autoregression: the envelope is heuristic, nothing certifies:")
field = FieldSpec.branching_ar(0.8, C=1.0, master_seed=13)
for t in mc_tail(field, Generations(8), A, [0.5], 2_000):
    print(f"  eps {t.epsilon:.1f}: certified {t.certified}, violated {t.violated} "
          f"(uncertified marker)")
