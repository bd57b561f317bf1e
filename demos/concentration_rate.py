"""The whole-tree bound and its decay rate in the number of generations.

The first L generations split into a wedge (handled by a deterministic
indicator) and a bottom strip of depth P1 = floor(L**eta) on which the
strip bound applies with a derived block schedule.  For an independent
field the log-bound is linear in epsilon * L / log L once the schedule is
smooth; the fitted slope is an empirical stand-in for the rate constant,
which no closed form pins down.  The bound is a sum of logs of exact
integers, so the fit runs out to L = 10**5, where the tilt is about
2**-99684 and only its log is a float.
"""

import math

from treebound import (
    ConcentrationInput,
    MixingEnvelope,
    asymptotic_fit,
    concentration_bound,
    concentration_schedule,
)

eps = 3.0
base = dict(A=2, epsilon=eps, C=1.0, sigma2=1 / 3,
            envelope=MixingEnvelope.zero(), eta=0.2, D=1.0)

print("  L  P1    P2    beta        wedge  log bound")
series = []
for L in range(8, 17):
    inp = ConcentrationInput(L=L, **base)
    sched = concentration_schedule(inp)
    bb = concentration_bound(inp)
    series.append((L, bb.log_total))
    print(f" {L:2d}  {sched.P1}  {sched.P2:5d}  {math.exp(sched.log_beta):.3e}    "
          f"{bb.indicator_wedge}   {bb.log_total:+.4f}")

c1, c2, quality = asymptotic_fit(series, eps)
print(f"\nfit: log bound ~ log({c1:.3f}) - {c2:.4f} * eps * L / log L "
      f"(R^2 = {quality:.5f})")

print("\nwith the default schedule exponent 0.5 the derived strip depth jumps")
print("at L = 9 and L = 16, so the fit on 8-16 degrades; on later windows the")
print("slope c2 settles:")
print("\n  L window         points  c2      R^2")
for first, last, step in ((8, 16, 1), (20, 55, 5), (60, 180, 20), (200, 520, 40),
                          (600, 3000, 400), (4000, 20000, 4000), (20000, 100000, 20000)):
    window = range(first, last + 1, step)
    fit_series = [(L, concentration_bound(ConcentrationInput(L=L, **{**base, "eta": 0.5}))
                   .log_total) for L in window]
    _, c2, quality = asymptotic_fit(fit_series, eps)
    print(f"  {first:>6}-{last:<6}    {len(window):>2}     {c2:.4f}  {quality:.4f}")
