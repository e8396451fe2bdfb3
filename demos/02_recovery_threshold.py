"""Where exact recovery becomes possible: the divergence threshold.

For each pair of communities the model defines a best-tilting divergence;
the minimum over pairs is the phase boundary.  Below 1 exact recovery is
information-theoretically impossible; above 1 the two-stage pipelines
recover every label with high probability.  Known closed forms drop out as
special cases.
"""

import math

import hypersbm as hs

alpha = (0.5, 0.5)

# graph case: two symmetric communities, within-rate a, cross-rate b.
# The classical threshold is (sqrt(a) - sqrt(b))^2 / 2.
a, b = 9.0, 1.0
coeffs = hs.two_level_coefficients(2, {2: a}, {2: b})
finite = hs.chernoff_hellinger(alpha, coeffs, 10**6)
asym = hs.chernoff_hellinger(alpha, coeffs, 10**6, weights="asymptotic")
closed = 0.5 * (math.sqrt(a) - math.sqrt(b)) ** 2
print(f"graph a={a} b={b}: finite {finite.value:.6f}, "
      f"asymptotic {asym.value:.6f}, closed form {closed:.6f}")

# triple layer: threshold 2^-(m-1) (sqrt(a) - sqrt(b))^2
a3, b3 = 20.0, 4.0
coeffs3 = hs.two_level_coefficients(2, {3: a3}, {3: b3})
val = hs.chernoff_hellinger(alpha, coeffs3, 10**6).value
closed3 = 0.25 * (math.sqrt(a3) - math.sqrt(b3)) ** 2
print(f"triples a={a3} b={b3}: finite {val:.6f}, closed form {closed3:.6f}")

# the two layers together: the objectives add, so information aggregates
both = {**coeffs, **coeffs3}
print(f"both layers: {hs.chernoff_hellinger(alpha, both, 10**6).value:.6f} "
      f"~ {closed + closed3:.6f}")

# sweep the within-rate through the boundary and classify each model
print("\nwithin-rate sweep at n=500 (cross fixed at 2):")
for a in (4, 6, 8, 10, 12):
    cf = hs.two_level_coefficients(2, {2: float(a)}, {2: 2.0})
    rep = hs.chernoff_hellinger(alpha, cf, 500)
    pair = rep.pairs[0]
    print(f"  a={a:2d}: divergence {rep.value:.3f} at t*={pair.t_star:.3f}"
          f" -> {hs.classify_regime(rep.value)}")

# three communities: the minimum over pairs is what matters
coeffsk = hs.two_level_coefficients(3, {2: 14.0}, {2: 2.0})
rep = hs.chernoff_hellinger((1 / 3,) * 3, coeffsk, 2000)
print("\nthree symmetric communities:")
for p in rep.pairs:
    print(f"  pair {p.j}-{p.k}: {p.value:.4f}")
print(f"  minimum {rep.value:.4f} at pair {rep.argmin}")
