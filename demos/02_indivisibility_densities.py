#!/usr/bin/env python3
"""Average 3-rank statistics and the 5/6 indivisibility bound.

Over the progression D = 1 (mod 4), the average of 3^r3 across positive
fundamental discriminants tends to 4/3 (Nakagawa-Horie); a short counting
argument turns that into: at least 5/6 of these fields have class number
not divisible by 3. Convergence is slow, so at desk scale the average sits
visibly below 4/3 while the indivisibility ratio sits comfortably above 5/6.

Run:  python3 demos/02_indivisibility_densities.py   (about 5 seconds)
"""

from quadclass import experiments, families

X = 3 * 10**4
fam = families.validate(1, 4, 0, "nh")
print(f"family: D = {fam.m} (mod {fam.N}), X up to {X}\n")

cache = experiments.ClassTable()  # class data shared by both surveys
rep = experiments.indivisibility_density(X, fam, [10**3, 10**4, X], cache=cache)

print(f"{'X':>8} {'|S+|':>7} {'avg 3^r3':>10} {'3 does not divide h':>20}")
for cp in rep.checkpoints:
    print(f"{cp.x:>8} {cp.sets.S_plus:>7} {cp.nh_average:>10.4f} {cp.ratio_L:>20.4f}")
print(f"{'limit':>8} {'':>7} {4 / 3:>10.4f} {'>= ' + format(5 / 6, '.4f'):>20}")

print()
print("The bound comes from the inequality 2 * #(r3 = 0) >= 3 |S+| - sum 3^r3,")
print("which holds exactly at every checkpoint:")
for cp in rep.checkpoints:
    print(f"  X = {cp.x:>6}:  {cp.lemma_lhs:.4f} >= {cp.lemma_rhs:.4f}")

print()
print("Imaginary fields obey a weaker bound (at least 1/2):")
imag = experiments.imaginary_density(X, fam, [10**3, 10**4, X], cache=cache)
for cp in imag.checkpoints:
    print(f"  X = {cp.x:>6}:  |S-| = {cp.sets.S_plus:>6}, ratio = {cp.ratio_L:.4f}")
