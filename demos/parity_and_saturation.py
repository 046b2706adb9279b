"""Kronecker coefficients do not saturate.

For square shapes (N,N) the self-coefficient alternates with the parity of N,
so it vanishes at N=1 yet is positive at N=2: scaling a triple can create
multiplicity out of nothing. Reduced coefficients were long conjectured to be
immune; the column pair (1^8), (1^8) against (3,3) is the smallest member of
the family that finally broke that too (its nonzero scale is far beyond desk
size, so here we only watch the zero side).
"""

from kroncave import check_saturation, kronecker, reduced_hook, reduced_kronecker

print("g((N,N),(N,N),(N,N)) for N = 1..6:")
for n in range(1, 7):
    print(f"  N={n}: {kronecker((n, n), (n, n), (n, n))}")

print("\nsaturation probe on the smallest failing triple (1,1) x3:")
for k, nonzero in check_saturation((1, 1), (1, 1), (1, 1), 3, "kronecker"):
    print(f"  scale {k}: {'nonzero' if nonzero else 'zero'}")

print("\nreduced side: column pair (1^8),(1^8) against (3,3)")
print(f"  closed form : {reduced_hook(8, 8, (3, 3))}")
print(f"  character engine: {reduced_kronecker((1,) * 8, (1,) * 8, (3, 3))}")
print("  (the doubled triple is nonzero; `kroncave verify paper --stretch`")
print("   computes it from padded size 27, in about a second)")
