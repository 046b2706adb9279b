"""Why squared midpoints can fail at fixed group size.

The pair (4,4), (2,2,2,2) in S_8 has exact midpoint (3,3,1,1). If tensor
squares of midpoints dominated products, every coefficient of

    [3,3,1,1] (x) [3,3,1,1]  -  [4,4] (x) [2,2,2,2]

would be nonnegative. Expanding the difference exactly shows a single -1,
sitting on the one-column class: the sign representation witnesses the
failure.
"""

from kroncave import check_payload, format_partition, midpoint, tensor_decompose

lam, mu = (4, 4), (2, 2, 2, 2)
mid = midpoint(lam, mu)
print(f"midpoint of {format_partition(lam)} and {format_partition(mu)}: {format_partition(mid)}")

diff = tensor_decompose(mid, mid) - tensor_decompose(lam, mu)
print("\nsquared midpoint minus product, all 22 classes of S_8:")
for nu, coeff in diff.items():
    marker = "   <-- negative" if coeff < 0 else ""
    print(f"  {format_partition(nu):>18}  {coeff:+d}{marker}")

report = check_payload("midpoint_kronecker", (lam, mu))
print(f"\ncheck verdict: {len(report.violations)} violation(s)")
for v in report.violations:
    print(f"  target {v.nu}: midpoint side {v.lhs} < product side {v.rhs}")

print("\nThe same comparison in S_10 for (6,4) vs (2,2,2,2,2):")
report = check_payload("midpoint_kronecker", ((6, 4), (2, 2, 2, 2, 2)))
for v in report.violations:
    print(f"  target {v.nu}: {v.lhs} < {v.rhs}")
