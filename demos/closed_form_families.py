"""Two families with closed forms, checked live against the character engine.

One-row pairs reduce to counting lattice points of a rectangle reachable by
south-west and north-west unit steps; one-column pairs reduce to a four-way
case split with values capped at 2. Both computations are instant, while the
engine behind them stabilizes padded character sums.
"""

from kroncave import (
    format_partition,
    partitions_of,
    reach_count,
    reduced_hook,
    reduced_kronecker,
    reduced_two_row,
)

print("reach count example: rectangle [2,4]x[1,3], source (4,2)")
count = reach_count(a=2, b=2, c=1, d=2, x=4, y=2)
print(f"  {count} reachable lattice points (the source counts itself)")

print("\nrow pair (2),(4): closed form vs engine over all targets up to 6 boxes")
for size in range(7):
    for nu in partitions_of(size):
        closed = reduced_two_row(2, 4, nu)
        if closed:
            engine = reduced_kronecker((2,), (4,), nu)
            print(f"  {format_partition(nu):>8}  closed={closed}  engine={engine}")

print("\ncolumn pair (1^2),(1^4): same comparison")
for size in range(7):
    for nu in partitions_of(size):
        closed = reduced_hook(2, 4, nu)
        if closed:
            engine = reduced_kronecker((1, 1), (1, 1, 1, 1), nu)
            print(f"  {format_partition(nu):>8}  closed={closed}  engine={engine}")

print("\nmoving a pair outward at constant total never helps: (3),(3) vs (1),(5)")
for size in range(7):
    for nu in partitions_of(size):
        near, far = reduced_two_row(3, 3, nu), reduced_two_row(1, 5, nu)
        if near or far:
            print(f"  {format_partition(nu):>8}  balanced={near}  spread={far}")
