"""A quick tour of the stable representation ring.

Classes are indexed by partitions of any size; the product of two classes
expands with reduced Kronecker coefficients and always has finite support.
Padded sequences increase monotonically to their stable value, which is how
every product here is computed.
"""

from kroncave import (
    VirtualRep,
    format_partition,
    kronecker_sequence,
    reduced_tensor_decompose,
    stable_ring_compare,
    stable_ring_multiply,
)

one = VirtualRep.single(())
std = VirtualRep.single((1,))

print("the square of the standard class [1]:")
square = stable_ring_multiply(std, std)
for nu, c in square.items():
    print(f"  {format_partition(nu):>4}  {c}")

print("\nits cube, associating either way:")
left = stable_ring_multiply(square, std)
right = stable_ring_multiply(std, square)
assert left == right
for nu, c in left.items():
    print(f"  {format_partition(nu):>4}  {c}")

print("\nmultiplying by the unit class changes nothing:", stable_ring_multiply(left, one) == left)

print("\npadded sequence behind one coefficient, triple ((1),(1),(1)):")
values = kronecker_sequence((1,), (1,), (1,), range(2, 8))
print("  d=2..7 ->", values, "(weakly increasing, stable value 1)")

print("\ncomparison in the ring order:")
a = reduced_tensor_decompose((2,), (1,))
b = reduced_tensor_decompose((1,), (1,))
result = stable_ring_compare(a, b)
print(f"  [2]*[1] vs [1]*[1]: {result.verdict}")
print(f"  witnesses against the first dominating: {[format_partition(p) for p in result.negative]}")
print(f"  witnesses against the second dominating: {[format_partition(p) for p in result.positive]}")
