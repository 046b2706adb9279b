"""A quick tour of the stable representation ring.

Classes are indexed by partitions of any size; the product of two classes
expands with reduced Kronecker coefficients and always has finite support.
A product is a {partition: coefficient} dict: a single class p is {p: 1}.
Below the top degree each coefficient is the stable value of a padded
Kronecker sequence, which increases monotonically to it; the top degree,
|nu| = |lam| + |mu|, is a Littlewood-Richardson coefficient.
"""

from kroncave import (
    canonical_key,
    format_partition,
    kronecker_sequence,
    reduced_tensor_decompose,
    stable_ring_compare,
    stable_ring_multiply,
)


def show(product):
    for nu in sorted(product, key=canonical_key):
        print(f"  {format_partition(nu):>4}  {product[nu]}")


one = {(): 1}
std = {(1,): 1}

print("the square of the standard class [1]:")
square = stable_ring_multiply(std, std)
show(square)

print("\nits cube, associating either way:")
left = stable_ring_multiply(square, std)
right = stable_ring_multiply(std, square)
assert left == right
show(left)

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
