"""Brute-force oracles, deliberately independent of the library internals.

Each function here recomputes a quantity by direct enumeration so the library
implementations have something slower but simpler to be checked against.
"""

from functools import lru_cache
from itertools import permutations

from sympy.utilities.iterables import multiset_permutations


def standard_tableaux(shape):
    """All standard fillings of the shape, by backtracking."""
    n = sum(shape)
    rows = len(shape)
    grid = [[0] * shape[r] for r in range(rows)]

    def extend(value):
        if value > n:
            yield tuple(tuple(row) for row in grid)
            return
        for r in range(rows):
            # within a row, only the leftmost empty cell can take the next value
            c = next((cc for cc in range(shape[r]) if not grid[r][cc]), None)
            if c is None:
                continue
            if r and not (c < shape[r - 1] and grid[r - 1][c]):
                continue
            grid[r][c] = value
            yield from extend(value + 1)
            grid[r][c] = 0

    yield from extend(1)


def syt_count_bruteforce(shape):
    return sum(1 for _ in standard_tableaux(shape))


def _is_lattice(word):
    counts = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def lr_filling_count(lam, mu, nu):
    """Number of raw fillings the brute force must examine (multinomial)."""
    from math import factorial

    m = sum(mu)
    total = factorial(m)
    for x in mu:
        total //= factorial(x)
    return total


def lr_count_bruteforce(lam, mu, nu):
    """Enumerate every filling of nu/lam with content mu, filter all conditions."""
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if len(lam) > len(nu) or any(lam[i] > nu[i] for i in range(len(lam))):
        return 0
    rows = len(nu)
    inner = [lam[i] if i < len(lam) else 0 for i in range(rows)]
    cells = [(r, c) for r in range(rows) for c in range(inner[r], nu[r])]
    word = []
    for i, x in enumerate(mu):
        word.extend([i + 1] * x)
    count = 0
    for filling in multiset_permutations(word):
        grid = {}
        for cell, v in zip(cells, filling):
            grid[cell] = v
        ok = True
        for (r, c) in cells:
            v = grid[(r, c)]
            if (r, c + 1) in grid and grid[(r, c + 1)] < v:
                ok = False
                break
            if (r + 1, c) in grid and grid[(r + 1, c)] <= v:
                ok = False
                break
        if not ok:
            continue
        reading = [grid[(r, c)] for r in range(rows) for c in range(nu[r] - 1, inner[r] - 1, -1)]
        if _is_lattice(reading):
            count += 1
    return count


def gamma_reachable_points(x, y, a):
    """BFS over actual south-west / north-west step sequences, down to u >= a."""
    seen = {(x, y)}
    frontier = [(x, y)]
    while frontier:
        nxt = []
        for (u, v) in frontier:
            if u - 1 < a:
                continue
            for w in (v - 1, v + 1):
                if (u - 1, w) not in seen:
                    seen.add((u - 1, w))
                    nxt.append((u - 1, w))
        frontier = nxt
    return seen


def gamma_count_bruteforce(a, b, c, d, x, y):
    pts = gamma_reachable_points(x, y, a)
    return sum(
        1
        for (u, v) in pts
        if u >= 0 and v >= 0 and a <= u <= a + b and c <= v <= c + d
    )


def pairs_with_total(max_boxes, equal_sizes=False):
    """Unordered pairs with |lam| + |mu| <= max_boxes, canonical order, by
    testing every ordered pair of partitions."""
    from kroncave.partitions import canonical_key, partitions_of

    for total in range(max_boxes + 1):
        for a in range(total + 1):
            if equal_sizes and 2 * a != total:
                continue
            for lam in sorted(partitions_of(a)):
                for mu in sorted(partitions_of(total - a)):
                    if canonical_key(lam) <= canonical_key(mu):
                        yield lam, mu


def _inside(outer, n):
    """Partitions of n whose diagrams fit inside outer."""
    from kroncave.partitions import partitions_of

    return [
        p for p in partitions_of(n)
        if len(p) <= len(outer) and all(x <= y for x, y in zip(p, outer))
    ]


@lru_cache(maxsize=None)
def _triple_lr(outer, i, j):
    """{(x, y, z): c^outer_{x,y,z}} over |x| = i, |y| = j, |z| = |outer| - i - j.

    c^outer_{x,y,z} = sum over kappa of c^kappa_{x,y} c^outer_{kappa,z}.
    """
    from kroncave.coefficients import lr_coefficient

    out = {}
    for kappa in _inside(outer, i + j):
        for z in _inside(outer, sum(outer) - i - j):
            c_outer = lr_coefficient(kappa, z, outer)
            if not c_outer:
                continue
            for x in _inside(kappa, i):
                for y in _inside(kappa, j):
                    c = lr_coefficient(x, y, kappa)
                    if c:
                        out[x, y, z] = out.get((x, y, z), 0) + c * c_outer
    return out


def littlewood_reduced_kronecker(lam, mu, nu):
    """Reduced Kronecker coefficient by Littlewood's formula, with no padding.

    g-bar^nu_{lam,mu} = sum g_{delta,eps,zeta} c^lam_{delta,alpha,beta}
    c^mu_{eps,alpha,gamma} c^nu_{zeta,beta,gamma}, where delta, eps and zeta
    are partitions of one size s. The sizes are forced:
    s + 2|alpha| = |lam| + |mu| - |nu|, |beta| = |lam| - s - |alpha| and
    |gamma| = |mu| - s - |alpha|. Only the library's Kronecker coefficients
    at size s and its LR coefficients are used (Littlewood 1958, as restated
    by Briand, Orellana and Rosas, J. Algebra 2011).
    """
    from kroncave.coefficients import kronecker

    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    total = 0
    excess = sum(lam) + sum(mu) - sum(nu)
    for a in range(excess // 2 + 1):
        s = excess - 2 * a
        b, c = sum(lam) - s - a, sum(mu) - s - a
        if b < 0 or c < 0:
            continue
        by_alpha = {}
        for (eps, alpha, gamma), v in _triple_lr(mu, s, a).items():
            by_alpha.setdefault(alpha, []).append((eps, gamma, v))
        by_beta_gamma = {}
        for (zeta, beta, gamma), v in _triple_lr(nu, s, b).items():
            by_beta_gamma.setdefault((beta, gamma), []).append((zeta, v))
        for (delta, alpha, beta), v1 in _triple_lr(lam, s, a).items():
            for eps, gamma, v2 in by_alpha.get(alpha, ()):
                for zeta, v3 in by_beta_gamma.get((beta, gamma), ()):
                    total += kronecker(delta, eps, zeta) * v1 * v2 * v3
    return total


@lru_cache(maxsize=None)
def _multi_lr(outer, sizes):
    """{(rho^1, ..., rho^k): c^outer_{rho^1...rho^k}} over |rho^i| = sizes[i].

    c^outer_{rho^1...rho^k} is the coefficient of s_outer in the product
    s_{rho^1} ... s_{rho^k}; peeling off the last factor,
    c^outer_{rho^1...rho^k} = sum over kappa of c^kappa_{rho^1...rho^(k-1)}
    c^outer_{kappa,rho^k}.
    """
    from kroncave.coefficients import lr_coefficient

    if not sizes:
        return {(): 1}
    *head, last = sizes
    out = {}
    for kappa in _inside(outer, sum(outer) - last):
        for rho in _inside(outer, last):
            c = lr_coefficient(kappa, rho, outer)
            if not c:
                continue
            for rhos, v in _multi_lr(kappa, tuple(head)).items():
                key = rhos + (rho,)
                out[key] = out.get(key, 0) + v * c
    return out


def jacobi_trudi_kronecker(lam, mu, nu):
    """Kronecker coefficient g_{lam,mu,nu} from LR coefficients alone.

    Jacobi-Trudi expands s_mu = det(h_{mu_i - i + j}) = sum over permutations
    sigma of sgn(sigma) h_alpha, alpha_i = mu_i - i + sigma(i), and
    <s_lam * s_nu, h_alpha> = <s_lam * h_alpha, s_nu> = sum over rho of
    c^lam_rho c^nu_rho, with rho = (rho^1, ..., rho^k) and |rho^i| = alpha_i
    (Littlewood; Garsia and Remmel, Graphs Combin. 1985). No character is
    evaluated.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if not sum(lam) == sum(mu) == sum(nu):
        return 0
    k = len(mu)
    total = 0
    for sigma in permutations(range(k)):
        alpha = tuple(mu[i] - i + sigma[i] for i in range(k))
        if min(alpha, default=0) < 0:
            continue
        inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])
        left, right = _multi_lr(lam, alpha), _multi_lr(nu, alpha)
        inner = sum(v * right.get(rhos, 0) for rhos, v in left.items())
        total += -inner if inversions & 1 else inner
    return total


# The beta-list Murnaghan-Nakayama recursion the library used before its
# bitmask abacus, kept as a second character engine. Memo keys are
# (shape, cycles), one per (mask, cycles) key of the library's memo.


def _strip_removals(lam, t):
    """(sign, smaller shape) for every removable border strip of length t."""
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]  # strictly decreasing
    beta_set = set(beta)
    out = []
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for v in beta if nb < v < b)
        new_beta = sorted((v for v in beta if v != b), reverse=True)
        # re-insert nb keeping descending order
        pos = len(new_beta)
        for i, v in enumerate(new_beta):
            if v < nb:
                pos = i
                break
        new_beta.insert(pos, nb)
        shape = tuple(
            v - (m - 1 - i) for i, v in enumerate(new_beta) if v - (m - 1 - i) > 0
        )
        out.append((-1 if height % 2 else 1, shape))
    return out


def beta_list_character(lam, cycles, memo=None):
    """Character of the irreducible labelled lam on the class with these cycles.

    cycles must be sorted weakly decreasing and sum to |lam|. Pass a dict to
    memoize across calls; None evaluates the bare recursion.
    """
    if not lam:
        return 1
    key = (lam, cycles)
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            return hit
    t = cycles[0]
    rest = cycles[1:]
    total = 0
    for sign, shape in _strip_removals(lam, t):
        total += sign * beta_list_character(shape, rest, memo)
    if memo is not None:
        memo[key] = total
    return total


def class_sizes_bruteforce(n):
    """{cycle type: number of permutations of range(n) with it}, by enumeration."""
    counts = {}
    for perm in permutations(range(n)):
        seen = [False] * n
        lengths = []
        for start in range(n):
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
                length += 1
            if length:
                lengths.append(length)
        cycle_type = tuple(sorted(lengths, reverse=True))
        counts[cycle_type] = counts.get(cycle_type, 0) + 1
    return counts
