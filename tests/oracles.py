"""Reference enumeration shared by the tests, independent of pchaos's index
code: the chaos terms straight from itertools."""

from itertools import combinations, product

from pchaos import ChaosTerm


def chaos_terms(p: int, d: int, N: int) -> list[ChaosTerm]:
    """Every order-d chaos term with positions in 0..N, lexicographic in
    (positions, exponents): C(N+1, d) (p-1)^d of them."""
    return [
        ChaosTerm(ks, ls)
        for ks in combinations(range(N + 1), d)
        for ls in product(range(1, p), repeat=d)
    ]
