"""Scalar references shared by the tests, independent of pchaos's index
code: the chaos terms straight from itertools, and a Paley index decoded
digit by digit."""

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


def paley_decode(n: int, p: int) -> ChaosTerm:
    """The term whose exponents are the nonzero base-p digits of the Paley
    index n > 0, read least significant first, one divmod per digit."""
    ks, ls, k = [], [], 0
    while n:
        n, l = divmod(n, p)
        if l:
            ks.append(k)
            ls.append(l)
        k += 1
    return ChaosTerm(tuple(ks), tuple(ls))
