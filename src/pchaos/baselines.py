"""Frozen regression baselines from the first verified run.

RATIO_BASELINES is keyed by (ensemble, p, d, N, trials, seed) and records
the statistics of committed reference configurations; reruns must stay
within MAX_DRIFT of them, and no observed max ratio may exceed the
recorded cap by more than the drift allowance. LEMMA1_C1_BOUND is a frozen
constant of the Riesz-product proof for d <= 3: the l1 norm of the
exponent selector's monomial coefficients, a J-independent bound on the
lemma1 variation, which a test pins against its own expansion of P.

Regenerate with:
    pchaos ensemble --p 2 --d 2 --N 8 --trials 200 --seed 42
    pchaos growth --p 3 --d 2 --N 3,5,7 --trials 100 --seed 42
and copy the printed row statistics here; values are filled by
scripts or by hand from the JSON reports, never edited ad hoc.
"""

MAX_DRIFT = 0.05

# l1 norm of the exponent selector's monomial coefficients, by order d.
LEMMA1_C1_BOUND: dict[int, float] = {
    1: 4.405504210643901,
    2: 250.16519396309175,
    3: 930781.818161924,
}

# (ensemble, p, d, N, trials, seed) -> frozen row statistics.
RATIO_BASELINES: dict[tuple, dict[str, float]] = {
    ("signs", 2, 2, 4, 200, 42): {
        "median_l1_ratio": 1.6666666666666667,
        "median_lq_ratio": 0.9372355419843137,
        "max_lq_ratio": 1.4058533129825128,
    },
    ("signs", 2, 2, 6, 200, 42): {
        "median_l1_ratio": 1.9090909090909092,
        "median_lq_ratio": 0.8918088665723,
        "max_lq_ratio": 1.089988614697,
    },
    ("signs", 2, 2, 8, 200, 42): {
        "median_l1_ratio": 2.0,
        "median_lq_ratio": 0.8164965809277261,
        "max_lq_ratio": 1.049781318335,
    },
    ("signs", 2, 2, 10, 200, 42): {
        "median_l1_ratio": 2.2,
        "median_lq_ratio": 0.8078523793767,
        "max_lq_ratio": 1.062963657072,
    },
    ("signs", 3, 2, 3, 100, 42): {
        "median_l1_ratio": 2.364790267586,
        "median_lq_ratio": 1.068414611962,
        "max_lq_ratio": 1.366117820423,
    },
    ("signs", 3, 2, 5, 100, 42): {
        "median_l1_ratio": 3.144854510167,
        "median_lq_ratio": 1.129959157027,
        "max_lq_ratio": 1.347390419855,
    },
    ("signs", 3, 2, 7, 100, 42): {
        "median_l1_ratio": 3.741685351177,
        "median_lq_ratio": 1.150171912989,
        "max_lq_ratio": 1.348309886917,
    },
}
