"""Seeded corpus generators used by the test suites.

Problems are assembled from independent blocks.  Within a block, each
receiver is specified by (demanded message, intended interferers); side
information is then "everything else", so the interfering set comes out
exactly as written and blocks cannot interfere with each other.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from indexcode.problem import Problem, Receiver, interfering_set, random_problem

Spec = tuple[int, frozenset[int]]  # (demand, interferers)


def hyperedges(p: Problem) -> frozenset[tuple[int, frozenset[int]]]:
    """The conflict hypergraph from its definition: the distinct nonempty
    (k, Interf_k(j)) over every receiver j and demand k."""
    return frozenset(
        (k, interf)
        for j, r in enumerate(p.receivers, start=1)
        for k in r.demands
        if (interf := interfering_set(p, j, k))
    )


def build_from_specs(n: int, specs: list[Spec]) -> Problem:
    receivers = []
    everything = set(range(1, n + 1))
    for demand, interferers in specs:
        side = everything - {demand} - set(interferers)
        receivers.append(Receiver(demands=frozenset({demand}), side_info=frozenset(side)))
    return Problem(n=n, receivers=tuple(receivers))


def _block_singleton(ids: list[int]) -> list[Spec]:
    (m,) = ids
    return [(m, frozenset())]


def _block_pair(ids: list[int]) -> list[Spec]:
    # alignment set {a, b} with no internal conflicts (kind-1)
    a, b, x = ids
    return [(x, frozenset({a, b})), (a, frozenset()), (b, frozenset())]


def _block_kind2(ids: list[int]) -> list[Spec]:
    # three conflict-free messages co-interfering at an outside receiver
    a, b, c, x = ids
    return [(x, frozenset({a, b, c})), (a, frozenset()), (b, frozenset()), (c, frozenset())]


def _block_type2_clean_single(ids: list[int]) -> list[Spec]:
    # one triangular interfering set {a,b,c} with conflict {a,b}; the
    # restriction to {a,b,c} has singleton interference only
    a, b, c, x = ids
    return [
        (x, frozenset({a, b, c})),
        (a, frozenset({b})),
        (b, frozenset()),
        (c, frozenset()),
    ]


def _block_type2_clean_chain(ids: list[int]) -> list[Spec]:
    # two triangles {a,b,c} and {b,c,d} meeting at the conflict pair {b,c}
    a, b, c, d, x1, x2 = ids
    return [
        (x1, frozenset({a, b, c})),
        (x2, frozenset({b, c, d})),
        (b, frozenset({c})),
        (a, frozenset()),
        (c, frozenset()),
        (d, frozenset()),
    ]


_BLOCKS = [
    (1, _block_singleton),
    (3, _block_pair),
    (4, _block_kind2),
    (4, _block_type2_clean_single),
    (6, _block_type2_clean_chain),
]


def random_constructible_problem(seed: int) -> Problem:
    """Problem built only from blocks the rate-1/3 construction covers."""
    rng = random.Random(f"constructible:{seed}")
    n_blocks = rng.randint(1, 3)
    specs: list[Spec] = []
    next_id = 1
    for _ in range(n_blocks):
        size, block = _BLOCKS[rng.randrange(len(_BLOCKS))]
        ids = list(range(next_id, next_id + size))
        next_id += size
        specs.extend(block(ids))
    return build_from_specs(next_id - 1, specs)


def random_unicast_problem(seed: int, max_n: int = 6) -> Problem:
    rng = random.Random(f"unicast:{seed}")
    n = rng.randint(1, max_n)
    density = rng.choice([0.1, 0.25, 0.4, 0.55, 0.7, 0.85])
    return random_problem(n, density, single_unicast=True, seed=seed)


def random_groupcast_problem(seed: int, max_n: int = 6) -> Problem:
    rng = random.Random(f"groupcast:{seed}")
    n = rng.randint(1, max_n)
    density = rng.choice([0.1, 0.25, 0.4, 0.55, 0.7, 0.85])
    return random_problem(n, density, single_unicast=False, seed=seed)


def every_unicast_problem(n: int) -> list[Problem]:
    """Every labelled unicast problem on n messages, 2^(n(n-1)) in all:
    receiver j demands message j and holds any subset of the others."""
    sides = [
        [frozenset(c) for size in range(n) for c in combinations(range(1, n + 1), size) if j not in c]
        for j in range(1, n + 1)
    ]
    return [
        Problem(n, tuple(Receiver(frozenset({j}), side) for j, side in enumerate(pick, start=1)))
        for pick in product(*sides)
    ]


def oracle_small_base() -> list[Problem]:
    """The 400 base problems of the benchmark's ``oracle-small`` workload, in
    its order: the unicast and the groupcast problem of each seed 0-199."""
    return [p for seed in range(200) for p in (random_unicast_problem(seed), random_groupcast_problem(seed))]


def shared_hypergraph_pair(seed: int, max_n: int = 5) -> tuple[Problem, Problem]:
    """Two problems with identical conflict hypergraphs.

    The twin permutes the receiver order and duplicates a few receivers,
    neither of which changes the hyperedge set.
    """
    rng = random.Random(f"pair:{seed}")
    n = rng.randint(2, max_n)
    density = rng.choice([0.2, 0.4, 0.6, 0.8])
    p1 = random_problem(n, density, single_unicast=True, seed=seed)
    receivers = list(p1.receivers)
    for _ in range(rng.randint(1, 3)):
        receivers.append(rng.choice(p1.receivers))
    rng.shuffle(receivers)
    return p1, Problem(n=n, receivers=tuple(receivers))
