import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexcode import linalg
from indexcode.linalg import (
    in_span,
    is_prime,
    nullspace,
    random_nonzero_vector,
    random_subspace_basis,
    random_vector,
    random_vector_in_span,
)
from reference import rank

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_rank_dependent_triple_gf2():
    assert rank([E1, E2, (1, 1, 0)], 2) == 2


def test_rank_empty_list_is_zero():
    assert rank([], 2) == 0
    assert rank([], 1009) == 0


def test_rank_independent_seeded_vectors_gf1009():
    rng = random.Random(20240917)
    vs = [random_vector(3, 1009, rng) for _ in range(3)]
    # oracle: determinant mod p
    a, b, c = vs
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    ) % 1009
    assert det != 0
    assert rank(vs, 1009) == 3


def test_rank_invariant_under_order_and_scaling():
    rng = random.Random(5)
    vs = [random_vector(4, 7, rng) for _ in range(3)]
    scaled = [tuple((3 * x) % 7 for x in v) for v in reversed(vs)]
    assert rank(vs, 7) == rank(scaled, 7)


def test_rank_mixed_lengths_rejected():
    with pytest.raises(linalg.LinalgError):
        rank([(1, 0), (1, 0, 0)], 2)


def test_in_span_zero_vector_always():
    assert in_span((0, 0, 0), [], 5)
    assert in_span((0, 0, 0), [E1], 5)


def test_in_span_unit_vectors():
    assert not in_span(E3, [E1, E2], 2)
    assert in_span((2, 3, 0), [E1, E2], 5)


def test_in_span_closed_under_combinations():
    rng = random.Random(11)
    p = 1009
    vs = [random_vector(3, p, rng) for _ in range(2)]
    v, w = vs
    for _ in range(20):
        a, b = rng.randrange(p), rng.randrange(p)
        combo = tuple((a * x + b * y) % p for x, y in zip(v, w))
        assert in_span(combo, vs, p)


def test_random_vector_deterministic():
    assert random_vector(3, 2**31 - 1, random.Random(99)) == random_vector(
        3, 2**31 - 1, random.Random(99)
    )
    # entries and span coefficients come left to right from rng.randrange(p)
    p, rng, ref = 2**31 - 1, random.Random(99), random.Random(99)
    assert random_vector(3, p, rng) == tuple(ref.randrange(p) for _ in range(3))
    basis = ((1, 2, 3), (4, 5, 6))
    a, b = ref.randrange(p), ref.randrange(p)
    assert random_vector_in_span(basis, p, rng) == tuple((a * x + b * y) % p for x, y in zip(*basis))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 1009, 2**31 - 1, 2**61 - 1, True])
def test_draws_are_randrange_s_stream(p):
    # entries and coefficients are drawn with getrandbits as randrange draws
    # them, so the values and the generator's state afterwards are its own
    basis = ((1, 2, 3), (4, 5, 6))
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        assert random_vector(5, p, rng) == tuple(ref.randrange(p) for _ in range(5))
        assert rng.getstate() == ref.getstate()
        for _ in range(linalg._MAX_DRAWS):  # a zero combination is drawn again
            a, b = ref.randrange(p), ref.randrange(p)
            expected = tuple((a * x + b * y) % p for x, y in zip(*basis))
            if any(expected):
                assert random_vector_in_span(basis, p, rng) == expected
                break
        else:  # GF(1) has no nonzero vector
            with pytest.raises(linalg.LinalgError):
                random_vector_in_span(basis, p, rng)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("p", [0, -7])
def test_draws_below_one_raise_randrange_s_error(p):
    with pytest.raises(ValueError) as theirs:
        random.Random(0).randrange(p)
    for draw in (lambda rng: random_vector(3, p, rng), lambda rng: random_vector_in_span(((1, 2),), p, rng)):
        rng = random.Random(0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(theirs.value))}$") as ours:
            draw(rng)
        assert type(ours.value) is type(theirs.value)
        assert rng.getstate() == random.Random(0).getstate()  # no draw was made


def test_random_subspace_basis_has_requested_rank():
    for seed in range(10):
        basis = random_subspace_basis(3, 2, 1009, random.Random(seed))
        assert len(basis) == 2
        assert rank(basis, 1009) == 2


def test_random_subspace_basis_bad_dim():
    with pytest.raises(linalg.LinalgError):
        random_subspace_basis(3, 4, 5, random.Random(0))


@pytest.mark.parametrize(
    "draw, error",
    [
        (lambda rng: random_nonzero_vector(3, 1, rng), "no nonzero vector"),
        (lambda rng: random_subspace_basis(3, 1, 1, rng), "no rank-1 basis"),
        (lambda rng: random_vector_in_span(((1, 0, 0),), 1, rng), "no nonzero span vector"),
    ],
    ids=["nonzero-vector", "subspace-basis", "vector-in-span"],
)
def test_draws_give_up_after_64_tries(draw, error):
    # modulo 1 every vector is zero, so no draw can succeed
    with pytest.raises(linalg.LinalgError, match=rf"^{error} after 64 draws \(p=1\)$"):
        draw(random.Random(0))


def test_random_vector_zero_fraction_tiny():
    rng = random.Random(123)
    zeros = sum(1 for _ in range(10_000) if not any(random_vector(3, 1009, rng)))
    assert zeros == 0  # expectation ~1e-9 per draw


def test_random_vector_in_span_stays_in_span():
    rng = random.Random(3)
    basis = random_subspace_basis(3, 2, 1009, rng)
    for _ in range(50):
        v = random_vector_in_span(basis, 1009, rng)
        assert any(v)
        assert in_span(v, basis, 1009)


def test_nullspace_annihilates_rows():
    rng = random.Random(8)
    rows = [random_vector(4, 7, rng) for _ in range(2)]
    for u in nullspace(rows, 4, 7):
        assert all(sum(a * b for a, b in zip(row, u)) % 7 == 0 for row in rows)
    assert len(nullspace(rows, 4, 7)) == 4 - rank(rows, 7)


@given(
    st.sampled_from((2, 3, 5, linalg.DEFAULT_PRIME)).flatmap(
        lambda p: st.integers(1, 4).flatmap(
            lambda length: st.tuples(
                st.just(p), st.just(length), st.lists(st.tuples(*[st.integers(-2 * p, 2 * p)] * length), max_size=6)
            )
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_nullspace_is_a_basis_of_the_annihilator(case):
    # rows may repeat, depend on each other, be zero or hold entries outside [0, p)
    p, length, rows = case
    basis = nullspace(rows, length, p)
    assert len(basis) == length - rank(rows, p)
    assert rank(basis, p) == len(basis)
    for u in basis:
        assert all(0 <= x < p for x in u)
        assert all(sum(a * b for a, b in zip(row, u)) % p == 0 for row in rows)


def test_nullspace_basis_row_for_row():
    # the first row (2, 3, 0) gives d0 * e_1 - 3 * e_0 and e_2; the second
    # row meets both, so the first is the pivot and the other becomes
    # 2 * e_2 - 1 * (4, 2, 0)
    assert nullspace([(2, 3, 0)], 3, 7) == [(4, 2, 0), (0, 0, 1)]
    assert nullspace([(0, 0, 0), (2, 3, 0), (4, 6, 0), (0, 1, 1)], 3, 7) == [(3, 5, 2)]
    assert nullspace([(7, 14)], 2, 7) == [(1, 0), (0, 1)]


def test_nullspace_rejects_rows_of_another_length():
    with pytest.raises(linalg.LinalgError, match="length 3"):
        nullspace([E1, (1, 0)], 3, 7)


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(1009) and is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(4) and not is_prime(2047)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    by_trial_division = [m for m in range(3000) if m > 1 and all(m % d for d in range(2, m))]
    assert [m for m in range(3000) if is_prime(m)] == by_trial_division


# --- dimension-chain equivalence ----------------------------------------------


def make_chain(rng, k, n_sets, inflate, p=1009, length=3):
    """Chain of vector sets whose consecutive intersections span exactly k dims.

    ``inflate`` lists the positions whose set gets an extra vector from
    outside the shared k-dimensional space.  All vectors are globally
    distinct so set intersections are exactly the shared groups.
    """
    base = random_subspace_basis(length, k, p, rng)
    seen = set()

    def fresh(draw):
        while True:
            v = draw()
            if v not in seen:
                seen.add(v)
                return v

    def in_base():
        return random_vector_in_span(base, p, rng)

    def outside_base():
        while True:
            v = random_nonzero_vector(length, p, rng)
            if not in_span(v, base, p):
                return v

    def shared_group():
        while True:
            group = [fresh(in_base) for _ in range(k)]
            if rank(group, p) == k:
                return group
            seen.difference_update(group)

    groups = [shared_group() for _ in range(n_sets - 1)]
    sets = []
    for idx in range(n_sets):
        u = []
        if idx > 0:
            u += groups[idx - 1]
        if idx < n_sets - 1:
            u += groups[idx]
        if idx in inflate:
            u.append(fresh(outside_base))
        sets.append(u)
    return sets


@given(
    st.integers(0, 10_000),
    st.sampled_from([1, 2]),
    st.integers(2, 6),
)
@settings(max_examples=60, deadline=None)
def test_dimension_chain_equivalence(seed, k, n_sets):
    rng = random.Random(seed)
    inflate = {i for i in range(n_sets) if rng.random() < 0.3}
    sets = make_chain(rng, k, n_sets, inflate)
    for i in range(n_sets - 1):
        inter = [v for v in sets[i] if v in set(sets[i + 1])]
        assert rank(inter, 1009) == k
    union_rank = rank([v for u in sets for v in u], 1009)
    all_k = all(rank(u, 1009) == k for u in sets)
    assert (union_rank == k) == all_k
    if not all_k:
        assert union_rank > k
