from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import random_unicast_problem
from indexcode.codec import ScalarLinearCode, verify
from indexcode.fixtures import load_fixture
from indexcode.oracle import (
    OracleCapError,
    conjecture_probe,
    exists_code,
    min_length,
    projective_points,
)
from indexcode.problem import Problem, Receiver, parse_problem, random_problem


def test_projective_points_counts():
    for q, length in [(2, 2), (2, 3), (3, 3), (5, 2)]:
        points = projective_points(q, length)
        assert len(points) == (q**length - 1) // (q - 1)
        assert len(set(points)) == len(points)
        assert all(v[next(i for i, x in enumerate(v) if x)] == 1 for v in points)


def test_ex_inf_no_length3_code_over_small_fields():
    p = load_fixture("ex_inf")
    for q in (2, 3):
        found, witness, _ = exists_code(p, q, 3)
        assert not found and witness is None


def test_ex_inf_length4_witness():
    p = load_fixture("ex_inf")
    found, witness, _ = exists_code(p, 2, 4)
    assert found
    assert verify(p, witness).ok
    # the hand-checkable assignment is itself valid
    e = lambda i: tuple(int(j == i) for j in range(4))
    by_hand = ScalarLinearCode(4, 2, (e(0), e(1), e(2), e(1), e(3), e(2)))
    assert verify(p, by_hand).ok


def test_conflict_free_min_length_one():
    p = random_problem(4, 1.0, seed=0)
    for q in (2, 3, 5):
        assert min_length(p, q).min_length == 1


def test_min_lengths_on_fixtures():
    assert min_length(load_fixture("ex_feas"), 2).min_length == 3
    for q in (2, 3):
        assert min_length(load_fixture("ex_inf"), q).min_length == 4
        assert min_length(load_fixture("ex1b"), q).min_length == 4
    # the first motivating problem admits a length-3 code (its type-2 set
    # is clean), despite having an internal conflict that forbids length 2
    assert min_length(load_fixture("ex1a"), 2).min_length == 3


def test_every_witness_verifies():
    for seed in range(30):
        p = random_unicast_problem(seed, max_n=5)
        result = min_length(p, 2, l_max=4)
        if result.witness is not None:
            assert verify(p, result.witness).ok


def test_exists_monotone_in_length():
    for seed in range(20):
        p = random_unicast_problem(seed, max_n=5)
        flags = [exists_code(p, 2, length)[0] for length in (1, 2, 3, 4)]
        for shorter, longer in zip(flags, flags[1:]):
            assert not shorter or longer


def test_caps_enforced():
    p = random_problem(4, 0.5, seed=1)
    with pytest.raises(OracleCapError):
        exists_code(p, 2, 5)
    with pytest.raises(OracleCapError):
        exists_code(p, 2, -1)
    with pytest.raises(OracleCapError):
        exists_code(p, 4, 2)
    big = random_problem(11, 0.5, seed=1)
    with pytest.raises(OracleCapError):
        exists_code(big, 2, 2)
    # the length cap binds on min_length too, before any search
    with pytest.raises(OracleCapError):
        min_length(p, 2, l_max=5)
    # so does the cap on the q^L vectors, before any table is built
    for q in (1009, 2**61 - 1):
        with pytest.raises(OracleCapError, match="vectors"):
            exists_code(p, q, 1)
        with pytest.raises(OracleCapError, match="vectors"):
            min_length(p, q, l_max=1)
    with pytest.raises(OracleCapError, match="vectors"):
        min_length(p, 7)
    assert min_length(p, 7, l_max=3).min_length is not None


def _brute_force_exists(p, q, length):
    """Reference: try every assignment of nonzero vectors, no symmetry breaking."""
    nonzero = [v for v in product(range(q), repeat=length) if any(v)]
    return any(
        verify(p, ScalarLinearCode(length, q, vectors)).ok
        for vectors in product(nonzero, repeat=p.n)
    )


def test_search_agrees_with_brute_force_on_tiny_instances():
    # q = 2, L <= 3, n <= 4: at most 7^4 assignments per instance
    tiny = [
        random_problem(3 + s % 2, (0.1, 0.25, 0.4, 0.9)[s % 4], single_unicast=s % 3 > 0, seed=s)
        for s in range(24)
    ]
    for p in tiny:
        for length in (1, 2, 3):
            found, witness, _ = exists_code(p, 2, length)
            assert found == _brute_force_exists(p, 2, length)
            assert witness is None or verify(p, witness).ok


@st.composite
def relabeled_twins(draw, max_n=6):
    """A corpus problem and a twin with messages relabeled and receivers
    permuted and duplicated, which has the same hypergraph up to labels."""
    seed = draw(st.integers(0, 599))
    if draw(st.booleans()):
        p = random_unicast_problem(seed, max_n)
    else:
        p = random_problem(draw(st.integers(1, max_n)), 0.4, single_unicast=False, seed=seed)
    label = dict(zip(range(1, p.n + 1), draw(st.permutations(range(1, p.n + 1)))))
    receivers = draw(st.permutations(p.receivers))
    receivers += draw(st.lists(st.sampled_from(p.receivers), max_size=3))
    relabel = lambda ms: frozenset(label[m] for m in ms)
    twin = Problem(p.n, tuple(Receiver(relabel(r.demands), relabel(r.side_info)) for r in receivers))
    return p, twin


@given(relabeled_twins())
@settings(max_examples=60, deadline=None)
def test_min_lengths_invariant_under_relabeling(twins):
    p, twin = twins
    for q in (2, 3):
        results = [min_length(x, q, l_max=3) for x in (p, twin)]
        assert results[0].min_length == results[1].min_length
        for x, result in zip((p, twin), results):
            assert result.witness is None or verify(x, result.witness).ok


def test_conjecture_probe_feasible_instance(tmp_path):
    finding = conjecture_probe(load_fixture("ex_feas"), fields=(2,), candidate_dir=str(tmp_path))
    assert finding.all_type2_clean
    assert finding.achieves_one_third
    assert finding.min_lengths[2] == 3
    assert finding.candidate_path is None


def test_conjecture_probe_skips_dirty_instances(tmp_path):
    finding = conjecture_probe(
        load_fixture("ex_inf"), fields=(2,), candidate_dir=str(tmp_path), label="x"
    )
    assert not finding.all_type2_clean
    assert finding.candidate_path is None


def test_conjecture_probe_emits_candidate_file(tmp_path):
    # with no tested fields nothing can be achieved, which exercises the
    # candidate-emission path on a clean instance
    p = load_fixture("p5")
    finding = conjecture_probe(p, fields=(), candidate_dir=str(tmp_path), label="cand")
    assert finding.all_type2_clean
    assert not finding.achieves_one_third
    assert finding.candidate_path == f"{tmp_path}/cand.json"
    text = (tmp_path / "cand.json").read_text()
    assert "conjecture-counterexample-candidate" in text
    reparsed = parse_problem(
        __import__("json").dumps(__import__("json").loads(text)["problem"])
    )
    assert reparsed == p
