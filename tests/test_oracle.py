import dis
import inspect
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from hashlib import sha256
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import every_unicast_problem, hyperedges, oracle_small_base, random_unicast_problem
from plan_reference import reference_plan
from reference import linear_spaces, rank3_matroid, set_partitions
from indexcode import oracle, problem
from indexcode.codec import ScalarLinearCode, verify
from indexcode.feasibility import RateThirdStatus, analyze, render_report
from indexcode.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from indexcode.oracle import (
    OracleBudgetError,
    OracleCapError,
    _field,
    _plan,
    exists_code,
    min_length,
)
from indexcode.problem import MAX_MESSAGES, Problem, Receiver, random_problem
from indexcode.structure import structure_report


def _projective_points(q, length):
    """The vectors of GF(q)^length whose first nonzero coordinate is 1."""
    return [v for v in product(range(q), repeat=length) if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]


def test_projective_points_counts():
    for q, length in [(2, 2), (2, 3), (3, 3), (5, 2)]:
        f = _field(q, length)
        # the index of a vector is the base-q integer whose digit j is coordinate j
        index = {v: sum(x * q**j for j, x in enumerate(v)) for v in product(range(q), repeat=length)}
        assert [index[v] for v in f.vectors] == list(range(q**length))
        points = _projective_points(q, length)
        assert len(points) == (q**length - 1) // (q - 1)
        # rank r < length: the points of span(e1..er), then e_{r+1}; rank
        # length: every point
        for r in range(length + 1):
            rank = [index[v] for v in points if not any(v[r:])]
            unit = 0
            if r < length:
                unit = index[tuple(int(j == r) for j in range(length))]
                rank.append(unit)
            assert (f.candidates[r], f.count[r], f.unit[r]) == (sum(1 << i for i in rank), len(rank), unit)
        ascending = sorted(map(index.__getitem__, points))
        assert [f.reach[i] for i in ascending] == list(range(1, len(points) + 1))


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
    # no problem has a length-0 code: L = 0 is outside the cap, not "no code"
    with pytest.raises(OracleCapError, match="outside the oracle cap 1..4"):
        exists_code(p, 2, 0)
    with pytest.raises(OracleCapError, match="outside the oracle cap 1..4"):
        min_length(p, 2, l_max=0)
    with pytest.raises(OracleCapError):
        exists_code(p, 4, 2)
    # no cap on n: the node budget alone bounds the size of the problem
    big = random_problem(11, 0.5, seed=1)
    _, witness, _ = exists_code(big, 2, 2)
    assert witness is None or verify(big, witness).ok
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


def test_caps_require_exact_integers():
    # True equals 1 and 2.0 equals 2: one exact type test rejects both,
    # where a bool length was searched as length 1 and a float ended in a
    # TypeError.  The caps are checked once per field, where it is built,
    # so the fields of 2 and 1 are built first: their typed cache must
    # not hand them to 2.0 and True
    p = random_problem(4, 0.5, seed=1)
    for q, length in [(2, 1), (2, 2), (3, 1)]:
        exists_code(p, q, length)
    for q, length in [(2, True), (True, 1), (2.0, 2), (2, 2.0), (3, None), (3.0, True)]:
        with pytest.raises(OracleCapError, match="must be integers"):
            exists_code(p, q, length)
        with pytest.raises(OracleCapError, match="must be integers"):
            min_length(p, q, l_max=length)


def _n10_corpus():
    return [random_problem(10, d, seed=s) for d in (0.3, 0.5, 0.7) for s in range(10)]


def test_search_is_pinned_on_the_n10_corpus():
    # node counts and minimum lengths recorded before the subspace table
    # and the prefix trie replaced the per-search span dicts; the witness
    # digest was recorded before the search stepped through the allowed
    # candidates alone
    results = [min_length(p, q) for p in _n10_corpus() for q in (2, 3)]
    assert sum(r.nodes_explored for r in results) == 15_983
    witnesses = "".join(repr(r.witness and r.witness.vectors) for r in results)
    assert sha256(witnesses.encode()).hexdigest() == (
        "bb1ad35c228a29fb62e16d6eb07526e297031d8c82e69cda2512aae24b645436"
    )
    # no code up to length 4 at densities 0.3 and 0.5; at 0.7 length 4
    # over both fields, but length 3 at seed 8
    want = [None] * 40 + [4] * 16 + [3, 3, 4, 4]
    assert [r.min_length for r in results] == want
    for p, r in zip([p for p in _n10_corpus() for _ in (2, 3)], results):
        assert r.witness is None or verify(p, r.witness).ok


def test_search_is_pinned_on_the_oracle_small_corpus():
    # minimum length, nodes and witness of every search the benchmark's
    # oracle-small op runs on its 400 base problems, recorded before the
    # plan was rebuilt in fewer steps and the results became tuples
    results = [min_length(p, q, l_max=3) for p in oracle_small_base() for q in (2, 3)]
    digest = "".join(repr((r.min_length, r.nodes_explored, r.witness and r.witness.vectors)) for r in results)
    assert sum(r.nodes_explored for r in results) == 7_456
    assert sum(r.min_length is None for r in results) == 260
    assert sha256(digest.encode()).hexdigest() == (
        "541661a67bf498518156347bf52be5b73644d4c645575b3f509b785fce0a68e6"
    )


def test_search_is_pinned_over_gf5_up_to_length_4():
    # GF(5)^4 is the largest space the caps allow: its masks are 625-bit
    # ints.  Node count and digest recorded while the table still numbered
    # its subspaces
    corpus = [load_fixture(name) for name in FIXTURE_NAMES] + [
        random_problem(n, d, seed=s) for n in (8, 10, 12) for d in (0.5, 0.7, 0.85) for s in range(3)
    ]
    results = [min_length(p, 5, l_max=4, max_nodes=300_000) for p in corpus]
    assert sum(r.nodes_explored for r in results) == 145_187
    digest = repr([(r.min_length, r.nodes_explored, r.witness and r.witness.vectors) for r in results])
    assert sha256(digest.encode()).hexdigest() == (
        "4c342aaf03c1090535919bce7e51777aac896a9a7b110c8e1a50642c489a04b2"
    )


def test_searches_from_threads_return_the_serial_results():
    # every thread shares one table per field and fills it as it goes; a
    # short switch interval lets them interleave inside the table's updates
    corpus = [load_fixture(name) for name in FIXTURE_NAMES] + [
        random_problem(10, d, seed=s) for d in (0.3, 0.5, 0.7) for s in range(4)
    ]
    searches = [(p, q, length) for p in corpus for q in (2, 3, 5) for length in (1, 2, 3, 4)]

    def search(key):
        found, witness, nodes = exists_code(*key, max_nodes=200_000)
        return found, witness and witness.vectors, nodes

    _field.cache_clear()
    _plan.cache_clear()
    serial = list(map(search, searches))
    _field.cache_clear()
    _plan.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(search, searches))
    finally:
        sys.setswitchinterval(interval)
    assert len(searches) == 204 and sum(found for found, _, _ in serial) == 36
    assert sum(nodes for _, _, nodes in serial) == 187_752
    assert threaded == serial
    for q in (2, 3, 5):
        for length in (1, 2, 3, 4):
            _check_table(_field(q, length))


def test_plan_matches_the_reference_plan():
    # the oracle-small base problems, then unicast and groupcast problems up
    # to n = 16 at three densities, then with no side information, which
    # gives the largest tries per message
    larger = [
        random_problem(n, density, single_unicast=unicast, seed=s)
        for n, density in chain(product(range(1, 17), (0.2, 0.5, 0.8)), product((24, 32, 48), (0.0,)))
        for unicast in (True, False)
        for s in range(3)
    ]
    for p in oracle_small_base() + larger:
        assert _plan.__wrapped__(p.n, p.bits.hyperedges) == reference_plan(p.n, p.bits.hyperedges), p


def test_plan_at_the_message_cap_is_built_in_seconds():
    # gen -n 1024 --density 0 --seed 0: every pair of messages interferes,
    # so the trie holds every run of positions with at most one gap.  Keyed
    # by their masks of positions, the 523,776 nodes shared 3,661 hashes
    # and the plan took 12-15 s; the search then explores one node
    p = random_problem(MAX_MESSAGES, 0.0, seed=0)
    edges = p.bits.hyperedges
    started = time.perf_counter()
    plan = _plan.__wrapped__(p.n, edges)
    assert time.perf_counter() - started < 6
    assert plan.nodes == MAX_MESSAGES * (MAX_MESSAGES - 1) // 2 + 1 == 523_777


@pytest.mark.parametrize("shape", ["one receiver per message", "one receiver demanding every message"])
def test_text_report_at_the_message_cap_is_built_in_a_fraction_of_a_second(shape):
    # one outside set of all 1,024 messages with 1,024 demands against it:
    # walked set by set, Problem.bits and the type-2 star scan took 1.0-1.5 s
    # in all; read as one receiver block, about 15 ms
    if shape == "one receiver per message":
        p = random_problem(MAX_MESSAGES, 0.0, seed=0)
    else:
        p = Problem(MAX_MESSAGES, (Receiver(frozenset(range(1, MAX_MESSAGES + 1)), frozenset()),))
    started = time.perf_counter()
    text = render_report(analyze(p))
    assert time.perf_counter() - started < 0.25
    assert text and p.bits.scan == ((1 << MAX_MESSAGES + 1) - 2,)


def test_subspace_tables_leak_nothing_between_searches():
    corpus = _n10_corpus() + [
        random_problem(3 + s % 8, (0.3, 0.5, 0.7, 0.85)[s % 4], single_unicast=s % 2 == 0, seed=s)
        for s in range(40)
    ]
    searches = [(i, q, length) for i in range(len(corpus)) for q in (2, 3) for length in (1, 2, 3, 4)]
    _field.cache_clear()
    _plan.cache_clear()
    cold = {key: exists_code(corpus[key[0]], *key[1:]) for key in searches}
    # warm: reversed, so every field and length meets tables the other
    # order filled, GF(3) before GF(2)
    warm = {key: exists_code(corpus[key[0]], *key[1:]) for key in reversed(searches)}
    assert warm == cold
    assert sum(found for found, _, _ in cold.values()) > 50
    for q in (2, 3):
        for length in (1, 2, 3, 4):
            f = _field(q, length)
            # at length 1 every check reads only the zero space
            assert len(f.spaces) > 1 or length == 1
            _check_table(f)


def _check_table(f):
    """Every subspace of a field's table is a subspace, and the one kept
    for its mask, and each of its joins holds it and the joined vector."""
    for s in f.spaces.values():
        assert s.mask & 1 and s.mask.bit_count() == f.q**s.dim and f.spaces[s.mask] is s
        for v, b in s.items():
            assert b.mask >> v & 1 and s.mask & ~b.mask == 0 and f.spaces[b.mask] is b


def test_nothing_per_field_survives_a_cache_clear():
    p = load_fixture("ex_inf")
    result = exists_code(p, 2, 4)
    warm = _field(2, 4)
    assert len(warm.spaces) > 1 and warm.translation
    _field.cache_clear()
    cold = _field(2, 4)
    assert cold is not warm
    zero = cold.spaces[1]
    assert (list(cold.spaces), zero.mask, zero.dim, zero, cold.translation) == ([1], 1, 0, {}, {})
    # the only other cache the module defines is the plan, which holds no
    # field, and keeps a bounded number of entries; the problem module
    # defines no cache, and its one state is the parse memo, the one global
    # any of its functions rebinds, which holds the latest parse alone
    def caches(module):
        return {
            name: obj for name, obj in vars(module).items()
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
        }
    assert set(caches(oracle)) == {"_field", "_plan"}
    assert set(caches(problem)) == set()
    assert _plan.cache_info().maxsize == 64
    rebound = {
        ins.argval
        for f in vars(problem).values()
        if inspect.isfunction(f) and f.__module__ == problem.__name__
        for ins in dis.get_instructions(f)
        if ins.opname == "STORE_GLOBAL"
    }
    assert rebound == {"_last_parse"}
    assert problem._last_parse == (fixture_text("ex_inf"), False, p) and problem._last_parse[2] is p
    assert exists_code(p, 2, 4) == result


def test_witness_is_the_code_its_checks_accept():
    # the witness is built without ScalarLinearCode's checks, which it
    # passes by construction: it equals, field for field, the checked code
    for p in [load_fixture(name) for name in FIXTURE_NAMES] + _n10_corpus()[20:]:
        for q in (2, 3):
            witness = min_length(p, q).witness
            if witness is not None:
                checked = ScalarLinearCode(witness.length, witness.prime, witness.vectors)
                assert type(witness) is ScalarLinearCode and vars(witness) == vars(checked)
                assert witness == checked and hash(witness) == hash(checked)
                assert verify(p, witness).ok


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


def _last_message_search(p, q, length):
    """Reference: the same search with each hyperedge checked only once all
    of its messages are assigned, at the position of the last one."""
    degree = Counter(m for k, interf in hyperedges(p) for m in interf | {k})
    order = sorted(p.messages, key=lambda m: (-degree[m], m))
    position = {m: t for t, m in enumerate(order)}
    checks = [[] for _ in order]
    for k, interf in hyperedges(p):
        at = [position[i] for i in interf]
        checks[max(at + [position[k]])].append((position[k], at))
    # rank r < length: the points of span(e1..er), then e_{r+1}; rank
    # length: every point
    points = _projective_points(q, length)
    units = [tuple(int(j == r) for j in range(length)) for r in range(length)]
    candidates = [[v for v in points if not any(v[r:])] + [units[r]] for r in range(length)] + [points]
    vectors = list(product(range(q), repeat=length))  # numbered in any fixed order, for the span keys
    bit = {v: 1 << i for i, v in enumerate(vectors)}
    assigned = [None] * p.n
    bits = [0] * p.n
    spans = {0: {(0,) * length}}

    def span(gens):
        """The span of the vectors whose bits ``gens`` holds, grown one
        generator at a time as the union of the cosets S + c*g."""
        members = spans.get(gens)
        if members is None:
            i = gens.bit_length() - 1
            members, g = span(gens ^ (1 << i)), vectors[i]
            if g not in members:
                members = {tuple((x + c * y) % q for x, y in zip(u, g)) for u in members for c in range(q)}
            spans[gens] = members
        return members

    def search(t, rank):
        unit = units[rank] if rank < length else None
        for v in candidates[rank]:
            assigned[t], bits[t] = v, bit[v]
            for k, interf in checks[t]:
                gens = 0
                for i in interf:
                    gens |= bits[i]
                if assigned[k] in span(gens):
                    break
            else:
                if t + 1 == p.n or search(t + 1, rank + (v == unit)):
                    return True
        return False

    return search(0, 0)


def test_forward_checking_agrees_with_last_message_search():
    # 126 problems, n = 3-9, unicast and groupcast, each over GF(2) and
    # GF(3) at L = 1, 2, 3
    verdicts = Counter()
    for s in range(126):
        n = 3 + s % 7
        density = (0.3, 0.5, 0.7, 0.85)[s // 7 % 4]
        p = random_problem(n, density, single_unicast=s % 2 == 0, seed=s)
        for q in (2, 3):
            for length in (1, 2, 3):
                found, witness, _ = exists_code(p, q, length)
                assert found == _last_message_search(p, q, length), (s, q, length)
                assert witness is None or verify(p, witness).ok
                verdicts[found] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_node_budget_binds():
    p = load_fixture("ex_inf")
    spent = min_length(p, 2).nodes_explored
    # the budget covers the whole sweep over lengths 1-4, not each length
    assert exists_code(p, 2, 4, max_nodes=spent - 1)[0]
    assert min_length(p, 2, max_nodes=spent).min_length == 4
    with pytest.raises(OracleBudgetError, match=f"GF\\(2\\).*budget of {spent - 1} nodes"):
        min_length(p, 2, max_nodes=spent - 1)
    with pytest.raises(OracleBudgetError, match="length-3 code over GF\\(3\\)"):
        exists_code(p, 3, 3, max_nodes=5)


def test_node_budget_is_exact_over_a_corpus():
    # the search counts the candidates its forward checks rule out without
    # trying them, so a budget of exactly the nodes a search explores must
    # give the same answer, and one node less must raise; 2.96M nodes in
    # all, 2.9M of them in one refuted search
    corpus = [
        random_problem(5 + s % 8, (0.3, 0.5, 0.7, 0.85)[s % 4], single_unicast=s % 3 > 0, seed=s)
        for s in range(24)
    ]
    outcomes = Counter()
    for p in corpus:
        for q in (2, 3, 5):
            for length in (2, 3, 4):
                result = exists_code(p, q, length)
                found, _, nodes = result
                assert exists_code(p, q, length, max_nodes=nodes) == result
                with pytest.raises(OracleBudgetError, match=f"budget of {nodes - 1} nodes"):
                    exists_code(p, q, length, max_nodes=nodes - 1)
                outcomes[q, found] += 1
    assert all(outcomes[q, found] >= 10 for q in (2, 3, 5) for found in (True, False)), outcomes


def _contradictions(report, lengths):
    """Analyzer verdicts refuted by the minimum lengths over GF(2), GF(3)."""
    found = []
    if report.rate_one.feasible != (lengths[0] == 1):
        found.append("rate 1")
    if not report.rate_half.feasible and any(m is not None and m <= 2 for m in lengths):
        found.append("rate 1/2")
    if report.rate_third.feasible is False and any(m is not None and m <= 3 for m in lengths):
        found.append("rate 1/3")
    return found


def test_analyzer_never_contradicted_by_oracle_up_to_n24():
    # n = 7-10, unicast and groupcast; then unicast at n = 12-24, where the
    # UNDETERMINED rung is common.  Node counts are deterministic, so a
    # search past the default budget is a real change and fails the test.
    densities = (0.3, 0.5, 0.7, 0.85, 0.95)
    small = (
        random_problem(7 + s % 4, densities[s // 4 % 5], single_unicast=s % 2 == 0, seed=s)
        for s in range(400)
    )
    large = (
        random_problem(n, density, seed=s)
        for n in (12, 16, 20, 24)
        for density in (0.7, 0.85, 0.95)
        for s in range(10)
    )
    verdicts = Counter()
    for p in chain(small, large):
        report = analyze(p)
        results = [min_length(p, q, l_max=3) for q in (2, 3)]
        lengths = [r.min_length for r in results]
        assert not _contradictions(report, lengths), (p, lengths)
        for r in results:
            assert r.witness is None or verify(p, r.witness).ok
        verdicts[report.rate_half.feasible, report.rate_third.feasible] += 1
    # every rung of the ladder is exercised
    assert {(True, True), (True, None), (False, True), (False, None), (False, False)} <= set(verdicts)


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


def test_conjecture_probe_feasible_instance():
    p = load_fixture("ex_feas")
    assert structure_report(p).dirty_witness is None  # every type-2 set is clean
    assert min_length(p, 2, l_max=3).min_length == 3


def test_conjecture_probe_candidate_n16():
    # clean type-2 sets, so the conjecture predicts rate 1/3, yet no
    # length-3 code exists over the fields tested; this holds only for
    # GF(2), GF(3), GF(5) and GF(7), not for larger fields
    p = random_problem(16, 0.85, seed=10)
    verdict = analyze(p).rate_third
    assert verdict.status is RateThirdStatus.UNDETERMINED and verdict.conjecture_predicts_feasible
    for q in (2, 3):
        result = min_length(p, q, l_max=4)
        assert result.min_length == 4 and verify(p, result.witness).ok
    for q in (5, 7):
        assert min_length(p, q, l_max=3).min_length is None


def test_conjecture_counterexample_n6():
    # undetermined with clean type-2 sets, so the conjecture predicts rate
    # 1/3, yet the shortest code is 4 long over GF(2) and GF(3) and longer
    # than 3 over GF(5); that no field has a length-3 code is the rank-3
    # matroid check's (test_no_rank3_matroid_refutes_length_three)
    p = random_problem(6, 0.5, seed=230)
    verdict = analyze(p).rate_third
    assert verdict.status is RateThirdStatus.UNDETERMINED and verdict.conjecture_predicts_feasible
    for q, l_max, length, nodes in [(2, 4, 4, 79), (3, 4, 4, 190), (5, 3, None, 858)]:
        result = min_length(p, q, l_max=l_max)
        assert (result.min_length, result.nodes_explored) == (length, nodes)
        assert result.witness is None or verify(p, result.witness).ok


def test_no_rank3_matroid_refutes_length_three():
    # reference.rank3_matroid's lemma: with no loopless matroid of rank at
    # most 3 that keeps each k outside cl(I), no field has a length-3 code.
    # It tries every candidate: 1,435 at n = 6 and 23,049 at n = 7
    assert [sum(len(linear_spaces(max(c) + 1)) for c in set_partitions(n)) for n in (6, 7)] == [1435, 23049]
    # the conjecture predicts rate 1/3 for all three, and no field has it
    for n, density, seed in [(6, 0.5, 230), (7, 0.5, 337), (7, 0.65, 412)]:
        p = random_problem(n, density, seed=seed)
        verdict = analyze(p).rate_third
        assert verdict.status is RateThirdStatus.UNDETERMINED and verdict.conjecture_predicts_feasible
        assert rank3_matroid(p) is None, (n, density, seed)
    # every unicast problem up to n = 4 with a GF(2) code of length 3 or less
    # has such a matroid, as the lemma requires; at n <= 4 the converse holds too
    table = Counter()
    for n in range(1, 5):
        for p in every_unicast_problem(n):
            table[n, min_length(p, 2, l_max=3).min_length is not None, rank3_matroid(p) is not None] += 1
    assert table == {
        (1, True, True): 1, (2, True, True): 4, (3, True, True): 64, (4, True, True): 3553, (4, False, False): 543
    }
