from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import random_unicast_problem
from indexcode.fixtures import load_fixture
from indexcode.problem import conflicts, interfering_set, parse_problem, random_problem
from indexcode.structure import (
    Kind,
    alignment_graph,
    alignment_sets,
    classify_alignment_set,
    conflict_hypergraph,
    cycle_witness,
    find_acyclic_quadruple,
    has_cycle,
    has_fork,
    legacy_conflict_graph,
    restricted_internal_conflicts,
    structure_report,
    to_dot,
    triangular_interfering_sets,
    type2_alignment_sets,
)


def hyperedges(p):
    return {(k, frozenset(s)) for k, s in conflict_hypergraph(p).hyperedges}


def test_alignment_graph_ex_feas():
    p = load_fixture("ex_feas")
    g = alignment_graph(p)
    assert g.edges == frozenset({(4, 6), (1, 4), (2, 3), (3, 4), (3, 5), (4, 5)})
    assert alignment_sets(p) == [frozenset(range(1, 7))]


def test_alignment_graph_no_edges_when_interference_small():
    p = parse_problem(
        '{"n": 3, "receivers": ['
        '{"demands": [1], "side_info": [2]},'
        '{"demands": [2], "side_info": [3]},'
        '{"demands": [3], "side_info": [1]}]}'
    )
    g = alignment_graph(p)
    assert not g.edges
    assert alignment_sets(p) == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_alignment_sets_ex_inf():
    p = load_fixture("ex_inf")
    assert alignment_sets(p) == [frozenset({1, 2, 3, 4}), frozenset({5}), frozenset({6})]


def test_hypergraphs_of_motivating_pair():
    ex1a, ex1b = load_fixture("ex1a"), load_fixture("ex1b")
    assert hyperedges(ex1a) == {
        (1, frozenset({3})),
        (2, frozenset({1})),
        (3, frozenset({2})),
        (4, frozenset({1, 2, 3})),
    }
    assert hyperedges(ex1b) == {
        (2, frozenset({1})),
        (3, frozenset({1, 2})),
        (4, frozenset({1, 2, 3})),
    }
    assert conflict_hypergraph(ex1a) != conflict_hypergraph(ex1b)
    assert legacy_conflict_graph(ex1a) == legacy_conflict_graph(ex1b)
    assert alignment_graph(ex1a) == alignment_graph(ex1b)


def test_hypergraph_ignores_duplicate_receivers():
    p = load_fixture("p5")
    doubled = parse_problem(
        '{"n": 5, "receivers": '
        + __import__("json").dumps(
            [
                {"demands": sorted(r.demands), "side_info": sorted(r.side_info)}
                for r in list(p.receivers) + [p.receivers[0]]
            ]
        )
        + "}"
    )
    assert conflict_hypergraph(p) == conflict_hypergraph(doubled)


def test_legacy_conflict_graph_ex_feas():
    p = load_fixture("ex_feas")
    assert legacy_conflict_graph(p).edges == frozenset(
        {(1, 4), (1, 6), (1, 2), (2, 4), (2, 5), (3, 5), (3, 6), (4, 6), (5, 6)}
    )


def test_fork_and_cycle_ex_feas():
    p = load_fixture("ex_feas")
    g = alignment_graph(p)
    members = frozenset(range(1, 7))
    assert g.degree(4) == 4
    assert has_fork(g, members)
    assert has_cycle(g, members)
    witness = cycle_witness(g, members)
    assert witness is not None and len(witness) >= 3
    # witness really is a cycle in g
    edges = set(g.edges)
    for a, b in zip(witness, witness[1:] + witness[:1]):
        assert (min(a, b), max(a, b)) in edges


def test_fork_cycle_trivial_components():
    p = parse_problem(
        '{"n": 4, "receivers": ['
        '{"demands": [1], "side_info": [4]},'
        '{"demands": [2], "side_info": [1, 3, 4]},'
        '{"demands": [3], "side_info": [1, 2, 4]},'
        '{"demands": [4], "side_info": [1, 2, 3]}]}'
    )
    # Interf_1(1) = {2, 3}: a single path-like component {2, 3}
    g = alignment_graph(p)
    assert not has_fork(g, frozenset({2, 3}))
    assert not has_cycle(g, frozenset({2, 3}))
    assert not has_fork(g, frozenset({4}))
    assert not has_cycle(g, frozenset({4}))
    assert cycle_witness(g, frozenset({2, 3})) is None


def naive_acyclic_quadruple(p):
    """Direct enumeration over all ordered quadruples and receivers."""
    demanded = {k for r in p.receivers for k in r.demands}
    interf_sets = {
        k: [interfering_set(p, j, k) for j, r in enumerate(p.receivers, 1) if k in r.demands]
        for k in demanded
    }
    for quad in permutations(sorted(demanded), 4):
        if all(
            any(set(quad[:idx]) <= s for s in interf_sets[quad[idx]])
            for idx in range(4)
        ):
            return quad
    return None


def test_acyclic_quadruple_fixtures():
    assert find_acyclic_quadruple(load_fixture("ex_inf")) is None
    assert find_acyclic_quadruple(load_fixture("ex1b")) == (1, 2, 3, 4)
    conflict_free = random_problem(4, 1.0, seed=0)
    assert find_acyclic_quadruple(conflict_free) is None


@given(st.integers(0, 400))
@settings(max_examples=100, deadline=None)
def test_acyclic_quadruple_matches_naive_search(seed):
    p = random_unicast_problem(seed)
    fast = find_acyclic_quadruple(p)
    slow = naive_acyclic_quadruple(p)
    assert (fast is None) == (slow is None)
    if fast is not None:
        # validate the returned witness directly
        assert naive_acyclic_quadruple_is_valid(p, fast)


def naive_acyclic_quadruple_is_valid(p, quad):
    for idx in range(4):
        k = quad[idx]
        ok = any(
            k in r.demands and set(quad[:idx]) <= interfering_set(p, j, k)
            for j, r in enumerate(p.receivers, 1)
        )
        if not ok:
            return False
    return True


def test_triangles_fixtures():
    assert {t.members for t in triangular_interfering_sets(load_fixture("ex_inf"))} == {
        frozenset({1, 3, 4}),
        frozenset({1, 2, 4}),
    }
    assert {t.members for t in triangular_interfering_sets(load_fixture("ex_feas"))} == {
        frozenset({3, 4, 5})
    }
    small = parse_problem(
        '{"n": 3, "receivers": ['
        '{"demands": [1], "side_info": [3]},'
        '{"demands": [2], "side_info": [1]},'
        '{"demands": [3], "side_info": [2]}]}'
    )
    assert triangular_interfering_sets(small) == []


def test_type2_sets_fixtures():
    (t2,) = type2_alignment_sets(load_fixture("ex_inf"))
    assert t2.messages == frozenset({1, 2, 3, 4})
    assert t2.triangles == frozenset({frozenset({1, 3, 4}), frozenset({1, 2, 4})})
    (t2,) = type2_alignment_sets(load_fixture("ex_feas"))
    assert t2.messages == frozenset({3, 4, 5})
    assert type2_alignment_sets(random_problem(4, 1.0, seed=0)) == []


def test_restricted_internal_conflicts_fixtures():
    ex_inf = load_fixture("ex_inf")
    found = restricted_internal_conflicts(ex_inf, {1, 2, 3, 4})
    assert ((1, 3), frozenset({1, 3})) in found
    ex_feas = load_fixture("ex_feas")
    assert restricted_internal_conflicts(ex_feas, {3, 4, 5}) == []
    assert restricted_internal_conflicts(ex_feas, {3}) == []


def test_classification_fixtures():
    ex_inf = load_fixture("ex_inf")
    assert classify_alignment_set(ex_inf, frozenset({1, 2, 3, 4})) is Kind.TYPE2_DIRTY
    assert classify_alignment_set(ex_inf, frozenset({5})) is Kind.KIND1
    p5 = load_fixture("p5")
    assert classify_alignment_set(p5, frozenset({1, 2, 3})) is Kind.TYPE2_CLEAN
    ex_feas = load_fixture("ex_feas")
    assert classify_alignment_set(ex_feas, frozenset(range(1, 7))) is Kind.OTHER


def test_classification_kind2():
    p = parse_problem(
        '{"n": 4, "receivers": ['
        '{"demands": [1], "side_info": [2, 3, 4]},'
        '{"demands": [2], "side_info": [1, 3, 4]},'
        '{"demands": [3], "side_info": [1, 2, 4]},'
        '{"demands": [4], "side_info": []}]}'
    )
    assert classify_alignment_set(p, frozenset({1, 2, 3})) is Kind.KIND2
    assert classify_alignment_set(p, frozenset({4})) is Kind.KIND1


@given(st.integers(0, 500))
@settings(max_examples=100, deadline=None)
def test_structural_invariants_on_corpus(seed):
    p = random_unicast_problem(seed)
    g = alignment_graph(p)
    sets = alignment_sets(p)

    # alignment sets partition [1..n]
    assert sorted(m for s in sets for m in s) == list(range(1, p.n + 1))

    # interfering sets of size >= 2 are cliques in the alignment graph
    for j, r in enumerate(p.receivers, 1):
        for k in r.demands:
            interf = sorted(interfering_set(p, j, k))
            for a, b in combinations(interf, 2):
                assert (a, b) in g.edges

    # every type-2 union sits inside exactly one alignment set, and every
    # triangle sits inside one alignment set too
    for t2 in type2_alignment_sets(p):
        assert sum(1 for s in sets if t2.messages <= s) == 1
        for tri in t2.triangles:
            assert sum(1 for s in sets if tri <= s) == 1

    # classification is total and consistent with the report
    report = structure_report(p)
    kinds = {info.members: info.kind for info in report.alignment_sets}
    for s in sets:
        assert kinds[s] in set(Kind)

    # an acyclic quadruple's first three messages form a triangular set
    quad = find_acyclic_quadruple(p)
    if quad is not None:
        triangles = {t.members for t in triangular_interfering_sets(p)}
        assert frozenset(quad[:3]) in triangles


def test_dot_export_mentions_structure():
    dot = to_dot(load_fixture("ex_feas"))
    assert dot.startswith("graph")
    assert "m4 -- m6" in dot
    assert "style=dashed" in dot


def test_dot_hub_order_ignores_receiver_order():
    # message 2 has hyperedges with interferers {1} and {3}, which subset
    # order cannot rank, so hub order must not follow receiver order
    receivers = [
        '{"demands": [1], "side_info": []}',
        '{"demands": [2], "side_info": [3]}',
        '{"demands": [2, 3], "side_info": [1]}',
    ]
    twin = [receivers[0], receivers[2], receivers[1]]
    a, b = (parse_problem('{"n": 3, "receivers": [%s]}' % ", ".join(rs)) for rs in (receivers, twin))
    assert to_dot(a) == to_dot(b)
