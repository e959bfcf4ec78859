import json
import random
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from corpusgen import hyperedges, random_constructible_problem, random_unicast_problem
from indexcode import structure
from indexcode.feasibility import analyze, check_rate_half, check_rate_one, render_report, report_to_dict
from indexcode.fixtures import FIXTURE_NAMES, load_fixture
from indexcode.problem import (
    Problem,
    Receiver,
    _iter_bits,
    conflicts,
    interfering_set,
    parse_problem,
    random_problem,
    restrict_problem,
)
from indexcode.structure import (
    Kind,
    alignment_graph,
    alignment_sets,
    classify_alignment_set,
    find_acyclic_quadruple,
    fork_and_cycle,
    restricted_internal_conflicts,
    structure_report,
    to_dot,
    triangles_past,
    triangular_interfering_sets,
    type2_alignment_sets,
)


def test_alignment_graph_no_edges_when_interference_small():
    p = parse_problem(
        '{"n": 3, "receivers": ['
        '{"demands": [1], "side_info": [2]},'
        '{"demands": [2], "side_info": [3]},'
        '{"demands": [3], "side_info": [1]}]}'
    )
    g = alignment_graph(p)
    assert not g
    assert alignment_sets(p) == [frozenset({1}), frozenset({2}), frozenset({3})]
    small = parse_problem(
        '{"n": 3, "receivers": ['
        '{"demands": [1], "side_info": [3]},'
        '{"demands": [2], "side_info": [1]},'
        '{"demands": [3], "side_info": [2]}]}'
    )
    assert triangular_interfering_sets(small) == []
    conflict_free = random_problem(4, 1.0, seed=0)
    assert find_acyclic_quadruple(conflict_free) is None
    assert type2_alignment_sets(conflict_free) == []


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
    assert hyperedges(p) == hyperedges(doubled)
    assert conflicts(p) == conflicts(doubled)


def mask_of(members):
    return sum(1 << m for m in members)


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
    assert fork_and_cycle(p, mask_of({2, 3})) == (False, False)
    assert fork_and_cycle(p, mask_of({4})) == (False, False)
    # one edge on two vertices: a tree
    assert [e for e in g if set(e) <= {2, 3}] == [(2, 3)]


def reference_problem(seed, max_n=16):
    """Seeded unicast or groupcast problem; every third one drops
    receivers, which leaves messages that nobody demands."""
    rng = random.Random(f"reference:{seed}")
    n = rng.randint(1, max_n)
    density = rng.choice([0.1, 0.3, 0.5, 0.7])
    p = random_problem(n, density, single_unicast=seed % 2 == 0, seed=seed)
    if seed % 3 == 0:
        p = Problem(n, tuple(r for r in p.receivers if rng.random() < 0.6) or p.receivers[:1])
    return p


def reference_conflict_pairs(p):
    """Conflict pairs straight from the hyperedges: k against each i in I."""
    return frozenset((min(i, k), max(i, k)) for k, interf in hyperedges(p) for i in interf)


def reference_bits(p):
    """The first six fields of ``Problem.bits`` by name, built from the
    hyperedges and their conflict pairs."""
    pairs, ids = reference_conflict_pairs(p), range(p.n + 1)
    edges = {(k, sum(1 << i for i in interf)) for k, interf in hyperedges(p)}
    sets = tuple(sorted({s for _, s in edges}, key=lambda s: (-s.bit_count(), s)))
    return dict(
        sets=sets,
        against=tuple(sum({1 << k for k, interf in edges if interf == s}) for s in sets),
        crowded=reduce(or_, (s for s in sets if s.bit_count() >= 3), 0),
        sets_with=tuple(sum(1 << idx for idx, s in enumerate(sets) if s >> m & 1) for m in ids),
        near=tuple(reduce(or_, (s for s in sets if s >> m & 1), 0) for m in ids),
        conf=tuple(sum(1 << b for b in ids if (min(m, b), max(m, b)) in pairs) for m in ids),
    )


def bits_fields(p, names):
    """The fields ``names`` of ``p.bits``, by name."""
    return {name: getattr(p.bits, name) for name in names}


def naive_triangles(p):
    """Every 3-subset of every interfering set that holds a conflict pair,
    as ascending triples in sorted order."""
    pairs = reference_conflict_pairs(p)
    seen = set()
    for _, interf in hyperedges(p):
        for trio in combinations(sorted(interf), 3):
            if any(pair in pairs for pair in combinations(trio, 2)):
                seen.add(trio)
    return sorted(seen)


def _find(parent, x):
    while parent.setdefault(x, x) != x:
        parent[x] = x = parent[parent[x]]  # path halving
    return x


def naive_type2_sets(p):
    """(triangles, messages) per group, each triangle joined to every
    conflict pair it contains; a group's triangles are sorted, and groups
    with the same messages keep the order of their first triangle."""
    triangles = naive_triangles(p)
    pairs = reference_conflict_pairs(p)
    parent = {}
    for t in triangles:
        for pair in combinations(sorted(t), 2):
            if pair in pairs:
                parent[_find(parent, pair)] = _find(parent, t)
    groups = {}
    for t in triangles:
        groups.setdefault(_find(parent, t), []).append(t)
    out = [(tuple(g), frozenset().union(*g)) for g in groups.values()]
    return sorted(out, key=lambda s: sorted(s[1]))


def naive_restricted_alignment_sets(p, members):
    """Components of the restricted alignment graph, built from the receivers."""
    parent = {}
    for j, r in enumerate(p.receivers, 1):
        for k in r.demands & members:
            clique = sorted(interfering_set(p, j, k) & members)
            for a, b in zip(clique, clique[1:]):
                parent[_find(parent, a)] = _find(parent, b)
    comps = {}
    for m in members:
        comps.setdefault(_find(parent, m), set()).add(m)
    return sorted((frozenset(c) for c in comps.values()), key=min)


def naive_restricted_internal_conflicts(p, members):
    """Conflict pairs inside each restricted alignment set, set by set."""
    return [
        (pair, comp)
        for comp in naive_restricted_alignment_sets(p, members)
        for pair in sorted(reference_conflict_pairs(p))
        if set(pair) <= comp
    ]


def written_type2_sets(p):
    """(triangles, messages) per type-2 set as ``report_to_dict`` writes them."""
    written = report_to_dict(analyze(p))["structure"]["type2_sets"]
    return [(tuple(t2["triangles"]), frozenset(t2["messages"])) for t2 in written]


def test_structure_matches_references_on_corpus():
    seen_kinds = set()
    # the fixtures bring the only clean type-2 set; the last three problems
    # each have two type-2 sets with the same messages, whose report order
    # (that of their first triangles) none of the seeded ones exercises
    problems = (
        [reference_problem(seed) for seed in range(150)]
        + [load_fixture(f) for f in FIXTURE_NAMES]
        + [
            random_problem(6, 0.7, single_unicast=False, seed=35),
            random_problem(9, 0.7, seed=7),
            random_problem(9, 0.7, seed=25),
        ]
    )
    for seed, p in enumerate(problems):
        assert triangular_interfering_sets(p) == naive_triangles(p)
        count = len(naive_triangles(p))
        assert not triangles_past(p, count) and triangles_past(p, count - 1)
        naive = naive_type2_sets(p)
        # the analysis finds the message sets with no listing; the report
        # lists the triangles and splits them by the sets it found
        assert [t.messages for t in type2_alignment_sets(p)] == [messages for _, messages in naive]
        assert written_type2_sets(p) == naive
        internal = naive_restricted_internal_conflicts(p, p.messages)
        verdict = check_rate_half(p)
        assert (verdict.internal_conflict, verdict.alignment_set) == (internal[0] if internal else (None, None))
        rng = random.Random(seed)
        subsets = [frozenset(rng.sample(sorted(p.messages), rng.randint(1, p.n))) for _ in range(3)]
        for members in [p.messages] + subsets:
            assert restricted_internal_conflicts(p, members) == naive_restricted_internal_conflicts(p, members)
        report = structure_report(p)
        type2 = type2_alignment_sets(p)
        assert [(i.members, i.has_fork, i.has_cycle, i.kind) for i in report.alignment_sets] == naive_classification(p)
        # the report keeps the first restricted internal conflict in type-2
        # order; the full listing of every type-2 set is checked here
        naive_dirty = []
        for t2 in type2:
            listed = naive_restricted_internal_conflicts(p, t2.messages)
            assert restricted_internal_conflicts(p, t2.messages) == listed
            naive_dirty += [(t2.messages, pair, comp) for pair, comp in listed]
        assert report.dirty_witness == (naive_dirty[0] if naive_dirty else None)
        seen_kinds |= {info.kind for info in report.alignment_sets}
    assert seen_kinds == set(Kind)


def test_type2_grouping_matches_reference_past_n10():
    # both paths of the grouping: one component, where the listing is the
    # group, and several, where each triangle joins its first pair's group
    groups = []
    for n, density, seed in product((12, 16), (0.7, 0.85), range(10)):
        p = random_problem(n, density, seed=seed)
        found = written_type2_sets(p)
        assert found == naive_type2_sets(p)
        groups.append(len(found))
    assert 1 in groups
    assert any(g > 1 for g in groups)


def test_bits_match_hyperedge_reference():
    # duplicated receivers, groupcast demands and an interfering set
    # emptied by side information must all give the reference's view
    doubled = [Problem(p.n, p.receivers + p.receivers[::2]) for p in map(reference_problem, range(20))]
    empty = Problem(3, (Receiver(frozenset({1}), frozenset({2, 3})), Receiver(frozenset({2, 3}), frozenset())))
    problems = (
        [reference_problem(seed) for seed in range(150)]
        + [load_fixture(f) for f in FIXTURE_NAMES]
        + [random_problem(n, 0.5, single_unicast=False, seed=seed) for n in (5, 12, 24) for seed in range(4)]
        + doubled
        + [empty, Problem(2, (Receiver(frozenset({1}), frozenset({2})),))]
    )
    assert empty.bits.hyperedges == {(2, 0b1010), (3, 0b0110)}  # receiver 1 adds no edge
    for p in problems:
        want = reference_bits(p)
        assert bits_fields(p, want) == want
        pairs = reference_conflict_pairs(p)
        assert conflicts(p) == pairs
        assert check_rate_one(p).conflict_witness == (min(pairs) if pairs else None)
        assert alignment_graph(p) == naive_alignment_graph(p)


def dense_groupcast_problem(seed):
    """Seeded groupcast problem with n <= 30 whose receivers demand 1 to n
    messages, most often one to four, and hold side information at density
    0-0.8; every fourth one repeats its receivers, and every fifth gives one
    outside set to several receivers, which form one block when they are
    four or more."""
    rng = random.Random(f"dense-groupcast:{seed}")
    n = rng.randint(1, 30)
    density = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8])
    receivers = []
    for _ in range(rng.randint(1, n)):
        demands = frozenset(rng.sample(range(1, n + 1), min(n, rng.choice([1, 2, 3, 4, rng.randint(1, n)]))))
        side = frozenset(m for m in range(1, n + 1) if m not in demands and rng.random() < density)
        receivers.append(Receiver(demands, side))
    if seed % 4 == 0:
        receivers += receivers
    if seed % 5 == 0:
        side = frozenset(m for m in range(1, n + 1) if rng.random() < density)
        receivers += [Receiver(frozenset({m}), side) for m in range(1, n + 1) if m not in side]
    return Problem(n, tuple(receivers))


def block_groups(p):
    """The groups the block rule passes, read straight from the receivers:
    O, the messages outside a receiver's side information, to the OR D of
    the demands of the receivers with that O, kept when D holds four or
    more demands."""
    full, grouped = (1 << (p.n + 1)) - 2, {}
    for r in p.receivers:
        o = full ^ sum(1 << m for m in r.side_info)
        grouped[o] = grouped.get(o, 0) | sum(1 << k for k in r.demands)
    return {(o, d) for o, d in grouped.items() if d.bit_count() >= 4}


def sets_by_blocks(p):
    """The interfering sets, each O less a demand, of the receivers whose
    outside mask O is a block's, and of the other receivers."""
    full, blocks = (1 << (p.n + 1)) - 2, {o for o, _ in p.bits.blocks}
    found = set(), set()
    for r in p.receivers:
        o = full ^ sum(1 << m for m in r.side_info)
        found[o not in blocks].update(o ^ 1 << k for k in r.demands)
    return found


def _scans(p):
    """What the per-set scans feed: the type-2 components with their partner
    groups as sets, the triangles, ``triangles_past`` at a few limits and
    both reports."""
    rep = analyze(p)
    limits = (0, 1, 5, 100, 10_000)
    return (
        sorted((messages, sorted(pairs)) for messages, pairs in structure._pair_components(p)),
        triangular_interfering_sets(p),
        [triangles_past(p, limit) for limit in limits],
        json.dumps(report_to_dict(rep), sort_keys=True, indent=2),
        render_report(rep),
    )


def test_block_scans_match_the_per_set_reference(monkeypatch):
    # the receiver blocks of Problem.bits, the type-2 star scan and the
    # triangle rows against the per-set walks they replace (tests/reference.py)
    problems = (
        [dense_groupcast_problem(seed) for seed in range(120)]
        + [load_fixture(f) for f in FIXTURE_NAMES]
        + [Problem(n, (Receiver(frozenset(range(1, n + 1)), frozenset()),)) for n in (1, 2, 3, 4, 5, 8, 13, 30, 64)]
        + [Problem(30, (Receiver(frozenset({1}), frozenset()),) * 2)]  # a repeated receiver is no block
        # the block O = {1..7} with demands 1-4 has the set O - 1 = {2..7},
        # and so does the receiver with O = {2..8} that demands 8 alone
        + [Problem(8, (Receiver(frozenset({1, 2, 3, 4}), frozenset({8})), Receiver(frozenset({8}), frozenset({1}))))]
        # as above, but the receiver with O = {2..8} demands 5, 6 and 8, a
        # group of three demands, which is no block
        + [
            Problem(
                8, (Receiver(frozenset({1, 2, 3, 4}), frozenset({8})), Receiver(frozenset({5, 6, 8}), frozenset({1})))
            )
        ]
    )
    assert sum(bool(p.bits.blocks) for p in problems) > len(problems) // 2
    shared = 0  # problems with a set that a block and a receiver outside the blocks both have
    found = []
    for p in problems:
        want = reference.bits(p)
        assert bits_fields(p, want) == want
        assert p.bits.hyperedges == reference.edge_masks(p)
        # the blocks are exactly the groups the rule passes, and each of
        # their sets O - {k} holds three or more members
        assert set(p.bits.blocks) == block_groups(p)
        assert all((o ^ 1 << k).bit_count() >= 3 for o, d in p.bits.blocks for k in _iter_bits(d))
        # scan: in the order of sets, every set of three or more members no
        # block has, then each block's O
        in_blocks, outside_blocks = sets_by_blocks(p)
        assert p.bits.scan == tuple(s for s in p.bits.sets if s.bit_count() > 2 and s not in in_blocks) + tuple(
            o for o, _ in p.bits.blocks
        )
        shared += bool(in_blocks & outside_blocks)
        found.append(_scans(p))
    assert shared
    monkeypatch.setattr(structure, "_pair_components", reference.pair_components)
    monkeypatch.setattr(structure, "_triangle_rows", reference.triangle_rows)
    assert [_scans(Problem(p.n, p.receivers)) for p in problems] == found


@given(st.integers(0, 400))
@settings(max_examples=150, deadline=None)
def test_components_merged_once_match_references(seed):
    # the full alignment sets, the rate-1/2 witness and the restricted sets
    # the rate-1/3 construction reads are merged once each
    p = reference_problem(seed)
    assert alignment_sets(p) == naive_restricted_alignment_sets(p, p.messages)
    internal = naive_restricted_internal_conflicts(p, p.messages)
    verdict = check_rate_half(p)
    assert (verdict.internal_conflict, verdict.alignment_set) == (internal[0] if internal else (None, None))
    assert verdict.feasible == (not internal)
    assert structure_report(p).restricted_sets == {
        t2.messages: tuple(naive_restricted_alignment_sets(p, t2.messages)) for t2 in type2_alignment_sets(p)
    }


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


@given(st.integers(0, 400), st.booleans())
@settings(max_examples=100, deadline=None)
def test_acyclic_quadruple_matches_naive_search(seed, unicast):
    # the report carries the exact tuple, so the lexicographically first
    # witness must come back, not just some witness
    p = random_unicast_problem(seed) if unicast else reference_problem(seed, max_n=8)
    assert find_acyclic_quadruple(p) == naive_acyclic_quadruple(p)


def kinds(p):
    return {info.members: info.kind for info in structure_report(p).alignment_sets}


def test_classification_kind2():
    p = parse_problem(
        '{"n": 4, "receivers": ['
        '{"demands": [1], "side_info": [2, 3, 4]},'
        '{"demands": [2], "side_info": [1, 3, 4]},'
        '{"demands": [3], "side_info": [1, 2, 4]},'
        '{"demands": [4], "side_info": []}]}'
    )
    assert kinds(p) == {frozenset({1, 2, 3}): Kind.KIND2, frozenset({4}): Kind.KIND1}


def naive_alignment_graph(p):
    """Pairs a < b that lie together in some Interf_k(j), from the hyperedges."""
    return frozenset(pair for _, interf in hyperedges(p) for pair in combinations(sorted(interf), 2))


def naive_classification(p):
    """(members, fork, cycle, kind) per alignment set, from the receivers'
    interfering sets alone: degrees and edges counted on
    ``naive_alignment_graph``, the type-2 unions of ``naive_type2_sets``, and
    restricted conflicts read off ``restrict_problem``."""
    hyper, pairs, graph = hyperedges(p), reference_conflict_pairs(p), naive_alignment_graph(p)
    type2 = {messages for _, messages in naive_type2_sets(p)}

    def dirty(members):
        q, _ = restrict_problem(p, members)
        inner = reference_conflict_pairs(q)
        return any(
            pair in inner
            for comp in naive_restricted_alignment_sets(q, q.messages)
            for pair in combinations(sorted(comp), 2)
        )

    out = []
    for s in naive_restricted_alignment_sets(p, p.messages):
        edges = [e for e in graph if set(e) <= s]
        fork = any(sum(v in e for e in edges) >= 3 for v in s)
        if not any(len(interf & s) >= 3 for _, interf in hyper):
            kind = Kind.KIND1
        elif len(s) == 3 and not any(pair in pairs for pair in combinations(sorted(s), 2)):
            kind = Kind.KIND2
        elif s in type2:
            kind = Kind.TYPE2_DIRTY if dirty(s) else Kind.TYPE2_CLEAN
        else:
            kind = Kind.OTHER
        out.append((s, fork, len(edges) >= len(s), kind))
    return out


def test_classification_matches_naive_reference():
    # n <= 10 keeps the naive triangle listing cheap and still meets every kind
    problems = (
        [reference_problem(seed, max_n=10) for seed in range(300)]
        + [random_unicast_problem(seed) for seed in range(200)]
        + [random_constructible_problem(seed) for seed in range(50)]
    )
    seen = set()
    for p in problems:
        found = [(i.members, i.has_fork, i.has_cycle, i.kind) for i in structure_report(p).alignment_sets]
        assert found == naive_classification(p)
        seen |= {(fork, cycle, kind) for _, fork, cycle, kind in found}
    assert {kind for *_, kind in seen} == set(Kind)
    assert {fork for fork, _, _ in seen} == {cycle for _, cycle, _ in seen} == {False, True}


def test_classification_reads_the_type2_dirty_map():
    # the map, not a recomputation, decides clean against dirty
    ex_inf = load_fixture("ex_inf")
    mask = mask_of({1, 2, 3, 4})
    assert classify_alignment_set(ex_inf, mask, {mask: True}) is Kind.TYPE2_DIRTY
    assert classify_alignment_set(ex_inf, mask, {mask: False}) is Kind.TYPE2_CLEAN
    assert classify_alignment_set(ex_inf, mask, {}) is Kind.OTHER


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
                assert (a, b) in g

    # every type-2 union sits inside exactly one alignment set, and every
    # triangle sits inside one alignment set too
    for triangles, messages in written_type2_sets(p):
        assert sum(1 for s in sets if messages <= s) == 1
        for tri in triangles:
            assert sum(1 for s in sets if set(tri) <= s) == 1

    # classification is total and consistent with the report
    found = kinds(p)
    for s in sets:
        assert found[s] in set(Kind)

    # an acyclic quadruple's first three messages form a triangular set
    quad = find_acyclic_quadruple(p)
    if quad is not None:
        triangles = set(triangular_interfering_sets(p))
        assert tuple(sorted(quad[:3])) in triangles


def test_dot_export_bytes_are_pinned():
    # alignment edges ascending, then one hub per hyperedge (k, I) ordered by
    # k and then by the ascending members of I
    assert "".join(to_dot(load_fixture("ex_feas"))) == """\
graph index_coding {
  m1 [label="W1"];
  m2 [label="W2"];
  m3 [label="W3"];
  m4 [label="W4"];
  m5 [label="W5"];
  m6 [label="W6"];
  m1 -- m4;
  m2 -- m3;
  m3 -- m4;
  m3 -- m5;
  m4 -- m5;
  m4 -- m6;
  h0 [shape=point, label=""];
  m1 -- h0 [style=dashed];
  h0 -- m4 [style=dashed];
  h0 -- m6 [style=dashed];
  h1 [shape=point, label=""];
  m2 -- h1 [style=dashed];
  h1 -- m1 [style=dashed];
  h1 -- m4 [style=dashed];
  h2 [shape=point, label=""];
  m5 -- h2 [style=dashed];
  h2 -- m2 [style=dashed];
  h2 -- m3 [style=dashed];
  h3 [shape=point, label=""];
  m6 -- h3 [style=dashed];
  h3 -- m3 [style=dashed];
  h3 -- m4 [style=dashed];
  h3 -- m5 [style=dashed];
}
"""


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
    assert "".join(to_dot(a)) == "".join(to_dot(b))
