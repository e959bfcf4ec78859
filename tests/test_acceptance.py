"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS line
(visible with ``pytest -s``); a failed criterion fails its test.  Budgets
are asserted alongside the functional checks.
"""

import json
import random
import sys
import time

from indexcode.codec import (
    ScalarLinearCode,
    construct_rate_half,
    construct_rate_third,
    decode_all,
    encode,
    verify,
)
from indexcode.feasibility import RateThirdStatus, analyze, check_rate_half
from indexcode.fixtures import load_fixture
from indexcode.oracle import exists_code, min_length
from indexcode.problem import Problem, conflicts, problem_to_json, random_problem
from indexcode.structure import (
    Kind,
    alignment_graph,
    find_acyclic_quadruple,
    restricted_internal_conflicts,
    structure_report,
)

from corpusgen import (
    hyperedges,
    random_constructible_problem,
    random_unicast_problem,
    shared_hypergraph_pair,
)
from reference import project_plane, rank
from test_linalg import make_chain


def _passed(num: int, budget: float, started: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"PASS criterion-{num}: {detail} ({elapsed:.1f}s)", file=sys.stderr, flush=True)


def test_criterion_01_hypergraph_separates_motivating_pair():
    started = time.monotonic()
    ex1a, ex1b = load_fixture("ex1a"), load_fixture("ex1b")
    assert conflicts(ex1a) == conflicts(ex1b)
    assert alignment_graph(ex1a) == alignment_graph(ex1b)
    assert hyperedges(ex1a) != hyperedges(ex1b)
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
    _passed(1, 1.0, started, "pair shares conflict graph and alignment graph, hypergraphs differ")


def test_criterion_02_infeasible_example_pipeline():
    started = time.monotonic()
    p = load_fixture("ex_inf")
    report = structure_report(p)
    assert report.dirty_witness[0] == frozenset({1, 2, 3, 4})
    assert frozenset({1, 2, 3, 4}) in {t2.messages for t2 in report.type2_sets}
    pairs = {pair for pair, _restricted in restricted_internal_conflicts(p, frozenset({1, 2, 3, 4}))}
    assert (1, 3) in pairs
    assert find_acyclic_quadruple(p) is None
    verdict = analyze(p).rate_third
    assert verdict.status is RateThirdStatus.INFEASIBLE_DIRTY_TYPE2
    assert verdict.feasible is False
    for q in (2, 3):
        assert min_length(p, q, l_max=4).min_length == 4
    _passed(2, 10.0, started, "dirty type-2 witness {1,2,3,4}/(1,3), no quadruple, min length 4 over GF(2) and GF(3)")


def test_criterion_03_feasible_example_pipeline():
    started = time.monotonic()
    p = load_fixture("ex_feas")
    half = check_rate_half(p)
    assert not half.feasible and half.internal_conflict is not None
    a, b = half.internal_conflict
    assert {a, b} <= (half.alignment_set or frozenset())

    prime = 1009
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    code = ScalarLinearCode(length=3, prime=prime, vectors=(e1, e3, e1, e2, e2, e3))
    result = verify(p, code)
    assert result.ok

    rng = random.Random("acceptance-3")
    for _ in range(100):
        payload = [rng.randrange(prime) for _ in range(p.n)]
        word = encode(code, payload)
        side = [{m: payload[m - 1] for m in r.side_info} for r in p.receivers]
        decoded = decode_all(p, code, word, side)
        for r, out in zip(p.receivers, decoded):
            assert out == {k: payload[k - 1] for k in r.demands}

    assert min_length(p, 2, l_max=4).min_length == 3
    verdict = analyze(p).rate_third
    assert verdict.status is RateThirdStatus.UNDETERMINED
    assert verdict.conjecture_predicts_feasible
    _passed(3, 10.0, started, "explicit length-3 assignment verifies, 100 decode round-trips, min length 3 over GF(2)")


def test_criterion_04_internal_conflict_rate_half_equivalence():
    started = time.monotonic()
    constructed = 0
    fast = 0
    conflicted = 0
    for seed in range(200):
        p = random_unicast_problem(seed)
        if check_rate_half(p).feasible:
            code, result = construct_rate_half(p)
            assert result.ok
            constructed += 1
            if result.attempts_used <= 2:
                fast += 1
        else:
            conflicted += 1
            for q in (2, 3, 5):
                found, _w, _n = exists_code(p, q, 2)
                assert not found, f"seed {seed}: length-2 code exists over GF({q})"
    assert constructed and conflicted
    assert fast / constructed >= 0.99
    _passed(
        4,
        300.0,
        started,
        f"{constructed} conflict-free instances built at length 2 "
        f"({fast} in <=2 attempts), {conflicted} conflicted instances have no length-2 code over GF(2,3,5)",
    )


def _main_construction_corpus() -> list[Problem]:
    corpus = [random_constructible_problem(seed) for seed in range(100)]
    corpus.append(load_fixture("p5"))
    return corpus


def test_criterion_05_length_three_construction_suite():
    started = time.monotonic()
    kinds_seen = set()
    for p in _main_construction_corpus():
        report = structure_report(p)
        kinds_seen |= {info.kind for info in report.alignment_sets}
        code, result = construct_rate_third(p)
        assert result.ok
        # a valid length-3 code spans at most two dimensions on each type-2 union
        for t2 in report.type2_sets:
            assert rank([code.vector(i) for i in t2.messages], code.prime) <= 2
    assert {Kind.KIND1, Kind.KIND2, Kind.TYPE2_CLEAN} <= kinds_seen
    _passed(5, 300.0, started, "101 engineered instances all yield verified length-3 codes with two-dimensional type-2 spans")


def test_criterion_06_necessary_conditions_against_oracle():
    started = time.monotonic()
    quad_hits = 0
    dirty_hits = 0
    for seed in range(200):
        p = random_unicast_problem(seed)
        has_quad = find_acyclic_quadruple(p) is not None
        has_dirty = structure_report(p).dirty_witness is not None
        if not (has_quad or has_dirty):
            continue
        quad_hits += has_quad
        dirty_hits += has_dirty
        for q in (2, 3):
            found, _w, _n = exists_code(p, q, 3)
            assert not found, f"seed {seed}: length-3 code exists over GF({q})"
    assert quad_hits and dirty_hits
    _passed(
        6,
        300.0,
        started,
        f"{dirty_hits} dirty-type-2 instances ({quad_hits} with acyclic quadruples) all lack length-3 codes over GF(2,3)",
    )


def test_criterion_07_dimension_chain_equivalence():
    started = time.monotonic()
    prime = 1009
    rng = random.Random("acceptance-7")
    for trial in range(1000):
        k = rng.choice([1, 2])
        n_sets = rng.randint(2, 6)
        inflate = {i for i in range(n_sets) if rng.random() < 0.3}
        sets = make_chain(rng, k, n_sets, inflate, p=prime)
        for i in range(n_sets - 1):
            shared = [v for v in sets[i] if v in set(sets[i + 1])]
            assert rank(shared, prime) == k
        union_rank = rank([v for u in sets for v in u], prime)
        every_set_flat = all(rank(u, prime) == k for u in sets)
        assert (union_rank == k) == every_set_flat
        if not every_set_flat:
            assert union_rank > k
    _passed(7, 30.0, started, "1000 chains at K in {1,2}: union spans K exactly when every set does")


def _some_verified_code(p: Problem) -> ScalarLinearCode:
    """A verified code via the cheapest applicable route."""
    if check_rate_half(p).feasible:
        code, _ = construct_rate_half(p)
        return code
    verdict = analyze(p).rate_third
    if verdict.status is RateThirdStatus.FEASIBLE_MAIN:
        code, _ = construct_rate_third(p)
        return code
    identity = tuple(tuple(1 if c == m else 0 for c in range(p.n)) for m in range(p.n))
    return ScalarLinearCode(length=p.n, prime=2, vectors=identity)


def test_criterion_08_codes_transfer_across_shared_hypergraphs():
    started = time.monotonic()
    for seed in range(50):
        p1, p2 = shared_hypergraph_pair(seed)
        assert hyperedges(p1) == hyperedges(p2)
        for src, dst in ((p1, p2), (p2, p1)):
            code = _some_verified_code(src)
            assert verify(src, code).ok
            assert verify(dst, code).ok
    _passed(8, 60.0, started, "50 problem pairs with equal hypergraphs accept each other's verified codes, both directions")


def test_criterion_09_type2_assignments_project_to_length_two():
    started = time.monotonic()
    projected = 0
    for p in _main_construction_corpus():
        code, result = construct_rate_third(p)
        assert result.ok
        for info in structure_report(p).alignment_sets:
            if info.kind is not Kind.TYPE2_CLEAN:
                continue
            restricted, _mapping, l2 = project_plane(p, code, info.members)
            assert l2.length == 2
            assert verify(restricted, l2).ok
            projected += 1
    assert projected >= 10
    _passed(9, 60.0, started, f"{projected} clean type-2 assignments collapse to verified length-2 codes")


def test_criterion_10_conjecture_probe_report(tmp_path):
    started = time.monotonic()
    achieved = 0
    candidates = []
    seed = 0
    examined = 0
    while examined < 500:
        rng = random.Random(f"probe:{seed}")
        n = rng.randint(3, 7)
        density = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        p = random_problem(n, density, seed=seed)
        seed += 1
        if structure_report(p).dirty_witness is not None:
            continue
        examined += 1
        # the first of GF(2) and GF(3) with a code of length at most 3 settles the instance
        if any(min_length(p, q, l_max=3).min_length is not None for q in (2, 3)):
            achieved += 1
            continue
        candidate = tmp_path / f"candidate-{seed - 1}.json"
        payload = {
            "kind": "conjecture-counterexample-candidate",
            "note": (
                "all type-2 sets are clean but no code of length <= 3 exists over "
                "the tested fields; this does NOT refute the large-field conjecture"
            ),
            "tested_fields": [2, 3],
            "problem": json.loads(problem_to_json(p)),
        }
        candidate.write_text(json.dumps(payload, indent=2) + "\n")
        candidates.append(candidate.name)
    report = {
        "instances": examined,
        "achieving_length_3_over_tested_fields": achieved,
        "counterexample_candidates": candidates,
        "tested_fields": [2, 3],
    }
    report_path = tmp_path / "conjecture-probe-report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    assert report_path.exists() and all((tmp_path / c).exists() for c in candidates)
    assert achieved + len(candidates) == 500
    _passed(
        10,
        900.0,
        started,
        f"500 clean instances probed: {achieved} achieve length 3 over GF(2,3), "
        f"{len(candidates)} candidate files emitted, report written",
    )
