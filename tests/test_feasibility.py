import random
import sys
from collections import Counter
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import (
    every_unicast_problem,
    random_constructible_problem,
    random_groupcast_problem,
    random_unicast_problem,
)
from indexcode.codec import construct_rate_half, construct_rate_third, verify
from indexcode.feasibility import (
    RateThirdStatus,
    analyze,
    check_rate_half,
    check_rate_one,
    render_report,
    report_to_dict,
)
from indexcode.fixtures import FIXTURE_NAMES, load_fixture
from indexcode.oracle import min_length
from indexcode.problem import parse_problem, random_problem
from indexcode.structure import find_acyclic_quadruple, triangular_interfering_sets, type2_alignment_sets
from reference import three_colouring, unit_vector_code
from test_oracle import _contradictions, relabeled_twins


def test_rate_one_full_side_info():
    p = random_problem(4, 1.0, seed=3)
    assert check_rate_one(p).feasible


def test_rate_one_single_message():
    p = parse_problem('{"n": 1, "receivers": [{"demands": [1], "side_info": []}]}')
    assert check_rate_one(p).feasible


def test_rate_half_conflict_free():
    assert check_rate_half(random_problem(5, 1.0, seed=9)).feasible


# The census grid's undetermined problems, by (density, mode): "n:seeds"
# lists the seeds 0-9 at each n, one digit a seed
CENSUS_UNDETERMINED = {
    (0.3, "groupcast"): "5:2",
    (0.3, "unicast"): "4:1478",
    (0.5, "groupcast"): "4:2568 5:02",
    (0.5, "unicast"): "5:06 6:0",
    (0.7, "groupcast"): "5:38 6:4",
    (0.7, "unicast"): "5:4 6:4678 7:12346789 8:134678 9:04578 10:8 11:02 12:1",
    (0.85, "groupcast"): "5:5 7:2",
    (0.85, "unicast"): "6:1 7:09 8:67 9:01235679 10:01234569 11:12345678 12:01345679 13:012345678 14:02456789"
    " 15:013456789 16:12345678 17:15789 18:2457 19:024689 20:789 21:23479 22:56 23:9",
}


def test_rate_third_census():
    # every rate-1/3 verdict change shows as a diff of this one table: the
    # 1,680 problems of n = 4-24 at four densities, both modes, seeds 0-9
    statuses, rate_one, rate_half, undetermined = Counter(), 0, 0, []
    for n in range(4, 25):
        for density in (0.3, 0.5, 0.7, 0.85):
            for mode in ("unicast", "groupcast"):
                for seed in range(10):
                    rep = analyze(random_problem(n, density, mode == "unicast", seed))
                    statuses[rep.rate_third.status] += 1
                    rate_one += rep.rate_one.feasible
                    rate_half += rep.rate_half.feasible
                    if rep.rate_third.status is RateThirdStatus.UNDETERMINED:
                        undetermined.append((n, density, mode, seed))
    assert statuses == {
        RateThirdStatus.INFEASIBLE_DIRTY_TYPE2: 1405,
        RateThirdStatus.FEASIBLE_MAIN: 131,
        RateThirdStatus.UNDETERMINED: 144,
    }
    assert (rate_one, rate_half) == (3, 77)
    written = sorted(
        (int(n), density, mode, int(seed))
        for (density, mode), runs in CENSUS_UNDETERMINED.items()
        for n, seeds in (run.split(":") for run in runs.split())
        for seed in seeds
    )
    assert sorted(undetermined) == written
    digest = sha256(repr(written).encode()).hexdigest()
    assert digest == "41bd85a725138504158cf16f2890a4da9d6a289f14a8985948d5c90eb999cbba"


def test_every_unicast_problem_up_to_n4():
    # every labelled unicast problem at n = 1-4, 1 + 4 + 64 + 4,096 in all:
    # the counts of each verdict, and no verdict the oracle over GF(2) and
    # GF(3) up to length 4 refutes, with the nodes that oracle explores.
    # Every undetermined problem has a GF(2) code of length 3 or less
    table = {}
    for n in range(1, 5):
        statuses, rate_one, rate_half, nodes = Counter(), 0, 0, 0
        for p in every_unicast_problem(n):
            rep = analyze(p)
            results = [min_length(p, q, l_max=4) for q in (2, 3)]
            lengths = [r.min_length for r in results]
            assert not _contradictions(rep, lengths), (p, lengths)
            if rep.rate_third.status is RateThirdStatus.UNDETERMINED:
                assert lengths[0] is not None and lengths[0] <= 3, p
            statuses[rep.rate_third.status.name] += 1
            rate_one += rep.rate_one.feasible
            rate_half += rep.rate_half.feasible
            nodes += sum(r.nodes_explored for r in results)
        table[n] = dict(statuses), rate_one, rate_half, nodes
    assert table == {
        1: ({"FEASIBLE_MAIN": 1}, 1, 1, 2),
        2: ({"FEASIBLE_MAIN": 4}, 1, 4, 30),
        3: ({"FEASIBLE_MAIN": 64}, 1, 39, 1049),
        4: ({"FEASIBLE_MAIN": 2765, "INFEASIBLE_DIRTY_TYPE2": 543, "UNDETERMINED": 788}, 1, 921, 125_846),
    }


def test_every_feasible_unicast_problem_at_n4_is_constructed():
    # at the default prime, seeded, no construction exhausts its attempts
    built = Counter()
    for p in every_unicast_problem(4):
        rep = analyze(p)
        for rate, feasible, construct in (
            ("1/3", rep.rate_third.status is RateThirdStatus.FEASIBLE_MAIN, construct_rate_third),
            ("1/2", rep.rate_half.feasible, construct_rate_half),
        ):
            if feasible:
                code, result = construct(p, rng=random.Random(0))
                assert result.ok and verify(p, code).ok, (p, rate)
                built[rate] += 1
    assert built == {"1/3": 2765, "1/2": 921}


def test_acyclic_quadruple_implies_a_dirty_type2_set():
    # each step of the proof in check_rate_third's docstring, on every
    # quadruple of a deterministic grid of unicast and groupcast problems
    densities = (0.1, 0.3, 0.5, 0.7, 0.85, 0.95)
    grid = [(n, d, unicast, seed) for n in range(4, 25) for d in densities
            for unicast in (True, False) for seed in range(5)]
    grid += [(n, d, unicast, 0) for n in (32, 48, 64) for d in densities for unicast in (True, False)]
    quadruples = 0
    for n, density, unicast, seed in grid:
        p = random_problem(n, density, unicast, seed)
        quad = find_acyclic_quadruple(p)
        if quad is None:
            continue
        quadruples += 1
        m1, m2, m3, _ = quad
        rep = analyze(p)
        # the type-2 set of the conflict pair (m1, m2) holds the triangle {m1, m2, m3}
        (t2,) = [t for t in rep.structure.type2_sets if any(a == m1 and g >> m2 & 1 for a, g in t.partners)]
        assert {m1, m2, m3} <= t2.messages, (n, density, unicast, seed)
        # restricted to it, m1 and m2 share a restricted alignment set
        assert any({m1, m2} <= c for c in rep.structure.restricted_sets[t2.messages]), (n, density, unicast, seed)
        assert rep.rate_third.dirty_witness is not None
        assert rep.rate_third.status is RateThirdStatus.INFEASIBLE_DIRTY_TYPE2
    assert quadruples > 900


def test_analyze_conflict_free_all_feasible():
    rep = analyze(random_problem(3, 1.0, seed=0))
    assert rep.rate_one.feasible
    assert rep.rate_half.feasible
    assert rep.rate_third.status is RateThirdStatus.FEASIBLE_MAIN


@given(st.integers(0, 600))
@settings(max_examples=120, deadline=None)
def test_monotonicity_and_dominance(seed):
    for p in (random_unicast_problem(seed), random_groupcast_problem(seed)):
        rep = analyze(p)
        if rep.rate_one.feasible:
            assert rep.rate_half.feasible
        if rep.rate_half.feasible:
            assert rep.rate_third.feasible is not False
        if rep.rate_third.status is RateThirdStatus.UNDETERMINED:
            assert rep.rate_third.conjecture_predicts_feasible
        # the dirty-type-2 condition subsumes the acyclic-quadruple condition
        if find_acyclic_quadruple(p) is not None:
            assert rep.structure.dirty_witness is not None
            assert rep.rate_third.status is RateThirdStatus.INFEASIBLE_DIRTY_TYPE2


def _label_free_summary(p):
    rep = analyze(p)
    return (
        rep.rate_one.feasible,
        rep.rate_half.feasible,
        rep.rate_third.status,
        len(triangular_interfering_sets(p)),
        Counter(len(t.messages) for t in rep.structure.type2_sets),
        Counter(info.kind for info in rep.structure.alignment_sets),
    )


@given(relabeled_twins(max_n=12))
@settings(max_examples=100, deadline=None)
def test_analyze_invariant_under_relabeling(twins):
    # bit positions follow message ids, so an index slip shows up as a
    # verdict or a count that changes with the labels
    p, twin = twins
    assert _label_free_summary(p) == _label_free_summary(twin)


def test_only_the_json_report_lists_triangles(monkeypatch):
    # the verdicts, the text report and the rate-1/3 construction need
    # only the type-2 message sets, and no acyclic quadruple
    def no_listing(p):
        raise AssertionError("triangles listed")

    def no_search(p):
        raise AssertionError("quadruple searched")

    for search, stub in ((triangular_interfering_sets, no_listing), (find_acyclic_quadruple, no_search)):
        patched = []
        for name, module in list(sys.modules.items()):
            if name.startswith("indexcode.") and vars(module).get(search.__name__) is search:
                monkeypatch.setattr(module, search.__name__, stub)
                patched.append(name)
        assert "indexcode.structure" in patched and "indexcode.feasibility" in patched
    problems = (
        [load_fixture(f) for f in FIXTURE_NAMES]
        + [random_unicast_problem(seed) for seed in range(100)]
        + [random_problem(9, 0.7, seed=7), random_problem(24, 0.85, seed=1)]
    )
    listed = 0
    for p in problems:
        rep = analyze(p)
        render_report(rep)
        has_type2 = bool(type2_alignment_sets(p))
        listed += has_type2
        # report_to_dict lists the triangles, when a type-2 set exists, before it searches
        with pytest.raises(AssertionError, match="triangles listed" if has_type2 else "quadruple searched"):
            report_to_dict(rep)
    for seed in range(30):
        construct_rate_third(random_constructible_problem(seed))
    assert listed > 20


def test_no_infeasible_verdict_has_a_three_colourable_conflict_graph():
    # a proper 3-colouring c of the conflict graph gives a length-3 code over
    # every field, message m taking the unit vector e_c(m), so it refutes a
    # rate-1/3 INFEASIBLE verdict with no search over any field; the grid
    # reaches sizes the oracle cannot, and a colouring search past its
    # budget fails the test rather than skip the problem
    grid = [(n, d, unicast, seed) for n in range(4, 25) for d in (0.3, 0.5, 0.7, 0.85)
            for unicast in (True, False) for seed in range(10)]
    grid += [(n, d, unicast, seed) for n in (32, 48, 64, 96) for d in (0.5, 0.7, 0.85, 0.9, 0.95)
             for unicast in (True, False) for seed in range(2)]
    infeasible = colourable = 0
    for n, density, unicast, seed in grid:
        p = random_problem(n, density, unicast, seed)
        colour = three_colouring(p)
        if colour is not None:
            colourable += 1
            assert verify(p, unit_vector_code(colour)).ok, (n, density, unicast, seed)
        if analyze(p).rate_third.feasible is False:
            infeasible += 1
            assert colour is None, (n, density, unicast, seed)
    assert infeasible > 1000 and colourable > 200
