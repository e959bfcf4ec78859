import dataclasses
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import random_constructible_problem, random_unicast_problem
from indexcode.codec import construct_rate_third, verify
from indexcode.feasibility import (
    RateThirdStatus,
    analyze,
    check_rate_half,
    check_rate_one,
    check_rate_third,
    render_report,
    report_to_dict,
)
from indexcode.fixtures import FIXTURE_NAMES, load_fixture
from indexcode.problem import parse_problem, random_problem
from indexcode.structure import structure_report, triangular_interfering_sets, type2_alignment_sets
from reference import three_colouring, unit_vector_code
from test_oracle import relabeled_twins


def test_rate_one_full_side_info():
    p = random_problem(4, 1.0, seed=3)
    assert check_rate_one(p).feasible


def test_rate_one_single_message():
    p = parse_problem('{"n": 1, "receivers": [{"demands": [1], "side_info": []}]}')
    assert check_rate_one(p).feasible


def test_rate_one_ex_feas_witness():
    verdict = check_rate_one(load_fixture("ex_feas"))
    assert not verdict.feasible
    assert verdict.conflict_witness is not None


def test_rate_half_ex_feas():
    verdict = check_rate_half(load_fixture("ex_feas"))
    assert not verdict.feasible
    assert verdict.alignment_set == frozenset(range(1, 7))
    a, b = verdict.internal_conflict
    assert {a, b} <= verdict.alignment_set


def test_rate_half_ex1a_internal_conflict():
    verdict = check_rate_half(load_fixture("ex1a"))
    assert not verdict.feasible
    assert verdict.alignment_set == frozenset({1, 2, 3})
    a, b = verdict.internal_conflict
    assert {a, b} <= {1, 2, 3}


def test_rate_half_conflict_free():
    assert check_rate_half(random_problem(5, 1.0, seed=9)).feasible


def test_rate_third_fixtures():
    ex_inf = analyze(load_fixture("ex_inf"))
    assert ex_inf.rate_third.status is RateThirdStatus.INFEASIBLE_DIRTY_TYPE2
    t2, pair, comp = ex_inf.rate_third.dirty_witness
    assert t2 == frozenset({1, 2, 3, 4})
    assert pair == (1, 3)

    p5 = analyze(load_fixture("p5"))
    assert p5.rate_third.status is RateThirdStatus.FEASIBLE_MAIN

    ex_feas = analyze(load_fixture("ex_feas"))
    assert ex_feas.rate_third.status is RateThirdStatus.UNDETERMINED
    assert ex_feas.rate_third.conjecture_predicts_feasible

    ex1b = analyze(load_fixture("ex1b"))
    assert ex1b.rate_third.status is RateThirdStatus.INFEASIBLE_DIRTY_TYPE2



def test_quadruple_verdict_does_not_predict_feasible():
    # no benchmark input reaches this branch (the dirty-type-2 condition
    # subsumes it), so feed one in: a quadruple and no dirty witness
    p = load_fixture("ex_feas")
    report = dataclasses.replace(
        structure_report(p), acyclic_quadruple=(1, 2, 3, 4), dirty_witness=None
    )
    verdict = check_rate_third(report)
    assert verdict.status is RateThirdStatus.INFEASIBLE_ACYCLIC_QUADRUPLE
    assert verdict.quadruple == (1, 2, 3, 4)
    assert verdict.feasible is False
    assert not verdict.conjecture_predicts_feasible


def test_analyze_composition_ex_inf():
    rep = analyze(load_fixture("ex_inf"))
    assert not rep.rate_one.feasible
    assert not rep.rate_half.feasible
    assert rep.rate_third.feasible is False


def test_analyze_conflict_free_all_feasible():
    rep = analyze(random_problem(3, 1.0, seed=0))
    assert rep.rate_one.feasible
    assert rep.rate_half.feasible
    assert rep.rate_third.status is RateThirdStatus.FEASIBLE_MAIN


@given(st.integers(0, 600))
@settings(max_examples=120, deadline=None)
def test_monotonicity_and_dominance(seed):
    p = random_unicast_problem(seed)
    rep = analyze(p)
    if rep.rate_one.feasible:
        assert rep.rate_half.feasible
    if rep.rate_half.feasible:
        assert rep.rate_third.feasible is not False
    # the dirty-type-2 condition subsumes the acyclic-quadruple condition
    if rep.structure.acyclic_quadruple is not None:
        assert rep.structure.dirty_witness is not None
        assert rep.rate_third.status is RateThirdStatus.INFEASIBLE_DIRTY_TYPE2


def test_report_serialization_stable():
    rep = analyze(load_fixture("ex_inf"))
    d = report_to_dict(rep)
    assert d["schema_version"] == 1
    assert d["rate_1_3"]["status"] == "infeasible-dirty-type2"
    assert d["rate_1_3"]["dirty_witness"]["type2_set"] == [1, 2, 3, 4]
    assert d["rate_1_3"]["dirty_witness"]["conflict"] == [1, 3]
    text = render_report(rep)
    assert "rate 1/3: infeasible" in text
    assert "type-2 set {1, 2, 3, 4}" in text


def test_render_undetermined_mentions_conjecture():
    text = render_report(analyze(load_fixture("ex_feas")))
    assert "undetermined" in text
    assert "conjecture predicts feasible" in text


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
    # only the type-2 message sets
    def no_listing(p):
        raise AssertionError("triangles listed")

    patched = []
    for name, module in list(sys.modules.items()):
        listing = vars(module).get("triangular_interfering_sets")
        if name.startswith("indexcode.") and listing is triangular_interfering_sets:
            monkeypatch.setattr(module, "triangular_interfering_sets", no_listing)
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
        if type2_alignment_sets(p):
            listed += 1
            with pytest.raises(AssertionError, match="triangles listed"):
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
