"""Feasibility ladder for symmetric rates 1, 1/2 and 1/3.

Rate 1 needs no conflicts at all; rate 1/2 needs no internal conflicts;
rate 1/3 is decided by three rules: a dirty type-2 set rules it out, the
classification-based construction establishes it, and everything else is
reported as Undetermined plus a clearly labeled conjecture prediction.
An acyclic quadruple implies a dirty type-2 set (``check_rate_third``),
so it decides nothing; ``report_to_dict`` searches for one only to write
it as a witness in the JSON report.

The verdicts and ``render_report`` read only the message sets of the
type-2 sets, so ``analyze`` lists no triangle.  ``report_to_dict`` is
the one caller of ``structure.triangular_interfering_sets``: the JSON
report writes every triangle, in the type-2 set of its first conflict
pair, and it reuses the pair components the analysis found.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .problem import ConflictPair, Problem, _iter_bits, _pairs
from .structure import (
    Kind,
    StructureReport,
    _group_triangles,
    find_acyclic_quadruple,
    structure_report,
    triangular_interfering_sets,
)


class RateOneVerdict(NamedTuple):
    feasible: bool
    conflict_witness: ConflictPair | None


class RateHalfVerdict(NamedTuple):
    feasible: bool
    internal_conflict: ConflictPair | None
    alignment_set: frozenset[int] | None


class RateThirdStatus(Enum):
    FEASIBLE_MAIN = "feasible-main-construction"
    INFEASIBLE_DIRTY_TYPE2 = "infeasible-dirty-type2"
    UNDETERMINED = "undetermined"


class RateThirdVerdict(NamedTuple):
    status: RateThirdStatus
    # dirty type-2 witness: (type-2 message union, conflict, restricted set)
    dirty_witness: tuple[frozenset[int], ConflictPair, frozenset[int]] | None

    @property
    def feasible(self) -> bool | None:
        """True/False when decided either way, None when undetermined."""
        if self.status is RateThirdStatus.FEASIBLE_MAIN:
            return True
        if self.status is RateThirdStatus.UNDETERMINED:
            return None
        return False

    @property
    def conjecture_predicts_feasible(self) -> bool:
        """The conjecture: clean type-2 sets suffice.  It never overrides
        the necessary condition, a dirty type-2 set."""
        return self.dirty_witness is None


@dataclass(frozen=True)
class FeasibilityReport:
    rate_one: RateOneVerdict
    rate_half: RateHalfVerdict
    rate_third: RateThirdVerdict
    structure: StructureReport


def check_rate_one(p: Problem) -> RateOneVerdict:
    """The witness is the lowest conflict pair, the first of ``problem._pairs``."""
    for pair, _ in _pairs(p.bits.conf, [(1 << (p.n + 1)) - 2]):
        return RateOneVerdict(feasible=False, conflict_witness=pair)
    return RateOneVerdict(feasible=True, conflict_witness=None)


def check_rate_half(p: Problem) -> RateHalfVerdict:
    """An internal conflict lies inside an alignment set; the first, by set
    and then by pair, is the witness, the first of ``problem._pairs``."""
    for pair, comp in _pairs(p.bits.conf, p.bits.components):
        return RateHalfVerdict(feasible=False, internal_conflict=pair, alignment_set=frozenset(_iter_bits(comp)))
    return RateHalfVerdict(feasible=True, internal_conflict=None, alignment_set=None)


_CONSTRUCTIBLE = {Kind.KIND1, Kind.KIND2, Kind.TYPE2_CLEAN}


def check_rate_third(report: StructureReport) -> RateThirdVerdict:
    """Three rules: a dirty type-2 set makes rate 1/3 infeasible, an
    analysis whose every alignment set classifies as constructible makes
    it feasible, and anything else is undetermined.

    The known necessary condition, an acyclic quadruple (the size-4
    acyclic induced subgraph bound of Bar-Yossef, Birk, Jayram and Kol,
    FOCS 2006), needs no rule of its own: it implies a dirty type-2 set.
    Let (m1, m2, m3, m4) be one, each message demanded by some receiver
    against an interfering set that holds every earlier one.

    - m2 is demanded against a set holding m1, so (m1, m2) is a conflict.
    - {m1, m2, m3} lies in an interfering set of m4 and holds the
      conflict (m1, m2), so it is a triangle.  The type-2 set T of the
      pair (m1, m2) holds that triangle, so all three messages are in T.
    - m3 is in T and is demanded against a set I holding m1 and m2.
      Restricted to T, I leaves I & T, which holds both, so
      ``structure._components(bits, T)`` puts m1 and m2 in one
      restricted alignment set.
    - So (m1, m2) is a restricted internal conflict, T is dirty, and the
      report has a dirty witness, the first in type-2 order.
    """
    if report.dirty_witness is not None:
        status = RateThirdStatus.INFEASIBLE_DIRTY_TYPE2
    elif all(info.kind in _CONSTRUCTIBLE for info in report.alignment_sets):
        status = RateThirdStatus.FEASIBLE_MAIN
    else:
        status = RateThirdStatus.UNDETERMINED
    return RateThirdVerdict(status=status, dirty_witness=report.dirty_witness)


def analyze(p: Problem) -> FeasibilityReport:
    report = structure_report(p)
    return FeasibilityReport(
        rate_one=check_rate_one(p),
        rate_half=check_rate_half(p),
        rate_third=check_rate_third(report),
        structure=report,
    )


def report_to_dict(rep: FeasibilityReport) -> dict:
    """Stable, versioned serialization of a feasibility report.

    The one place that lists the triangles: each type-2 set writes its
    own, placed by the partner groups the analysis found.  Sets with the
    same messages differ only there, so the head of each group, its first
    triangle, orders them."""
    third, structure = rep.rate_third, rep.structure
    # most oracle-small problems have no type-2 set, and skipping their empty listing saves 3.5% of the analyze op
    listing = triangular_interfering_sets(structure.problem) if structure.type2_sets else []
    found = find_acyclic_quadruple(structure.problem)
    quadruple = list(found) if found else None  # a witness only: no verdict reads it
    type2 = sorted(
        ((sorted(t.messages), group) for t, group in zip(structure.type2_sets, _group_triangles(structure, listing))),
        key=lambda entry: (entry[0], entry[1][0]),
    )
    return {
        "schema_version": 1,
        "rate_1": {
            "feasible": rep.rate_one.feasible,
            "conflict_witness": list(rep.rate_one.conflict_witness or []) or None,
        },
        "rate_1_2": {
            "feasible": rep.rate_half.feasible,
            "internal_conflict": list(rep.rate_half.internal_conflict or []) or None,
            "alignment_set": sorted(rep.rate_half.alignment_set)
            if rep.rate_half.alignment_set
            else None,
        },
        "rate_1_3": {
            "status": third.status.value,
            "feasible": third.feasible,
            "dirty_witness": {
                "type2_set": sorted(third.dirty_witness[0]),
                "conflict": list(third.dirty_witness[1]),
                "restricted_alignment_set": sorted(third.dirty_witness[2]),
            }
            if third.dirty_witness
            else None,
            "acyclic_quadruple": quadruple,
            "conjecture_predicts_feasible": third.conjecture_predicts_feasible,
        },
        "structure": {
            "alignment_sets": [
                {
                    "members": sorted(info.members),
                    "has_fork": info.has_fork,
                    "has_cycle": info.has_cycle,
                    "kind": info.kind.value,
                }
                for info in rep.structure.alignment_sets
            ],
            "type2_sets": [
                {
                    "messages": messages,
                    "triangles": group,  # json writes each int triple as a list
                }
                for messages, group in type2
            ],
            "acyclic_quadruple": quadruple,
        },
    }


def render_report(rep: FeasibilityReport) -> str:
    """Human-readable rendering, read from the report itself.  Each set is
    printed from its sorted ids, as the JSON form lists them."""
    lines = []
    r1 = rep.rate_one
    lines.append(
        "rate 1:   feasible"
        if r1.feasible
        else f"rate 1:   infeasible (conflict {set(r1.conflict_witness)})"
    )
    rh = rep.rate_half
    if rh.feasible:
        lines.append("rate 1/2: feasible (no internal conflicts)")
    else:
        lines.append(
            f"rate 1/2: infeasible (internal conflict {set(rh.internal_conflict)} "
            f"inside alignment set {set(sorted(rh.alignment_set))})"
        )
    rt = rep.rate_third
    if rt.status is RateThirdStatus.FEASIBLE_MAIN:
        lines.append("rate 1/3: feasible (main construction applies)")
    elif rt.status is RateThirdStatus.INFEASIBLE_DIRTY_TYPE2:
        type2_set, conflict, _ = rt.dirty_witness
        lines.append(
            f"rate 1/3: infeasible (type-2 set {set(sorted(type2_set))} has restricted "
            f"internal conflict {set(conflict)})"
        )
    else:
        # undetermined only without a dirty witness, so the conjecture predicts feasible
        lines.append("rate 1/3: undetermined by the known conditions; conjecture predicts feasible")
    for info in rep.structure.alignment_sets:
        flags = [name for name, has in (("fork", info.has_fork), ("cycle", info.has_cycle)) if has]
        flag_text = f" [{', '.join(flags)}]" if flags else ""
        lines.append(f"  alignment set {set(sorted(info.members))}: {info.kind.value}{flag_text}")
    return "\n".join(lines) + "\n"
