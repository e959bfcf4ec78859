"""Exhaustive ground truth: minimum scalar linear code length by search.

Backtracking over projective representatives (first nonzero coordinate
normalized to 1), message by message; every span condition is checked as
soon as its last participating message is assigned.  The first assigned
message is pinned to a canonical representative, which is sound because
the resolved-conflicts criterion is invariant under any invertible change
of basis.

Results are always field-relative: "no length-3 code over GF(2) and
GF(3)" does not by itself rule the rate out over larger fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from . import linalg
from .codec import ScalarLinearCode
from .problem import Problem, problem_to_json
from .structure import structure_report

DEFAULT_N_CAP = 10
DEFAULT_L_CAP = 4
DEFAULT_FIELDS = (2, 3, 5)


class OracleCapError(ValueError):
    """The instance exceeds the configured exhaustive-search caps."""


@dataclass(frozen=True)
class OracleResult:
    prime: int
    exists_by_length: dict[int, bool]
    min_length: int | None
    witness: ScalarLinearCode | None
    nodes_explored: int


def projective_points(q: int, length: int) -> list[linalg.Vector]:
    """One representative per projective equivalence class of GF(q)^length."""
    points = []
    for leading in range(length):
        for tail in product(range(q), repeat=length - leading - 1):
            points.append((0,) * leading + (1,) + tail)
    return points


def _check_caps(p: Problem, q: int, length: int, n_cap: int, l_cap: int) -> None:
    if p.n > n_cap:
        raise OracleCapError(f"n={p.n} exceeds the oracle cap {n_cap}")
    if length > l_cap:
        raise OracleCapError(f"L={length} exceeds the oracle cap {l_cap}")
    if not linalg.is_prime(q):
        raise OracleCapError(f"field size {q} is not prime")


def exists_code(
    p: Problem,
    q: int,
    length: int,
    n_cap: int = DEFAULT_N_CAP,
    l_cap: int = DEFAULT_L_CAP,
) -> tuple[bool, ScalarLinearCode | None, int]:
    """Is there a length-``length`` scalar linear code over GF(q)?

    Returns (exists, witness or None, nodes explored).  Exhaustive up to
    per-vector scaling and a global change of basis.
    """
    _check_caps(p, q, length, n_cap, l_cap)

    # Constraint (k, interferers) fires once the last of its messages is
    # assigned; larger interfering sets are checked first for pruning.
    by_last: dict[int, list[tuple[int, frozenset[int]]]] = {m: [] for m in range(1, p.n + 1)}
    for k, interf in sorted(p.hyperedges, key=lambda c: -len(c[1])):
        by_last[max(interf | {k})].append((k, interf))

    points = projective_points(q, length)
    span_cache: dict[tuple[frozenset[linalg.Vector], linalg.Vector], bool] = {}

    def cached_in_span(v: linalg.Vector, vs: frozenset[linalg.Vector]) -> bool:
        key = (vs, v)
        hit = span_cache.get(key)
        if hit is None:
            hit = linalg.in_span(v, list(vs), q)
            span_cache[key] = hit
        return hit

    assignment: list[linalg.Vector | None] = [None] * (p.n + 1)
    nodes = 0

    def search(m: int) -> bool:
        nonlocal nodes
        # symmetry breaking: the first message takes one canonical point
        candidates = points[:1] if m == 1 else points
        for v in candidates:
            nodes += 1
            assignment[m] = v
            ok = True
            for k, interf in by_last[m]:
                vk = assignment[k]
                blockers = frozenset(assignment[i] for i in interf)  # type: ignore[misc]
                if cached_in_span(vk, blockers):  # type: ignore[arg-type]
                    ok = False
                    break
            if ok:
                if m == p.n or search(m + 1):
                    return True
        assignment[m] = None
        return False

    if search(1):
        vectors = tuple(assignment[1:])  # type: ignore[arg-type]
        return True, ScalarLinearCode(length=length, prime=q, vectors=vectors), nodes
    return False, None, nodes


def min_length(
    p: Problem,
    q: int,
    l_max: int = DEFAULT_L_CAP,
    n_cap: int = DEFAULT_N_CAP,
) -> OracleResult:
    """Smallest code length up to ``l_max`` over GF(q), or none."""
    _check_caps(p, q, l_max, n_cap, DEFAULT_L_CAP)
    exists_by_length: dict[int, bool] = {}
    nodes_total = 0
    for length in range(1, l_max + 1):
        found, witness, nodes = exists_code(p, q, length, n_cap=n_cap)
        nodes_total += nodes
        exists_by_length[length] = found
        if found:
            return OracleResult(
                prime=q,
                exists_by_length=exists_by_length,
                min_length=length,
                witness=witness,
                nodes_explored=nodes_total,
            )
    return OracleResult(
        prime=q,
        exists_by_length=exists_by_length,
        min_length=None,
        witness=None,
        nodes_explored=nodes_total,
    )


@dataclass(frozen=True)
class ProbeFinding:
    all_type2_clean: bool
    min_lengths: dict[int, int | None]  # per tested field, up to length 3
    achieves_one_third: bool
    candidate_path: str | None


def conjecture_probe(
    p: Problem,
    fields: tuple[int, ...] = (2, 3),
    candidate_dir: str | None = None,
    label: str = "candidate",
) -> ProbeFinding:
    """Empirical probe of the clean-type-2 conjecture on one instance.

    Only meaningful on problems whose type-2 sets are all clean.  Records
    whether some tested field admits a code of length at most 3; if none
    does, optionally emits a labeled counterexample-candidate file.  A
    candidate is only a candidate: small-field infeasibility says nothing
    about the conjecture's large-field claim.
    """
    report = structure_report(p)
    clean = not report.dirty_witnesses
    lengths: dict[int, int | None] = {}
    for q in fields:
        lengths[q] = min_length(p, q, l_max=3).min_length
        if lengths[q] is not None:
            break  # one achieving field settles the instance
    achieved = any(v is not None for v in lengths.values())
    path = None
    if clean and not achieved and candidate_dir is not None:
        path = f"{candidate_dir}/{label}.json"
        payload = {
            "kind": "conjecture-counterexample-candidate",
            "note": (
                "all type-2 sets are clean but no code of length <= 3 exists over "
                "the tested fields; this does NOT refute the large-field conjecture"
            ),
            "tested_fields": list(fields),
            "problem": json.loads(problem_to_json(p)),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    return ProbeFinding(
        all_type2_clean=clean,
        min_lengths=lengths,
        achieves_one_third=achieved,
        candidate_path=path,
    )
