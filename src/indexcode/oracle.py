"""Exhaustive ground truth: minimum scalar linear code length by search.

A code assigns each message a nonzero vector of GF(q)^L.  It resolves
every conflict when, for each hyperedge (k, I) of the conflict
hypergraph, the vector of k lies outside the span of the vectors of I.
The search is backtracking over projective representatives (first
nonzero coordinate normalized to 1), one message at a time; every span
condition is checked as soon as its last participating message is
assigned.

**Vectors and spans as integers.**  A vector is indexed by the base-q
integer whose j-th digit is its j-th coordinate, so span(e1, ..., er) is
exactly the indices below q^r.  A span is an int bitmask over these
indices.  It is built one generator at a time (span(S + g) is the union of
the cosets span(S) + c*g) and memoized by the bitmask of its generators,
so an in-span test is a bit test.  The per-(q, L) tables are cached.

**Basis pinning is sound.**  Whether a conflict is resolved is invariant
under scaling any single vector by a nonzero constant and under applying
one invertible linear map A to every vector, since A maps a span onto the
span of the images and keeps a vector outside it.  Take any code and
list its vectors in search order.  Call a vector *fresh* when it lies
outside the span of the vectors before it, and let f1, ..., fr be the
fresh vectors in order.  They are independent, so some invertible A maps
fi to ei.  After A, the span of the vectors before a position is
span(e1, ..., er') with r' the number of fresh vectors before it.  A
fresh vector is then e_{r'+1}, and every other vector is a point of
span(e1, ..., er'), which scaling turns into its projective
representative.  Hence, if any code exists, one exists where each vector
is either a projective point of the current span or the next unit vector
e_{r+1}, where r is the current rank; the search tries only those.  For
the first message this leaves e1 alone.  ``nodes explored`` counts the
candidates tried after this symmetry breaking.

**Message order.**  Messages are searched most constrained first: by
the number of hyperedges (k, I) with the message in {k} | I, descending,
then by id.  Each constraint is checked at the search position of its
last message, so the dense part of the hypergraph is fixed early and a
violated constraint prunes a small subtree.  The witness is mapped back
to the original message ids.

Results are always field-relative: "no length-3 code over GF(2) and
GF(3)" does not by itself rule the rate out over larger fields.  The
vector space is capped at q^L <= max(DEFAULT_FIELDS)^DEFAULT_L_CAP
vectors, which bounds both the tables and the candidates per message.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .codec import ScalarLinearCode
from .problem import Problem, problem_to_json
from .structure import structure_report

DEFAULT_N_CAP = 10
DEFAULT_L_CAP = 4
DEFAULT_FIELDS = (2, 3, 5)
VECTOR_CAP = max(DEFAULT_FIELDS) ** DEFAULT_L_CAP


class OracleCapError(ValueError):
    """The instance exceeds the configured exhaustive-search caps."""


@dataclass(frozen=True)
class OracleResult:
    prime: int
    exists_by_length: dict[int, bool]
    min_length: int | None
    witness: ScalarLinearCode | None
    nodes_explored: int


@lru_cache(maxsize=None)
def _vectors(q: int, length: int) -> tuple[linalg.Vector, ...]:
    """GF(q)^length in index order: digit j of i in base q is coordinate j."""
    return tuple(tuple(i // q**j % q for j in range(length)) for i in range(q**length))


@lru_cache(maxsize=None)
def _candidates(q: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Per rank r < length: the projective points of span(e1..er), then
    e_{r+1} (index q^r); at rank ``length``: every projective point."""
    points = tuple(i for i, v in enumerate(_vectors(q, length)) if any(v) and next(filter(None, v)) == 1)
    return tuple(points[: (q**r - 1) // (q - 1) + 1] for r in range(length)) + (points,)


@lru_cache(maxsize=None)
def _translation(q: int, length: int, g: int) -> tuple[int, ...]:
    """Index of vector x + vector g, for every index x."""
    vectors = _vectors(q, length)
    return tuple(sum((a + b) % q * q**j for j, (a, b) in enumerate(zip(v, vectors[g]))) for v in vectors)


def projective_points(q: int, length: int) -> list[linalg.Vector]:
    """One representative per projective equivalence class of GF(q)^length."""
    vectors = _vectors(q, length)
    return [vectors[i] for i in _candidates(q, length)[-1]]


def check_caps(p: Problem, q: int, length: int, n_cap: int, l_cap: int) -> None:
    """Raise ``OracleCapError`` unless a length-``length`` search over GF(q) fits the caps."""
    if p.n > n_cap:
        raise OracleCapError(f"n={p.n} exceeds the oracle cap {n_cap}")
    if not 0 <= length <= l_cap:
        raise OracleCapError(f"L={length} is outside the oracle cap 0..{l_cap}")
    if q**length > VECTOR_CAP:
        raise OracleCapError(f"q^L = {q}^{length} exceeds the oracle cap of {VECTOR_CAP} vectors")
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
    check_caps(p, q, length, n_cap, l_cap)
    degree = Counter(m for k, interf in p.hyperedges for m in interf | {k})
    order = sorted(p.messages, key=lambda m: (-degree[m], m))
    position = {m: t for t, m in enumerate(order)}
    # (k, I) is checked at the position of its last message; larger I first
    checks: list[list[tuple[int, list[int]]]] = [[] for _ in order]
    for k, interf in sorted(p.hyperedges, key=lambda c: (-len(c[1]), c[0], sorted(c[1]))):
        at = [position[i] for i in interf]
        checks[max(at + [position[k]])].append((position[k], at))

    candidates = _candidates(q, length)
    assigned = [0] * p.n  # vector index at each search position
    bits = [0] * p.n  # 1 << assigned[t]
    spans = {0: 1}  # generator bitmask -> span bitmask
    elements = {1: [0]}  # span bitmask -> its vector indices

    def span(gens: int) -> int:
        mask = spans.get(gens)
        if mask is None:
            # span(S + g) is the union of the cosets span(S) + c*g
            g = gens.bit_length() - 1
            mask = span(gens ^ (1 << g))
            if not mask >> g & 1:
                row, coset = _translation(q, length, g), elements[mask]
                grown = list(coset)
                for _ in range(q - 1):
                    coset = [row[x] for x in coset]
                    grown += coset
                mask = sum(1 << x for x in grown)
                elements.setdefault(mask, grown)
            spans[gens] = mask
        return mask

    nodes = 0

    def search(t: int, rank: int) -> bool:
        nonlocal nodes
        unit = q**rank if rank < length else None  # index of e_{rank+1}
        for v in candidates[rank]:
            nodes += 1
            assigned[t], bits[t] = v, 1 << v
            for k, interf in checks[t]:
                gens = 0
                for i in interf:
                    gens |= bits[i]
                if span(gens) >> assigned[k] & 1:
                    break
            else:
                if t + 1 == p.n or search(t + 1, rank + (v == unit)):
                    return True
        return False

    if search(0, 0):
        vectors = _vectors(q, length)
        witness = tuple(vectors[assigned[position[m]]] for m in range(1, p.n + 1))
        return True, ScalarLinearCode(length=length, prime=q, vectors=witness), nodes
    return False, None, nodes


def min_length(
    p: Problem,
    q: int,
    l_max: int = DEFAULT_L_CAP,
    n_cap: int = DEFAULT_N_CAP,
) -> OracleResult:
    """Smallest code length up to ``l_max`` over GF(q), or none."""
    check_caps(p, q, l_max, n_cap, DEFAULT_L_CAP)
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
