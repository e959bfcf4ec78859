"""Exhaustive ground truth: minimum scalar linear code length by search.

A code assigns each message a nonzero vector of GF(q)^L.  It resolves
every conflict when, for each hyperedge (k, I) of the conflict
hypergraph, the vector of k lies outside the span of the vectors of I.
The search is backtracking over projective representatives (first
nonzero coordinate normalized to 1), one message at a time, and it
refutes a span condition as soon as the messages assigned so far decide
it (forward checking, below).

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
the first message this leaves e1 alone.

**Forward checking is sound** (Haralick & Elliott, Artificial
Intelligence 14, 1980).  Within a subtree the assigned vectors stay
fixed, and the assigned part P of an interfering set I only grows, so
span(P) only grows.  Two checks therefore refute a hyperedge (k, I)
before all of {k} | I is assigned:

- k is assigned and v_k already lies in span(P): no completion resolves
  it;
- k is not assigned and span(P) is all of GF(q)^L: no v_k can work.

Both run whenever P grows or k is assigned, so once the last message of
{k} | I is assigned the first check is the span condition itself, and a
complete assignment that passes is a code.  Pinning the basis stays sound
alongside: it narrows which codes are searched, whatever the constraints,
while forward checking drops only partial assignments that no completion
turns into a code, so the pinned code that exists is never pruned.

The search applies both checks to the vector v tried at position t as one
mask of allowed vector indices, built once per search node from the
vectors before t (P is the part of I before t): v must avoid span(P) when
t holds k; when t is in I and k is assigned, v must avoid
span(P + v_k) - span(P), which is where v_k enters span(P + v) given that
v_k lies outside span(P); when t is in I and k comes later, v must lie in
span(P) if span(P) is a hyperplane, since any v outside it spans
everything.  Each candidate then costs one bit test.

**Search plan.**  Messages are searched most constrained first: by the
number of hyperedges (k, I) with the message in {k} | I, descending,
then by id, so the dense part of the hypergraph is fixed early and a
refuted constraint prunes a small subtree.  The order, the positions and
the checks at each position depend only on the hypergraph, not on q or
L, so ``_plan`` derives them once per hypergraph and keeps the most
recent ones; a sweep over lengths and fields reuses one plan.  The
witness is mapped back to the original message ids.

**Node budget.**  ``nodes explored`` counts every candidate vector tried
at a search position, including those a forward check rules out.  A
search that would try more than ``max_nodes`` (``DEFAULT_NODE_CAP`` by
default; ``min_length`` counts its whole sweep over lengths) raises
``OracleBudgetError``: an exhausted budget leaves the answer unknown and
is never reported as "no code".  The budget is the only bound on the
size of the problem; the caps below depend on q and L alone.

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
from .problem import Hyperedge, Problem, problem_to_json
from .structure import structure_report

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_L_CAP = 4
DEFAULT_FIELDS = (2, 3, 5)
VECTOR_CAP = max(DEFAULT_FIELDS) ** DEFAULT_L_CAP


class OracleCapError(ValueError):
    """The instance exceeds the configured exhaustive-search caps."""


class OracleBudgetError(OracleCapError):
    """A search explored more nodes than its budget allowed; its answer is unknown."""


@dataclass(frozen=True)
class OracleResult:
    prime: int
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


def check_caps(q: int, length: int) -> None:
    """Raise ``OracleCapError`` unless a length-``length`` search over GF(q) fits the caps."""
    if not 0 <= length <= DEFAULT_L_CAP:
        raise OracleCapError(f"L={length} is outside the oracle cap 0..{DEFAULT_L_CAP}")
    if q**length > VECTOR_CAP:
        raise OracleCapError(f"q^L = {q}^{length} exceeds the oracle cap of {VECTOR_CAP} vectors")
    if not linalg.is_prime(q):
        raise OracleCapError(f"field size {q} is not prime")


@dataclass(frozen=True)
class _Plan:
    """The forward checks of one hypergraph at each search position t.

    Each P is a tuple of positions before t, the part of some interfering
    set I already assigned when t is tried; v is the vector tried at t.
    """

    position: tuple[int, ...]  # search position of message m, at index m - 1
    # P of each I interfering with the message at t: v avoids span(P)
    avoid: tuple[tuple[tuple[int, ...], ...], ...]
    # (P, s) of each I containing t and interfering with the message at
    # s < t: v avoids span(P + v_s) - span(P)
    pairs: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]
    # P of each I containing t and interfering with a message after t,
    # longest first: v lies in span(P) when span(P) is a hyperplane
    inside: tuple[tuple[tuple[int, ...], ...], ...]


@lru_cache(maxsize=64)
def _plan(n: int, hyperedges: frozenset[Hyperedge]) -> _Plan:
    """The most-constrained-first order and its checks; independent of q and L."""
    degree = Counter(m for k, interf in hyperedges for m in interf | {k})
    order = sorted(range(1, n + 1), key=lambda m: (-degree[m], m))
    position = {m: t for t, m in enumerate(order)}
    avoid: list[set] = [set() for _ in order]
    pairs: list[set] = [set() for _ in order]
    inside: list[set] = [set() for _ in order]
    for k, interf in hyperedges:
        s = position[k]
        at = sorted(position[i] for i in interf)
        before = tuple(a for a in at if a < s)
        if before:
            avoid[s].add(before)
        for j, t in enumerate(at):
            if t > s:
                pairs[t].add((tuple(at[:j]), s))
            else:
                inside[t].add(tuple(at[:j]))
    return _Plan(
        position=tuple(position[m] for m in range(1, n + 1)),
        avoid=tuple(map(tuple, avoid)),
        pairs=tuple(map(tuple, pairs)),
        inside=tuple(tuple(sorted(c, key=len, reverse=True)) for c in inside),
    )


def exists_code(
    p: Problem,
    q: int,
    length: int,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> tuple[bool, ScalarLinearCode | None, int]:
    """Is there a length-``length`` scalar linear code over GF(q)?

    Returns (exists, witness or None, nodes explored).  Exhaustive up to
    per-vector scaling and a global change of basis.  Raises
    ``OracleBudgetError`` once more than ``max_nodes`` nodes are explored.
    """
    check_caps(q, length)
    plan = _plan(p.n, p.hyperedges)
    avoid, pairs, inside = plan.avoid, plan.pairs, plan.inside
    candidates = _candidates(q, length)
    full = (1 << q**length) - 1  # every vector index
    hyperplane = q**length // q  # size of a rank L - 1 span
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
        allowed = full
        for prefix in avoid[t]:
            gens = 0
            for i in prefix:
                gens |= bits[i]
            allowed &= ~span(gens)
        for prefix, s in pairs[t]:
            gens = 0
            for i in prefix:
                gens |= bits[i]
            allowed &= span(gens) | ~span(gens | bits[s])
        if rank + 1 >= length:  # only then can a prefix span a hyperplane
            for prefix in inside[t]:
                if len(prefix) + 1 < length:
                    break
                gens = 0
                for i in prefix:
                    gens |= bits[i]
                mask = span(gens)
                if mask.bit_count() == hyperplane:
                    allowed &= mask
        unit = q**rank if rank < length else None  # index of e_{rank+1}
        for v in candidates[rank]:
            nodes += 1
            if nodes > max_nodes:
                raise OracleBudgetError(
                    f"the search for a length-{length} code over GF({q}) "
                    f"exceeded its budget of {max_nodes} nodes"
                )
            if allowed >> v & 1:
                assigned[t], bits[t] = v, 1 << v
                if t + 1 == p.n or search(t + 1, rank + (v == unit)):
                    return True
        return False

    if search(0, 0):
        vectors = _vectors(q, length)
        witness = tuple(vectors[assigned[t]] for t in plan.position)
        return True, ScalarLinearCode(length=length, prime=q, vectors=witness), nodes
    return False, None, nodes


def min_length(
    p: Problem,
    q: int,
    l_max: int = DEFAULT_L_CAP,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> OracleResult:
    """Smallest code length up to ``l_max`` over GF(q), or none.

    ``max_nodes`` bounds the nodes of the whole sweep over the lengths.
    """
    check_caps(q, l_max)
    nodes_total = 0
    for length in range(1, l_max + 1):
        try:
            found, witness, nodes = exists_code(p, q, length, max_nodes=max_nodes - nodes_total)
        except OracleBudgetError:
            raise OracleBudgetError(
                f"the search for the minimum code length over GF({q}) exceeded "
                f"its budget of {max_nodes} nodes at L={length}"
            ) from None
        nodes_total += nodes
        if found:
            return OracleResult(
                prime=q,
                min_length=length,
                witness=witness,
                nodes_explored=nodes_total,
            )
    return OracleResult(
        prime=q,
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
