"""Exhaustive ground truth: minimum scalar linear code length by search.

A code assigns each message a nonzero vector of GF(q)^L.  It resolves
every conflict when, for each hyperedge (k, I) of the conflict
hypergraph, the vector of k lies outside the span of the vectors of I.
The search is backtracking over projective representatives (first
nonzero coordinate normalized to 1), one message at a time, and it
refutes a span condition as soon as the messages assigned so far decide
it (forward checking, below).

**Vectors and subspaces as integers.**  A vector is indexed by the
base-q integer whose j-th digit is its j-th coordinate, so span(e1, ...,
er) is exactly the indices below q^r.  Every span the search meets is a
subspace of GF(q)^L, which does not depend on the problem, so one table
per (q, L), shared by every search over that field and length, gives each
subspace met so far a small id (id 0 is the zero space) and holds its
member mask (an int bitmask over vector indices, so an in-span test is a
bit test), its dimension, and a join map from a vector index v to the id
of span(S + v).  A join is computed once, on first use, as the union of
the cosets S + c*v; ``_Subspaces`` states the size bound of the table.

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
recent ones; a sweep over lengths and fields reuses one plan.  Every
prefix P = at[:j] of the sorted positions at of an interfering set that
a check reads is a node of a trie, with a parent at[:j-1] and a last
position at[j-1].  The search keeps the subspace id of each node and
sets it at the position t where the node is first read, with one join:
span(P) = span(parent) + v_last.  This is sound because every position
of P lies below t, and the parent, the part of I below last, is itself
read at last, so on the current branch it was set at a position no
later than last, from positions below last that have not changed since;
the same argument keeps the node valid at every later read on the
branch.  An avoid check is then one member mask, a pair check one join
with v_s, and the hyperplane test ``dim == L - 1``.  The witness is
mapped back to the original message ids.

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
import threading
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


class _Subspaces:
    """The subspaces of GF(q)^length met so far, by id; id 0 is the zero space.

    ``members[a]`` is the bitmask of the vector indices in subspace a,
    ``dim[a]`` its dimension, and ``join[a][v]`` the id of span(a + v),
    computed on first use.  The search joins only projective points, so
    the table holds at most (subspaces) x (projective points) joins:
    1,120 x 156 for GF(5)^4, the largest space the caps allow.
    """

    __slots__ = ("q", "length", "members", "dim", "join", "elements", "ids", "lock")

    def __init__(self, q: int, length: int) -> None:
        self.q, self.length = q, length
        self.members = [1]
        self.dim = [0]
        self.join = [_Join(self, 0)]
        self.elements = [[0]]  # vector indices of each subspace
        self.ids = {1: 0}  # member mask -> id
        self.lock = threading.Lock()  # the table is shared by every search in the process

    def extend(self, a: int, v: int) -> int:
        """Id of span(a + v): a itself if it holds v, else the union of the
        cosets a + c*v, added to the table if new."""
        if self.members[a] >> v & 1:
            return a
        row, coset = _translation(self.q, self.length, v), self.elements[a]
        grown = list(coset)
        for _ in range(self.q - 1):
            coset = [row[x] for x in coset]
            grown += coset
        mask = sum(1 << x for x in grown)
        with self.lock:
            b = self.ids.get(mask)
            if b is None:
                b = len(self.members)
                self.members.append(mask)
                self.dim.append(self.dim[a] + 1)
                self.join.append(_Join(self, b))
                self.elements.append(grown)
                self.ids[mask] = b
        return b


class _Join(dict):
    """Vector index v -> id of span(S + v), for one subspace S of a table."""

    __slots__ = ("table", "source")

    def __init__(self, table: _Subspaces, source: int) -> None:
        self.table, self.source = table, source

    def __missing__(self, v: int) -> int:
        self[v] = b = self.table.extend(self.source, v)
        return b


@lru_cache(maxsize=None)
def _subspaces(q: int, length: int) -> _Subspaces:
    """The subspace table of GF(q)^length, shared by every search over it."""
    return _Subspaces(q, length)


def check_caps(q: int, length: int) -> None:
    """Raise ``OracleCapError`` unless a length-``length`` search over GF(q) fits the caps."""
    if type(q) is not int or type(length) is not int:
        raise OracleCapError(f"field size {q!r} and length {length!r} must be integers")
    if not 0 <= length <= DEFAULT_L_CAP:
        raise OracleCapError(f"L={length} is outside the oracle cap 0..{DEFAULT_L_CAP}")
    if q**length > VECTOR_CAP:
        raise OracleCapError(f"q^L = {q}^{length} exceeds the oracle cap of {VECTOR_CAP} vectors")
    if not linalg.is_prime(q):
        raise OracleCapError(f"field size {q} is not prime")


@dataclass(frozen=True)
class _Plan:
    """The forward checks of one hypergraph at each search position t.

    Each P is a trie node: a prefix of the sorted positions of some
    interfering set I, all before t, the part of I already assigned when t
    is tried; node 0 is the empty prefix.  v is the vector tried at t.
    """

    position: tuple[int, ...]  # search position of message m, at index m - 1
    nodes: int  # trie nodes, the root included
    # (P, parent, last) of each node first read at t: span(P) = span(parent) + v_last
    extend: tuple[tuple[tuple[int, int, int], ...], ...]
    # P of each I interfering with the message at t: v avoids span(P)
    avoid: tuple[tuple[int, ...], ...]
    # (P, s) of each I containing t and interfering with the message at
    # s < t: v avoids span(P + v_s) - span(P)
    pairs: tuple[tuple[tuple[int, int], ...], ...]
    # (|P|, P) of each I containing t and interfering with a message after
    # t, longest first: v lies in span(P) when span(P) is a hyperplane
    inside: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=64)
def _plan(n: int, hyperedges: frozenset[Hyperedge]) -> _Plan:
    """The most-constrained-first order and its checks; independent of q and L."""
    degree = [0] * (n + 1)
    for k, interf in hyperedges:
        degree[k] += 1
        for m in interf:
            degree[m] += 1
    # a stable sort keeps ids ascending among equal degrees, also in reverse
    order = sorted(range(1, n + 1), key=degree.__getitem__, reverse=True)
    position = [0] * (n + 1)
    for t, m in enumerate(order):
        position[m] = t
    trie: dict[tuple[int, int], int] = {}  # (parent, last) -> node
    first = [n]  # position where each node is first read; the root is never set
    avoid: list[set] = [set() for _ in order]
    pairs: list[set] = [set() for _ in order]
    inside: list[set] = [set() for _ in order]
    for k, interf in hyperedges:
        s = position[k]
        # each position of I, and that of k, reads the node x of the
        # positions of I below it, of length size
        x = size = 0
        last = None  # the position of I that extends x at the next read
        for t in sorted([s, *map(position.__getitem__, interf)]):
            if last is not None:
                y = trie.get((x, last))
                if y is None:
                    y = trie[x, last] = len(first)
                    first.append(t)
                elif t < first[y]:
                    first[y] = t
                x, size, last = y, size + 1, None
            if t == s:
                if x:
                    avoid[s].add(x)
                continue
            if t > s:
                pairs[t].add((x, s))
            else:
                inside[t].add((size, x))
            last = t
    extend: list[list] = [[] for _ in order]
    for (parent, last), x in trie.items():
        extend[first[x]].append((x, parent, last))
    return _Plan(
        position=tuple(position[1:]),
        nodes=len(first),
        extend=tuple(map(tuple, extend)),
        avoid=tuple(map(tuple, avoid)),
        pairs=tuple(map(tuple, pairs)),
        inside=tuple(tuple(sorted(c, reverse=True)) for c in inside),
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
    extend, avoid, pairs, inside = plan.extend, plan.avoid, plan.pairs, plan.inside
    table = _subspaces(q, length)
    members, dim, join = table.members, table.dim, table.join
    candidates = _candidates(q, length)
    full = (1 << q**length) - 1  # every vector index
    hyperplane = length - 1  # dimension of a hyperplane
    assigned = [0] * p.n  # vector index at each search position
    sp = [0] * plan.nodes  # subspace id of each trie node
    nodes = 0

    def search(t: int, rank: int) -> bool:
        nonlocal nodes
        for x, parent, last in extend[t]:
            sp[x] = join[sp[parent]][assigned[last]]
        allowed = full
        for x in avoid[t]:
            allowed &= ~members[sp[x]]
        for x, s in pairs[t]:
            a = sp[x]
            allowed &= members[a] | ~members[join[a][assigned[s]]]
        if rank >= hyperplane:  # only then can a prefix span a hyperplane
            for size, x in inside[t]:
                if size < hyperplane:
                    break
                a = sp[x]
                if dim[a] == hyperplane:
                    allowed &= members[a]
        unit = q**rank if rank < length else None  # index of e_{rank+1}
        for v in candidates[rank]:
            nodes += 1
            if nodes > max_nodes:
                raise OracleBudgetError(
                    f"the search for a length-{length} code over GF({q}) "
                    f"exceeded its budget of {max_nodes} nodes"
                )
            if allowed >> v & 1:
                assigned[t] = v
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
