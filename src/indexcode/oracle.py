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
per (q, L), shared by every search over that field and length, keys each
subspace S met so far by its member mask (an int bitmask over vector
indices, so an in-span test is a bit test) and holds one object for it,
with its dimension and a join map from a vector index v to the object of
span(S + v).  A join is computed once, on first use, as the union of the
cosets S + c*v; ``_Field`` states the size bound of the table.

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
while forward checking drops only incomplete assignments that no completion
turns into a code, so the pinned code that exists is never pruned.

The search applies both checks to the vector v tried at position t as one
mask of allowed vector indices, built once per search node from the
vectors before t (P is the part of I before t): v must avoid span(P) when
t holds k; when t is in I and k is assigned, v must avoid
span(P + v_k) - span(P), which is where v_k enters span(P + v) given that
v_k lies outside span(P); when t is in I and k comes later, v must lie in
span(P) if span(P) is a hyperplane, since any v outside it spans
everything.  The search then steps through the set bits of that mask
and the candidate mask of the current rank, lowest first, so a candidate
the checks rule out costs no step at all.

**Search plan.**  Messages are searched most constrained first: by the
number of hyperedges (k, I) with the message in {k} | I, descending,
then by id, so the dense part of the hypergraph is fixed early and a
refuted constraint prunes a small subtree.  The order, the positions and
the checks at each position depend only on the hypergraph, not on q or
L, so ``_plan`` derives them once per hypergraph from the (k, mask of I)
of ``Problem.bits.hyperedges``, built in plain lists, and keeps the most
recent plans; a sweep over lengths and fields reuses one plan.  It makes
one pass over the hyperedges, listing k and the members of I, one table
lookup per byte of the mask of I, and counting degrees, then walks the
sorted positions of each {k} | I once, creating a trie node (below)
where it is first read and noting its parent and last position as it
goes; only an inside list that holds more than one check is deduplicated
and sorted.  Every prefix P = at[:j] of the sorted positions at of an
interfering set that a check reads is a node of a trie, with a parent
at[:j-1] and a last position at[j-1]; that pair names P, so the trie
keys P by the int parent * n + last.  The search keeps the subspace
of each node and sets it at the position t where the node is first read,
with one join: span(P) = span(parent) + v_last.  This is sound because
every position of P lies below t, and the parent, the part of I below
last, is itself read at last, so on the current branch it was set at a
position no later than last, from positions below last that have not
changed since; the same argument keeps the node valid at every later
read on the branch.  An avoid check is then one member mask, a pair
check one join with v_s, and the hyperplane test ``dim == L - 1``.  The
search keeps, per position, the allowed candidates not yet tried, the
candidates counted and the rank in a list, and backs up by index, with
no recursion.  The witness is mapped back to the original message ids;
it is built without ``ScalarLinearCode``'s checks, which its vectors,
taken from the field's table, pass by construction.

**Node budget.**  ``nodes explored`` counts every candidate vector tried
at a search position, including those a forward check rules out; the
search counts those without visiting them.  The candidates of a rank are
the first projective points in index order, so how many of them come up
to and including a point v is one lookup, the number of points up to v.
Trying v adds that number less the candidates the position has counted
already, which is v and every candidate skipped before it, and a
position that runs out adds the rest of its candidates.  The total is
that of trying each candidate in turn, added in larger steps between the
same branchings, so node counts, witnesses and the step at which a
budget runs out are unchanged.  A search that would try more than
``max_nodes`` (``DEFAULT_NODE_CAP`` by default; ``min_length`` counts its
whole sweep over lengths) raises ``OracleBudgetError``: an exhausted
budget leaves the answer unknown and is never reported as "no code".
The budget bounds the search, not the plan built before it: the root and at
most a trie node per member of each interfering set, n(n-1)/2 + 1 nodes on n
messages without side information.  The caps below depend on q and L alone.

Results are always field-relative: "no length-3 code over GF(2) and
GF(3)" does not by itself rule the rate out over larger fields.  The
vector space is capped at q^L <= ``VECTOR_CAP``, the 625 vectors of
GF(5)^4, which bounds both the tables and the candidates per message.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .codec import ScalarLinearCode, is_prime_modulus
from .problem import Problem

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_L_CAP = 4
VECTOR_CAP = 625  # the vectors of GF(5)^4


class OracleCapError(ValueError):
    """The instance exceeds the configured exhaustive-search caps."""


class OracleBudgetError(OracleCapError):
    """A search explored more nodes than its budget allowed; its answer is unknown."""


class OracleResult(NamedTuple):
    prime: int
    min_length: int | None
    witness: ScalarLinearCode | None
    nodes_explored: int


class _Field:
    """Everything a search over GF(q)^length reads, shared by every search
    over that field and length: ``_field`` keeps one per (q, L), and one
    is built only for a (q, L) that passes ``check_caps``.

    ``vectors`` is GF(q)^length in index order: digit j of index i in base
    q is coordinate j.  Per rank r, ``candidates[r]`` is the mask of the
    candidates, ``count[r]`` their number and ``unit[r]`` the index q^r of
    e_{r+1}: below rank ``length`` the candidates are the projective
    points of span(e1..er), then e_{r+1}; at rank ``length`` they are every
    projective point, and the unit is 0, no candidate.  ``reach[v]`` is
    how many projective points come up to and including v, which is how
    many candidates of any rank come no later, as the candidates of a rank
    are the first points in index order.

    ``spaces`` maps the member mask of each subspace met so far, bit x for
    each vector index x in it, to its one ``_Space``; mask 1 is the zero
    space.  A join S[v], the subspace span(S + v), is computed on first
    use from ``translation[v]``, the index of vector x + vector v for each
    index x.  Every entry depends on its key alone, so searches that share
    the table from several threads need no lock: a race computes one value
    twice and keeps the first.  The search joins only projective points,
    so the table holds at most (subspaces) x (projective points) joins:
    1,120 x 156 for GF(5)^4, the largest space the caps allow.
    """

    __slots__ = ("q", "vectors", "candidates", "count", "unit", "reach", "spaces", "translation")

    def __init__(self, q: int, length: int) -> None:
        check_caps(q, length)
        self.q = q
        self.vectors = vectors = tuple(tuple(i // q**j % q for j in range(length)) for i in range(q**length))
        points = [i for i, v in enumerate(vectors) if any(v) and next(filter(None, v)) == 1]
        ranks = [points[: (q**r - 1) // (q - 1) + 1] for r in range(length)] + [points]
        self.candidates = tuple(sum(1 << v for v in rank) for rank in ranks)
        self.count = tuple(map(len, ranks))
        self.unit = tuple(q**r for r in range(length)) + (0,)
        self.reach = [0] * q**length
        for count, v in enumerate(points, start=1):
            self.reach[v] = count
        self.spaces = {1: _Space(self, 1, 0)}
        self.translation: dict[int, tuple[int, ...]] = {}

    def extend(self, a: _Space, v: int) -> _Space:
        """The subspace span(a + v): a itself if it holds v, else the union
        of the cosets a + c*v, added to the table if new."""
        if a.mask >> v & 1:
            return a
        q, row = self.q, self.translation.get(v)
        coset = [x for x, bit in enumerate(bin(a.mask)[:1:-1]) if bit == "1"]  # the members, lowest first
        if row is None:
            g = self.vectors[v]
            row = self.translation[v] = tuple(
                sum((x + y) % q * q**j for j, (x, y) in enumerate(zip(u, g))) for u in self.vectors
            )
        grown = list(coset)
        for _ in range(q - 1):
            coset = [row[x] for x in coset]
            grown += coset
        mask = sum(1 << x for x in grown)
        return self.spaces.setdefault(mask, _Space(self, mask, a.dim + 1))


class _Space(dict):
    """One subspace S of a field's table, with its member ``mask`` and
    dimension ``dim``: vector index v -> the ``_Space`` of span(S + v)."""

    __slots__ = ("field", "mask", "dim")

    def __init__(self, field: _Field, mask: int, dim: int) -> None:
        self.field, self.mask, self.dim = field, mask, dim

    def __missing__(self, v: int) -> _Space:
        self[v] = b = self.field.extend(self, v)
        return b


# the one _Field per (q, L), so the caps are checked once per field; typed,
# as 2.0 and True equal valid values that check_caps refuses.  cache_clear
# drops all per-field state
_field = lru_cache(maxsize=None, typed=True)(_Field)


def check_caps(q: int, length: int) -> None:
    """Raise ``OracleCapError`` unless a length-``length`` search over GF(q) fits the caps."""
    if type(q) is not int or type(length) is not int:
        raise OracleCapError(f"field size {q!r} and length {length!r} must be integers")
    if not 1 <= length <= DEFAULT_L_CAP:
        raise OracleCapError(f"L={length} is outside the oracle cap 1..{DEFAULT_L_CAP}")
    if q**length > VECTOR_CAP:
        raise OracleCapError(f"q^L = {q}^{length} exceeds the oracle cap of {VECTOR_CAP} vectors")
    if not is_prime_modulus(q):
        raise OracleCapError(f"field size {q} is not prime")


class _Plan(NamedTuple):
    """The forward checks of one hypergraph at each search position t.

    Each P is a trie node: a prefix of the sorted positions of some
    interfering set I, all before t, the part of I already assigned when t
    is tried; node 0 is the empty prefix.  v is the vector tried at t.
    The lists are shared by every search that reads the plan; nothing
    changes them after ``_plan`` returns.  An avoid or pair check that two
    hyperedges share is listed twice, which costs a repeated AND only.
    """

    position: list[int]  # search position of message m, at index m - 1
    nodes: int  # trie nodes, the root included
    # (P, parent, last) of each node first read at t: span(P) = span(parent) + v_last
    extend: list[list[tuple[int, int, int]]]
    # P of each I interfering with the message at t: v avoids span(P)
    avoid: list[list[int]]
    # (P, s) of each I containing t and interfering with the message at
    # s < t: v avoids span(P + v_s) - span(P)
    pairs: list[list[tuple[int, int]]]
    # (|P|, P) of each I containing t and interfering with a message after
    # t, longest first: v lies in span(P) when span(P) is a hyperplane
    inside: list[list[tuple[int, int]]]


# the set bits of each byte value; bytes hold them in half the memory of tuples
_BYTE_MEMBERS = tuple(bytes(m for m in range(8) if b >> m & 1) for b in range(256))


@lru_cache(maxsize=64)
def _plan(n: int, edges: frozenset[tuple[int, int]]) -> _Plan:
    """The most-constrained-first order and its checks, from the (k, mask
    of I) of ``Problem.bits.hyperedges``; independent of q and L."""
    degree = [0] * (n + 1)
    members = []  # k, then the messages of I, for each hyperedge
    for k, interf in edges:
        ms = [k, *_BYTE_MEMBERS[interf & 255]]  # one lookup per byte of the mask, not one step per member
        offset = 0
        while interf := interf >> 8:
            offset += 8
            ms += [offset + m for m in _BYTE_MEMBERS[interf & 255]]
        members.append(ms)
        for m in ms:
            degree[m] += 1
    # a stable sort keeps ids ascending among equal degrees, also in reverse
    order = sorted(range(1, n + 1), key=degree.__getitem__, reverse=True)
    position = [0] * (n + 1)
    for t, m in enumerate(order):
        position[m] = t
    at = position.__getitem__
    node = {}  # x * n + last -> the node that extends node x by position last
    first = [n]  # position where each node is first read; the root is never set
    links = []  # (node, parent, last) of each node but the root, by node
    avoid: list[list[int]] = [[] for _ in order]
    pairs: list[list[tuple[int, int]]] = [[] for _ in order]
    inside: list[list[tuple[int, int]]] = [[] for _ in order]
    for ms in members:
        s = position[ms[0]]
        x = size = 0
        last = -1  # the position of I that extends x at the next read, if any
        for t in sorted(map(at, ms)):
            if last >= 0:
                y = node.get(key := x * n + last)
                if y is None:
                    y = node[key] = len(first)
                    first.append(t)
                    links.append((y, x, last))
                elif t < first[y]:
                    first[y] = t
                x = y
                size += 1
            if t > s:
                pairs[t].append((x, s))
                last = t
            elif t < s:
                inside[t].append((size, x))
                last = t
            else:
                last = -1
                if x:
                    avoid[s].append(x)
    extend: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for link, t in zip(links, first[1:]):
        extend[t].append(link)
    for c in inside:  # many hyperedges read one inside check: keep each once, longest prefix first
        if len(c) > 1:  # a lone check needs no sort: 0.6 µs of an oracle-small plan's 13.6 µs
            c[:] = sorted(set(c), reverse=True)
    return tuple.__new__(_Plan, (position[1:], len(first), extend, avoid, pairs, inside))


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
    f = _field(q, length)  # raises OracleCapError past the caps
    position, trie_nodes, extend, avoid, pairs, inside = _plan(p.n, p.bits.hyperedges)
    reach = f.reach
    candidates, count, unit = f.candidates, f.count, f.unit  # per rank
    hyperplane = length - 1  # dimension of a hyperplane
    last = p.n - 1
    assigned = [0] * p.n  # vector index at each search position
    # (allowed candidates not yet tried, candidates counted, rank) at each
    # position, the count including the skipped candidates
    saved: list[tuple[int, int, int]] = [(0, 0, 0)] * p.n
    sp = [f.spaces[1]] * trie_nodes  # subspace of each trie node; the root's is the zero space
    nodes = t = r = 0
    while True:
        # enter position t at rank r: the forward checks give the allowed candidates
        for x, parent, at in extend[t]:
            sp[x] = sp[parent][assigned[at]]
        allowed = candidates[r]
        for x in avoid[t]:
            allowed &= ~sp[x].mask
        for x, s in pairs[t]:
            a = sp[x]
            allowed &= a.mask | ~a[assigned[s]].mask
        if r >= hyperplane:  # only then can a prefix span a hyperplane
            for size, x in inside[t]:
                if size < hyperplane:
                    break
                a = sp[x]
                if a.dim == hyperplane:
                    allowed &= a.mask
        done = 0  # candidates of t counted so far
        while not allowed:  # t is exhausted: count the rest of its candidates and back up
            nodes += count[r] - done
            if nodes > max_nodes:
                raise _budget_error(q, length, max_nodes)
            if not t:
                return False, None, nodes
            t -= 1
            allowed, done, r = saved[t]
        # try the first allowed candidate v, counting the candidates before it as tried
        low = allowed & -allowed
        v = low.bit_length() - 1
        nodes += reach[v] - done
        if nodes > max_nodes:
            raise _budget_error(q, length, max_nodes)
        saved[t] = allowed ^ low, reach[v], r
        assigned[t] = v
        if t == last:
            witness = tuple(map(f.vectors.__getitem__, map(assigned.__getitem__, position)))
            return True, ScalarLinearCode._known_valid(length, q, witness), nodes
        r += v == unit[r]
        t += 1


def _budget_error(q: int, length: int, max_nodes: int) -> OracleBudgetError:
    """The error of a length-``length`` search over GF(q) past its budget."""
    return OracleBudgetError(
        f"the search for a length-{length} code over GF({q}) exceeded its budget of {max_nodes} nodes"
    )


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
            return tuple.__new__(OracleResult, (q, length, witness, nodes_total))
    return tuple.__new__(OracleResult, (q, None, None, nodes_total))

