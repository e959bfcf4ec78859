"""Combinatorial structure the feasibility analysis consumes.

Alignment graph/sets, forks and cycles, acyclic quadruples, triangular
interfering sets, type-2 alignment sets, restricted internal conflicts,
and the classification of alignment sets used by the rate-1/3
construction.  Everything here reads the conflict hypergraph through
``Problem.bits``, the integer view of the distinct (k, mask of
Interf_k(j)) that ``Problem`` builds from its receivers; ``to_dot`` and
the oracle's plan read those hyperedges, ``bits.hyperedges``, one by
one.  A receiver that demands d messages has d interfering sets, its
outside mask O less each demand, and the type-2 star scan and the
triangle rows both read ``bits.scan``: each block of ``bits.blocks``
(one O with four or more demands) as its one mask O, and every other
set of three or more members as itself.
Every pair listing inside a mask is ``problem._pairs``: the alignment
graph, also as ``to_dot`` lists it, and the pairs the triangle listing
extends on ``bits.near``, the dirty witness and the kind-2 test on
``bits.conf``, as the rate-1 and rate-1/2 witnesses in ``feasibility``.
The results are plain values: the alignment graph is a frozenset of
edges and a triangle an ascending int triple.  Type-2 sets are the
components of the conflict pairs that lie in triangles, merged per
message as masks, and their messages are the unions of the sets whose
stars joined them, so the analysis does no work per triangle and lists
none.  Only ``feasibility.report_to_dict`` lists the triangles, which it
writes, and ``_group_triangles`` places each in its type-2 set with one
lookup when there are several.  The full alignment sets are the reaches
of ``bits.near``, found once per problem as ``bits.components`` by
``problem._reaches``, the same search that joins the partner groups of
the type-2 sets, and ``structure_report`` merges the restricted
alignment sets once per distinct type-2 message set (``_components``,
the one restriction rule), for the rate-1/3 construction, and takes
only the first pair inside them: it decides the kind, and the first in
type-2 order is the dirty witness.  The acyclic-quadruple search walks
masks of set indexes (``bits.sets_with``) and reads its candidates from
``bits.against``; a quadruple implies a dirty type-2 set
(``feasibility.check_rate_third``), so no verdict reads it, and
``feasibility.report_to_dict`` is its one caller, for the JSON report's
witness.
The classification takes each alignment set as its mask: kind 1 is one
test against ``bits.crowded``, the union of the sets with three or more
members, and fork and cycle come from one pass over the degrees in
``bits.near``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from math import comb
from operator import or_
from typing import NamedTuple

from .problem import ConflictPair, HypergraphBits, Problem, _iter_bits, _pairs, _reaches, _to_mask, restriction_members

Edge = tuple[int, int]  # unordered, stored with a < b
Triangle = tuple[int, int, int]  # ascending


class Type2AlignmentSet(NamedTuple):
    messages: frozenset[int]
    # (a, g): a message of the set and the mask of its partners b whose conflict pair (a, b) lies in the set
    partners: tuple[tuple[int, int], ...]


class Kind(Enum):
    KIND1 = "kind1"  # no receiver sees three of the set in one interfering set
    KIND2 = "kind2"  # exactly three messages, co-interfering, conflict-free inside
    TYPE2_CLEAN = "type2-clean"  # equals a type-2 union with no restricted internal conflicts
    TYPE2_DIRTY = "type2-dirty"  # equals a type-2 union that has restricted internal conflicts
    OTHER = "other"


class AlignmentSetInfo(NamedTuple):
    members: frozenset[int]
    has_fork: bool
    has_cycle: bool
    kind: Kind


@dataclass(frozen=True)
class StructureReport:
    alignment_sets: tuple[AlignmentSetInfo, ...]
    type2_sets: tuple[Type2AlignmentSet, ...]
    # first restricted internal conflict in type-2 order: (type-2 message union, pair, restricted set)
    dirty_witness: tuple[frozenset[int], ConflictPair, frozenset[int]] | None
    # type-2 message union -> its restricted alignment sets, ordered by smallest member
    restricted_sets: dict[frozenset[int], tuple[frozenset[int], ...]]
    problem: Problem  # the problem described, whose triangles ``report_to_dict`` lists


def alignment_graph(p: Problem) -> frozenset[Edge]:
    """Two messages are joined iff they co-interfere at some receiver."""
    return frozenset(pair for pair, _ in _pairs(p.bits.near, [(1 << (p.n + 1)) - 2]))


def alignment_sets(p: Problem) -> list[frozenset[int]]:
    """Connected components of the alignment graph; a partition of [1..n]."""
    return [frozenset(_iter_bits(c)) for c in p.bits.components]


def fork_and_cycle(p: Problem, mask: int) -> tuple[bool, bool]:
    """Whether the alignment set ``mask`` has a fork, a vertex of degree
    three or more, and a cycle, from one pass over its degrees.  The set
    is connected, so it has a cycle iff #edges >= #vertices."""
    size = mask.bit_count()
    if size < 3:  # a fork needs four vertices and a cycle three; saves 6 µs a construct-verify problem
        return False, False
    near, fork, degrees, rest = p.bits.near, False, 0, mask
    while rest:
        low = rest & -rest
        d = (near[low.bit_length() - 1] & mask & ~low).bit_count()
        fork = fork or d >= 3
        degrees += d
        rest ^= low
    return fork, degrees >= 2 * size


def find_acyclic_quadruple(p: Problem) -> tuple[int, int, int, int] | None:
    """Four messages orderable so each interferes with every earlier one.

    Exhaustive search over ordered tuples, smallest ids first, so the
    witness is the lexicographically first.  Position k needs an
    interfering set of the k-th message that holds all earlier picks, so
    the search carries the indexes of the sets holding the prefix, as the
    mask ``sets_with[m1] & sets_with[m2] & ...``, and the next candidates
    are the messages demanded against those sets (``bits.against``).  The
    fourth position takes the lowest such message outright.
    """
    sets_with, against = p.bits.sets_with, p.bits.against

    def demanded(held: int) -> int:
        """Messages demanded against the sets whose indexes ``held`` has."""
        out = 0
        while held:
            low = held & -held
            out |= against[low.bit_length() - 1]
            held ^= low
        return out

    # Only a demanded message can take a position, even the first one, and
    # the fourth needs a set of three or more members that holds the first three.
    crowded = p.bits.crowded
    for m1 in _iter_bits(_to_mask(k for r in p.receivers for k in r.demands) & crowded):
        held1 = sets_with[m1]
        for m2 in _iter_bits(demanded(held1) & crowded):
            held2 = held1 & sets_with[m2]
            for m3 in _iter_bits(demanded(held2) & crowded):
                if last := demanded(held2 & sets_with[m3]):
                    return m1, m2, m3, (last & -last).bit_length() - 1
    return None


def _triangle_rows(p: Problem) -> Iterator[tuple[int, int, int]]:
    """For each pair a < b of ``bits.near``, in ``_pairs`` order, lazily:
    (a, b, mask of every c that makes a < b < c a triangle), the bitset
    form of the listing argument of Chiba & Nishizeki, "Arboricity and
    subgraph listing algorithms", 1985.  c ranges over the members above b
    of the union of the sets containing both a and b, and must conflict
    with a or b unless (a, b) is a conflict itself.  The sets are those of
    ``bits.scan``, where a block's O stands for its sets (see
    ``_pair_components``); sets of at most two members hold no c above b.
    Time O(distinct masks / 8) per pair."""
    bits = p.bits
    holds, conf, big = bits.sets_with, bits.conf, bits.scan
    if bits.blocks:  # without them ``scan`` is the head of ``sets``, which ``sets_with`` indexes
        holds = [0] * (p.n + 1)  # [m]: mask of the indexes into ``big`` that contain m
        for idx, s in enumerate(big):
            here, rest = 1 << idx, s
            while rest:
                low = rest & -rest
                holds[low.bit_length() - 1] |= here
                rest ^= low
    tables = []  # unions of every subset of each run of 8 masks, one lookup per run
    for lo in range(0, len(big), 8):
        table = [0]
        for s in big[lo:lo + 8]:
            table += [u | s for u in table]
        tables.append(table)
    runs = (1 << len(big)) - 1
    for (a, b), _ in _pairs(bits.near, [(1 << (p.n + 1)) - 2]):
        u, picked = 0, holds[a] & holds[b] & runs
        for table in tables:
            u |= table[picked & 255]
            picked >>= 8
        above = u >> (b + 1) << (b + 1)
        if not conf[a] >> b & 1:
            above &= conf[a] | conf[b]
        yield a, b, above


def triangular_interfering_sets(p: Problem) -> list[Triangle]:
    """3-subsets of some interfering set carrying at least one conflict pair.

    Each triangle a < b < c is listed once, from its two smallest members
    (``_triangle_rows``), so ascending a, b and c emit the triples (a, b, c)
    in sorted order, in time O(n^2 * distinct sets / 8 + triangles).
    """
    out: list[Triangle] = []
    append = out.append
    for a, b, above in _triangle_rows(p):
        while above:  # _iter_bits inlined: this loop runs once per triangle
            low = above & -above
            append((a, b, low.bit_length() - 1))
            above ^= low
    return out


def triangles_past(p: Problem, limit: int) -> bool:
    """Whether ``p`` has more than ``limit`` triangles, counted pair by pair
    as ``triangular_interfering_sets`` lists them, with no triangle listed,
    stopping at the first pair that passes the limit.  Every triangle is
    a 3-subset of some mask of ``bits.scan``, so when those number no more
    than ``limit`` there is nothing to count.  A block's O holds no more
    3-subsets than its d >= 4 sets: C(|O|, 3) <= d * C(|O| - 1, 3)."""
    if sum(comb(s.bit_count(), 3) for s in p.bits.scan) <= limit:
        return False
    total = 0
    for _, _, above in _triangle_rows(p):
        total += above.bit_count()
        if total > limit:
            break
    return total > limit


def type2_alignment_sets(p: Problem) -> list[Type2AlignmentSet]:
    """Maximal chains of triangular interfering sets meeting at conflict pairs.

    Two triangles are adjacent iff their intersection is exactly two
    messages and that pair is in conflict.  Distinct triangles sharing a
    pair meet in exactly that pair, so a group is a component of the
    conflict pairs that lie in triangles, two pairs joined when one
    triangle holds both (``_pair_components``), and no triangle is listed.
    Groups are ordered by their sorted messages.  Two groups with the same
    messages have the same restricted sets, dirty witness and kind, which
    read only the messages, so only the JSON report tells them apart, and
    ``report_to_dict`` orders them by their first triangles.
    """
    order = sorted(_pair_components(p), key=lambda c: list(_iter_bits(c[0])))
    return [Type2AlignmentSet(frozenset(_iter_bits(messages)), tuple(pairs)) for messages, pairs in order]


def _pair_components(p: Problem) -> list[tuple[int, list[tuple[int, int]]]]:
    """Components of the conflict pairs that lie in triangles, with the
    messages of their triangles.

    Such a pair (a, b) lies in a set S of three or more members, and then
    b is in the "star" S & conf[a] of a in S.  Two pairs share a component
    when one triangle holds both: they share a message a, and both
    partners lie in one star of a.  The stars of each message are merged
    as masks into its partner groups, each a set of pairs (a, b) within
    one component.  The group of a that holds b and the group of b that
    holds a are the same pair, so a search over the groups finds the
    components.  Each group is a node: message a itself when it has one
    group, an id above n otherwise.

    A group also carries the union of the sets S whose star joined it, and
    a component's messages are the union over its groups.  Proof: when
    (a, b) is a conflict pair, every c in a set S of three or more members
    that holds both a and b forms a triangle with them, and that triangle
    holds (a, b), so it lies in the component of (a, b); S is one of the
    sets whose star joined the group of a that holds b.  Conversely every
    triangle of the component lies in such a set with one of its conflict
    pairs.  So the messages cost no work per triangle.

    The scan reads ``bits.scan``, where a block (``bits.blocks``) of
    outside mask O and d >= 4 demands stands as O for its sets O - {k}.
    That gives the same groups.  Let a be in O with C = O & conf[a] not
    empty.  The stars of a in the block are C - {k}, over the three or
    more sets O - {k} that hold a, one per demand k other than a:
    - each x in C is missed by at most one of those stars;
    - if |C| >= 3, any two stars meet;
    - if |C| = 2, some k outside C gives the star C, which meets both of
      the others;
    - if |C| = 1, C = {x}, the two or more sets with k != x all share x.
    In every case the sets with a star form one group, with union O and
    star C, which O itself gives.  Likewise a pair a < b of O lies in the
    two or more sets O - {k} with k not a or b, whose union is O, so the
    triangle rows read O too.  A block's set that a receiver outside the
    blocks also has lies inside O, so leaving it out of ``scan`` changes
    neither scan.  With three demands, two of them, a and b, share the one
    set O - {k}, so reading O would list the three demands as a triangle.

    Returns, per component, the mask of its messages and its (message,
    partner group) pairs.
    """
    conf = p.bits.conf
    held: dict[int, list[int]] = {}  # message a -> the masks of ``bits.scan`` where a has a star
    for s in p.bits.scan:
        rest = s
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            if s & conf[a]:
                held.setdefault(a, []).append(s)
            rest ^= low
    single, extra = 0, p.n  # messages with one group; the last id given above n
    nodes: dict[int, list[tuple[int, int]]] = {}  # message -> its (partner group, node) pairs
    groups: dict[int, tuple[int, int, int]] = {}  # node -> (message, partner group, union of its sets)
    for a, sets in held.items():
        # the sets merged where their stars overlap: each union's star part is a group
        merged = _merge(sets, conf[a])
        if len(merged) == 1:  # node a, read from ``single``: analyze-large ran 6% slower with an id above n
            single |= 1 << a
            ids = [a]
        else:
            ids = range(extra + 1, extra + 1 + len(merged))
            extra += len(merged)
        nodes[a] = [(u & conf[a], node) for u, node in zip(merged, ids)]
        for (g, node), u in zip(nodes[a], merged):
            groups[node] = a, g, u
    links: dict[int, int] = {}  # node -> mask of the nodes sharing a pair with it
    for a, row in nodes.items():
        for g, node in row:
            links[node] = g & single
            if g & ~single:
                for b in _iter_bits(g & ~single):
                    links[node] |= 1 << next(other for h, other in nodes[b] if h >> a & 1)
    comps: list[tuple[int, list[tuple[int, int]]]] = []
    for reach in _reaches(links, _to_mask(links)):
        messages, pairs = 0, []
        for node in _iter_bits(reach):
            a, g, cover = groups[node]
            pairs.append((a, g))
            messages |= cover
        comps.append((messages, pairs))
    return comps


def _group_triangles(report: StructureReport, triangles: list[Triangle]) -> list[list[Triangle]]:
    """The listing ``triangles`` split by the type-2 sets of ``report``, in
    their order: each triangle joins the set of its first conflict pair,
    found from that set's partner groups.  With one set the listing itself
    is its group.  Each group keeps listing order, so it stays sorted and
    its head is its first triangle, which orders the sets with the same
    messages in ``report_to_dict``."""
    type2 = report.type2_sets
    if len(type2) == 1:  # most analyze-large problems: their op ran 4-5% slower without this exit
        return [triangles]
    where: dict[int, list[tuple[int, int]]] = {}  # message -> (partner group, index of its type-2 set)
    for i, t2 in enumerate(type2):
        for a, g in t2.partners:
            where.setdefault(a, []).append((g, i))
    conf = report.problem.bits.conf
    out: list[list[Triangle]] = [[] for _ in type2]
    for t in triangles:
        a, b, c = t
        u, v = (a, b) if conf[a] >> b & 1 else (a, c) if conf[a] >> c & 1 else (b, c)
        row = where[u]
        out[row[0][1] if len(row) == 1 else next(i for g, i in row if g >> v & 1)].append(t)
    return out


def _merge(masks: Iterable[int], within: int = -1) -> list[int]:
    """Unions of the masks that overlap inside ``within``, directly or
    through a chain of others; disjoint there, and empty masks are left out."""
    # one running union takes every mask that meets it; analyze-large ran 11% slower without it
    first, rest = 0, []
    for mask in masks:
        if mask & first & within or not first:
            first |= mask
        elif mask:
            rest.append(mask)
    comps = [first] if first else []
    for mask in rest:
        touched = [c for c in comps if c & mask & within]
        comps = [c for c in comps if not c & mask & within] + [reduce(or_, touched, mask)]
    return comps


def _components(bits: HypergraphBits, keep: int) -> tuple[int, ...]:
    """Alignment components of the problem restricted to ``keep``, as masks
    ordered by smallest member: each interfering set I of ``bits.sets``
    with a kept message demanded against it (``bits.against``) merges
    I & keep.  The full sets need no merge (``bits.components``)."""
    comps = _merge([s & keep for s, ks in zip(bits.sets, bits.against) if ks & keep])
    comps += [1 << m for m in _iter_bits(keep & ~reduce(or_, comps, 0))]
    return tuple(sorted(comps, key=lambda c: c & -c))


def restricted_internal_conflicts(
    p: Problem, members: frozenset[int] | set[int]
) -> list[tuple[ConflictPair, frozenset[int]]]:
    """Conflicts of the restricted problem inside one restricted alignment set.

    Each comes with its witnessing restricted alignment set, ordered by
    set and then by pair.  Restriction keeps every conflict between two
    members, so these are the problem's own conflict pairs inside each
    restricted set: the pair scan ``problem._pairs`` over ``bits.conf``.
    """
    comps = _components(p.bits, _to_mask(restriction_members(p, members)))
    return [(pair, frozenset(_iter_bits(c))) for pair, c in _pairs(p.bits.conf, comps)]


def classify_alignment_set(p: Problem, mask: int, type2_dirty: dict[int, bool]) -> Kind:
    """Classification driving the rate-1/3 construction; total by the chain below.

    ``mask`` is an alignment set, and ``type2_dirty`` maps the mask of each
    type-2 message union to whether it has restricted internal conflicts,
    as ``structure_report`` builds it.  Every interfering set lies inside
    one alignment set, so a set of three or more members meets ``mask``
    exactly when it lies inside it: kind 1 is one test against their
    union, ``bits.crowded``.
    """
    if not mask & p.bits.crowded:
        return Kind.KIND1
    # some receiver sees three members, so a three-member set is co-interfering
    if mask.bit_count() == 3 and next(_pairs(p.bits.conf, (mask,)), None) is None:
        return Kind.KIND2
    if mask in type2_dirty:
        return Kind.TYPE2_DIRTY if type2_dirty[mask] else Kind.TYPE2_CLEAN
    return Kind.OTHER


def structure_report(p: Problem) -> StructureReport:
    type2 = type2_alignment_sets(p)
    type2_dirty: dict[int, bool] = {}
    restricted: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
    dirty = None
    for messages in dict.fromkeys(t2.messages for t2 in type2):  # tied sets share their messages
        mask = _to_mask(messages)
        comps = _components(p.bits, mask)
        restricted[messages] = tuple(frozenset(_iter_bits(c)) for c in comps)
        found = next(_pairs(p.bits.conf, comps), None)
        type2_dirty[mask] = found is not None
        if found and dirty is None:
            dirty = messages, found[0], frozenset(_iter_bits(found[1]))
    infos = tuple(
        AlignmentSetInfo(s, *fork_and_cycle(p, c), classify_alignment_set(p, c, type2_dirty))
        for s, c in zip(alignment_sets(p), p.bits.components)
    )
    return StructureReport(
        alignment_sets=infos,
        type2_sets=tuple(type2),
        dirty_witness=dirty,
        restricted_sets=restricted,
        problem=p,
    )


def to_dot(p: Problem) -> Iterator[str]:
    """Graphviz rendering, lazily: the header with the message nodes, one
    solid alignment edge per string, ascending as ``_pairs`` lists them,
    then one string per dashed conflict hyperedge (k, I) with its hub,
    ordered by k and then by the ascending members of I, which are listed
    only among hyperedges that share a k, and the closing brace."""
    node = [f"m{v}" for v in range(p.n + 1)]  # each node's name once, not once per listing
    yield "graph index_coding {\n" + "".join(f"  m{v} [label=\"W{v}\"];\n" for v in range(1, p.n + 1))
    for (a, b), _ in _pairs(p.bits.near, [(1 << (p.n + 1)) - 2]):
        yield f"  {node[a]} -- {node[b]};\n"
    shared = Counter(k for k, _ in p.bits.hyperedges)  # members only order the hyperedges that share a k
    hyperedges = sorted(p.bits.hyperedges, key=lambda e: (e[0], [*_iter_bits(e[1])] if shared[e[0]] > 1 else []))
    for idx, (k, interf) in enumerate(hyperedges):
        spoke = f" [style=dashed];\n  h{idx} -- "  # ends each member's line and starts the next
        yield f"  h{idx} [shape=point, label=\"\"];\n  {node[k]} -- h{idx}{spoke}" + spoke.join(
            map(node.__getitem__, _iter_bits(interf))
        ) + " [style=dashed];\n"
    yield "}\n"
