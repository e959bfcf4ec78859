"""Combinatorial structure the feasibility analysis consumes.

Alignment graph/sets, the legacy undirected conflict graph, the conflict
hypergraph, forks and cycles, acyclic quadruples, triangular interfering
sets, type-2 alignment sets, restricted internal conflicts, and the
classification of alignment sets used by the rate-1/3 construction.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .problem import ConflictPair, Hyperedge, Problem, restriction_members

Edge = tuple[int, int]  # unordered, stored with a < b


class _UnionFind:
    """Minimal union-find with path compression over arbitrary hashable keys."""

    def __init__(self) -> None:
        self.parent: dict[Hashable, Hashable] = {}

    def find(self, x: Hashable) -> Hashable:
        root = self.parent.setdefault(x, x)
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class AlignmentGraph:
    n: int
    edges: frozenset[Edge]

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


@dataclass(frozen=True)
class ConflictHypergraph:
    n: int
    hyperedges: frozenset[Hyperedge]


@dataclass(frozen=True)
class LegacyConflictGraph:
    n: int
    edges: frozenset[Edge]


@dataclass(frozen=True)
class TriangularInterferingSet:
    members: frozenset[int]


@dataclass(frozen=True)
class Type2AlignmentSet:
    triangles: frozenset[frozenset[int]]
    messages: frozenset[int]


class Kind(Enum):
    KIND1 = "kind1"  # no receiver sees three of the set in one interfering set
    KIND2 = "kind2"  # exactly three messages, co-interfering, conflict-free inside
    TYPE2_CLEAN = "type2-clean"  # equals a type-2 union with no restricted internal conflicts
    TYPE2_DIRTY = "type2-dirty"  # equals a type-2 union that has restricted internal conflicts
    OTHER = "other"


@dataclass(frozen=True)
class AlignmentSetInfo:
    members: frozenset[int]
    has_fork: bool
    has_cycle: bool
    kind: Kind


@dataclass(frozen=True)
class StructureReport:
    alignment_sets: tuple[AlignmentSetInfo, ...]
    type2_sets: tuple[Type2AlignmentSet, ...]
    acyclic_quadruple: tuple[int, int, int, int] | None
    # (type-2 message union, conflict pair, restricted alignment set), original ids
    dirty_witnesses: tuple[tuple[frozenset[int], ConflictPair, frozenset[int]], ...]


def alignment_graph(p: Problem) -> AlignmentGraph:
    """Two messages are joined iff they co-interfere at some receiver."""
    edges = {e for _, interf in p.hyperedges for e in combinations(sorted(interf), 2)}
    return AlignmentGraph(n=p.n, edges=frozenset(edges))


def alignment_sets(p: Problem) -> list[frozenset[int]]:
    """Connected components of the alignment graph; a partition of [1..n]."""
    return restricted_alignment_sets(p, p.messages)


def restricted_alignment_sets(p: Problem, members: frozenset[int] | set[int]) -> list[frozenset[int]]:
    """Alignment sets of the problem restricted to ``members``, in original ids.

    Restriction keeps each hyperedge (k, I) with k in ``members`` as
    (k, I & members), and each restricted interfering set is a clique of
    the restricted alignment graph, so no restricted problem is built.
    """
    members = restriction_members(p, members)
    uf = _UnionFind()
    for k, interf in p.hyperedges:
        if k in members and (clique := interf & members):
            first = min(clique)
            for v in clique:
                uf.union(first, v)
    comps: dict[Hashable, set[int]] = {}
    for v in members:
        comps.setdefault(uf.find(v), set()).add(v)
    return sorted((frozenset(c) for c in comps.values()), key=min)


def conflict_hypergraph(p: Problem) -> ConflictHypergraph:
    return ConflictHypergraph(n=p.n, hyperedges=p.hyperedges)


def legacy_conflict_graph(p: Problem) -> LegacyConflictGraph:
    return LegacyConflictGraph(n=p.n, edges=p.conflict_pairs)


def _edges_within(g: AlignmentGraph, members: frozenset[int]) -> list[Edge]:
    return [e for e in g.edges if e[0] in members and e[1] in members]


def has_fork(g: AlignmentGraph, members: frozenset[int]) -> bool:
    """A fork is a vertex of degree three or more."""
    within = _edges_within(g, members)
    return any(sum(1 for e in within if v in e) >= 3 for v in members)


def has_cycle(g: AlignmentGraph, members: frozenset[int]) -> bool:
    # For a connected component, a cycle exists iff #edges >= #vertices.
    return len(_edges_within(g, members)) >= len(members)


def cycle_witness(g: AlignmentGraph, members: frozenset[int]) -> list[int] | None:
    """Some cycle inside the component, via DFS; None if the component is a tree."""
    adj: dict[int, list[int]] = {v: [] for v in members}
    for a, b in _edges_within(g, members):
        adj[a].append(b)
        adj[b].append(a)
    parent: dict[int, int | None] = {}
    for start in sorted(members):
        if start in parent:
            continue
        parent[start] = None
        stack = [start]
        while stack:
            v = stack.pop()
            for w in sorted(adj[v]):
                if w == parent[v]:
                    continue
                if w in parent:
                    # back edge v-w closes a cycle; walk both ancestries
                    path_v, node = [v], v
                    while parent[node] is not None:
                        node = parent[node]
                        path_v.append(node)
                    path_w, node = [w], w
                    while parent[node] is not None:
                        node = parent[node]
                        path_w.append(node)
                    common = next(x for x in path_v if x in set(path_w))
                    cycle = path_v[: path_v.index(common) + 1]
                    cycle += list(reversed(path_w[: path_w.index(common)]))
                    return cycle
                parent[w] = v
                stack.append(w)
    return None


def find_acyclic_quadruple(p: Problem) -> tuple[int, int, int, int] | None:
    """Four messages orderable so each interferes with every earlier one.

    Exhaustive DFS over ordered tuples: position k needs some receiver
    demanding the k-th message whose interfering set contains all earlier
    picks.
    """
    # Only a demanded message can take a position, even the first one.
    interf_by_msg: dict[int, list[frozenset[int]]] = {k: [] for r in p.receivers for k in r.demands}
    for k, interf in p.hyperedges:
        interf_by_msg[k].append(interf)
    demanded = sorted(interf_by_msg)

    def extend(prefix: tuple[int, ...]) -> tuple[int, ...] | None:
        if len(prefix) == 4:
            return prefix
        need = set(prefix)
        for m in demanded:
            if m not in need and (not need or any(need <= s for s in interf_by_msg[m])):
                found = extend(prefix + (m,))
                if found:
                    return found
        return None

    return extend(())


def triangular_interfering_sets(p: Problem) -> list[TriangularInterferingSet]:
    """3-subsets of some interfering set carrying at least one conflict pair."""
    pairs = p.conflict_pairs
    seen: set[frozenset[int]] = set()
    for _, interf in p.hyperedges:
        for trio in combinations(sorted(interf), 3):
            members = frozenset(trio)
            if members in seen:
                continue
            if any((min(a, b), max(a, b)) in pairs for a, b in combinations(trio, 2)):
                seen.add(members)
    return [TriangularInterferingSet(m) for m in sorted(seen, key=sorted)]


def type2_alignment_sets(p: Problem) -> list[Type2AlignmentSet]:
    """Maximal chains of triangular interfering sets meeting at conflict pairs.

    Two triangles are adjacent iff their intersection is exactly two
    messages and that pair is in conflict.  Distinct triangles sharing a
    pair meet in exactly that pair, so joining every triangle to each
    conflict pair it contains groups them in time linear in their number.
    """
    triangles = [t.members for t in triangular_interfering_sets(p)]
    pairs = p.conflict_pairs
    uf = _UnionFind()
    for t in triangles:
        for pair in combinations(sorted(t), 2):
            if pair in pairs:
                uf.union(t, pair)
    comps: dict[Hashable, list[frozenset[int]]] = {}
    for t in triangles:
        comps.setdefault(uf.find(t), []).append(t)
    out = []
    for group in comps.values():
        messages = frozenset().union(*group)
        out.append(Type2AlignmentSet(triangles=frozenset(group), messages=messages))
    return sorted(out, key=lambda s: sorted(s.messages))


def restricted_internal_conflicts(
    p: Problem, members: frozenset[int] | set[int]
) -> list[tuple[ConflictPair, frozenset[int]]]:
    """Conflicts of the restricted problem inside one restricted alignment set.

    Each comes with its witnessing restricted alignment set, ordered by
    set and then by pair.  Restriction keeps every conflict between two
    members, so these are the problem's own conflict pairs inside each
    restricted set.
    """
    comp_of = {v: comp for comp in restricted_alignment_sets(p, members) for v in comp}
    out = [((a, b), comp_of[a]) for a, b in p.conflict_pairs
           if a in comp_of and comp_of[a] is comp_of.get(b)]
    return sorted(out, key=lambda w: (min(w[1]), w[0]))


def classify_alignment_set(
    p: Problem,
    members: frozenset[int],
    type2_sets: list[Type2AlignmentSet] | None = None,
) -> Kind:
    """Classification driving the rate-1/3 construction; total by the chain below."""
    if type2_sets is None:
        type2_sets = type2_alignment_sets(p)
    if not any(len(interf & members) >= 3 for _, interf in p.hyperedges):
        return Kind.KIND1
    # some receiver sees three members, so a three-member set is co-interfering
    if len(members) == 3 and not any(
        pair in p.conflict_pairs for pair in combinations(sorted(members), 2)
    ):
        return Kind.KIND2
    for t2 in type2_sets:
        if t2.messages == members:
            if restricted_internal_conflicts(p, members):
                return Kind.TYPE2_DIRTY
            return Kind.TYPE2_CLEAN
    return Kind.OTHER


def structure_report(p: Problem) -> StructureReport:
    g = alignment_graph(p)
    sets = alignment_sets(p)
    type2 = type2_alignment_sets(p)
    infos = tuple(
        AlignmentSetInfo(
            members=s,
            has_fork=has_fork(g, s),
            has_cycle=has_cycle(g, s),
            kind=classify_alignment_set(p, s, type2),
        )
        for s in sets
    )
    dirty = []
    for t2 in type2:
        for pair, comp in restricted_internal_conflicts(p, t2.messages):
            dirty.append((t2.messages, pair, comp))
    return StructureReport(
        alignment_sets=infos,
        type2_sets=tuple(type2),
        acyclic_quadruple=find_acyclic_quadruple(p),
        dirty_witnesses=tuple(dirty),
    )


def to_dot(p: Problem) -> str:
    """Graphviz rendering: solid alignment edges, dashed conflict hyperedges."""
    lines = ["graph index_coding {"]
    for v in range(1, p.n + 1):
        lines.append(f"  m{v} [label=\"W{v}\"];")
    for a, b in sorted(alignment_graph(p).edges):
        lines.append(f"  m{a} -- m{b};")
    hyperedges = sorted(p.hyperedges, key=lambda e: (e[0], sorted(e[1])))
    for idx, (k, interf) in enumerate(hyperedges):
        hub = f"h{idx}"
        lines.append(f"  {hub} [shape=point, label=\"\"];")
        lines.append(f"  m{k} -- {hub} [style=dashed];")
        for i in sorted(interf):
            lines.append(f"  {hub} -- m{i} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
