"""Reference computations the tests check against, which no command needs.

``rank`` is the rank of a list of vectors over GF(p).
``project_plane`` collapses the length-3 assignment of a type-2 set to a
length-2 code (acceptance criterion 9).  ``three_colouring`` searches for
a proper 3-colouring of the conflict graph: giving each message the unit
vector of its colour is a length-3 code over every field.
``rank3_matroid`` looks for the matroid every length-3 code has, over any
field, so finding none refutes length 3 over all of them.

``edge_masks``, ``bits``, ``pair_components`` and ``triangle_rows`` are
``Problem.bits.hyperedges``, the first five fields of ``Problem.bits``,
``structure._pair_components`` and ``structure._triangle_rows`` as they
were before the library read the receivers in blocks: they walk every
interfering set member by member.  ``acyclic_quadruple`` is
``structure.find_acyclic_quadruple`` by brute force over ``edge_masks``.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache, reduce
from itertools import combinations
from operator import or_

from indexcode.codec import ScalarLinearCode
from indexcode.linalg import Vector, rref
from indexcode.problem import Problem, _iter_bits, _pairs, _reaches, _to_mask, conflicts, restrict_problem
from indexcode.structure import _merge


def rank(vectors: list[Vector] | tuple[Vector, ...], p: int) -> int:
    """Rank of the span of ``vectors`` over GF(p); the empty list has rank 0."""
    return len(rref(list(vectors), p)[1])


def project_plane(
    p: Problem, code: ScalarLinearCode, members: frozenset[int]
) -> tuple[Problem, dict[int, int], ScalarLinearCode]:
    """``p`` restricted to ``members``, the old-id -> new-id mapping, and
    the member vectors, which must span a plane, as the length-2 code of
    their coordinates in its RREF basis b0, b1.  Each b has 1 at its own
    pivot column and 0 at the other's, so v = v[c0] * b0 + v[c1] * b1."""
    _, pivots = rref([code.vector(m) for m in sorted(members)], code.prime)
    assert len(pivots) == 2, f"member vectors span {len(pivots)} dimensions"
    c0, c1 = pivots
    restricted, mapping = restrict_problem(p, members)
    vectors = tuple((code.vector(m)[c0], code.vector(m)[c1]) for m in sorted(mapping))
    return restricted, mapping, ScalarLinearCode(2, code.prime, vectors)


def three_colouring(p: Problem, budget: int = 10_000) -> dict[int, int] | None:
    """A colouring of the messages with 0, 1 and 2 that gives the two ends
    of every conflict pair different colours, or None if there is none.

    Backtracking in DSATUR order: the next message is the uncoloured one
    with the most distinct colours among its conflict partners, then the
    most uncoloured partners, then the lowest id.  It tries the colours
    its partners leave free in order, and at most one colour that no
    message has yet.  A search past ``budget`` tried colours fails an
    assertion rather than answer."""
    partners: dict[int, set[int]] = {m: set() for m in range(1, p.n + 1)}
    for a, b in conflicts(p):
        partners[a].add(b)
        partners[b].add(a)
    colour: dict[int, int] = {}
    nodes = 0

    def saturation(m: int) -> tuple[int, int, int]:
        seen = {colour[x] for x in partners[m] if x in colour}
        return len(seen), len(partners[m]) - sum(x in colour for x in partners[m]), -m

    def extend() -> bool:
        nonlocal nodes
        if len(colour) == p.n:
            return True
        m = max((m for m in partners if m not in colour), key=saturation)
        taken = {colour[x] for x in partners[m] if x in colour}
        for c in range(min(3, len(set(colour.values())) + 1)):
            if c in taken:
                continue
            nodes += 1
            assert nodes <= budget, f"3-colouring search past its budget of {budget} nodes"
            colour[m] = c
            if extend():
                return True
            del colour[m]
        return False

    return colour if extend() else None


@cache
def linear_spaces(points: int) -> tuple[tuple[int, ...], ...]:
    """Every linear space on the points 0..points-1: each a tuple of lines,
    point masks of three or more points, any two meeting in at most one
    point (1, 1, 1, 2, 6, 32, 353 and 8,390 of them for 0 to 7 points)."""
    lines = [sum(1 << x for x in c) for size in range(3, points + 1) for c in combinations(range(points), size)]
    out = []

    def extend(i: int, chosen: tuple[int, ...]) -> None:
        if i == len(lines):
            out.append(chosen)
            return
        extend(i + 1, chosen)
        if all((lines[i] & line).bit_count() < 2 for line in chosen):
            extend(i + 1, (*chosen, lines[i]))

    extend(0, ())
    return tuple(out)


def set_partitions(n: int) -> list[list[int]]:
    """Every partition of messages 1..n, as the class of each message
    (index 0 unused), classes numbered in order of first member."""
    out = []

    def extend(classes: list[int], count: int) -> None:
        if len(classes) == n + 1:
            out.append(classes)
            return
        for c in range(count + 1):
            extend([*classes, c], max(count, c + 1))

    extend([0], 0)
    return out


def rank3_matroid(p: Problem) -> tuple[list[int], tuple[int, ...]] | None:
    """A loopless matroid of rank at most 3 on the messages of ``p`` in
    which no hyperedge (k, I) has k in the closure of I, as the class of
    each message and the lines over the classes; None when there is none.

    The lemma: a length-3 scalar linear code over any field, prime powers
    included, gives message m a vector v_m of F^3 with v_k outside the span
    of v_I for every hyperedge (k, I).  Its column matroid has rank at most
    3 and k outside cl(I), and it is loopless when every message is
    demanded, as then every v_k is nonzero.  So when this returns None, no
    field has a length-3 code (El Rouayheb, Sprintson and Georghiades, "On
    the index coding problem and its relation to network coding and matroid
    theory", IEEE Trans. IT, 2010).  A matroid may exist and have no
    representation, so finding one proves nothing.

    A loopless matroid of rank at most 3 is a partition of the messages
    into parallel classes, its points, with a linear space on the points.
    cl(I) is read off the points of I: none or one point, or two points on
    no line, gives those points; all of them on one line gives that line;
    anything else gives every point.  Every candidate is tried."""
    edges = list(p.bits.hyperedges)
    for classes in set_partitions(p.n):
        points = max(classes) + 1
        edge_points = []
        for k, interf in edges:
            pts = 0
            for i in _iter_bits(interf):
                pts |= 1 << classes[i]
            edge_points.append((1 << classes[k], pts))
        if any(pk & pts for pk, pts in edge_points):
            continue  # k parallel to a member of I
        for lines in linear_spaces(points):
            for pk, pts in edge_points:
                line = next((line for line in lines if pts & line == pts), None) if pts.bit_count() > 1 else None
                if line is None and pts.bit_count() > 2 or line is not None and pk & line:
                    break
            else:
                return classes, lines
    return None


def unit_vector_code(colour: dict[int, int], prime: int = 2) -> ScalarLinearCode:
    """The length-3 code that gives message m the unit vector e_{colour[m]}."""
    vectors = tuple(tuple(int(i == colour[m]) for i in range(3)) for m in sorted(colour))
    return ScalarLinearCode(3, prime, vectors)


def edge_masks(p: Problem) -> frozenset[tuple[int, int]]:
    """Each distinct (k, mask of Interf_k(j)) with a nonempty interfering set:
    one mask per receiver of the messages outside its side information,
    read from the smaller side, each demand k clearing bit k of it."""
    n = p.n
    bit, full = (1).__lshift__, (1 << (n + 1)) - 2
    pairs = set()
    for demands, side_info in p.receivers:
        # distinct bits: sum is or
        if 2 * len(side_info) < n:
            base = full ^ sum(map(bit, side_info))
        else:
            base = sum(map(bit, p.messages.difference(side_info)))
        for k in demands:
            if interf := base ^ 1 << k:
                pairs.add((k, interf))
    return frozenset(pairs)


def bits(p: Problem) -> dict[str, object]:
    """The first five fields of ``Problem.bits`` by name, read from
    ``edge_masks``, one update per member of each distinct interfering set."""
    near, conf = [0] * (p.n + 1), [0] * (p.n + 1)
    against: dict[int, int] = {}  # interfering set -> mask of the messages demanded against it
    for k, s in edge_masks(p):
        against[s] = against.get(s, 0) | 1 << k
        conf[k] |= s
    sets = tuple(sorted(against, key=lambda s: (-s.bit_count(), s)))
    for s in sets:
        ks, rest = against[s], s
        while rest:
            low = rest & -rest
            m = low.bit_length() - 1
            near[m] |= s
            conf[m] |= ks
            rest ^= low
    crowded = reduce(or_, (s for s in sets if s.bit_count() > 2), 0)
    return dict(
        sets=sets,
        against=tuple(map(against.__getitem__, sets)),
        crowded=crowded,
        near=tuple(near),
        conf=tuple(conf),
    )


def triangle_rows(p: Problem) -> Iterator[tuple[int, int, int]]:
    """For each pair a < b of ``bits.near``, (a, b, mask of every c that
    makes a < b < c a triangle), from OR tables over every interfering set
    of three or more members."""
    conf = p.bits.conf
    big = [s for s in p.bits.sets if s.bit_count() > 2]
    holds = [sum(1 << idx for idx, s in enumerate(big) if s >> m & 1) for m in range(p.n + 1)]
    tables = []
    for lo in range(0, len(big), 8):
        table = [0]
        for s in big[lo:lo + 8]:
            table += [u | s for u in table]
        tables.append(table)
    for (a, b), _ in _pairs(p.bits.near, [(1 << (p.n + 1)) - 2]):
        u, picked = 0, holds[a] & holds[b]
        for table in tables:
            u |= table[picked & 255]
            picked >>= 8
        above = u >> (b + 1) << (b + 1)
        if not conf[a] >> b & 1:
            above &= conf[a] | conf[b]
        yield a, b, above


def pair_components(p: Problem) -> list[tuple[int, list[tuple[int, int]]]]:
    """Components of the conflict pairs that lie in triangles, with the
    messages of their triangles, from the stars of every message in every
    interfering set of three or more members."""
    conf = p.bits.conf
    held: dict[int, list[int]] = {}  # message a -> the sets of three or more members where a has a star
    for s in p.bits.sets:
        if s.bit_count() < 3:
            break  # the sets are sorted largest first
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
        merged = _merge(sets, conf[a])
        if len(merged) == 1:
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


def acyclic_quadruple(p: Problem) -> tuple[int, ...] | None:
    """The lexicographically first ordered 4-tuple (m1, m2, m3, m4) of
    demanded messages in which each of m2, m3 and m4 is demanded against
    an interfering set that holds every earlier one, or None.  The tuples
    are tried in ascending order against ``edge_masks``, and a prefix that
    fails cuts off its extensions."""
    edges = edge_masks(p)
    demanded = sorted(frozenset().union(*(r.demands for r in p.receivers)))

    def extend(prefix: tuple[int, ...]) -> tuple[int, ...] | None:
        if len(prefix) == 4:
            return prefix
        held = sum(1 << m for m in prefix)
        for m in demanded:
            if not prefix or any(k == m and s & held == held for k, s in edges):
                if found := extend((*prefix, m)):
                    return found
        return None

    return extend(())
