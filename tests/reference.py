"""Reference computations the tests check against, which no command needs.

``rank`` is the rank of a list of vectors over GF(p).
``project_plane`` collapses the length-3 assignment of a type-2 set to a
length-2 code (acceptance criterion 9).  ``three_colouring`` searches for
a proper 3-colouring of the conflict graph: giving each message the unit
vector of its colour is a length-3 code over every field.
"""

from __future__ import annotations

from indexcode.codec import ScalarLinearCode
from indexcode.linalg import Vector, rref
from indexcode.problem import Problem, conflicts, restrict_problem


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


def unit_vector_code(colour: dict[int, int], prime: int = 2) -> ScalarLinearCode:
    """The length-3 code that gives message m the unit vector e_{colour[m]}."""
    vectors = tuple(tuple(int(i == colour[m]) for i in range(3)) for m in sorted(colour))
    return ScalarLinearCode(3, prime, vectors)
