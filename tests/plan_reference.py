"""The oracle's search plan as ``oracle._plan`` built it before the plan was
rebuilt in fewer Python steps; ``test_oracle`` requires the two to agree.

It lists the members of each interfering set, counts degrees, orders the
messages most constrained first, and walks the sorted positions of each
hyperedge (k, I), creating a trie node for each prefix of I a check reads.
It keys each node by the mask of its positions, which the library no
longer does: ``_plan`` keys a node by its parent node and its last
position, so the two name the nodes independently.
"""

from __future__ import annotations

from indexcode.oracle import _Plan


def reference_plan(n: int, edges: frozenset[tuple[int, int]]) -> _Plan:
    """The plan of the (k, mask of I) hyperedges ``edges`` over messages 1..n."""
    degree = [0] * (n + 1)
    members = []  # the messages of each I
    for k, interf in edges:
        degree[k] += 1
        ms = []
        while interf:
            low = interf & -interf
            m = low.bit_length() - 1
            ms.append(m)
            degree[m] += 1
            interf ^= low
        members.append(ms)
    # a stable sort keeps ids ascending among equal degrees, also in reverse
    order = sorted(range(1, n + 1), key=degree.__getitem__, reverse=True)
    position = [0] * (n + 1)
    for t, m in enumerate(order):
        position[m] = t
    node = {0: 0}  # prefix, as its mask of positions -> node; its parent lacks the highest position
    first = [n]  # position where each node is first read; the root is never set
    avoid: list[list[int]] = [[] for _ in order]
    pairs: list[list[tuple[int, int]]] = [[] for _ in order]
    inside: list[list[tuple[int, int]]] = [[] for _ in order]
    for (k, _), ms in zip(edges, members):
        s = position[k]
        x = size = prefix = 0
        last = -1  # the position of I that extends x at the next read, if any
        for t in sorted([s, *map(position.__getitem__, ms)]):
            if last >= 0:
                prefix |= 1 << last
                y = node.get(prefix)
                if y is None:
                    y = node[prefix] = len(first)
                    first.append(t)
                elif t < first[y]:
                    first[y] = t
                x, size, last = y, size + 1, -1
            if t > s:
                pairs[t].append((x, s))
            elif t < s:
                inside[t].append((size, x))
            elif x:
                avoid[s].append(x)
            if t != s:
                last = t
    extend: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for prefix, x in node.items():
        if x:
            last = prefix.bit_length() - 1
            extend[first[x]].append((x, node[prefix ^ 1 << last], last))
    # many hyperedges read one inside check: keep each once, longest prefix first
    return _Plan(position[1:], len(first), extend, avoid, pairs, [sorted(set(c), reverse=True) for c in inside])
