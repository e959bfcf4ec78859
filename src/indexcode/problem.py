"""Groupcast index coding problems: validation, parsing, interference.

Messages are 1-based ids ``1..n``.  A problem is a message count plus an
ordered list of receivers, each with a nonempty demand set and a disjoint
side-information set.  All values are immutable; every function here is
pure, and ``parse_problem`` hands a repeated text its latest result.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, filterfalse, islice
from operator import or_
from typing import NamedTuple, NoReturn

ConflictPair = tuple[int, int]  # always stored with a < b


class ProblemError(ValueError):
    """Raised for structurally invalid problems or malformed problem files."""


def _to_mask(ms: Iterable[int]) -> int:
    """Message ids as an int bitmask, bit m for message m."""
    mask = 0
    for m in ms:
        mask |= 1 << m
    return mask


def _iter_bits(mask: int) -> Iterator[int]:
    """Message ids of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reaches(near: Sequence[int] | Mapping[int, int], left: int) -> list[int]:
    """Components of the graph in which ``near[v]`` is the mask of node v's
    neighbours, over the nodes of the mask ``left``, ordered by smallest
    node: each is the reach from the lowest node no earlier one holds, so
    every node is expanded once."""
    comps = []
    while left:
        reach = frontier = left & -left
        while frontier:
            step = 0
            while frontier:  # _iter_bits inlined: this loop runs once per node
                low = frontier & -frontier
                step |= near[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~reach
            reach |= frontier
        comps.append(reach)
        left &= ~reach
    return comps


def _pairs(adj: Sequence[int], comps: Iterable[int]) -> Iterator[tuple[ConflictPair, int]]:
    """Edges inside each mask c of ``comps`` of the graph with the symmetric
    neighbour masks ``adj``, such as ``bits.conf`` or ``bits.near``, lazily:
    ((a, b), c) for a < b in c, ordered by c, then a, then b.  Each member a
    costs one AND with the members of c above it, so each edge is listed
    once, from its lower end.  Hence a mask's first pair is its lowest, and
    taking it stops the scan at the first member with a neighbour in c."""
    for c in comps:
        above = c
        while above:  # _iter_bits inlined, twice: no generator per member
            low = above & -above
            above ^= low
            a = low.bit_length() - 1
            partners = adj[a] & above
            while partners:
                high = partners & -partners
                yield (a, high.bit_length() - 1), c
                partners ^= high


class HypergraphBits(NamedTuple):
    """Integer view of the conflict hypergraph, bit m for message m."""

    sets: tuple[int, ...]  # the distinct interfering sets, largest first
    against: tuple[int, ...]  # [i]: mask of the messages demanded against ``sets[i]``
    crowded: int  # union of the sets with three or more members
    sets_with: tuple[int, ...]  # [m], m = 1..n: mask of the indexes into ``sets`` that contain m
    near: tuple[int, ...]  # [m]: union of the sets that contain m, its alignment-graph neighbours
    conf: tuple[int, ...]  # [m]: mask of m's conflict partners
    # (O, D) per distinct outside mask O with two or more demands D against
    # it and 24 or more members in its sets O less each k of D, read whole
    blocks: tuple[tuple[int, int], ...]
    # each distinct (k, mask of I), I nonempty: the oracle's plan and to_dot
    # read it; a frozenset keeps its hash, so a cache keyed by it hashes it once
    hyperedges: frozenset[tuple[int, int]]
    components: tuple[int, ...]  # the alignment sets, the reaches of ``near``, ordered by smallest member
    # the sets of the receivers outside the blocks, walked one by one, in
    # the order of ``sets``; ``sets`` itself when there is no block
    loose: tuple[int, ...]


class Receiver(NamedTuple):
    demands: frozenset[int]
    side_info: frozenset[int]


@dataclass(frozen=True)
class Problem:
    n: int
    receivers: tuple[Receiver, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise ProblemError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ProblemError(f"need at least one message, got n={self.n}")
        if not self.receivers:
            raise ProblemError("need at least one receiver")
        demands, side = zip(*self.receivers)
        # 2.0 and True equal ids, so the exact type test reads every listed id
        if {int}.issuperset(map(type, chain(*demands, *side))) and _sets_hold(self.n, demands, side):
            return
        for j, r in enumerate(self.receivers, start=1):  # a check failed: name the first receiver at fault
            if not r.demands:
                raise ProblemError(f"receiver {j}: empty demand set")
            listed = [*r.demands, *r.side_info]
            if not {int}.issuperset(map(type, listed)):
                m = min((m for m in listed if type(m) is not int), key=repr)
                raise ProblemError(f"receiver {j}: message id {m!r} is not an integer")
            if overlap := sorted(r.demands & r.side_info):
                raise ProblemError(f"receiver {j}: demands overlap side info: {_shown_ids(overlap, len(overlap))}")
            if outside := [m for m in listed if not 0 < m <= self.n]:
                m = min(outside, key=repr)
                raise ProblemError(f"receiver {j}: message id {m!r} out of range [1..{self.n}]")

    @classmethod
    def _known_valid(cls, n: int, receivers: tuple[Receiver, ...]) -> Problem:
        """The problem of values that pass ``__post_init__``, built without
        running its checks: ``parse_problem``'s, once the same rule
        (``_sets_hold``) has held on the ints of a plain text."""
        p = object.__new__(cls)
        p.__dict__.update(n=n, receivers=receivers)
        return p

    @property
    def t(self) -> int:
        return len(self.receivers)

    @cached_property
    def messages(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    @cached_property
    def bits(self) -> HypergraphBits:
        """The conflict hypergraph as int bitmasks, read from the receivers
        in one pass, with its hyperedges and alignment sets: the one view
        of it that a ``Problem`` caches.

        A receiver's interfering sets are its outside mask O, the messages
        outside its side information, less each demand k.  O is read from
        the smaller side: the side-information ids when they are fewer than
        n/2, cleared from the mask ``full`` of all ids, else the ids outside
        them: reading every receiver from its side information took each
        construct-verify problem about 75 µs longer.  Each distinct set maps
        to the mask of the messages demanded against it (``against``, in the
        order of ``sets``), and ``conf`` is that map together with its
        transpose.  Every value is an OR over the edges, so their order does
        not matter.

        Receivers with the same O are grouped, with the mask D of all their
        demands.  A group of d >= 2 demands whose d sets hold 24 or more
        members in all is a block (``blocks``), and takes one update per
        member m of O, not one per set: the sets that hold m are those of the demands other than m,
        whose union is O when two or more demands are not m and O less the
        one other demand otherwise, and m conflicts with the demands other
        than m, and with all of O when it is one.  Every other set
        (``loose``) is walked member by member, as is a block's set that a
        receiver outside the blocks has too, for the messages that receiver
        demands against it."""
        n = self.n
        bit, full = (1).__lshift__, (1 << (n + 1)) - 2
        sets_with, near, conf = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
        against: dict[int, int] = {}  # interfering set -> mask of the messages demanded against it
        grouped: dict[int, int] = {}  # outside mask O -> mask D of the messages demanded against it
        shared: dict[int, None] = {}  # the O with two or more demands, in order
        edges = []
        for demands, side_info in self.receivers:
            # distinct bits: sum is or
            if 2 * len(side_info) < n:
                o = full ^ sum(map(bit, side_info))
            else:
                o = sum(map(bit, self.messages.difference(side_info)))
            if len(demands) == 1:  # most receivers: no loop, and no sum(map(...))
                (k,) = demands
                d = 1 << k
                if not (s := o ^ d):
                    continue  # O is its one demand: no interfering set
                against[s] = against.get(s, 0) | d
                conf[k] |= s
                edges.append((k, s))
            else:
                d = rest = sum(map(bit, demands))
                shared[o] = None
                while rest:
                    low = rest & -rest
                    k, s = low.bit_length() - 1, o ^ low
                    against[s] = against.get(s, 0) | low
                    conf[k] |= s
                    edges.append((k, s))
                    rest ^= low
            if o in grouped:
                d |= grouped[o]
                if d & (d - 1):  # not when a one-demand receiver repeats
                    shared[o] = None
            grouped[o] = d
        blocks, small = [], []
        for o in shared:
            # the d sets of a group that hold fewer than 24 members in all cost
            # less walked one by one: as blocks, they took bits of the n <= 6
            # groupcast problems of oracle-small 30% longer
            d = grouped[o]
            (blocks if d.bit_count() * (o.bit_count() - 1) >= 24 else small).append((o, d))
        sets = tuple(sorted(sorted(against), key=int.bit_count, reverse=True))  # largest first, then ascending
        walk, loose = enumerate(sets), sets
        if blocks:  # the sets of the other groups; those of the blocks alone are updated per block below
            lone = {o ^ d for o, d in grouped.items() if not d & (d - 1)}
            lone.update(o ^ 1 << k for o, d in small for k in _iter_bits(d))
            walk = [(idx, s) for idx, s in walk if s in lone]
            loose = tuple(s for _, s in walk)
        for idx, s in walk:
            ks, here, rest = against[s], 1 << idx, s
            while rest:  # _iter_bits inlined: this loop runs once per member of each set
                low = rest & -rest
                m = low.bit_length() - 1
                sets_with[m] |= here
                near[m] |= s
                conf[m] |= ks
                rest ^= low
        if blocks:
            index = {s: idx for idx, s in enumerate(sets)}
            for o, d in blocks:
                ids, rest, two = 0, d, d.bit_count() == 2
                while rest:
                    low = rest & -rest
                    ids |= 1 << index[o ^ low]
                    rest ^= low
                rest = d
                while rest:  # the demands: all sets but their own, and conflicts with all of O
                    low = rest & -rest
                    m = low.bit_length() - 1
                    sets_with[m] |= ids ^ 1 << index[o ^ low]
                    near[m] |= o ^ d ^ low if two else o
                    conf[m] |= d ^ low
                    rest ^= low
                rest = o ^ d
                while rest:  # the other members: every set, and conflicts with the demands
                    low = rest & -rest
                    m = low.bit_length() - 1
                    sets_with[m] |= ids
                    near[m] |= o
                    conf[m] |= d
                    rest ^= low
        crowded = reduce(or_, (s for s in sets if s.bit_count() > 2), 0)
        return HypergraphBits(
            sets,
            tuple(map(against.__getitem__, sets)),
            crowded,
            tuple(sets_with),
            tuple(near),
            tuple(conf),
            tuple(blocks),
            frozenset(edges),
            tuple(_reaches(near, full)),
            loose,
        )


_SHOWN_IDS = 10  # ids an error lists before it gives only the count


def _shown_ids(ids: Iterable[int], total: int) -> str:
    """The ``total`` ids of ``ids`` as an error lists them: the first
    ``_SHOWN_IDS`` as a list, then only the count of the rest."""
    more = f" and {total - _SHOWN_IDS} more, {total} in all" if total > _SHOWN_IDS else ""
    return f"{list(islice(ids, _SHOWN_IDS))}{more}"


def check_groupcast_complete(p: Problem) -> None:
    """Refuse a problem with an undemanded message, in memory linear in the
    demands rather than in ``n``: ``Problem`` has checked that every
    demand is an int id in 1..n, so the demands cover fewer than n ids
    exactly when some message is undemanded."""
    demanded = frozenset().union(*next(zip(*p.receivers)))  # the demand sets
    total = p.n - len(demanded)
    if total:
        undemanded = filterfalse(demanded.__contains__, range(1, p.n + 1))
        raise ProblemError(f"messages demanded by no receiver: {_shown_ids(undemanded, total)}")


def interfering_set(p: Problem, j: int, k: int) -> frozenset[int]:
    """Messages interfering at receiver ``j`` while it decodes ``k``.

    Empty when receiver ``j`` does not demand ``k``; otherwise every
    message other than ``k`` that is not in ``j``'s side information.
    ``Problem.bits.hyperedges`` holds every nonempty such set, as a mask.
    """
    if not 1 <= j <= p.t:
        raise ProblemError(f"receiver index {j} out of range [1..{p.t}]")
    r = p.receivers[j - 1]
    if k not in r.demands:
        return frozenset()
    return p.messages - ({k} | r.side_info)


def conflicts(p: Problem) -> frozenset[ConflictPair]:
    """Unordered conflict pairs: a demanded message versus each interferer,
    read from ``Problem.bits``."""
    return frozenset(pair for pair, _ in _pairs(p.bits.conf, [(1 << (p.n + 1)) - 2]))


def restriction_members(p: Problem, members: frozenset[int] | set[int]) -> frozenset[int]:
    """``members`` as a frozenset, rejected when empty, when an id is not
    exactly an int (2.0 and True equal ids, as in ``Problem``) or out of range."""
    members = frozenset(members)
    if not members:
        raise ProblemError("cannot restrict to an empty message set")
    if not {int}.issuperset(map(type, members)):
        m = min((m for m in members if type(m) is not int), key=repr)
        raise ProblemError(f"restriction id {m!r} is not an integer")
    if not members <= p.messages:
        raise ProblemError(f"restriction ids out of range: {sorted(members - p.messages)}")
    return members


def restrict_problem(p: Problem, members: frozenset[int] | set[int]) -> tuple[Problem, dict[int, int]]:
    """Problem induced on ``members``, with the old-id -> new-id mapping.

    Receivers survive iff they demand something inside ``members``;
    demand and side-information sets are intersected with ``members`` and
    message ids are renumbered 1..|members| in ascending old-id order.
    """
    members = restriction_members(p, members)
    mapping = {old: new for new, old in enumerate(sorted(members), start=1)}
    kept = [
        Receiver(
            demands=frozenset(mapping[m] for m in r.demands & members),
            side_info=frozenset(mapping[m] for m in r.side_info & members),
        )
        for r in p.receivers
        if r.demands & members
    ]
    if not kept:
        raise ProblemError("restriction keeps no receiver")
    return Problem(n=len(members), receivers=tuple(kept)), mapping


def random_problem(n: int, density: float, single_unicast: bool = True, seed: int = 0) -> Problem:
    """Deterministic random problem; a pure function of its arguments.

    In single-unicast mode receiver ``j`` demands exactly message ``j``
    and every other message lands in its side information independently
    with probability ``density``.  The general mode additionally lets
    receivers pick up extra demands.  Always groupcast-complete.
    """
    if n < 1:
        raise ProblemError(f"need n >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ProblemError(f"density must be in [0, 1], got {density}")
    rng = random.Random(f"indexcode-gen:{n}:{density!r}:{single_unicast}:{seed}")
    ids = tuple(range(1, n + 1))  # one int object per id, shared by every set: ids above 256 are not cached
    receivers = []
    for j in ids:
        demands = {j}
        if not single_unicast:
            demands |= {i for i in ids if i != j and rng.random() < 0.15}
        side = {i for i in ids if i not in demands and rng.random() < density}
        receivers.append(Receiver(demands=frozenset(demands), side_info=frozenset(side)))
    return Problem(n=n, receivers=tuple(receivers))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict, refused when it repeats a key, which
    ``json.loads`` would otherwise settle by keeping the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"repeated key {key!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # json.loads with a hook builds one per call


def _load_json(text: str, kind: str, error: type[ValueError]) -> object:
    """The JSON value of a ``kind`` file; a text that does not decode to
    exactly one value raises ``error``."""
    try:
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, or nesting past the stack
        raise error(f"malformed {kind} file: {exc}") from exc


def _refuse(token: str) -> NoReturn:
    raise ValueError(f"not an integer: {token}")


_PLAIN_DECODER = json.JSONDecoder(parse_float=_refuse, parse_constant=_refuse)  # no Python call per object


def _plain_problem(text: str) -> dict | None:
    """The value of the problem file ``text``, decoded with no Python call
    per object or id, when its own tokens show that ``_load_json`` gives the
    same and that every number in it is an int; else None.  No key of the
    format holds a backslash, t or l, so none of ``true``, ``Infinity``,
    ``false`` or ``null`` was read, and the decoder refuses floats and
    ``NaN``.  With no backslash each string has two quotes, so twice as many
    as the keys of the top and receiver objects leave no other string and
    no repeated key there."""
    if "\\" in text or "t" in text or "l" in text:
        return None
    try:
        data = _PLAIN_DECODER.decode(text)
    except (ValueError, RecursionError):
        return None
    entries = data.get("receivers") if type(data) is dict else None
    if type(entries) is not list or not {dict}.issuperset(map(type, entries)):
        return None
    return data if text.count('"') == 2 * (len(data) + sum(map(len, entries))) else None


def _unknown_key(obj: dict[str, object], known: frozenset[str]) -> str:
    """The first key of ``obj``, in file order, that is not in ``known``."""
    return next(key for key in obj if key not in known)


# The largest n a problem file may hold.  bits.near and bits.conf hold n
# masks of up to n bits, so a file with few ids still costs O(n^2) bits, and
# later layers more.  At n = 1024, indexcode analyze takes 0.08-0.11 s and
# 18 MB on one receiver that demands every message, and on one receiver per
# message without side information, indexcode oracle 0.86-0.92 s and 236 MB
# for a plan of n(n-1)/2 + 1 trie nodes, and analyze --emit-graph 0.53-0.59 s
# and 18 MB for a 40.7 MB dot (README, on input files).  gen -n 1024
# --density 1 writes its 5.2 MB file in 0.26-0.29 s at a 59 MB peak.
MAX_MESSAGES = 1024

_PROBLEM_KEYS = frozenset({"n", "receivers"})
_RECEIVER_KEYS = frozenset({"demands", "side_info"})


def _sets_hold(n: int, demands: Sequence[frozenset], side: Sequence[frozenset]) -> bool:
    """``Problem``'s rule for the int id sets of its receivers, one C-level
    pass per check over all of them: every demand set nonempty and disjoint
    from its side set, and every id in 1..n, read from the distinct ids."""
    if not (all(demands) and all(map(frozenset.isdisjoint, demands, side))):
        return False
    ids = frozenset().union(*demands, *side)
    return 1 <= min(ids) and max(ids) <= n


# The latest successful parse, (text, allow_undemanded, problem): one entry,
# so the memo holds no more than the caller of that parse already held
_last_parse: tuple[str, bool, Problem] | None = None


def parse_problem(text: str, allow_undemanded: bool = False) -> Problem:
    """Parse the canonical JSON problem format (see ``problem_to_json``).

    A key the format does not name is refused rather than dropped, so a
    misspelled ``side_info`` cannot read as no side information.  An ``n``
    above ``MAX_MESSAGES`` is refused after the id and demand checks, which
    cost memory in the listed ids only, before anything of size n exists.

    A call that repeats the latest successful call, the same text with the
    same flag, returns the same immutable ``Problem``, so the views it has
    cached are built once for both callers.  The texts are compared, not
    hashed: ``==`` is at once true for the same object and false for
    unequal lengths.  A refusal is never kept, so it is raised again."""
    global _last_parse
    last = _last_parse  # one read: a parse in another thread cannot split the entry
    if last is not None and last[1] == allow_undemanded and last[0] == text:
        return last[2]
    data = plain = _plain_problem(text)
    if plain is None:
        data = _load_json(text, "problem", ProblemError)
    if not isinstance(data, dict) or "n" not in data or "receivers" not in data:
        raise ProblemError("problem file must be an object with 'n' and 'receivers'")
    if not _PROBLEM_KEYS.issuperset(data):
        key = _unknown_key(data, _PROBLEM_KEYS)
        raise ProblemError(f"problem file: unknown key {key!r}; it holds only 'n' and 'receivers'")
    receivers = []
    if not isinstance(data["receivers"], list):
        raise ProblemError("'receivers' must be a list")
    for idx, entry in enumerate(data["receivers"], start=1):
        if not isinstance(entry, dict):
            raise ProblemError(f"receiver {idx}: must be an object")
        if not _RECEIVER_KEYS.issuperset(entry):
            key = _unknown_key(entry, _RECEIVER_KEYS)
            raise ProblemError(
                f"receiver {idx}: unknown key {key!r}; a receiver holds only 'demands' and 'side_info'"
            )
        try:
            # Problem checks the id types, exactly and once for all receivers.
            # A set keeps the first of equal values, so [1, true] would be {1}
            # and hide true from that check: a list that repeats a value is
            # read with its non-integers first
            demands, side_info = entry["demands"], entry.get("side_info", [])
            if type(demands) is not list or type(side_info) is not list:  # a string or object is iterable too
                raise TypeError
            d, s = frozenset(demands), frozenset(side_info)
            if len(d) < len(demands):
                d = frozenset(sorted(demands, key=lambda m: type(m) is int))
            if len(s) < len(side_info):
                s = frozenset(sorted(side_info, key=lambda m: type(m) is int))
        except (KeyError, TypeError) as exc:
            raise ProblemError(f"receiver {idx}: demands and side_info must be lists of integer ids") from exc
        receivers.append(tuple.__new__(Receiver, (d, s)))  # a Receiver, without NamedTuple's Python-level __new__
    n, receivers = data["n"], tuple(receivers)
    # a plain text's ids are all ints, or failed frozenset above; this path
    # and _plain_problem take 8% off a construct-verify construct op
    if plain is not None and type(n) is int and receivers and _sets_hold(n, *zip(*receivers)):
        p = Problem._known_valid(n, receivers)
    else:
        p = Problem(n=n, receivers=receivers)  # Problem names the receiver and id at fault
    if not allow_undemanded:
        check_groupcast_complete(p)
    if p.n > MAX_MESSAGES:
        raise ProblemError(f"n = {p.n} is above the limit of {MAX_MESSAGES} messages")
    _last_parse = (text, allow_undemanded, p)
    return p


_RECEIVER_JSON = '    {"demands": [%s], "side_info": [%s]}'


def _ids_json(ids: frozenset[int], texts: list[str]) -> str:
    return ", ".join(map(texts.__getitem__, sorted(ids)))


def problem_to_json(p: Problem) -> str:
    """Canonical serialization: ascending ids, stable key order, one
    receiver per line, the layout of the bundled fixtures.

    The frame is that of ``json.dumps`` with ``indent=2`` on
    ``{"n": n, "receivers": [...]}``, and each receiver's line is
    ``json.dumps`` of ``{"demands": [...], "side_info": [...]}`` with its
    default separators, indented four spaces: a third of the bytes of
    ``indent=2`` throughout, which lists one id per line.  It is formatted
    directly, in under half the time of ``json.dumps`` per receiver.
    ``parse_problem`` reads any JSON layout, so a file written with one id
    per line reads back as the same ``Problem``.
    """
    texts = [*map(str, range(p.n + 1))]  # each id's text once, not once per listing
    receivers = ",\n".join(
        _RECEIVER_JSON % (_ids_json(r.demands, texts), _ids_json(r.side_info, texts)) for r in p.receivers
    )
    return '{\n  "n": %d,\n  "receivers": [\n%s\n  ]\n}\n' % (p.n, receivers)
