"""Scalar linear index codes: construction, verification, encode/decode.

A code assigns one length-L vector over GF(p) to each message.  A code
is valid exactly when no message has the zero vector and no demanded
message's vector falls inside the span of the vectors interfering at its
receiver (the linear decodability criterion of Bar-Yossef, Birk, Jayram
and Kol, "Index coding with side information", FOCS 2006).  That
criterion depends only on v_k and the set of distinct vectors on
Interf_k(j), and constructed codes share one vector across a whole
alignment set, so a code has few distinct vectors.

``verify`` and ``decode_all`` read one span table per (problem, code).
It keys each (j, k), read from the receivers, by the index of v_k and
the indexes of the distinct vectors of Interf_k(j).  For each distinct
vector set it holds the rows that span the set's annihilator
{u : u . v = 0 on the set} (``linalg.nullspace``, fraction-free), and
for each distinct key either a row r with r . v_k != 0, with that dot,
or "in span" when there is none.  ``verify`` reads whether the row
exists.  ``decode_all`` removes the side information of every receiver
from the codeword once, applies each row to that one shared residual and
divides by its dot; its docstring shows why a receiver's own residual
differs only in its demand's term and the symbols it gives differently.
It raises on an unverified code instead of running ``verify`` first.
The table depends only on the ``Problem`` object and the code's length,
prime and vectors, and the module keeps the latest table built, its one
table cache: a check of the same problem object and an equal code takes
that table, so the code a construction returns, or that code read back
from its JSON, decodes with no further elimination.

Both constructions draw whole assignments and keep the first that
``verify`` passes, within ``max_attempts`` (at least 1) draws; the rate-1/3
one reads only the message sets of the type-2 sets, so it lists no
triangle.  ``code_to_json`` formats every entry with one ``%``-format.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import mul, sub
from typing import NamedTuple

from . import linalg
from .feasibility import RateThirdStatus, check_rate_half, check_rate_third
from .linalg import Vector
from .problem import Problem, _load_json, _shown_ids, _unknown_key
from .structure import Kind, alignment_sets, structure_report


DEFAULT_ATTEMPTS = 8  # whole assignments a construction draws before it gives up


class CodecError(ValueError):
    pass


class PreconditionError(CodecError):
    """The requested construction's feasibility precondition does not hold."""


class AttemptsExhausted(CodecError):
    """No draw passed verification within the attempt budget; a code may still exist."""


def _require_ints(values: Collection[object], what: str) -> None:
    """Refuse any value that is not exactly an ``int``, in one C-level pass:
    ``True`` and ``1.0`` equal valid values, and a float loses the
    precision of products past 2**53."""
    if not {int}.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) is not int)
        raise CodecError(f"{what} must be integers, got {bad!r}")


@lru_cache(maxsize=64)
def is_prime_modulus(p: int) -> bool:
    """``linalg.is_prime``, run once per modulus: nearly every code shares one,
    and so does the ``construct`` command's check of ``--prime``."""
    return linalg.is_prime(p)


@dataclass(frozen=True)
class ScalarLinearCode:
    length: int
    prime: int
    vectors: tuple[Vector, ...]  # vectors[i - 1] belongs to message i

    def __post_init__(self) -> None:
        entries = [*chain(*self.vectors)]
        _require_ints((self.length, self.prime, *entries), "code length, prime and vector entries")
        if self.length < 1:
            raise CodecError(f"code length must be >= 1, got {self.length}")
        if self.prime >= 2**64:  # before Miller-Rabin, which takes tens of seconds on thousands of digits
            raise CodecError(f"modulus {self.prime} does not fit in 64 bits")
        if not is_prime_modulus(self.prime):
            raise CodecError(f"modulus {self.prime} is not prime")
        # C-level passes over the lengths and the entries; the loop runs only
        # to name the first offending vector
        bad_entries = entries and (min(entries) < 0 or max(entries) >= self.prime)
        if bad_entries or {*map(len, self.vectors)} - {self.length}:
            for i, v in enumerate(self.vectors, start=1):
                if len(v) != self.length:
                    raise CodecError(f"vector for message {i} has length {len(v)} != {self.length}")
                if min(v) < 0 or max(v) >= self.prime:
                    raise CodecError(f"vector for message {i} has entries outside [0, {self.prime})")

    @classmethod
    def _known_valid(cls, length: int, prime: int, vectors: tuple[Vector, ...]) -> ScalarLinearCode:
        """The code of values that pass ``__post_init__`` by construction,
        built without running its checks: the oracle's witnesses, whose
        vectors come from its table of GF(prime)^length once ``check_caps``
        has passed the field, and the constructions' draws, whose entries
        ``linalg`` draws below ``prime`` once the construction has checked
        the field, before any other work.  The checks cost about 6% of an
        ``oracle`` op on the ``oracle-small`` inputs.  The instance holds
        what ``__init__`` leaves."""
        code = object.__new__(cls)
        code.__dict__.update(length=length, prime=prime, vectors=vectors)
        return code

    def vector(self, message: int) -> Vector:
        return self.vectors[message - 1]


class VerificationResult(NamedTuple):
    ok: bool
    violations: tuple[tuple[int, int], ...]  # (receiver j, message k)
    zero_vector_messages: tuple[int, ...]
    attempts_used: int = 0


SpanKey = tuple[int, frozenset[int]]  # (index of v_k, indexes of the vectors of Interf_k(j))


@dataclass(frozen=True)
class _SpanTable:
    """The span work of one (problem, code), with the ``Problem`` object and
    the code it was built for: every demand edge keyed by ``_span_keys``,
    and per distinct key an annihilator row r of its vector set with
    r . v_k != 0 and that dot, or None when v_k is in the span."""

    problem: Problem
    code: ScalarLinearCode
    edges: list[tuple[int, int, SpanKey]]
    rows: dict[SpanKey, tuple[Vector, int] | None]


def _span_keys(p: Problem, code: ScalarLinearCode) -> tuple[list[Vector], list[tuple[int, int, SpanKey]]]:
    """The distinct vectors of ``code`` and (j, k, key) for every receiver j
    and demand k, in receiver order with k ascending.

    Both the span test and the decoding functional of (j, k) depend only
    on its key, so each distinct key, and each distinct vector set in it,
    needs its span work once.
    """
    if len(code.vectors) != p.n:
        raise CodecError(f"code has {len(code.vectors)} vectors for {p.n} messages")
    index: dict[Vector, int] = {}
    ids = (-1, *[index.setdefault(v, len(index)) for v in code.vectors])  # ids[m] for message m
    get, full = ids.__getitem__, p.messages
    return list(index), [
        (j, k, (ids[k], frozenset(map(get, full.difference(r.side_info, (k,))))))
        for j, r in enumerate(p.receivers, start=1)
        for k in sorted(r.demands)
    ]


def _build_span_table(p: Problem, code: ScalarLinearCode) -> _SpanTable:
    """One annihilator per distinct vector set, one dot product per row
    tried for each distinct key, and no modular inverse."""
    distinct, edges = _span_keys(p, code)
    length, prime = code.length, code.prime
    annihilators: dict[frozenset[int], list[Vector]] = {}
    rows: dict[SpanKey, tuple[Vector, int] | None] = {}
    get = distinct.__getitem__
    for _, _, key in edges:
        if key in rows:
            continue
        target, vset = key
        basis = annihilators.get(vset)
        if basis is None:
            basis = annihilators[vset] = linalg.nullspace(list(map(get, vset)), length, prime)
        v = distinct[target]
        for r in basis:  # some annihilator row misses v_k iff v_k is outside the span
            dot = sum(map(mul, r, v)) % prime
            if dot:
                rows[key] = r, dot
                break
        else:
            rows[key] = None
    return _SpanTable(p, code, edges, rows)


# The latest table built: one entry, so a process holds at most one table
_last_table: _SpanTable | None = None


def _span_table(p: Problem, code: ScalarLinearCode) -> _SpanTable:
    """The table of (``p``, ``code``): the latest one built when it is for
    the same ``Problem`` object and an equal code, otherwise a new one,
    which replaces it.  The table depends only on ``p`` and the code's
    length, prime and vectors, so the code that ``verify`` reads back from
    ``code_to_json`` of a fresh construction takes the construction's
    table.  The codes are compared, never hashed; ``==`` on the vectors
    stops at the first unequal one.  A build that raises keeps nothing."""
    global _last_table
    table = _last_table  # one read: a build in another thread cannot split the entry
    if table is None or table.problem is not p or table.code != code:
        table = _last_table = _build_span_table(p, code)
    return table


def verify(p: Problem, code: ScalarLinearCode) -> VerificationResult:
    """Check the resolved-conflicts criterion for every receiver and demand.

    Reads the span table: (j, k) is a violation when its key has no
    annihilator row that misses v_k.  Violations come in receiver order
    with k ascending.
    """
    table = _span_table(p, code)
    rows = table.rows
    violations = tuple((j, k) for j, k, key in table.edges if rows[key] is None)
    zeros = tuple(i for i, v in enumerate(code.vectors, start=1) if not any(v))
    return VerificationResult(
        ok=not violations and not zeros,
        violations=violations,
        zero_vector_messages=zeros,
    )


def _first_verified(
    p: Problem, length: int, prime: int, draw: Callable[[], list[Vector]], max_attempts: int
) -> tuple[ScalarLinearCode, VerificationResult]:
    """Redraw the whole assignment with ``draw()`` until ``verify`` passes;
    the result records the attempt that passed.  A passing result has no
    violation and no zero vector, so it is built directly.  Every draw holds
    ``p.n`` vectors of ``length`` entries in [0, prime), and the caller has
    checked the field, so every drawn code is built without its checks."""
    if max_attempts < 1:
        raise CodecError(f"max_attempts must be >= 1, got {max_attempts}")
    for attempt in range(1, max_attempts + 1):
        code = ScalarLinearCode._known_valid(length, prime, tuple(draw()))
        if verify(p, code).ok:
            return code, VerificationResult(ok=True, violations=(), zero_vector_messages=(), attempts_used=attempt)
    raise AttemptsExhausted(
        f"no verified length-{length} code in {max_attempts} attempts over GF({prime}); "
        "a larger prime or more attempts may find one"
    )


def construct_rate_half(
    p: Problem,
    prime: int = linalg.DEFAULT_PRIME,
    rng: random.Random | None = None,
    max_attempts: int = DEFAULT_ATTEMPTS,
) -> tuple[ScalarLinearCode, VerificationResult]:
    """Length-2 code: one shared random vector per alignment set.

    Redraws the whole assignment until verification passes, at most
    ``max_attempts`` times, which must be at least 1.  Requires the
    problem to have no internal conflicts.  The field is checked first,
    before the precondition and any draw.
    """
    ScalarLinearCode(2, prime, ())
    verdict = check_rate_half(p)
    if not verdict.feasible:
        members = verdict.alignment_set
        raise PreconditionError(
            f"rate 1/2 infeasible: internal conflict {verdict.internal_conflict} "
            f"inside alignment set {_shown_ids(sorted(members), len(members))}"
        )
    rng = rng or random.Random(0)
    sets = alignment_sets(p)

    def draw() -> list[Vector]:
        vectors: list[Vector] = [()] * p.n
        for comp in sets:
            v = linalg.random_nonzero_vector(2, prime, rng)
            for m in comp:
                vectors[m - 1] = v
        return vectors

    return _first_verified(p, 2, prime, draw, max_attempts)


def construct_rate_third(
    p: Problem,
    prime: int = linalg.DEFAULT_PRIME,
    rng: random.Random | None = None,
    max_attempts: int = DEFAULT_ATTEMPTS,
) -> tuple[ScalarLinearCode, VerificationResult]:
    """Length-3 code assembled per alignment-set classification.

    Sets where no receiver sees three members at once get an independent
    random vector per message; conflict-free co-interfering triples share
    one vector; clean type-2 sets draw a fresh two-dimensional subspace
    and one vector inside it per restricted alignment set.  Redraws the
    whole assignment until verification passes, at most ``max_attempts``
    times, which must be at least 1.  The field is checked first, before
    the precondition and any draw.
    """
    ScalarLinearCode(3, prime, ())
    report = structure_report(p)
    verdict = check_rate_third(report)
    if verdict.status is not RateThirdStatus.FEASIBLE_MAIN:
        raise PreconditionError(
            f"rate 1/3 construction precondition unmet: analyzer verdict is "
            f"{verdict.status.value}"
        )
    rng = rng or random.Random(0)

    def draw() -> list[Vector]:
        vectors: list[Vector] = [()] * p.n
        for info in report.alignment_sets:
            if info.kind is Kind.KIND1:
                for m in info.members:
                    vectors[m - 1] = linalg.random_nonzero_vector(3, prime, rng)
            elif info.kind is Kind.KIND2:
                shared = linalg.random_nonzero_vector(3, prime, rng)
                for m in info.members:
                    vectors[m - 1] = shared
            else:  # TYPE2_CLEAN
                plane = linalg.random_subspace_basis(3, 2, prime, rng)
                for comp in report.restricted_sets[info.members]:
                    v = linalg.random_vector_in_span(plane, prime, rng)
                    for m in comp:
                        vectors[m - 1] = v
        return vectors

    return _first_verified(p, 3, prime, draw, max_attempts)


_UNVERIFIED = "decode_all called with a code that fails verification"


def encode(code: ScalarLinearCode, payload: list[int] | tuple[int, ...]) -> Vector:
    """Codeword sum(V_i * w_i) for one field symbol per message; every
    symbol must be exactly an ``int`` and is read mod p."""
    if len(payload) != len(code.vectors):
        raise CodecError(f"payload has {len(payload)} symbols for {len(code.vectors)} messages")
    _require_ints(payload, "payload symbols")
    if not code.vectors:  # the empty sum: zip would find no column
        return (0,) * code.length
    return tuple([sum(map(mul, column, payload)) % code.prime for column in zip(*code.vectors)])


def _residual(code: ScalarLinearCode, codeword: Sequence[int], symbols: list[int]) -> list[int]:
    """codeword - sum(symbols[i - 1] * v_i) mod p, one C-level sum per coordinate."""
    return [(c - sum(map(mul, column, symbols))) % code.prime for c, column in zip(codeword, zip(*code.vectors))]


def decode_all(
    p: Problem,
    code: ScalarLinearCode,
    codeword: Vector,
    side_symbols: list[dict[int, int]],
) -> list[dict[int, int]]:
    """Per-receiver decoding of every demanded symbol, from one shared residual.

    ``side_symbols[j - 1]`` maps each id in S(j) to its symbol; ids, symbols
    and codeword entries must be exactly ``int``s, and symbols are read mod p.
    Raises ``CodecError`` on every code that ``verify`` refuses (a zero
    vector, or a demand with no functional that decodes it), since
    uniqueness would be lost; on a codeword whose length is not the code
    length; on a receiver count other than ``p.t``; receiver by receiver,
    on side symbols whose keys are not S(j), then not all integers, then
    that are not integers; and last on a codeword entry that is not one.

    Receiver j decodes demand k as delta^-1 * (r . e_j) mod p, where
    e_j = c - sum(w_i * v_i over S(j)) is its own residual and r is the
    span table's row for (j, k), with delta = r . v_k != 0: r annihilates
    every vector on Interf_k(j), so when c encodes a payload x that agrees
    with the side symbols, that is x_k.  Let W map each message that some
    receiver holds to one of the symbols given for it, U be its keys, and
    d = c - sum(W_i * v_i over U).  Then

        e_j = d + sum(W_i * v_i over U - S(j)) - sum((w_i - W_i) * v_i over S(j)).

    Every i in U - S(j) other than k lies in Interf_k(j), which is every
    message outside S(j) but k, so r . v_i = 0; and r . v_k = delta.  Hence

        delta^-1 * (r . e_j) = delta^-1 * (r . d_j) + W_k * [k in U],
        d_j = d - sum((w_i - W_i) * v_i over S(j)),

    and d_j = d unless receiver j gives some symbol other than W's.  So
    one residual serves every receiver that agrees with W, and a demand
    edge costs one dot product.
    """
    table = _span_table(p, code)
    rows = table.rows
    if not all(map(any, code.vectors)) or not all(rows.values()):
        raise CodecError(_UNVERIFIED)
    if len(codeword) != code.length:
        raise CodecError(f"codeword has length {len(codeword)} for a length-{code.length} code")
    if len(side_symbols) != p.t:
        raise CodecError(f"need side symbols for {p.t} receivers, got {len(side_symbols)}")
    # 2.0 and True pass the key-set test: one C-level pass types every key and symbol
    exact = {int}.issuperset(map(type, chain(*side_symbols, *[known.values() for known in side_symbols])))
    shared: dict[int, int] = {}  # W, the last symbol given for each id; its keys are U
    for j, (r, known) in enumerate(zip(p.receivers, side_symbols), start=1):
        if known.keys() != r.side_info:
            raise CodecError(f"receiver {j}: side symbols must cover exactly S(j)")
        if not exact:
            _require_ints(known.keys(), f"receiver {j}: side-symbol keys")
            _require_ints(known.values(), f"receiver {j}: side symbols")
        shared.update(known)
    _require_ints(codeword, "codeword entries")
    ids = range(1, p.n + 1)
    held = [*map(shared.get, ids, repeat(0))]  # held[i - 1] = W_i * [i in U]
    residuals = [_residual(code, codeword, held)] * p.t
    for j, known in enumerate(side_symbols):
        if not known.items() <= shared.items():  # receiver j gives some symbol other than W's
            residuals[j] = _residual(code, residuals[j], [*map(sub, map(known.get, ids, held), held)])
    prime = code.prime
    out: list[dict[int, int]] = [{} for _ in side_symbols]
    for j, k, key in table.edges:
        row, dot = rows[key]
        out[j - 1][k] = (pow(dot, -1, prime) * sum(map(mul, row, residuals[j - 1])) + held[k - 1]) % prime
    return out


def code_to_json(code: ScalarLinearCode) -> str:
    """The bytes of ``json.dumps`` with ``indent=2`` on ``{"length": L,
    "prime": p, "vectors": [[...], ...]}``, formatted directly, since
    ``indent`` selects the pure-Python encoder.  Every vector has length
    L, so one template with a ``%d`` per entry formats them all at once."""
    row = "    [\n      " + ",\n      ".join(["%d"] * code.length) + "\n    ]"
    vectors = "[\n" + ",\n".join([row] * len(code.vectors)) + "\n  ]" if code.vectors else "[]"
    template = '{\n  "length": %d,\n  "prime": %d,\n  "vectors": ' + vectors + "\n}\n"
    return template % (code.length, code.prime, *chain.from_iterable(code.vectors))


_CODE_KEYS = frozenset({"length", "prime", "vectors"})


def code_from_json(text: str) -> ScalarLinearCode:
    data = _load_json(text, "code", CodecError)
    if not isinstance(data, dict) or not data.keys() >= _CODE_KEYS:
        raise CodecError("code file must be an object with 'length', 'prime' and 'vectors'")
    if not _CODE_KEYS.issuperset(data):
        key = _unknown_key(data, _CODE_KEYS)
        raise CodecError(f"code file: unknown key {key!r}; it holds only 'length', 'prime' and 'vectors'")
    vectors = data["vectors"]
    if type(vectors) is not list or not {list}.issuperset(map(type, vectors)):  # a string or object is iterable too
        raise CodecError("'vectors' must be a list of lists of integers")
    return ScalarLinearCode(length=data["length"], prime=data["prime"], vectors=tuple(map(tuple, vectors)))
