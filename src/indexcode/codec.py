"""Scalar linear index codes: construction, verification, encode/decode.

A code assigns one length-L vector over GF(p) to each message.  A code
is valid exactly when no demanded message's vector falls inside the span
of the vectors interfering at its receiver; that single criterion is what
``verify`` checks and what guarantees unique decoding.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import linalg
from .feasibility import RateThirdStatus, check_rate_half, check_rate_third
from .linalg import Vector
from .problem import Problem, interfering_set, restrict_problem
from .structure import (
    Kind,
    alignment_sets,
    restricted_alignment_sets,
    structure_report,
)


class CodecError(ValueError):
    pass


class PreconditionError(CodecError):
    """The requested construction's feasibility precondition does not hold."""


class AttemptsExhausted(CodecError):
    """Random redraws kept failing verification; the field is too small."""


@dataclass(frozen=True)
class ScalarLinearCode:
    length: int
    prime: int
    vectors: tuple[Vector, ...]  # vectors[i - 1] belongs to message i

    def __post_init__(self) -> None:
        if self.length < 1:
            raise CodecError(f"code length must be >= 1, got {self.length}")
        if self.prime >= 2**64:
            raise CodecError(f"modulus {self.prime} does not fit in 64 bits")
        if not linalg.is_prime(self.prime):
            raise CodecError(f"modulus {self.prime} is not prime")
        for i, v in enumerate(self.vectors, start=1):
            if len(v) != self.length:
                raise CodecError(f"vector for message {i} has length {len(v)} != {self.length}")
            if any(not 0 <= x < self.prime for x in v):
                raise CodecError(f"vector for message {i} has entries outside [0, {self.prime})")

    def vector(self, message: int) -> Vector:
        return self.vectors[message - 1]


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    violations: tuple[tuple[int, int], ...]  # (receiver j, message k)
    zero_vector_messages: tuple[int, ...]
    attempts_used: int = 0


def verify(p: Problem, code: ScalarLinearCode, attempts_used: int = 0) -> VerificationResult:
    """Check the resolved-conflicts criterion for every receiver and demand."""
    if len(code.vectors) != p.n:
        raise CodecError(f"code has {len(code.vectors)} vectors for {p.n} messages")
    zeros = tuple(i for i in range(1, p.n + 1) if not any(code.vector(i)))
    violations = []
    for j, r in enumerate(p.receivers, start=1):
        for k in sorted(r.demands):
            interferers = [code.vector(i) for i in interfering_set(p, j, k)]
            if not any(code.vector(k)) or linalg.in_span(code.vector(k), interferers, code.prime):
                violations.append((j, k))
    return VerificationResult(
        ok=not violations and not zeros,
        violations=tuple(violations),
        zero_vector_messages=zeros,
        attempts_used=attempts_used,
    )


def construct_rate_half(
    p: Problem,
    prime: int = linalg.DEFAULT_PRIME,
    rng: random.Random | None = None,
    max_attempts: int = 8,
) -> tuple[ScalarLinearCode, VerificationResult]:
    """Length-2 code: one shared random vector per alignment set.

    Redraws the whole assignment until verification passes.  Requires the
    problem to have no internal conflicts.
    """
    verdict = check_rate_half(p)
    if not verdict.feasible:
        raise PreconditionError(
            f"rate 1/2 infeasible: internal conflict {verdict.internal_conflict} "
            f"inside alignment set {sorted(verdict.alignment_set or [])}"
        )
    rng = rng or random.Random(0)
    sets = alignment_sets(p)
    for attempt in range(1, max_attempts + 1):
        vectors: list[Vector] = [()] * p.n
        for comp in sets:
            v = linalg.random_nonzero_vector(2, prime, rng)
            for m in comp:
                vectors[m - 1] = v
        code = ScalarLinearCode(length=2, prime=prime, vectors=tuple(vectors))
        result = verify(p, code, attempts_used=attempt)
        if result.ok:
            return code, result
    raise AttemptsExhausted(
        f"no verified length-2 code in {max_attempts} attempts over GF({prime}); "
        "the field is likely too small"
    )


def construct_rate_third(
    p: Problem,
    prime: int = linalg.DEFAULT_PRIME,
    rng: random.Random | None = None,
    max_attempts: int = 8,
) -> tuple[ScalarLinearCode, VerificationResult]:
    """Length-3 code assembled per alignment-set classification.

    Sets where no receiver sees three members at once get an independent
    random vector per message; conflict-free co-interfering triples share
    one vector; clean type-2 sets draw a fresh two-dimensional subspace
    and one vector inside it per restricted alignment set.
    """
    report = structure_report(p)
    verdict = check_rate_third(p, report)
    if verdict.status is not RateThirdStatus.FEASIBLE_MAIN:
        raise PreconditionError(
            f"rate 1/3 construction precondition unmet: analyzer verdict is "
            f"{verdict.status.value}"
        )
    rng = rng or random.Random(0)
    for attempt in range(1, max_attempts + 1):
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
                for comp in restricted_alignment_sets(p, info.members):
                    v = linalg.random_vector_in_span(plane, prime, rng)
                    for m in comp:
                        vectors[m - 1] = v
        code = ScalarLinearCode(length=3, prime=prime, vectors=tuple(vectors))
        result = verify(p, code, attempts_used=attempt)
        if result.ok:
            return code, result
    raise AttemptsExhausted(
        f"no verified length-3 code in {max_attempts} attempts over GF({prime}); "
        "the field is likely too small"
    )


def encode(code: ScalarLinearCode, payload: list[int] | tuple[int, ...]) -> Vector:
    """Codeword sum(V_i * w_i) for one field symbol per message."""
    if len(payload) != len(code.vectors):
        raise CodecError(f"payload has {len(payload)} symbols for {len(code.vectors)} messages")
    out = [0] * code.length
    for v, w in zip(code.vectors, payload):
        for idx in range(code.length):
            out[idx] = (out[idx] + v[idx] * w) % code.prime
    return tuple(out)


def decode_all(
    p: Problem,
    code: ScalarLinearCode,
    codeword: Vector,
    side_symbols: list[dict[int, int]],
) -> list[dict[int, int]]:
    """Per-receiver decoding of every demanded symbol.

    ``side_symbols[j - 1]`` maps each message in S(j) to its symbol.  The
    receiver subtracts the known side-information contribution, then
    recovers each demanded symbol through a functional that annihilates
    the interfering span.  Refuses to run on codes that do not verify,
    since uniqueness would be lost.
    """
    if not verify(p, code).ok:
        raise CodecError("decode_all called with a code that fails verification")
    if len(side_symbols) != p.t:
        raise CodecError(f"need side symbols for {p.t} receivers, got {len(side_symbols)}")
    prime = code.prime
    out: list[dict[int, int]] = []
    for j, r in enumerate(p.receivers, start=1):
        known = side_symbols[j - 1]
        if set(known) != set(r.side_info):
            raise CodecError(f"receiver {j}: side symbols must cover exactly S(j)")
        residual = list(codeword)
        for i, w in known.items():
            v = code.vector(i)
            for idx in range(code.length):
                residual[idx] = (residual[idx] - v[idx] * w) % prime
        decoded: dict[int, int] = {}
        for k in sorted(r.demands):
            blockers = [code.vector(i) for i in interfering_set(p, j, k)]
            target = code.vector(k)
            u = None
            for candidate in linalg.nullspace(blockers, code.length, prime):
                dot = sum(a * b for a, b in zip(candidate, target)) % prime
                if dot:
                    scale = pow(dot, -1, prime)
                    u = tuple((x * scale) % prime for x in candidate)
                    break
            if u is None:  # cannot happen on a verified code
                raise CodecError(f"receiver {j}: message {k} is not recoverable")
            decoded[k] = sum(a * b for a, b in zip(u, residual)) % prime
        out.append(decoded)
    return out


def project_type2_assignment(
    p: Problem, code: ScalarLinearCode, members: frozenset[int]
) -> tuple[Problem, dict[int, int], ScalarLinearCode]:
    """Collapse a two-dimensional length-3 assignment on ``members`` to length 2.

    Computes a basis of the span of the member vectors (which must be
    two-dimensional), builds the 2x3 map sending that basis to the unit
    vectors, and applies it.  Returns the restricted problem, the id
    mapping, and the projected length-2 code for it.
    """
    member_vectors = [code.vector(m) for m in sorted(members)]
    reduced, pivots = linalg.rref(member_vectors, code.prime)
    if len(pivots) != 2:
        raise CodecError(
            f"member vectors span {len(pivots)} dimensions, expected exactly 2"
        )
    basis = [tuple(row) for row in reduced]
    full = linalg.extend_to_basis(basis, code.length, code.prime)
    columns = [[full[c][r] for c in range(code.length)] for r in range(code.length)]
    projector = linalg.invert_matrix(columns, code.prime)[:2]
    restricted, mapping = restrict_problem(p, members)
    projected = [()] * restricted.n
    for old, new in mapping.items():
        projected[new - 1] = linalg.mat_vec(projector, code.vector(old), code.prime)
    l2 = ScalarLinearCode(length=2, prime=code.prime, vectors=tuple(projected))
    return restricted, mapping, l2


def code_to_json(code: ScalarLinearCode) -> str:
    data = {
        "length": code.length,
        "prime": code.prime,
        "vectors": [list(v) for v in code.vectors],
    }
    return json.dumps(data, indent=2) + "\n"


def code_from_json(text: str) -> ScalarLinearCode:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"malformed code file: {exc}") from exc
    try:
        length, prime = data["length"], data["prime"]
        vectors = tuple(tuple(row) for row in data["vectors"])
    except (KeyError, TypeError) as exc:
        raise CodecError(f"bad code file contents: {exc}") from exc
    bad = [x for x in (length, prime, *(x for v in vectors for x in v)) if type(x) is not int]
    if bad:
        raise CodecError(f"code length, prime and vector entries must be integers, got {bad[0]!r}")
    return ScalarLinearCode(length=length, prime=prime, vectors=vectors)
