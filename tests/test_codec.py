import hashlib
import json
import random
import re
from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import (
    _BLOCKS,
    build_from_specs,
    random_constructible_problem,
    random_unicast_problem,
    shared_hypergraph_pair,
)
from reference import project_plane
from indexcode import codec, linalg
from indexcode.codec import (
    AttemptsExhausted,
    CodecError,
    PreconditionError,
    ScalarLinearCode,
    code_from_json,
    code_to_json,
    construct_rate_half,
    construct_rate_third,
    decode_all,
    encode,
    verify,
)
from indexcode.fixtures import load_fixture
from indexcode.oracle import exists_code
from indexcode.problem import Problem, Receiver, interfering_set, parse_problem, random_problem
from indexcode.structure import type2_alignment_sets

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
EXPLICIT_PRIME = 1009


def explicit_assignment(prime=EXPLICIT_PRIME):
    # V1 -> W1, W3; V2 -> W4, W5; V3 -> W2, W6
    return ScalarLinearCode(length=3, prime=prime, vectors=(E1, E3, E1, E2, E2, E3))


def roundtrip(p, code, payload):
    cw = encode(code, payload)
    side = [{i: payload[i - 1] for i in r.side_info} for r in p.receivers]
    decoded = decode_all(p, code, cw, side)
    return all(
        decoded[j - 1][k] == payload[k - 1]
        for j, r in enumerate(p.receivers, 1)
        for k in r.demands
    )


def test_explicit_assignment_resolves_ex_feas():
    p = load_fixture("ex_feas")
    code = explicit_assignment()
    assert verify(p, code).ok
    for t2 in type2_alignment_sets(p):
        assert linalg.rank([code.vector(i) for i in t2.messages], code.prime) <= 2


def test_all_equal_vectors_fail_on_any_conflict():
    p = load_fixture("ex_feas")
    code = ScalarLinearCode(length=3, prime=5, vectors=tuple([E1] * 6))
    result = verify(p, code)
    assert not result.ok
    assert result.violations


def test_zero_vector_rejected():
    p = load_fixture("p5")
    vectors = (E1, E2, E3, (0, 0, 0), E1)
    result = verify(p, ScalarLinearCode(length=3, prime=5, vectors=vectors))
    assert not result.ok
    assert result.zero_vector_messages == (4,)


def test_ex_inf_independent_triple_always_violates():
    p = load_fixture("ex_inf")
    # any L=3 assignment with rank{V1,V2,V3} = 3 must violate somewhere
    rng = random.Random(17)
    for _ in range(20):
        while True:
            triple = [linalg.random_nonzero_vector(3, 1009, rng) for _ in range(3)]
            if linalg.rank(triple, 1009) == 3:
                break
        rest = [linalg.random_nonzero_vector(3, 1009, rng) for _ in range(3)]
        code = ScalarLinearCode(length=3, prime=1009, vectors=tuple(triple + rest))
        assert not verify(p, code).ok
    # and exhaustively: no length-3 code over GF(2) verifies at all
    found, _, _ = exists_code(p, 2, 3)
    assert not found


def test_construct_rate_half_three_cycle():
    p = parse_problem(
        '{"n": 3, "receivers": ['
        '{"demands": [1], "side_info": [2]},'
        '{"demands": [2], "side_info": [3]},'
        '{"demands": [3], "side_info": [1]}]}'
    )
    code, result = construct_rate_half(p, rng=random.Random(4))
    assert result.ok
    assert code.length == 2
    assert verify(p, code).ok


def test_construct_rate_half_conflict_free():
    p = random_problem(4, 1.0, seed=2)
    code, result = construct_rate_half(p, rng=random.Random(0))
    assert result.ok


def test_construct_rate_half_shares_vector_per_alignment_set():
    p = load_fixture("p5")  # alignment sets {1,2,3}, {4}, {5} but dirty? p5 is clean
    # p5 has an internal conflict ({1,2} within {1,2,3}) so rate 1/2 must refuse
    with pytest.raises(PreconditionError):
        construct_rate_half(p, rng=random.Random(0))


def test_construct_rate_half_pigeonhole_gf2():
    # four pairwise-conflicting singleton alignment sets; GF(2)^2 has only
    # three nonzero directions, so verification can never pass
    specs = []
    for a in range(1, 5):
        for b in range(1, 5):
            if a != b:
                specs.append((a, frozenset({b})))
    p = build_from_specs(4, specs)
    with pytest.raises(AttemptsExhausted):
        construct_rate_half(p, prime=2, rng=random.Random(0), max_attempts=16)
    found, _, _ = exists_code(p, 2, 2)
    assert not found


@pytest.mark.parametrize("attempts", [0, -2])
def test_construct_needs_one_attempt(attempts):
    # both problems are feasible at their rate, and no attempt at all says
    # nothing about the field
    cases = ((construct_rate_half, random_problem(8, 0.9, seed=0)), (construct_rate_third, load_fixture("p5")))
    for construct, p in cases:
        with pytest.raises(CodecError, match="max_attempts") as info:
            construct(p, rng=random.Random(0), max_attempts=attempts)
        assert not isinstance(info.value, AttemptsExhausted)


def test_construct_rate_third_p5():
    p = load_fixture("p5")
    code, result = construct_rate_third(p, rng=random.Random(7))
    assert result.ok
    assert result.attempts_used == 1
    # {1,2,3} lives in a two-dimensional space
    assert linalg.rank([code.vector(m) for m in (1, 2, 3)], code.prime) == 2
    # {4} and {5} are independent of it
    assert linalg.rank(list(code.vectors), code.prime) == 3


def test_construct_rate_third_kind2_shared_vector():
    p = parse_problem(
        '{"n": 4, "receivers": ['
        '{"demands": [1], "side_info": [2, 3, 4]},'
        '{"demands": [2], "side_info": [1, 3, 4]},'
        '{"demands": [3], "side_info": [1, 2, 4]},'
        '{"demands": [4], "side_info": []}]}'
    )
    code, result = construct_rate_third(p, rng=random.Random(5))
    assert result.ok
    assert code.vector(1) == code.vector(2) == code.vector(3)
    assert not linalg.in_span(code.vector(4), [code.vector(1)], code.prime)


def test_construct_rate_third_refuses_infeasible():
    with pytest.raises(PreconditionError):
        construct_rate_third(load_fixture("ex_inf"), rng=random.Random(0))


@pytest.mark.parametrize("prime", [4, 9])
@pytest.mark.parametrize("seed", range(6))
def test_construct_refuses_a_composite_prime(prime, seed):
    # the plane's independence test took a modular inverse per pivot, so
    # some seeds ended in a bare ValueError from pow before the prime check
    with pytest.raises(CodecError, match=f"^modulus {prime} is not prime$"):
        construct_rate_third(load_fixture("p5"), prime=prime, rng=random.Random(seed))


def _blocks(*picks):
    """The indexes ``picks`` into ``corpusgen._BLOCKS``, side by side, as the
    ``construct-verify`` benchmark workload builds its block problems."""
    specs, next_id = [], 1
    for i in picks:
        size, block = _BLOCKS[i]
        specs.extend(block(list(range(next_id, next_id + size))))
        next_id += size
    return build_from_specs(next_id - 1, specs)


# Each row: construction, problem, prime, seed, max_attempts, the attempt
# that passed, and the SHA-256 of code_to_json.  The block problems hold
# KIND1, KIND2 and type-2-clean sets; the small primes pin redraws, and
# with them the drawn planes' retries.  Recorded before the drawn codes
# skipped ScalarLinearCode's checks and the planes' independence test
# moved from rank to nullspace.
_PINNED_CONSTRUCTIONS = {
    "third-each-block": (
        construct_rate_third, lambda: _blocks(0, 1, 2, 3, 4), linalg.DEFAULT_PRIME, 0, 8, 1,
        "644913e7193885e0299bb7bba63a85dc84d37a0aac8795de22f44d241a8b8d78",
    ),
    "third-type2-n39": (
        construct_rate_third, lambda: _blocks(4, 3, 4, 1, 4, 3, 2, 4), linalg.DEFAULT_PRIME, 1, 8, 1,
        "5e13bc2aa31be31e2afad64e48241a3b8b77cf23bb085b33689d66e688acc9e9",
    ),
    "third-n42": (
        construct_rate_third, lambda: _blocks(0, 0, 4, 2, 2, 2, 0, 2, 4, 3, 3, 1), linalg.DEFAULT_PRIME, 12, 8, 1,
        "944062244d18e86b3bc1f47b8ca78b72e47efcc1fbbff6bf3e8bf44e8e7bd38d",
    ),
    "third-n58": (
        construct_rate_third, lambda: _blocks(2, 2, 1, 2, 0, 2, 2, 2, 4, 2, 1, 0, 3, 1, 1, 4),
        linalg.DEFAULT_PRIME, 16, 8, 1,
        "7d75fceeba65250d91e04ea6ac6bc482555a46a98956ee5e79714f03b99c9fab",
    ),
    "third-each-block-gf7": (
        construct_rate_third, lambda: _blocks(0, 1, 2, 3, 4), 7, 2, 8, 7,
        "b0d8e13c8246814f0a2dee677336ebdbe851c20ba9c01951f8b23b8eb0fe6eb8",
    ),
    "third-type2-n39-gf11": (
        construct_rate_third, lambda: _blocks(4, 3, 4, 1, 4, 3, 2, 4), 11, 2, 32, 20,
        "767e47034b61bcc5dac69f8512e55998deaede262a6e65844161b4e7b54c800b",
    ),
    "half-n16": (
        construct_rate_half, lambda: random_problem(16, 0.9, seed=5), linalg.DEFAULT_PRIME, 5, 8, 1,
        "231b8264b1f238fd899b39f874526e9100eb52aab305bfc55e003f9a11f1422b",
    ),
    "half-n32": (
        construct_rate_half, lambda: random_problem(32, 0.97, seed=1), linalg.DEFAULT_PRIME, 1, 8, 1,
        "bac7804bc8097a1962c66b302521717b5e56716c35eca7501ab8740d71ae64c6",
    ),
    "half-n64": (
        construct_rate_half, lambda: random_problem(64, 0.98, seed=4), linalg.DEFAULT_PRIME, 4, 8, 1,
        "aa1bcf47063dd36928bbc11dfbafa7a1e885f0938e9228d2a396623a2356104b",
    ),
    "half-n24-gf7": (
        construct_rate_half, lambda: random_problem(24, 0.95, seed=5), 7, 5, 16, 13,
        "4116d5d9ce0a072bc722e908ea0df9e81e12ad80c9281385f94e932b4603266f",
    ),
    "half-n64-gf11": (
        construct_rate_half, lambda: random_problem(64, 0.98, seed=4), 11, 4, 32, 21,
        "2a715008eb40ea5015499f351d903d3a03a18dcc4c1f5ae4648387dcc7d08c2f",
    ),
}


@pytest.mark.parametrize("case", _PINNED_CONSTRUCTIONS.values(), ids=_PINNED_CONSTRUCTIONS.keys())
def test_constructions_are_pinned(case):
    construct, problem, prime, seed, max_attempts, attempts, digest = case
    p = problem()
    code, result = construct(p, prime=prime, rng=random.Random(seed), max_attempts=max_attempts)
    assert result.attempts_used == attempts
    assert hashlib.sha256(code_to_json(code).encode()).hexdigest() == digest
    assert verify(p, code).ok


def test_construct_determinism():
    p = load_fixture("p5")
    c1, _ = construct_rate_third(p, rng=random.Random(123))
    c2, _ = construct_rate_third(p, rng=random.Random(123))
    assert c1 == c2


def test_encode_zero_payload():
    p = load_fixture("ex_feas")
    code = explicit_assignment()
    assert encode(code, [0] * 6) == (0, 0, 0)
    assert roundtrip(p, code, [0] * 6)
    assert encode(ScalarLinearCode(length=2, prime=3, vectors=()), ()) == (0, 0)  # the empty sum


def test_roundtrip_ex_feas_random_payloads():
    p = load_fixture("ex_feas")
    code = explicit_assignment()
    rng = random.Random(100)
    for _ in range(100):
        payload = [rng.randrange(EXPLICIT_PRIME) for _ in range(6)]
        assert roundtrip(p, code, payload)
        # symbols are read mod p, below 0 and from p up too
        assert encode(code, [w + EXPLICIT_PRIME * rng.randint(-3, 3) for w in payload]) == encode(code, payload)


def test_single_message_identity_channel():
    p = parse_problem('{"n": 1, "receivers": [{"demands": [1], "side_info": []}]}')
    code = ScalarLinearCode(length=1, prime=7, vectors=((1,),))
    for w in range(7):
        assert encode(code, [w]) == (w,)
        assert decode_all(p, code, (w,), [{}]) == [{1: w}]


def test_decode_refuses_unverified_code():
    p = load_fixture("ex_feas")
    bad = ScalarLinearCode(length=3, prime=5, vectors=tuple([E1] * 6))
    with pytest.raises(CodecError, match="fails verification"):
        decode_all(p, bad, (0, 0, 0), [{i: 0 for i in r.side_info} for r in p.receivers])


def test_decode_refuses_zero_vector_on_undemanded_message():
    # every demand is resolved; the only defect is message 3, demanded by
    # no receiver, carrying the zero vector
    p = parse_problem(
        '{"n": 3, "receivers": ['
        '{"demands": [1], "side_info": [3]},'
        '{"demands": [2], "side_info": [1]}]}',
        allow_undemanded=True,
    )
    code = ScalarLinearCode(length=2, prime=5, vectors=((1, 0), (0, 1), (0, 0)))
    result = verify(p, code)
    assert not result.violations and result.zero_vector_messages == (3,)
    with pytest.raises(CodecError, match="fails verification"):
        decode_all(p, code, (0, 0), [{3: 0}, {1: 0}])


def test_decode_checks_codeword_length():
    p = load_fixture("ex_feas")
    code = explicit_assignment()
    side = [{i: 0 for i in r.side_info} for r in p.receivers]
    for codeword in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(CodecError, match="codeword has length"):
            decode_all(p, code, codeword, side)


# Test-only references: the per-receiver loops that verify and decode_all
# ran before they read the span table.


def reference_verify(p, code):
    zeros = tuple(i for i in range(1, p.n + 1) if not any(code.vector(i)))
    violations = []
    for j, r in enumerate(p.receivers, start=1):
        for k in sorted(r.demands):
            interferers = [code.vector(i) for i in interfering_set(p, j, k)]
            if not any(code.vector(k)) or linalg.in_span(code.vector(k), interferers, code.prime):
                violations.append((j, k))
    return not violations and not zeros, tuple(violations), zeros


def reference_decode_all(p, code, codeword, side_symbols):
    assert reference_verify(p, code)[0]
    prime = code.prime
    out = []
    for j, r in enumerate(p.receivers, start=1):
        residual = list(codeword)
        for i, w in side_symbols[j - 1].items():
            v = code.vector(i)
            for idx in range(code.length):
                residual[idx] = (residual[idx] - v[idx] * w) % prime
        decoded = {}
        for k in sorted(r.demands):
            blockers = [code.vector(i) for i in interfering_set(p, j, k)]
            target = code.vector(k)
            for candidate in linalg.nullspace(blockers, code.length, prime):
                dot = sum(a * b for a, b in zip(candidate, target)) % prime
                if dot:
                    scale = pow(dot, -1, prime)
                    u = tuple((x * scale) % prime for x in candidate)
                    break
            decoded[k] = sum(a * b for a, b in zip(u, residual)) % prime
        out.append(decoded)
    return out


def random_groupcast_problem(rng):
    """Multi-demand receivers, some duplicated, some messages undemanded."""
    n = rng.randint(1, 8)
    receivers = []
    for _ in range(rng.randint(1, 8)):
        demands = frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        density = rng.choice((0.2, 0.5, 0.8))
        side = frozenset(m for m in range(1, n + 1) if m not in demands and rng.random() < density)
        receivers.append(Receiver(demands=demands, side_info=side))
    receivers += [rng.choice(receivers) for _ in range(rng.randint(0, 2))]
    rng.shuffle(receivers)
    return Problem(n=n, receivers=tuple(receivers))


def random_code(rng, n, length, prime):
    """Vectors from a small pool, so distinct hyperedges share vectors and
    violations are common; one code in five has a zero vector."""
    pool = [linalg.random_nonzero_vector(length, prime, rng) for _ in range(rng.randint(1, n + 1))]
    vectors = [rng.choice(pool) for _ in range(n)]
    if rng.random() < 0.2:
        vectors[rng.randrange(n)] = (0,) * length
    return ScalarLinearCode(length, prime, tuple(vectors))


def random_roundtrip_inputs(rng, p, code):
    payload = [rng.randrange(code.prime) for _ in range(p.n)]
    side = [{i: payload[i - 1] for i in r.side_info} for r in p.receivers]
    return encode(code, payload), side


def test_verify_matches_reference_on_random_codes():
    rng = random.Random(8)
    seen = set()
    for _ in range(1200):
        p = random_groupcast_problem(rng)
        code = random_code(rng, p.n, rng.randint(1, 3), rng.choice((2, 3, 5)))
        result = verify(p, code)
        ok, violations, zeros = reference_verify(p, code)
        assert (result.ok, result.violations, result.zero_vector_messages) == (ok, violations, zeros)
        copies = {(p.receivers[j - 1], k) for j, k in violations}
        seen.add((ok, bool(zeros), len(copies) < len(violations)))
        codeword, side = random_roundtrip_inputs(rng, p, code)
        if ok:
            assert decode_all(p, code, codeword, side) == reference_decode_all(p, code, codeword, side)
        else:
            with pytest.raises(CodecError, match="fails verification"):
                decode_all(p, code, codeword, side)
    # verifying codes, zero vectors, and violations at a duplicated receiver
    # reported once per copy all occurred
    assert {(True, False, False), (False, True, False), (False, False, True)} <= seen


def verifying_codes():
    for seed in range(30):
        p = random_constructible_problem(seed)
        for prime in (2, 3):
            try:
                code, _ = construct_rate_third(p, prime=prime, rng=random.Random(seed))
            except AttemptsExhausted:
                continue
            yield p, code
    for seed in range(30):
        p, twin = shared_hypergraph_pair(seed, max_n=6)
        for problem in (random_unicast_problem(seed), twin):
            for q in (2, 3):
                found, witness, _ = exists_code(problem, q, min(problem.n, 3))
                if found:
                    yield problem, witness


def test_decode_all_matches_reference_on_verifying_codes():
    rng = random.Random(9)
    count = 0
    for p, code in verifying_codes():
        assert verify(p, code).ok
        for _ in range(3):
            codeword, side = random_roundtrip_inputs(rng, p, code)
            assert decode_all(p, code, codeword, side) == reference_decode_all(p, code, codeword, side)
        count += 1
    assert count >= 100


def beyond_one_payload_codes(rng):
    """Verifying codes on problems with multi-demand and duplicated
    receivers and messages no receiver holds, and n = 64 codes at the
    default prime."""
    yield from islice(verifying_codes(), 60)
    found = 0
    while found < 150:
        p = random_groupcast_problem(rng)
        code = random_code(rng, p.n, rng.randint(1, 3), rng.choice((2, 3, 5, 7)))
        if reference_verify(p, code)[0]:
            found += 1
            yield p, code
    for seed in (4, 47, 50, 98):  # the rate-1/2 feasible ones below 100
        p = random_problem(64, 0.98, seed=seed)
        p = Problem(p.n, p.receivers + p.receivers[:3])  # and three duplicated receivers
        yield p, construct_rate_half(p, rng=rng)[0]


def test_decode_all_beyond_one_payload():
    # every other roundtrip takes all side symbols from one payload, so no
    # two receivers ever disagree on a symbol; here each receiver draws some
    # of its own, the codeword encodes no payload at all, and every symbol
    # ranges over [-2p, 3p)
    rng = random.Random(30)
    seen = set()
    for p, code in beyond_one_payload_codes(rng):
        prime = code.prime
        assert verify(p, code).ok
        for _ in range(3):
            codeword = tuple(rng.randrange(-2 * prime, 3 * prime) for _ in range(code.length))
            base = [rng.randrange(-2 * prime, 3 * prime) for _ in range(p.n)]
            side = [
                {i: base[i - 1] + prime * rng.randint(-2, 2) if rng.random() < 0.6 else rng.randrange(-2 * prime, 3 * prime)
                 for i in r.side_info}
                for r in p.receivers
            ]
            assert decode_all(p, code, codeword, side) == reference_decode_all(p, code, codeword, side)
            symbols = [w for known in side for w in known.values()]
            held = {(i, w % prime) for known in side for i, w in known.items()}
            rank = linalg.rank(list(code.vectors), prime)
            seen |= {
                ("disagree", len(held) > len({i for i, _ in held})),
                ("below 0", min(symbols, default=0) < 0),
                ("at or above p", max(symbols, default=0) >= prime),
                ("no payload", linalg.rank([*code.vectors, tuple(c % prime for c in codeword)], prime) > rank),
                ("held by none", bool(p.messages - set().union(*(r.side_info for r in p.receivers)))),
                ("several demands", max(len(r.demands) for r in p.receivers) > 1),
                ("duplicated", len(set(p.receivers)) < p.t),
                ("n = 64", p.n == 64 and prime == linalg.DEFAULT_PRIME),
            }
    assert {(name, True) for name, _ in seen} <= seen


def test_codec_refuses_non_integer_symbols():
    # True and 1.0 equal valid symbols, but read as numbers a float codeword
    # decodes to wrong floats: receiver 1 would get {4: 2147483242.0}
    p = load_fixture("p5")
    code, _ = construct_rate_third(p, rng=random.Random(1))
    payload = [1, 2, 3, 4, 5]
    codeword = encode(code, payload)
    side = [{i: payload[i - 1] for i in r.side_info} for r in p.receivers]
    assert decode_all(p, code, codeword, side)[0] == {4: 4}
    for bad in (1.0, True, "1", None):
        with pytest.raises(CodecError, match=f"^payload symbols must be integers, got {re.escape(repr(bad))}$"):
            encode(code, [*payload[:4], bad])
        with pytest.raises(CodecError, match=f"^codeword entries must be integers, got {re.escape(repr(bad))}$"):
            decode_all(p, code, (*codeword[:2], bad), side)
        for j in range(1, p.t + 1):
            wrong = [dict(known) for known in side]
            wrong[j - 1][max(wrong[j - 1])] = bad
            with pytest.raises(CodecError, match=f"^receiver {j}: side symbols must be integers, got {re.escape(repr(bad))}$"):
                decode_all(p, code, codeword, wrong)
    with pytest.raises(CodecError, match="^codeword entries must be integers, got 1828416546.0$"):
        decode_all(p, code, tuple(map(float, codeword)), side)


def error_precedence_cases():
    """Inputs with one or more faults, by name; each gives a thunk."""
    p = load_fixture("ex_feas")
    code = explicit_assignment()
    payload = [5, 6, 7, 8, 9, 10]
    cw = encode(code, payload)
    fcw = tuple(map(float, cw))

    def side(count=6, **faults):
        out = [{i: payload[i - 1] for i in r.side_info} for r in p.receivers]
        for name, fault in faults.items():
            known = out[int(name[1:]) - 1]
            if fault == "drop":
                del known[min(known)]
            elif fault == "extra":
                known[min(p.receivers[int(name[1:]) - 1].demands)] = 0
            elif fault == "float-key":  # 2.0 for the largest id, which equals it
                m = max(known)
                known[float(m)] = known.pop(m)
            elif fault == "true-key":  # True for id 1, which equals it
                known[True] = known.pop(1)
            else:
                known[min(known)] = fault
        return out[:count]

    zero = ScalarLinearCode(3, EXPLICIT_PRIME, (E1, E3, E1, E2, E2, (0, 0, 0)))
    unverified = ScalarLinearCode(3, EXPLICIT_PRIME, (E1,) * 6)
    short = ScalarLinearCode(3, EXPLICIT_PRIME, (E1, E3, E1, E2, E2))

    def dec(c=code, w=cw, s=None):
        return lambda: decode_all(p, c, w, side() if s is None else s)

    cases = {}
    for j in range(1, 7):
        cases[f"drop-key-r{j}"] = dec(s=side(**{f"r{j}": "drop"}))
        cases[f"extra-key-r{j}"] = dec(s=side(**{f"r{j}": "extra"}))
    return cases | {
        "codeword-length": dec(w=cw[:2]),
        "receiver-count": dec(s=side(5)),
        "vector-count": dec(c=short),
        "zero-vector": dec(c=zero),
        "unverified": dec(c=unverified),
        "str-r1-drop-key-r2": dec(s=side(r1="a", r2="drop")),
        "drop-key-r1-str-r2": dec(s=side(r1="drop", r2="a")),
        "float-r1-drop-key-r2": dec(s=side(r1=5.0, r2="drop")),
        "true-r1-drop-key-r2": dec(s=side(r1=True, r2="drop")),
        "float-r3": dec(s=side(r3=2.0)),
        "str-r3": dec(s=side(r3="2")),
        "true-r3": dec(s=side(r3=True)),
        "none-r3": dec(s=side(r3=None)),
        "float-key-r6": dec(s=side(r6="float-key")),
        "true-key-r6": dec(s=side(r6="true-key")),
        "float-key-r6-drop-key-r2": dec(s=side(r2="drop", r6="float-key")),
        "true-key-r3-str-r5": dec(s=side(r3="true-key", r5="a")),
        "float-codeword-true-key-r6": dec(w=fcw, s=side(r6="true-key")),
        "float-codeword": dec(w=fcw),
        "str-codeword": dec(w=(*cw[:2], "1")),
        "float-codeword-length": dec(w=fcw[:2]),
        "float-codeword-receiver-count": dec(w=fcw, s=side(5)),
        "float-codeword-drop-key-r3": dec(w=fcw, s=side(r3="drop")),
        "float-codeword-str-r2": dec(w=fcw, s=side(r2="a")),
        "unverified-float-codeword-str-r1": dec(c=unverified, w=fcw, s=side(r1="a")),
        "zero-vector-true-r1": dec(c=zero, s=side(r1=True)),
        "codeword-length-str-r1": dec(w=cw[:2], s=side(r1="a")),
        "receiver-count-str-r1": dec(s=side(5, r1="a")),
        "vector-count-float-codeword": dec(c=short, w=fcw),
        "encode-length": lambda: encode(code, payload[:5]),
        "encode-length-float": lambda: encode(code, [1.0] * 5),
        "encode-float": lambda: encode(code, [*payload[:5], 10.0]),
        "encode-str": lambda: encode(code, [*payload[:5], "a"]),
        "encode-true": lambda: encode(code, [True, *payload[1:]]),
        "encode-none": lambda: encode(code, [*payload[:5], None]),
    }


_SIDE_KEYS = "receiver {}: side symbols must cover exactly S(j)"
_UNVERIFIED = "decode_all called with a code that fails verification"
# The text of the CodecError each input raises: the code first, then the
# codeword length and the receiver count, then receiver by receiver its
# keys, its keys' types and its symbols' types, and the codeword's types last.
ERROR_PRECEDENCE = {
    **{f"{fault}-key-r{j}": _SIDE_KEYS.format(j) for j in range(1, 7) for fault in ("drop", "extra")},
    "codeword-length": "codeword has length 2 for a length-3 code",
    "receiver-count": "need side symbols for 6 receivers, got 5",
    "vector-count": "code has 5 vectors for 6 messages",
    "zero-vector": _UNVERIFIED,
    "unverified": _UNVERIFIED,
    "str-r1-drop-key-r2": "receiver 1: side symbols must be integers, got 'a'",
    "drop-key-r1-str-r2": _SIDE_KEYS.format(1),
    "float-r1-drop-key-r2": "receiver 1: side symbols must be integers, got 5.0",
    "true-r1-drop-key-r2": "receiver 1: side symbols must be integers, got True",
    "float-r3": "receiver 3: side symbols must be integers, got 2.0",
    "str-r3": "receiver 3: side symbols must be integers, got '2'",
    "true-r3": "receiver 3: side symbols must be integers, got True",
    "none-r3": "receiver 3: side symbols must be integers, got None",
    "float-key-r6": "receiver 6: side-symbol keys must be integers, got 2.0",
    "true-key-r6": "receiver 6: side-symbol keys must be integers, got True",
    "float-key-r6-drop-key-r2": _SIDE_KEYS.format(2),
    "true-key-r3-str-r5": "receiver 3: side-symbol keys must be integers, got True",
    "float-codeword-true-key-r6": "receiver 6: side-symbol keys must be integers, got True",
    "float-codeword": "codeword entries must be integers, got 12.0",
    "str-codeword": "codeword entries must be integers, got '1'",
    "float-codeword-length": "codeword has length 2 for a length-3 code",
    "float-codeword-receiver-count": "need side symbols for 6 receivers, got 5",
    "float-codeword-drop-key-r3": _SIDE_KEYS.format(3),
    "float-codeword-str-r2": "receiver 2: side symbols must be integers, got 'a'",
    "unverified-float-codeword-str-r1": _UNVERIFIED,
    "zero-vector-true-r1": _UNVERIFIED,
    "codeword-length-str-r1": "codeword has length 2 for a length-3 code",
    "receiver-count-str-r1": "need side symbols for 6 receivers, got 5",
    "vector-count-float-codeword": "code has 5 vectors for 6 messages",
    "encode-length": "payload has 5 symbols for 6 messages",
    "encode-length-float": "payload has 5 symbols for 6 messages",
    "encode-float": "payload symbols must be integers, got 10.0",
    "encode-str": "payload symbols must be integers, got 'a'",
    "encode-true": "payload symbols must be integers, got True",
    "encode-none": "payload symbols must be integers, got None",
}


def test_codec_error_precedence():
    cases = error_precedence_cases()
    assert cases.keys() == ERROR_PRECEDENCE.keys()
    for name, call in cases.items():
        with pytest.raises(CodecError) as raised:
            call()
        assert type(raised.value) is CodecError and str(raised.value) == ERROR_PRECEDENCE[name], name


def test_roundtrip_on_unverified_code_would_be_ambiguous():
    # a conflicting pair sharing one vector: the residual system for the
    # demanded message has no unique solution
    p = parse_problem(
        '{"n": 2, "receivers": ['
        '{"demands": [1], "side_info": []},'
        '{"demands": [2], "side_info": [1]}]}'
    )
    code = ScalarLinearCode(length=2, prime=3, vectors=((1, 0), (1, 0)))
    result = verify(p, code)
    assert not result.ok
    # two payloads with identical codeword and identical receiver-1 knowledge
    assert encode(code, [1, 2]) == encode(code, [2, 1])


def test_projection_of_type2_plane():
    p = load_fixture("p5")
    code, _ = construct_rate_third(p, rng=random.Random(21))
    restricted, mapping, l2 = project_plane(p, code, frozenset({1, 2, 3}))
    assert l2.length == 2
    assert verify(restricted, l2).ok
    # recorded from the library's projection, when it still inverted an
    # extended basis: the RREF pivots of this plane are columns 0 and 1
    assert mapping == {1: 1, 2: 2, 3: 3}
    assert l2.vectors == ((75608415, 595555498), (1783476025, 1963179646), (1607641852, 932507960))


@pytest.mark.parametrize(
    "vectors, rank",
    [
        (((1, 2, 0), (2, 4, 0), (3, 6, 0), (0, 0, 1), (1, 0, 0)), 1),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 0, 0)), 3),
    ],
)
def test_projection_rejects_members_not_spanning_a_plane(vectors, rank):
    # criterion 9 collapses only planes: a line or the whole space must not
    # come back as a length-2 code
    p = load_fixture("p5")
    code = ScalarLinearCode(length=3, prime=7, vectors=vectors)
    with pytest.raises(AssertionError, match=f"member vectors span {rank} dimensions"):
        project_plane(p, code, frozenset({1, 2, 3}))


PRIMES = (2, 3, 5, linalg.DEFAULT_PRIME)


@st.composite
def codes_on_problems(draw):
    """A small groupcast problem and a code over GF(p) whose vectors come
    from a pool, so messages share vectors; one code in five has a zero
    vector.  Codeword entries and side symbols are any integers congruent
    to the true ones: negative, in [0, p) or at least p."""
    n = draw(st.integers(1, 7))
    ids = st.integers(1, n)
    few_interferers = draw(st.booleans())  # then most codes verify
    receivers = []
    for _ in range(draw(st.integers(1, 6))):
        demands = draw(st.frozensets(ids, min_size=1, max_size=3))
        if few_interferers:
            side = frozenset(range(1, n + 1)) - draw(st.frozensets(ids, max_size=2))
        else:
            side = draw(st.frozensets(ids))
        receivers.append(Receiver(demands, side - demands))
    p = Problem(n, tuple(receivers))
    prime, length = draw(st.sampled_from(PRIMES)), draw(st.integers(1, 3))
    # values near p make the products of the side-information sum near p**2
    entry = st.one_of(st.integers(0, prime - 1), st.integers(max(0, prime - 3), prime - 1))
    pool = draw(st.lists(st.tuples(*[entry] * length).filter(any), min_size=1, max_size=n + 1))
    vectors = [draw(st.sampled_from(pool)) for _ in range(n)]
    if draw(st.integers(0, 4)) == 0:
        vectors[draw(st.integers(0, n - 1))] = (0,) * length
    code = ScalarLinearCode(length, prime, tuple(vectors))
    payload = draw(st.lists(entry, min_size=n, max_size=n))
    wrap = st.sampled_from((-3, -1, 0, 1, 3))
    codeword = tuple(x + prime * draw(wrap) for x in encode(code, payload))
    side = [{i: payload[i - 1] + prime * draw(wrap) for i in sorted(r.side_info)} for r in p.receivers]
    return p, code, payload, codeword, side


def in_span_reference(p, code):
    """Violations and zero-vector messages, one ``linalg.in_span`` per (j, k)."""
    zeros = tuple(i for i, v in enumerate(code.vectors, start=1) if not any(v))
    violations = tuple(
        (j, k)
        for j, r in enumerate(p.receivers, start=1)
        for k in sorted(r.demands)
        if linalg.in_span(code.vector(k), [code.vector(i) for i in p.messages - r.side_info - {k}], code.prime)
    )
    return violations, zeros


@given(codes_on_problems())
@settings(max_examples=250, deadline=None)
def test_codec_matches_in_span_reference(case):
    p, code, payload, codeword, side = case
    violations, zeros = in_span_reference(p, code)
    result = verify(p, code)
    assert (result.ok, result.violations, result.zero_vector_messages) == (
        not violations and not zeros, violations, zeros
    )
    if result.ok:
        # a verified code decodes every demanded symbol uniquely
        assert decode_all(p, code, codeword, side) == [{k: payload[k - 1] for k in r.demands} for r in p.receivers]
    else:
        with pytest.raises(CodecError, match="fails verification"):
            decode_all(p, code, codeword, side)


def test_decode_all_side_sums_at_their_largest():
    # every entry and symbol at p - 1, side symbols given as 3p - 1: the
    # shared residual's side-information sum reaches about 3 * n * p**2 in
    # every coordinate, past 64 bits, before its one reduction mod p
    prime, n = linalg.DEFAULT_PRIME, 64
    p = Problem(n, tuple(Receiver(frozenset({j}), frozenset(range(1, n + 1)) - {j}) for j in range(1, n + 1)))
    code = ScalarLinearCode(3, prime, ((prime - 1,) * 3,) * n)
    side = [{i: 3 * prime - 1 for i in r.side_info} for r in p.receivers]
    decoded = decode_all(p, code, encode(code, [prime - 1] * n), side)
    assert decoded == [{j: prime - 1} for j in range(1, n + 1)]


def test_decode_all_negative_side_symbols():
    # symbols congruent to the payload but negative, some below -p, enter
    # the side-information sum unreduced; only the residual is reduced mod p
    p = load_fixture("ex_feas")
    code = explicit_assignment()
    payload = [EXPLICIT_PRIME - 1, 0, 1, 500, EXPLICIT_PRIME - 2, 7]
    side = [{i: payload[i - 1] - EXPLICIT_PRIME * (1 + i % 3) for i in r.side_info} for r in p.receivers]
    assert any(w < -EXPLICIT_PRIME for known in side for w in known.values())
    decoded = decode_all(p, code, encode(code, payload), side)
    assert decoded == [{k: payload[k - 1] for k in r.demands} for r in p.receivers]
    assert decoded == reference_decode_all(p, code, encode(code, payload), side)


@given(
    st.sampled_from(PRIMES).flatmap(
        lambda prime: st.integers(1, 4).flatmap(
            lambda length: st.lists(st.tuples(*[st.integers(0, prime - 1)] * length), max_size=6).map(
                lambda vectors: ScalarLinearCode(length, prime, tuple(vectors))
            )
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_code_to_json_writes_the_bytes_of_json_dumps(code):
    data = {"length": code.length, "prime": code.prime, "vectors": [list(v) for v in code.vectors]}
    assert code_to_json(code) == json.dumps(data, indent=2) + "\n"


def test_code_rejects_non_integer_entries():
    # True and 1.0 equal valid entries; accepted, code_to_json wrote them
    # as something code_from_json rejects
    for length, prime, vectors in ((1, 5, ((True,),)), (1, 5, ((1.0,),)), (True, 5, ((1,),)), (1, 5.0, ((1,),))):
        with pytest.raises(CodecError, match="integer"):
            ScalarLinearCode(length, prime, vectors)


def test_code_names_its_first_bad_vector():
    # the lengths and entries are checked in bulk first, so with two bad
    # vectors the error must still name the first one in message order
    for vectors, text in (
        (((1, 0), (1,), (5, 0)), "vector for message 2 has length 1 != 2"),
        (((1, 0), (0, 5), (1,)), r"vector for message 2 has entries outside \[0, 5\)"),
        (((1, 0), (0, -1), (7, 0)), r"vector for message 2 has entries outside \[0, 5\)"),
        (((1, 0, 0), (1, 0), (1, 0)), "vector for message 1 has length 3 != 2"),
    ):
        with pytest.raises(CodecError, match=f"^{text}$"):
            ScalarLinearCode(2, 5, vectors)
    assert ScalarLinearCode(2, 5, ((0, 4), (4, 0))).vectors == ((0, 4), (4, 0))
    assert ScalarLinearCode(2, 5, ()).vectors == ()


def test_code_json_roundtrip():
    p = load_fixture("p5")
    code, _ = construct_rate_third(p, rng=random.Random(9))
    assert code_from_json(code_to_json(code)) == code
    # values that only coerce to integers are rejected, not converted
    for data in (
        {"length": 1.0, "prime": 5, "vectors": [[1]]},
        {"length": 1, "prime": "5", "vectors": [[1]]},
        {"length": 1, "prime": 5, "vectors": [[True]]},
        {"length": 1, "prime": 5, "vectors": [[1.5]]},
        {"length": 1, "prime": 5, "vectors": ["1"]},
    ):
        with pytest.raises(CodecError, match="integer"):
            code_from_json(json.dumps(data))
    # arithmetic assumes word-size moduli
    with pytest.raises(CodecError, match="64 bits"):
        code_from_json(json.dumps({"length": 1, "prime": 2**89 - 1, "vectors": [[1]]}))


def span_table_problems():
    """Three problems on the six messages of ``explicit_assignment``: one it
    resolves, one with no interference at all, and one it violates."""
    unit = Problem(6, tuple(Receiver(frozenset({j}), frozenset(range(1, 7)) - {j}) for j in range(1, 7)))
    blind = parse_problem(
        '{"n": 6, "receivers": [{"demands": [1], "side_info": []}, {"demands": [2, 3, 4, 5, 6], "side_info": []}]}'
    )
    return load_fixture("ex_feas"), unit, blind


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_span_table_follows_the_problem(order):
    # one code checked against problems that differ, in every order and
    # back to the first: each answer is that problem's reference answer
    problems = span_table_problems()
    code = explicit_assignment()
    rng = random.Random(sum(order))
    for i in (*order, order[0]):
        p = problems[i]
        codeword, side = random_roundtrip_inputs(rng, p, code)
        for _ in range(2):  # decode, verify, and both once more
            ok, violations, zeros = reference_verify(p, code)
            if ok:
                assert decode_all(p, code, codeword, side) == reference_decode_all(p, code, codeword, side)
            else:
                with pytest.raises(CodecError, match="fails verification"):
                    decode_all(p, code, codeword, side)
            result = verify(p, code)
            assert (result.ok, result.violations, result.zero_vector_messages) == (ok, violations, zeros)
    assert [reference_verify(p, code)[0] for p in problems] == [True, True, False]


def test_parsed_code_decodes_like_the_verified_original():
    rng = random.Random(3)
    for p, code in islice(verifying_codes(), 40):
        assert verify(p, code).ok
        parsed = code_from_json(code_to_json(code))
        assert parsed == code and parsed._span is None
        codeword, side = random_roundtrip_inputs(rng, p, code)
        assert decode_all(p, parsed, codeword, side) == decode_all(p, code, codeword, side)


def test_one_span_table_per_problem_and_code(monkeypatch):
    builds = []
    build = codec._build_span_table

    def counted(p, code):
        builds.append(code)
        return build(p, code)

    monkeypatch.setattr(codec, "_build_span_table", counted)
    p = load_fixture("p5")
    code, result = construct_rate_third(p, prime=3, rng=random.Random(0))
    assert result.attempts_used == len(builds) == 7  # one table per drawn code
    rng = random.Random(5)
    for _ in range(3):
        codeword, side = random_roundtrip_inputs(rng, p, code)
        assert decode_all(p, code, codeword, side) == reference_decode_all(p, code, codeword, side)
    assert len(builds) == 7

    def no_inverse(base, exp, mod=None):
        assert exp >= 0, "verify computed a modular inverse"
        return pow(base, exp, mod)

    # verify of a parsed copy, as the CLI runs it, builds its own table
    # with no modular inverse, and the copy then decodes from that table
    parsed = code_from_json(code_to_json(code))
    with monkeypatch.context() as m:
        m.setattr(codec, "pow", no_inverse, raising=False)
        m.setattr(linalg, "pow", no_inverse, raising=False)
        assert verify(p, parsed).ok
    assert len(builds) == 8 and builds[-1] is parsed
    codeword, side = random_roundtrip_inputs(rng, p, code)
    assert decode_all(p, parsed, codeword, side) == decode_all(p, code, codeword, side)
    assert len(builds) == 8
