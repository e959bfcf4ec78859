import inspect
import json
import re
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import indexcode.problem as problem_module
from corpusgen import hyperedges
from indexcode.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from indexcode.problem import (
    Problem,
    ProblemError,
    Receiver,
    _iter_bits,
    check_groupcast_complete,
    conflicts,
    interfering_set,
    parse_problem,
    problem_to_json,
    random_problem,
    restrict_problem,
    restriction_members,
)
from indexcode.structure import restricted_internal_conflicts
from test_cli import _mutated_file


def test_smallest_instance():
    p = parse_problem('{"n": 1, "receivers": [{"demands": [1], "side_info": []}]}')
    assert p.n == 1
    assert interfering_set(p, 1, 1) == frozenset()


def test_problem_rejects_a_fractional_message_id():
    # 1.5 lies between 1 and n, so only the type test rejects it; accepted,
    # it ends analyze in a TypeError from the bitmask view
    receivers = (Receiver(frozenset({1.5}), frozenset()), Receiver(frozenset({1, 2, 3}), frozenset()))
    with pytest.raises(ProblemError, match=r"^receiver 1: message id 1\.5 is not an integer$"):
        Problem(3, receivers)
    with pytest.raises(ProblemError, match="receiver 2: message id 0 out of range"):
        Problem(3, (receivers[1], Receiver(frozenset({1}), frozenset({0, 2}))))


def test_problem_rejects_whole_valued_non_integer_ids():
    # 2.0 == 2, so the range test passes it; accepted, it ends analyze in
    # a TypeError from the bitmask view
    other = Receiver(frozenset({1, 3}), frozenset())
    with pytest.raises(ProblemError, match=r"receiver 1: message id 2\.0 is not an integer"):
        Problem(3, (Receiver(frozenset({2.0}), frozenset()), other))
    with pytest.raises(ProblemError, match=r"receiver 2: message id Fraction\(3, 1\) is not an integer"):
        Problem(3, (other, Receiver(frozenset({2}), frozenset({Fraction(3)}))))


def test_problem_rejects_true_as_message_id():
    # True == 1 passes the range test; accepted, problem_to_json wrote
    # "true", which parse_problem rejects
    with pytest.raises(ProblemError, match="receiver 1: message id True is not an integer"):
        Problem(2, (Receiver(frozenset({True}), frozenset()), Receiver(frozenset({2}), frozenset())))
    with pytest.raises(ProblemError, match="receiver 2: message id True is not an integer"):
        Problem(2, (Receiver(frozenset({2}), frozenset()), Receiver(frozenset({2}), frozenset({True}))))
    with pytest.raises(ProblemError, match="n must be an integer"):
        Problem(True, (Receiver(frozenset({1}), frozenset()),))


def test_ids_past_the_listed_count_are_checked_without_the_message_set():
    # n exceeds the ids the receivers list; Problem checks the range on the
    # distinct listed ids without building ``messages``
    n = 10**6
    p = Problem(n, (Receiver(frozenset({1}), frozenset({n})),))
    assert "messages" not in p.__dict__
    for bad, text in (
        (0, r"message id 0 out of range \[1\.\.1000000\]"),
        (n + 1, rf"message id {n + 1} out of range \[1\.\.1000000\]"),
        (1.5, r"message id 1\.5 is not an integer"),
        ("2", "message id '2' is not an integer"),
        (2.0, r"message id 2\.0 is not an integer"),
        (True, "message id True is not an integer"),
    ):
        with pytest.raises(ProblemError, match=f"^receiver 1: {text}$"):
            Problem(n, (Receiver(frozenset({bad}), frozenset()),))


def test_parse_rejects_malformed_json():
    # the rest of the line is Python's own decoder message, so only its start is pinned
    with pytest.raises(ProblemError, match="^malformed problem file: "):
        parse_problem("{not json")


def test_parse_rejects_a_non_integer_next_to_an_equal_integer():
    # a set keeps the first of equal values, so [1, true] was parsed as
    # {1} and [2, 2.0] as {2}, while [2.0, 2] was rejected
    for demands, side_info, bad in (
        ("[1, true]", "[2]", "True"),
        ("[1]", "[2, 2.0]", r"2\.0"),
        ("[1]", "[2.0, 2]", r"2\.0"),
        ("[1, 1.0, 1]", "[]", r"1\.0"),
        ('[1, "a"]', '[1, "a"]', "'a'"),  # the type is named before the overlap, which cannot sort
    ):
        text = '{"n": 2, "receivers": [{"demands": %s, "side_info": %s}, {"demands": [2]}]}' % (demands, side_info)
        with pytest.raises(ProblemError, match=f"^receiver 1: message id {bad} is not an integer$"):
            parse_problem(text)
    # the first receiver holding a non-integer is named, also where its
    # list hides it behind an equal integer and a later list does not
    text = '{"n": 2, "receivers": [{"demands": [1, true]}, {"demands": [2.0]}]}'
    with pytest.raises(ProblemError, match="^receiver 1: message id True is not an integer$"):
        parse_problem(text)
    # repeated integer ids are still one id each
    p = parse_problem('{"n": 2, "receivers": [{"demands": [1, 1], "side_info": [2, 2]}, {"demands": [2]}]}')
    assert p.receivers[0] == Receiver(frozenset({1}), frozenset({2}))


_TWO = '{"n": %s, "receivers": [{"demands": %s, "side_info": %s}, {"demands": %s}]}'
_BIG = "1" + "0" * 310  # an int too large for a float, well under the digit limit


@pytest.mark.parametrize(
    "text, error",
    [
        (_TWO % (2, "[1, true]", "[]", "[2]"), "receiver 1: message id True is not an integer"),
        (_TWO % (2, "[1]", "[true]", "[2]"), "receiver 1: message id True is not an integer"),
        # the union of the sets keeps receiver 1's 1 and would hide the true
        (_TWO % (2, "[1]", "[]", "[2, true]"), "receiver 2: message id True is not an integer"),
        (_TWO % (2, "[1]", "[false]", "[2]"), "receiver 1: message id False is not an integer"),
        (_TWO % (2, "[1.0]", "[]", "[2]"), "receiver 1: message id 1.0 is not an integer"),
        (_TWO % (2, "[1]", "[2, 2.0]", "[2]"), "receiver 1: message id 2.0 is not an integer"),
        (_TWO % (2, "[1]", "[]", "[2.0]"), "receiver 2: message id 2.0 is not an integer"),
        (_TWO % (2, "[1e0]", "[]", "[2]"), "receiver 1: message id 1.0 is not an integer"),
        (_TWO % (2, "[1]", "[NaN]", "[2]"), "receiver 1: message id nan is not an integer"),
        (_TWO % (2, "[1, Infinity]", "[]", "[2]"), "receiver 1: message id inf is not an integer"),
        # a float next to an int too large for a float, in one set or in two
        (_TWO % (2, f"[1.5, {_BIG}]", "[]", "[2]"), "receiver 1: message id 1.5 is not an integer"),
        (_TWO % (2, "[1.5]", "[]", f"[{_BIG}]"), "receiver 1: message id 1.5 is not an integer"),
        (_TWO % (2, "[1]", "[NaN]", f"[2, {_BIG}]"), "receiver 1: message id nan is not an integer"),
        (_TWO % (2, '[1, "2"]', "[]", "[2]"), "receiver 1: message id '2' is not an integer"),
        (_TWO % (2, "[1]", "[null]", "[2]"), "receiver 1: message id None is not an integer"),
        (_TWO % (2, "[[1]]", "[]", "[2]"), "receiver 1: demands and side_info must be lists of integer ids"),
        # ids that only coerce to integers are rejected, not converted
        (
            '{"n": 2, "receivers": [{"demands": [1.7, 2], "side_info": []}]}',
            "receiver 1: message id 1.7 is not an integer",
        ),
        (
            '{"n": 2, "receivers": [{"demands": [true, "2"], "side_info": []}]}',
            "receiver 1: message id '2' is not an integer",
        ),
        (
            '{"n": 2, "receivers": [{"demands": [1, 2], "side_info": "2"}]}',
            "receiver 1: demands and side_info must be lists of integer ids",
        ),
        (_TWO % (2, "[1, 2]", "[]", "[]"), "receiver 2: empty demand set"),
        (
            '{"n": 2, "receivers": [{"demands": [], "side_info": [2]}, {"demands": [1, 2], "side_info": []}]}',
            "receiver 1: empty demand set",
        ),
        (_TWO % (2, "[1]", "[1, 2]", "[2]"), "receiver 1: demands overlap side info: [1]"),
        (_TWO % (2, "[0, 1]", "[]", "[2]"), "receiver 1: message id 0 out of range [1..2]"),
        (_TWO % (2, "[1]", "[-1]", "[2]"), "receiver 1: message id -1 out of range [1..2]"),
        (_TWO % (2, "[1]", "[]", "[2, 3]"), "receiver 2: message id 3 out of range [1..2]"),
        ('{"n": 2, "receivers": [{"demands": [3], "side_info": []}]}', "receiver 1: message id 3 out of range [1..2]"),
        (_TWO % ("true", "[1]", "[]", "[2]"), "n must be an integer, got True"),
        (_TWO % ("1.0", "[1]", "[]", "[2]"), "n must be an integer, got 1.0"),
        (_TWO % (0, "[1]", "[]", "[2]"), "need at least one message, got n=0"),
        ('{"n": 2, "receivers": []}', "need at least one receiver"),
    ],
)
def test_parse_errors_are_exact(text, error):
    # the texts Problem.__post_init__ gave before the parse ran its own
    # C-level checks; each must still reach it and name the same fault
    with pytest.raises(ProblemError) as exc:
        parse_problem(text)
    assert str(exc.value) == error


def _golden_problem_texts():
    """The valid problem files of the CLI golden rows: those their setups
    write with ``gen``, and those the rows that exit 0 write directly, one
    of which leaves messages undemanded."""
    from indexcode.cli import build_parser
    from test_cli_golden import ROWS

    for row in ROWS.values():
        for argv in row.setup:
            args = build_parser().parse_args(list(argv))
            yield problem_to_json(random_problem(args.n, args.density, not args.general, args.seed))
        if row.exit_code == 0:
            for _, text in row.files:
                yield text


def test_valid_files_parse_without_problem_checks(monkeypatch):
    # the parse checks every listed id in C-level passes, so a valid file
    # never reaches Problem.__post_init__
    texts = [*map(fixture_text, FIXTURE_NAMES), *_golden_problem_texts()]
    assert len(texts) == 21
    calls = []
    check = Problem.__post_init__
    monkeypatch.setattr(Problem, "__post_init__", lambda self: calls.append(1) or check(self))
    for text in texts:
        parse_problem(text, allow_undemanded=True)
    assert calls == []
    with pytest.raises(ProblemError):
        parse_problem(_TWO % (2, "[1]", "[]", "[2, true]"))
    assert calls == [1]


_SIDE = '{"n": 2, "receivers": [{"demands": [1], "side_info": %s}, {"demands": [2]}]}'


@pytest.mark.parametrize(
    "text, error",
    [
        # a text is decoded without the repeated-key hook only when it holds no
        # backslash, t or l, no float or constant, and two quotes per key of the
        # top and receiver objects; each row names the rule it breaks, or none
        # where it passes them all with a value of a type no id has
        ('{"n": 2, "receivers": [{"demands": [1], "demands": [1]}, {"demands": [2]}]}',
         "malformed problem file: repeated key 'demands'"),  # quotes
        ('{"n": 2, "receivers": [{"demands": [1], "\\u0064emands": [1]}, {"demands": [2]}]}',
         "malformed problem file: repeated key 'demands'"),  # backslash, and quotes
        (_SIDE % "[null]", "receiver 1: message id None is not an integer"),  # l
        (_SIDE % '["2"]', "receiver 1: message id '2' is not an integer"),  # quotes
        (_SIDE % "[{}]", "receiver 1: demands and side_info must be lists of integer ids"),  # none
        (_SIDE % "[[]]", "receiver 1: demands and side_info must be lists of integer ids"),  # none
        (_SIDE % "[1e0]", "receiver 1: message id 1.0 is not an integer"),  # float
        (_SIDE % "[NaN]", "receiver 1: message id nan is not an integer"),  # constant
        ('{"n": {}, "receivers": [{"demands": [1, 2]}]}', "n must be an integer, got {}"),  # none
        ('{"n": 2, "receivers": [{"demands": [1, 2]}], "receivers": [{"demands": [1, 2]}]}',
         "malformed problem file: repeated key 'receivers'"),  # quotes
    ],
)
def test_each_token_rule_keeps_the_strict_error(text, error):
    with pytest.raises(ProblemError) as exc:
        parse_problem(text)
    assert str(exc.value) == error


def test_an_escaped_key_parses_as_the_plain_one():
    plain = _SIDE % "[2]"
    escaped = plain.replace('"side_info"', '"side_\\u0069nfo"')
    assert escaped != plain and json.loads(escaped) == json.loads(plain)
    assert parse_problem(escaped) == parse_problem(plain) == Problem(
        2, (Receiver(frozenset({1}), frozenset({2})), Receiver(frozenset({2}), frozenset()))
    )


def test_canonical_files_decode_without_the_key_hook(monkeypatch):
    # the repeated-key hook is one Python call per JSON object; a canonical
    # file's own tokens rule out a repeated key, so it never runs there
    calls = []
    monkeypatch.setattr(
        problem_module, "_DECODER", json.JSONDecoder(object_pairs_hook=lambda pairs: calls.append(1) or dict(pairs))
    )
    for text in [*map(fixture_text, FIXTURE_NAMES), *_golden_problem_texts()]:
        parse_problem(text, allow_undemanded=True)
    assert calls == []
    # one escape sends the whole text through the hook
    parse_problem(fixture_text("p5").replace('"demands"', '"\\u0064emands"', 1))
    assert calls


_PROBLEM_BASES = [*map(fixture_text, ("p5", "ex_inf", "ex_feas")), problem_to_json(random_problem(4, 0.4, False, 3))]


def _parsed(text: str) -> Problem | str:
    try:
        return parse_problem(text)
    except ProblemError as exc:
        return f"ProblemError: {exc}"


@given(data=st.data(), base=st.sampled_from(_PROBLEM_BASES))
@settings(max_examples=500, deadline=None)
def test_both_decode_paths_agree(data, base):
    # writing the first key with one \u escape gives the same JSON document,
    # and the backslash sends it through the strict decoder: both texts give
    # equal problems or the same error
    text = data.draw(_mutated_file(base))
    i = text.find('"') + 1  # the root stays an object, so its first string is its first key
    escaped = text[:i] + "\\u%04x" % ord(text[i]) + text[i + 1 :] if i else text
    assert _parsed(escaped) == _parsed(text)


def test_undemanded_rejected_by_default_allowed_by_flag():
    text = '{"n": 2, "receivers": [{"demands": [1], "side_info": []}]}'
    with pytest.raises(ProblemError, match=r"^messages demanded by no receiver: \[2\]$"):
        parse_problem(text)
    p = parse_problem(text, allow_undemanded=True)
    assert p.n == 2 and [r.demands for r in p.receivers] == [frozenset({1})]


def test_undemanded_error_lists_ten_ids_and_the_count():
    text = '{"n": 100000, "receivers": [{"demands": [1], "side_info": []}]}'
    with pytest.raises(ProblemError, match="demanded by no receiver") as exc:
        parse_problem(text)
    message = str(exc.value)
    assert "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 99989 more, 99999 in all" in message
    assert len(message) < 120


def test_overlap_error_lists_ten_ids_and_the_count():
    # a receiver that holds all 1,024 of its demands as side information
    ids = ", ".join(map(str, range(1, 1025)))
    text = '{"n": 1024, "receivers": [{"demands": [%s], "side_info": [%s]}]}' % (ids, ids)
    with pytest.raises(ProblemError) as exc:
        parse_problem(text)
    assert str(exc.value) == (
        "receiver 1: demands overlap side info: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1014 more, 1024 in all"
    )


def test_undemanded_error_lists_only_ids_up_to_n():
    # fewer than ten ids are missing, some in the middle and the last one
    text = '{"n": 7, "receivers": [{"demands": [1, 3, 4], "side_info": [2]}, {"demands": [6], "side_info": []}]}'
    with pytest.raises(ProblemError, match=r"^messages demanded by no receiver: \[2, 5, 7\]$"):
        parse_problem(text)


def test_roundtrip_serialization():
    # the writer keeps the fixtures' layout, one receiver per line, byte for byte
    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        assert problem_to_json(parse_problem(text)) == text


@st.composite
def arbitrary_problems(draw, max_n=8):
    """Problems with multi-demand receivers and undemanded messages; each
    receiver's side information is a drawn set or all ids outside one, so
    that above small n it falls on both sides of n/2."""
    n = draw(st.integers(1, max_n))
    ids = st.integers(1, n)
    receivers = []
    for _ in range(draw(st.integers(1, 6))):
        demands = draw(st.frozensets(ids, min_size=1))
        side = draw(st.frozensets(ids))
        if draw(st.booleans()):
            side = frozenset(range(1, n + 1)) - side
        receivers.append(Receiver(demands, side - demands))
    return Problem(n, tuple(receivers))


def _plain_data(p):
    """The JSON value of ``p``'s file: its ids ascending, keys in order."""
    return {
        "n": p.n,
        "receivers": [{"demands": sorted(r.demands), "side_info": sorted(r.side_info)} for r in p.receivers],
    }


@given(arbitrary_problems())
@settings(max_examples=200, deadline=None)
def test_roundtrip_serialization_property(p):
    assert parse_problem(problem_to_json(p), allow_undemanded=True) == p
    # a file written with json.dumps(indent=2), one id per line, reads back alike
    assert parse_problem(json.dumps(_plain_data(p), indent=2) + "\n", allow_undemanded=True) == p


# examples the strategy does not draw, which fail a writer that reads an
# id's text by its position in the list rather than by the id: three-digit
# ids, lists of equal sizes and different ids, and an empty list beside one
# of all n - 1 other ids
@given(arbitrary_problems(max_n=40))
@example(Problem(150, (Receiver(frozenset({1}), frozenset(range(2, 151))),)))
@example(
    Problem(9, (Receiver(frozenset({1, 2}), frozenset({3, 4, 5})), Receiver(frozenset({6, 9}), frozenset({2, 7, 8}))))
)
@example(Problem(7, (Receiver(frozenset({1}), frozenset()), Receiver(frozenset({7}), frozenset(range(1, 7))))))
@settings(max_examples=200, deadline=None)
def test_problem_to_json_writes_the_bytes_of_json_dumps(p):
    # the frame of json.dumps(indent=2), and each receiver json.dumps'd on its own line
    data = _plain_data(p)
    receivers = ",\n".join("    " + json.dumps(r) for r in data["receivers"])
    text = problem_to_json(p)
    assert text == '{\n  "n": %d,\n  "receivers": [\n%s\n  ]\n}\n' % (p.n, receivers)
    assert json.loads(text) == data


def _half_side(n):
    """Receivers with side information of n/2 - 1, n/2 and n/2 + 1 ids."""
    sizes = (n // 2 - 1, n // 2, n // 2 + 1)
    return Problem(n, tuple(Receiver(frozenset({1, n}), frozenset(range(2, 2 + size))) for size in sizes))


# up to n = 96, past the construct-verify sizes, where a receiver's base
# mask is read from its side information below n/2 ids and from the ids
# outside it above; the examples sit at that edge
@given(st.one_of(arbitrary_problems(), arbitrary_problems(max_n=96)))
@example(_half_side(11))
@example(_half_side(12))
@example(_half_side(96))
@settings(max_examples=200, deadline=None)
def test_bits_hyperedges_hold_every_hyperedge_and_match_the_sets(p):
    assert p.bits.hyperedges == {(k, sum(1 << m for m in interf)) for k, interf in hyperedges(p)}
    assert p.bits.hyperedges == {(k, s) for s, ks in zip(p.bits.sets, p.bits.against) for k in _iter_bits(ks)}


def test_views_are_computed_once_and_stored_on_the_problem(monkeypatch):
    # each view is read on first use and then found in the instance dict,
    # on a problem built through its checks and on one a plain text builds
    # without them; a plain property would compute it on every read.  The
    # hypergraph has one view, bits, and reading it stores nothing else
    views = ("messages", "bits")
    assert {name for name, value in vars(Problem).items() if isinstance(value, cached_property)} == set(views)
    calls = []
    check = Problem.__post_init__
    monkeypatch.setattr(Problem, "__post_init__", lambda self: calls.append(1) or check(self))
    built = random_problem(12, 0.5, single_unicast=False, seed=3)
    assert calls == [1]
    parsed = parse_problem(problem_to_json(built))
    assert calls == [1] and parsed == built
    for p in (built, parsed):
        assert not set(views) & set(p.__dict__)
        for name in views:
            before = set(p.__dict__)
            value = getattr(p, name)
            assert p.__dict__[name] is value and getattr(p, name) is value
            assert set(p.__dict__) == before | {name}
    assert all(getattr(built, name) == getattr(parsed, name) for name in views)


def test_a_repeated_text_returns_the_same_problem():
    # an equal text that is another object hits the memo too, and the views
    # the first caller built are the second caller's
    text = fixture_text("p5")
    p = parse_problem(text)
    bits = p.bits
    copy = "".join(text)
    assert copy is not text
    again = parse_problem(copy)
    assert again is p and again.bits is bits and parse_problem(text) is p


def test_the_memo_keeps_the_undemanded_flag():
    # a memo keyed on the text alone would hand the loose parse to the strict call
    text = '{"n": 2, "receivers": [{"demands": [1], "side_info": []}]}'
    loose = parse_problem(text, allow_undemanded=True)
    assert loose.n == 2
    for _ in range(2):
        with pytest.raises(ProblemError) as exc:
            parse_problem(text)
        assert str(exc.value) == "messages demanded by no receiver: [2]"
    assert parse_problem(text, allow_undemanded=True) is loose


def test_a_refusal_is_raised_again_and_kept_from_the_memo():
    valid, malformed = fixture_text("ex_inf"), '{"n": 2, "receivers": [{"demands": [1]}'
    p = parse_problem(valid)
    errors = []
    for _ in range(2):
        with pytest.raises(ProblemError) as exc:
            parse_problem(malformed)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and errors[0].startswith("malformed problem file: ")
    assert parse_problem(valid) is p


def test_the_memo_holds_one_entry():
    a, b = fixture_text("ex1a"), fixture_text("ex1b")
    first = parse_problem(a)
    assert parse_problem(b) != first
    fresh = parse_problem(a)
    assert fresh is not first and fresh == first and parse_problem(a) is fresh


def test_parse_problem_stays_a_plain_function():
    # perfbench's tracer wraps only inspect.isfunction objects, so a cache
    # decorator would hide problem.parse_problem's per-layer metrics
    assert inspect.isfunction(parse_problem)


def test_parse_builds_exact_receivers():
    # NamedTuple instances built without the Python-level __new__: each is
    # a Receiver, not a plain tuple, that equals one built the usual way
    groupcast = problem_to_json(random_problem(12, 0.5, single_unicast=False, seed=3))
    assert any(len(r.demands) > 1 for r in parse_problem(groupcast).receivers)
    for text in [*map(fixture_text, FIXTURE_NAMES), groupcast]:
        for r in parse_problem(text).receivers:
            assert type(r) is Receiver
            assert type(r.demands) is frozenset and type(r.side_info) is frozenset
            assert r == Receiver(r.demands, r.side_info)


def test_parser_accepts_any_order():
    text = '{"n": 3, "receivers": [{"demands": [1], "side_info": [3, 2]}, {"demands": [3, 2], "side_info": []}]}'
    p = parse_problem(text)
    assert p.receivers[0].side_info == frozenset({2, 3})


def test_interfering_set_full_side_info():
    p = parse_problem(
        '{"n": 3, "receivers": ['
        '{"demands": [1], "side_info": [2, 3]},'
        '{"demands": [2], "side_info": [1, 3]},'
        '{"demands": [3], "side_info": [1, 2]}]}'
    )
    for j in (1, 2, 3):
        assert interfering_set(p, j, j) == frozenset()
    assert conflicts(p) == frozenset()


def test_interfering_set_receiver_out_of_range():
    p = load_fixture("ex_feas")
    for j in (0, p.t + 1):
        with pytest.raises(ProblemError, match=rf"^receiver index {j} out of range \[1\.\.{p.t}\]$"):
            interfering_set(p, j, 1)
    ex_inf = load_fixture("ex_inf")
    # receiver does not demand the message -> empty by definition
    assert interfering_set(ex_inf, 5, 1) == frozenset()


def test_restrict_ex_inf():
    ex_inf = load_fixture("ex_inf")
    restricted, mapping = restrict_problem(ex_inf, {1, 2, 3, 4})
    assert mapping == {1: 1, 2: 2, 3: 3, 4: 4}
    assert restricted.t == 4  # receivers demanding 5, 6 are dropped
    # the W2-receiver's restricted interference
    assert interfering_set(restricted, 2, 2) == frozenset({1, 3})


def test_restrict_ex_feas_triangle():
    ex_feas = load_fixture("ex_feas")
    restricted, mapping = restrict_problem(ex_feas, {3, 4, 5})
    assert mapping == {3: 1, 4: 2, 5: 3}
    assert restricted.t == 3
    # the W5-receiver keeps only W3 as interference
    j5 = next(
        j for j, r in enumerate(restricted.receivers, 1) if mapping[5] in r.demands
    )
    assert interfering_set(restricted, j5, mapping[5]) == frozenset({mapping[3]})
    assert restricted_internal_conflicts(ex_feas, {3}) == []


def test_restrict_full_set_is_identity_up_to_reindexing():
    p = load_fixture("ex_inf")
    restricted, mapping = restrict_problem(p, p.messages)
    assert mapping == {m: m for m in p.messages}
    assert restricted == p


def test_restrict_empty_rejected():
    with pytest.raises(ProblemError):
        restrict_problem(load_fixture("p5"), set())


def test_restriction_ids_out_of_range_rejected():
    with pytest.raises(ProblemError, match=r"^restriction ids out of range: \[99\]$"):
        restriction_members(load_fixture("ex_feas"), {1, 99})


def test_restriction_onto_undemanded_messages_keeps_no_receiver():
    p = parse_problem('{"n": 3, "receivers": [{"demands": [1], "side_info": [2]}]}', allow_undemanded=True)
    with pytest.raises(ProblemError, match="^restriction keeps no receiver$"):
        restrict_problem(p, {2, 3})


def test_unknown_fixture_name_is_a_key_error():
    with pytest.raises(KeyError, match="unknown fixture 'nope'"):
        fixture_text("nope")


@pytest.mark.parametrize(
    "members, shown", [({True, 2.0, 3}, "2.0"), ({2.0, 3}, "2.0"), ({True, 3}, "True"), ({"1", 2}, "'1'")]
)
@pytest.mark.parametrize("restrict", [restrict_problem, restricted_internal_conflicts])
def test_restriction_ids_must_be_ints(restrict, members, shown):
    # True and 2.0 equal the ids 1 and 2, so the subset test let them
    # through: restrict_problem returned a mapping keyed by True and 2.0,
    # and restricted_internal_conflicts shifted by 2.0 into a TypeError
    with pytest.raises(ProblemError, match=f"^restriction id {re.escape(shown)} is not an integer$"):
        restrict(load_fixture("ex_inf"), members)


@given(st.integers(0, 300))
@settings(max_examples=80, deadline=None)
def test_restriction_commutes_with_interference(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(2, 6)
    p = random_problem(n, rng.choice([0.2, 0.5, 0.8]), seed=seed)
    members = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
    restricted, mapping = restrict_problem(p, members)
    kept = [j for j, r in enumerate(p.receivers, 1) if r.demands & members]
    for new_j, old_j in enumerate(kept, 1):
        for k in p.receivers[old_j - 1].demands & members:
            expected = frozenset(mapping[m] for m in interfering_set(p, old_j, k) & members)
            assert interfering_set(restricted, new_j, mapping[k]) == expected


def test_random_problem_density_limits():
    full = random_problem(4, 1.0, seed=1)
    for j, r in enumerate(full.receivers, 1):
        assert interfering_set(full, j, j) == frozenset()
    empty = random_problem(4, 0.0, seed=1)
    for j, r in enumerate(empty.receivers, 1):
        assert interfering_set(empty, j, j) == full.messages - {j}


def test_random_problem_deterministic():
    assert random_problem(5, 0.4, seed=77) == random_problem(5, 0.4, seed=77)
    assert random_problem(5, 0.4, seed=77) != random_problem(5, 0.4, seed=78)


def test_random_problem_general_mode_complete():
    for seed in range(20):
        p = random_problem(5, 0.5, single_unicast=False, seed=seed)
        check_groupcast_complete(p)


@given(st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_interference_invariants(seed):
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(1, 6)
    p = random_problem(n, rng.choice([0.0, 0.3, 0.6, 1.0]), single_unicast=rng.random() < 0.7, seed=seed)
    expected_pairs = set()
    for j, r in enumerate(p.receivers, 1):
        for k in r.demands:
            interf = interfering_set(p, j, k)
            assert k not in interf
            assert not interf & r.side_info
            expected_pairs |= {(min(i, k), max(i, k)) for i in interf}
    assert conflicts(p) == frozenset(expected_pairs)


def test_duplicate_receivers_preserved():
    r = Receiver(demands=frozenset({1}), side_info=frozenset())
    p = Problem(n=1, receivers=(r, r))
    assert p.t == 2


def test_canonical_output_is_sorted():
    p = load_fixture("ex_feas")
    data = json.loads(problem_to_json(p))
    for entry in data["receivers"]:
        assert entry["demands"] == sorted(entry["demands"])
        assert entry["side_info"] == sorted(entry["side_info"])
