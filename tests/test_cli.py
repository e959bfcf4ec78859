import json
import sys
import time
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from indexcode import linalg, oracle
from indexcode.cli import main
from indexcode.fixtures import fixture_text
from indexcode.problem import MAX_MESSAGES, parse_problem, problem_to_json, random_problem


@pytest.fixture
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(fixture_text(name))
        return str(path)

    return write


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_analyze_conflict_free(tmp_path, capsys):
    path = tmp_path / "free.json"
    path.write_text(
        '{"n": 2, "receivers": ['
        '{"demands": [1], "side_info": [2]},'
        '{"demands": [2], "side_info": [1]}]}'
    )
    rc, out, _ = run(capsys, "analyze", str(path))
    assert rc == 0
    assert "rate 1:   feasible" in out
    assert "rate 1/2: feasible" in out
    assert "rate 1/3: feasible" in out


def test_analyze_emit_graph(fixture_file, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    rc, _, _ = run(capsys, "analyze", fixture_file("ex_feas"), "--emit-graph", str(dot))
    assert rc == 0
    assert dot.read_text().startswith("graph")


def test_construct_verify_roundtrip(fixture_file, tmp_path, capsys):
    problem_path = fixture_file("p5")
    code_path = str(tmp_path / "p5.code")
    rc, _, err = run(
        capsys, "construct", problem_path, "--rate", "1/3", "--seed", "7", "-o", code_path
    )
    assert rc == 0
    assert "attempts_used: 1" in err
    rc, out, _ = run(capsys, "verify", problem_path, code_path)
    assert rc == 0
    assert out.strip() == "OK (5/5 receivers)"


def test_construct_deterministic_output(fixture_file, tmp_path, capsys):
    problem_path = fixture_file("p5")
    paths = [str(tmp_path / f"c{i}.code") for i in (1, 2)]
    for path in paths:
        rc, _, _ = run(capsys, "construct", problem_path, "--rate", "1/3", "--seed", "7", "-o", path)
        assert rc == 0
    with open(paths[0]) as a, open(paths[1]) as b:
        assert a.read() == b.read()


def test_construct_precondition_exit_code(fixture_file, capsys):
    rc, _, err = run(capsys, "construct", fixture_file("ex_inf"), "--rate", "1/3", "--seed", "1")
    assert rc == 4
    assert "precondition" in err


def test_construct_rate_one(tmp_path, capsys):
    # every receiver holds every other message, so one coordinate serves all
    problem_path, code_path = str(tmp_path / "n5.json"), str(tmp_path / "n5.code")
    rc, _, _ = run(capsys, "gen", "-n", "5", "--density", "1", "--seed", "0", "-o", problem_path)
    assert rc == 0
    rc, out, err = run(capsys, "construct", problem_path, "--rate", "1", "-o", code_path)
    assert (rc, out) == (0, "")
    assert "attempts_used: 1" in err.splitlines()
    with open(code_path) as f:
        assert json.load(f)["length"] == 1
    rc, out, _ = run(capsys, "verify", problem_path, code_path)
    assert (rc, out) == (0, "OK (5/5 receivers)\n")


def test_construct_rate_one_with_conflicts_exit_code(fixture_file, capsys):
    rc, out, err = run(capsys, "construct", fixture_file("p5"), "--rate", "1")
    assert (rc, out, err) == (4, "", "error: rate 1 infeasible: problem has conflicts\n")


def test_construct_tests_prime_once(fixture_file, monkeypatch, capsys):
    # the --prime check and the code share one cached test per modulus;
    # 1000003 is used by no other test, so the cache starts cold
    calls = []
    is_prime = linalg.is_prime

    def counting(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(linalg, "is_prime", counting)
    rc, _, _ = run(
        capsys, "construct", fixture_file("p5"), "--rate", "1/3", "--prime", "1000003", "--seed", "0"
    )
    assert rc == 0
    assert calls == [1000003]


def test_construct_refuses_a_prime_past_64_bits_before_testing_it(fixture_file, capsys):
    # 2**11213 - 1 is a Mersenne prime of 3,376 digits: Miller-Rabin passed
    # it after about 40 s, and only then did the precondition exit 4
    started = time.monotonic()
    rc, out, err = run(capsys, "construct", fixture_file("p5"), "--rate", "1/2", "--prime", str(2**11213 - 1))
    assert time.monotonic() - started < 2
    assert rc == 3 and out == ""
    assert err == f"error: modulus {2**11213 - 1} does not fit in 64 bits\n"
    rc, out, err = run(capsys, "construct", fixture_file("p5"), "--rate", "1/2", "--prime", "4")
    assert (rc, out, err) == (3, "", "error: modulus 4 is not prime\n")
    # p5 has conflicts, so rate 1 is infeasible too: the field still goes first
    rc, out, err = run(capsys, "construct", fixture_file("p5"), "--rate", "1", "--prime", "4")
    assert (rc, out, err) == (3, "", "error: modulus 4 is not prime\n")


def test_construct_exhausted_exit_code(tmp_path, capsys):
    path = tmp_path / "pigeon.json"
    receivers = [
        {"demands": [a], "side_info": [m for m in range(1, 5) if m not in (a, b)]}
        for a in range(1, 5)
        for b in range(1, 5)
        if a != b
    ]
    path.write_text(json.dumps({"n": 4, "receivers": receivers}))
    rc, _, err = run(
        capsys, "construct", str(path), "--rate", "1/2", "--prime", "2", "--seed", "0"
    )
    assert rc == 5
    assert "attempts" in err


@pytest.mark.parametrize("attempts", ["0", "-2"])
def test_construct_without_attempts_is_usage_error(tmp_path, attempts, capsys):
    # the problem is rate-1/2 feasible, so a code exists, and no attempt at
    # all must not be reported as attempts exhausted
    path = tmp_path / "half.json"
    path.write_text(problem_to_json(random_problem(8, 0.9, seed=0)))
    for rate in ("1/2", "1/3"):
        rc, out, err = run(capsys, "construct", str(path), "--rate", rate, f"--max-attempts={attempts}")
        assert rc == 2
        assert out == ""
        assert "--max-attempts" in err
        assert "more attempts may find one" not in err


def test_verify_reports_violations(fixture_file, tmp_path, capsys):
    code_path = tmp_path / "bad.code"
    code_path.write_text(
        json.dumps({"length": 3, "prime": 5, "vectors": [[1, 0, 0]] * 6})
    )
    rc, out, _ = run(capsys, "verify", fixture_file("ex_feas"), str(code_path))
    assert rc == 0
    assert "VIOLATION" in out
    assert "FAILED" in out


def test_verify_stdout_is_pinned(fixture_file, tmp_path, capsys):
    for name, t in (("p5", 5), ("ex1a", 4)):
        code_path = str(tmp_path / f"{name}.code")
        problem_path = fixture_file(name)
        rc, _, _ = run(capsys, "construct", problem_path, "--rate", "1/3", "--seed", "7", "-o", code_path)
        assert rc == 0
        rc, out, _ = run(capsys, "verify", problem_path, code_path)
        assert (rc, out) == (0, f"OK ({t}/{t} receivers)\n")
    # receiver 3 duplicates receiver 1; receiver 4 demands two messages
    problem_path = tmp_path / "dup.json"
    receivers = [
        {"demands": [1], "side_info": [3]},
        {"demands": [2], "side_info": [1, 4]},
        {"demands": [1], "side_info": [3]},
        {"demands": [3, 4], "side_info": []},
    ]
    problem_path.write_text(json.dumps({"n": 4, "receivers": receivers}))
    code_path = tmp_path / "dup.code"
    code_path.write_text(json.dumps({"length": 2, "prime": 5, "vectors": [[1, 0], [1, 0], [0, 0], [0, 1]]}))
    rc, out, _ = run(capsys, "verify", str(problem_path), str(code_path))
    assert rc == 0
    assert out == (
        "VIOLATION: message 3 is assigned the zero vector\n"
        "VIOLATION: receiver 1, message 1: vector lies in the interfering span\n"
        "VIOLATION: receiver 3, message 1: vector lies in the interfering span\n"
        "VIOLATION: receiver 4, message 3: vector lies in the interfering span\n"
        "FAILED (1/4 receivers)\n"
    )


def test_oracle_command_ex_inf(fixture_file, capsys):
    rc, out, _ = run(capsys, "oracle", fixture_file("ex_inf"), "--q", "2,3", "--max-len", "4")
    assert rc == 0
    assert "min length: 4 (q=2), 4 (q=3)" in out
    assert "field-relative" in out


def test_oracle_max_len_above_cap_exit_code(fixture_file, capsys):
    # the cap is 1..4: at 0 every problem read "min length: >0", though no
    # problem has a length-0 code
    for max_len in ("7", "0"):
        rc, out, err = run(capsys, "oracle", fixture_file("ex_feas"), "--q", "2", "--max-len", max_len)
        assert (rc, out) == (3, "")
        assert err == f"error: L={max_len} is outside the oracle cap 1..4\n"


def test_oracle_field_above_vector_cap_exit_code(fixture_file, capsys):
    # q^L is capped at 5^4 = 625 vectors, checked before any search
    for argv in (["--q", "1009", "--max-len", "1"], ["--q", "1009"], ["--q", "7"]):
        rc, _, err = run(capsys, "oracle", fixture_file("ex_feas"), *argv)
        assert rc == 3
        assert "625 vectors" in err
        assert "nodes explored" not in err
    rc, out, _ = run(capsys, "oracle", fixture_file("ex_feas"), "--q", "7", "--max-len", "3")
    assert rc == 0
    assert "min length: 3 (q=7)" in out


def test_oracle_checks_every_field_before_searching(fixture_file, capsys):
    rc, out, err = run(capsys, "oracle", fixture_file("ex_inf"), "--q", "2,1009")
    assert rc == 3
    assert out == ""
    assert "q=2:" not in err
    assert "625 vectors" in err


def test_oracle_node_budget_exit_code(fixture_file, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "DEFAULT_NODE_CAP", 50)
    rc, out, err = run(capsys, "oracle", fixture_file("ex_inf"), "--q", "2,3")
    assert rc == 3
    assert out == ""
    assert "budget of 50 nodes" in err


def test_oracle_budget_error_keeps_finished_fields(fixture_file, monkeypatch, capsys):
    # on ex_inf GF(2) settles length 4 in 40 nodes and GF(3) needs 56: a
    # budget of 50 per field lets the first finish and stops the second
    monkeypatch.setattr(oracle, "DEFAULT_NODE_CAP", 50)
    rc, out, err = run(capsys, "oracle", fixture_file("ex_inf"), "--q", "2,3")
    assert rc == 3
    assert out == ""
    assert "q=2: min length 4, nodes explored 40" in err
    assert err.index("q=2:") < err.index("GF(3) exceeded its budget of 50 nodes")
    assert "q=3:" not in err


def test_oracle_bad_field_list_is_usage_error(fixture_file, capsys):
    rc, _, err = run(capsys, "oracle", fixture_file("ex_feas"), "--q", "2,x")
    assert rc == 2
    assert "--q" in err


def test_oracle_repeated_field_is_usage_error(fixture_file, capsys):
    rc, out, err = run(capsys, "oracle", fixture_file("ex_feas"), "--q", "2,3,2")
    assert rc == 2
    assert out == ""
    assert "--q" in err


def test_oracle_has_no_n_cap_option(fixture_file, capsys):
    rc, out, err = run(capsys, "oracle", fixture_file("ex_feas"), "--n-cap", "5")
    assert rc == 2
    assert out == ""
    assert "--n-cap" in err


def test_oracle_witness_output(fixture_file, tmp_path, capsys):
    out_path = str(tmp_path / "w.code")
    rc, out, _ = run(
        capsys, "oracle", fixture_file("ex_feas"), "--q", "2", "--max-len", "3", "-o", out_path
    )
    assert rc == 0
    assert "min length: 3 (q=2)" in out
    rc, out, _ = run(capsys, "verify", fixture_file("ex_feas"), out_path)
    assert rc == 0
    assert out.startswith("OK")


def test_oracle_writes_the_shortest_witness_over_all_fields(tmp_path, capsys):
    # length 2 over GF(3) and length 3 over GF(2): the GF(3) code is the
    # shortest although GF(2) is searched last
    problem_path, out_path = str(tmp_path / "g.json"), tmp_path / "w.json"
    rc, _, _ = run(capsys, "gen", "-n", "10", "--density", "0.85", "--seed", "21", "-o", problem_path)
    assert rc == 0
    rc, out, _ = run(capsys, "oracle", problem_path, "--q", "3,2", "-o", str(out_path))
    assert rc == 0
    assert "min length: 2 (q=3), 3 (q=2)" in out
    witness = json.loads(out_path.read_text())
    assert (witness["length"], witness["prime"]) == (2, 3)
    rc, out, _ = run(capsys, "verify", problem_path, str(out_path))
    assert out.startswith("OK")


def test_oracle_witness_tie_goes_to_the_first_field(fixture_file, tmp_path, capsys):
    out_path = tmp_path / "w.json"
    rc, out, _ = run(capsys, "oracle", fixture_file("ex_feas"), "--q", "2,3", "--max-len", "3", "-o", str(out_path))
    assert rc == 0
    assert "min length: 3 (q=2), 3 (q=3)" in out
    assert json.loads(out_path.read_text())["prime"] == 2


def test_verify_large_prime_code(fixture_file, tmp_path, capsys):
    code_path = tmp_path / "mersenne.code"
    vectors = [[1, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
    code_path.write_text(json.dumps({"length": 3, "prime": 2**61 - 1, "vectors": vectors}))
    rc, out, _ = run(capsys, "verify", fixture_file("ex_feas"), str(code_path))
    assert rc == 0
    assert out.strip() == "OK (6/6 receivers)"


def test_gen_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    rc, _, _ = run(capsys, "gen", "-n", "5", "--density", "0.5", "--seed", "3", "-o", str(out_path))
    assert rc == 0
    p = parse_problem(out_path.read_text())
    assert p.n == 5
    rc, out, _ = run(capsys, "analyze", str(out_path))
    assert rc == 0


@pytest.mark.parametrize("text", ["[" * 200_000, '{"n": %s}' % ("9" * 5000)], ids=["deep", "huge-int"])
@pytest.mark.parametrize("kind", ["problem", "code"])
def test_undecodable_json_is_one_error_line(fixture_file, tmp_path, capsys, kind, text):
    # json.loads raises RecursionError on nesting past the recursion limit
    # and, on an integer literal past Python's 4,300-digit limit, a
    # ValueError that is not a JSONDecodeError; both ended in a traceback.
    # The rest of the line is Python's own message, so only its start is pinned
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ["analyze", str(path)] if kind == "problem" else ["verify", fixture_file("ex_feas"), str(path)]
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert err.startswith(f"error: malformed {kind} file: ") and err.count("\n") == 1
    assert out == ""


_RECEIVER_ONLY = "a receiver holds only 'demands' and 'side_info'"
_NOT_IDS = "demands and side_info must be lists of integer ids"
_NOT_VECTORS = "'vectors' must be a list of lists of integers"
_NOT_INTS = "code length, prime and vector entries must be integers"
_REPEATED_N = '{"n": 2, "receivers": [{"demands": [1, 2]}], "n": 3}'
_REPEATED_VECTORS = '{"length": 1, "prime": 2, "vectors": [[1]], "vectors": [[1], [1], [1], [1], [1], [1]]}'

# id: (kind, text, its one error line); a problem file runs through analyze,
# a code file through verify against p5
REFUSED = {
    # json.loads keeps the last value of a repeated key, which read the
    # repeated-n file as n = 3 and the repeated-vectors file as a length-1 code
    "repeated-n": ("problem", _REPEATED_N, "malformed problem file: repeated key 'n'"),
    "repeated-n-as-code": ("code", _REPEATED_N, "malformed code file: repeated key 'n'"),
    "repeated-vectors": ("code", _REPEATED_VECTORS, "malformed code file: repeated key 'vectors'"),
    "repeated-vectors-as-problem": ("problem", _REPEATED_VECTORS, "malformed problem file: repeated key 'vectors'"),
    "code-repeated-vectors": ("code", '{"length": 1, "prime": 2, "vectors": [[1], [1], [1], [1], [1]], "vectors": [[1]]}',
        "malformed code file: repeated key 'vectors'"),
    "demands-twice": ("problem", '{"n": 2, "receivers": [{"demands": [1], "demands": [1]}, {"demands": [2]}]}',
        "malformed problem file: repeated key 'demands'"),
    "escaped-demands-twice": ("problem", '{"n": 2, "receivers": [{"demands": [1], "\\u0064emands": [1]}, {"demands": [2]}]}',
        "malformed problem file: repeated key 'demands'"),
    # a string or object was iterated, so "12" was read as the ids '1' and
    # '2', and an object as its keys, and the error named those values; a
    # code file that is a list read "list indices must be integers"
    "string-demands": ("problem", '{"n": 2, "receivers": [{"demands": "12"}]}', f"receiver 1: {_NOT_IDS}"),
    "object-side-info": ("problem", '{"n": 2, "receivers": [{"demands": [1, 2], "side_info": {"1": 0}}]}',
        f"receiver 1: {_NOT_IDS}"),
    "object-vectors": ("code", '{"length": 1, "prime": 2, "vectors": {"a": [1]}}', _NOT_VECTORS),
    "string-vector": ("code", '{"length": 1, "prime": 2, "vectors": ["1", "1", "1", "1", "1", "1"]}', _NOT_VECTORS),
    "code-string-vectors": ("code", '{"length": 1, "prime": 2, "vectors": "11111"}', _NOT_VECTORS),
    "list-code-file": ("code", "[1]", "code file must be an object with 'length', 'prime' and 'vectors'"),
    # a string n and an empty receiver list are refused by Problem itself,
    # the one place that checks them, and a zero length by ScalarLinearCode
    "string-n": ("problem", '{"n": "2", "receivers": [{"demands": [1, 2]}]}', "n must be an integer, got '2'"),
    "no-receivers": ("problem", '{"n": 2, "receivers": []}', "need at least one receiver"),
    "zero-length": ("code", '{"length": 0, "prime": 2, "vectors": [[], [], [], [], [], []]}',
        "code length must be >= 1, got 0"),
    # an unknown key was dropped without a word: a misspelled side_info read
    # as no side information and exited 0; the top-level keys are checked
    # before the receivers
    "misspelled-side-info": ("problem", '{"n": 2, "receivers": [{"demands": [1, 2], "sideinfo": [1]}]}',
        f"receiver 1: unknown key 'sideinfo'; {_RECEIVER_ONLY}"),
    "second-receiver": ("problem", '{"n": 2, "receivers": [{"demands": [1, 2]}, {"side_info": [], "demands": [2], "x": 0}]}',
        f"receiver 2: unknown key 'x'; {_RECEIVER_ONLY}"),
    "no-demands": ("problem", '{"n": 2, "receivers": [{"sideinfo": [1]}]}',
        f"receiver 1: unknown key 'sideinfo'; {_RECEIVER_ONLY}"),
    "top-level": ("problem", '{"n": 2, "receivers": [{"demands": [1, 2], "sideinfo": [1]}], "comment": 1}',
        "problem file: unknown key 'comment'; it holds only 'n' and 'receivers'"),
    "unknown-top-key": ("problem", '{"n": 2, "receivers": [{"demands": [1, 2]}], "comment": 1}',
        "problem file: unknown key 'comment'; it holds only 'n' and 'receivers'"),
    "code-file": ("code", '{"length": 1, "prime": 2, "vectors": [[1], [1], [1], [1], [1], [1]], "seed": 0}',
        "code file: unknown key 'seed'; it holds only 'length', 'prime' and 'vectors'"),
    "code-unknown-key": ("code", '{"length": 1, "prime": 2, "vectors": [[1], [1], [1], [1], [1]], "comment": 1}',
        "code file: unknown key 'comment'; it holds only 'length', 'prime' and 'vectors'"),
    # ids that are not integers, or overlap; sorting the overlap {1, 'a'}
    # for its message was a TypeError traceback
    "side-overlap": ("problem", '{"n": 2, "receivers": [{"demands": [1], "side_info": [1]}]}',
        "receiver 1: demands overlap side info: [1]"),
    "float-id": ("problem", '{"n": 2, "receivers": [{"demands": [1.7, 2], "side_info": []}]}',
        "receiver 1: message id 1.7 is not an integer"),
    "mixed-overlap": ("problem", '{"n": 2, "receivers": [{"demands": [1, "a"], "side_info": [1, "a"]}, {"demands": [2]}]}',
        "receiver 1: message id 'a' is not an integer"),
    "null-side-id": ("problem", '{"n": 2, "receivers": [{"demands": [1], "side_info": [null]}, {"demands": [2]}]}',
        "receiver 1: message id None is not an integer"),
    "infinity-id": ("problem", '{"n": 2, "receivers": [{"demands": [1, Infinity]}, {"demands": [2]}]}',
        "receiver 1: message id inf is not an integer"),
    "code-float-entry": ("code", '{"length": 1, "prime": 2, "vectors": [[1], [1], [1], [1], [1.0]]}',
        f"{_NOT_INTS}, got 1.0"),
    "code-true-entry": ("code", '{"length": 1, "prime": 2, "vectors": [[1], [1], [1], [1], [true]]}',
        f"{_NOT_INTS}, got True"),
}


@pytest.mark.parametrize("kind, text, error", REFUSED.values(), ids=REFUSED.keys())
def test_refused_file_is_one_exact_error_line(fixture_file, tmp_path, capsys, kind, text, error):
    path = tmp_path / "refused.json"
    path.write_text(text)
    argv = ["analyze", str(path)] if kind == "problem" else ["verify", fixture_file("p5"), str(path)]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (3, "", f"error: {error}\n")


@pytest.mark.parametrize("command", ["analyze", "oracle", "verify-problem", "verify-code"])
def test_non_utf8_file_is_one_error_line_naming_it(fixture_file, tmp_path, capsys, command):
    # a UnicodeDecodeError is neither an OSError nor a ProblemError, and it
    # ended in a traceback with exit 1
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = {
        "analyze": ["analyze", str(bad)],
        "oracle": ["oracle", str(bad)],
        "verify-problem": ["verify", str(bad), str(bad)],
        "verify-code": ["verify", fixture_file("ex_feas"), str(bad)],
    }[command]
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert err.startswith(f"error: {bad}: not UTF-8") and err.count("\n") == 1
    assert out == ""


def test_gen_above_the_limit_is_usage_error(tmp_path, capsys):
    # it used to write a file that every other command refuses with exit 3
    path = tmp_path / "big.json"
    rc, out, err = run(capsys, "gen", "-n", str(MAX_MESSAGES + 1), "--density", "0", "-o", str(path))
    assert rc == 2
    assert out == "" and not path.exists()
    assert f"argument -n: n = {MAX_MESSAGES + 1} is above the limit of {MAX_MESSAGES} messages" in err
    rc, _, err = run(capsys, "gen", "-n", "0", "--density", "0", "-o", str(path))
    assert rc == 3
    assert err == "error: need n >= 1, got 0\n"


def test_gen_density_outside_the_unit_interval_exit_code(tmp_path, capsys):
    path = tmp_path / "dense.json"
    rc, out, err = run(capsys, "gen", "-n", "4", "--density", "1.5", "-o", str(path))
    assert (rc, out, err) == (3, "", "error: density must be in [0, 1], got 1.5\n")
    assert not path.exists()


def test_missing_file_exit_code(capsys):
    rc, _, _ = run(capsys, "analyze", "/nonexistent/problem.json")
    assert rc == 3


def test_usage_error_exit_code(capsys):
    rc, _, _ = run(capsys, "construct", "--rate")
    assert rc == 2


def test_allow_undemanded_flag(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text('{"n": 2, "receivers": [{"demands": [1], "side_info": []}]}')
    rc, _, _ = run(capsys, "analyze", str(path))
    assert rc == 3
    rc, _, _ = run(capsys, "analyze", str(path), "--allow-undemanded")
    assert rc == 0


class Obj(list):
    """A JSON object as its (key, value) pairs, so that a key may repeat."""


class Deep(NamedTuple):
    """A node wrapped in ``depth`` arrays, written as a string since ``_dumps`` recurses."""

    node: object
    depth: int


def _dumps(value) -> str:
    if isinstance(value, Deep):
        return "[" * value.depth + _dumps(value.node) + "]" * value.depth
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dumps, value)) + "]"
    return json.dumps(value)


def _slots(value):
    """(container, index, node) for every node below the root, depth first;
    an object's slot is the index of its (key, value) pair."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            child = item[1] if isinstance(value, Obj) else item
            yield value, i, child
            yield from _slots(child)


def _put(container, index, node):
    container[index] = (container[index][0], node) if isinstance(container, Obj) else node


_OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 7), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 6), max_size=3), st.builds(Obj), st.builds(lambda: Obj([("demands", [1])])),
)  # each object built afresh: a later mutation may change it in place


@st.composite
def _mutated_file(draw, base: str):
    """``base`` with one to three mutations: a dropped key, a repeated key,
    a value of another JSON type, a string for a list, a bool or float for
    an integer, or a node wrapped in more arrays than the recursion limit."""
    root = json.loads(base, object_pairs_hook=Obj)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(root))
        objects = [node for node in [root, *(node for _, _, node in slots)] if isinstance(node, Obj) and node]
        kind = draw(st.sampled_from(["drop", "repeat", "swap", "string", "id", "deep"]))
        if kind in ("drop", "repeat") and objects:
            obj = draw(st.sampled_from(objects))
            i = draw(st.integers(0, len(obj) - 1))
            if kind == "drop":
                del obj[i]
            else:
                key, value = obj[i]
                obj.insert(draw(st.integers(0, len(obj))), (key, draw(st.one_of(st.just(value), _OTHER_VALUES))))
        elif kind == "swap" and slots:
            container, i, _ = draw(st.sampled_from(slots))
            _put(container, i, draw(_OTHER_VALUES))
        elif kind == "string":
            lists = [(c, i, node) for c, i, node in slots if type(node) is list]
            if lists:
                container, i, node = draw(st.sampled_from(lists))
                _put(container, i, draw(st.sampled_from(["".join(map(str, node)), _dumps(node), ""])))
        elif kind == "id":
            ints = [(c, i, node) for c, i, node in slots if type(node) is int]
            if ints:
                container, i, node = draw(st.sampled_from(ints))
                _put(container, i, draw(st.sampled_from([True, False, float(node)])))
        elif kind == "deep" and slots:
            container, i, node = draw(st.sampled_from(slots))
            _put(container, i, Deep(node, sys.getrecursionlimit() + 1))
    return _dumps(root)


_CODES = [
    json.dumps({"length": length, "prime": prime, "vectors": [[(m * 7 + i) % prime for i in range(length)] for m in range(5)]})
    for length, prime in [(1, 2), (2, 3), (3, 5)]
]


@given(
    data=st.data(),
    base=st.sampled_from(
        [("problem", fixture_text(name)) for name in ("p5", "ex_inf", "ex_feas")]
        + [("problem", problem_to_json(random_problem(4, 0.4, single_unicast=False, seed=3)))]
        + [("code", text) for text in _CODES]
    ),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_files_exit_0_or_one_error_line(fixture_file, tmp_path, capsys, data, base):
    # every input file either parses exactly or is refused with exit 3 and
    # one "error:" line, never a traceback or another exit code; problem
    # files run through analyze, code files through verify against p5
    kind, text = base
    path = tmp_path / "mutated.json"
    path.write_text(data.draw(_mutated_file(text)))
    argv = ["analyze", str(path)] if kind == "problem" else ["verify", fixture_file("p5"), str(path)]
    rc, out, err = run(capsys, *argv)
    if rc == 0:
        assert err == ""
    else:
        assert rc == 3, err
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
