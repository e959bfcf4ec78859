import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from indexcode import linalg, oracle
from indexcode.cli import JSON_TRIANGLE_LIMIT, main
from indexcode.fixtures import fixture_text
from indexcode.problem import MAX_MESSAGES, parse_problem, problem_to_json, random_problem

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_analyze_ex_inf(fixture_file, capsys):
    rc, out, _ = run(capsys, "analyze", fixture_file("ex_inf"))
    assert rc == 0
    assert "rate 1/3: infeasible" in out
    assert "type-2 set {1, 2, 3, 4}" in out
    assert "{1, 3}" in out


def test_analyze_ex_feas_undetermined(fixture_file, capsys):
    rc, out, _ = run(capsys, "analyze", fixture_file("ex_feas"))
    assert rc == 0
    assert "undetermined" in out
    assert "conjecture predicts feasible" in out


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


def test_analyze_json_deterministic(fixture_file, capsys):
    path = fixture_file("ex_inf")
    rc1, out1, _ = run(capsys, "analyze", path, "--format", "json")
    rc2, out2, _ = run(capsys, "analyze", path, "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1)["rate_1_3"]["status"] == "infeasible-dirty-type2"


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
    # all must not be reported as a field that is too small
    path = tmp_path / "half.json"
    path.write_text(problem_to_json(random_problem(8, 0.9, seed=0)))
    for rate in ("1/2", "1/3"):
        rc, out, err = run(capsys, "construct", str(path), "--rate", rate, f"--max-attempts={attempts}")
        assert rc == 2
        assert out == ""
        assert "--max-attempts" in err
        assert "too small" not in err


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


def test_bad_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text in (
        '{"n": 2, "receivers": [{"demands": [1], "side_info": [1]}]}',
        '{"n": 2, "receivers": [{"demands": [1.7, 2], "side_info": []}]}',
        # sorting the overlap {1, 'a'} for its message was a TypeError traceback
        '{"n": 2, "receivers": [{"demands": [1, "a"], "side_info": [1, "a"]}, {"demands": [2]}]}',
    ):
        path.write_text(text)
        rc, _, err = run(capsys, "analyze", str(path))
        assert rc == 3
        assert "error" in err


@pytest.mark.parametrize(
    "text",
    [
        "[" * 200_000,
        '{"n": %s}' % ("9" * 5000),
        '{"n": 2, "receivers": [{"demands": [1, 2]}], "n": 3}',
        '{"length": 1, "prime": 2, "vectors": [[1]], "vectors": [[1], [1], [1], [1], [1], [1]]}',
    ],
    ids=["deep", "huge-int", "repeated-n", "repeated-vectors"],
)
@pytest.mark.parametrize("kind", ["problem", "code"])
def test_undecodable_json_is_one_error_line(fixture_file, tmp_path, capsys, kind, text):
    # json.loads raises RecursionError on nesting past the recursion limit
    # and, on an integer literal past Python's 4,300-digit limit, a
    # ValueError that is not a JSONDecodeError; both ended in a traceback.
    # It keeps the last value of a repeated key, which read the repeated-n
    # file as n = 3 and the repeated-vectors file as a length-1 code for
    # ex_feas
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ["analyze", str(path)] if kind == "problem" else ["verify", fixture_file("ex_feas"), str(path)]
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert err.startswith(f"error: malformed {kind} file: ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "kind, text, error",
    [
        ("problem", '{"n": 2, "receivers": [{"demands": "12"}]}',
         "receiver 1: demands and side_info must be lists of integer ids"),
        ("problem", '{"n": 2, "receivers": [{"demands": [1, 2], "side_info": {"1": 0}}]}',
         "receiver 1: demands and side_info must be lists of integer ids"),
        ("code", '{"length": 1, "prime": 2, "vectors": {"a": [1]}}', "'vectors' must be a list of lists of integers"),
        ("code", '{"length": 1, "prime": 2, "vectors": ["1", "1", "1", "1", "1", "1"]}',
         "'vectors' must be a list of lists of integers"),
        ("code", "[1]", "code file must be an object with 'length', 'prime' and 'vectors'"),
        ("problem", '{"n": "2", "receivers": [{"demands": [1, 2]}]}', "n must be an integer, got '2'"),
        ("problem", '{"n": 2, "receivers": []}', "need at least one receiver"),
    ],
    ids=["string-demands", "object-side-info", "object-vectors", "string-vector", "list-code-file",
         "string-n", "no-receivers"],
)
def test_non_list_value_is_one_error_line(fixture_file, tmp_path, capsys, kind, text, error):
    # a string or object was iterated, so "12" was read as the ids '1' and
    # '2', and an object as its keys, and the error named those values; a
    # code file that is a list read "list indices must be integers".  A
    # string n and an empty receiver list are refused by Problem itself,
    # the one place that checks them
    path = tmp_path / "not-a-list.json"
    path.write_text(text)
    argv = ["analyze", str(path)] if kind == "problem" else ["verify", fixture_file("ex_feas"), str(path)]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (3, "", f"error: {error}\n")


_RECEIVER_ONLY = "a receiver holds only 'demands' and 'side_info'"


@pytest.mark.parametrize(
    "kind, text, error",
    [
        ("problem", '{"n": 2, "receivers": [{"demands": [1, 2], "sideinfo": [1]}]}',
         f"receiver 1: unknown key 'sideinfo'; {_RECEIVER_ONLY}"),
        ("problem", '{"n": 2, "receivers": [{"demands": [1, 2]}, {"side_info": [], "demands": [2], "x": 0}]}',
         f"receiver 2: unknown key 'x'; {_RECEIVER_ONLY}"),
        ("problem", '{"n": 2, "receivers": [{"sideinfo": [1]}]}', f"receiver 1: unknown key 'sideinfo'; {_RECEIVER_ONLY}"),
        ("problem", '{"n": 2, "receivers": [{"demands": [1, 2], "sideinfo": [1]}], "comment": 1}',
         "problem file: unknown key 'comment'; it holds only 'n' and 'receivers'"),
        ("code", '{"length": 1, "prime": 2, "vectors": [[1], [1], [1], [1], [1], [1]], "seed": 0}',
         "code file: unknown key 'seed'; it holds only 'length', 'prime' and 'vectors'"),
    ],
    ids=["misspelled-side-info", "second-receiver", "no-demands", "top-level", "code-file"],
)
def test_unknown_key_is_one_error_line(fixture_file, tmp_path, capsys, kind, text, error):
    # an unknown key was dropped without a word: a misspelled side_info read
    # as no side information and exited 0; the top-level keys are checked
    # before the receivers
    path = tmp_path / "unknown-key.json"
    path.write_text(text)
    argv = ["analyze", str(path)] if kind == "problem" else ["verify", fixture_file("ex_feas"), str(path)]
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


def run_capped(limit, *args):
    """The CLI in a subprocess whose address space is capped at ``limit`` bytes."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "indexcode.cli", *args],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=cap_memory,
    )


@pytest.mark.parametrize(
    "demand, error",
    [
        (1, "messages demanded by no receiver: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 999999989 more, 999999999 in all"),
        (0, "receiver 1: message id 0 out of range [1..1000000000]"),
    ],
    ids=["undemanded", "out-of-range"],
)
def test_huge_n_with_few_ids_is_rejected_in_bounded_memory(tmp_path, demand, error):
    # n = 10**9 and one demand: the file must be refused before any set of
    # size n exists, which under a 1 GB address-space limit ended in a
    # MemoryError traceback
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1000000000, "receivers": [{"demands": [%d], "side_info": []}]}' % demand)
    proc = run_capped(1 << 30, "analyze", str(path))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"error: {error}\n"


@pytest.mark.parametrize("n", [MAX_MESSAGES + 1, 1000000000])
def test_n_above_the_limit_is_refused_in_bounded_memory(tmp_path, n):
    # --allow-undemanded lets a huge n pass the id and demand checks; the
    # limit refuses it before anything of size n is built
    path = tmp_path / "huge.json"
    path.write_text('{"n": %d, "receivers": [{"demands": [1], "side_info": []}]}' % n)
    proc = run_capped(1 << 30, "analyze", str(path), "--allow-undemanded")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"error: n = {n} is above the limit of {MAX_MESSAGES} messages\n"
    assert proc.stdout == ""


def test_n_at_the_limit_is_analyzed(tmp_path):
    path = tmp_path / "limit.json"
    path.write_text('{"n": %d, "receivers": [{"demands": [1], "side_info": []}]}' % MAX_MESSAGES)
    proc = run_capped(1 << 30, "analyze", str(path), "--allow-undemanded")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rate 1:   infeasible (conflict {1, 2})\n")


def test_text_report_at_the_limit_fits_in_64_mb(tmp_path):
    # one receiver per message and no side information: every pair is a
    # conflict, and the report used to hold every restricted internal
    # conflict, 523,776 of them, which ran out of memory under this limit
    path = str(tmp_path / "cap.json")
    assert main(["gen", "-n", str(MAX_MESSAGES), "--density", "0", "--seed", "0", "-o", path]) == 0
    proc = run_capped(1 << 26, "analyze", path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "rate 1:   infeasible (conflict {1, 2})"
    assert lines[1].startswith("rate 1/2: infeasible (internal conflict {1, 2} inside alignment set {1, 2, 3, ")
    assert lines[2].startswith("rate 1/3: infeasible (type-2 set {1, 2, 3, ")
    assert lines[2].endswith(", 1024} has restricted internal conflict {1, 2})")


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


def test_out_of_memory_is_one_error_line(tmp_path):
    # two receivers without side information at n = 802: the JSON report
    # lists 2 * C(800, 2) = 639,600 triangles, just under the CLI's limit,
    # in about 335 MB, so a 64 MB address space runs out; that is exit 3 and
    # one error line, where it used to be a MemoryError traceback
    path = tmp_path / "triangles.json"
    path.write_text('{"n": 802, "receivers": [{"demands": [1]}, {"demands": [2]}]}')
    proc = run_capped(1 << 26, "analyze", str(path), "--allow-undemanded", "--format", "json")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "error: out of memory: the input is too large for this command\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("receivers", ["all-demands", "two"])
def test_json_report_past_the_triangle_limit_is_refused_in_64_mb(tmp_path, receivers):
    # at the message cap, one receiver demanding every message has 178
    # million triangles and two receivers demanding 1 and 2 have 1,043,462;
    # the JSON report of the first outgrew 7 GB, and that of the second took
    # 5-11 s and 540 MB.  The CLI counts them first and refuses both
    path = tmp_path / "cap.json"
    demands = {"all-demands": [list(range(1, MAX_MESSAGES + 1))], "two": [[1], [2]]}[receivers]
    path.write_text(json.dumps({"n": MAX_MESSAGES, "receivers": [{"demands": d} for d in demands]}))
    proc = run_capped(1 << 26, "analyze", str(path), "--allow-undemanded", "--format", "json")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        f"error: the JSON report would list more than {JSON_TRIANGLE_LIMIT} triangles; the text report lists none\n"
    )
    assert proc.stdout == ""


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
