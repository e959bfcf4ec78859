"""Command-line front end.

Exit codes: 0 command ran (any verdict), 2 usage error, 3 invalid input,
an oracle cap exceeded (including an exhausted node budget, whose answer
is unknown), a JSON report past ``JSON_TRIANGLE_LIMIT`` triangles or an
input too large for the memory available (a huge ``n`` under
``--allow-undemanded``), 4 construction precondition unmet, 5 random
attempts exhausted.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import codec, feasibility, linalg, oracle, problem, structure

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_PRECONDITION = 4
EXIT_EXHAUSTED = 5


def _read_text(path: str, error: type[Exception]) -> str:
    """The text of the file at ``path``; one that is not UTF-8 raises
    ``error`` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from exc


def _read_problem(path: str, allow_undemanded: bool) -> problem.Problem:
    return problem.parse_problem(_read_text(path, problem.ProblemError), allow_undemanded=allow_undemanded)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# The most triangles ``analyze --format json`` lists.  The JSON report
# writes every triangle, about 73 bytes of output each, and holds them all
# in memory first: at n = 160, density 0.6, seed 1, its 638,420 triangles
# take 3.0 s and 319 MB, and at the message cap one receiver demanding
# every message has 178 million.  Past the limit the command exits 3 before
# it lists any; the text report lists none and is not limited.
JSON_TRIANGLE_LIMIT = 640_000


def cmd_analyze(args: argparse.Namespace) -> int:
    p = _read_problem(args.problem, args.allow_undemanded)
    if args.format == "json" and structure.triangles_past(p, JSON_TRIANGLE_LIMIT):
        raise problem.ProblemError(
            f"the JSON report would list more than {JSON_TRIANGLE_LIMIT} triangles; the text report lists none"
        )
    report = feasibility.analyze(p)
    if args.emit_graph:
        _write(args.emit_graph, structure.to_dot(p))
    if args.format == "json":
        print(json.dumps(feasibility.report_to_dict(report), sort_keys=True, indent=2))
    else:
        print(feasibility.render_report(report), end="")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    p = _read_problem(args.problem, args.allow_undemanded)
    # the code's checks of its field: the 64-bit bound goes first, since
    # Miller-Rabin runs for tens of seconds on a prime of thousands of digits
    codec.ScalarLinearCode(1, args.prime, ())
    seed = args.seed if args.seed is not None else random.SystemRandom().randrange(2**32)
    rng = random.Random(seed)
    if args.rate == "1":
        if not feasibility.check_rate_one(p).feasible:
            raise codec.PreconditionError("rate 1 infeasible: problem has conflicts")
        vectors = tuple((1,) for _ in range(p.n))
        code = codec.ScalarLinearCode(length=1, prime=args.prime, vectors=vectors)
        attempts = 1
    elif args.rate == "1/2":
        code, result = codec.construct_rate_half(p, args.prime, rng, args.max_attempts)
        attempts = result.attempts_used
    else:
        code, result = codec.construct_rate_third(p, args.prime, rng, args.max_attempts)
        attempts = result.attempts_used
    _write(args.output, codec.code_to_json(code))
    print(f"seed: {seed}", file=sys.stderr)
    print(f"attempts_used: {attempts}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    p = _read_problem(args.problem, args.allow_undemanded)
    code = codec.code_from_json(_read_text(args.code, codec.CodecError))
    result = codec.verify(p, code)
    if result.ok:
        print(f"OK ({p.t}/{p.t} receivers)")
    else:
        for m in result.zero_vector_messages:
            print(f"VIOLATION: message {m} is assigned the zero vector")
        for j, k in result.violations:
            print(f"VIOLATION: receiver {j}, message {k}: vector lies in the interfering span")
        bad = {j for j, _ in result.violations}
        print(f"FAILED ({p.t - len(bad)}/{p.t} receivers)")
    return EXIT_OK


def _shown(result: oracle.OracleResult, max_len: int) -> str:
    return str(result.min_length) if result.min_length is not None else f">{max_len}"


def cmd_oracle(args: argparse.Namespace) -> int:
    p = _read_problem(args.problem, args.allow_undemanded)
    for q in args.q:  # refuse every field before searching any
        oracle.check_caps(q, args.max_len)
    results = []  # every search ends before any output on stdout
    for q in args.q:
        try:
            results.append(oracle.min_length(p, q, l_max=args.max_len, max_nodes=oracle.DEFAULT_NODE_CAP))
        except oracle.OracleBudgetError:
            # the budget is per field: keep the answers of the fields that finished
            for done in results:
                print(f"q={done.prime}: min length {_shown(done, args.max_len)}, "
                      f"nodes explored {done.nodes_explored}", file=sys.stderr)
            raise
    summary = []
    for q, result in zip(args.q, results):
        summary.append(f"{_shown(result, args.max_len)} (q={q})")
        print(f"q={q}: nodes explored {result.nodes_explored}", file=sys.stderr)
    witnesses = [result.witness for result in results if result.witness is not None]
    if witnesses and args.output:
        # min keeps the first of equal lengths: ties go to the field listed first
        _write(args.output, codec.code_to_json(min(witnesses, key=lambda code: code.length)))
    print("min length: " + ", ".join(summary))
    print(
        "note: lengths are field-relative; absence over the tested fields is not "
        "unconditional infeasibility"
    )
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    p = problem.random_problem(
        args.n, args.density, single_unicast=not args.general, seed=args.seed
    )
    _write(args.output, problem.problem_to_json(p))
    return EXIT_OK


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _field_sizes(text: str) -> tuple[int, ...]:
    sizes = tuple(map(_integer, text.split(",")))
    if len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError(f"each field size may appear once, got {text!r}")
    return sizes


def _attempts(text: str) -> int:
    if (attempts := _integer(text)) < 1:
        raise argparse.ArgumentTypeError(f"need at least one attempt, got {attempts}")
    return attempts


def _message_count(text: str) -> int:
    if (n := _integer(text)) > problem.MAX_MESSAGES:
        raise argparse.ArgumentTypeError(f"n = {n} is above the limit of {problem.MAX_MESSAGES} messages")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indexcode",
        description="Analyze, construct and verify scalar linear index codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--allow-undemanded", action="store_true", help="accept problems with undemanded messages")

    sp = sub.add_parser("analyze", help="feasibility report for a problem file")
    sp.add_argument("problem")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--emit-graph", metavar="PATH", help="write a dot rendering of the structure")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("construct", help="build a code at a target rate")
    sp.add_argument("problem")
    sp.add_argument("--rate", choices=["1", "1/2", "1/3"], required=True)
    sp.add_argument("--prime", type=int, default=linalg.DEFAULT_PRIME)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--max-attempts", type=_attempts, default=8)
    sp.add_argument("-o", "--output", default="-")
    common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("verify", help="check a code file against a problem")
    sp.add_argument("problem")
    sp.add_argument("code")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="exhaustive minimum code length over small fields")
    sp.add_argument("problem")
    sp.add_argument("--q", type=_field_sizes, default="2,3", help="comma-separated prime field sizes")
    sp.add_argument("--max-len", type=int, default=oracle.DEFAULT_L_CAP)
    sp.add_argument("-o", "--output", default=None, help="write the smallest witness found")
    common(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("gen", help="generate a seeded random problem")
    sp.add_argument("-n", type=_message_count, required=True)
    sp.add_argument("--density", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--general", action="store_true", help="allow multi-demand receivers")
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except codec.AttemptsExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except codec.PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (problem.ProblemError, codec.CodecError, oracle.OracleCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError:
        # the failed allocation is freed as the exception unwinds, so printing still works
        print("error: out of memory: the input is too large for this command", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
