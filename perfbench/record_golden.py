"""Re-record the golden tables the benchmark checks outputs against.

    python3 perfbench/record_golden.py

Records, for every base problem of ``analyze-large``, the SHA-256 of its
``analyze --format json`` report, and for every base problem of
``oracle-small`` its minimum code lengths over GF(2) and GF(3) up to
length 3.  Run it only when a change is meant to alter those outputs, and
say so in the change; the tables are what keeps the report byte-stable.
"""

from __future__ import annotations

import json
import platform

from harness import import_library, use_checkout
from workloads import GOLDEN_DIR, AnalyzeLarge, OracleSmall, analyze_op, oracle_op, report_digest


def write(name: str, description: str, entries: dict) -> None:
    """One entry per line, so a re-recording diffs line by line."""
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(entries.items())]
    with open(GOLDEN_DIR / name, "w", encoding="utf-8") as fh:
        fh.write(f'{{"description": {json.dumps(description)},\n')
        fh.write(f'"python": {json.dumps(platform.python_version())},\n')
        fh.write('"entries": {\n' + ",\n".join(lines) + "\n}}\n")


def main() -> None:
    use_checkout()
    lib = import_library()
    text = lib.problem.problem_to_json
    write(
        "analyze_large.json",
        "SHA-256 of json.dumps(report_to_dict(analyze(p)), sort_keys=True, indent=2) per base problem",
        {key: report_digest(analyze_op(lib, text(p))[1]) for key, p in AnalyzeLarge(golden={}).base(lib)},
    )
    write(
        "oracle_small.json",
        "minimum code length over GF(2) and GF(3) with l_max=3 per base problem; null means none up to 3",
        {
            key: [r.min_length for r in oracle_op(lib, text(p))[1]]
            for key, p in OracleSmall(golden={}).base(lib)
        },
    )


if __name__ == "__main__":
    main()
