"""The one record of every pinned CLI run; CI checks them through tier-1.

Each row runs its ``setup`` commands in process, which must exit 0, then
its command as ``python -m indexcode.cli`` in a subprocess, in a fresh
directory holding ``p5.json`` and the ``files`` of the row.  The
subprocess is killed past the row's ``timeout_s`` seconds and its address
space capped at ``memory_mb`` MB, when the row gives them; every capped
CLI run of the tests is a row here.  The row pins the exit code,
the SHA-256 of stdout (or of the file the command writes), the lines
stderr must hold, and, for a code, the problem file it must pass
``verify`` against.  A row that exits 3 or 4 pins stderr exactly: its one
``error:`` line.  An empty stdout has the digest ``EMPTY``.

Beyond tier-1, the workflow runs only the acceptance suite for its ten
``PASS criterion-N`` lines, the two benchmark steps, and the installed
``indexcode`` script once on ``p5.json``.
"""

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from indexcode.cli import main
from indexcode.fixtures import fixture_text

SRC = Path(__file__).resolve().parent.parent / "src"
EMPTY = hashlib.sha256(b"").hexdigest()


class Row(NamedTuple):
    setup: tuple[tuple[str, ...], ...]
    argv: tuple[str, ...]
    exit_code: int
    sha256: str
    digested: str = "-"  # "-" for stdout, else the file the command writes
    stderr: tuple[str, ...] = ()
    verify_against: str | None = None
    files: tuple[tuple[str, str], ...] = ()  # (name, text) written before setup
    timeout_s: float | None = None
    memory_mb: int | None = None


def gen(n, density, seed, out, *extra):
    return ("gen", "-n", str(n), "--density", str(density), "--seed", str(seed), "-o", out, *extra)


def one_demand(n, demand=1):
    """A problem file of n messages whose one receiver demands ``demand``."""
    return '{"n": %d, "receivers": [{"demands": [%d], "side_info": []}]}' % (n, demand)


CAP = gen(1024, 0, 0, "cap.json")  # one receiver per message, no side information
ALL_DEMANDS = '{"n": 1024, "receivers": [{"demands": [%s]}]}' % ", ".join(map(str, range(1, 1025)))
TWO = '{"n": 1024, "receivers": [{"demands": [1]}, {"demands": [2]}]}'  # receivers demanding 1 and 2
JSON_LIMIT_ERROR = "error: the JSON report would list more than 640000 triangles; the text report lists none"

ROWS = {
    "gen-n96": Row(
        (), ("gen", "-n", "96", "--density", "0.5", "--seed", "1"), 0,
        "c96809db077cc52494c62b37b1b54b7240345548b2602b75da177470fdf510f0",
    ),
    # 5.2 MB, one receiver per line, from sets that share one int object per
    # id; one id per line, or sets holding their own int objects, ran out of
    # memory under this limit
    "gen-cap-dense": Row(
        (), ("gen", "-n", "1024", "--density", "1", "--seed", "0"), 0,
        "d21785216c03218451e41acef825437c6af0f9535c7bbd099201fecd701d53f9", memory_mb=64,
    ),
    # about 10 MB of JSON from 140,615 triangles
    "analyze-n96-json": Row(
        (gen(96, 0.5, 1, "n96.json"),), ("analyze", "n96.json", "--format", "json"), 0,
        "2f57d555dc140947f62131d30eaaed5913e1269a57075bca42d121d3fbfcaf7f", timeout_s=60,
    ),
    # 638,420 triangles, none of which the text report lists
    "analyze-n160-text": Row(
        (gen(160, 0.6, 1, "n160.json"),), ("analyze", "n160.json"), 0,
        "0eafcf759bf7c23b449e9cda87aab7f1bba22adf45d712238809c45d74bd0ed4", timeout_s=20,
    ),
    # every pair is a conflict; the report keeps one restricted internal
    # conflict, where holding all 523,776 ran out of memory under this limit
    "analyze-cap-text": Row(
        (CAP,), ("analyze", "cap.json"), 0,
        "961de14737a935c90a11c0663a26002c9e31701edabf02e3642fde721ccad93f", memory_mb=64,
    ),
    # the JSON report would list all 178 million triangles; they are counted
    # first and refused past the limit of 640,000
    "analyze-cap-json-refused": Row(
        (CAP,), ("analyze", "cap.json", "--format", "json"), 3, EMPTY,
        stderr=(JSON_LIMIT_ERROR,), memory_mb=64,
    ),
    # 158,058 demands on 1,024 receiver blocks: the text report of its four
    # lines takes 1.2-1.5 s at a 192 MB peak and runs in about 187 MB of
    # address space (2-core x86-64 VM, Python 3.11.7)
    "analyze-general-cap-text": Row(
        (gen(1024, 0.99, 1, "g1024.json", "--general"),), ("analyze", "g1024.json"), 0,
        "961de14737a935c90a11c0663a26002c9e31701edabf02e3642fde721ccad93f", timeout_s=20, memory_mb=320,
    ),
    # 1,057,610 bytes of JSON; its type-2 sets are dirty, and the
    # acyclic-quadruple search finds none after trying every candidate:
    # 1.3-1.5 s at a 96 MB peak, in about 94 MB of address space
    "analyze-unicast-cap-json": Row(
        (gen(1024, 0.99, 1, "u1024.json"),), ("analyze", "u1024.json", "--format", "json"), 0,
        "da5fd9a34c28fb87833dafadd4b74b3ea3cfd722aef70561327d1938894bf6f0", timeout_s=20, memory_mb=192,
    ),
    # 37 type-2 sets from 769 triangles
    "analyze-n64-json": Row(
        (gen(64, 0.9, 0, "n64.json"),), ("analyze", "n64.json", "--format", "json"), 0,
        "f321fbea40f669e42b9b11fa575140c675d644e94cd822bedb08d1afa9848570", timeout_s=60,
    ),
    "analyze-n9-json-tied": Row(
        (gen(9, 0.7, 7, "n9.json"),), ("analyze", "n9.json", "--format", "json"), 0,
        "f51dc91a19efb15ca73f7e695d85f60937b95dcf1753c2560ac06d4307c5fa11",
    ),
    "construct-p5-gf3": Row(
        (), ("construct", "p5.json", "--rate", "1/3", "--prime", "3", "--seed", "0"), 0,
        "01b07f484e8554c709425923dbe6e24f6bf2622318eefd158def79e1badc9854",
        stderr=("seed: 0", "attempts_used: 7"), verify_against="p5.json",
    ),
    "construct-p5-gf2-exhausted": Row(
        (), ("construct", "p5.json", "--rate", "1/3", "--prime", "2", "--seed", "1"), 5, EMPTY,
        stderr=(
            "error: no verified length-3 code in 8 attempts over GF(2); "
            "a larger prime or more attempts may find one",
        ),
    ),
    # the same command with one attempt more: the default budget binds at 8 of 9
    "construct-p5-gf2-nine-attempts": Row(
        (), ("construct", "p5.json", "--rate", "1/3", "--prime", "2", "--seed", "1", "--max-attempts", "9"), 0,
        "bcab19e3c2b4e0090b307f19afadb57617a703cfb3a54774beabdf3ea5076440",
        stderr=("seed: 1", "attempts_used: 9"), verify_against="p5.json",
    ),
    # one alignment set of all 1,024 messages, which the error names by its
    # first ten ids and the count
    "construct-cap-half-precondition": Row(
        (CAP,), ("construct", "cap.json", "--rate", "1/2"), 4, EMPTY,
        stderr=("error: rate 1/2 infeasible: internal conflict (1, 2) inside alignment set "
                "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1014 more, 1024 in all",),
        memory_mb=64,
    ),
    "construct-n40-half": Row(
        (gen(40, 0.97, 1, "n40.json"),), ("construct", "n40.json", "--rate", "1/2", "--seed", "0"), 0,
        "a5a9230336f3f5a34e12c45686a0c8335825adfe0d78476d3ca83efc50236d3f",
        stderr=("seed: 0", "attempts_used: 1"), verify_against="n40.json",
    ),
    "dot-n24": Row(
        (gen(24, 0.5, 3, "n24.json", "--general"),), ("analyze", "n24.json", "--emit-graph", "n24.dot"), 0,
        "7d893fc4fdb64e0b58458499f7c2e4be3af6b85f4ab53b0a351acee6d5fbfa0e", digested="n24.dot",
    ),
    # 40.7 MB of dot, 523,776 alignment edges and 1,024 hubs of 1,023
    # members each, written a hub at a time
    "dot-cap": Row(
        (CAP,), ("analyze", "cap.json", "--emit-graph", "cap.dot"), 0,
        "7f933cd10b5c82ffb4d821be00fb86929725b6b16f9bb4e912213ba960c51f49", digested="cap.dot",
        memory_mb=64,
    ),
    "oracle-n10-node-counts": Row(
        (gen(10, 0.5, 4, "n10-slowest.json"),), ("oracle", "n10-slowest.json"), 0,
        "5f4757287acfd6cd1f9da793b4ad0869c387b61f805c1d170f4ac6bc0da2e36a",
        stderr=("q=2: nodes explored 134", "q=3: nodes explored 510"), timeout_s=60,
    ),
    "oracle-n32-budget": Row(
        (gen(32, 0.85, 4, "n32.json"),), ("oracle", "n32.json", "--q", "3", "--max-len", "3"), 3, EMPTY,
        stderr=("error: the search for the minimum code length over GF(3) exceeded its budget "
                "of 10000000 nodes at L=3",), timeout_s=60,
    ),
    "oracle-n10-shortest-witness": Row(
        (gen(10, 0.85, 21, "n10-shortest.json"),),
        ("oracle", "n10-shortest.json", "--q", "3,2", "-o", "witness.json"), 0,
        "0f6ab820666efc7492a9fe1a6fea402a71a85ac0f54632965b3c3085471ff705", digested="witness.json",
        stderr=("q=3: nodes explored 35", "q=2: nodes explored 45"), verify_against="n10-shortest.json",
    ),
    # the plan's trie holds n(n-1)/2 + 1 = 523,777 nodes; the search explores one
    "oracle-cap-plan": Row(
        (CAP,), ("oracle", "cap.json", "--q", "2", "--max-len", "1"), 0,
        "122ec1fdda21a171c77b6ba6fbe1f7bc559143c99a845278f944529f7ecaa09c",
        stderr=("q=2: nodes explored 1",), timeout_s=10,
    ),
    # gen refuses an n above the limit, so the file is written directly,
    # every message demanded
    "analyze-n-above-limit": Row(
        (), ("analyze", "n1025.json"), 3, EMPTY,
        stderr=("error: n = 1025 is above the limit of 1024 messages",),
        files=(("n1025.json", '{"n": 1025, "receivers": [{"demands": [%s]}]}' % ", ".join(map(str, range(1, 1026)))),),
    ),
    # n = 10**9 and one demand: the file is refused before any set of size n
    # exists, where under this limit it ended in a MemoryError traceback
    "analyze-huge-n-undemanded": Row(
        (), ("analyze", "huge.json"), 3, EMPTY,
        stderr=("error: messages demanded by no receiver: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] "
                "and 999999989 more, 999999999 in all",),
        files=(("huge.json", one_demand(10**9)),), timeout_s=60, memory_mb=1024,
    ),
    "analyze-huge-n-out-of-range": Row(
        (), ("analyze", "huge.json"), 3, EMPTY,
        stderr=("error: receiver 1: message id 0 out of range [1..1000000000]",),
        files=(("huge.json", one_demand(10**9, 0)),), timeout_s=60, memory_mb=1024,
    ),
    # --allow-undemanded lets a huge n pass the id and demand checks; the
    # limit refuses it before anything of size n is built
    "analyze-n1025-undemanded": Row(
        (), ("analyze", "n1025.json", "--allow-undemanded"), 3, EMPTY,
        stderr=("error: n = 1025 is above the limit of 1024 messages",),
        files=(("n1025.json", one_demand(1025)),), timeout_s=60, memory_mb=1024,
    ),
    "analyze-huge-n-undemanded-allowed": Row(
        (), ("analyze", "huge.json", "--allow-undemanded"), 3, EMPTY,
        stderr=("error: n = 1000000000 is above the limit of 1024 messages",),
        files=(("huge.json", one_demand(10**9)),), timeout_s=60, memory_mb=1024,
    ),
    "analyze-n-at-limit": Row(
        (), ("analyze", "n1024.json", "--allow-undemanded"), 0,
        "a58857405176bbece721e1af6c90cf98045e9a69321a8a2959e3954953d1ce73",
        files=(("n1024.json", one_demand(1024)),), timeout_s=60, memory_mb=1024,
    ),
    # two receivers without side information at n = 802: the JSON report
    # lists 2 * C(800, 2) = 639,600 triangles, just under the limit, in about
    # 335 MB, so this address space runs out; that is one error line, where
    # it used to be a MemoryError traceback
    "analyze-n802-json-out-of-memory": Row(
        (), ("analyze", "n802.json", "--allow-undemanded", "--format", "json"), 3, EMPTY,
        stderr=("error: out of memory: the input is too large for this command",),
        files=(("n802.json", '{"n": 802, "receivers": [{"demands": [1]}, {"demands": [2]}]}'),),
        timeout_s=60, memory_mb=64,
    ),
    # one receiver demanding every message at the cap: one outside set with
    # 1,024 demands against it, read as one receiver block; the same report
    # as cap.json, whose receivers form the same block
    "analyze-all-demands-text": Row(
        (), ("analyze", "all.json"), 0,
        "961de14737a935c90a11c0663a26002c9e31701edabf02e3642fde721ccad93f",
        files=(("all.json", ALL_DEMANDS),), memory_mb=64,
    ),
    # at the message cap, one receiver demanding every message has 178
    # million triangles and two receivers demanding 1 and 2 have 1,043,462;
    # the JSON report of the first outgrew 7 GB, and that of the second took
    # 5-11 s and 540 MB.  The CLI counts them first and refuses both
    "analyze-all-demands-json-refused": Row(
        (), ("analyze", "all.json", "--allow-undemanded", "--format", "json"), 3, EMPTY,
        stderr=(JSON_LIMIT_ERROR,),
        files=(("all.json", ALL_DEMANDS),), timeout_s=60, memory_mb=64,
    ),
    "analyze-two-receivers-json-refused": Row(
        (), ("analyze", "two.json", "--allow-undemanded", "--format", "json"), 3, EMPTY,
        stderr=(JSON_LIMIT_ERROR,),
        files=(("two.json", TWO),),
        timeout_s=60, memory_mb=64,
    ),
    # groups of two and three demands at the cap, which are no receiver
    # blocks: their sets are walked one by one
    "analyze-two-receivers-text": Row(
        (), ("analyze", "two.json", "--allow-undemanded"), 0,
        "e61a5e3a3d8da9f9cbad6dc6cab8a46046e432e9fc01363c882ad6a94432613a",
        files=(("two.json", TWO),), memory_mb=64,
    ),
    "analyze-three-demands-text": Row(
        (), ("analyze", "three.json", "--allow-undemanded"), 0,
        "961de14737a935c90a11c0663a26002c9e31701edabf02e3642fde721ccad93f",
        files=(("three.json", '{"n": 1024, "receivers": [{"demands": [1, 2, 3]}]}'),), memory_mb=64,
    ),
}


def run_capped(*args, memory_mb, timeout_s, cwd):
    """The CLI in a subprocess, killed past ``timeout_s`` seconds, whose
    address space is capped at ``memory_mb`` MB; None lifts either bound."""

    def cap_memory():
        if memory_mb is not None:
            resource.setrlimit(resource.RLIMIT_AS, (memory_mb << 20, memory_mb << 20))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "indexcode.cli", *args],
        capture_output=True, text=True, timeout=timeout_s, env=env, preexec_fn=cap_memory, cwd=cwd,
    )


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_pinned_cli_output(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p5.json").write_text(fixture_text("p5"))
    for name, text in row.files:
        (tmp_path / name).write_text(text)
    for argv in row.setup:
        assert main(list(argv)) == 0
    proc = run_capped(*row.argv, memory_mb=row.memory_mb, timeout_s=row.timeout_s, cwd=tmp_path)
    out, err = proc.stdout, proc.stderr
    assert proc.returncode == row.exit_code, err
    digested = out.encode() if row.digested == "-" else (tmp_path / row.digested).read_bytes()
    assert hashlib.sha256(digested).hexdigest() == row.sha256
    assert set(row.stderr) <= set(err.splitlines()), err
    if row.exit_code in (3, 4):
        assert err == "".join(f"{line}\n" for line in row.stderr) and err.startswith("error: "), err
    if row.verify_against is not None:
        code = row.digested
        if code == "-":
            code = "code.json"
            (tmp_path / code).write_text(out)
        capsys.readouterr()
        assert main(["verify", row.verify_against, code]) == 0
        assert capsys.readouterr().out.startswith("OK ")
