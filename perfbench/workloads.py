"""The three seeded workloads: their inputs, timed operations and output checks.

Each workload is a closed loop: one caller issues operations back to back
in one single-threaded process, as a batch user or the CLI would.  The
library sees only generated problem JSON text; every call goes through a
module attribute (``lib.feasibility.analyze``) so that a traced run can
route it through its span wrappers.

``analyze-large`` and ``oracle-small`` walk a fixed base corpus in a fixed
order, and the seed turns every base problem into a twin with the same
conflict hypergraph, so the analyzer report and the oracle's minimum
lengths equal the base problem's, which the golden tables record.  Oracle
cost varies tenfold between problems of equal size, so a fresh random
subset per seed would spread the oracle p90 by about 90% across seeds;
twins keep the work per run steady while the bytes the library parses
change with the seed.  ``construct-verify`` checks itself, so its problems
are drawn fresh from the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Library:
    """The library modules as imported for one set-up; tracing patches them."""

    problem: types.ModuleType
    structure: types.ModuleType
    feasibility: types.ModuleType
    codec: types.ModuleType
    oracle: types.ModuleType
    linalg: types.ModuleType
    corpusgen: types.ModuleType


@dataclass(frozen=True)
class Item:
    key: str  # base-problem key in the golden table, or a label
    text: str  # problem JSON, all the library receives
    seed: int = 0  # construction seed (construct-verify)
    payload: tuple[int, ...] = ()  # one symbol per message (construct-verify)


class Tally:
    """Per-operation latency samples plus failed operations of one pass."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.sample_inputs: defaultdict[str, list[int]] = defaultdict(list)  # input index per sample
        self.attempted = 0
        self.items = 0
        self.failed_ids: set[int] = set()
        self.failures: list[str] = []
        self._last_id: dict[str, int] = {}

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def timed(self, op: str, index: int, key: str, fn: Callable, *args):
        """Run and time one operation; an exception counts it as failed."""
        self.attempted += 1
        self._last_id[op] = self.attempted
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any raise is a failed operation, not a crash
            self.fail(op, index, key, f"raised {type(exc).__name__}: {exc}")
            return None
        self.samples[op].append(time.perf_counter() - start)
        self.sample_inputs[op].append(index)
        return result

    def check(self, op: str, index: int, key: str, ok: bool, message: str) -> None:
        """Count the latest ``op`` as failed unless ``ok``."""
        if not ok:
            self.fail(op, index, key, message)

    def fail(self, op: str, index: int, key: str, message: str) -> None:
        self.failed_ids.add(self._last_id[op])
        self.failures.append(
            f"{self.workload} seed={self.seed} index={index} op={op} input={key}: {message}"
        )


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def twins(workload, lib: Library, seed: int, count: int) -> list[Item]:
    """The first ``count`` base problems in order, each as a seeded twin;
    past the end of the base corpus it starts over with fresh twins."""
    base = itertools.cycle(workload.base(lib))
    items = []
    for i, (key, p) in zip(range(count), base):
        receivers = workload.twin_receivers(list(p.receivers), random.Random(f"{workload.name}:{seed}:{i}"))
        twin = lib.problem.Problem(n=p.n, receivers=tuple(receivers))
        items.append(Item(key, lib.problem.problem_to_json(twin)))
    return items


def analyze_op(lib: Library, text: str):
    """The path of ``indexcode analyze --format json``."""
    report = lib.feasibility.analyze(lib.problem.parse_problem(text))
    return report, json.dumps(lib.feasibility.report_to_dict(report), sort_keys=True, indent=2)


def report_digest(report_json: str) -> str:
    return hashlib.sha256(report_json.encode("utf-8")).hexdigest()


class AnalyzeLarge:
    """Structure-bound: the pairwise type-2 scan and triangle enumeration."""

    name = "analyze-large"
    primary = "analyze"
    ops = ("analyze",)
    round_size = 32  # one input per cell of the grid
    nominal_rate = 7.5  # inputs per second on a 2-core x86-64 machine, Python 3.11
    trace_items = 32
    modes = ("unicast", "groupcast")
    sizes = (12, 16, 20, 24)
    densities = (0.3, 0.5, 0.7, 0.85)
    base_rounds = 8

    def __init__(self, golden: dict | None = None) -> None:
        self.golden = load_golden("analyze_large.json") if golden is None else golden

    def base(self, lib: Library):
        """(key, problem) in run order: round r holds every cell at base seed r."""
        for r in range(self.base_rounds):
            for mode in self.modes:
                for n in self.sizes:
                    for d in self.densities:
                        p = lib.problem.random_problem(n, d, single_unicast=mode == "unicast", seed=r)
                        yield f"{mode}-n{n}-d{d}-s{r}", p

    @staticmethod
    def twin_receivers(receivers: list, rng: random.Random) -> list:
        """Receivers shuffled, which leaves the analyzer's work unchanged.
        Twins that also repeated a receiver spread the p50 by 12% across
        seeds, against 6% without."""
        rng.shuffle(receivers)
        return receivers

    def generate(self, lib: Library, seed: int, count: int) -> list[Item]:
        return twins(self, lib, seed, count)

    def run_item(self, lib: Library, item: Item, index: int, tally: Tally) -> None:
        done = tally.timed("analyze", index, item.key, analyze_op, lib, item.text)
        if done is not None:
            want = self.golden.get(item.key)
            tally.check(
                "analyze", index, item.key, report_digest(done[1]) == want,
                f"report digest differs from golden {want}",
            )


def groupcast_problem(lib: Library, seed: int):
    """Groupcast counterpart of the criterion-6 unicast corpus, n <= 6."""
    rng = random.Random(f"groupcast:{seed}")
    n = rng.randint(1, 6)
    density = rng.choice([0.1, 0.25, 0.4, 0.55, 0.7, 0.85])
    return lib.problem.random_problem(n, density, single_unicast=False, seed=seed)


def oracle_op(lib: Library, text: str):
    """The path of ``indexcode oracle --q 2,3 --max-len 3``."""
    p = lib.problem.parse_problem(text)
    return p, [lib.oracle.min_length(p, q, l_max=3) for q in (2, 3)]


def contradictions(report, lengths: list[int | None]) -> list[str]:
    """Analyzer verdicts the oracle's minimum lengths over GF(2), GF(3) refute."""
    found = []
    if report.rate_one.feasible != (lengths[0] == 1):
        found.append(f"rate 1 feasible={report.rate_one.feasible} but GF(2) min length {lengths[0]}")
    if not report.rate_half.feasible and any(m is not None and m <= 2 for m in lengths):
        found.append(f"rate 1/2 infeasible but min lengths {lengths}")
    if report.rate_third.feasible is False and any(m is not None for m in lengths):
        found.append(f"rate 1/3 infeasible but min lengths {lengths}")
    return found


class OracleSmall:
    """Oracle-bound: exhaustive search and small-field span tests."""

    name = "oracle-small"
    primary = "oracle"
    ops = ("analyze", "oracle", "verify")
    round_size = 2  # a unicast and a groupcast problem
    nominal_rate = 10.0
    trace_items = 64
    base_size = 200  # the criterion-6 corpus is unicast seeds 0-199

    def __init__(self, golden: dict | None = None) -> None:
        self.golden = load_golden("oracle_small.json") if golden is None else golden

    def base(self, lib: Library):
        for i in range(self.base_size):
            yield f"unicast-{i}", lib.corpusgen.random_unicast_problem(i)
            yield f"groupcast-{i}", groupcast_problem(lib, i)

    @staticmethod
    def twin_receivers(receivers: list, rng: random.Random) -> list:
        """One receiver repeated at the end.  The order is kept because the
        search checks constraints in the order receivers first produce them:
        shuffled twins spread the oracle p90 by 16% across ten seeds,
        against 9% across six with the order kept."""
        return receivers + [receivers[rng.randrange(len(receivers))]]

    def generate(self, lib: Library, seed: int, count: int) -> list[Item]:
        return twins(self, lib, seed, count)

    def run_item(self, lib: Library, item: Item, index: int, tally: Tally) -> None:
        analyzed = tally.timed("analyze", index, item.key, analyze_op, lib, item.text)
        searched = tally.timed("oracle", index, item.key, oracle_op, lib, item.text)
        if searched is None:
            return
        p, results = searched
        lengths = [r.min_length for r in results]
        want = self.golden.get(item.key)
        problems = [] if lengths == want else [f"min lengths {lengths} != golden {want}"]
        if analyzed is not None:
            problems += contradictions(analyzed[0], lengths)
        tally.check("oracle", index, item.key, not problems, "; ".join(problems))
        for r in results:
            if r.witness is not None:
                verdict = tally.timed("verify", index, item.key, lib.codec.verify, p, r.witness)
                if verdict is not None:
                    tally.check("verify", index, item.key, verdict.ok, f"GF({r.prime}) witness fails verify")


def blocks_problem(lib: Library, rng: random.Random, count: int):
    """``count`` constructible blocks from the test corpus, side by side."""
    blocks = lib.corpusgen._BLOCKS
    specs = []
    next_id = 1
    for _ in range(count):
        size, block = blocks[rng.randrange(len(blocks))]
        specs.extend(block(list(range(next_id, next_id + size))))
        next_id += size
    return lib.corpusgen.build_from_specs(next_id - 1, specs)


def rate_half_problem(lib: Library, rng: random.Random, n: int):
    """Rate-1/2 feasible by design: every receiver's interferers lie in one group
    of a random partition that excludes its demand, so alignment sets stay
    inside groups and no conflict falls inside one."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    groups = []
    while ids:
        size = rng.randint(1, 4)
        groups.append(ids[:size])
        ids = ids[size:]
    group_of = {m: g for g, members in enumerate(groups) for m in members}
    specs = []
    for k in range(1, n + 1):
        others = [g for g in range(len(groups)) if g != group_of[k]]
        interferers: frozenset[int] = frozenset()
        if others:
            members = groups[rng.choice(others)]
            interferers = frozenset(rng.sample(members, rng.randint(1, len(members))))
        specs.append((k, interferers))
    return lib.corpusgen.build_from_specs(n, specs)


def construct_op(lib: Library, text: str, seed: int):
    """``construct --rate 1/2`` when rate 1/2 is feasible, else ``--rate 1/3``."""
    p = lib.problem.parse_problem(text)
    rng = random.Random(seed)
    if lib.feasibility.check_rate_half(p).feasible:
        code, _ = lib.codec.construct_rate_half(p, rng=rng)
    else:
        code, _ = lib.codec.construct_rate_third(p, rng=rng)
    return p, code, lib.codec.code_to_json(code)


def verify_op(lib: Library, text: str, code_text: str):
    """The path of ``indexcode verify problem.json code.json``."""
    return lib.codec.verify(lib.problem.parse_problem(text), lib.codec.code_from_json(code_text))


def roundtrip_op(lib: Library, p, code, payload, side_symbols):
    return lib.codec.decode_all(p, code, lib.codec.encode(code, payload), side_symbols)


class ConstructVerify:
    """Codec-bound: randomized construction, verification, encode/decode."""

    name = "construct-verify"
    primary = "construct"
    ops = ("construct", "verify", "roundtrip")
    block_counts = range(3, 17)
    round_size = 2 * len(block_counts)
    nominal_rate = 27.0
    trace_items = 4 * round_size

    def generate(self, lib: Library, seed: int, count: int) -> list[Item]:
        items = []
        for r in range(-(-count // self.round_size)):
            for blocks in self.block_counts:
                rng = random.Random(f"{self.name}:{seed}:{r}:{blocks}")
                for kind, p in (
                    ("blocks", blocks_problem(lib, rng, blocks)),
                    ("rate-half", rate_half_problem(lib, rng, 4 * blocks)),
                ):
                    payload = tuple(rng.randrange(lib.linalg.DEFAULT_PRIME) for _ in range(p.n))
                    items.append(
                        Item(f"{kind}-{blocks}-r{r}", lib.problem.problem_to_json(p), rng.randrange(2**32), payload)
                    )
        return items[:count]

    def run_item(self, lib: Library, item: Item, index: int, tally: Tally) -> None:
        built = tally.timed("construct", index, item.key, construct_op, lib, item.text, item.seed)
        if built is None:
            return
        p, code, code_text = built
        self.verify_step(lib, item, index, code_text, tally)
        side = [{i: item.payload[i - 1] for i in r.side_info} for r in p.receivers]
        decoded = tally.timed("roundtrip", index, item.key, roundtrip_op, lib, p, code, item.payload, side)
        if decoded is not None:
            wrong = [
                (j, k)
                for j, r in enumerate(p.receivers, start=1)
                for k in r.demands
                if decoded[j - 1].get(k) != item.payload[k - 1]
            ]
            tally.check("roundtrip", index, item.key, not wrong, f"wrong symbols at (receiver, message) {wrong[:5]}")

    def verify_step(self, lib: Library, item: Item, index: int, code_text: str, tally: Tally) -> None:
        result = tally.timed("verify", index, item.key, verify_op, lib, item.text, code_text)
        if result is not None:
            tally.check("verify", index, item.key, result.ok, "constructed code fails verify")


WORKLOADS = {w.name: w for w in (AnalyzeLarge, OracleSmall, ConstructVerify)}
