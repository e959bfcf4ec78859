"""The one record of each bundled fixture's analysis.

Each row pins, exactly, one fixture's hyperedges (k, Interf_k(j)), its
conflict pairs, its alignment-graph edges, the text report of ``analyze``,
the SHA-256 of ``analyze --format json`` (with the report's type-2 sets
and acyclic quadruple written out, so a failure reads), the restricted
internal conflicts of each type-2 set, and the oracle's minimum length
over GF(2) and GF(3) up to L = 4.  Both reports run in process through
``cli.main``.
"""

import hashlib
import json
from importlib import resources
from typing import NamedTuple

import pytest

from corpusgen import hyperedges
from indexcode.cli import main
from indexcode.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from indexcode.oracle import min_length
from indexcode.problem import conflicts
from indexcode.structure import alignment_graph, restricted_internal_conflicts, type2_alignment_sets


class Row(NamedTuple):
    hyperedges: set[tuple[int, tuple[int, ...]]]  # (k, I) with I ascending
    conflicts: set[tuple[int, int]]
    alignment_edges: set[tuple[int, int]]
    text: str
    json_sha256: str
    type2_sets: list[dict]
    acyclic_quadruple: list[int] | None
    restricted: list[tuple[set[int], list]]  # (type-2 set, its restricted internal conflicts)
    min_lengths: tuple[int | None, int | None]  # over GF(2), GF(3)


FIXTURES = {
    # the paper's first motivating problem: a clean type-2 set, so rate 1/3
    # holds despite the internal conflict that refutes rate 1/2
    "ex1a": Row(
        hyperedges={(1, (3,)), (2, (1,)), (3, (2,)), (4, (1, 2, 3))},
        conflicts={(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)},
        alignment_edges={(1, 2), (1, 3), (2, 3)},
        text="""\
rate 1:   infeasible (conflict {1, 2})
rate 1/2: infeasible (internal conflict {1, 2} inside alignment set {1, 2, 3})
rate 1/3: feasible (main construction applies)
  alignment set {1, 2, 3}: type2-clean [cycle]
  alignment set {4}: kind1
""",
        json_sha256="b5d07d64fd94c4a76b84d56ea151fabe2959912d3aebd4dc4c9ade5cfe617cc5",
        type2_sets=[{"messages": [1, 2, 3], "triangles": [[1, 2, 3]]}],
        acyclic_quadruple=None,
        restricted=[({1, 2, 3}, [])],
        min_lengths=(3, 3),
    ),
    # ex1a's conflict and alignment graphs on another hypergraph: the type-2
    # set turns dirty and an acyclic quadruple appears
    "ex1b": Row(
        hyperedges={(2, (1,)), (3, (1, 2)), (4, (1, 2, 3))},
        conflicts={(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)},
        alignment_edges={(1, 2), (1, 3), (2, 3)},
        text="""\
rate 1:   infeasible (conflict {1, 2})
rate 1/2: infeasible (internal conflict {1, 2} inside alignment set {1, 2, 3})
rate 1/3: infeasible (type-2 set {1, 2, 3} has restricted internal conflict {1, 2})
  alignment set {1, 2, 3}: type2-dirty [cycle]
  alignment set {4}: kind1
""",
        json_sha256="b6c21c4bb784e0a5c4b2d423db11e1f7609f586d36600ad3841f0f96a390aeef",
        type2_sets=[{"messages": [1, 2, 3], "triangles": [[1, 2, 3]]}],
        acyclic_quadruple=[1, 2, 3, 4],
        restricted=[({1, 2, 3}, [((1, 2), {1, 2})])],
        min_lengths=(4, 4),
    ),
    # the dirty type-2 set behind the stricter necessary condition for
    # rate 1/3, with no acyclic quadruple
    "ex_inf": Row(
        hyperedges={(1, (4,)), (2, (1, 3)), (3, (1,)), (5, (1, 3, 4)), (6, (1, 2, 4))},
        conflicts={(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 5), (4, 5), (4, 6)},
        alignment_edges={(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)},
        text="""\
rate 1:   infeasible (conflict {1, 2})
rate 1/2: infeasible (internal conflict {1, 2} inside alignment set {1, 2, 3, 4})
rate 1/3: infeasible (type-2 set {1, 2, 3, 4} has restricted internal conflict {1, 3})
  alignment set {1, 2, 3, 4}: type2-dirty [fork, cycle]
  alignment set {5}: kind1
  alignment set {6}: kind1
""",
        json_sha256="2a07fcd37a8c8f5626e5978f4096109491dfad28d0436595a9a74b759100d316",
        type2_sets=[{"messages": [1, 2, 3, 4], "triangles": [[1, 2, 4], [1, 3, 4]]}],
        acyclic_quadruple=None,
        restricted=[({1, 2, 3, 4}, [((1, 3), {1, 3})])],
        min_lengths=(4, 4),
    ),
    # no known condition decides rate 1/3, yet a length-3 code exists
    "ex_feas": Row(
        hyperedges={(1, (4, 6)), (2, (1, 4)), (5, (2, 3)), (6, (3, 4, 5))},
        conflicts={(1, 2), (1, 4), (1, 6), (2, 4), (2, 5), (3, 5), (3, 6), (4, 6), (5, 6)},
        alignment_edges={(1, 4), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6)},
        text="""\
rate 1:   infeasible (conflict {1, 2})
rate 1/2: infeasible (internal conflict {1, 2} inside alignment set {1, 2, 3, 4, 5, 6})
rate 1/3: undetermined by the known conditions; conjecture predicts feasible
  alignment set {1, 2, 3, 4, 5, 6}: other [fork, cycle]
""",
        json_sha256="dd1557ddfd7fce718fd61be200bbaf849ddb5c82ccdd983ab45988bc174fee7c",
        type2_sets=[{"messages": [3, 4, 5], "triangles": [[3, 4, 5]]}],
        acyclic_quadruple=None,
        restricted=[({3, 4, 5}, [])],
        min_lengths=(3, 3),
    ),
    # the clean type-2 set of the larger achievable class
    "p5": Row(
        hyperedges={(1, (2,)), (4, (1, 2, 3)), (5, (1, 2, 3))},
        conflicts={(1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)},
        alignment_edges={(1, 2), (1, 3), (2, 3)},
        text="""\
rate 1:   infeasible (conflict {1, 2})
rate 1/2: infeasible (internal conflict {1, 2} inside alignment set {1, 2, 3})
rate 1/3: feasible (main construction applies)
  alignment set {1, 2, 3}: type2-clean [cycle]
  alignment set {4}: kind1
  alignment set {5}: kind1
""",
        json_sha256="4db7b22b6468d171cc2c2fa62f695217cae2e2b0c1a7b5f5866d9b4bbb623d03",
        type2_sets=[{"messages": [1, 2, 3], "triangles": [[1, 2, 3]]}],
        acyclic_quadruple=None,
        restricted=[({1, 2, 3}, [])],
        min_lengths=(3, 3),
    ),
}


# the columns read from the library; "text" and "json" run ``analyze``
LIBRARY_COLUMNS = {
    "hyperedges": lambda p: {(k, tuple(sorted(interf))) for k, interf in hyperedges(p)},
    "conflicts": conflicts,
    "alignment_edges": alignment_graph,
    "restricted": lambda p: [(t2.messages, restricted_internal_conflicts(p, t2.messages)) for t2 in type2_alignment_sets(p)],
    "min_lengths": lambda p: tuple(min_length(p, q, l_max=4).min_length for q in (2, 3)),
}


@pytest.mark.parametrize("column", [*LIBRARY_COLUMNS, "text", "json"])
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_analysis_is_pinned(name, column, tmp_path, capsys):
    # a fixture added later fails every case until it has a row of its own
    bundled = (resources.files("indexcode") / "fixtures").iterdir()
    assert set(FIXTURE_NAMES) == {f.name[:-5] for f in bundled if f.name.endswith(".json")} == set(FIXTURES)
    row, p = FIXTURES[name], load_fixture(name)
    if column in LIBRARY_COLUMNS:
        assert LIBRARY_COLUMNS[column](p) == getattr(row, column)
        return
    path = tmp_path / f"{name}.json"
    path.write_text(fixture_text(name))
    if column == "text":
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr() == (row.text, "")
        return
    assert main(["analyze", str(path), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    structure = json.loads(out)["structure"]
    assert (structure["type2_sets"], structure["acyclic_quadruple"], err) == (row.type2_sets, row.acyclic_quadruple, "")
    assert hashlib.sha256(out.encode()).hexdigest() == row.json_sha256
