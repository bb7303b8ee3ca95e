"""File formats: canonical JSON, text lines, atomic writes, diagnostics."""

import hashlib
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempclique.cli import main
from tempclique.graphs import TemporalGraph, generate_random_complete
from tempclique.io import (
    GraphFormatError,
    atomic_write_text,
    dumps_temporal_graph,
    loads_temporal_graph,
    read_temporal_graph,
    write_temporal_graph,
)


def test_json_round_trip_is_byte_identical():
    tg = generate_random_complete(8, 5)
    text = dumps_temporal_graph(tg)
    again = dumps_temporal_graph(loads_temporal_graph(text))
    assert text == again


def test_json_round_trip_preserves_labels_exactly():
    tg = generate_random_complete(12, 17)
    back = loads_temporal_graph(dumps_temporal_graph(tg))
    assert back == tg


def test_writer_sorts_edges():
    text = '{"n": 3, "edges": [[1, 2, 0.75], [0, 1, 0.5]]}'
    tg = loads_temporal_graph(text)
    doc = json.loads(dumps_temporal_graph(tg))
    assert doc["edges"] == [[0, 1, 0.5], [1, 2, 0.75]]


def test_text_format_round_trip():
    tg = generate_random_complete(6, 3)
    text = dumps_temporal_graph(tg, fmt="text")
    back = loads_temporal_graph(text)
    assert back == tg


def test_text_format_parses_lines_and_comments():
    tg = loads_temporal_graph("# header\n0 1 0.5\n\n2 1 0.25\n")
    assert tg.n == 3
    assert tg.edge_list() == [(0, 1, 0.5), (1, 2, 0.25)]


def test_file_round_trip(tmp_path):
    tg = generate_random_complete(7, 9)
    path = tmp_path / "g.json"
    write_temporal_graph(tg, path)
    assert read_temporal_graph(path) == tg
    first = path.read_bytes()
    write_temporal_graph(read_temporal_graph(path), path)
    assert path.read_bytes() == first


def test_invalid_json_names_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        loads_temporal_graph('{"n": 3,\n "edges": [[0, 1, 0.5],]}')


def test_missing_field_is_named():
    with pytest.raises(GraphFormatError, match="'edges'"):
        loads_temporal_graph('{"n": 3}')
    with pytest.raises(GraphFormatError, match="'n'"):
        loads_temporal_graph('{"edges": []}')


def test_bad_edge_entry_is_indexed():
    with pytest.raises(GraphFormatError, match=r"edges\[1\]"):
        loads_temporal_graph('{"n": 3, "edges": [[0, 1, 0.5], [0, "x", 0.2]]}')
    with pytest.raises(GraphFormatError, match=r"edges\[0\]"):
        loads_temporal_graph('{"n": 3, "edges": [[0, 1.5, 0.5]]}')


def test_bad_text_line_is_numbered():
    with pytest.raises(GraphFormatError, match="line 2"):
        loads_temporal_graph("0 1 0.5\n0 two 0.25\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        loads_temporal_graph("0 1\n")


def test_semantic_errors_are_wrapped():
    with pytest.raises(GraphFormatError, match="duplicate"):
        loads_temporal_graph('{"n": 3, "edges": [[0, 1, 0.5], [1, 0, 0.25]]}')
    with pytest.raises(GraphFormatError, match="labels"):
        loads_temporal_graph('{"n": 2, "edges": [[0, 1, 1.5]]}')


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "one\n")
    atomic_write_text(path, "two\n")
    assert path.read_text() == "two\n"
    assert os.listdir(tmp_path) == ["out.txt"]


BIG = "1" + "0" * 400  # an integer too large for a float
N30 = "123456789012345678901234567890"  # fits neither int64 nor uint64
N5000 = "1" + "0" * 4999  # past the interpreter's int-conversion digit limit
TRIPLE = "edges[{}] must be a [u, v, label] triple of numbers"
INTEGRAL = "edges[{}]: endpoints must be integers"
WIDE = "field 'edges': n and vertex ids must fit in 64-bit integers"
LOOP = "field 'edges': self-loops are not allowed"
RANGE = "field 'edges': vertex ids must lie in [0, n)"
DUPLICATE = "field 'edges': duplicate edge in edge list"
LABEL = "field 'edges': labels must be finite and lie in [0, 1]"
DIGITS = f"JSON input: an integer has more than {sys.get_int_max_str_digits()} digits"


MALFORMED = [
    ("entry not a list", "[[0, 1, 0.5], 7]", 3, TRIPLE.format(1)),
    ("too short", "[[0, 1, 0.5], [0, 1]]", 3, TRIPLE.format(1)),
    ("too long", "[[0, 1, 0.5, 1]]", 3, TRIPLE.format(0)),
    ("string endpoint", '[[0, "1", 0.5]]', 3, TRIPLE.format(0)),
    ("string label", '[[0, 1, "0.5"]]', 3, TRIPLE.format(0)),
    ("bool endpoint", "[[true, 1, 0.5]]", 3, TRIPLE.format(0)),
    ("bool label", "[[0, 1, false]]", 3, TRIPLE.format(0)),
    ("null endpoint", "[[0, null, 0.5]]", 3, TRIPLE.format(0)),
    ("non-integral endpoint", "[[0, 1.5, 0.5]]", 3, INTEGRAL.format(0)),
    ("NaN endpoint", "[[NaN, 1, 0.5]]", 3, INTEGRAL.format(0)),
    ("Infinity endpoint", "[[0, Infinity, 0.5]]", 3, INTEGRAL.format(0)),
    ("-Infinity endpoint", "[[0, -Infinity, 0.5]]", 3, INTEGRAL.format(0)),
    ("1e300 endpoint", "[[0, 1e300, 0.5]]", 3, WIDE),
    ("30-digit endpoint", f"[[0, {N30}, 0.5]]", 3, WIDE),
    ("30-digit negative endpoint", f"[[-{N30}, 1, 0.5]]", 3, WIDE),
    ("huge label", f"[[0, 1, {BIG}]]", 3, LABEL),
    ("huge negative label", f"[[0, 1, -{BIG}]]", 3, LABEL),
    ("self-loop", "[[1, 1, 0.5]]", 3, LOOP),
    ("reversed duplicate", "[[0, 1, 0.5], [1, 0, 0.25]]", 3, DUPLICATE),
    ("vertex >= n", "[[0, 3, 0.5]]", 3, RANGE),
    ("negative vertex", "[[-1, 1, 0.5]]", 3, RANGE),
    ("30-digit n", "[[0, 1, 0.5]]", N30, WIDE),
    ("30-digit n, no edges", "[]", N30, WIDE),
    ("NaN label", "[[0, 1, NaN]]", 3, LABEL),
    ("label 2", "[[0, 1, 2]]", 3, LABEL),
    ("5000-digit endpoint", f"[[0, {N5000}, 0.5]]", 3, DIGITS),
    ("5000-digit label", f"[[0, 1, {N5000}]]", 3, DIGITS),
    ("5000-digit n", "[[0, 1, 0.5]]", N5000, DIGITS),
    # two faults: the one reported first
    ("non-integral before string", '[[0, 1.5, 0.5], [0, "x", 0.5]]', 3, INTEGRAL.format(0)),
    ("1e300 before string", '[[0, 1e300, 0.5], [0, "x", 0.5]]', 3, TRIPLE.format(1)),
    ("non-integral before short", "[[0, 1, 0.5], [0, 1.5, 0.5], [0]]", 3, INTEGRAL.format(1)),
    ("1e300 before self-loop", "[[0, 1e300, 0.5], [1, 1, 0.5]]", 3, WIDE),
    ("self-loop before range", "[[1, 1, 0.5], [0, 5, 0.5]]", 3, LOOP),
    ("self-loop before 30-digit n", "[[1, 1, 0.5]]", N30, LOOP),
    ("range before duplicate", "[[0, 5, 0.5], [1, 2, 0.5], [2, 1, 0.5]]", 3, RANGE),
    ("duplicate before label", "[[0, 1, 0.5], [1, 0, 0.5], [0, 2, 7]]", 3, DUPLICATE),
    ("range before huge label", f"[[0, 1, {BIG}], [0, 5, 0.5]]", 3, RANGE),
]


@pytest.mark.parametrize(
    "edges, n, message", [pytest.param(*case, id=name) for name, *case in MALFORMED]
)
def test_malformed_json_messages(edges, n, message):
    """Each malformed input gets its exact message; with two faults, the
    entry checks come first in index order, then overflow, self-loops,
    vertex range, duplicates and labels."""
    with pytest.raises(GraphFormatError) as info:
        loads_temporal_graph(f'{{"n": {n}, "edges": {edges}}}')
    assert str(info.value) == message


@st.composite
def temporal_edges(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    labels = draw(st.lists(st.floats(0.0, 1.0), min_size=len(chosen), max_size=len(chosen)))
    return n, [(a, b, t) for (a, b), t in zip(chosen, labels)]


@given(temporal_edges(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(deadline=None, max_examples=80)
def test_json_reader_matches_from_edges(graph, seed):
    """A written graph reads back equal, and a shuffled edge list with some
    pairs reversed and some endpoints written as integral floats reads as
    the graph `from_edges` builds from it; both equal a sorted-list
    reference."""
    n, rows = graph
    tg = TemporalGraph.from_edges(n, rows)
    assert tg.edge_list() == sorted(rows)
    assert loads_temporal_graph(dumps_temporal_graph(tg)) == tg
    rng = random.Random(seed)
    rng.shuffle(rows)
    mixed = [(b, a, t) if rng.random() < 0.5 else (a, b, t) for a, b, t in rows]
    assert TemporalGraph.from_edges(n, mixed) == tg
    entries = [[float(x) if rng.random() < 0.3 else x for x in (a, b)] + [t] for a, b, t in mixed]
    assert loads_temporal_graph(json.dumps({"n": n, "edges": entries})) == tg


# sha256 prefixes of `tempclique generate --seed 11` output, recorded before
# the readers and writers took whole columns
GENERATE_DIGESTS = {
    (1, "json"): "e14e912571d59a25",
    (1, "text"): "e3b0c44298fc1c14",
    (2, "json"): "67b93a7737e6232d",
    (2, "text"): "44dc57145fa6fed8",
    (50, "json"): "5493e09c452c8a03",
    (50, "text"): "89c980d95cdd8785",
    (200, "json"): "ac48cf6e51af80b9",
    (200, "text"): "afb77a3675d4f45c",
}


@pytest.mark.parametrize("n, fmt", sorted(GENERATE_DIGESTS))
def test_generate_output_is_byte_identical(capsys, n, fmt):
    assert main(["generate", "--n", str(n), "--seed", "11", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == GENERATE_DIGESTS[(n, fmt)]
