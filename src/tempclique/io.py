"""Reading and writing temporal graph files.

Canonical interchange format is a JSON object {"n": int, "edges": [[u, v,
label], ...]} with edges sorted by (u, v); a whitespace-separated text format
with one "u v label" line per edge is also accepted.  Writers always emit the
canonical order, so parse -> serialize round-trips are byte-identical.  All
file writes go through a temp-file-plus-rename so failures never leave a
partial file behind.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from .graphs import TemporalGraph, _columns


class GraphFormatError(ValueError):
    """Malformed graph input; the message names the offending line or field."""


def dumps_temporal_graph(tg: TemporalGraph, fmt: str = "json") -> str:
    """Serialize to the canonical JSON format (or plain text with fmt="text")."""
    if fmt == "json":
        return json.dumps({"n": tg.n, "edges": tg.edge_list()}) + "\n"
    if fmt == "text":
        return "".join(f"{a} {b} {t}\n" for a, b, t in tg.edge_list())
    raise ValueError(f"unknown format {fmt!r}")


def _graph(n: int, a, b, labels, where: str) -> TemporalGraph:
    try:
        return TemporalGraph.from_columns(n, a, b, labels)
    except OverflowError:
        raise GraphFormatError(f"{where}: n and vertex ids must fit in 64-bit integers") from None
    except ValueError as exc:
        raise GraphFormatError(f"{where}: {exc}") from None


def _entry_fault(i: int, entry) -> str | None:
    """Why `edges[i]` is malformed, or None.  Only used to name the first bad
    entry once a whole-column check has failed."""
    if (
        not isinstance(entry, list)
        or len(entry) != 3
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        return f"edges[{i}] must be a [u, v, label] triple of numbers"
    if not all(isinstance(x, int) or x.is_integer() for x in entry[:2]):  # is_integer: False for inf, NaN
        return f"edges[{i}]: endpoints must be integers"
    return None


def _edge_columns(edges: list) -> list | None:
    """The u, v and label columns of `edges`, or None if some entry is not a
    triple of numbers with integral endpoints.  Every check looks at a whole
    column at once; `type(True) is bool`, so bools fail the type check."""
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {3}):
        return None
    columns = _columns(edges, 3)
    types = [set(map(type, column)) for column in columns]
    if not all(t <= {int, float} for t in types):
        return None
    for j in (0, 1):
        if float in types[j]:
            # exact conversion: 1e300 becomes an int that then overflows int64
            if not all(type(x) is int or x.is_integer() for x in columns[j]):
                return None
            columns[j] = [int(x) for x in columns[j]]
    if int in types[2]:
        # an integer too large for a float lies outside [0, 1]; clamping keeps
        # it there without overflowing the float conversion
        columns[2] = [max(-1, min(x, 2)) if type(x) is int else x for x in columns[2]]
    return columns


def _parse_json(text: str) -> TemporalGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError:
        # the one other ValueError json.loads raises: an integer literal
        # longer than the interpreter's int-conversion limit
        raise GraphFormatError(
            f"JSON input: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level JSON value must be an object")
    for key in ("n", "edges"):
        if key not in doc:
            raise GraphFormatError(f"missing required field {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GraphFormatError("field 'n' must be a positive integer")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError("field 'edges' must be a list")
    columns = _edge_columns(edges)
    if columns is None:
        raise GraphFormatError(next(filter(None, (_entry_fault(i, e) for i, e in enumerate(edges)))))
    return _graph(n, *columns, "field 'edges'")


def _parse_text(text: str) -> TemporalGraph:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v label', got {line!r}")
        try:
            rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: could not parse 'u v label' from {line!r}") from None
    if not rows:
        raise GraphFormatError("no edges found in text input")
    a, b, labels = _columns(rows, 3)
    return _graph(max(max(a), max(b)) + 1, a, b, labels, "edge list")


def loads_temporal_graph(text: str) -> TemporalGraph:
    """Parse either supported format (JSON detected by a leading '{')."""
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def read_temporal_graph(path: str | Path) -> TemporalGraph:
    return loads_temporal_graph(Path(path).read_text())


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path via a same-directory temp file and atomic rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_temporal_graph(tg: TemporalGraph, path: str | Path, fmt: str = "json") -> None:
    atomic_write_text(path, dumps_temporal_graph(tg, fmt=fmt))
