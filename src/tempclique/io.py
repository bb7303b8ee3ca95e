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
import tempfile
from pathlib import Path

from .graphs import TemporalGraph


class GraphFormatError(ValueError):
    """Malformed graph input; the message names the offending line or field."""


def dumps_temporal_graph(tg: TemporalGraph, fmt: str = "json") -> str:
    """Serialize to the canonical JSON format (or plain text with fmt="text")."""
    if fmt == "json":
        doc = {"n": tg.n, "edges": [[a, b, t] for a, b, t in tg.edge_list()]}
        return json.dumps(doc) + "\n"
    if fmt == "text":
        return "".join(f"{a} {b} {t}\n" for a, b, t in tg.edge_list())
    raise ValueError(f"unknown format {fmt!r}")


def _from_edges(n: int, triples: list, where: str) -> TemporalGraph:
    try:
        return TemporalGraph.from_edges(n, triples)
    except OverflowError:
        raise GraphFormatError(f"{where}: n and vertex ids must fit in 64-bit integers") from None
    except ValueError as exc:
        raise GraphFormatError(f"{where}: {exc}") from None


def _parse_json(text: str) -> TemporalGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
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
    triples = []
    for i, entry in enumerate(edges):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise GraphFormatError(f"edges[{i}] must be a [u, v, label] triple of numbers")
        a, b, t = entry
        try:
            integral = a == int(a) and b == int(b)
        except (OverflowError, ValueError):  # infinite or NaN endpoints
            integral = False
        if not integral:
            raise GraphFormatError(f"edges[{i}]: endpoints must be integers")
        triples.append((int(a), int(b), float(t)))
    return _from_edges(n, triples, "field 'edges'")


def _parse_text(text: str) -> TemporalGraph:
    triples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v label', got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
            t = float(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: could not parse 'u v label' from {line!r}") from None
        triples.append((a, b, t))
    if not triples:
        raise GraphFormatError("no edges found in text input")
    n = max(max(a, b) for a, b, _ in triples) + 1
    return _from_edges(n, triples, "edge list")


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
