"""CSV/JSON emission with a versioned header and round-trip precision.

CSV layout: a schema-version comment line, a timestamp comment line (with
eig1d's runtime_s in eigen.json, the only non-deterministic bytes in any
output), optional sorted metadata comments, then a header row and data
rows.  Floats are written with repr (shortest decimal that round-trips).

Data arrive as column blocks: a block is a list of equal-length columns
(Python lists from ndarray.tolist(), or tuples), and its rows are the
columns zipped.  A column of exact Python floats is formatted by mapping
repr over it and a column of str is written as it is, so neither takes a
per-cell type dispatch; any other column (ints, numpy scalars, mixed types)
goes through `_fmt` cell by cell.  Blocks are formatted and written one at a
time to the open file.  A lattice field is dictionary-encoded first
(`_float_codes`): its caller holds one array of distinct cell texts and one
index array per field, and O(line) row strings, not the whole table; each
line's rows arrive joined, as one column of str.  An empty block writes
nothing."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

CSV_VERSION = "driftwell-csv v1"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _column_text(col):
    """Cell strings of one column: a column of exact Python floats goes
    straight to repr, a column of str is written as it is, and any other
    column takes the per-cell type dispatch."""
    kinds = set(map(type, col))
    if kinds <= {float}:
        return map(repr, col)
    if kinds <= {str}:
        return col
    return map(_fmt, col)


def _float_codes(field):
    """Dictionary encoding of a float field's cells as CSV text: `texts`
    holds repr of each distinct float64 bit pattern, formatted once, and
    `codes`, shaped like the field, the index of each cell's text.  Equal
    bits have equal repr and distinct bits keep their own entry, so -0.0
    and 0.0 stay apart and `texts[codes]` is repr cell by cell."""
    bits = np.ascontiguousarray(field, dtype=np.float64).view(np.int64)
    keys, codes = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, keys.view(np.float64).tolist())),
                     dtype=object)
    return texts, codes.reshape(bits.shape)


def write_csv(path, header, blocks, meta: dict | None = None) -> None:
    """Write the comment lines, the header row, then the data rows of each
    block in turn; a block is a list of equal-length columns and is written
    as soon as it is formatted."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {CSV_VERSION}",
             f"# timestamp: {datetime.now(timezone.utc).isoformat()}"]
    if meta:
        for key in sorted(meta):
            lines.append(f"# {key}: {_fmt(meta[key])}")
    lines.append(",".join(header))
    with path.open("w") as fh:
        fh.write("\n".join(lines) + "\n")
        for cols in blocks:
            lengths = {len(col) for col in cols}
            if len(lengths) > 1:
                raise ValueError("CSV block columns differ in length")
            if lengths - {0}:
                fh.write("\n".join(map(",".join, zip(*map(_column_text, cols))))
                         + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=_json_default) + "\n")
