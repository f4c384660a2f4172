"""CSV/JSON emission with a versioned header and round-trip precision.

CSV layout: a schema-version comment line, a timestamp comment line (with
eig1d's runtime_s in eigen.json, the only non-deterministic bytes in any
output), optional sorted metadata comments, then a header row and data
rows.  Floats are written with repr (shortest decimal that round-trips).

`write_csv` is the one writer of CSV rows.  Its columns are float or str
arrays that broadcast to one shape, and the rows run over that shape in C
order: a 1D table passes `[xs, u, v]`, a lattice `[x[:, None], y[None, :],
f]`.  Each column is dictionary-encoded once (`_codes`): an array of its
distinct cell texts and an index per cell.  Each text carries its
separator, a comma or, in the last column, a newline, so a chunk of whole
first-axis lines (at most `_CHUNK_ROWS` rows unless one line is longer) is
an object array of references to those texts, filled by `texts[codes]`,
and one join: each distinct value is formatted once, and the text in
memory is O(chunk), not the whole table.  A column of any other kind
(ints, bools, objects, a sequence mixing str and other cells) raises
TypeError.  `write_json` writes strict JSON: a nan or infinite number
raises ValueError before the file is opened."""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

CSV_VERSION = "driftwell-csv v1"

# cap on the rows in one chunk of CSV text (~0.4 MB of a lattice)
_CHUNK_ROWS = 8192


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _codes(col):
    """Dictionary encoding of a column's cells as CSV text: `texts` holds
    each distinct cell's text, formatted once, and `codes`, shaped like the
    column, the index of each cell's text (np.unique's inverse is reshaped,
    as numpy 1.x and 2.x shape it differently).  A float column is keyed by
    float64 bit pattern and written with repr: equal bits have equal repr
    and distinct bits keep their own entry, so -0.0 and 0.0 stay apart and
    `texts[codes]` is repr cell by cell.  A str column is written as is."""
    if col.dtype.kind == "f":
        bits = np.ascontiguousarray(col, dtype=np.float64).view(np.int64)
        keys, codes = np.unique(bits, return_inverse=True)
        texts = list(map(repr, keys.view(np.float64).tolist()))
    elif col.dtype.kind == "U":
        keys, codes = np.unique(col, return_inverse=True)
        texts = keys.tolist()
    else:
        raise TypeError(f"a CSV column holds floats or str, not {col.dtype}")
    return np.array(texts, dtype=object), codes.reshape(col.shape)


def write_csv(path, header, columns, meta: dict | None = None) -> None:
    """Write the comment lines, the header row, then one row per element of
    the columns' broadcast shape, in C order, one chunk of whole first-axis
    lines at a time.  A column is sliced along the first axis only when
    that axis is the table's; one of length 1 there (or with fewer axes)
    is broadcast whole into every chunk."""
    cols = []
    for i, given in enumerate(columns):
        col = np.asarray(given)
        # numpy reads a sequence mixing str and other cells as str, and
        # would write those other cells with str, not repr
        if col.dtype.kind == "U" and not isinstance(given, np.ndarray):
            if not all(isinstance(c, str) for c in np.asarray(given, dtype=object).flat):
                raise TypeError(f"CSV column {i} mixes str and other cells")
        cols.append(col)
    shape = np.broadcast_shapes(*(col.shape for col in cols))
    seps = [","] * (len(cols) - 1) + ["\n"]
    coded = []
    for col, sep in zip(cols, seps):
        texts, codes = _codes(col)
        codes = codes.reshape((1,) * (len(shape) - codes.ndim) + codes.shape)
        coded.append((texts + sep, codes))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {CSV_VERSION}",
             f"# timestamp: {datetime.now(timezone.utc).isoformat()}"]
    if meta:
        for key in sorted(meta):
            lines.append(f"# {key}: {_fmt(meta[key])}")
    lines.append(",".join(header))
    step = max(1, _CHUNK_ROWS // max(1, math.prod(shape[1:])))
    with path.open("w") as fh:
        fh.write("\n".join(lines) + "\n")
        for i in range(0, shape[0], step):
            chunk = slice(i, i + step)
            cells = np.empty((min(step, shape[0] - i), *shape[1:], len(coded)),
                             dtype=object)
            for k, (texts, codes) in enumerate(coded):
                cells[..., k] = texts[codes[chunk] if len(codes) > 1 else codes]
            fh.write("".join(cells.ravel().tolist()))


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
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                               default=_json_default) + "\n")
