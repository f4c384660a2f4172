"""CSV/JSON emission with a versioned header and round-trip precision.

CSV layout: a schema-version comment line, a timestamp comment line (with
eig1d's runtime_s in eigen.json, the only non-deterministic bytes in any
output), optional sorted metadata comments, then a header row and data
rows.  Floats are written with repr (shortest decimal that round-trips).
Callers pass columns as Python lists (ndarray.tolist()): a Python float cell
goes straight to repr, and only other cells take the type dispatch."""

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


def write_csv(path, columns, rows, meta: dict | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {CSV_VERSION}",
             f"# timestamp: {datetime.now(timezone.utc).isoformat()}"]
    if meta:
        for key in sorted(meta):
            lines.append(f"# {key}: {_fmt(meta[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join([repr(v) if type(v) is float else _fmt(v)
                               for v in row]))
    path.write_text("\n".join(lines) + "\n")


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
