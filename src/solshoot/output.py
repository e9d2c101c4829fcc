"""Deterministic CSV and JSON emitters for command-line reports.

Every document is a metadata mapping plus a rectangular table (column
names and rows).  CSV renders the metadata as `#`-prefixed header lines
followed by one comma-separated line per record; JSON renders a single
object with ``meta`` and ``records`` keys.  Floats are written with
``repr`` (shortest round-trip form), so identical inputs produce
byte-identical output; nothing here reads the clock.
"""

import json
import sys

import numpy as np

__all__ = ["format_value", "format_csv", "format_json", "write_text"]


def _plain(value):
    """Native Python value for JSON serialization."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def format_value(value) -> str:
    """Canonical text form of one cell or metadata value."""
    value = _plain(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def format_csv(meta: dict, columns, records) -> str:
    lines = [f"# {key} = {format_value(val)}" for key, val in meta.items()]
    lines.append("# columns: " + ",".join(columns))
    for rec in records:
        if len(rec) != len(columns):
            raise ValueError(
                f"record width {len(rec)} does not match {len(columns)} columns"
            )
        lines.append(",".join(format_value(v) for v in rec))
    return "\n".join(lines) + "\n"


def format_json(meta: dict, columns, records) -> str:
    doc = {
        "meta": {key: _plain(val) for key, val in meta.items()},
        "records": [
            dict(zip(columns, (_plain(v) for v in rec), strict=True))
            for rec in records
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_text(path, text: str) -> None:
    """Write to ``path``, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
