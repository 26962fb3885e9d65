"""Report serialisation: canonical JSON/CSV with atomic writes.

Reports must be byte-identical across runs for a fixed configuration and
seed, so serialisation is fully canonical (sorted keys, repr floats) and
contains no timestamps.  Reports are strict JSON: a field with no value
(the slope of a one-point fit) is written as ``null`` via
:func:`null_if_nan`, and any other non-finite float makes serialisation
raise instead of writing a bare ``NaN`` token.  A report is serialised
once, by :func:`json_bytes` or :func:`csv_bytes`, and those bytes go to
stdout or to :func:`write_report`, which writes a temp file in the target
directory and renames it into place; a failed computation never leaves a
partial report behind.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

__all__ = ["null_if_nan", "json_bytes", "csv_bytes", "write_report"]


def null_if_nan(value: float) -> float | None:
    """``value``, or ``None`` (JSON ``null``) when it is NaN: no value."""
    return None if math.isnan(value) else value


def json_bytes(obj) -> bytes:
    """Canonical UTF-8 JSON: sorted keys, two-space indent, trailing newline.

    Raises ``ValueError`` on a NaN or infinite float.
    """
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def csv_bytes(rows) -> bytes:
    """CSV with comma separator and '.' decimals (floats via repr upstream)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def write_report(payload: bytes, path) -> None:
    """Write ``payload`` to ``path`` via temp-and-rename, never partially."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
