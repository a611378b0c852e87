"""Deterministic text of numbers and small report trees.

Doubles are written with 17 significant digits (`"%.17g"`), which
round-trips any IEEE-754 double.  `fmt` defines a scalar's text and
`json_text` a report's; the one table writer, `table.write_table`, must
give the same bytes as `fmt` on every value.  Both take Python values
only (every value of a report is one), and neither loads numpy.  Every
output file of a run is made by `create`.
"""

from __future__ import annotations

import math
import os


def create(path):
    """A new file at `path`, open for binary writing.  A file already
    there, such as the output of an earlier run into the same directory,
    is unlinked first rather than truncated: truncating a large file
    costs more than removing it, and a hard link to the old file keeps
    its bytes.  Into a fresh directory this takes one open call."""
    try:
        return open(path, "xb")
    except FileExistsError:
        os.unlink(path)
        return open(path, "xb")


def fmt(x) -> str:
    """Canonical text for one scalar (17 significant digits for floats)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, complex):
        return f"{fmt(x.real)}{'+' if x.imag >= 0 or math.isnan(x.imag) else '-'}{fmt(abs(x.imag))}j"
    if isinstance(x, float):
        return "%.17g" % x           # nan (of either sign), inf, -inf, -0 included
    return str(x)


_JSON_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and stable key order.

    Supports the Python types that appear in run reports: dict,
    list/tuple, str, bool, None, int, float; another type, such as a
    numpy array or integer, raises `TypeError`.  Dict keys keep
    insertion order so the emitted bytes are a pure function of the
    report content.  An integral float gains `.0` (`2.0`, `-0.0`) so that
    it reads back as a float; nan and inf, which JSON cannot hold, are
    written as the strings `"nan"`, `"inf"` and `"-inf"`.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return fmt(obj)
    if isinstance(obj, float):
        text = fmt(obj)
        if not math.isfinite(obj):
            return '"' + text + '"'
        return text + ".0" if text.lstrip("-").isdigit() else text
    if isinstance(obj, str):
        return '"' + obj.translate(_JSON_ESCAPES) + '"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + json_text(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (pad + '  "' + str(k).translate(_JSON_ESCAPES) + '": ' + json_text(v, indent + 2)
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
