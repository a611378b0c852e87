"""Deterministic text serialization of numbers and small report trees.

Doubles are written with 17 significant decimal digits, which is enough
to round-trip any IEEE-754 double exactly, in any language.

`fmt` is the definition of a scalar's text.  For a Python float the
format spec `"{:.17g}"` gives the same bytes as `fmt` in every case,
including `nan` of either sign (written `nan`), `inf`, `-inf` and `-0`;
for a Python int `"{}"` gives the same bytes as `fmt`.  `write_table`
relies on this rule: a table row is one `str.format` template over
plain Python numbers, so large tables never call `fmt` per value.
"""

from __future__ import annotations

import math
from itertools import starmap

import numpy as np


def fmt(x) -> str:
    """Canonical text for one scalar (17 significant digits for floats)."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, complex):
        return f"{fmt(x.real)}{'+' if x.imag >= 0 or math.isnan(x.imag) else '-'}{fmt(abs(x.imag))}j"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def write_table(path, header, row_format: str, rows) -> None:
    """Write the `header` lines, then `row_format.format(*row)` per row.

    Every line ends in a newline; a template may span several lines.
    Rows are streamed, so no list of lines or joined text is built.
    """
    line = (row_format + "\n").format
    with open(path, "w") as fh:
        fh.writelines(h + "\n" for h in header)
        fh.writelines(starmap(line, rows))


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and stable key order.

    Supports the types that appear in run reports: dict, list/tuple,
    str, bool, None, int, float.  Dict keys keep insertion order so the
    emitted bytes are a pure function of the report content.  An
    integral float gains `.0` (`2.0`, `-0.0`) so that it reads back as a
    float; nan and inf, which JSON cannot hold, are written as the
    strings `"nan"`, `"inf"` and `"-inf"`.
    """
    pad = " " * indent
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
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
        return '"' + _json_escape(obj) + '"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + json_text(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append(pad + '  "' + _json_escape(str(k)) + '": ' + json_text(v, indent + 2))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
